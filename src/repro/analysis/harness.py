"""Resilient experiment harness: watchdogs, retries, checkpointed sweeps.

Every sweep in this repo used to run unsupervised: one divergent CCA run
(livelocked event loop, runaway queue) aborted an entire grid with no
partial results. This module supplies the missing robustness layer:

* :class:`RunBudget` — per-run event-count and wall-clock budgets,
  enforced by the engine watchdog (:class:`~repro.errors.
  BudgetExceededError`).
* :func:`run_with_retry` — bounded retries with parameter back-off for
  flaky or budget-limited runs.
* :class:`ResilientSweep` — grid execution with graceful degradation
  (a failed point becomes a structured :class:`RunFailure` instead of
  aborting the sweep) and JSON checkpointing so interrupted sweeps
  resume from the last completed point.

The harness is deliberately generic: a "grid point" is any
JSON-serializable key plus a run callable returning a
JSON-serializable result, so packet sweeps, fluid-model sweeps, and
benchmark panels all fit.
"""

from __future__ import annotations

import json
import signal
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Sequence, Tuple)

from ..errors import ReproError, SweepAbortedError
from ..store.fsio import FileIO


@dataclass
class RunBudget:
    """Watchdog limits for one experiment run.

    Args:
        max_events: engine events allowed per run (None = unlimited).
        wall_clock: real seconds allowed per run (None = unlimited).
        retries: additional attempts after the first failure.
        backoff: multiplier applied to both budgets on each retry, so a
            run that merely needed more headroom gets it (a genuinely
            livelocked run still fails, just a bit later).
    """

    max_events: Optional[int] = 20_000_000
    wall_clock: Optional[float] = 60.0
    retries: int = 1
    backoff: float = 2.0

    def __post_init__(self) -> None:
        if self.max_events is not None and self.max_events <= 0:
            raise ValueError(f"max_events must be > 0, got {self.max_events}")
        if self.wall_clock is not None and self.wall_clock <= 0:
            raise ValueError(f"wall_clock must be > 0, got {self.wall_clock}")
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff}")

    def scaled(self, attempt: int) -> "RunBudget":
        """The budget for the given 0-based attempt (back-off applied)."""
        factor = self.backoff ** attempt
        return RunBudget(
            max_events=None if self.max_events is None
            else int(self.max_events * factor),
            wall_clock=None if self.wall_clock is None
            else self.wall_clock * factor,
            retries=self.retries, backoff=self.backoff)


@dataclass
class RunFailure:
    """A machine-readable record of one failed grid point.

    ``kind`` classifies how the point died:

    * ``"error"`` — the run raised a recoverable exception (budget
      blowout, simulation error, invariant violation); ``reason``
      holds the exception class name.
    * ``"internal"`` — an unexpected non-recoverable exception (a
      programming error) was wrapped instead of aborting the sweep.
    * ``"worker_lost"`` — the pool worker executing the point died
      (killed, segfaulted, ``os._exit``) and the point was quarantined
      after repeated respawns.
    * ``"timeout"`` — the point exceeded its parent-side wall timeout
      and its worker was terminated.

    ``bundle`` is the path of the crash bundle captured for this
    failure (None when no crash directory was configured or the
    failure happened outside the worker body).
    """

    key: str
    reason: str                  # exception class name, e.g. "BudgetExceededError"
    message: str
    attempts: int
    elapsed: float               # wall-clock seconds spent across attempts
    params: Dict[str, Any] = field(default_factory=dict)
    kind: str = "error"
    bundle: Optional[str] = None

    def to_json(self) -> Dict[str, Any]:
        return {"key": self.key, "reason": self.reason,
                "message": self.message, "attempts": self.attempts,
                "elapsed": self.elapsed, "params": self.params,
                "kind": self.kind, "bundle": self.bundle}

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "RunFailure":
        return RunFailure(key=data["key"], reason=data["reason"],
                          message=data["message"],
                          attempts=data["attempts"],
                          elapsed=data["elapsed"],
                          params=data.get("params", {}),
                          kind=data.get("kind", "error"),
                          bundle=data.get("bundle"))


#: Exceptions a run may raise that the harness degrades gracefully on.
#: Anything else (e.g. a TypeError from a bad experiment script) is a
#: programming error and propagates immediately.
RECOVERABLE = (ReproError, ArithmeticError, MemoryError, RecursionError)


def run_with_retry(fn: Callable[..., Any],
                   budget: Optional[RunBudget] = None,
                   on_retry: Optional[Callable[[int, BaseException],
                                               None]] = None) -> Any:
    """Call ``fn(budget=...)`` with bounded retries and budget back-off.

    ``fn`` receives the attempt's (scaled) :class:`RunBudget` as a
    keyword argument and should pass its limits into the run (e.g.
    ``run_scenario_full(..., max_events=budget.max_events,
    wall_clock_budget=budget.wall_clock)``). On a recoverable failure
    the call is retried up to ``budget.retries`` times, with both
    budgets multiplied by ``budget.backoff`` each attempt; the last
    failure propagates.

    ``on_retry(attempt, exc)`` is invoked before each retry — use it to
    back off *parameters* too (shorter duration, coarser sampling).
    """
    budget = budget or RunBudget()
    last_exc: Optional[BaseException] = None
    for attempt in range(budget.retries + 1):
        try:
            return fn(budget=budget.scaled(attempt))
        except RECOVERABLE as exc:
            last_exc = exc
            if attempt < budget.retries and on_retry is not None:
                on_retry(attempt, exc)
    assert last_exc is not None
    raise last_exc


@dataclass
class SweepOutcome:
    """Everything a resilient sweep produced.

    ``completed`` maps point keys to run results (in grid order);
    ``failures`` holds one :class:`RunFailure` per divergent point;
    ``resumed`` counts points skipped because a checkpoint already had
    them. With a result store attached, ``hits``/``misses`` count the
    points served from cache versus actually simulated — a fully warm
    sweep shows ``misses == 0``.
    """

    completed: Dict[str, Any]
    failures: List[RunFailure]
    resumed: int = 0
    hits: int = 0
    misses: int = 0
    #: Points that simulated fine but could not be persisted to the
    #: store (ENOSPC and friends) — a subset of ``misses``; the sweep
    #: degraded to no-cache mode for them instead of failing.
    degraded: int = 0
    #: True when a ``stop_check`` ended the sweep before every point
    #: ran (the sweep-service's cooperative job cancellation). The
    #: checkpoint holds everything that finished.
    stopped: bool = False
    #: True when a checkpoint write raised ``OSError``: the sweep ran
    #: on, but an interrupted rerun may redo points the lost write
    #: would have recorded.
    checkpoint_degraded: bool = False

    @property
    def failed_keys(self) -> List[str]:
        return [f.key for f in self.failures]

    def result_for(self, key: str) -> Optional[Any]:
        return self.completed.get(key)


class ResilientSweep:
    """Run a grid of experiments with watchdogs, retries, checkpoints.

    Args:
        run_point: ``run_point(params, budget)`` executes one grid point
            and returns a JSON-serializable result. It should forward
            ``budget.max_events``/``budget.wall_clock`` into the
            simulator so the watchdog can fire. With a parallel backend
            it must be a *module-level* function and ``params`` must be
            picklable (see :mod:`repro.analysis.backends`).
        budget: per-point :class:`RunBudget` (default: a generous one).
        checkpoint_path: JSON file for incremental progress. Written
            atomically after *every* point; on the next invocation,
            completed and failed points found there are skipped, so an
            interrupted sweep resumes where it stopped. A missing or
            unreadable file means a fresh start, and a write that
            raises ``OSError`` only sets
            :attr:`SweepOutcome.checkpoint_degraded` — the sweep goes
            on without resumability. None disables checkpointing.
        retry_failures_on_resume: when True, points recorded as
            failures in the checkpoint are attempted again on resume
            (completed points are never re-run).
        backend: an :class:`~repro.analysis.backends.SerialBackend`
            (default) or
            :class:`~repro.analysis.backends.ProcessPoolBackend`
            deciding where points execute. Checkpoint/failure semantics
            are backend-independent.
        crash_dir: directory for crash bundles (see
            :mod:`repro.analysis.diagnostics`). Every failed point
            captures a reproducible bundle there and the
            :class:`RunFailure` record carries its path; None (default)
            disables capture.
        store: a :class:`~repro.store.ResultStore` for content-addressed
            result caching. Every point is looked up before it is
            simulated and stored after (successes only), so re-running
            a sweep with a warm store executes zero simulations. With a
            store, the checkpoint stops persisting results of its own:
            it records each completed point's *cache key* and becomes a
            view over the store (results from a pre-store checkpoint
            stay inline). A checkpoint entry whose store object was
            garbage-collected simply re-runs. Checkpoints are written
            through the store's ``fs`` seam, so a chaos
            :class:`~repro.service.chaos.FaultyFS` reaches them too.
        refresh: recompute every point even when cached, overwriting
            store entries (the CLI's ``--force``).
        max_failures: fail-fast threshold — the number of failed points
            tolerated before the sweep aborts with a
            :class:`~repro.errors.SweepAbortedError` (``0`` aborts on
            the first failure; ``None``, the default, never aborts).
            A sweep that is mostly quarantining points is usually a
            broken setup, not a broken scenario; better to stop with a
            clear error than grind to the end. The checkpoint is
            flushed before the raise, and failures loaded from a
            resumed checkpoint count toward the threshold, so a
            re-invocation without fixing anything aborts immediately
            instead of burning the grid again.
        stop_check: a zero-argument callable polled after every
            finished point (post checkpoint flush). Returning True ends
            the sweep cooperatively: in-flight backend work is torn
            down, the outcome carries ``stopped=True``, and everything
            completed so far survives in the checkpoint — the
            sweep-service uses this for job cancellation.

    Example::

        sweep = ResilientSweep(run_point, checkpoint_path="sweep.json")
        outcome = sweep.run([("2mbps", {"rate": 2.0}),
                             ("50mbps", {"rate": 50.0})])
        outcome.completed   # {"2mbps": {...}, "50mbps": {...}}
        outcome.failures    # [RunFailure(...)] for divergent points
    """

    #: Version 1 checkpoints inline every result; version 2 (written
    #: when a result store is attached) records cache keys instead and
    #: resolves them through the store on load.
    CHECKPOINT_VERSION = 1
    CHECKPOINT_STORE_VERSION = 2

    def __init__(self, run_point: Callable[[Dict[str, Any], RunBudget],
                                           Any],
                 budget: Optional[RunBudget] = None,
                 checkpoint_path: Optional[str] = None,
                 retry_failures_on_resume: bool = False,
                 progress: Optional[Callable[[str, str], None]] = None,
                 backend: Optional[object] = None,
                 store: Optional[object] = None,
                 refresh: bool = False,
                 crash_dir: Optional[str] = None,
                 max_failures: Optional[int] = None,
                 stop_check: Optional[Callable[[], bool]] = None) -> None:
        if max_failures is not None and max_failures < 0:
            raise ValueError(
                f"max_failures must be >= 0, got {max_failures}")
        self.run_point = run_point
        self.budget = budget or RunBudget()
        self.checkpoint_path = checkpoint_path
        self.retry_failures_on_resume = retry_failures_on_resume
        self.max_failures = max_failures
        self.progress = progress
        if backend is None:
            # Imported here: backends.py imports this module's budget
            # and failure types.
            from .backends import SerialBackend
            backend = SerialBackend()
        self.backend = backend
        self.store = store
        self.fs = store.fs if store is not None else FileIO()
        self.refresh = refresh
        self.crash_dir = crash_dir
        self.stop_check = stop_check
        self._interrupted: Optional[int] = None

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def _load_state(self) -> Tuple[Dict[str, Any], Dict[str, str],
                                   List[RunFailure]]:
        """Prior progress as ``(results, cache-key refs, failures)``.

        Version 1 files carry results inline (refs stay empty).
        Version 2 files carry cache keys; each is resolved through the
        attached store, and an unresolvable key (entry gc'd, store
        moved, no store attached) silently drops the point so it simply
        re-runs — the checkpoint is a view, the store is the truth.
        A missing, torn or malformed file (valid JSON of the wrong
        shape, a corrupted cache key) reads as no checkpoint at all.
        """
        if self.checkpoint_path is None:
            return {}, {}, []
        try:
            with open(self.checkpoint_path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
            version = data.get("version")
            completed: Dict[str, Any] = {}
            refs: Dict[str, str] = {}
            if version == self.CHECKPOINT_VERSION:
                completed = dict(data.get("completed", {}))
            elif version == self.CHECKPOINT_STORE_VERSION:
                completed = dict(data.get("inline", {}))
                if self.store is not None:
                    for key, cache_key in data.get("completed", {}).items():
                        found, result = self.store.fetch(cache_key)
                        if found:
                            completed[key] = result
                            refs[key] = cache_key
            else:
                return {}, {}, []
            failures = [RunFailure.from_json(f)
                        for f in data.get("failures", [])]
        except (OSError, ValueError, TypeError, KeyError, AttributeError,
                ReproError):
            return {}, {}, []
        return completed, refs, failures

    def _write_checkpoint(self, completed: Dict[str, Any],
                          failures: List[RunFailure],
                          refs: Dict[str, str]) -> bool:
        """Persist progress; False when the write raised ``OSError``."""
        if self.checkpoint_path is None:
            return True
        if self.store is not None:
            payload = {
                "version": self.CHECKPOINT_STORE_VERSION,
                "store": self.store.root,
                # The store holds the results; the checkpoint only
                # remembers which cache keys belong to this grid.
                "completed": {key: refs[key] for key in completed
                              if key in refs},
                # Results that never obtained a cache key (carried over
                # from a pre-store checkpoint) are kept inline so
                # nothing is lost.
                "inline": {key: value for key, value in completed.items()
                           if key not in refs},
                "failures": [f.to_json() for f in failures],
            }
        else:
            payload = {
                "version": self.CHECKPOINT_VERSION,
                "completed": completed,
                "failures": [f.to_json() for f in failures],
            }
        try:
            self.fs.write_atomic(self.checkpoint_path,
                                 json.dumps(payload, indent=1,
                                            sort_keys=True),
                                 prefix=".checkpoint-")
        except OSError:
            return False
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    @contextmanager
    def _trap_signals(self):
        """Convert SIGINT/SIGTERM into a cooperative stop.

        The handler only sets a flag; the run loop notices it after the
        in-flight point lands and its checkpoint is flushed, then
        re-raises, so an interrupted sweep always resumes cleanly from
        a consistent checkpoint. Outside the main thread (or where
        signals are unavailable) this is a transparent no-op.
        """
        self._interrupted = None
        if threading.current_thread() is not threading.main_thread():
            yield
            return
        previous = {}

        def handler(signum, frame):
            self._interrupted = signum

        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, handler)
            except (ValueError, OSError):  # pragma: no cover - exotic env
                pass
        try:
            yield
        finally:
            for sig, old in previous.items():
                try:
                    signal.signal(sig, old)
                except (ValueError, OSError):  # pragma: no cover
                    pass

    def run(self, points: Sequence[Tuple[str, Dict[str, Any]]]
            ) -> SweepOutcome:
        """Execute every grid point, degrading gracefully on failures.

        Points already present in the checkpoint are skipped; the rest
        are handed to the execution backend (serially by default, or a
        process pool). The checkpoint is rewritten after every finished
        point regardless of backend, so an interrupted parallel sweep
        resumes exactly like a serial one. SIGINT/SIGTERM are trapped
        for the duration of the run: the in-flight point finishes, the
        checkpoint is flushed, and only then does the signal re-raise
        (KeyboardInterrupt / SystemExit).
        """
        keys = [key for key, _ in points]
        if len(set(keys)) != len(keys):
            raise ValueError("grid point keys must be unique")
        completed, refs, failures = self._load_state()
        if self.retry_failures_on_resume:
            failures = []
        failed_keys = {f.key for f in failures}
        pending = [(key, params) for key, params in points
                   if key not in completed and key not in failed_keys]
        resumed = len(points) - len(pending)
        hits = misses = degraded = 0
        stopped = checkpoint_degraded = False
        self._check_failure_threshold(failures)
        with self._trap_signals():
            for outcome in self.backend.execute(
                    self.run_point, pending, self.budget,
                    on_start=lambda key: self._note(key, "run"),
                    store=self.store, refresh=self.refresh,
                    crash_dir=self.crash_dir):
                if outcome.failure is not None:
                    failures.append(outcome.failure)
                    failed_keys.add(outcome.key)
                    self._note(outcome.key,
                               f"failed: {outcome.failure.reason}")
                else:
                    completed[outcome.key] = outcome.result
                    if outcome.cache_key is not None:
                        refs[outcome.key] = outcome.cache_key
                    if outcome.cached:
                        hits += 1
                        self._note(outcome.key, "cached")
                    elif outcome.degraded:
                        misses += 1
                        degraded += 1
                        self._note(outcome.key, "degraded")
                    else:
                        misses += 1
                        self._note(outcome.key, "ok")
                if not self._write_checkpoint(completed, failures, refs):
                    checkpoint_degraded = True
                # Fail-fast after the flush: everything that finished
                # survives for a resume with a fixed setup. Raising
                # here closes the backend generator, which tears down
                # any pool workers.
                self._check_failure_threshold(failures)
                if self.stop_check is not None and self.stop_check():
                    stopped = True
                if stopped or self._interrupted is not None:
                    # Exiting the loop closes the backend generator,
                    # which tears down any pool workers.
                    break
        if self._interrupted is not None:
            signum, self._interrupted = self._interrupted, None
            if signum == signal.SIGTERM:
                raise SystemExit(128 + signum)
            raise KeyboardInterrupt
        return SweepOutcome(completed=completed, failures=failures,
                            resumed=resumed, hits=hits, misses=misses,
                            degraded=degraded, stopped=stopped,
                            checkpoint_degraded=checkpoint_degraded)

    def _check_failure_threshold(self,
                                 failures: List[RunFailure]) -> None:
        if self.max_failures is not None \
                and len(failures) > self.max_failures:
            raise SweepAbortedError(
                f"sweep aborted: {len(failures)} point(s) failed, "
                f"exceeding max_failures={self.max_failures} "
                f"(last: {failures[-1].key}: {failures[-1].reason}: "
                f"{failures[-1].message})",
                failures=list(failures))

    def _note(self, key: str, status: str) -> None:
        if self.progress is not None:
            self.progress(key, status)


def _first_line(exc: BaseException) -> str:
    text = str(exc) or type(exc).__name__
    return text.splitlines()[0]


def describe_failures(failures: Sequence[RunFailure]) -> str:
    """A compact human-readable failure table for reports/logs."""
    if not failures:
        return "no failures"
    lines = ["key                  reason                 attempts  detail"]
    for f in failures:
        lines.append(f"{f.key:20.20s} {f.reason:22.22s} "
                     f"{f.attempts:8d}  {f.message:.60s}")
    return "\n".join(lines)


def format_traceback(exc: BaseException) -> str:
    """Full traceback text for verbose failure logging."""
    return "".join(traceback.format_exception(type(exc), exc,
                                              exc.__traceback__))
