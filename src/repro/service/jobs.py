"""Durable job model: what the sweep service is asked to compute.

A *job* is one declarative batch of simulation work — a rate-delay
sweep grid or a competition matrix — expressed as pure data so it can
cross an HTTP boundary, be hashed to a stable id, and be replayed after
a daemon restart. The moving parts:

* :class:`JobSpec` — the validated, normalized request. Normalization
  (defaults filled in, numbers coerced) happens at construction so two
  documents describing the same experiment serialize identically and
  therefore share one content-derived :func:`job_id`.
* :func:`build_plan` — compiles a spec into a :class:`JobPlan`: the
  exact ``(run_point, points)`` grid a local ``repro sweep`` /
  ``repro matrix`` of the same parameters would execute (via the shared
  builders in :mod:`repro.analysis.sweep` /
  :mod:`repro.analysis.competition`), plus the assembler that folds the
  outcome back into the result document. Byte-identity between a
  submitted job and a local run is *by construction*, not by test luck.
* :class:`Job` — the mutable execution record: state machine
  (``queued → running → done|failed|cancelled``, plus ``dead`` when a
  job exhausts its lease-takeover attempt budget), per-point progress
  counters (done / cached / failed), lease stamps, timestamps, error
  text.
* :class:`JobStore` — one directory per job with atomic JSON
  persistence (``job.json``), an append-only NDJSON progress log
  (``events.ndjson``) and the rendered result document
  (``result.json``). A restarted daemon rebuilds its queue from these
  files alone.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from .. import units
from ..errors import ConfigurationError, ServiceError, SpecValidationError
from ..store import cache_key
from ..store.fsio import FileIO, tail_sealed

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
#: Dead-letter: the job's lease expired ``max_attempts`` times — every
#: daemon that picked it up died (or hung past the lease) mid-run.
#: Listed via ``GET /jobs?state=dead`` for operator triage; a resubmit
#: resets the attempt budget and tries again.
DEAD = "dead"
STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED, DEAD)
#: States a job cannot leave without being resubmitted.
TERMINAL = (DONE, FAILED, CANCELLED, DEAD)

#: The spec kinds the service executes.
KINDS = ("sweep", "matrix")

#: The task identity hashed into every job id (versioned with the code
#: fingerprint, so ids roll over when result-affecting code changes).
JOB_TASK = "repro.service:job"


def _positive(value: Any, name: str) -> float:
    try:
        number = float(value)
    except (TypeError, ValueError):
        raise ServiceError(f"{name} must be a number, got {value!r}")
    if not number > 0 or number != number or number == float("inf"):
        raise ServiceError(f"{name} must be finite and > 0, got {value!r}")
    return number


def _registered_cca(name: Any) -> str:
    from ..ccas import registry
    if not isinstance(name, str) or not registry.is_registered(name):
        raise ServiceError(
            f"unknown CCA {name!r}; choose from "
            f"{', '.join(registry.names())}")
    return name


@dataclass(frozen=True)
class JobSpec:
    """A validated, normalized service request.

    ``kind`` selects the grid family; ``params`` is the normalized
    parameter document (every default filled in explicitly, so the
    JSON form — and therefore the content-derived job id — is a pure
    function of the experiment, not of which optional keys the client
    happened to send).

    Sweep params: ``cca`` (registry name), ``rates_mbps`` (grid),
    ``rm_ms``, ``duration`` (None = per-point default), ``seed``,
    ``warmup_fraction``, ``mss``, optional ``template`` (a serialized
    :class:`~repro.spec.ScenarioSpec` swept over the grid instead of a
    fresh single-flow scenario).

    Matrix params: ``ccas`` (list), ``rate_mbps``, ``rm_ms``,
    ``duration``, ``seed``, ``warmup_fraction``, ``mss``,
    ``starve_threshold``, optional ``topology`` (a serialized
    :class:`~repro.spec.TopologySpec`).
    """

    kind: str
    params: Dict[str, Any]

    @staticmethod
    def sweep(cca: str, rates_mbps: List[float], rm_ms: float,
              duration: Optional[float] = None, seed: int = 0,
              warmup_fraction: float = 0.5, mss: int = 1500,
              template: Optional[Dict[str, Any]] = None) -> "JobSpec":
        rates = list(rates_mbps or [])
        if not rates:
            raise ServiceError("sweep needs a non-empty rates_mbps grid")
        return JobSpec("sweep", {
            "cca": _registered_cca(cca),
            "rates_mbps": [_positive(r, "rates_mbps[]") for r in rates],
            "rm_ms": _positive(rm_ms, "rm_ms"),
            "duration": None if duration is None
            else _positive(duration, "duration"),
            "seed": int(seed),
            "warmup_fraction": float(warmup_fraction),
            "mss": int(mss),
            "template": template,
        })

    @staticmethod
    def matrix(ccas: List[str], rate_mbps: float, rm_ms: float,
               duration: float = 30.0, seed: int = 0,
               warmup_fraction: float = 0.5, mss: int = 1500,
               starve_threshold: float = 50.0,
               topology: Optional[Dict[str, Any]] = None) -> "JobSpec":
        names = [_registered_cca(name) for name in (ccas or [])]
        if not names:
            raise ServiceError("matrix needs a non-empty ccas list")
        if len(set(names)) != len(names):
            raise ServiceError(f"duplicate CCA names: {names}")
        return JobSpec("matrix", {
            "ccas": names,
            "rate_mbps": _positive(rate_mbps, "rate_mbps"),
            "rm_ms": _positive(rm_ms, "rm_ms"),
            "duration": _positive(duration, "duration"),
            "seed": int(seed),
            "warmup_fraction": float(warmup_fraction),
            "mss": int(mss),
            "starve_threshold": float(starve_threshold),
            "topology": topology,
        })

    @staticmethod
    def from_json(data: Any) -> "JobSpec":
        """Validate a client-submitted document into a JobSpec."""
        if not isinstance(data, dict):
            raise ServiceError(
                f"job spec must be a JSON object, got {type(data).__name__}")
        kind = data.get("kind")
        known = {
            "sweep": (JobSpec.sweep,
                      ("cca", "rates_mbps", "rm_ms", "duration", "seed",
                       "warmup_fraction", "mss", "template")),
            "matrix": (JobSpec.matrix,
                       ("ccas", "rate_mbps", "rm_ms", "duration", "seed",
                        "warmup_fraction", "mss", "starve_threshold",
                        "topology")),
        }
        if kind not in known:
            raise ServiceError(
                f"job kind must be one of {KINDS}, got {kind!r}")
        builder, fields = known[kind]
        unknown = sorted(set(data) - set(fields) - {"kind"})
        if unknown:
            raise ServiceError(f"unknown {kind} spec field(s): {unknown}")
        kwargs = {key: data[key] for key in fields if key in data}
        try:
            return builder(**kwargs)
        except TypeError as exc:
            raise ServiceError(f"bad {kind} spec: {exc}")

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, **self.params}


def job_id(spec: JobSpec) -> str:
    """The content-derived job id: 16 hex chars of the spec's cache key.

    Derived through :func:`repro.store.cache_key`, so the id covers the
    normalized spec *and* the code fingerprint — two clients submitting
    the same experiment coalesce onto one job, and a new code version
    (whose results could differ) gets fresh ids by construction.
    """
    return cache_key(JOB_TASK, spec.to_json())[:16]


@dataclass
class JobPlan:
    """A compiled job: the grid to run and how to render its result."""

    run_point: Callable[..., Any]
    points: List[Tuple[str, Dict[str, Any]]]
    #: ``assemble(outcome) -> result document`` (strict JSON).
    assemble: Callable[[Any], Dict[str, Any]]
    label: str = ""


def build_plan(spec: JobSpec) -> JobPlan:
    """Compile a spec into the exact grid a local CLI run would execute.

    Delegates to the shared grid builders
    (:func:`repro.analysis.sweep.build_rate_delay_points`,
    :func:`repro.analysis.competition.build_matrix_points`) and
    assemblers, so a submitted job's cache keys and result document are
    byte-identical to ``repro sweep`` / ``repro matrix`` of the same
    parameters — the service adds a transport, never a new semantics.
    """
    try:
        if spec.kind == "sweep":
            return _build_sweep_plan(spec.params)
        if spec.kind == "matrix":
            return _build_matrix_plan(spec.params)
    except (ConfigurationError, SpecValidationError, KeyError) as exc:
        raise ServiceError(f"cannot compile {spec.kind} spec: {exc}")
    raise ServiceError(f"unknown job kind {spec.kind!r}")


def _build_sweep_plan(params: Dict[str, Any]) -> JobPlan:
    from ..analysis.sweep import (assemble_rate_delay_curve,
                                  build_rate_delay_points,
                                  run_rate_delay_point)
    from ..spec import ScenarioSpec
    template = params.get("template")
    template_spec = (None if template is None
                     else ScenarioSpec.from_json(template))
    rm = units.ms(params["rm_ms"])
    label, points = build_rate_delay_points(
        params["cca"], params["rates_mbps"], rm,
        duration=params["duration"],
        warmup_fraction=params["warmup_fraction"],
        mss=params["mss"], seed=params["seed"], template=template_spec)

    def assemble(outcome: Any) -> Dict[str, Any]:
        curve = assemble_rate_delay_curve(label, rm, points, outcome)
        return curve.to_json()

    return JobPlan(run_point=run_rate_delay_point, points=points,
                   assemble=assemble, label=label)


def _build_matrix_plan(params: Dict[str, Any]) -> JobPlan:
    from ..analysis.competition import (assemble_competition_matrix,
                                        build_matrix_points,
                                        run_competition_point)
    from ..spec import TopologySpec
    topology = params.get("topology")
    topology_spec = (None if topology is None
                     else TopologySpec.from_json(topology))
    rate = units.mbps(params["rate_mbps"])
    rm = units.ms(params["rm_ms"])
    points = build_matrix_points(
        params["ccas"], rate, rm, duration=params["duration"],
        warmup_fraction=params["warmup_fraction"], mss=params["mss"],
        seed=params["seed"], topology=topology_spec)

    def assemble(outcome: Any) -> Dict[str, Any]:
        matrix = assemble_competition_matrix(
            params["ccas"], rate, rm, params["duration"], points,
            outcome, starve_threshold=params["starve_threshold"])
        return matrix.to_json()

    return JobPlan(run_point=run_competition_point, points=points,
                   assemble=assemble,
                   label="+".join(params["ccas"]))


@dataclass
class Job:
    """The mutable execution record of one submitted spec."""

    id: str
    spec: JobSpec
    state: str = QUEUED
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    #: Progress counters: ``total`` grid points, of which ``done`` were
    #: simulated live, ``cached`` served from the store, ``failed``
    #: recorded as RunFailures.
    total: int = 0
    done: int = 0
    cached: int = 0
    failed: int = 0
    #: Times this job has been (re)executed — a resubmitted spec re-runs
    #: under the same id with counters reset.
    runs: int = 0
    #: Executions charged against the current submission's attempt
    #: budget (unlike ``runs``, reset by :meth:`reset_run`); when a
    #: lease-expiry takeover would exceed the service's
    #: ``max_attempts``, the job goes ``dead`` instead of requeueing.
    attempts: int = 0
    #: The lease: which daemon instance is executing this job, and the
    #: wall-clock time its claim expires. The executor heartbeats
    #: ``lease_expires`` forward in ``job.json``; a ``running`` job
    #: whose lease has lapsed is provably orphaned (its daemon was
    #: SIGKILLed or hung) and is safe to take over.
    lease_owner: Optional[str] = None
    lease_expires: Optional[float] = None
    #: True when the last execution was fully served from the store
    #: without touching the worker pool (the warm short-circuit).
    warm: bool = False
    #: True when the execution hit storage faults and degraded to
    #: no-cache mode (results correct, some points not persisted).
    degraded: bool = False
    error: Optional[str] = None

    @property
    def finished_points(self) -> int:
        return self.done + self.cached + self.failed

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.id,
            "spec": self.spec.to_json(),
            "state": self.state,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "progress": {"total": self.total, "done": self.done,
                         "cached": self.cached, "failed": self.failed},
            "runs": self.runs,
            "attempts": self.attempts,
            "lease": {"owner": self.lease_owner,
                      "expires": self.lease_expires},
            "warm": self.warm,
            "degraded": self.degraded,
            "error": self.error,
        }

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "Job":
        progress = data.get("progress") or {}
        state = data.get("state")
        if state not in STATES:
            raise ConfigurationError(f"bad job state {state!r}")
        lease = data.get("lease") or {}
        return Job(
            id=data["id"], spec=JobSpec.from_json(data["spec"]),
            state=state, created=data.get("created", 0.0),
            started=data.get("started"), finished=data.get("finished"),
            total=int(progress.get("total", 0)),
            done=int(progress.get("done", 0)),
            cached=int(progress.get("cached", 0)),
            failed=int(progress.get("failed", 0)),
            runs=int(data.get("runs", 0)),
            attempts=int(data.get("attempts", 0)),
            lease_owner=lease.get("owner"),
            lease_expires=lease.get("expires"),
            warm=bool(data.get("warm", False)),
            degraded=bool(data.get("degraded", False)),
            error=data.get("error"))

    def clear_lease(self) -> None:
        self.lease_owner = None
        self.lease_expires = None

    def reset_run(self) -> None:
        """Back to the queue for a fresh execution (resubmit/requeue)."""
        self.state = QUEUED
        self.started = None
        self.finished = None
        self.total = self.done = self.cached = self.failed = 0
        self.attempts = 0
        self.clear_lease()
        self.warm = False
        self.degraded = False
        self.error = None


class JobStore:
    """One directory per job, crash-safe, readable by a cold daemon.

    Layout::

        <root>/<job id>/job.json        atomic state+progress snapshot
                        events.ndjson   append-only progress stream
                        result.json     rendered result document
                        checkpoint.json harness checkpoint (mid-run)

    ``job.json`` and ``result.json`` are written by this store's
    :class:`~repro.store.fsio.FileIO` seam and the harness checkpoint
    by the result store's, both atomically, so a killed daemon leaves
    at worst a stale-but-parseable snapshot; :meth:`load_all` is how a
    restarted daemon resumes its queue. Event appends seal a torn
    trailing NDJSON line before writing, the same discipline as the
    store catalog, so one killed append never corrupts later records.
    """

    def __init__(self, root: str, fs: Optional[FileIO] = None) -> None:
        if not root:
            raise ConfigurationError("JobStore needs a root directory")
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        self.fs = fs if fs is not None else FileIO()
        self._lock = threading.Lock()
        #: Next event sequence number per job id (lazily initialized
        #: from the event file's line count on first append).
        self._event_seq: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def job_dir(self, jid: str) -> str:
        if not jid or os.sep in jid or jid.startswith("."):
            raise ConfigurationError(f"malformed job id {jid!r}")
        return os.path.join(self.root, jid)

    def checkpoint_path(self, jid: str) -> str:
        return os.path.join(self.job_dir(jid), "checkpoint.json")

    def _job_path(self, jid: str) -> str:
        return os.path.join(self.job_dir(jid), "job.json")

    def _events_path(self, jid: str) -> str:
        return os.path.join(self.job_dir(jid), "events.ndjson")

    def _result_path(self, jid: str) -> str:
        return os.path.join(self.job_dir(jid), "result.json")

    # ------------------------------------------------------------------
    # Job snapshots
    # ------------------------------------------------------------------

    def save(self, job: Job) -> None:
        """Atomically persist one job snapshot."""
        text = json.dumps(job.to_json(), indent=1, sort_keys=True) + "\n"
        self.fs.write_atomic(self._job_path(job.id), text,
                             prefix=".job-")

    def load(self, jid: str) -> Optional[Job]:
        """One persisted job, or None (missing/corrupt = absent)."""
        try:
            with open(self._job_path(jid), "r", encoding="utf-8") as fh:
                data = json.load(fh)
            return Job.from_json(data)
        except (OSError, json.JSONDecodeError, ConfigurationError,
                ServiceError, KeyError, TypeError, ValueError):
            return None

    def load_all(self) -> List[Job]:
        """Every persisted job, oldest submission first."""
        jobs: List[Job] = []
        try:
            names = sorted(os.listdir(self.root))
        except OSError:
            return jobs
        for name in names:
            if os.path.isdir(os.path.join(self.root, name)):
                job = self.load(name)
                if job is not None:
                    jobs.append(job)
        jobs.sort(key=lambda job: (job.created, job.id))
        return jobs

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------

    def append_event(self, jid: str, event: Dict[str, Any]) -> int:
        """Append one NDJSON progress line; returns its sequence number."""
        with self._lock:
            seq = self._event_seq.get(jid)
            if seq is None:
                seq = sum(1 for _ in self.events(jid))
            path = self._events_path(jid)
            line = json.dumps({"seq": seq, "ts": round(time.time(), 3),
                               **event}, sort_keys=True)
            # Seal-on-next-append (same rule as the store catalog): a
            # daemon killed mid-append leaves a torn final line; weld
            # this record onto it and both are lost to readers.
            prefix = "" if tail_sealed(path) else "\n"
            self.fs.append(path, prefix + line + "\n")
            self._event_seq[jid] = seq + 1
            return seq

    def events(self, jid: str, since: int = 0) -> Iterator[Dict[str, Any]]:
        """Progress lines with ``seq >= since``, oldest first."""
        try:
            with open(self._events_path(jid), "r",
                      encoding="utf-8") as fh:
                lines = fh.readlines()
        except OSError:
            return
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn trailing line from a killed daemon
            if isinstance(event, dict) and event.get("seq", 0) >= since:
                yield event

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------

    def write_result(self, jid: str, text: str) -> None:
        """Atomically persist the rendered result document."""
        self.fs.write_atomic(self._result_path(jid), text,
                             prefix=".result-")

    def read_result(self, jid: str) -> Optional[bytes]:
        try:
            with open(self._result_path(jid), "rb") as fh:
                return fh.read()
        except OSError:
            return None

    def clear_run_state(self, jid: str) -> None:
        """Drop the previous execution's checkpoint and event stream.

        Called when a terminal job is resubmitted: the fresh run must
        go through the result store again (that is what makes a warm
        resubmit report all-cached instead of silently reusing the old
        checkpoint), and its event stream restarts from seq 0.
        """
        with self._lock:
            for path in (self.checkpoint_path(jid),
                         self._events_path(jid)):
                try:
                    os.unlink(path)
                except OSError:
                    pass
            self._event_seq[jid] = 0

    def __repr__(self) -> str:
        return f"JobStore({self.root!r})"

