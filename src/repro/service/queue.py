"""The sweep service: an async work queue over the shared result store.

:class:`SweepService` owns the durable job queue. Clients (the HTTP
server, tests, or in-process callers) submit :class:`~.jobs.JobSpec`
documents; a single dispatcher thread drains the queue and executes one
job at a time, fanning that job's grid points out across the configured
:class:`~repro.analysis.backends.ProcessPoolBackend` workers. All jobs
feed one shared :class:`~repro.store.ResultStore`, so a point computed
for any client — or by a local ``repro sweep`` against the same cache
directory — is a catalog *hit* for every later job that needs it.

Design points:

* **Coalescing** — job ids are content-derived, so resubmitting an
  active spec returns the in-flight job instead of queueing a
  duplicate. Resubmitting a *terminal* spec re-executes it; with a warm
  store that run short-circuits to the store without touching the pool.
* **Durability** — every state transition is persisted through
  :class:`~.jobs.JobStore` before it is visible; :meth:`start` reloads
  the directory and requeues anything that was queued or mid-run when
  the previous daemon died (the harness checkpoint skips that job's
  already-finished points).
* **Leases** — a running job carries ``(lease_owner, lease_expires)``
  stamps in ``job.json``, heartbeated forward every ``lease_ttl / 3``
  seconds by the executing daemon. A ``running`` job whose lease has
  lapsed is provably orphaned — its daemon was SIGKILLed or is hung
  past the lease — so startup and an idle-loop reaper *take it over*:
  requeue it (the checkpoint resumes from the last finished point) or,
  once ``max_attempts`` executions have already been charged, park it
  in the ``dead`` dead-letter state for operator triage
  (``GET /jobs?state=dead``).
* **Degraded mode** — storage faults (ENOSPC and friends) during a run
  skip the cache ``put`` but keep the computed result
  (:func:`~repro.analysis.backends.execute_point` degrades per point);
  the job completes with ``degraded: true`` in its snapshot, events,
  and the service stats, instead of failing a whole sweep because the
  disk filled up. A checkpoint write that fails the same way costs
  only resumability (the harness reports it on
  :attr:`~repro.analysis.harness.SweepOutcome.checkpoint_degraded`)
  and flags the job degraded too. Job-state persistence itself is
  best-effort under the same faults: the in-memory queue stays
  authoritative and the job is flagged degraded.
* **Cancellation** — cooperative, via the harness ``stop_check``:
  queued jobs cancel immediately, running jobs stop at the next point
  boundary with their checkpoint intact.
* **Fail-fast** — ``max_failures`` rides through to
  :class:`~repro.analysis.harness.ResilientSweep`; a tripped threshold
  fails the job with the harness's error message, and per-point crash
  bundles land under the job directory.
"""

from __future__ import annotations

import json
import os
import queue as queue_module
import threading
import time
import uuid
from typing import Any, Dict, List, Optional

from ..analysis.backends import SerialBackend, make_backend
from ..analysis.harness import ResilientSweep, RunBudget
from ..errors import ConfigurationError, ServiceError, SweepAbortedError
from ..store import ResultStore, point_cache_key
from ..store.fsio import FileIO
from .jobs import (CANCELLED, DEAD, DONE, FAILED, QUEUED, RUNNING,
                   TERMINAL, Job, JobSpec, JobStore, build_plan, job_id)


def render_result(doc: Dict[str, Any]) -> str:
    """The canonical result serialization.

    Must match the CLI's ``--json`` output byte-for-byte
    (``json.dump(doc, fh, indent=1, sort_keys=True); fh.write("\\n")``)
    — the submit-wait-fetch contract is "same bytes as running it
    locally", asserted in ``tests/test_service.py``.
    """
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


class SweepService:
    """Durable job queue executing sweep/matrix specs over one store.

    Args:
        job_root: directory for per-job state (``<root>/<id>/...``).
        store: the shared content-addressed result store. Every point
            of every job crosses it, which is what makes warm
            resubmissions all-hits and results shareable with local
            ``repro sweep --cache-dir`` runs.
        jobs: worker processes per executing job (``None``/1 = serial).
        budget: per-point watchdog/retry budget.
        max_failures: fail a job once more than this many points have
            failed (None = run every point regardless).
        lease_ttl: seconds a running job's lease stays valid without a
            heartbeat. Must comfortably exceed the heartbeat period it
            implies (``lease_ttl / 3``) plus scheduling noise; small
            values make takeover tests fast, production wants tens of
            seconds.
        max_attempts: executions charged to one submission before a
            lease-expiry takeover declares the job ``dead`` instead of
            requeueing it (a job that kills every daemon that touches
            it must not poison-pill the queue forever).
        fs: filesystem seam for job persistence (chaos tests inject a
            :class:`~repro.service.chaos.FaultyFS`).
    """

    def __init__(self, job_root: str, store: ResultStore,
                 jobs: Optional[int] = None,
                 budget: Optional[RunBudget] = None,
                 max_failures: Optional[int] = None,
                 lease_ttl: float = 30.0,
                 max_attempts: int = 3,
                 fs: Optional[FileIO] = None) -> None:
        if not lease_ttl > 0:
            raise ConfigurationError(
                f"lease_ttl must be > 0, got {lease_ttl!r}")
        if int(max_attempts) < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts!r}")
        self.job_store = JobStore(job_root, fs=fs)
        self.store = store
        self.jobs = jobs
        self.budget = budget
        self.max_failures = max_failures
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = int(max_attempts)
        #: This daemon's lease identity (unique per process + instance).
        self.instance = f"{os.getpid()}.{uuid.uuid4().hex[:8]}"
        self._jobs: Dict[str, Job] = {}
        self._lock = threading.RLock()
        self._queue: "queue_module.Queue[Optional[str]]" = \
            queue_module.Queue()
        self._cancel_events: Dict[str, threading.Event] = {}
        self._stopping = threading.Event()
        self._dispatcher: Optional[threading.Thread] = None
        self._started = time.time()
        #: Lifetime counters, reported by /stats.
        self._submitted = 0
        self._coalesced = 0
        self._completed = 0
        self._warm_hits = 0
        self._takeovers = 0
        self._dead = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Load persisted jobs, requeue unfinished ones, start draining."""
        with self._lock:
            if self._dispatcher is not None:
                raise ServiceError("service already started")
            self._stopping.clear()
            for job in self.job_store.load_all():
                self._jobs[job.id] = job
                if job.state == RUNNING:
                    # A running job from a previous daemon: take it
                    # over only when its lease has provably lapsed.
                    # An unexpired lease may belong to a live daemon
                    # sharing this job directory — the idle reaper
                    # claims it if the heartbeats stop.
                    if self._lease_expired(job):
                        self._takeover(job)
                if job.state == QUEUED:
                    self._queue.put(job.id)
            self._dispatcher = threading.Thread(
                target=self._drain, name="sweep-service-dispatcher",
                daemon=True)
            self._dispatcher.start()

    def stop(self, timeout: float = 30.0) -> None:
        """Stop draining; a mid-run job goes back to queued on disk."""
        with self._lock:
            dispatcher = self._dispatcher
            if dispatcher is None:
                return
            self._dispatcher = None
        self._stopping.set()
        self._queue.put(None)
        dispatcher.join(timeout=timeout)

    # ------------------------------------------------------------------
    # Client surface
    # ------------------------------------------------------------------

    def submit(self, spec: JobSpec) -> Job:
        """Queue a spec; returns the (possibly pre-existing) job.

        Active jobs coalesce: a spec already queued or running is
        returned as-is. Terminal jobs (done/failed/cancelled) are
        re-executed under the same id — the previous run's checkpoint
        and events are cleared so every point flows through the result
        store again (warm store ⇒ all catalog hits, no simulations).
        """
        build_plan(spec)  # surface bad specs at submit time
        jid = job_id(spec)
        with self._lock:
            self._submitted += 1
            job = self._jobs.get(jid)
            if job is not None and job.state not in TERMINAL:
                self._coalesced += 1
                return job
            fresh = job is None
            if fresh:
                job = Job(id=jid, spec=spec,
                          created=round(time.time(), 3))
                self._jobs[jid] = job
            else:
                job.reset_run()
                job.created = round(time.time(), 3)
                self.job_store.clear_run_state(jid)
            self._cancel_events.pop(jid, None)
            try:
                # The submit ack must be durable — a client told
                # "queued" expects the job to survive a daemon restart.
                # On a storage fault, un-register and let the error
                # surface as a retryable 503 (resubmit is idempotent).
                self.job_store.save(job)
            except OSError:
                if fresh:
                    self._jobs.pop(jid, None)
                else:
                    # Already reset in memory: keep it executable (a
                    # client retry coalesces onto it) but flag the
                    # durability gap.
                    job.degraded = True
                    self._queue.put(jid)
                raise
            self._event(jid, {"event": "queued"})
            self._queue.put(jid)
            return job

    def get(self, jid: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(jid)

    def list_jobs(self) -> List[Job]:
        with self._lock:
            return sorted(self._jobs.values(),
                          key=lambda job: (job.created, job.id))

    def result_bytes(self, jid: str) -> Optional[bytes]:
        return self.job_store.read_result(jid)

    def events(self, jid: str, since: int = 0) -> List[Dict[str, Any]]:
        return list(self.job_store.events(jid, since=since))

    def cancel(self, jid: str) -> Optional[Job]:
        """Cancel a job: immediate when queued, cooperative when running.

        Returns the job (state may still be ``running`` briefly — the
        dispatcher confirms the cancellation at the next point
        boundary), or None for unknown ids. Terminal jobs are returned
        unchanged.
        """
        with self._lock:
            job = self._jobs.get(jid)
            if job is None or job.state in TERMINAL:
                return job
            if job.state == QUEUED:
                job.state = CANCELLED
                job.finished = round(time.time(), 3)
                self._persist(job)
                self._event(jid, {"event": "cancelled"})
                return job
            event = self._cancel_events.get(jid)
            if event is not None:
                event.set()
            return job

    def stats(self) -> Dict[str, Any]:
        """Service-level counters plus the shared store's catalog view."""
        with self._lock:
            states: Dict[str, int] = {}
            degraded = 0
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
                if job.degraded:
                    degraded += 1
            counters = {
                "submitted": self._submitted,
                "coalesced": self._coalesced,
                "completed": self._completed,
                "warm": self._warm_hits,
                "takeovers": self._takeovers,
                "dead": self._dead,
                "degraded": degraded,
            }
        store_stats = self.store.stats()
        return {
            "uptime_s": round(time.time() - self._started, 3),
            "instance": self.instance,
            "jobs": states,
            "counters": counters,
            "store": {
                "entries": store_stats.entries,
                "total_bytes": store_stats.total_bytes,
                "events": dict(store_stats.events),
                "hit_rate": round(store_stats.hit_rate, 4),
            },
        }

    def health(self) -> Dict[str, Any]:
        """The detailed liveness payload behind ``/healthz``.

        Distinguishes *hung* from *busy* for external monitors: a
        dead dispatcher thread or an unwritable store is unhealthy
        (``ok: false`` → the server answers 503), while a deep queue
        with a live dispatcher is just load.
        """
        with self._lock:
            dispatcher = self._dispatcher
            queue_depth = self._queue.qsize()
            running = sum(1 for job in self._jobs.values()
                          if job.state == RUNNING)
        dispatcher_alive = (dispatcher is not None
                            and dispatcher.is_alive())
        store_writable = self.store.writable()
        return {
            "ok": bool(dispatcher_alive and store_writable),
            "dispatcher_alive": dispatcher_alive,
            "queue_depth": queue_depth,
            "running": running,
            "store_writable": store_writable,
            "instance": self.instance,
            "uptime_s": round(time.time() - self._started, 3),
        }

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _drain(self) -> None:
        reap_every = min(1.0, max(self.lease_ttl / 4.0, 0.05))
        while not self._stopping.is_set():
            self._reap_expired_leases()
            try:
                jid = self._queue.get(timeout=reap_every)
            except queue_module.Empty:
                continue  # idle tick: loop back to the reaper
            if jid is None or self._stopping.is_set():
                break
            with self._lock:
                job = self._jobs.get(jid)
                if job is None or job.state != QUEUED:
                    continue  # cancelled while queued, or stale entry
                job.state = RUNNING
                job.started = round(time.time(), 3)
                job.runs += 1
                job.attempts += 1
                job.lease_owner = self.instance
                job.lease_expires = round(time.time() + self.lease_ttl, 3)
                self._persist(job)
                cancel = threading.Event()
                self._cancel_events[jid] = cancel
            try:
                self._execute(job, cancel)
            except BaseException as exc:  # noqa: BLE001 - keep draining
                self._finish(job, FAILED,
                             error=f"{type(exc).__name__}: {exc}")
            finally:
                with self._lock:
                    self._cancel_events.pop(jid, None)

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------

    @staticmethod
    def _lease_expired(job: Job) -> bool:
        """True when a running job's claim has provably lapsed.

        A missing lease (pre-lease history, or a snapshot torn between
        state and stamp) counts as expired — the job is running with no
        live claim either way.
        """
        return (job.lease_expires is None
                or time.time() >= job.lease_expires)

    def _reap_expired_leases(self) -> None:
        """Take over any running job whose lease heartbeats stopped."""
        with self._lock:
            for job in list(self._jobs.values()):
                if (job.state == RUNNING
                        and job.id not in self._cancel_events
                        and self._lease_expired(job)):
                    self._takeover(job)

    def _takeover(self, job: Job) -> None:
        """Claim an orphaned running job: requeue it, or dead-letter it.

        Caller holds the lock. ``attempts`` already counts the
        execution whose lease lapsed, so a job that has burned its
        whole budget goes ``dead`` — an operator can inspect it via
        the dead-letter listing and resubmit to grant a fresh budget.
        """
        self._takeovers += 1
        self._event(job.id, {
            "event": "takeover", "from": job.lease_owner,
            "by": self.instance, "attempts": job.attempts})
        if job.attempts >= self.max_attempts:
            self._dead += 1
            self._finish(job, DEAD, error=(
                f"lease expired after {job.attempts} attempt(s); "
                f"giving up (max_attempts={self.max_attempts})"))
            return
        job.state = QUEUED
        job.clear_lease()
        self._persist(job)
        self._queue.put(job.id)

    def _heartbeat(self, job: Job, stop: threading.Event) -> None:
        """Refresh the job's lease until execution ends."""
        period = self.lease_ttl / 3.0
        while not stop.wait(period):
            with self._lock:
                if job.state != RUNNING:
                    return
                job.lease_expires = round(time.time() + self.lease_ttl,
                                          3)
                self._persist(job)

    # ------------------------------------------------------------------
    # Best-effort persistence (the disk may be lying — see chaos tests)
    # ------------------------------------------------------------------

    def _persist(self, job: Job) -> None:
        """Save a snapshot; storage faults degrade, never crash.

        The in-memory job table stays authoritative while the disk
        misbehaves; the job is flagged ``degraded`` so operators know
        the on-disk snapshot may lag.
        """
        try:
            self.job_store.save(job)
        except OSError:
            job.degraded = True

    def _event(self, jid: str, event: Dict[str, Any]) -> None:
        """Append a progress event; the stream is advisory under faults."""
        try:
            self.job_store.append_event(jid, event)
        except OSError:
            pass

    def _execute(self, job: Job, cancel: threading.Event) -> None:
        plan = build_plan(job.spec)
        with self._lock:
            job.total = len(plan.points)
            self._persist(job)
        self._event(job.id, {
            "event": "started", "total": job.total, "run": job.runs,
            "attempt": job.attempts, "lease": self.instance})

        warm = self._fully_cached(plan)
        # A fully-cached job never needs the process pool: serve it
        # straight from the store on a throwaway serial backend.
        backend = SerialBackend() if warm else make_backend(self.jobs)

        def progress(key: str, status: str) -> None:
            self._note_progress(job, key, status)

        def stop_check() -> bool:
            return cancel.is_set() or self._stopping.is_set()

        sweep = ResilientSweep(
            plan.run_point, budget=self.budget,
            checkpoint_path=self.job_store.checkpoint_path(job.id),
            progress=progress, backend=backend, store=self.store,
            crash_dir=os.path.join(self.job_store.job_dir(job.id),
                                   "crashes"),
            max_failures=self.max_failures, stop_check=stop_check)
        heartbeat_stop = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat, args=(job, heartbeat_stop),
            name=f"lease-heartbeat-{job.id[:8]}", daemon=True)
        heartbeat.start()
        try:
            outcome = sweep.run(plan.points)
        except SweepAbortedError as exc:
            self._finish(job, FAILED, error=str(exc))
            return
        finally:
            heartbeat_stop.set()

        with self._lock:
            # Reconcile the incremental counters against the outcome
            # (checkpoint-resumed points never fired a progress event,
            # so they fold into ``done`` here).
            job.warm = warm
            job.cached = outcome.hits
            job.failed = len(outcome.failures)
            job.done = len(outcome.completed) - outcome.hits
            if outcome.degraded or outcome.checkpoint_degraded:
                job.degraded = True

        if outcome.stopped:
            if cancel.is_set():
                self._finish(job, CANCELLED)
            else:
                # Service shutdown: back to the queue on disk so the
                # next daemon resumes from the checkpoint.
                with self._lock:
                    job.state = QUEUED
                    job.clear_lease()
                    self._persist(job)
            return

        text = render_result(plan.assemble(outcome))
        self._write_result_with_retry(job, text)
        if warm:
            with self._lock:
                self._warm_hits += 1
        self._finish(job, DONE)

    def _write_result_with_retry(self, job: Job, text: str,
                                 attempts: int = 3) -> None:
        """Persist the result document, riding out transient faults.

        The result is the one artifact that cannot degrade to
        memory-only — ``GET /result`` serves the file. A handful of
        spaced attempts covers blips (chaos, NFS hiccups); a disk that
        stays broken fails the job with a clear error.
        """
        for attempt in range(attempts):
            try:
                self.job_store.write_result(job.id, text)
                return
            except OSError as exc:
                job.degraded = True
                if attempt == attempts - 1:
                    raise ServiceError(
                        f"cannot persist result for job {job.id}: "
                        f"{exc}") from exc
                time.sleep(0.05 * (2.0 ** attempt))

    def _fully_cached(self, plan: Any) -> bool:
        """True when every grid point is already in the result store."""
        return all(
            point_cache_key(plan.run_point, params,
                            fingerprint=self.store.fingerprint)
            in self.store
            for _, params in plan.points)

    def _note_progress(self, job: Job, key: str, status: str) -> None:
        degraded_point = False
        with self._lock:
            if status == "cached":
                job.cached += 1
            elif status == "ok":
                job.done += 1
            elif status == "degraded":
                # Simulated fine, but the store couldn't keep it: a
                # completed point that will be recomputed next time.
                job.done += 1
                job.degraded = True
                degraded_point = True
            elif status.startswith("failed"):
                job.failed += 1
            else:
                return  # "run" marks dispatch, not completion
            self._persist(job)
        event: Dict[str, Any] = {"event": "point", "key": key,
                                 "status": status}
        if degraded_point:
            event["degraded"] = True
        self._event(job.id, event)

    def _finish(self, job: Job, state: str,
                error: Optional[str] = None) -> None:
        with self._lock:
            job.state = state
            job.finished = round(time.time(), 3)
            job.error = error
            job.clear_lease()
            self._persist(job)
            if state == DONE:
                self._completed += 1
        event: Dict[str, Any] = {"event": state}
        if error:
            event["error"] = error
        self._event(job.id, event)

    def __repr__(self) -> str:
        return (f"SweepService(root={self.job_store.root!r}, "
                f"jobs={self.jobs!r})")
