"""Chaos-hardening contract tests for the control plane.

The acceptance criteria under test:

* :class:`ChaosPolicy` is deterministic — a pinned seed replays the
  same fault schedule, which is what lets every test below assert
  exact outcomes instead of probabilities;
* :class:`ServiceClient` rides out injected transport faults (drops,
  5xx, truncated bodies) and still fetches result bytes identical to a
  fault-free local run — and retrying ``POST /jobs`` is safe because
  job ids are content-derived (at-least-once delivery coalesces);
* a ``running`` job whose lease lapsed (its daemon was SIGKILLed) is
  taken over on restart and completes from its checkpoint without
  re-simulating finished points; a job that burns ``max_attempts``
  executions goes ``dead``, not back in the queue;
* storage faults degrade, never corrupt: ENOSPC turns into
  degrade-to-no-cache (job done, ``degraded: true``, store empty),
  torn/bit-flipped store objects read as misses, and
  ``verify(repair=True)`` quarantines every bad object so a fresh
  ``verify()`` is clean;
* a torn, ENOSPC-failed or bit-flipped job checkpoint costs at most
  resumability: the resumed job still finishes byte-identical and no
  point is simulated twice.
"""

import errno
import json
import os
import pickle
import signal
import subprocess
import sys
import time

import pytest

from repro import units
from repro.analysis.backends import execute_point
from repro.analysis.harness import RunBudget
from repro.analysis.sweep import sweep_rate_delay
from repro.errors import ConfigurationError, ServiceError
from repro.service import (ChaosPolicy, ChaosSite, FaultyFS, Job,
                           JobSpec, JobStore, ServiceClient,
                           SweepService, job_id, render_result,
                           serve_background)
from repro.store import FileIO, ResultStore

RATES = [2.0, 8.0]
BUDGET = RunBudget(retries=0, wall_clock=120.0)


def _sweep_spec(seed=3, rates=RATES):
    return JobSpec.sweep("vegas", rates, 40.0, duration=3.0, seed=seed)


def _policy(seed=0, **sites):
    """Policy from ``{"fs.torn": {...}}``-style kwargs (dots as __)."""
    return ChaosPolicy(seed=seed, sites=[
        ChaosSite(name=name.replace("__", "."), **cfg)
        for name, cfg in sites.items()])


def _service(tmp_path, fs=None, store_fs=None, **kwargs):
    store = ResultStore(str(tmp_path / "cache"), fs=store_fs)
    kwargs.setdefault("budget", BUDGET)
    return SweepService(str(tmp_path / "jobs"), store, fs=fs, **kwargs)


class _CheckpointFaults(FaultyFS):
    """A FaultyFS whose policy reaches harness checkpoints only."""

    def write_atomic(self, path, text, prefix=".tmp-"):
        if os.path.basename(path) == "checkpoint.json":
            super().write_atomic(path, text, prefix=prefix)
        else:
            FileIO.write_atomic(self, path, text, prefix=prefix)

    def append(self, path, text):
        FileIO.append(self, path, text)


def _wait(service, jid, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        job = service.get(jid)
        if job.state in ("done", "failed", "cancelled", "dead"):
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {jid} still {service.get(jid).state}")


class TestChaosPolicy:
    def test_same_seed_replays_identically(self):
        make = lambda: _policy(  # noqa: E731
            seed=42, http__error={"rate": 0.5},
            fs__torn={"rate": 0.3})
        a, b = make(), make()
        sequence = [(a.fires("http.error") is not None,
                     a.fires("fs.torn") is not None)
                    for _ in range(200)]
        assert sequence == [(b.fires("http.error") is not None,
                             b.fires("fs.torn") is not None)
                            for _ in range(200)]
        # A rate that high must actually fire over 200 draws.
        assert any(error for error, _ in sequence)
        assert a.counts() == b.counts()

    def test_limit_caps_total_fires(self):
        policy = _policy(http__error={"rate": 1.0, "limit": 3})
        fires = [policy.fires("http.error") for _ in range(10)]
        assert sum(s is not None for s in fires) == 3
        assert fires[3:] == [None] * 7
        assert policy.counts()["fired"]["http.error"] == 3

    def test_unconfigured_site_never_draws(self):
        policy = _policy(http__error={"rate": 1.0})
        assert policy.fires("fs.enospc") is None
        assert "fs.enospc" not in policy.counts()["draws"]

    def test_json_roundtrip(self):
        policy = _policy(
            seed=7, http__error={"rate": 0.3, "retry_after": 0.1,
                                 "status": 502},
            fs__torn={"rate": 0.2, "limit": 3})
        clone = ChaosPolicy.from_json(policy.to_json())
        assert clone.to_json() == policy.to_json()
        assert clone.seed == 7

    @pytest.mark.parametrize("doc", [
        "not a dict",
        {"sites": "not a dict"},
        {"sites": {"http.error": "no rate"}},
        {"sites": {"no.such.site": {"rate": 0.5}}},
        {"sites": {"http.error": {"rate": 2.0}}},
        {"sites": {"http.error": {"rate": 0.5, "bogus": 1}}},
        {"sites": {"http.error": {"rate": 0.5, "status": 200}}},
        {"seed": "nope", "sites": {}},
    ])
    def test_bad_specs_are_rejected(self, doc):
        with pytest.raises(ConfigurationError):
            ChaosPolicy.from_json(doc)

    def test_pickle_preserves_counters(self):
        policy = _policy(fs__torn={"rate": 1.0, "limit": 2})
        policy.fires("fs.torn")
        clone = pickle.loads(pickle.dumps(policy))
        assert clone.counts() == policy.counts()
        # The clone continues the schedule where the original stood.
        assert (clone.fires("fs.torn") is None) \
            == (policy.fires("fs.torn") is None)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            ChaosPolicy.load(str(tmp_path / "nope.json"))


class TestFaultyFS:
    def _write(self, tmp_path, policy, text="payload-text\n"):
        path = str(tmp_path / "out.txt")
        FaultyFS(policy).write_atomic(path, text)
        with open(path, encoding="utf-8") as fh:
            return path, fh.read()

    def test_enospc_raises_before_touching_the_path(self, tmp_path):
        policy = _policy(fs__enospc={"rate": 1.0, "limit": 1})
        path = str(tmp_path / "out.txt")
        with pytest.raises(OSError) as err:
            FaultyFS(policy).write_atomic(path, "text\n")
        assert err.value.errno == errno.ENOSPC
        assert not os.path.exists(path)
        # Past the limit, writes go through clean.
        FaultyFS(policy).write_atomic(path, "text\n")
        assert open(path).read() == "text\n"

    def test_torn_write_lands_half_the_text(self, tmp_path):
        text = "0123456789" * 4
        _, written = self._write(
            tmp_path, _policy(fs__torn={"rate": 1.0}), text)
        assert written == text[:len(text) // 2]

    def test_bitflip_corrupts_exactly_one_character(self, tmp_path):
        text = "0123456789" * 4
        _, written = self._write(
            tmp_path, _policy(fs__bitflip={"rate": 1.0}), text)
        assert len(written) == len(text)
        assert sum(a != b for a, b in zip(written, text)) == 1

    def test_fsync_lost_leaves_an_empty_file(self, tmp_path):
        path, written = self._write(
            tmp_path, _policy(fs__fsync_lost={"rate": 1.0}))
        assert written == "" and os.path.exists(path)

    def test_torn_append_drops_the_newline(self, tmp_path):
        path = str(tmp_path / "log.ndjson")
        fs = FaultyFS(_policy(fs__torn={"rate": 1.0, "limit": 1}))
        fs.append(path, '{"seq": 0}\n')
        with open(path, encoding="utf-8") as fh:
            assert not fh.read().endswith("\n")


class TestStoreUnderChaos:
    KEY = "ab" * 32

    def test_torn_object_reads_as_miss(self, tmp_path):
        store = ResultStore(str(tmp_path),
                            fs=FaultyFS(_policy(fs__torn={"rate": 1.0,
                                                          "limit": 1})))
        store.put(self.KEY, {"r": 1.5}, task="t")
        assert store.fetch(self.KEY) == (False, None)
        report = store.verify()
        assert len(report.corrupt) == 1 and not report.clean

    def test_bitflip_is_caught_by_the_content_checksum(self, tmp_path):
        store = ResultStore(str(tmp_path),
                            fs=FaultyFS(_policy(
                                fs__bitflip={"rate": 1.0, "limit": 1})))
        store.put(self.KEY, {"r": 1.5}, task="t")
        found, _ = store.fetch(self.KEY)
        report = store.verify()
        assert not found and len(report.corrupt) == 1

    def test_repair_quarantines_and_comes_back_clean(self, tmp_path):
        policy = _policy(fs__torn={"rate": 1.0, "limit": 1})
        store = ResultStore(str(tmp_path), fs=FaultyFS(policy))
        store.put(self.KEY, {"r": 1.5}, task="t")      # torn
        store.put("cd" * 32, {"r": 2.5}, task="t")     # clean
        report = store.verify(repair=True)
        assert report.repaired
        assert len(report.quarantined) == 1
        assert all(path.startswith(store.quarantine_dir)
                   for path in report.quarantined)
        after = store.verify()
        assert after.clean and after.ok == 1
        # The quarantined key is an honest miss; a re-put heals it.
        store.put(self.KEY, {"r": 1.5}, task="t")
        assert store.fetch(self.KEY) == (True, {"r": 1.5})

    def test_execute_point_degrades_on_enospc(self, tmp_path):
        store = ResultStore(str(tmp_path),
                            fs=FaultyFS(_policy(
                                fs__enospc={"rate": 1.0})))
        outcome = execute_point(lambda params, budget: {"v": params["i"]},
                                "p0", {"i": 1}, BUDGET, store=store)
        assert outcome.ok and outcome.result == {"v": 1}
        assert outcome.degraded and not outcome.cached
        assert store.stats().entries == 0

    def test_writable_probe_sees_a_full_disk(self, tmp_path):
        store = ResultStore(str(tmp_path),
                            fs=FaultyFS(_policy(
                                fs__enospc={"rate": 1.0, "limit": 1})))
        assert not store.writable()
        assert store.writable()  # past the limit


class TestRetryingClient:
    def _failing_client(self, fail_times, status=503, retry_after=None,
                        retries=4):
        """A client whose transport fails ``fail_times`` then succeeds."""
        sleeps = []
        client = ServiceClient("http://invalid.test", retries=retries,
                               backoff=0.1, backoff_cap=2.0, seed=1,
                               sleep=sleeps.append)
        calls = {"n": 0}

        def fake_once(method, path, body=None):
            calls["n"] += 1
            if calls["n"] <= fail_times:
                raise ServiceError("injected", status=status,
                                   retry_after=retry_after)
            return b'{"ok": true}\n'

        client._request_once = fake_once
        return client, sleeps, calls

    def test_retries_transient_5xx_with_jittered_backoff(self):
        client, sleeps, calls = self._failing_client(3)
        assert client._request_json("GET", "/x") == {"ok": True}
        assert calls["n"] == 4
        # Full jitter: each delay inside [0, min(cap, base * 2^n)].
        for attempt, delay in enumerate(sleeps):
            assert 0.0 <= delay <= min(2.0, 0.1 * 2 ** attempt)

    def test_retry_after_overrides_the_jitter(self):
        client, sleeps, _ = self._failing_client(2, retry_after=0.7)
        client._request("GET", "/x")
        assert sleeps == [0.7, 0.7]

    def test_retry_after_is_capped(self):
        client, sleeps, _ = self._failing_client(1, retry_after=900.0)
        client._request("GET", "/x")
        assert sleeps == [client.backoff_cap]

    def test_4xx_is_never_retried(self):
        client, sleeps, calls = self._failing_client(5, status=400)
        with pytest.raises(ServiceError):
            client._request("GET", "/x")
        assert calls["n"] == 1 and sleeps == []

    def test_exhausted_retries_raise(self):
        client, _, calls = self._failing_client(99, retries=2)
        with pytest.raises(ServiceError) as err:
            client._request("GET", "/x")
        assert err.value.status == 503
        assert calls["n"] == 3  # 1 try + 2 retries

    def test_wait_poll_interval_backs_off_to_the_cap(self):
        sleeps = []
        client = ServiceClient("http://invalid.test",
                               sleep=sleeps.append)
        snapshots = iter([{"state": "queued"}] * 6
                         + [{"state": "done"}])
        client.job = lambda jid: next(snapshots)
        assert client.wait("j", timeout=600, poll=0.2,
                           poll_cap=1.0)["state"] == "done"
        assert len(sleeps) == 6
        assert sleeps == sorted(sleeps)  # monotone geometric ramp
        assert sleeps[0] == pytest.approx(0.2)
        assert sleeps[-1] == pytest.approx(1.0)  # pinned at the cap
        assert all(s <= 1.0 for s in sleeps)


class TestServiceUnderChaos:
    """Live daemon + seeded adversary: the end-to-end contract."""

    def test_submit_and_wait_is_byte_identical_under_chaos(self,
                                                           tmp_path):
        policy = _policy(
            seed=11,
            http__delay={"rate": 0.3, "limit": 2, "delay_s": 0.01},
            http__drop={"rate": 0.5, "limit": 2},
            http__error={"rate": 0.5, "limit": 3, "retry_after": 0.01},
            http__truncate={"rate": 0.5, "limit": 2},
            fs__enospc={"rate": 0.5, "limit": 1},
            fs__torn={"rate": 0.5, "limit": 1},
            fs__bitflip={"rate": 0.5, "limit": 1})
        # The chaotic fs wraps the *result store* only: store damage
        # must surface as misses/degraded points, never in the result
        # document (job persistence keeps its own durability story,
        # tested separately).
        service = _service(tmp_path, store_fs=FaultyFS(policy))
        server = serve_background(service, chaos=policy)
        client = ServiceClient(f"http://127.0.0.1:{server.port}",
                               timeout=60.0, retries=8, backoff=0.01,
                               backoff_cap=0.05, seed=1)
        try:
            raw = client.submit_and_wait(_sweep_spec(), timeout=90)
        finally:
            server.close()
        curve = sweep_rate_delay("vegas", RATES, units.ms(40.0),
                                 duration=3.0, seed=3, budget=BUDGET)
        assert raw == render_result(curve.to_json()).encode()
        # The adversary was real: faults actually fired.
        assert sum(policy.counts()["fired"].values()) > 0

    def test_lost_submit_response_coalesces_on_retry(self, tmp_path):
        # The daemon acts, the response is lost (truncated body), the
        # client retries: at-least-once delivery must coalesce onto
        # the already-queued job, never duplicate it.
        policy = _policy(http__truncate={"rate": 1.0, "limit": 1})
        service = _service(tmp_path)  # not started: jobs stay queued
        server = serve_background(service, chaos=policy)
        service.stop()  # serve_background starts it; park the queue
        client = ServiceClient(f"http://127.0.0.1:{server.port}",
                               retries=4, backoff=0.01, seed=1)
        try:
            job = client.submit(_sweep_spec())
            assert job["id"] == job_id(_sweep_spec())
            counters = client.stats()["counters"]
        finally:
            server.close()
        assert counters["submitted"] == 2
        assert counters["coalesced"] == 1
        assert len(service.list_jobs()) == 1

    def test_health_detail_and_unready_retry_after(self, tmp_path):
        service = _service(tmp_path)
        server = serve_background(service)
        client = ServiceClient(f"http://127.0.0.1:{server.port}",
                               retries=0)
        try:
            health = client.health()
            assert health["ok"] and health["dispatcher_alive"]
            assert health["store_writable"]
            assert health["queue_depth"] == 0
            service.stop()  # dead dispatcher: probe flips unhealthy
            assert not client.healthz()
            with pytest.raises(ServiceError) as err:
                client.health()
            assert err.value.status == 503
            # A queued job's result answers 409 with a pacing hint.
            job = client.submit(_sweep_spec())
            with pytest.raises(ServiceError) as err:
                client.result_bytes(job["id"])
            assert err.value.status == 409
            assert err.value.retry_after == 1.0
        finally:
            server.close()

    def test_jobs_state_filter_rejects_unknown_states(self, tmp_path):
        service = _service(tmp_path)
        server = serve_background(service)
        service.stop()
        client = ServiceClient(f"http://127.0.0.1:{server.port}",
                               retries=0)
        try:
            client.submit(_sweep_spec())
            assert client.jobs(state="queued") != []
            assert client.jobs(state="dead") == []
            with pytest.raises(ServiceError) as err:
                client.jobs(state="zombie")
            assert err.value.status == 400
        finally:
            server.close()


class TestLeases:
    def _orphan(self, tmp_path, attempts=1, expires_delta=-5.0):
        """Persist a running job whose daemon has provably vanished."""
        spec = _sweep_spec()
        job = Job(id=job_id(spec), spec=spec, state="running",
                  created=round(time.time(), 3), total=len(RATES),
                  runs=attempts, attempts=attempts,
                  lease_owner="dead-daemon.feedface",
                  lease_expires=round(time.time() + expires_delta, 3))
        JobStore(str(tmp_path / "jobs")).save(job)
        return job

    def test_startup_takes_over_an_expired_lease(self, tmp_path):
        self._orphan(tmp_path)
        service = _service(tmp_path)
        service.start()
        try:
            job = _wait(service, job_id(_sweep_spec()))
            assert job.state == "done"
            assert job.attempts == 2  # orphaned run + the takeover run
            assert job.lease_owner is None  # terminal jobs hold no lease
        finally:
            service.stop()
        assert service.stats()["counters"]["takeovers"] == 1
        events = [e["event"] for e in service.events(job.id)]
        assert "takeover" in events
        curve = sweep_rate_delay("vegas", RATES, units.ms(40.0),
                                 duration=3.0, seed=3, budget=BUDGET)
        assert service.result_bytes(job.id) \
            == render_result(curve.to_json()).encode()

    def test_unexpired_lease_is_left_alone_at_startup(self, tmp_path):
        self._orphan(tmp_path, expires_delta=120.0)
        service = _service(tmp_path)
        service.start()
        try:
            time.sleep(0.3)  # past several reaper ticks
            job = service.get(job_id(_sweep_spec()))
            assert job.state == "running"
            assert job.lease_owner == "dead-daemon.feedface"
        finally:
            service.stop()
        assert service.stats()["counters"]["takeovers"] == 0

    def test_exhausted_attempts_dead_letter_the_job(self, tmp_path):
        self._orphan(tmp_path, attempts=2)
        service = _service(tmp_path, max_attempts=2)
        service.start()
        try:
            job = _wait(service, job_id(_sweep_spec()))
        finally:
            service.stop()
        assert job.state == "dead"
        assert "max_attempts" in job.error
        assert service.stats()["counters"]["dead"] == 1
        # Dead is terminal but not final: a resubmit grants a fresh
        # attempt budget and the job runs to completion.
        service2 = _service(tmp_path, max_attempts=2)
        service2.start()
        try:
            resubmitted = service2.submit(_sweep_spec())
            assert resubmitted.attempts == 0
            assert _wait(service2, resubmitted.id).state == "done"
        finally:
            service2.stop()

    def test_idle_reaper_claims_a_lease_that_lapses_live(self, tmp_path):
        service = _service(tmp_path, lease_ttl=0.4)
        # Plant the orphan *after* construction so startup never sees
        # it: only the idle-loop reaper can claim it.
        service.start()
        try:
            time.sleep(0.1)
            orphan = self._orphan(tmp_path, expires_delta=0.2)
            loaded = service.job_store.load(orphan.id)
            with service._lock:
                service._jobs[orphan.id] = loaded
            job = _wait(service, orphan.id)
            assert job.state == "done"
        finally:
            service.stop()
        assert service.stats()["counters"]["takeovers"] == 1


class TestDegradedService:
    def test_enospc_degrades_to_no_cache(self, tmp_path):
        # Chaotic result store, clean job store: the sweep completes
        # correctly, nothing lands in the cache, and the job says so.
        policy = _policy(fs__enospc={"rate": 1.0})
        service = _service(tmp_path, store_fs=FaultyFS(policy))
        service.start()
        try:
            job = _wait(service, service.submit(_sweep_spec()).id)
        finally:
            service.stop()
        assert job.state == "done"
        assert job.degraded
        assert job.done == len(RATES) and job.cached == 0
        assert service.store.stats().entries == 0
        stats = service.stats()
        assert stats["counters"]["degraded"] == 1
        events = service.events(job.id)
        assert any(e.get("degraded") for e in events
                   if e["event"] == "point")
        curve = sweep_rate_delay("vegas", RATES, units.ms(40.0),
                                 duration=3.0, seed=3, budget=BUDGET)
        assert service.result_bytes(job.id) \
            == render_result(curve.to_json()).encode()

    def test_job_persistence_faults_flag_degraded(self, tmp_path):
        # ENOSPC on *job* persistence after the durable submit ack:
        # the in-memory queue stays authoritative, the job completes,
        # and the snapshot gap is flagged.
        policy = _policy(seed=5, fs__enospc={"rate": 0.4, "limit": 4})
        service = _service(tmp_path, fs=FaultyFS(policy))
        service.start()
        try:
            job = _wait(service, service.submit(_sweep_spec()).id)
        finally:
            service.stop()
        assert job.state == "done"
        assert service.result_bytes(job.id) is not None


class TestCheckpointUnderChaos:
    """Faults land on a job's checkpoint mid-sweep.

    Every checkpoint write of a first daemon is torn, fails with
    ENOSPC or is bit-flipped; that daemon is stopped mid-sweep and a
    clean one resumes the job from whatever checkpoint is on disk. The
    job must finish with the bytes of a clean local run, and the store
    catalog must show one ``miss`` per grid point: a point the damaged
    checkpoint lost is a store hit, never a second simulation.
    """

    RATES = [2.0, 4.0, 8.0]

    @pytest.mark.parametrize("site", ["fs.torn", "fs.enospc",
                                      "fs.bitflip"])
    def test_checkpoint_fault_mid_sweep(self, tmp_path, site):
        policy = ChaosPolicy(seed=2, sites=[ChaosSite(name=site,
                                                      rate=1.0)])
        spec = JobSpec.sweep("vegas", self.RATES, 40.0, duration=3.0,
                             seed=3)
        first = _service(tmp_path, store_fs=_CheckpointFaults(policy))
        first.start()
        try:
            jid = first.submit(spec).id
            deadline = time.monotonic() + 90
            while not any(e["event"] == "point"
                          for e in first.events(jid)):
                assert time.monotonic() < deadline, "no progress"
                time.sleep(0.02)
        finally:
            first.stop()
        assert policy.counts()["fired"][site] >= 1

        second = _service(tmp_path)
        second.start()
        try:
            job = _wait(second, jid)
        finally:
            second.stop()
        assert job.state == "done"
        if site == "fs.enospc":
            # The failed write degraded the job instead of failing it.
            assert job.degraded
        curve = sweep_rate_delay("vegas", self.RATES, units.ms(40.0),
                                 duration=3.0, seed=3, budget=BUDGET)
        assert second.result_bytes(jid) \
            == render_result(curve.to_json()).encode()
        counts = second.store.catalog.counts()
        assert counts.get("miss", 0) == len(self.RATES)


class TestTornEventSeal:
    def test_torn_trailing_line_is_sealed_on_next_append(self, tmp_path):
        store = JobStore(str(tmp_path))
        store.append_event("ab12", {"event": "queued"})
        path = os.path.join(store.job_dir("ab12"), "events.ndjson")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 1, "event": "poi')  # killed mid-append
        # A cold reader skips the torn line instead of choking.
        fresh = JobStore(str(tmp_path))
        assert [e["event"] for e in fresh.events("ab12")] == ["queued"]
        # The next append welds a newline onto the torn tail first, so
        # the new record is intact and the torn line stays dead.
        fresh.append_event("ab12", {"event": "done"})
        events = list(fresh.events("ab12"))
        assert [e["event"] for e in events] == ["queued", "done"]
        with open(path, encoding="utf-8") as fh:
            assert fh.read().endswith("\n")


@pytest.mark.slow
class TestDaemonSigkill:
    """The headline robustness property, end to end over the CLI.

    SIGKILL a daemon mid-sweep at a seeded point boundary; a restarted
    daemon must take over the orphaned lease, resume from the harness
    checkpoint (zero re-simulated points — the catalog can only show
    one ``miss`` per grid point), and produce ``result.json`` bytes
    identical to ``repro sweep --json`` run locally.
    """

    #: Heavy enough that each point takes seconds of wall clock — the
    #: SIGKILL must reliably land *mid-sweep*, not after completion.
    RATES = [20.0, 35.0, 50.0]
    DURATION = 60.0

    def _spawn(self, tmp_path, env):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--job-dir", str(tmp_path / "jobs"),
             "--cache-dir", str(tmp_path / "cache"),
             "--port", "0", "--lease-ttl", "2"],
            stdout=subprocess.PIPE, text=True, env=env)
        port = None
        for _ in range(20):
            line = proc.stdout.readline()
            if "listening on" in line:
                port = int(line.rsplit(":", 1)[1])
                break
        assert port, "daemon never printed its port"
        return proc, ServiceClient(f"http://127.0.0.1:{port}",
                                   timeout=30.0, retries=6,
                                   backoff=0.05, seed=1)

    @pytest.mark.parametrize("kill_after_points", [1, 2])
    def test_sigkill_restart_resumes_from_checkpoint(
            self, tmp_path, kill_after_points):
        repo_src = os.path.join(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))), "src")
        env = {**os.environ,
               "PYTHONPATH": repo_src + os.pathsep
               + os.environ.get("PYTHONPATH", "")}
        spec = JobSpec.sweep("vegas", self.RATES, 40.0,
                             duration=self.DURATION, seed=3)
        proc, client = self._spawn(tmp_path, env)
        try:
            jid = client.submit(spec)["id"]
            deadline = time.monotonic() + 90
            while time.monotonic() < deadline:
                points = [e for e in client.events(jid)
                          if e["event"] == "point"]
                if len(points) >= kill_after_points:
                    break
                time.sleep(0.1)
            else:
                raise AssertionError("daemon never reported progress")
        finally:
            os.kill(proc.pid, signal.SIGKILL)
            proc.wait(timeout=10)
            proc.stdout.close()

        proc2, client2 = self._spawn(tmp_path, env)
        try:
            snapshot = client2.wait(jid, timeout=120)
            assert snapshot["state"] == "done"
            raw = client2.result_bytes(jid)
            events = [e["event"] for e in client2.events(jid)]
            assert "takeover" in events
        finally:
            proc2.terminate()
            proc2.wait(timeout=10)
            proc2.stdout.close()

        ref_path = str(tmp_path / "ref.json")
        subprocess.run(
            [sys.executable, "-m", "repro.cli", "sweep",
             "--cca", "vegas",
             "--rates", ",".join(str(r) for r in self.RATES),
             "--rm", "40", "--duration", str(self.DURATION),
             "--seed", "3",
             "--json", ref_path],
            check=True, env=env, capture_output=True, timeout=300)
        with open(ref_path, "rb") as fh:
            assert raw == fh.read()
        # Checkpoint resume, not re-execution: every grid point was
        # simulated exactly once across both daemon lifetimes.
        store = ResultStore(str(tmp_path / "cache"))
        assert store.catalog.counts().get("miss", 0) == len(self.RATES)
