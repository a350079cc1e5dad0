"""Tests for pluggable execution backends (repro.analysis.backends).

The contract under test: a ProcessPoolBackend sweep returns exactly what
a SerialBackend sweep returns — same results, same failure records, same
checkpoints — just on more cores.
"""

import json

import pytest

from repro import units
from repro.analysis.backends import (PointOutcome, ProcessPoolBackend,
                                     SerialBackend, execute_point,
                                     make_backend)
from repro.analysis.harness import ResilientSweep, RunBudget
from repro.analysis.sweep import sweep_rate_delay
from repro.errors import ConfigurationError, SimulationError
from repro.spec import CCASpec, single_flow_scenario

RM = units.ms(40)


# Module-level run points: picklable by qualified name, so the spawn
# pool can import them in worker processes.

def square_point(params, budget):
    return {"value": params["x"] ** 2}


def flaky_point(params, budget):
    if params.get("fail"):
        raise SimulationError(f"boom at {params['x']}")
    return {"value": params["x"]}


def spec_point(params, budget):
    from repro.spec import ScenarioSpec
    spec = ScenarioSpec.from_json(params["scenario"])
    result = spec.run(duration=params["duration"], warmup=0.5)
    return {"throughput": result.stats[0].throughput}


def run_grid(backend, run_point, points, budget=None):
    outcomes = list(backend.execute(run_point, points,
                                    budget or RunBudget()))
    return {o.key: o for o in outcomes}


class TestExecutePoint:
    def test_success(self):
        outcome = execute_point(square_point, "k", {"x": 3}, RunBudget())
        assert outcome.ok
        assert outcome.result == {"value": 9}

    def test_recoverable_failure_becomes_runfailure(self):
        outcome = execute_point(flaky_point, "k", {"x": 1, "fail": True},
                                RunBudget(retries=2))
        assert not outcome.ok
        assert outcome.failure.reason == "SimulationError"
        assert outcome.failure.attempts == 3  # initial + 2 retries
        assert "boom" in outcome.failure.message

    def test_programming_errors_wrap_as_internal_failure(self):
        # A buggy experiment script must not abort the whole sweep: it
        # degrades to RunFailure(kind="internal") with no retries
        # (retrying a programming error cannot help).
        def bad(params, budget):
            raise TypeError("not recoverable")

        outcome = execute_point(bad, "k", {}, RunBudget(retries=2))
        assert not outcome.ok
        assert outcome.failure.kind == "internal"
        assert outcome.failure.reason == "TypeError"
        assert outcome.failure.attempts == 1
        assert outcome.failure.bundle is None  # no crash_dir configured

    def test_programming_errors_capture_crash_bundle(self, tmp_path):
        def bad(params, budget):
            raise TypeError("not recoverable")

        crash_dir = str(tmp_path / "crashes")
        outcome = execute_point(bad, "k", {"x": 1}, RunBudget(),
                                crash_dir=crash_dir)
        assert outcome.failure.kind == "internal"
        assert outcome.failure.bundle is not None
        with open(outcome.failure.bundle) as fh:
            bundle = json.load(fh)
        assert bundle["reason"] == "TypeError"
        assert bundle["params"] == {"x": 1}
        assert "Traceback" in bundle["traceback"]

    def test_keyboard_interrupt_stays_fatal(self):
        def interrupted(params, budget):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            execute_point(interrupted, "k", {}, RunBudget())


class TestMakeBackend:
    def test_mapping(self):
        assert isinstance(make_backend(None), SerialBackend)
        assert isinstance(make_backend(1), SerialBackend)
        pool = make_backend(4)
        assert isinstance(pool, ProcessPoolBackend)
        assert pool.jobs == 4

    def test_zero_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(jobs=0)

    def test_chunksize_passed_through(self):
        pool = make_backend(4, chunksize=8)
        assert pool.chunksize == 8

    def test_zero_chunksize_rejected(self):
        with pytest.raises(ConfigurationError):
            ProcessPoolBackend(jobs=2, chunksize=0)


class TestSerialBackend:
    def test_yields_in_grid_order(self):
        points = [(f"p{i}", {"x": i}) for i in range(4)]
        outcomes = list(SerialBackend().execute(square_point, points,
                                                RunBudget()))
        assert [o.key for o in outcomes] == ["p0", "p1", "p2", "p3"]

    def test_on_start_callback(self):
        started = []
        list(SerialBackend().execute(
            square_point, [("a", {"x": 1})], RunBudget(),
            on_start=started.append))
        assert started == ["a"]


class TestProcessPoolBackend:
    def test_matches_serial(self):
        points = [(f"p{i}", {"x": i, "fail": i == 2})
                  for i in range(4)]
        budget = RunBudget(retries=0)
        serial = run_grid(SerialBackend(), flaky_point, points, budget)
        pooled = run_grid(ProcessPoolBackend(jobs=2), flaky_point,
                          points, budget)
        assert set(serial) == set(pooled)
        for key in serial:
            assert serial[key].result == pooled[key].result
            if serial[key].failure is None:
                assert pooled[key].failure is None
            else:
                assert pooled[key].failure.reason == \
                    serial[key].failure.reason
                assert pooled[key].failure.message == \
                    serial[key].failure.message

    def test_chunked_matches_serial(self):
        points = [(f"p{i}", {"x": i, "fail": i == 2})
                  for i in range(5)]
        budget = RunBudget(retries=0)
        serial = run_grid(SerialBackend(), flaky_point, points, budget)
        chunked = run_grid(ProcessPoolBackend(jobs=2, chunksize=2),
                           flaky_point, points, budget)
        assert set(serial) == set(chunked)
        for key in serial:
            assert chunked[key].result == serial[key].result
            if serial[key].failure is None:
                assert chunked[key].failure is None
            else:
                assert chunked[key].failure.reason == \
                    serial[key].failure.reason

    def test_chunked_on_start_covers_every_point(self):
        started = []
        points = [(f"p{i}", {"x": i}) for i in range(5)]
        list(ProcessPoolBackend(jobs=2, chunksize=3).execute(
            square_point, points, RunBudget(),
            on_start=started.append))
        assert sorted(started) == [f"p{i}" for i in range(5)]

    def test_rejects_closures_with_clear_error(self):
        with pytest.raises(ConfigurationError, match="module-level"):
            list(ProcessPoolBackend(jobs=2).execute(
                lambda params, budget: None, [("a", {})], RunBudget()))

    def test_empty_grid(self):
        assert list(ProcessPoolBackend(jobs=2).execute(
            square_point, [], RunBudget())) == []

    def test_runs_scenario_specs(self):
        spec = single_flow_scenario(CCASpec("vegas"),
                                    rate=units.mbps(5), rm=RM, seed=3)
        points = [("only", {"scenario": spec.to_json(),
                            "duration": 2.0})]
        serial = run_grid(SerialBackend(), spec_point, points)
        pooled = run_grid(ProcessPoolBackend(jobs=2), spec_point, points)
        assert serial["only"].result == pooled["only"].result


class TestResilientSweepWithBackends:
    POINTS = [(f"p{i}", {"x": i, "fail": i == 1}) for i in range(3)]

    def outcome_with(self, backend, checkpoint=None):
        sweep = ResilientSweep(flaky_point, budget=RunBudget(retries=0),
                               checkpoint_path=checkpoint,
                               backend=backend)
        return sweep.run(self.POINTS)

    def test_parallel_outcome_matches_serial(self):
        serial = self.outcome_with(SerialBackend())
        pooled = self.outcome_with(ProcessPoolBackend(jobs=2))
        assert serial.completed == pooled.completed
        assert [f.key for f in serial.failures] == \
            [f.key for f in pooled.failures]

    def test_parallel_checkpoint_resumes_serially_and_back(self,
                                                           tmp_path):
        checkpoint = str(tmp_path / "ck.json")
        first = self.outcome_with(ProcessPoolBackend(jobs=2), checkpoint)
        assert set(first.completed) == {"p0", "p2"}
        # Resuming — on any backend — skips everything already recorded.
        resumed = self.outcome_with(SerialBackend(), checkpoint)
        assert resumed.resumed == 3
        assert resumed.completed == first.completed

    def test_chunked_checkpoint_matches_serial(self, tmp_path):
        serial_ck = str(tmp_path / "serial.json")
        chunked_ck = str(tmp_path / "chunked.json")
        serial = self.outcome_with(SerialBackend(), serial_ck)
        chunked = self.outcome_with(
            ProcessPoolBackend(jobs=2, chunksize=2), chunked_ck)
        assert chunked.completed == serial.completed
        assert [f.key for f in chunked.failures] == \
            [f.key for f in serial.failures]
        import json
        with open(serial_ck) as fh:
            want = json.load(fh)
        with open(chunked_ck) as fh:
            got = json.load(fh)
        assert sorted(want["completed"]) == sorted(got["completed"])

    def test_progress_callback_fires_with_pool(self):
        events = []
        sweep = ResilientSweep(flaky_point, budget=RunBudget(retries=0),
                               progress=lambda k, s: events.append((k, s)),
                               backend=ProcessPoolBackend(jobs=2))
        sweep.run(self.POINTS)
        assert ("p0", "run") in events
        assert ("p0", "ok") in events
        assert any(k == "p1" and s.startswith("failed")
                   for k, s in events)


class TestSweepRateDelayBackends:
    GRID = [2.0, 10.0]
    BUDGET = RunBudget(max_events=5_000_000, wall_clock=60.0)

    def test_parallel_bit_identical_to_serial(self):
        serial = sweep_rate_delay("vegas", self.GRID, RM, duration=3.0,
                                  budget=self.BUDGET, seed=5)
        pooled = sweep_rate_delay("vegas", self.GRID, RM, duration=3.0,
                                  budget=self.BUDGET, seed=5,
                                  backend=ProcessPoolBackend(jobs=2))
        assert serial.to_json() == pooled.to_json()

    def test_chunked_backend_bit_identical_to_serial(self):
        serial = sweep_rate_delay("vegas", self.GRID, RM, duration=3.0,
                                  budget=self.BUDGET, seed=5)
        chunked = sweep_rate_delay(
            "vegas", self.GRID, RM, duration=3.0, budget=self.BUDGET,
            seed=5, backend=ProcessPoolBackend(jobs=2, chunksize=2))
        assert serial.to_json() == chunked.to_json()

    def test_cca_spec_input(self):
        curve = sweep_rate_delay(CCASpec("vegas"), [2.0], RM,
                                 duration=2.0, budget=self.BUDGET)
        assert curve.label == "vegas"
        assert len(curve.points) == 1

    def test_callable_with_parallel_backend_rejected(self):
        from repro.ccas import Vegas
        with pytest.raises(ConfigurationError, match="declarative"):
            sweep_rate_delay(Vegas, self.GRID, RM, duration=2.0,
                             budget=self.BUDGET,
                             backend=ProcessPoolBackend(jobs=2))

    def test_template_sweep(self):
        template = single_flow_scenario(CCASpec("copa"),
                                        rate=units.mbps(1), rm=RM)
        curve = sweep_rate_delay("vegas", [2.0], RM, duration=2.0,
                                 budget=self.BUDGET, template=template)
        # The template's CCA (copa), not cca_factory, defines the flow.
        assert curve.label == "scenario"
        assert len(curve.points) == 1


class TestPointOutcome:
    def test_ok_property(self):
        assert PointOutcome(key="k", params={}, result=1).ok
        from repro.analysis.harness import RunFailure
        failure = RunFailure(key="k", reason="X", message="m",
                             attempts=1, elapsed=0.0)
        assert not PointOutcome(key="k", params={}, failure=failure).ok
