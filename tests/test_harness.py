"""Tests for the resilient experiment harness and engine watchdog."""

import json

import pytest

from repro import units
from repro.analysis.harness import (RECOVERABLE, ResilientSweep, RunBudget,
                                    RunFailure, describe_failures,
                                    run_with_retry)
from repro.analysis.sweep import log_rate_grid, sweep_rate_delay
from repro.ccas.vegas import Vegas
from repro.errors import BudgetExceededError, SimulationError
from repro.sim import FlowConfig, LinkConfig, run_scenario_full
from repro.sim.engine import Simulator


def livelock(sim):
    """Schedule a zero-delay self-rescheduling callback (never advances
    the clock) — the canonical divergent run."""
    def loop():
        sim.schedule(0.0, loop)
    sim.schedule(0.0, loop)


class TestEngineWatchdog:
    def test_event_budget_stops_livelock(self):
        sim = Simulator()
        livelock(sim)
        with pytest.raises(BudgetExceededError) as info:
            sim.run(10.0, max_events=5000)
        assert info.value.kind == "events"
        assert info.value.value >= 5000
        assert info.value.sim_time == 0.0

    def test_wall_clock_budget_stops_livelock(self):
        sim = Simulator()
        livelock(sim)
        with pytest.raises(BudgetExceededError) as info:
            sim.run(10.0, wall_clock_budget=1e-9)
        assert info.value.kind == "wall_clock"

    def test_budget_error_is_a_simulation_error(self):
        assert issubclass(BudgetExceededError, SimulationError)

    def test_healthy_run_unaffected_by_budgets(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(0.1 * (i + 1), fired.append, i)
        sim.run(2.0, max_events=1000, wall_clock_budget=60.0)
        assert len(fired) == 10
        assert sim.now == 2.0

    def test_budget_counts_per_call_not_lifetime(self):
        sim = Simulator()
        for i in range(60):
            sim.schedule(0.01 * (i + 1), lambda: None)
        sim.run(0.5, max_events=100)   # executes 50 events
        for i in range(60):
            sim.schedule(0.01 * (i + 1), lambda: None)
        # 10 leftovers + 60 new = 70 events: under the per-call cap even
        # though the lifetime total (120) exceeds it.
        sim.run(2.0, max_events=100)
        assert sim.events_processed == 120

    def test_scenario_run_forwards_budgets(self):
        with pytest.raises(BudgetExceededError):
            run_scenario_full(
                LinkConfig(rate=units.mbps(12)),
                [FlowConfig(cca_factory=Vegas, rm=units.ms(40))],
                duration=5.0, max_events=50)


class TestRunBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            RunBudget(max_events=0)
        with pytest.raises(ValueError):
            RunBudget(wall_clock=-1.0)
        with pytest.raises(ValueError):
            RunBudget(retries=-1)
        with pytest.raises(ValueError):
            RunBudget(backoff=0.5)

    def test_scaled_applies_backoff(self):
        budget = RunBudget(max_events=1000, wall_clock=10.0, backoff=2.0)
        assert budget.scaled(0).max_events == 1000
        assert budget.scaled(2).max_events == 4000
        assert budget.scaled(2).wall_clock == pytest.approx(40.0)

    def test_scaled_keeps_none_unlimited(self):
        budget = RunBudget(max_events=None, wall_clock=None)
        assert budget.scaled(3).max_events is None
        assert budget.scaled(3).wall_clock is None


class TestRunWithRetry:
    def test_succeeds_first_try(self):
        calls = []
        result = run_with_retry(lambda budget: calls.append(budget) or 42,
                                RunBudget(retries=3))
        assert result == 42
        assert len(calls) == 1

    def test_retries_with_backed_off_budget(self):
        budgets = []

        def flaky(budget):
            budgets.append(budget)
            if len(budgets) < 3:
                raise BudgetExceededError("too slow", kind="events",
                                          limit=1, value=1)
            return "ok"

        result = run_with_retry(
            flaky, RunBudget(max_events=100, retries=2, backoff=2.0))
        assert result == "ok"
        assert [b.max_events for b in budgets] == [100, 200, 400]

    def test_exhausted_retries_raise_last_error(self):
        def always_fails(budget):
            raise SimulationError("boom")

        with pytest.raises(SimulationError):
            run_with_retry(always_fails, RunBudget(retries=1))

    def test_on_retry_hook_sees_attempt_and_error(self):
        seen = []

        def fails_once(budget):
            if not seen:
                raise SimulationError("first")
            return "ok"

        result = run_with_retry(fails_once, RunBudget(retries=1),
                                on_retry=lambda a, e: seen.append((a, e)))
        assert result == "ok"
        assert seen[0][0] == 0
        assert isinstance(seen[0][1], SimulationError)

    def test_programming_errors_propagate_immediately(self):
        calls = []

        def broken(budget):
            calls.append(1)
            raise TypeError("bug in experiment script")

        with pytest.raises(TypeError):
            run_with_retry(broken, RunBudget(retries=5))
        assert len(calls) == 1


def scenario_point(params, budget):
    """A real (tiny) packet-simulation grid point."""
    result = run_scenario_full(
        LinkConfig(rate=units.mbps(params["rate_mbps"])),
        [FlowConfig(cca_factory=Vegas, rm=units.ms(40))],
        duration=2.0,
        max_events=budget.max_events,
        wall_clock_budget=budget.wall_clock)
    return {"throughput": result.stats[0].throughput}


def livelocked_point(params, budget):
    """A deliberately divergent grid point: zero-delay event storm."""
    sim = Simulator()
    livelock(sim)
    sim.run(10.0, max_events=budget.max_events or 10_000)
    return {"unreachable": True}


def dispatch_point(params, budget):
    if params.get("livelock"):
        return livelocked_point(params, budget)
    return scenario_point(params, budget)


class TestResilientSweep:
    def test_failed_point_recorded_not_fatal(self, tmp_path):
        """Acceptance: a grid containing one livelocked configuration
        completes, records that point as a RunFailure with a
        machine-readable reason, checkpoints partial results to JSON,
        and resumes from the checkpoint on re-invocation."""
        checkpoint = str(tmp_path / "sweep.json")
        grid = [("good-2", {"rate_mbps": 2.0}),
                ("livelocked", {"livelock": True}),
                ("good-10", {"rate_mbps": 10.0})]
        budget = RunBudget(max_events=200_000, wall_clock=30.0, retries=1)

        sweep = ResilientSweep(dispatch_point, budget=budget,
                               checkpoint_path=checkpoint)
        outcome = sweep.run(grid)

        # The sweep completed despite the divergent point.
        assert set(outcome.completed) == {"good-2", "good-10"}
        assert outcome.completed["good-2"]["throughput"] > 0
        # The failure is structured and machine-readable.
        assert len(outcome.failures) == 1
        failure = outcome.failures[0]
        assert failure.key == "livelocked"
        assert failure.reason == "BudgetExceededError"
        assert failure.attempts == 2          # retried once
        assert failure.params == {"livelock": True}

        # Partial results landed in the JSON checkpoint.
        with open(checkpoint) as fh:
            data = json.load(fh)
        assert set(data["completed"]) == {"good-2", "good-10"}
        assert data["failures"][0]["reason"] == "BudgetExceededError"

        # Re-invocation resumes: nothing is re-run.
        calls = []

        def counting_point(params, budget):
            calls.append(params)
            return dispatch_point(params, budget)

        resumed = ResilientSweep(counting_point, budget=budget,
                                 checkpoint_path=checkpoint).run(grid)
        assert calls == []
        assert resumed.resumed == 3
        assert set(resumed.completed) == {"good-2", "good-10"}
        assert resumed.failures[0].key == "livelocked"

    def test_interrupted_sweep_resumes_mid_grid(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.json")
        full_grid = [(f"p{i}", {"rate_mbps": 2.0}) for i in range(4)]
        budget = RunBudget(max_events=500_000, retries=0)

        # "Interrupted" after the first two points.
        ResilientSweep(scenario_point, budget=budget,
                       checkpoint_path=checkpoint).run(full_grid[:2])

        calls = []

        def counting_point(params, budget):
            calls.append(params)
            return scenario_point(params, budget)

        outcome = ResilientSweep(counting_point, budget=budget,
                                 checkpoint_path=checkpoint).run(full_grid)
        assert len(calls) == 2                 # only p2, p3 ran
        assert outcome.resumed == 2
        assert set(outcome.completed) == {"p0", "p1", "p2", "p3"}

    def test_retry_failures_on_resume(self, tmp_path):
        checkpoint = str(tmp_path / "sweep.json")
        budget = RunBudget(max_events=10_000, retries=0)
        grid = [("flaky", {"livelock": True})]
        first = ResilientSweep(dispatch_point, budget=budget,
                               checkpoint_path=checkpoint).run(grid)
        assert first.failures

        # Without the flag the failure is remembered, with it, re-run.
        healthy = [("flaky", {"rate_mbps": 2.0})]
        kept = ResilientSweep(dispatch_point, budget=budget,
                              checkpoint_path=checkpoint).run(healthy)
        assert kept.failures and not kept.completed
        retried = ResilientSweep(
            dispatch_point, budget=budget, checkpoint_path=checkpoint,
            retry_failures_on_resume=True).run(healthy)
        assert not retried.failures
        assert "flaky" in retried.completed

    def test_corrupt_checkpoint_tolerated(self, tmp_path):
        checkpoint = tmp_path / "sweep.json"
        checkpoint.write_text("{not json!")
        outcome = ResilientSweep(
            scenario_point, budget=RunBudget(retries=0),
            checkpoint_path=str(checkpoint)).run(
                [("p0", {"rate_mbps": 2.0})])
        assert "p0" in outcome.completed

    @pytest.mark.parametrize("text", [
        "[]",
        '"checkpoint"',
        '{"version": 1, "completed": {}, "failures": [{"key": "p0"}]}',
        '{"version": 1, "completed": [1, 2], "failures": []}',
        '{"version": 1, "completed": {}, "failures": {"p0": 1}}',
    ], ids=["list", "string", "failure-missing-reason", "completed-list",
            "failures-dict"])
    def test_wrong_shape_checkpoint_tolerated(self, tmp_path, text):
        # Valid JSON of the wrong shape is as good as no checkpoint.
        checkpoint = tmp_path / "sweep.json"
        checkpoint.write_text(text)
        outcome = ResilientSweep(
            scenario_point, budget=RunBudget(retries=0),
            checkpoint_path=str(checkpoint)).run(
                [("p0", {"rate_mbps": 2.0})])
        assert "p0" in outcome.completed
        assert outcome.resumed == 0 and not outcome.failures

    def test_duplicate_keys_rejected(self):
        sweep = ResilientSweep(scenario_point)
        with pytest.raises(ValueError):
            sweep.run([("a", {}), ("a", {})])

    def test_no_checkpoint_path_runs_in_memory(self):
        outcome = ResilientSweep(
            scenario_point, budget=RunBudget(retries=0)).run(
                [("p0", {"rate_mbps": 2.0})])
        assert "p0" in outcome.completed

    def test_progress_callback_sees_status(self):
        events = []
        ResilientSweep(dispatch_point,
                       budget=RunBudget(max_events=10_000, retries=0),
                       progress=lambda key, status:
                       events.append((key, status))).run(
                           [("bad", {"livelock": True})])
        assert ("bad", "run") in events
        assert any(status.startswith("failed") for _, status in events)


class TestRunFailure:
    def test_json_roundtrip(self):
        failure = RunFailure(key="k", reason="BudgetExceededError",
                             message="too many events", attempts=2,
                             elapsed=1.25, params={"rate": 2.0})
        assert RunFailure.from_json(failure.to_json()) == failure

    def test_describe_failures_table(self):
        text = describe_failures([
            RunFailure(key="p1", reason="BudgetExceededError",
                       message="x", attempts=1, elapsed=0.1)])
        assert "p1" in text
        assert "BudgetExceededError" in text
        assert describe_failures([]) == "no failures"


class TestSweepRateDelayResilience:
    def test_failures_recorded_on_curve(self):
        # An absurdly small event budget fails every point...
        curve = sweep_rate_delay(
            "vegas", [2.0, 10.0], rm=units.ms(40), duration=3.0,
            budget=RunBudget(max_events=20, retries=0))
        assert not curve.points
        assert len(curve.failures) == 2
        assert all(f.reason == "BudgetExceededError"
                   for f in curve.failures)

    def test_checkpoint_resume(self, tmp_path):
        checkpoint = str(tmp_path / "curve.json")
        kwargs = dict(rm=units.ms(40), duration=3.0,
                      checkpoint_path=checkpoint)
        first = sweep_rate_delay("vegas", [2.0], **kwargs)
        assert len(first.points) == 1
        # Extending the grid only runs the new point; the old one is
        # loaded from the checkpoint with identical values.
        second = sweep_rate_delay("vegas", [2.0, 10.0], **kwargs)
        assert len(second.points) == 2
        assert second.points[0] == first.points[0]

    def test_log_rate_grid_last_point_never_overshoots(self):
        for lo, hi, n in [(0.1, 100.0, 7), (0.3, 97.3, 11),
                          (0.7, 3.1, 23), (1e-3, 1e3, 50)]:
            grid = log_rate_grid(lo, hi, n)
            assert grid[-1] == hi
            assert all(x <= hi for x in grid)
            assert grid[0] == pytest.approx(lo)
            assert grid == sorted(grid)


class TestRecoverableSet:
    def test_repro_errors_are_recoverable(self):
        from repro.errors import ReproError
        assert issubclass(BudgetExceededError, RECOVERABLE[0]) or any(
            issubclass(BudgetExceededError, r) for r in RECOVERABLE)
        assert any(issubclass(ReproError, r) for r in RECOVERABLE)

    def test_overflow_is_recoverable(self):
        def overflows(budget):
            raise OverflowError("math range error")

        with pytest.raises(OverflowError):
            run_with_retry(overflows, RunBudget(retries=0))


class TestMaxFailures:
    """The fail-fast threshold: abort a sweep drowning in failures."""

    BUDGET = RunBudget(max_events=50_000, wall_clock=30.0, retries=0)

    def grid(self, *behaviors):
        return [(f"p{i}", {"rate_mbps": 2.0, **behavior})
                for i, behavior in enumerate(behaviors)]

    def test_abort_once_threshold_exceeded(self, tmp_path):
        from repro.errors import SweepAbortedError
        checkpoint = str(tmp_path / "ck.json")
        grid = self.grid({}, {"livelock": True}, {"livelock": True},
                         {})
        sweep = ResilientSweep(dispatch_point, budget=self.BUDGET,
                               checkpoint_path=checkpoint,
                               max_failures=1)
        with pytest.raises(SweepAbortedError, match="max_failures=1"):
            sweep.run(grid)
        # The checkpoint was flushed before the raise: the completed
        # prefix and both failure records survive for a resume.
        with open(checkpoint) as fh:
            saved = json.load(fh)
        assert "p0" in saved["completed"]
        assert [f["key"] for f in saved["failures"]] == ["p1", "p2"]

    def test_abort_error_carries_failures(self):
        from repro.errors import SweepAbortedError
        sweep = ResilientSweep(dispatch_point, budget=self.BUDGET,
                               max_failures=0)
        with pytest.raises(SweepAbortedError) as info:
            sweep.run(self.grid({"livelock": True}, {}))
        assert [f.key for f in info.value.failures] == ["p0"]
        assert info.value.failures[0].reason == "BudgetExceededError"

    def test_default_never_aborts(self):
        outcome = ResilientSweep(dispatch_point, budget=self.BUDGET) \
            .run(self.grid({"livelock": True}, {}))
        assert [f.key for f in outcome.failures] == ["p0"]
        assert set(outcome.completed) == {"p1"}

    def test_threshold_equal_to_failures_does_not_abort(self):
        outcome = ResilientSweep(dispatch_point, budget=self.BUDGET,
                                 max_failures=1) \
            .run(self.grid({"livelock": True}, {}))
        assert len(outcome.failures) == 1

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="max_failures"):
            ResilientSweep(dispatch_point, max_failures=-1)

    def test_resume_counts_checkpointed_failures(self, tmp_path):
        from repro.errors import SweepAbortedError
        checkpoint = str(tmp_path / "ck.json")
        grid = self.grid({"livelock": True}, {})
        ResilientSweep(dispatch_point, budget=self.BUDGET,
                       checkpoint_path=checkpoint).run(grid)
        # Resuming under a now-exceeded threshold aborts before
        # re-running anything.
        calls = []

        def counting_point(params, budget):
            calls.append(params)
            return dispatch_point(params, budget)

        sweep = ResilientSweep(counting_point, budget=self.BUDGET,
                               checkpoint_path=checkpoint,
                               max_failures=0)
        with pytest.raises(SweepAbortedError):
            sweep.run(grid)
        assert calls == []

    def test_sweep_rate_delay_forwards_max_failures(self):
        from repro.errors import SweepAbortedError
        with pytest.raises(SweepAbortedError):
            sweep_rate_delay("vegas", [2.0, 10.0], rm=units.ms(40),
                             duration=5.0,
                             budget=RunBudget(max_events=200,
                                              retries=0),
                             max_failures=0)
