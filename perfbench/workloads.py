"""The three workloads, each with an untraced loop and a traced pass.

Every workload is a closed loop: one caller, one request in flight.
The untraced loop gives the end-to-end metrics. The traced mode runs a
fixed amount of work untraced, traced and untraced again, so its counts
repeat exactly and the traced time against the mean untraced time is
the tracing overhead.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy
from scipy.special import betainc

from repro import units
from repro.analysis import competition as competition_mod
from repro.analysis import sweep as sweep_mod
from repro.analysis.backends import ProcessPoolBackend, SerialBackend
from repro.analysis.competition import (assemble_competition_matrix,
                                        build_matrix_points,
                                        competition_matrix,
                                        run_competition_point)
from repro.analysis.harness import ResilientSweep, RunBudget, SweepOutcome
from repro.analysis.sweep import (assemble_rate_delay_curve,
                                  build_rate_delay_points,
                                  run_rate_delay_point, sweep_rate_delay)
from repro.service import ServiceClient
from repro.sim.runner import summarize
from repro.spec import ScenarioSpec
from repro.store import ResultStore

from plan import POOL_JOBS, SWEEP_CCAS, Plan, digest
from spans import CcaProbe, Tracer, TracingStore

#: Fixed poll interval for job status (no back-off, so a round trip is
#: quantised to 2 ms rather than to a growing sleep).
POLL_S = 0.002
#: Requests in each half of the service traced pass.
TRACED_REQUESTS = 16
#: Replays of the cold grid in each half of the warm traced pass.
TRACED_REPLAY_ROUNDS = 10
#: In-process replays of the whole cold grid per warm CLI call: enough
#: that replays fill about a third of the loop, not a tenth, so their
#: median covers several seconds of each run.
GRID_REPLAYS_PER_CLI = 16
#: Fresh interpreters timed for cold-sweep's set-up; the median is kept.
SETUP_IMPORTS = 9


def quantile(values: List[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile: a Beta-weighted mean
    of all order statistics, steadier than the one or two a plain
    quantile reads when samples are few or of uneven size."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 2:
        return ordered[0] if ordered else 0.0
    edges = betainc((n + 1) * q, (n + 1) * (1 - q),
                    numpy.arange(n + 1) / n)
    return float(numpy.dot(numpy.diff(edges), ordered))


def median(values: List[float]) -> float:
    return quantile(values, 0.5)


def p90(values: List[float]) -> float:
    return quantile(values, 0.9)


def mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


class Checker:
    """Counts operations and compares result documents with the pins."""

    def __init__(self, pins: Dict[str, str]) -> None:
        self.pins = pins
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def op(self, name: str, documents: Dict[str, Any],
           misses: int = 0) -> bool:
        """One operation's outcome: every document matches its pin and,
        when ``misses`` is given for a warm operation, nothing ran."""
        self.attempted += 1
        for doc_name, document in documents.items():
            if digest(document) != self.pins.get(doc_name):
                self.fail(f"{name}: {doc_name} differs from its pin")
                return False
        if misses:
            self.fail(f"{name}: {misses} store miss(es) on a warm replay")
            return False
        return True

    def error(self, name: str, exc: BaseException) -> None:
        self.attempted += 1
        self.fail(f"{name}: {type(exc).__name__}: {exc}")


class TimedBackend(SerialBackend):
    """The serial backend, timing each point it yields."""

    def __init__(self) -> None:
        self.samples: List[Tuple[str, float]] = []

    def execute(self, run_point, points, budget, **kwargs):
        outcomes = super().execute(run_point, points, budget, **kwargs)
        while True:
            start = time.perf_counter()
            try:
                outcome = next(outcomes)
            except StopIteration:
                return
            self.samples.append((outcome.key, time.perf_counter() - start))
            yield outcome


# ----------------------------------------------------------------------
# The cold grid through the public API
# ----------------------------------------------------------------------

def run_op(plan: Plan, op: str, backend: Any = None,
           store: Optional[ResultStore] = None
           ) -> Tuple[Dict[str, Any], int]:
    """One cold-grid operation: ``(documents, store misses)``."""
    if op.startswith("sweep:"):
        curve = sweep_rate_delay(op.split(":", 1)[1], plan.grid, plan.rm,
                                 duration=plan.size.duration,
                                 seed=plan.scenario_seed, backend=backend,
                                 store=store)
        if curve.failures:
            raise RuntimeError(f"{len(curve.failures)} point(s) failed")
        misses = curve.cache["misses"] if curve.cache else 0
        return {op: curve.to_json()}, misses
    if op == "matrix":
        matrix = competition_matrix(**plan.matrix_kwargs(), backend=backend,
                                    store=store)
        if matrix.failures:
            raise RuntimeError(f"{len(matrix.failures)} pair(s) failed")
        misses = matrix.cache["misses"] if matrix.cache else 0
        return {"matrix": matrix.to_json()}, misses
    points = plan.scenario_points()
    outcome = ResilientSweep(run_competition_point, backend=backend,
                             store=store).run(points)
    if outcome.failures:
        raise RuntimeError(f"{len(outcome.failures)} scenario(s) failed")
    return ({f"scenario:{key}": outcome.completed[key] for key, _ in points},
            outcome.misses)


def _cost(params: Dict[str, Any]) -> float:
    """Rough simulation cost of a point: packets to send."""
    spec = ScenarioSpec.from_json(params["scenario"])
    return spec.bottleneck_rate * params["duration"] * len(spec.flows)


def fill_store(plan: Plan, root: str, checker: Checker) -> ResultStore:
    """Run the cold grid once on a worker pool into a fresh store.

    All sweep points go through one harness call and all two- and
    three-flow points through another, largest first, so both workers
    stay busy; the store keys are the ones the per-operation calls use.
    """
    store = ResultStore(root)
    backend = ProcessPoolBackend(POOL_JOBS)
    grids = {cca: build_rate_delay_points(cca, plan.grid, plan.rm,
                                          duration=plan.size.duration,
                                          seed=plan.scenario_seed)
             for cca in SWEEP_CCAS}
    kwargs = plan.matrix_kwargs()
    pairs = build_matrix_points(kwargs["ccas"], kwargs["rate"], kwargs["rm"],
                                duration=kwargs["duration"],
                                seed=kwargs["seed"])
    batches = [
        (run_rate_delay_point, [(f"{cca}:{key}", params)
                                for cca, (_, points) in grids.items()
                                for key, params in points]),
        (run_competition_point, [(f"matrix:{key}", params)
                                 for key, params in pairs]
         + [(f"scenario:{key}", params)
            for key, params in plan.scenario_points()]),
    ]
    results: Dict[str, Any] = {}
    for run_point, points in batches:
        points.sort(key=lambda point: -_cost(point[1]))
        outcome = ResilientSweep(run_point, backend=backend,
                                 store=store).run(points)
        results.update(outcome.completed)
        for failure in outcome.failures:
            checker.error(f"fill {failure.key}",
                          RuntimeError(failure.message))
    documents: Dict[str, Any] = {}
    try:
        for cca, (label, points) in grids.items():
            completed = {key: results[f"{cca}:{key}"] for key, _ in points}
            documents[f"sweep:{cca}"] = assemble_rate_delay_curve(
                label, plan.rm, points, SweepOutcome(completed, [])).to_json()
        completed = {key: results[f"matrix:{key}"] for key, _ in pairs}
        documents["matrix"] = assemble_competition_matrix(
            kwargs["ccas"], kwargs["rate"], kwargs["rm"], kwargs["duration"],
            pairs, SweepOutcome(completed, [])).to_json()
        for key, _ in plan.scenarios:
            documents[f"scenario:{key}"] = results[f"scenario:{key}"]
    except KeyError as exc:
        checker.error("fill", exc)
        return store
    checker.op("fill", documents)
    return store


# ----------------------------------------------------------------------
# The cold grid through ScenarioSpec.build / Scenario.run / summarize
# ----------------------------------------------------------------------

def _traced_point(params: Dict[str, Any], tracer: Tracer, probe: CcaProbe,
                  counts: Dict[str, int]) -> list:
    """Run one point in pieces; returns the built flow stats."""
    with tracer.span("spec.json"):
        spec = ScenarioSpec.from_json(params["scenario"])
    duration, warmup = params["duration"], params["warmup"]
    # The sampling rule the runner applies when the spec sets none.
    interval = spec.sample_interval
    if interval is None:
        interval = max(min(f.rm for f in spec.flows) / 4, duration / 20000)
    with tracer.span("spec.build"):
        scenario = spec.build(sample_interval=interval)
    probe.wrap(scenario, [flow.cca.name for flow in spec.flows])
    budget = RunBudget()
    before = probe.seconds()
    with tracer.span("sim.run") as span:
        scenario.run(duration, max_events=budget.max_events,
                     wall_clock_budget=budget.wall_clock)
    span[5] = probe.seconds() - before
    with tracer.span("sim.summarize"):
        stats = summarize(scenario, duration, warmup)
    counts["sim.events"] += scenario.sim.events_processed
    for flow in scenario.flows:
        counts["sim.sent_packets"] += flow.sender.sent_packets
        counts["sim.retransmits"] += flow.sender.retransmits
    counts["sim.queue_drops"] += sum(q.drops for q in scenario.queues)
    return stats


def _pair_result(stats: list) -> Dict[str, Any]:
    """What :func:`run_competition_point` returns for these stats."""
    return {"labels": [s.label for s in stats],
            "throughputs": [s.throughput for s in stats],
            "goodputs": [s.goodput for s in stats],
            "losses": [s.losses for s in stats]}


def traced_cold_pass(plan: Plan, tracer: Tracer
                     ) -> Tuple[Dict[str, Any], Dict[str, int], CcaProbe]:
    """One pass of the cold grid in pieces, with spans and counts."""
    probe = CcaProbe()
    counts: Dict[str, int] = {"sim.events": 0, "sim.sent_packets": 0,
                              "sim.retransmits": 0, "sim.queue_drops": 0}
    documents: Dict[str, Any] = {}
    size = plan.size
    for op in plan.ops():
        tracer.request = op
        with tracer.span("bench.op"):
            if op.startswith("sweep:"):
                cca = op.split(":", 1)[1]
                with tracer.span("spec.json"):
                    label, points = build_rate_delay_points(
                        cca, plan.grid, plan.rm, duration=size.duration,
                        seed=plan.scenario_seed)
                completed = {}
                for key, params in points:
                    stats = _traced_point(params, tracer, probe, counts)
                    completed[key] = {
                        "link_rate": ScenarioSpec.from_json(
                            params["scenario"]).bottleneck_rate,
                        "d_min": stats[0].min_rtt, "d_max": stats[0].max_rtt,
                        "throughput": stats[0].throughput}
                curve = assemble_rate_delay_curve(
                    label, plan.rm, points, SweepOutcome(completed, []))
                documents[op] = curve.to_json()
            elif op == "matrix":
                kwargs = plan.matrix_kwargs()
                with tracer.span("spec.json"):
                    points = build_matrix_points(
                        kwargs["ccas"], kwargs["rate"], kwargs["rm"],
                        duration=kwargs["duration"], seed=kwargs["seed"])
                completed = {key: _pair_result(
                    _traced_point(params, tracer, probe, counts))
                    for key, params in points}
                matrix = assemble_competition_matrix(
                    kwargs["ccas"], kwargs["rate"], kwargs["rm"],
                    kwargs["duration"], points, SweepOutcome(completed, []))
                documents["matrix"] = matrix.to_json()
            else:
                with tracer.span("spec.json"):
                    points = plan.scenario_points()
                for key, params in points:
                    documents[f"scenario:{key}"] = _pair_result(
                        _traced_point(params, tracer, probe, counts))
    tracer.request = None
    for cca in SWEEP_CCAS:
        counts[f"ccas.{cca}.on_ack_calls"] = int(
            probe.stats[cca]["on_ack"][0])
    return documents, counts, probe


# ----------------------------------------------------------------------
# Subprocesses
# ----------------------------------------------------------------------

def timed_subprocess(argv: List[str], env: Dict[str, str], cwd: str,
                     timeout: float = 60.0) -> Tuple[float, str]:
    """Run a command to completion: ``(wall seconds, stdout)``."""
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=timeout)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:4]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")
    return wall, proc.stdout


def cli_sweep_argv(plan: Plan, cca: str, store_root: str,
                   json_path: str) -> List[str]:
    return [sys.executable, "-m", "repro.cli", "sweep", "--cca", cca,
            "--rates", ",".join(repr(r) for r in plan.grid),
            "--rm", repr(plan.size.rm_ms),
            "--duration", repr(plan.size.duration),
            "--seed", str(plan.scenario_seed),
            "--cache-dir", store_root, "--json", json_path]


def cli_sweep(run: "Run", cca: str, store_root: str) -> float:
    """One warm ``repro sweep --json`` against the store; checked."""
    json_path = os.path.join(run.work, "cli.json")
    name = f"cli sweep:{cca}"
    try:
        wall, out = timed_subprocess(
            cli_sweep_argv(run.plan, cca, store_root, json_path),
            run.env, run.work)
        with open(json_path, "r", encoding="utf-8") as fh:
            document = json.load(fh)
    except (OSError, RuntimeError, ValueError,
            subprocess.TimeoutExpired) as exc:
        run.checker.error(name, exc)
        return -1.0
    misses = 0 if " 0 miss(es)" in out else 1
    ok = run.checker.op(name, {f"sweep:{cca}": document}, misses=misses)
    return wall if ok else -1.0


def python_startup(run: "Run", code: str, repeat: int) -> float:
    """Median wall time of ``python -c code`` over ``repeat`` runs."""
    return median([timed_subprocess([sys.executable, "-c", code],
                                    run.env, run.work)[0]
                   for _ in range(repeat)])


# ----------------------------------------------------------------------
# Run state shared by the workloads
# ----------------------------------------------------------------------

class Run:
    """One benchmark run: inputs, work directory and results."""

    def __init__(self, plan: Plan, seconds: float, work: str,
                 env: Dict[str, str], pins: Dict[str, Any]) -> None:
        self.plan = plan
        self.seconds = seconds
        self.work = work
        self.env = env
        self.pins = pins
        self.checker = Checker(pins.get("digests", {}))
        #: name -> (value, unit, samples) for the human-readable report.
        self.report: Dict[str, Tuple[float, str, int]] = {}
        self.metrics: Dict[str, float] = {}
        self.tracer: Optional[Tracer] = None

    def note(self, name: str, value: float, unit: str,
             samples: int = 1) -> None:
        self.report[name] = (value, unit, samples)


def _latency_metrics(run: Run, op_s: List[float], aux_s: List[float],
                     ops: int, sim_seconds: float, wall: float,
                     setup: float) -> None:
    run.metrics.update({
        "setup_s": setup,
        "op_p50_ms": median(op_s) * 1e3,
        "op_p75_ms": quantile(op_s, 0.75) * 1e3,
        "aux_p50_ms": median(aux_s) * 1e3,
        "ops_per_s": ops / wall,
        "sim_s_per_wall_s": sim_seconds / wall,
    })


# ----------------------------------------------------------------------
# cold-sweep
# ----------------------------------------------------------------------

IMPORT_SIM = "import repro.analysis, repro.spec, repro.sim"


def cold_setup(run: Run) -> float:
    """A fresh interpreter importing the simulator stack (median of
    :data:`SETUP_IMPORTS`)."""
    return python_startup(run, IMPORT_SIM, SETUP_IMPORTS)


def cold_sweep(run: Run) -> None:
    setup = cold_setup(run)
    plan = run.plan
    backend = TimedBackend()
    sim_seconds = 0.0
    # Per pass, the wall time of the whole grid (the auxiliary latency:
    # it spans the run, so it is steadier than any subset of points) and
    # of its two- and three-flow points alone (reported only).
    pass_s: List[float] = []
    multi_s: List[float] = []
    start = time.perf_counter()
    while True:
        first = len(backend.samples)
        pass_start = time.perf_counter()
        for op in plan.ops():
            try:
                documents, _ = run_op(plan, op, backend=backend)
            except Exception as exc:  # a failed op fails the run
                run.checker.error(op, exc)
                continue
            if run.checker.op(op, documents):
                sim_seconds += plan.sim_seconds(op)
        pass_s.append(time.perf_counter() - pass_start)
        multi_s.append(sum(s for key, s in backend.samples[first:]
                           if not key.endswith("mbps")))
        if time.perf_counter() - start >= run.seconds:
            break
    wall = time.perf_counter() - start
    point_s = [s for _, s in backend.samples]
    _latency_metrics(run, point_s, pass_s, len(point_s), sim_seconds, wall,
                     setup)
    run.note("setup_s", setup, "s", SETUP_IMPORTS)
    run.note("sim_s_per_wall_s", sim_seconds / wall, "sim-s/s")
    run.note("point_p50_s", median(point_s), "s", len(point_s))
    run.note("point_p90_s", p90(point_s), "s", len(point_s))
    run.note("pass_s", median(pass_s), "s", len(pass_s))
    run.note("multi_flow_pass_s", median(multi_s), "s", len(multi_s))


def cold_sweep_traced(run: Run) -> None:
    plan = run.plan
    setup = cold_setup(run)

    def untraced_pass() -> Tuple[float, Dict[str, Any]]:
        start = time.perf_counter()
        reference: Dict[str, Any] = {}
        for op in plan.ops():
            reference.update(run_op(plan, op)[0])
        return time.perf_counter() - start, reference

    before, reference = untraced_pass()
    tracer = run.tracer = Tracer()
    start = time.perf_counter()
    documents, counts, probe = traced_cold_pass(plan, tracer)
    traced = time.perf_counter() - start
    untraced = (before + untraced_pass()[0]) / 2
    for name, document in sorted(documents.items()):
        run.checker.op(f"traced {name}", {name: document})
    if documents != reference:
        run.checker.fail("traced results differ from the untraced pass")
    pinned = run.pins.get("counts", {})
    for name, value in sorted(counts.items()):
        if pinned.get(name) != value:
            run.checker.fail(f"count {name} = {value}, pinned "
                             f"{pinned.get(name)}")
    sim_run = tracer.total("sim.run")
    n_ops = len(plan.ops())
    layer = run.metrics
    layer.update(counts)
    layer.update({
        "sim.run_s": sim_run,
        "sim.self_s": tracer.self_total("sim.run"),
        "sim.events_per_s": counts["sim.events"] / sim_run,
        "sim.summarize_ms": tracer.total("sim.summarize") * 1e3 / n_ops,
        "spec.build_ms": tracer.total("spec.build") * 1e3 / n_ops,
        "spec.json_ms": tracer.total("spec.json") * 1e3 / n_ops,
        "trace.overhead_pct": (traced - untraced) / untraced * 100,
    })
    for cca in SWEEP_CCAS:
        stats = probe.stats[cca]
        busy = sum(slot[1] for slot in stats.values())
        layer[f"ccas.{cca}.on_ack_s"] = stats["on_ack"][1]
        layer[f"ccas.{cca}.on_send_s"] = stats["on_send"][1]
        layer[f"ccas.{cca}.share"] = busy / sim_run * 100
    run.note("setup_s", setup, "s", SETUP_IMPORTS)
    run.note("untraced_pass_s", untraced, "s")
    run.note("traced_pass_s", traced, "s")


# ----------------------------------------------------------------------
# warm-replay
# ----------------------------------------------------------------------

def warm_setup(run: Run) -> Tuple[float, str]:
    root = os.path.join(run.work, "store")
    start = time.perf_counter()
    fill_store(run.plan, root, run.checker)
    return time.perf_counter() - start, root


def replay(run: Run, op: str, store: ResultStore) -> bool:
    """One warm in-process replay of one operation; True when correct."""
    try:
        documents, misses = run_op(run.plan, op, store=store)
    except Exception as exc:  # a failed op fails the run
        run.checker.error(f"replay {op}", exc)
        return False
    return run.checker.op(f"replay {op}", documents, misses=misses)


def replay_grid(run: Run, store: ResultStore) -> float:
    """Replay the whole cold grid once; its wall time, or -1 on failure.

    The grid, not one operation, is the unit so that every sample does
    the same work (one sweep replays 8 points, the matrix 3)."""
    start = time.perf_counter()
    ok = [replay(run, op, store) for op in run.plan.ops()]
    wall = time.perf_counter() - start
    return wall if all(ok) else -1.0


def warm_replay(run: Run) -> None:
    setup, root = warm_setup(run)
    plan = run.plan
    store = ResultStore(root)
    grid_sim_seconds = sum(plan.sim_seconds(op) for op in plan.ops())
    rng = random.Random(plan.seed * 31 + 7)
    cli_order: List[str] = []
    replay_s: List[float] = []
    cli_s: List[float] = []
    sim_seconds = 0.0
    start = time.perf_counter()
    while time.perf_counter() - start < run.seconds:
        if not cli_order:
            cli_order = list(SWEEP_CCAS)
            rng.shuffle(cli_order)
        cca = cli_order.pop()
        wall = cli_sweep(run, cca, root)
        if wall >= 0:
            cli_s.append(wall)
            sim_seconds += plan.sim_seconds(f"sweep:{cca}")
        for _ in range(GRID_REPLAYS_PER_CLI):
            wall = replay_grid(run, store)
            if wall >= 0:
                replay_s.append(wall)
                sim_seconds += grid_sim_seconds
    wall = time.perf_counter() - start
    _latency_metrics(run, replay_s, cli_s, len(replay_s), sim_seconds, wall,
                     setup)
    run.metrics["ops_per_s"] = len(replay_s) / sum(replay_s)
    run.note("setup_s", setup, "s")
    run.note("replay_p50_ms", median(replay_s) * 1e3, "ms", len(replay_s))
    run.note("replay_p90_ms", p90(replay_s) * 1e3, "ms", len(replay_s))
    run.note("replays_per_s", len(replay_s) / sum(replay_s), "1/s",
             len(replay_s))
    run.note("cli_p50_ms", median(cli_s) * 1e3, "ms", len(cli_s))
    run.note("cli_p90_ms", p90(cli_s) * 1e3, "ms", len(cli_s))


class _Patched:
    """Route the grid builders through ``spec.json`` spans while active:
    the module-level ones the harness calls and the plan's own."""

    def __init__(self, tracer: Tracer, plan: Plan) -> None:
        self.targets = [(sweep_mod, "build_rate_delay_points"),
                        (competition_mod, "build_matrix_points"),
                        (plan, "scenario_points")]
        self.tracer = tracer
        self.saved: List[Callable[..., Any]] = []

    def __enter__(self) -> None:
        for owner, name in self.targets:
            original = getattr(owner, name)
            self.saved.append(original)
            setattr(owner, name, self.tracer.wrap("spec.json", original))

    def __exit__(self, *exc: Any) -> None:
        for (owner, name), original in zip(self.targets, self.saved):
            setattr(owner, name, original)


#: Times ``import repro.cli`` and one ``repro.cli.main`` call inside one
#: interpreter and prints both as the last line.
CLI_LAYERS = """
import json, sys, time
start = time.perf_counter()
import repro.cli
imported = time.perf_counter()
code = repro.cli.main(sys.argv[1:])
done = time.perf_counter()
print(json.dumps({"code": code, "import_s": imported - start,
                  "run_s": done - imported}))
"""


def _cli_layers(run: Run, root: str,
                rounds: int = 7) -> Tuple[float, float, float]:
    """Medians of a bare interpreter's start-up, of ``import repro.cli``
    and of a warm ``repro sweep`` after the import, the last two timed
    inside the interpreter so start-up noise does not enter them."""
    interp: List[float] = []
    imported: List[float] = []
    ran: List[float] = []
    json_path = os.path.join(run.work, "cli-layers.json")
    for i in range(rounds):
        interp.append(python_startup(run, "pass", 1))
        cca = SWEEP_CCAS[i % len(SWEEP_CCAS)]
        argv = cli_sweep_argv(run.plan, cca, root, json_path)[3:]
        name = f"cli layers sweep:{cca}"
        try:
            _, out = timed_subprocess(
                [sys.executable, "-c", CLI_LAYERS] + argv, run.env, run.work)
            timing = json.loads(out.strip().splitlines()[-1])
            with open(json_path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except (OSError, RuntimeError, ValueError,
                subprocess.TimeoutExpired) as exc:
            run.checker.error(name, exc)
            continue
        misses = 0 if timing["code"] == 0 and " 0 miss(es)" in out else 1
        if run.checker.op(name, {f"sweep:{cca}": document}, misses=misses):
            imported.append(timing["import_s"])
            ran.append(timing["run_s"])
    return median(interp), median(imported), median(ran)


def warm_replay_traced(run: Run) -> None:
    setup, root = warm_setup(run)
    plan = run.plan
    ops = plan.ops() * TRACED_REPLAY_ROUNDS
    store = ResultStore(root)
    for op in plan.ops():  # warm the page cache and imports first
        replay(run, op, store)

    def untraced_pass() -> float:
        start = time.perf_counter()
        for op in ops:
            replay(run, op, store)
        return time.perf_counter() - start

    before = untraced_pass()
    tracer = run.tracer = Tracer()
    traced_store = TracingStore(root, tracer)
    catalog_before = os.path.getsize(traced_store.catalog.path)
    start = time.perf_counter()
    with _Patched(tracer, plan):
        for i, op in enumerate(ops):
            tracer.request = f"{op}#{i}"
            with tracer.span("analysis.replay"):
                documents, misses = run_op(plan, op, store=traced_store)
            run.checker.op(f"traced replay {op}", documents, misses=misses)
    traced = time.perf_counter() - start
    tracer.request = None
    catalog_bytes = os.path.getsize(traced_store.catalog.path) - catalog_before
    lookups = traced_store.hits + traced_store.misses
    untraced = (before + untraced_pass()) / 2
    interp, imported, cli = _cli_layers(run, root)
    layer = run.metrics
    layer.update({
        "analysis.harness_ms": tracer.self_total("analysis.replay")
        * 1e3 / len(ops),
        "spec.json_ms": tracer.total("spec.json") * 1e3 / len(ops),
        "store.fetch_ms": mean(tracer.durations("store.fetch")) * 1e3,
        "store.hits": traced_store.hits,
        "store.misses": traced_store.misses,
        "store.catalog_bytes_per_op": catalog_bytes / max(lookups, 1),
        "cli.interp_ms": interp * 1e3,
        "cli.import_ms": imported * 1e3,
        "cli.run_ms": cli * 1e3,
        "trace.overhead_pct": (traced - untraced) / untraced * 100,
    })
    run.note("setup_s", setup, "s")
    run.note("untraced_replays_s", untraced, "s", len(ops))
    run.note("traced_replays_s", traced, "s", len(ops))


# ----------------------------------------------------------------------
# service-mixed
# ----------------------------------------------------------------------

class Daemon:
    """``repro serve`` as a subprocess on a loopback ephemeral port."""

    def __init__(self, run: Run, store_root: str) -> None:
        self.log_path = os.path.join(run.work, "daemon.log")
        self.log = open(self.log_path, "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--job-dir", os.path.join(run.work, "jobs"),
             "--cache-dir", store_root, "--port", "0",
             "--jobs", str(POOL_JOBS)],
            env=run.env, cwd=run.work, stdout=self.log,
            stderr=subprocess.STDOUT)
        self.store_root = store_root
        try:
            self.url = self._wait_url(timeout=60.0)
        except BaseException:
            self.stop()
            raise

    def _wait_url(self, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        marker = "listening on "
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited {self.proc.returncode}")
            with open(self.log_path, "r", encoding="utf-8") as fh:
                for line in fh:
                    if marker in line:
                        url = line.split(marker, 1)[1].strip()
                        client = ServiceClient(url, retries=0)
                        while time.monotonic() < deadline:
                            if client.healthz():
                                return url
                            time.sleep(0.01)
            time.sleep(0.01)
        raise RuntimeError("daemon did not come up")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def service_setup(run: Run) -> Tuple[float, Daemon]:
    start = time.perf_counter()
    root = os.path.join(run.work, "store")
    fill_store(run.plan, root, run.checker)
    daemon = Daemon(run, root)
    return time.perf_counter() - start, daemon


class Requests:
    """Closed-loop submit -> wait -> fetch against the daemon."""

    def __init__(self, run: Run, client: ServiceClient,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.run = run
        self.client = client
        self.sleep = sleep
        # Shifts each request's polls by a seeded fraction of the poll
        # interval, so round trips do not cluster on poll boundaries.
        self.phase = random.Random(run.plan.seed * 104_729 + 3)
        self.novel = 0
        #: (JobSpec, result bytes) of novel sweeps, checked afterwards.
        self.novel_results: List[Tuple[Any, bytes]] = []

    def spec_for(self, kind: str):
        if kind == "novel":
            self.novel += 1
            return self.run.plan.novel_job(self.novel)
        if kind == "matrix":
            return self.run.plan.matrix_job()
        return self.run.plan.sweep_job(kind.split(":", 1)[1])

    def send(self, kind: str) -> Tuple[float, Optional[str]]:
        """One round trip: ``(seconds or -1, job id)``."""
        spec = self.spec_for(kind)
        start = time.perf_counter()
        try:
            job = self.client.submit(spec)
            self.sleep(self.phase.uniform(0.0, POLL_S))
            snapshot = self.client.wait(job["id"], timeout=120.0,
                                        poll=POLL_S, poll_cap=POLL_S)
            if snapshot["state"] != "done":
                raise RuntimeError(f"job ended {snapshot['state']}: "
                                   f"{snapshot.get('error')}")
            raw = self.client.result_bytes(job["id"])
        except Exception as exc:  # a failed request fails the run
            self.run.checker.error(f"request {kind}", exc)
            return -1.0, None
        wall = time.perf_counter() - start
        if kind == "novel":
            self.run.checker.attempted += 1
            self.novel_results.append((spec, raw))
            return wall, job["id"]
        doc = "matrix" if kind == "matrix" else kind
        if not self.run.checker.op(f"request {kind}",
                                   {doc: json.loads(raw)}):
            return -1.0, job["id"]
        return wall, job["id"]

    def verify_novel(self, store: Optional[ResultStore] = None) -> None:
        """Recompute each novel sweep in-process; bytes must agree."""
        for spec, raw in self.novel_results:
            params = spec.params
            curve = sweep_rate_delay(
                params["cca"], params["rates_mbps"], units.ms(params["rm_ms"]),
                duration=params["duration"], seed=params["seed"],
                store=store)
            if digest(curve.to_json()) != digest(json.loads(raw)):
                self.run.checker.fail(f"novel sweep {spec.params['seed']} "
                                      "differs from a local run")
        self.novel_results = []


def _sim_seconds_of(plan: Plan, kind: str) -> float:
    if kind == "novel":
        return len(plan.size.novel_rates) * plan.size.novel_duration
    return plan.sim_seconds(kind)


def service_mixed(run: Run) -> None:
    setup, daemon = service_setup(run)
    try:
        client = ServiceClient(daemon.url, seed=run.plan.seed)
        requests = Requests(run, client)
        warm_s: List[float] = []
        cold_s: List[float] = []
        jobs = 0
        sim_seconds = 0.0
        start = time.perf_counter()
        for kind in run.plan.request_mix(100_000):
            if time.perf_counter() - start >= run.seconds:
                break
            wall, _ = requests.send(kind)
            if wall < 0:
                continue
            jobs += 1
            sim_seconds += _sim_seconds_of(run.plan, kind)
            (cold_s if kind == "novel" else warm_s).append(wall)
        wall = time.perf_counter() - start
    finally:
        daemon.stop()
    requests.verify_novel()
    _latency_metrics(run, warm_s, cold_s, jobs, sim_seconds, wall, setup)
    run.note("setup_s", setup, "s")
    run.note("roundtrip_warm_p50_ms", median(warm_s) * 1e3, "ms", len(warm_s))
    run.note("roundtrip_warm_p90_ms", p90(warm_s) * 1e3, "ms", len(warm_s))
    run.note("roundtrip_cold_p50_ms", median(cold_s) * 1e3, "ms", len(cold_s))
    run.note("jobs_per_s", jobs / wall, "1/s", jobs)


def _catalog_lines(path: str) -> List[Dict[str, Any]]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append(json.loads(line))
    return rows


def service_mixed_traced(run: Run) -> None:
    setup, daemon = service_setup(run)
    # The same requests four times: a warm-up, untraced, traced and
    # untraced again (novel sweeps get fresh seeds each time).
    mix = run.plan.request_mix(TRACED_REQUESTS)
    try:
        plain = Requests(run, ServiceClient(daemon.url, seed=run.plan.seed))
        for kind in mix:
            plain.send(kind)

        def untraced_pass() -> float:
            start = time.perf_counter()
            for kind in mix:
                plain.send(kind)
            return time.perf_counter() - start

        before = untraced_pass()

        tracer = run.tracer = Tracer()

        def sleep(seconds: float) -> None:
            with tracer.span("service.sleep"):
                time.sleep(seconds)

        client = ServiceClient(daemon.url, seed=run.plan.seed, sleep=sleep)
        for method, name in (("submit", "service.submit"),
                             ("job", "service.status"),
                             ("result_bytes", "service.result")):
            setattr(client, method, tracer.wrap(name, getattr(client, method)))
        traced_requests = Requests(run, client, sleep=sleep)
        traced_requests.novel = plain.novel
        catalog_path = os.path.join(daemon.store_root, "catalog.jsonl")
        catalog_before = _catalog_lines(catalog_path)
        catalog_start = os.path.getsize(catalog_path)
        job_ids: List[Tuple[str, Optional[str]]] = []
        start = time.perf_counter()
        for i, kind in enumerate(mix):
            tracer.request = f"{kind}#{i}"
            with tracer.span("service.roundtrip"):
                _, jid = traced_requests.send(kind)
            job_ids.append((kind, jid))
        traced = time.perf_counter() - start
        tracer.request = None
        queue_wait: List[float] = []
        spawn: List[float] = []
        for kind, jid in job_ids:
            if jid is None:
                continue
            stamps: Dict[str, float] = {}
            for event in plain.client.events(jid):
                stamps.setdefault(event["event"], event["ts"])
            queue_wait.append(stamps["started"] - stamps["queued"])
            if kind == "novel":
                spawn.append(stamps["point"] - stamps["started"])
        catalog = _catalog_lines(catalog_path)[len(catalog_before):]
        catalog_bytes = os.path.getsize(catalog_path) - catalog_start
        untraced = (before + untraced_pass()) / 2
    finally:
        daemon.stop()
    plain.verify_novel()
    put_store = TracingStore(os.path.join(run.work, "verify-store"), tracer)
    traced_requests.verify_novel(store=put_store)
    jobs = len(job_ids)
    hits = [row for row in catalog if row["event"] == "hit"]
    layer = run.metrics
    layer.update({
        "service.submit_ms": mean(tracer.durations("service.submit")) * 1e3,
        "service.status_ms": mean(tracer.durations("service.status")) * 1e3,
        "service.result_ms": mean(tracer.durations("service.result")) * 1e3,
        "service.polls_per_job": len(tracer.durations("service.status"))
        / jobs,
        "service.poll_sleep_ms": tracer.total("service.sleep") * 1e3 / jobs,
        "service.queue_wait_ms": mean(queue_wait) * 1e3,
        "analysis.pool_spawn_ms": mean(spawn) * 1e3,
        "store.fetch_ms": mean([row["wall_s"] for row in hits]) * 1e3,
        "store.put_ms": mean(tracer.durations("store.put")) * 1e3,
        "store.hits": len(hits),
        "store.misses": sum(1 for row in catalog if row["event"] == "miss"),
        "store.catalog_bytes_per_op": catalog_bytes / max(len(catalog), 1),
        "trace.overhead_pct": (traced - untraced) / untraced * 100,
    })
    run.note("setup_s", setup, "s")
    run.note("untraced_requests_s", untraced, "s", TRACED_REQUESTS)
    run.note("traced_requests_s", traced, "s", TRACED_REQUESTS)


WORKLOADS = {
    "cold-sweep": (cold_sweep, cold_sweep_traced),
    "warm-replay": (warm_replay, warm_replay_traced),
    "service-mixed": (service_mixed, service_mixed_traced),
}
