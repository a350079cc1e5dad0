"""Command-line interface: run scenarios, sweeps, and constructions.

Installed as the ``repro`` console script::

    repro run --rate 48 --rm 40 --cca vegas --cca vegas --duration 20
    repro run --rate 120 --rm 59 --cca copa:poison --cca copa:jitter1
    repro run --rate 48 --rm 40 --cca bbr:blackout5-7 --cca bbr
    repro run --rate 48 --rm 40 --cca reno --cca reno --link-ge 0.02
    repro run --rate 48 --rm 40 --cca vegas --dump-spec > scenario.json
    repro run --spec scenario.json
    repro sweep --cca bbr --rates 0.4,2,10,50 --rm 50
    repro sweep --cca bbr --rates 0.4,2,10,50 --jobs 4 --json curve.json
    repro sweep --cca bbr --rates 0.4,2,10,50 --checkpoint sweep.json
    repro sweep --cca bbr --rates 0.4,2,10,50 --cache-dir ~/.repro-cache
    repro sweep --cca bbr --rates 0.4,2,10,50 --crash-dir crashes
    repro sweep --cca bbr --rates 0.4,2,10,50 --invariants strict
    repro replay crashes/crash-10mbps-1a2b3c4d.json --strict
    repro fuzz --seed 1 --iterations 100 --corpus-dir tests/corpus
    repro fuzz --time-budget 60 --jobs 4 --crash-dir crashes
    repro run --topology topo.json --rm 40 --cca cubic --cca bbr
    repro sweep --cca bbr --topology topo.json --rates 2,10,50
    repro matrix --ccas bbr,cubic,vegas --rate 10 --rm 40 --jobs 4
    repro matrix --ccas bbr,cubic --topology topo.json --json m.json
    repro starve copa|bbr|vivace|allegro|fig7-reno|fig7-cubic
    repro theorem 1|2|3
    repro cache stats|ls|gc|verify --cache-dir ~/.repro-cache
    repro cache gc --max-age-days 30 --max-bytes 100000000
    repro serve --job-dir jobs --cache-dir ~/.repro-cache --port 8642
    repro submit sweep --cca bbr --rates 0.4,2,10,50 --rm 50
    repro submit matrix --ccas bbr,cubic --rate 10 --rm 40
    repro jobs
    repro jobs JOB_ID --events
    repro jobs JOB_ID --cancel
    repro bench --json BENCH_sim.json
    repro bench --quick --compare BENCH_sim.json
    repro run --rate 48 --rm 40 --cca copa --profile
    repro sweep --cca copa --rates 2,10,50 --profile --profile-out p.pstats

Flow-spec strings and ``--link-*`` flags are sugar over the declarative
:mod:`repro.spec` layer: every invocation first assembles a
:class:`~repro.spec.ScenarioSpec` (inspect it with ``--dump-spec``,
replay it with ``--spec``), then hands it to an execution backend —
``--jobs N`` fans independent scenarios or sweep points out over N
worker processes with bit-identical results.

``run``/``sweep``/``starve`` accept ``--cache-dir DIR`` (default: the
``REPRO_CACHE_DIR`` environment variable): results are stored by
content address (:mod:`repro.store`) and a repeated invocation serves
hits instead of simulating, with byte-identical output. ``--force``
recomputes and overwrites entries, ``--no-cache`` ignores the cache
entirely, and ``repro cache`` inspects and maintains a store.

They also accept ``--crash-dir DIR``: every failed point captures a
reproducible crash bundle (params + seed + traceback + budget; see
:mod:`repro.analysis.diagnostics`) that ``repro replay BUNDLE`` re-runs
exactly — and ``--invariants off|warn|strict`` sets the runtime
invariant sentinel mode (:mod:`repro.sim.invariants`).

Every command prints an ASCII report; nothing is written to disk unless
``--checkpoint``/``--json``/``--dump-spec``/``--cache-dir`` asks for it.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

from . import units
from .errors import (ConfigurationError, SpecValidationError,
                     SweepAbortedError)
from .analysis.backends import make_backend
from .analysis.harness import RunBudget, describe_failures
from .analysis.report import describe_run, rate_delay_ascii
from .analysis.sweep import sweep_rate_delay
from .analysis import starvation
from .ccas import registry
from .spec import (CCASpec, ElementSpec, FaultScheduleSpec,
                   FaultWindowSpec, FlowSpec, LinkSpec, ScenarioSpec,
                   TopologySpec)
from .store import ResultStore

STARVE_SCENARIOS = {
    "copa": lambda: starvation.copa_two_flow_poisoned(duration=30.0),
    "bbr": lambda: starvation.bbr_rtt_starvation(duration=60.0),
    "vivace": lambda: starvation.vivace_ack_aggregation(duration=60.0),
    "allegro": lambda: starvation.allegro_asymmetric_loss(duration=90.0),
    "fig7-reno": lambda: starvation.loss_based_delayed_acks(
        "reno", duration=200.0),
    "fig7-cubic": lambda: starvation.loss_based_delayed_acks(
        "cubic", duration=200.0),
}


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    """The caching flags shared by run/sweep/starve."""
    parser.add_argument(
        "--cache-dir", default=os.environ.get("REPRO_CACHE_DIR"),
        metavar="DIR",
        help="content-addressed result store: look results up before "
             "simulating, store them after (default: $REPRO_CACHE_DIR)")
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore the cache entirely (even if REPRO_CACHE_DIR is set)")
    parser.add_argument(
        "--force", action="store_true",
        help="recompute cached points and overwrite their store entries")


def _add_robustness_flags(parser: argparse.ArgumentParser) -> None:
    """Crash-bundle and invariant-sentinel flags shared by
    run/sweep/starve."""
    parser.add_argument(
        "--crash-dir", default=os.environ.get("REPRO_CRASH_DIR"),
        metavar="DIR",
        help="capture a reproducible crash bundle for every failed "
             "point under DIR; re-run one with 'repro replay' "
             "(default: $REPRO_CRASH_DIR)")
    parser.add_argument(
        "--invariants", choices=["off", "warn", "strict"], default=None,
        help="runtime invariant sentinel mode: off (no checks), warn "
             "(default: report violations, keep running), strict "
             "(first violation fails the point). Also settable via "
             "$REPRO_INVARIANTS")


def _apply_invariants(args: argparse.Namespace) -> None:
    """Install ``--invariants`` as the process-wide sentinel mode.

    Exported through the environment (not ``override_mode``) so spawned
    pool workers inherit it too.
    """
    mode = getattr(args, "invariants", None)
    if mode:
        from .sim.invariants import ENV_VAR
        os.environ[ENV_VAR] = mode


def _add_profile_flags(parser: argparse.ArgumentParser) -> None:
    """cProfile flags shared by run/sweep."""
    parser.add_argument(
        "--profile", action="store_true",
        help="profile the command under cProfile and print the top "
             "functions to stderr when it finishes")
    parser.add_argument(
        "--profile-top", type=int, default=25, metavar="N",
        help="how many profile rows to print (default 25)")
    parser.add_argument(
        "--profile-out", default=None, metavar="PATH",
        help="also dump raw pstats data to PATH (for snakeviz etc.)")


def _cache_store(args: argparse.Namespace) -> Optional[ResultStore]:
    """The ResultStore the flags ask for, or None."""
    if args.no_cache or not args.cache_dir:
        return None
    return ResultStore(args.cache_dir)


def _print_cache_line(store: Optional[ResultStore], hits: int,
                      misses: int) -> None:
    if store is not None:
        print(f"cache: {hits} hit(s), {misses} miss(es) [{store.root}]")


def _require_cca(name: str) -> None:
    if not registry.is_registered(name):
        raise SystemExit(
            f"unknown CCA {name!r}; choose from "
            f"{', '.join(registry.names())}")


def _parse_window(text: str, what: str) -> tuple:
    """Parse ``START-END`` (seconds) into a (start, end) float pair."""
    start, sep, end = text.partition("-")
    try:
        if not sep:
            raise ValueError(text)
        return float(start), float(end)
    except ValueError:
        raise SystemExit(
            f"{what} wants START-END in seconds, got {text!r}")


def parse_flow_spec(spec: str, rm: float,
                    fault_seed: Optional[int] = None) -> FlowSpec:
    """Parse ``cca[:modifier[:modifier...]]`` into a declarative FlowSpec.

    ACK-path modifiers: ``poison`` (min-RTT poisoning, 1 ms),
    ``poisonN`` (N ms), ``jitterN`` (constant N ms), ``aggN`` (ACK
    aggregation, N ms), ``delackN`` (delayed ACKs of N packets).

    Data-path fault modifiers (see :mod:`repro.sim.faults`):
    ``geP`` (Gilbert-Elliott bursty loss, mean rate P),
    ``blackoutA-B`` (outage from A to B seconds),
    ``flapP-D`` (flapping: every P seconds the link is down for D),
    ``reorderP`` (delay-swap reordering with probability P),
    ``dupP`` (duplication with probability P),
    ``corruptP`` (corruption-drop with probability P).

    ``fault_seed`` pins the flow's fault-schedule RNG explicitly
    (``--fault-seed`` semantics); ``None`` derives it from the scenario
    root seed.
    """
    name, _, rest = spec.partition(":")
    _require_cca(name)
    ack_elements: List[ElementSpec] = []
    windows: List[FaultWindowSpec] = []
    ack_every = 1
    ack_timeout: Optional[float] = None
    horizon = float("inf")  # always-on faults use an unbounded window
    for modifier in (m for m in rest.split(":") if m):
        # ValueError (bad number) and ConfigurationError (bad window /
        # probability) become clean CLI errors, not tracebacks.
        # SystemExit from _parse_window passes through untouched.
        try:
            if modifier.startswith("poison"):
                amount = units.ms(float(modifier[6:] or 1.0))
                ack_elements.append(ElementSpec(
                    "exempt_first_jitter",
                    {"eta": amount, "exempt_seqs": [0]}))
            elif modifier.startswith("jitter"):
                amount = units.ms(float(modifier[6:]))
                ack_elements.append(ElementSpec(
                    "constant_jitter", {"eta": amount}))
            elif modifier.startswith("agg"):
                amount = units.ms(float(modifier[3:]))
                ack_elements.append(ElementSpec(
                    "ack_aggregation", {"period": amount}))
            elif modifier.startswith("delack"):
                ack_every = int(modifier[6:])
                ack_timeout = units.ms(200)
            elif modifier.startswith("ge"):
                windows.append(FaultWindowSpec(
                    "gilbert_elliott", 0.0, horizon,
                    {"mean_loss": float(modifier[2:])}))
            elif modifier.startswith("blackout"):
                start, end = _parse_window(modifier[8:], "blackout")
                windows.append(FaultWindowSpec("blackout", start, end))
            elif modifier.startswith("flap"):
                period, down = _parse_window(modifier[4:], "flap")
                windows.append(FaultWindowSpec(
                    "flap", 0.0, horizon,
                    {"period": period, "down_time": down}))
            elif modifier.startswith("reorder"):
                windows.append(FaultWindowSpec(
                    "reorder", 0.0, horizon,
                    {"prob": float(modifier[7:]),
                     "extra_delay": units.ms(10)}))
            elif modifier.startswith("dup"):
                windows.append(FaultWindowSpec(
                    "duplicate", 0.0, horizon,
                    {"prob": float(modifier[3:])}))
            elif modifier.startswith("corrupt"):
                windows.append(FaultWindowSpec(
                    "corrupt", 0.0, horizon,
                    {"prob": float(modifier[7:])}))
            else:
                raise SystemExit(f"unknown flow modifier {modifier!r}")
        except (ValueError, ConfigurationError) as exc:
            raise SystemExit(f"bad flow modifier {modifier!r}: {exc}")
    faults = None
    if windows:
        faults = FaultScheduleSpec(windows=tuple(windows),
                                   seed=fault_seed)
        try:
            faults.build(0)  # validate window params now, not mid-run
        except ConfigurationError as exc:
            raise SystemExit(f"bad flow spec {spec!r}: {exc}")
    return FlowSpec(cca=CCASpec(name), rm=rm,
                    ack_elements=tuple(ack_elements),
                    ack_every=ack_every, ack_timeout=ack_timeout,
                    faults=faults, label=spec)


def parse_link_faults(args: argparse.Namespace
                      ) -> Optional[FaultScheduleSpec]:
    """Assemble the shared-bottleneck fault spec from CLI flags."""
    windows: List[FaultWindowSpec] = []
    horizon = float("inf")
    for window in args.link_blackout or ():
        start, end = _parse_window(window, "--link-blackout")
        windows.append(FaultWindowSpec("blackout", start, end))
    if args.link_flap:
        period, down = _parse_window(args.link_flap, "--link-flap")
        windows.append(FaultWindowSpec(
            "flap", 0.0, horizon,
            {"period": period, "down_time": down}))
    if args.link_ge:
        windows.append(FaultWindowSpec(
            "gilbert_elliott", 0.0, horizon,
            {"mean_loss": args.link_ge}))
    if not windows:
        return None
    faults = FaultScheduleSpec(windows=tuple(windows),
                               seed=args.fault_seed)
    try:
        faults.build(0)
    except ConfigurationError as exc:
        raise SystemExit(f"bad link fault flags: {exc}")
    return faults


def _load_topology(path: str) -> TopologySpec:
    try:
        return TopologySpec.load(path)
    except (ConfigurationError, KeyError) as exc:
        raise SystemExit(f"bad topology spec {path!r}: {exc}")


def _specs_from_args(args: argparse.Namespace
                     ) -> List[Tuple[str, ScenarioSpec]]:
    """The scenarios ``repro run`` should execute, as (title, spec)."""
    if args.topology:
        if args.spec:
            raise SystemExit("pass --topology or --spec, not both")
        if not args.cca or args.rm is None:
            raise SystemExit(
                "run --topology needs --rm and at least one --cca")
        if args.link_blackout or args.link_flap or args.link_ge:
            raise SystemExit(
                "--link-* fault flags target the single dumbbell "
                "bottleneck; put per-link faults in the topology "
                "spec file instead")
        topology = _load_topology(args.topology)
        rm = units.ms(args.rm)
        flows = tuple(
            parse_flow_spec(spec, rm, fault_seed=args.fault_seed + i)
            for i, spec in enumerate(args.cca))
        try:
            spec = ScenarioSpec(
                topology=topology, flows=flows,
                seed=args.seed if args.seed is not None else 0)
        except (ConfigurationError, SpecValidationError) as exc:
            raise SystemExit(str(exc))
        title = (f"topology {args.topology} "
                 f"({len(topology.links)} link(s)), Rm = {args.rm} ms")
        return [(title, spec)]
    if args.spec:
        if args.cca:
            raise SystemExit("pass --spec files or --cca flow specs, "
                             "not both")
        specs = []
        for path in args.spec:
            try:
                spec = ScenarioSpec.load(path)
            except ConfigurationError as exc:
                raise SystemExit(str(exc))
            if args.seed is not None:
                spec = spec.with_seed(args.seed)
            specs.append((path, spec))
        return specs
    if not args.cca or args.rate is None or args.rm is None:
        raise SystemExit(
            "run needs --rate, --rm and at least one --cca "
            "(or --spec FILE)")
    rm = units.ms(args.rm)
    flows = tuple(
        parse_flow_spec(spec, rm, fault_seed=args.fault_seed + i)
        for i, spec in enumerate(args.cca))
    link = LinkSpec(rate=units.mbps(args.rate),
                    buffer_bdp=args.buffer_bdp if args.buffer_bdp
                    else None,
                    faults=parse_link_faults(args))
    spec = ScenarioSpec(link=link, flows=flows,
                        seed=args.seed if args.seed is not None else 0)
    return [(f"{args.rate} Mbit/s, Rm = {args.rm} ms", spec)]


def _run_spec_point(params: Dict[str, Any], budget: RunBudget
                    ) -> Dict[str, str]:
    """Worker body for ``repro run``: build, run, format the report.

    Module-level and spec-driven so ``--jobs N`` can ship scenarios to
    worker processes; the formatted report string comes back instead of
    the (unpicklable) live RunResult.
    """
    spec = ScenarioSpec.from_json(params["scenario"])
    result = spec.run(duration=params["duration"],
                      warmup=params["warmup"],
                      max_events=budget.max_events,
                      wall_clock_budget=budget.wall_clock)
    return {"report": describe_run(params["title"], result)}


def cmd_run(args: argparse.Namespace) -> int:
    _apply_invariants(args)
    specs = _specs_from_args(args)
    if args.dump_spec:
        for _, spec in specs:
            print(spec.dumps())
        return 0
    points = []
    for i, (name, spec) in enumerate(specs):
        duration = args.duration
        if duration is None:
            duration = spec.duration
        if duration is None:
            duration = 30.0
        warmup = spec.warmup
        if warmup is None:
            warmup = duration / 3
        points.append((f"{i}:{name}", {
            "scenario": spec.to_json(),
            "duration": duration,
            "warmup": warmup,
            "title": f"{name}, {duration:.0f} s",
        }))
    return _print_reports(args, _run_spec_point, points, RunBudget(
        max_events=args.max_events, wall_clock=None, retries=0))


def _print_reports(args: argparse.Namespace, run_point,
                   points: List[Tuple[str, Dict[str, Any]]],
                   budget: RunBudget) -> int:
    """Execute report-producing points; print them in grid order.

    The shared tail of ``run`` and ``starve``: the backend, cache and
    crash flags come from ``args``; the cache line and any failures
    follow the reports, and any failure makes the exit status 1.
    """
    backend = make_backend(args.jobs, chunksize=args.chunksize)
    store = _cache_store(args)
    reports: Dict[str, str] = {}
    failures = []
    hits = misses = 0
    for outcome in backend.execute(run_point, points, budget,
                                   store=store, refresh=args.force,
                                   crash_dir=args.crash_dir):
        if outcome.failure is not None:
            failures.append(outcome.failure)
        else:
            reports[outcome.key] = outcome.result["report"]
            if outcome.cached:
                hits += 1
            else:
                misses += 1
    for key, _ in points:
        if key in reports:
            print(reports[key])
    _print_cache_line(store, hits, misses)
    if failures:
        print(f"{len(failures)} scenario(s) failed:")
        print(describe_failures(failures))
        return 1
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    _apply_invariants(args)
    _require_cca(args.cca)
    template = None
    if args.topology:
        if args.spec:
            raise SystemExit("pass --topology or --spec, not both")
        topology = _load_topology(args.topology)
        # One flow of the swept CCA routed over every link; each grid
        # point replaces the first (designated bottleneck) link's rate.
        template = ScenarioSpec(
            topology=topology,
            flows=(FlowSpec(cca=CCASpec(args.cca),
                            rm=units.ms(args.rm)),))
    elif args.spec:
        try:
            template = ScenarioSpec.load(args.spec)
        except ConfigurationError as exc:
            raise SystemExit(str(exc))
    grid = [float(x) for x in args.rates.split(",")]
    store = _cache_store(args)
    try:
        curve = sweep_rate_delay(
            args.cca, grid,
            units.ms(args.rm), label=args.cca,
            duration=args.duration,
            budget=RunBudget(max_events=args.max_events,
                             wall_clock=args.wall_clock),
            checkpoint_path=args.checkpoint,
            retry_failures=args.retry_failures,
            backend=make_backend(args.jobs,
                                 chunksize=args.chunksize),
            seed=args.seed,
            template=template, store=store,
            refresh=args.force,
            crash_dir=args.crash_dir,
            max_failures=args.max_failures)
    except SweepAbortedError as exc:
        print(f"sweep aborted early (--max-failures "
              f"{args.max_failures}):")
        print(describe_failures(exc.failures))
        if args.checkpoint:
            print(f"completed points are checkpointed in "
                  f"{args.checkpoint}; fix the setup and re-invoke "
                  f"with --retry-failures to resume")
        return 1
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(curve.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    if curve.cache is not None:
        _print_cache_line(store, curve.cache["hits"],
                          curve.cache["misses"])
    if not curve.points:
        print("every grid point failed:")
        print(describe_failures(curve.failures))
        return 1
    print(rate_delay_ascii(curve))
    print(f"delta_max = {curve.delta_max() * 1e3:.2f} ms -> starvation "
          f"possible when jitter D > {2 * curve.delta_max() * 1e3:.2f} ms")
    if curve.failures:
        print(f"{len(curve.failures)} grid point(s) failed:")
        print(describe_failures(curve.failures))
    return 0


def cmd_matrix(args: argparse.Namespace) -> int:
    """Per-CCA-pair fairness/starvation competition matrix."""
    from .analysis.competition import competition_matrix
    _apply_invariants(args)
    names = [name.strip() for name in args.ccas.split(",")
             if name.strip()]
    if not names:
        raise SystemExit("matrix needs --ccas NAME[,NAME...]")
    for name in names:
        _require_cca(name)
    topology = _load_topology(args.topology) if args.topology else None
    store = _cache_store(args)
    try:
        matrix = competition_matrix(
            names, rate=units.mbps(args.rate), rm=units.ms(args.rm),
            duration=args.duration, seed=args.seed,
            starve_threshold=args.starve_threshold,
            topology=topology,
            budget=RunBudget(max_events=args.max_events,
                             wall_clock=args.wall_clock),
            backend=make_backend(args.jobs, chunksize=args.chunksize),
            store=store, refresh=args.force, crash_dir=args.crash_dir,
            checkpoint_path=args.checkpoint,
            max_failures=args.max_failures)
    except SweepAbortedError as exc:
        print(f"matrix aborted early (--max-failures "
              f"{args.max_failures}):")
        print(describe_failures(exc.failures))
        return 1
    except ConfigurationError as exc:
        raise SystemExit(str(exc))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(matrix.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    if matrix.cache is not None:
        _print_cache_line(store, matrix.cache["hits"],
                          matrix.cache["misses"])
    print(matrix.describe())
    if matrix.failures:
        print(f"{len(matrix.failures)} pair(s) failed:")
        print(describe_failures(matrix.failures))
        return 1
    return 0


def _run_starve_point(params: Dict[str, Any], budget: RunBudget
                      ) -> Dict[str, str]:
    """Worker body for ``repro starve``: scenarios are named, not
    pickled — the worker looks the closure up in its own process."""
    name = params["scenario"]
    result = STARVE_SCENARIOS[name]()
    return {"report": describe_run(f"Section 5 scenario: {name}",
                                   result)}


def cmd_starve(args: argparse.Namespace) -> int:
    _apply_invariants(args)
    names = list(dict.fromkeys(args.scenario))
    for name in names:
        if name not in STARVE_SCENARIOS:
            raise SystemExit(
                f"unknown scenario {name!r}; choose from "
                f"{', '.join(sorted(STARVE_SCENARIOS))}")
    points = [(name, {"scenario": name}) for name in names]
    return _print_reports(args, _run_starve_point, points, RunBudget(
        max_events=None, wall_clock=None, retries=0))


def cmd_replay(args: argparse.Namespace) -> int:
    """Re-run the exact grid point captured in a crash bundle."""
    from .analysis.diagnostics import load_bundle, replay_bundle
    try:
        data = load_bundle(args.bundle)
    except (OSError, json.JSONDecodeError, ConfigurationError) as exc:
        raise SystemExit(f"cannot read crash bundle: {exc}")
    mode = "strict" if args.strict else args.invariants
    original = f"{data.get('reason', '?')}: {data.get('message', '')}"
    print(f"replaying point {data.get('key', '?')!r} "
          f"from {args.bundle}")
    print(f"  original failure: {original}")
    if data.get("seed") is not None:
        print(f"  root seed: {data['seed']}")
    if mode:
        print(f"  sentinel mode: {mode}")
    if args.budget_scale != 1.0:
        print(f"  budgets scaled x{args.budget_scale:g}")
    try:
        outcome = replay_bundle(args.bundle, invariants=mode,
                                budget_scale=args.budget_scale)
    except ConfigurationError as exc:
        raise SystemExit(str(exc))
    if outcome.ok:
        print("replay PASSED: the failure did not reproduce "
              "(fixed code, larger budget, or a non-strict mode)")
        return 0
    failure = outcome.failure
    reproduced = failure.reason == data.get("reason")
    print(f"replay FAILED: {failure.reason}: {failure.message}")
    print("the original failure reproduces deterministically"
          if reproduced else
          f"the failure differs from the original ({original})")
    return 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Run a fuzz campaign: random scenarios through the oracle battery."""
    from .fuzz import FuzzConfig, describe_space, run_fuzz
    config = FuzzConfig(max_flows=args.max_flows)
    budget = RunBudget(max_events=args.max_events, wall_clock=None,
                       retries=0, backoff=1.0)
    progress = None
    if args.verbose:
        def progress(key: str, status: str) -> None:
            print(f"  {key}: {status}", file=sys.stderr)
    print(f"fuzzing {args.iterations} scenario(s), seed {args.seed}: "
          f"{describe_space(config)}")
    report = run_fuzz(
        iterations=args.iterations, seed=args.seed,
        time_budget=args.time_budget, corpus_dir=args.corpus_dir,
        jobs=args.jobs, budget=budget, config=config,
        shrink=not args.no_shrink,
        differential=not args.no_differential,
        crash_dir=args.crash_dir, progress=progress)
    print(report.describe())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.to_json(), fh, indent=1, sort_keys=True)
            fh.write("\n")
    if report.fresh:
        print(f"{len(report.fresh)} fresh finding(s) not in the corpus"
              + (f" — minimized entries written under "
                 f"{args.corpus_dir}; commit them (and fix the bugs)"
                 if args.corpus_dir else
                 " — re-run with --corpus-dir to file them"))
        return 1
    print("no fresh findings")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect and maintain a content-addressed result store."""
    if not args.cache_dir:
        raise SystemExit(
            "cache wants --cache-dir DIR (or $REPRO_CACHE_DIR)")
    store = ResultStore(args.cache_dir)
    if args.action == "stats":
        stats = store.stats()
        events = stats.events
        print(f"store      {stats.root}")
        print(f"entries    {stats.entries}")
        print(f"bytes      {stats.total_bytes}")
        print(f"temp files {stats.temp_files}")
        print(f"hits       {events.get('hit', 0)}")
        print(f"misses     {events.get('miss', 0)}")
        print(f"failures   {events.get('fail', 0)}")
        print(f"hit rate   {stats.hit_rate:.1%}")
        return 0
    if args.action == "ls":
        count = 0
        for entry in store.entries():
            point = entry["meta"].get("point", "")
            task = entry["task"].rsplit(":", 1)[-1]
            print(f"{entry['key'][:16]}  {entry['bytes']:7d}B  "
                  f"{task:28.28s}  {point}")
            count += 1
        print(f"{count} entr{'y' if count == 1 else 'ies'}")
        return 0
    if args.action == "gc":
        max_bytes = None
        if args.max_bytes is not None:
            max_bytes = int(args.max_bytes)
        report = store.gc(max_age_days=args.max_age_days,
                          max_bytes=max_bytes)
        print(f"removed {report.removed_corrupt} corrupt entr"
              f"{'y' if report.removed_corrupt == 1 else 'ies'}, "
              f"{report.removed_temp} temp file(s)", end="")
        if args.max_age_days is not None:
            print(f", {report.removed_expired} expired "
                  f"(> {args.max_age_days:g} day(s) unused)", end="")
        if max_bytes is not None:
            print(f", {report.removed_evicted} evicted "
                  f"(LRU past {max_bytes} bytes)", end="")
        print(f"; {report.bytes_freed} bytes freed, "
              f"{report.kept} good entr"
              f"{'y' if report.kept == 1 else 'ies'} kept")
        return 0
    if args.action == "verify":
        report = store.verify(repair=args.repair)
        print(f"checked {report.checked} entr"
              f"{'y' if report.checked == 1 else 'ies'}: "
              f"{report.ok} ok, {len(report.corrupt)} corrupt, "
              f"{len(report.temp)} orphaned temp file(s)")
        for path in report.corrupt:
            print(f"  corrupt: {path}")
        for path in report.temp:
            print(f"  temp:    {path}")
        if report.repaired:
            for path in report.quarantined:
                print(f"  quarantined -> {path}")
            print(f"quarantined {len(report.quarantined)} file(s) "
                  f"under {store.quarantine_dir}; catalog sealed, "
                  f"last-use index rebuilt")
            # A repaired store is clean by construction; re-verify so
            # the exit code reflects what the *next* reader will see.
            return 0 if store.verify().clean else 1
        if not report.clean:
            print("run `repro cache verify --repair` to quarantine")
            return 1
        return 0
    raise SystemExit(f"unknown cache action {args.action!r}")


DEFAULT_SERVICE_URL = os.environ.get("REPRO_SERVICE_URL",
                                     "http://127.0.0.1:8642")


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the sweep-service daemon in the foreground."""
    from .service import (ChaosPolicy, FaultyFS, ReproServer,
                          SweepService)
    _apply_invariants(args)
    if not args.cache_dir:
        raise SystemExit(
            "serve wants --cache-dir DIR (or $REPRO_CACHE_DIR): the "
            "shared result store is the point of the daemon")
    chaos = fs = None
    if args.chaos:
        try:
            chaos = ChaosPolicy.load(args.chaos)
        except (OSError, ValueError, ConfigurationError) as exc:
            raise SystemExit(f"bad --chaos spec: {exc}")
        fs = FaultyFS(chaos)
    store = ResultStore(args.cache_dir, fs=fs)
    service = SweepService(
        args.job_dir, store, jobs=args.jobs,
        budget=RunBudget(max_events=args.max_events,
                         wall_clock=args.wall_clock),
        max_failures=args.max_failures,
        lease_ttl=args.lease_ttl, max_attempts=args.max_attempts,
        fs=fs)
    server = ReproServer((args.host, args.port), service,
                         verbose=args.verbose, chaos=chaos)
    print(f"sweep service listening on "
          f"http://{args.host}:{server.port}")
    print(f"  jobs:  {service.job_store.root}")
    print(f"  store: {store.root}")
    if chaos is not None:
        armed = ", ".join(site.name for site in chaos.sites
                          if site.rate > 0) or "none"
        print(f"  chaos: seed {chaos.seed}, armed sites: {armed}")
    sys.stdout.flush()
    try:
        server.serve()
    except KeyboardInterrupt:
        print("shutting down (unfinished jobs will resume on restart)")
        server.close()
    return 0


def _submit_spec(args: argparse.Namespace):
    """Assemble the JobSpec a ``repro submit`` invocation describes."""
    from .service import JobSpec
    if args.kind == "sweep":
        template = None
        if args.spec:
            template = ScenarioSpec.load(args.spec).to_json()
        return JobSpec.sweep(
            args.cca, [float(x) for x in args.rates.split(",")],
            args.rm, duration=args.duration, seed=args.seed,
            template=template)
    topology = None
    if args.topology:
        topology = _load_topology(args.topology).to_json()
    names = [name.strip() for name in args.ccas.split(",")
             if name.strip()]
    return JobSpec.matrix(
        names, args.rate, args.rm, duration=args.duration,
        seed=args.seed, starve_threshold=args.starve_threshold,
        topology=topology)


def _print_job_line(job: Dict[str, Any]) -> None:
    progress = job.get("progress", {})
    done = (progress.get("done", 0) + progress.get("cached", 0)
            + progress.get("failed", 0))
    flags = []
    if job.get("warm"):
        flags.append("warm")
    if progress.get("cached"):
        flags.append(f"{progress['cached']} cached")
    if progress.get("failed"):
        flags.append(f"{progress['failed']} failed")
    if job.get("degraded"):
        flags.append("degraded")
    suffix = f"  [{', '.join(flags)}]" if flags else ""
    kind = job.get("spec", {}).get("kind", "?")
    print(f"{job['id']}  {job['state']:9s}  {kind:6s} "
          f"{done}/{progress.get('total', 0)}{suffix}")


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit an experiment to a running sweep-service daemon."""
    from .errors import ServiceError
    from .service import ServiceClient
    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        spec = _submit_spec(args)
    except (ConfigurationError, ServiceError) as exc:
        raise SystemExit(str(exc))
    try:
        return _submit_and_report(args, client, spec)
    except ServiceError as exc:
        raise SystemExit(f"service error: {exc}")


def _submit_and_report(args: argparse.Namespace, client, spec) -> int:
    job = client.submit(spec)
    print(f"submitted job {job['id']} ({job['state']}) to {args.url}")
    if args.no_wait:
        return 0
    snapshot = client.wait(job["id"], timeout=args.timeout)
    _print_job_line(snapshot)
    if snapshot["state"] != "done":
        if snapshot.get("error"):
            print(f"error: {snapshot['error']}")
        return 1
    raw = client.result_bytes(job["id"])
    if args.json:
        with open(args.json, "wb") as fh:
            fh.write(raw)
        print(f"result written to {args.json}")
    else:
        sys.stdout.write(raw.decode("utf-8"))
    return 0


def cmd_jobs(args: argparse.Namespace) -> int:
    """Inspect (or cancel) jobs on a running daemon."""
    from .errors import ServiceError
    from .service import ServiceClient
    client = ServiceClient(args.url, timeout=args.timeout)
    try:
        return _jobs_report(args, client)
    except ServiceError as exc:
        raise SystemExit(f"service error: {exc}")


def _jobs_report(args: argparse.Namespace, client) -> int:
    if args.job_id is None:
        if args.cancel or args.events:
            raise SystemExit("--cancel/--events want a JOB_ID")
        jobs = client.jobs(state=args.state)
        for job in jobs:
            _print_job_line(job)
        counters = client.stats()["counters"]
        print(f"{len(jobs)} job(s); submitted {counters['submitted']}, "
              f"coalesced {counters['coalesced']}, "
              f"completed {counters['completed']}, "
              f"warm {counters['warm']}")
        return 0
    if args.cancel:
        job = client.cancel(args.job_id)
        print(f"job {job['id']} -> {job['state']}")
        return 0
    if args.events:
        try:
            for event in client.events(args.job_id, since=args.since):
                print(json.dumps(event, sort_keys=True))
        except BrokenPipeError:
            # Streaming into `head`/`grep -m` closes stdout early;
            # park it on devnull so interpreter teardown stays quiet.
            os.dup2(os.open(os.devnull, os.O_WRONLY),
                    sys.stdout.fileno())
        return 0
    print(json.dumps(client.job(args.job_id), indent=1,
                     sort_keys=True))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Run the perf suite; optionally write and/or regression-check it."""
    from .perf.bench import compare_suites, describe_suite, run_suite
    doc = run_suite(quick=args.quick)
    print(describe_suite(doc))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    if args.compare:
        try:
            with open(args.compare, encoding="utf-8") as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:
            raise SystemExit(
                f"cannot read baseline {args.compare!r}: {exc}")
        problems = compare_suites(doc, baseline,
                                  tolerance=args.tolerance)
        if problems:
            print(f"{len(problems)} perf regression(s) vs "
                  f"{args.compare}:")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print(f"no perf regressions vs {args.compare} "
              f"(tolerance {args.tolerance}x)")
    return 0


def cmd_theorem(args: argparse.Namespace) -> int:
    from .core.theorems import (construct_starvation,
                                construct_strong_model_starvation,
                                construct_underutilization)
    from .model.cca import WindowTargetCCA

    rm = 0.05
    if args.number == 1:
        con = construct_starvation(
            lambda initial: WindowTargetCCA(alpha=6000.0, rm=rm,
                                            pedestal=0.04,
                                            initial=initial),
            rm=rm, s=args.s, f=0.5, delta_max=0.002, lam=1.2e6,
            duration=40.0, emulate_duration=10.0)
        tputs = [units.to_mbps(x) for x in con.two_flow.throughputs()]
        print(f"Theorem 1 (case {con.case}): C1/C2 = "
              f"{units.to_mbps(con.pair.c1.link_rate):.1f}/"
              f"{units.to_mbps(con.pair.c2.link_rate):.1f} Mbit/s, "
              f"D = {con.jitter_bound * 1e3:.1f} ms")
        print(f"two-flow throughputs {tputs[0]:.1f} / {tputs[1]:.1f} "
              f"Mbit/s -> ratio {con.achieved_ratio:.1f} "
              f"(target s = {args.s})")
    elif args.number == 2:
        con = construct_underutilization(
            lambda: WindowTargetCCA(alpha=6000.0, rm=rm, pedestal=0.04,
                                    initial=0.6e6),
            small_rate=1.2e6, rm=rm, jitter_bound=0.05,
            big_rate_factor=100.0, duration=25.0)
        print(f"Theorem 2: utilization {con.utilization:.4f} on a "
              f"{units.to_mbps(con.big_rate):.0f} Mbit/s link "
              f"({con.starved_factor:.0f}x capacity wasted)")
    elif args.number == 3:
        con = construct_strong_model_starvation(
            lambda: WindowTargetCCA(alpha=6000.0, rm=rm, pedestal=0.04,
                                    initial=0.6e6),
            base_rate=1.2e6, rm=rm, s=args.s, duration=25.0)
        print(f"Theorem 3: D = {con.jitter_bound * 1e3:.1f} ms, "
              f"{len(con.traces)} traces, consecutive ratio "
              f"{con.ratio:.1f} >= s = {args.s}")
    else:
        raise SystemExit("theorem number must be 1, 2, or 3")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Starvation in End-to-End Congestion Control "
                    "(SIGCOMM 2022) — reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run a dumbbell scenario")
    run_parser.add_argument("--rate", type=float, default=None,
                            help="bottleneck rate, Mbit/s")
    run_parser.add_argument("--rm", type=float, default=None,
                            help="propagation RTT, ms")
    run_parser.add_argument("--cca", action="append",
                            help="flow spec: name[:modifier]; repeatable")
    run_parser.add_argument(
        "--spec", action="append", metavar="FILE",
        help="run a serialized ScenarioSpec JSON file instead of "
             "--rate/--rm/--cca flags; repeatable")
    run_parser.add_argument(
        "--topology", default=None, metavar="FILE",
        help="run over a TopologySpec JSON graph instead of the "
             "single dumbbell bottleneck; --cca flows route over "
             "every link in declaration order (link rates and "
             "per-link faults come from the file)")
    run_parser.add_argument(
        "--dump-spec", action="store_true",
        help="print the assembled ScenarioSpec JSON and exit "
             "without running")
    run_parser.add_argument(
        "--duration", type=float, default=None,
        help="run length in seconds (default: the spec's embedded "
             "duration, else 30)")
    run_parser.add_argument(
        "--seed", type=int, default=None,
        help="scenario root seed; every component RNG derives from it "
             "(default 0, or the spec file's embedded seed)")
    run_parser.add_argument(
        "--jobs", type=int, default=None,
        help="run multiple scenarios (--spec/--cca sets) in N worker "
             "processes")
    run_parser.add_argument(
        "--chunksize", type=int, default=1,
        help="scenarios per worker task with --jobs (default 1); "
             "larger chunks amortize IPC for many short scenarios")
    run_parser.add_argument(
        "--buffer-bdp", type=float, default=4.0,
        help="droptail buffer as a multiple of the BDP (default 4; "
             "pass 0 for an unbounded buffer)")
    run_parser.add_argument(
        "--link-blackout", action="append", metavar="START-END",
        help="shared-bottleneck outage window in seconds; repeatable")
    run_parser.add_argument(
        "--link-flap", metavar="PERIOD-DOWN",
        help="flap the bottleneck: every PERIOD s, down for DOWN s")
    run_parser.add_argument(
        "--link-ge", type=float, metavar="LOSS",
        help="Gilbert-Elliott bursty loss on the bottleneck, mean rate")
    run_parser.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for stochastic fault elements (default 0)")
    run_parser.add_argument(
        "--max-events", type=int, default=None,
        help="abort the run after this many engine events (watchdog)")
    _add_cache_flags(run_parser)
    _add_robustness_flags(run_parser)
    _add_profile_flags(run_parser)
    run_parser.set_defaults(func=cmd_run)

    sweep_parser = sub.add_parser("sweep",
                                  help="rate-delay curve (Figure 3)")
    sweep_parser.add_argument("--cca", required=True)
    sweep_parser.add_argument("--rates", default="0.4,2,10,50")
    sweep_parser.add_argument("--rm", type=float, default=50.0)
    sweep_parser.add_argument("--duration", type=float, default=None)
    sweep_parser.add_argument(
        "--jobs", type=int, default=None,
        help="run grid points in N worker processes (bit-identical "
             "to serial)")
    sweep_parser.add_argument(
        "--chunksize", type=int, default=1,
        help="grid points per worker task with --jobs (default 1); "
             "larger chunks amortize IPC for grids of short points")
    sweep_parser.add_argument(
        "--seed", type=int, default=0,
        help="root seed; per-point scenario seeds derive from it")
    sweep_parser.add_argument(
        "--spec", default=None, metavar="FILE",
        help="sweep a ScenarioSpec template: each grid point runs the "
             "template with its bottleneck rate replaced")
    sweep_parser.add_argument(
        "--topology", default=None, metavar="FILE",
        help="sweep over a TopologySpec JSON graph: one --cca flow "
             "routed over every link, with the first link's rate "
             "(the designated bottleneck) swept across --rates")
    sweep_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the curve (points + failures) as JSON")
    sweep_parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="JSON checkpoint; re-invoking resumes completed points")
    sweep_parser.add_argument(
        "--max-events", type=int, default=20_000_000,
        help="per-point event budget (watchdog; default 20M)")
    sweep_parser.add_argument(
        "--wall-clock", type=float, default=120.0,
        help="per-point wall-clock budget in seconds (default 120)")
    sweep_parser.add_argument(
        "--retry-failures", action="store_true",
        help="re-run checkpointed failed points (e.g. after raising "
             "--max-events) instead of keeping their failure records")
    sweep_parser.add_argument(
        "--max-failures", type=int, default=None, metavar="N",
        help="abort the sweep once more than N grid points have "
             "failed (0 = abort on the first failure; default: "
             "never abort, record failures and continue)")
    _add_cache_flags(sweep_parser)
    _add_robustness_flags(sweep_parser)
    _add_profile_flags(sweep_parser)
    sweep_parser.set_defaults(func=cmd_sweep)

    matrix_parser = sub.add_parser(
        "matrix",
        help="per-CCA-pair fairness/starvation competition matrix")
    matrix_parser.add_argument(
        "--ccas", required=True, metavar="NAME[,NAME...]",
        help="comma-separated CCA registry names; every unordered "
             "pair (incl. self-pairs) competes head-to-head")
    matrix_parser.add_argument(
        "--rate", type=float, default=10.0,
        help="bottleneck rate in Mbit/s (with --topology: the first "
             "link's rate; default 10)")
    matrix_parser.add_argument(
        "--rm", type=float, default=40.0,
        help="both flows' propagation RTT, ms (default 40)")
    matrix_parser.add_argument(
        "--duration", type=float, default=30.0,
        help="per-pair run length in seconds (default 30; the first "
             "half is warmup)")
    matrix_parser.add_argument(
        "--seed", type=int, default=0,
        help="root seed; per-pair scenario seeds derive from it")
    matrix_parser.add_argument(
        "--starve-threshold", type=float, default=50.0, metavar="S",
        help="flag a pair as starved when its max/min throughput "
             "ratio reaches S (default 50)")
    matrix_parser.add_argument(
        "--topology", default=None, metavar="FILE",
        help="compete over a TopologySpec JSON graph (both flows "
             "routed over every link) instead of the dumbbell")
    matrix_parser.add_argument(
        "--jobs", type=int, default=None,
        help="run pairs in N worker processes (bit-identical to "
             "serial)")
    matrix_parser.add_argument(
        "--chunksize", type=int, default=1,
        help="pairs per worker task with --jobs (default 1)")
    matrix_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the matrix (cells + failures) as JSON")
    matrix_parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="JSON checkpoint; re-invoking resumes completed pairs")
    matrix_parser.add_argument(
        "--max-events", type=int, default=20_000_000,
        help="per-pair event budget (watchdog; default 20M)")
    matrix_parser.add_argument(
        "--wall-clock", type=float, default=120.0,
        help="per-pair wall-clock budget in seconds (default 120)")
    matrix_parser.add_argument(
        "--max-failures", type=int, default=None, metavar="N",
        help="abort once more than N pairs have failed (default: "
             "never abort, record failures and continue)")
    _add_cache_flags(matrix_parser)
    _add_robustness_flags(matrix_parser)
    matrix_parser.set_defaults(func=cmd_matrix)

    starve_parser = sub.add_parser(
        "starve", help="run Section 5 starvation scenarios")
    starve_parser.add_argument("scenario", nargs="+",
                               choices=sorted(STARVE_SCENARIOS))
    starve_parser.add_argument(
        "--jobs", type=int, default=None,
        help="run multiple scenarios in N worker processes")
    starve_parser.add_argument(
        "--chunksize", type=int, default=1,
        help="scenarios per worker task with --jobs (default 1)")
    _add_cache_flags(starve_parser)
    _add_robustness_flags(starve_parser)
    starve_parser.set_defaults(func=cmd_starve)

    cache_parser = sub.add_parser(
        "cache", help="inspect/maintain a content-addressed result store")
    cache_parser.add_argument(
        "action", choices=["stats", "ls", "gc", "verify"],
        help="stats: totals and hit rate; ls: list entries; gc: remove "
             "corrupt entries and temp files; verify: integrity check "
             "(exit 1 if anything is flagged)")
    cache_parser.add_argument(
        "--cache-dir", default=os.environ.get("REPRO_CACHE_DIR"),
        metavar="DIR", help="store root (default: $REPRO_CACHE_DIR)")
    cache_parser.add_argument(
        "--max-age-days", type=float, default=None, metavar="DAYS",
        help="gc: also remove entries not used (catalog hit/store) "
             "for more than DAYS days")
    cache_parser.add_argument(
        "--max-bytes", type=float, default=None, metavar="N",
        help="gc: after age expiry, evict least-recently-used entries "
             "until the store holds at most N bytes")
    cache_parser.add_argument(
        "--repair", action="store_true",
        help="verify: quarantine corrupt objects and orphaned temp "
             "files under quarantine/, reseal the catalog, and "
             "rebuild the last-use index (exit 0 once clean)")
    cache_parser.set_defaults(func=cmd_cache)

    serve_parser = sub.add_parser(
        "serve",
        help="run the sweep-service daemon (async job queue + HTTP "
             "API over a shared result store)")
    serve_parser.add_argument(
        "--job-dir", required=True, metavar="DIR",
        help="durable per-job state; a restarted daemon resumes the "
             "queue found here")
    serve_parser.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)")
    serve_parser.add_argument(
        "--port", type=int, default=8642,
        help="bind port (default 8642; 0 picks an ephemeral port)")
    serve_parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes per executing job (default: serial)")
    serve_parser.add_argument(
        "--max-events", type=int, default=20_000_000,
        help="per-point event budget (watchdog; default 20M)")
    serve_parser.add_argument(
        "--wall-clock", type=float, default=120.0,
        help="per-point wall-clock budget in seconds (default 120)")
    serve_parser.add_argument(
        "--max-failures", type=int, default=None, metavar="N",
        help="fail a job once more than N of its points have failed "
             "(default: run every point, report failures)")
    serve_parser.add_argument(
        "--lease-ttl", type=float, default=30.0, metavar="SECONDS",
        help="running-job lease duration; an expired lease means the "
             "worker died and the job is taken over (default 30)")
    serve_parser.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="executions a job may start before its next lease "
             "expiry dead-letters it (default 3)")
    serve_parser.add_argument(
        "--chaos", default=None, metavar="SPEC.json",
        help="arm deterministic fault injection from a ChaosPolicy "
             "JSON spec (seeded; see docs/ROBUSTNESS.md)")
    serve_parser.add_argument(
        "--verbose", action="store_true",
        help="log every HTTP request to stderr")
    _add_cache_flags(serve_parser)
    _add_robustness_flags(serve_parser)
    serve_parser.set_defaults(func=cmd_serve)

    submit_parser = sub.add_parser(
        "submit",
        help="run an experiment through a sweep-service daemon "
             "(results byte-identical to running it locally)")
    submit_sub = submit_parser.add_subparsers(dest="kind",
                                              required=True)
    submit_sweep = submit_sub.add_parser(
        "sweep", help="submit a rate-delay sweep grid")
    submit_sweep.add_argument("--cca", required=True)
    submit_sweep.add_argument("--rates", default="0.4,2,10,50")
    submit_sweep.add_argument("--rm", type=float, default=50.0)
    submit_sweep.add_argument("--duration", type=float, default=None)
    submit_sweep.add_argument(
        "--seed", type=int, default=0,
        help="root seed; per-point scenario seeds derive from it")
    submit_sweep.add_argument(
        "--spec", default=None, metavar="FILE",
        help="sweep a ScenarioSpec template instead of a fresh "
             "single-flow scenario")
    submit_matrix = submit_sub.add_parser(
        "matrix", help="submit a competition matrix")
    submit_matrix.add_argument("--ccas", required=True,
                               metavar="NAME[,NAME...]")
    submit_matrix.add_argument("--rate", type=float, default=10.0)
    submit_matrix.add_argument("--rm", type=float, default=40.0)
    submit_matrix.add_argument("--duration", type=float, default=30.0)
    submit_matrix.add_argument("--seed", type=int, default=0)
    submit_matrix.add_argument("--starve-threshold", type=float,
                               default=50.0, metavar="S")
    submit_matrix.add_argument(
        "--topology", default=None, metavar="FILE",
        help="compete over a TopologySpec JSON graph")
    for sub_parser in (submit_sweep, submit_matrix):
        sub_parser.add_argument(
            "--url", default=DEFAULT_SERVICE_URL,
            help="daemon base URL (default: $REPRO_SERVICE_URL or "
                 "http://127.0.0.1:8642)")
        sub_parser.add_argument(
            "--timeout", type=float, default=600.0,
            help="seconds to wait for completion (default 600)")
        sub_parser.add_argument(
            "--no-wait", action="store_true",
            help="just queue the job and print its id; fetch later "
                 "with 'repro jobs ID'")
        sub_parser.add_argument(
            "--json", default=None, metavar="PATH",
            help="write the result document to PATH instead of stdout")
        sub_parser.set_defaults(func=cmd_submit)

    jobs_parser = sub.add_parser(
        "jobs", help="list, inspect, or cancel sweep-service jobs")
    jobs_parser.add_argument(
        "job_id", nargs="?", default=None, metavar="JOB_ID",
        help="show one job's snapshot instead of the queue listing")
    jobs_parser.add_argument(
        "--url", default=DEFAULT_SERVICE_URL,
        help="daemon base URL (default: $REPRO_SERVICE_URL or "
             "http://127.0.0.1:8642)")
    jobs_parser.add_argument(
        "--timeout", type=float, default=30.0,
        help="per-request timeout in seconds (default 30)")
    jobs_parser.add_argument(
        "--state", default=None, metavar="STATE",
        choices=["queued", "running", "done", "failed", "cancelled",
                 "dead"],
        help="listing only: restrict to jobs in STATE (e.g. 'dead' "
             "for the dead-letter queue)")
    jobs_parser.add_argument(
        "--events", action="store_true",
        help="print the job's NDJSON progress events")
    jobs_parser.add_argument(
        "--since", type=int, default=0, metavar="SEQ",
        help="with --events: only events with seq >= SEQ")
    jobs_parser.add_argument(
        "--cancel", action="store_true",
        help="cancel the job (immediate when queued, cooperative "
             "when running)")
    jobs_parser.set_defaults(func=cmd_jobs)

    replay_parser = sub.add_parser(
        "replay",
        help="re-run the exact point captured in a crash bundle")
    replay_parser.add_argument(
        "bundle", metavar="BUNDLE",
        help="crash bundle JSON written by a --crash-dir run")
    replay_parser.add_argument(
        "--strict", action="store_true",
        help="shorthand for --invariants strict: the sentinel raises "
             "on the first violated invariant during the replay")
    replay_parser.add_argument(
        "--invariants", choices=["off", "warn", "strict"], default=None,
        help="force the invariant sentinel mode for the replay "
             "(default: the bundle's environment semantics)")
    replay_parser.add_argument(
        "--budget-scale", type=float, default=1.0, metavar="X",
        help="multiply the recorded event/wall budgets by X, to "
             "distinguish a divergent point from one that merely ran "
             "out of headroom (default 1)")
    replay_parser.set_defaults(func=cmd_replay)

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="fuzz random scenarios through the invariant/differential "
             "oracle battery")
    fuzz_parser.add_argument(
        "--iterations", type=int, default=50, metavar="N",
        help="scenarios to generate and test (default 50)")
    fuzz_parser.add_argument(
        "--seed", type=int, default=1,
        help="campaign root seed; iteration i is a pure function of "
             "(seed, i), so a campaign is fully reproducible "
             "(default 1)")
    fuzz_parser.add_argument(
        "--time-budget", type=float, default=None, metavar="SECONDS",
        help="stop accepting new iterations after this much wall time "
             "(trades determinism for a bounded run; default: none)")
    fuzz_parser.add_argument(
        "--corpus-dir", default=None, metavar="DIR",
        help="corpus of minimized findings: known signatures found "
             "there don't fail the run, fresh findings are minimized "
             "and written there as regression entries")
    fuzz_parser.add_argument(
        "--jobs", type=int, default=None,
        help="fan iterations out over N self-healing worker processes")
    fuzz_parser.add_argument(
        "--crash-dir", default=os.environ.get("REPRO_CRASH_DIR"),
        metavar="DIR",
        help="capture a reproducible crash bundle per fresh finding "
             "('repro replay' re-runs it; default: $REPRO_CRASH_DIR)")
    fuzz_parser.add_argument(
        "--max-events", type=int, default=2_000_000,
        help="per-iteration engine event budget (default 2M)")
    fuzz_parser.add_argument(
        "--max-flows", type=int, default=16,
        help="most flows a generated scenario may have (default 16)")
    fuzz_parser.add_argument(
        "--no-shrink", action="store_true",
        help="file fresh findings unminimized (faster, bigger specs)")
    fuzz_parser.add_argument(
        "--no-differential", action="store_true",
        help="skip the serial-vs-pool battery identity cross-check")
    fuzz_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="also write the full campaign report as JSON")
    fuzz_parser.add_argument(
        "--verbose", action="store_true",
        help="print per-iteration progress to stderr")
    fuzz_parser.set_defaults(func=cmd_fuzz)

    theorem_parser = sub.add_parser(
        "theorem", help="run a theorem construction on the fluid model")
    theorem_parser.add_argument("number", type=int, choices=[1, 2, 3])
    theorem_parser.add_argument("--s", type=float, default=10.0,
                                help="target unfairness ratio")
    theorem_parser.set_defaults(func=cmd_theorem)

    bench_parser = sub.add_parser(
        "bench", help="run the simulator performance suite")
    bench_parser.add_argument(
        "--quick", action="store_true",
        help="~10x smaller workloads (CI smoke mode); rate metrics stay "
             "comparable to a full run")
    bench_parser.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the suite document as JSON (e.g. BENCH_sim.json)")
    bench_parser.add_argument(
        "--compare", default=None, metavar="BASELINE",
        help="exit 1 if any rate metric is more than --tolerance times "
             "slower than this committed baseline JSON")
    bench_parser.add_argument(
        "--tolerance", type=float, default=2.5,
        help="slowdown factor treated as a regression (default 2.5)")
    bench_parser.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "profile", False):
        from .perf.profiling import maybe_profile
        with maybe_profile(True, top=args.profile_top,
                           out=args.profile_out):
            return args.func(args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
