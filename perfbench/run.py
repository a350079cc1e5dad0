"""The repository benchmark: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload cold-sweep --seed 0 --seconds 25 \\
        --trace 0

Run from the root of a checkout. ``--trace 0`` measures the end-to-end
metrics listed in ``BENCHMARK.json``; ``--trace 1`` runs a fixed pass
untraced, traced and untraced again, and reports the per-layer metrics
plus the tracing overhead. The last line of standard output is the result
object; the lines before it repeat every metric with its unit and
sample count, and give the run context. Spans of a traced run are
written to ``.bench_out/``. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def load_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["end_to_end"], spec["per_layer"]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["cold-sweep", "warm-replay",
                                 "service-mixed"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny: the self-test's small grid")
    return parser.parse_args(argv)


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


#: ``prctl`` option that makes orphaned descendants reparent to the caller.
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the child subreaper (Linux), so that processes whose parent
    ends first (the daemon's pool workers and resource tracker) become
    this process's children and :func:`reap_children` waits for them."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER,
                                                1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list:
    """Pids of the live children of this process, read from ``/proc``."""
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="utf-8") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def reap_children(timeout: float = 20.0) -> None:
    """Stop every process this run started and wait until each has ended.

    multiprocessing's resource tracker lives until its pipe closes, so it
    is stopped first; then every child (and adopted orphan) is waited
    for, and whatever is still running after ``timeout`` is killed.
    """
    from multiprocessing import resource_tracker
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + timeout
    killed = False
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            if killed:
                raise RuntimeError(f"children {child_pids()} outlived "
                                   "SIGKILL")
            for pid in child_pids():
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
            killed = True
            deadline = time.monotonic() + timeout
        time.sleep(0.01)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A shell starts background jobs with SIGINT ignored, and children
    # inherit that; the daemon stops on SIGINT, so give it back.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy

    from plan import HELD_OUT_SEED, POOL_JOBS, Plan
    from workloads import WORKLOADS, Run

    end_to_end, per_layer = load_metric_names()
    with open(os.path.join(HERE, "pins.json"), encoding="utf-8") as fh:
        pins = json.load(fh)
    plan = Plan(args.size, args.seed)
    pinned = pins.get(args.size, {}).get(str(plan.scenario_seed))
    if pinned is None:
        print(f"no pins for size {args.size} seed {plan.scenario_seed}; "
              "run perfbench/pin.py", file=sys.stderr)
        return 2

    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    work = os.path.join(ROOT, ".bench_work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    nproc = os.cpu_count() or 1
    load_before = os.getloadavg()
    run = Run(plan, args.seconds, work, env, pinned)
    untraced, traced = WORKLOADS[args.workload]
    adopt_orphans()
    try:
        (traced if args.trace else untraced)(run)
    finally:
        reap_children()
        shutil.rmtree(work, ignore_errors=True)
        # Write back this run's file churn now, not during the next run.
        os.sync()
    load_after = os.getloadavg()
    run.metrics["peak_rss_mb"] = peak_rss_mb()
    run.note("peak_rss_mb", run.metrics["peak_rss_mb"], "MB")
    checker = run.checker
    run.note("error_rate", checker.failed / max(checker.attempted, 1),
             "failed/attempted", checker.attempted)

    wanted = per_layer if args.trace else end_to_end
    metrics = {m["name"]: {"value": float(run.metrics.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    if run.tracer is not None:
        out = os.path.join(ROOT, ".bench_out")
        os.makedirs(out, exist_ok=True)
        run.tracer.write(os.path.join(
            out, f"spans-{args.workload}-seed{args.seed}.json"))
        nesting = run.tracer.nesting_errors()
        if nesting:
            checker.fail(f"{len(nesting)} span(s) nest badly: {nesting[0]}")
        for layer, seconds in sorted(run.tracer.self_by_layer().items()):
            run.note(f"self.{layer}_s", seconds, "s")
    context = {
        "workload": args.workload, "seed": args.seed,
        "scenario_seed": plan.scenario_seed, "size": args.size,
        "held_out_seed": HELD_OUT_SEED, "nproc": nproc,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "pool_workers": POOL_JOBS,
        "daemon_jobs": POOL_JOBS if args.workload == "service-mixed" else 0,
        "loadavg_before": load_before, "loadavg_after": load_after,
        "loaded_at_start": load_before[0] > nproc,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    print("context " + json.dumps(context, sort_keys=True))
    for name, (value, unit, samples) in sorted(run.report.items()):
        print(f"metric {name} = {value:.6g} {unit} (n={samples})")
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    for error in checker.errors:
        print(f"error {error}")
    correct = checker.failed == 0 and checker.attempted > 0
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
