"""Smoke test of the benchmark itself, at the tiny size.

    python3 perfbench/selftest.py

For every workload it runs the benchmark untraced once and traced twice
with the same seed, and checks that:

* each run exits 0, reports ``correct`` and prints exactly the metric
  names of ``BENCHMARK.json``, each with its unit;
* the written spans nest and have non-negative self time;
* the exact counts of the two traced runs are identical.

Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: Per-layer metrics that must repeat exactly between two traced runs.
EXACT = ("sim.events", "sim.sent_packets", "sim.retransmits",
         "sim.queue_drops", "store.hits", "store.misses")


def bench(workload: str, trace: int, seed: int = 3) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
            workload, "--seed", str(seed), "--seconds", "2", "--trace",
            str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{proc.returncode}:\n{proc.stdout[-2000:]}"
                             f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_names(result: dict, wanted: list, what: str) -> None:
    assert result["correct"] and result["failed"] == 0, (what, result)
    assert result["attempted"] >= 1, (what, result)
    got = result["metrics"]
    assert sorted(got) == sorted(m["name"] for m in wanted), (what, got)
    for metric in wanted:
        entry = got[metric["name"]]
        assert entry["unit"] == metric["unit"], (what, metric, entry)
        assert isinstance(entry["value"], float), (what, metric, entry)


def check_spans(workload: str, seed: int = 3) -> None:
    path = os.path.join(ROOT, ".bench_out",
                        f"spans-{workload}-seed{seed}.json")
    with open(path, encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    assert spans, workload
    own = [s["end"] - s["start"] - s["covered"] for s in spans]
    for span in spans:
        assert span["end"] >= span["start"], (workload, span)
        parent = span["parent"]
        if parent is not None:
            outer = spans[parent]
            assert outer["start"] <= span["start"] <= span["end"] \
                <= outer["end"], (workload, span, outer)
            own[parent] -= span["end"] - span["start"]
    assert min(own) > -1e-6, (workload, min(own))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in [w["name"] for w in spec["workloads"]]:
        check_names(bench(workload, 0), spec["end_to_end"],
                    f"{workload} untraced")
        first = bench(workload, 1)
        check_names(first, spec["per_layer"], f"{workload} traced")
        check_spans(workload)
        second = bench(workload, 1)
        exact = [name for name in first["metrics"]
                 if name in EXACT or name.endswith(".on_ack_calls")]
        for name in exact:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            assert a == b, (workload, name, a, b)
        print(f"ok {workload}: names, units, spans and "
              f"{len(exact)} exact counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
