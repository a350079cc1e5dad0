"""Regenerate ``pins.json``: digests and exact counts of the cold grid.

    python3 perfbench/pin.py

For every size and every scenario root seed, the cold grid runs once
through the public API (the digests) and once in pieces under the probes
(the exact counts); the two must produce the same documents. Rerun this
only when the program's results are meant to change, and say so.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from plan import PIN_SEEDS, POOL_JOBS, SIZES, Plan, digest  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import run_op, traced_cold_pass  # noqa: E402


def pin_one(task):
    size, seed = task
    plan = Plan(size, seed)
    documents = {}
    for op in plan.ops():
        documents.update(run_op(plan, op)[0])
    traced, counts, _ = traced_cold_pass(plan, Tracer())
    if traced != documents:
        raise SystemExit(f"{size} seed {seed}: traced documents differ")
    return size, seed, {"digests": {name: digest(doc) for name, doc
                                    in sorted(documents.items())},
                        "counts": counts}


def main() -> int:
    pins = {}
    tasks = [(size, seed) for size in SIZES for seed in range(PIN_SEEDS)]
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(POOL_JOBS) as pool:
        for size, seed, entry in pool.imap_unordered(pin_one, tasks):
            pins.setdefault(size, {})[str(seed)] = entry
            print(f"pinned {size} seed {seed}", flush=True)
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
