#!/usr/bin/env python3
"""Benchmark: serial vs process-pool vs cached sweep on an 8-point grid.

Runs the same Figure 3 style sweep four ways — SerialBackend,
ProcessPoolBackend(jobs=4), then cold and warm against a
content-addressed result store — asserts all four curves are
bit-identical, and writes the timings to BENCH_sweep.json at the repo
root (``cache_cold_s`` / ``cache_warm_s`` next to the backend times).
A fifth leg measures the sweep service: a daemon over the warmed
store answers a submit→wait→fetch round trip without simulating
anything (``service_warm_submit_ms``), and its bytes must equal the
serial reference too.

The speedup column is honest wall-clock on the current machine; on a
single-core container the pool cannot beat serial (spawn overhead plus
time-slicing), so the JSON records ``cpu_count`` next to the numbers —
read the speedup relative to that. The warm-cache time has no such
caveat: it executes zero simulations regardless of core count.

Run:  PYTHONPATH=src python benchmarks/bench_sweep_backends.py
"""

import json
import os
import shutil
import tempfile
import time

from repro import units
from repro.analysis.backends import make_backend
from repro.analysis.harness import RunBudget
from repro.analysis.sweep import log_rate_grid, sweep_rate_delay
from repro.store import ResultStore

RM = units.ms(40)
GRID = log_rate_grid(0.5, 50.0, points=8)
JOBS = 4
BUDGET = RunBudget(max_events=30_000_000, wall_clock=300.0, retries=0)
OUT_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCH_sweep.json")


#: Long enough that one point is ~seconds of simulation, so worker
#: start-up cost does not drown the measurement on real multi-core
#: hardware.
DURATION = 30.0


def timed_sweep(jobs, cache_dir=None):
    start = time.monotonic()
    store = ResultStore(cache_dir) if cache_dir is not None else None
    curve = sweep_rate_delay("copa", GRID, RM, duration=DURATION,
                             budget=BUDGET, seed=11,
                             backend=make_backend(jobs), store=store)
    elapsed = time.monotonic() - start
    assert not curve.failures, curve.failures
    assert len(curve.points) == len(GRID)
    return elapsed, curve


def timed_service_warm_submit(cache_dir, reference_bytes):
    """Submit→wait→fetch against a daemon whose store is fully warm."""
    from repro.service import (JobSpec, ServiceClient, SweepService,
                               serve_background)

    job_root = tempfile.mkdtemp(prefix="bench-jobs-")
    server = None
    try:
        service = SweepService(job_root, ResultStore(cache_dir),
                               budget=BUDGET)
        server = serve_background(service)
        client = ServiceClient(f"http://127.0.0.1:{server.port}")
        spec = JobSpec.sweep("copa", GRID, RM * 1e3,
                             duration=DURATION, seed=11)
        start = time.monotonic()
        raw = client.submit_and_wait(spec, timeout=60, poll=0.005)
        elapsed = time.monotonic() - start
        job = client.jobs()[0]
        assert job["warm"], "expected the warm short-circuit"
        assert job["progress"]["cached"] == len(GRID), job["progress"]
        assert raw == reference_bytes, \
            "service result diverged from the serial reference"
        return elapsed
    finally:
        if server is not None:
            server.close()
        shutil.rmtree(job_root, ignore_errors=True)


def main():
    from repro.service import render_result

    serial_time, serial_curve = timed_sweep(jobs=None)
    pool_time, pool_curve = timed_sweep(jobs=JOBS)

    cache_dir = tempfile.mkdtemp(prefix="bench-cache-")
    try:
        cold_time, cold_curve = timed_sweep(jobs=JOBS,
                                            cache_dir=cache_dir)
        assert cold_curve.cache["misses"] == len(GRID)
        warm_time, warm_curve = timed_sweep(jobs=None,
                                            cache_dir=cache_dir)
        # The acceptance bar: a warm rerun executes zero simulations.
        assert warm_curve.cache == {"hits": len(GRID), "misses": 0,
                                    "resumed": 0}, warm_curve.cache
        service_time = timed_service_warm_submit(
            cache_dir, render_result(serial_curve.to_json()).encode())
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    identical = (serial_curve.to_json() == pool_curve.to_json()
                 == cold_curve.to_json() == warm_curve.to_json())
    assert identical, "sweep variants diverged from serial reference"

    payload = {
        "benchmark": f"8-point copa rate-delay sweep, {DURATION:.0f} s per point",
        "grid_mbps": GRID,
        "cpu_count": os.cpu_count(),
        "jobs": JOBS,
        "serial_seconds": round(serial_time, 3),
        "parallel_seconds": round(pool_time, 3),
        "speedup": round(serial_time / pool_time, 3),
        "cache_cold_s": round(cold_time, 3),
        "cache_warm_s": round(warm_time, 3),
        "cache_speedup": round(serial_time / warm_time, 3),
        "service_warm_submit_ms": round(service_time * 1e3, 3),
        "bit_identical": identical,
        "note": ("speedup is wall-clock on this machine; with fewer "
                 "cores than jobs the pool pays spawn overhead for no "
                 "parallelism — compare against cpu_count. cache_cold_s "
                 "is the pool sweep plus store writes; cache_warm_s "
                 "replays the grid from the store with zero "
                 "simulations. service_warm_submit_ms is an HTTP "
                 "submit->wait->fetch round trip against a daemon "
                 "whose store already holds every point"),
    }
    with open(OUT_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(json.dumps(payload, indent=1, sort_keys=True))
    print(f"\nwritten to {OUT_PATH}")


if __name__ == "__main__":
    main()
