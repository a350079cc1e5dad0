"""The benchmark's inputs: the cold grid and the request mixes, from a seed.

Everything a workload feeds the program is built here, so two runs with
the same ``--seed`` send the same inputs. The scenario root seed is
``seed % PIN_SEEDS``: the digests of every cold result are pinned in
``pins.json`` for each of those root seeds, which is what lets every run
check its outputs against known-good bytes. The order of warm replays and
the service request mix derive from the full seed.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro import units
from repro.analysis.sweep import log_rate_grid
from repro.spec import (CCASpec, ElementSpec, FlowSpec, LinkSpec,
                        ScenarioSpec, parking_lot_topology)

#: Scenario root seeds with pinned digests; ``--seed`` maps onto them.
PIN_SEEDS = 16
#: The seed kept back for confirming a gain claim; tune on 0..9.
HELD_OUT_SEED = 15
#: The CCAs swept for Figure 3 and measured per CCA in the traced run.
SWEEP_CCAS = ("copa", "bbr", "reno", "vegas")
MATRIX_CCAS = ("copa", "bbr")
#: Worker processes for pools the benchmark starts (the machine's 2 cores).
POOL_JOBS = 2


@dataclass(frozen=True)
class Size:
    """How big one pass of the cold grid is."""

    grid: Tuple[float, float, int]
    rm_ms: float
    duration: float
    matrix_rate_mbps: float
    matrix_rm_ms: float
    matrix_duration: float
    scen_rate_mbps: float
    scen_duration: float
    novel_rates: Tuple[float, ...]
    novel_duration: float


SIZES: Dict[str, Size] = {
    # Figure 3's grid at 30 s a point plus the Section 5 scenarios.
    "full": Size(grid=(0.5, 50.0, 8), rm_ms=100.0, duration=30.0,
                 matrix_rate_mbps=12.0, matrix_rm_ms=40.0,
                 matrix_duration=10.0, scen_rate_mbps=24.0,
                 scen_duration=20.0, novel_rates=(1.0, 2.0, 4.0, 8.0),
                 novel_duration=2.0),
    # The self-test's size: the same shapes, seconds not minutes.
    "tiny": Size(grid=(0.5, 4.0, 3), rm_ms=100.0, duration=4.0,
                 matrix_rate_mbps=4.0, matrix_rm_ms=40.0,
                 matrix_duration=2.0, scen_rate_mbps=4.0,
                 scen_duration=2.0, novel_rates=(1.0, 2.0),
                 novel_duration=1.0),
}


def digest(document: Any) -> str:
    """SHA-256 of a result document in canonical JSON."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def scenario_specs(size: Size, seed: int) -> List[Tuple[str, ScenarioSpec]]:
    """The Section 5 two-flow scenarios and the parking lot."""
    rate = units.mbps(size.scen_rate_mbps)
    # 5.1: one Copa flow's first packet skips 1 ms of data-path delay,
    # so its min-RTT estimate sits below the other flow's.
    copa = ScenarioSpec(link=LinkSpec(rate=rate), flows=(
        FlowSpec(cca=CCASpec("copa"), rm=units.ms(59), label="poisoned",
                 data_elements=(ElementSpec(
                     "exempt_first_jitter",
                     {"eta": units.ms(1), "exempt_seqs": [0]}),)),
        FlowSpec(cca=CCASpec("copa"), rm=units.ms(60), label="normal"),
    ), seed=seed)
    # 5.2: two BBR flows with Rm 40/80 ms; aggregation jitter on one.
    bbr = ScenarioSpec(link=LinkSpec(rate=rate, buffer_bdp=8.0), flows=(
        FlowSpec(cca=CCASpec("bbr"), rm=units.ms(40), label="rm40",
                 data_elements=(ElementSpec(
                     "ack_aggregation", {"period": units.ms(4)}),)),
        FlowSpec(cca=CCASpec("bbr"), rm=units.ms(80), label="rm80"),
    ), seed=seed)
    # Two links in series: a long flow over both, a short flow per hop.
    half = rate / 2
    lot = ScenarioSpec(
        topology=parking_lot_topology([half, half], buffer_bdp=2.0),
        flows=(
            FlowSpec(cca=CCASpec("copa"), rm=units.ms(60), label="long",
                     path=("b0", "b1")),
            FlowSpec(cca=CCASpec("reno"), rm=units.ms(40), label="hop0",
                     path=("b0",)),
            FlowSpec(cca=CCASpec("vegas"), rm=units.ms(40), label="hop1",
                     path=("b1",)),
        ), seed=seed)
    return [("copa-2flow", copa), ("bbr-2flow", bbr), ("parking-lot", lot)]


@dataclass
class Plan:
    """One run's inputs, all derived from ``(size, seed)``."""

    size_name: str
    seed: int
    size: Size = field(init=False)
    scenario_seed: int = field(init=False)
    grid: List[float] = field(init=False)
    rm: float = field(init=False)
    scenarios: List[Tuple[str, ScenarioSpec]] = field(init=False)

    def __post_init__(self) -> None:
        self.size = SIZES[self.size_name]
        self.scenario_seed = self.seed % PIN_SEEDS
        self.grid = log_rate_grid(*self.size.grid)
        self.rm = units.ms(self.size.rm_ms)
        self.scenarios = scenario_specs(self.size, self.scenario_seed)

    # -- the cold grid --------------------------------------------------

    def ops(self) -> List[str]:
        """The cold grid as operations, in a fixed order (a seeded order
        moved the process's peak RSS by 15% between seeds)."""
        return [f"sweep:{cca}" for cca in SWEEP_CCAS] + ["matrix",
                                                         "scenarios"]

    def matrix_kwargs(self) -> Dict[str, Any]:
        size = self.size
        return {"ccas": list(MATRIX_CCAS),
                "rate": units.mbps(size.matrix_rate_mbps),
                "rm": units.ms(size.matrix_rm_ms),
                "duration": size.matrix_duration,
                "seed": self.scenario_seed}

    def scenario_points(self) -> List[Tuple[str, Dict[str, Any]]]:
        """The scenarios as harness grid points (run window included)."""
        duration = self.size.scen_duration
        return [(name, {"scenario": spec.to_json(), "duration": duration,
                        "warmup": duration / 3})
                for name, spec in self.scenarios]

    def sim_seconds(self, op: str) -> float:
        """Simulated seconds one operation covers (points x duration)."""
        size = self.size
        if op.startswith("sweep:"):
            return len(self.grid) * size.duration
        if op == "matrix":
            n = len(MATRIX_CCAS)
            return n * (n + 1) // 2 * size.matrix_duration
        return len(self.scenarios) * size.scen_duration

    # -- service requests ----------------------------------------------

    def sweep_job(self, cca: str):
        from repro.service import JobSpec
        return JobSpec.sweep(cca, self.grid, self.size.rm_ms,
                             duration=self.size.duration,
                             seed=self.scenario_seed)

    def matrix_job(self):
        from repro.service import JobSpec
        size = self.size
        return JobSpec.matrix(list(MATRIX_CCAS), size.matrix_rate_mbps,
                              size.matrix_rm_ms,
                              duration=size.matrix_duration,
                              seed=self.scenario_seed)

    def novel_job(self, index: int):
        """A short sweep no earlier request of this run asked for."""
        from repro.service import JobSpec
        cca = SWEEP_CCAS[index % len(SWEEP_CCAS)]
        return JobSpec.sweep(cca, list(self.size.novel_rates), 40.0,
                             duration=self.size.novel_duration,
                             seed=self.seed * 100_003 + index + 1)

    def request_mix(self, count: int) -> List[str]:
        """``count`` service requests in blocks of eight: one novel sweep
        at a seeded position, seven warm resubmits. Every 40 requests
        hold each warm request seven times, in a seeded order."""
        rng = random.Random(self.seed * 7919 + 1)
        warm = [f"sweep:{cca}" for cca in SWEEP_CCAS] + ["matrix"]
        mix: List[str] = []
        while len(mix) < count:
            cycle = warm * 7
            rng.shuffle(cycle)
            for start in range(0, len(cycle), 7):
                block = cycle[start:start + 7]
                block.insert(rng.randrange(8), "novel")
                mix.extend(block)
        return mix[:count]
