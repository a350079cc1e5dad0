"""Link-rate sweeps producing rate-delay curves (Figure 3).

For each link rate, run a single flow of the CCA on an ideal path in the
packet simulator, discard the pre-convergence prefix, and record the
observed RTT range. The result is the shaded region of the paper's
Figure 3 — d_min(C) and d_max(C) as functions of C for a fixed Rm.

Sweeps run on the resilient harness (:mod:`repro.analysis.harness`): a
divergent grid point is recorded as a :class:`RunFailure` on the
returned curve instead of aborting the sweep, and an optional JSON
checkpoint lets interrupted sweeps resume from the last completed rate.

Execution is backend-pluggable (:mod:`repro.analysis.backends`). The
CCA is named declaratively — a registry string or
:class:`~repro.spec.CCASpec` — and the sweep ships each grid point to
workers as a serialized :class:`~repro.spec.ScenarioSpec`, so
``backend=make_backend(N)`` scales with cores while staying
bit-identical to a serial run (per-point seeds derive from the root
``seed`` and the grid key, never from execution order).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from .. import units
from ..errors import ConfigurationError
from ..spec import CCASpec, ScenarioSpec, derive_seed, single_flow_scenario
from .harness import ResilientSweep, RunBudget, RunFailure

#: What callers may sweep: a registry name or a CCASpec.
CCALike = Union[str, CCASpec]


@dataclass
class RateDelayPoint:
    """One sweep sample: the equilibrium RTT range at a link rate."""

    link_rate: float
    d_min: float
    d_max: float
    throughput: float

    @property
    def delta(self) -> float:
        return self.d_max - self.d_min

    @property
    def utilization(self) -> float:
        return self.throughput / self.link_rate


@dataclass
class RateDelayCurve:
    """A full Figure 3 panel for one CCA."""

    label: str
    rm: float
    points: List[RateDelayPoint]
    #: Grid points that diverged and were skipped (see harness docs).
    failures: List[RunFailure] = field(default_factory=list)
    #: Cache accounting (``{"hits", "misses", "resumed"}``) when the
    #: sweep ran against a result store; None otherwise. Deliberately
    #: excluded from :meth:`to_json` so cached and uncached runs emit
    #: byte-identical curve documents.
    cache: Optional[Dict[str, int]] = None

    def delta_max(self) -> float:
        return max(p.delta for p in self.points)

    def worst_utilization(self) -> float:
        return min(p.utilization for p in self.points)

    def to_json(self) -> Dict[str, Any]:
        """Machine-readable curve (CLI ``--json``, CI comparisons)."""
        return {
            "label": self.label,
            "rm": self.rm,
            "points": [{"link_rate": p.link_rate, "d_min": p.d_min,
                        "d_max": p.d_max, "throughput": p.throughput}
                       for p in self.points],
            "failures": [f.to_json() for f in self.failures],
        }


def default_run_time(rate: float, rm: float, mss: int) -> float:
    """Per-point run length scaled to the expected convergence time.

    Low rates need longer runs: each cwnd adjustment takes an RTT and
    RTTs are dominated by transmission time at low C.
    """
    packet_time = mss / rate
    run_time = max(30 * rm, 400 * packet_time, 5.0)
    return min(run_time, 120.0)


def run_rate_delay_point(params: Dict[str, Any], budget: RunBudget
                         ) -> Dict[str, float]:
    """Execute one spec-described grid point (spawn-safe worker body).

    ``params`` carries a serialized :class:`ScenarioSpec` plus the run
    window — pure data, so this module-level function is all a process
    pool needs to reproduce the point bit-for-bit.
    """
    spec = ScenarioSpec.from_json(params["scenario"])
    result = spec.run(duration=params["duration"],
                      warmup=params["warmup"],
                      max_events=budget.max_events,
                      wall_clock_budget=budget.wall_clock)
    stats = result.stats[0]
    return {"link_rate": spec.bottleneck_rate, "d_min": stats.min_rtt,
            "d_max": stats.max_rtt, "throughput": stats.throughput}


def _as_cca_spec(cca: CCALike) -> CCASpec:
    if isinstance(cca, CCASpec):
        return cca
    if isinstance(cca, str):
        return CCASpec(cca)
    raise ConfigurationError(
        f"sweeps need a declarative CCA (a registry name or CCASpec) "
        f"or a ScenarioSpec template, got {cca!r}: a live callable can "
        f"neither cross process boundaries nor form a stable cache key")


def build_rate_delay_points(cca: Optional[CCALike],
                            link_rates_mbps: Sequence[float], rm: float,
                            duration: Optional[float] = None,
                            warmup_fraction: float = 0.5,
                            mss: int = 1500,
                            seed: int = 0,
                            template: Optional[ScenarioSpec] = None,
                            ) -> Tuple[str, List[Tuple[str, Dict[str, Any]]]]:
    """The declarative grid one rate-delay sweep executes.

    Returns ``(label, points)`` where each point is ``(key, params)``
    ready for :func:`run_rate_delay_point` — the same construction
    :func:`sweep_rate_delay` uses, exposed so other callers (the sweep
    service) can probe cache keys or run the identical grid themselves.
    Per-point seeds derive from ``(seed, "sweep", key)``, never from
    execution order, which is what makes any two executions of the same
    grid byte-identical.
    """
    spec = None if template is not None else _as_cca_spec(cca)
    points: List[Tuple[str, Dict[str, Any]]] = []
    for rate_mbps in link_rates_mbps:
        key = f"{float(rate_mbps):g}mbps"
        rate = units.mbps(float(rate_mbps))
        run_time = duration
        if run_time is None:
            run_time = default_run_time(rate, rm, mss)
        if template is not None:
            point_spec = template.with_link_rate(rate)
        else:
            point_spec = single_flow_scenario(spec, rate=rate, rm=rm,
                                              mss=mss)
        point_spec = point_spec.with_seed(derive_seed(seed, "sweep", key))
        points.append((key, {
            "scenario": point_spec.to_json(),
            "duration": run_time,
            "warmup": run_time * warmup_fraction,
        }))
    label = spec.name if spec is not None else "scenario"
    return label, points


def assemble_rate_delay_curve(label: str, rm: float,
                              points: Sequence[Tuple[str, Dict[str, Any]]],
                              outcome: Any,
                              cached: bool = False) -> RateDelayCurve:
    """Fold a :class:`SweepOutcome` back into a :class:`RateDelayCurve`.

    Grid order comes from ``points`` (not completion order), so the
    curve is independent of the execution backend. ``cached`` attaches
    the outcome's hit/miss accounting (sweeps without a store leave
    ``curve.cache`` as None).
    """
    curve_points = [RateDelayPoint(**outcome.completed[key])
                    for key, _ in points if key in outcome.completed]
    cache = None
    if cached:
        cache = {"hits": outcome.hits, "misses": outcome.misses,
                 "resumed": outcome.resumed}
    return RateDelayCurve(label=label, rm=rm, points=curve_points,
                          failures=list(outcome.failures), cache=cache)


def sweep_rate_delay(cca_factory: CCALike,
                     link_rates_mbps: Sequence[float], rm: float,
                     label: str = "",
                     duration: Optional[float] = None,
                     warmup_fraction: float = 0.5,
                     mss: int = 1500,
                     budget: Optional[RunBudget] = None,
                     checkpoint_path: Optional[str] = None,
                     retry_failures: bool = False,
                     backend: Optional[object] = None,
                     seed: int = 0,
                     template: Optional[ScenarioSpec] = None,
                     store: Optional[object] = None,
                     refresh: bool = False,
                     crash_dir: Optional[str] = None,
                     max_failures: Optional[int] = None
                     ) -> RateDelayCurve:
    """Measure the equilibrium RTT range across link rates.

    Args:
        cca_factory: the CCA to sweep — a registry name (``"vegas"``)
            or a :class:`~repro.spec.CCASpec` (``CCASpec("bbr",
            {"seed": 3})``).
        link_rates_mbps: sweep grid in Mbit/s (the paper uses
            0.1 .. 100).
        rm: propagation RTT (the paper's Figure 3 uses 100 ms).
        duration: per-point run length; default scales with the expected
            convergence time (see :func:`default_run_time`).
        warmup_fraction: fraction of the run discarded as transient.
        budget: per-point watchdog/retry budget; a point that exceeds it
            lands in ``curve.failures`` instead of hanging the sweep.
        checkpoint_path: JSON checkpoint file; completed rates are
            skipped when the sweep is re-invoked after an interruption.
        retry_failures: when resuming from a checkpoint, re-run rates
            previously recorded as failed (e.g. after raising the
            budget) instead of keeping their failure records.
        backend: execution backend; defaults to serial.
            ``make_backend(N)`` with ``N > 1`` fans grid points out
            over N worker processes.
        seed: root seed; each grid point derives its scenario seed from
            ``(seed, point key)``, so results are independent of
            execution order and backend.
        template: optional :class:`ScenarioSpec` to sweep instead of a
            fresh single-flow scenario — each grid point runs a copy of
            the template with the bottleneck rate replaced (the curve
            reports flow 0). Overrides ``cca_factory``/``mss``/``rm``'s
            scenario-building role (``rm`` still labels the curve).
        store: a :class:`~repro.store.ResultStore` — grid points are
            looked up by content address before simulating and stored
            after, so a warm rerun executes zero simulations while
            producing a byte-identical curve (``curve.cache`` reports
            the hit/miss split).
        refresh: recompute every point and overwrite store entries
            (the CLI's ``--force``).
        crash_dir: directory for reproducible crash bundles — every
            failed grid point captures one there (see
            :mod:`repro.analysis.diagnostics` and ``repro replay``).
        max_failures: abort the sweep with a
            :class:`~repro.errors.SweepAbortedError` once more than
            this many grid points have failed (``0`` = abort on the
            first failure; ``None`` = never, the default).
    """
    built_label, points = build_rate_delay_points(
        cca_factory, link_rates_mbps, rm, duration=duration,
        warmup_fraction=warmup_fraction, mss=mss, seed=seed,
        template=template)
    sweep = ResilientSweep(run_rate_delay_point, budget=budget,
                           checkpoint_path=checkpoint_path,
                           retry_failures_on_resume=retry_failures,
                           backend=backend, store=store, refresh=refresh,
                           crash_dir=crash_dir,
                           max_failures=max_failures)
    outcome = sweep.run(points)
    return assemble_rate_delay_curve(label or built_label, rm, points,
                                     outcome, cached=store is not None)


def log_rate_grid(lo_mbps: float = 0.1, hi_mbps: float = 100.0,
                  points: int = 7) -> List[float]:
    """A log-spaced link-rate grid like Figure 3's x axis."""
    if lo_mbps <= 0 or hi_mbps <= lo_mbps or points < 2:
        raise ValueError("invalid grid parameters")
    step = (hi_mbps / lo_mbps) ** (1.0 / (points - 1))
    grid = [min(lo_mbps * step ** i, hi_mbps) for i in range(points)]
    # Floating-point step accumulation can land the last point a hair
    # off hi_mbps on either side; pin it exactly.
    grid[-1] = hi_mbps
    return grid
