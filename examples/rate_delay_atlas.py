#!/usr/bin/env python3
"""Figure 3 atlas: measured rate-delay curves for every packet CCA.

Sweeps the bottleneck rate for each implemented CCA at fixed Rm and
renders the equilibrium RTT band as ASCII art — the library's version of
the paper's Figure 3 panels. The width of each band is delta(C); the
paper's Theorem 1 says starvation is possible whenever the path's
non-congestive jitter exceeds 2 * max-band-width.

CCAs are named declaratively (registry name + params, the same
:class:`repro.spec.CCASpec` the CLI and serialized scenarios use), which
is what lets ``--jobs N`` fan the grid out over worker processes with
bit-identical results.

Run:  python examples/rate_delay_atlas.py [--rates 0.4,2,10,50] [--jobs 4]
"""

import argparse

from repro import units
from repro.analysis.backends import make_backend
from repro.analysis.report import rate_delay_ascii
from repro.analysis.sweep import sweep_rate_delay
from repro.spec import CCASpec

RM = units.ms(50)


def cca_catalog():
    return [
        ("Vegas", CCASpec("vegas"), None),
        ("FAST", CCASpec("fast"), None),
        ("Copa", CCASpec("copa"), 30.0),
        ("BBR (pacing mode)", CCASpec("bbr", {"seed": 3}), 20.0),
        ("PCC Vivace", CCASpec("vivace"), None),
        ("LEDBAT (target 40 ms)", CCASpec("ledbat", {"target": 0.04}),
         20.0),
        ("NewReno (loss-based; NOT delay-convergent)", CCASpec("reno"),
         20.0),
        ("Algorithm 1 (D = 10 ms, s = 2)",
         CCASpec("jitter-aware",
                 {"jitter_bound": units.ms(10), "s": 2.0,
                  "rmax": units.ms(100), "mu_minus": units.kbps(100)}),
         40.0),
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rates", default="0.4,2,10,50",
                        help="comma-separated link rates in Mbit/s")
    parser.add_argument("--jobs", type=int, default=None,
                        help="sweep grid points in N worker processes")
    args = parser.parse_args()
    grid = [float(x) for x in args.rates.split(",")]

    print(f"Equilibrium RTT bands, Rm = {RM * 1e3:.0f} ms "
          f"(paper Figure 3)\n")
    for label, cca, duration in cca_catalog():
        curve = sweep_rate_delay(cca, grid, RM, label=label,
                                 duration=duration,
                                 backend=make_backend(args.jobs))
        print(rate_delay_ascii(curve))
        print(f"   delta_max = {curve.delta_max() * 1e3:.2f} ms -> "
              f"starvation possible when jitter D > "
              f"{2 * curve.delta_max() * 1e3:.2f} ms\n")


if __name__ == "__main__":
    main()
