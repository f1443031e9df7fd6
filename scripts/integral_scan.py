#!/usr/bin/env python3
"""Residual-versus-resolution scan for the integral balance laws.

Evaluates every applicable balance law on the chosen compact scenarios at a
ladder of resolutions and prints how fast the two sides close on each
other.  Relative residuals that sit at the rounding floor stop shrinking;
everything else should drop at the quadrature's convergence rate.

Usage:
    python3 scripts/integral_scan.py
    python3 scripts/integral_scan.py --scenario torus_R3_homothetic \
        --resolutions 16 32 64 128
"""

import argparse

from prodsurf import run_formulas
from prodsurf.zoo import instantiate

DEFAULT_SCENARIOS = ("sphere_R3_homothetic", "ellipsoid_R3_homothetic",
                     "graph_S2xR_cos03", "graph_T2xR1_wave04",
                     "geodesic_sphere_S3")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--scenario", action="append", default=None,
                   help="scenario name (repeatable)")
    p.add_argument("--resolutions", type=int, nargs="*",
                   default=[16, 32, 64])
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    names = args.scenario or list(DEFAULT_SCENARIOS)
    header = (f"{'scenario':26s} {'formula':18s} {'res':>4s} "
              f"{'lhs':>12s} {'rhs':>12s} {'relative':>10s}")
    print(header)
    print("-" * len(header))
    worst = 0.0
    for name in names:
        for resolution in args.resolutions:
            surface, grid, _ = instantiate(name, {"resolution": resolution})
            for rep in run_formulas(surface, grid):
                worst = max(worst, rep.relative_residual)
                print(f"{name:26s} {rep.formula:18s} {resolution:4d} "
                      f"{rep.lhs:12.5e} {rep.rhs:12.5e} "
                      f"{rep.relative_residual:10.2e}")
    print(f"\nworst relative residual: {worst:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
