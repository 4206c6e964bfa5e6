#!/usr/bin/env python3
"""Sweep the gradient firm's adjustment speed and tabulate the dynamics.

Produces the classical route-to-chaos picture for the third coordinate:
stable fixed point, periodic windows, then a positive leading Lyapunov
exponent, and eventually orbits that leave the positive cone entirely.
Output is the scan CSV (one row per alpha with the leading exponent and
late-orbit z samples); a short summary of regime boundaries seen on the
lattice goes to stderr so the CSV stays clean on stdout.
"""
from __future__ import annotations

import argparse
import sys

from triopoly import PAPER_PARAMS
from triopoly.dynamics import bifurcation_scan


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alpha-range", default="7,10.5", help="lo,hi of the sweep")
    ap.add_argument("--samples", type=int, default=141)
    ap.add_argument("--transient", type=int, default=1000)
    ap.add_argument("--policy", default="perturbed-nash",
                    choices=("nash", "perturbed-nash"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", help="CSV destination (default: stdout)")
    args = ap.parse_args(argv)

    lo, hi = (float(s) for s in args.alpha_range.split(","))
    table = bifurcation_scan(PAPER_PARAMS, (lo, hi), args.samples,
                             s0_policy=args.policy, transient=args.transient,
                             seed=args.seed)
    table.to_csv(args.out if args.out else sys.stdout)

    first_chaotic = next((r.alpha for r in table.rows
                          if not r.escaped and r.lyap1 > 0.0), None)
    first_escape = next((r.alpha for r in table.rows if r.escaped), None)
    if first_chaotic is not None:
        print(f"first positive leading exponent at alpha = {first_chaotic:g}",
              file=sys.stderr)
    if first_escape is not None:
        print(f"first escaping orbit at alpha = {first_escape:g}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
