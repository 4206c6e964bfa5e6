#!/usr/bin/env python3
"""Where does a certifiable box first appear as the adjustment speed grows?

For each alpha on a lattice, run the seeded random box search at a fixed
budget and record either the best certified margin or, when the search
comes up empty, the margin and identity of the least-violated corner
condition.  The near-miss margins climb monotonically toward zero as
alpha increases, which localizes the feasibility threshold between the
last empty row and the first row with hits; at the default budget that
bracket is (15, 16] with the reference cost parameters.

Writes a CSV (alpha, hits, best_margin, violated, evaluated) and prints
the same table, plus the sub-inequality (H2a ... H5e) that killed the most
candidates at each alpha and its share of the failed ones.
"""
from __future__ import annotations

import dataclasses
import sys

import numpy as np

from triopoly import PAPER_PARAMS, search_boxes
from triopoly.cli import _Parser, _parse_count, _parse_pair, _parse_positive
from triopoly.jsonio import write_csv


def main(argv=None) -> int:
    ap = _Parser(description=__doc__)
    ap.add_argument("--alpha-range", type=_parse_pair, default="10,17",
                    help="lo,hi inclusive lattice endpoints")
    ap.add_argument("--samples", type=_parse_positive, default=8, help="lattice points")
    ap.add_argument("--budget", type=_parse_positive, default=10**5,
                    help="candidate evaluations per alpha")
    ap.add_argument("--seed", type=_parse_count, default=0)
    ap.add_argument("--out", help="CSV destination (default: stdout only)")
    args = ap.parse_args(argv)

    alphas = np.linspace(*args.alpha_range, args.samples)

    rows, killers = [], []
    for alpha in alphas:
        p = dataclasses.replace(PAPER_PARAMS, alpha=float(alpha))
        res = search_boxes(p, "random", args.budget, seed=args.seed)
        if res.killed_by:
            top = max(res.killed_by, key=res.killed_by.get)
            share = res.killed_by[top] / sum(res.killed_by.values())
            killers.append(f"{top} {share:4.0%}")
        else:
            killers.append("-")
        if len(res):
            rows.append([alpha, len(res), res.margins[0], "", res.evaluated])
        elif res.near_miss is not None:
            miss = res.near_miss
            rows.append([alpha, 0, miss.margin, miss.violated, res.evaluated])
        else:
            rows.append([alpha, 0, float("nan"), "no candidate", res.evaluated])

    header = ["alpha", "hits", "best_margin", "violated", "evaluated"]
    print(f"{'alpha':>7s} {'hits':>5s} {'best_margin':>24s} {'violated':>9s} {'top killer':>10s}")
    for (alpha, hits, margin, violated, _), killer in zip(rows, killers):
        print(f"{alpha:7.3f} {hits:5d} {margin:24.17g} {violated:>9s} {killer:>10s}")

    if args.out:
        write_csv(args.out, header, ([f"{row[0]:.17g}", row[1], f"{row[2]:.17g}",
                                      row[3], row[4]] for row in rows))
        print(f"\nwrote {args.out}")

    first_hit = next((r[0] for r in rows if r[1] > 0), None)
    if first_hit is None:
        print("\nno certifiable box found on this lattice at this budget")
    else:
        last_empty = max((r[0] for r in rows if r[1] == 0 and r[0] < first_hit),
                         default=None)
        if last_empty is None:
            print(f"\nhits already present at alpha = {first_hit:g}")
        else:
            print(f"\nfeasibility threshold inside ({last_empty:g}, {first_hit:g}]"
                  f" at budget {args.budget}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
