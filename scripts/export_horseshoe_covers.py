#!/usr/bin/env python3
"""Convergence study of the two symbol-set covers as the grid refines.

At each resolution the covers are rigorous outer covers of K0 and K1, the
points of each half of the box that stay in the box for one step.  No
step guarantees that a finer cover lies inside a coarser one, so the falling
volumes in the table are observed, not proved; the script fails if the two
covers ever intersect.  Optionally exports the finest covers as CSV cell
lists.
"""
from __future__ import annotations

import math
import sys

from triopoly import PAPER_BOX, PAPER_PARAMS, OrientedBox, certify_box
from triopoly.cli import _Parser, _int_in
from triopoly.horseshoe import build_K_enclosures


def main(argv=None) -> int:
    resolution = _int_in(2, math.inf, "an integer >= 2")
    ap = _Parser(description=__doc__)
    ap.add_argument("--resolutions", default="8,16,32,64",
                    type=lambda text: [resolution(s) for s in text.split(",")],
                    help="comma-separated grid resolutions, coarse to fine")
    ap.add_argument("--export-prefix",
                    help="write {prefix}-k0.csv/{prefix}-k1.csv at the finest level")
    args = ap.parse_args(argv)

    cert = certify_box(PAPER_PARAMS, PAPER_BOX, engine="analytic")
    if not cert.passed:
        print(f"reference box did not certify: {cert.verdict}", file=sys.stderr)
        return 1
    ob = OrientedBox(PAPER_BOX)
    box_volume = PAPER_BOX.widths[0] * PAPER_BOX.widths[1] * PAPER_BOX.widths[2]

    print(f"{'res':>4s} {'cells0':>7s} {'cells1':>7s} "
          f"{'vol0/box':>9s} {'vol1/box':>9s} {'disjoint':>8s}")
    finest = None
    for res in args.resolutions:
        k0, k1 = build_K_enclosures(PAPER_PARAMS, ob, res, cert=cert)
        disjoint = k0.is_disjoint_from(k1)
        print(f"{res:4d} {k0.cell_count:7d} {k1.cell_count:7d} "
              f"{k0.volume / box_volume:9.4f} {k1.volume / box_volume:9.4f} "
              f"{str(disjoint):>8s}")
        finest = (k0, k1)
        if not disjoint:
            print("covers intersect; refine further or inspect the box",
                  file=sys.stderr)
            return 1

    if args.export_prefix and finest is not None:
        k0, k1 = finest
        k0.to_csv(f"{args.export_prefix}-k0.csv")
        k1.to_csv(f"{args.export_prefix}-k1.csv")
        print(f"\nwrote {args.export_prefix}-k0.csv and {args.export_prefix}-k1.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
