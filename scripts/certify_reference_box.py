#!/usr/bin/env python3
"""Certify the bundled reference box and print a per-condition margin table.

Runs the analytic engine and the interval engine separately so their
timings and margins can be compared side by side, then the merged run
that the library reports by default.  An interval margin is a certified
distance from the threshold: each search stops once its enclosure decides
the condition, so it can read below the analytic margin.  Exit code follows the certificate:
0 certified, 1 failed, 2 inconclusive.
"""
from __future__ import annotations

import argparse
import sys
import time

from triopoly import PAPER_BOX, PAPER_PARAMS, certify_box


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--tol", type=float, default=1e-8,
                    help="interval engine: the enclosure width at which a search "
                         "that has not decided its threshold gives up")
    ap.add_argument("--budget", type=int, default=10**6,
                    help="branch-and-bound expansion budget")
    args = ap.parse_args(argv)

    print(f"params: {PAPER_PARAMS.as_dict()}")
    print(f"box:    {PAPER_BOX.as_tuple()}")
    print()

    certs = {}
    for engine in ("analytic", "interval"):
        t0 = time.perf_counter()
        certs[engine] = certify_box(PAPER_PARAMS, PAPER_BOX, engine=engine,
                                    tol=args.tol, budget=args.budget)
        dt = time.perf_counter() - t0
        print(f"{engine:9s} engine: {certs[engine].verdict:10s} ({dt * 1e3:7.1f} ms)")

    print()
    print(f"{'id':5s} {'engine':9s} {'status':7s} {'margin':>24s}")
    for engine, cert in certs.items():
        for c in cert.conditions:
            margin = "" if c.margin is None else f"{c.margin:.17g}"
            print(f"{c.cid:5s} {engine:9s} {c.status:7s} {margin:>24s}")

    merged = certify_box(PAPER_PARAMS, PAPER_BOX, engine="both",
                         tol=args.tol, budget=args.budget)
    print()
    print(f"merged verdict: {merged.verdict}")
    return {"certified": 0, "failed": 1}.get(merged.verdict, 2)


if __name__ == "__main__":
    sys.exit(main())
