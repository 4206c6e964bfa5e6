#!/usr/bin/env python3
"""Record the reference results every benchmark pass is checked against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs each workload's pass, untimed, on every pool entry and writes
``perfbench/reference.json``.  Run it only when a change to the program is
meant to change a result, and say so where the change is described.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    ref: dict = {"certify-mix": {}, "horseshoe-periodic": {}, "alpha-sweep": {}}
    jobs = [("certify-mix", "pool", list(workloads.certify_pool().items()))]
    for w in ("horseshoe-periodic", "alpha-sweep"):
        jobs += [(w, str(i), workloads.make_inputs(w, i)) for i in range(workloads.POOL_SIZE)]
    for w, key, inputs in jobs:
        ops, _ = workloads.PASSES[w](inputs)
        errors = {n: v for n, v in ops.items() if isinstance(v, dict) and "error" in v}
        if errors:
            print(f"{w}[{key}]: ops raised: {errors}", file=sys.stderr)
            return 1
        ref[w][key] = json.loads(json.dumps(ops))
        print(f"{w}[{key}]: {len(ops)} ops", file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
