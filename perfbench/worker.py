"""One benchmark pass in a fresh interpreter; prints one JSON line.

Started by ``run.py`` with ``src`` on PYTHONPATH.  Set-up (imports, input
generation, loading the reference) is timed from the moment the parent
spawned this process, so interpreter start-up is part of it.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before spawning")
    ap.add_argument("--spans", help="file the traced pass writes its spans to")
    args = ap.parse_args(argv)

    import numpy as np

    import triopoly
    from triopoly import bounds

    import workloads
    from meter import CAL_REF_S, Meter

    inputs = workloads.make_inputs(args.workload, args.seed)
    with open(HERE / "reference.json") as fh:
        expected = workloads.expected_ops(args.workload, inputs, json.load(fh))
    tracer = probe_in = None
    if args.trace:
        import tracing
        probe_in = workloads.probe_inputs(args.seed)
        tracer = tracing.Tracer()
        tracer.install()
    setup_raw_s = time.monotonic() - args.spawned_at

    # traced passes keep raw times: calibrating would add uncovered time
    meter = Meter(calibrated=not args.trace)
    run_pass = workloads.PASSES[args.workload]
    t0 = time.perf_counter()
    ops, stats = run_pass(inputs, meter, tracer) if tracer else run_pass(inputs, meter)
    t1 = time.perf_counter()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # set-up is scaled by the pass's first calibration, made right after it
    setup_scale = CAL_REF_S / meter.cals[0] if meter.cals else 1.0

    out = {
        "setup_s": setup_raw_s * setup_scale,
        "setup_raw_s": setup_raw_s,
        "pass_s": t1 - t0 - meter.cal_spent,   # the pass without its calibrations
        "peak_rss_mb": rss_mb,
        "attempted": len(set(ops) | set(expected)),
        "failed": workloads.failed_ops(ops, expected),
        "items": meter.items(),
        "raw_items": meter.items(raw=True),
        "cal_s": meter.cals,
        "cal_ref_s": CAL_REF_S,
        "work": stats["work"],
        "env": {
            "triopoly": triopoly.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
            "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
            "rounding_strategy": bounds.ROUNDING_STRATEGY,
            "cpu_count": os.cpu_count(),
        },
    }
    if tracer:
        layers = tracing.layer_samples(tracer, stats, t0, t1)
        tracer.op = "probe"
        samples, probe_ops = workloads.run_probes(probe_in)
        layers.update(samples)
        out["layers"] = layers
        out["attempted"] += len(probe_ops)
        out["failed"] += [n for n, ok in probe_ops.items() if ok is not True]
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
