#!/usr/bin/env python3
"""Benchmark of the triopoly toolkit: three workloads, end to end and by layer.

    python3 perfbench/run.py --workload certify-mix --seed 0 --seconds 40 --trace 0

Run from the repository root.  Each pass of the workload runs in a fresh
interpreter (``worker.py``), one after another, until ``--seconds`` would be
exceeded.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates traced and untraced passes and reports the per-layer metrics,
the tracing overhead and the share of the pass no layer span covers.  Every
metric is printed by name with its unit; the last line is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  A fuller record,
with the numeric environment, goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("certify-mix", "horseshoe-periodic", "alpha-sweep")
RUN_LIMIT_S = 170.0   # hard stop for one invocation, start-up included

# every workload reports every one of these; their bounds are in BENCHMARK.json
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "pass_s": "s",
              "main_per_s": "1/s", "second_per_s": "1/s"}

# main_per_s and second_per_s on each workload: (name, unit, work key, item
# prefix); rate = work / sum over the matching items of their fastest pass
RATES = {
    "certify-mix": (("certify_per_s", "certificates/s", "boxes", "cert."),
                    ("json_per_s", "certificates/s", "boxes", "json.")),
    "horseshoe-periodic": (("covers_cells_per_s", "cells/s", "cells", "covers"),
                           ("periodic_words_per_s", "words/s", "words", "words.")),
    "alpha-sweep": (("search_candidates_per_s", "candidates/s", "evaluated", "search."),
                    ("bifurcation_samples_per_s", "samples/s", "samples", "bifurcate")),
}

_BB = [(f"bounds.bound_extremum{c}.{m}", u)
       for c in ("", ".C2_max", ".C3p_min", ".C4_min", ".C4_max", ".C5_min", ".C5_max")
       for m, u in (("busy_ms", "ms"), ("expansions", "count"))]

# (name, unit); a layer the workload never calls reports 0
PER_LAYER = tuple(_BB) + (
    ("bounds.verify_C_rigorous.decided_frac", "ratio"),
    ("bounds.batch_image_enclosure.cells_per_s", "cells/s"),
    ("certificate.check_H.calls_per_s", "calls/s"),
    ("certificate.check_C_analytic.busy_ms", "ms"),
    ("certificate.certify_box.self_ms", "ms"),
    ("search.search_boxes.busy_s", "s"),
    ("search.search_boxes.self_frac", "ratio"),
    ("search.search_boxes.evaluated", "count"),
    ("search.search_boxes.hits", "count"),
    ("core.eval_map_xyz.points_per_s", "points/s"),
    ("core.eval_jacobian.calls_per_s", "calls/s"),
    ("horseshoe.build_K_enclosures.res32.busy_s", "s"),
    ("horseshoe.build_K_enclosures.res16.busy_s", "s"),
    ("horseshoe.build_K_enclosures.K0.cells_kept", "count"),
    ("horseshoe.build_K_enclosures.K1.cells_kept", "count"),
    ("horseshoe.check_path_stretching.busy_ms", "ms"),
    ("horseshoe.locate_fixed_point_in.busy_ms", "ms"),
    ("symbolic.find_periodic_orbit.busy_ms_p50", "ms"),
    ("symbolic.find_periodic_orbit.busy_ms_max", "ms"),
    ("symbolic.count_periodic_words.k1.busy_s", "s"),
    ("symbolic.count_periodic_words.k2.busy_s", "s"),
    ("symbolic.count_periodic_words.k3.busy_s", "s"),
    ("symbolic.count_periodic_words.k4.busy_s", "s"),
    ("symbolic.find_periodic_orbit.converged", "count"),
    ("dynamics.simulate.steps_per_s", "steps/s"),
    ("dynamics.lyapunov_spectrum.steps_per_s", "steps/s"),
    ("dynamics.bifurcation_scan.busy_s", "s"),
    ("dynamics.bifurcation_scan.rows_escaped", "count"),
    ("jsonio.dumps17.busy_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.uncovered_frac", "ratio"),
)


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def git_commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def run_pass(root: Path, args, trace: int, index: int, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}-pass{index}.jsonl"
    t0 = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--spawned-at", repr(t0)]
    if trace:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"pass {index} did not finish before the run's time limit")
    if proc.returncode != 0:
        raise BenchError(f"pass {index} exited with code {proc.returncode}")
    out = json.loads(stdout.strip().splitlines()[-1])
    out["wall_s"] = time.monotonic() - t0
    out["traced"] = bool(trace)
    return out


def run_passes(root: Path, args) -> list[dict]:
    """Closed loop, one pass at a time, while the next one still fits."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    passes: list[dict] = []
    while True:
        trace = args.trace and len(passes) % 2 == 0   # traced, untraced, ...
        passes.append(run_pass(root, args, int(trace), len(passes), deadline))
        elapsed = time.monotonic() - start
        longest = max(p["wall_s"] for p in passes)
        # a traced run needs one pass of each kind for the overhead
        if len(passes) > args.trace and elapsed + longest > args.seconds:
            return passes


def quartile3(xs):
    return statistics.quantiles(xs, n=4)[2] if len(xs) > 1 else xs[0]


def end_to_end(workload: str, passes: list[dict]) -> tuple[dict, list]:
    """BENCHMARK.json metrics, and the named rows printed for this workload.

    Each step's time is its median over the run's passes, in seconds scaled
    to the reference speed of ``meter.py``; so is set-up.  Memory is the
    median over passes.  The raw pass time and the calibration time are
    printed too, to show how fast the host ran.
    """
    med = lambda xs: statistics.median(list(xs))
    items = {k: med(p["items"][k] for p in passes) for k in passes[0]["items"]}
    raw = {k: med(p["raw_items"][k] for p in passes) for k in passes[0]["raw_items"]}
    work = passes[0]["work"]
    rows, rates = [], []
    for name, unit, key, prefix in RATES[workload]:
        rate = work[key] / sum(v for k, v in items.items() if k.startswith(prefix))
        rates.append(rate)
        rows.append((name, rate, unit))
    # per-certificate latency: certificate + JSON of one box in one pass
    op_ms = [(v + p["items"]["json." + k[len("cert."):]]) * 1e3
             for p in passes for k, v in p["items"].items() if k.startswith("cert.")]
    if op_ms:
        rows += [("certify_ms_p50", med(op_ms), f"ms (n={len(op_ms)})"),
                 ("certify_ms_p75", quartile3(op_ms), f"ms (n={len(op_ms)})")]
    rows += [("raw.pass_s", sum(raw.values()), "s (unscaled)"),
             ("raw.setup_s", med(p["setup_raw_s"] for p in passes), "s (unscaled)"),
             ("calibration_s", med(c for p in passes for c in p["cal_s"]),
              f"s (reference {passes[0]['cal_ref_s']} s)")]
    metrics = {"setup_s": med(p["setup_s"] for p in passes),
               "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
               "pass_s": sum(items.values()),
               "main_per_s": rates[0], "second_per_s": rates[1]}
    return metrics, rows


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    pooled: dict[str, list] = {}
    for p in traced:
        for k, v in p["layers"].items():
            pooled.setdefault(k, []).extend(v)
    metrics = {name: statistics.median(pooled[name]) if pooled.get(name) else 0.0
               for name, _ in PER_LAYER}
    metrics["trace.overhead_frac"] = (
        min(p["pass_s"] for p in traced) / min(p["pass_s"] for p in plain) - 1.0)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = Path.cwd()
    if not (root / "src" / "triopoly" / "__init__.py").is_file():
        print("perfbench: src/triopoly not found; run from the repository root",
              file=sys.stderr)
        return 2
    (HERE / "out").mkdir(exist_ok=True)
    try:
        passes = run_passes(root, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed_names = sorted({n for p in passes for n in p["failed"]})
    failed = sum(len(p["failed"]) for p in passes)
    env = dict(passes[0]["env"], commit=git_commit(root))
    units = END_TO_END | dict(PER_LAYER)

    print(f"{args.workload}  seed={args.seed}  trace={args.trace}  passes={len(passes)}"
          f"  ops={attempted}  failed={failed}")
    print("  env: " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name in failed_names:
        print(f"  FAILED op: {name}")
    rows = [("failed_frac", failed / attempted, "failed/attempted")]
    if args.trace:
        metrics = per_layer(passes)
    else:
        metrics, named = end_to_end(args.workload, passes)
        rows += named
    rows += [(k, v, units[k]) for k, v in metrics.items()]
    for name, value, unit in rows:
        print(f"  {name:48s} {value:14.6g}  {unit}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "rows": rows, "failed_ops": failed_names,
              "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes]}
    out = HERE / "out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
