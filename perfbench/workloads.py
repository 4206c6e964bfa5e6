"""Inputs, passes and reference checks of the three benchmark workloads.

A *pass* runs one workload's full input set once and returns

* ``ops``: op name -> a JSON-ready result value, compared with the value
  recorded in ``reference.json`` (an op that raised holds ``{"error": ...}``);
* ``stats``: ``work`` (units of work the end-to-end rates divide by) and
  the counts the per-layer metrics read.

The seconds of each timed step go to the ``meter.Meter`` the pass is given.

Every call into the library goes through a module attribute
(``certificate.certify_box``, not a name imported from it), so the tracer
in ``tracing.py`` sees the benchmark's calls as well as the nested ones.

Inputs are a function of the seed.  The seeded parts are drawn from fixed
pools whose reference results are committed, so any seed can be checked:
certify-mix samples boxes from a pool of perturbations, horseshoe-periodic
and alpha-sweep use pool entry ``seed % 16``.
"""
from __future__ import annotations

import dataclasses
import json
import math
import time

import numpy as np

from triopoly import PAPER_BOX, PAPER_PARAMS, Box, OrientedBox
from triopoly import bounds, certificate, core, dynamics, horseshoe, jsonio, search, symbolic
from triopoly.core import State, interior_fixed_point

from meter import Meter

WORKLOADS = ("certify-mix", "horseshoe-periodic", "alpha-sweep")

POOL_SEED = 130175560          # fixes every pool; never the run's --seed
POOL_SIZE = 16                 # horseshoe-periodic and alpha-sweep entries

CERTIFY_POOL = 96              # perturbed boxes to sample from
CERTIFY_PICK = 23              # per pass, after the paper box
CERTIFY_PERTURB = 0.02         # relative, on each of the five free bounds

HORSESHOE_PERTURB = 0.002      # small: keeps every pool box certified
HORSESHOE_RESOLUTION = 32
RANDOM_PATHS = 3
MAX_K = 4
# 2 halves x res x res x res/2 z-slabs: the top-level cells of the covers
COVER_CELLS = 2 * HORSESHOE_RESOLUTION ** 2 * ((HORSESHOE_RESOLUTION + 1) // 2)
WORDS = tuple(format(b, f"0{k}b") for k in range(1, MAX_K + 1) for b in range(2 ** k))

SEARCH_ALPHAS = tuple(float(a) for a in np.linspace(10.0, 17.0, 8))
SEARCH_BUDGET = 4000
BIF_RANGE = (7.0, 10.5)
BIF_SAMPLES = 36
BIF_ALPHAS = tuple(float(a) for a in np.linspace(*BIF_RANGE, BIF_SAMPLES))


def _perturbed(rng: np.random.Generator, rel: float) -> Box:
    f = 1.0 + rel * rng.uniform(-1.0, 1.0, 5)
    b = PAPER_BOX
    return Box(b.x_l * f[0], b.x_r * f[1], b.y_l * f[2], b.y_r * f[3], 0.0, b.z_r * f[4])


def certify_pool() -> dict[str, Box]:
    rng = np.random.default_rng([POOL_SEED, 1])
    pool = {"paper": PAPER_BOX}
    for i in range(CERTIFY_POOL):
        pool[f"box{i:02d}"] = _perturbed(rng, CERTIFY_PERTURB)
    return pool


def horseshoe_box(index: int) -> Box:
    """Pool entry 0 is the paper box, the others certified perturbations."""
    if index == 0:
        return PAPER_BOX
    rng = np.random.default_rng([POOL_SEED, 2, index])
    while True:
        b = _perturbed(rng, HORSESHOE_PERTURB)
        if certificate.certify_box(PAPER_PARAMS, b).passed:
            return b


def make_inputs(workload: str, seed: int):
    """The inputs of one pass; the same seed always gives the same inputs."""
    if workload == "certify-mix":
        pool = certify_pool()
        names = sorted(n for n in pool if n != "paper")
        rng = np.random.default_rng(seed)
        pick = sorted(rng.choice(len(names), CERTIFY_PICK, replace=False))
        return [("paper", pool["paper"])] + [(names[i], pool[names[i]]) for i in pick]
    index = seed % POOL_SIZE
    if workload == "horseshoe-periodic":
        ob = OrientedBox(horseshoe_box(index), axis=2)
        rng = np.random.default_rng([POOL_SEED, 3, index])
        paths = [("vertical", horseshoe.vertical_segment_path(ob))]
        paths += [(f"random{i}", horseshoe.random_crossing_path(ob, rng))
                  for i in range(RANDOM_PATHS)]
        return {"index": index, "ob": ob, "paths": paths}
    if workload == "alpha-sweep":
        return {"index": index, "search_seed": index}
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def expected_ops(workload: str, inputs, reference: dict) -> dict:
    """The reference result of every op this pass must produce."""
    if workload == "certify-mix":
        pool = reference[workload]["pool"]
        return {name: pool[name] for name, _ in inputs}
    return reference[workload][str(inputs["index"])]


class _NoTrace:
    op = None


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


def _attempt(ops: dict, name: str, fn) -> None:
    """Run one op; record its result or its error."""
    try:
        ops[name] = fn()
    except Exception as exc:  # the op fails, the pass goes on
        ops[name] = _error(exc)


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------
#
# Each pass takes the inputs, a ``meter.Meter`` that times its steps, and
# the tracer; it calls ``meter.mark()`` before its first step and after
# each group of steps.

def certify_pass(inputs, meter=None, tr=_NoTrace()):
    """``triopoly certify --engine both`` on each box: certificate + JSON."""
    meter = meter or Meter(calibrated=False)
    ops, certs = {}, []
    meter.mark()
    for name, box in inputs:
        tr.op = name
        try:
            with meter.step(f"cert.{name}"):
                cert = certificate.certify_box(PAPER_PARAMS, box, engine="both")
            with meter.step(f"json.{name}"):
                text = jsonio.dumps17(cert.as_dict(), indent=2)
            ops[name] = {"verdict": cert.verdict,
                         "statuses": [c.status for c in cert.conditions],
                         "json_verdict": json.loads(text)["verdict"]}
            certs.append(cert)
        except Exception as exc:  # the op fails, the pass goes on
            ops[name] = _error(exc)
        meter.mark()
    return ops, {"work": {"boxes": len(inputs)}, "certs": certs}


def horseshoe_pass(inputs, meter=None, tr=_NoTrace()):
    """``triopoly horseshoe`` then ``triopoly periodic --max-k 4``, cold."""
    meter = meter or Meter(calibrated=False)
    p, ob = PAPER_PARAMS, inputs["ob"]
    ops = {}
    meter.mark()

    tr.op = "covers.res32"
    with meter.step("covers"):
        _attempt(ops, "covers.res32", lambda: [
            k.cell_count for k in horseshoe.build_K_enclosures(p, ob, HORSESHOE_RESOLUTION)])
    meter.mark()

    for name, path in inputs["paths"]:
        tr.op = f"stretch.{name}"

        def stretch(path=path):
            rep = horseshoe.check_path_stretching(p, ob, path)
            return [rep.status, rep.crossing_count, rep.disjoint]

        with meter.step("stretch"):
            _attempt(ops, f"stretch.{name}", stretch)
    meter.mark()

    for k in range(1, MAX_K + 1):
        tr.op = f"words.k{k}"
        with meter.step(f"words.k{k}"):
            try:
                for r in symbolic.count_periodic_words(p, ob, k):
                    ops[f"word.{r.word}"] = [r.converged, r.realized == r.word]
            except Exception as exc:
                ops.update({f"word.{w}": _error(exc) for w in WORDS if len(w) == k})
        meter.mark()

    for i in (0, 1):
        tr.op = f"fixed.K{i}"
        with meter.step("fixed"):
            _attempt(ops, f"fixed.K{i}", lambda i=i: [
                round(v, 10) for v in horseshoe.locate_fixed_point_in(p, ob, i).as_tuple()])
    meter.mark()

    kept = ops["covers.res32"]
    return ops, {
        "work": {"cells": COVER_CELLS, "words": len(WORDS)},
        "cells_kept": kept if isinstance(kept, list) else [0, 0],
        "converged": sum(1 for w in WORDS
                         if isinstance(ops[f"word.{w}"], list) and ops[f"word.{w}"][0]),
    }


def alpha_pass(inputs, meter=None, tr=_NoTrace()):
    """The alpha feasibility scan, then the bifurcation sweep."""
    meter = meter or Meter(calibrated=False)
    sseed = inputs["search_seed"]
    ops = {}
    evaluated = hits = 0
    meter.mark()
    for a in SEARCH_ALPHAS:
        name = f"search.alpha{a:g}"
        tr.op = name

        def one(a=a):
            nonlocal evaluated, hits
            p = dataclasses.replace(PAPER_PARAMS, alpha=a)
            res = search.search_boxes(p, "random", SEARCH_BUDGET, seed=sseed,
                                      engine="analytic", threads=1)
            evaluated += res.evaluated
            hits += len(res)
            best = list(res.best[0].as_tuple()) if res.best else None
            return [res.evaluated, len(res), best]

        with meter.step(name):
            _attempt(ops, name, one)
        meter.mark()

    tr.op = "bifurcate"
    with meter.step("bifurcate"):
        try:
            table = dynamics.bifurcation_scan(
                PAPER_PARAMS, BIF_RANGE, BIF_SAMPLES, s0_policy="perturbed-nash",
                transient=1000, n_record=200, lyap_steps=2000, seed=sseed, threads=1)
            ops.update({f"bifurcate.alpha{r.alpha:.1f}": r.escaped for r in table.rows})
        except Exception as exc:
            ops.update({f"bifurcate.alpha{a:.1f}": _error(exc) for a in BIF_ALPHAS})
    meter.mark()
    return ops, {
        "work": {"evaluated": evaluated, "samples": BIF_SAMPLES},
        "evaluated": evaluated,
        "hits": hits,
        "rows_escaped": sum(1 for a in BIF_ALPHAS if ops[f"bifurcate.alpha{a:.1f}"] is True),
    }


PASSES = {
    "certify-mix": certify_pass,
    "horseshoe-periodic": horseshoe_pass,
    "alpha-sweep": alpha_pass,
}


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def _normal(v):
    """Round-trip through JSON so tuples, numpy scalars and lists compare."""
    return json.loads(json.dumps(v))


def failed_ops(ops: dict, expected: dict) -> list[str]:
    """Names of ops that raised, differ from the reference, or are missing."""
    return sorted(n for n in set(ops) | set(expected)
                  if n not in ops or n not in expected or _normal(ops[n]) != expected[n])


# ---------------------------------------------------------------------------
# probes: direct calls into single layers, on the benchmark's own inputs
# ---------------------------------------------------------------------------

PROBE_ALPHA = 9.0          # chaotic but bounded: no perturbed-Nash orbit escapes
PROBE_POINTS = 20000
PROBE_JACOBIANS = 5000
PROBE_SIM_STEPS = 50000
PROBE_LYAP_STEPS = 4000


def probe_inputs(seed: int) -> dict:
    b = PAPER_BOX
    rng = np.random.default_rng([POOL_SEED, 4, seed])
    pts = np.column_stack([rng.uniform(b.x_l, b.x_r, PROBE_POINTS),
                           rng.uniform(b.y_l, b.y_r, PROBE_POINTS),
                           rng.uniform(b.z_l, b.z_r, PROBE_POINTS)]).tolist()
    n = HORSESHOE_RESOLUTION
    nz = (n + 1) // 2
    xe = np.linspace(b.x_l, b.x_r, n + 1)
    ye = np.linspace(b.y_l, b.y_r, n + 1)
    slabs = []
    for z0, z1 in ((b.z_l, b.z_mid), (b.z_mid, b.z_r)):
        ze = np.linspace(z0, z1, nz + 1)
        kz, ky, kx = np.meshgrid(np.arange(nz), np.arange(n), np.arange(n), indexing="ij")
        kz, ky, kx = kz.ravel(), ky.ravel(), kx.ravel()
        slabs.append(np.column_stack([xe[kx], xe[kx + 1], ye[ky], ye[ky + 1],
                                      ze[kz], ze[kz + 1]]))
    pa = dataclasses.replace(PAPER_PARAMS, alpha=PROBE_ALPHA)
    fp = interior_fixed_point(pa)
    dx, dy, dz = rng.uniform(-1e-3, 1e-3, size=3)
    start = State(fp.x + dx, fp.y + dy, max(fp.z + dz, 1e-6))
    return {"points": pts, "cells": np.concatenate(slabs), "params": pa, "start": start}


def run_probes(inp: dict, repeats: int = 3):
    """Layer rates from direct calls; returns (samples, ops) like a pass."""
    p = PAPER_PARAMS
    samples: dict[str, list] = {}
    ops: dict = {}

    def timed(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            out = fn()
            times.append(time.perf_counter() - t0)
        return out, float(np.median(times))

    cells = inp["cells"]
    (lo, hi), dt = timed(lambda: bounds.batch_image_enclosure(p, cells, refine=True))
    samples["bounds.batch_image_enclosure.cells_per_s"] = [len(cells) / dt]
    ops["probe.batch_image_enclosure"] = bool(np.all(lo <= hi))

    pts = inp["points"]
    _, dt = timed(lambda: [core.eval_map_xyz(p, x, y, z) for x, y, z in pts])
    samples["core.eval_map_xyz.points_per_s"] = [len(pts) / dt]
    states = [State(*q) for q in pts[:PROBE_JACOBIANS]]
    _, dt = timed(lambda: [core.eval_jacobian(p, s) for s in states])
    samples["core.eval_jacobian.calls_per_s"] = [len(states) / dt]

    pa, s0 = inp["params"], inp["start"]
    rec, dt = timed(lambda: dynamics.simulate(pa, s0, PROBE_SIM_STEPS))
    samples["dynamics.simulate.steps_per_s"] = [PROBE_SIM_STEPS / dt]
    ops["probe.simulate.no_escape"] = not rec.escaped
    ly, dt = timed(lambda: dynamics.lyapunov_spectrum(pa, s0, PROBE_LYAP_STEPS))
    samples["dynamics.lyapunov_spectrum.steps_per_s"] = [PROBE_LYAP_STEPS / dt]
    ops["probe.lyapunov.no_escape"] = not ly.escaped and all(map(math.isfinite, ly.exponents))
    return samples, ops
