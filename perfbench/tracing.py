"""Spans around calls into the library, recorded from the benchmark's side.

Nothing in the library is instrumented.  ``Tracer.install`` replaces
selected public functions, in every module namespace that calls them, with
wrappers that record one span per call: name, optional tag, start, end,
parent span and op id.  Spans stay in memory until the pass ends.

``core.eval_map_xyz`` and ``core.eval_jacobian`` are not wrapped: they cost
about a microsecond per call and are called millions of times, so a wrapper
would dominate what it measures.  The core layer is measured by the direct
probes in ``workloads.run_probes`` instead.
"""
from __future__ import annotations

import json
import time

from triopoly import bounds, certificate, dynamics, horseshoe, jsonio, search, symbolic

# bound_extremum calls of verify_C_rigorous, by (component, which); the
# workloads keep z_l = 0, so the F3 max is always C2 (C1 is then exact).
_CONDITION = {("F3", "max"): "C2_max", ("F3", "min"): "C3p_min",
              ("F1", "min"): "C4_min", ("F1", "max"): "C4_max",
              ("F2", "min"): "C5_min", ("F2", "max"): "C5_max"}
CONDITIONS = tuple(_CONDITION.values())


def _arg(args, kwargs, i, name, default):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _bound_tag(args, kwargs):
    comp = _arg(args, kwargs, 2, "component", "F3")
    which = _arg(args, kwargs, 3, "which", "max")
    return _CONDITION[(comp, which)]


# (span name, tag function or None, module namespaces that hold the function)
TARGETS = (
    ("certificate.certify_box", None, (certificate, horseshoe, search)),
    ("certificate.check_H", None, (certificate, search)),
    ("certificate.check_C_analytic", None, (certificate,)),
    ("bounds.verify_C_rigorous", None, (bounds,)),
    ("bounds.bound_extremum", _bound_tag, (bounds,)),
    ("bounds.batch_image_enclosure", None, (horseshoe,)),
    ("horseshoe.build_K_enclosures",
     lambda a, k: f"res{_arg(a, k, 2, 'resolution', None)}", (horseshoe, symbolic)),
    ("horseshoe.check_path_stretching", None, (horseshoe,)),
    ("horseshoe.locate_fixed_point_in", None, (horseshoe,)),
    ("symbolic.count_periodic_words", lambda a, k: f"k{_arg(a, k, 2, 'k', None)}", (symbolic,)),
    ("symbolic.find_periodic_orbit", None, (symbolic,)),
    ("search.search_boxes", None, (search,)),
    ("dynamics.bifurcation_scan", None, (dynamics,)),
    ("dynamics.simulate", None, (dynamics,)),
    ("dynamics.lyapunov_spectrum", None, (dynamics,)),
    ("jsonio.dumps17", None, (jsonio,)),
)

# spans whose return value the layer metrics read
_KEEP = {"bounds.verify_C_rigorous"}


class Tracer:
    def __init__(self):
        self.op = None
        self.spans: list = []   # [id, parent, op, name, tag, start, end]
        self.results: dict = {}  # span id -> return value, for _KEEP names
        self._stack: list = []

    def wrap(self, name, tag_fn, fn):
        keep = name in _KEEP

        def traced(*args, **kwargs):
            sid = len(self.spans)
            span = [sid, self._stack[-1] if self._stack else -1, self.op, name,
                    tag_fn(args, kwargs) if tag_fn else None, 0.0, 0.0]
            self.spans.append(span)
            self._stack.append(sid)
            span[5] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[6] = time.perf_counter()
                self._stack.pop()
            if keep:
                self.results[sid] = out
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self):
        for name, tag_fn, modules in TARGETS:
            attr = name.split(".")[1]
            original = getattr(modules[0], attr)
            wrapper = self.wrap(name, tag_fn, original)
            for mod in modules:
                setattr(mod, attr, wrapper)

    def write(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "op", "name", "tag", "start", "end"), s))) + "\n")


# ---------------------------------------------------------------------------
# per-layer samples of one traced pass
# ---------------------------------------------------------------------------

def layer_samples(tracer: Tracer, stats: dict, t0: float, t1: float) -> dict:
    """Per-layer sample lists of one pass; the run takes their medians.

    ``*_ms`` metrics are per call (per certificate for the B&B ones),
    ``*_s`` and counts are per pass, rates are work over busy time.
    """
    spans = tracer.spans
    dur = lambda s: s[6] - s[5]
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s[3], []).append(s)
    named = lambda n: by_name.get(n, [])
    out: dict[str, list] = {}

    def busy(n, tag=None):
        return sum(dur(s) for s in named(n) if tag is None or s[4] == tag)

    def ancestors(s):
        while s[1] >= 0:
            s = spans[s[1]]
            yield s

    # bounds: branch-and-bound, per certificate
    bb: dict[tuple, float] = {}   # (op, condition) -> ms
    for s in named("bounds.bound_extremum"):
        bb[s[2], s[4]] = bb.get((s[2], s[4]), 0.0) + dur(s) * 1e3
    out["bounds.bound_extremum.busy_ms"] = [
        sum(v for (o, _), v in bb.items() if o == op) for op in {o for o, _ in bb}]
    exps = [{key: rep["subdivisions"] for rec in cert.conditions
             for which, rep in (rec.interval or {}).items()
             if (key := f"{rec.cid}_{which}") in CONDITIONS}
            for cert in stats.get("certs", [])]
    out["bounds.bound_extremum.expansions"] = [sum(e.values()) for e in exps]
    for c in CONDITIONS:
        out[f"bounds.bound_extremum.{c}.busy_ms"] = [v for (_, k), v in bb.items() if k == c]
        out[f"bounds.bound_extremum.{c}.expansions"] = [e[c] for e in exps if c in e]
    decided = attempted = 0
    for cert in tracer.results.values():
        for rec in cert.conditions:
            attempted += 1
            decided += rec.status in ("pass", "fail")
    if attempted:
        out["bounds.verify_C_rigorous.decided_frac"] = [decided / attempted]

    # certificate
    if named("certificate.check_H"):
        out["certificate.check_H.calls_per_s"] = [
            len(named("certificate.check_H")) / busy("certificate.check_H")]
    out["certificate.check_C_analytic.busy_ms"] = [
        dur(s) * 1e3 for s in named("certificate.check_C_analytic")]
    children: dict[int, float] = {}
    for s in spans:
        if s[1] >= 0:
            children[s[1]] = children.get(s[1], 0.0) + dur(s)
    out["certificate.certify_box.self_ms"] = [
        (dur(s) - children.get(s[0], 0.0)) * 1e3 for s in named("certificate.certify_box")]

    # search
    if named("search.search_boxes"):
        sb = busy("search.search_boxes")
        in_h = sum(dur(s) for s in named("certificate.check_H")
                   if any(a[3] == "search.search_boxes" for a in ancestors(s)))
        out["search.search_boxes.busy_s"] = [sb]
        out["search.search_boxes.self_frac"] = [1.0 - in_h / sb]
        out["search.search_boxes.evaluated"] = [stats["evaluated"]]
        out["search.search_boxes.hits"] = [stats["hits"]]

    # horseshoe
    for res in (32, 16):
        if any(s[4] == f"res{res}" for s in named("horseshoe.build_K_enclosures")):
            out[f"horseshoe.build_K_enclosures.res{res}.busy_s"] = [
                busy("horseshoe.build_K_enclosures", tag=f"res{res}")]
    if "cells_kept" in stats:
        for i, n in enumerate(stats["cells_kept"]):
            out[f"horseshoe.build_K_enclosures.K{i}.cells_kept"] = [n]
    for n in ("horseshoe.check_path_stretching", "horseshoe.locate_fixed_point_in",
              "jsonio.dumps17"):
        out[f"{n}.busy_ms"] = [dur(s) * 1e3 for s in named(n)]

    # symbolic
    fpo = [dur(s) * 1e3 for s in named("symbolic.find_periodic_orbit")]
    out["symbolic.find_periodic_orbit.busy_ms_p50"] = fpo
    if fpo:
        out["symbolic.find_periodic_orbit.busy_ms_max"] = [max(fpo)]
    for s in named("symbolic.count_periodic_words"):
        out[f"symbolic.count_periodic_words.{s[4]}.busy_s"] = [dur(s)]
    if "converged" in stats:
        out["symbolic.find_periodic_orbit.converged"] = [stats["converged"]]

    # dynamics
    if named("dynamics.bifurcation_scan"):
        out["dynamics.bifurcation_scan.busy_s"] = [busy("dynamics.bifurcation_scan")]
        out["dynamics.bifurcation_scan.rows_escaped"] = [stats["rows_escaped"]]

    # what no layer span covers, inside the pass; top-level spans are the
    # benchmark's own calls, one after another, so they never overlap
    covered = sum(dur(s) for s in spans if s[1] < 0 and t0 <= s[5] and s[6] <= t1)
    out["trace.uncovered_frac"] = [1.0 - covered / (t1 - t0)]
    return {k: v for k, v in out.items() if v}
