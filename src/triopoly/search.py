"""Budgeted search for certificate-passing boxes.

Candidates live in the five-vector space (x_l, width_x, y_l, width_y, z_r)
with z_l pinned to 0: the bottom-face condition is an equality, so a z_l
degree of freedom would only waste budget.  Three strategies share one
evaluation pipeline:

* ``random`` -- seeded uniform draws, decoded either through a feasibility
  skeleton derived from the closed-form corner inequalities or, when a
  seed box is supplied, through multiplicative perturbation around it;
* ``grid``   -- the same decoders driven by a lattice of cell midpoints;
* ``refine`` -- greedy coordinate descent on the maximin margin with
  bisected step sizes, starting from the seed box (or from the best
  candidate of a bootstrap random pass when none is given).

Ranking is maximin over the H2..H5 margins, ties broken lexicographically
by box bounds.  H1 is excluded from the rank on purpose: with z_l pinned
its margin is identically zero and carries no information.  Every ranked
survivor is re-judged by ``certify_box``; only full passes are returned.
An empty result is a legitimate outcome and carries the best near-miss
together with the condition that killed it.

The skeleton decoder turns a point of the unit cube into a candidate by
walking the coordinates in dependency order and interpolating each one
inside the window the already-fixed coordinates leave open.  Each window
is an exact consequence of one corner inequality, so the decoder never
discards a satisfiable region; when a window closes it clamps (lower
bounds win for y_r, midpoints elsewhere) and emits the candidate anyway,
which is what surfaces near-misses pointing at the genuinely binding
conditions instead of at sampling artefacts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import Box, InvalidBoxError
from .certificate import (
    DEFAULT_MIN_MARGIN,
    SCHEMA_VERSION,
    Certificate,
    check_H,
    certify_box,
)
from .core import Params
from .jsonio import dumps17, open_sink

__all__ = ["NearMiss", "SearchResult", "search_boxes", "RANK_IDS"]

# H1 is an equality pinned by construction; ranking uses the inequalities.
RANK_IDS = ("H2", "H3", "H4", "H5")

_PAD = 1e-9          # interior padding for open windows
_STRATEGIES = ("grid", "random", "refine")


# ---------------------------------------------------------------------------
# candidate vectors
# ---------------------------------------------------------------------------

def _vec_of(b: Box) -> tuple[float, ...]:
    return (b.x_l, b.x_r - b.x_l, b.y_l, b.y_r - b.y_l, b.z_r)


def _box_of(vec) -> Box | None:
    x_l, wx, y_l, wy, z_r = (float(v) for v in vec)
    try:
        return Box(x_l=x_l, x_r=x_l + wx, y_l=y_l, y_r=y_l + wy, z_l=0.0, z_r=z_r)
    except InvalidBoxError:
        return None


def _lerp(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


def _decode_near(u, base: tuple[float, ...], scale: float) -> tuple[float, ...]:
    return tuple(v * (1.0 + scale * (2.0 * float(ui) - 1.0)) for v, ui in zip(base, u))


def _decode_skeleton(u, p: Params) -> tuple[float, ...] | None:
    """Map a unit-cube point to a candidate honouring the corner skeleton.

    Windows, in draw order (B = 1/c1; all with z_l = 0):

      x_l  in (1/(4 c2), B/4)        x_l+z_l > 1/(4 c2); the sqrt window
                                     for y_l below is real only if 4 x_l <= B
      x_r  in (max(x_l, B/4), B/2)   x_r >= B/4; y_l + z_l < B/2 - x_r
      y_l  in the band where sqrt(y_l/c1) - y_l >= x_l, capped by
           B/2 - x_r and by 1/(4 c2), the maximum of psi
      y_r  >= max(y_l, psi(x_l), B/2 - x_l - (x_l + y_l))
           <  the level where the re-entry ceiling drops to the escape floor
      z_r  in (max(B/2 - x_l - y_r, escape floor),
               min(x_l + y_l, re-entry ceiling, B - x_r - y_r,
                   B - 2 x_l - y_l - y_r, psi-preimage of y_l minus x_r))

    Returns None only when the parameter geometry admits no window at all.
    """
    B = 1.0 / p.c1
    A = 0.25 / p.c2
    if A >= 0.25 * B:
        return None
    x_l = _lerp(A, 0.25 * B, float(u[0]))
    x_r = _lerp(max(x_l, 0.25 * B), 0.5 * B, float(u[1]))

    root = math.sqrt(max(0.0, B - 4.0 * x_l))
    t_lo = 0.5 * (math.sqrt(B) - root)
    t_hi = 0.5 * (math.sqrt(B) + root)
    # the H5 preimage bound can never exceed 1/(4 c2), so larger y_l is dead
    lo = max(t_lo * t_lo, _PAD)
    hi = min(t_hi * t_hi, 0.5 * B - x_r, 0.25 / p.c2 - _PAD)
    y_l = _lerp(lo, hi, float(u[2])) if hi > lo else 0.5 * (lo + hi)
    if y_l <= 0.0:
        y_l = _PAD

    s_ll = x_l + y_l
    q_escape = p.alpha / (p.alpha * p.c3 - 1.0) if p.alpha * p.c3 > 1.0 else None
    q_reentry = p.alpha / (p.alpha * p.c3 + 1.0)
    floor = (math.sqrt(q_escape * s_ll) - s_ll) if q_escape is not None else 0.0
    c0 = max(_PAD, floor)
    psi = math.sqrt(x_l / p.c2) - x_l
    y_flo = max(y_l + _PAD, psi, 0.5 * B - x_l - s_ll + _PAD)
    if q_reentry > 2.0 * c0:
        t = 0.5 * (math.sqrt(q_reentry) + math.sqrt(q_reentry - 2.0 * c0))
        y_fhi = t * t - x_r
    else:
        y_fhi = y_flo            # empty: clamp to the floor
    # on inversion keep the mandatory lower bounds satisfied, so that the
    # contradiction surfaces in the z window
    y_r = _lerp(y_flo, y_fhi, float(u[3])) if y_fhi > y_flo else y_flo
    if y_r <= y_l:
        y_r = y_l + _PAD

    s_rr = x_r + y_r
    gamma = 2.0 * (math.sqrt(q_reentry * s_rr) - s_rr) if s_rr > 0.0 else 0.0
    # level where the y_l preimage bound meets x_r + z (upper branch)
    t = 0.5 * (math.sqrt(1.0 / p.c2) + math.sqrt(max(0.0, 1.0 / p.c2 - 4.0 * y_l)))
    geo_lo = max(_PAD, 0.5 * B - x_l - y_r)
    geo_hi = min(s_ll, B - x_r - y_r, B - 2.0 * x_l - y_l - y_r, t * t - x_r)
    z_lo = max(geo_lo, floor)
    z_hi = min(geo_hi, gamma)
    if z_hi > z_lo:
        z_r = _lerp(z_lo, z_hi, float(u[4]))
    elif geo_hi > geo_lo:
        # geometrically fine, killed by the escape/re-entry pair: probe the
        # midpoint of that pair clamped into the geometric window, so the
        # near-miss blames the conditions the parameters actually move
        z_r = min(max(0.5 * (floor + gamma), geo_lo), geo_hi)
    else:
        z_r = 0.5 * (geo_lo + geo_hi)
    if z_r <= 0.0:
        z_r = _PAD
    return (x_l, x_r - x_l, y_l, y_r - y_l, z_r)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NearMiss:
    """Best candidate that failed the corner checks."""

    box: Box
    margin: float       # maximin margin over H2..H5
    violated: str       # id of the binding non-passing condition
    status: str         # its status, "fail" or "inapplicable"

    def as_dict(self) -> dict:
        return {
            "box": self.box.as_dict(),
            "margin": self.margin,
            "violated": self.violated,
            "status": self.status,
        }


@dataclass
class _Scan:
    """Accumulator for one pass of corner evaluations.

    Two near-miss slots: ``frontier`` holds the best candidate whose only
    failures are the parameter-driven escape/re-entry pair (H2, H3), and
    ``fallback`` the best overall.  Reporting prefers the frontier one:
    a candidate that flunks the parameter-independent geometry says
    nothing about what moving alpha would change.
    """

    hits: list = field(default_factory=list)      # (margin, Box)
    frontier: NearMiss | None = None
    fallback: NearMiss | None = None
    evaluated: int = 0

    @property
    def miss(self) -> NearMiss | None:
        return self.frontier if self.frontier is not None else self.fallback


def _rank_margin(cert: Certificate) -> float:
    vals = [r.margin for r in cert.conditions if r.cid in RANK_IDS and r.margin is not None]
    return min(vals) if vals else float("-inf")


def _binding_failure(cert: Certificate):
    worst = None
    for r in cert.conditions:
        if r.status == "pass":
            continue
        if worst is None:
            worst = r
        elif r.margin is not None and (worst.margin is None or r.margin < worst.margin):
            worst = r
    return worst


def _eval_candidate(p: Params, vec, min_margin: float, scan: _Scan) -> float | None:
    b = _box_of(vec)
    if b is None:
        return None
    cert = check_H(p, b, min_margin)
    scan.evaluated += 1
    margin = _rank_margin(cert)
    if cert.verdict == "certified":
        scan.hits.append((margin, b))
        return margin
    failing = [r for r in cert.conditions if r.status != "pass"]
    worst = _binding_failure(cert)
    if worst is None:
        return margin
    miss = NearMiss(box=b, margin=margin, violated=worst.cid, status=worst.status)
    if all(r.cid in ("H2", "H3") for r in failing):
        if scan.frontier is None or margin > scan.frontier.margin:
            scan.frontier = miss
    if scan.fallback is None or margin > scan.fallback.margin:
        scan.fallback = miss
    return margin


def _scan_rows(p, rows, base, scale, min_margin, scan: _Scan) -> None:
    """Decode each unit-cube row into a candidate and evaluate it into ``scan``."""
    for u in rows:
        vec = _decode_near(u, base, scale) if base is not None else _decode_skeleton(u, p)
        if vec is not None:
            _eval_candidate(p, vec, min_margin, scan)


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

def _grid_rows(budget: int) -> np.ndarray:
    n = 1
    while (n + 1) ** 5 <= budget:
        n += 1
    mids = (np.arange(n) + 0.5) / n
    grids = np.meshgrid(*([mids] * 5), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def _refine(p, vec0, budget, min_margin, scan: _Scan,
            step0: float = 0.05, step_floor: float = 1e-9):
    """Greedy coordinate descent on the maximin margin.

    Multiplicative trial steps v -> v (1 +- h) per coordinate, first
    improvement accepted; h is halved (the bisection) whenever a full
    sweep yields none.  Every probe is a budgeted corner evaluation and
    feeds the shared hit/near-miss pool.
    """
    best = _eval_candidate(p, vec0, min_margin, scan)
    if best is None:
        return
    vec = tuple(float(v) for v in vec0)
    h = step0
    while scan.evaluated < budget and h > step_floor:
        improved = False
        for i in range(5):
            for sgn in (1.0, -1.0):
                if scan.evaluated >= budget:
                    return
                trial = list(vec)
                trial[i] = vec[i] * (1.0 + sgn * h)
                margin = _eval_candidate(p, tuple(trial), min_margin, scan)
                if margin is not None and margin > best:
                    best, vec = margin, tuple(trial)
                    improved = True
        if not improved:
            h *= 0.5


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    """Ranked passing boxes with certificates; sequence of (Box, Certificate).

    ``len(result) == 0`` is a valid outcome, in which case ``near_miss``
    points at the closest failed candidate.
    """

    hits: tuple        # ((Box, Certificate), ...)
    margins: tuple     # maximin H2..H5 corner margin per hit
    params: Params
    strategy: str
    seed: int | None
    budget: int
    evaluated: int
    engine: str
    scale: float
    near: Box | None
    near_miss: NearMiss | None
    note: str = ""

    def __len__(self) -> int:
        return len(self.hits)

    def __iter__(self):
        return iter(self.hits)

    def __getitem__(self, i):
        return self.hits[i]

    @property
    def boxes(self) -> tuple:
        return tuple(b for b, _ in self.hits)

    @property
    def best(self):
        """Top-ranked (Box, Certificate) pair, or None when empty."""
        return self.hits[0] if self.hits else None

    def header_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "box-search",
            "strategy": self.strategy,
            "seed": self.seed,
            "budget": self.budget,
            "evaluated": self.evaluated,
            "engine": self.engine,
            "scale": self.scale,
            "near": self.near.as_dict() if self.near is not None else None,
            "params": self.params.as_dict(),
            "hits": len(self.hits),
        }

    def to_json_lines(self, path_or_file) -> None:
        """One JSON object per line: run header, ranked hits, summary."""
        with open_sink(path_or_file) as fh:
            self._write_lines(fh)

    def _write_lines(self, fh) -> None:
        fh.write(dumps17(self.header_dict()) + "\n")
        for rank, ((b, cert), margin) in enumerate(zip(self.hits, self.margins), start=1):
            fh.write(dumps17({
                "kind": "hit",
                "rank": rank,
                "margin": margin,
                "verdict": cert.verdict,
                "box": b.as_dict(),
                "conditions": [
                    {"id": r.cid, "status": r.status, "margin": r.margin}
                    for r in cert.conditions
                ],
            }) + "\n")
        fh.write(dumps17({
            "kind": "summary",
            "hits": len(self.hits),
            "near_miss": self.near_miss.as_dict() if self.near_miss else None,
            "note": self.note,
        }) + "\n")


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def search_boxes(
    p: Params,
    strategy: str = "random",
    budget: int = 10_000,
    *,
    near: Box | None = None,
    scale: float = 0.1,
    seed: int | None = 0,
    engine: str = "analytic",
    tol: float = 1e-8,
    max_hits: int = 5,
    min_margin: float = DEFAULT_MIN_MARGIN,
    certify_budget: int = 10**6,
    threads: int = 1,
) -> SearchResult:
    """Search for boxes passing the full chaos certificate at ``p``.

    ``budget`` caps the number of corner evaluations.  ``near`` recentres
    the search on multiplicative perturbations (relative half-width
    ``scale``) of an existing box, which must sit on the exit plane
    z = 0.  The ``max_hits`` best corner-passing candidates are handed to
    :func:`certify_box` under ``engine``; only full passes are returned,
    ranked by (margin, lexicographic bounds).  ``threads`` is accepted and
    has no effect; it must be at least 1.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; known: {_STRATEGIES}")
    if not isinstance(budget, int) or budget <= 0:
        raise ValueError(f"budget must be a positive integer, got {budget!r}")
    if near is not None and near.z_l != 0.0:
        raise ValueError("the search space pins z_l = 0; `near` must sit on the exit plane")
    if not (0.0 < scale < 1.0):
        raise ValueError(f"scale must lie in (0, 1), got {scale}")
    if engine not in ("analytic", "interval", "both"):
        raise ValueError(f"unknown engine {engine!r}")
    if max_hits < 1:
        raise ValueError(f"max_hits must be at least 1, got {max_hits}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")

    base = _vec_of(near) if near is not None else None
    scan = _Scan()
    note = ""

    if strategy == "grid":
        _scan_rows(p, _grid_rows(budget), base, scale, min_margin, scan)
    elif strategy == "random":
        rng = np.random.default_rng(seed)
        _scan_rows(p, rng.random((budget, 5)), base, scale, min_margin, scan)
    else:
        if base is not None:
            start, climb_budget = base, budget
        else:
            boot = budget // 2
            if boot > 0:
                rng = np.random.default_rng(seed)
                _scan_rows(p, rng.random((boot, 5)), None, scale, min_margin, scan)
            pool = scan.hits or ([] if scan.miss is None else [(scan.miss.margin, scan.miss.box)])
            if not pool:
                why = ("refine without a seed box needs budget >= 2 for its bootstrap pass"
                       if boot == 0 else
                       "no evaluable candidate: the parameter geometry leaves no window")
                return SearchResult(
                    hits=(), margins=(), params=p, strategy=strategy, seed=seed,
                    budget=budget, evaluated=scan.evaluated, engine=engine, scale=scale,
                    near=near, near_miss=None, note=why,
                )
            start = _vec_of(max(pool, key=lambda t: t[0])[1])
            climb_budget = budget
        _refine(p, start, climb_budget, min_margin, scan)

    if base is None and scan.evaluated == 0 and strategy != "refine":
        note = "parameter geometry admits no candidate window (1/(4 c2) >= 1/(4 c1))"

    ranked = sorted(scan.hits, key=lambda t: (-t[0], t[1].as_tuple()))
    pairs, margins, dropped = [], [], 0
    for margin, b in ranked[:max_hits]:
        cert = certify_box(p, b, engine=engine, tol=tol,
                           min_margin=min_margin, budget=certify_budget)
        if cert.passed:
            pairs.append((b, cert))
            margins.append(margin)
        else:
            dropped += 1
    if dropped:
        extra = f"{dropped} corner-passing candidate(s) failed full certification"
        note = f"{note}; {extra}" if note else extra

    return SearchResult(
        hits=tuple(pairs),
        margins=tuple(margins),
        params=p,
        strategy=strategy,
        seed=seed,
        budget=budget,
        evaluated=scan.evaluated,
        engine=engine,
        scale=scale,
        near=near,
        near_miss=scan.miss,
        note=note,
    )
