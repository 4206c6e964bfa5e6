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
together with the condition that killed it, and ``killed_by`` counts, per
sub-inequality (H2a ... H5e), the candidates it killed.

Candidates are never judged one object at a time.  Unit-cube rows are
decoded in chunks of 16384 as (n, 5) arrays; ``_judge`` evaluates the
H inequalities of :func:`triopoly.certificate.h_inequalities` (the same
definition ``check_H`` builds its records from) over the whole chunk and
replays the record, rank and binding-failure rules of ``check_H`` per
row, bit for bit; ``_Scan.absorb`` folds the verdicts in row order into
the hit list, the two near-miss slots and the kill counts.  ``Box`` and
``NearMiss`` objects are built only for hits and slot winners, and
certificates only for the ``max_hits`` hits that ``certify_box``
re-judges.  The refine climb is sequential; it ranks the probes it
would make until the next improvement in growing blocks (``_ranks``,
the rank part of ``_judge``), and judges and folds the ones it reached
in large blocks afterwards.

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

from .boxes import Box
from .certificate import DEFAULT_MIN_MARGIN, SCHEMA_VERSION, certify_box, h_inequalities
from .core import Params
from .jsonio import dumps17, open_sink

__all__ = ["NearMiss", "SearchResult", "search_boxes", "RANK_IDS"]

# H1 is an equality pinned by construction; ranking uses the inequalities.
RANK_IDS = ("H2", "H3", "H4", "H5")

_PAD = 1e-9          # interior padding for open windows
_CHUNK = 16384       # rows decoded and judged per array pass
_FIRST_BLOCK = 32    # refine probes ranked in the first block after an improvement
_STRATEGIES = ("grid", "random", "refine")


# ---------------------------------------------------------------------------
# candidate vectors
# ---------------------------------------------------------------------------

def _vec_of(b: Box) -> tuple[float, ...]:
    return (b.x_l, b.x_r - b.x_l, b.y_l, b.y_r - b.y_l, b.z_r)


def _box_of(vec) -> Box:
    """The Box of a candidate row already judged valid."""
    x_l, wx, y_l, wy, z_r = (float(v) for v in vec)
    return Box(x_l=x_l, x_r=x_l + wx, y_l=y_l, y_r=y_l + wy, z_l=0.0, z_r=z_r)


def _lerp(lo, hi, u):
    return lo + (hi - lo) * u


def _decode_near(u: np.ndarray, base: np.ndarray, scale: float) -> np.ndarray:
    return np.asarray(base) * (1.0 + scale * (2.0 * u - 1.0))


def _decode_skeleton(u: np.ndarray, p: Params) -> np.ndarray | None:
    """Map (n, 5) unit-cube rows to candidates honouring the corner skeleton.

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

    Every row runs the same float operations in the same order; the
    clamps of closed windows are ``np.where`` selections.  Returns None
    only when the parameter geometry admits no window at all.
    """
    B = 1.0 / p.c1
    A = 0.25 / p.c2
    if A >= 0.25 * B:
        return None
    u0, u1, u2, u3, u4 = u.T
    x_l = _lerp(A, 0.25 * B, u0)
    x_r = _lerp(np.maximum(x_l, 0.25 * B), 0.5 * B, u1)

    root = np.sqrt(np.maximum(0.0, B - 4.0 * x_l))
    t_lo = 0.5 * (math.sqrt(B) - root)
    t_hi = 0.5 * (math.sqrt(B) + root)
    # the H5 preimage bound can never exceed 1/(4 c2), so larger y_l is dead
    lo = np.maximum(t_lo * t_lo, _PAD)
    hi = np.minimum(np.minimum(t_hi * t_hi, 0.5 * B - x_r), 0.25 / p.c2 - _PAD)
    y_l = np.where(hi > lo, _lerp(lo, hi, u2), 0.5 * (lo + hi))
    y_l = np.where(y_l <= 0.0, _PAD, y_l)

    s_ll = x_l + y_l
    q_reentry = p.alpha / (p.alpha * p.c3 + 1.0)
    if p.alpha * p.c3 > 1.0:
        floor = np.sqrt(p.alpha / (p.alpha * p.c3 - 1.0) * s_ll) - s_ll
    else:
        floor = 0.0
    c0 = np.maximum(_PAD, floor)
    psi = np.sqrt(x_l / p.c2) - x_l
    y_flo = np.maximum(np.maximum(y_l + _PAD, psi), 0.5 * B - x_l - s_ll + _PAD)
    with np.errstate(invalid="ignore"):     # NaN only in rows the clamp replaces
        t = 0.5 * (math.sqrt(q_reentry) + np.sqrt(q_reentry - 2.0 * c0))
    y_fhi = np.where(q_reentry > 2.0 * c0, t * t - x_r, y_flo)  # else empty: clamp
    # on inversion keep the mandatory lower bounds satisfied, so that the
    # contradiction surfaces in the z window
    y_r = np.where(y_fhi > y_flo, _lerp(y_flo, y_fhi, u3), y_flo)
    y_r = np.where(y_r <= y_l, y_l + _PAD, y_r)

    s_rr = x_r + y_r
    with np.errstate(invalid="ignore"):
        gamma = np.where(s_rr > 0.0, 2.0 * (np.sqrt(q_reentry * s_rr) - s_rr), 0.0)
    # level where the y_l preimage bound meets x_r + z (upper branch)
    t = 0.5 * (math.sqrt(1.0 / p.c2) + np.sqrt(np.maximum(0.0, 1.0 / p.c2 - 4.0 * y_l)))
    geo_lo = np.maximum(_PAD, 0.5 * B - x_l - y_r)
    geo_hi = np.minimum(np.minimum(np.minimum(s_ll, B - x_r - y_r),
                                   B - 2.0 * x_l - y_l - y_r), t * t - x_r)
    z_lo = np.maximum(geo_lo, floor)
    z_hi = np.minimum(geo_hi, gamma)
    # geometrically fine but killed by the escape/re-entry pair: probe the
    # midpoint of that pair clamped into the geometric window, so the
    # near-miss blames the conditions the parameters actually move
    z_r = np.where(z_hi > z_lo, _lerp(z_lo, z_hi, u4),
                   np.where(geo_hi > geo_lo,
                            np.minimum(np.maximum(0.5 * (floor + gamma), geo_lo), geo_hi),
                            0.5 * (geo_lo + geo_hi)))
    z_r = np.where(z_r <= 0.0, _PAD, z_r)
    return np.stack((x_l, x_r - x_l, y_l, y_r - y_l, z_r), axis=1)


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


_STATUS = ("pass", "fail", "inapplicable")


@dataclass(frozen=True)
class _Judged:
    """Per-row corner verdicts of one block of candidates."""

    valid: np.ndarray      # the row makes a Box
    rank: np.ndarray       # maximin H2..H5 margin, -inf when none is defined
    passed: np.ndarray     # every condition passes
    frontier: np.ndarray   # H4 and H5 pass: only H2/H3 can fail
    worst: np.ndarray      # index into RANK_IDS of the binding failure
    status: np.ndarray     # (4, n) _STATUS codes of H2..H5
    margin: np.ndarray     # (4, n) their record margins, where ``defined``
    defined: np.ndarray    # (4, n) the record has a margin (check_H: not None)
    kill: np.ndarray       # index into kill_ids of the sub-check that killed the row
    kill_ids: tuple


def _first_min(m: np.ndarray, ok: np.ndarray):
    """Per column of ``m``, the row that Python's ``min`` by value picks
    among the entries where ``ok``, and whether there is one.

    ``min`` takes the first entry and then only a strictly smaller one, so
    the first of equal values wins (0.0 and -0.0 are equal), a leading NaN
    stays and a later NaN never wins.  Only elementwise operations and
    reductions along the short axis are used.
    """
    k, n = m.shape
    rows = np.arange(k)[:, None]
    nan = np.isnan(m)
    any_nan = nan.any()
    if any_nan:
        first = np.minimum.reduce(np.where(ok, rows, k), axis=0)
        found = first < k
        first[~found] = 0
        lead = found & nan[first, np.arange(n)]
        ok = ok & ~nan
    clean = np.where(ok, m, np.inf)
    low = np.minimum.reduce(clean, axis=0)
    pick = np.minimum.reduce(np.where(ok & (clean == low), rows, k), axis=0)
    if any_nan:
        pick = np.where(lead, first, pick)
    else:
        found = pick < k
    return np.where(found, pick, 0), found


def _sub_checks(p: Params, cand: np.ndarray):
    """The H sub-checks of (n, 5) candidate rows, one atom per row of the
    (atoms, n) arrays.

    Returns ``(valid, atoms, m, undef)``: whether each row makes a Box,
    the atoms of :func:`h_inequalities` (ids and relations; their sides
    are dropped), lhs - rhs per atom and row, and where an atom is
    undefined (its square-root operand is negative).
    """
    n = len(cand)
    x_l, wx, y_l, wy, z_r = cand.T
    with np.errstate(all="ignore"):
        x_r = x_l + wx
        y_r = y_l + wy
        # Box's rules with z_l = 0; 0 < z_r / 2 is its split rule z_l < z_mid < z_r
        valid = (np.isfinite(np.stack((x_l, x_r, y_l, y_r, z_r))).all(axis=0)
                 & (x_l < x_r) & (y_l < y_r) & (0.0 < 0.5 * z_r))
        atoms, operands = h_inequalities(p, x_l, x_r, y_l, y_r, 0.0, z_r, np.sqrt)
        negative = {k: v < 0.0 for k, v in operands.items()}
        never = np.zeros(n, dtype=bool)
        undef = np.array([never if a[6] is None else negative[a[6]] for a in atoms])
        m = np.array([lhs - rhs for _, _, _, lhs, rhs, _, _ in atoms])
    return valid, [a[:3] for a in atoms], m, undef


def _records(atoms) -> list:
    """(index into RANK_IDS, slice of its atoms) of each H record with atoms."""
    cids = [a[0] for a in atoms]
    return [(k, slice(cids.index(cid), cids.index(cid) + cids.count(cid)))
            for k, cid in enumerate(RANK_IDS) if cid in cids]


def _record_margins(atoms, m: np.ndarray, undef: np.ndarray):
    """Each record's margin, whether it has one, and each row's rank.

    A record's margin is that of the first smallest of its defined
    sub-checks (``min`` by key); the rank is ``min`` over the records'
    margins, -inf when no record has one.
    """
    n = m.shape[1]
    cols = np.arange(n)
    margin = np.full((len(RANK_IDS), n), np.nan)
    has = np.zeros((len(RANK_IDS), n), dtype=bool)
    for k, sl in _records(atoms):
        i, has[k] = _first_min(m[sl], ~undef[sl])
        margin[k] = m[sl][i, cols]
    i, ranked = _first_min(margin, has)
    return margin, has, np.where(ranked, margin[i, cols], -np.inf)


def _ranks(p: Params, cand: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``valid`` and ``rank`` of ``_judge``, without the pass/fail verdicts."""
    valid, atoms, m, undef = _sub_checks(p, cand)
    return valid, _record_margins(atoms, m, undef)[2]


def _judge(p: Params, cand: np.ndarray, min_margin: float) -> _Judged:
    """Judge (n, 5) candidate rows against the H layer in one array pass.

    Replays ``check_H`` and the scalar ranking rules row by row, ties and
    NaN included: each record's margin is that of the first smallest of its
    defined sub-checks (``min`` by key), the rank is ``min`` over the
    records' margins, and the binding failure is the first non-passing
    record, replaced only by a later one with a strictly smaller margin.
    The sub-check that killed a row is the failing one with the smallest
    margin inside its binding failure (an undefined one when none failing
    has a margin; "H2" itself when H2 is inapplicable).
    """
    valid, atoms, m, undef = _sub_checks(p, cand)
    n = len(cand)
    cols = np.arange(n)
    strict = np.array([a[2] == ">" for a in atoms])[:, None]
    with np.errstate(invalid="ignore"):
        good = ~undef & np.where(strict, m > min_margin, m >= 0.0)
    margin, has, rank = _record_margins(atoms, m, undef)
    status = np.full((len(RANK_IDS), n), 2)      # H2 stays inapplicable without atoms
    kill = np.zeros((len(RANK_IDS), n), dtype=np.intp)
    for k, sl in _records(atoms):
        status[k] = np.where(good[sl].all(axis=0), 0, 1)
        i, failed = _first_min(m[sl], ~undef[sl] & ~good[sl])
        kill[k] = 1 + sl.start + np.where(failed, i, undef[sl].argmax(axis=0))

    nonpass = status != 0
    w, w_any = _first_min(margin, nonpass & has)
    worst = np.where(w_any, w, nonpass.argmax(axis=0))
    return _Judged(
        valid=valid,
        rank=rank,
        passed=~nonpass.any(axis=0),
        frontier=~nonpass[2] & ~nonpass[3],
        worst=worst,
        status=status,
        margin=margin,
        defined=has,
        kill=kill[worst, cols],
        kill_ids=("H2",) + tuple(a[1] for a in atoms),
    )


def _slot_row(rank: np.ndarray, rows: np.ndarray, slot: NearMiss | None) -> int | None:
    """Row that ends up in a near-miss slot after offering it ``rows`` in order.

    The slot takes its first offer and then changes only on a strictly
    larger margin, so the first row wins ties and a NaN never replaces
    anything (nor is replaced).  Returns None when the slot keeps ``slot``.
    """
    idx = np.flatnonzero(rows)
    if idx.size == 0:
        return None
    best, winner = (slot.margin, None) if slot is not None else (rank[idx[0]], idx[0])
    if math.isnan(best):
        return winner
    m = rank[idx]
    k = int(np.argmax(np.where(np.isnan(m), -np.inf, m)))
    return idx[k] if m[k] > best else winner


@dataclass
class _Scan:
    """Accumulator for the corner evaluations of one search.

    Two near-miss slots: ``frontier`` holds the best candidate whose only
    failures are the parameter-driven escape/re-entry pair (H2, H3), and
    ``fallback`` the best overall.  Reporting prefers the frontier one:
    a candidate that flunks the parameter-independent geometry says
    nothing about what moving alpha would change.  ``killed`` counts the
    sub-check that killed each failed candidate, by ``kill_ids``.
    """

    p: Params
    min_margin: float
    hits: list = field(default_factory=list)      # (margin, Box)
    frontier: NearMiss | None = None
    fallback: NearMiss | None = None
    evaluated: int = 0
    kill_ids: tuple = ()
    killed: np.ndarray | None = None

    @property
    def miss(self) -> NearMiss | None:
        return self.frontier if self.frontier is not None else self.fallback

    def judge(self, cand: np.ndarray) -> _Judged:
        return _judge(self.p, cand, self.min_margin)

    def absorb(self, cand: np.ndarray, j: _Judged, upto: int | None = None) -> None:
        """Fold the first ``upto`` (default: all) judged rows in row order."""
        rows = j.valid if upto is None else j.valid & (np.arange(len(cand)) < upto)
        self.evaluated += int(np.count_nonzero(rows))
        for i in np.flatnonzero(rows & j.passed):
            self.hits.append((float(j.rank[i]), _box_of(cand[i])))
        failed = rows & ~j.passed
        i = _slot_row(j.rank, failed & j.frontier, self.frontier)
        if i is not None:
            self.frontier = self._near_miss(cand, j, i)
        i = _slot_row(j.rank, failed, self.fallback)
        if i is not None:
            self.fallback = self._near_miss(cand, j, i)
        counts = np.bincount(j.kill[failed], minlength=len(j.kill_ids))
        if self.killed is None:
            self.kill_ids, self.killed = j.kill_ids, counts
        else:
            self.killed += counts

    @staticmethod
    def _near_miss(cand, j: _Judged, i: int) -> NearMiss:
        w = j.worst[i]
        return NearMiss(box=_box_of(cand[i]), margin=float(j.rank[i]),
                        violated=RANK_IDS[w], status=_STATUS[j.status[w, i]])

    def killed_by(self) -> dict:
        if self.killed is None:
            return {}
        return {sid: int(c) for sid, c in zip(self.kill_ids, self.killed) if c}


def _scan_rows(rows: np.ndarray, base, scale: float, scan: _Scan) -> None:
    """Decode unit-cube rows into candidates and fold them into ``scan``,
    one chunk of rows at a time."""
    for start in range(0, len(rows), _CHUNK):
        block = rows[start:start + _CHUNK]
        cand = _decode_near(block, base, scale) if base is not None else _decode_skeleton(block, scan.p)
        if cand is None:
            return
        scan.absorb(cand, scan.judge(cand))


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


def _refine(vec0, budget, scan: _Scan, step0: float = 0.05, step_floor: float = 1e-9):
    """Greedy coordinate descent on the maximin margin.

    Multiplicative trial steps v -> v (1 +- h) per coordinate, first
    improvement accepted; h is halved (the bisection) whenever a full
    sweep yields none.  Every probe is a budgeted corner evaluation and
    feeds the shared hit/near-miss pool.

    The climb is sequential, but until something improves its next
    probes are known: the rest of the sweep, then full sweeps at halved
    steps down to the floor.  It ranks them in blocks that start at
    ``_FIRST_BLOCK`` rows and double, up to the first improvement within
    the budget, and starts again from the improved vector.  Only the
    rank decides the climb, so the probes it reached are judged and
    folded into ``scan`` later, in row order, ``_CHUNK`` rows at a time.
    """
    cand = np.array([vec0], dtype=float)
    j = scan.judge(cand)
    scan.absorb(cand, j)
    if not j.valid[0]:
        return
    vec, best = cand[0], j.rank[0]
    evaluated = scan.evaluated      # with the reached probes not yet folded
    queue, queued = [], 0           # those probes, in order
    h, t0, improved = step0, 0, False     # next trial t: coordinate t // 2, sign (+, -)[t % 2]
    while True:
        steps, hh, imp = [], h, improved  # h of each sweep while nothing improves
        while hh > step_floor:
            steps.append(hh)
            hh, imp = (hh if imp else 0.5 * hh), False
        if not steps:
            break
        t = np.concatenate([np.arange(t0, 10), np.tile(np.arange(10), len(steps) - 1)])
        step = np.concatenate([np.full(10 - t0, steps[0]), np.repeat(steps[1:], 10)])
        lo, size, r = 0, _FIRST_BLOCK, None
        while r is None and lo < len(t):
            tb, sb = t[lo:lo + size], step[lo:lo + size]
            trials = np.repeat(vec[None, :], len(tb), axis=0)
            trials[np.arange(len(tb)), tb // 2] = vec[tb // 2] * (1.0 + np.where(tb % 2, -1.0, 1.0) * sb)
            valid, rank = _ranks(scan.p, trials)
            before = evaluated + np.cumsum(valid) - valid
            reached = int(np.count_nonzero(before < budget))
            better = np.flatnonzero(valid[:reached] & (rank[:reached] > best))
            upto = int(better[0]) + 1 if better.size else reached
            queue.append(trials[:upto])
            queued += upto
            evaluated += int(np.count_nonzero(valid[:upto]))
            if queued >= _CHUNK:
                _fold(scan, queue)
                queued = 0
            if better.size:
                r = upto - 1
            elif reached < len(trials):
                break
            lo, size = lo + size, 2 * size
        if r is None:
            break
        vec, best, h = trials[r], rank[r], float(sb[r])
        t0, improved = (int(tb[r]) + 1, True) if tb[r] < 9 else (0, False)
    _fold(scan, queue)


def _fold(scan: _Scan, queue: list) -> None:
    """Judge the queued candidate blocks and fold them into ``scan`` in
    order, ``_CHUNK`` rows at a time; empties the queue."""
    if not queue:
        return
    rows = np.concatenate(queue)
    queue.clear()
    for lo in range(0, len(rows), _CHUNK):
        block = rows[lo:lo + _CHUNK]
        scan.absorb(block, scan.judge(block))


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SearchResult:
    """Ranked passing boxes with certificates; sequence of (Box, Certificate).

    ``len(result) == 0`` is a valid outcome, in which case ``near_miss``
    points at the closest failed candidate.  ``killed_by`` maps each
    sub-inequality id that killed a candidate to the number it killed:
    the failing sub-check with the smallest margin inside the candidate's
    binding failure ("H2" when H2 is inapplicable).  It is a readout of
    the run and is not written to the JSON lines.
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
    killed_by: dict = field(default_factory=dict)   # sub-check id -> failed candidates

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
    scan = _Scan(p, min_margin)
    note = ""

    if strategy == "grid":
        _scan_rows(_grid_rows(budget), base, scale, scan)
    elif strategy == "random":
        rng = np.random.default_rng(seed)
        _scan_rows(rng.random((budget, 5)), base, scale, scan)
    else:
        if base is not None:
            start, climb_budget = base, budget
        else:
            boot = budget // 2
            if boot > 0:
                rng = np.random.default_rng(seed)
                _scan_rows(rng.random((boot, 5)), None, scale, scan)
            pool = scan.hits or ([] if scan.miss is None else [(scan.miss.margin, scan.miss.box)])
            if not pool:
                why = ("refine without a seed box needs budget >= 2 for its bootstrap pass"
                       if boot == 0 else
                       "no evaluable candidate: the parameter geometry leaves no window")
                return SearchResult(
                    hits=(), margins=(), params=p, strategy=strategy, seed=seed,
                    budget=budget, evaluated=scan.evaluated, engine=engine, scale=scale,
                    near=near, near_miss=None, note=why, killed_by=scan.killed_by(),
                )
            start = _vec_of(max(pool, key=lambda t: t[0])[1])
            climb_budget = budget
        _refine(start, climb_budget, scan)

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
        killed_by=scan.killed_by(),
    )
