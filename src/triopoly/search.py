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
row, bit for bit: each ``min`` is one ordered pass that offers a record's
atoms, or the four record margins, a whole array row at a time
(``_first_min``).  ``_Scan.absorb`` folds the verdicts in row order into
the hit list, the two near-miss slots and the kill counts.  ``Box`` and
``NearMiss`` objects are built only for hits and slot winners, and
certificates only for the ``max_hits`` hits that ``certify_box``
re-judges.  The refine climb is sequential: it ranks one probe at a
time in plain floats (``_rank``, which gives the bits of ``_judge``'s
rank), and the probes it made are judged and folded in row order
afterwards, ``_CHUNK`` rows at a time.

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
from itertools import islice

import numpy as np

from .boxes import Box
from .certificate import (
    DEFAULT_MIN_MARGIN, SCHEMA_VERSION, _check_tol, _sqrt_or_nan, certify_box, h_inequalities,
)
from .core import Params
from .jsonio import dumps17, open_sink

__all__ = ["NearMiss", "SearchResult", "search_boxes", "RANK_IDS"]

# H1 is an equality pinned by construction; ranking uses the inequalities.
RANK_IDS = ("H2", "H3", "H4", "H5")

_PAD = 1e-9          # interior padding for open windows
_CHUNK = 16384       # rows decoded and judged per array pass
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
    kill: np.ndarray       # index into kill_ids of the sub-check that killed the row
    kill_ids: tuple


def _first_min(m: np.ndarray, ok: np.ndarray, rows: bool = True):
    """Per column of ``m``, what Python's ``min`` by value picks among the
    entries where ``ok``: its row (None unless ``rows``: a masked write per
    row), its value (-inf when there is none) and whether there is one.

    The entries are offered in row order: the first is taken, then only a
    strictly smaller one, so the first of equal values wins (0.0 and -0.0
    are equal), a leading NaN stays and a later NaN never wins.
    """
    n = m.shape[1]
    pick = np.zeros(n, dtype=np.intp) if rows else None
    low = np.full(n, -np.inf)
    none = np.ones(n, dtype=bool)
    for r, (row, offered) in enumerate(zip(m, ok)):
        take = (row < low) | none
        take &= offered
        np.copyto(low, row, where=take)
        if rows:
            np.copyto(pick, r, where=take)
        none &= ~offered
    return pick, low, ~none


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
    inf = np.inf
    with np.errstate(all="ignore"):
        x_r = x_l + wx
        y_r = y_l + wy
        z_mid = 0.5 * z_r
        # the chained comparisons of ``_rank``: Box's rules with z_l = 0
        valid = ((-inf < x_l) & (x_l < x_r) & (x_r < inf) & (-inf < y_l) & (y_l < y_r)
                 & (y_r < inf) & (0.0 < z_mid) & (z_mid < inf))
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


def _record_verdicts(atoms, m: np.ndarray, undef: np.ndarray):
    """Each H record's margin, whether it has one and its status code, as
    (4, n) arrays in ``RANK_IDS`` order, and whether each atom passes.

    A record's margin is ``min`` over its defined sub-checks, taken by one
    ordered pass over its atoms (``_first_min``).  A record without atoms
    (H2 when alpha*c3 <= 1) stays inapplicable.
    """
    n = m.shape[1]
    # lhs - rhs > DEFAULT_MIN_MARGIN is lhs - rhs >= the next float above it
    floor = np.array([np.nextafter(DEFAULT_MIN_MARGIN, np.inf) if a[2] == ">" else 0.0
                      for a in atoms])
    defined = ~undef
    with np.errstate(invalid="ignore"):
        good = defined & (m >= floor[:, None])
    margin = np.full((len(RANK_IDS), n), -np.inf)
    has = np.zeros((len(RANK_IDS), n), dtype=bool)
    status = np.full((len(RANK_IDS), n), 2)
    for k, sl in _records(atoms):
        _, margin[k], has[k] = _first_min(m[sl], defined[sl], rows=False)
        status[k] = np.where(good[sl].all(axis=0), 0, 1)
    return margin, has, status, good


def _rank(p: Params, vec) -> float | None:
    """``_judge``'s rank of one candidate row, in plain floats; None when
    the row makes no Box (the ``valid`` rule of ``_sub_checks``).

    Each record's margin is ``min`` over its defined lhs - rhs (a negative
    square-root operand leaves an atom undefined, as in ``check_H``) and
    the rank is ``min`` over the records, -inf when none has a margin:
    the rules that ``_judge`` replays over arrays.
    """
    x_l, wx, y_l, wy, z_r = map(float, vec)
    x_r, y_r = x_l + wx, y_l + wy
    inf = math.inf
    if not (-inf < x_l < x_r < inf and -inf < y_l < y_r < inf and 0.0 < 0.5 * z_r < inf):
        return None
    atoms, operands = h_inequalities(p, x_l, x_r, y_l, y_r, 0.0, z_r, _sqrt_or_nan)
    margins = {}
    for cid, _, _, lhs, rhs, _, root in atoms:
        if root is None or not operands[root] < 0.0:
            m = lhs - rhs
            if cid not in margins or m < margins[cid]:     # ``min``: the first wins ties
                margins[cid] = m
    return min(margins.values()) if margins else -inf


def _judge(p: Params, cand: np.ndarray) -> _Judged:
    """Judge (n, 5) candidate rows against the H layer in one array pass.

    Replays ``check_H`` and the scalar ranking rules row by row, ties and
    NaN included, with ordered ``min`` passes (``_first_min``): a record's
    margin is the first smallest of its defined sub-checks, the rank the
    first smallest record margin, the binding failure the first smallest
    among the non-passing records with a margin (else the first of them),
    and the kill the first smallest failing sub-check inside the binding
    failure ("H2" itself when H2 is inapplicable).  Only records that bind
    some row are searched for their kill.
    """
    valid, atoms, m, undef = _sub_checks(p, cand)
    margin, has, status, good = _record_verdicts(atoms, m, undef)
    _, rank, _ = _first_min(margin, has, rows=False)
    nonpass = status != 0
    w, _, w_any = _first_min(margin, nonpass & has)
    worst = np.where(w_any, w, nonpass.argmax(axis=0))
    kill = np.zeros(len(cand), dtype=np.intp)     # "H2" itself when H2 has no atoms
    for k, sl in _records(atoms):
        binds = nonpass[k] & (worst == k)
        if binds.any():
            i, _, _ = _first_min(m[sl], ~undef[sl] & ~good[sl])
            kill = np.where(binds, 1 + sl.start + i, kill)
    return _Judged(
        valid=valid,
        rank=rank,
        passed=~nonpass.any(axis=0),
        frontier=~nonpass[2] & ~nonpass[3],
        worst=worst,
        status=status,
        kill=kill,
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
        return _judge(self.p, cand)

    def absorb(self, cand: np.ndarray, j: _Judged) -> None:
        """Fold the judged rows in row order."""
        self.evaluated += int(np.count_nonzero(j.valid))
        for i in np.flatnonzero(j.valid & j.passed):
            self.hits.append((float(j.rank[i]), _box_of(cand[i])))
        failed = j.valid & ~j.passed
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


def _climb(p: Params, vec0, budget: int):
    """The probes of a greedy coordinate climb on the rank that make a
    Box, in order: the start (none if it makes no Box), then trials until
    ``budget`` probes are made or the step reaches its floor.

    Multiplicative trial steps v -> v (1 +- h) per coordinate, first
    improvement accepted; h starts at 0.05 and is halved (the bisection)
    whenever a full sweep yields none, down to a floor of 1e-9.
    """
    vec = [float(v) for v in vec0]
    best = _rank(p, vec)
    if best is None:
        return
    yield vec
    made, h = 1, 0.05
    while made < budget and h > 1e-9:
        improved = False
        for t in range(10):     # coordinate t // 2, sign (+, -)[t % 2]
            if made >= budget:
                return
            trial = vec.copy()
            trial[t // 2] = vec[t // 2] * (1.0 + (h, -h)[t % 2])
            rank = _rank(p, trial)
            if rank is None:
                continue
            yield trial
            made += 1
            if rank > best:
                vec, best, improved = trial, rank, True
        if not improved:
            h *= 0.5


def _refine(vec0, budget: int, scan: _Scan) -> None:
    """Climb from ``vec0`` until ``scan`` has evaluated ``budget``
    candidates or the step reaches its floor (``_climb``).

    The climb ranks one probe at a time in plain floats (``_rank``); the
    probes feed the shared hit/near-miss pool, judged and folded into
    ``scan`` in order, ``_CHUNK`` rows at a time.
    """
    probes = _climb(scan.p, vec0, budget - scan.evaluated)
    while block := list(islice(probes, _CHUNK)):
        rows = np.array(block)
        scan.absorb(rows, scan.judge(rows))


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
    _check_tol(tol)
    if max_hits < 1:
        raise ValueError(f"max_hits must be at least 1, got {max_hits}")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")

    base = _vec_of(near) if near is not None else None
    scan = _Scan(p)
    note = ""

    if strategy == "grid":
        _scan_rows(_grid_rows(budget), base, scale, scan)
    elif strategy == "random":
        rng = np.random.default_rng(seed)
        _scan_rows(rng.random((budget, 5)), base, scale, scan)
    else:
        start = base
        if base is None:
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
        _refine(start, budget, scan)

    if base is None and scan.evaluated == 0 and strategy != "refine":
        note = "parameter geometry admits no candidate window (1/(4 c2) >= 1/(4 c1))"

    ranked = sorted(scan.hits, key=lambda t: (-t[0], t[1].as_tuple()))
    pairs, margins, dropped = [], [], 0
    for margin, b in ranked[:max_hits]:
        cert = certify_box(p, b, engine=engine, tol=tol)
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
