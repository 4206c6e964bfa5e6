"""Horseshoe structure on a certified box.

The box R, oriented along z, is cut at the midplane into halves R0 and R1.
The sets K_i = {s in R_i : F(s) in R} are what the stretching argument
actually uses; this module builds rigorous grid covers of them, checks the
stretching behaviour along explicit sampled paths, and names the fixed
point inside each half.  The map has exactly two fixed points on its
domain, both in closed form (``core.fixed_points``), so no solver is
needed: each half gets the closed form that lies in it.

Covers are computed by exclusion: a grid cell is dropped only when a
rigorous enclosure of F3 over it misses [z_l, z_r] (so no point of the
cell can map back into R).  Only the z-coordinate is tested because a
point of R can leave R only along z: on a certified box C4 and C5 put F1
and F2 of every point of R inside [x_l, x_r] and [y_l, y_r].  A cell near
the decision boundary is split into eight, depth first, ``_CHUNK // 8``
cells at a time; it is kept when a sub-cell is (its centre or a corner
maps strictly inside R, or at the last level its F3 enclosure meets
[z_l, z_r]) and dropped when every sub-cell is excluded.  Everything
kept is therefore a genuine cover; the interesting empirical fact, which
the tests pin down, is that the boundary layer below the midplane drops
out and the two covers end up disjoint, as the midplane condition predicts.

Every level is a lattice given by its edges, whose cells one constructor
builds (``_lattice_cells``): the grid at the top, and below it the
3 x 3 x 3 lattice of each split cell.  Both tests run cheap-first to the
same answer.  The sample-point test evaluates F3 alone, once at each
lattice vertex and once at each cell centre, so a corner shared by eight
cells is formed once; the exclusion adds the mean-value form only where
the plain range of F3 meets [z_l, z_r] (the refined enclosure is the
plain one intersected with that form).  ``_kept_cells`` proves that a
sample point keeps only cells that the enclosures alone would keep.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .boxes import Box, HalfBoxes, OrientedBox
from .bounds import _batch_enclosures
# not called here, but perfbench's tracer patches it on this module
from .bounds import batch_image_enclosure  # noqa: F401
from .certificate import Certificate, certify_box
from .core import (
    Params, State, _f3_arrays, eval_map_arrays, eval_map_xyz, fixed_point_residual,
    fixed_points,
)
from .jsonio import write_csv

__all__ = [
    "KSetEnclosure",
    "PathSample",
    "StretchReport",
    "ConvergenceError",
    "build_K_enclosures",
    "check_path_stretching",
    "locate_fixed_point_in",
    "vertical_segment_path",
    "random_crossing_path",
]

RETAIN_MARGIN = 1e-9  # a sample point's float F3 this far inside [z_l, z_r]: keep the cell
MAX_SPLIT_DEPTH = 5
# cells per call of the enclosure kernels, which make dozens of
# temporaries per call, and rows per split call (``_CHUNK // 8`` parents).
# Only a grid's top level fills a call; at res 32 the split levels hold
# under 2 000 cells.  In cold benchmark passes 8192 peaked ~1 MB lower than
# 16384 in every pair and built covers ~2 % faster in most; warm res-64
# builds read ~3 % slower, inside their spread.  One call per level built
# res-64 covers ~15 % slower and peaked 16 MB higher, with the same bits.
# The top lattice is not chunked: its sample-point test holds a few floats
# per vertex and centre, 18 513 vertices and 16 384 centres for a res-32 half.
_CHUNK = 8192
# image samples per path segment when the stretching check brackets a crossing
_SAMPLES_PER_SEGMENT = 16


class ConvergenceError(RuntimeError):
    """Raised by ``locate_fixed_point_in`` when no closed-form fixed point
    in the requested half meets ``tol``; ``best_residual`` is the smallest
    residual among those in the half (inf when none lies there)."""

    def __init__(self, message: str, best_residual: float = math.inf):
        super().__init__(message)
        self.best_residual = best_residual


def _require_certified(p: Params, b: Box, cert: Certificate | None) -> Certificate:
    if cert is None:
        cert = certify_box(p, b, engine="analytic")
    if cert.params != p or cert.box != b:
        raise ValueError(
            "the certificate was made for other params or another box; "
            "the horseshoe construction needs this box's own certificate"
        )
    if not cert.passed:
        bad = [c.cid for c in cert.conditions if c.status != "pass"]
        raise ValueError(
            f"box is not certified (verdict {cert.verdict!r}, conditions {bad}); "
            "the horseshoe construction is only meaningful on certified boxes"
        )
    return cert


# ---------------------------------------------------------------------------
# K-set covers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KSetEnclosure:
    """Rigorous cover of K0 or K1 by axis-aligned cells.

    ``cells`` is an (m, 6) read-only array of [xl, xh, yl, yh, zl, zh] rows
    in deterministic (z, y, x) grid order.
    """

    cells: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.cells.setflags(write=False)

    @property
    def cell_count(self) -> int:
        return int(self.cells.shape[0])

    @property
    def is_empty(self) -> bool:
        return self.cell_count == 0

    @property
    def volume(self) -> float:
        if self.is_empty:
            return 0.0
        w = self.cells[:, 1::2] - self.cells[:, 0::2]
        return float(np.sum(np.prod(w, axis=1)))

    @property
    def hull(self) -> Box:
        if self.is_empty:
            raise ValueError("empty cover has no hull")
        c = self.cells
        return Box(
            float(c[:, 0].min()), float(c[:, 1].max()),
            float(c[:, 2].min()), float(c[:, 3].max()),
            float(c[:, 4].min()), float(c[:, 5].max()),
        )

    def contains_point(self, x: float, y: float, z: float) -> bool:
        c = self.cells
        if self.is_empty:
            return False
        inside = (
            (c[:, 0] <= x) & (x <= c[:, 1])
            & (c[:, 2] <= y) & (y <= c[:, 3])
            & (c[:, 4] <= z) & (z <= c[:, 5])
        )
        return bool(inside.any())

    def is_disjoint_from(self, other: "KSetEnclosure") -> bool:
        """True when no closed cell of self touches a closed cell of other."""
        if self.is_empty or other.is_empty:
            return True
        a, b = self.cells, other.cells
        # the covers live in z-separated half-boxes in the intended use, so
        # a one-dimensional gap usually settles it outright
        if a[:, 5].max() < b[:, 4].min() or b[:, 5].max() < a[:, 4].min():
            return True
        # otherwise test the pairs whose z-ranges overlap
        for row in a:
            zsel = (b[:, 4] <= row[5]) & (row[4] <= b[:, 5])
            if not zsel.any():
                continue
            cand = b[zsel]
            hit = (
                (cand[:, 0] <= row[1]) & (row[0] <= cand[:, 1])
                & (cand[:, 2] <= row[3]) & (row[2] <= cand[:, 3])
            )
            if hit.any():
                return False
        return True

    def to_csv(self, path_or_file) -> None:
        write_csv(path_or_file, ["x_lo", "x_hi", "y_lo", "y_hi", "z_lo", "z_hi"],
                  ([f"{v:.17g}" for v in row] for row in self.cells))


def _grid_edges(b: Box, nx: int, ny: int, z_lo: float, z_hi: float, nz: int) -> tuple:
    """The x, y and z edges of an nx x ny x nz grid of the box's x and y
    range and [z_lo, z_hi], as the (1, n+1) rows of one lattice (see
    ``_lattice_cells``)."""
    return tuple(np.linspace(lo, hi, n + 1)[None]
                 for lo, hi, n in ((b.x_l, b.x_r, nx), (b.y_l, b.y_r, ny), (z_lo, z_hi, nz)))


def _lattice_cells(xe: np.ndarray, ye: np.ndarray, ze: np.ndarray) -> np.ndarray:
    """The [xl, xh, yl, yh, zl, zh] rows of m lattices given by their
    (m, n+1) x, y and z edges, in (z, y, x) order, lattice by lattice: the
    cells ``_lattice_keep`` answers for."""
    out = np.empty((xe.shape[0], ze.shape[1] - 1, ye.shape[1] - 1, xe.shape[1] - 1, 6))
    out[..., 0], out[..., 1] = xe[:, None, None, :-1], xe[:, None, None, 1:]
    out[..., 2], out[..., 3] = ye[:, None, :-1, None], ye[:, None, 1:, None]
    out[..., 4], out[..., 5] = ze[:, :-1, None, None], ze[:, 1:, None, None]
    return out.reshape(-1, 6)


def _image_misses_box(p: Params, cells: np.ndarray, b: Box) -> np.ndarray:
    """True for cells whose F3 enclosure misses [z_l, z_r] (see ``_kept_cells``).

    The mean-value form, most of an enclosure's cost, runs only on the rows
    whose plain range meets [z_l, z_r]: a plain miss is a refined miss.
    """
    out = np.ones(cells.shape[0], dtype=bool)
    for i in range(0, cells.shape[0], _CHUNK):
        chunk = cells[i:i + _CHUNK]
        ((lo, hi),) = _batch_enclosures(p, chunk, ("F3",), refine=False)
        meets = np.flatnonzero(~((hi < b.z_l) | (lo > b.z_r)))
        ((lo, hi),) = _batch_enclosures(p, chunk[meets], ("F3",))
        out[i + meets] = (hi < b.z_l) | (lo > b.z_r)
    return out


def _halved_edges(cells: np.ndarray) -> tuple:
    """The 3 x 3 x 3 lattice (lo, mid, hi) of each row, as (m, 3) x, y and
    z edges: the lattice of its eight halves, which ``_lattice_cells``
    builds in (z, y, x) order."""
    lo, hi = cells[:, 0::2], cells[:, 1::2]
    e = np.stack([lo, 0.5 * (lo + hi), hi], axis=-1)
    return e[:, 0], e[:, 1], e[:, 2]


def _lattice_keep(p: Params, b: Box, xe: np.ndarray, ye: np.ndarray, ze: np.ndarray) -> np.ndarray:
    """True for cells with a sample point, the centre or a corner, whose
    float F3 lies in [z_l, z_r] by ``RETAIN_MARGIN``.

    ``xe``, ``ye`` and ``ze`` are (m, n+1) edge arrays of m lattices; the
    answer runs over their cells in (z, y, x) order, lattice by lattice.
    F3 is formed once at each lattice vertex, which up to eight cells
    share, and once at each cell centre.
    """
    def inside(x, y, z):
        fz = _f3_arrays(p, *np.broadcast_arrays(
            x[:, None, None, :], y[:, None, :, None], z[:, :, None, None]))
        return (b.z_l + RETAIN_MARGIN < fz) & (fz < b.z_r - RETAIN_MARGIN)

    v = inside(xe, ye, ze)
    # a cell's corners are the vertices at +0 and +1 along each axis
    v = v[:, :-1] | v[:, 1:]
    v = v[:, :, :-1] | v[:, :, 1:]
    v = v[..., :-1] | v[..., 1:]
    return (v | inside(*(0.5 * (e[:, :-1] + e[:, 1:]) for e in (xe, ye, ze)))).ravel()


def _kept_cells(p: Params, b: Box, edges: tuple, depth: int) -> np.ndarray:
    """The rows of the lattice ``edges`` that the cover keeps, in order; a
    row left out provably maps wholly outside the box.

    A depth-first split, ``depth`` levels deep.  Each call tests one set
    of lattices (``_lattice_cells``): the grid of ``edges``, or the
    3 x 3 x 3 lattices (``_halved_edges``) of up to ``_CHUNK // 8``
    parents, whose children come parent by parent, eight each.  The answer
    is that of the enclosures alone: a row whose F3 enclosure meets
    [z_l, z_r] is split, and kept when a child is kept or, at the last
    level, when it meets.  Cheap first, to the same answer: the plain range
    before the mean-value form, a filter that changes no mask, and above
    the last level a sample-point test at the lattices' vertices and cell
    centres (``_lattice_keep``) that keeps a row outright.  Alive at once:
    the top lattice plus at most ``MAX_SPLIT_DEPTH * _CHUNK`` split rows,
    one lattice set per open call, whatever the two tests leave open.

    Why a sample point keeps only rows the enclosures keep: let P, the
    centre or a corner of a row, have a float F3 inside
    [z_l + RETAIN_MARGIN, z_r - RETAIN_MARGIN].  The float F3 of a point
    of R is far closer than that margin to the true one (a few ulps of a
    number of order 1), so the true F3(P) lies in [z_l, z_r].  Every row
    that contains P has an outward F3 enclosure containing F3(P), so it
    meets and is split; one of its children contains P again.  So some
    row at the last level below it contains P and meets, and the row is
    kept at the latest there.

    Only F3 is enclosed.  Every cell lies in the certified box R, so C4
    and C5 give F1(cell) in [x_l, x_r] and F2(cell) in [y_l, y_r]; an
    enclosure contains that range, so an x- or y-test could never fire.
    And if one could, leaving it out only keeps more cells, which is still
    a sound cover.  For the same reason the sample points test F3 alone:
    C4 and C5 already put F1 and F2 of each point inside R.
    """
    def keep(cells, edges, depth):
        kept = _lattice_keep(p, b, *edges) if depth else np.zeros(cells.shape[0], dtype=bool)
        rows = np.flatnonzero(~kept)
        rows = rows[~_image_misses_box(p, cells[rows], b)]
        if depth == 0:
            kept[rows] = True
            return kept
        for i in range(0, rows.size, _CHUNK // 8):
            split = rows[i:i + _CHUNK // 8]
            sub = _halved_edges(cells[split])
            kept[split] = keep(_lattice_cells(*sub), sub, depth - 1).reshape(-1, 8).any(axis=1)
        return kept

    cells = _lattice_cells(*edges)
    return cells[keep(cells, edges, depth)]


def build_K_enclosures(
    p: Params,
    ob: OrientedBox,
    resolution: int,
    cert: Certificate | None = None,
) -> tuple[KSetEnclosure, KSetEnclosure]:
    """Grid covers of K0 and K1 at the given per-axis resolution.

    Each half-box gets its own z-slabs so the midplane is always a grid
    plane.  Requires a certified box: on anything else the construction
    would not mean anything, so it refuses.  A given ``cert`` must be the
    certificate of ``p`` and this box, since the exclusion test rests on
    this box's own C4 and C5.
    """
    if not isinstance(resolution, int) or resolution < 2:
        raise ValueError(f"resolution must be an integer >= 2, got {resolution!r}")
    _require_certified(p, ob.box, cert)
    b = ob.box
    nz_half = max(1, (resolution + 1) // 2)
    return tuple(
        KSetEnclosure(_kept_cells(
            p, b, _grid_edges(b, resolution, resolution, z0, z1, nz_half), MAX_SPLIT_DEPTH))
        for z0, z1 in ((b.z_l, b.z_mid), (b.z_mid, b.z_r)))


# ---------------------------------------------------------------------------
# paths and stretching
# ---------------------------------------------------------------------------

def _interpolate(ts, cols, t, i):
    """The path at t, on the segment that starts at knot i.

    One formula for floats (``ts`` and ``cols`` lists, ``i`` an int) and
    for arrays (``i`` an index array), to the same bits, so the grid
    samples and the bisection see the same path.
    """
    t0, t1 = ts[i], ts[i + 1]
    w = (t - t0) / (t1 - t0)
    return tuple((1.0 - w) * c[i] + w * c[i + 1] for c in cols)


@dataclass(frozen=True)
class PathSample:
    """Piecewise-linear path through sample points.

    ``ts`` is strictly increasing from 0 to 1; evaluation between samples
    interpolates linearly.  ``at_arrays`` evaluates many parameters in one
    call; ``at`` evaluates one on plain floats, for sequential bisection.
    Both clamp t to [0, 1] and give the same bits.
    """

    ts: np.ndarray
    points: np.ndarray
    # (ts, xs, ys, zs) as lists of floats, for the scalar ``at``
    _knots: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ts = np.asarray(self.ts, dtype=float)
        pts = np.asarray(self.points, dtype=float)
        if ts.ndim != 1 or pts.shape != (ts.size, 3):
            raise ValueError("need ts of shape (n,) and points of shape (n, 3)")
        if ts.size < 2 or ts[0] != 0.0 or ts[-1] != 1.0 or np.any(np.diff(ts) <= 0):
            raise ValueError("ts must increase strictly from 0 to 1")
        if not np.all(np.isfinite(pts)):
            raise ValueError("path points must be finite")
        object.__setattr__(self, "ts", ts)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_knots", (ts.tolist(), *pts.T.tolist()))

    def at(self, t: float) -> tuple[float, float, float]:
        ts, *cols = self._knots
        t = min(max(float(t), 0.0), 1.0)
        i = min(max(bisect_right(ts, t) - 1, 0), len(ts) - 2)
        return _interpolate(ts, cols, t, i)

    def at_arrays(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``at`` at every element of ``t``, as x, y and z arrays."""
        t = np.asarray(t, dtype=float)
        t = np.where(t < 0.0, 0.0, np.where(t > 1.0, 1.0, t))
        i = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, self.ts.size - 2)
        return _interpolate(self.ts, tuple(self.points.T), t, i)

    def reversed(self) -> "PathSample":
        return PathSample(1.0 - self.ts[::-1], self.points[::-1].copy())


def vertical_segment_path(ob: OrientedBox) -> PathSample:
    """Straight segment through the centre of the box's (x, y) section, from
    the bottom face to the top, in 64 equal steps."""
    b = ob.box
    ts = np.linspace(0.0, 1.0, 65)
    pts = np.column_stack([
        np.full(ts.size, 0.5 * (b.x_l + b.x_r)),
        np.full(ts.size, 0.5 * (b.y_l + b.y_r)),
        b.z_l + (b.z_r - b.z_l) * ts,
    ])
    return PathSample(ts, pts)


def random_crossing_path(ob: OrientedBox, rng: np.random.Generator) -> PathSample:
    """Random polyline through 9 knots from the bottom face to the top,
    monotone in z."""
    b = ob.box
    n = 9
    ts = np.linspace(0.0, 1.0, n)
    zs = b.z_l + (b.z_r - b.z_l) * np.sort(rng.uniform(0.0, 1.0, n))
    zs[0], zs[-1] = b.z_l, b.z_r
    xs = rng.uniform(b.x_l, b.x_r, n)
    ys = rng.uniform(b.y_l, b.y_r, n)
    return PathSample(ts, np.column_stack([xs, ys, zs]))


@dataclass
class StretchReport:
    """Outcome of the stretching check along one sampled path.

    The x/y containment of the image is certified once and for all by the
    C4/C5 conditions of the certificate; only the z-coordinate of the image
    needs path-wise witnesses, and those are sampled brackets refined by
    bisection, not a universal statement about the continuum path.
    """

    status: str  # "ok" | "needs_refinement" | "failed"
    crossings: list[tuple[float, float]]
    witnesses: dict
    t_mid_first: float
    t_mid_last: float
    path_reversed: bool
    evidence: dict
    note: str = ""

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    @property
    def disjoint(self) -> bool:
        return (
            len(self.crossings) == 2
            and self.crossings[0][1] < self.crossings[1][0]
        )

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "crossings": [list(c) for c in self.crossings],
            "witnesses": self.witnesses,
            "t_mid_first": self.t_mid_first,
            "t_mid_last": self.t_mid_last,
            "path_reversed": self.path_reversed,
            "evidence": self.evidence,
            "disjoint": self.disjoint,
            "note": self.note,
        }


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """``np.unique`` of a NaN-free float array, by the same sort and the same
    keep-the-first-of-each-run mask.  numpy 2.4's ``np.unique`` imports
    ``numpy.ma`` on its first call, which costs a fresh process ~10 ms."""
    a = np.sort(a)
    first = np.empty(a.shape, dtype=bool)
    first[:1] = True
    first[1:] = a[1:] != a[:-1]
    return a[first]


def _first_linear_crossing(ts, vs, level) -> float | None:
    """First parameter where the piecewise-linear samples reach ``level``."""
    for i in range(len(ts) - 1):
        a, b = vs[i], vs[i + 1]
        if a == level:
            return float(ts[i])
        if (a - level) * (b - level) <= 0.0 and a != b:
            w = (level - a) / (b - a)
            return float(ts[i] + w * (ts[i + 1] - ts[i]))
    if vs[-1] == level:
        return float(ts[-1])
    return None


def _bisect(fn, lo, hi, wanted):
    """Refine t in [lo, hi] where fn enters the set ``wanted`` accepts;
    ``wanted(fn(hi))`` holds.  Returns the endpoint on the wanted side after
    at most 80 halvings and fn there."""
    fhi = fn(hi)
    for _ in range(80):
        if hi - lo <= 1e-13:
            break
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if wanted(fm):
            hi, fhi = mid, fm
        else:
            lo = mid
    return hi, fhi


def check_path_stretching(
    p: Params,
    ob: OrientedBox,
    path: PathSample,
    cert: Certificate | None = None,
) -> StretchReport:
    """Locate the two disjoint crossing subintervals along a sampled path.

    The path must join the two oriented faces.  On a certified box the
    image's z-coordinate starts at z_l (bottom face maps to the zero
    plane), exceeds z_r somewhere before the path first touches the
    midplane, and drops back below z_l after it last leaves it; the two
    bracketed excursions are the stretching witnesses.  One routine finds
    both: the first on [0, t_first] from the bottom level up to the top,
    the second on [t_last, 1] from the top level down to the bottom.  Each
    excursion's grid is sampled in one array call (``PathSample.at_arrays``
    and ``eval_map_arrays``); only the bisection of a bracket steps point
    by point, on the same bits.
    """
    b = ob.box
    cert = _require_certified(p, b, cert)

    z0, z1 = float(path.points[0][2]), float(path.points[-1][2])
    tol = 1e-12
    on_bottom = abs(z0 - b.z_l) <= tol
    on_top = abs(z0 - b.z_r) <= tol
    end_bottom = abs(z1 - b.z_l) <= tol
    end_top = abs(z1 - b.z_r) <= tol
    if (on_bottom and end_bottom) or (on_top and end_top) or not (
        (on_bottom or on_top) and (end_bottom or end_top)
    ):
        raise ValueError("path endpoints must lie on the two opposite oriented faces")
    reversed_path = on_top
    if reversed_path:
        path = path.reversed()

    for pt in path.points:
        if not b.contains(*pt, slack=1e-9):
            raise ValueError(f"path leaves the box at {tuple(pt)}")

    mid = b.z_mid
    zs = path.points[:, 2]
    t_first = _first_linear_crossing(path.ts, zs, mid)
    t_last = _first_linear_crossing(path.ts[::-1] * -1.0 + 1.0, zs[::-1], mid)
    if t_first is None or t_last is None:
        raise ValueError("path never reaches the midplane; it cannot join the faces")
    t_last = 1.0 - t_last

    def g(t: float) -> float:
        return eval_map_xyz(p, *path.at(t))[2]

    def grid(lo, hi):
        knots = path.ts[(path.ts > lo) & (path.ts < hi)]
        base = _sorted_unique(np.concatenate([[lo, hi], knots]))
        fine = [np.linspace(base[i], base[i + 1], _SAMPLES_PER_SEGMENT + 1)
                for i in range(base.size - 1)]
        return _sorted_unique(np.concatenate(fine))

    def excursion(lo, hi, reached, left):
        """Witness that g crosses from the ``left`` level to the ``reached``
        one on [lo, hi]: the first sample in ``reached``, refined by
        bisection, and the last sample before it still in ``left`` (the
        grid's start when none is).  None when no sample reaches."""
        ts = grid(lo, hi)
        gs = eval_map_arrays(p, *path.at_arrays(ts))[2]
        hit = np.flatnonzero(reached(gs))
        if hit.size == 0:
            return None
        i = int(hit[0])
        if i == 0:
            t_hi, g_hi = float(ts[0]), float(gs[0])
        else:
            t_hi, g_hi = _bisect(g, float(ts[i - 1]), float(ts[i]), reached)
        back = np.flatnonzero((ts <= t_hi) & left(gs))
        j = int(back[-1]) if back.size else 0
        return {"t_lo": float(ts[j]), "g_lo": float(gs[j]), "t_hi": t_hi, "g_hi": g_hi}

    def report(status, witnesses, note, evidence=None):
        return StretchReport(
            status=status,
            crossings=[(w["t_lo"], w["t_hi"]) for w in witnesses.values()],
            witnesses=witnesses,
            t_mid_first=t_first,
            t_mid_last=t_last,
            path_reversed=reversed_path,
            evidence=evidence or {},
            note=note,
        )

    def top(v):
        return v >= b.z_r

    def bottom(v):
        return v <= b.z_l

    first = excursion(0.0, t_first, top, bottom)
    if first is None:
        return report("needs_refinement", {},
                      "no sample of the image reached the top level before the "
                      "midplane; refine the path sampling")
    second = excursion(t_last, 1.0, bottom, top)
    if second is None:
        return report("needs_refinement", {"first": first},
                      "image never dropped back to the bottom level after the "
                      "midplane; refine the path sampling")
    disjoint = first["t_hi"] < second["t_lo"]
    return report(
        "ok" if disjoint else "failed",
        {"first": first, "second": second},
        "" if disjoint else "crossing subintervals overlap; the path "
                            "may graze the midplane tangentially",
        evidence={
            "xy_containment": "certified-universal: C4/C5 keep the image's "
                              "x and y inside the box for every point of R",
            "z_crossings": "sampled-witness: bracketed on the path samples "
                           "and refined by bisection",
        },
    )


# ---------------------------------------------------------------------------
# fixed points inside the halves
# ---------------------------------------------------------------------------

def locate_fixed_point_in(
    p: Params,
    ob: OrientedBox,
    index: int,
    tol: float = 1e-10,
    cert: Certificate | None = None,
) -> State:
    """Fixed point of the map inside half-box ``index`` of a certified box.

    The map has exactly two fixed points on its domain, the closed forms of
    ``core.fixed_points``; this returns the one that lies in the requested
    half with residual below ``tol``.  Raises ConvergenceError with the
    best residual of a member in the half when none qualifies, which on a
    certified box indicates a numerics problem rather than absence
    (existence is what the certificate proves).
    """
    if index not in (0, 1):
        raise ValueError("index must be 0 or 1")
    _require_certified(p, ob.box, cert)
    half = HalfBoxes.from_oriented(ob).half(index)
    best = math.inf
    for s in fixed_points(p):
        if not half.contains(s.x, s.y, s.z, slack=1e-12):
            continue
        res = fixed_point_residual(p, s)
        best = min(best, res)
        if res < tol:
            return s
    raise ConvergenceError(
        f"no fixed point located in half {index} at tol {tol}", best_residual=best
    )
