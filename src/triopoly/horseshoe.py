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
the decision boundary is split into sub-cells, level by level, until one
sub-cell is kept (its centre maps strictly inside R, or at the last level
its F3 enclosure meets [z_l, z_r]) or every sub-cell is excluded; the
split of a cell stops at its first kept sub-cell.  Everything kept is
therefore a genuine cover; the interesting empirical fact, which the tests
pin down, is that the boundary layer below the midplane drops out and the
two covers end up disjoint, as the midplane condition predicts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import Box, HalfBoxes, OrientedBox
from .bounds import _batch_enclosures
# not called here, but perfbench's tracer patches it on this module
from .bounds import batch_image_enclosure  # noqa: F401
from .certificate import Certificate, certify_box
from .core import (
    Params, State, eval_map_arrays, eval_map_xyz, fixed_point_residual, fixed_points,
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

RETAIN_MARGIN = 1e-9  # centre image strictly inside R by this much: keep cell
MAX_SPLIT_DEPTH = 5
# cells per batch-kernel call.  The kernels make dozens of temporaries per
# call; at 16k cells (128 KiB each) they stay near the core, while the
# largest split level of res-64 covers (84k cells) streams them through
# memory.  With one call per level those covers build ~15 % slower and
# peak 16 MB higher, with the same bits.
_CHUNK = 16384
# image samples per path segment when the stretching check brackets a crossing
_SAMPLES_PER_SEGMENT = 16


class ConvergenceError(RuntimeError):
    """Raised when an iterative search exhausts its budget."""

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
    """Rigorous cover of K_index by axis-aligned cells.

    ``cells`` is an (m, 6) read-only array of [xl, xh, yl, yh, zl, zh] rows
    in deterministic (z, y, x) grid order.
    """

    index: int
    resolution: int
    box: Box
    cells: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.index not in (0, 1):
            raise ValueError("index must be 0 or 1")
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


def _grid_cells(b: Box, nx: int, ny: int, z_lo: float, z_hi: float, nz: int) -> np.ndarray:
    xe = np.linspace(b.x_l, b.x_r, nx + 1)
    ye = np.linspace(b.y_l, b.y_r, ny + 1)
    ze = np.linspace(z_lo, z_hi, nz + 1)
    # "ij" indexing over (z, y, x) keeps x fastest: the (z, y, x) grid order
    zl, yl, xl = np.meshgrid(ze[:-1], ye[:-1], xe[:-1], indexing="ij")
    zh, yh, xh = np.meshgrid(ze[1:], ye[1:], xe[1:], indexing="ij")
    return np.stack([xl, xh, yl, yh, zl, zh], axis=-1).reshape(-1, 6)


def _split_cells_8(cells: np.ndarray) -> np.ndarray:
    mx = 0.5 * (cells[:, 0] + cells[:, 1])
    my = 0.5 * (cells[:, 2] + cells[:, 3])
    mz = 0.5 * (cells[:, 4] + cells[:, 5])
    out = np.empty((cells.shape[0], 8, 6))
    for k in range(8):
        out[:, k, 0] = cells[:, 0] if k & 1 == 0 else mx
        out[:, k, 1] = mx if k & 1 == 0 else cells[:, 1]
        out[:, k, 2] = cells[:, 2] if k & 2 == 0 else my
        out[:, k, 3] = my if k & 2 == 0 else cells[:, 3]
        out[:, k, 4] = cells[:, 4] if k & 4 == 0 else mz
        out[:, k, 5] = mz if k & 4 == 0 else cells[:, 5]
    return out.reshape(-1, 6)


def _image_misses_box(p: Params, cells: np.ndarray, b: Box) -> np.ndarray:
    """True for cells whose F3 enclosure misses [z_l, z_r] (see ``_excludable``)."""
    out = np.empty(cells.shape[0], dtype=bool)
    for i in range(0, cells.shape[0], _CHUNK):
        ((lo, hi),) = _batch_enclosures(p, cells[i:i + _CHUNK], ("F3",))
        out[i:i + _CHUNK] = (hi < b.z_l) | (lo > b.z_r)
    return out


def _centre_maps_inside(p: Params, cells: np.ndarray, b: Box) -> np.ndarray:
    mids = 0.5 * (cells[:, 0::2] + cells[:, 1::2])
    fx, fy, fz = eval_map_arrays(p, mids[:, 0], mids[:, 1], mids[:, 2])
    return (
        (b.x_l + RETAIN_MARGIN < fx) & (fx < b.x_r - RETAIN_MARGIN)
        & (b.y_l + RETAIN_MARGIN < fy) & (fy < b.y_r - RETAIN_MARGIN)
        & (b.z_l + RETAIN_MARGIN < fz) & (fz < b.z_r - RETAIN_MARGIN)
    )


def _excludable(p: Params, cells: np.ndarray, b: Box, depth: int) -> np.ndarray:
    """True for cells whose whole image provably misses the box.

    One pass per split level, ``depth`` splits deep.  ``root`` maps each
    live sub-cell to its cell.  A cell is kept at its first sub-cell whose
    centre maps strictly inside R or, at the last level, whose image
    enclosure meets R; its other sub-cells are then dropped, since they
    can no longer change the answer.  The centre goes first because it is
    cheap and the enclosure, which contains its image, cannot disagree.

    Only F3 is enclosed.  Every cell lies in the certified box R, so C4
    and C5 give F1(cell) in [x_l, x_r] and F2(cell) in [y_l, y_r]; an
    enclosure contains that range, so an x- or y-test could never fire.
    And if one could, leaving it out only keeps more cells, which is still
    a sound cover.
    """
    kept = np.zeros(cells.shape[0], dtype=bool)
    root = np.arange(cells.shape[0])
    for level in range(depth, -1, -1):
        if level > 0:
            kept[root[_centre_maps_inside(p, cells, b)]] = True
            live = ~kept[root]
            cells, root = cells[live], root[live]
        meets = ~_image_misses_box(p, cells, b)
        if level == 0:
            kept[root[meets]] = True
        else:
            cells, root = _split_cells_8(cells[meets]), np.repeat(root[meets], 8)
    return ~kept


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
    covers = []
    for index, (z0, z1) in enumerate(((b.z_l, b.z_mid), (b.z_mid, b.z_r))):
        cells = _grid_cells(b, resolution, resolution, z0, z1, nz_half)
        excluded = _excludable(p, cells, b, MAX_SPLIT_DEPTH)
        covers.append(KSetEnclosure(index=index, resolution=resolution, box=b,
                                    cells=cells[~excluded]))
    return tuple(covers)


# ---------------------------------------------------------------------------
# paths and stretching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PathSample:
    """Piecewise-linear path through sample points.

    ``ts`` is strictly increasing from 0 to 1; evaluation between samples
    interpolates linearly.
    """

    ts: np.ndarray
    points: np.ndarray

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

    def at(self, t: float) -> tuple[float, float, float]:
        t = min(max(t, 0.0), 1.0)
        i = int(np.searchsorted(self.ts, t, side="right")) - 1
        i = min(max(i, 0), self.ts.size - 2)
        t0, t1 = self.ts[i], self.ts[i + 1]
        w = (t - t0) / (t1 - t0)
        pt = (1.0 - w) * self.points[i] + w * self.points[i + 1]
        return (float(pt[0]), float(pt[1]), float(pt[2]))

    def reversed(self) -> "PathSample":
        return PathSample(1.0 - self.ts[::-1], self.points[::-1].copy())


def vertical_segment_path(ob: OrientedBox, x: float | None = None,
                          y: float | None = None, n: int = 64) -> PathSample:
    """Straight segment at fixed (x, y) from the bottom face to the top."""
    b = ob.box
    if x is None:
        x = 0.5 * (b.x_l + b.x_r)
    if y is None:
        y = 0.5 * (b.y_l + b.y_r)
    ts = np.linspace(0.0, 1.0, n + 1)
    pts = np.column_stack([
        np.full(n + 1, x),
        np.full(n + 1, y),
        b.z_l + (b.z_r - b.z_l) * ts,
    ])
    return PathSample(ts, pts)


def random_crossing_path(ob: OrientedBox, rng: np.random.Generator,
                         n_knots: int = 9) -> PathSample:
    """Random polyline from the bottom face to the top, monotone in z."""
    if n_knots < 2:
        raise ValueError("need at least the two endpoint knots")
    b = ob.box
    ts = np.linspace(0.0, 1.0, n_knots)
    zs = b.z_l + (b.z_r - b.z_l) * np.sort(rng.uniform(0.0, 1.0, n_knots))
    zs[0], zs[-1] = b.z_l, b.z_r
    xs = rng.uniform(b.x_l, b.x_r, n_knots)
    ys = rng.uniform(b.y_l, b.y_r, n_knots)
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


def _bisect(fn, lo, hi, wanted, iters=80):
    """Refine t in [lo, hi] where fn enters the set ``wanted`` accepts;
    ``wanted(fn(hi))`` holds.  Returns the endpoint on the wanted side after
    refinement and fn there."""
    fhi = fn(hi)
    for _ in range(iters):
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
    bracketed excursions are the stretching witnesses.
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
        base = np.unique(np.concatenate([[lo, hi], knots]))
        fine = [np.linspace(base[i], base[i + 1], _SAMPLES_PER_SEGMENT + 1)
                for i in range(base.size - 1)]
        return np.unique(np.concatenate(fine))

    witnesses = {}
    crossings = []

    # first excursion: g rises from z_l to above z_r before t_first
    ts1 = grid(0.0, t_first)
    gs1 = np.array([g(t) for t in ts1])
    hit = np.flatnonzero(gs1 >= b.z_r)
    if hit.size == 0:
        return StretchReport(
            status="needs_refinement",
            crossings=[],
            witnesses={},
            t_mid_first=t_first,
            t_mid_last=t_last,
            path_reversed=reversed_path,
            evidence={},
            note="no sample of the image reached the top level before the "
                 "midplane; refine the path sampling",
        )
    i = int(hit[0])
    if i == 0:
        b1, gb1 = float(ts1[0]), float(gs1[0])
    else:
        b1, gb1 = _bisect(g, float(ts1[i - 1]), float(ts1[i]), lambda v: v >= b.z_r)
    # last sampled moment before b1 at which the image is still at or
    # below the bottom level; on a grounded box this is t = 0 itself
    low = np.flatnonzero((ts1 <= b1) & (gs1 <= b.z_l))
    if low.size == 0:
        a1, ga1 = 0.0, g(0.0)
    else:
        j = int(low[-1])
        a1, ga1 = float(ts1[j]), float(gs1[j])
    crossings.append((a1, b1))
    witnesses["first"] = {"t_lo": a1, "g_lo": ga1, "t_hi": b1, "g_hi": gb1}

    # second excursion: g falls from above z_r back to z_l after t_last
    ts2 = grid(t_last, 1.0)
    gs2 = np.array([g(t) for t in ts2])
    drop = np.flatnonzero(gs2 <= b.z_l)
    if drop.size == 0:
        return StretchReport(
            status="needs_refinement",
            crossings=crossings,
            witnesses=witnesses,
            t_mid_first=t_first,
            t_mid_last=t_last,
            path_reversed=reversed_path,
            evidence={},
            note="image never dropped back to the bottom level after the "
                 "midplane; refine the path sampling",
        )
    k = int(drop[0])
    if k == 0:
        b2, gb2 = float(ts2[0]), float(gs2[0])
    else:
        b2, gb2 = _bisect(g, float(ts2[k - 1]), float(ts2[k]), lambda v: v <= b.z_l)
    highs = np.flatnonzero((ts2 <= b2) & (gs2 >= b.z_r))
    if highs.size == 0:
        a2, ga2 = float(ts2[0]), float(gs2[0])
    else:
        m = int(highs[-1])
        a2, ga2 = float(ts2[m]), float(gs2[m])
    crossings.append((a2, b2))
    witnesses["second"] = {"t_lo": a2, "g_lo": ga2, "t_hi": b2, "g_hi": gb2}

    disjoint = b1 < a2
    status = "ok" if disjoint else "failed"
    return StretchReport(
        status=status,
        crossings=crossings,
        witnesses=witnesses,
        t_mid_first=t_first,
        t_mid_last=t_last,
        path_reversed=reversed_path,
        evidence={
            "xy_containment": "certified-universal: C4/C5 keep the image's "
                              "x and y inside the box for every point of R",
            "z_crossings": "sampled-witness: bracketed on the path samples "
                           "and refined by bisection",
        },
        note="" if disjoint else "crossing subintervals overlap; the path "
                                 "may graze the midplane tangentially",
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
