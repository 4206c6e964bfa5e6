"""Rigorous interval bounds for the map: the second, independent engine.

Everything here is deliberately low-tech: outward-rounded double-precision
interval arithmetic (one ``nextafter`` nudge per inexact primitive) plus
branch-and-bound subdivision.  No affine arithmetic, no Taylor models.  Two
standard first-order refinements and one exact range keep the subdivision
counts small:

* monotonicity pruning: when an interval Jacobian entry has fixed sign over
  a subbox, the extremum lives on the corresponding face, so the subbox is
  collapsed along that axis before it is ever split;
* mean-value form: f(mid) + J(box) . (box - mid), intersected with the
  plain evaluation, which shrinks overestimation quadratically in the box
  width near smooth extrema;
* exact one-dimensional range of the x-update: F1 = (x + g(q)) / 2 with the
  concave parabola g(q) = q - c1 q^2 ranged exactly over q = x+y+z.  The
  maximum of F1 is reached on the whole plane q = 1/(2 c1), where the two
  forms above overestimate every box; the upper end of this range is exact
  on every box whose x = x_hi face meets that plane, so the search need not
  tile it.

The public ``interval_eval`` deliberately uses only the plain evaluation
(plus the exact one-dimensional range of the y-update), because plain
interval extensions are inclusion-monotone: a subbox never produces a wider
enclosure than its parent, which is the contract callers rely on when they
subdivide by hand.  The mean-value intersection does not have that property
and stays internal to ``bound_extremum``.  So does the exact x-update range,
which leaves the public enclosures, and the batch kernels the horseshoe
covers are built from, as they were.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .boxes import Box
from .certificate import (
    Certificate,
    ConditionRecord,
    DEFAULT_MIN_MARGIN,
    FAIL,
    INAPPLICABLE,
    INCONCLUSIVE,
    PASS,
    SubCheck,
)
from .core import DomainError, Params, eval_map_xyz

__all__ = [
    "Interval",
    "IntervalBox",
    "BoundReport",
    "interval_eval",
    "interval_jacobian",
    "bound_extremum",
    "verify_C_rigorous",
    "ROUNDING_STRATEGY",
]

# The extended-precision point path is sound only where long double keeps
# at least the 64-bit significand of x87 extended precision; where it is
# plain double (aarch64 macOS, Windows), points take the outward kernels.
_EXTENDED_POINTS = np.finfo(np.longdouble).nmant >= 63

ROUNDING_STRATEGY = "outward 1-ulp nextafter per inexact primitive; " + (
    "extended-precision point path" if _EXTENDED_POINTS else "outward point path"
)

_INF = math.inf


def _up(v: float) -> float:
    return math.nextafter(v, _INF)


def _dn(v: float) -> float:
    return math.nextafter(v, -_INF)


# ---------------------------------------------------------------------------
# float-pair kernels (lo, hi) -- the hot path
# ---------------------------------------------------------------------------

def _add(a, b):
    return _dn(a[0] + b[0]), _up(a[1] + b[1])


def _add_f(a, v: float):
    # adding an exact scalar still rounds
    return _dn(a[0] + v), _up(a[1] + v)


def _sub(a, b):
    return _dn(a[0] - b[1]), _up(a[1] - b[0])


def _neg(a):
    return -a[1], -a[0]


def _mul(a, b):
    if a[0] == 0.0 and a[1] == 0.0:
        return 0.0, 0.0
    if b[0] == 0.0 and b[1] == 0.0:
        return 0.0, 0.0
    p1 = a[0] * b[0]
    p2 = a[0] * b[1]
    p3 = a[1] * b[0]
    p4 = a[1] * b[1]
    return _dn(min(p1, p2, p3, p4)), _up(max(p1, p2, p3, p4))


def _mul_f(a, v: float):
    """Multiply by an exact positive scalar."""
    if v == 0.0:
        return 0.0, 0.0
    if v > 0:
        return _dn(a[0] * v), _up(a[1] * v)
    return _dn(a[1] * v), _up(a[0] * v)


def _mul_pow2(a, v: float):
    # scaling by a power of two is exact in binary floating point
    if v > 0:
        return a[0] * v, a[1] * v
    return a[1] * v, a[0] * v


def _div_pos(a, b):
    """a / b for b strictly positive."""
    if b[0] <= 0.0:
        raise DomainError(f"interval division needs a positive divisor, got {b}")
    q1 = a[0] / b[0]
    q2 = a[0] / b[1]
    q3 = a[1] / b[0]
    q4 = a[1] / b[1]
    return _dn(min(q1, q2, q3, q4)), _up(max(q1, q2, q3, q4))


def _sqr(a):
    if a[0] >= 0.0:
        return _dn(a[0] * a[0]), _up(a[1] * a[1])
    if a[1] <= 0.0:
        return _dn(a[1] * a[1]), _up(a[0] * a[0])
    m = max(-a[0], a[1])
    return 0.0, _up(m * m)


def _sqrt(a):
    if a[0] < 0.0:
        raise DomainError(f"interval sqrt of {a} undefined")
    return _dn(math.sqrt(a[0])), _up(math.sqrt(a[1]))


def _isect(a, b):
    # both arguments enclose the same true range, so this never empties
    return max(a[0], b[0]), min(a[1], b[1])


# ---------------------------------------------------------------------------
# public wrapper types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi], the basic enclosure currency."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval bounds must not be NaN")
        if self.lo > self.hi:
            raise ValueError(f"need lo <= hi, got [{self.lo}, {self.hi}]")

    @classmethod
    def point(cls, v: float) -> "Interval":
        return cls(v, v)

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, v: float) -> bool:
        return self.lo <= v <= self.hi

    def encloses(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def as_pair(self) -> tuple[float, float]:
        return (self.lo, self.hi)

    def __add__(self, other):
        return Interval(*_add(self.as_pair(), _as_pair(other)))

    def __sub__(self, other):
        return Interval(*_sub(self.as_pair(), _as_pair(other)))

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other):
        return Interval(*_mul(self.as_pair(), _as_pair(other)))

    def __truediv__(self, other):
        return Interval(*_div_pos(self.as_pair(), _as_pair(other)))

    def sqrt(self) -> "Interval":
        return Interval(*_sqrt(self.as_pair()))

    def sqr(self) -> "Interval":
        return Interval(*_sqr(self.as_pair()))


def _as_pair(v) -> tuple[float, float]:
    if isinstance(v, Interval):
        return v.as_pair()
    return (float(v), float(v))


@dataclass(frozen=True)
class IntervalBox:
    """Product of three intervals; faces and points are degenerate axes."""

    ix: Interval
    iy: Interval
    iz: Interval

    @classmethod
    def from_box(cls, b: Box) -> "IntervalBox":
        return cls(Interval(b.x_l, b.x_r), Interval(b.y_l, b.y_r), Interval(b.z_l, b.z_r))

    @classmethod
    def from_bounds(cls, xl, xh, yl, yh, zl, zh) -> "IntervalBox":
        return cls(Interval(xl, xh), Interval(yl, yh), Interval(zl, zh))

    @classmethod
    def point(cls, x: float, y: float, z: float) -> "IntervalBox":
        return cls(Interval.point(x), Interval.point(y), Interval.point(z))

    @property
    def intervals(self) -> tuple[Interval, Interval, Interval]:
        return (self.ix, self.iy, self.iz)

    @property
    def is_point(self) -> bool:
        return self.ix.is_point and self.iy.is_point and self.iz.is_point

    def widths(self) -> tuple[float, float, float]:
        return (self.ix.width, self.iy.width, self.iz.width)

    def contains_point(self, x: float, y: float, z: float) -> bool:
        return self.ix.contains(x) and self.iy.contains(y) and self.iz.contains(z)

    def as_tuple6(self):
        return (self.ix.lo, self.ix.hi, self.iy.lo, self.iy.hi, self.iz.lo, self.iz.hi)


# ---------------------------------------------------------------------------
# map kernels on 6-tuples (xl, xh, yl, yh, zl, zh)
# ---------------------------------------------------------------------------

def _precheck(p: Params, t6) -> None:
    d_lo = _dn(t6[0] + t6[4])
    q_lo = _dn(_dn(t6[0] + t6[2]) + t6[4])
    if d_lo <= 0.0:
        raise DomainError(f"x+z can reach {d_lo} <= 0 inside the box: sqrt undefined")
    if q_lo <= 0.0:
        raise DomainError(f"x+y+z can reach {q_lo} <= 0 inside the box: share undefined")


def _range_f1(p: Params, t6):
    x = (t6[0], t6[1])
    y = (t6[2], t6[3])
    z = (t6[4], t6[5])
    q = _add(_add(x, y), z)
    num = _sub(_add(_add(_mul_pow2(x, 2.0), y), z), _mul_f(_sqr(q), p.c1))
    return _mul_pow2(num, 0.5)


def _psi_dn(d: float, c2: float) -> float:
    return _dn(_dn(math.sqrt(_dn(d / c2))) - d)


def _psi_up(d: float, c2: float) -> float:
    return _up(_up(math.sqrt(_up(d / c2))) - d)


def _range_f2(p: Params, t6):
    """Exact 1-d range of psi(D) = sqrt(D/c2) - D over D = x+z, rounded out.

    psi increases up to D* = 1/(4 c2) (where its value is D* itself) and
    decreases afterwards, so the sharp range needs only the endpoints and,
    when D* may lie inside, the critical value.
    """
    d = _add((t6[0], t6[1]), (t6[4], t6[5]))
    if d[0] < 0.0:
        raise DomainError("x+z can be negative inside the box")
    dstar = 0.25 / p.c2
    lo = min(_psi_dn(d[0], p.c2), _psi_dn(d[1], p.c2))
    if d[1] < _dn(dstar):  # strictly left of the peak: increasing
        hi = _psi_up(d[1], p.c2)
    elif d[0] > _up(dstar):  # strictly right: decreasing
        hi = _psi_up(d[0], p.c2)
    else:  # peak may be inside; its exact value is 1/(4 c2)
        hi = _up(_up(dstar))
    return lo, hi


def _range_f3(p: Params, t6):
    x = (t6[0], t6[1])
    y = (t6[2], t6[3])
    z = (t6[4], t6[5])
    a = _add(x, y)
    q = _add(a, z)
    if q[0] <= 0.0:
        raise DomainError("x+y+z can reach <= 0 inside the box")
    ac3 = p.alpha * p.c3
    base = (_dn(1.0 - _up(ac3)), _up(1.0 - _dn(ac3)))
    term = _div_pos(_mul_f(a, p.alpha), _sqr(q))
    inner = _add(base, term)
    return _mul(z, inner)


_RANGES = {"F1": _range_f1, "F2": _range_f2, "F3": _range_f3}


def _jac_row(p: Params, t6, comp: str):
    """Interval enclosures of one Jacobian row over a box, as 3 pairs."""
    x = (t6[0], t6[1])
    y = (t6[2], t6[3])
    z = (t6[4], t6[5])
    if comp == "F1":
        q = _add(_add(x, y), z)
        c1q = _mul_f(q, p.c1)
        jx = _sub((1.0, 1.0), c1q)
        jy = _sub((0.5, 0.5), c1q)
        return jx, jy, jy
    if comp == "F2":
        d = _add(x, z)
        if d[0] <= 0.0:
            raise DomainError("x+z can reach <= 0: dF2 undefined inside box")
        # g(D) = 1/(2 sqrt(c2 D)) - 1 is decreasing in D
        g_lo = _dn(1.0 / _up(2.0 * _up(math.sqrt(_up(p.c2 * d[1])))) - 1.0)
        g_hi = _up(1.0 / _dn(2.0 * _dn(math.sqrt(_dn(p.c2 * d[0])))) - 1.0)
        g = (g_lo, g_hi)
        return g, (0.0, 0.0), g
    if comp == "F3":
        a = _add(x, y)
        q = _add(a, z)
        if q[0] <= 0.0:
            raise DomainError("x+y+z can reach <= 0: dF3 undefined inside box")
        q3 = _mul(q, _sqr(q))
        jxy = _div_pos(_mul_f(_mul(z, _sub(q, _mul_pow2(a, 2.0))), p.alpha), q3)
        ac3 = p.alpha * p.c3
        base = (_dn(1.0 - _up(ac3)), _up(1.0 - _dn(ac3)))
        jz = _add(base, _div_pos(_mul_f(_mul(a, _sub(q, _mul_pow2(z, 2.0))), p.alpha), q3))
        return jxy, jxy, jz
    raise ValueError(f"unknown component {comp!r}")


def _mvf_range(p: Params, t6, comp: str):
    """Mean-value form enclosure: f(mid) + sum_j J_j(box) * (box_j - mid_j)."""
    mids = (
        0.5 * (t6[0] + t6[1]),
        0.5 * (t6[2] + t6[3]),
        0.5 * (t6[4] + t6[5]),
    )
    centre = (mids[0], mids[0], mids[1], mids[1], mids[2], mids[2])
    acc = _RANGES[comp](p, centre)
    row = _jac_row(p, t6, comp)
    for j in range(3):
        lo, hi = t6[2 * j] , t6[2 * j + 1]
        if lo == hi:
            continue
        dev = (_dn(lo - mids[j]), _up(hi - mids[j]))
        acc = _add(acc, _mul(row[j], dev))
    return acc


def _g_dn(q: float, c1: float) -> float:
    return _dn(q - _up(_up(q * q) * c1))


def _g_up(q: float, c1: float) -> float:
    return _up(q - _dn(_dn(q * q) * c1))


def _range_f1_sharp(p: Params, t6):
    """F1 = (x + g(q)) / 2 with g(q) = q - c1 q^2 ranged exactly over q = x+y+z.

    g is a concave parabola with peak 1/(4 c1) at q* = 1/(2 c1), so, as for
    psi in ``_range_f2``, its sharp range needs only the endpoints and, when
    q* may lie inside, the peak.  Summing the x and g enclosures is sound
    whatever the dependence between x and q, and exact on every box that
    meets the maximiser plane q = q* at x = x_hi.
    """
    q = _add(_add((t6[0], t6[1]), (t6[2], t6[3])), (t6[4], t6[5]))
    qstar = 0.5 / p.c1
    lo = min(_g_dn(q[0], p.c1), _g_dn(q[1], p.c1))
    if q[1] < _dn(qstar):  # strictly left of the peak: increasing
        hi = _g_up(q[1], p.c1)
    elif q[0] > _up(qstar):  # strictly right: decreasing
        hi = _g_up(q[0], p.c1)
    else:  # peak may be inside; its exact value is 1/(4 c1)
        hi = _up(0.25 / p.c1)
    return _mul_pow2(_add((t6[0], t6[1]), (lo, hi)), 0.5)


def _tight_range(p: Params, t6, comp: str):
    base = _RANGES[comp](p, t6)
    if comp == "F1":
        base = _isect(base, _range_f1_sharp(p, t6))
    try:
        mv = _mvf_range(p, t6, comp)
    except DomainError:
        return base
    return _isect(base, mv)


# ---------------------------------------------------------------------------
# public evaluation
# ---------------------------------------------------------------------------

_LD = np.longdouble


def _point_eval_extended(p: Params, x: float, y: float, z: float):
    """Point image in extended precision, widened to a 2-ulp double enclosure.

    The handful of long-double primitives each err by <= 2^-63 relative,
    far below half a double ulp, so rounding the long-double result to
    double and nudging one ulp outward is a rigorous double enclosure.
    """
    xl, yl_, zl = _LD(x), _LD(y), _LD(z)
    c1, c2 = _LD(p.c1), _LD(p.c2)
    al, c3 = _LD(p.alpha), _LD(p.c3)
    q = xl + yl_ + zl
    d = xl + zl
    f1 = (2.0 * xl + yl_ + zl - c1 * q * q) / 2.0
    f2 = np.sqrt(d / c2) - d
    f3 = zl * (1.0 - al * c3 + al * (xl + yl_) / (q * q))
    out = []
    for v in (f1, f2, f3):
        fv = float(v)
        out.append((_dn(fv), _up(fv)))
    return out


def interval_eval(p: Params, ib: IntervalBox) -> tuple[Interval, Interval, Interval]:
    """Enclosures of the three image components over ``ib``.

    Raises DomainError when a positivity precondition (x+z > 0 or
    x+y+z > 0) can be violated inside the box.  Fully degenerate boxes take
    an extended-precision path, where long double is wide enough, so point
    enclosures stay a few ulps wide.
    """
    t6 = ib.as_tuple6()
    _precheck(p, t6)
    if ib.is_point and _EXTENDED_POINTS:
        encl = _point_eval_extended(p, t6[0], t6[2], t6[4])
    else:
        encl = (_range_f1(p, t6), _range_f2(p, t6), _range_f3(p, t6))
    if ib.is_point:
        # hull in the plain double evaluation so the enclosure also covers
        # what eval_map reports (its own rounding can exceed the true-value
        # enclosure by an ulp or two)
        dbl = eval_map_xyz(p, t6[0], t6[2], t6[4])
        encl = [(min(lo, _dn(v)), max(hi, _up(v))) for (lo, hi), v in zip(encl, dbl)]
    return tuple(Interval(*pair) for pair in encl)


def interval_jacobian(p: Params, ib: IntervalBox) -> list[list[Interval]]:
    """3x3 matrix of Jacobian-entry enclosures over the box."""
    t6 = ib.as_tuple6()
    _precheck(p, t6)
    rows = []
    for comp in ("F1", "F2", "F3"):
        rows.append([Interval(*pair) for pair in _jac_row(p, t6, comp)])
    return rows


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    """Certified enclosure of min or max of one component over a region."""

    component: str
    which: str
    region: tuple
    enclosure: Interval
    best_point: tuple[float, float, float]
    best_value: float
    subdivisions: int
    status: str  # "ok" | "inconclusive"
    tol: float
    budget: int
    strategy: str = ROUNDING_STRATEGY

    @property
    def width(self) -> float:
        return self.enclosure.width

    def as_dict(self) -> dict:
        return {
            "component": self.component,
            "which": self.which,
            "region": list(self.region),
            "enclosure": [self.enclosure.lo, self.enclosure.hi],
            "best_point": list(self.best_point),
            "best_value": self.best_value,
            "subdivisions": self.subdivisions,
            "width": self.width,
            "status": self.status,
            "tol": self.tol,
            "budget": self.budget,
            "strategy": self.strategy,
        }


def _collapse(p: Params, t6, comp: str, want_max: bool):
    """Monotonicity pruning: fix axes whose derivative sign is constant.

    Sound for extremum *values*: if df/dx_j >= 0 everywhere on the box, the
    maximum over the box is attained on the x_j = hi face, so the box can
    be replaced by that face.  Iterates because collapsing one axis tightens
    the remaining derivative enclosures.
    """
    t6 = list(t6)
    for _ in range(3):
        changed = False
        try:
            row = _jac_row(p, tuple(t6), comp)
        except DomainError:
            break
        for j in range(3):
            lo_i, hi_i = 2 * j, 2 * j + 1
            if t6[lo_i] == t6[hi_i]:
                continue
            dlo, dhi = row[j]
            if dlo >= 0.0:  # increasing: extremum on the hi face for a max
                v = t6[hi_i] if want_max else t6[lo_i]
            elif dhi <= 0.0:
                v = t6[lo_i] if want_max else t6[hi_i]
            else:
                continue
            t6[lo_i] = v
            t6[hi_i] = v
            changed = True
        if not changed:
            break
    return tuple(t6)


def _point_value(p: Params, x: float, y: float, z: float, comp: str):
    """Tight certified enclosure of one component at a point (plain kernels)."""
    t6 = (x, x, y, y, z, z)
    return _RANGES[comp](p, t6)


def bound_extremum(
    p: Params,
    region: IntervalBox,
    component: str = "F3",
    which: str = "max",
    tol: float = 1e-8,
    budget: int = 10**6,
) -> BoundReport:
    """Certified enclosure of an extremum of F1/F2/F3 over an interval box.

    Best-first branch-and-bound: split the widest axis (ties x before y
    before z), prune with certified feasible values from midpoint samples,
    stop when the enclosure width reaches ``tol`` or the expansion budget
    runs out (then status is "inconclusive" but the enclosure is still
    sound).  Deterministic: the heap is ordered by bound then insertion.
    """
    if component not in _RANGES:
        raise ValueError(f"component must be F1, F2 or F3, got {component!r}")
    if which not in ("min", "max"):
        raise ValueError(f"which must be 'min' or 'max', got {which!r}")
    if tol <= 0.0 or not math.isfinite(tol):
        raise ValueError(f"tol must be a positive finite number, got {tol}")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    want_max = which == "max"
    t6 = region.as_tuple6()
    _precheck(p, t6)

    def signed(e):  # enclosure of +-f oriented as a max problem
        return e if want_max else (-e[1], -e[0])

    def mid_of(t):
        return (0.5 * (t[0] + t[1]), 0.5 * (t[2] + t[3]), 0.5 * (t[4] + t[5]))

    start = _collapse(p, t6, component, want_max)
    e0 = signed(_tight_range(p, start, component))
    m0 = mid_of(start)
    pv = signed(_point_value(p, *m0, component))
    incumbent, best_point = pv[0], m0

    seq = 0
    heap = [(-e0[1], seq, start)]
    expansions = 0
    status = "ok"
    ub = e0[1]

    while heap:
        neg_ub, _, cur = heapq.heappop(heap)
        ub = -neg_ub
        if ub - incumbent <= tol:
            break
        if expansions >= budget:
            status = "inconclusive"
            break
        expansions += 1
        widths = (cur[1] - cur[0], cur[3] - cur[2], cur[5] - cur[4])
        axis = max(range(3), key=lambda j: (widths[j], -j))
        lo_i, hi_i = 2 * axis, 2 * axis + 1
        cut = 0.5 * (cur[lo_i] + cur[hi_i])
        for child in (
            cur[:hi_i] + (cut,) + cur[hi_i + 1:],
            cur[:lo_i] + (cut,) + cur[lo_i + 1:],
        ):
            child = _collapse(p, child, component, want_max)
            e = signed(_tight_range(p, child, component))
            cm = mid_of(child)
            pv = signed(_point_value(p, *cm, component))
            if pv[0] > incumbent:
                incumbent, best_point = pv[0], cm
            if e[1] > incumbent:
                seq += 1
                heapq.heappush(heap, (-e[1], seq, child))
    else:
        # heap exhausted: every box was pruned at or below the incumbent
        ub = incumbent

    lo, hi = (incumbent, ub) if want_max else (-ub, -incumbent)
    best_value = incumbent if want_max else -incumbent
    if hi - lo > tol:
        status = "inconclusive"
    return BoundReport(
        component=component,
        which=which,
        region=t6,
        enclosure=Interval(lo, hi),
        best_point=best_point,
        best_value=best_value,
        subdivisions=expansions,
        status=status,
        tol=tol,
        budget=budget,
    )


# ---------------------------------------------------------------------------
# rigorous C layer
# ---------------------------------------------------------------------------

def _report_dict(rep: BoundReport) -> dict:
    return {
        "enclosure": [rep.enclosure.lo, rep.enclosure.hi],
        "subdivisions": rep.subdivisions,
        "width": rep.width,
        "status": rep.status,
    }


def _one_sided(cid, rep: BoundReport, threshold: float, direction: str,
               strict: bool, min_margin: float) -> ConditionRecord:
    """Turn an extremum enclosure into a condition verdict.

    direction "<=": require extremum <= threshold (rep must be a max);
    direction ">": require extremum > threshold (rep must be a min); the
    strict case certifies only with margin above ``min_margin``.
    """
    lo, hi = rep.enclosure.lo, rep.enclosure.hi
    if direction == "<=":
        if hi <= threshold:
            status, margin = PASS, threshold - hi
        elif lo > threshold:
            status, margin = FAIL, threshold - lo
        else:
            status, margin = INCONCLUSIVE, threshold - hi
        lhs, rhs, rel = hi, threshold, "<="
    elif direction == ">":
        need = min_margin if strict else 0.0
        if lo - threshold > need:
            status, margin = PASS, lo - threshold
        elif hi <= threshold:
            status, margin = FAIL, hi - threshold
        else:
            status, margin = INCONCLUSIVE, lo - threshold
        lhs, rhs, rel = lo, threshold, ">"
    else:  # ">="
        if lo >= threshold:
            status, margin = PASS, lo - threshold
        elif hi < threshold:
            status, margin = FAIL, hi - threshold
        else:
            status, margin = INCONCLUSIVE, lo - threshold
        lhs, rhs, rel = lo, threshold, ">="
    return ConditionRecord(
        cid=cid,
        status=status,
        lhs=lhs,
        rhs=rhs,
        relation=rel,
        margin=margin,
        engine="interval",
        subchecks=[SubCheck(cid, lhs, rhs, rel, margin, status)],
        interval={rep.which: _report_dict(rep)},
    )


def _two_sided(cid, rep_min: BoundReport, rep_max: BoundReport,
               lo_lim: float, hi_lim: float) -> ConditionRecord:
    subs = []
    stats = []
    # min side
    if rep_min.enclosure.lo >= lo_lim:
        st, mg = PASS, rep_min.enclosure.lo - lo_lim
    elif rep_min.enclosure.hi < lo_lim:
        st, mg = FAIL, rep_min.enclosure.hi - lo_lim
    else:
        st, mg = INCONCLUSIVE, rep_min.enclosure.lo - lo_lim
    subs.append(SubCheck(cid + "min", rep_min.enclosure.lo, lo_lim, ">=", mg, st))
    stats.append(st)
    # max side
    if rep_max.enclosure.hi <= hi_lim:
        st, mg = PASS, hi_lim - rep_max.enclosure.hi
    elif rep_max.enclosure.lo > hi_lim:
        st, mg = FAIL, hi_lim - rep_max.enclosure.lo
    else:
        st, mg = INCONCLUSIVE, hi_lim - rep_max.enclosure.hi
    subs.append(SubCheck(cid + "max", rep_max.enclosure.hi, hi_lim, "<=", mg, st))
    stats.append(st)
    if FAIL in stats:
        status = FAIL
    elif INCONCLUSIVE in stats:
        status = INCONCLUSIVE
    else:
        status = PASS
    binding = min(subs, key=lambda s: s.margin)
    return ConditionRecord(
        cid=cid,
        status=status,
        lhs=binding.lhs,
        rhs=binding.rhs,
        relation=binding.relation,
        margin=binding.margin,
        engine="interval",
        subchecks=subs,
        interval={"min": _report_dict(rep_min), "max": _report_dict(rep_max)},
    )


def verify_C_rigorous(
    p: Params,
    b: Box,
    tol: float = 1e-8,
    budget: int = 10**6,
    min_margin: float = DEFAULT_MIN_MARGIN,
) -> Certificate:
    """Interval-arithmetic verdicts for (C1), (C2), (C3'), (C4), (C5).

    Independent of the analytic reductions: every verdict comes from a
    certified enclosure of an extremum over the relevant face or the whole
    box.  A verdict is ``inconclusive`` (never a guess) when the enclosure
    still straddles its threshold at the requested tolerance.
    """
    full = IntervalBox.from_box(b)
    top = IntervalBox(full.ix, full.iy, Interval.point(b.z_r))
    midplane = IntervalBox(full.ix, full.iy, Interval.point(b.z_mid))

    conditions: list[ConditionRecord] = []

    # C1: bottom face, exact when z_l = 0 thanks to the factored z-update.
    if b.z_l == 0.0:
        bottom = IntervalBox(full.ix, full.iy, Interval(0.0, 0.0))
        t6 = bottom.as_tuple6()
        _precheck(p, t6)
        f3 = _range_f3(p, t6)
        exact = f3 == (0.0, 0.0)
        conditions.append(
            ConditionRecord(
                cid="C1",
                status=PASS if exact else (PASS if f3[1] <= 0.0 else INCONCLUSIVE),
                lhs=f3[1],
                rhs=0.0,
                relation="==",
                margin=0.0 if exact else -max(abs(f3[0]), abs(f3[1])),
                engine="interval",
                interval={"enclosure": [f3[0], f3[1]], "subdivisions": 0,
                          "width": f3[1] - f3[0], "status": "ok"},
                note="bottom-face image enclosure is exactly [0, 0]" if exact else "",
            )
        )
    else:
        rep = bound_extremum(p, IntervalBox(full.ix, full.iy, Interval.point(b.z_l)),
                             "F3", "max", tol, budget)
        conditions.append(_one_sided("C1", rep, b.z_l, "<=", False, min_margin))

    # C2: max F3 over the top face <= 0.
    rep = bound_extremum(p, top, "F3", "max", tol, budget)
    conditions.append(_one_sided("C2", rep, 0.0, "<=", False, min_margin))

    # C3': min F3 over the midplane > z_r (strict).
    rep = bound_extremum(p, midplane, "F3", "min", tol, budget)
    conditions.append(_one_sided("C3p", rep, b.z_r, ">", True, min_margin))

    # C4: range of F1 over the whole box inside [x_l, x_r].
    rep_min = bound_extremum(p, full, "F1", "min", tol, budget)
    rep_max = bound_extremum(p, full, "F1", "max", tol, budget)
    conditions.append(_two_sided("C4", rep_min, rep_max, b.x_l, b.x_r))

    # C5: range of F2 over the whole box inside [y_l, y_r].
    rep_min = bound_extremum(p, full, "F2", "min", tol, budget)
    rep_max = bound_extremum(p, full, "F2", "max", tol, budget)
    conditions.append(_two_sided("C5", rep_min, rep_max, b.y_l, b.y_r))

    return Certificate(
        params=p,
        box=b,
        conditions=conditions,
        engine="interval",
        tol=tol,
        min_margin=min_margin,
    )


# ---------------------------------------------------------------------------
# vectorised kernels for gridded covers (used by the horseshoe module)
# ---------------------------------------------------------------------------

def _v_up(a):
    return np.nextafter(a, np.inf)


def _v_dn(a):
    return np.nextafter(a, -np.inf)


def _v_add(alo, ahi, blo, bhi):
    return _v_dn(alo + blo), _v_up(ahi + bhi)


def _v_sub(alo, ahi, blo, bhi):
    return _v_dn(alo - bhi), _v_up(ahi - blo)


def _v_mul(alo, ahi, blo, bhi):
    p1, p2, p3, p4 = alo * blo, alo * bhi, ahi * blo, ahi * bhi
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return _v_dn(lo), _v_up(hi)


def _v_mul_f(alo, ahi, v: float):
    if v >= 0:
        return _v_dn(alo * v), _v_up(ahi * v)
    return _v_dn(ahi * v), _v_up(alo * v)


def _v_div_pos(alo, ahi, blo, bhi):
    q1, q2, q3, q4 = alo / blo, alo / bhi, ahi / blo, ahi / bhi
    lo = np.minimum(np.minimum(q1, q2), np.minimum(q3, q4))
    hi = np.maximum(np.maximum(q1, q2), np.maximum(q3, q4))
    return _v_dn(lo), _v_up(hi)


def _v_sqr_pos(alo, ahi):
    # all our squared quantities are positive aggregates
    return _v_dn(alo * alo), _v_up(ahi * ahi)


def batch_image_enclosure(p: Params, cells: np.ndarray, refine: bool = True):
    """Image enclosures for an (n, 6) array of cells [xl,xh,yl,yh,zl,zh].

    Returns (lo, hi) arrays of shape (n, 3).  Vectorised mirror of the
    scalar kernels; with ``refine`` the mean-value form is intersected in,
    which is what makes midplane-adjacent exclusions succeed at coarse
    grids.  Preconditions (positivity of x+z and x+y+z across every cell)
    are the caller's responsibility here; cells must come from a domain-
    checked box.
    """
    xl, xh = cells[:, 0], cells[:, 1]
    yl, yh = cells[:, 2], cells[:, 3]
    zl, zh = cells[:, 4], cells[:, 5]

    def naive(xl, xh, yl, yh, zl, zh):
        alo, ahi = _v_add(xl, xh, yl, yh)
        qlo, qhi = _v_add(alo, ahi, zl, zh)
        if np.any(qlo <= 0) or np.any(_v_add(xl, xh, zl, zh)[0] < 0):
            raise DomainError("cell grid leaves the map domain")
        # F1
        q2lo, q2hi = _v_sqr_pos(qlo, qhi)
        c1q2lo, c1q2hi = _v_mul_f(q2lo, q2hi, p.c1)
        nlo, nhi = _v_add(2.0 * xl, 2.0 * xh, yl, yh)
        nlo, nhi = _v_add(nlo, nhi, zl, zh)
        nlo, nhi = _v_sub(nlo, nhi, c1q2lo, c1q2hi)
        f1 = (0.5 * nlo, 0.5 * nhi)
        # F2 sharp via psi monotonicity
        dlo, dhi = _v_add(xl, xh, zl, zh)
        psi_at = lambda d, up: (
            _v_up(_v_up(np.sqrt(_v_up(d / p.c2))) - d)
            if up
            else _v_dn(_v_dn(np.sqrt(_v_dn(d / p.c2))) - d)
        )
        lo2 = np.minimum(psi_at(dlo, False), psi_at(dhi, False))
        dstar = 0.25 / p.c2
        hi_inc = psi_at(dhi, True)
        hi_dec = psi_at(dlo, True)
        hi_crit = np.full_like(lo2, _up(_up(dstar)))
        hi2 = np.where(dhi < _dn(dstar), hi_inc, np.where(dlo > _up(dstar), hi_dec, hi_crit))
        # F3
        ac3 = p.alpha * p.c3
        blo, bhi = _dn(1.0 - _up(ac3)), _up(1.0 - _dn(ac3))
        tlo, thi = _v_mul_f(alo, ahi, p.alpha)
        tlo, thi = _v_div_pos(tlo, thi, q2lo, q2hi)
        ilo, ihi = _v_add(tlo, thi, np.full_like(tlo, blo), np.full_like(thi, bhi))
        f3 = _v_mul(zl, zh, ilo, ihi)
        return f1, (lo2, hi2), f3

    f1, f2, f3 = naive(xl, xh, yl, yh, zl, zh)
    lo = np.stack([f1[0], f2[0], f3[0]], axis=1)
    hi = np.stack([f1[1], f2[1], f3[1]], axis=1)

    if refine:
        mlo, mhi = _batch_mvf(p, cells)
        lo = np.maximum(lo, mlo)
        hi = np.minimum(hi, mhi)
    return lo, hi


def _batch_jac(p: Params, cells: np.ndarray):
    """Vectorised Jacobian-entry enclosures; returns dict of (lo, hi)."""
    xl, xh = cells[:, 0], cells[:, 1]
    yl, yh = cells[:, 2], cells[:, 3]
    zl, zh = cells[:, 4], cells[:, 5]
    alo, ahi = _v_add(xl, xh, yl, yh)
    qlo, qhi = _v_add(alo, ahi, zl, zh)
    dlo, dhi = _v_add(xl, xh, zl, zh)
    out = {}
    c1qlo, c1qhi = _v_mul_f(qlo, qhi, p.c1)
    out["11"] = (_v_dn(1.0 - c1qhi), _v_up(1.0 - c1qlo))
    out["12"] = (_v_dn(0.5 - c1qhi), _v_up(0.5 - c1qlo))
    g_lo = _v_dn(1.0 / _v_up(2.0 * _v_up(np.sqrt(_v_up(p.c2 * dhi)))) - 1.0)
    g_hi = _v_up(1.0 / _v_dn(2.0 * _v_dn(np.sqrt(_v_dn(p.c2 * dlo)))) - 1.0)
    out["21"] = (g_lo, g_hi)
    q2lo, q2hi = _v_sqr_pos(qlo, qhi)
    q3lo, q3hi = _v_mul(qlo, qhi, q2lo, q2hi)
    tlo, thi = _v_sub(qlo, qhi, 2.0 * alo, 2.0 * ahi)
    tlo, thi = _v_mul(zl, zh, tlo, thi)
    tlo, thi = _v_mul_f(tlo, thi, p.alpha)
    out["31"] = _v_div_pos(tlo, thi, q3lo, q3hi)
    ulo, uhi = _v_sub(qlo, qhi, 2.0 * zl, 2.0 * zh)
    ulo, uhi = _v_mul(alo, ahi, ulo, uhi)
    ulo, uhi = _v_mul_f(ulo, uhi, p.alpha)
    ulo, uhi = _v_div_pos(ulo, uhi, q3lo, q3hi)
    ac3 = p.alpha * p.c3
    out["33"] = (_v_dn(1.0 - _up(ac3) + ulo), _v_up(1.0 - _dn(ac3) + uhi))
    return out


def _batch_mvf(p: Params, cells: np.ndarray):
    """Vectorised mean-value form enclosures for all three components."""
    mids = 0.5 * (cells[:, 0::2] + cells[:, 1::2])  # (n, 3)
    centre = np.repeat(mids, 2, axis=1)
    clo, chi = batch_image_enclosure(p, centre, refine=False)
    jac = _batch_jac(p, cells)
    devlo = _v_dn(cells[:, 0::2] - mids)
    devhi = _v_up(cells[:, 1::2] - mids)
    rows = {
        0: ("11", "12", "12"),
        1: ("21", None, "21"),
        2: ("31", "31", "33"),
    }
    lo = clo.copy()
    hi = chi.copy()
    for comp, keys in rows.items():
        acc_lo = clo[:, comp].copy()
        acc_hi = chi[:, comp].copy()
        for j, key in enumerate(keys):
            if key is None:
                continue
            jlo, jhi = jac[key]
            plo, phi = _v_mul(jlo, jhi, devlo[:, j], devhi[:, j])
            acc_lo, acc_hi = _v_add(acc_lo, acc_hi, plo, phi)
        lo[:, comp] = acc_lo
        hi[:, comp] = acc_hi
    return lo, hi
