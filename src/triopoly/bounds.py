"""Rigorous interval bounds for the map: the second, independent engine.

Everything here is deliberately low-tech: outward-rounded double-precision
interval arithmetic (one outward nudge per inexact primitive) plus
branch-and-bound subdivision.  Each enclosure -- the plain ranges of F1, F2
and F3, the three Jacobian rows and the mean-value form -- is written once,
over an arithmetic passed in as a parameter, and an interval is a (lo, hi)
pair of whatever that arithmetic works on.  There are two arithmetics, and
their primitives are the only code kept per arithmetic:

* ``_SCALAR`` works on float pairs and nudges with ``math.nextafter``.  The
  branch-and-bound and the public functions use it, on point boxes too:
  there is no extended-precision path, so every enclosure is built the same
  way on every platform.  Its product with an exact [0, 0] is exactly
  [0, 0], which keeps the bottom face of (C1) exact.
* ``_VECTOR`` works on pairs of numpy arrays, one row per cell, and nudges
  with the branch-free successor/predecessor bound a +- (phi |a| + eta) of
  Rump, Zimmermann, Boldo & Melquiond (BIT 49, 2009), which equals
  ``nextafter`` except for 2^-1022 <= |a| <= 2^-1020, and the bound of +-inf
  toward the finite range, where it lands one ulp further out.  The
  horseshoe covers use it through ``_batch_enclosures``, for F3 alone,
  and ``batch_image_enclosure`` gives all three components.

No affine arithmetic, no Taylor models.  Two standard first-order
refinements and one exact range keep the subdivision counts small:

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
and stays internal to ``bound_extremum`` and the batch enclosures.  The
exact x-update range is internal to ``bound_extremum`` alone: neither the
public enclosures nor the batch enclosures of the horseshoe covers use it.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple, Optional

import numpy as np

from .boxes import Box
from .certificate import (
    Certificate,
    ConditionRecord,
    DEFAULT_MIN_MARGIN,
    FAIL,
    INCONCLUSIVE,
    PASS,
    SubCheck,
    _check_tol,
    condition_record,
)
from .core import DomainError, Params, eval_map_xyz

__all__ = [
    "Interval",
    "IntervalBox",
    "BoundReport",
    "Threshold",
    "interval_eval",
    "interval_jacobian",
    "bound_extremum",
    "verify_C_rigorous",
    "ROUNDING_STRATEGY",
]

ROUNDING_STRATEGY = (
    "outward per inexact primitive: scalar 1-ulp nextafter, vector "
    "Rump-Zimmermann-Boldo-Melquiond successor/predecessor"
)

_INF = math.inf


def _up(v: float) -> float:
    return math.nextafter(v, _INF)


def _dn(v: float) -> float:
    return math.nextafter(v, -_INF)


# ---------------------------------------------------------------------------
# scalar arithmetic: float pairs (lo, hi) -- the branch-and-bound's hot path
# ---------------------------------------------------------------------------

def _add(a, b):
    return _dn(a[0] + b[0]), _up(a[1] + b[1])


def _sub(a, b):
    return _dn(a[0] - b[1]), _up(a[1] - b[0])


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
    """Multiply by an exact scalar."""
    if v == 0.0:
        return 0.0, 0.0
    if v > 0:
        return _dn(a[0] * v), _up(a[1] * v)
    return _dn(a[1] * v), _up(a[0] * v)


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
    # a square is >= 0, so the rounded-down lower end is clamped there
    if a[0] >= 0.0:
        return max(_dn(a[0] * a[0]), 0.0), _up(a[1] * a[1])
    if a[1] <= 0.0:
        return max(_dn(a[1] * a[1]), 0.0), _up(a[0] * a[0])
    m = max(-a[0], a[1])
    return 0.0, _up(m * m)


def _where(c, a, b):
    return a if c else b


_SCALAR = SimpleNamespace(
    up=_up, dn=_dn, add=_add, sub=_sub, mul=_mul, mul_f=_mul_f, div_pos=_div_pos,
    sqr=_sqr, sqrt=math.sqrt, min=min, where=_where, any=bool, all=bool,
)


# ---------------------------------------------------------------------------
# vector arithmetic: array pairs (lo, hi), one row per cell
# ---------------------------------------------------------------------------

# a + (phi |a| + eta) in round-to-nearest is at or above the successor of
# a (Rump, Zimmermann, Boldo & Melquiond, BIT 49, 2009, Algorithm 2) and
# equal to it outside 2^-1022 <= |a| <= 2^-1020.  The clamp to the finite
# range keeps inf - inf from making a NaN of the bound toward +-max.
_PHI = 2.0 ** -53 * (1.0 + 2.0 ** -52)
_ETA = 2.0 ** -1074
_MAX = float(np.finfo(np.float64).max)


def _v_up(a):
    a = np.maximum(a, -_MAX)
    c = np.abs(a)
    c *= _PHI
    c += _ETA
    c += a
    return c


def _v_dn(a):
    a = np.minimum(a, _MAX)
    c = np.abs(a)
    c *= _PHI
    c += _ETA
    np.subtract(a, c, out=c)
    return c


def _v_add(a, b):
    return _v_dn(a[0] + b[0]), _v_up(a[1] + b[1])


def _v_sub(a, b):
    return _v_dn(a[0] - b[1]), _v_up(a[1] - b[0])


def _v_mul(a, b):
    p1, p2, p3, p4 = a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]
    lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
    hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
    return _v_dn(lo), _v_up(hi)


def _v_mul_f(a, v: float):
    if v >= 0:
        return _v_dn(a[0] * v), _v_up(a[1] * v)
    return _v_dn(a[1] * v), _v_up(a[0] * v)


def _v_div_pos(a, b):
    q1, q2, q3, q4 = a[0] / b[0], a[0] / b[1], a[1] / b[0], a[1] / b[1]
    lo = np.minimum(np.minimum(q1, q2), np.minimum(q3, q4))
    hi = np.maximum(np.maximum(q1, q2), np.maximum(q3, q4))
    return _v_dn(lo), _v_up(hi)


def _v_sqr(a):
    # every squared operand is the positive sum x+y+z; as in _sqr, the
    # rounded-down lower end is clamped at 0
    lo = _v_dn(a[0] * a[0])
    np.maximum(lo, 0.0, out=lo)
    return lo, _v_up(a[1] * a[1])


_VECTOR = SimpleNamespace(
    up=_v_up, dn=_v_dn, add=_v_add, sub=_v_sub, mul=_v_mul, mul_f=_v_mul_f,
    div_pos=_v_div_pos, sqr=_v_sqr, sqrt=np.sqrt, min=np.minimum, where=np.where,
    any=np.any, all=np.all,
)


def _mul_pow2(a, v: float):
    # scaling by a positive power of two is exact in binary floating point,
    # in either arithmetic
    return a[0] * v, a[1] * v


def _isect(a, b):
    # both arguments enclose the same true range, so this never empties
    return max(a[0], b[0]), min(a[1], b[1])


# ---------------------------------------------------------------------------
# public records: the inputs and results of the functions below, with no
# arithmetic of their own
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi]: a region's axis or an enclosure."""

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

    def as_pair(self) -> tuple[float, float]:
        return (self.lo, self.hi)



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
    def is_point(self) -> bool:
        return self.ix.is_point and self.iy.is_point and self.iz.is_point

    def as_tuple6(self):
        return (self.ix.lo, self.ix.hi, self.iy.lo, self.iy.hi, self.iz.lo, self.iz.hi)


# ---------------------------------------------------------------------------
# map kernels, written once over an arithmetic A; a box is a 6-tuple
# (xl, xh, yl, yh, zl, zh) of floats or of columns
# ---------------------------------------------------------------------------

def _sums(A, t6):
    """The axes of a box and the sums a = x+y, q = x+y+z, d = x+z, as pairs.

    Every kernel works from these.
    """
    x, y, z = (t6[0], t6[1]), (t6[2], t6[3]), (t6[4], t6[5])
    a = A.add(x, y)
    return x, y, z, a, A.add(a, z), A.add(x, z)


def _checked_sums(A, t6):
    """``_sums``, raising DomainError where the map is undefined in the box.

    That is where x+z or x+y+z can reach 0, in any row.  The kernels take
    it as given, and so may every subbox of a box that passed.
    """
    s = _sums(A, t6)
    if A.any(s[5][0] <= 0.0):
        raise DomainError(f"x+z can reach {np.min(s[5][0])} <= 0 inside the box: sqrt undefined")
    if A.any(s[4][0] <= 0.0):
        raise DomainError(f"x+y+z can reach {np.min(s[4][0])} <= 0 inside the box: share undefined")
    return s


def _one_minus_ac3(p: Params):
    ac3 = p.alpha * p.c3
    return _dn(1.0 - _up(ac3)), _up(1.0 - _dn(ac3))


def _range_f1(A, p: Params, s):
    x, y, z, a, q, d = s
    num = A.sub(A.add(A.add(_mul_pow2(x, 2.0), y), z), A.mul_f(A.sqr(q), p.c1))
    return _mul_pow2(num, 0.5)


def _psi(A, d, c2: float, r):
    """psi(D) = sqrt(D/c2) - D, every step rounded by r (A.dn or A.up)."""
    return r(r(A.sqrt(r(d / c2))) - d)


def _range_f2(A, p: Params, s):
    """Exact 1-d range of psi(D) = sqrt(D/c2) - D over D = x+z, rounded out.

    psi increases up to D* = 1/(4 c2) (where its value is D* itself) and
    decreases afterwards, so the sharp range needs only the endpoints and,
    when D* may lie inside, the critical value.
    """
    d = s[5]
    dstar = 0.25 / p.c2
    lo = A.min(_psi(A, d[0], p.c2, A.dn), _psi(A, d[1], p.c2, A.dn))
    left = d[1] < _dn(dstar)  # strictly left of the peak: increasing
    right = d[0] > _up(dstar)  # strictly right: decreasing
    # otherwise the peak may be inside; its exact value is 1/(4 c2)
    hi = A.where(left | right, _psi(A, A.where(left, d[1], d[0]), p.c2, A.up),
                 _up(_up(dstar)))
    return lo, hi


def _range_f3(A, p: Params, s):
    x, y, z, a, q, d = s
    term = A.div_pos(A.mul_f(a, p.alpha), A.sqr(q))
    return A.mul(z, A.add(_one_minus_ac3(p), term))


_RANGES = {"F1": _range_f1, "F2": _range_f2, "F3": _range_f3}


def _jac_row(A, p: Params, s, comp: str):
    """Interval enclosures of one Jacobian row over a box, as 3 pairs.

    An entry that is exactly zero is None.
    """
    x, y, z, a, q, d = s
    if comp == "F1":
        c1q = A.mul_f(q, p.c1)
        jy = A.sub((0.5, 0.5), c1q)
        return A.sub((1.0, 1.0), c1q), jy, jy
    if comp == "F2":
        # g(D) = 1/(2 sqrt(c2 D)) - 1 is decreasing in D
        g = (A.dn(A.dn(1.0 / A.up(2.0 * A.up(A.sqrt(A.up(p.c2 * d[1]))))) - 1.0),
             A.up(A.up(1.0 / A.dn(2.0 * A.dn(A.sqrt(A.dn(p.c2 * d[0]))))) - 1.0))
        return g, None, g
    if comp == "F3":
        q3 = A.mul(q, A.sqr(q))
        jxy = A.div_pos(A.mul_f(A.mul(z, A.sub(q, _mul_pow2(a, 2.0))), p.alpha), q3)
        u = A.div_pos(A.mul_f(A.mul(a, A.sub(q, _mul_pow2(z, 2.0))), p.alpha), q3)
        return jxy, jxy, A.add(_one_minus_ac3(p), u)
    raise ValueError(f"unknown component {comp!r}")


def _mean_value(A, p: Params, t6, s, comps):
    """Mean-value form f(m) + sum_j J_j(box) (box_j - m_j) of each of ``comps``.

    ``s`` holds the sums of the box ``t6`` and m is its midpoint.  Returns
    the forms and the plain enclosures f(m) they start from.  An axis that
    is degenerate in every row adds nothing, nor does a zero entry, so both
    are skipped; on a point box no Jacobian row is computed at all.
    """
    xm, ym, zm = 0.5 * (t6[0] + t6[1]), 0.5 * (t6[2] + t6[3]), 0.5 * (t6[4] + t6[5])
    at_mid = _sums(A, (xm, xm, ym, ym, zm, zm))
    devs = []
    for lo, hi, m in ((t6[0], t6[1], xm), (t6[2], t6[3], ym), (t6[4], t6[5], zm)):
        devs.append(None if A.all(lo == hi) else (A.dn(lo - m), A.up(hi - m)))
    point = all(dev is None for dev in devs)
    forms, centre = [], []
    for comp in comps:
        acc = _RANGES[comp](A, p, at_mid)
        centre.append(acc)
        if not point:
            for entry, dev in zip(_jac_row(A, p, s, comp), devs):
                if entry is not None and dev is not None:
                    acc = A.add(acc, A.mul(entry, dev))
        forms.append(acc)
    return forms, centre


def _g(q: float, c1: float, r, o) -> float:
    """g(q) = q - c1 q^2 rounded by r, its subtracted term by the opposite o."""
    return r(q - o(o(q * q) * c1))


def _range_f1_sharp(p: Params, s):
    """F1 = (x + g(q)) / 2 with g(q) = q - c1 q^2 ranged exactly over q = x+y+z.

    g is a concave parabola with peak 1/(4 c1) at q* = 1/(2 c1), so, as for
    psi in ``_range_f2``, its sharp range needs only the endpoints and, when
    q* may lie inside, the peak.  Summing the x and g enclosures is sound
    whatever the dependence between x and q, and exact on every box that
    meets the maximiser plane q = q* at x = x_hi.  Scalar only.
    """
    x, q = s[0], s[4]
    qstar = 0.5 / p.c1
    lo = min(_g(q[0], p.c1, _dn, _up), _g(q[1], p.c1, _dn, _up))
    if q[1] < _dn(qstar):  # strictly left of the peak: increasing
        hi = _g(q[1], p.c1, _up, _dn)
    elif q[0] > _up(qstar):  # strictly right: decreasing
        hi = _g(q[0], p.c1, _up, _dn)
    else:  # peak may be inside; its exact value is 1/(4 c1)
        hi = _up(0.25 / p.c1)
    return _mul_pow2(_add(x, (lo, hi)), 0.5)


def _tight_range(p: Params, t6, s, comp: str):
    """The refined enclosure of comp over t6 (with sums s), and the plain
    one at its midpoint."""
    base = _RANGES[comp](_SCALAR, p, s)
    if comp == "F1":
        base = _isect(base, _range_f1_sharp(p, s))
    (form,), (centre,) = _mean_value(_SCALAR, p, t6, s, (comp,))
    return _isect(base, form), centre


# ---------------------------------------------------------------------------
# public evaluation
# ---------------------------------------------------------------------------

def interval_eval(p: Params, ib: IntervalBox) -> tuple[Interval, Interval, Interval]:
    """Enclosures of the three image components over ``ib``.

    Raises DomainError when a positivity precondition (x+z > 0 or
    x+y+z > 0) can be violated inside the box.  Every box, a point too,
    takes the outward ``_SCALAR`` kernels, on every platform.
    """
    t6 = ib.as_tuple6()
    s = _checked_sums(_SCALAR, t6)
    encl = [kernel(_SCALAR, p, s) for kernel in _RANGES.values()]
    if ib.is_point:
        # hull in the plain double evaluation so the enclosure also covers
        # what eval_map reports (its own rounding can exceed the true-value
        # enclosure by an ulp or two)
        dbl = eval_map_xyz(p, t6[0], t6[2], t6[4])
        encl = [(min(lo, _dn(v)), max(hi, _up(v))) for (lo, hi), v in zip(encl, dbl)]
    return tuple(Interval(*pair) for pair in encl)


def interval_jacobian(p: Params, ib: IntervalBox) -> list[list[Interval]]:
    """3x3 matrix of Jacobian-entry enclosures over the box."""
    s = _checked_sums(_SCALAR, ib.as_tuple6())
    return [
        [Interval(*(pair or (0.0, 0.0))) for pair in _jac_row(_SCALAR, p, s, comp)]
        for comp in _RANGES
    ]


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------

class Threshold(NamedTuple):
    """The inequality an extremum is checked against: ``extremum relation
    value``.

    ``relation`` is "<=", ">=" or ">"; a ">" inequality passes only when the
    extremum clears ``value`` by more than ``need``.
    """

    value: float
    relation: str
    need: float = 0.0

    def decide(self, lo: float, hi: float) -> tuple[str, float, float]:
        """Status, judged end and margin of an extremum enclosed in [lo, hi].

        "<=" judges the upper end, ">=" and ">" the lower one; the margin
        is the judged end's signed distance from ``value``.  The far end on
        the wrong side refutes the inequality, and its distance is then the
        margin; anything in between is inconclusive.
        """
        if self.relation == "<=":
            lhs, clear, refute = hi, self.value - hi, self.value - lo
        else:
            lhs, clear, refute = lo, lo - self.value, hi - self.value
        if self.relation == ">":
            passed, failed = clear > self.need, refute <= 0.0
        else:
            passed, failed = clear >= 0.0, refute < 0.0
        if passed:
            return PASS, lhs, clear
        if failed:
            return FAIL, lhs, refute
        return INCONCLUSIVE, lhs, clear


@dataclass
class BoundReport:
    """Certified enclosure of min or max of one component over a region."""

    which: str
    enclosure: Interval
    subdivisions: int
    status: str  # "ok" | "decided" | "inconclusive"

    @property
    def width(self) -> float:
        return self.enclosure.width


def _collapse(p: Params, t6, comp: str, want_max: bool):
    """Monotonicity pruning: fix axes whose derivative sign is constant.

    Sound for extremum *values*: if df/dx_j >= 0 everywhere on the box, the
    maximum over the box is attained on the x_j = hi face, so the box can
    be replaced by that face.  Iterates because collapsing one axis tightens
    the remaining derivative enclosures, and stops without another row
    once every axis is fixed.  Returns the box and its sums.
    """
    t6 = list(t6)
    for _ in range(3):
        changed = False
        s = _sums(_SCALAR, t6)
        if t6[0] == t6[1] and t6[2] == t6[3] and t6[4] == t6[5]:
            return tuple(t6), s  # a point: no axis left to fix
        row = _jac_row(_SCALAR, p, s, comp)
        for j in range(3):
            lo_i, hi_i = 2 * j, 2 * j + 1
            if t6[lo_i] == t6[hi_i]:
                continue
            dlo, dhi = row[j] or (0.0, 0.0)
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
            return tuple(t6), s
    return tuple(t6), _sums(_SCALAR, t6)


def bound_extremum(
    p: Params,
    region: IntervalBox,
    component: str = "F3",
    which: str = "max",
    tol: float = 1e-8,
    budget: int = 10**6,
    threshold: Optional[Threshold] = None,
) -> BoundReport:
    """Certified enclosure of an extremum of F1/F2/F3 over an interval box.

    Best-first branch-and-bound: split the widest axis (ties x before y
    before z), prune with certified feasible values from midpoint samples.
    The enclosure is [best certified value, largest bound left on the heap]
    (mirrored for a min) and is sound whenever the search stops:

    * status "ok" when its width reaches ``tol``;
    * status "decided" when a ``threshold`` is given and the enclosure
      already decides it (``Threshold.decide`` passes or fails it), however
      wide it still is;
    * status "inconclusive" when the expansion budget runs out, or the box
      holding the largest bound can no longer be split, first.

    So ``tol`` is the width at which a search that has not decided its
    threshold gives up, and without a threshold the width every enclosure
    is shrunk to.  Deterministic: the heap is ordered by bound then
    insertion, and a threshold only stops the same sequence earlier.
    """
    if component not in _RANGES:
        raise ValueError(f"component must be F1, F2 or F3, got {component!r}")
    if which not in ("min", "max"):
        raise ValueError(f"which must be 'min' or 'max', got {which!r}")
    _check_tol(tol)
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if threshold is not None and threshold.relation not in ("<=", ">=", ">"):
        raise ValueError(f"threshold relation must be <=, >= or >, got {threshold.relation!r}")
    want_max = which == "max"
    t6 = region.as_tuple6()
    _checked_sums(_SCALAR, t6)  # every subbox passes where the region does

    def signed(e):  # enclosure of +-f oriented as a max problem
        return e if want_max else (-e[1], -e[0])

    def unsigned(inc, ub):  # the enclosure [lo, hi] of f itself
        return (inc, ub) if want_max else (-ub, -inc)

    start, s = _collapse(p, t6, component, want_max)
    e0, pv = map(signed, _tight_range(p, start, s, component))
    incumbent = pv[0]

    seq = 0
    heap = [(-e0[1], seq, start)]
    expansions = 0
    status = "ok"
    ub = e0[1]

    while heap:
        neg_ub, _, cur = heapq.heappop(heap)
        # the incumbent can have risen past every bound left on the heap;
        # then it is the extremum itself
        ub = max(-neg_ub, incumbent)
        if ub - incumbent <= tol:
            break
        if threshold is not None and threshold.decide(*unsigned(incumbent, ub))[0] != INCONCLUSIVE:
            status = "decided"
            break
        if expansions >= budget:
            status = "inconclusive"
            break
        widths = (cur[1] - cur[0], cur[3] - cur[2], cur[5] - cur[4])
        axis = max(range(3), key=lambda j: (widths[j], -j))
        lo_i, hi_i = 2 * axis, 2 * axis + 1
        cut = 0.5 * (cur[lo_i] + cur[hi_i])
        if not cur[lo_i] < cut < cur[hi_i]:
            # its children would be the box itself: it cannot be split, and
            # it holds the largest upper bound, so nothing can lower that
            status = "inconclusive"
            break
        expansions += 1
        for child in (
            cur[:hi_i] + (cut,) + cur[hi_i + 1:],
            cur[:lo_i] + (cut,) + cur[lo_i + 1:],
        ):
            child, s = _collapse(p, child, component, want_max)
            e, pv = map(signed, _tight_range(p, child, s, component))
            incumbent = max(incumbent, pv[0])
            if e[1] > incumbent:
                seq += 1
                heapq.heappush(heap, (-e[1], seq, child))
    else:
        # heap exhausted: every box was pruned at or below the incumbent
        ub = incumbent

    return BoundReport(which=which, enclosure=Interval(*unsigned(incumbent, ub)),
                       subdivisions=expansions, status=status)


# ---------------------------------------------------------------------------
# rigorous C layer
# ---------------------------------------------------------------------------

def _reports(*reps: BoundReport) -> dict:
    """The ``interval`` entry of a record: each extremum report by its kind."""
    return {
        rep.which: {
            "enclosure": [rep.enclosure.lo, rep.enclosure.hi],
            "subdivisions": rep.subdivisions,
            "width": rep.width,
            "status": rep.status,
        }
        for rep in reps
    }


def _side(cid, rep: BoundReport, threshold: Threshold) -> SubCheck:
    """One sub-check: the extremum enclosed by ``rep`` against ``threshold``,
    decided by the rule that also stops the search."""
    status, lhs, margin = threshold.decide(rep.enclosure.lo, rep.enclosure.hi)
    return SubCheck(cid, lhs, threshold.value, threshold.relation, margin, status)


def verify_C_rigorous(
    p: Params,
    b: Box,
    tol: float = 1e-8,
    budget: int = 10**6,
) -> Certificate:
    """Interval-arithmetic verdicts for (C1), (C2), (C3'), (C4), (C5).

    Independent of the analytic reductions: every verdict comes from a
    certified enclosure of an extremum over the relevant face or the whole
    box.  Each branch-and-bound gets its condition's threshold and stops as
    soon as its enclosure decides it, so a margin is a certified distance
    from the threshold (the judged end of an enclosure that may still be
    wide), not the extremum's near-exact value.  A verdict is
    ``inconclusive`` (never a guess) when the enclosure still straddles its
    threshold at width ``tol`` or when ``budget`` runs out first.
    """
    full = IntervalBox.from_box(b)
    top = IntervalBox(full.ix, full.iy, Interval.point(b.z_r))
    midplane = IntervalBox(full.ix, full.iy, Interval.point(b.z_mid))

    def checked(cid, region, component, which, threshold):
        rep = bound_extremum(p, region, component, which, tol, budget, threshold)
        return _side(cid, rep, threshold), rep

    def record(cid, *checks):
        return condition_record(cid, [sub for sub, _ in checks], "interval",
                                interval=_reports(*(rep for _, rep in checks)))

    conditions: list[ConditionRecord] = []

    # C1: bottom face, exact when z_l = 0 thanks to the factored z-update.
    if b.z_l == 0.0:
        bottom = IntervalBox(full.ix, full.iy, Interval(0.0, 0.0))
        f3 = _range_f3(_SCALAR, p, _checked_sums(_SCALAR, bottom.as_tuple6()))
        exact = f3 == (0.0, 0.0)
        conditions.append(
            ConditionRecord(
                cid="C1",
                status=PASS if f3[1] <= 0.0 else INCONCLUSIVE,
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
        bottom = IntervalBox(full.ix, full.iy, Interval.point(b.z_l))
        conditions.append(record("C1", checked("C1", bottom, "F3", "max", Threshold(b.z_l, "<="))))

    # C2: max F3 over the top face <= 0.
    conditions.append(record("C2", checked("C2", top, "F3", "max", Threshold(0.0, "<="))))

    # C3': min F3 over the midplane > z_r (strict).
    conditions.append(record("C3p", checked("C3p", midplane, "F3", "min",
                                            Threshold(b.z_r, ">", DEFAULT_MIN_MARGIN))))

    # C4: range of F1 over the whole box inside [x_l, x_r].
    conditions.append(record("C4", checked("C4min", full, "F1", "min", Threshold(b.x_l, ">=")),
                             checked("C4max", full, "F1", "max", Threshold(b.x_r, "<="))))

    # C5: range of F2 over the whole box inside [y_l, y_r].
    conditions.append(record("C5", checked("C5min", full, "F2", "min", Threshold(b.y_l, ">=")),
                             checked("C5max", full, "F2", "max", Threshold(b.y_r, "<="))))

    return Certificate(params=p, box=b, conditions=conditions, engine="interval", tol=tol)


# ---------------------------------------------------------------------------
# batch enclosures for gridded covers (used by the horseshoe module)
# ---------------------------------------------------------------------------

def _batch_enclosures(p: Params, cells: np.ndarray, comps, refine: bool = True):
    """(lo, hi) column pairs enclosing each of ``comps`` over (n, 6) cells.

    The plain range, intersected with the mean-value form when ``refine``;
    each component's enclosure depends only on its own kernels, so asking
    for fewer components gives the same bits for the ones asked for.  The
    horseshoe covers ask for F3 alone: every cell lies in a certified box
    R, where C4 and C5 put F1 and F2 of every point inside [x_l, x_r] and
    [y_l, y_r], so an enclosure of F1 or F2, which contains that range,
    can never miss R.  Raises DomainError when x+z or x+y+z can reach 0 in
    any cell.
    """
    t6 = tuple(cells[:, k] for k in range(6))
    s = _checked_sums(_VECTOR, t6)
    encl = [_RANGES[c](_VECTOR, p, s) for c in comps]
    if refine:
        encl = [
            (np.maximum(e[0], m[0]), np.minimum(e[1], m[1]))
            for e, m in zip(encl, _mean_value(_VECTOR, p, t6, s, comps)[0])
        ]
    return encl


def batch_image_enclosure(p: Params, cells: np.ndarray, refine: bool = True):
    """Image enclosures for an (n, 6) array of cells [xl,xh,yl,yh,zl,zh].

    Returns (lo, hi) arrays of shape (n, 3): the kernels of the scalar path
    run over the cell columns in the vector arithmetic.  With ``refine`` the
    mean-value form is intersected in, which is what makes midplane-adjacent
    exclusions succeed at coarse grids.  Raises DomainError when x+z or
    x+y+z can reach 0 in any cell.
    """
    encl = _batch_enclosures(p, cells, tuple(_RANGES), refine)
    return np.stack([e[0] for e in encl], axis=1), np.stack([e[1] for e in encl], axis=1)
