"""Interval arithmetic and branch-and-bound enclosures.

Soundness checks compare against exact rational arithmetic (fractions) or
against closed forms of the extrema that the analytic engine derives; the
two engines share no code beyond the map definition itself.
"""
import hashlib
import json
import math
import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from triopoly import PAPER_BOX, PAPER_PARAMS, Box, DomainError
from triopoly.bounds import (
    BoundReport,
    Interval,
    IntervalBox,
    Threshold,
    batch_image_enclosure,
    bound_extremum,
    interval_eval,
    interval_jacobian,
    verify_C_rigorous,
)
from triopoly import bounds as bounds_mod
from triopoly.bounds import _SCALAR, _VECTOR, _jac_row, _range_f1, _range_f1_sharp, _sums
from triopoly.certificate import DEFAULT_MIN_MARGIN, INCONCLUSIVE, certify_box, check_C_analytic
from triopoly.core import eval_jacobian, eval_map_xyz, Params, State
from triopoly.jsonio import dumps17

P, B = PAPER_PARAMS, PAPER_BOX

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)
    assert Interval.point(3.0).is_point


def _pair(a, b):
    return min(a, b), max(a, b)


def _encloses(pair, exact) -> bool:
    """The float pair (lo, hi) holds every rational value in ``exact``."""
    return Fraction(pair[0]) <= min(exact) and max(exact) <= Fraction(pair[1])


def _corners(op, x, y):
    return [op(Fraction(xx), Fraction(yy)) for xx in x for yy in y]


@given(finite, finite, finite, finite)
def test_add_mul_sub_enclose_rational_results(a, b, c, d):
    x, y = _pair(a, b), _pair(c, d)
    assert _encloses(_SCALAR.add(x, y), _corners(operator.add, x, y))
    assert _encloses(_SCALAR.mul(x, y), _corners(operator.mul, x, y))
    assert _encloses(_SCALAR.sub(x, y), _corners(operator.sub, x, y))


def test_multiplying_by_exact_zero_stays_exact():
    assert _SCALAR.mul((-3.7, 12.1), (0.0, 0.0)) == (0.0, 0.0)


positive = st.floats(min_value=1e-6, max_value=1e6)


@given(finite, finite, positive, positive)
def test_div_pos_encloses_rational_quotients(a, b, c, d):
    x, y = _pair(a, b), _pair(c, d)
    assert _encloses(_SCALAR.div_pos(x, y), _corners(operator.truediv, x, y))


@given(finite, st.floats(min_value=-1e6, max_value=0.0), finite)
def test_div_pos_rejects_a_divisor_that_reaches_zero(a, c, d):
    with pytest.raises(DomainError):
        _SCALAR.div_pos((a, a), (c, max(c, d)))


magnitude = st.floats(min_value=0.0, max_value=1e6)


@given(magnitude, magnitude, st.sampled_from([(1.0, 1.0), (-1.0, -1.0), (-1.0, 1.0)]))
def test_sqr_encloses_the_rational_range(u, v, signs):
    """Intervals above, below and across zero; across it the square's
    lower end is exactly 0."""
    x = _pair(signs[0] * u, signs[1] * v)
    lo, hi = _SCALAR.sqr(x)
    squares = [Fraction(e) ** 2 for e in x]
    across = x[0] < 0.0 < x[1]
    assert _encloses((lo, hi), [0 if across else min(squares), max(squares)])
    if across:
        assert lo == 0.0


@given(st.floats(min_value=0.0, max_value=1e-150), magnitude, st.booleans())
@example(0.0, 0.0, False)          # [0, 0]
@example(0.0, 3.0, False)          # [0, b]
@example(0.0, 3.0, True)           # [-b, 0]
@example(1e-170, 1e-170, False)    # the square underflows to 0
@example(5e-324, 2e-162, True)
def test_sqr_of_an_interval_at_or_near_zero_stays_nonnegative(u, v, negate):
    """The rounded-down lower end of a square is clamped at 0, where a
    product that is or underflows to 0 would round to -5e-324."""
    x = _pair(-u, -v) if negate else _pair(u, v)
    lo, hi = _SCALAR.sqr(x)
    squares = [Fraction(e) ** 2 for e in x]
    assert _encloses((lo, hi), [min(squares), max(squares)])
    assert lo >= 0.0
    if min(squares) < Fraction(5e-324):
        assert lo == 0.0


@given(finite, finite, st.sampled_from([-1.0, 0.0, 1.0]), positive)
def test_mul_f_encloses_the_rational_product(a, b, sign, m):
    x, v = _pair(a, b), sign * m
    out = _SCALAR.mul_f(x, v)
    assert _encloses(out, [Fraction(e) * Fraction(v) for e in x])
    if v == 0.0:
        assert out == (0.0, 0.0)


def _exact_f1_f3(p, x, y, z):
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    c1, c3, a = Fraction(p.c1), Fraction(p.c3), Fraction(p.alpha)
    q = x + y + z
    return (2 * x + y + z - c1 * q * q) / 2, z * (1 - a * c3 + a * (x + y) / (q * q))


unit = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=200, deadline=None)
@given(unit, unit, unit, st.sampled_from([P, Params(0.3, 0.8, 0.45, 9.5)]))
def test_point_enclosures_without_extended_long_double(u, v, w, p):
    """Point boxes take the outward double kernels on every platform: each
    enclosure holds eval_map's value and the exact F1 and F3, and stays
    narrow."""
    x, y, z = (lo + (hi - lo) * t for (lo, hi), t in zip(map(B.bounds, range(3)), (u, v, w)))
    f1, f2, f3 = interval_eval(p, IntervalBox.point(x, y, z))
    for iv, v in zip((f1, f2, f3), eval_map_xyz(p, x, y, z)):
        assert iv.contains(v)
        assert iv.width < 1e-12
    e1, e3 = _exact_f1_f3(p, x, y, z)
    assert Fraction(f1.lo) <= e1 <= Fraction(f1.hi)
    assert Fraction(f3.lo) <= e3 <= Fraction(f3.hi)


def test_f3_enclosure_spans_zero_on_paper_box():
    f3 = interval_eval(P, IntervalBox.from_box(B))[2]
    assert f3.lo <= 0.0 <= f3.hi


def test_inclusion_monotone_under_split():
    full = IntervalBox.from_box(B)
    parent = interval_eval(P, full)
    mid = B.z_mid
    lower = IntervalBox(full.ix, full.iy, Interval(B.z_l, mid))
    upper = IntervalBox(full.ix, full.iy, Interval(mid, B.z_r))
    slack = 4e-16
    for comp in range(3):
        a = interval_eval(P, lower)[comp]
        c = interval_eval(P, upper)[comp]
        assert min(a.lo, c.lo) >= parent[comp].lo - slack
        assert max(a.hi, c.hi) <= parent[comp].hi + slack


def test_domain_violation_raises():
    bad = IntervalBox.from_bounds(-0.5, 0.5, 0.1, 0.2, 0.0, 0.1)
    with pytest.raises(DomainError):
        interval_eval(P, bad)


def test_thousand_point_soundness():
    rng = np.random.default_rng(7)
    encl = interval_eval(P, IntervalBox.from_box(B))
    for _ in range(1000):
        x, y, z = (rng.uniform(*B.bounds(i)) for i in range(3))
        im = eval_map_xyz(P, x, y, z)
        for j in range(3):
            assert encl[j].lo <= im[j] <= encl[j].hi


def test_interval_jacobian_contains_point_jacobians():
    full = IntervalBox.from_box(B)
    rows = interval_jacobian(P, full)
    rng = np.random.default_rng(5)
    for _ in range(100):
        x, y, z = (rng.uniform(*B.bounds(i)) for i in range(3))
        j = eval_jacobian(P, State(x, y, z))
        for r in range(3):
            for c in range(3):
                assert rows[r][c].lo <= j[r, c] <= rows[r][c].hi


# closed forms of the five extremal values over the reference configuration,
# computed from the monotonicity reductions (independent of this module)
def _closed_forms():
    p, b = P, B
    phi = lambda x, s: (2 * x + s - p.c1 * (x + s) ** 2) / 2
    psi = lambda d: math.sqrt(d / p.c2) - d
    f3 = lambda x, y, z: z * (1 - p.alpha * p.c3 + p.alpha * (x + y) / (x + y + z) ** 2)
    return {
        ("F3", "max", "top"): f3(b.x_l, b.y_l, b.z_r),
        ("F3", "min", "mid"): f3(b.x_r, b.y_r, b.z_mid),
        ("F1", "max", "full"): (b.x_r + 1.0 / (4 * p.c1)) / 2.0,
        ("F1", "min", "full"): phi(b.x_l, b.y_l + b.z_l),
        ("F2", "max", "full"): psi(b.x_l + b.z_l),
        ("F2", "min", "full"): psi(b.x_r + b.z_r),
    }


def _region(tag):
    full = IntervalBox.from_box(B)
    if tag == "top":
        return IntervalBox(full.ix, full.iy, Interval.point(B.z_r))
    if tag == "mid":
        return IntervalBox(full.ix, full.iy, Interval.point(B.z_mid))
    return full


@pytest.mark.parametrize("key", list(_closed_forms()))
def test_bound_extremum_matches_closed_forms(key):
    comp, which, tag = key
    want = _closed_forms()[key]
    rep = bound_extremum(P, _region(tag), comp, which, tol=1e-8)
    assert rep.status == "ok"
    assert rep.enclosure.width <= 1e-8 * 1.01
    assert rep.enclosure.lo - 1e-12 <= want <= rep.enclosure.hi + 1e-12
    # the best value the search certified: the low end for a max, the high for a min
    best = rep.enclosure.lo if which == "max" else rep.enclosure.hi
    assert abs(best - want) <= 1e-8


def test_bound_extremum_budget_exhaustion_is_sound():
    want = _closed_forms()[("F1", "max", "full")]
    rep = bound_extremum(P, _region("full"), "F1", "max", tol=1e-10, budget=5)
    assert rep.status == "inconclusive"
    assert rep.enclosure.lo - 1e-12 <= want <= rep.enclosure.hi + 1e-12


def test_bound_extremum_deterministic():
    a = bound_extremum(P, _region("full"), "F1", "max", tol=1e-8)
    b = bound_extremum(P, _region("full"), "F1", "max", tol=1e-8)
    assert a.enclosure == b.enclosure
    assert a.subdivisions == b.subdivisions


def test_bound_extremum_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bound_extremum(P, _region("full"), "F9", "max")
    with pytest.raises(ValueError):
        bound_extremum(P, _region("full"), "F1", "widest")
    with pytest.raises(ValueError):
        bound_extremum(P, _region("full"), "F1", "max", tol=-1.0)


@st.composite
def _f1_case(draw):
    """Random Params and an in-domain box placed relative to q* = 1/(2 c1)."""
    pos = lambda lo, hi: draw(st.floats(min_value=lo, max_value=hi))
    p = Params(pos(0.1, 1.0), pos(0.1, 1.0), pos(0.1, 1.0), pos(1.0, 20.0))
    widths = [pos(1e-6, 0.15) for _ in range(3)]
    shares = [pos(0.05, 1.0) for _ in range(3)]
    qstar, total = 0.5 / p.c1, sum(widths)
    where = draw(st.sampled_from(["straddle", "left", "right"]))
    if where == "straddle":
        q_lo = qstar - pos(0.05, 0.95) * total
    elif where == "left":  # q* >= 0.5 > total, so q_lo > 0
        q_lo = (qstar - total) * pos(0.2, 0.99)
    else:
        q_lo = qstar + pos(1e-3, 1.0)
    lows = [q_lo * s / sum(shares) for s in shares]
    return p, tuple(v for lo, w in zip(lows, widths) for v in (lo, lo + w))


def _split(t6, x, s):
    """Point (x, y, z) of the box with y + z = s, for s in [y_l+z_l, y_r+z_r]."""
    wy, wz = t6[3] - t6[2], t6[5] - t6[4]
    r = min(max(s - t6[2] - t6[4], 0.0), wy + wz)
    y = min(t6[2] + r * wy / (wy + wz), t6[3])
    return x, y, min(t6[4] + r * wz / (wy + wz), t6[5])


def _f1_candidates(p, t6):
    """Corners plus the maximiser of F1 along each edge of the (x, y+z) rectangle.

    F1 = (2x + s - c1 (x+s)^2)/2 is concave in (x, s = y+z) without a
    critical point, so its min is at a corner and its max on one of these.
    """
    xs, ss = (t6[0], t6[1]), (t6[2] + t6[4], t6[3] + t6[5])
    pairs = [(x, s) for x in xs for s in ss]
    pairs += [(x, min(max(0.5 / p.c1 - x, ss[0]), ss[1])) for x in xs]
    pairs += [(min(max(1.0 / p.c1 - s, xs[0]), xs[1]), s) for s in ss]
    return [_split(t6, x, s) for x, s in pairs]


def _exact_f1(p, x, y, z):
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    return (2 * x + y + z - Fraction(p.c1) * (x + y + z) ** 2) / 2


unit = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=80, deadline=None)
@given(_f1_case(), st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=8))
def test_sharp_f1_range_is_sound_and_no_wider_than_plain(case, fracs):
    p, t6 = case
    s = _sums(_SCALAR, t6)
    lo, hi = _range_f1_sharp(p, s)
    plain = _range_f1(_SCALAR, p, s)
    assert plain[0] <= lo <= hi <= plain[1]
    at = lambda j, u: min(t6[2 * j] + u * (t6[2 * j + 1] - t6[2 * j]), t6[2 * j + 1])
    points = _f1_candidates(p, t6)
    for u, v, w in fracs:
        x = at(0, u)
        points.append((x, at(1, v), at(2, w)))
        s = 0.5 / p.c1 - x
        if t6[2] + t6[4] <= s <= t6[3] + t6[5]:
            points.append(_split(t6, x, s))  # on the plane q = q*
    for pt in points:
        assert lo <= _exact_f1(p, *pt) <= hi
        v = eval_map_xyz(p, *pt)[0]
        assert lo - 4 * math.ulp(v) <= v <= hi + 4 * math.ulp(v)


@settings(max_examples=40, deadline=None)
@given(_f1_case())
def test_bound_extremum_f1_is_tight_on_random_boxes(case):
    p, t6 = case
    values = [eval_map_xyz(p, *pt)[0] for pt in _f1_candidates(p, t6)]
    for which, want in (("max", max(values)), ("min", min(values))):
        rep = bound_extremum(p, IntervalBox.from_bounds(*t6), "F1", which, tol=1e-8)
        assert rep.status == "ok"
        assert rep.width <= 1e-8
        assert rep.enclosure.lo - 1e-14 <= want <= rep.enclosure.hi + 1e-14


def test_verify_C_rigorous_agrees_with_analytic_on_paper_box():
    from triopoly.certificate import check_C_analytic

    icert = verify_C_rigorous(P, B, tol=1e-8)
    acert = check_C_analytic(P, B)
    assert icert.verdict == "certified"
    for cid in ("C1", "C2", "C3p", "C4", "C5"):
        assert icert.condition(cid).status == acert.condition(cid).status == "pass"
        # the two engines quote the same margin to well below the tolerance
        assert abs(icert.condition(cid).margin - acert.condition(cid).margin) < 1e-7


def test_verify_C_rigorous_flags_violation():
    icert = verify_C_rigorous(P, B.replace(z_r=0.38), tol=1e-8)
    assert icert.condition("C2").status == "fail"
    assert icert.verdict == "failed"


def test_loose_tolerance_never_returns_a_false_pass():
    from triopoly.certificate import check_C_analytic

    icert = verify_C_rigorous(P, B, tol=1.0)
    acert = check_C_analytic(P, B)
    statuses = {c.cid: c.status for c in icert.conditions}
    assert "fail" not in statuses.values()
    for cid, status in statuses.items():
        if status == "pass":
            assert acert.condition(cid).status == "pass"
    # x-image genuinely leaves the box: max F1 = (x_r + 1/(4 c1))/2 > x_r
    bad = B.replace(x_r=0.6249)
    assert check_C_analytic(P, bad).condition("C4").status == "fail"
    loose = verify_C_rigorous(P, bad, tol=1.0)
    assert loose.condition("C4").status != "pass"
    assert loose.verdict != "certified"
    assert verify_C_rigorous(P, bad, tol=1e-8).condition("C4").status == "fail"


def test_exact_bottom_face_certification():
    icert = verify_C_rigorous(P, B, tol=1e-8)
    c1 = icert.condition("C1")
    assert c1.status == "pass"
    assert c1.interval["enclosure"] == [0.0, 0.0]


def test_batch_enclosures_are_sound_and_no_wider_than_scalar():
    rng = np.random.default_rng(3)
    cells = []
    for _ in range(64):
        x0 = rng.uniform(B.x_l, B.x_r - 1e-3)
        y0 = rng.uniform(B.y_l, B.y_r - 1e-3)
        z0 = rng.uniform(B.z_l, B.z_r - 1e-3)
        cells.append([x0, x0 + 1e-3, y0, y0 + 1e-3, z0, z0 + 1e-3])
    cells = np.array(cells)
    lo, hi = batch_image_enclosure(P, cells, refine=True)
    for i, cell in enumerate(cells):
        ib = IntervalBox.from_bounds(*cell)
        scalar = interval_eval(P, ib)
        for j in range(3):
            # refined batch bounds sit inside the plain scalar enclosure
            assert lo[i, j] >= scalar[j].lo - 1e-15
            assert hi[i, j] <= scalar[j].hi + 1e-15
        # and they still contain true images of sampled points
        for _ in range(5):
            x = rng.uniform(cell[0], cell[1])
            y = rng.uniform(cell[2], cell[3])
            z = rng.uniform(cell[4], cell[5])
            im = eval_map_xyz(P, x, y, z)
            for j in range(3):
                assert lo[i, j] <= im[j] <= hi[i, j]


# -- vector outward rounding: a +- (phi |a| + eta) -----------------------------

_TINY = 2.0 ** -1022  # smallest normal
_MAXF = float(np.finfo(np.float64).max)
_SPECIAL = (
    [0.0, -0.0, math.inf, -math.inf, _MAXF, -_MAXF, 5e-324, -5e-324, _TINY, -_TINY,
     _TINY - 5e-324, 4 * _TINY, math.nextafter(4 * _TINY, math.inf), 1.0, -1.0]
    + [s * 2.0 ** e for e in range(-1074, 1024, 13) for s in (1.0, -1.0)]
)


def _assert_outward(a):
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore"):
        up, dn = bounds_mod._v_up(a), bounds_mod._v_dn(a)
        nup, ndn = np.nextafter(a, np.inf), np.nextafter(a, -np.inf)
    assert not np.isnan(up).any() and not np.isnan(dn).any()
    # never inside the nextafter bound
    assert (up >= nup).all() and (dn <= ndn).all()
    # finite wherever nextafter's is finite (+-max overflow there too)
    assert np.isfinite(up[np.isfinite(nup)]).all()
    assert np.isfinite(dn[np.isfinite(ndn)]).all()
    # equal to it for finite inputs away from the two lowest normal binades;
    # at most one ulp further out inside them and for +-inf
    same = np.isfinite(a) & ~((np.abs(a) >= _TINY) & (np.abs(a) <= 4 * _TINY))
    assert np.array_equal(up[same], nup[same]) and np.array_equal(dn[same], ndn[same])
    assert (up[~same] <= np.nextafter(nup[~same], np.inf)).all()
    assert (dn[~same] >= np.nextafter(ndn[~same], -np.inf)).all()


def test_vector_rounding_special_values():
    _assert_outward(_SPECIAL)
    # one element at a time too: no reliance on array-wide state
    for v in _SPECIAL:
        _assert_outward([v])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
def test_vector_rounding_is_outward_of_nextafter(values):
    _assert_outward(values)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(min_value=-4 * _TINY, max_value=4 * _TINY), min_size=1, max_size=40))
def test_vector_rounding_near_the_underflow_range(values):
    _assert_outward(values)


def test_vector_rounding_of_infinities():
    a = np.array([math.inf, -math.inf])
    up, dn = bounds_mod._v_up(a), bounds_mod._v_dn(a)
    assert up[0] == math.inf and dn[1] == -math.inf
    # the lower bound of +inf and the upper bound of -inf are finite, as
    # with nextafter, not inf - inf = nan
    assert dn[0] == math.nextafter(_MAXF, 0.0) and up[1] == -dn[0]


_NEAR_ZERO = st.floats(min_value=0.0, max_value=1e-100)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_NEAR_ZERO, _NEAR_ZERO), min_size=1, max_size=20))
@example([(0.0, 0.0)])
@example([(0.0, 3e-170), (5e-324, 1e-170), (0.0, 0.0)])
@example([(1e-170, 1e-170), (2e-162, 1e-100)])
def test_vector_square_gives_the_scalar_bits_at_and_near_zero(pairs):
    """Row by row, the vector square of a nonnegative interval (every squared
    operand is a positive sum) is the scalar one, its lower end clamped at 0
    where the square is or underflows to 0.  Rows whose squares fall where
    the vector rounding lands one ulp beyond nextafter are left out."""
    rows = [_pair(u, v) for u, v in pairs]
    rows = [r for r in rows if not any(_TINY <= e * e <= 4 * _TINY for e in r)]
    assume(rows)
    lo, hi = _VECTOR.sqr((np.array([r[0] for r in rows]), np.array([r[1] for r in rows])))
    for i, r in enumerate(rows):
        got = np.array([lo[i], hi[i]]).view(np.int64).tolist()
        want = np.array(_SCALAR.sqr(r)).view(np.int64).tolist()
        assert got == want, (r, (lo[i], hi[i]), _SCALAR.sqr(r))


# -- Jacobian entries against a 60-digit oracle --------------------------------

@st.composite
def _jac_case(draw):
    """Random Params and an in-domain box, with corner and interior points.

    About one axis in five is degenerate.
    """
    pos = lambda lo, hi: draw(st.floats(min_value=lo, max_value=hi))
    p = Params(pos(0.05, 2.0), pos(0.05, 2.0), pos(0.05, 2.0), pos(0.5, 30.0))
    lows = [pos(1e-3, 1.0), pos(0.0, 1.0), draw(st.sampled_from([0.0, pos(0.0, 1.0)]))]
    widths = [pos(1e-9, 0.5) if draw(st.integers(0, 4)) else 0.0 for _ in range(3)]
    t6 = tuple(v for lo, w in zip(lows, widths) for v in (lo, lo + w))
    fracs = draw(st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=4))
    at = lambda j, u: min(t6[2 * j] + u * (t6[2 * j + 1] - t6[2 * j]), t6[2 * j + 1])
    points = [(x, y, z) for x in t6[0:2] for y in t6[2:4] for z in t6[4:6]]
    points += [(at(0, u), at(1, v), at(2, w)) for u, v, w in fracs]
    return p, t6, points


def _columns(t6):
    """A box as the one-row columns the vector arithmetic works on."""
    return tuple(np.array([v]) for v in t6)


def _exact_jac(mp, p, x, y, z):
    """Entries 21, 31 and 33 of the Jacobian at a point, in mpmath."""
    c2, c3, al = mp.mpf(p.c2), mp.mpf(p.c3), mp.mpf(p.alpha)
    x, y, z = mp.mpf(x), mp.mpf(y), mp.mpf(z)
    a, q = x + y, x + y + z
    return {
        "21": 1 / (2 * mp.sqrt(c2 * (x + z))) - 1,
        "31": al * z * (q - 2 * a) / q ** 3,
        "33": 1 - al * c3 + al * a * (q - 2 * z) / q ** 3,
    }


@settings(max_examples=60, deadline=None)
@given(_jac_case())
def test_jacobian_entries_contain_the_exact_derivative(case):
    mpmath = pytest.importorskip("mpmath")
    p, t6, points = case
    s = _sums(_SCALAR, t6)
    f2 = _jac_row(_SCALAR, p, s, "F2")
    f3 = _jac_row(_SCALAR, p, s, "F3")
    scalar = {"21": f2[0], "31": f3[0], "33": f3[2]}
    s = _sums(_VECTOR, _columns(t6))
    f2 = _jac_row(_VECTOR, p, s, "F2")
    f3 = _jac_row(_VECTOR, p, s, "F3")
    batch = {"21": f2[0], "31": f3[0], "33": f3[2]}
    with mpmath.workdps(60):
        for pt in points:
            exact = _exact_jac(mpmath.mp, p, *pt)
            for key, want in exact.items():
                assert scalar[key][0] <= want <= scalar[key][1], (key, pt)
                lo, hi = batch[key]
                assert lo[0] <= want <= hi[0], (key, pt)


# -- one kernel set, two arithmetics -------------------------------------------

_COMPS = ("F1", "F2", "F3")


def _kernels(A, p, box):
    """Every shared kernel of one box in arithmetic A, as (name, pair) items;
    a zero Jacobian entry is None."""
    s = _sums(A, box)
    forms, centre = bounds_mod._mean_value(A, p, box, s, _COMPS)
    out = []
    for k, comp in enumerate(_COMPS):
        out.append((f"{comp} plain", bounds_mod._RANGES[comp](A, p, s)))
        for j, entry in enumerate(_jac_row(A, p, s, comp)):
            out.append((f"d{comp}/d{'xyz'[j]}", entry))
        out.append((f"{comp} mean-value", forms[k]))
        out.append((f"{comp} at the midpoint", centre[k]))
    return out


def _bits(pair):
    return np.array([np.ravel(v)[0] for v in pair], dtype=np.float64).view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(_jac_case())
def test_vector_arithmetic_gives_the_scalar_bits_on_one_row(case):
    """The vector kernels on a one-row array are the scalar ones, bit for bit.

    Two known differences are kept out of the draws.  The scalar product
    with an exact [0, 0] is exactly [0, 0], where the vector one rounds out
    to the smallest subnormals, so no box has z = [0, 0].  The vector
    rounding lands one ulp beyond nextafter for 2^-1022 <= |a| <= 2^-1020,
    so every nonzero bound is at least 1e-100, which keeps the kernels'
    intermediates out of that range.
    """
    p, t6, _ = case
    assume(not t6[4] == t6[5] == 0.0)
    assume(all(v == 0.0 or v >= 1e-100 for v in t6))
    scalar = _kernels(_SCALAR, p, t6)
    vector = _kernels(_VECTOR, p, _columns(t6))
    for (name, a), (_, b) in zip(scalar, vector):
        if a is None or b is None:
            assert a is b, name
        else:
            assert _bits(a) == _bits(b), (name, a, b)


def _exact_image(mp, p, x, y, z):
    """F1, F2 and F3 at a point, in mpmath."""
    c1, c2, c3, al = (mp.mpf(v) for v in (p.c1, p.c2, p.c3, p.alpha))
    x, y, z = mp.mpf(x), mp.mpf(y), mp.mpf(z)
    q, d = x + y + z, x + z
    return (
        (2 * x + y + z - c1 * q ** 2) / 2,
        mp.sqrt(d / c2) - d,
        z * (1 - al * c3 + al * (x + y) / q ** 2),
    )


@settings(max_examples=60, deadline=None)
@given(_jac_case())
def test_value_enclosures_contain_the_exact_image(case):
    """Plain ranges and mean-value forms in both arithmetics, the refined
    range of the branch-and-bound and the batch enclosures all contain the
    60-digit image at corners and interior points."""
    mpmath = pytest.importorskip("mpmath")
    p, t6, points = case
    over_box = {}
    at_mid = {}
    for name, A, box in (("scalar", _SCALAR, t6), ("vector", _VECTOR, _columns(t6))):
        s = _sums(A, box)
        over_box[name + " plain"] = [bounds_mod._RANGES[c](A, p, s) for c in _COMPS]
        over_box[name + " mean-value"], at_mid[name] = bounds_mod._mean_value(A, p, box, s, _COMPS)
    tight = [bounds_mod._tight_range(p, t6, _sums(_SCALAR, t6), c) for c in _COMPS]
    over_box["tight"] = [e for e, _ in tight]
    at_mid["tight"] = [c for _, c in tight]
    lo, hi = batch_image_enclosure(p, np.array([t6]))
    over_box["batch"] = list(zip(lo[0], hi[0]))
    mid = tuple(0.5 * (t6[2 * j] + t6[2 * j + 1]) for j in range(3))
    with mpmath.workdps(60):
        for pt, encl in [(pt, over_box) for pt in points] + [(mid, at_mid)]:
            for k, want in enumerate(_exact_image(mpmath.mp, p, *pt)):
                for name, pairs in encl.items():
                    lo_k, hi_k = (float(np.ravel(v)[0]) for v in pairs[k])
                    assert lo_k <= want <= hi_k, (name, _COMPS[k], pt)


# -- frozen certificate bytes ---------------------------------------------------

def _perturbed(seed):
    """The paper box with its five free bounds moved by up to +-2 %."""
    f = 1.0 + 0.02 * np.random.default_rng(seed).uniform(-1.0, 1.0, 5)
    return B.replace(x_l=B.x_l * f[0], x_r=B.x_r * f[1], y_l=B.y_l * f[2],
                     y_r=B.y_r * f[3], z_r=B.z_r * f[4])


_LOW_ALPHA = Params(c1=0.4, c2=0.55, c3=0.6, alpha=1.5)  # alpha*c3 <= 1

# name -> (params, box, extra certify_box arguments)
_FROZEN_BOXES = {
    "paper": (P, B, {}),
    "c4-fail": (P, B.replace(x_r=0.6249), {}),
    "z_l>0": (P, B.replace(z_l=0.01), {}),  # C1 goes through bound_extremum
    "perturbed-1": (P, _perturbed(1), {}),  # C3' fails
    "perturbed-2": (P, _perturbed(2), {}),  # C5 fails
    "perturbed-3": (P, _perturbed(3), {}),  # passes
    "perturbed-4": (P, _perturbed(4), {}),  # H4, H5, C4 and C5 fail
    "h2-inapplicable": (_LOW_ALPHA, B, {}),  # escape bound undefined
    "c2-precondition": (P, B.replace(z_r=0.95), {}),  # z_r > x_l + y_l
    # x_l + y_l < 0 and x_l + z_l < 0: undefined square roots in H2 and H5;
    # the interval engine raises DomainError on this box
    "negative-sqrt": (P, B.replace(x_l=-0.5), {}),
    "c4-starved": (P, B.replace(x_r=0.6249), {"budget": 2}),  # C4 inconclusive
}

_FROZEN_CERTS = {
    ("paper", "analytic"): "2c72180af280f12cf3cf53b87f32be950a9222aee03b5cfe94bb5cc4d5983be7",
    ("paper", "interval"): "a0855df12f7f5d62cb3b7c73fbf3e24990198f1d41cbd6c339b02d6d68c4b330",
    ("paper", "both"): "f0d8679fd2a10f04bf2658e2b6fc450f8b311b54a843ffa64102ee891e07d43c",
    ("c4-fail", "analytic"): "f6215b0836ac62c85aef2be8a5be0b533522e25770e138b686a4f0d1d31b088d",
    ("c4-fail", "interval"): "43e1ff96f7241bc9e9356dc15fc1c1f5b4b34ff6c3dc5ae9c468cc66d044a1b4",
    ("c4-fail", "both"): "b25ae7ff6fa36481e74b789312e6931012f8ffb4f37c5b7cc6c6045f39afaad6",
    ("z_l>0", "analytic"): "d5a5902c454e4bca6f3bb428ab71ff12d5ad3618c726ee1a3cad26f74202b043",
    ("z_l>0", "interval"): "2564a4308affe9bc59be86c7810f4c941e2d2cf17d6b0ede456a2e24b6c60787",
    ("z_l>0", "both"): "0781a6d9d35320061479b33ebb4e78470c11818563d8456ce79427b6653afadd",
    ("perturbed-1", "analytic"): "b5b8ee8a7cd455eca5a890d55773aafe5bded844fe09702a71a8313d2e08290c",
    ("perturbed-1", "interval"): "112b6747615aa5f49b1bc749978500ef3a118c27a0a8750c9a8507ddf8725a8f",
    ("perturbed-1", "both"): "e034179087d3f240fc92701d3d1ee91ca2a613d993609e99b8ceb022c0b5c933",
    ("perturbed-2", "analytic"): "d30dc978a6cb40dfc103a4662c36eb6fba6b8b628169a6917ea554a135652f8f",
    ("perturbed-2", "interval"): "7e80fd2cd605f4d9704ac1152c6a01fcd0629f65f64bea35cd56d7b692af0cb9",
    ("perturbed-2", "both"): "2c0fb28caf99d317380649e47565bd899aab22ec8d334f81e2c06e4b5889f789",
    ("perturbed-3", "analytic"): "688cabcdfde18f2206d1e3c8e33413bddbaecee3347668a6d11688cdb9d2c7b7",
    ("perturbed-3", "interval"): "e5f003db7eb8bd6620d9f4eeac89512bedde635b7cbebecf7f85b533a4d6e350",
    ("perturbed-3", "both"): "1b7844090002c30026b8346e6387a15706467fd74d4f332995ec9a934401ca13",
    ("perturbed-4", "analytic"): "434b76c6128ba158f61245b93f3deadc8af1aabee3c84fcaabf309b0d629d716",
    ("perturbed-4", "interval"): "291e36b54dd4018659055100bfc0c9c11f58d4ea07b55833b5342dbdacbff057",
    ("perturbed-4", "both"): "11c652e243fb951e9ae5c137b4f4156e7e119c32b293d1913c4c81aab897543e",
    ("h2-inapplicable", "analytic"):
        "9ca09621d0b134825956130f1c7329117b78969594606784c67ec9f04e7f49c3",
    ("h2-inapplicable", "interval"):
        "00a103aa011b8d0d4765aee73f61a568a17f9591c63a7bf656167bdbb682c58c",
    ("h2-inapplicable", "both"):
        "2bccc7f92a136dabab5f2cf61b649ad5f8b396bb29ac4c0c50d86beeb4af51ac",
    ("c2-precondition", "analytic"):
        "0d253650825b9d21e2a4cde09f95690699f9e1613d3549d0b0896315866da199",
    ("c2-precondition", "interval"):
        "5c47deb1cc55de2b3cc2507076427dabbe7723718b5abbebc3f658dfdf194365",
    ("c2-precondition", "both"):
        "33f16b1d06594fc3a1da701e023ffd4e736c9ac9b1882907620ce80dc4eaeee3",
    ("negative-sqrt", "analytic"):
        "d7e008fe5529fff4dba59d3951125edfe3498f8560ffa5d45619493cd3373c79",
    ("c4-starved", "interval"):
        "b614107a3cceb63178246c9a6e8aa912149e18d627385cfb4d46242ef5e462d5",
    ("c4-starved", "both"): "623516835b93e42948ec24c74c9180ba31a6c528c1c8e8a1284a0d2db1c8f1d7",
}


@pytest.mark.parametrize("name, engine", list(_FROZEN_CERTS))
def test_certificate_bytes_are_frozen(name, engine):
    """sha256 of the serialised certificate: every enclosure, margin and
    expansion count of the interval engine, every note and sub-check of
    the analytic one, bit for bit."""
    p, box, kwargs = _FROZEN_BOXES[name]
    cert = certify_box(p, box, engine=engine, **kwargs)
    digest = hashlib.sha256(dumps17(cert.as_dict()).encode()).hexdigest()
    assert digest == _FROZEN_CERTS[name, engine]


def test_frozen_rows_reach_every_record_path():
    """The frozen table covers the inapplicable H2 record, a violated C
    precondition, an undefined square root and a budget-starved record."""
    def statuses(name, engine):
        p, box, kwargs = _FROZEN_BOXES[name]
        return {r.cid: r for r in certify_box(p, box, engine=engine, **kwargs).conditions}

    assert statuses("h2-inapplicable", "analytic")["H2"].status == "inapplicable"
    assert statuses("c2-precondition", "analytic")["C2"].status == "inapplicable"
    h5 = statuses("negative-sqrt", "analytic")["H5"]
    assert any(s.margin is None for s in h5.subchecks) and h5.status == "fail"
    c4 = statuses("c4-starved", "interval")["C4"]
    assert c4.status == "inconclusive" and c4.interval["max"]["status"] == "inconclusive"
    p, box, _ = _FROZEN_BOXES["negative-sqrt"]
    with pytest.raises(DomainError):
        certify_box(p, box, engine="interval")



# -- frozen verdicts and statuses -----------------------------------------------

def _status_cases(n=400):
    """Seeded boxes and settings: the paper box with its five free bounds
    moved by 0.2-5 %, z_l > 0 in every fifth, alpha drawn from [16, 22] in
    every third, budgets 1, 3, 30 and the default."""
    rng = np.random.default_rng(20261018)
    for i in range(n):
        f = 1.0 + rng.uniform(0.002, 0.05) * rng.uniform(-1.0, 1.0, 5)
        z_l = 0.05 * B.z_r * rng.uniform() if i % 5 == 0 else 0.0
        box = Box(B.x_l * f[0], B.x_r * f[1], B.y_l * f[2], B.y_r * f[3], z_l, B.z_r * f[4])
        p = P if i % 3 else Params(P.c1, P.c2, P.c3, rng.uniform(16.0, 22.0))
        yield p, box, {"budget": (1, 3, 30, 10**6)[i % 4]}


_FROZEN_STATUSES = "ec345ee2c6f54cddd65ac209d95ab41047f17e5038a67ac41be38714402327ef"


def test_verdicts_and_statuses_are_frozen():
    """sha256 of the verdict and the condition statuses, and nothing else, of
    ``verify_C_rigorous`` and ``certify_box(engine="both")`` on each case.

    Enclosures, margins and expansion counts may move with the search's
    stopping rule; what the certificate decides may not.
    """
    digest = hashlib.sha256()
    for p, box, kwargs in _status_cases():
        for run in (verify_C_rigorous, lambda p, b, **kw: certify_box(p, b, engine="both", **kw)):
            try:
                cert = run(p, box, **kwargs)
                row = [cert.verdict] + [r.status for r in cert.conditions]
            except DomainError:
                row = ["DomainError"]
            digest.update(json.dumps(row).encode())
    assert digest.hexdigest() == _FROZEN_STATUSES


def test_each_engine_reports_only_the_c_statuses_the_merge_expects():
    """``certify_box(engine="both")`` fuses a C record by ``_merge_status``,
    which assumes the analytic engine never reports inconclusive and the
    interval engine never reports inapplicable."""
    for p, box, kwargs in [*_FROZEN_BOXES.values(), *_status_cases()]:
        analytic = check_C_analytic(p, box)
        assert {r.status for r in analytic.conditions} <= {"pass", "fail", "inapplicable"}
        try:
            interval = verify_C_rigorous(p, box, **kwargs)
        except DomainError:
            continue
        assert {r.status for r in interval.conditions} <= {"pass", "fail", "inconclusive"}


def test_a_point_needs_no_jacobian_row(monkeypatch):
    """Once monotonicity pruning has fixed every axis, neither the pruning
    nor the mean-value form asks for a Jacobian row: each would add
    nothing to a point."""
    def no_row(*args):
        raise AssertionError("a Jacobian row was computed for a point")

    t6 = IntervalBox.point(0.6, 0.4, 0.3).as_tuple6()
    monkeypatch.setattr(bounds_mod, "_jac_row", no_row)
    for comp in _COMPS:
        for want_max in (True, False):
            assert bounds_mod._collapse(P, t6, comp, want_max) == (t6, _sums(_SCALAR, t6))
    forms, centre = bounds_mod._mean_value(_SCALAR, P, t6, _sums(_SCALAR, t6), _COMPS)
    assert forms == centre


@pytest.mark.parametrize("want_max", [True, False])
def test_collapsing_to_a_point_computes_no_further_row(monkeypatch, want_max):
    """On the paper box F2 is monotone in every axis; the pruning fixes all
    three from its first row and then stops, without a second one."""
    rows = []
    real = bounds_mod._jac_row

    def counted(*args):
        rows.append(args[-1])
        return real(*args)

    monkeypatch.setattr(bounds_mod, "_jac_row", counted)
    t6, _ = bounds_mod._collapse(P, IntervalBox.from_box(B).as_tuple6(), "F2", want_max)
    assert t6[0] == t6[1] and t6[2] == t6[3] and t6[4] == t6[5]
    assert rows == ["F2"]


# sha256 of the (lo, hi) columns of batch_image_enclosure over the 32 x 32 x
# 16 cells of each half of the paper box, in z-y-x order
_FROZEN_BATCH_RES32 = "62b7bb4e07204d721a4e0274157d988cb12228e4cd153081b6ba42794c949159"


def test_batch_image_enclosure_on_the_res32_grid_is_frozen():
    from triopoly.horseshoe import _grid_edges, _lattice_cells

    cells = np.concatenate([_lattice_cells(*_grid_edges(B, 32, 32, z0, z1, 16))
                            for z0, z1 in ((B.z_l, B.z_mid), (B.z_mid, B.z_r))])
    lo, hi = batch_image_enclosure(P, cells, refine=True)
    digest = hashlib.sha256(lo.astype("<f8").tobytes() + hi.astype("<f8").tobytes())
    assert digest.hexdigest() == _FROZEN_BATCH_RES32


def test_unsplittable_box_stops_at_once():
    """A popped box that cannot be split would be pushed back unchanged
    until the budget ran out; it holds the largest upper bound, so the
    search stops there."""
    rep = bound_extremum(P, IntervalBox.point(0.3, 0.2, 0.1), "F3", "max",
                         tol=1e-18, budget=20_000)
    assert rep.status == "inconclusive"
    assert rep.subdivisions <= 3
    v = eval_map_xyz(P, 0.3, 0.2, 0.1)[2]
    assert rep.enclosure.contains(v)
    # one ulp wide in x: the midpoint is an endpoint
    x = 0.3
    narrow = IntervalBox.from_bounds(x, math.nextafter(x, 1.0), 0.2, 0.2, 0.1, 0.1)
    rep = bound_extremum(P, narrow, "F1", "max", tol=1e-18, budget=20_000)
    assert rep.status == "inconclusive" and rep.subdivisions <= 3



# -- stopping once the threshold is decided -------------------------------------

def _threshold_cases(n):
    """Seeded Params and regions, an extremum of each, and a threshold
    ``offset`` from the middle of the extremum's direct enclosure.

    Even cases search the faces and box the C conditions search, of the
    paper box moved by up to 2 % under Params near the paper's; odd ones
    search boxes anywhere in the domain under any Params.
    """
    rng = np.random.default_rng(11)
    for i in range(n):
        near = lambda v, rel: v * (1.0 + rel * rng.uniform(-1.0, 1.0))
        if i % 2:
            p = Params(*rng.uniform(0.1, 1.0, 3), rng.uniform(1.0, 25.0))
            lows = rng.uniform(0.01, 1.0, 3)
            t6 = [v for lo, w in zip(lows, rng.uniform(1e-6, 0.3, 3)) for v in (lo, lo + w)]
        else:
            p = Params(near(P.c1, 0.2), near(P.c2, 0.2), near(P.c3, 0.2), near(17.0, 0.4))
            t6 = [near(v, 0.02) for v in (B.x_l, B.x_r, B.y_l, B.y_r, 0.0, B.z_r)]
        z = (None, t6[4], 0.5 * (t6[4] + t6[5]), t6[5])[i // 2 % 4]
        if z is not None:  # the bottom face, the midplane or the top face
            t6[4] = t6[5] = z
        offset = rng.choice([0.0, 1e-9, 1e-6, 1e-4, 1e-3, 0.1]) * rng.choice([-1.0, 1.0])
        yield (p, IntervalBox.from_bounds(*t6), _COMPS[i % 3], ("min", "max")[i // 3 % 2],
               ("<=", ">=", ">")[rng.integers(3)], offset,
               float(rng.choice([0.0, 1e-12, 2e-3, abs(offset)])))


def _direct_and_stopped(p, region, comp, which, threshold_at, relation, need, budget):
    direct = bound_extremum(p, region, comp, which, tol=1e-8, budget=budget)
    threshold = Threshold(threshold_at(direct.enclosure), relation, need)
    stopped = bound_extremum(p, region, comp, which, tol=1e-8, budget=budget,
                             threshold=threshold)
    return direct, stopped, threshold


def _assert_stops_on_the_same_side(direct, stopped, threshold):
    """The stopped search is the direct one cut short: its enclosure holds
    the direct one, it did no more work, and both decide alike.

    The enclosures nest up to 4 ulps: a child's bound, rounded along
    another path than its parent's, can sit an ulp or two outside it.
    """
    slack = 4 * math.ulp(max(map(abs, direct.enclosure.as_pair())))
    assert stopped.enclosure.lo <= direct.enclosure.lo + slack
    assert direct.enclosure.hi <= stopped.enclosure.hi + slack
    assert stopped.subdivisions <= direct.subdivisions
    side = threshold.decide(*stopped.enclosure.as_pair())[0]
    assert side == threshold.decide(*direct.enclosure.as_pair())[0]
    if side == INCONCLUSIVE:  # never decided: the whole direct search ran
        assert stopped == direct
    else:
        assert stopped.status != "inconclusive"


def test_threshold_stop_encloses_the_direct_enclosure():
    cut_short = 0
    for p, region, comp, which, relation, offset, need in _threshold_cases(240):
        direct, stopped, threshold = _direct_and_stopped(
            p, region, comp, which, lambda e: e.mid + offset, relation, need, budget=2000)
        _assert_stops_on_the_same_side(direct, stopped, threshold)
        cut_short += stopped.subdivisions < direct.subdivisions
    assert cut_short >= 10  # the cases exercise the early stop


@pytest.mark.parametrize("need, want", [(4.8e-3, "pass"), (4.84e-3, "inconclusive")])
def test_threshold_stop_keeps_the_strict_c3p_side(need, want):
    """C3' on the paper box clears z_r by 4.83e-3: the strict ``need`` just
    below that passes and just above it stays undecided, stopped or not."""
    direct, stopped, threshold = _direct_and_stopped(
        P, _region("mid"), "F3", "min", lambda e: B.z_r, ">", need, budget=10**6)
    _assert_stops_on_the_same_side(direct, stopped, threshold)
    assert threshold.decide(*stopped.enclosure.as_pair())[0] == want


def test_c3p_threshold_needs_the_fixed_margin(monkeypatch):
    """``verify_C_rigorous`` judges C3' against z_r with ``need`` equal to
    DEFAULT_MIN_MARGIN: an enclosure passes only when its lower end clears
    z_r by more than 1e-12."""
    thresholds, real = [], bounds_mod.bound_extremum

    def spy(*args):
        thresholds.append(args[-1])
        return real(*args)

    monkeypatch.setattr(bounds_mod, "bound_extremum", spy)
    verify_C_rigorous(P, B)
    (threshold,) = [t for t in thresholds if t.relation == ">"]
    assert threshold == Threshold(B.z_r, ">", DEFAULT_MIN_MARGIN)
    above = B.z_r + DEFAULT_MIN_MARGIN
    while above - B.z_r <= DEFAULT_MIN_MARGIN:    # exact: the two are close
        above = math.nextafter(above, math.inf)
    below = math.nextafter(above, -math.inf)
    assert 0.0 < below - B.z_r <= DEFAULT_MIN_MARGIN
    assert threshold.decide(above, 1.0)[0] == "pass"
    assert threshold.decide(below, 1.0)[0] == INCONCLUSIVE


def _expansions(cert):
    return sum(rep["subdivisions"] for rec in cert.conditions
               for rep in (rec.interval or {}).values() if isinstance(rep, dict))


def test_deciding_the_threshold_bounds_the_work():
    """Expansion counts, not timings.  Before the search stopped at a
    decided threshold the paper box took 19 expansions and the C2 maximum
    of the C2-precondition box, 4.49 clear of its threshold, 18 714."""
    assert _expansions(certify_box(P, B, engine="interval")) <= 3
    p, box, kwargs = _FROZEN_BOXES["c2-precondition"]
    c2 = certify_box(p, box, engine="interval", **kwargs).condition("C2")
    assert c2.status == "pass" and c2.interval["max"]["subdivisions"] <= 3
    # an undecided search still runs until its budget is spent
    p, box, kwargs = _FROZEN_BOXES["c4-starved"]
    c4 = certify_box(p, box, engine="interval", **kwargs).condition("C4")
    assert c4.status == "inconclusive"
    assert c4.interval["max"]["status"] == "inconclusive"
    assert c4.interval["max"]["subdivisions"] == kwargs["budget"]


def test_incumbent_above_every_bound_left_is_the_extremum():
    """With c3 = 0.5, F3 >= 0 on the paper box and its minimum 0 is met on
    the whole bottom face.  Once that face is sampled, the bounds left on
    the heap all lie past the incumbent; the search used to report them as
    an inverted enclosure and raise."""
    rep = bound_extremum(Params(0.4, 0.55, 0.5, 17.0), IntervalBox.from_box(B), "F3", "min")
    assert rep.status == "ok"
    assert rep.enclosure.as_pair() == (0.0, 0.0)
