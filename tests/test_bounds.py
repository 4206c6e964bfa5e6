"""Interval arithmetic and branch-and-bound enclosures.

Soundness checks compare against exact rational arithmetic (fractions) or
against closed forms of the extrema that the analytic engine derives; the
two engines share no code beyond the map definition itself.
"""
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from triopoly import PAPER_BOX, PAPER_PARAMS, DomainError
from triopoly.bounds import (
    BoundReport,
    Interval,
    IntervalBox,
    batch_image_enclosure,
    bound_extremum,
    interval_eval,
    interval_jacobian,
    verify_C_rigorous,
)
from triopoly import bounds as bounds_mod
from triopoly.bounds import _SCALAR, _VECTOR, _jac_row, _range_f1, _range_f1_sharp, _sums
from triopoly.certificate import certify_box
from triopoly.core import eval_jacobian, eval_map_xyz, Params, State
from triopoly.jsonio import dumps17

P, B = PAPER_PARAMS, PAPER_BOX

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _iv(a, b):
    return Interval(min(a, b), max(a, b))


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ValueError):
        Interval(math.nan, 1.0)
    assert Interval.point(3.0).is_point


@given(finite, finite, finite, finite)
def test_add_mul_sub_enclose_rational_results(a, b, c, d):
    x, y = _iv(a, b), _iv(c, d)
    exact = [
        Fraction(xx) + Fraction(yy)
        for xx in (x.lo, x.hi)
        for yy in (y.lo, y.hi)
    ]
    s = x + y
    assert Fraction(s.lo) <= min(exact) and max(exact) <= Fraction(s.hi)
    exact = [
        Fraction(xx) * Fraction(yy)
        for xx in (x.lo, x.hi)
        for yy in (y.lo, y.hi)
    ]
    m = x * y
    assert Fraction(m.lo) <= min(exact) and max(exact) <= Fraction(m.hi)
    exact = [
        Fraction(xx) - Fraction(yy)
        for xx in (x.lo, x.hi)
        for yy in (y.lo, y.hi)
    ]
    di = x - y
    assert Fraction(di.lo) <= min(exact) and max(exact) <= Fraction(di.hi)


def test_multiplying_by_exact_zero_stays_exact():
    z = Interval.point(0.0)
    wide = Interval(-3.7, 12.1)
    out = wide * z
    assert (out.lo, out.hi) == (0.0, 0.0)


@given(st.floats(min_value=0.0, max_value=1e8), st.floats(min_value=0.0, max_value=1e8))
def test_sqrt_soundness(a, b):
    x = _iv(a, b)
    r = x.sqrt()
    assert r.lo <= math.sqrt(x.lo) and math.sqrt(x.hi) <= r.hi


def test_point_enclosure_contains_eval_map_and_is_tight():
    ib = IntervalBox.point(1.0, 1.0, 1.0)
    vals = eval_map_xyz(P, 1.0, 1.0, 1.0)
    for iv, v in zip(interval_eval(P, ib), vals):
        assert iv.contains(v)
        assert iv.width <= 4 * math.ulp(v)


def test_point_enclosures_across_the_box():
    rng = np.random.default_rng(11)
    for _ in range(300):
        x, y, z = (rng.uniform(*B.bounds(i)) for i in range(3))
        for iv, v in zip(
            interval_eval(P, IntervalBox.point(x, y, z)), eval_map_xyz(P, x, y, z)
        ):
            assert iv.contains(v)
            assert iv.width < 2e-15


def _exact_f1_f3(p, x, y, z):
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    c1, c3, a = Fraction(p.c1), Fraction(p.c3), Fraction(p.alpha)
    q = x + y + z
    return (2 * x + y + z - c1 * q * q) / 2, z * (1 - a * c3 + a * (x + y) / (q * q))


unit = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=200, deadline=None)
@given(unit, unit, unit, st.sampled_from([P, Params(0.3, 0.8, 0.45, 9.5)]))
def test_point_enclosures_without_extended_long_double(u, v, w, p):
    """Where long double is plain double the point path must fall back to
    the outward double kernels and stay sound."""
    x, y, z = (lo + (hi - lo) * t for (lo, hi), t in zip(map(B.bounds, range(3)), (u, v, w)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds_mod, "_EXTENDED_POINTS", False)
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
    assert abs(rep.best_value - want) <= 1e-8


def test_bound_extremum_budget_exhaustion_is_sound():
    want = _closed_forms()[("F1", "max", "full")]
    rep = bound_extremum(P, _region("full"), "F1", "max", tol=1e-10, budget=5)
    assert rep.status == "inconclusive"
    assert rep.enclosure.lo - 1e-12 <= want <= rep.enclosure.hi + 1e-12


def test_bound_extremum_deterministic():
    a = bound_extremum(P, _region("full"), "F1", "max", tol=1e-8)
    b = bound_extremum(P, _region("full"), "F1", "max", tol=1e-8)
    assert a.enclosure == b.enclosure
    assert a.best_point == b.best_point
    assert a.subdivisions == b.subdivisions


def test_bound_extremum_rejects_bad_arguments():
    with pytest.raises(ValueError):
        bound_extremum(P, _region("full"), "F9", "max")
    with pytest.raises(ValueError):
        bound_extremum(P, _region("full"), "F1", "widest")
    with pytest.raises(ValueError):
        bound_extremum(P, _region("full"), "F1", "max", tol=-1.0)


def test_report_records_strategy_and_serialises():
    rep = bound_extremum(P, _region("top"), "F3", "max", tol=1e-8)
    d = rep.as_dict()
    assert "nextafter" in d["strategy"]
    assert d["enclosure"][0] <= d["best_value"] <= d["enclosure"][1]


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
    "h2-inapplicable": (_LOW_ALPHA, B, {}),  # escape bound undefined
    "c2-precondition": (P, B.replace(z_r=0.95), {}),  # z_r > x_l + y_l
    # x_l + y_l < 0 and x_l + z_l < 0: undefined square roots in H2 and H5;
    # the interval engine raises DomainError on this box
    "negative-sqrt": (P, B.replace(x_l=-0.5), {}),
    "c4-starved": (P, B.replace(x_r=0.6249), {"budget": 2}),  # C4 inconclusive
}

_FROZEN_CERTS = {
    ("paper", "analytic"): "2c72180af280f12cf3cf53b87f32be950a9222aee03b5cfe94bb5cc4d5983be7",
    ("paper", "interval"): "6bf7aaec38eaf3b056a1a86f856f8a8ffb986ab8c88296407c9f2ab832b98fc6",
    ("paper", "both"): "587c7fdb1a7d8b7ccafadf71d78c21cadc744b346d372ebca60a9996b6d3e30c",
    ("c4-fail", "analytic"): "f6215b0836ac62c85aef2be8a5be0b533522e25770e138b686a4f0d1d31b088d",
    ("c4-fail", "interval"): "c5bcf92b5e6cf75e4dd8c502bd0c0f4fbdb14660a79a8307f10b433c1671806a",
    ("c4-fail", "both"): "e7432d2e5c07be3513b11c99948382e20647ad5717ec6a40245a36719bd0c037",
    ("z_l>0", "analytic"): "d5a5902c454e4bca6f3bb428ab71ff12d5ad3618c726ee1a3cad26f74202b043",
    ("z_l>0", "interval"): "2e8b4a989c8d3743419faa11e6e8133fc9d1475e552e8b00c9672b8c1ea33484",
    ("z_l>0", "both"): "6271f10052401b7d7476a6b91d1a2a162678aac34e2291b6709c177f8a7e35d5",
    ("perturbed-1", "analytic"): "b5b8ee8a7cd455eca5a890d55773aafe5bded844fe09702a71a8313d2e08290c",
    ("perturbed-1", "interval"): "4757af79bfad5e7d9ed0c3347fae583a42f91e3c8fb00048bc4659cfe2bb4d28",
    ("perturbed-1", "both"): "64a5a55873b22f4d6b11fb6d32a19ac671130483870a073cea9983cc2a918819",
    ("perturbed-2", "analytic"): "d30dc978a6cb40dfc103a4662c36eb6fba6b8b628169a6917ea554a135652f8f",
    ("perturbed-2", "interval"): "c6e542599b110a39634a7751c3a828a16ef366a2c3b0efeb2732ccf68b8821f3",
    ("perturbed-2", "both"): "d22b69103f8e47c4309d3a0440bdfd5f6996b09c33ca4882c0cfede99a9caefe",
    ("h2-inapplicable", "analytic"):
        "9ca09621d0b134825956130f1c7329117b78969594606784c67ec9f04e7f49c3",
    ("h2-inapplicable", "interval"):
        "5b7dc5dcc51f0ee53573d70dc5cc374004bb9c31eca5077f5ac079e77325d1d0",
    ("h2-inapplicable", "both"):
        "ae29452afe03338be230f593700454e2f1bfa1d39c82e10a9e8f5d0e50b6cb4a",
    ("c2-precondition", "analytic"):
        "0d253650825b9d21e2a4cde09f95690699f9e1613d3549d0b0896315866da199",
    ("c2-precondition", "interval"):
        "b5719c26c19aabf38352ba28e0f827e8a3dc889b90a3e5690af5a037143a5adc",
    ("c2-precondition", "both"):
        "7853e89ca2b75349f66f474a3f4b15e091eca70f0a2d92084f2b6765545cd2b6",
    ("negative-sqrt", "analytic"):
        "d7e008fe5529fff4dba59d3951125edfe3498f8560ffa5d45619493cd3373c79",
    ("c4-starved", "interval"):
        "c5844eee0644e81e6e10a311a74319e58abca0cd435a9f7cc5f9eca2e1ebac14",
    ("c4-starved", "both"): "3c261f8d5f7ef55269c043e40e4e52de834d3258718c436d235da87e4e082ce8",
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
