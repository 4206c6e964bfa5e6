"""Interval arithmetic and branch-and-bound enclosures.

Soundness checks compare against exact rational arithmetic (fractions) or
against closed forms of the extrema that the analytic engine derives; the
two engines share no code beyond the map definition itself.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from triopoly.bounds import _range_f1, _range_f1_sharp
from triopoly.core import eval_jacobian, eval_map_xyz, Params, State

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
    lo, hi = _range_f1_sharp(p, t6)
    plain = _range_f1(p, t6)
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
