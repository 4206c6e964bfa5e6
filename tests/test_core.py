"""Map evaluation, Jacobian, and fixed points against independently
recomputed values (50-digit arithmetic seeded with the exact double
parameters, so the anchors reflect what the doubles actually encode)."""
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from triopoly import (
    DomainError,
    PAPER_BOX,
    PAPER_PARAMS,
    Params,
    State,
    eval_jacobian,
    eval_map,
    eval_map_xyz,
    fixed_point_residual,
    fixed_points,
)
from triopoly.core import (
    _f3_arrays,
    _jacobian_from_sums,
    _jacobian_off,
    _map_from_sums,
    _map_off,
    _own_rate,
    _sums,
    _with_jacobian_sums,
    boundary_fixed_point,
    eval_map_arrays,
    interior_fixed_point,
)

# image of (1, 1, 1) under the reference parameters, recomputed independently
F_111 = (0.1999999999999999, -0.09307482150881545, -5.4222222222222216)


def test_eval_map_anchor_point():
    got = eval_map_xyz(PAPER_PARAMS, 1.0, 1.0, 1.0)
    for g, want in zip(got, F_111):
        assert abs(g - want) <= 2 * math.ulp(want)


def test_eval_map_state_roundtrip():
    s = State(1.0, 1.0, 1.0)
    out = eval_map(PAPER_PARAMS, s)
    assert out.as_tuple() == eval_map_xyz(PAPER_PARAMS, 1.0, 1.0, 1.0)


@pytest.mark.parametrize(
    "x,y,z",
    [
        (0.0, 1.0, 0.0),     # x + z = 0
        (-0.3, 1.0, 0.2),    # x + z < 0
        (0.5, -1.0, 0.2),    # x + y + z < 0
    ],
)
def test_domain_errors(x, y, z):
    with pytest.raises(DomainError):
        eval_map_xyz(PAPER_PARAMS, x, y, z)


@given(
    st.floats(min_value=0.05, max_value=3.0),
    st.floats(min_value=0.05, max_value=3.0),
)
def test_zero_plane_is_exactly_invariant(x, y):
    """The z-update is factored as z * (...), so z = 0 maps to exactly 0.0
    in floating point, not merely something small."""
    _, _, f3 = eval_map_xyz(PAPER_PARAMS, x, y, 0.0)
    assert f3 == 0.0


def test_params_validation():
    with pytest.raises(ValueError):
        Params(c1=0.0, c2=0.55, c3=0.6, alpha=17.0)
    with pytest.raises(ValueError):
        Params(c1=0.4, c2=-1.0, c3=0.6, alpha=17.0)
    with pytest.raises(ValueError):
        Params(c1=0.4, c2=0.55, c3=0.6, alpha=math.nan)


def test_gradient_bound_defined_flag():
    assert PAPER_PARAMS.gradient_bound_defined  # 17 * 0.6 > 1
    assert not Params(c1=0.4, c2=0.55, c3=0.6, alpha=1.0).gradient_bound_defined


def test_state_validation():
    with pytest.raises(ValueError):
        State(math.inf, 0.0, 0.0)
    with pytest.raises(ValueError):
        State(0.1, math.nan, 0.0)


def _fd_jacobian(p, x, y, z, h=1e-7):
    cols = []
    for dx, dy, dz in ((h, 0, 0), (0, h, 0), (0, 0, h)):
        fp = eval_map_xyz(p, x + dx, y + dy, z + dz)
        fm = eval_map_xyz(p, x - dx, y - dy, z - dz)
        cols.append([(a - b) / (2 * h) for a, b in zip(fp, fm)])
    return np.array(cols).T


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(42)
    b = PAPER_BOX
    worst = 0.0
    for _ in range(1000):
        x, y, z = (rng.uniform(*b.bounds(i)) for i in range(3))
        z = max(z, 1e-3)  # keep away from the degenerate FD stencil at z=0
        ana = eval_jacobian(PAPER_PARAMS, State(x, y, z))
        num = _fd_jacobian(PAPER_PARAMS, x, y, z)
        scale = np.maximum(np.abs(ana), 1.0)
        worst = max(worst, float(np.max(np.abs(ana - num) / scale)))
    assert worst < 1e-6, f"worst relative Jacobian error {worst:.3e}"


def test_jacobian_anchor_entry():
    # dF1/dx at the interior fixed point equals 1 - c1 * 2/(c1+c2+c3)
    s = interior_fixed_point(PAPER_PARAMS)
    j = eval_jacobian(PAPER_PARAMS, s)
    assert abs(j[0, 0] - 0.4838709677419355) < 1e-14


def test_interior_fixed_point():
    p = PAPER_PARAMS
    s = interior_fixed_point(p)
    assert abs(s.x - 0.6243496357960458) < 1e-15
    assert abs(s.y - 0.37460978147762747) < 1e-15
    assert abs(s.z - 0.291363163371488) < 1e-15
    assert fixed_point_residual(p, s) < 1e-14
    # balance identities: each rival pair sums to c_i * Q^2
    q = s.x + s.y + s.z
    assert abs((s.y + s.z) - p.c1 * q * q) < 1e-13
    assert abs((s.x + s.z) - p.c2 * q * q) < 1e-13
    assert abs((s.x + s.y) - p.c3 * q * q) < 1e-13


def test_boundary_fixed_point():
    p = PAPER_PARAMS
    s = boundary_fixed_point(p)
    assert s.z == 0.0
    assert abs(s.x - 0.6094182825484765) < 1e-15
    assert abs(s.y - 0.44321329639889197) < 1e-15
    res = eval_map(p, s)
    assert abs(res.x - s.x) < 1e-14 and abs(res.y - s.y) < 1e-14
    assert res.z == 0.0


def test_fixed_points_returns_both_and_warns_when_degenerate():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pts = fixed_points(PAPER_PARAMS)
    assert len(pts) == 2
    # strongly asymmetric costs push the interior point out of the
    # positive octant; the helper should flag that instead of failing
    bad = Params(c1=2.2, c2=0.2, c3=0.2, alpha=17.0)
    with pytest.warns(UserWarning):
        fixed_points(bad)


@given(
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=0.1, max_value=2.0),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_map_is_deterministic(x, y, z):
    a = eval_map_xyz(PAPER_PARAMS, x, y, z)
    b = eval_map_xyz(PAPER_PARAMS, x, y, z)
    assert a == b


_coord = st.floats(min_value=-0.5, max_value=2.0)


@st.composite
def _params(draw):
    pos = lambda lo, hi: draw(st.floats(min_value=lo, max_value=hi))
    return Params(pos(0.01, 3.0), pos(0.01, 3.0), pos(0.01, 3.0), pos(0.1, 40.0))


@settings(max_examples=200, deadline=None)
@given(_params(), st.lists(st.tuples(_coord, _coord, _coord), min_size=1, max_size=24))
def test_eval_map_arrays_is_eval_map_xyz_bit_for_bit(p, pts):
    on, off = [], []
    for pt in pts:
        try:
            on.append((pt, eval_map_xyz(p, *pt)))
        except DomainError:
            off.append(pt)
    if off:
        with pytest.raises(DomainError):
            eval_map_arrays(p, *np.array(pts).T)
        # a point on the x + z = 0 or x + y + z = 0 plane alone raises too
        with pytest.raises(DomainError):
            eval_map_arrays(p, *np.array(off[:1]).T)
    if on:
        got = np.column_stack(eval_map_arrays(p, *np.array([pt for pt, _ in on]).T))
        want = np.array([f for _, f in on])
        assert got.tobytes() == want.tobytes()  # -0.0 and 0.0 differ here


def _same_domain_error(p, x, y, z):
    """``eval_map_arrays`` and ``_f3_arrays`` raise with the same text."""
    pts = (np.array([0.6, x]), np.array([0.4, y]), np.array([0.2, z]))
    with pytest.raises(DomainError) as want:
        eval_map_arrays(p, *pts)
    with pytest.raises(DomainError) as got:
        _f3_arrays(p, *pts)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("x,y,z", [(0.0, 1.0, 0.0), (-0.3, 1.0, 0.2), (0.5, -1.0, 0.2)])
def test_eval_map_arrays_domain_errors(x, y, z):
    _same_domain_error(PAPER_PARAMS, x, y, z)


def test_f3_arrays_is_the_third_map_component_bit_for_bit():
    """On random points of the paper box and its corners."""
    b = PAPER_BOX
    rng = np.random.default_rng(27)
    pts = [rng.uniform(lo, hi, 4096) for lo, hi in ((b.x_l, b.x_r), (b.y_l, b.y_r), (b.z_l, b.z_r))]
    corners = np.array(np.meshgrid((b.x_l, b.x_r), (b.y_l, b.y_r), (b.z_l, b.z_r))).reshape(3, -1)
    x, y, z = (np.concatenate([c, a]) for c, a in zip(corners, pts))
    got = _f3_arrays(PAPER_PARAMS, x, y, z)
    assert got.tobytes() == eval_map_arrays(PAPER_PARAMS, x, y, z)[2].tobytes()


# (x+y+z)^2 and (x+y+z)^3 underflow to 0 although x + y + z > 0
_UNDERFLOW = (Params(1.0, 1.0, 1.0, 1.0), (0.0, 0.0, 8.79e-197))


def test_underflowed_divisor_is_a_domain_error():
    p, (x, y, z) = _UNDERFLOW
    with pytest.raises(DomainError):
        eval_map_xyz(p, x, y, z)
    with pytest.raises(DomainError):
        eval_jacobian(p, State(x, y, z))
    _same_domain_error(p, x, y, z)


# (x+y+z)^3 underflows to 0 and (x+y+z)^2 does not: only the Jacobian is undefined
_CUBE_UNDERFLOW = (1e-110, 1e-110, 1e-110)


def _entries(p, alpha, x, y, z):
    """The Jacobian entries at points with rates ``alpha``, from their own sums."""
    s = _with_jacobian_sums(p, _sums(p, alpha, x, y, z))
    return _jacobian_from_sums(p, alpha, _own_rate(p, alpha), z, s, np.sqrt)


@settings(max_examples=200, deadline=None)
@given(_params(), st.lists(st.tuples(_coord, _coord, _coord, st.floats(0.1, 40.0)),
                           min_size=1, max_size=24))
@example(_UNDERFLOW[0], [_UNDERFLOW[1] + (1.0,), (0.6, 0.4, 0.2, 9.0)])
@example(PAPER_PARAMS, [_CUBE_UNDERFLOW + (2.0,), (0.6, 0.4, 0.2, 9.0)])
def test_array_map_and_jacobian_with_per_point_alpha_are_scalar_bit_for_bit(p, pts):
    """Each point i with its own rate a_i: the array forms give the bits of
    ``eval_map_xyz`` and ``eval_jacobian`` at Params(..., alpha=a_i), and
    the off-domain masks hold exactly where those raise."""
    x, y, z, a = np.array(pts).T
    sums = _with_jacobian_sums(p, _sums(p, a, x, y, z))
    map_off, jac_off = _map_off(sums), _jacobian_off(sums)
    maps, jacs = [], []
    for i, (xi, yi, zi, ai) in enumerate(pts):
        pa = replace(p, alpha=ai)
        try:
            maps.append(eval_map_xyz(pa, xi, yi, zi))
        except DomainError:
            assert map_off[i]
        else:
            assert not map_off[i]
        try:
            jacs.append(eval_jacobian(pa, State(xi, yi, zi)))
        except DomainError:
            assert jac_off[i]
        else:
            assert not jac_off[i]
    on = ~map_off
    if on.any():
        got = np.column_stack(eval_map_arrays(p, x[on], y[on], z[on], alpha=a[on]))
        assert got.tobytes() == np.array(maps).tobytes()
    if map_off.any():
        with pytest.raises(DomainError):
            eval_map_arrays(p, x, y, z, alpha=a)
    on = ~jac_off
    if on.any():
        j11, j12, j21, j31, j33 = _entries(p, a[on], x[on], y[on], z[on])
        got = np.stack([j11, j12, j12, j21, np.zeros_like(j21), j21, j31, j31, j33], axis=1)
        assert got.tobytes() == np.array(jacs).reshape(-1, 9).tobytes()


# The kernels as written before the shared sums, the reference the fused
# step must match bit for bit: x + y + z in one expression, q*q*q, x + z
# formed by every kernel, 1 - alpha*c3 inside the z-update and j33, the
# four-term domain masks, and a square that multiplies both split factors.
def _reference_two_prod(a, b):
    prod = a * b
    c = 134217729.0 * a
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    return prod, ((ah * bh - prod) + ah * bl + al * bh) + al * bl


def _reference_map(p, x, y, z, alpha):
    q = x + y + z
    q2 = q * q
    d = x + z
    r = d / p.c2
    s = np.sqrt(r)
    p_hi, p_lo = _reference_two_prod(r, p.c2)
    div_err = ((d - p_hi) - p_lo) / p.c2
    q_hi, q_lo = _reference_two_prod(s, s)
    resid = (r - q_hi) - q_lo
    f2 = (s - d) + (resid + div_err) / (2.0 * s)
    f1 = (2.0 * x + y + z - p.c1 * q2) / 2.0
    f3 = z * (1.0 - alpha * p.c3 + alpha * (x + y) / q2)
    return f1, f2, f3


def _reference_jacobian(p, alpha, x, y, z):
    a = x + y
    d = x + z
    q = x + y + z
    q3 = q * q * q
    cq = p.c1 * q
    j21 = 1.0 / (2.0 * np.sqrt(p.c2 * d)) - 1.0
    j31 = alpha * z * (q - 2.0 * a) / q3
    j33 = 1.0 - alpha * p.c3 + alpha * a * (q - 2.0 * z) / q3
    return 1.0 - cq, 0.5 - cq, j21, j31, j33


def _reference_masks(x, y, z, c2):
    d = x + z
    q = x + y + z
    return ((d <= 0.0) | (q <= 0.0) | (q * q == 0.0) | (d / c2 == 0.0),
            (d <= 0.0) | (q <= 0.0) | (c2 * d == 0.0) | (q * q * q == 0.0))


def _same_bits(got, want):
    """Equal bit for bit, except that any NaN matches any NaN (its sign and
    payload depend on the operand order of a product)."""
    got, want = np.asarray(got), np.asarray(want)
    nan = np.isnan(got)
    return (nan == np.isnan(want)).all() and got[~nan].tobytes() == want[~nan].tobytes()


# (x+y+z)^2 underflows, subnormals, signed zeros, inf and NaN
_edge = st.sampled_from([0.0, -0.0, 1e-170, -1e-170, 1e-110, 2.0 ** -1022, 1e-310, 5e-324,
                         -5e-324, 1e200, math.inf, -math.inf, math.nan])
_edge_coord = st.one_of(_coord, _coord, _edge)


@settings(max_examples=300, deadline=None)
@given(_params(), st.lists(st.tuples(_edge_coord, _edge_coord, _edge_coord, st.floats(0.1, 40.0)),
                           min_size=1, max_size=24))
@example(PAPER_PARAMS, [(1e-170, 1e-170, 1e-170, 2.0), (0.6, 0.4, 0.2, 9.0),
                        _CUBE_UNDERFLOW + (3.0,), (math.nan, 0.4, 0.2, 5.0),
                        (0.6, -math.inf, 0.2, 7.0), (-0.3, 1.0, 0.2, 8.0), (5e-324, 0.0, 0.0, 1.0)])
def test_fused_step_gives_the_reference_kernels_bits(p, pts):
    """The sums formed once per step with a rate per row and the hoisted
    g = 1 - alpha*c3, as the scan makes it, then compacted to the rows a
    mask keeps: both masks, the map and the Jacobian entries read them and
    give the bits of ``eval_map_arrays`` and of entries from the kept
    points' own sums, and of the kernels as written before the sums were
    shared."""
    x, y, z, alpha = np.array(pts).T
    with np.errstate(all="ignore"):
        sums = _with_jacobian_sums(p, _sums(p, alpha, x, y, z))
        g = _own_rate(p, alpha)
        map_off, jac_off = _map_off(sums), _jacobian_off(sums)
        want_map_off, want_jac_off = _reference_masks(x, y, z, p.c2)
        assert (map_off == want_map_off).all() and (jac_off == want_jac_off).all()

        on = ~map_off
        fused = _map_from_sums(p, g[on], x[on], y[on], z[on], tuple(v[on] for v in sums),
                               np.sqrt)
        assert _same_bits(fused, eval_map_arrays(p, x[on], y[on], z[on], alpha=alpha[on]))
        assert _same_bits(fused, _reference_map(p, x[on], y[on], z[on], alpha[on]))

        on = ~jac_off
        fused = _jacobian_from_sums(p, alpha[on], g[on], z[on], tuple(v[on] for v in sums),
                                    np.sqrt)
        assert _same_bits(fused, _entries(p, alpha[on], x[on], y[on], z[on]))
        assert _same_bits(fused, _reference_jacobian(p, alpha[on], x[on], y[on], z[on]))
