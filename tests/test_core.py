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
    boundary_fixed_point,
    eval_map_arrays,
    interior_fixed_point,
    jacobian_arrays,
    jacobian_off_domain,
    map_arrays,
    map_off_domain,
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


@pytest.mark.parametrize("x,y,z", [(0.0, 1.0, 0.0), (-0.3, 1.0, 0.2), (0.5, -1.0, 0.2)])
def test_eval_map_arrays_domain_errors(x, y, z):
    with pytest.raises(DomainError):
        eval_map_arrays(PAPER_PARAMS, np.array([0.6, x]), np.array([0.4, y]), np.array([0.2, z]))


# (x+y+z)^2 and (x+y+z)^3 underflow to 0 although x + y + z > 0
_UNDERFLOW = (Params(1.0, 1.0, 1.0, 1.0), (0.0, 0.0, 8.79e-197))


def test_underflowed_divisor_is_a_domain_error():
    p, (x, y, z) = _UNDERFLOW
    with pytest.raises(DomainError):
        eval_map_xyz(p, x, y, z)
    with pytest.raises(DomainError):
        eval_jacobian(p, State(x, y, z))
    with pytest.raises(DomainError):
        eval_map_arrays(p, np.array([0.6, x]), np.array([0.4, y]), np.array([0.2, z]))


# (x+y+z)^3 underflows to 0 and (x+y+z)^2 does not: only the Jacobian is undefined
_CUBE_UNDERFLOW = (1e-110, 1e-110, 1e-110)


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
    map_off = map_off_domain(x + z, x + y + z, p.c2)
    jac_off = jacobian_off_domain(x + z, x + y + z, p.c2)
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
        got = np.column_stack(map_arrays(p, x[on], y[on], z[on], a[on]))
        assert got.tobytes() == np.array(maps).tobytes()
        checked = np.column_stack(eval_map_arrays(p, x[on], y[on], z[on], alpha=a[on]))
        assert checked.tobytes() == got.tobytes()
    if map_off.any():
        with pytest.raises(DomainError):
            eval_map_arrays(p, x, y, z, alpha=a)
    on = ~jac_off
    if on.any():
        got = jacobian_arrays(p, x[on], y[on], z[on], a[on])
        assert got.tobytes() == np.array(jacs).tobytes()


def test_jacobian_arrays_default_to_the_params_rate():
    x, y, z = np.array([[0.6, 0.4, 0.2], [0.59, 0.38, 0.1]]).T
    got = jacobian_arrays(PAPER_PARAMS, x, y, z)
    want = np.array([eval_jacobian(PAPER_PARAMS, State(*pt)) for pt in zip(x, y, z)])
    assert got.tobytes() == want.tobytes()
