"""Core triopoly map: three firms updating output by heterogeneous rules.

Firm 1 best-responds with naive expectations, firm 2 best-responds against
the observed aggregate of its rivals, firm 3 adjusts along its marginal
profit gradient with speed ``alpha``.  The resulting discrete-time map on
(x, y, z) is

    x' = (2x + y + z - c1*(x+y+z)^2) / 2
    y' = sqrt((x+z)/c2) - (x+z)
    z' = z * (1 - alpha*c3 + alpha*(x+y)/(x+y+z)^2)

The z-component is kept in factored form so that z = 0 is an exact fixed
plane in floating point, not just up to rounding.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "Params",
    "State",
    "eval_map",
    "eval_map_xyz",
    "eval_map_arrays",
    "eval_jacobian",
    "fixed_points",
    "interior_fixed_point",
    "boundary_fixed_point",
    "fixed_point_residual",
]


class DomainError(ValueError):
    """Raised when the map or its Jacobian is evaluated off its domain.

    The square root in the y-update needs x + z > 0 and the gradient term
    in the z-update needs x + y + z > 0.
    """


@dataclass(frozen=True)
class Params:
    """Cost/adjustment parameters (c1, c2, c3, alpha), all strictly positive.

    alpha*c3 > 1 is *not* required here; it is a precondition of one
    certificate inequality and is flagged there, not at construction.
    """

    c1: float
    c2: float
    c3: float
    alpha: float

    def __post_init__(self) -> None:
        for name in ("c1", "c2", "c3", "alpha"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"parameter {name} must be a finite positive number, got {v!r}")
            object.__setattr__(self, name, float(v))

    @property
    def gradient_bound_defined(self) -> bool:
        """Whether alpha*c3 > 1, needed by the top-face escape inequality."""
        return self.alpha * self.c3 > 1.0

    def as_dict(self) -> dict:
        return {"c1": self.c1, "c2": self.c2, "c3": self.c3, "alpha": self.alpha}


@dataclass(frozen=True)
class State:
    """One production profile (x, y, z).  Coordinates may go negative along
    an orbit; domain checks happen at evaluation time, not here."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"coordinate {name} must be finite, got {v!r}")
            object.__setattr__(self, name, float(v))

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """Dekker's exact product: returns (fl(a*b), a*b - fl(a*b)).

    Elementwise on float64 arrays too: only + - * are used.  A square
    (``b is a``) splits its factor once and forms ah*al once.
    """
    prod = a * b
    c = 134217729.0 * a  # Veltkamp split at 2**27 + 1
    ah = c - (c - a)
    al = a - ah
    if b is a:
        cross = ah * al
        return prod, ((ah * ah - prod) + cross + cross) + al * al
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    return prod, ((ah * bh - prod) + ah * bl + al * bh) + al * bl


def _psi(d: float, r: float, c2: float, sqrt) -> float:
    """sqrt(d/c2) - d with a compensated square root, from d and r = d/c2.

    The difference is an order of magnitude smaller than either term near
    the interesting boxes, so the naive expression loses ~10 ulps to the
    sqrt rounding alone.  One Newton-style correction recovered with exact
    products brings the result back within about an ulp.  With
    ``sqrt=np.sqrt`` it runs elementwise on arrays, to the same bits.
    """
    s = sqrt(r)
    p_hi, p_lo = _two_prod(r, c2)
    div_err = ((d - p_hi) - p_lo) / c2  # d/c2 - fl(d/c2), to first order
    q_hi, q_lo = _two_prod(s, s)
    resid = (r - q_hi) - q_lo  # r - s*s, exactly
    corr = (resid + div_err) / (2.0 * s)
    return (s - d) + corr


def _sums(p: Params, alpha, x, y, z) -> tuple:
    """(d, q2, r, aa, q, a) = (x+z, q*q, d/c2, alpha*a, a+z, x+y), formed once
    for the map and its domain mask; the map reads the first four, and
    a + z rounds as x + y + z does.  Floats or arrays."""
    a = x + y
    d = x + z
    q = a + z
    return d, q * q, d / p.c2, alpha * a, q, a


def _with_jacobian_sums(p: Params, s: tuple) -> tuple:
    """``_sums`` s and the two the Jacobian and its mask add: c2*d and
    q3 = q2*q, which rounds as q*q*q does."""
    d, q2, _, _, q, _ = s
    return s + (p.c2 * d, q2 * q)


def _own_rate(p: Params, alpha):
    """g = 1 - alpha*c3 in z' = z*(g + alpha*(x+y)/(x+y+z)^2), fixed per rate."""
    return 1.0 - alpha * p.c3


def _domain_error(d: float, q: float) -> DomainError:
    """The error for a point with x + z = d, x + y + z = q off the domain."""
    if d <= 0.0:
        return DomainError(f"x + z = {d} <= 0: square root undefined")
    if q <= 0.0:
        return DomainError(f"x + y + z = {q} <= 0: aggregate share undefined")
    return DomainError(f"x + z = {d}, x + y + z = {q}: a divisor built from them "
                       f"underflows to 0")


# The masks from the shared sums.  c2 > 0, so r = d/c2 and cd = c2*d have the
# sign of d, and q3 that of q: each is <= 0 exactly where that sign is, or
# where it underflows to 0.
def _map_off(s: tuple):
    """Where the map is undefined, from its ``_sums`` s.

    Off the domain (x + z <= 0 or x + y + z <= 0), or on it but with a
    divisor that underflows to 0: (x+y+z)^2 in the z-update, or d/c2,
    whose square root divides the compensation term of the y-update.
    These are exactly the points where ``eval_map_xyz`` raises.
    Elementwise on arrays.
    """
    q2, r, q = s[1], s[2], s[4]
    return (r <= 0.0) | (q <= 0.0) | (q2 == 0.0)


def _jacobian_off(s: tuple):
    """Where ``eval_jacobian`` raises, from its ``_with_jacobian_sums`` s.

    Besides x + z <= 0 or x + y + z <= 0, the divisors sqrt(c2*d) and
    (x+y+z)^3 may underflow to 0; sqrt(c2*d) is 0 exactly when c2*d is.
    Elementwise on arrays.
    """
    cd, q3 = s[6], s[7]
    return (cd <= 0.0) | (q3 <= 0.0)


def _f3_from_sums(g, z, s: tuple):
    """F3 from its ``_sums`` s and g = ``_own_rate``; floats or arrays."""
    return z * (g + s[3] / s[1])


def _map_from_sums(p: Params, g, x, y, z, s: tuple, sqrt):
    """The map from its ``_sums`` s and g = ``_own_rate``, where ``_map_off``
    is false; floats, or arrays with ``sqrt=np.sqrt``, to the same bits."""
    d, q2, r = s[:3]
    f1 = (2.0 * x + y + z - p.c1 * q2) / 2.0
    f2 = _psi(d, r, p.c2, sqrt)
    return f1, f2, _f3_from_sums(g, z, s)


def _jacobian_from_sums(p: Params, alpha, g, z, s: tuple, sqrt):
    """The five distinct Jacobian entries (j11, j12, j21, j31, j33) from
    ``_with_jacobian_sums`` s and g = ``_own_rate``, where ``_jacobian_off``
    is false; floats, or arrays with ``sqrt=np.sqrt``, to the same bits."""
    _, _, _, aa, q, a, cd, q3 = s
    cq = p.c1 * q
    j11 = 1.0 - cq
    j12 = 0.5 - cq
    j21 = 1.0 / (2.0 * sqrt(cd)) - 1.0
    j31 = alpha * z * (q - 2.0 * a) / q3
    j33 = g + aa * (q - 2.0 * z) / q3
    return j11, j12, j21, j31, j33


def eval_map_xyz(p: Params, x: float, y: float, z: float) -> tuple[float, float, float]:
    """Plain-float hot path for the map.  Raises DomainError off-domain."""
    s = _sums(p, p.alpha, x, y, z)
    if _map_off(s):
        raise _domain_error(s[0], s[4])
    return _map_from_sums(p, _own_rate(p, p.alpha), x, y, z, s, math.sqrt)


def eval_map_arrays(p: Params, x: np.ndarray, y: np.ndarray, z: np.ndarray,
                    alpha=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``eval_map_xyz`` over float64 arrays, bit for bit the same per point.

    The same operations run in the same order; IEEE double arithmetic and
    the correctly rounded square root make each element equal the scalar
    result.  ``alpha``, an array like ``x``, gives each point its own
    adjustment rate in place of ``p.alpha``.  Raises DomainError when any
    point is off the domain, or where the scalar map would divide by an
    underflowed zero (``_map_off``).
    """
    if alpha is None:
        alpha = p.alpha
    s = _checked_array_sums(p, alpha, x, y, z)
    return _map_from_sums(p, _own_rate(p, alpha), x, y, z, s, np.sqrt)


def _checked_array_sums(p: Params, alpha, x, y, z) -> tuple:
    """``_sums`` of arrays; raises DomainError where any point is ``_map_off``."""
    s = _sums(p, alpha, x, y, z)
    bad = _map_off(s)
    if np.any(bad):
        raise _domain_error(s[0][bad][0], s[4][bad][0])
    return s


def _f3_arrays(p: Params, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``eval_map_arrays(p, x, y, z)[2]`` to the bit, or its DomainError."""
    return _f3_from_sums(_own_rate(p, p.alpha), z, _checked_array_sums(p, p.alpha, x, y, z))


def eval_map(p: Params, s: State) -> State:
    """One step of the triopoly map."""
    f1, f2, f3 = eval_map_xyz(p, s.x, s.y, s.z)
    return State(f1, f2, f3)


def eval_jacobian(p: Params, s: State) -> np.ndarray:
    """Exact Jacobian of the map at s as a 3x3 array.

    Entries (A = x + y, D = x + z, Q = x + y + z):

        dF1/dx = 1 - c1*Q        dF1/dy = dF1/dz = 1/2 - c1*Q
        dF2/dx = dF2/dz = 1/(2*sqrt(c2*D)) - 1,   dF2/dy = 0
        dF3/dx = dF3/dy = alpha*z*(Q - 2A)/Q^3
        dF3/dz = 1 - alpha*c3 + alpha*A*(Q - 2z)/Q^3

    D = 0 is a derivative singularity on top of the map's own domain needs,
    so the same strict positivity is enforced here (``_jacobian_off``).
    """
    sums = _with_jacobian_sums(p, _sums(p, p.alpha, s.x, s.y, s.z))
    if _jacobian_off(sums):
        raise _domain_error(sums[0], sums[4])
    j11, j12, j21, j31, j33 = _jacobian_from_sums(p, p.alpha, _own_rate(p, p.alpha), s.z, sums,
                                                  math.sqrt)
    return np.array(
        [
            [j11, j12, j12],
            [j21, 0.0, j21],
            [j31, j31, j33],
        ]
    )


def interior_fixed_point(p: Params) -> State:
    """Interior Nash rest point: with Q = 2/(c1+c2+c3),

        x* = Q - c1*Q^2,  y* = Q - c2*Q^2,  z* = Q - c3*Q^2.

    Derived from the three balance identities y+z = c1 Q^2, x+z = c2 Q^2,
    x+y = c3 Q^2 obtained by equating each component to its argument.
    """
    q = 2.0 / (p.c1 + p.c2 + p.c3)
    q2 = q * q
    return State(q - p.c1 * q2, q - p.c2 * q2, q - p.c3 * q2)


def boundary_fixed_point(p: Params) -> State:
    """Rest point on the exit plane z = 0: with Q = 1/(c1+c2),

        x = c2*Q^2,  y = c1*Q^2,  z = 0.
    """
    q = 1.0 / (p.c1 + p.c2)
    q2 = q * q
    return State(p.c2 * q2, p.c1 * q2, 0.0)


def fixed_point_residual(p: Params, s: State) -> float:
    """Max-norm of F(s) - s."""
    f1, f2, f3 = eval_map_xyz(p, s.x, s.y, s.z)
    return max(abs(f1 - s.x), abs(f2 - s.y), abs(f3 - s.z))


def fixed_points(p: Params) -> list[State]:
    """Both closed-form fixed points, interior first.

    They are all the fixed points on the domain x+z > 0, x+y+z > 0.  With
    Q = x+y+z > 0, the three components of F(s) = s read

        z' = z  gives  z = 0  or  x+y = c3*Q^2,
        x' = x  gives  y+z = c1*Q^2,
        y' = y  gives  sqrt((x+z)/c2) = Q,  so  x+z = c2*Q^2.

    If z != 0, summing the three identities gives 2Q = (c1+c2+c3)*Q^2, so
    Q = 2/(c1+c2+c3): the interior point.  If z = 0, then x = c2*Q^2 and
    y = c1*Q^2 add up to Q, so Q = 1/(c1+c2): the boundary point.

    Warns (does not raise) when a closed-form coordinate is non-positive;
    the formulas still solve F(s) = s but the point then sits outside the
    economically meaningful quadrant.
    """
    pts = [interior_fixed_point(p), boundary_fixed_point(p)]
    for tag, s in zip(("interior", "boundary"), pts):
        if min(s.x, s.y, s.z) < 0.0 or (tag == "interior" and min(s.x, s.y, s.z) <= 0.0):
            warnings.warn(
                f"{tag} fixed point {s.as_tuple()} has a non-positive coordinate",
                stacklevel=2,
            )
    return pts
