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
    "map_arrays",
    "jacobian_arrays",
    "map_off_domain",
    "jacobian_off_domain",
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

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """Dekker's exact product: returns (fl(a*b), a*b - fl(a*b)).

    Elementwise on float64 arrays too: only + - * are used.  A square
    (``b is a``) splits its factor once.
    """
    prod = a * b
    c = 134217729.0 * a  # Veltkamp split at 2**27 + 1
    ah = c - (c - a)
    al = a - ah
    if b is a:
        bh, bl = ah, al
    else:
        c = 134217729.0 * b
        bh = c - (c - b)
        bl = b - bh
    err = ((ah * bh - prod) + ah * bl + al * bh) + al * bl
    return prod, err


def _psi(d: float, c2: float, sqrt=math.sqrt) -> float:
    """sqrt(d/c2) - d with a compensated square root.

    The difference is an order of magnitude smaller than either term near
    the interesting boxes, so the naive expression loses ~10 ulps to the
    sqrt rounding alone.  One Newton-style correction recovered with exact
    products brings the result back within about an ulp.  With
    ``sqrt=np.sqrt`` it runs elementwise on arrays, to the same bits.
    """
    r = d / c2
    s = sqrt(r)
    p_hi, p_lo = _two_prod(r, c2)
    div_err = ((d - p_hi) - p_lo) / c2  # d/c2 - fl(d/c2), to first order
    q_hi, q_lo = _two_prod(s, s)
    resid = (r - q_hi) - q_lo  # r - s*s, exactly
    corr = (resid + div_err) / (2.0 * s)
    return (s - d) + corr


def _underflow(d: float, q: float) -> str:
    return (f"x + z = {d}, x + y + z = {q}: a divisor built from them "
            f"underflows to 0")


def _domain_error(d: float, q: float) -> DomainError:
    """The error for a point with x + z = d, x + y + z = q off the domain."""
    if d <= 0.0:
        return DomainError(f"x + z = {d} <= 0: square root undefined")
    if q <= 0.0:
        return DomainError(f"x + y + z = {q} <= 0: aggregate share undefined")
    return DomainError(_underflow(d, q))


def map_off_domain(d, q, c2):
    """Where the map is undefined, from d = x + z and q = x + y + z.

    Off the domain (d <= 0 or q <= 0), or on it but with a divisor that
    underflows to 0: (x+y+z)^2 in the z-update, or d/c2, whose square
    root divides the compensation term of the y-update.  These are
    exactly the points where ``eval_map_xyz`` raises.  Elementwise on
    arrays.
    """
    return (d <= 0.0) | (q <= 0.0) | (q * q == 0.0) | (d / c2 == 0.0)


def jacobian_off_domain(d, q, c2):
    """Where ``eval_jacobian`` raises, from d = x + z and q = x + y + z.

    Besides d <= 0 or q <= 0, the divisors sqrt(c2*d) and (x+y+z)^3 may
    underflow to 0; sqrt(c2*d) is 0 exactly when c2*d is.  Elementwise on
    arrays.
    """
    return (d <= 0.0) | (q <= 0.0) | (c2 * d == 0.0) | (q * q * q == 0.0)


def eval_map_xyz(p: Params, x: float, y: float, z: float) -> tuple[float, float, float]:
    """Plain-float hot path for the map.  Raises DomainError off-domain."""
    d = x + z
    q = x + y + z
    if d <= 0.0 or q <= 0.0:
        raise _domain_error(d, q)
    f1 = (2.0 * x + y + z - p.c1 * (q * q)) / 2.0
    try:
        f2 = _psi(d, p.c2)
        f3 = z * (1.0 - p.alpha * p.c3 + p.alpha * (x + y) / (q * q))
    except ZeroDivisionError:
        raise DomainError(_underflow(d, q)) from None
    return f1, f2, f3


def map_arrays(p: Params, x: np.ndarray, y: np.ndarray, z: np.ndarray,
               alpha=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``eval_map_arrays`` without its check: the caller passes only
    points where ``map_off_domain`` is false."""
    if alpha is None:
        alpha = p.alpha
    q = x + y + z
    q2 = q * q
    f1 = (2.0 * x + y + z - p.c1 * q2) / 2.0
    f2 = _psi(x + z, p.c2, np.sqrt)
    f3 = z * (1.0 - alpha * p.c3 + alpha * (x + y) / q2)
    return f1, f2, f3


def eval_map_arrays(p: Params, x: np.ndarray, y: np.ndarray, z: np.ndarray,
                    alpha=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``eval_map_xyz`` over float64 arrays, bit for bit the same per point.

    The same operations run in the same order; IEEE double arithmetic and
    the correctly rounded square root make each element equal the scalar
    result.  ``alpha``, an array like ``x``, gives each point its own
    adjustment rate in place of ``p.alpha``.  Raises DomainError when any
    point is off the domain, or where the scalar map would divide by an
    underflowed zero (``map_off_domain``).
    """
    d = x + z
    q = x + y + z
    bad = map_off_domain(d, q, p.c2)
    if np.any(bad):
        raise _domain_error(d[bad][0], q[bad][0])
    return map_arrays(p, x, y, z, alpha)


def eval_map(p: Params, s: State) -> State:
    """One step of the triopoly map."""
    f1, f2, f3 = eval_map_xyz(p, s.x, s.y, s.z)
    return State(f1, f2, f3)


def _jacobian_entries(p: Params, alpha, x, y, z, sqrt=math.sqrt):
    """The five distinct Jacobian entries (j11, j12, j21, j31, j33) at (x, y, z).

    One formula for floats and, with ``sqrt=np.sqrt``, elementwise for
    arrays, to the same bits; ``alpha`` stands in for ``p.alpha``.  On
    floats a divisor that underflows to 0 raises ZeroDivisionError; on
    arrays the caller excludes those points first (``jacobian_off_domain``).
    """
    a = x + y
    d = x + z
    q = x + y + z
    q3 = q * q * q
    cq = p.c1 * q
    j11 = 1.0 - cq
    j12 = 0.5 - cq
    j21 = 1.0 / (2.0 * sqrt(p.c2 * d)) - 1.0
    j31 = alpha * z * (q - 2.0 * a) / q3
    j33 = 1.0 - alpha * p.c3 + alpha * a * (q - 2.0 * z) / q3
    return j11, j12, j21, j31, j33


def eval_jacobian(p: Params, s: State) -> np.ndarray:
    """Exact Jacobian of the map at s as a 3x3 array.

    Entries (A = x + y, D = x + z, Q = x + y + z):

        dF1/dx = 1 - c1*Q        dF1/dy = dF1/dz = 1/2 - c1*Q
        dF2/dx = dF2/dz = 1/(2*sqrt(c2*D)) - 1,   dF2/dy = 0
        dF3/dx = dF3/dy = alpha*z*(Q - 2A)/Q^3
        dF3/dz = 1 - alpha*c3 + alpha*A*(Q - 2z)/Q^3

    D = 0 is a derivative singularity on top of the map's own domain needs,
    so the same strict positivity is enforced here.
    """
    x, y, z = s.x, s.y, s.z
    d = x + z
    q = x + y + z
    if d <= 0.0:
        raise DomainError(f"x + z = {d} <= 0: dF2 undefined")
    if q <= 0.0:
        raise DomainError(f"x + y + z = {q} <= 0: dF3 undefined")
    try:
        j11, j12, j21, j31, j33 = _jacobian_entries(p, p.alpha, x, y, z)
    except ZeroDivisionError:
        raise DomainError(_underflow(d, q)) from None
    return np.array(
        [
            [j11, j12, j12],
            [j21, 0.0, j21],
            [j31, j31, j33],
        ]
    )


def jacobian_arrays(p: Params, x: np.ndarray, y: np.ndarray, z: np.ndarray,
                    alpha=None) -> np.ndarray:
    """``eval_jacobian`` at each point of float64 arrays, as an (n, 3, 3)
    stack, bit for bit the same per point.

    ``alpha``, an array like ``x``, gives each point its own adjustment
    rate.  Nothing is checked: the caller passes only points where
    ``jacobian_off_domain`` is false.
    """
    j11, j12, j21, j31, j33 = _jacobian_entries(
        p, p.alpha if alpha is None else alpha, x, y, z, np.sqrt)
    entries = np.array((j11, j12, j12, j21, np.zeros_like(j21), j21, j31, j31, j33))
    return np.ascontiguousarray(entries.T).reshape(-1, 3, 3)


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
