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

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    """Dekker's exact product: returns (fl(a*b), a*b - fl(a*b)).

    Elementwise on float64 arrays too: only + - * are used.
    """
    prod = a * b
    c = 134217729.0 * a  # Veltkamp split at 2**27 + 1
    ah = c - (c - a)
    al = a - ah
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


def eval_map_xyz(p: Params, x: float, y: float, z: float) -> tuple[float, float, float]:
    """Plain-float hot path for the map.  Raises DomainError off-domain."""
    d = x + z
    q = x + y + z
    if d <= 0.0:
        raise DomainError(f"x + z = {d} <= 0: square root undefined")
    if q <= 0.0:
        raise DomainError(f"x + y + z = {q} <= 0: aggregate share undefined")
    f1 = (2.0 * x + y + z - p.c1 * (q * q)) / 2.0
    try:
        f2 = _psi(d, p.c2)
        f3 = z * (1.0 - p.alpha * p.c3 + p.alpha * (x + y) / (q * q))
    except ZeroDivisionError:
        raise DomainError(_underflow(d, q)) from None
    return f1, f2, f3


def eval_map_arrays(p: Params, x: np.ndarray, y: np.ndarray,
                    z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``eval_map_xyz`` over float64 arrays, bit for bit the same per point.

    The same operations run in the same order; IEEE double arithmetic and
    the correctly rounded square root make each element equal the scalar
    result.  Raises DomainError when any point is off the domain, or
    where the scalar map would divide by an underflowed zero.
    """
    d = x + z
    q = x + y + z
    if np.any(d <= 0.0):
        raise DomainError(f"x + z = {d[d <= 0.0][0]} <= 0: square root undefined")
    if np.any(q <= 0.0):
        raise DomainError(f"x + y + z = {q[q <= 0.0][0]} <= 0: aggregate share undefined")
    q2 = q * q
    tiny = (q2 == 0.0) | (d / p.c2 == 0.0)
    if np.any(tiny):
        raise DomainError(_underflow(d[tiny][0], q[tiny][0]))
    f1 = (2.0 * x + y + z - p.c1 * q2) / 2.0
    f2 = _psi(d, p.c2, np.sqrt)
    f3 = z * (1.0 - p.alpha * p.c3 + p.alpha * (x + y) / q2)
    return f1, f2, f3


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
    so the same strict positivity is enforced here.
    """
    x, y, z = s.x, s.y, s.z
    d = x + z
    q = x + y + z
    if d <= 0.0:
        raise DomainError(f"x + z = {d} <= 0: dF2 undefined")
    if q <= 0.0:
        raise DomainError(f"x + y + z = {q} <= 0: dF3 undefined")
    a = x + y
    q3 = q * q * q
    j11 = 1.0 - p.c1 * q
    j12 = 0.5 - p.c1 * q
    try:
        j21 = 1.0 / (2.0 * math.sqrt(p.c2 * d)) - 1.0
        j31 = p.alpha * z * (q - 2.0 * a) / q3
        j33 = 1.0 - p.alpha * p.c3 + p.alpha * a * (q - 2.0 * z) / q3
    except ZeroDivisionError:
        raise DomainError(_underflow(d, q)) from None
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
