"""Exploratory dynamics for the triopoly map, and a logistic prototype.

The triopoly part is floating-point simulation: orbit records with escape
detection, QR-iteration Lyapunov exponents, stability classification of
the interior rest point, and bifurcation scans in the adjustment rate
alpha.  None of it feeds the certification engines; it exists to explore
and to sanity-check the certified statements against plain numerics.

``simulate`` and ``lyapunov_spectrum`` follow one orbit in scalar floats.
``bifurcation_scan`` steps all its alpha samples in lockstep instead: the
live rows advance as arrays through the map, and each row's largest
exponent comes from one tangent vector, not a QR frame.  Each step forms
the sums x + y, x + z, x + y + z and their powers once (``core._sums``)
and shares them between the domain masks, the map and the tangent; each
row's 1 - alpha*c3 is fixed for the whole scan.  One orbit stays scalar
because a numpy step on one row costs about ten scalar steps.

The one-dimensional covering-interval demo on the logistic family is the
exception: its verdict is a proof.  Two intervals cover their hull under
f^m as soon as their endpoint images bracket the hull (intermediate value
theorem), and those endpoint images are decided in exact rational
arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .core import (
    DomainError,
    Params,
    State,
    _jacobian_from_sums,
    _jacobian_off,
    _map_from_sums,
    _map_off,
    _own_rate,
    _sums,
    _with_jacobian_sums,
    eval_jacobian,
    eval_map_arrays,
    eval_map_xyz,
    fixed_point_residual,
    interior_fixed_point,
)
from .jsonio import write_csv

__all__ = [
    "OrbitRecord",
    "LyapunovSpectrum",
    "StabilityReport",
    "BifurcationRow",
    "BifurcationTable",
    "CoveringIntervals",
    "LogisticSapReport",
    "simulate",
    "lyapunov_spectrum",
    "classify_equilibrium",
    "classify_eigenvalues",
    "bifurcation_scan",
    "logistic_sap_demo",
    "find_covering_pair",
    "verify_covering",
    "DEFAULT_SAFETY",
]

DEFAULT_SAFETY = (-10.0, 10.0)

# below this residual a start is treated as sitting exactly on a rest point:
# the true orbit is constant, and advancing it in floats would just amplify
# rounding noise along the unstable direction until the orbit flies off
FIXED_POINT_PIN = 1e-12


def _safety_region(safety) -> tuple[float, float]:
    """The safety cube's (lo, hi) as floats; an empty cube is an error."""
    lo, hi = float(safety[0]), float(safety[1])
    if not lo < hi:
        raise ValueError("safety region must have lo < hi")
    return lo, hi


def _inside(x: float, y: float, z: float, lo: float, hi: float) -> bool:
    return lo <= x <= hi and lo <= y <= hi and lo <= z <= hi


@dataclass(frozen=True)
class OrbitRecord:
    """A simulated orbit segment with escape bookkeeping.

    ``points`` holds the states at absolute steps ``transient``,
    ``transient + 1``, ... (step 0 is the initial state).  ``escape_step``
    is the absolute index of the first state outside the safety region,
    or of the first step whose image left the map's domain; iteration
    stops there, so nothing at or past it is recorded.
    """

    transient: int
    points: np.ndarray
    escape_step: int | None = None

    def __post_init__(self) -> None:
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (m, 3), got {pts.shape}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def escaped(self) -> bool:
        return self.escape_step is not None

    @property
    def n_recorded(self) -> int:
        return int(self.points.shape[0])

    def to_csv(self, path_or_file) -> None:
        """Columns step,x,y,z; step is the absolute iteration index."""
        write_csv(path_or_file, ["step", "x", "y", "z"],
                  ([self.transient + i] + [f"{v:.17g}" for v in row]
                   for i, row in enumerate(self.points)))


def simulate(
    p: Params,
    s0: State,
    n: int,
    transient: int = 0,
    safety: tuple[float, float] = DEFAULT_SAFETY,
) -> OrbitRecord:
    """Iterate the map n + transient times, recording the last n states.

    A state outside the safety cube, or a step on which the map leaves
    its domain (division by a non-positive total, square root of a
    non-positive share), ends the orbit with ``escape_step`` set; this is
    recorded data, not an exception.

    A start within 1e-12 residual of a rest point is pinned to it: the
    exact orbit is constant there, whereas literal float iteration lets
    the rounding error of the closed-form coordinates grow along the
    unstable direction until the orbit ejects, which says nothing about
    the map and everything about the start being representable only
    approximately.
    """
    if n < 0 or transient < 0:
        raise ValueError("n and transient must be non-negative")
    lo, hi = _safety_region(safety)
    if fixed_point_residual(p, s0) < FIXED_POINT_PIN:
        pts = np.tile(np.array(s0.as_tuple()), (n, 1))
        esc = None if _inside(s0.x, s0.y, s0.z, lo, hi) else 0
        if esc == 0:
            pts = pts[:0]
        return OrbitRecord(transient=transient, points=pts, escape_step=esc)
    x, y, z = s0.x, s0.y, s0.z
    out = np.empty((n, 3), dtype=float)
    m = 0
    escape: int | None = None
    for step in range(transient + n):
        if not _inside(x, y, z, lo, hi):
            escape = step
            break
        if step >= transient:
            out[m] = (x, y, z)
            m += 1
        try:
            x, y, z = eval_map_xyz(p, x, y, z)
        except DomainError:
            escape = step + 1
            break
    else:
        # the state after the final recorded one still must be admissible
        # for the orbit to count as non-escaping at horizon n
        if not _inside(x, y, z, lo, hi):
            escape = transient + n
    return OrbitRecord(transient=transient, points=out[:m].copy(), escape_step=escape)


@dataclass(frozen=True)
class LyapunovSpectrum:
    """QR-iteration exponent estimates, sorted descending.

    ``escaped`` flags a partial estimate: the orbit left the safety cube
    or the map's domain before the requested horizon, and the exponents
    average only the ``steps`` factors seen up to that point.
    """

    exponents: tuple[float, float, float]
    steps: int
    escaped: bool = False
    note: str = ""

    def __iter__(self):
        return iter(self.exponents)


def lyapunov_spectrum(
    p: Params,
    s0: State,
    n: int,
    transient: int = 0,
    safety: tuple[float, float] = DEFAULT_SAFETY,
) -> LyapunovSpectrum:
    """All three Lyapunov exponents along the orbit of s0, after
    ``transient`` map steps.

    Standard discrete QR method: push an orthonormal frame through the
    Jacobian at every step and average the log of the R diagonal.  The
    first min(256, n // 4) factors, the warm-up ``bifurcation_scan`` uses
    too, are discarded so the frame can align with the Oseledets
    splitting first; without this the O(1) misalignment of the initial
    frame pollutes the average by O(1/n), which is visible at fixed points
    where everything else is exact.

    One walk of ``transient + n`` map steps; the frame joins at step
    ``transient``.  An orbit that stops in the transient has no estimate
    (nan, 0 steps); one that stops later has that of the factors seen.

    A start within 1e-12 residual of a rest point is pinned: the exact
    orbit is constant, while iterating in floats would let rounding noise
    grow along the unstable direction and eject the orbit.  It skips the
    transient.
    """
    if n < 1:
        raise ValueError("need at least one step")
    if transient < 0:
        raise ValueError("transient must be non-negative")
    warmup = min(256, n // 4)
    lo, hi = _safety_region(safety)
    pinned = fixed_point_residual(p, s0) < FIXED_POINT_PIN
    x, y, z = s0.x, s0.y, s0.z
    note = "pinned at a fixed point" if pinned else ""
    escaped = True      # until the walk runs to its end
    frame = np.eye(3)
    sums = np.zeros(3)      # sum of log |R_ii| since the warm-up, or within it
    seen = 0
    for step in range(transient if pinned else 0, transient + n):
        k = step - transient        # the frame's step; negative in the transient
        if k >= 0:
            try:
                jac = eval_jacobian(p, State(x, y, z))
            except DomainError:
                note = f"Jacobian undefined at step {k}; estimate is partial"
                break
            frame, r = np.linalg.qr(jac @ frame)
            with np.errstate(divide="ignore"):      # an exact-zero diagonal logs -inf
                logs = np.log(np.abs(np.diag(r)))
            if k == warmup:
                sums[:] = 0.0
            sums += logs
            seen += 1
            if pinned:
                continue
        try:
            x, y, z = eval_map_xyz(p, x, y, z)
        except DomainError:
            left = "the domain"
        else:
            if _inside(x, y, z, lo, hi):
                continue
            left = "the safety region"
        note = (f"orbit left {left} at step {k + 1}; estimate is partial" if k >= 0
                else f"orbit left {left} at transient step {step + 1}")
        break
    else:
        escaped = False
    used = seen - warmup if seen > warmup else seen
    if 0 < seen <= warmup:
        # escaped inside the warmup window; an unwarmed average beats none
        note += "; QR warmup not reached"
    if used == 0:
        return LyapunovSpectrum((math.nan,) * 3, 0, escaped, note)
    exps = np.sort(sums / used)[::-1]
    return LyapunovSpectrum(tuple(float(v) for v in exps), used, escaped, note)


def classify_eigenvalues(eigvals, tol: float = 1e-9) -> str:
    """Map a spectrum to stable | flip-critical | Neimark-Sacker-critical | unstable.

    Critical tags take precedence: a real eigenvalue within tol of -1 is
    flip-critical, a genuinely complex pair within tol of the unit circle
    is Neimark-Sacker-critical.  Otherwise the largest modulus decides.
    """
    ev = np.asarray(eigvals, dtype=complex)
    real = np.abs(ev.imag) <= tol
    if np.any(real & (np.abs(ev.real + 1.0) <= tol)):
        return "flip-critical"
    if np.any(~real & (np.abs(np.abs(ev) - 1.0) <= tol)):
        return "Neimark-Sacker-critical"
    return "unstable" if float(np.max(np.abs(ev))) > 1.0 else "stable"


@dataclass(frozen=True)
class StabilityReport:
    """Linear stability of the interior rest point."""

    fixed_point: State
    eigenvalues: tuple[complex, complex, complex]
    moduli: tuple[float, float, float]
    classification: str
    params: Params
    tol: float = 1e-9

    def __post_init__(self) -> None:
        m = self.moduli
        if not (m[0] >= m[1] >= m[2]):
            raise ValueError("moduli must be sorted descending")

    def as_dict(self) -> dict:
        return {
            "fixed_point": self.fixed_point.as_tuple(),
            "eigenvalues": [[v.real, v.imag] for v in self.eigenvalues],
            "moduli": list(self.moduli),
            "classification": self.classification,
            "params": {
                "c1": self.params.c1,
                "c2": self.params.c2,
                "c3": self.params.c3,
                "alpha": self.params.alpha,
            },
            "tol": self.tol,
        }


def classify_equilibrium(p: Params, tol: float = 1e-9) -> StabilityReport:
    """Eigenvalue classification of the map at the interior rest point."""
    fp = interior_fixed_point(p)
    if min(fp.as_tuple()) <= 0.0:
        raise DomainError(
            f"interior rest point {fp.as_tuple()} has a non-positive share; "
            "stability classification is meaningless outside the feasible cone"
        )
    ev = np.linalg.eigvals(eval_jacobian(p, fp))
    order = np.argsort(-np.abs(ev))
    ev = ev[order]
    return StabilityReport(
        fixed_point=fp,
        eigenvalues=tuple(complex(v) for v in ev),
        moduli=tuple(float(abs(v)) for v in ev),
        classification=classify_eigenvalues(ev, tol),
        params=p,
        tol=tol,
    )


@dataclass(frozen=True)
class BifurcationRow:
    alpha: float
    escaped: bool
    lyap1: float
    z_values: tuple[float, ...]


@dataclass(frozen=True)
class BifurcationTable:
    """Plot-ready scan over the adjustment rate.

    One row per sampled alpha: escape flag, largest Lyapunov exponent
    estimate, and the tail of recorded z-values (nan-padded).  Escaped
    orbits carry nan exponents and no z samples.
    """

    rows: tuple[BifurcationRow, ...]

    def to_csv(self, path_or_file) -> None:
        """Non-finite values and the padding of short z tails are blank cells."""
        width = max((len(r.z_values) for r in self.rows), default=0)
        write_csv(path_or_file,
                  ["alpha", "escaped", "lyap1"] + [f"z{i:02d}" for i in range(width)],
                  ([f"{r.alpha:.17g}", int(r.escaped), _cell(r.lyap1)]
                   + [_cell(v) for v in r.z_values] + [""] * (width - len(r.z_values))
                   for r in self.rows))


def _cell(v: float) -> str:
    return f"{v:.17g}" if math.isfinite(v) else ""


def _policy_start(policy, p: Params, rng: np.random.Generator) -> State:
    if isinstance(policy, State):
        return policy
    if callable(policy):
        return policy(p, rng)
    fp = interior_fixed_point(p)
    if policy == "nash":
        return fp
    if policy == "perturbed-nash":
        dx, dy, dz = rng.uniform(-1e-3, 1e-3, size=3)
        return State(fp.x + dx, fp.y + dy, max(fp.z + dz, 1e-6))
    raise ValueError(f"unknown start policy {policy!r}")


def _inside_rows(x, y, z, lo: float, hi: float) -> np.ndarray:
    """``_inside`` elementwise over arrays (a nan coordinate is outside)."""
    return (lo <= np.minimum(np.minimum(x, y), z)) & (np.maximum(np.maximum(x, y), z) <= hi)


def _residual_rows(f, s) -> np.ndarray:
    """``fixed_point_residual`` per column, from the image f of the (3, m) states s."""
    r = np.abs(f[0] - s[0])
    r = np.maximum(r, np.abs(f[1] - s[1]))
    return np.maximum(r, np.abs(f[2] - s[2]))


def _keep(mask: np.ndarray, *arrays) -> tuple:
    """Each array's rows where ``mask`` holds."""
    return tuple(a[mask] for a in arrays)


def _record_rows(p: Params, alpha: np.ndarray, s: np.ndarray, transient: int, n: int,
                 kz: int, lo: float, hi: float):
    """``simulate(p_i, s_i, n, transient, (lo, hi))`` for unpinned starts
    s_i (columns of the (3, m) array ``s``; p_i has rate ``alpha[i]``), all
    rows stepping together.

    Returns the indices of the rows that did not escape, their last
    ``kz`` recorded z and their final states.  A row escapes as in
    ``simulate``: outside the cube before a step, off the map's domain at
    one (``core._map_off``), or outside the cube after the last one.
    Escaped rows are dropped when they escape.
    """
    rows = np.arange(s.shape[1])
    x, y, z = s
    g = _own_rate(p, alpha)
    tail = np.empty((rows.size, kz))
    rec_from = transient + n - kz
    for step in range(transient + n):
        sums = _sums(p, alpha, x, y, z)
        ok = _inside_rows(x, y, z, lo, hi) & ~_map_off(sums)
        if not ok.all():
            rows, x, y, z, alpha, g, tail, *sums = _keep(ok, rows, x, y, z, alpha, g, tail, *sums)
        if not rows.size:
            return rows, tail, s[:, :0]
        if step >= rec_from:
            tail[:, step - rec_from] = z
        final = (x, y, z)
        x, y, z = _map_from_sums(p, g, x, y, z, sums, np.sqrt)
    ok = _inside_rows(x, y, z, lo, hi)
    return rows[ok], tail[ok], np.array(final)[:, ok]


def _largest_exponents(p: Params, alpha: np.ndarray, s: np.ndarray, n: int,
                       lo: float, hi: float) -> np.ndarray:
    """The largest exponent over ``n`` steps from each column s_i of the
    (3, m) array ``s``, all rows stepping together: one tangent vector per
    row, v <- Jv/|Jv| from e1, with the warm-up of ``lyapunov_spectrum``
    (Benettin, Galgani, Giorgilli & Strelcyn 1980).  The ``hypot`` norm
    cannot overflow, and a vector J maps to exactly 0 stays 0: -inf.

    Every start must lie in the map's domain.  One that
    ``lyapunov_spectrum`` pins to a rest point keeps its state.  A row
    whose Jacobian is undefined (``core._jacobian_off``), or whose orbit
    leaves the domain or the cube, stops with the partial estimate of the
    steps it made; one that stops inside the warm-up averages all of them.
    Every row still live at step ``n`` stops there.
    """
    warmup = min(256, n // 4)
    out = np.full(s.shape[1], math.nan)
    rows = np.arange(s.shape[1])
    x, y, z = s
    g = _own_rate(p, alpha)
    sums = _with_jacobian_sums(p, _sums(p, alpha, x, y, z))
    moving = ~(_residual_rows(_map_from_sums(p, g, x, y, z, sums, np.sqrt), s) < FIXED_POINT_PIN)
    any_pinned, pinned_only = not moving.all(), not moving.any()
    va, vb, vc = np.ones(rows.size), np.zeros(rows.size), np.zeros(rows.size)
    acc = np.zeros(rows.size)   # sum of log |Jv| since the warm-up, or within it
    stop = _jacobian_off(sums)
    for step in range(n + 1):
        # the rows the last map step stopped, those whose Jacobian is
        # undefined here, and at step n all: each has seen ``step`` factors
        if step == n:
            stop = np.ones(rows.size, dtype=bool)
        if stop.any():
            used = step - warmup if step > warmup else step
            if used:
                out[rows[stop]] = acc[stop] / used
            rows, x, y, z, alpha, g, moving, va, vb, vc, acc, *sums = _keep(
                ~stop, rows, x, y, z, alpha, g, moving, va, vb, vc, acc, *sums)
            if not rows.size:
                break
            any_pinned, pinned_only = not moving.all(), not moving.any()
        if step == warmup:
            acc[:] = 0.0
        j11, j12, j21, j31, j33 = _jacobian_from_sums(p, alpha, g, z, sums, np.sqrt)
        na, nb, nc = j11 * va + j12 * (vb + vc), j21 * (va + vc), j31 * (va + vb) + j33 * vc
        norm = np.hypot(np.hypot(na, nb), nc)
        acc += np.log(norm)
        norm = np.maximum(norm, 5e-324)   # > 0 is kept; an annihilated v stays 0, not 0/0
        va, vb, vc = na / norm, nb / norm, nc / norm
        if pinned_only:
            stop = moving   # all false: no row moves, so none stops
            continue
        fx, fy, fz = _map_from_sums(p, g, x, y, z, sums, np.sqrt)
        stop = _map_off(sums) | ~_inside_rows(fx, fy, fz, lo, hi)
        if any_pinned:
            stop &= moving
            x, y, z = np.where(moving, fx, x), np.where(moving, fy, y), np.where(moving, fz, z)
        else:
            x, y, z = fx, fy, fz
        sums = _with_jacobian_sums(p, _sums(p, alpha, x, y, z))
        stop |= _jacobian_off(sums)
    return out


def bifurcation_scan(
    p_base: Params,
    alpha_range: tuple[float, float],
    samples: int,
    s0_policy="perturbed-nash",
    transient: int = 1000,
    n_record: int = 200,
    lyap_steps: int = 2000,
    seed: int = 0,
    threads: int = 1,
    safety: tuple[float, float] = DEFAULT_SAFETY,
) -> BifurcationTable:
    """Sweep alpha over a closed subinterval of (0, 20].

    Each row's escape flag and z tail (the last min(32, ``n_record``) z
    values) are ``simulate``'s (``n_record`` states after ``transient``) at
    its alpha, bit for bit.  Its ``lyap1``
    (``lyap_steps`` steps on) lies within 1e-12 of ``lyapunov_spectrum``'s
    largest exponent, or of its second where the top two lie within 2e-3.
    Per-alpha escapes are recorded and the scan continues.  Seeding is
    per-alpha (spawned from one root seed), so the table is identical for
    identical arguments.

    The samples run in lockstep: every map step and tangent step of all
    live rows is one array operation, and a row leaves the arrays when it
    escapes.  ``threads`` is accepted and has no effect; it must be at
    least 1.
    """
    a_lo, a_hi = float(alpha_range[0]), float(alpha_range[1])
    if not (0.0 < a_lo <= a_hi <= 20.0):
        raise ValueError(f"alpha range must sit inside (0, 20], got {alpha_range}")
    if samples < 2:
        raise ValueError("need at least two samples")
    if n_record < 1:
        raise ValueError("n_record must be positive")
    if lyap_steps < 1:
        raise ValueError("lyap_steps must be at least 1")
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if transient < 0:
        raise ValueError("transient must be non-negative")
    lo, hi = _safety_region(safety)
    alphas = np.linspace(a_lo, a_hi, samples)
    children = np.random.SeedSequence(seed).spawn(samples)
    c1, c2, c3 = p_base.c1, p_base.c2, p_base.c3
    s0 = np.array([
        _policy_start(s0_policy, Params(c1, c2, c3, float(a)), np.random.default_rng(child)).as_tuple()
        for a, child in zip(alphas, children)
    ]).T
    pinned = _residual_rows(eval_map_arrays(p_base, *s0, alpha=alphas), s0) < FIXED_POINT_PIN

    # recorded phase: a pinned start is its own constant orbit
    kz = min(32, n_record)
    tails = np.repeat(s0[2][:, None], kz, axis=1)
    escaped = ~(pinned & _inside_rows(*s0, lo, hi))
    moving = np.flatnonzero(~pinned)
    with np.errstate(all="ignore"):     # as in float arithmetic: inf and nan, no warnings
        kept, tail, final = _record_rows(p_base, alphas[moving], s0[:, moving],
                                         transient, n_record, kz, lo, hi)
    kept = moving[kept]
    escaped[kept] = False
    tails[kept] = tail

    # Lyapunov phase from each surviving row's last recorded state
    lyap1 = np.full(samples, math.nan)
    live = np.flatnonzero(~escaped)
    if live.size:
        start = s0.copy()
        start[:, kept] = final
        with np.errstate(all="ignore"):
            lyap1[live] = _largest_exponents(p_base, alphas[live], start[:, live], lyap_steps,
                                             lo, hi)

    # an escaped row's lyap1 is still nan
    rows = tuple(BifurcationRow(float(a), bool(esc), float(l1), () if esc else tuple(map(float, t)))
                 for a, esc, l1, t in zip(alphas, escaped, lyap1, tails))
    return BifurcationTable(rows)


# ---------------------------------------------------------------------------
# logistic-family covering demo
#
# The one-dimensional analogue of the box certification: two disjoint
# subintervals whose images under an iterate of f(x) = mu x (1 - x) each
# cover the hull of the pair.  Found by scanning pairs of monotone branches
# of the iterate, cut at its closed-form critical points; a scan that finds
# no pair reports absence.


def _logistic_orbit_value(mu: float, x: float, m: int) -> float:
    for _ in range(m):
        x = mu * x * (1.0 - x)
    return x


def _exact_orbit_value(mu: float, x: float, m: int) -> Fraction:
    """f^m(x) in exact rational arithmetic (mu and x as the exact rationals
    their floats denote).  Endpoint inequalities must be decided exactly:
    around the hump 4 x (1 - x) rounds to 1.0 on a plateau several ulps
    wide, and deciding coverage in floats there manufactures intervals
    whose true images fall short of the hull."""
    mu_q, xq = Fraction(mu), Fraction(x)
    for _ in range(m):
        xq = mu_q * xq * (1 - xq)
    return xq


def _critical_points(mu: float, m: int) -> list[float]:
    """Critical points of f^m inside (0, 1), increasing.

    (f^m)'(x) is the product of f'(f^j(x)) over j < m, so it vanishes
    exactly where f^j(x) = 1/2 for some j < m.  Each level of preimages of
    1/2 comes from the last by f^-1(t) = 1/2 -+ sqrt(1/4 - t/mu), which
    is real and inside [0, 1] for 0 <= t <= mu/4.
    """
    level = [0.5]
    crits = [0.5]
    for _ in range(m - 1):
        nxt = []
        for t in level:
            r = 0.25 - t / mu
            if 0.0 <= r <= 0.25:
                w = math.sqrt(r)
                nxt += [0.5 - w, 0.5 + w]
        level = nxt
        crits += level
    out: list[float] = []
    for c in sorted(crits):
        if 0.0 < c < 1.0 and (not out or c - out[-1] > 1e-12):
            out.append(c)
    return out


@dataclass(frozen=True)
class _Branch:
    lo: float
    hi: float
    v_lo: float
    v_hi: float

    @property
    def increasing(self) -> bool:
        return self.v_hi >= self.v_lo

    @property
    def image(self) -> tuple[float, float]:
        return (min(self.v_lo, self.v_hi), max(self.v_lo, self.v_hi))


def _monotone_branches(mu: float, m: int) -> list[_Branch]:
    cuts = [0.0] + _critical_points(mu, m) + [1.0]
    return [
        _Branch(a, b, _logistic_orbit_value(mu, a, m), _logistic_orbit_value(mu, b, m))
        for a, b in zip(cuts[:-1], cuts[1:])
    ]


def _branch_preimage(mu: float, m: int, br: _Branch, target: float) -> float:
    """The unique x in the branch with f^m(x) = target, by bisection."""
    a, b = br.lo, br.hi
    va = _logistic_orbit_value(mu, a, m)
    if va == target:
        return a
    for _ in range(200):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            break
        vm = _logistic_orbit_value(mu, mid, m)
        if (vm < target) == (br.increasing):
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def _nudge_outward(mu: float, m: int, x: float, limit: float, toward: float,
                   target: float, below: bool) -> float | None:
    """Move x by ulps toward `toward`, never past `limit`, until f^m(x) is
    at or below `target` (`below`), or at or above it; None if it is not
    within 64 ulps.

    The comparison is exact (rational), not floating point; see
    _exact_orbit_value for why.
    """
    t = Fraction(target)
    for _ in range(64):
        v = _exact_orbit_value(mu, x, m)
        if (v <= t) if below else (v >= t):
            return x
        nxt = math.nextafter(x, toward)
        if nxt == x or (toward > x and nxt > limit) or (toward < x and nxt < limit):
            return None
        x = nxt
    return None


@dataclass(frozen=True)
class CoveringIntervals:
    """Two disjoint intervals whose f^m-images each cover their joint hull."""

    mu: float
    iterate: int
    i0: tuple[float, float]
    i1: tuple[float, float]
    hull: tuple[float, float]
    verified: bool

    def as_dict(self) -> dict:
        return {
            "mu": self.mu,
            "iterate": self.iterate,
            "i0": list(self.i0),
            "i1": list(self.i1),
            "hull": list(self.hull),
            "verified": self.verified,
        }


def _interval_on_branch(mu: float, m: int, br: _Branch,
                        h_lo: float, h_hi: float) -> tuple[float, float] | None:
    """Subinterval of the branch mapping exactly onto [h_lo, h_hi].

    Its left end u maps to h_lo on an increasing branch and to h_hi on a
    decreasing one, its right end v to the other hull end; each is nudged
    outward until its exact image reaches its end.
    """
    to_u, to_v = (h_lo, h_hi) if br.increasing else (h_hi, h_lo)
    u = _nudge_outward(mu, m, _branch_preimage(mu, m, br, to_u), br.lo, br.lo - 1.0,
                       to_u, below=br.increasing)
    v = _nudge_outward(mu, m, _branch_preimage(mu, m, br, to_v), br.hi, br.hi + 1.0,
                       to_v, below=not br.increasing)
    if u is None or v is None or not u < v:
        return None
    return (u, v)


def verify_covering(mu: float, cert: CoveringIntervals) -> bool:
    """Exact check of every claim in the certificate.

    The intervals must be disjoint and ordered inside the hull, and on each
    interval one endpoint image must lie at or below the hull's low end and
    the other at or above its high end.  f^m is continuous, so by the
    intermediate value theorem the image of the interval then covers the
    hull, whatever f^m does in between.  The endpoint images are decided in
    exact rational arithmetic; there is no tolerance.
    """
    (u0, v0), (u1, v1) = cert.i0, cert.i1
    h_lo, h_hi = cert.hull
    if not (h_lo <= u0 < v0 < u1 < v1 <= h_hi):
        return False
    m = cert.iterate
    for (u, v) in (cert.i0, cert.i1):
        eu, ev = _exact_orbit_value(mu, u, m), _exact_orbit_value(mu, v, m)
        if not (min(eu, ev) <= Fraction(h_lo) and max(eu, ev) >= Fraction(h_hi)):
            return False
    return True


def find_covering_pair(mu: float, m: int) -> CoveringIntervals | None:
    """First disjoint covering pair among the monotone branches of f^m.

    Branch pairs are scanned left to right; for each pair the candidate
    hull is the hull of the two branch domains, and the intervals are the
    branch preimages of that hull (nudged outward by ulps so the endpoint
    inequalities hold in floating point, not just in exact arithmetic).
    Raises ValueError unless mu is finite and positive.
    """
    if not 0.0 < mu < math.inf:
        raise ValueError(f"mu must be a finite positive number, got {mu!r}")
    if m < 1:
        raise ValueError("iterate must be at least 1")
    branches = _monotone_branches(mu, m)
    for i in range(len(branches)):
        for j in range(i + 1, len(branches)):
            bi, bj = branches[i], branches[j]
            h_lo, h_hi = bi.lo, bj.hi
            if not (bi.image[0] <= h_lo and bi.image[1] >= h_hi):
                continue
            if not (bj.image[0] <= h_lo and bj.image[1] >= h_hi):
                continue
            i0 = _interval_on_branch(mu, m, bi, h_lo, h_hi)
            i1 = _interval_on_branch(mu, m, bj, h_lo, h_hi)
            if i0 is None or i1 is None or not i0[1] < i1[0]:
                continue
            cert = CoveringIntervals(
                mu=mu, iterate=m, i0=i0, i1=i1, hull=(h_lo, h_hi), verified=False,
            )
            return replace(cert, verified=verify_covering(mu, cert))
    return None


@dataclass(frozen=True)
class LogisticSapReport:
    """Covering-interval findings for the first and second iterates."""

    mu: float
    first: CoveringIntervals | None
    second: CoveringIntervals | None

    def as_dict(self) -> dict:
        return {
            "kind": "logistic-covering-demo",
            "mu": self.mu,
            "first_iterate": self.first.as_dict() if self.first else None,
            "second_iterate": self.second.as_dict() if self.second else None,
        }


def logistic_sap_demo(mu: float) -> LogisticSapReport:
    """Covering-interval scan of the logistic map at both low iterates.

    The first iterate admits a pair only when the hump exits the unit
    interval (mu > 4); the second iterate already admits one well below
    that, which is the one-dimensional prototype of certifying chaos for
    a map composed with itself.  Absence is a valid (negative) report.
    Raises ValueError, through ``find_covering_pair``, unless mu is finite
    and positive.
    """
    return LogisticSapReport(
        mu=mu,
        first=find_covering_pair(mu, 1),
        second=find_covering_pair(mu, 2),
    )
