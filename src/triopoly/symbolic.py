"""Finite-depth symbolic dynamics over the two half-boxes.

Symbols come from half-box membership (0 below the midplane, 1 above),
which agrees with the K-set coding on the invariant set since K_i sits
inside R_i.  Midplane ties get symbol 1 and an explicit flag; certified
configurations have no invariant points on the midplane, so a tie always
means the point is not shadowing the invariant set at that depth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .boxes import HalfBoxes, OrientedBox
from .certificate import Certificate
from .core import (
    DomainError, Params, State, eval_jacobian, eval_map_arrays, eval_map_xyz, fixed_points,
)
from .horseshoe import _require_certified, build_K_enclosures
from .jsonio import write_csv

__all__ = [
    "Itinerary",
    "PeriodicOrbitResult",
    "itinerary",
    "find_periodic_orbit",
    "count_periodic_words",
    "entropy_lower_bound",
    "normalize_word",
]

MAX_WORD_LENGTH = 6


def normalize_word(w) -> str:
    """Accepts '0110', (0,1,1,0) or [0,1,1,0]; returns the string form."""
    if isinstance(w, str):
        s = w
    else:
        s = "".join(str(int(c)) for c in w)
    if not s or any(ch not in "01" for ch in s):
        raise ValueError(f"symbol word must be a nonempty string over 0/1, got {w!r}")
    return s


@dataclass(frozen=True)
class Itinerary:
    start: State
    horizon: int
    symbols: tuple[int, ...]
    exit_step: int | None = None
    ties: tuple[int, ...] = ()

    @property
    def exited(self) -> bool:
        return self.exit_step is not None

    def word(self) -> str:
        return "".join(str(s) for s in self.symbols)


def itinerary(p: Params, ob: OrientedBox, s0: State, n: int) -> Itinerary:
    """Half-box symbol sequence of the orbit of s0, up to horizon n.

    Stops early (with exit_step set to the offending iterate index) when
    the orbit leaves the box; points of the invariant set never do.
    """
    if n < 1:
        raise ValueError("horizon must be >= 1")
    b = ob.box
    if not b.contains(s0.x, s0.y, s0.z):
        raise ValueError(f"initial state {s0.as_tuple()} is outside the box")
    halves = HalfBoxes.from_oriented(ob)
    symbols: list[int] = []
    ties: list[int] = []
    cur = s0.as_tuple()
    exit_step = None
    for step in range(n):
        sym, tie = halves.symbol_of(cur)
        symbols.append(sym)
        if tie:
            ties.append(step)
        if step == n - 1:
            break
        try:
            nxt = eval_map_xyz(p, *cur)
        except DomainError as e:
            raise DomainError(f"orbit left the map domain at step {step + 1}: {e}")
        if not b.contains(*nxt):
            exit_step = step + 1
            break
        cur = nxt
    return Itinerary(
        start=s0,
        horizon=n,
        symbols=tuple(symbols),
        exit_step=exit_step,
        ties=tuple(ties),
    )


@dataclass
class PeriodicOrbitResult:
    word: str
    point: State | None
    residual: float
    realized: str
    converged: bool
    note: str = ""

    def as_row(self) -> list:
        pt = self.point.as_tuple() if self.point else (math.nan,) * 3
        return [self.word, *[f"{v:.17g}" for v in pt],
                f"{self.residual:.17g}", self.converged, self.realized]


def _iterate_k(p: Params, s: np.ndarray, k: int):
    """F^k(s) and the chain-rule Jacobian of F^k at s."""
    jac = np.eye(3)
    cur = s.copy()
    for _ in range(k):
        st = State(cur[0], cur[1], cur[2])
        jac = eval_jacobian(p, st) @ jac
        cur = np.array(eval_map_xyz(p, *cur))
    return cur, jac


def _newton_periodic(p: Params, start: np.ndarray, k: int, tol: float,
                     max_iter: int = 80) -> tuple[np.ndarray | None, float]:
    s = start.copy()
    eye = np.eye(3)
    best = math.inf
    best_s = None
    for _ in range(max_iter):
        try:
            fk, jac = _iterate_k(p, s, k)
        except DomainError:
            break
        r = fk - s
        res = float(np.max(np.abs(r)))
        if res < best:
            best, best_s = res, s.copy()
        if res < 1e-13:
            return s, res
        a = jac - eye
        try:
            step = np.linalg.solve(a, -r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(a, -r, rcond=None)
        nrm = float(np.max(np.abs(step)))
        if nrm > 0.1:
            step *= 0.1 / nrm
        s = s + step
    if best_s is not None and best < tol:
        return best_s, best
    return None, best


def _itinerary_codes(p: Params, b, pts, k: int) -> np.ndarray:
    """k-step half-box itineraries of the rows of ``pts``, all at once.

    Each itinerary is a k-bit integer, first symbol most significant
    (``format(code, f"0{k}b")`` is the word); -1 marks a point whose orbit
    leaves the box within k symbols, or the map domain within k steps.
    Symbols follow ``HalfBoxes.symbol_of``: z at or above the midplane is 1.
    """
    x, y, z = np.array(pts, dtype=float).reshape(-1, 3).T.copy()
    codes = np.zeros(x.size, dtype=np.int64)
    alive = np.ones(x.size, dtype=bool)
    for _ in range(k):
        alive &= ((b.x_l <= x) & (x <= b.x_r) & (b.y_l <= y) & (y <= b.y_r)
                  & (b.z_l <= z) & (z <= b.z_r))
        codes = 2 * codes + (z >= b.z_mid)
        alive &= (x + z > 0.0) & (x + y + z > 0.0)
        i = np.flatnonzero(alive)
        x[i], y[i], z[i] = eval_map_arrays(p, x[i], y[i], z[i])
    return np.where(alive, codes, -1)


def find_periodic_orbit(
    p: Params,
    ob: OrientedBox,
    w,
    tol: float = 1e-10,
    resolution: int = 16,
    cert: Certificate | None = None,
) -> PeriodicOrbitResult:
    """Periodic point realizing the symbol word w, by multi-start Newton.

    Starts are centres of the K-cover cells (for the first symbol of w)
    whose forward grid itineraries match w; Newton then solves F^k(s) = s
    with the analytic Jacobian chained over the k steps.  On success the
    realized itinerary equals w exactly (the orbit is rotated into phase if
    Newton lands on a cyclic shift).
    """
    word = normalize_word(w)
    k = len(word)
    if tol <= 0:
        raise ValueError("tol must be positive")
    cert = _require_certified(p, ob.box, cert)
    b = ob.box
    covers = build_K_enclosures(p, ob, resolution, cert=cert)
    cover = covers[int(word[0])]
    centres = 0.5 * (cover.cells[:, 0::2] + cover.cells[:, 1::2])

    target = int(word, 2)
    matching = centres[_itinerary_codes(p, b, centres, k) == target]
    # coarse grids can miss deep words entirely; fall back to every start
    starts = list(matching) if matching.size else list(centres)
    # the map's fixed points are period-k points for every k and the only
    # representatives of the constant words; Newton from cover centres can
    # drain into a neighbouring orbit instead, so seed them explicitly
    for fp in fixed_points(p):
        t = fp.as_tuple()
        if b.contains(*t):
            starts.append(np.asarray(t, dtype=float))

    best_res = math.inf
    best_point = None
    for c in starts:
        s, res = _newton_periodic(p, np.asarray(c, dtype=float), k, tol)
        if s is None:
            best_res = min(best_res, res)
            continue
        if res < best_res:
            best_res, best_point = res, s
        if res >= tol:
            continue
        if abs(s[2] - b.z_l) < 1e-13:
            # the bottom plane is exactly invariant; land on it exactly so
            # closed-box membership of the orbit is unambiguous
            snapped = np.array([s[0], s[1], b.z_l])
            res_snap = float(np.max(np.abs(_iterate_k(p, snapped, k)[0] - snapped)))
            if res_snap < tol:
                s, res = snapped, res_snap
        # rotate to the phase whose itinerary matches w exactly
        orbit = [s]
        for _ in range(k - 1):
            orbit.append(np.array(eval_map_xyz(p, *orbit[-1])))
        in_phase = _itinerary_codes(p, b, orbit, k) == target
        for pt in (orbit[j] for j in np.flatnonzero(in_phase)):
            res_j = float(np.max(np.abs(_iterate_k(p, np.asarray(pt), k)[0] - pt)))
            if res_j < tol:
                return PeriodicOrbitResult(
                    word=word,
                    point=State(*pt),
                    residual=res_j,
                    realized=word,
                    converged=True,
                )
    pt = State(*best_point) if best_point is not None else None
    realized = ""
    if pt is not None:
        code = int(_itinerary_codes(p, b, [pt.as_tuple()], k)[0])
        realized = format(code, f"0{k}b") if code >= 0 else ""
    return PeriodicOrbitResult(
        word=word,
        point=pt,
        residual=best_res,
        realized=realized,
        converged=False,
        note="Newton did not reach the requested tolerance from any start; "
             "existence is certificate-guaranteed, so this is a numerics "
             "failure worth investigating",
    )


def count_periodic_words(
    p: Params,
    ob: OrientedBox,
    k: int,
    tol: float = 1e-10,
    dedupe_cyclic: bool = False,
    cert: Certificate | None = None,
) -> list[PeriodicOrbitResult]:
    """Solve for every length-k word; optionally one orbit per cyclic class."""
    if not 1 <= k <= MAX_WORD_LENGTH:
        raise ValueError(f"word length must be in 1..{MAX_WORD_LENGTH}, got {k}")
    cert = _require_certified(p, ob.box, cert)
    seen_classes: set[str] = set()
    results = []
    for bits in range(2 ** k):
        word = format(bits, f"0{k}b")
        if dedupe_cyclic:
            cls = min(word[i:] + word[:i] for i in range(k))
            if cls in seen_classes:
                continue
            seen_classes.add(cls)
        results.append(find_periodic_orbit(p, ob, word, tol=tol, cert=cert))
    return results


def orbits_to_csv(results: list[PeriodicOrbitResult], path_or_file) -> None:
    """Write one row per word; path_or_file is a filename or open text file."""
    write_csv(path_or_file, ["word", "x", "y", "z", "residual", "converged", "realized"],
              (r.as_row() for r in results))


def entropy_lower_bound(certified: bool, m: int = 2) -> float:
    """Certified topological-entropy lower bound: log m, else no claim."""
    if m < 2:
        raise ValueError("need at least two symbols for a positive bound")
    return math.log(m) if certified else 0.0
