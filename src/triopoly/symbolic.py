"""Finite-depth symbolic dynamics over the two half-boxes.

Symbols come from half-box membership (0 below the midplane, 1 above),
which agrees with the K-set coding on the invariant set since K_i sits
inside R_i.  Midplane ties get symbol 1 and an explicit flag; certified
configurations have no invariant points on the midplane, so a tie always
means the point is not shadowing the invariant set at that depth.

Periodic words are the numerical witnesses of the certificate's claim
that a periodic point lies behind every periodic symbol sequence.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import HalfBoxes, OrientedBox
from .certificate import Certificate
from .core import (
    DomainError, Params, State, eval_jacobian, eval_map_arrays, eval_map_xyz,
    fixed_point_residual,
)
from .horseshoe import ConvergenceError, _require_certified, locate_fixed_point_in
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


def _shoot(p: Params, halves: HalfBoxes, word: str) -> np.ndarray | None:
    """Multiple-shooting Newton for a periodic orbit with itinerary ``word``.

    Solves G(s_0, ..., s_{k-1}) = (F(s_i) - s_{i+1 mod k})_i = 0 from node i
    at the centre of half ``word[i]``.  The Jacobian of G has the blocks
    DF(s_i) on its diagonal and -I on its cyclic superdiagonal, so F^k is
    never chained (Galias & Zgliczynski, Physica D 115, 1998).  Returns s_0,
    or None when an iterate leaves the map domain or the system is singular.
    """
    k = len(word)
    s = np.array([[0.5 * (lo + hi) for lo, hi in map(halves.half(int(c)).bounds, range(3))]
                  for c in word])
    superdiagonal = -np.kron(np.roll(np.eye(k), 1, axis=1), np.eye(3))
    for _ in range(80):
        try:
            g = np.column_stack(eval_map_arrays(p, *s.T)) - np.roll(s, -1, axis=0)
            if np.max(np.abs(g)) < 1e-13:
                break
            jac = superdiagonal.copy()
            for i, si in enumerate(s):
                jac[3 * i:3 * i + 3, 3 * i:3 * i + 3] += eval_jacobian(p, State(*si))
            step = np.linalg.solve(jac, -g.ravel()).reshape(k, 3)
        except (DomainError, np.linalg.LinAlgError):
            return None
        nrm = float(np.max(np.abs(step)))
        if nrm > 0.1:
            step *= 0.1 / nrm
        s = s + step
    return s[0]


def _return_residual(p: Params, s: State, k: int) -> float:
    """max|F^k(s) - s|; inf when the orbit leaves the map domain."""
    cur = s.as_tuple()
    try:
        for _ in range(k):
            cur = eval_map_xyz(p, *cur)
    except DomainError:
        return math.inf
    return max(abs(a - b) for a, b in zip(cur, s.as_tuple()))


def find_periodic_orbit(
    p: Params,
    ob: OrientedBox,
    w,
    tol: float = 1e-10,
    cert: Certificate | None = None,
) -> PeriodicOrbitResult:
    """Periodic point realizing the symbol word w.

    A constant word is realized by the closed-form fixed point of its half
    (``horseshoe.locate_fixed_point_in``).  Every other word is solved by
    one multiple-shooting Newton (``_shoot``) seeded at the centres of the
    halves the word names.  ``residual`` is max|F^k(s) - s| at the returned
    point s and ``realized`` its k-step itinerary; the word is converged when
    the residual is below ``tol`` and the itinerary equals the word.
    """
    word = normalize_word(w)
    k = len(word)
    if tol <= 0:
        raise ValueError("tol must be positive")
    cert = _require_certified(p, ob.box, cert)
    if word == word[0] * k:
        try:
            pt = locate_fixed_point_in(p, ob, int(word[0]), tol, cert)
            residual = fixed_point_residual(p, pt)
        except ConvergenceError as exc:
            pt, residual = None, exc.best_residual
    else:
        s0 = _shoot(p, HalfBoxes.from_oriented(ob), word)
        pt = None if s0 is None else State(*s0)
        residual = math.inf if pt is None else _return_residual(p, pt, k)
    realized = ""
    if pt is not None:
        code = int(_itinerary_codes(p, ob.box, [pt.as_tuple()], k)[0])
        realized = format(code, f"0{k}b") if code >= 0 else ""
    converged = residual < tol and realized == word
    return PeriodicOrbitResult(
        word=word,
        point=pt,
        residual=residual,
        realized=realized,
        converged=converged,
        note="" if converged else "no point with this itinerary met tol; the "
             "certificate guarantees one, so this is a numerics failure",
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
