"""Finite-depth symbolic dynamics over the two half-boxes.

Symbols come from half-box membership (0 below the midplane, 1 above),
which agrees with the K-set coding on the invariant set since K_i sits
inside R_i.  Midplane ties get symbol 1 and an explicit flag; certified
configurations have no invariant points on the midplane, so a tie always
means the point is not shadowing the invariant set at that depth.

Periodic words are the numerical witnesses of the certificate's claim
that a periodic point lies behind every periodic symbol sequence.  All
the words of one length are solved together by one lockstep
multiple-shooting Newton; each word keeps its own stop rule, so it gets
the bits of a solve of its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boxes import HalfBoxes, OrientedBox
from .certificate import Certificate
from .core import (
    DomainError, Params, State, _jacobian_from_sums, _jacobian_off, _map_from_sums, _map_off,
    _own_rate, _sums, _with_jacobian_sums, eval_map_xyz, fixed_point_residual,
)
from .dynamics import _keep
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
    return Itinerary(symbols=tuple(symbols), exit_step=exit_step, ties=tuple(ties))


@dataclass
class PeriodicOrbitResult:
    word: str
    point: State | None
    residual: float
    realized: str
    converged: bool

    def as_row(self) -> list:
        pt = self.point.as_tuple() if self.point else (math.nan,) * 3
        return [self.word, *[f"{v:.17g}" for v in pt],
                f"{self.residual:.17g}", self.converged, self.realized]


def _shoot(p: Params, halves: HalfBoxes, words: list[str]) -> np.ndarray:
    """Multiple-shooting Newton for periodic orbits with the itineraries
    ``words``, all of one length k, solved in lockstep.

    Each word solves G(s_0, ..., s_{k-1}) = (F(s_i) - s_{i+1 mod k})_i = 0
    from node i at the centre of half ``word[i]``.  The Jacobian of G has
    the blocks DF(s_i) on its diagonal and -I on its cyclic superdiagonal,
    so F^k is never chained (Galias & Zgliczynski, Physica D 115, 1998).
    One Newton step forms the shared sums once for both domain masks, the
    map and the Jacobian blocks, and makes one stacked solve for every
    live word, yet each word keeps its own stop (max|G| < 1e-13), step
    clamp (0.1) and cap (80 steps) and gets the bits it would get alone.
    Returns s_0 of each word as a row of an (n, 3) array; the row is NaN
    when an iterate leaves the map domain or the word's system is singular.
    """
    centres = np.array([[0.5 * (lo + hi) for lo, hi in map(halves.half(i).bounds, range(3))]
                        for i in (0, 1)])
    s = centres[[[int(c) for c in w] for w in words]].reshape(len(words), -1, 3)
    k = s.shape[1]
    out = np.full((len(words), 3), np.nan)
    rows = np.arange(len(words))
    superdiagonal = -np.kron(np.roll(np.eye(k), 1, axis=1), np.eye(3))
    own = _own_rate(p, p.alpha)
    for _ in range(80):
        x, y, z = np.moveaxis(s, 2, 0)
        sums = _with_jacobian_sums(p, _sums(p, p.alpha, x, y, z))
        ok = ~_map_off(sums).any(axis=1)
        if not ok.all():
            rows, s, x, y, z, *sums = _keep(ok, rows, s, x, y, z, *sums)
        f = _map_from_sums(p, own, x, y, z, sums, np.sqrt)
        g = np.stack(f, axis=2) - np.roll(s, -1, axis=1)
        done = np.abs(g).max(axis=(1, 2)) < 1e-13
        out[rows[done]] = s[done, 0]
        ok = ~done & ~_jacobian_off(sums).any(axis=1)
        if not ok.all():
            rows, s, g, z, *sums = _keep(ok, rows, s, g, z, *sums)
        if not rows.size:
            break
        jac = np.tile(superdiagonal, (rows.size, 1, 1))
        j11, j12, j21, j31, j33 = _jacobian_from_sums(p, p.alpha, own, z, sums, np.sqrt)
        blocks = np.stack((j11, j12, j12, j21, np.zeros_like(j21), j21, j31, j31, j33),
                          axis=2).reshape(-1, k, 3, 3)
        for i in range(k):
            jac[:, 3 * i:3 * i + 3, 3 * i:3 * i + 3] += blocks[:, i]
        rhs = -g.reshape(-1, 3 * k, 1)
        try:
            step = np.linalg.solve(jac, rhs)
        except np.linalg.LinAlgError:
            # some word's system is singular: solve the words one by one
            # and drop only the singular ones
            step = np.empty_like(rhs)
            ok = np.ones(rows.size, dtype=bool)
            for i in range(rows.size):
                try:
                    step[i] = np.linalg.solve(jac[i], rhs[i])
                except np.linalg.LinAlgError:
                    ok[i] = False
            rows, s, step = _keep(ok, rows, s, step)
        step = step.reshape(-1, k, 3)
        nrm = np.abs(step).max(axis=(1, 2))
        big = nrm > 0.1
        step[big] *= (0.1 / nrm[big])[:, None, None]
        s = s + step
    out[rows] = s[:, 0]
    return out


def _check_orbits(p: Params, b, pts, k: int) -> tuple[np.ndarray, np.ndarray]:
    """max|F^k(s) - s| and the k-step half-box itinerary of each row s of
    ``pts``, from one pass of F^k over all of them.

    Each itinerary is a k-bit integer, first symbol most significant
    (``format(code, f"0{k}b")`` is the word), and symbols follow
    ``HalfBoxes.symbol_of``: z at or above the midplane is 1.  An orbit
    that leaves the map domain within k steps (``core._map_off``, from
    the sums each step shares with the map) has residual inf and code -1;
    one that leaves the box within k symbols has code -1.
    """
    pts = np.asarray(pts, dtype=float).reshape(-1, 3)
    x, y, z = pts.T.copy()
    codes = np.zeros(len(pts), dtype=np.int64)
    inside = np.ones(len(pts), dtype=bool)
    defined = inside.copy()
    own = _own_rate(p, p.alpha)
    for _ in range(k):
        inside &= ((b.x_l <= x) & (x <= b.x_r) & (b.y_l <= y) & (y <= b.y_r)
                   & (b.z_l <= z) & (z <= b.z_r))
        codes = 2 * codes + (z >= b.z_mid)
        sums = _sums(p, p.alpha, x, y, z)
        defined &= ~_map_off(sums)
        i = np.flatnonzero(defined)
        x[i], y[i], z[i] = _map_from_sums(p, own, x[i], y[i], z[i], _keep(defined, *sums),
                                          np.sqrt)
    gap = np.abs(np.column_stack((x, y, z)) - pts).max(axis=1)
    return np.where(defined, gap, math.inf), np.where(inside & defined, codes, -1)


def _realize_words(p: Params, ob: OrientedBox, words: list[str], tol: float,
                   cert: Certificate) -> list[PeriodicOrbitResult]:
    """``find_periodic_orbit`` for each of ``words``, all of one length k.

    ``tol`` must be positive.  A constant word is realized by the
    closed-form fixed point of its half (``horseshoe.locate_fixed_point_in``);
    all the others are solved together by one lockstep ``_shoot``.  One
    ``_check_orbits`` pass then gives every point's itinerary and, for the
    solved words, the residual.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    k = len(words[0])
    pts = np.full((len(words), 3), np.nan)
    fixed = {}      # fixed_point_residual of each constant word's point
    shot = [i for i, w in enumerate(words) if w != w[0] * k]
    if shot:
        pts[shot] = _shoot(p, HalfBoxes.from_oriented(ob), [words[i] for i in shot])
    for i, w in enumerate(words):
        if w == w[0] * k:
            try:
                pt = locate_fixed_point_in(p, ob, int(w[0]), tol, cert)
                pts[i], fixed[i] = pt.as_tuple(), fixed_point_residual(p, pt)
            except ConvergenceError as exc:
                fixed[i] = exc.best_residual
    found = ~np.isnan(pts).any(axis=1)
    residual, codes = np.full(len(words), math.inf), np.full(len(words), -1)
    residual[found], codes[found] = _check_orbits(p, ob.box, pts[found], k)
    residual[list(fixed)] = list(fixed.values())
    results = []
    for w, pt, r, code, ok in zip(words, pts, residual.tolist(), codes.tolist(), found):
        realized = format(code, f"0{k}b") if code >= 0 else ""
        results.append(PeriodicOrbitResult(
            word=w,
            point=State(*pt) if ok else None,
            residual=r,
            realized=realized,
            converged=r < tol and realized == w,
        ))
    return results


def find_periodic_orbit(
    p: Params,
    ob: OrientedBox,
    w,
    cert: Certificate | None = None,
) -> PeriodicOrbitResult:
    """Periodic point realizing the symbol word w.

    A constant word is realized by the closed-form fixed point of its half
    (``horseshoe.locate_fixed_point_in``).  Every other word is solved by
    multiple-shooting Newton (``_shoot``) seeded at the centres of the
    halves the word names; ``count_periodic_words`` runs the same solve
    over all words of one length in lockstep, each word with its own stop
    rule, so a word gets the same bits either way.  ``residual`` is
    max|F^k(s) - s| at the returned point s and ``realized`` its k-step
    itinerary; the word is converged when the residual is below 1e-10
    and the itinerary equals the word.
    """
    word = normalize_word(w)
    cert = _require_certified(p, ob.box, cert)
    return _realize_words(p, ob, [word], 1e-10, cert)[0]


def count_periodic_words(
    p: Params,
    ob: OrientedBox,
    k: int,
    tol: float = 1e-10,
    dedupe_cyclic: bool = False,
    cert: Certificate | None = None,
) -> list[PeriodicOrbitResult]:
    """Solve for every length-k word, all in one lockstep Newton solve;
    optionally one orbit per cyclic class."""
    if not 1 <= k <= MAX_WORD_LENGTH:
        raise ValueError(f"word length must be in 1..{MAX_WORD_LENGTH}, got {k}")
    cert = _require_certified(p, ob.box, cert)
    words = [format(bits, f"0{k}b") for bits in range(2 ** k)]
    if dedupe_cyclic:
        words = [w for w in words if w == min(w[i:] + w[:i] for i in range(k))]
    return _realize_words(p, ob, words, tol, cert)


def orbits_to_csv(results: list[PeriodicOrbitResult], path_or_file) -> None:
    """Write one row per word; path_or_file is a filename or open text file."""
    write_csv(path_or_file, ["word", "x", "y", "z", "residual", "converged", "realized"],
              (r.as_row() for r in results))


def entropy_lower_bound(certified: bool, m: int = 2) -> float:
    """Certified topological-entropy lower bound: log m, else no claim."""
    if m < 2:
        raise ValueError("need at least two symbols for a positive bound")
    return math.log(m) if certified else 0.0
