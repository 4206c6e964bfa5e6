"""Step times of one pass, scaled to a fixed reference speed.

A shared host changes speed in spells of seconds to minutes (other tenants
on the same cores), and the process cannot see it: its CPU time rises with
wall time.  So every untraced pass runs fixed calibration loops between
its steps, and each step's time is scaled by ``CAL_REF_S`` over the mean of
the calibrations just before and just after it.  A step that takes 1 s
while the calibration takes ``2 * CAL_REF_S`` reads 0.5 s: seconds on a
machine where the calibration takes ``CAL_REF_S``.

The calibration never calls the library, so a change to the program moves
the scaled times exactly as it moves the raw ones.
"""
from __future__ import annotations

import contextlib
import math
import time

import numpy as np

CAL_REF_S = 0.011         # the reference speed: calibrate() takes this long
_SCALAR_STEPS = 4000
_VECTOR = np.linspace(0.0, 1.0, 1 << 15)
_VECTOR_STEPS = 12
_TABLE = np.arange(1 << 20, dtype=np.int64)            # 8 MiB, beyond the L2 cache
_GATHER = np.random.default_rng(0).integers(0, 1 << 20, 1 << 16)
_GATHER_STEPS = 12


def _scalar_loop() -> float:
    """Interpreter work like the scalar interval code: floats, nextafter, dicts."""
    lo, hi, acc, seen = 0.1, 0.2, 0.0, {}
    for i in range(_SCALAR_STEPS):
        a = math.nextafter(lo * 1.0001, -math.inf)
        b = math.nextafter(hi * 0.9999 + 1e-9, math.inf)
        lo, hi = min(a, b), max(a, b)
        acc += math.sqrt(hi - lo + 1.0)
        seen[i & 63] = (lo, hi)
    return acc


def _vector_loop() -> float:
    """Array work like the vectorised interval kernels."""
    x, acc = _VECTOR, 0.0
    for i in range(_VECTOR_STEPS):
        y = np.nextafter(x * 1.0001 + i, np.inf)
        acc += float(np.minimum(y, x).sum())
    return acc


def _gather_loop() -> int:
    """Random reads from a table larger than the core's own caches."""
    return sum(int(_TABLE[_GATHER].sum()) for _ in range(_GATHER_STEPS))


def _best_of_3(fn) -> float:
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def calibrate() -> float:
    """Seconds the fixed calibration loops take now: each one's best of three.

    The three loops take about a third each; together they follow the
    host's slow spells better than any one of them alone.
    """
    return sum(_best_of_3(fn) for fn in (_scalar_loop, _vector_loop, _gather_loop))


class Meter:
    """Times named steps; ``mark()`` calibrates between them.

    With ``calibrated=False`` (traced runs) ``mark`` does nothing and steps
    keep their raw times, so the calibration adds no uncovered time to the
    trace.  Otherwise a pass must ``mark()`` before its first step and
    after its last.
    """

    def __init__(self, calibrated: bool):
        self.calibrated = calibrated
        self.cals: list[float] = []
        self.cal_spent = 0.0          # wall seconds spent calibrating
        self._steps: list[tuple[str, float, int]] = []   # name, raw s, marks before

    def mark(self) -> None:
        if self.calibrated:
            t0 = time.perf_counter()
            self.cals.append(calibrate())
            self.cal_spent += time.perf_counter() - t0

    def add(self, name: str, seconds: float) -> None:
        self._steps.append((name, seconds, len(self.cals)))

    @contextlib.contextmanager
    def step(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def scale(self, marks_before: int) -> float:
        if not self.calibrated:
            return 1.0
        return 2.0 * CAL_REF_S / (self.cals[marks_before - 1] + self.cals[marks_before])

    def items(self, raw: bool = False) -> dict[str, float]:
        """Seconds per step name (summed over repeats), scaled unless ``raw``."""
        out: dict[str, float] = {}
        for name, seconds, marks in self._steps:
            out[name] = out.get(name, 0.0) + seconds * (1.0 if raw else self.scale(marks))
        return out
