"""Axis-aligned candidate boxes and their oriented/half-box views.

A Box is the closed parallelepiped [x_l,x_r] x [y_l,y_r] x [z_l,z_r].  The
certificate geometry orients it along z, and only along z, the folding
direction of the map: the bottom face z = z_l and top face z = z_r are the
"exit" faces the image must be pushed through, and the midplane
z = (z_l+z_r)/2 splits it into the two half-boxes that carry the two
symbols.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

__all__ = ["InvalidBoxError", "Box", "OrientedBox", "HalfBoxes"]


class InvalidBoxError(ValueError):
    """Box bounds violate the strict ordering invariants."""


@dataclass(frozen=True)
class Box:
    x_l: float
    x_r: float
    y_l: float
    y_r: float
    z_l: float
    z_r: float

    def __post_init__(self) -> None:
        for f in ("x_l", "x_r", "y_l", "y_r", "z_l", "z_r"):
            v = getattr(self, f)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise InvalidBoxError(f"bound {f} must be finite, got {v!r}")
            object.__setattr__(self, f, float(v))
        if not (self.x_l < self.x_r):
            raise InvalidBoxError(f"need x_l < x_r, got [{self.x_l}, {self.x_r}]")
        if not (self.y_l < self.y_r):
            raise InvalidBoxError(f"need y_l < y_r, got [{self.y_l}, {self.y_r}]")
        if not (self.z_l < self.z_r):
            raise InvalidBoxError(f"need z_l < z_r, got [{self.z_l}, {self.z_r}]")
        if not (self.z_l < self.z_mid < self.z_r):
            raise InvalidBoxError(
                f"z-extent [{self.z_l}, {self.z_r}] too thin to split at its "
                f"midplane (z_mid = {self.z_mid})")

    # -- geometry helpers -------------------------------------------------

    @property
    def widths(self) -> tuple[float, float, float]:
        return (self.x_r - self.x_l, self.y_r - self.y_l, self.z_r - self.z_l)

    @property
    def z_mid(self) -> float:
        return 0.5 * (self.z_l + self.z_r)

    def bounds(self, axis: int) -> tuple[float, float]:
        lo = (self.x_l, self.y_l, self.z_l)[axis]
        hi = (self.x_r, self.y_r, self.z_r)[axis]
        return lo, hi

    def contains(self, x: float, y: float, z: float, slack: float = 0.0) -> bool:
        return (
            self.x_l - slack <= x <= self.x_r + slack
            and self.y_l - slack <= y <= self.y_r + slack
            and self.z_l - slack <= z <= self.z_r + slack
        )

    def corners(self) -> list[tuple[float, float, float]]:
        return [
            (x, y, z)
            for x in (self.x_l, self.x_r)
            for y in (self.y_l, self.y_r)
            for z in (self.z_l, self.z_r)
        ]

    def replace(self, **kw) -> "Box":
        vals = self.as_dict()
        vals.update(kw)
        return Box(**vals)

    def as_dict(self) -> dict:
        return {
            "x_l": self.x_l,
            "x_r": self.x_r,
            "y_l": self.y_l,
            "y_r": self.y_r,
            "z_l": self.z_l,
            "z_r": self.z_r,
        }

    def as_tuple(self) -> tuple[float, ...]:
        return (self.x_l, self.x_r, self.y_l, self.y_r, self.z_l, self.z_r)


@dataclass(frozen=True)
class OrientedBox:
    """A Box oriented along z: bottom (left) face z_l, top (right) face z_r.

    ``axis`` names the orientation and must be 2 (z), the folding
    direction of the map; the stretching certificate has no other
    geometry.
    """

    box: Box
    axis: int = 2

    def __post_init__(self) -> None:
        if self.axis != 2:
            raise ValueError(
                f"boxes are oriented along z (axis 2), the folding direction "
                f"of the map; got axis {self.axis!r}"
            )

    def face_values(self) -> tuple[float, float]:
        """z of the left (bottom) and right (top) faces."""
        return self.box.z_l, self.box.z_r

    def on_left_face(self, pt, tol: float = 0.0) -> bool:
        return abs(pt[2] - self.box.z_l) <= tol and self.box.contains(*pt, slack=tol)

    def on_right_face(self, pt, tol: float = 0.0) -> bool:
        return abs(pt[2] - self.box.z_r) <= tol and self.box.contains(*pt, slack=tol)


@dataclass(frozen=True)
class HalfBoxes:
    """The two symbol-carrying halves split at the midplane z = mid."""

    lower: Box  # symbol 0
    upper: Box  # symbol 1
    mid: float

    @classmethod
    def from_oriented(cls, ob: OrientedBox) -> "HalfBoxes":
        b = ob.box
        mid = b.z_mid
        return cls(lower=_half(b, b.z_l, mid), upper=_half(b, mid, b.z_r), mid=mid)

    def half(self, index: int) -> Box:
        if index == 0:
            return self.lower
        if index == 1:
            return self.upper
        raise ValueError(f"half index must be 0 or 1, got {index}")

    def symbol_of(self, pt) -> tuple[int, bool]:
        """Symbol of a point already known to lie in the box.

        Returns (symbol, tie): a point exactly on the midplane is assigned
        symbol 1 and flagged as a tie.
        """
        z = pt[2]
        if z < self.mid:
            return 0, False
        if z > self.mid:
            return 1, False
        return 1, True


def _half(b: Box, z_l: float, z_r: float) -> Box:
    """The part of the valid box b with z in [z_l, z_r], one of its halves.

    Its bounds are ordered because b splits at its midplane; it is not
    held to that rule itself, since a half is never split again and the
    halves of a box a few floats thick have no float strictly inside.
    """
    half = copy.copy(b)
    object.__setattr__(half, "z_l", z_l)
    object.__setattr__(half, "z_r", z_r)
    return half
