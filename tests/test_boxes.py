import math

import pytest
from hypothesis import example, given, strategies as st

from triopoly import Box, InvalidBoxError, OrientedBox
from triopoly.boxes import HalfBoxes
from triopoly.presets import PAPER_BOX, get_preset, make_raw_box


def test_box_invariants():
    with pytest.raises(InvalidBoxError):
        Box(x_l=0.5, x_r=0.5, y_l=0.3, y_r=0.4, z_l=0.0, z_r=0.1)
    with pytest.raises(InvalidBoxError):
        Box(x_l=0.6, x_r=0.5, y_l=0.3, y_r=0.4, z_l=0.0, z_r=0.1)
    with pytest.raises(InvalidBoxError):
        Box(x_l=0.5, x_r=0.6, y_l=0.3, y_r=0.4, z_l=0.2, z_r=0.1)
    with pytest.raises(InvalidBoxError):
        Box(x_l=0.5, x_r=float("inf"), y_l=0.3, y_r=0.4, z_l=0.0, z_r=0.1)


def test_raw_preset_fails_box_invariant():
    """The uncorrected published bounds drop a leading digit in y_r, which
    makes y_l > y_r; constructing that box must be a hard error."""
    with pytest.raises(InvalidBoxError):
        make_raw_box()


def test_presets():
    assert get_preset("paper")[1] == PAPER_BOX
    with pytest.raises(ValueError):
        get_preset("nonsense")


def test_box_helpers():
    b = PAPER_BOX
    assert b.z_mid == 0.5 * (b.z_l + b.z_r)
    assert b.bounds(0) == (b.x_l, b.x_r)
    assert b.contains(b.x_l, b.y_l, b.z_l)
    assert not b.contains(b.x_l - 1e-6, b.y_l, b.z_l)
    assert b.contains(b.x_l - 1e-6, b.y_l, b.z_l, slack=1e-5)
    assert len(b.corners()) == 8
    nb = b.replace(z_r=0.38)
    assert nb.z_r == 0.38 and nb.x_l == b.x_l


def test_oriented_box_faces():
    ob = OrientedBox(PAPER_BOX)
    lo, hi = ob.face_values()
    assert (lo, hi) == (PAPER_BOX.z_l, PAPER_BOX.z_r)
    assert ob.on_left_face((0.6, 0.4, PAPER_BOX.z_l))
    assert ob.on_right_face((0.6, 0.4, PAPER_BOX.z_r))
    assert not ob.on_left_face((0.6, 0.4, PAPER_BOX.z_mid))


def test_half_boxes_partition_and_symbols():
    hb = HalfBoxes.from_oriented(OrientedBox(PAPER_BOX))
    assert hb.lower.z_l == PAPER_BOX.z_l
    assert hb.lower.z_r == hb.upper.z_l == PAPER_BOX.z_mid
    assert hb.upper.z_r == PAPER_BOX.z_r
    assert hb.symbol_of((0.6, 0.4, 0.01)) == (0, False)
    assert hb.symbol_of((0.6, 0.4, 0.39)) == (1, False)
    sym, tie = hb.symbol_of((0.6, 0.4, PAPER_BOX.z_mid))
    assert sym == 1 and tie


coord = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


@given(coord, coord, coord, coord, coord, coord)
# one subnormal apart: no float strictly between the z bounds, so no midplane
@example(0.0, 1.0, 0.0, 1.0, 0.0, 5e-324)
# two subnormals apart: splittable, into halves with no float inside
@example(0.0, 1.0, 0.0, 1.0, 0.0, 1e-323)
def test_box_contains_its_corners(a, b, c, d, e, f):
    xs, ys, zs = sorted((a, b)), sorted((c, d)), sorted((e, f))
    if (xs[0] == xs[1] or ys[0] == ys[1]
            or not zs[0] < 0.5 * (zs[0] + zs[1]) < zs[1]):
        with pytest.raises(InvalidBoxError):
            Box(xs[0], xs[1], ys[0], ys[1], zs[0], zs[1])
        return
    box = Box(xs[0], xs[1], ys[0], ys[1], zs[0], zs[1])
    for corner in box.corners():
        assert box.contains(*corner)
    hb = HalfBoxes.from_oriented(OrientedBox(box))
    assert hb.lower.z_r == hb.upper.z_l == box.z_mid
    # every point of the box lands in exactly one closed half, with the
    # shared midplane assigned to the upper symbol
    sym, tie = hb.symbol_of((box.x_l, box.y_l, box.z_mid))
    assert sym == 1 and tie


def test_too_thin_z_extent_is_named():
    with pytest.raises(InvalidBoxError, match="too thin to split at its midplane"):
        Box(0.0, 1.0, 0.0, 1.0, 0.0, 5e-324)
    with pytest.raises(InvalidBoxError, match="too thin"):
        Box(0.0, 1.0, 0.0, 1.0, 1.0, math.nextafter(1.0, 2.0))
