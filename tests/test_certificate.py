"""Analytic certification layer.

The expected margins below were recomputed independently at 50-digit
precision from the double parameter values before this module was written,
and are trusted to far better than the 1e-9 comparison tolerance used here.
"""
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from triopoly import Box, PAPER_BOX, PAPER_PARAMS, Params
from triopoly.certificate import (
    DEFAULT_MIN_MARGIN,
    Certificate,
    SubCheck,
    _merge_status,
    certify_box,
    check_C_analytic,
    check_H,
    condition_record,
)
from triopoly.jsonio import dumps17

# condition id -> binding margin over the reference configuration
EXPECTED_MARGINS = {
    "H1": 0.0,
    "H2": 0.0094034697116085,
    "H3": 0.0027958760507069,
    "H4": 0.0040905962165270,
    "H5": 0.0028672128406652,
    "C1": 0.0,
    "C2": 0.0520664400414952,
    "C3p": 0.0048329554543567,
    "C4": 0.0014977777470222,
    "C5": 0.0028672128406652,
}


def test_paper_configuration_certifies():
    cert = certify_box(PAPER_PARAMS, PAPER_BOX, engine="analytic")
    assert cert.verdict == "certified"
    assert cert.passed
    assert [c.cid for c in cert.conditions] == list(EXPECTED_MARGINS)
    for cid, margin in EXPECTED_MARGINS.items():
        rec = cert.condition(cid)
        assert rec.status == "pass"
        assert abs(rec.margin - margin) < 1e-9, (cid, rec.margin)


def test_lowered_top_face_fails_h2():
    cert = certify_box(PAPER_PARAMS, PAPER_BOX.replace(z_r=0.38), engine="analytic")
    assert cert.verdict == "failed"
    h2 = cert.condition("H2")
    assert h2.status == "fail"
    # 0.38 sits 0.0057744986883915 below the folding threshold
    assert abs(h2.margin + 0.0057744986883915) < 1e-12


def test_nonzero_bottom_face_fails_h1():
    cert = certify_box(PAPER_PARAMS, PAPER_BOX.replace(z_l=0.01), engine="analytic")
    assert cert.verdict == "failed"
    assert cert.condition("H1").status == "fail"


def test_weak_reaction_coefficient_is_inapplicable_not_fail():
    weak = Params(c1=0.4, c2=0.55, c3=0.6, alpha=1.0)  # alpha*c3 <= 1
    cert = check_H(weak, PAPER_BOX)
    assert cert.condition("H2").status == "inapplicable"
    assert cert.condition("H2").status != "fail"


def _straddle(margin_of, a, b, level):
    """Adjacent floats (below, above) between a and b, by bisection, with
    margin_of(below) <= level < margin_of(above); a and b must straddle
    ``level`` that way."""
    assert margin_of(a) <= level < margin_of(b)
    while (mid := 0.5 * (a + b)) not in (a, b):
        if margin_of(mid) <= level:
            a = mid
        else:
            b = mid
    return a, b


def test_c3p_passes_only_clear_of_the_fixed_margin():
    """C3' is strict: min F3 on the midplane must exceed z_r by more than
    DEFAULT_MIN_MARGIN (1e-12), so a positive margin at or below that
    fails.  Alpha alone moves the margin through 1e-12."""
    def c3p(alpha):
        return check_C_analytic(Params(0.4, 0.55, 0.6, alpha), PAPER_BOX).condition("C3p")

    below, above = _straddle(lambda a: c3p(a).margin, 16.0, 17.0, DEFAULT_MIN_MARGIN)
    assert 0.0 < c3p(below).margin <= DEFAULT_MIN_MARGIN and c3p(below).status == "fail"
    assert c3p(above).margin > DEFAULT_MIN_MARGIN and c3p(above).status == "pass"


def test_alpha_eight_not_certifiable_on_paper_box():
    p8 = Params(c1=0.4, c2=0.55, c3=0.6, alpha=8.0)
    cert = certify_box(p8, PAPER_BOX, engine="analytic")
    assert cert.verdict != "certified"
    # the folding threshold moves above the box top at this reaction speed
    assert cert.condition("H2").status == "fail"


def test_c2_reduction_slope_is_negative_where_used():
    """The top-face reduction relies on A -> z_r(1 - ac3 + aA/(A+z_r)^2)
    decreasing for A > z_r; its derivative has the sign of z_r - A."""
    p, b = PAPER_PARAMS, PAPER_BOX
    lo, hi = b.x_l + b.y_l, b.x_r + b.y_r
    for k in range(100):
        a = lo + (hi - lo) * k / 99.0
        slope = b.z_r * p.alpha * (b.z_r - a) / (a + b.z_r) ** 3
        assert slope < 0.0


def test_certificate_json_schema():
    cert = certify_box(PAPER_PARAMS, PAPER_BOX, engine="analytic")
    doc = json.loads(dumps17(cert.as_dict()))
    assert doc["schema_version"] == 1
    assert doc["kind"] == "chaos-certificate"
    assert doc["verdict"] == "certified"
    assert len(doc["conditions"]) == 10
    for rec in doc["conditions"]:
        assert rec["status"] in ("pass", "fail", "inapplicable", "inconclusive")
        assert rec["margin"] is None or math.isfinite(rec["margin"])


def test_degenerate_box_rejected_before_checks():
    from triopoly import InvalidBoxError

    with pytest.raises(InvalidBoxError):
        Box(x_l=0.5, x_r=0.5, y_l=0.3, y_r=0.4, z_l=0.0, z_r=0.1)


positive = st.floats(min_value=0.05, max_value=2.0)


@settings(max_examples=60, deadline=None)
@given(positive, positive, positive, positive, positive)
def test_certify_total_on_positive_boxes(xl, wx, yl, wy, zr):
    """Certification never raises on well-formed positive boxes with a
    grounded bottom face; every verdict is one of the four documented ones
    and margins are consistent with statuses."""
    b = Box(xl, xl + wx, yl, yl + wy, 0.0, zr)
    cert = certify_box(PAPER_PARAMS, b, engine="analytic")
    assert cert.verdict in ("certified", "failed", "inconclusive", "inapplicable")
    for rec in cert.conditions:
        if rec.status == "pass":
            assert rec.margin >= 0.0
        elif rec.status == "fail":
            assert rec.margin <= 0.0
    if cert.verdict == "certified":
        assert all(c.status in ("pass", "inapplicable") for c in cert.conditions)
        assert any(c.status == "pass" for c in cert.conditions)


def test_verdict_derivation_ordering():
    cert = certify_box(PAPER_PARAMS, PAPER_BOX.replace(z_r=0.38), engine="analytic")
    # a hard failure dominates any inapplicable reductions downstream
    assert cert.verdict == "failed"
    statuses = {c.status for c in cert.conditions}
    assert "fail" in statuses


def test_one_status_order_decides_records_and_verdicts():
    """Worst first -- fail, inapplicable, inconclusive, pass -- a record
    takes the worst status of its sub-checks and a certificate the worst
    of its records; the sides come from the smallest margin."""
    order = ["fail", "inapplicable", "inconclusive", "pass"]
    verdicts = dict(zip(order, ["failed", "inapplicable", "inconclusive", "certified"]))
    for i, worse in enumerate(order):
        for better in order[i:]:
            subs = [SubCheck("a", 3.0, 1.0, ">", 2.0, better),
                    SubCheck("b", 1.0, 0.0, ">=", 1.0, worse, "b binds")]
            rec = condition_record("X", subs, "interval")
            assert (rec.status, rec.lhs, rec.rhs, rec.relation, rec.margin) == (
                worse, 1.0, 0.0, ">=", 1.0)
            assert rec.note == ("" if worse == "pass" else "b binds")
            other = condition_record("Y", subs[:1], "interval")
            cert = Certificate(PAPER_PARAMS, PAPER_BOX, [other, rec], "interval")
            assert cert.verdict == verdicts[worse]


def test_a_verdict_cannot_be_passed_over_the_conditions():
    rec = condition_record("X", [SubCheck("a", 0.0, 1.0, ">", -1.0, "fail")], "interval")
    with pytest.raises(TypeError, match="verdict"):
        Certificate(PAPER_PARAMS, PAPER_BOX, [rec], "interval", verdict="certified")
    assert Certificate(PAPER_PARAMS, PAPER_BOX, [rec], "interval").verdict == "failed"


# (analytic, interval) -> fused status of one C condition under engine="both"
_MERGED = {
    ("pass", "pass"): "pass",
    ("pass", "fail"): "fail",
    ("pass", "inconclusive"): "inconclusive",
    ("fail", "pass"): "fail",
    ("fail", "fail"): "fail",
    ("fail", "inconclusive"): "fail",
    ("inapplicable", "pass"): "pass",
    ("inapplicable", "fail"): "fail",
    ("inapplicable", "inconclusive"): "inconclusive",
}


def test_merge_status_over_every_pair_the_engines_report():
    """The analytic engine reports pass, fail or inapplicable and the
    interval engine pass, fail or inconclusive (``tests/test_bounds.py``
    pins both sets); over those pairs a failure dominates and otherwise the
    interval verdict stands."""
    assert {pair: _merge_status(*pair) for pair in _MERGED} == _MERGED
