"""Tests for the budgeted box search."""
import hashlib
import io
import json
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triopoly.boxes import Box, InvalidBoxError
from triopoly.certificate import DEFAULT_MIN_MARGIN, certify_box, check_H
from triopoly.core import Params
from triopoly.presets import PAPER_BOX, PAPER_PARAMS
from triopoly.search import (
    RANK_IDS,
    _CHUNK,
    _Scan,
    _box_of,
    _decode_near,
    _decode_skeleton,
    _first_min,
    _judge,
    _rank,
    _record_verdicts,
    _refine,
    _sub_checks,
    _vec_of,
    search_boxes,
)

# maximin corner margin of the hand-found box over H2..H5 (H3 binds);
# frozen from the analytic corner checks at the reference parameters
PAPER_MAXIMIN = 0.0027958760507070246

ALPHA10 = Params(c1=0.4, c2=0.55, c3=0.6, alpha=10.0)
LOW_ALPHA = Params(c1=0.4, c2=0.55, c3=0.6, alpha=1.5)   # alpha*c3 = 0.9: H2 inapplicable


def paper_rank_margin():
    cert = check_H(PAPER_PARAMS, PAPER_BOX)
    return min(r.margin for r in cert.conditions if r.cid in RANK_IDS)


class TestValidation:
    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="strategy"):
            search_boxes(PAPER_PARAMS, "anneal", 10)

    @pytest.mark.parametrize("budget", [0, -5, 2.5])
    def test_bad_budget(self, budget):
        with pytest.raises(ValueError, match="budget"):
            search_boxes(PAPER_PARAMS, "random", budget)

    def test_near_box_off_exit_plane(self):
        lifted = PAPER_BOX.replace(z_l=0.01)
        with pytest.raises(ValueError, match="z_l = 0"):
            search_boxes(PAPER_PARAMS, "random", 10, near=lifted)

    @pytest.mark.parametrize("scale", [0.0, 1.0, -0.2])
    def test_bad_scale(self, scale):
        with pytest.raises(ValueError, match="scale"):
            search_boxes(PAPER_PARAMS, "random", 10, near=PAPER_BOX, scale=scale)

    def test_bad_engine(self):
        with pytest.raises(ValueError, match="engine"):
            search_boxes(PAPER_PARAMS, "random", 10, engine="oracle")

    def test_bad_max_hits_and_threads(self):
        with pytest.raises(ValueError, match="max_hits"):
            search_boxes(PAPER_PARAMS, "random", 10, max_hits=0)
        with pytest.raises(ValueError, match="threads"):
            search_boxes(PAPER_PARAMS, "random", 10, threads=0)


class TestRandomStrategy:
    def test_near_paper_finds_passing_boxes(self):
        res = search_boxes(PAPER_PARAMS, "random", 10_000, near=PAPER_BOX, seed=42)
        assert len(res) >= 1
        assert res.evaluated == 10_000
        for b, cert in res:
            assert cert.passed
            assert b.z_l == 0.0
            assert certify_box(PAPER_PARAMS, b).passed

    def test_ranking_is_non_increasing(self):
        res = search_boxes(PAPER_PARAMS, "random", 10_000, near=PAPER_BOX, seed=42)
        assert list(res.margins) == sorted(res.margins, reverse=True)
        assert all(m > 0.0 for m in res.margins)

    def test_seed_reproducibility(self):
        a = search_boxes(PAPER_PARAMS, "random", 4_000, near=PAPER_BOX, seed=7)
        b = search_boxes(PAPER_PARAMS, "random", 4_000, near=PAPER_BOX, seed=7)
        assert a.boxes == b.boxes
        assert a.margins == b.margins
        assert a.evaluated == b.evaluated

    def test_thread_count_does_not_change_result(self):
        a = search_boxes(PAPER_PARAMS, "random", 4_000, near=PAPER_BOX, seed=7)
        b = search_boxes(PAPER_PARAMS, "random", 4_000, near=PAPER_BOX, seed=7, threads=4)
        assert a.boxes == b.boxes
        assert a.near_miss == b.near_miss

    def test_alpha_10_is_empty_with_H2_or_H3_near_miss(self):
        res = search_boxes(ALPHA10, "random", 20_000, seed=42)
        assert len(res) == 0
        assert res.evaluated == 20_000
        assert res.near_miss is not None
        assert res.near_miss.violated in ("H2", "H3")
        assert res.near_miss.margin < 0.0
        assert res.near_miss.box.z_l == 0.0

    def test_skeleton_mode_finds_boxes_at_reference_alpha(self):
        # no seed box at all: the feasibility skeleton alone must locate
        # the thin passing region at the reference parameters
        res = search_boxes(PAPER_PARAMS, "random", 60_000, seed=42)
        assert len(res) >= 1
        assert all(cert.passed for _, cert in res)


def test_strict_atom_within_the_fixed_margin_fails_in_check_H_and_judge():
    """H3 is strict: a margin in (0, 1e-12] fails it in ``check_H`` and in
    ``_judge`` alike, and one just above 1e-12 passes both.  z_r, H3's right
    side, moves the margin exactly; every other H record keeps passing."""
    b = PAPER_BOX

    def vec(z_r):
        return np.array([b.x_l, b.x_r - b.x_l, b.y_l, b.y_r - b.y_l, z_r])

    def h3(z_r):
        return check_H(PAPER_PARAMS, _box_of(vec(z_r))).condition("H3")

    reentry = h3(b.z_r).lhs
    above = reentry - DEFAULT_MIN_MARGIN
    while reentry - above <= DEFAULT_MIN_MARGIN:
        above = math.nextafter(above, -math.inf)
    below = math.nextafter(above, math.inf)
    assert 0.0 < h3(below).margin <= DEFAULT_MIN_MARGIN < h3(above).margin
    j = _judge(PAPER_PARAMS, np.array([vec(below), vec(above)]))
    k = RANK_IDS.index("H3")
    assert h3(below).status == "fail" and j.status[k, 0] == 1 and not j.passed[0]
    assert h3(above).status == "pass" and j.status[k, 1] == 0 and j.passed[1]


class TestGridStrategy:
    def test_budget_one_evaluates_at_most_one(self):
        res = search_boxes(PAPER_PARAMS, "grid", 1)
        assert res.evaluated <= 1

    def test_lattice_respects_budget(self):
        res = search_boxes(PAPER_PARAMS, "grid", 100)
        assert res.evaluated <= 100   # 2^5 lattice

    def test_grid_near_paper_passes(self):
        res = search_boxes(PAPER_PARAMS, "grid", 3_125, near=PAPER_BOX, scale=0.05)
        assert len(res) >= 1
        assert all(cert.passed for _, cert in res)

    def test_grid_is_deterministic_without_seed(self):
        a = search_boxes(PAPER_PARAMS, "grid", 3_125, near=PAPER_BOX, seed=None)
        b = search_boxes(PAPER_PARAMS, "grid", 3_125, near=PAPER_BOX, seed=None)
        assert a.boxes == b.boxes


class TestRefineStrategy:
    def test_improves_on_the_hand_found_box(self):
        assert paper_rank_margin() == pytest.approx(PAPER_MAXIMIN, abs=1e-15)
        res = search_boxes(PAPER_PARAMS, "refine", 2_000, near=PAPER_BOX)
        assert len(res) >= 1
        assert res.margins[0] > PAPER_MAXIMIN
        box, cert = res.best
        assert cert.passed
        assert certify_box(PAPER_PARAMS, box).passed

    def test_budget_cap_holds(self):
        res = search_boxes(PAPER_PARAMS, "refine", 50, near=PAPER_BOX)
        assert res.evaluated <= 50

    def test_cannot_conjure_hits_at_alpha_10(self):
        res = search_boxes(ALPHA10, "refine", 4_000, seed=1)
        assert len(res) == 0
        assert res.near_miss is not None and res.near_miss.margin < 0.0

    def test_bootstrap_needs_budget(self):
        res = search_boxes(PAPER_PARAMS, "refine", 1, seed=0)
        assert len(res) == 0
        assert "bootstrap" in res.note


class TestResultSurface:
    def test_sequence_protocol(self):
        res = search_boxes(PAPER_PARAMS, "random", 10_000, near=PAPER_BOX, seed=42)
        assert len(res) == len(list(res))
        box, cert = res[0]
        assert res.best == (box, cert)
        assert res.boxes[0] == box

    def test_header_records_run_identity(self):
        res = search_boxes(PAPER_PARAMS, "random", 500, near=PAPER_BOX, seed=11)
        head = res.header_dict()
        assert head["strategy"] == "random"
        assert head["seed"] == 11
        assert head["budget"] == 500
        assert head["params"] == PAPER_PARAMS.as_dict()
        assert head["near"] == PAPER_BOX.as_dict()

    def test_json_lines_round_trip(self):
        res = search_boxes(PAPER_PARAMS, "random", 10_000, near=PAPER_BOX, seed=42)
        buf = io.StringIO()
        res.to_json_lines(buf)
        lines = [json.loads(l) for l in buf.getvalue().splitlines()]
        assert lines[0]["kind"] == "box-search"
        assert lines[0]["hits"] == len(res)
        hits = [l for l in lines if l["kind"] == "hit"]
        assert len(hits) == len(res)
        assert hits[0]["rank"] == 1
        assert hits[0]["box"] == res.boxes[0].as_dict()
        assert hits[0]["verdict"] == "certified"
        assert lines[-1]["kind"] == "summary"

    def test_empty_result_reports_near_miss(self, tmp_path):
        res = search_boxes(ALPHA10, "random", 5_000, seed=3)
        out = tmp_path / "run.jsonl"
        res.to_json_lines(out)
        lines = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(lines) == 2
        summary = lines[-1]
        assert summary["hits"] == 0
        assert summary["near_miss"]["violated"] in ("H2", "H3")
        assert summary["near_miss"]["box"]["z_l"] == 0.0

    def test_json_floats_use_17_significant_digits(self):
        res = search_boxes(PAPER_PARAMS, "random", 2_000, near=PAPER_BOX, seed=42)
        buf = io.StringIO()
        res.to_json_lines(buf)
        text = buf.getvalue()
        x_l = res.boxes[0].x_l if len(res) else res.near_miss.box.x_l
        assert format(x_l, ".17g") in text


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), scale=st.floats(0.02, 0.3))
def test_every_hit_recertifies(seed, scale):
    res = search_boxes(PAPER_PARAMS, "random", 600, near=PAPER_BOX, seed=seed, scale=scale)
    for b, cert in res:
        assert cert.passed
        assert b.z_l == 0.0
        assert certify_box(PAPER_PARAMS, b).verdict == "certified"
    if res.near_miss is not None:
        assert res.near_miss.margin <= 0.0 or res.near_miss.status != "pass"


# ---------------------------------------------------------------------------
# frozen output bytes
# ---------------------------------------------------------------------------

# sha256 of ``to_json_lines``, recorded with the per-candidate search (one
# Certificate per candidate) that the array pipeline replaced
FROZEN_JSONL = {
    "random-100k-seed0": (
        lambda: search_boxes(PAPER_PARAMS, "random", 100_000, seed=0),
        "75492d6d756573908ed9ca006be6d6593e62386f0d3e731c66012835f56a0fc8"),
    "random-near-10k-seed42": (
        lambda: search_boxes(PAPER_PARAMS, "random", 10_000, near=PAPER_BOX, seed=42),
        "944eb4f38f9f6056de8b97727aa257d6e4bae7325596ff1e73d2733026fb179f"),
    "grid-near-3125": (
        lambda: search_boxes(PAPER_PARAMS, "grid", 3_125, near=PAPER_BOX, scale=0.05),
        "c3a444920266c8335f73a15954cb62d6e1ac150b472cc1e50cf6b19f073e6ec5"),
    "refine-2000-seed0": (
        lambda: search_boxes(PAPER_PARAMS, "refine", 2_000, seed=0),
        "ccb7a756d00a89db77357b224439b9d59459946223fcbdc5798dc5bccc83eecf"),
    "alpha10-random-20k-seed42": (
        lambda: search_boxes(ALPHA10, "random", 20_000, seed=42),
        "590cce178c06884c650d76f473da711ecf742893ff83c296e2313c83a7cd0daf"),
    # H2 inapplicable (alpha*c3 <= 1)
    "low-alpha-random-5000-seed1": (
        lambda: search_boxes(LOW_ALPHA, "random", 5_000, seed=1),
        "a26f88e40d0cb098bca6751079afdd7c4d191255467b26632fd0e18afc3b8243"),
    "low-alpha-random-near-3000-seed2": (
        lambda: search_boxes(LOW_ALPHA, "random", 3_000, near=PAPER_BOX, seed=2),
        "9a87c0a764e87be83551e654029e3286e06950e40fc0e45e403805cebf80906f"),
    "low-alpha-refine-3000-seed4": (
        lambda: search_boxes(LOW_ALPHA, "refine", 3_000, seed=4),
        "22303edca573a9ccc7e7f352bc863798105d2caac05b7e185e4294905ed1bec8"),
    # budgets that are not a multiple of the chunk size
    "random-16389-seed5": (
        lambda: search_boxes(PAPER_PARAMS, "random", 16_389, seed=5),
        "eaf7aedb647a595dd361da1387f1c16b5f4e997fbc27cd34cb1825a29d02723d"),
    "random-near-33000-seed9": (
        lambda: search_boxes(PAPER_PARAMS, "random", 33_000, near=PAPER_BOX, scale=0.2, seed=9),
        "4d3736ce513399dc02727831c788fb432dc08783a9bbf8463fba64cc64e6c950"),
    "grid-7776": (
        lambda: search_boxes(PAPER_PARAMS, "grid", 7_776),
        "f2c94cea5990802578e4f67936ed62753b503b9fbf80b5ec6a58816c4e65d419"),
    # the climb: to the step floor, and cut by the budget mid-sweep
    "refine-near-2000": (
        lambda: search_boxes(PAPER_PARAMS, "refine", 2_000, near=PAPER_BOX),
        "ef92296df9e5e2527844deae0a25fd407b5e40f2050185451e30a06420e76da2"),
    "refine-near-120": (
        lambda: search_boxes(PAPER_PARAMS, "refine", 120, near=PAPER_BOX),
        "64fbe139c3f9e4eeaf9217822227bbc9d63448d593aac8b13ffd02eae84e5348"),
    "alpha10-refine-4000-seed1": (
        lambda: search_boxes(ALPHA10, "refine", 4_000, seed=1),
        "b96489b3156a72573abf11cf278c2ddbd73b112a75b15f8c9a69ca033dab537f"),
}


@pytest.mark.parametrize("case", sorted(FROZEN_JSONL))
def test_search_jsonl_bytes_are_frozen(case):
    run, digest = FROZEN_JSONL[case]
    buf = io.StringIO()
    run().to_json_lines(buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == digest


def test_frozen_budgets_straddle_the_chunk_size():
    assert 16_389 % _CHUNK and 33_000 % _CHUNK and 33_000 > 2 * _CHUNK


def _traced_peak(*args):
    tracemalloc.start()
    try:
        search_boxes(PAPER_PARAMS, *args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("strategy", ["random", "grid", "refine"])
def test_memory_does_not_grow_with_the_budget(strategy):
    """The unit-cube rows are drawn one chunk at a time: a budget of ~12
    chunks (refine's bootstrap pass is half of it) peaks within 1 MB of a
    one-chunk random search.  Drawing all rows at once costs 40 B a row,
    +7 MB here."""
    one_chunk = _traced_peak("random", _CHUNK)
    assert _traced_peak(strategy, 200_000) <= one_chunk + 1_000_000


# ---------------------------------------------------------------------------
# the array pipeline against the per-candidate rules it replaces
# ---------------------------------------------------------------------------

_PAD = 1e-9


def _ref_decode_skeleton(u, p):
    """The scalar skeleton decoder, one unit-cube point at a time."""
    def lerp(lo, hi, t):
        return lo + (hi - lo) * t

    B = 1.0 / p.c1
    A = 0.25 / p.c2
    if A >= 0.25 * B:
        return None
    x_l = lerp(A, 0.25 * B, float(u[0]))
    x_r = lerp(max(x_l, 0.25 * B), 0.5 * B, float(u[1]))
    root = math.sqrt(max(0.0, B - 4.0 * x_l))
    t_lo = 0.5 * (math.sqrt(B) - root)
    t_hi = 0.5 * (math.sqrt(B) + root)
    lo = max(t_lo * t_lo, _PAD)
    hi = min(t_hi * t_hi, 0.5 * B - x_r, 0.25 / p.c2 - _PAD)
    y_l = lerp(lo, hi, float(u[2])) if hi > lo else 0.5 * (lo + hi)
    if y_l <= 0.0:
        y_l = _PAD
    s_ll = x_l + y_l
    q_escape = p.alpha / (p.alpha * p.c3 - 1.0) if p.alpha * p.c3 > 1.0 else None
    q_reentry = p.alpha / (p.alpha * p.c3 + 1.0)
    floor = (math.sqrt(q_escape * s_ll) - s_ll) if q_escape is not None else 0.0
    c0 = max(_PAD, floor)
    psi = math.sqrt(x_l / p.c2) - x_l
    y_flo = max(y_l + _PAD, psi, 0.5 * B - x_l - s_ll + _PAD)
    if q_reentry > 2.0 * c0:
        t = 0.5 * (math.sqrt(q_reentry) + math.sqrt(q_reentry - 2.0 * c0))
        y_fhi = t * t - x_r
    else:
        y_fhi = y_flo
    y_r = lerp(y_flo, y_fhi, float(u[3])) if y_fhi > y_flo else y_flo
    if y_r <= y_l:
        y_r = y_l + _PAD
    s_rr = x_r + y_r
    gamma = 2.0 * (math.sqrt(q_reentry * s_rr) - s_rr) if s_rr > 0.0 else 0.0
    t = 0.5 * (math.sqrt(1.0 / p.c2) + math.sqrt(max(0.0, 1.0 / p.c2 - 4.0 * y_l)))
    geo_lo = max(_PAD, 0.5 * B - x_l - y_r)
    geo_hi = min(s_ll, B - x_r - y_r, B - 2.0 * x_l - y_l - y_r, t * t - x_r)
    z_lo = max(geo_lo, floor)
    z_hi = min(geo_hi, gamma)
    if z_hi > z_lo:
        z_r = lerp(z_lo, z_hi, float(u[4]))
    elif geo_hi > geo_lo:
        z_r = min(max(0.5 * (floor + gamma), geo_lo), geo_hi)
    else:
        z_r = 0.5 * (geo_lo + geo_hi)
    if z_r <= 0.0:
        z_r = _PAD
    return (x_l, x_r - x_l, y_l, y_r - y_l, z_r)


def _ref_box(vec):
    x_l, wx, y_l, wy, z_r = (float(v) for v in vec)
    try:
        return Box(x_l=x_l, x_r=x_l + wx, y_l=y_l, y_r=y_l + wy, z_l=0.0, z_r=z_r)
    except InvalidBoxError:
        return None


def _ref_rank_margin(cert):
    vals = [r.margin for r in cert.conditions if r.cid in RANK_IDS and r.margin is not None]
    return min(vals) if vals else float("-inf")


def _ref_binding_failure(cert):
    worst = None
    for r in cert.conditions:
        if r.status == "pass":
            continue
        if worst is None:
            worst = r
        elif r.margin is not None and (worst.margin is None or r.margin < worst.margin):
            worst = r
    return worst


def _ref_kill(rec):
    """The sub-check that killed a candidate whose binding failure is ``rec``."""
    if not rec.subchecks:
        return rec.cid
    failing = [s for s in rec.subchecks if s.status != "pass" and s.margin is not None]
    if failing:
        return min(failing, key=lambda s: s.margin).cid
    return next(s.cid for s in rec.subchecks if s.margin is None)


class _RefScan:
    """The per-candidate fold: one check_H certificate per candidate."""

    def __init__(self, p):
        self.p = p
        self.hits, self.frontier, self.fallback = [], None, None
        self.evaluated = 0
        self.killed = Counter()

    def eval(self, vec):
        b = _ref_box(vec)
        if b is None:
            return None
        cert = check_H(self.p, b)
        self.evaluated += 1
        margin = _ref_rank_margin(cert)
        if cert.verdict == "certified":
            self.hits.append((margin, b))
            return margin
        worst = _ref_binding_failure(cert)
        self.killed[_ref_kill(worst)] += 1
        miss = (b, margin, worst.cid, worst.status)
        if all(r.cid in ("H2", "H3") for r in cert.conditions if r.status != "pass"):
            if self.frontier is None or margin > self.frontier[1]:
                self.frontier = miss
        if self.fallback is None or margin > self.fallback[1]:
            self.fallback = miss
        return margin


def _ref_refine(scan, vec0, budget, step0=0.05, step_floor=1e-9):
    best = scan.eval(vec0)
    if best is None:
        return
    vec = tuple(float(v) for v in vec0)
    h = step0
    while scan.evaluated < budget and h > step_floor:
        improved = False
        for i in range(5):
            for sgn in (1.0, -1.0):
                if scan.evaluated >= budget:
                    return
                trial = list(vec)
                trial[i] = vec[i] * (1.0 + sgn * h)
                margin = scan.eval(tuple(trial))
                if margin is not None and margin > best:
                    best, vec = margin, tuple(trial)
                    improved = True
        if not improved:
            h *= 0.5


def _bits(v):
    return np.float64(v).tobytes()


def _miss_key(m):
    if m is None:
        return None
    if isinstance(m, tuple):
        b, margin, violated, status = m
    else:
        b, margin, violated, status = m.box, m.margin, m.violated, m.status
    return (b.as_tuple(), _bits(margin), violated, status)


def _assert_same_scan(scan, ref):
    assert scan.evaluated == ref.evaluated
    assert [(_bits(m), b) for m, b in scan.hits] == [(_bits(m), b) for m, b in ref.hits]
    assert _miss_key(scan.frontier) == _miss_key(ref.frontier)
    assert _miss_key(scan.fallback) == _miss_key(ref.fallback)
    assert scan.killed_by() == {k: v for k, v in ref.killed.items() if v}


@st.composite
def _any_params(draw):
    """Random costs, with alpha*c3 below, near and above 1."""
    c1, c2, c3 = (draw(st.floats(0.05, 3.0)) for _ in range(3))
    r = draw(st.one_of(st.floats(0.2, 0.999), st.just(1.0), st.floats(1.001, 30.0)))
    return Params(c1, c2, c3, r / c3)


@st.composite
def _near_paper_params(draw):
    f = lambda: draw(st.floats(0.9, 1.1))
    return Params(0.4 * f(), 0.55 * f(), 0.6 * f(), draw(st.floats(0.5, 40.0)))


# coordinates drawn from a small pool tie often, across rows and inside
# one certificate; negatives leave square roots undefined, 1e308 overflows
_coord = st.one_of(
    st.sampled_from([0.0, -0.0, 0.05, 0.1, 0.25, 0.3, 0.5, 1.0, -0.2, 5e-324, 1e308]),
    st.floats(-0.5, 1.5),
)


@st.composite
def _rows(draw, max_rows=30):
    rows = draw(st.lists(st.tuples(*[_coord] * 5), min_size=1, max_size=max_rows))
    reps = draw(st.lists(st.integers(0, len(rows) - 1), max_size=6))
    return np.array(rows + [rows[i] for i in reps], dtype=float)


_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, math.inf, -math.inf, math.nan])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda k: st.tuples(
    st.lists(st.lists(_VALUES, min_size=k, max_size=k), min_size=1, max_size=8),
    st.lists(st.lists(st.booleans(), min_size=k, max_size=k), min_size=1, max_size=8)))
    .filter(lambda t: len(t[0]) == len(t[1])))
def test_first_min_is_pythons_min(cols):
    values, masks = cols
    m = np.array(values, dtype=float).T
    ok = np.array(masks).T
    got, low, found = _first_min(m, ok)
    no_rows, value_only, found_too = _first_min(m, ok, rows=False)
    assert no_rows is None
    assert value_only.tobytes() == low.tobytes() and (found_too == found).all()
    for c in range(m.shape[1]):
        picks = [r for r in range(len(m)) if ok[r, c]]
        assert bool(found[c]) == bool(picks)
        if picks:
            want = min(picks, key=lambda r: m[r, c])
            assert got[c] == want
            assert _bits(low[c]) == _bits(m[want, c])


# H2 inapplicable and x_r + y_r overflowing: the rank fold starts at a NaN
_NAN_FIRST = (LOW_ALPHA, np.array([[5e307, 5e307, 5e307, 5e307, 0.1],
                                   [0.6, 0.05, 0.35, 0.1, 0.3]]))


@settings(max_examples=150, deadline=None)
@given(_any_params(), _rows())
@example(*_NAN_FIRST)
@example(PAPER_PARAMS, np.array([[0.6, 0.05, -0.01, 0.51, 0.5]]))  # H4h undefined
@example(PAPER_PARAMS, np.array([[0.6, 0.05, 0.35, 0.1, 5e-324]]))  # z too thin to split
# a square root undefined in a record that does not bind
@example(PAPER_PARAMS, np.array([[-0.9, 0.05, -0.3, 0.1, 0.5]]))
@example(LOW_ALPHA, np.array([[-0.9, 0.05, -0.3, 0.1, 0.5]]))
@example(PAPER_PARAMS, np.array([[-0.2, 0.1, 0.3, 0.1, 0.5]]))
def test_judge_replays_check_H_per_row(p, cand):
    j = _judge(p, cand)
    _, atoms, m, undef = _sub_checks(p, cand)
    margin, defined, *_ = _record_verdicts(atoms, m, undef)
    for i, vec in enumerate(cand):
        b = _ref_box(vec)
        assert bool(j.valid[i]) == (b is not None)
        if b is None:
            continue
        cert = check_H(p, b)
        for k, cid in enumerate(RANK_IDS):
            rec = cert.condition(cid)
            assert ("pass", "fail", "inapplicable")[j.status[k, i]] == rec.status
            assert bool(defined[k, i]) == (rec.margin is not None)
            if rec.margin is not None:
                assert _bits(margin[k, i]) == _bits(rec.margin)
        assert _bits(j.rank[i]) == _bits(_ref_rank_margin(cert))
        assert bool(j.passed[i]) == (cert.verdict == "certified")
        worst = _ref_binding_failure(cert)
        if worst is not None:
            assert RANK_IDS[j.worst[i]] == worst.cid
            assert j.kill_ids[j.kill[i]] == _ref_kill(worst)


@settings(max_examples=150, deadline=None)
@given(_any_params(), _rows())
@example(*_NAN_FIRST)
def test_rank_is_the_judged_rank(p, cand):
    j = _judge(p, cand)
    for i, vec in enumerate(cand):
        rank = _rank(p, vec)
        assert (rank is None) == (not j.valid[i])
        if rank is not None:
            assert _bits(rank) == _bits(j.rank[i])


def test_kill_is_the_smallest_failing_sub_check_not_the_smallest_one(monkeypatch):
    """Rows whose binding record has a passing sub-check below its failing
    one, which the replay tests never draw: a weak atom at exactly 0 beside
    a strict atom in (0, 1e-12], and a passing atom before a failing NaN;
    with them, a tie between failing sub-checks.  ``_sub_checks`` is
    replaced by these synthetic margins; every other sub-check passes by 1."""
    cand = np.array([[0.6, 0.05, 0.35, 0.1, 0.3]] * 3)
    valid, atoms, m, undef = _sub_checks(PAPER_PARAMS, cand)
    ids = [a[1] for a in atoms]
    m = np.ones_like(m)
    rows = (
        {"H4e": 0.0, "H4a": 1e-13},                 # both defined, H4e passes
        {"H4a": 0.3, "H4b": math.nan},
        {"H2a": 0.5, "H2b": -0.5, "H2c": -0.5},
    )
    for col, row in enumerate(rows):
        for sid, v in row.items():
            m[ids.index(sid), col] = v
    monkeypatch.setattr("triopoly.search._sub_checks", lambda p, c: (valid, atoms, m, undef))
    j = _judge(PAPER_PARAMS, cand)
    assert [RANK_IDS[k] for k in j.worst] == ["H4", "H4", "H2"]
    assert [j.kill_ids[k] for k in j.kill] == ["H4a", "H4b", "H2b"]


@settings(max_examples=80, deadline=None)
@given(_any_params(), _rows(), st.lists(st.integers(1, 12), min_size=1, max_size=4))
@example(*_NAN_FIRST, [1])
def test_scan_fold_replays_the_per_candidate_rules(p, cand, cuts):
    ref = _RefScan(p)
    for vec in cand:
        ref.eval(vec)
    scan = _Scan(p)
    start = 0
    for size in cuts + [len(cand)]:       # chunk boundaries must not matter
        block = cand[start:start + size]
        if len(block):
            scan.absorb(block, _judge(p, block))
        start += size
    _assert_same_scan(scan, ref)


@settings(max_examples=60, deadline=None)
@given(_any_params(), st.lists(st.tuples(*[st.floats(0.0, 1.0, exclude_max=True)] * 5),
                                min_size=1, max_size=20))
def test_decode_skeleton_matches_the_scalar_decoder(p, pts):
    u = np.array(pts)
    got = _decode_skeleton(u, p)
    want = [_ref_decode_skeleton(row, p) for row in u]
    if want[0] is None:
        assert got is None
        return
    assert got.tobytes() == np.array(want).tobytes()


def test_decode_near_matches_the_scalar_decoder():
    u = np.random.default_rng(5).random((64, 5))
    base = _vec_of(PAPER_BOX)
    want = [tuple(v * (1.0 + 0.3 * (2.0 * float(ui) - 1.0)) for v, ui in zip(base, row))
            for row in u]
    assert _decode_near(u, base, 0.3).tobytes() == np.array(want).tobytes()


@settings(max_examples=25, deadline=None)
@given(_near_paper_params(), st.integers(1, 400), st.floats(0.7, 1.3), st.booleans())
def test_refine_replays_the_sequential_climb(p, budget, stretch, improving):
    vec0 = _vec_of(PAPER_BOX)
    if not improving:   # start away from the hand-found box
        vec0 = tuple(v * stretch for v in vec0)
    ref = _RefScan(p)
    _ref_refine(ref, vec0, budget)
    scan = _Scan(p)
    _refine(vec0, budget, scan)
    _assert_same_scan(scan, ref)


# ---------------------------------------------------------------------------
# kill histogram
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,near", [(PAPER_PARAMS, None), (Params(0.4, 0.55, 0.6, 12.0), None),
                                    (PAPER_PARAMS, PAPER_BOX), (LOW_ALPHA, None)])
def test_killed_by_matches_a_check_H_recount(p, near):
    budget, seed = 600, 3
    res = search_boxes(p, "random", budget, near=near, seed=seed)
    u = np.random.default_rng(seed).random((budget, 5))
    ref = _RefScan(p)
    for row in u:
        vec = _ref_decode_skeleton(row, p) if near is None else \
            tuple(v * (1.0 + 0.1 * (2.0 * float(ui) - 1.0)) for v, ui in zip(_vec_of(near), row))
        ref.eval(vec)
    assert res.killed_by == {k: v for k, v in ref.killed.items() if v}
    assert sum(res.killed_by.values()) == res.evaluated - len(ref.hits)
    assert all(k.startswith(("H2", "H3", "H4", "H5")) for k in res.killed_by)


def test_killed_by_names_the_escape_bound_below_the_threshold():
    res = search_boxes(ALPHA10, "random", 4_000, seed=0)
    assert len(res) == 0
    assert sum(res.killed_by.values()) == res.evaluated
    assert max(res.killed_by, key=res.killed_by.get).startswith(("H2", "H3"))


# the kill counts, recorded with the stacked-reduction selection that the
# ordered pass replaced; the JSONL digests above do not cover them
FROZEN_KILLED_BY = {
    (10.0, 4_000, 0): {"H2b": 2195, "H3": 1805},
    (15.0, 4_000, 0): {"H2b": 2359, "H3": 1641},
    (17.0, 4_000, 0): {"H2b": 2396, "H3": 1602},
    (17.0, 16_389, 5): {"H2b": 9901, "H3": 6478},       # straddles _CHUNK
}


@pytest.mark.parametrize("alpha,budget,seed", sorted(FROZEN_KILLED_BY))
def test_killed_by_is_frozen(alpha, budget, seed):
    p = Params(0.4, 0.55, 0.6, alpha)
    res = search_boxes(p, "random", budget, seed=seed)
    assert res.killed_by == FROZEN_KILLED_BY[alpha, budget, seed]


def test_killed_by_stays_out_of_the_jsonl():
    res = search_boxes(ALPHA10, "random", 500, seed=0)
    buf = io.StringIO()
    res.to_json_lines(buf)
    assert "killed" not in buf.getvalue()
