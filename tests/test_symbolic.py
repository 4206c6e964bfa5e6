"""Finite-depth symbolic dynamics: itineraries, periodic words, entropy."""
import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triopoly import (
    Box, HalfBoxes, OrientedBox, PAPER_BOX, PAPER_PARAMS, certify_box, horseshoe, symbolic,
)
from triopoly.core import (
    DomainError,
    Params,
    State,
    boundary_fixed_point,
    eval_jacobian,
    eval_map_arrays,
    eval_map_xyz,
    fixed_points,
    interior_fixed_point,
)
from triopoly.symbolic import (
    MAX_WORD_LENGTH,
    _check_orbits,
    _shoot,
    Itinerary,
    count_periodic_words,
    entropy_lower_bound,
    find_periodic_orbit,
    itinerary,
    normalize_word,
    orbits_to_csv,
)

P = PAPER_PARAMS
OB = OrientedBox(PAPER_BOX)
SEEDS = [None, 0, 1, 2, 3, 4, 5]


def _seeded_box(seed):
    """The paper box, or with its five free bounds moved by up to +-0.2 %."""
    box = PAPER_BOX
    if seed is not None:
        f = 1.0 + 0.002 * np.random.default_rng(seed).uniform(-1.0, 1.0, 5)
        box = box.replace(x_l=box.x_l * f[0], x_r=box.x_r * f[1], y_l=box.y_l * f[2],
                          y_r=box.y_r * f[3], z_r=box.z_r * f[4])
    return box


class TestNormalizeWord:
    @pytest.mark.parametrize("w", ["0110", (0, 1, 1, 0), [0, 1, 1, 0]])
    def test_accepted_forms(self, w):
        assert normalize_word(w) == "0110"

    @pytest.mark.parametrize("w", ["", "012", "ab", (0, 2)])
    def test_rejected_forms(self, w):
        with pytest.raises(ValueError):
            normalize_word(w)


class TestItinerary:
    def test_nash_point_is_constant_one(self):
        it = itinerary(P, OB, interior_fixed_point(P), 12)
        assert it.word() == "1" * 12
        assert not it.exited
        assert it.ties == ()

    def test_boundary_point_is_constant_zero(self):
        it = itinerary(P, OB, boundary_fixed_point(P), 12)
        assert it.word() == "0" * 12
        assert not it.exited

    def test_top_corner_exits_at_step_one(self):
        # the image of the far top corner drops below the bottom face, the
        # same inequality that drives the top-face exit condition
        s0 = State(PAPER_BOX.x_r, PAPER_BOX.y_r, PAPER_BOX.z_r)
        it = itinerary(P, OB, s0, 10)
        assert it.exit_step == 1
        assert it.exited
        assert it.symbols == (1,)

    def test_midplane_tie_flagged_symbol_one(self):
        s0 = State(0.6, 0.4, PAPER_BOX.z_mid)
        it = itinerary(P, OB, s0, 1)
        assert it.symbols[0] == 1
        assert 0 in it.ties

    def test_outside_start_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            itinerary(P, OB, State(0.0, 0.4, 0.1), 5)

    def test_bad_horizon_rejected(self):
        with pytest.raises(ValueError):
            itinerary(P, OB, interior_fixed_point(P), 0)

    def test_domain_error_carries_step_index(self):
        # a box straddling x + z <= 0 is geometrically valid but the map
        # cannot be evaluated there; the step should be named
        bad = Box(-2.0, -1.0, 3.0, 4.0, 0.5, 1.5)
        with pytest.raises(DomainError, match="step 1"):
            itinerary(P, OrientedBox(bad), State(-1.5, 3.5, 1.0), 5)

    def test_horizon_one_never_exits(self):
        it = itinerary(P, OB, State(PAPER_BOX.x_r, PAPER_BOX.y_r, PAPER_BOX.z_r), 1)
        assert it.symbols == (1,)
        assert not it.exited


class TestFindPeriodicOrbit:
    def test_word_1_is_nash(self):
        r = find_periodic_orbit(P, OB, "1")
        assert r.converged
        assert r.point.as_tuple() == pytest.approx(
            interior_fixed_point(P).as_tuple(), abs=1e-9
        )

    def test_word_0_is_boundary_point(self):
        r = find_periodic_orbit(P, OB, "0")
        assert r.converged
        assert r.point.z == 0.0
        assert r.point.as_tuple() == pytest.approx(
            boundary_fixed_point(P).as_tuple(), abs=1e-9
        )

    def test_word_01_genuine_two_cycle(self):
        r = find_periodic_orbit(P, OB, "01")
        assert r.converged
        assert r.residual < 1e-8
        assert r.realized == "01"
        for fp in (interior_fixed_point(P), boundary_fixed_point(P)):
            assert max(
                abs(a - b) for a, b in zip(r.point.as_tuple(), fp.as_tuple())
            ) > 1e-3

    def test_converged_point_in_first_symbol_half(self):
        mid = PAPER_BOX.z_mid
        for word in ("01", "10", "011"):
            r = find_periodic_orbit(P, OB, word)
            assert r.converged
            if word[0] == "0":
                assert r.point.z <= mid
            else:
                assert r.point.z >= mid

    def test_word_accepts_tuple_form(self):
        r = find_periodic_orbit(P, OB, (0, 1))
        assert r.word == "01"

    def test_uncertified_box_refused(self):
        bad = OrientedBox(
            Box(PAPER_BOX.x_l, PAPER_BOX.x_r, PAPER_BOX.y_l, PAPER_BOX.y_r, 0.0, 0.38)
        )
        with pytest.raises(ValueError, match="certif"):
            find_periodic_orbit(P, bad, "01")


class TestCountPeriodicWords:
    @pytest.mark.parametrize("k,expected", [(1, 2), (2, 4), (3, 8)])
    def test_all_words_realized(self, k, expected):
        results = count_periodic_words(P, OB, k)
        assert len(results) == expected
        assert all(r.converged for r in results)
        assert all(r.residual < 1e-8 for r in results)
        assert sorted(r.word for r in results) == sorted(
            format(i, f"0{k}b") for i in range(2**k)
        )

    def test_k4_all_sixteen(self):
        results = count_periodic_words(P, OB, 4)
        assert sum(r.converged for r in results) == 16

    def test_shift_semiconjugacy_to_depth_2k(self):
        for k in (1, 2, 3):
            for r in count_periodic_words(P, OB, k):
                image = State(*eval_map_xyz(P, *r.point.as_tuple()))
                it = itinerary(P, OB, image, 2 * k)
                rotated = r.word[1:] + r.word[0]
                assert it.word() == rotated * 2
                assert not it.exited

    def test_cyclic_dedupe_counts_necklaces(self):
        results = count_periodic_words(P, OB, 4, dedupe_cyclic=True)
        assert sorted(r.word for r in results) == [
            "0000",
            "0001",
            "0011",
            "0101",
            "0111",
            "1111",
        ]

    def test_word_length_cap(self):
        with pytest.raises(ValueError):
            count_periodic_words(P, OB, 0)
        with pytest.raises(ValueError):
            count_periodic_words(P, OB, MAX_WORD_LENGTH + 1)

    def test_bad_tol_rejected(self):
        with pytest.raises(ValueError):
            count_periodic_words(P, OB, 2, tol=0.0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_word_of_length_5_and_6_is_realized(self, seed):
        box = _seeded_box(seed)
        cert = certify_box(P, box)
        assert cert.passed
        bits = lambda s: tuple(v.hex() for v in s.as_tuple())
        closed = [bits(s) for s in fixed_points(P)]
        for k in (5, 6):
            results = count_periodic_words(P, OrientedBox(box), k, cert=cert)
            assert [r.word for r in results] == [format(i, f"0{k}b") for i in range(2**k)]
            for r in results:
                assert r.converged and r.realized == r.word, r
            assert bits(results[0].point) in closed and results[0].point.z == 0.0
            assert bits(results[-1].point) in closed

    def test_builds_no_cover(self, monkeypatch):
        def no_cover(*args, **kwargs):
            raise AssertionError("periodic words must not build a cover")

        monkeypatch.setattr(horseshoe, "build_K_enclosures", no_cover)
        monkeypatch.setattr(horseshoe, "_kept_cells", no_cover)
        results = count_periodic_words(P, OB, 4)
        assert all(r.converged for r in results)

    def test_csv_export(self):
        results = count_periodic_words(P, OB, 2)
        buf = io.StringIO()
        orbits_to_csv(results, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "word,x,y,z,residual,converged,realized"
        assert len(lines) == 5
        assert lines[1].startswith("00,")


class TestEntropyBound:
    def test_certified_gives_log_two(self):
        assert entropy_lower_bound(True) == 0.6931471805599453
        assert entropy_lower_bound(True) == math.log(2.0)

    def test_uncertified_gives_zero(self):
        assert entropy_lower_bound(False) == 0.0

    def test_three_symbol_hook(self):
        assert entropy_lower_bound(True, m=3) == math.log(3.0)
        assert entropy_lower_bound(False, m=3) == 0.0

    def test_degenerate_alphabet_rejected(self):
        with pytest.raises(ValueError):
            entropy_lower_bound(True, m=1)


@given(
    x=st.floats(0.58, 0.63),
    y=st.floats(0.34, 0.45),
    z=st.floats(0.0, 0.395),
    n=st.integers(1, 8),
)
@settings(max_examples=40, deadline=None)
def test_itinerary_symbols_match_per_step_membership(x, y, z, n):
    """Each symbol is exactly the half-box membership of that iterate."""
    it = itinerary(P, OB, State(x, y, z), n)
    mid = PAPER_BOX.z_mid
    cur = (x, y, z)
    for step, sym in enumerate(it.symbols):
        assert sym == (1 if cur[2] >= mid else 0)
        cur = eval_map_xyz(P, *cur)
        if it.exit_step == step + 1:
            assert not PAPER_BOX.contains(*cur)
            break


def _itinerary_by_point(p, b, pt, k):
    """Per-point reference: the word, or None once the orbit leaves the box
    within k symbols or the domain within k steps."""
    halves = HalfBoxes.from_oriented(OrientedBox(b))
    out = ""
    for _ in range(k):
        if not b.contains(*pt):
            return None
        out += str(halves.symbol_of(pt)[0])
        try:
            pt = eval_map_xyz(p, *pt)
        except DomainError:
            return None
    return out


def _residual_by_point(p, pt, k):
    """Per-point reference: max|F^k(s) - s|, inf once the orbit leaves the
    domain within k steps."""
    s = pt
    try:
        for _ in range(k):
            s = eval_map_xyz(p, *s)
    except DomainError:
        return math.inf
    return max(abs(a - b) for a, b in zip(s, pt))


@given(
    pts=st.lists(
        st.tuples(st.floats(0.5, 0.7), st.floats(0.3, 0.5), st.floats(-0.05, 0.45)),
        min_size=1, max_size=12,
    ),
    k=st.integers(1, MAX_WORD_LENGTH),
)
@settings(max_examples=60, deadline=None)
def test_itinerary_codes_match_per_point_itineraries(pts, k):
    mid = PAPER_BOX.z_mid
    pts = pts + [(0.6, 0.4, mid), (0.6, 0.4, PAPER_BOX.z_r)]  # a tie, a top-face point
    gaps, codes = _check_orbits(P, PAPER_BOX, pts, k)
    for pt, gap, code in zip(pts, gaps, codes):
        want = _itinerary_by_point(P, PAPER_BOX, pt, k)
        assert (format(int(code), f"0{k}b") if code >= 0 else None) == want
        assert gap == _residual_by_point(P, pt, k)


def test_itinerary_codes_drop_orbits_leaving_the_domain():
    # x + z = 0 inside a box reaching down to it: the first map step is off-domain
    b = Box(-0.1, 0.5, 0.1, 0.5, 0.0, 0.4)
    pts = [(0.0, 0.3, 0.0), (0.3, 0.3, 0.1)]
    gaps, codes = _check_orbits(P, b, pts, 1)
    want = [_itinerary_by_point(P, b, pt, 1) for pt in pts]
    assert want[0] is None and codes[0] == -1 and gaps[0] == math.inf
    assert want[1] is not None and format(int(codes[1]), "01b") == want[1]


def test_check_orbits_stop_where_a_divisor_underflows():
    # on the domain, but (x+y+z)^2 underflows to 0, so F is undefined there
    p, pt = Params(1.0, 1.0, 1.0, 1.0), (0.0, 0.0, 8.79e-197)
    gaps, codes = _check_orbits(p, Box(-1.0, 1.0, -1.0, 1.0, 0.0, 1.0), [pt], 2)
    assert gaps[0] == math.inf and codes[0] == -1
    with pytest.raises(DomainError):
        eval_map_xyz(p, *pt)


def _reference_shoot(p, halves, word):
    """One word's multiple-shooting Newton, solved alone: the per-word
    solver that the lockstep ``_shoot`` replaced, kept as its reference.
    Returns s_0, or None when an iterate leaves the map domain or the
    system is singular."""
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


def _reference_return_residual(p, s, k):
    """max|F^k(s) - s| by the scalar map; inf when the orbit leaves the
    map domain."""
    cur = s.as_tuple()
    try:
        for _ in range(k):
            cur = eval_map_xyz(p, *cur)
    except DomainError:
        return math.inf
    return max(abs(a - b) for a, b in zip(cur, s.as_tuple()))


def _hex(values):
    return tuple(float(v).hex() for v in values)


def _shot_words(k):
    return [format(i, f"0{k}b") for i in range(1, 2**k - 1)]


class TestLockstepNewton:
    """All words of one length share one Newton loop, but each must get
    the bits of its own per-word solve."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_word_matches_the_per_word_reference(self, seed):
        box = _seeded_box(seed)
        ob = OrientedBox(box)
        halves = HalfBoxes.from_oriented(ob)
        cert = certify_box(P, box)
        checked = 0
        for k in range(1, MAX_WORD_LENGTH + 1):
            for r in count_periodic_words(P, ob, k, cert=cert):
                if r.word == r.word[0] * k:
                    continue
                s0 = _reference_shoot(P, halves, r.word)
                assert _hex(r.point.as_tuple()) == _hex(s0), r.word
                want = _reference_return_residual(P, State(*s0), k)
                assert r.residual.hex() == want.hex(), r.word
                checked += 1
        assert checked == 114

    def test_one_word_stack_matches_the_reference(self):
        halves = HalfBoxes.from_oriented(OB)
        for word in ("01", "0110", "101100"):
            r = find_periodic_orbit(P, OB, word)
            assert _hex(r.point.as_tuple()) == _hex(_reference_shoot(P, halves, word))

    @pytest.mark.parametrize("k", [2, 3])
    def test_a_singular_system_fails_only_its_own_word(self, monkeypatch, k):
        # the first word's entries become (1, 0, 0, 0, 1) at the first step:
        # each block B is diag(1, 0, 1), B^k - I is singular, and so is its matrix
        real, calls = symbolic._jacobian_from_sums, []

        def singular_for_first_word(p, alpha, g, z, s, sqrt):
            entries = real(p, alpha, g, z, s, sqrt)
            if not calls:
                for e, v in zip(entries, (1.0, 0.0, 0.0, 0.0, 1.0)):
                    e[0] = v
            calls.append(z.size)
            return entries

        monkeypatch.setattr(symbolic, "_jacobian_from_sums", singular_for_first_word)
        results = count_periodic_words(P, OB, k)
        first = _shot_words(k)[0]
        assert calls[0] == k * len(_shot_words(k)) and calls[1] < calls[0]
        halves = HalfBoxes.from_oriented(OB)
        for r in results:
            if r.word == first:
                assert r.point is None and not r.converged and r.residual == math.inf
            else:
                assert r.converged, r.word
                if r.word in _shot_words(k):
                    want = _reference_shoot(P, halves, r.word)
                    assert _hex(r.point.as_tuple()) == _hex(want), r.word

    @pytest.mark.parametrize("box,k", [
        # some words step off x + z > 0 on their second Newton step, the
        # others converge in 10-12 steps
        (Box(0.0, 0.3, 0.0, 0.3, 0.0, 0.3), 3),
        (Box(0.0, 0.3, 0.0, 0.3, 0.0, 0.3), 4),
        # the nodes start far apart: three words leave the domain and
        # three stop at the 80-step cap unconverged
        (Box(0.55, 0.65, 0.3, 0.5, 0.0, 16.0), 3),
    ])
    def test_a_word_leaving_the_domain_fails_only_itself(self, box, k):
        halves = HalfBoxes.from_oriented(OrientedBox(box))
        words = _shot_words(k)
        got = _shoot(P, halves, words)
        want = [_reference_shoot(P, halves, w) for w in words]
        assert any(w is None for w in want) and any(w is not None for w in want)
        for word, s0, ref in zip(words, got, want):
            if ref is None:
                assert np.isnan(s0).all(), word
            else:
                assert _hex(s0) == _hex(ref), word

    def test_one_stacked_solve_per_newton_step(self, monkeypatch):
        # the lockstep makes as many solves as its slowest word needs steps;
        # per-word solving would make the sum of every word's steps
        real, calls = np.linalg.solve, []

        def counted(a, b):
            calls.append(a.shape)
            return real(a, b)

        monkeypatch.setattr(symbolic.np.linalg, "solve", counted)
        halves = HalfBoxes.from_oriented(OB)
        per_word = []
        for word in _shot_words(4):
            calls.clear()
            assert _reference_shoot(P, halves, word) is not None
            per_word.append(len(calls))
        calls.clear()
        results = count_periodic_words(P, OB, 4)
        assert all(r.converged for r in results)
        assert len(calls) == max(per_word) <= 80
        assert len(calls) < sum(per_word) // 4
        assert calls[0] == (len(per_word), 12, 12)
