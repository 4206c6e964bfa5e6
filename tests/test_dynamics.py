"""Exploratory-dynamics layer: orbits, exponents, stability, scans, demo."""
import hashlib
import io
import math
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from triopoly import PAPER_BOX, PAPER_PARAMS
from triopoly.core import (
    DomainError,
    Params,
    State,
    boundary_fixed_point,
    eval_jacobian,
    eval_map,
    eval_map_xyz,
    fixed_point_residual,
    interior_fixed_point,
)
from triopoly.dynamics import (
    DEFAULT_SAFETY,
    FIXED_POINT_PIN,
    BifurcationRow,
    BifurcationTable,
    CoveringIntervals,
    _critical_points,
    _policy_start,
    _scan_rows,
    bifurcation_scan,
    classify_eigenvalues,
    classify_equilibrium,
    find_covering_pair,
    logistic_sap_demo,
    lyapunov_spectrum,
    simulate,
    verify_covering,
)

P = PAPER_PARAMS

# log-moduli of the interior rest point's Jacobian eigenvalues at the reference
# parameters, frozen from an eigensolver run cross-checked against the
# characteristic polynomial (routes agreed to ~1e-14)
NASH_LOG_MODULI = (1.3197533046280245, -0.7034664209039615, -2.0790380143194307)
NASH_LARGEST_MODULUS = 3.742498006432076

# adjustment rate at which the leading real eigenvalue crosses -1, frozen
# from a 200-step bisection on the analytic Jacobian
ALPHA_FLIP = 6.642795406840346

# a start whose orbit at alpha = 9 stays bounded and carries a positive
# largest exponent (~0.225); at alpha = 8.0 exactly every bounded orbit we
# sampled settles on a periodic attractor, so the chaotic-regime anchor
# sits at 9
CHAOS_ALPHA = 9.0
CHAOS_START = State(0.63, 0.35, 0.20)


def _params_with_alpha(alpha: float) -> Params:
    return Params(P.c1, P.c2, P.c3, alpha)


# (params, start, n, transient, safety, (exponent hex, steps, escaped, note))
# for each note ``lyapunov_spectrum`` can write.  The orbit of _ESCAPE at the
# reference parameters leaves the cube (0, 0.7) at step 2 and has no Jacobian
# at step 3.  With c2 = 1e100, _OFF_MAP maps to a state whose x + z is
# ~1e-230: c2 (x + z) > 0 keeps its Jacobian defined, while (x + z)/c2
# underflows to 0, so the map leaves its domain there.
_ESCAPE, _CUBE, _WIDE = State(0.5, 0.4, 0.3), (0.0, 0.7), (-1e300, 1e300)
_OFF_MAP, _HUGE_C2 = State(1e-110, 2.0, 1e-230), Params(0.5, 1e100, 0.5, 1.0)
_NAN3 = ["nan"] * 3
_LYAPUNOV_PINS = {
    "pinned": (P, interior_fixed_point(P), 40, 0, DEFAULT_SAFETY, (
        ["0x1.51db5a424dea3p+0", "-0x1.682cc063adfa4p-1", "-0x1.0a1deade4782cp+1"], 30, False,
        "pinned at a fixed point")),
    "bounded": (_params_with_alpha(9.0), State(0.63, 0.35, 0.20), 300, 10, DEFAULT_SAFETY, (
        ["0x1.0127b9b508cd7p-2", "-0x1.5b16c121fa4a6p-1", "-0x1.12088274c1eb5p+1"], 225, False,
        "")),
    "transient-domain": (P, _ESCAPE, 10, 200, _WIDE, (
        _NAN3, 0, True, "orbit left the domain at transient step 4")),
    "transient-cube": (P, _ESCAPE, 10, 200, _CUBE, (
        _NAN3, 0, True, "orbit left the safety region at transient step 2")),
    "jacobian-at-start": (P, State(1e-110, 1e-110, 1e-110), 10, 0, DEFAULT_SAFETY, (
        _NAN3, 0, True, "Jacobian undefined at step 0; estimate is partial")),
    "jacobian-in-warmup": (P, _ESCAPE, 2000, 0, _WIDE, (
        ["0x1.1c41064e801a7p+1", "-0x1.41530856bc077p-1", "-0x1.04454ae517f47p+1"], 3, True,
        "Jacobian undefined at step 3; estimate is partial; QR warmup not reached")),
    "jacobian-after-warmup": (P, _ESCAPE, 8, 0, _WIDE, (
        ["0x1.164a3843a6710p+2", "-0x1.4668ec348417cp-1", "-0x1.a656588d5dfbdp+0"], 1, True,
        "Jacobian undefined at step 3; estimate is partial")),
    "cube-in-warmup": (P, _ESCAPE, 2000, 1, _CUBE, (
        ["0x1.bdb5340b7865dp-2", "-0x1.2c165286d0a15p-1", "-0x1.c11967ad8b9cbp+0"], 1, True,
        "orbit left the safety region at step 1; estimate is partial; QR warmup not reached")),
    "cube-after-warmup": (P, _ESCAPE, 4, 0, _CUBE, (
        ["0x1.b13a53ad7fcacp+0", "-0x1.38926af34eef4p-1", "-0x1.7e543110f713cp+1"], 1, True,
        "orbit left the safety region at step 2; estimate is partial")),
    "domain-in-warmup": (_HUGE_C2, _OFF_MAP, 2000, 0, DEFAULT_SAFETY, (
        ["0x1.e38afacef0802p+6", "0x1.28903fca635f6p+6", "0x1.440d32baafa31p+2"], 2, True,
        "orbit left the domain at step 2; estimate is partial; QR warmup not reached")),
    "domain-after-warmup": (_HUGE_C2, _OFF_MAP, 5, 0, DEFAULT_SAFETY, (
        ["0x1.e38afacef0802p+7", "0x1.29f323fa53030p+7", "-0x1.62e42fefa39efp-1"], 1, True,
        "orbit left the domain at step 2; estimate is partial")),
    "domain-after-transient": (_HUGE_C2, _OFF_MAP, 3, 1, DEFAULT_SAFETY, (
        ["0x1.e38afacef0802p+7", "0x1.29f323fa53030p+7", "-0x1.62e42fefa39efp-1"], 1, True,
        "orbit left the domain at step 1; estimate is partial")),
}


class TestSimulate:
    def test_nash_start_is_constant_orbit(self):
        fp = interior_fixed_point(P)
        rec = simulate(P, fp, 100)
        assert not rec.escaped
        assert rec.n_recorded == 100
        assert (rec.points == np.array(fp.as_tuple())).all()

    def test_boundary_fixed_point_also_pinned(self):
        fp = boundary_fixed_point(P)
        rec = simulate(P, fp, 50)
        assert not rec.escaped
        assert (rec.points[:, 2] == 0.0).all()

    def test_escape_is_data_not_exception(self):
        rec = simulate(P, State(0.6, 0.4, 0.3), 10_000)
        assert rec.escaped
        assert rec.escape_step == rec.n_recorded
        # everything recorded up to the escape is a valid finite state
        for row in rec.points:
            State(*row)

    def test_escape_during_transient_records_nothing(self):
        rec = simulate(P, State(0.6, 0.4, 0.3), 50, transient=9000)
        assert rec.escaped
        assert rec.n_recorded == 0
        assert rec.escape_step < 9000

    def test_majority_escape_at_paper_alpha(self):
        rng = np.random.default_rng(20260814)
        b = PAPER_BOX
        escapes = 0
        for _ in range(100):
            s0 = State(
                rng.uniform(b.x_l, b.x_r),
                rng.uniform(b.y_l, b.y_r),
                rng.uniform(b.z_l, b.z_r),
            )
            escapes += simulate(P, s0, 10_000).escaped
        assert escapes > 50

    def test_alpha8_orbit_near_nash_stays_bounded(self):
        p8 = _params_with_alpha(8.0)
        fp = interior_fixed_point(p8)
        rec = simulate(p8, State(fp.x + 1e-3, fp.y - 1e-3, fp.z + 1e-3), 100_000)
        assert not rec.escaped

    def test_custom_safety_region(self):
        rec = simulate(P, State(0.6, 0.4, 0.3), 10, safety=(0.0, 0.2))
        assert rec.escape_step == 0
        assert rec.n_recorded == 0

    def test_csv_round_trip(self):
        rec = simulate(P, State(0.6, 0.4, 0.3), 10_000)
        buf = io.StringIO()
        rec.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "step,x,y,z"
        assert len(lines) == 1 + rec.n_recorded
        first = lines[1].split(",")
        assert int(first[0]) == 0
        assert float(first[1]) == 0.6

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            simulate(P, State(0.6, 0.4, 0.3), -1)
        with pytest.raises(ValueError):
            simulate(P, State(0.6, 0.4, 0.3), 10, safety=(1.0, 1.0))

    @given(
        x=st.floats(0.55, 0.65),
        y=st.floats(0.3, 0.45),
        z=st.floats(0.01, 0.39),
        n=st.integers(1, 200),
    )
    @settings(max_examples=30, deadline=None)
    def test_deterministic(self, x, y, z, n):
        a = simulate(P, State(x, y, z), n)
        b = simulate(P, State(x, y, z), n)
        assert a.escape_step == b.escape_step
        assert (a.points == b.points).all()


class TestLyapunov:
    @pytest.mark.parametrize("which", ["interior", "boundary"])
    def test_fixed_point_exponents_match_eigensolver(self, which):
        fp = interior_fixed_point(P) if which == "interior" else boundary_fixed_point(P)
        ly = lyapunov_spectrum(P, fp, 10_000)
        oracle = np.sort(np.log(np.abs(np.linalg.eigvals(eval_jacobian(P, fp)))))[::-1]
        assert not ly.escaped
        assert max(abs(a - b) for a, b in zip(ly.exponents, oracle)) < 1e-6

    def test_nash_exponents_frozen_values(self):
        ly = lyapunov_spectrum(P, interior_fixed_point(P), 10_000)
        assert ly.exponents == pytest.approx(NASH_LOG_MODULI, abs=1e-9)

    def test_exponents_sorted_descending(self):
        ly = lyapunov_spectrum(_params_with_alpha(CHAOS_ALPHA), CHAOS_START, 5000,
                               transient=2000)
        assert ly.exponents[0] >= ly.exponents[1] >= ly.exponents[2]

    def test_chaotic_regime_positive_largest(self):
        ly = lyapunov_spectrum(_params_with_alpha(CHAOS_ALPHA), CHAOS_START, 20_000,
                               transient=5000)
        assert not ly.escaped
        assert 0.1 < ly.exponents[0] < 0.4

    def test_doubling_changes_estimate_below_ten_percent(self):
        p9 = _params_with_alpha(CHAOS_ALPHA)
        a = lyapunov_spectrum(p9, CHAOS_START, 20_000, transient=5000)
        b = lyapunov_spectrum(p9, CHAOS_START, 40_000, transient=5000)
        assert abs(a.exponents[0] - b.exponents[0]) < 0.1 * abs(b.exponents[0])

    def test_escape_flags_partial_estimate(self):
        ly = lyapunov_spectrum(P, State(0.6, 0.4, 0.3), 5000)
        assert ly.escaped
        assert 0 < ly.steps < 5000
        assert all(math.isfinite(v) for v in ly.exponents)
        assert "partial" in ly.note

    @pytest.mark.parametrize("case", sorted(_LYAPUNOV_PINS))
    def test_every_stop_keeps_its_bits_and_note(self, case):
        p, s0, n, transient, safety, want = _LYAPUNOV_PINS[case]
        ly = lyapunov_spectrum(p, s0, n, transient=transient, safety=safety)
        assert ([v.hex() for v in ly.exponents], ly.steps, ly.escaped, ly.note) == want

    def test_zero_qr_diagonal_logs_minus_inf_silently(self):
        """A QR diagonal entry that is exactly 0 (the tangent map at a
        nearly-zero state) logs -inf, as in the lockstep scan, without
        numpy's divide-by-zero warning.  Five steps discard the first
        factor as warm-up; three steps keep every factor."""
        p, v = Params(0.4, 0.55, 0.6, 1.5), 1e-106
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warm = lyapunov_spectrum(p, State(v, v, v), 5)
            cold = lyapunov_spectrum(p, State(v, v, v), 3)
        assert all(math.isfinite(e) for e in warm.exponents)
        assert cold.exponents[2] == -math.inf

    def test_unpacks_as_three_reals(self):
        l1, l2, l3 = lyapunov_spectrum(P, interior_fixed_point(P), 2000)
        assert l1 > 0 > l2 > l3

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            lyapunov_spectrum(P, CHAOS_START, 0)
        with pytest.raises(ValueError, match="transient"):
            lyapunov_spectrum(P, CHAOS_START, 10, transient=-1)


@pytest.mark.parametrize("safety", [(1.0, 1.0), (2.0, -2.0)])
@pytest.mark.parametrize("run", [
    lambda safety: simulate(P, CHAOS_START, 10, safety=safety),
    lambda safety: lyapunov_spectrum(P, CHAOS_START, 10, safety=safety),
    lambda safety: bifurcation_scan(P, (6.0, 6.5), 2, safety=safety),
], ids=["simulate", "lyapunov_spectrum", "bifurcation_scan"])
def test_an_empty_safety_region_is_rejected(run, safety):
    with pytest.raises(ValueError, match="safety region"):
        run(safety)


class TestClassification:
    def test_paper_params_unstable(self):
        rep = classify_equilibrium(P)
        assert rep.classification == "unstable"
        assert rep.moduli[0] == pytest.approx(NASH_LARGEST_MODULUS, abs=1e-12)
        assert rep.moduli[0] >= rep.moduli[1] >= rep.moduli[2]

    def test_flip_critical_alpha(self):
        rep = classify_equilibrium(_params_with_alpha(ALPHA_FLIP))
        assert rep.classification == "flip-critical"

    def test_stable_below_flip(self):
        rep = classify_equilibrium(_params_with_alpha(6.14))
        assert rep.classification == "stable"
        assert rep.moduli[0] < 1

    def test_scaling_spectrum_by_one_is_idempotent(self):
        rep = classify_equilibrium(P)
        ev = np.array(rep.eigenvalues) * 1.0
        assert classify_eigenvalues(ev, rep.tol) == rep.classification

    def test_neimark_sacker_tag(self):
        ev = [0.3, complex(0.6, 0.8), complex(0.6, -0.8)]
        assert classify_eigenvalues(ev) == "Neimark-Sacker-critical"

    def test_flip_takes_precedence(self):
        ev = [-1.0, complex(0.6, 0.8), complex(0.6, -0.8)]
        assert classify_eigenvalues(ev) == "flip-critical"

    def test_nonpositive_fixed_point_raises(self):
        with pytest.raises(DomainError):
            classify_equilibrium(Params(2.2, 0.2, 0.2, 17.0))

    def test_z_row_derivative_tends_to_one_from_below(self):
        # at the interior rest point the z-row diagonal is 1 - alpha*const,
        # so it climbs to 1 from below as the adjustment rate vanishes
        vals = []
        for alpha in (1.0, 1e-3, 1e-6):
            pa = _params_with_alpha(alpha)
            jac = eval_jacobian(pa, interior_fixed_point(pa))
            vals.append(jac[2, 2])
        assert all(v < 1.0 for v in vals)
        assert vals[0] < vals[1] < vals[2]
        slopes = [(1.0 - v) / a for v, a in zip(vals, (1.0, 1e-3, 1e-6))]
        assert slopes[0] == pytest.approx(slopes[2], rel=1e-9)

    def test_report_dict(self):
        d = classify_equilibrium(P).as_dict()
        assert d["classification"] == "unstable"
        assert len(d["eigenvalues"]) == 3


class TestBifurcationScan:
    def test_same_seed_identical_table(self):
        a = bifurcation_scan(P, (5.0, 9.5), 8, seed=42)
        b = bifurcation_scan(P, (5.0, 9.5), 8, seed=42)
        sa, sb = io.StringIO(), io.StringIO()
        a.to_csv(sa)
        b.to_csv(sb)
        assert sa.getvalue() == sb.getvalue()

    def test_threads_do_not_change_result(self):
        a = bifurcation_scan(P, (5.0, 9.5), 8, seed=42)
        b = bifurcation_scan(P, (5.0, 9.5), 8, seed=42, threads=4)
        assert a.rows == b.rows

    def test_degenerate_range_equals_simulate(self):
        tab = bifurcation_scan(P, (6.0, 6.0), 3, s0_policy="nash", seed=7)
        assert len(set(r.alpha for r in tab.rows)) == 1
        p6 = _params_with_alpha(6.0)
        rec = simulate(p6, interior_fixed_point(p6), 200, transient=1000)
        assert tab.rows[0].z_values == tuple(rec.points[-32:, 2])
        assert tab.rows[0] == tab.rows[1] == tab.rows[2]

    def test_escapes_recorded_scan_continues(self):
        tab = bifurcation_scan(P, (16.0, 20.0), 5, seed=1)
        assert all(r.escaped for r in tab.rows)
        assert all(math.isnan(r.lyap1) for r in tab.rows)
        assert len(tab.rows) == 5

    def test_single_to_multi_point_transition(self):
        # crossing the flip cascade: a settled orbit below the critical
        # rate, a spread-out asymptotic set with positive exponent above
        tab = bifurcation_scan(P, (5.0, 9.0), 9, seed=3)
        low = tab.rows[0]
        assert not low.escaped
        assert max(low.z_values) - min(low.z_values) < 1e-6
        assert low.lyap1 < 0
        high = tab.rows[-1]
        assert not high.escaped
        assert max(high.z_values) - min(high.z_values) > 1e-3
        assert high.lyap1 > 0

    @pytest.mark.parametrize(
        "rng,samples",
        [((0.0, 5.0), 3), ((1.0, 21.0), 3), ((3.0, 2.0), 3), ((1.0, 2.0), 1)],
    )
    def test_rejects_bad_ranges(self, rng, samples):
        with pytest.raises(ValueError):
            bifurcation_scan(P, rng, samples)

    def test_csv_shape(self):
        tab = bifurcation_scan(P, (6.0, 6.5), 2, seed=0, n_record=4)
        buf = io.StringIO()
        tab.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "alpha,escaped,lyap1,z00,z01,z02,z03"
        assert len(lines) == 3

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            bifurcation_scan(P, (5.0, 6.0), 2, s0_policy="bogus")


def _csv(table) -> str:
    buf = io.StringIO()
    table.to_csv(buf)
    return buf.getvalue()


def _one_vector_exponent(p, s0, n, safety=DEFAULT_SAFETY):
    """The largest exponent along the orbit of s0 by one tangent vector in
    scalar floats: ``lyapunov_spectrum``'s pinning, warm-up, stops and
    notes, with v <- Jv / |Jv| from e1 in place of the QR frame.  Returns
    the estimate and the note."""
    warmup = min(256, n // 4)
    lo, hi = safety
    pinned = fixed_point_residual(p, s0) < FIXED_POINT_PIN
    x, y, z = s0.x, s0.y, s0.z
    va, vb, vc = 1.0, 0.0, 0.0
    acc, seen, note = 0.0, 0, "pinned at a fixed point" if pinned else ""
    for step in range(n):
        try:
            jac = eval_jacobian(p, State(x, y, z))
        except DomainError:
            note = f"Jacobian undefined at step {step}; estimate is partial"
            break
        if step == warmup:
            acc = 0.0
        na = jac[0, 0] * va + jac[0, 1] * (vb + vc)
        nb = jac[1, 0] * (va + vc)
        nc = jac[2, 0] * (va + vb) + jac[2, 2] * vc
        r = np.hypot(np.hypot(na, nb), nc)
        with np.errstate(divide="ignore"):     # Jv = 0 logs -inf
            acc += np.log(r)
        va, vb, vc = (na / r, nb / r, nc / r) if r else (0.0, 0.0, 0.0)
        seen += 1
        if pinned:
            continue
        try:
            x, y, z = eval_map_xyz(p, x, y, z)
        except DomainError:
            note = f"orbit left the domain at step {step + 1}; estimate is partial"
            break
        if not (lo <= x <= hi and lo <= y <= hi and lo <= z <= hi):
            note = f"orbit left the safety region at step {step + 1}; estimate is partial"
            break
    used = seen - warmup if seen > warmup else seen
    if 0 < seen <= warmup:
        note = (note + "; warmup not reached").lstrip("; ")
    return (float(acc / used) if used else math.nan), note


def _recorded_orbits(p_base, alpha_range, samples, s0_policy="perturbed-nash", transient=1000,
                     n_record=200, seed=0, safety=DEFAULT_SAFETY):
    """Each sample's params and ``simulate`` record, one alpha at a time."""
    alphas = np.linspace(float(alpha_range[0]), float(alpha_range[1]), samples)
    for a, child in zip(alphas, np.random.SeedSequence(seed).spawn(samples)):
        pa = Params(p_base.c1, p_base.c2, p_base.c3, float(a))
        s0 = _policy_start(s0_policy, pa, np.random.default_rng(child))
        yield pa, simulate(pa, s0, n_record, transient=transient, safety=safety)


def _oracle_scan(p_base, alpha_range, samples, s0_policy="perturbed-nash", transient=1000,
                 n_record=200, lyap_steps=2000, seed=0, safety=DEFAULT_SAFETY):
    """The per-sample reference for the lockstep ``bifurcation_scan``:
    ``_policy_start``, ``simulate`` and ``_one_vector_exponent`` at each
    alpha in turn.  Returns the table and the note of each exponent."""
    if lyap_steps < 1:
        raise ValueError("need at least one step")
    rows, notes = [], []
    for pa, rec in _recorded_orbits(p_base, alpha_range, samples, s0_policy, transient,
                                    n_record, seed, safety):
        if rec.escaped or rec.n_recorded == 0:
            rows.append(BifurcationRow(pa.alpha, True, math.nan, ()))
            continue
        lyap1, note = _one_vector_exponent(pa, State(*rec.points[-1]), lyap_steps, safety)
        notes.append(note)
        rows.append(BifurcationRow(pa.alpha, False, lyap1,
                                   tuple(float(v) for v in rec.points[-32:, 2])))
    return BifurcationTable(tuple(rows)), notes


def _random_start(p, rng):
    return State(*rng.uniform(0.05, 0.6, 3))


def _tiny_start(p, rng):
    # below x + y + z ~ 1e-108 its cube underflows to 0, and the Jacobian
    # with it, while the map stays defined
    v = 10.0 ** -rng.uniform(100.0, 160.0)
    return State(v, v, v)


def _falling_start(p, rng):
    # y falls from 2.5 to ~1e-115 in one step: x + y + z cubed underflows
    # there, so the Jacobian is undefined while the map stays defined, and
    # the orbit stays inside the cube
    return State(1e-240, 2.5, 1e-230)


# starts by alpha for the "escapes-between-live-rows" case: the row at 8.5
# starts outside the cube and escapes in the record phase between live rows;
# the one at 10 stops 25 steps into the Lyapunov phase, where its Jacobian
# is undefined, between the row at 9.5 and the rest point pinned at 10.5
_BETWEEN_STARTS = {8.0: (0.66, 0.44, 0.38), 8.5: (0.6, 0.4, 20.0), 9.0: (0.47, 0.4, 0.29),
                   9.5: (0.67, 0.48, 0.32), 10.0: (0.63, 0.49, 0.11)}


def _between_live_rows(p, rng):
    if p.alpha in _BETWEEN_STARTS:
        return State(*_BETWEEN_STARTS[p.alpha])
    return interior_fixed_point(p)


# each case reaches the paths named in _SCAN_PATHS
_SCAN_CASES = {
    "all-escaping": dict(alpha_range=(16.0, 20.0), samples=5, transient=200, n_record=20,
                         lyap_steps=50, seed=1),
    "escape-in-warmup": dict(alpha_range=(0.5, 20.0), samples=8, transient=0, n_record=1,
                             lyap_steps=300, seed=3),
    "escape-after-warmup": dict(alpha_range=(0.5, 20.0), samples=8, transient=0, n_record=1,
                                lyap_steps=7, seed=3),
    "nash-pinned": dict(alpha_range=(5.0, 12.0), samples=6, s0_policy="nash", transient=20,
                        n_record=5, lyap_steps=50, seed=0),
    "nash-outside-safety": dict(alpha_range=(5.0, 12.0), samples=3, s0_policy="nash",
                                safety=(0.05, 0.5)),
    "callable-tight-safety": dict(alpha_range=(7.0, 10.5), samples=8, s0_policy=_random_start,
                                  transient=0, n_record=1, lyap_steps=7, seed=3,
                                  safety=(0.0, 0.7)),
    "underflow": dict(alpha_range=(0.5, 3.0), samples=8, s0_policy=_tiny_start, transient=0,
                      n_record=1, lyap_steps=5, seed=7),
    "escapes-between-live-rows": dict(alpha_range=(8.0, 10.5), samples=6,
                                      s0_policy=_between_live_rows, transient=0, n_record=5,
                                      lyap_steps=60),
    # the moving row stops at Lyapunov step 25; the pinned one runs on alone
    "pinned-outlives-a-stop": dict(alpha_range=(10.0, 10.5), samples=2,
                                   s0_policy=_between_live_rows, transient=0, n_record=5,
                                   lyap_steps=60),
    # the moving row starts outside the cube; the pinned one walks the
    # record steps alone
    "pinned-outlives-an-escape": dict(alpha_range=(8.5, 10.5), samples=2,
                                      s0_policy=_between_live_rows, transient=5, n_record=5,
                                      lyap_steps=60),
    # every start is 1e-3 off the rest point, and every orbit reaches it
    # (within 3.4e-15) by its last recorded state, where it is pinned
    "pinned-at-the-last-record": dict(alpha_range=(1.0, 6.5), samples=4),
    # tiny starts: the Jacobian is undefined at the start, the last recorded
    # state, and the map sends z to ~2 alpha / 9, inside the cube (0, 0.7)
    # below alpha ~3.15 and outside it above
    "jacobian-off-last-record-bounded": dict(alpha_range=(0.5, 2.8), samples=6,
                                             s0_policy=_tiny_start, transient=0, n_record=1,
                                             lyap_steps=20, seed=7, safety=(0.0, 0.7)),
    "jacobian-off-last-record-escaped": dict(alpha_range=(3.5, 6.0), samples=6,
                                             s0_policy=_tiny_start, transient=0, n_record=1,
                                             lyap_steps=20, seed=7, safety=(0.0, 0.7)),
    # the Jacobian is undefined at x_S = x_2, which the orbit reached by moving
    "jacobian-off-moved-last-record": dict(alpha_range=(1.0, 1.5), samples=2,
                                           s0_policy=_falling_start, transient=1, n_record=2,
                                           lyap_steps=20),
}
_SCAN_PATHS = {
    "all-escaping": {"escaped"},
    "escape-in-warmup": {"bounded", "partial", "warmup not reached", "Jacobian undefined"},
    "escape-after-warmup": {"bounded", "partial", "partial after warmup"},
    "nash-pinned": {"pinned"},
    "nash-outside-safety": {"escaped"},
    "callable-tight-safety": {"escaped", "bounded", "partial"},
    "underflow": {"bounded", "Jacobian undefined"},
    "escapes-between-live-rows": {"escaped", "bounded", "partial after warmup", "pinned"},
    "pinned-outlives-a-stop": {"bounded", "partial after warmup", "pinned"},
    "pinned-outlives-an-escape": {"escaped", "bounded", "pinned"},
    "pinned-at-the-last-record": {"bounded", "pinned"},
    "jacobian-off-last-record-bounded": {"bounded", "Jacobian undefined at x_S"},
    "jacobian-off-last-record-escaped": {"escaped", "escaped at x_S+1, Jacobian undefined at x_S"},
    "jacobian-off-moved-last-record": {"bounded", "Jacobian undefined at a moved x_S"},
}


def _paths(kw) -> set:
    """The paths the per-sample scan of the case ``kw`` takes."""
    table, notes = _oracle_scan(P, **kw)
    out = {"escaped" if r.escaped else "bounded" for r in table.rows}
    for note in notes:
        out |= {tag for tag, hit in [
            ("pinned", "pinned" in note),
            ("partial", "partial" in note),
            ("warmup not reached", "warmup not reached" in note),
            ("partial after warmup", "partial" in note and "warmup" not in note),
            ("Jacobian undefined", "Jacobian undefined" in note),
            ("Jacobian undefined at x_S", "Jacobian undefined at step 0;" in note)] if hit}
    # an orbit that records all its states, has no Jacobian at the last one,
    # x_S, and escapes next although the map is defined at x_S: its x_{S+1}
    # left the cube
    record = {key: v for key, v in kw.items() if key != "lyap_steps"}
    n_record = record.get("n_record", 200)
    for pa, rec in _recorded_orbits(P, **record):
        if rec.n_recorded == n_record and rec.escape_step == rec.transient + n_record:
            x_s = State(*rec.points[-1])
            if not _undefined(eval_map, pa, x_s) and _undefined(eval_jacobian, pa, x_s):
                out.add("escaped at x_S+1, Jacobian undefined at x_S")
        # a recorded orbit that moved into x_S, where its Jacobian is undefined
        if (not rec.escaped and rec.n_recorded >= 2 and (rec.points[-1] != rec.points[-2]).any()
                and _undefined(eval_jacobian, pa, State(*rec.points[-1]))):
            out.add("Jacobian undefined at a moved x_S")
    return out


def _undefined(f, *args) -> bool:
    try:
        f(*args)
    except DomainError:
        return True
    return False


@st.composite
def _scan_args(draw):
    lo = draw(st.floats(0.5, 20.0))
    return dict(
        alpha_range=draw(st.sampled_from([(16.0, 20.0), (0.5, 20.0),
                                          (lo, draw(st.floats(lo, 20.0)))])),
        samples=draw(st.integers(2, 8)),
        s0_policy=draw(st.sampled_from(["perturbed-nash", "nash", _random_start, _tiny_start])),
        transient=draw(st.integers(0, 40)),
        n_record=draw(st.integers(1, 40)),
        lyap_steps=draw(st.integers(1, 120)),
        seed=draw(st.integers(0, 2**32 - 1)),
        safety=draw(st.sampled_from([DEFAULT_SAFETY, (0.0, 0.7), (0.1, 0.65), (0.05, 0.5)])),
    )


class TestLockstepScan:
    """The lockstep scan against the per-sample loop it replaced."""

    @settings(max_examples=25, deadline=None)
    @given(_scan_args())
    @example(_SCAN_CASES["all-escaping"])
    @example(_SCAN_CASES["escape-in-warmup"])
    @example(_SCAN_CASES["escape-after-warmup"])
    @example(_SCAN_CASES["nash-pinned"])
    @example(_SCAN_CASES["nash-outside-safety"])
    @example(_SCAN_CASES["callable-tight-safety"])
    @example(_SCAN_CASES["underflow"])
    @example(_SCAN_CASES["escapes-between-live-rows"])
    @example(_SCAN_CASES["pinned-outlives-a-stop"])
    @example(_SCAN_CASES["pinned-outlives-an-escape"])
    @example(_SCAN_CASES["pinned-at-the-last-record"])
    @example(_SCAN_CASES["jacobian-off-last-record-bounded"])
    @example(_SCAN_CASES["jacobian-off-last-record-escaped"])
    @example(_SCAN_CASES["jacobian-off-moved-last-record"])
    def test_csv_bytes_equal_the_per_sample_scan(self, kw):
        want, _ = _oracle_scan(P, **kw)
        assert _csv(bifurcation_scan(P, **kw)) == _csv(want)

    @pytest.mark.parametrize("case", sorted(_SCAN_CASES))
    def test_cases_reach_their_paths(self, case):
        assert _paths(_SCAN_CASES[case]) >= _SCAN_PATHS[case]

    def test_rows_escape_between_live_rows_in_both_phases(self):
        # a row that leaves the arrays between two live rows with other rates
        # shifts every later row, so each row's hoisted 1 - alpha*c3 must be
        # compacted with it
        table, notes = _oracle_scan(P, **_SCAN_CASES["escapes-between-live-rows"])
        assert [r.escaped for r in table.rows] == [False, True, False, False, False, False]
        assert ["partial" in note for note in notes] == [False, False, False, True, False]

    def test_alpha_sweep_scan_bytes_are_frozen(self):
        # sha256 of the one-vector scan's CSV at the benchmark's alpha-sweep size
        tab = bifurcation_scan(P, (7, 10.5), 36, seed=12)
        assert hashlib.sha256(_csv(tab).encode()).hexdigest() == \
            "ddfce430e6143f8ba65ea64c7dad3679dbb43628a955f393075d41829e8385b0"

    def test_off_domain_start_raises_as_before(self):
        # (x+y+z)^2 underflows at the start itself: the rest-point test raises
        tiny = State(1e-170, 1e-170, 1e-170)
        with pytest.raises(DomainError):
            _oracle_scan(P, (1.0, 2.0), 2, s0_policy=tiny)
        with pytest.raises(DomainError):
            bifurcation_scan(P, (1.0, 2.0), 2, s0_policy=tiny)

    def test_lyap_steps_checked_up_front(self):
        # every row escapes in the first two scans, so no row reaches a
        # Lyapunov step; the count is still checked
        for kw in ({"alpha_range": (16.0, 20.0), "samples": 3},
                   {"alpha_range": (5.0, 12.0), "samples": 3, "s0_policy": "nash",
                    "safety": (0.05, 0.5)},
                   {"alpha_range": (6.0, 7.0), "samples": 2}):
            with pytest.raises(ValueError, match="lyap_steps"):
                bifurcation_scan(P, lyap_steps=0, **kw)

    def test_stacked_hypot_and_log_are_per_element_bit_for_bit(self):
        """The scan's rows carry the bits of the scalar reference only if
        ``np.hypot`` and ``np.log`` over an array give each element the
        bits of the call on that element alone; checked here on random
        arrays of every length up to 48, with zeros, subnormals, huge and
        non-finite values mixed in."""
        rng = np.random.default_rng(20261019)
        special = np.array([0.0, -0.0, 5e-324, 1e-310, 1e200, -1e200, 1.7e308, np.inf, np.nan])
        with np.errstate(all="ignore"):
            for m in range(1, 49):
                a = rng.normal(size=m) * 10.0 ** rng.uniform(-300, 300, m)
                b = rng.normal(size=m) * 10.0 ** rng.uniform(-300, 300, m)
                a[rng.random(m) < 0.2] = rng.choice(special)
                b[rng.random(m) < 0.2] = rng.choice(special)
                h = np.hypot(a, b)
                logs = np.log(h)
                for i in range(m):
                    assert np.hypot(a[i], b[i]).tobytes() == h[i].tobytes()
                    assert np.log(h[i]).tobytes() == logs[i].tobytes()


# the frozen full-length scans: the 36-sample alpha-sweep scan, the CLI's
# ``bifurcate`` case and the 141-sample ``triopoly bifurcate --preset paper
# --alpha-range 7,10.5 --samples 141`` sweep (key "script": it was the
# default of the sweep script that command replaced)
_FROZEN_SCANS = {
    "alpha-sweep": (P, dict(alpha_range=(7, 10.5), samples=36, seed=12)),
    "cli": (Params(0.4, 0.55, 0.6, 10.0), dict(alpha_range=(9.0, 10.5), samples=4,
                                               transient=100)),
    "script": (P, dict(alpha_range=(7.0, 10.5), samples=141)),
}


def _lyap1_masked(text: str) -> str:
    """The CSV with each finite ``lyap1`` cell replaced by ``f``."""
    lines = text.splitlines(keepends=True)
    cells = [line.split(",") for line in lines[1:]]
    return lines[0] + "".join(",".join(c[:2] + ["f" if c[2] else ""] + c[3:]) for c in cells)


def _largest_exponent(p, s, n):
    """The scan's walk from each column of the (3, m) starts ``s`` at rate
    ``p.alpha``, with no transient and one recorded state: ``n`` tangent
    steps from the start itself.  Every row must stay unescaped."""
    escaped, lyap1, _ = _scan_rows(p, np.full(s.shape[1], p.alpha), s, 0, 1, n, *DEFAULT_SAFETY)
    assert not escaped.any()
    return lyap1


class TestOneVectorExponent:
    """The one-vector largest exponent against the QR frame it replaced."""

    @pytest.mark.parametrize("case,digest", [
        ("alpha-sweep", "84fbe230a5e260ccdcf936d576ddc689a4c31cb27d0df10b44c001456126ceb8"),
        ("cli", "ca068ef346730bc3a74ec1266146d32cd83e186b8b99e04b2cf29bc1d826f151"),
        ("script", "44baf88fa1a107b3b9f5673a9ffacee4dffdc1ed7509fa292b8c6325d3110145"),
    ])
    def test_scans_keep_the_qr_bytes_outside_lyap1(self, case, digest):
        # sha256 with finite lyap1 masked, recorded with the QR-frame scan:
        # escape flags, z tails and non-finite cells did not move
        p, kw = _FROZEN_SCANS[case]
        masked = _lyap1_masked(_csv(bifurcation_scan(p, **kw)))
        assert hashlib.sha256(masked.encode()).hexdigest() == digest

    @pytest.mark.parametrize("case,near_tie", [
        ("alpha-sweep", (8.5,)), ("cli", ()), ("script", (8.5, 9.525))])
    def test_lyap1_is_the_top_qr_exponent_or_a_near_tie(self, case, near_tie):
        """Each finite lyap1 lies within 1e-12 of the QR frame's top
        exponent, except on a row whose top two QR exponents lie within
        2e-3: there the tangent vector may settle on either, and here it
        lies within 1e-12 of the second.  Those rows sit on stable cycles
        whose dominant multipliers are a complex pair."""
        p, kw = _FROZEN_SCANS[case]
        ties = []
        tab = bifurcation_scan(p, **kw)
        for row, (pa, rec) in zip(tab.rows, _recorded_orbits(p, **kw)):
            if row.escaped:
                assert math.isnan(row.lyap1)
                continue
            top, second, _ = lyapunov_spectrum(pa, State(*rec.points[-1]), 2000).exponents
            if abs(row.lyap1 - top) <= 1e-12:
                continue
            assert top - second < 2e-3 and abs(row.lyap1 - second) <= 1e-12, row.alpha
            ties.append(row.alpha)
        assert tuple(ties) == near_tie

    def test_pinned_rest_point_rows_give_the_dominant_log_modulus(self):
        # at the rest point J is constant, so v aligns with its dominant
        # eigenvector and the average misses log max|eig| by O(1/n)
        lyap_steps = 2000
        tab = bifurcation_scan(P, (0.5, 20.0), 40, s0_policy="nash", lyap_steps=lyap_steps)
        for row in tab.rows:
            pa = Params(P.c1, P.c2, P.c3, row.alpha)
            eig = np.linalg.eigvals(eval_jacobian(pa, interior_fixed_point(pa)))
            assert not row.escaped
            assert abs(row.lyap1 - math.log(np.max(np.abs(eig)))) <= 5.0 / lyap_steps, row.alpha

    def test_huge_entries_do_not_overflow_the_norm(self):
        # x + z = 1e-320 makes dF2/dx ~ 1e160 at the start, whose square
        # overflows to inf; hypot does not.  Three steps leave no warm-up, so
        # the estimate is the QR frame's first column, one of its exponents
        p = Params(0.4, 0.55, 0.6, 10.0)
        s = State(1e-320, 0.5, 0.0)
        assert eval_jacobian(p, s)[1, 0] > math.sqrt(sys.float_info.max)
        got = _largest_exponent(p, np.array([s.as_tuple()]).T, 3)[0]
        qr = lyapunov_spectrum(p, s, 3).exponents
        assert math.isfinite(got) and min(abs(e - got) for e in qr) <= 1e-12

    def test_an_annihilated_vector_gives_minus_inf_not_nan(self):
        # c1 q = 1, c2 d = 1/4 and z = 0 make J e1 exactly 0 at the start;
        # the vector stays 0 through the warm-up reset, and the row beside it
        # keeps its own estimate
        p = Params(0.5, 0.25, 0.6, 3.0)
        zero, other = State(1.0, 1.0, 0.0), State(0.3, 0.3, 0.3)
        assert not eval_jacobian(p, zero)[:, 0].any()
        s = np.array([zero.as_tuple(), other.as_tuple()]).T
        with np.errstate(all="ignore"):
            got = _largest_exponent(p, s, 40)
            alone = _largest_exponent(p, s[:, 1:], 40)
        assert got[0] == -math.inf
        assert got[1:].tobytes() == alone.tobytes()
        assert alone[0] == _one_vector_exponent(p, other, 40)[0]


class TestLogisticDemo:
    def test_mu_45_first_iterate_certificate(self):
        rep = logistic_sap_demo(4.5)
        assert rep.first is not None
        assert rep.first.verified
        # preimages of the unit interval under the two monotone branches
        assert rep.first.i0[0] == 0.0
        assert rep.first.i0[1] == pytest.approx(1 / 3, abs=1e-12)
        assert rep.first.i1[0] == pytest.approx(2 / 3, abs=1e-12)
        assert rep.first.i1[1] == 1.0

    def test_mu_388_second_iterate_certificate(self):
        rep = logistic_sap_demo(3.88)
        assert rep.first is None
        assert rep.second is not None
        assert rep.second.verified
        got = rep.second.i0 + rep.second.i1
        oracle = (
            0.22533583649891586,
            0.44716457185363967,
            0.5528354281463601,
            0.774664163501084,
        )
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_mu_2_no_certificates(self):
        rep = logistic_sap_demo(2.0)
        assert rep.first is None
        assert rep.second is None

    def test_mu_4_exactly_has_no_first_iterate_pair(self):
        # the hump only reaches 1, so the two preimage intervals share the
        # peak point; the exact-arithmetic endpoint check must reject the
        # float plateau around it
        rep = logistic_sap_demo(4.0)
        assert rep.first is None

    def test_verifier_rejects_tampering(self):
        cert = logistic_sap_demo(3.88).second
        widened = replace(cert, i0=(cert.i0[0], cert.i1[0] + 1e-3))
        assert not verify_covering(3.88, widened)
        shifted = replace(cert, hull=(cert.hull[0] - 0.2, cert.hull[1] + 0.2))
        assert not verify_covering(3.88, shifted)

    def test_report_json_shape(self):
        d = logistic_sap_demo(3.88).as_dict()
        assert d["kind"] == "logistic-covering-demo"
        assert d["first_iterate"] is None
        assert d["second_iterate"]["iterate"] == 2
        assert d["second_iterate"]["verified"] is True

    def test_mu_validation(self):
        with pytest.raises(ValueError):
            logistic_sap_demo(0.0)
        with pytest.raises(ValueError):
            find_covering_pair(1.0, 0)

    @pytest.mark.parametrize("mu", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_mu_must_be_finite_and_positive(self, mu):
        for call in (lambda: logistic_sap_demo(mu), lambda: find_covering_pair(mu, 2)):
            with pytest.raises(ValueError, match="mu must be a finite positive number"):
                call()

    def test_covering_needs_only_bracketing_endpoints(self):
        # i0 contains the critical point of f^2 where f(x) = 1/2, so f^2 is
        # not monotone on it; its endpoint images still bracket the hull,
        # which by the intermediate value theorem is all a covering needs
        mu = 3.88
        crit = 0.5 - math.sqrt(0.25 - 0.5 / mu)
        cert = CoveringIntervals(mu=mu, iterate=2, i0=(0.14, 0.49), i1=(0.51, 0.8),
                                 hull=(0.14, 0.85), verified=False)
        assert cert.i0[0] < crit < cert.i0[1]
        assert verify_covering(mu, cert)
        # both endpoint images of i0 above the hull: nothing brackets it
        assert not verify_covering(mu, replace(cert, i0=(0.14, 0.2)))

    def test_critical_points_are_preimages_of_one_half(self):
        mu = 3.88
        r = math.sqrt(0.25 - 0.5 / mu)
        assert _critical_points(mu, 1) == [0.5]
        assert _critical_points(mu, 2) == [0.5 - r, 0.5, 0.5 + r]
        # the hump of f stays below 1/2 for mu < 2: no second-level preimages
        assert _critical_points(1.5, 2) == [0.5]

    def test_covering_pairs_are_frozen(self):
        # sha256 of every pair (or None) of the first three iterates on a mu
        # grid, recorded before the branch rule took one pair of target ends
        h = hashlib.sha256()
        for mu in np.linspace(3.4, 4.6, 121):
            for m in (1, 2, 3):
                h.update(repr(find_covering_pair(float(mu), m)).encode())
        assert h.hexdigest() == "29f894d5bd1cde19c0e6587c2ce80d011ab86959ec1770db0a0c72649388b4f7"

    @given(mu=st.floats(0.5, 4.5), m=st.integers(1, 2))
    @settings(max_examples=20, deadline=None)
    def test_any_found_pair_verifies(self, mu, m):
        cert = find_covering_pair(mu, m)
        if cert is None:
            return
        assert cert.verified
        assert cert.i0[1] < cert.i1[0]
        assert cert.hull[0] <= cert.i0[0] and cert.i1[1] <= cert.hull[1]
