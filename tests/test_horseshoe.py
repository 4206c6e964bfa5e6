"""Covers of the two return sets and the path-stretching checker."""
import hashlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triopoly import PAPER_BOX, PAPER_PARAMS, Box, OrientedBox, certify_box, horseshoe
from triopoly.bounds import batch_image_enclosure
from triopoly.core import (
    Params, boundary_fixed_point, eval_map_xyz, fixed_points, interior_fixed_point,
)
from triopoly.horseshoe import (
    MAX_SPLIT_DEPTH,
    RETAIN_MARGIN,
    ConvergenceError,
    PathSample,
    _centre_maps_inside,
    _excludable,
    _grid_cells,
    _split_cells_8,
    build_K_enclosures,
    check_path_stretching,
    locate_fixed_point_in,
    random_crossing_path,
    vertical_segment_path,
)
from triopoly.jsonio import dumps17

P = PAPER_PARAMS
OB = OrientedBox(PAPER_BOX)

# the reference box with the top face pulled down to 0.38, which breaks the
# top-face exit condition: nothing on it may be certified
BAD_BOX = Box(
    PAPER_BOX.x_l, PAPER_BOX.x_r, PAPER_BOX.y_l, PAPER_BOX.y_r, PAPER_BOX.z_l, 0.38
)

# vertical centre-segment crossings, frozen from a converged bisection run
VERTICAL_CROSSINGS = (
    (0.0, 0.17596809632510713),
    (0.6572265625, 0.91068101687108083),
)


def _perturbed_box(seed):
    """The paper box with its five free bounds moved by up to +-0.2 %."""
    f = 1.0 + 0.002 * np.random.default_rng(seed).uniform(-1.0, 1.0, 5)
    b = PAPER_BOX
    return b.replace(x_l=b.x_l * f[0], x_r=b.x_r * f[1], y_l=b.y_l * f[2],
                     y_r=b.y_r * f[3], z_r=b.z_r * f[4])


def _cover_digest(k):
    return hashlib.sha256(k.cells.astype("<f8").tobytes()).hexdigest()


def _reference_image_misses_box(p, cells, b):
    """The three-component rule: a cell is dropped when any coordinate of
    its image enclosure misses R, not only z."""
    out = np.empty(cells.shape[0], dtype=bool)
    for i in range(0, cells.shape[0], horseshoe._CHUNK):
        lo, hi = batch_image_enclosure(p, cells[i:i + horseshoe._CHUNK], refine=True)
        out[i:i + horseshoe._CHUNK] = (
            (hi[:, 0] < b.x_l) | (lo[:, 0] > b.x_r)
            | (hi[:, 1] < b.y_l) | (lo[:, 1] > b.y_r)
            | (hi[:, 2] < b.z_l) | (lo[:, 2] > b.z_r)
        )
    return out


def _grid_and_split(b, res):
    grid = _grid_cells(b, res, res, b.z_l, b.z_r, res)
    return grid, _split_cells_8(grid)


def _reference_excludable(p, cells, b, depth):
    """The depth-first split: every sub-cell at every depth gets its
    enclosure, and the centre is tried only on cells it leaves undecided."""
    excluded = horseshoe._image_misses_box(p, cells, b)
    if depth == 0:
        return excluded
    idx = np.flatnonzero(~excluded)
    work = idx[~horseshoe._centre_maps_inside(p, cells[idx], b)]
    if work.size == 0:
        return excluded
    child_excl = _reference_excludable(p, _split_cells_8(cells[work]), b, depth - 1)
    excluded[work] = child_excl.reshape(-1, 8).all(axis=1)
    return excluded


class TestKEnclosures:
    def test_nonempty_and_disjoint_at_res_32(self):
        k0, k1 = build_K_enclosures(P, OB, 32)
        assert not k0.is_empty and not k1.is_empty
        assert k0.is_disjoint_from(k1)
        assert k1.is_disjoint_from(k0)

    @pytest.mark.parametrize("res", [8, 16])
    def test_disjoint_at_every_resolution(self, res):
        k0, k1 = build_K_enclosures(P, OB, res)
        assert k0.is_disjoint_from(k1)

    def test_refinement_stays_inside_coarse_hull(self):
        coarse0, coarse1 = build_K_enclosures(P, OB, 8)
        fine0, fine1 = build_K_enclosures(P, OB, 16)
        for fine, coarse in ((fine0, coarse0), (fine1, coarse1)):
            h = coarse.hull
            c = fine.cells
            assert (c[:, 0] >= h.x_l).all() and (c[:, 1] <= h.x_r).all()
            assert (c[:, 2] >= h.y_l).all() and (c[:, 3] <= h.y_r).all()
            assert (c[:, 4] >= h.z_l).all() and (c[:, 5] <= h.z_r).all()

    def test_halves_separated_by_midplane(self):
        k0, k1 = build_K_enclosures(P, OB, 16)
        mid = PAPER_BOX.z_mid
        assert k0.cells[:, 5].max() <= mid
        assert k1.cells[:, 4].min() >= mid

    def test_uncertified_box_refused(self):
        with pytest.raises(ValueError, match="certif"):
            build_K_enclosures(P, OrientedBox(BAD_BOX), 8)

    @pytest.mark.parametrize("other", ["box", "params"])
    def test_certificate_of_another_box_or_params_refused(self, other):
        """The paper certificate does not vouch for a box or params whose
        own certificate fails."""
        paper_cert = certify_box(P, PAPER_BOX)
        assert paper_cert.passed
        p, b = P, PAPER_BOX
        if other == "box":
            b = PAPER_BOX.replace(x_r=PAPER_BOX.x_r * 1.3)
        else:
            p = Params(P.c1, P.c2, P.c3, 10.0)
        assert certify_box(p, b).verdict == "failed"
        with pytest.raises(ValueError, match="other params or another box"):
            build_K_enclosures(p, OrientedBox(b), 8, cert=paper_cert)
        with pytest.raises(ValueError, match="certif"):
            build_K_enclosures(p, OrientedBox(b), 8)

    @pytest.mark.parametrize("res", [1, 0, -3, 2.5])
    def test_bad_resolution_rejected(self, res):
        with pytest.raises(ValueError):
            build_K_enclosures(P, OB, res)

    def test_non_z_orientation_rejected(self):
        with pytest.raises(ValueError):
            build_K_enclosures(P, OrientedBox(PAPER_BOX, axis=0), 8)

    def test_fixed_points_are_covered(self):
        # both rest points belong to the true return sets, so every sound
        # cover at any resolution must contain them
        k0, k1 = build_K_enclosures(P, OB, 16)
        nash = interior_fixed_point(P)
        edge = boundary_fixed_point(P)
        assert k1.contains_point(*nash.as_tuple())
        assert k0.contains_point(*edge.as_tuple())
        assert not k0.contains_point(*nash.as_tuple())

    def test_volume_and_hull(self):
        k0, k1 = build_K_enclosures(P, OB, 16)
        box_volume = float(np.prod(PAPER_BOX.widths))
        for k in (k0, k1):
            assert 0 < k.volume < box_volume
            h = k.hull
            assert h.x_l >= PAPER_BOX.x_l and h.x_r <= PAPER_BOX.x_r
            assert h.y_l >= PAPER_BOX.y_l and h.y_r <= PAPER_BOX.y_r

    def test_csv_export(self):
        k0, _ = build_K_enclosures(P, OB, 8)
        buf = io.StringIO()
        k0.to_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "x_lo,x_hi,y_lo,y_hi,z_lo,z_hi"
        assert len(lines) == 1 + k0.cell_count

    def test_paper_covers_at_res_16_are_frozen(self):
        """sha256 of the little-endian cell bytes of the paper-box covers.

        Any change to the grid, the enclosures, their rounding or the split
        rule that moves a single bound of a single cell changes these.
        """
        k0, k1 = build_K_enclosures(P, OB, 16)
        digest = lambda k: hashlib.sha256(k.cells.astype("<f8").tobytes()).hexdigest()
        assert (k0.cell_count, k1.cell_count) == (870, 1359)
        assert digest(k0) == "68dd9723c07ff19a6b76014de556af5c74cc741f813db4078bf839f35a97e944"
        assert digest(k1) == "1b0e3e7502965cea55d93b3bda6feb285338d357c598f52ac35ed6d756089139"

    def test_paper_covers_at_res_32_are_frozen(self):
        k0, k1 = build_K_enclosures(P, OB, 32)
        digest = lambda k: hashlib.sha256(k.cells.astype("<f8").tobytes()).hexdigest()
        assert (k0.cell_count, k1.cell_count) == (6430, 9606)
        assert digest(k0) == "13a156f6aca2f8caf3c7cd5139e534925a582ac9b56304d112e729d0f370a4b8"
        assert digest(k1) == "2983e630cd8e58e837bc1206859178723ab4ff0e434054261a8a779c1c0860c4"

    def test_paper_covers_at_res_64_are_frozen(self):
        k0, k1 = build_K_enclosures(P, OB, 64)
        assert (k0.cell_count, k1.cell_count) == (49182, 71996)
        assert _cover_digest(k0) == "c3c0ed54204e54a4709c229a62dec421b7c009b0e6751f38d1f8d2cdd607b548"
        assert _cover_digest(k1) == "b298047a503f260ac4f8061477d987ab3c02a752582273654a0559bf751bd593"

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_level_loop_matches_the_depth_first_split(self, seed, monkeypatch):
        """Same excluded mask as the reference at every resolution and split
        depth, with no more cells sent to the enclosure."""
        b = PAPER_BOX if seed is None else _perturbed_box(seed)
        assert certify_box(P, b).passed
        sent = []
        misses = horseshoe._image_misses_box

        def counted(p, cells, box):
            sent[-1] += cells.shape[0]
            return misses(p, cells, box)

        monkeypatch.setattr(horseshoe, "_image_misses_box", counted)
        for res in range(2, 9):
            cells = _grid_cells(b, res, res, b.z_l, b.z_r, res)
            for depth in range(MAX_SPLIT_DEPTH + 1):
                sent.append(0)
                want = _reference_excludable(P, cells, b, depth)
                sent.append(0)
                got = _excludable(P, cells, b, depth)
                assert got.tolist() == want.tolist(), (res, depth)
                assert sent[-1] <= sent[-2], (res, depth)

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_z_test_matches_the_three_component_rule(self, seed, monkeypatch):
        """Testing F3 alone drops exactly the cells that the x-, y- and
        z-tests together dropped: every mask ``_excludable`` asks for, at
        res 2-8 and every split depth, and on the res-16 and res-32 grids
        and their first split."""
        b = PAPER_BOX if seed is None else _perturbed_box(seed)
        assert certify_box(P, b).passed
        misses = horseshoe._image_misses_box

        def both(p, cells, box):
            got = misses(p, cells, box)
            assert got.tolist() == _reference_image_misses_box(p, cells, box).tolist()
            return got

        monkeypatch.setattr(horseshoe, "_image_misses_box", both)
        for res in range(2, 9):
            cells = _grid_cells(b, res, res, b.z_l, b.z_r, res)
            for depth in range(MAX_SPLIT_DEPTH + 1):
                _excludable(P, cells, b, depth)
        for res in (16, 32):
            for cells in _grid_and_split(b, res):
                assert 0 < both(P, cells, b).sum() < cells.shape[0]

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_x_and_y_enclosures_never_miss_the_box(self, seed):
        """The premise of the z-only test: on a certified box, C4 and C5 keep
        the F1 and F2 enclosures of every cell of R meeting R."""
        b = PAPER_BOX if seed is None else _perturbed_box(seed)
        assert certify_box(P, b).passed
        for res in (16, 32):
            for cells in _grid_and_split(b, res):
                lo, hi = batch_image_enclosure(P, cells, refine=True)
                assert (lo[:, 0] <= b.x_r).all() and (hi[:, 0] >= b.x_l).all()
                assert (lo[:, 1] <= b.y_r).all() and (hi[:, 1] >= b.y_l).all()

    @pytest.mark.parametrize("res", [16, 32])
    def test_a_centre_kept_cell_has_an_enclosure_that_meets_the_box(self, res):
        """The centre test may run first only because it never keeps a cell
        the exclusion test would drop: the F3 enclosure that
        ``_image_misses_box`` tests meets [z_l, z_r].  The F1 and F2
        columns, which C4 and C5 keep inside R, are checked with it."""
        b = PAPER_BOX
        for z0, z1 in ((b.z_l, b.z_mid), (b.z_mid, b.z_r)):
            grid = _grid_cells(b, res, res, z0, z1, res // 2)
            for cells in (grid, _split_cells_8(grid)):
                kept = cells[_centre_maps_inside(P, cells, b)]
                lo, hi = batch_image_enclosure(P, kept, refine=True)
                assert kept.shape[0] > 0
                assert (lo[:, 0] <= b.x_r).all() and (hi[:, 0] >= b.x_l).all()
                assert (lo[:, 1] <= b.y_r).all() and (hi[:, 1] >= b.y_l).all()
                assert (lo[:, 2] <= b.z_r).all() and (hi[:, 2] >= b.z_l).all()

    @pytest.mark.parametrize("n", [(1, 1, 1), (2, 3, 5), (7, 4, 3), (16, 16, 8)])
    def test_grid_cells_in_z_y_x_order(self, n):
        nx, ny, nz = n
        b = PAPER_BOX
        got = _grid_cells(b, nx, ny, b.z_mid, b.z_r, nz)
        xe = np.linspace(b.x_l, b.x_r, nx + 1)
        ye = np.linspace(b.y_l, b.y_r, ny + 1)
        ze = np.linspace(b.z_mid, b.z_r, nz + 1)
        want = np.array([
            (xe[kx], xe[kx + 1], ye[ky], ye[ky + 1], ze[kz], ze[kz + 1])
            for kz in range(nz) for ky in range(ny) for kx in range(nx)
        ])
        assert got.shape == (nx * ny * nz, 6)
        assert got.tobytes() == want.tobytes()

    def test_centre_test_matches_per_cell_map(self):
        b = PAPER_BOX
        cells = _grid_cells(b, 12, 12, b.z_l, b.z_r, 12)
        want = []
        for row in cells:
            fx, fy, fz = eval_map_xyz(P, *(0.5 * (row[0::2] + row[1::2])))
            want.append(
                b.x_l + RETAIN_MARGIN < fx < b.x_r - RETAIN_MARGIN
                and b.y_l + RETAIN_MARGIN < fy < b.y_r - RETAIN_MARGIN
                and b.z_l + RETAIN_MARGIN < fz < b.z_r - RETAIN_MARGIN
            )
        got = _centre_maps_inside(P, cells, b)
        assert got.tolist() == want and 0 < got.sum() < got.size


class TestPathSample:
    def test_vertical_path_endpoints_on_faces(self):
        path = vertical_segment_path(OB)
        assert path.points[0][2] == PAPER_BOX.z_l
        assert path.points[-1][2] == PAPER_BOX.z_r

    def test_validation(self):
        with pytest.raises(ValueError):
            PathSample(np.array([0.0, 0.4, 0.4, 1.0]), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            PathSample(np.array([0.1, 1.0]), np.zeros((2, 3)))
        with pytest.raises(ValueError):
            PathSample(np.array([0.0, 1.0]), np.full((2, 3), np.nan))

    def test_interpolation(self):
        path = PathSample(
            np.array([0.0, 1.0]), np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 4.0]])
        )
        assert path.at(0.5) == (0.5, 1.0, 2.0)
        assert path.at(0.25)[2] == 1.0

    def test_reversed_swaps_endpoints(self):
        path = vertical_segment_path(OB)
        rev = path.reversed()
        assert rev.points[0][2] == PAPER_BOX.z_r
        assert np.allclose(rev.ts, 1.0 - path.ts[::-1])

    @given(t=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_z_interpolation_monotone_on_vertical_segment(self, t):
        path = vertical_segment_path(OB, n=16)
        z = path.at(t)[2]
        assert PAPER_BOX.z_l <= z <= PAPER_BOX.z_r

    def test_random_path_knot_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_crossing_path(OB, rng, n_knots=1)


class TestPathStretching:
    def test_vertical_centre_segment(self):
        rep = check_path_stretching(P, OB, vertical_segment_path(OB))
        assert rep.status == "ok"
        assert rep.crossing_count == 2
        assert rep.disjoint
        for got, want in zip(rep.crossings, VERTICAL_CROSSINGS):
            assert got == pytest.approx(want, abs=1e-9)

    def test_hundred_random_monotone_paths(self):
        rng = np.random.default_rng(1234)
        for _ in range(100):
            rep = check_path_stretching(P, OB, random_crossing_path(OB, rng))
            assert rep.status == "ok"
            assert rep.crossing_count == 2
            assert rep.disjoint

    def test_witness_values_are_the_image_heights(self):
        """Every witness g is F3 at its t on the walked path, on the side of
        the level it witnesses."""
        rng = np.random.default_rng(7)
        paths = [vertical_segment_path(OB), vertical_segment_path(OB).reversed()]
        paths += [random_crossing_path(OB, rng) for _ in range(5)]
        for path in paths:
            rep = check_path_stretching(P, OB, path)
            walked = path.reversed() if rep.path_reversed else path
            for w in rep.witnesses.values():
                for t, g in ((w["t_lo"], w["g_lo"]), (w["t_hi"], w["g_hi"])):
                    assert g == eval_map_xyz(P, *walked.at(t))[2]
            first, second = rep.witnesses["first"], rep.witnesses["second"]
            assert first["g_lo"] <= PAPER_BOX.z_l and first["g_hi"] >= PAPER_BOX.z_r
            assert second["g_lo"] >= PAPER_BOX.z_r and second["g_hi"] <= PAPER_BOX.z_l

    def test_two_evidence_kinds_labelled(self):
        rep = check_path_stretching(P, OB, vertical_segment_path(OB))
        assert rep.evidence["xy_containment"].startswith("certified-universal")
        assert rep.evidence["z_crossings"].startswith("sampled-witness")

    def test_refinement_does_not_change_count(self):
        path = vertical_segment_path(OB)
        rep = check_path_stretching(P, OB, path)
        # the same polyline with every segment's midpoint inserted
        ts = np.empty(2 * path.ts.size - 1)
        ts[0::2], ts[1::2] = path.ts, 0.5 * (path.ts[:-1] + path.ts[1:])
        pts = np.empty((ts.size, 3))
        pts[0::2], pts[1::2] = path.points, 0.5 * (path.points[:-1] + path.points[1:])
        rep2 = check_path_stretching(P, OB, PathSample(ts, pts))
        assert rep.crossing_count == rep2.crossing_count == 2
        for a, b in zip(rep.crossings, rep2.crossings):
            assert a == pytest.approx(b, abs=1e-6)

    def test_reversed_path_normalised(self):
        rep = check_path_stretching(P, OB, vertical_segment_path(OB).reversed())
        assert rep.path_reversed
        assert rep.status == "ok"
        for got, want in zip(rep.crossings, VERTICAL_CROSSINGS):
            assert got == pytest.approx(want, abs=1e-9)

    def test_same_face_endpoints_rejected(self):
        pts = np.array(
            [
                [0.59, 0.39, PAPER_BOX.z_l],
                [0.60, 0.40, 0.2],
                [0.61, 0.41, PAPER_BOX.z_l],
            ]
        )
        path = PathSample(np.array([0.0, 0.5, 1.0]), pts)
        with pytest.raises(ValueError, match="opposite"):
            check_path_stretching(P, OB, path)

    def test_path_leaving_box_rejected(self):
        pts = np.array(
            [
                [0.59, 0.39, PAPER_BOX.z_l],
                [0.70, 0.40, 0.2],
                [0.60, 0.40, PAPER_BOX.z_r],
            ]
        )
        path = PathSample(np.array([0.0, 0.5, 1.0]), pts)
        with pytest.raises(ValueError, match="leaves"):
            check_path_stretching(P, OB, path)

    def test_uncertified_box_refused(self):
        ob = OrientedBox(BAD_BOX)
        with pytest.raises(ValueError, match="certif"):
            check_path_stretching(P, ob, vertical_segment_path(ob))

    def test_report_json(self):
        rep = check_path_stretching(P, OB, vertical_segment_path(OB))
        d = json.loads(dumps17(rep.as_dict()))
        assert d["status"] == "ok"
        assert d["disjoint"] is True
        assert len(d["crossings"]) == 2


class TestLocateFixedPoint:
    def test_interior_point_in_upper_half(self):
        s = locate_fixed_point_in(P, OB, 1)
        nash = interior_fixed_point(P)
        assert s.as_tuple() == pytest.approx(nash.as_tuple(), abs=1e-7)
        assert s.z > PAPER_BOX.z_mid
        k0, k1 = build_K_enclosures(P, OB, 16)
        assert k1.contains_point(*s.as_tuple())

    def test_boundary_point_in_lower_half(self):
        s = locate_fixed_point_in(P, OB, 0)
        edge = boundary_fixed_point(P)
        assert s.as_tuple() == pytest.approx(edge.as_tuple(), abs=1e-7)
        assert s.z == 0.0
        assert s.z <= PAPER_BOX.z_mid
        k0, _ = build_K_enclosures(P, OB, 16)
        assert k0.contains_point(*s.as_tuple())

    @pytest.mark.parametrize("index", [0, 1])
    def test_residuals_below_tolerance(self, index):
        from triopoly.core import fixed_point_residual

        s = locate_fixed_point_in(P, OB, index)
        assert fixed_point_residual(P, s) < 1e-10

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            locate_fixed_point_in(P, OB, 2)

    @pytest.mark.parametrize("seed", [None, 0, 1, 2, 3, 4, 5])
    def test_is_a_closed_form_and_builds_no_cover(self, seed, monkeypatch):
        def no_cover(*args, **kwargs):
            raise AssertionError("locating a fixed point must not build a cover")

        monkeypatch.setattr(horseshoe, "build_K_enclosures", no_cover)
        box = PAPER_BOX if seed is None else _perturbed_box(seed)
        assert certify_box(P, box).passed
        bits = lambda s: tuple(v.hex() for v in s.as_tuple())
        closed = [bits(s) for s in fixed_points(P)]
        got = [bits(locate_fixed_point_in(P, OrientedBox(box), i)) for i in (0, 1)]
        assert got[0] in closed and got[1] in closed
        assert got[0] != got[1]

    def test_no_qualifying_member_raises_with_its_residual(self):
        from triopoly.core import fixed_point_residual

        with pytest.raises(ConvergenceError) as info:
            locate_fixed_point_in(P, OB, 1, tol=0.0)
        assert info.value.best_residual == fixed_point_residual(P, interior_fixed_point(P))

    def test_uncertified_box_refused(self):
        with pytest.raises(ValueError, match="certif"):
            locate_fixed_point_in(P, OrientedBox(BAD_BOX), 0)
