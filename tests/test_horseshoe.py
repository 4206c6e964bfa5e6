"""Covers of the two return sets and the path-stretching checker."""
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from triopoly import PAPER_BOX, PAPER_PARAMS, Box, OrientedBox, certify_box, horseshoe
from triopoly.bounds import _batch_enclosures, batch_image_enclosure
from triopoly.core import (
    Params, boundary_fixed_point, eval_map_arrays, eval_map_xyz, fixed_points,
    interior_fixed_point,
)
from triopoly.horseshoe import (
    MAX_SPLIT_DEPTH,
    RETAIN_MARGIN,
    ConvergenceError,
    PathSample,
    _excludable,
    _grid_cells,
    _grid_edges,
    _halved_edges,
    _lattice_keep,
    _sorted_unique,
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


def _cube(b, res):
    """The res^3 grid of the whole box: its cells and its ``_grid_edges``."""
    return (_grid_cells(b, res, res, b.z_l, b.z_r, res),
            _grid_edges(b, res, res, b.z_l, b.z_r, res))


def _sample_points(row):
    """A cell's centre, then its eight corners, as (x, y, z) float tuples."""
    yield tuple(0.5 * (row[0::2] + row[1::2]))
    for kx in (0, 1):
        for ky in (2, 3):
            for kz in (4, 5):
                yield row[kx], row[ky], row[kz]


def _per_cell_keep(b, cells):
    """The keep rule cell by cell on scalars: some sample point has F3
    inside [z_l, z_r] by ``RETAIN_MARGIN``; with the count kept by the
    centre."""
    def inside(x, y, z):
        return b.z_l + RETAIN_MARGIN < eval_map_xyz(P, x, y, z)[2] < b.z_r - RETAIN_MARGIN

    want, by_centre = [], 0
    for row in cells:
        points = _sample_points(row)
        centre = inside(*next(points))
        by_centre += centre
        want.append(centre or any(inside(*pt) for pt in points))
    return want, by_centre


def _reference_centre_maps_inside(p, cells, b):
    """The earlier keep rule: the centre's F1, F2 and F3 all lie inside R by
    ``RETAIN_MARGIN``."""
    fx, fy, fz = eval_map_arrays(p, *(0.5 * (cells[:, 0::2] + cells[:, 1::2])).T)
    return (
        (b.x_l + RETAIN_MARGIN < fx) & (fx < b.x_r - RETAIN_MARGIN)
        & (b.y_l + RETAIN_MARGIN < fy) & (fy < b.y_r - RETAIN_MARGIN)
        & (b.z_l + RETAIN_MARGIN < fz) & (fz < b.z_r - RETAIN_MARGIN)
    )


def _reference_excludable(p, cells, b, depth):
    """The depth-first split under the earlier centre rule: every sub-cell
    at every depth gets its enclosure, and the centre is tried only on
    cells it leaves undecided."""
    excluded = horseshoe._image_misses_box(p, cells, b)
    if depth == 0:
        return excluded
    idx = np.flatnonzero(~excluded)
    work = idx[~_reference_centre_maps_inside(p, cells[idx], b)]
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

    @pytest.mark.parametrize("seed, res, counts, digests", [
        (0, 16, (868, 1357),
         ("4a078256490939ff215cc99bffeb93fb75663cadbcabf7a94bd74313c36a8b52",
          "c859bf452daef699bfcaa588c99380922b749bac4040bdb95e1553e94fd73897")),
        (0, 32, (6414, 9594),
         ("f69a96caec6ab669daa1b93ed342864381abc247de1aad2077b000a342ef3c19",
          "7ef29cd6bbb730754838c267130439bb59117dce9107f67c8d3f1a8b05f5af5b")),
        (0, 64, (49056, 71863),
         ("e94a20c122f244baf6c778ddef9099fb7a3d1f466b5d56948249c84e0d275fff",
          "66c7ad94a4453fa7cc595c0a0a700481c00db7d2a20ebf5d82b97aa916edd49e")),
        (1, 16, (874, 1359),
         ("b181186e51e409e63fe07eabecf9377f911a17fda3b6e1559a5ec96f4bf04541",
          "c43e8b5b391e655353eddab12cdf91506a9645a71274ef58a3ef8cb01c1f79dd")),
        (1, 32, (6449, 9630),
         ("79006a0795d4eb265ea7f83c8218516ecb43922ccf4917ec71a386801b0710fa",
          "87e4ee2891105dfda50540dbe35c59ca429ceeefef9ce20babae8246f1939096")),
        (1, 64, (49315, 72146),
         ("2253ebe079350a8bd29c92c2893bb0d0f97f200430b58871055aeff5a1631415",
          "1cd6398db5b0444c12685f782c118c4869b6817836117ce1cf08427add9e5337")),
    ])
    def test_perturbed_box_covers_are_frozen(self, seed, res, counts, digests):
        """The same freeze on two boxes whose faces are not the paper's, so
        a keep rule tuned to the paper box's decision surface shows here."""
        k0, k1 = build_K_enclosures(P, OrientedBox(_perturbed_box(seed)), res)
        assert (k0.cell_count, k1.cell_count) == counts
        assert (_cover_digest(k0), _cover_digest(k1)) == digests

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_level_loop_matches_the_depth_first_split(self, seed, monkeypatch):
        """Same excluded mask as the depth-first split under the earlier
        centre rule, at every resolution and split depth, with no more cells
        sent to the enclosure."""
        b = PAPER_BOX if seed is None else _perturbed_box(seed)
        assert certify_box(P, b).passed
        sent = []
        misses = horseshoe._image_misses_box

        def counted(p, cells, box):
            sent[-1] += cells.shape[0]
            return misses(p, cells, box)

        monkeypatch.setattr(horseshoe, "_image_misses_box", counted)
        for res in range(2, 9):
            cells, edges = _cube(b, res)
            for depth in range(MAX_SPLIT_DEPTH + 1):
                sent.append(0)
                want = _reference_excludable(P, cells, b, depth)
                sent.append(0)
                got = _excludable(P, cells, b, depth, edges)
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
            cells, edges = _cube(b, res)
            for depth in range(MAX_SPLIT_DEPTH + 1):
                _excludable(P, cells, b, depth, edges)
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

    @pytest.mark.parametrize("seed", [None, 0, 1])
    def test_refined_f3_enclosure_lies_inside_the_plain_one(self, seed):
        """The premise of ``_image_misses_box``'s plain-range filter: a row
        whose plain F3 range misses [z_l, z_r] has a refined enclosure that
        misses it too, so the filter drops no row the refined test keeps."""
        b = PAPER_BOX if seed is None else _perturbed_box(seed)
        for res in (16, 32):
            for cells in _grid_and_split(b, res):
                for i in range(0, cells.shape[0], horseshoe._CHUNK):
                    chunk = cells[i:i + horseshoe._CHUNK]
                    ((lo, hi),) = _batch_enclosures(P, chunk, ("F3",), refine=False)
                    ((rlo, rhi),) = _batch_enclosures(P, chunk, ("F3",))
                    assert (lo <= rlo).all() and (rhi <= hi).all()

    def test_each_stage_sees_the_pinned_rows(self, monkeypatch):
        """The res-32 paper-box build sends each level's lattice points to
        F3 alone, the rows they leave open to the plain F3 range, and only
        the rows the plain range leaves open to the mean-value form.  The
        full map never runs.  The points are the 2 x 18 513 grid vertices
        and 2 x 16 384 centres, then 27 vertices and 8 centres for each of
        the 242 split cells.  Under the centre rule with F1 and F2, 122 776
        sub-cells were split and 72 322 rows went to the plain range."""
        seen = {"plain": 0, "refined": 0, "points": 0, "full map": 0, "split": 0}
        encl, f3, full, split = (horseshoe._batch_enclosures, horseshoe._f3_arrays,
                                 horseshoe.eval_map_arrays, horseshoe._split_cells_8)

        def counted_encl(p, cells, comps, refine=True):
            seen["refined" if refine else "plain"] += cells.shape[0]
            return encl(p, cells, comps, refine)

        def counted_f3(p, x, y, z):
            seen["points"] += x.size
            return f3(p, x, y, z)

        def counted_full(p, x, y, z, alpha=None):
            seen["full map"] += x.size
            return full(p, x, y, z, alpha)

        def counted_split(cells):
            out = split(cells)
            seen["split"] += out.shape[0]
            return out

        monkeypatch.setattr(horseshoe, "_batch_enclosures", counted_encl)
        monkeypatch.setattr(horseshoe, "_f3_arrays", counted_f3)
        monkeypatch.setattr(horseshoe, "eval_map_arrays", counted_full)
        monkeypatch.setattr(horseshoe, "_split_cells_8", counted_split)
        build_K_enclosures(P, OB, 32)
        assert seen == {"plain": 18668, "refined": 3441, "points": 78264,
                        "full map": 0, "split": 1936}

    @pytest.mark.parametrize("res", [16, 32])
    def test_a_centre_kept_cell_has_an_enclosure_that_meets_the_box(self, res):
        """The sample-point test may run first only because it never keeps a
        cell the exclusion test would drop: the F3 enclosure that
        ``_image_misses_box`` tests meets [z_l, z_r].  The F1 and F2
        columns, which C4 and C5 keep inside R, are checked with it."""
        b = PAPER_BOX
        for z0, z1 in ((b.z_l, b.z_mid), (b.z_mid, b.z_r)):
            grid = _grid_cells(b, res, res, z0, z1, res // 2)
            for cells, edges in ((grid, _grid_edges(b, res, res, z0, z1, res // 2)),
                                 (_split_cells_8(grid), _halved_edges(grid))):
                kept = cells[_lattice_keep(P, b, *edges)]
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
        """The lattice test is the per-cell scalar rule: some point, the
        centre or a corner, has F3 inside [z_l, z_r] by ``RETAIN_MARGIN``.
        On the res-12 grid, and at res 26 on the paper box and a perturbed
        one; some cells are kept by a corner alone."""
        for seed, res in ((None, 12), (None, 26), (0, 26)):
            b = PAPER_BOX if seed is None else _perturbed_box(seed)
            cells, edges = _cube(b, res)
            want, by_centre = _per_cell_keep(b, cells)
            got = _lattice_keep(P, b, *edges)
            assert got.tolist() == want and 0 < by_centre < got.sum() < got.size

    @pytest.mark.parametrize("seed", [None, 0])
    def test_split_lattice_matches_per_cell_map(self, seed):
        """Each parent's 3 x 3 x 3 lattice answers for its eight
        ``_split_cells_8`` children in their order, on parents of any size
        and place in R: the same rule cell by cell on the children."""
        b = PAPER_BOX if seed is None else _perturbed_box(seed)
        rng = np.random.default_rng(5)
        lo, hi = np.array([b.x_l, b.y_l, b.z_l]), np.array([b.x_r, b.y_r, b.z_r])
        u = np.sort(rng.uniform(0.0, 1.0, (400, 3, 2)) ** np.array([1.0, 3.0]), axis=2)
        parents = (lo[:, None] + u * (hi - lo)[:, None]).reshape(-1, 6)
        children = _split_cells_8(parents)
        xe, ye, ze = _halved_edges(parents)
        assert xe.shape == ye.shape == ze.shape == (400, 3)
        want, by_centre = _per_cell_keep(b, children)
        got = _lattice_keep(P, b, xe, ye, ze)
        assert got.tolist() == want and 0 < by_centre < got.sum() < got.size


@st.composite
def _sub_boxes(draw):
    """A box, the paper one or a perturbed one, and one cell inside it of
    any shape, flat ones included."""
    seed = draw(st.one_of(st.none(), st.integers(0, 2**16)))
    b = PAPER_BOX if seed is None else _perturbed_box(seed)
    row = []
    for lo, hi in ((b.x_l, b.x_r), (b.y_l, b.y_r), (b.z_l, b.z_r)):
        u, v = sorted((draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))))
        row += [min(lo + u * (hi - lo), hi), min(lo + v * (hi - lo), hi)]
    return b, np.array([row])


@given(case=_sub_boxes())
@settings(max_examples=300, deadline=None)
def test_a_sample_point_inside_means_the_enclosure_meets(case):
    """The premise of the sample-point keep rule, on any cell of R: when the
    float F3 of its centre or of a corner lies inside [z_l, z_r] by
    ``RETAIN_MARGIN``, the cell's refined F3 enclosure, and the point's own,
    meet [z_l, z_r], so no enclosure test could drop a cell the point keeps."""
    b, cell = case
    kept = False
    for pt in _sample_points(cell[0]):
        fz = eval_map_xyz(P, *pt)[2]
        if not b.z_l + RETAIN_MARGIN < fz < b.z_r - RETAIN_MARGIN:
            continue
        kept = True
        for box in (cell, np.repeat([pt], 2, axis=1)):
            ((lo, hi),) = _batch_enclosures(P, box, ("F3",))
            assert lo[0] <= b.z_r and hi[0] >= b.z_l, (pt, box)
    # the cell as a one-cell lattice: (1, 2) edges per axis
    edges = (cell[:, 0:2], cell[:, 2:4], cell[:, 4:6])
    assert _lattice_keep(P, b, *edges).tolist() == [kept]


def _hex(values):
    return [float(v).hex() for v in values]


@st.composite
def _paths(draw):
    """A PathSample with 2-8 knots, some segment a few ulps wide, maybe
    reversed, and parameters at its knots, at 0 and 1, just outside
    [0, 1], inside the narrow segment and anywhere in [-0.5, 1.5]."""
    inner = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                          max_size=6, unique=True))
    start = draw(st.floats(0.5, 0.99))  # 1 - t is exact here: reversal keeps it narrow
    narrow = [start]
    for _ in range(draw(st.integers(1, 4))):
        narrow.append(float(np.nextafter(narrow[-1], 1.0)))
    if draw(st.booleans()):
        inner += narrow
    ts = np.array(sorted({0.0, 1.0, *inner}))
    coord = st.floats(-10.0, 10.0, allow_subnormal=False)
    pts = draw(st.lists(st.tuples(coord, coord, coord), min_size=ts.size, max_size=ts.size))
    path = PathSample(ts, np.array(pts, dtype=float))
    if draw(st.booleans()):
        try:
            path = path.reversed()
        except ValueError:  # 1 - t rounded two knots together
            assume(False)
    special = [0.0, -0.0, 1.0, -1e-300, -1.0, float(np.nextafter(1.0, 2.0)), 2.0]
    t = draw(st.lists(st.one_of(st.sampled_from(path.ts.tolist() + narrow + special),
                                st.floats(-0.5, 1.5)), min_size=1, max_size=30))
    return path, np.array(t, dtype=float)


class TestPathSample:
    @given(case=_paths())
    @settings(max_examples=300, deadline=None)
    def test_array_interpolation_is_the_scalar_one_bit_for_bit(self, case):
        path, t = case
        cols = path.at_arrays(t)
        for k, tk in enumerate(t):
            assert _hex(c[k] for c in cols) == _hex(path.at(float(tk))), tk

    def test_at_a_knot_is_the_knot(self):
        path = random_crossing_path(OB, np.random.default_rng(3))
        for p_ in (path, path.reversed()):
            cols = p_.at_arrays(p_.ts)
            for k, (tk, pt) in enumerate(zip(p_.ts, p_.points)):
                assert p_.at(tk) == tuple(pt) == tuple(float(c[k]) for c in cols)

    def test_at_takes_and_returns_plain_floats(self):
        path = vertical_segment_path(OB)
        for t in (0.3, np.float64(0.3)):
            assert all(type(v) is float for v in path.at(t))
        assert path.at(np.float64(0.3)) == path.at(0.3)

    def test_knot_lists_are_the_knots_and_stay_out_of_repr(self):
        path = random_crossing_path(OB, np.random.default_rng(5)).reversed()
        assert "_knots" not in repr(path)
        assert path._knots == (path.ts.tolist(), *path.points.T.tolist())

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
        path = vertical_segment_path(OB)
        z = path.at(t)[2]
        assert PAPER_BOX.z_l <= z <= PAPER_BOX.z_r


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


@st.composite
def _repeated_floats(draw):
    pool = draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=8))
    pool += draw(st.sampled_from([[], [0.0, -0.0], [-0.0, 0.0]]))
    return np.array(draw(st.lists(st.sampled_from(pool), max_size=40)), dtype=float)


# sha256 of dumps17([r.as_dict() for r in reports], indent=2) for the
# vertical path, its reverse and 30 random_crossing_path draws from
# default_rng(2026), recorded before the grid samples became one array call
_FROZEN_STRETCH = {
    None: "0125c7f95c3ff91025313af3118ff8ec1ebef59d8d9f5dbf32b21f68a53f6d4e",
    0: "e5ca2a55ac925b7cfeb559b38b463df3ac899bc782281c1105725bf570e809ac",
}


class TestStretchSampling:
    @given(a=_repeated_floats())
    @settings(max_examples=200, deadline=None)
    def test_sorted_unique_is_np_unique(self, a):
        assert _hex(_sorted_unique(a.copy())) == _hex(np.unique(a))

    def test_sorted_unique_is_np_unique_on_the_real_grids(self, monkeypatch):
        seen = []

        def checked(a):
            out = _sorted_unique(a)
            assert _hex(out) == _hex(np.unique(a))
            seen.append(out.size)
            return out

        monkeypatch.setattr(horseshoe, "_sorted_unique", checked)
        rng = np.random.default_rng(11)
        paths = [vertical_segment_path(OB), vertical_segment_path(OB).reversed()]
        paths += [random_crossing_path(OB, rng) for _ in range(4)]
        for path in paths:
            assert check_path_stretching(P, OB, path).status == "ok"
        assert len(seen) == 4 * len(paths) and max(seen) > 16

    def test_one_map_call_per_grid(self, monkeypatch):
        calls, original = [], horseshoe.eval_map_arrays

        def counted(p, x, y, z, alpha=None):
            calls.append(x.size)
            return original(p, x, y, z, alpha)

        monkeypatch.setattr(horseshoe, "eval_map_arrays", counted)
        check_path_stretching(P, OB, vertical_segment_path(OB))
        assert len(calls) == 2 and min(calls) > 16

    @pytest.mark.parametrize("seed", list(_FROZEN_STRETCH))
    def test_stretch_reports_are_frozen(self, seed):
        box = PAPER_BOX if seed is None else _perturbed_box(seed)
        ob = OrientedBox(box)
        cert = certify_box(P, box)
        assert cert.passed
        rng = np.random.default_rng(2026)
        paths = [vertical_segment_path(ob), vertical_segment_path(ob).reversed()]
        paths += [random_crossing_path(ob, rng) for _ in range(30)]
        reports = [check_path_stretching(P, ob, path, cert=cert) for path in paths]
        assert all(r.status == "ok" for r in reports)
        text = dumps17([r.as_dict() for r in reports], indent=2)
        assert hashlib.sha256(text.encode()).hexdigest() == _FROZEN_STRETCH[seed]

    def test_stretching_does_not_import_numpy_ma(self):
        """``np.unique`` (and ``np.isin`` and its kin) import numpy.ma on a
        fresh process's first call, ~10 ms; the stretch check must not."""
        code = (
            "import sys\n"
            "from triopoly import PAPER_BOX, PAPER_PARAMS, OrientedBox\n"
            "from triopoly.horseshoe import check_path_stretching, vertical_segment_path\n"
            "ob = OrientedBox(PAPER_BOX)\n"
            "assert check_path_stretching(PAPER_PARAMS, ob, vertical_segment_path(ob))"
            ".status == 'ok'\n"
            "assert 'numpy.ma' not in sys.modules, 'numpy.ma was imported'\n"
        )
        src = os.path.dirname(os.path.dirname(horseshoe.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [v for v in [os.environ.get("PYTHONPATH")] if v]))
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


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
