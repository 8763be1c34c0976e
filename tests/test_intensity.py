import math
import sys
import tracemalloc
import types
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.special import ndtr

from stpp import core, intensity
from stpp.bandwidth import select_bandwidth_temporal
from stpp.core import (
    GridSpec,
    PolygonMask,
    SpaceTimePattern,
    SpatialPattern,
    TemporalPattern,
    Window,
    project,
    substream,
)
from stpp.intensity import (
    KernelSpec,
    _spatial_corrections,
    estimate_lambda_s,
    estimate_lambda_st,
    estimate_lambda_t,
    temporal_corrections,
    voronoi_intensity,
)
from stpp.simulate import simulate_poisson, thin

UNIT = Window((0, 1), (0, 1), (0, 1))
POLYGON = Window(
    (0, 1), (0, 1), (0, 1), PolygonMask([(0.05, 0.0), (1.0, 0.1), (0.9, 1.0), (0.0, 0.85)])
)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(0.0)
    with pytest.raises(ValueError):
        KernelSpec(-1.0)


def spatial_correction(center, b, window=UNIT):
    """Diggle correction of one point by quadrature on a 256 x 256 grid."""
    grid = GridSpec.spatial(window, 256, 256)
    return _spatial_corrections(np.array([center], float), grid, window.raster(grid), b)[0]


class TestDiggleCorrection:
    def test_deep_interior_is_one(self):
        assert spatial_correction((0.5, 0.5), 0.05) == pytest.approx(1.0, abs=1e-6)

    def test_edge_midpoint_is_half(self):
        assert spatial_correction((0.0, 0.5), 0.02) == pytest.approx(0.5, abs=1e-3)

    def test_corner_is_quarter(self):
        assert spatial_correction((0.0, 0.0), 0.02) == pytest.approx(0.25, abs=1e-3)

    def test_temporal_interval_mass(self):
        e = temporal_corrections([0.5, 0.0], UNIT, 0.01)
        np.testing.assert_allclose(e, [1.0, 0.5], rtol=0, atol=1e-9)


def assert_ndtr_equals_scipy(x):
    got, want = intensity._ndtr(x), ndtr(x)
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(want))


class TestNdtr:
    """``intensity._ndtr`` against its oracle, ``scipy.special.ndtr``, with ``==``."""

    def test_random(self):
        rng = substream(40, 0)
        assert_ndtr_equals_scipy(rng.uniform(-50.0, 50.0, 10**6))
        assert_ndtr_equals_scipy(rng.uniform(-12.0, 12.0, 10**6))

    def test_branch_edges_and_their_neighbours(self):
        # |x| = 1/sqrt(2), erfc's 1 and 8, exp's underflow, and z = 6, above
        # which the upper tail skips exp
        edges = np.array([1.0, 2.0, 128.0, 2 * intensity._MAXLOG, 72.0]) ** 0.5
        edges = np.concatenate([edges, -edges])
        near = [edges]
        for direction in (np.inf, -np.inf):
            x = edges
            for _ in range(64):
                x = np.nextafter(x, direction)
                near.append(x)
        assert_ndtr_equals_scipy(np.concatenate(near))

    def test_special_values(self):
        x = np.array([0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan])
        assert_ndtr_equals_scipy(x)

    def test_temporal_corrections_match_scipy_formula(self):
        # a decade of catalogue-like times: uniform background plus
        # aftershock clusters with exponential lags, at the Sheather-Jones
        # bandwidth and at multiples of it
        rng = substream(41, 0)
        window = Window((0, 1), (0, 1), (0.0, 3650.0))
        parents = rng.uniform(0.0, 3650.0, 200)
        t = np.concatenate([
            rng.uniform(0.0, 3650.0, 60_000),
            np.repeat(parents, 200) + rng.exponential(5.0, 40_000),
        ])
        t = t[t < 3650.0]
        lo, hi = window.t_range
        h = select_bandwidth_temporal(t)
        for b in h * np.array([0.01, 0.1, 1.0, 10.0, 100.0]):
            got = temporal_corrections(t, window, b)
            assert np.array_equal(got, ndtr((hi - t) / b) - ndtr((lo - t) / b))


class TestLambdaS:
    def test_single_point_unit_mass(self):
        pat = SpatialPattern([(0.5, 0.5)], UNIT)
        est = estimate_lambda_s(pat, KernelSpec(0.03))
        assert est.integrate() == pytest.approx(1.0, abs=1e-3)

    def test_campbell_mass(self):
        pat, _ = project(simulate_poisson(2000, UNIT, 0))
        est = estimate_lambda_s(pat, KernelSpec(0.05))
        assert est.integrate() == pytest.approx(len(pat), rel=1e-3)

    def test_homogeneous_field_mean(self):
        pat, _ = project(simulate_poisson(2000, UNIT, 1))
        est = estimate_lambda_s(pat, KernelSpec(0.05))
        mean = est.values.mean()
        assert mean == pytest.approx(len(pat), rel=0.05)

    def test_empty_pattern_warns_zero_field(self):
        pat = SpatialPattern(np.empty((0, 2)), UNIT)
        with pytest.warns(UserWarning):
            est = estimate_lambda_s(pat, KernelSpec(0.05))
        assert est.integrate() == 0.0 and not est.values.any()

    def test_masked_window_campbell(self):
        mask = PolygonMask([(0, 0), (1, 0), (1, 1)])
        w = Window((0, 1), (0, 1), (0, 1), mask)
        rng = substream(5, 0)
        pts = []
        while len(pts) < 300:
            cand = rng.uniform(size=2)
            if cand[0] >= cand[1]:
                pts.append(cand)
        pat = SpatialPattern(np.array(pts), w)
        est = estimate_lambda_s(pat, KernelSpec(0.07))
        assert est.integrate() == pytest.approx(300, rel=5e-3)

    def test_unresolvable_bandwidth_rejected(self):
        pat = SpatialPattern([(0.5, 0.5)], UNIT)
        with pytest.raises(ValueError, match="grid step"):
            estimate_lambda_s(pat, KernelSpec(1e-4), GridSpec.spatial(UNIT, 64, 64))

    def test_reflection_symmetry(self):
        pts = np.array([(0.2, 0.3), (0.7, 0.6), (0.4, 0.9)])
        est = estimate_lambda_s(SpatialPattern(pts, UNIT), KernelSpec(0.06),
                                GridSpec.spatial(UNIT, 64, 64))
        est_r = estimate_lambda_s(SpatialPattern(1.0 - pts, UNIT), KernelSpec(0.06),
                                  GridSpec.spatial(UNIT, 64, 64))
        assert np.allclose(est.values, est_r.values[::-1, ::-1])


class TestLambdaT:
    def test_single_time_unit_mass(self):
        pat = TemporalPattern([0.5], UNIT)
        est = estimate_lambda_t(pat, KernelSpec(0.02))
        assert est.integrate() == pytest.approx(1.0, abs=1e-6)

    def test_campbell_mass(self):
        _, pat = project(simulate_poisson(2000, UNIT, 2))
        est = estimate_lambda_t(pat, KernelSpec(0.02))
        assert est.integrate() == pytest.approx(len(pat), rel=1e-3)

    def test_two_separated_bumps(self):
        pat = TemporalPattern([0.25, 0.75], UNIT)
        est = estimate_lambda_t(pat, KernelSpec(0.01))
        ts = est.grid.centers(0)
        mid = est.values[np.abs(ts - 0.5) < 0.05]
        assert mid.max() < 1e-6
        left = est.values[ts < 0.5].sum() * est.grid.cell_volume
        assert left == pytest.approx(1.0, abs=1e-4)


class TestLambdaST:
    def test_single_point_product_kernel(self):
        pat = simulate_poisson(0.0, UNIT, 0)
        pat_one = pat.__class__([(0.5, 0.5, 0.5)], UNIT)
        grid = GridSpec.spacetime(UNIT, 32, 32, 50)
        est = estimate_lambda_st(pat_one, KernelSpec(0.05), KernelSpec(0.05), grid)
        assert est.integrate() == pytest.approx(1.0, rel=1e-3)
        peak = np.unravel_index(np.argmax(est.values), grid.shape)
        xs, ys, ts = grid.centers(0), grid.centers(1), grid.centers(2)
        assert abs(xs[peak[0]] - 0.5) < 0.05
        assert abs(ys[peak[1]] - 0.5) < 0.05
        assert abs(ts[peak[2]] - 0.5) < 0.05

    def test_campbell_mass_3d(self):
        pat = simulate_poisson(1500, UNIT, 3)
        est = estimate_lambda_st(pat, KernelSpec(0.05), KernelSpec(0.02),
                                 GridSpec.spacetime(UNIT, 48, 48, 200))
        assert est.integrate() == pytest.approx(len(pat), rel=5e-3)

    def test_retention_correction_recovers_parent_intensity(self):
        # mid-window cells sit > 3 bandwidths from every boundary, where the
        # Diggle inflation factor is below 1%
        parent_lam = 2000.0
        means = []
        for s in range(200):
            pat = simulate_poisson(parent_lam, UNIT, substream(s, 1))
            sub = thin(pat, 0.025, substream(s, 2))
            if len(sub) < 5:
                continue
            est = estimate_lambda_st(
                sub, KernelSpec(0.1), KernelSpec(0.1),
                GridSpec.spacetime(UNIT, 24, 24, 40),
                pi0=0.025,
            )
            v = est.values
            means.append(v[8:16, 8:16, 14:26].mean())
        assert np.mean(means) == pytest.approx(parent_lam, rel=0.10)

    @pytest.mark.parametrize("pi0", [0.0, -0.1, 1.5, float("nan")])
    def test_retention_outside_unit_interval_rejected(self, pi0):
        # rejected before any work: pi0 = 0 would divide the field by zero
        pat = simulate_poisson(100, UNIT, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^pi0 must be in \(0, 1\]"):
                estimate_lambda_st(pat, KernelSpec(0.1), KernelSpec(0.1),
                                   GridSpec.spacetime(UNIT, 8, 8, 8), pi0=pi0)

    def test_memory_cap(self, monkeypatch):
        monkeypatch.setattr(intensity, "_MEMORY_CAP_MB", 1.0)
        pat = simulate_poisson(100, UNIT, 0)
        with pytest.raises(MemoryError, match="coarser"):
            estimate_lambda_st(pat, KernelSpec(0.05), KernelSpec(0.02),
                               GridSpec.spacetime(UNIT, 64, 64, 250))


class TestThinningMonotonicity:
    def test_expected_field_scales_with_retention(self):
        # ratio of thinned to parent field means approximates pi0
        pi0 = 0.3
        ratios = []
        for s in range(100):
            pat = simulate_poisson(800, UNIT, substream(s, 3))
            sub = thin(pat, pi0, substream(s, 4))
            sp_full, _ = project(pat)
            sp_sub, _ = project(sub)
            grid = GridSpec.spatial(UNIT, 32, 32)
            f_full = estimate_lambda_s(sp_full, KernelSpec(0.1), grid)
            f_sub = estimate_lambda_s(sp_sub, KernelSpec(0.1), grid)
            ratios.append(f_sub.values.mean() / f_full.values.mean())
        se = np.std(ratios) / np.sqrt(len(ratios))
        assert abs(np.mean(ratios) - pi0) < 3 * se


def oracle_voronoi(pattern, resolution):
    """Reference raster: every in-mask cell centre in one k-d tree query."""
    window = pattern.window
    grid = GridSpec.spatial(window, resolution, resolution)
    mask = window.raster(grid)
    if mask is None:
        mask = np.ones(grid.shape, dtype=bool)
    gx, gy = np.meshgrid(grid.centers(0), grid.centers(1), indexing="ij")
    _, owner = cKDTree(pattern.points).query(np.column_stack([gx[mask], gy[mask]]), workers=-1)
    areas = np.bincount(owner, minlength=len(pattern)) * grid.cell_volume
    with np.errstate(divide="ignore"):
        values = 1.0 / areas
    field = np.zeros(grid.shape)
    field[mask] = values[owner]
    assignment = np.full(grid.shape, -1, dtype=np.int64)
    assignment[mask] = owner
    return areas, values, field, assignment, mask


# leaves whole raster rows (x < 0.3, x > 0.7) outside the mask
TRIANGLE = Window((0, 1), (0, 1), (0, 1), PolygonMask([(0.3, 0.2), (0.7, 0.2), (0.5, 0.8)]))


class TestVoronoi:
    @pytest.mark.parametrize(
        "window", [UNIT, POLYGON, TRIANGLE], ids=["rectangle", "polygon", "triangle"]
    )
    @pytest.mark.parametrize("block", [1, 200, 1 << 20])
    def test_row_blocks_match_single_query(self, monkeypatch, window, block):
        monkeypatch.setattr(core, "_BLOCK_BYTES", core._RASTER_CELL_BYTES * block)
        rng = substream(3, 9)
        xy = rng.uniform(size=(400, 2))
        # 400 uniform points plus generators on every 8th cell centre of
        # the 64-cell raster; at any row block size the owners, areas and
        # field equal one query over the whole raster.  No raster centre
        # has two equally near generators here: TestNearestOwners has ties
        lattice = (np.arange(0, 64, 8) + 0.5) / 64
        xy = np.vstack([xy, np.column_stack([np.repeat(lattice, 8), np.tile(lattice, 8)])])
        pat = SpatialPattern(xy[window.contains_xy(xy)], window)
        for resolution in (64, 67):
            est, cells = voronoi_intensity(pat, resolution=resolution)
            areas, values, field, assignment, mask = oracle_voronoi(pat, resolution)
            assert np.array_equal(cells.areas, areas)
            assert np.array_equal(cells.values, values)
            assert np.array_equal(cells.assignment, assignment)
            assert np.array_equal(cells.raster_mask, mask)
            assert np.array_equal(est.field.values.view(np.int64), field.view(np.int64))
            assert np.array_equal(est.field.mask, mask)
            assert (cells.assignment[mask] >= 0).all() and (cells.assignment[~mask] == -1).all()
            if window is not UNIT:
                assert not mask.all()

    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    @pytest.mark.parametrize("block", [7, 120])
    def test_counts_by_row_block_are_exact(self, monkeypatch, window, block):
        # blocks of one and of two rows of the 53-row raster, the last
        # block short; a clump of 20 points within 1e-3 of a centre leaves
        # most of them no raster cell
        monkeypatch.setattr(core, "_BLOCK_BYTES", core._RASTER_CELL_BYTES * block)
        rng = substream(4, 2)
        xy = rng.uniform(size=(300, 2))
        xy = np.vstack([xy, 0.5 + rng.uniform(-1e-3, 1e-3, size=(20, 2))])
        pat = SpatialPattern(xy[window.contains_xy(xy)], window)
        est, cells = voronoi_intensity(pat, resolution=53)
        mask = cells.raster_mask
        assert cells.assignment.dtype == np.int32
        assert (cells.assignment[~mask] == -1).all() and (cells.assignment[mask] >= 0).all()
        counts = np.bincount(cells.assignment[mask], minlength=len(pat))
        assert np.array_equal(cells.areas, counts * cells.grid.cell_volume)
        assert (counts == 0).sum() >= 10 and np.isinf(cells.values[counts == 0]).all()
        # the field is built on first access, as the whole-grid lookup
        assert "field" not in vars(est)
        field = cells.values[cells.assignment]
        field[~mask] = 0.0
        assert np.array_equal(est.field.values.view(np.int64), field.view(np.int64))
        assert est.field is est.field and np.array_equal(est.field.mask, mask)

    def test_areas_hold_one_block_not_the_grid(self, monkeypatch):
        # a 3000 x 3000 raster on one thread: the areas need one block's
        # scratch and a few vectors per generator, not the int32 owner grid
        # and the boolean mask (5 bytes a cell, 45 MB here)
        monkeypatch.setattr(core.os, "cpu_count", lambda: 1)
        pat = SpatialPattern(substream(9, 4).uniform(size=(20000, 2)), UNIT)
        tracemalloc.start()
        try:
            est, cells = voronoi_intensity(pat, resolution=3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * core._BLOCK_BYTES + 64 * len(pat)
        areas, values, field, assignment, mask = oracle_voronoi(pat, 3000)
        assert np.array_equal(cells.areas, areas) and np.array_equal(cells.values, values)
        assert np.array_equal(cells.assignment, assignment)
        assert np.array_equal(cells.raster_mask, mask)
        assert np.array_equal(est.field.values.view(np.int64), field.view(np.int64))

    def test_single_point_is_uniform(self):
        pat = SpatialPattern([(0.4, 0.6)], UNIT)
        est, cells = voronoi_intensity(pat)
        assert cells.areas[0] == pytest.approx(1.0)
        assert np.allclose(est.field.values, 1.0)

    def test_partition_identity(self):
        pat, _ = project(simulate_poisson(300, UNIT, 4))
        est, cells = voronoi_intensity(pat)
        assert cells.areas.sum() == pytest.approx(1.0, rel=1e-9)
        assert est.field.integrate() == pytest.approx(len(pat), rel=5e-3)

    def test_median_cell_value_near_truth(self):
        lam = 500.0
        medians = []
        for s in range(50):
            pat, _ = project(simulate_poisson(lam, UNIT, substream(s, 5)))
            _, cells = voronoi_intensity(pat)
            medians.append(np.median(cells.values[np.isfinite(cells.values)]))
        assert abs(np.median(medians) - lam) / lam < 0.25

    def test_needs_a_point(self):
        with pytest.raises(ValueError):
            voronoi_intensity(SpatialPattern(np.empty((0, 2)), UNIT))


def tie_generators(window, near_pairs=0):
    """An 8 x 8 lattice on every 8th centre of the 64-cell raster plus 300
    uniform points on the right half, inside ``window``.  On the 64-cell
    raster the left half's centres midway between lattice points are exact
    ties (413 in the unit square); ``near_pairs`` of the uniform points get
    a twin within 1e-9."""
    rng = substream(3, 9)
    xy = rng.uniform(size=(300, 2)) * [0.5, 1.0] + [0.5, 0.0]
    twins = xy[:near_pairs] + rng.uniform(-7e-10, 7e-10, size=(near_pairs, 2))
    lattice = (np.arange(0, 64, 8) + 0.5) / 64
    grid = np.column_stack([np.repeat(lattice, 8), np.tile(lattice, 8)])
    xy = np.vstack([xy, twins, grid])
    return SpatialPattern(xy[window.contains_xy(xy)], window)


def first_generators(window, n):
    """The first ``n`` of a seeded uniform stream that fall inside ``window``."""
    xy = substream(5, n).uniform(size=(400, 2))
    return SpatialPattern(xy[window.contains_xy(xy)][:n], window)


def assert_voronoi_matches_oracle(pattern, resolution):
    est, cells = voronoi_intensity(pattern, resolution=resolution)
    areas, values, field, assignment, mask = oracle_voronoi(pattern, resolution)
    assert np.array_equal(cells.assignment, assignment)
    assert np.array_equal(cells.areas, areas)
    assert np.array_equal(cells.values, values)
    assert np.array_equal(cells.raster_mask, mask)
    assert np.array_equal(est.field.values.view(np.int64), field.view(np.int64))
    return cells


class QueryLog(cKDTree):
    """k-d tree that keeps the k and the points of every query."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.log = []

    def query(self, x, k=1, **kwargs):
        self.log.append((k, np.array(x)))
        return super().query(x, k=k, **kwargs)


class TestNearestOwners:
    """``core._nearest_owners`` against one k-d tree query per cell centre."""

    WINDOWS = pytest.mark.parametrize(
        "window", [UNIT, POLYGON, TRIANGLE], ids=["rectangle", "polygon", "triangle"]
    )

    @WINDOWS
    @pytest.mark.parametrize("candidates", sorted({1, 2, core._TILE_CANDIDATES, 16}))
    def test_every_path_matches_single_query(self, monkeypatch, window, candidates):
        # one candidate never certifies a cell, so every cell falls back;
        # two certify some; core._TILE_CANDIDATES is the default
        monkeypatch.setattr(core, "_TILE_CANDIDATES", candidates)
        pat = tie_generators(window, near_pairs=40)
        for resolution in (64, 67):
            assert_voronoi_matches_oracle(pat, resolution)

    @WINDOWS
    @pytest.mark.parametrize("n", [1, 3, 15])
    @pytest.mark.parametrize("candidates", sorted({2, core._TILE_CANDIDATES, 16}))
    def test_fewer_generators_than_candidates(self, monkeypatch, window, n, candidates):
        monkeypatch.setattr(core, "_TILE_CANDIDATES", candidates)
        pat = first_generators(window, n)
        assert len(pat) == n
        cells = assert_voronoi_matches_oracle(pat, 67)
        if n == 1:
            assert (cells.assignment[cells.raster_mask] == 0).all()

    @pytest.mark.parametrize("candidates", sorted({1, core._TILE_CANDIDATES, 16}))
    def test_ties_and_unresolved_tiles_are_queried_per_cell(self, monkeypatch, candidates):
        monkeypatch.setattr(core, "_TILE_CANDIDATES", candidates)
        tree = QueryLog(tie_generators(UNIT, near_pairs=40).points)
        centres = (np.arange(64) + 0.5) / 64
        owners = core._nearest_owners(tree, centres, centres, None)
        gx, gy = np.meshgrid(centres, centres, indexing="ij")
        cells = np.column_stack([gx.ravel(), gy.ravel()])
        _, oracle = cKDTree(tree.data).query(cells)
        assert np.array_equal(owners.ravel(), oracle)

        dist, _ = cKDTree(tree.data).query(cells, k=2)
        ties = cells[dist[:, 0] == dist[:, 1]]
        # tile centres sit on cell corners, so queried cell centres are
        # the cells that fell back
        every = {tuple(c) for c in cells}
        queried = {tuple(c) for k, x in tree.log if k == 1 for c in x} & every
        assert len(ties) == 413
        assert {tuple(c) for c in ties} <= queried
        if candidates == 1:
            assert queried == every
        else:
            assert any(k == candidates for k, _ in tree.log)
            assert len(queried) < len(cells) // 2

    def test_certified_cells_skip_their_own_query(self, monkeypatch):
        # one 4 x 4 tile of unit cells centred on C = (2, 2), at k = 8.
        # Sorted by distance from C the generators are (2.5, 3) at 1.118,
        # (1, 1), (3, 1) and (1, 3) at 1.414, (2.5, 4) at 2.06 and four on
        # the axes at d_8 = 2.5; four far ones keep the raster finer than
        # the generators.  d_8 lies within d1 + 2r = 5.36, so no candidate
        # radius about C holds every owner, yet 10 of the 16 cells satisfy
        # |C - c| + sqrt(best) < d_8.  The other six are queried: three
        # corners too far from C, and three exact ties with (2.5, 3)
        monkeypatch.setattr(core, "_TILE_CANDIDATES", 8)
        near = [(2.5, 3), (1, 1), (3, 1), (1, 3), (2.5, 4), (4.5, 2), (2, 4.5), (-0.5, 2), (2, -0.5)]
        far = [(-1e3, -1e3), (-1e3, 1e3), (1e3, -1e3), (1e3, 1e3)]
        tree = QueryLog(np.array(near + far, dtype=float))
        centres = np.arange(4) + 0.5
        owners = core._nearest_owners(tree, centres, centres, None)
        gx, gy = np.meshgrid(centres, centres, indexing="ij")
        cells = np.column_stack([gx.ravel(), gy.ravel()])
        _, oracle = cKDTree(tree.data).query(cells)
        assert np.array_equal(owners.ravel(), oracle)
        dist, _ = cKDTree(tree.data).query([(2, 2)], k=8)
        assert dist[0, -1] == 2.5 and dist[0, -1] < dist[0, 0] + 2 * math.hypot(1.5, 1.5)
        (k, tile), (one, queried) = tree.log
        assert (k, tile.tolist()) == (8, [[2.0, 2.0]])
        corners = {(0.5, 0.5), (3.5, 0.5), (0.5, 3.5)}
        ties = {(2.5, 3.5), (3.5, 3.5), (3.5, 2.5)}
        assert one == 1 and {tuple(c) for c in queried.tolist()} == corners | ties
        assert len(queried) == 6

    def test_certificate_slack_covers_rounding(self, monkeypatch):
        # the tile of the cells (+-u, +-v) has its centre C at the origin.
        # The owner of c = (u, v) is g, nearly on the ray from C through c
        # and just beyond the 8th candidate q, so g is not fetched; b is
        # fetched and its squared distance to c exceeds g's by an ulp.  In
        # floating point |C - c| + sqrt(best) < d_8 holds, so without the
        # relative slack the cell would be certified with the wrong owner
        monkeypatch.setattr(core, "_TILE_CANDIDATES", 8)
        u, v = 0.8593949837041148, 0.8323568467197717
        g = (1.3627890521112243, 1.319913217634126)
        b = (0.18466777720693506, 1.0217242138640321)
        q = (1.897199225869408, 0.0)
        near = [(-0.05 * i * u, -0.05 * i * v) for i in range(1, 7)]
        far = [(-1e3, -1e3), (-1e3, 1e3), (1e3, -1e3), (1e3, 1e3)]
        data = np.array([g, b, q] + near + far)
        tree = QueryLog(data)
        owners = core._nearest_owners(tree, np.array([-u, u]), np.array([-v, v]), None)
        gx, gy = np.meshgrid([-u, u], [-v, v], indexing="ij")
        _, oracle = cKDTree(data).query(np.column_stack([gx.ravel(), gy.ravel()]))
        assert np.array_equal(owners.ravel(), oracle)
        dist, fetched = cKDTree(data).query([(0.0, 0.0)], k=8)
        best = ((data[fetched[0]] - (u, v)) ** 2).sum(axis=1).min()
        assert oracle[3] == 0 and 0 not in fetched
        assert math.hypot(u, v) + math.sqrt(best) < dist[0, -1]
        assert any([u, v] in x.tolist() for k, x in tree.log if k == 1)

    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    def test_clustered_generators_at_default_resolution(self, window):
        # 2·10^4 generators in 400 Gaussian clusters of sd 0.005: dense
        # clusters, sparse gaps and cells on either side of the certificate
        rng = substream(7, 2)
        xy = np.repeat(rng.uniform(size=(400, 2)), 50, axis=0)
        xy += rng.normal(scale=0.005, size=xy.shape)
        pat = SpatialPattern(xy[window.contains_xy(xy)], window)
        _, cells = voronoi_intensity(pat)
        resolution = cells.grid.shape[0]
        assert resolution == math.ceil(math.sqrt(16 * len(pat))) > 256
        assignment = oracle_voronoi(pat, resolution)[3]
        assert np.array_equal(cells.assignment, assignment)

    def test_raster_coarser_than_generators_queries_every_cell(self):
        # about 11 generators per cell: few cells could be certified
        tree = QueryLog(substream(6, 1).uniform(size=(3000, 2)))
        xs, ys = (np.arange(16) + 0.5) / 16, (np.arange(17) + 0.5) / 17
        owners = core._nearest_owners(tree, xs, ys, None)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        _, oracle = cKDTree(tree.data).query(np.column_stack([gx.ravel(), gy.ravel()]))
        assert np.array_equal(owners.ravel(), oracle)
        assert [(k, len(x)) for k, x in tree.log] == [(1, 16 * 17)]

    def test_cells_outside_are_minus_one_and_empty_blocks_skip_queries(self):
        tree = QueryLog(tie_generators(UNIT).points)
        centres = (np.arange(67) + 0.5) / 67
        inside = np.zeros((67, 67), dtype=bool)
        assert (core._nearest_owners(tree, centres, centres, inside) == -1).all()
        assert tree.log == []
        inside[30:40, 5] = True
        owners = core._nearest_owners(tree, centres, centres, inside)
        _, oracle = tree.query(np.column_stack([centres[30:40], np.full(10, centres[5])]))
        assert np.array_equal(owners[30:40, 5], oracle)
        assert (owners[~inside] == -1).all()

    def test_scratch_within_raster_cell_bytes(self):
        # 16 raster cells per generator, as voronoi_intensity's default
        # resolution gives: one block of 8 rows of a 1000-column raster
        tree = cKDTree(substream(8, 3).uniform(size=(62500, 2)))
        centres = (np.arange(1000) + 0.5) / 1000
        tracemalloc.start()
        try:
            core._nearest_owners(tree, centres[:8], centres, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < core._RASTER_CELL_BYTES * 8 * 1000

    def test_more_generators_than_int32_indices_raise(self):
        tree = types.SimpleNamespace(n=2**31)
        with pytest.raises(ValueError, match="int32"):
            core._owner_grid(tree, np.arange(3.0), np.arange(3.0), None)

    @WINDOWS
    def test_thread_count_does_not_change_the_grid(self, monkeypatch, window):
        # one row of tiles per block: 17 blocks of the 67-cell raster; eight
        # workers (more than the cores) switching threads every microsecond
        # must not lose or mix any block's rows or counts.  One worker takes
        # parallel_map's serial path and starts no pool; more start one for
        # the counts and one for the grid that reading .assignment builds
        monkeypatch.setattr(core, "_BLOCK_BYTES", core._TILE * core._RASTER_CELL_BYTES * 67)
        pools = []

        class Pool(ThreadPoolExecutor):
            def __init__(self, workers):
                pools.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(core, "ThreadPoolExecutor", Pool)
        pat = tie_generators(window, near_pairs=40)
        runs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 3, 8):
                monkeypatch.setattr(core.os, "cpu_count", lambda: workers)
                runs.append(assert_voronoi_matches_oracle(pat, 67))
        finally:
            sys.setswitchinterval(interval)
        assert pools == [3, 3, 8, 8]
        for run in runs[1:]:
            assert np.array_equal(run.assignment, runs[0].assignment)
            assert np.array_equal(run.areas, runs[0].areas)


# Reference estimators: every event's kernel rows in one dense array, as
# the estimators computed them before they summed over chunks of events.


def oracle_gauss_factors(points_1d, centers, step, b):
    z = (np.asarray(centers)[None, :] - np.asarray(points_1d)[:, None]) / b
    return np.exp(-0.5 * z * z) * (step / (b * math.sqrt(2.0 * math.pi)))


def oracle_spatial_rows(xy, grid, window, b):
    gx = oracle_gauss_factors(xy[:, 0], grid.centers(0), grid.step[0], b)
    gy = oracle_gauss_factors(xy[:, 1], grid.centers(1), grid.step[1], b)
    mask = window.raster(grid)
    if mask is None:
        e = gx.sum(axis=1) * gy.sum(axis=1)
    else:
        e = np.einsum("ij,ij->i", gx @ mask.astype(float), gy)
    return gx, gy, e, mask


def oracle_lambda_s(pattern, b, grid):
    gx, gy, e, mask = oracle_spatial_rows(pattern.points, grid, pattern.window, b)
    values = (gx / (e[:, None] * grid.cell_volume)).T @ gy
    return values if mask is None else np.where(mask, values, 0.0)


def oracle_lambda_t(pattern, b, grid):
    e = temporal_corrections(pattern.times, pattern.window, b)
    return (1.0 / e) @ oracle_gauss_factors(pattern.times, grid.centers(0), 1.0, b)


def oracle_lambda_st(pattern, b_s, b_t, grid, pi0):
    window = pattern.window
    nx, ny, nt = grid.shape
    spatial = GridSpec.spatial(window, nx, ny)
    gx, gy, e_s, mask = oracle_spatial_rows(pattern.x, spatial, window, b_s)
    gx = gx / (e_s[:, None] * spatial.cell_volume)
    S = (gx[:, :, None] * gy[:, None, :]).reshape(len(pattern), nx * ny)
    T = oracle_gauss_factors(pattern.t, grid.centers(2), 1.0, b_t)
    T /= temporal_corrections(pattern.t, window, b_t)[:, None]
    values = (S.T @ T).reshape(nx, ny, nt) / pi0
    return values if mask is None else np.where(mask[:, :, None], values, 0.0)


def bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def chunk_pattern(window, seed, n=400):
    rng = substream(seed, 13)
    pts = rng.uniform(size=(3 * n, 3))
    pts = pts[window.contains_xy(pts[:, :2])][:n]
    return SpaceTimePattern(pts, window)


# row-block byte budgets: one event per block, a few events per block on
# the grids below, and the default (one block for every pattern here)
BUDGETS = [1, 4000, core._BLOCK_BYTES]


class TestChunkedEstimators:
    def test_gauss_factors_bit_equal_with_underflow(self):
        rng = substream(4, 2)
        centers = (np.arange(300) + 0.5) / 300
        # points far outside the grid make whole rows underflow to 0
        points = np.concatenate([rng.uniform(size=200), [-40.0, 55.0, 1e160, -1e200]])
        for b, step in ((0.05, 1.0), (0.003, 1.0 / 300), (1e-155, 2.0)):
            with np.errstate(over="ignore"):
                got = intensity._gauss_factors(points, centers, step, b)
                want = oracle_gauss_factors(points, centers, step, b)
            assert np.array_equal(bits(got), bits(want))
            assert (got[-4:] == 0).all()
            assert (got[:200] > 0).any(axis=1).all() == (b > 1e-100)

    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_lambda_s(self, monkeypatch, window, budget):
        monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
        sp, _ = project(chunk_pattern(window, 1))
        grid = GridSpec.spatial(window, 40, 30)
        est = estimate_lambda_s(sp, KernelSpec(0.06), grid)
        want = oracle_lambda_s(sp, 0.06, grid)
        if budget == BUDGETS[-1]:
            assert np.array_equal(bits(est.values), bits(want))
        np.testing.assert_allclose(est.values, want, rtol=1e-12, atol=0)
        assert est.integrate() == pytest.approx(len(sp), rel=1e-9)

    @pytest.mark.parametrize("budget", BUDGETS)
    def test_lambda_t(self, monkeypatch, budget):
        monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
        _, tp = project(chunk_pattern(UNIT, 2))
        grid = GridSpec.temporal(UNIT, 50)
        est = estimate_lambda_t(tp, KernelSpec(0.03), grid)
        want = oracle_lambda_t(tp, 0.03, grid)
        if budget == BUDGETS[-1]:
            assert np.array_equal(bits(est.values), bits(want))
        np.testing.assert_allclose(est.values, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_lambda_st(self, monkeypatch, window, budget):
        monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
        pat = chunk_pattern(window, 3)
        grid = GridSpec.spacetime(window, 12, 10, 20)
        est = estimate_lambda_st(
            pat, KernelSpec(0.1), KernelSpec(0.05), grid, pi0=0.5
        )
        want = oracle_lambda_st(pat, 0.1, 0.05, grid, 0.5)
        if budget == BUDGETS[-1]:
            assert np.array_equal(bits(est.values), bits(want))
        np.testing.assert_allclose(est.values, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("b_t", [0.004, 0.03, 1e-9])
    def test_lambda_t_blocks_build_only_reached_time_cells(self, monkeypatch, b_t):
        # blocks of 3 time-sorted events build their rows only on the time
        # cells within exp's underflow reach of their ends: at b_t = 0.004
        # and 1e-9 a part of the 200, at 0.03 (reach 1.16) all of them.  The
        # field is the full-width blocked sum's to 1e-14 (the product runs
        # over fewer columns), and the unblocked oracle's to 1e-12
        grid = GridSpec.temporal(UNIT, 200)
        monkeypatch.setattr(core, "_BLOCK_BYTES", 3 * 8 * 200)
        _, tp = project(chunk_pattern(UNIT, 5))
        widths = []
        factors = intensity._gauss_factors

        def counted(points, centers, step, b, out=None):
            widths.append(len(centers))
            return factors(points, centers, step, b, out)

        monkeypatch.setattr(intensity, "_gauss_factors", counted)
        est = estimate_lambda_t(tp, KernelSpec(b_t), grid)
        e = temporal_corrections(tp.times, UNIT, b_t)
        full = np.zeros(200)
        for rows in core._blocks(len(tp), 8 * 200):
            g = oracle_gauss_factors(tp.times[rows], grid.centers(0), 1.0, b_t)
            full += (1.0 / e[rows]) @ g
        np.testing.assert_allclose(est.values, full, rtol=1e-14, atol=0)
        np.testing.assert_allclose(
            est.values, oracle_lambda_t(tp, b_t, grid), rtol=1e-12, atol=0
        )
        assert len(widths) == -(-len(tp) // 3)
        assert (max(widths) == 200) == (b_t == 0.03)

    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    @pytest.mark.parametrize("b_t", [0.004, 1e-9])
    def test_lambda_st_blocks_skip_unreached_time_cells(self, monkeypatch, window, b_t):
        # blocks of 3 time-sorted events reach a few of the 200 time cells
        # at b_t = 0.004 and none at 1e-9; the skipped products are zeros
        grid = GridSpec.spacetime(window, 12, 10, 200)
        monkeypatch.setattr(core, "_BLOCK_BYTES", 3 * 8 * (12 * 10 + 200))
        pat = chunk_pattern(window, 5)
        est = estimate_lambda_st(pat, KernelSpec(0.1), KernelSpec(b_t), grid)
        want = oracle_lambda_st(pat, 0.1, b_t, grid, 1.0)
        np.testing.assert_allclose(est.values, want, rtol=1e-12, atol=0)
        assert (want == 0).all() == (b_t < 1e-3)

    def test_lambda_st_rasterizes_the_window_once(self, monkeypatch):
        # blocks of 3 events share one raster of the polygon window
        monkeypatch.setattr(core, "_BLOCK_BYTES", 3 * 8 * (12 * 10 + 20))
        pat = chunk_pattern(POLYGON, 3)
        grid = GridSpec.spacetime(POLYGON, 12, 10, 20)
        shapes = []
        raster = PolygonMask.raster

        def counted(mask, xs, ys):
            shapes.append((len(xs), len(ys)))
            return raster(mask, xs, ys)

        monkeypatch.setattr(PolygonMask, "raster", counted)
        est = estimate_lambda_st(pat, KernelSpec(0.1), KernelSpec(0.05), grid)
        assert shapes == [(12, 10)]
        assert len(core._blocks(len(pat), 8 * (12 * 10 + 20))) > 100
        np.testing.assert_allclose(
            est.values, oracle_lambda_st(pat, 0.1, 0.05, grid, 1.0), rtol=1e-12, atol=0
        )

    def test_memory_cap_counts_one_chunk(self, monkeypatch):
        # 3 events' rows plus the field fit 0.1 MB; all 400 events' rows do not
        monkeypatch.setattr(intensity, "_MEMORY_CAP_MB", 0.1)
        monkeypatch.setattr(core, "_BLOCK_BYTES", 4000)
        pat = chunk_pattern(UNIT, 3)
        grid = GridSpec.spacetime(UNIT, 12, 10, 20)
        est = estimate_lambda_st(pat, KernelSpec(0.1), KernelSpec(0.05), grid)
        assert est.integrate() == pytest.approx(len(pat), rel=5e-3)
        monkeypatch.setattr(core, "_BLOCK_BYTES", BUDGETS[-1])
        with pytest.raises(MemoryError, match="coarser"):
            estimate_lambda_st(pat, KernelSpec(0.1), KernelSpec(0.05), grid)

    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    @pytest.mark.parametrize("budget", BUDGETS)
    def test_corrections(self, monkeypatch, window, budget):
        monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
        xy = chunk_pattern(window, 4).x
        grid = GridSpec.spatial(window, 32, 32)
        bs = (0.01, 0.05, 0.2)
        e = intensity._spatial_corrections(xy, grid, window.raster(grid), np.array(bs))
        for b, got in zip(bs, np.maximum(e, 1e-12)):
            want = np.maximum(oracle_spatial_rows(xy, grid, window, b)[2], 1e-12)
            if budget == BUDGETS[-1]:
                assert np.array_equal(bits(got), bits(want))
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        center = xy[7:8]
        w = intensity._spatial_corrections(center, grid, window.raster(grid), 0.05)
        assert w == oracle_spatial_rows(center, grid, window, 0.05)[2]

    @pytest.mark.parametrize("rows", [2, 3, 4, 5])
    def test_corrections_independent_of_blocks(self, monkeypatch, rows):
        # 61 points leave one row after the last full block of each size;
        # it joins that block, so every block size gives the one-block bits
        xy = chunk_pattern(POLYGON, 4, n=61).x
        grid = GridSpec.spatial(POLYGON, 32, 32)
        bs = np.array([0.01, 0.05, 0.2])
        want = intensity._spatial_corrections(xy, grid, POLYGON.raster(grid), bs)
        monkeypatch.setattr(core, "_BLOCK_BYTES", rows * 8 * len(bs) * 64)
        got = intensity._spatial_corrections(xy, grid, POLYGON.raster(grid), bs)
        assert np.array_equal(bits(got), bits(want))

    def test_memory_bounded_by_one_chunk(self):
        # at 5e4 events one (n, 256) factor array is 102 MB, the (n, 1000)
        # temporal rows 400 MB and the (n, 32*32 + 100) space-time rows
        # 450 MB; one block of rows is at most core._BLOCK_BYTES
        n = 50_000
        rng = substream(6, 1)
        xyt = rng.uniform(size=(n, 3))
        sp = SpatialPattern(xyt[:, :2], UNIT)
        tp = TemporalPattern(xyt[:, 2], UNIT)
        stp = SpaceTimePattern(xyt, UNIT)
        runs = [
            (estimate_lambda_s, sp, (KernelSpec(0.05),), GridSpec.spatial(UNIT, 256, 256)),
            (estimate_lambda_t, tp, (KernelSpec(0.01),), GridSpec.temporal(UNIT, 1000)),
            (estimate_lambda_st, stp, (KernelSpec(0.05), KernelSpec(0.02)),
             GridSpec.spacetime(UNIT, 32, 32, 100)),
        ]
        for estimate, pattern, kernels, grid in runs:
            bound = 1.25 * core._BLOCK_BYTES + 16 * math.prod(grid.shape) + 64 * n
            tracemalloc.start()
            try:
                est = estimate(pattern, *kernels, grid)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert est.integrate() == pytest.approx(n, rel=1e-3)
            assert peak < bound, (estimate.__name__, peak / 1e6, bound / 1e6)
