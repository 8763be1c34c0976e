import numpy as np
import pytest
from scipy.spatial import cKDTree

from stpp import intensity
from stpp.core import GridSpec, PolygonMask, SpatialPattern, TemporalPattern, Window, project, substream
from stpp.intensity import (
    KernelSpec,
    diggle_correction,
    estimate_lambda_s,
    estimate_lambda_st,
    estimate_lambda_t,
    voronoi_intensity,
)
from stpp.simulate import IntensityModel, RetentionSpec, simulate_poisson, thin

UNIT = Window((0, 1), (0, 1), (0, 1))


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(0.0)
    with pytest.raises(ValueError):
        KernelSpec(-1.0)


class TestDiggleCorrection:
    def test_deep_interior_is_one(self):
        w = diggle_correction((0.5, 0.5), KernelSpec(0.05), UNIT)
        assert w == pytest.approx(1.0, abs=1e-6)

    def test_edge_midpoint_is_half(self):
        w = diggle_correction((0.0, 0.5), KernelSpec(0.02), UNIT)
        assert w == pytest.approx(0.5, abs=1e-3)

    def test_corner_is_quarter(self):
        w = diggle_correction((0.0, 0.0), KernelSpec(0.02), UNIT)
        assert w == pytest.approx(0.25, abs=1e-3)

    def test_temporal_interval_mass(self):
        assert diggle_correction(0.5, KernelSpec(0.01), UNIT) == pytest.approx(1.0, abs=1e-9)
        assert diggle_correction(0.0, KernelSpec(0.01), UNIT) == pytest.approx(0.5, abs=1e-9)

    def test_outside_center_rejected(self):
        with pytest.raises(ValueError):
            diggle_correction((2.0, 0.5), KernelSpec(0.05), UNIT)


class TestLambdaS:
    def test_single_point_unit_mass(self):
        pat = SpatialPattern([(0.5, 0.5)], UNIT)
        est = estimate_lambda_s(pat, KernelSpec(0.03))
        assert est.integrate() == pytest.approx(1.0, abs=1e-3)

    def test_campbell_mass(self):
        pat, _ = project(simulate_poisson(IntensityModel.const(2000), UNIT, 0))
        est = estimate_lambda_s(pat, KernelSpec(0.05))
        assert est.integrate() == pytest.approx(len(pat), rel=1e-3)

    def test_homogeneous_field_mean(self):
        pat, _ = project(simulate_poisson(IntensityModel.const(2000), UNIT, 1))
        est = estimate_lambda_s(pat, KernelSpec(0.05))
        mean = est.field.values.mean()
        assert mean == pytest.approx(len(pat), rel=0.05)

    def test_empty_pattern_warns_zero_field(self):
        pat = SpatialPattern(np.empty((0, 2)), UNIT)
        with pytest.warns(UserWarning):
            est = estimate_lambda_s(pat, KernelSpec(0.05))
        assert est.empty and est.integrate() == 0.0

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
        assert np.allclose(est.field.values, est_r.field.values[::-1, ::-1])


class TestLambdaT:
    def test_single_time_unit_mass(self):
        pat = TemporalPattern([0.5], UNIT)
        est = estimate_lambda_t(pat, KernelSpec(0.02))
        assert est.integrate() == pytest.approx(1.0, abs=1e-6)

    def test_campbell_mass(self):
        _, pat = project(simulate_poisson(IntensityModel.const(2000), UNIT, 2))
        est = estimate_lambda_t(pat, KernelSpec(0.02))
        assert est.integrate() == pytest.approx(len(pat), rel=1e-3)

    def test_two_separated_bumps(self):
        pat = TemporalPattern([0.25, 0.75], UNIT)
        est = estimate_lambda_t(pat, KernelSpec(0.01))
        ts = est.field.grid.centers(0)
        mid = est.field.values[np.abs(ts - 0.5) < 0.05]
        assert mid.max() < 1e-6
        left = est.field.values[ts < 0.5].sum() * est.field.grid.cell_volume
        assert left == pytest.approx(1.0, abs=1e-4)


class TestLambdaST:
    def test_single_point_product_kernel(self):
        pat = simulate_poisson(IntensityModel.const(0.0), UNIT, 0)
        pat_one = pat.__class__([(0.5, 0.5, 0.5)], UNIT)
        grid = GridSpec.spacetime(UNIT, 32, 32, 50)
        est = estimate_lambda_st(pat_one, KernelSpec(0.05), KernelSpec(0.05), grid)
        assert est.integrate() == pytest.approx(1.0, rel=1e-3)
        peak = np.unravel_index(np.argmax(est.field.values), grid.shape)
        xs, ys, ts = grid.centers(0), grid.centers(1), grid.centers(2)
        assert abs(xs[peak[0]] - 0.5) < 0.05
        assert abs(ys[peak[1]] - 0.5) < 0.05
        assert abs(ts[peak[2]] - 0.5) < 0.05

    def test_campbell_mass_3d(self):
        pat = simulate_poisson(IntensityModel.const(1500), UNIT, 3)
        est = estimate_lambda_st(pat, KernelSpec(0.05), KernelSpec(0.02),
                                 GridSpec.spacetime(UNIT, 48, 48, 200))
        assert est.integrate() == pytest.approx(len(pat), rel=5e-3)

    def test_retention_correction_recovers_parent_intensity(self):
        # mid-window cells sit > 3 bandwidths from every boundary, where the
        # Diggle inflation factor is below 1%
        parent_lam = 2000.0
        means = []
        for s in range(200):
            pat = simulate_poisson(IntensityModel.const(parent_lam), UNIT, substream(s, 1))
            sub = thin(pat, RetentionSpec.constant(0.025), substream(s, 2))
            if len(sub) < 5:
                continue
            est = estimate_lambda_st(
                sub, KernelSpec(0.1), KernelSpec(0.1),
                GridSpec.spacetime(UNIT, 24, 24, 40),
                retention=RetentionSpec.constant(0.025),
            )
            v = est.field.values
            means.append(v[8:16, 8:16, 14:26].mean())
        assert np.mean(means) == pytest.approx(parent_lam, rel=0.10)

    def test_memory_cap(self):
        pat = simulate_poisson(IntensityModel.const(100), UNIT, 0)
        with pytest.raises(MemoryError, match="coarser"):
            estimate_lambda_st(pat, KernelSpec(0.05), KernelSpec(0.02),
                               GridSpec.spacetime(UNIT, 64, 64, 250), memory_cap_mb=1.0)

    def test_non_constant_retention_rejected(self):
        pat = simulate_poisson(IntensityModel.const(100), UNIT, 0)
        grid = GridSpec.spatial(UNIT, 4, 4)
        from stpp.core import ScalarField

        field_ret = RetentionSpec.field(ScalarField(grid, np.full(grid.shape, 0.5)))
        with pytest.raises(ValueError, match="constant"):
            estimate_lambda_st(pat, KernelSpec(0.1), KernelSpec(0.1),
                               GridSpec.spacetime(UNIT, 8, 8, 8), retention=field_ret)


class TestThinningMonotonicity:
    def test_expected_field_scales_with_retention(self):
        # ratio of thinned to parent field means approximates pi0
        pi0 = 0.3
        ratios = []
        for s in range(100):
            pat = simulate_poisson(IntensityModel.const(800), UNIT, substream(s, 3))
            sub = thin(pat, RetentionSpec.constant(pi0), substream(s, 4))
            sp_full, _ = project(pat)
            sp_sub, _ = project(sub)
            grid = GridSpec.spatial(UNIT, 32, 32)
            f_full = estimate_lambda_s(sp_full, KernelSpec(0.1), grid)
            f_sub = estimate_lambda_s(sp_sub, KernelSpec(0.1), grid)
            ratios.append(f_sub.field.values.mean() / f_full.field.values.mean())
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


POLYGON = Window(
    (0, 1), (0, 1), (0, 1), PolygonMask([(0.05, 0.0), (1.0, 0.1), (0.9, 1.0), (0.0, 0.85)])
)
# leaves whole raster rows (x < 0.3, x > 0.7) outside the mask
TRIANGLE = Window((0, 1), (0, 1), (0, 1), PolygonMask([(0.3, 0.2), (0.7, 0.2), (0.5, 0.8)]))


class TestVoronoi:
    @pytest.mark.parametrize(
        "window", [UNIT, POLYGON, TRIANGLE], ids=["rectangle", "polygon", "triangle"]
    )
    @pytest.mark.parametrize("block", [1, 200, 1 << 20])
    def test_row_blocks_match_single_query(self, monkeypatch, window, block):
        monkeypatch.setattr(intensity, "_RASTER_BLOCK", block)
        rng = substream(3, 9)
        xy = rng.uniform(size=(400, 2))
        # generators on every 8th cell centre of the 64-cell raster, so the
        # centres halfway between them are exact ties
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

    def test_single_point_is_uniform(self):
        pat = SpatialPattern([(0.4, 0.6)], UNIT)
        est, cells = voronoi_intensity(pat)
        assert cells.areas[0] == pytest.approx(1.0)
        assert np.allclose(est.field.values, 1.0)

    def test_partition_identity(self):
        pat, _ = project(simulate_poisson(IntensityModel.const(300), UNIT, 4))
        est, cells = voronoi_intensity(pat)
        assert cells.total_area == pytest.approx(1.0, rel=1e-9)
        assert est.integrate() == pytest.approx(len(pat), rel=5e-3)

    def test_median_cell_value_near_truth(self):
        lam = 500.0
        medians = []
        for s in range(50):
            pat, _ = project(simulate_poisson(IntensityModel.const(lam), UNIT, substream(s, 5)))
            _, cells = voronoi_intensity(pat)
            medians.append(np.median(cells.values[np.isfinite(cells.values)]))
        assert abs(np.median(medians) - lam) / lam < 0.25

    def test_needs_a_point(self):
        with pytest.raises(ValueError):
            voronoi_intensity(SpatialPattern(np.empty((0, 2)), UNIT))
