import math
import tracemalloc

import numpy as np
import pytest
import scipy.spatial
from scipy.spatial import cKDTree

from stpp import core
from stpp.core import GridSpec, PolygonMask, ScalarField, SpatialPattern, Window, substream
from stpp.homogenize import HomogenizeConfig, homogenize, level_set, minimize_loss
from stpp.inference import quadrat_test
from stpp.intensity import voronoi_intensity

from helpers import simulate_poisson_spatial

UNIT = Window((0, 1), (0, 1), (0, 1))
POLYGON = Window(
    (0, 1), (0, 1), (0, 1), PolygonMask([(0.05, 0.0), (1.0, 0.1), (0.9, 1.0), (0.0, 0.85)])
)
TRIANGLE = Window((0, 1), (0, 1), (0, 1), PolygonMask([(0.0, 0.0), (1.0, 0.0), (0.0, 0.6)]))


def poisson_cells(lam, seed):
    pat = simulate_poisson_spatial(float(lam), UNIT, seed)
    _, cells = voronoi_intensity(pat)
    return pat, cells


def cross_intensity(phi=0.02, expected=50000.0):
    """Intensity concentrated around the axes of the unit square."""

    def shape(x1, x2):
        return np.exp(-(1.0 / phi) * (1.0 + np.abs(x1 - 0.5) * np.abs(x2 - 0.5)))

    g = 2048
    xs = (np.arange(g) + 0.5) / g
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    beta = expected / shape(x1, x2).mean()
    bound = beta * math.exp(-1.0 / phi)
    return (lambda a, b: beta * shape(a, b)), bound


def sin_intensity(phi=0.2, expected=50000.0, doubled=False):
    """Intensity peaked where |sin| terms are large; ``doubled`` uses
    frequency-2 sines, which concentrates the mass in four blobs."""
    freq = 2.0 if doubled else 1.0

    def shape(x1, x2):
        return np.exp((1.0 / phi) * (np.abs(np.sin(freq * np.pi * x1))
                                     + np.abs(np.sin(freq * np.pi * x2))))

    g = 2048
    xs = (np.arange(g) + 0.5) / g
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    beta = expected / shape(x1, x2).mean()
    bound = beta * math.exp(2.0 / phi)
    return (lambda a, b: beta * shape(a, b)), bound


class TestLevelSet:
    def test_mu_zero_is_everything(self):
        _, cells = poisson_cells(200, 0)
        ls = level_set(cells, 0.0)
        assert ls.n_cells == len(cells.areas)
        assert ls.area == pytest.approx(1.0, rel=1e-9)

    def test_mu_above_max_is_empty(self):
        _, cells = poisson_cells(200, 1)
        finite = cells.values[np.isfinite(cells.values)]
        ls = level_set(cells, finite.max() * 1.01)
        assert ls.area == 0.0

    def test_nesting(self):
        _, cells = poisson_cells(300, 2)
        mus = np.quantile(cells.values[np.isfinite(cells.values)], [0.2, 0.5, 0.8])
        members = [level_set(cells, m).member for m in mus]
        assert (members[1] <= members[0]).all()
        assert (members[2] <= members[1]).all()

    def test_half_mean_level_captures_most_area(self):
        # most Voronoi cells of a homogeneous pattern exceed half the rate
        fracs = []
        for s in range(50):
            _, cells = poisson_cells(500, substream(s, 0))
            fracs.append(level_set(cells, 250.0).area)
        assert 0.6 <= np.mean(fracs) <= 0.95

    def test_negative_mu_rejected(self):
        _, cells = poisson_cells(100, 3)
        with pytest.raises(ValueError):
            level_set(cells, -1.0)


class TestMinimizeLoss:
    def test_idealized_homogeneous_closed_form(self):
        # every cell at value c: level sets are all-or-nothing, so the
        # loss is (target - mu)^2 on [0, c], minimized at mu = target
        from stpp.intensity import VoronoiCells
        from stpp.core import GridSpec

        n = 100
        grid = GridSpec.spatial(UNIT, 16, 16)
        cells = VoronoiCells(
            tree=cKDTree(np.random.default_rng(0).uniform(size=(n, 2))),
            areas=np.full(n, 1.0 / n),
            values=np.full(n, float(n)),
            grid=grid,
            assignment=np.zeros(grid.shape, dtype=np.int64),
            raster_mask=np.ones(grid.shape, dtype=bool),
        )
        cfg = HomogenizeConfig(target_count=40.0)
        mu = minimize_loss(cells, cfg)
        assert mu == pytest.approx(40.0)
        assert (40.0 - mu * 1.0) ** 2 < 1e-20

    def test_matches_brute_force_grid(self):
        _, cells = poisson_cells(400, 4)
        cfg = HomogenizeConfig(target_count=120.0)
        mu_hat = minimize_loss(cells, cfg)

        def loss(mu):
            member = cells.values >= mu
            return (120.0 - mu * cells.areas[member].sum()) ** 2

        finite = np.sort(cells.values[np.isfinite(cells.values)])
        grid_mu = np.linspace(0.0, finite[-1] * 1.05, 100000)
        brute_losses = np.array([loss(m) for m in grid_mu[:: len(grid_mu) // 2000]])
        assert loss(mu_hat) <= brute_losses.min() + 1e-12
        # and mu_hat sits within one breakpoint interval of the brute argmin
        coarse = grid_mu[:: len(grid_mu) // 2000]
        mu_brute = coarse[int(np.argmin(brute_losses))]
        k_hat = np.searchsorted(finite, mu_hat)
        k_brute = np.searchsorted(finite, mu_brute)
        assert abs(k_hat - k_brute) <= 1

    def test_target_above_n_warns(self):
        _, cells = poisson_cells(100, 5)
        with pytest.warns(UserWarning, match="cap"):
            minimize_loss(cells, HomogenizeConfig(target_count=1000.0))


class TestHomogenize:
    def test_idealized_homogeneous_keeps_everything(self):
        # flat estimate (every cell at value n) with target n: mu-hat = n,
        # level set covers the window and every retention equals 1
        from stpp.core import GridSpec
        from stpp.intensity import VoronoiCells

        n = 150
        grid = GridSpec.spatial(UNIT, 16, 16)
        cells = VoronoiCells(
            tree=cKDTree(substream(0, 3).uniform(size=(n, 2))),
            areas=np.full(n, 1.0 / n),
            values=np.full(n, float(n)),
            grid=grid,
            assignment=np.zeros(grid.shape, dtype=np.int64),
            raster_mask=np.ones(grid.shape, dtype=bool),
        )
        mu = minimize_loss(cells, HomogenizeConfig(target_count=float(n)))
        assert mu == pytest.approx(float(n))
        ls = level_set(cells, mu)
        assert ls.n_cells == n
        assert np.minimum(1.0, mu * cells.areas[ls.member]).min() == pytest.approx(1.0)

    def test_cross_model_full_protocol(self):
        func, bound = cross_intensity()
        retained = []
        quadrat_ok = 0
        raw_rejected = 0
        runs = 5
        for s in range(runs):
            pat = simulate_poisson_spatial((func, bound), UNIT, substream(s, 1))
            raw_rejected += quadrat_test(pat)[1] < 1e-4
            sub, report = homogenize(pat, HomogenizeConfig(target_count=500.0, seed=s))
            assert report.loss_at_minimum < 1e-6 * 500.0**2
            retained.append(report.retained)
            quadrat_ok += report.quadrat_p > 0.05
        assert raw_rejected == runs
        assert all(abs(r - 500) <= 3 * math.sqrt(500) for r in retained)
        assert quadrat_ok >= 0.8 * runs

    def test_sin_model_both_variants(self):
        for doubled in (False, True):
            func, bound = sin_intensity(doubled=doubled)
            pat = simulate_poisson_spatial((func, bound), UNIT, substream(7, int(doubled)))
            assert abs(len(pat) - 50000) < 4 * math.sqrt(50000)
            sub, report = homogenize(pat, HomogenizeConfig(target_count=500.0, seed=3))
            assert report.loss_at_minimum < 1e-6 * 500.0**2
            assert abs(report.retained - 500) <= 3 * math.sqrt(500)
            assert report.quadrat_p > 0.05

    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    def test_report_consistency(self, window):
        pat = simulate_poisson_spatial(300.0, window, 8)
        sub, report = homogenize(pat, HomogenizeConfig(target_count=100.0, seed=2))
        assert len(sub) == report.retained
        assert sub.window.mask is not None
        assert sub.window.area == pytest.approx(report.level_area)
        # retained points lie inside the level-set region
        assert sub.window.contains_xy(sub.points).all()

    def test_one_tree_build_per_call(self, monkeypatch):
        # the Voronoi estimate's k-d tree also serves the level-set mask
        # and the quadrat test's tile areas
        builds = []

        class CountingTree(cKDTree):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(scipy.spatial, "cKDTree", CountingTree)
        pat = simulate_poisson_spatial(300.0, UNIT, 8)
        sub, report = homogenize(pat, HomogenizeConfig(target_count=100.0, seed=2))
        assert len(builds) == 1
        assert np.isfinite(report.quadrat_statistic)
        assert sub.window.contains_xy(sub.points).all()

    def test_builds_no_intensity_field(self, monkeypatch):
        built = []
        init = ScalarField.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ScalarField, "__init__", counting_init)
        pat = simulate_poisson_spatial(300.0, UNIT, 8)
        homogenize(pat, HomogenizeConfig(target_count=100.0, seed=2))
        assert built == []
        est, _ = voronoi_intensity(pat)
        assert built == []
        assert est.field is built[0]

    def test_memory_per_raster_cell(self, monkeypatch):
        # on one thread, one block of the owner search runs at a time; the
        # int32 owner grid, the boolean mask and that block fit the bound,
        # an int64 grid copied to count it or a float64 field would not
        monkeypatch.setattr(core.os, "cpu_count", lambda: 1)
        pat = SpatialPattern(substream(8, 1).uniform(size=(20000, 2)), UNIT)
        # a small run first, so imports made on first use are not traced
        homogenize(pat, HomogenizeConfig(target_count=500.0, seed=2, resolution=64))
        resolution = 1500
        tracemalloc.start()
        try:
            _, report = homogenize(
                pat, HomogenizeConfig(target_count=500.0, seed=2, resolution=resolution)
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert abs(report.retained - 500) <= 3 * math.sqrt(500)
        # 100 bytes per cell of one owner-search block of 2^17 cells
        bound = 8 * resolution**2 + 100 * (core._BLOCK_BYTES // 64)
        assert peak < bound, (peak / 1e6, bound / 1e6)

    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    def test_region_raster_on_another_grid_matches_contains(self, window):
        # the quadrat test rasterizes the level-set region on its own 512^2
        # grid, not on the Voronoi estimate's
        pat = simulate_poisson_spatial(300.0, window, 8)
        sub, _ = homogenize(pat, HomogenizeConfig(target_count=100.0, seed=2))
        region = sub.window.mask
        for shape in ((512, 512), (67, 53)):
            grid = GridSpec.spatial(window, *shape)
            gx, gy = np.meshgrid(grid.centers(0), grid.centers(1), indexing="ij")
            oracle = region.contains(np.column_stack([gx.ravel(), gy.ravel()]))
            raster = region.raster(grid.centers(0), grid.centers(1))
            assert raster.shape == shape
            assert np.array_equal(raster, oracle.reshape(shape))
            assert 0 < raster.sum() < raster.size
            inside = window.raster(grid)
            if inside is not None:
                assert not (raster & ~inside).any()

    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    def test_region_raster_on_voronoi_grid_is_member_of_assignment(self, window):
        pat = simulate_poisson_spatial(300.0, window, 8)
        _, cells = voronoi_intensity(pat)
        region = level_set(cells, minimize_loss(cells, HomogenizeConfig(target_count=100.0)))
        raster = region.raster(cells.grid.centers(0), cells.grid.centers(1))
        # -1 marks raster cells outside the window's mask
        expected = np.where(cells.assignment >= 0, region.member[cells.assignment], False)
        assert np.array_equal(raster, expected)
        assert 0 < raster.sum() < cells.raster_mask.sum()

    def test_polygon_region_stays_inside_polygon(self):
        # Poisson patterns in a triangle of area 0.3: the level-set region
        # must not spill into the rest of the unit square, and the quadrat
        # test on it must see a homogeneous pattern
        polygon = TRIANGLE.mask
        g = (np.arange(200) + 0.5) / 200
        gx, gy = np.meshgrid(g, g, indexing="ij")
        probe = np.column_stack([gx.ravel(), gy.ravel()])
        outside = probe[~polygon.contains(probe)]
        p_values = []
        for s in range(5):
            pat = simulate_poisson_spatial(3000.0, TRIANGLE, substream(s, 31))
            sub, report = homogenize(pat, HomogenizeConfig(target_count=500.0, seed=s))
            region = sub.window.mask
            assert region.parent is polygon
            assert not region.contains(outside).any()
            assert region.area <= polygon.area
            p_values.append(report.quadrat_p)
        assert min(p_values) > 0.01, p_values

    def test_quadrat_pools_slivers_of_a_thin_polygon(self):
        # tiles that meet the triangle's hypotenuse in a sliver never expect
        # 5 events; pooled into one cell they no longer force the test down
        # to a single tile and a NaN p-value (seeds 0 and 4 did)
        p_values = []
        for s in range(5):
            pat = simulate_poisson_spatial(2000.0, TRIANGLE, substream(s, 31))
            _, report = homogenize(pat, HomogenizeConfig(200.0, seed=s))
            p_values.append(report.quadrat_p)
        assert np.isfinite(p_values).all() and min(p_values) > 0.01, p_values

    def test_expected_retained_count(self):
        # E[retained] tracks the target over seeds
        counts = []
        for s in range(60):
            pat = simulate_poisson_spatial(800.0, UNIT, substream(s, 2))
            _, report = homogenize(pat, HomogenizeConfig(target_count=200.0, seed=s))
            counts.append(report.retained)
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(np.mean(counts) - 200.0) < 3 * se

    def test_low_retention_warns(self):
        pat = simulate_poisson_spatial(100.0, UNIT, 9)
        with pytest.warns(UserWarning, match="unreliable"):
            homogenize(pat, HomogenizeConfig(target_count=5.0, seed=0))
