import warnings

import numpy as np
import pytest
from scipy.stats import chi2, rankdata

from stpp import core, inference
from stpp.core import GridSpec, PolygonMask, SpatialPattern, Window, project, substream
from stpp.inference import CurveSet, _tile_areas, combined_erl_test, quadrat_test
from stpp.simulate import simulate_poisson

UNIT = Window((0, 1), (0, 1), (0, 1))
ARGS = np.linspace(0.0, 1.0, 25)


def null_curves(rng, b):
    return rng.normal(size=(b, len(ARGS)))


class TestErl:
    def test_most_extreme_gets_minimal_p(self):
        rng = substream(0, 0)
        reps = null_curves(rng, 199)
        res = combined_erl_test([CurveSet(ARGS, np.full(len(ARGS), 50.0), reps)])
        assert res.p_value == pytest.approx(1 / 200)
        assert res.rejected

    def test_total_tie_gives_p_one(self):
        curve = np.sin(ARGS)
        res = combined_erl_test([CurveSet(ARGS, curve, np.tile(curve, (99, 1)))])
        assert res.p_value == 1.0

    def test_p_values_on_grid(self):
        rng = substream(1, 0)
        B = 39
        for _ in range(20):
            reps = null_curves(rng, B)
            res = combined_erl_test([CurveSet(ARGS, rng.normal(size=len(ARGS)), reps)])
            k = res.p_value * (B + 1)
            assert k == pytest.approx(round(k))
            assert 1 <= round(k) <= B + 1

    def test_monotone_transform_invariance(self):
        rng = substream(2, 0)
        reps = null_curves(rng, 99)
        obs = rng.normal(size=len(ARGS))
        base = combined_erl_test([CurveSet(ARGS, obs, reps)])
        trans = combined_erl_test([CurveSet(ARGS, np.exp(obs), np.exp(reps))])
        assert trans.p_value == base.p_value
        assert np.array_equal(trans.measures, base.measures)

    def test_envelope_bounds_order(self):
        rng = substream(3, 0)
        res = combined_erl_test([CurveSet(ARGS, rng.normal(size=len(ARGS)), null_curves(rng, 199))])
        assert (res.lower <= res.upper).all()

    def test_small_b_warns(self):
        rng = substream(4, 0)
        with pytest.warns(UserWarning, match="B=9 replicates is small for alpha=0.05"):
            combined_erl_test([CurveSet(ARGS, rng.normal(size=len(ARGS)), null_curves(rng, 9))])

    def test_no_replicates_rejected(self):
        with pytest.raises(ValueError, match="at least one replicate"):
            combined_erl_test([CurveSet(ARGS, np.zeros(len(ARGS)), np.empty((0, len(ARGS))))])

    def test_type_one_error_calibrated(self):
        # null: observed exchangeable with replicates
        rng = substream(5, 0)
        B = 99
        hits = 0
        runs = 400
        for _ in range(runs):
            curves = null_curves(rng, B + 1)
            res = combined_erl_test([CurveSet(ARGS, curves[0], curves[1:])])
            hits += res.p_value <= 0.05
        assert 0.03 <= hits / runs <= 0.07


class TestCombined:
    def test_mismatched_b_rejected(self):
        rng = substream(7, 0)
        a = CurveSet(ARGS, rng.normal(size=len(ARGS)), null_curves(rng, 99))
        b = CurveSet(ARGS, rng.normal(size=len(ARGS)), null_curves(rng, 98))
        with pytest.raises(ValueError, match="replicate count"):
            combined_erl_test([a, b])

    def test_type_one_error_two_components(self):
        rng = substream(8, 0)
        B = 99
        hits = 0
        runs = 400
        for _ in range(runs):
            c1 = null_curves(rng, B + 1)
            c2 = 5.0 + 2.0 * null_curves(rng, B + 1)  # different scale on purpose
            res = combined_erl_test(
                [CurveSet(ARGS, c1[0], c1[1:]), CurveSet(ARGS, c2[0], c2[1:])]
            )
            hits += res.p_value <= 0.05
        assert 0.03 <= hits / runs <= 0.07

    def test_power_when_one_component_shifts(self):
        rng = substream(9, 0)
        reps1 = null_curves(rng, 199)
        reps2 = null_curves(rng, 199)
        obs1 = rng.normal(size=len(ARGS)) + 6.0
        obs2 = rng.normal(size=len(ARGS))
        res = combined_erl_test(
            [CurveSet(ARGS, obs1, reps1), CurveSet(ARGS, obs2, reps2)]
        )
        assert res.p_value == pytest.approx(1 / 200)


def tie_heavy(rng, rows, cols, levels=3):
    """Curves on a few levels, with signed zeros, so most columns carry ties."""
    a = rng.integers(-(levels // 2), levels - levels // 2, size=(rows, cols)).astype(float)
    return np.where(a == 0, rng.choice([0.0, -0.0], size=a.shape), a)


def loop_erl_order(curves):
    """Tie groups of the lexsorted rank vectors found one curve at a time."""
    ranks = inference._pointwise_extreme_ranks(curves)
    sorted_ranks = np.sort(ranks, axis=1)
    s = len(curves)
    order = np.lexsort(sorted_ranks.T[::-1])
    measures = np.empty(s)
    i = 0
    while i < s:
        j = i
        while j + 1 < s and np.array_equal(sorted_ranks[order[j + 1]], sorted_ranks[order[i]]):
            j += 1
        measures[order[i : j + 1]] = (j + 1) / s
        i = j + 1
    return measures, order


def assert_same_result(got, want):
    for field in ("args", "observed", "lower", "upper", "measures"):
        assert np.array_equal(getattr(got, field), getattr(want, field)), field
    assert got.p_value == want.p_value


class TestRankColumns:
    @pytest.mark.parametrize("method", ["min", "average"])
    @pytest.mark.parametrize("shape", [(2, 7), (1, 4), (30, 1), (200, 25)])
    def test_matches_rankdata(self, method, shape):
        rng = substream(10, 0)
        samples = [tie_heavy(rng, *shape, levels=levels) for levels in (1, 2, 3, 50)]
        for a in samples + [rng.normal(size=shape)]:
            want = rankdata(a, method=method, axis=0)
            got = inference._rank_columns(a, method)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("method", ["min", "average"])
    def test_signed_zeros_and_all_tied_columns(self, method):
        a = np.array([[0.0, 2.0, 1.0], [-0.0, 2.0, -1.0], [0.0, 2.0, -0.0], [-0.0, 2.0, 0.0]])
        got = inference._rank_columns(a, method)
        assert np.array_equal(got, rankdata(a, method=method, axis=0))
        expected_tied = 1 if method == "min" else 2.5
        assert (got[:, :2] == expected_tied).all()


class TestErlOracle:
    def test_vectorised_tie_groups_match_loop(self):
        rng = substream(12, 0)
        for _ in range(300):
            s, m = int(rng.integers(2, 60)), int(rng.integers(1, 6))
            curves = tie_heavy(rng, s, m, levels=int(rng.integers(1, 4)))
            measures, order = inference._erl_order(curves)
            want_measures, want_order = loop_erl_order(curves)
            assert np.array_equal(order, want_order)
            assert np.array_equal(measures, want_measures)

    def test_matches_scipy_ranks(self, monkeypatch):
        rng = substream(13, 0)
        cases = []
        for b in (1, 19, 99):
            for make in (null_curves, lambda r, n: tie_heavy(r, n, len(ARGS))):
                reps1, reps2 = make(rng, b), 5.0 + make(rng, b)
                obs1, obs2 = make(rng, 1)[0], 5.0 + make(rng, 1)[0]
                cases.append((CurveSet(ARGS, obs1, reps1), CurveSet(ARGS, obs2, reps2)))

        def run_all():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                return [(combined_erl_test([a]), combined_erl_test([a, b])) for a, b in cases]

        got = run_all()
        monkeypatch.setattr(inference, "_rank_columns",
                            lambda a, method: rankdata(a, method=method, axis=0))
        want = run_all()
        for (single, combined), (single_ref, combined_ref) in zip(got, want):
            assert_same_result(single, single_ref)
            assert_same_result(combined, combined_ref)


class TestQuadrat:
    def test_equal_counts_statistic_zero(self):
        # six points near each tile center of a 2x2 tiling
        pts = [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]
        pat = SpatialPattern(np.array(pts * 6) + substream(0, 1).normal(0, 1e-3, (24, 2)),
                             UNIT)
        stat, p = quadrat_test(pat, (2, 2))
        assert stat == pytest.approx(0.0)
        assert p == pytest.approx(1.0)

    def test_concentrated_pattern_chi2_arithmetic(self):
        rng = substream(1, 1)
        xy = rng.uniform(0.0, 0.5, size=(100, 2))
        stat, p = quadrat_test(SpatialPattern(xy, UNIT), (2, 2))
        # all 100 points in one of 4 equal tiles: chi2 = 75^2/25 + 3*25 = 300
        assert stat == pytest.approx(300.0)
        assert p == pytest.approx(chi2.sf(300.0, 3))
        assert p < 1e-6

    def test_p_value_is_the_chi2_tail(self):
        for seed in range(20):
            rng = substream(seed, 2)
            xy = rng.uniform(size=(int(rng.integers(500, 2000)), 2)) ** rng.uniform(1.0, 1.5)
            pat = SpatialPattern(xy, UNIT)
            for nx, ny in ((2, 2), (3, 2), (5, 5)):
                stat, p = quadrat_test(pat, (nx, ny))
                assert p == float(chi2.sf(stat, nx * ny - 1))

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError):
            quadrat_test(SpatialPattern(np.empty((0, 2)), UNIT))

    def test_auto_coarsens_small_counts(self):
        rng = substream(2, 1)
        pat = SpatialPattern(rng.uniform(size=(30, 2)), UNIT)
        with pytest.warns(UserWarning, match="coarsen"):
            quadrat_test(pat, (10, 10))

    def test_slivers_pooled_into_one_cell(self):
        # a 10x10 tiling of a thin triangle: tiles cut to less than half a
        # tile that expect fewer than 5 events are one chi-square cell
        window = Window((0, 1), (0, 1), (0, 1), PolygonMask([(0, 0), (1, 0), (0, 0.6)]))
        xy = substream(4, 1).uniform(size=(4000, 2))
        pat = SpatialPattern(xy[window.contains_xy(xy)][:1000], window)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            stat, p = quadrat_test(pat, (10, 10))
        fine = GridSpec.spatial(window, core._FINE_RASTER, core._FINE_RASTER)
        areas = _tile_areas(window, fine, window.raster(fine), 10, 10)
        expected = 1000 * areas / areas.sum()
        sliver = (areas > 0) & (expected < 5) & (areas < 0.5 / 100)
        whole = (areas > 0) & ~sliver
        assert sliver.sum() >= 2 and expected[whole].min() >= 5
        counts, _, _ = np.histogram2d(*pat.points.T, bins=10, range=[[0, 1], [0, 1]])
        cells = np.append(counts[whole], counts[sliver].sum())
        means = np.append(expected[whole], expected[sliver].sum())
        assert stat == pytest.approx(((cells - means) ** 2 / means).sum(), rel=1e-12)
        assert p == float(chi2.sf(stat, len(cells) - 1))

    def test_window_rasterized_once(self, monkeypatch):
        # coarsening from 10x10 re-tiles the same raster, never re-rasterizes
        window = Window((0, 1), (0, 1), (0, 1), PolygonMask([(0, 0), (1, 0), (0.5, 1)]))
        xy = substream(2, 3).uniform(size=(200, 2))
        pat = SpatialPattern(xy[window.contains_xy(xy)], window)
        calls = []
        raster = Window.raster

        def counted_raster(w, grid):
            calls.append(grid)
            return raster(w, grid)

        monkeypatch.setattr(Window, "raster", counted_raster)
        with pytest.warns(UserWarning, match="coarsen"):
            quadrat_test(pat, (10, 10))
        assert len(calls) == 1

    def test_tile_relabel_invariance(self):
        # mirroring the pattern relabels tiles without changing the statistic
        rng = substream(3, 1)
        xy = rng.uniform(size=(200, 2))
        s1, p1 = quadrat_test(SpatialPattern(xy, UNIT), (4, 4))
        s2, p2 = quadrat_test(SpatialPattern(1.0 - xy, UNIT), (4, 4))
        assert s1 == pytest.approx(s2)
        assert p1 == pytest.approx(p2)

    def test_calibration_homogeneous(self):
        hits = 0
        runs = 400
        for s in range(runs):
            sp, _ = project(simulate_poisson(800, UNIT, substream(s, 2)))
            hits += quadrat_test(sp)[1] <= 0.05
        assert 0.03 <= hits / runs <= 0.07
