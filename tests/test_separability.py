import numpy as np
import pytest

from stpp.core import GridSpec, PolygonMask, ScalarField, SpaceTimePattern, Window, project, substream
from stpp.intensity import (
    IntensityEstimate,
    KernelSpec,
    estimate_lambda_s,
    estimate_lambda_st,
    estimate_lambda_t,
)
from stpp.separability import (
    _SeparabilityEngine,
    compute_S,
    permute_null,
    separability_test,
)
from stpp.simulate import IntensityModel, RetentionSpec, simulate_poisson, thin

UNIT = Window((0, 1), (0, 1), (0, 1))
POLYGON = Window(
    (0, 1), (0, 1), (0, 1), PolygonMask([(0.05, 0.0), (1.0, 0.1), (0.9, 1.0), (0.0, 0.85)])
)
KS, KT = KernelSpec(0.08), KernelSpec(0.05)


def estimates(pattern, grid, ks=KS, kt=KT):
    sp, tp = project(pattern)
    nx, ny, nt = grid.shape
    lam_s = estimate_lambda_s(sp, ks, GridSpec.spatial(pattern.window, nx, ny))
    lam_t = estimate_lambda_t(tp, kt, GridSpec.temporal(pattern.window, nt))
    lam_st = estimate_lambda_st(pattern, ks, kt, grid)
    return lam_st, lam_s, lam_t


class TestComputeS:
    def test_exact_separable_plugin_is_one(self):
        pat = simulate_poisson(IntensityModel.const(600), UNIT, 0)
        grid = GridSpec.spacetime(UNIT, 12, 12, 30)
        lam_st, lam_s, lam_t = estimates(pat, grid)
        sep_vals = lam_s.field.values[:, :, None] * lam_t.field.values[None, None, :] / len(pat)
        sep = IntensityEstimate(ScalarField(grid, sep_vals), (KS.bandwidth, KT.bandwidth))
        stats = compute_S(pat, sep, lam_s, lam_t)
        assert np.allclose(stats.s_st.values, 1.0)
        assert np.allclose(stats.s_s.values, 1.0)
        assert np.allclose(stats.s_t.values, 1.0)
        assert stats.expected_count == len(pat)

    def test_zero_denominator_convention(self):
        pat = SpaceTimePattern([(0.5, 0.5, 0.5)], UNIT)
        grid = GridSpec.spacetime(UNIT, 8, 8, 8)
        lam_st, lam_s, lam_t = estimates(pat, grid, KernelSpec(0.12), KernelSpec(0.12))
        zeroed = lam_s.field.values.copy()
        zeroed[0, :] = 0.0
        lam_s_z = IntensityEstimate(ScalarField(lam_s.field.grid, zeroed), (KS.bandwidth,))
        stats = compute_S(pat, lam_st, lam_s_z, lam_t)
        assert (stats.s_st.values[0] == 0.0).all()

    def test_incompatible_grids_rejected(self):
        pat = simulate_poisson(IntensityModel.const(100), UNIT, 1)
        big = KernelSpec(0.2)
        lam_st, lam_s, lam_t = estimates(pat, GridSpec.spacetime(UNIT, 8, 8, 8), big, big)
        _, lam_s_small, _ = estimates(pat, GridSpec.spacetime(UNIT, 4, 4, 8), big, big)
        with pytest.raises(ValueError, match="grid"):
            compute_S(pat, lam_st, lam_s_small, lam_t)

    def test_zero_cell_exclusion_config(self):
        # excluding a/0 cells from the averages changes only the measure
        pat = simulate_poisson(IntensityModel.const(400), UNIT, 10)
        grid = GridSpec.spacetime(UNIT, 10, 10, 20)
        lam_st, lam_s, lam_t = estimates(pat, grid, KernelSpec(0.12), KernelSpec(0.08))
        incl = compute_S(pat, lam_st, lam_s, lam_t, include_zero_cells=True)
        excl = compute_S(pat, lam_st, lam_s, lam_t, include_zero_cells=False)
        # dense estimates keep every denominator positive, so both agree
        assert np.allclose(incl.s_t.values, excl.s_t.values)
        zeroed = lam_s.field.values.copy()
        zeroed[:5] = 0.0
        lam_s_z = IntensityEstimate(ScalarField(lam_s.field.grid, zeroed), (0.12,))
        incl = compute_S(pat, lam_st, lam_s_z, lam_t, include_zero_cells=True)
        excl = compute_S(pat, lam_st, lam_s_z, lam_t, include_zero_cells=False)
        assert (excl.s_t.values >= incl.s_t.values).all()

    def test_consistency_improves_with_n(self):
        # thinned and full patterns estimate the same S_t target, and the
        # discrepancy shrinks as the sample grows
        grid = GridSpec.spacetime(UNIT, 10, 10, 20)
        ks, kt = KernelSpec(0.15), KernelSpec(0.1)

        def discrepancy(lam, seed):
            pat = simulate_poisson(IntensityModel.const(lam), UNIT, seed)
            sub = thin(pat, RetentionSpec.constant(0.5), substream(seed, 1))
            full = _SeparabilityEngine(pat, ks, kt, grid).curves()[0]
            thinned = _SeparabilityEngine(sub, ks, kt, grid).curves()[0]
            return np.abs(thinned - full).mean()

        small = np.mean([discrepancy(300, s) for s in range(10)])
        large = np.mean([discrepancy(4000, s) for s in range(10)])
        assert large < small

    def test_separable_poisson_s_t_near_one(self):
        # inhomogeneous separable intensity: S_t should hover near 1
        model = IntensityModel(
            function=lambda x1, x2, t: 5000.0 * 2 * (0.25 + 0.5 * x1) * 2 * t,
            bound=5000.0 * 1.5 * 2,
        )
        pat = simulate_poisson(model, UNIT, 2)
        assert len(pat) > 3000
        grid = GridSpec.spacetime(UNIT, 16, 16, 40)
        stats = compute_S(pat, *estimates(pat, grid))
        # drop the first cells, where lambda_t -> 0 makes the ratio unstable
        inner = stats.s_t.values[4:]
        assert np.abs(inner - 1.0).mean() < 0.15


class TestEngine:
    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    def test_matches_compute_s(self, window):
        pat = simulate_poisson(IntensityModel.const(700), window, 3)
        grid = GridSpec.spacetime(window, 10, 14, 22)
        stats = compute_S(pat, *estimates(pat, grid))
        eng = _SeparabilityEngine(pat, KS, KT, grid)
        s_t, s_s = eng.curves()
        mask = stats.s_s.mask
        assert np.array_equal(eng.mask2d, mask)
        assert np.allclose(s_t, stats.s_t.values)
        assert np.allclose(s_s, stats.s_s.values[mask])

    def test_permuted_curves_match_recomputation(self):
        pat = simulate_poisson(IntensityModel.const(300), UNIT, 4)
        grid = GridSpec.spacetime(UNIT, 8, 8, 16)
        ks, kt = KernelSpec(0.12), KernelSpec(0.08)
        eng = _SeparabilityEngine(pat, ks, kt, grid)
        rng = substream(0, 5)
        perm = rng.permutation(len(pat))
        s_t_fast, s_s_fast = eng.curves(perm)

        rep_pts = np.column_stack([pat.x, pat.t[perm]])
        rep = SpaceTimePattern(rep_pts, UNIT)
        sp, tp = project(pat)  # marginals unchanged by permutation
        nx, ny, nt = grid.shape
        lam_s = estimate_lambda_s(sp, ks, GridSpec.spatial(UNIT, nx, ny))
        lam_t = estimate_lambda_t(tp, kt, GridSpec.temporal(UNIT, nt))
        lam_st = estimate_lambda_st(rep, ks, kt, grid)
        stats = compute_S(rep, lam_st, lam_s, lam_t)
        assert np.allclose(s_t_fast, stats.s_t.values)
        assert np.allclose(s_s_fast, stats.s_s.values.ravel())


class TestPermuteNull:
    def test_single_point_identity(self):
        pat = SpaceTimePattern([(0.5, 0.5, 0.5)], UNIT)
        (rep,) = permute_null(pat, 1, 0)
        assert np.array_equal(rep.points, pat.points)

    def test_marginals_preserved(self):
        pat = simulate_poisson(IntensityModel.const(200), UNIT, 5)
        for rep in permute_null(pat, 5, 1):
            sp0, tp0 = project(pat)
            sp1, tp1 = project(rep)
            assert np.array_equal(np.sort(sp1.points, axis=0), np.sort(sp0.points, axis=0))
            assert np.array_equal(tp1.times, tp0.times)

    def test_replicates_differ_from_original(self):
        pat = simulate_poisson(IntensityModel.const(200), UNIT, 6)
        reps = permute_null(pat, 3, 2)
        assert any(not np.array_equal(r.points, pat.points) for r in reps)


class TestSeparabilityTest:
    def test_thinning_leaves_s_targets(self):
        # constant thinning preserves the S statistics' target: the same
        # exact-separable plug-in stays identically 1 on the thinned pattern
        pat = simulate_poisson(IntensityModel.const(2000), UNIT, 7)
        sub = thin(pat, RetentionSpec.constant(0.2), 8)
        grid = GridSpec.spacetime(UNIT, 10, 10, 20)
        lam_st, lam_s, lam_t = estimates(sub, grid)
        sep_vals = lam_s.field.values[:, :, None] * lam_t.field.values[None, None, :] / len(sub)
        sep = IntensityEstimate(ScalarField(grid, sep_vals), (KS.bandwidth, KT.bandwidth))
        stats = compute_S(sub, sep, lam_s, lam_t)
        assert np.allclose(stats.s_t.values, 1.0)

    def test_null_replicate_band_brackets_one(self):
        # permutation replicates of a separable pattern produce S_t values
        # whose empirical 95% band contains 1 at most grid times
        pat = simulate_poisson(IntensityModel.const(1500), UNIT, 9)
        grid = GridSpec.spacetime(UNIT, 12, 12, 25)
        eng = _SeparabilityEngine(pat, KS, KT, grid)
        reps = []
        for b in range(60):
            rng = substream(10, b)
            s_t, _ = eng.curves(rng.permutation(len(pat)))
            reps.append(s_t)
        reps = np.array(reps)
        lo = np.quantile(reps, 0.025, axis=0)
        hi = np.quantile(reps, 0.975, axis=0)
        frac = ((lo <= 1.0) & (1.0 <= hi)).mean()
        assert frac >= 0.9

    def test_power_against_interaction(self):
        model = IntensityModel(
            function=lambda x1, x2, t: 900.0 * (1.0 + 2.5 * (x1 > 0.5) * (t > 0.5)),
            bound=900.0 * 3.5,
        )
        pat = simulate_poisson(model, UNIT, 11)
        res = separability_test(pat, KernelSpec(0.1), KernelSpec(0.06), B=99,
                                grid=GridSpec.spacetime(UNIT, 16, 16, 40), seed=12)
        assert res.p_value == pytest.approx(1 / 100)

    def test_level_on_separable_pattern(self):
        hits = 0
        runs = 30
        for s in range(runs):
            pat = simulate_poisson(IntensityModel.const(800), UNIT, substream(s, 13))
            res = separability_test(pat, KernelSpec(0.1), KernelSpec(0.06), B=49,
                                    grid=GridSpec.spacetime(UNIT, 12, 12, 30),
                                    seed=(s, 14))
            hits += res.p_value <= 0.05
        assert hits <= 5  # expect ~1.5 of 30 at the 5% level
