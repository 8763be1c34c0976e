import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from stpp import core, intensity, separability
from stpp.core import GridSpec, PolygonMask, ScalarField, SpaceTimePattern, Window, _trusted, project, substream
from stpp.inference import CurveSet, combined_erl_test
from stpp.intensity import (
    KernelSpec,
    estimate_lambda_s,
    estimate_lambda_st,
    estimate_lambda_t,
)
from stpp.separability import _SeparabilityEngine, separability_test
from stpp.simulate import simulate_poisson, thin

from helpers import AnalyticModel

UNIT = Window((0, 1), (0, 1), (0, 1))
POLYGON = Window(
    (0, 1), (0, 1), (0, 1), PolygonMask([(0.05, 0.0), (1.0, 0.1), (0.9, 1.0), (0.0, 0.85)])
)
KS, KT = KernelSpec(0.08), KernelSpec(0.05)


# S statistics from three plugged-in estimates, and permutation replicates as
# patterns: the oracles of the permutation engine in ``stpp.separability``


@dataclass
class SeparabilityStats:
    """S statistics on the estimation grids: 3D field plus its averages."""

    s_st: ScalarField
    s_s: ScalarField
    s_t: ScalarField
    expected_count: float


def compute_S(
    pattern: SpaceTimePattern,
    lam_st: ScalarField,
    lam_s: ScalarField,
    lam_t: ScalarField,
    include_zero_cells: bool = True,
) -> SeparabilityStats:
    """Cellwise S statistics from plugged-in intensity estimates.

    The three estimates must share grids: ``lam_st`` on (nx, ny, nt),
    ``lam_s`` on (nx, ny) and ``lam_t`` on (nt,).  The expected total
    count is estimated by the observed n.  Averages over W and T use the
    masked grid quadrature; cells zeroed by the a/0 = 0 convention are
    included by default, or dropped from the averaging measure with
    ``include_zero_cells=False``.
    """
    f3, f2, f1 = lam_st, lam_s, lam_t
    if f3.grid.shape[:2] != f2.grid.shape or f3.grid.shape[2] != f1.grid.shape[0]:
        raise ValueError("intensity estimates live on incompatible grids")
    n = float(len(pattern))
    den = f2.values[:, :, None] * f1.values[None, None, :]
    s_st = n * separability._safe_ratio(f3.values, den)
    mask2d = f2.mask
    s_st = np.where(mask2d[:, :, None], s_st, 0.0)
    cell_area = f2.grid.cell_volume
    dt = f1.grid.cell_volume
    if include_zero_cells:
        area = mask2d.sum() * cell_area
        duration = f1.grid.shape[0] * dt
        s_t = s_st.sum(axis=(0, 1)) * cell_area / area
        s_s = s_st.sum(axis=2) * dt / duration
    else:
        defined = (den > 0) & mask2d[:, :, None]
        with np.errstate(invalid="ignore"):
            s_t = s_st.sum(axis=(0, 1)) / np.maximum(defined.sum(axis=(0, 1)), 1)
            s_s = s_st.sum(axis=2) / np.maximum(defined.sum(axis=2), 1)
    return SeparabilityStats(
        ScalarField(f3.grid, s_st, f3.mask),
        ScalarField(f2.grid, np.where(mask2d, s_s, 0.0), mask2d),
        ScalarField(f1.grid, s_t),
        n,
    )


def permute_null(pattern: SpaceTimePattern, B: int, seed) -> list[SpaceTimePattern]:
    """B null replicates pairing fixed locations with permuted times."""
    if B < 1:
        raise ValueError("B must be >= 1")
    out = []
    for b in range(B):
        rng = substream(seed, b)
        perm = rng.permutation(len(pattern))
        pts = np.column_stack([pattern.x, pattern.t[perm]])
        pts = pts[np.lexsort((pts[:, 1], pts[:, 0], pts[:, 2]))]
        out.append(_trusted(SpaceTimePattern, pts, pattern.window))
    return out

def estimates(pattern, grid, ks=KS, kt=KT):
    sp, tp = project(pattern)
    nx, ny, nt = grid.shape
    lam_s = estimate_lambda_s(sp, ks, GridSpec.spatial(pattern.window, nx, ny))
    lam_t = estimate_lambda_t(tp, kt, GridSpec.temporal(pattern.window, nt))
    lam_st = estimate_lambda_st(pattern, ks, kt, grid)
    return lam_st, lam_s, lam_t


def observed_curves(eng, n):
    """The engine's S_t and S_s curves of the observed pairing."""
    s_t, s_s = eng.curves(np.arange(n)[None])
    return s_t[0], s_s[0]


def oracle_curves(pat, ks, kt, grid, perms):
    """S_t and in-mask S_s of each re-pairing of the pattern's times, one
    full space-time estimate per row of ``perms``."""
    _, lam_s, lam_t = estimates(pat, grid, ks, kt)  # marginals unchanged by permutation
    s_t, s_s = [], []
    for perm in perms:
        rep = SpaceTimePattern(np.column_stack([pat.x, pat.t[perm]]), pat.window)
        stats = compute_S(rep, estimate_lambda_st(rep, ks, kt, grid), lam_s, lam_t)
        s_t.append(stats.s_t.values)
        s_s.append(stats.s_s.values[stats.s_s.mask])
    return np.array(s_t), np.array(s_s)


class WholeRowsEngine:
    """The separability engine as it was before its spatial rows S were
    built per row block: S (n, nx*ny) of all events built at once and held.
    Test-only oracle of the blocked engine."""

    def __init__(self, pattern, kernel_s, kernel_t, grid):
        window = pattern.window
        nx, ny, nt = grid.shape
        n = len(pattern)
        gx, gy, self.T, _, _, mask2d = intensity._spacetime_rows(
            pattern.x, pattern.t, window, grid, kernel_s.bandwidth, kernel_t.bandwidth
        )
        self.S = (gx[:, :, None] * gy[:, None, :]).reshape(n, nx * ny)
        if mask2d is None:
            mask2d = np.ones((nx, ny), dtype=bool)
        self.mask2d = mask2d
        cell_area = grid.step[0] * grid.step[1]
        area = mask2d.sum() * cell_area
        lam_s_flat = np.where(mask2d, gx.T @ gy, 0.0).ravel()
        w_s = np.zeros_like(lam_s_flat)
        np.divide(cell_area * n / area, lam_s_flat, out=w_s, where=lam_s_flat > 0)
        self.u = self.S @ w_s
        lam_t = self.T.sum(axis=0)
        w_t = np.zeros(nt)
        np.divide(grid.step[2] * n / window.duration, lam_t, out=w_t, where=lam_t > 0)
        self.v = self.T @ w_t
        self.inv_lam_t = separability._safe_ratio(np.ones(nt), lam_t)
        self.inv_lam_s = separability._safe_ratio(np.ones(nx * ny), lam_s_flat)

    def curves(self, perms):
        scattered = np.zeros(perms.shape)
        scattered[np.arange(len(perms))[:, None], perms] = self.u
        s_t = (scattered @ self.T) * self.inv_lam_t
        s_s = (self.v[perms] @ self.S) * self.inv_lam_s
        return s_t, s_s[:, self.mask2d.ravel()]


def pairings(n, B, seed):
    """The observed pairing and the B permutations of ``separability_test``."""
    return np.array([np.arange(n)] + [substream(seed, b).permutation(n) for b in range(B)])


class TestComputeS:
    def test_exact_separable_plugin_is_one(self):
        pat = simulate_poisson(600, UNIT, 0)
        grid = GridSpec.spacetime(UNIT, 12, 12, 30)
        lam_st, lam_s, lam_t = estimates(pat, grid)
        sep_vals = lam_s.values[:, :, None] * lam_t.values[None, None, :] / len(pat)
        sep = ScalarField(grid, sep_vals)
        stats = compute_S(pat, sep, lam_s, lam_t)
        assert np.allclose(stats.s_st.values, 1.0)
        assert np.allclose(stats.s_s.values, 1.0)
        assert np.allclose(stats.s_t.values, 1.0)
        assert stats.expected_count == len(pat)

    def test_zero_denominator_convention(self):
        pat = SpaceTimePattern([(0.5, 0.5, 0.5)], UNIT)
        grid = GridSpec.spacetime(UNIT, 8, 8, 8)
        lam_st, lam_s, lam_t = estimates(pat, grid, KernelSpec(0.12), KernelSpec(0.12))
        zeroed = lam_s.values.copy()
        zeroed[0, :] = 0.0
        lam_s_z = ScalarField(lam_s.grid, zeroed)
        stats = compute_S(pat, lam_st, lam_s_z, lam_t)
        assert (stats.s_st.values[0] == 0.0).all()

    def test_incompatible_grids_rejected(self):
        pat = simulate_poisson(100, UNIT, 1)
        big = KernelSpec(0.2)
        lam_st, lam_s, lam_t = estimates(pat, GridSpec.spacetime(UNIT, 8, 8, 8), big, big)
        _, lam_s_small, _ = estimates(pat, GridSpec.spacetime(UNIT, 4, 4, 8), big, big)
        with pytest.raises(ValueError, match="grid"):
            compute_S(pat, lam_st, lam_s_small, lam_t)

    def test_zero_cell_exclusion_config(self):
        # excluding a/0 cells from the averages changes only the measure
        pat = simulate_poisson(400, UNIT, 10)
        grid = GridSpec.spacetime(UNIT, 10, 10, 20)
        lam_st, lam_s, lam_t = estimates(pat, grid, KernelSpec(0.12), KernelSpec(0.08))
        incl = compute_S(pat, lam_st, lam_s, lam_t, include_zero_cells=True)
        excl = compute_S(pat, lam_st, lam_s, lam_t, include_zero_cells=False)
        # dense estimates keep every denominator positive, so both agree
        assert np.allclose(incl.s_t.values, excl.s_t.values)
        zeroed = lam_s.values.copy()
        zeroed[:5] = 0.0
        lam_s_z = ScalarField(lam_s.grid, zeroed)
        incl = compute_S(pat, lam_st, lam_s_z, lam_t, include_zero_cells=True)
        excl = compute_S(pat, lam_st, lam_s_z, lam_t, include_zero_cells=False)
        assert (excl.s_t.values >= incl.s_t.values).all()

    def test_consistency_improves_with_n(self):
        # thinned and full patterns estimate the same S_t target, and the
        # discrepancy shrinks as the sample grows
        grid = GridSpec.spacetime(UNIT, 10, 10, 20)
        ks, kt = KernelSpec(0.15), KernelSpec(0.1)

        def discrepancy(lam, seed):
            pat = simulate_poisson(lam, UNIT, seed)
            sub = thin(pat, 0.5, substream(seed, 1))
            full = observed_curves(_SeparabilityEngine(pat, ks, kt, grid), len(pat))[0]
            thinned = observed_curves(_SeparabilityEngine(sub, ks, kt, grid), len(sub))[0]
            return np.abs(thinned - full).mean()

        small = np.mean([discrepancy(300, s) for s in range(10)])
        large = np.mean([discrepancy(4000, s) for s in range(10)])
        assert large < small

    def test_separable_poisson_s_t_near_one(self):
        # inhomogeneous separable intensity: S_t should hover near 1
        model = AnalyticModel(
            lambda x1, x2, t: 5000.0 * 2 * (0.25 + 0.5 * x1) * 2 * t,
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
        pat = simulate_poisson(700, window, 3)
        grid = GridSpec.spacetime(window, 10, 14, 22)
        stats = compute_S(pat, *estimates(pat, grid))
        eng = _SeparabilityEngine(pat, KS, KT, grid)
        s_t, s_s = observed_curves(eng, len(pat))
        mask = stats.s_s.mask
        assert np.array_equal(eng.mask2d, mask)
        assert np.allclose(s_t, stats.s_t.values)
        assert np.allclose(s_s, stats.s_s.values[mask])

    def test_permuted_curves_match_recomputation(self):
        pat = simulate_poisson(300, UNIT, 4)
        grid = GridSpec.spacetime(UNIT, 8, 8, 16)
        ks, kt = KernelSpec(0.12), KernelSpec(0.08)
        eng = _SeparabilityEngine(pat, ks, kt, grid)
        perms = np.array([substream(0, 5).permutation(len(pat))])
        s_t_fast, s_s_fast = eng.curves(perms)
        s_t, s_s = oracle_curves(pat, ks, kt, grid, perms)
        assert np.allclose(s_t_fast, s_t)
        assert np.allclose(s_s_fast, s_s)

    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    def test_blocks_match_recomputation(self, monkeypatch, window):
        # three pairings per block, so the observed curves and 7 replicates
        # take three calls; each row must match its own full recomputation
        pat = simulate_poisson(300, window, 15)
        n = len(pat)
        grid = GridSpec.spacetime(window, 8, 10, 16)
        ks, kt = KernelSpec(0.12), KernelSpec(0.08)
        monkeypatch.setattr(core, "_BLOCK_BYTES", 3 * 8 * n)
        calls, sets = [], []
        engine_curves = _SeparabilityEngine.curves

        def counted_curves(eng, perms):
            calls.append(len(perms))
            return engine_curves(eng, perms)

        def kept_erl_test(curve_sets, alpha):
            sets.extend(curve_sets)
            return combined_erl_test(curve_sets, alpha)

        monkeypatch.setattr(_SeparabilityEngine, "curves", counted_curves)
        monkeypatch.setattr(separability, "combined_erl_test", kept_erl_test)
        separability_test(pat, ks, kt, B=7, grid=grid, seed=16)
        assert calls == [3, 3, 2]
        perms = [np.arange(n)] + [substream(16, b).permutation(n) for b in range(7)]
        for curve_set, oracle in zip(sets, oracle_curves(pat, ks, kt, grid, perms)):
            fast = np.vstack([curve_set.observed, curve_set.replicates])
            np.testing.assert_allclose(fast, oracle, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    @pytest.mark.parametrize("rows", [4, None], ids=["blocks", "one-block"])
    def test_p_value_matches_permutation_loop(self, monkeypatch, window, rows):
        pat = simulate_poisson(300, window, 17)
        n = len(pat)
        grid = GridSpec.spacetime(window, 8, 10, 16)
        ks, kt = KernelSpec(0.12), KernelSpec(0.08)
        if rows:
            monkeypatch.setattr(core, "_BLOCK_BYTES", rows * 8 * n)
        res = separability_test(pat, ks, kt, B=39, grid=grid, seed=18)
        perms = [np.arange(n)] + [substream(18, b).permutation(n) for b in range(39)]
        s_t, s_s = oracle_curves(pat, ks, kt, grid, perms)
        oracle = combined_erl_test([
            CurveSet(grid.centers(2), s_t[0], s_t[1:]),
            CurveSet(np.arange(s_s.shape[1], dtype=float), s_s[0], s_s[1:]),
        ], alpha=0.05)
        assert res.p_value == oracle.p_value


class TestRowBlocks:
    """The engine that builds S per row block against the whole-rows engine."""

    GRID = (10, 14, 22)

    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    def test_one_block_equals_whole_rows(self, window):
        pat = simulate_poisson(700, window, 19)
        grid = GridSpec.spacetime(window, *self.GRID)
        eng = _SeparabilityEngine(pat, KS, KT, grid)
        assert len(eng.blocks) == 1
        oracle = WholeRowsEngine(pat, KS, KT, grid)
        assert np.array_equal(eng.u, oracle.u) and np.array_equal(eng.v, oracle.v)
        perms = pairings(len(pat), 9, 20)
        for got, want in zip(eng.curves(perms), oracle.curves(perms), strict=True):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    @pytest.mark.parametrize("rows", [1, 2, 7, 64])
    def test_blocks_agree_with_whole_rows(self, monkeypatch, window, rows):
        pat = simulate_poisson(700, window, 19)
        nx, ny, _ = self.GRID
        monkeypatch.setattr(core, "_BLOCK_BYTES", rows * 8 * nx * ny)
        grid = GridSpec.spacetime(window, *self.GRID)
        eng = _SeparabilityEngine(pat, KS, KT, grid)
        assert len(eng.blocks) == -(-len(pat) // rows)
        oracle = WholeRowsEngine(pat, KS, KT, grid)
        np.testing.assert_allclose(eng.u, oracle.u, rtol=1e-13, atol=0)
        perms = pairings(len(pat), 9, 20)
        for got, want in zip(eng.curves(perms), oracle.curves(perms), strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    @pytest.mark.parametrize("budget", [None, 5 * 8 * 140, 48 * 8 * 140, 8 * 8 * 700])
    def test_p_values_equal_whole_rows(self, monkeypatch, window, budget):
        pat = simulate_poisson(500, window, 21)
        grid = GridSpec.spacetime(window, *self.GRID)
        if budget:
            monkeypatch.setattr(core, "_BLOCK_BYTES", budget)
        res = separability_test(pat, KS, KT, B=39, grid=grid, seed=22)
        s_t, s_s = WholeRowsEngine(pat, KS, KT, grid).curves(pairings(len(pat), 39, 22))
        oracle = combined_erl_test([
            CurveSet(grid.centers(2), s_t[0], s_t[1:]),
            CurveSet(np.arange(s_s.shape[1], dtype=float), s_s[0], s_s[1:]),
        ], alpha=0.05)
        assert res.p_value == oracle.p_value

    def test_memory_is_one_block_plus_factor_rows_and_curves(self, monkeypatch):
        # about 2000 events on a 40 x 40 grid: S whole is 26 MB; in blocks
        # of 100 events the engine holds 1.5 MB of factor and T rows and
        # builds one 1.3 MB S block at a time
        pat = simulate_poisson(2000, UNIT, 23)
        n = len(pat)
        nx, ny, nt = 40, 40, 10
        monkeypatch.setattr(core, "_BLOCK_BYTES", 100 * 8 * nx * ny)
        grid = GridSpec.spacetime(UNIT, nx, ny, nt)
        perms = pairings(n, 4, 24)
        tracemalloc.start()
        try:
            eng = _SeparabilityEngine(pat, KS, KT, grid, pairings=len(perms))
            eng.curves(perms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(eng.blocks) > 10
        # factor and T rows, one S block and the curves, plus O(n) and
        # grid-sized work vectors; about 3.0 MB of the 3.4 MB bound here,
        # 27.6 MB with S whole
        held = n * (nx + ny + nt) + 100 * nx * ny + len(perms) * (nx * ny + nt)
        bound = 8 * (held + 20 * n + 20 * nx * ny)
        assert peak < bound < 8 * n * nx * ny / 4


class TestPermuteNull:
    def test_single_point_identity(self):
        pat = SpaceTimePattern([(0.5, 0.5, 0.5)], UNIT)
        (rep,) = permute_null(pat, 1, 0)
        assert np.array_equal(rep.points, pat.points)

    def test_marginals_preserved(self):
        pat = simulate_poisson(200, UNIT, 5)
        for rep in permute_null(pat, 5, 1):
            sp0, tp0 = project(pat)
            sp1, tp1 = project(rep)
            assert np.array_equal(np.sort(sp1.points, axis=0), np.sort(sp0.points, axis=0))
            assert np.array_equal(tp1.times, tp0.times)

    def test_replicates_differ_from_original(self):
        pat = simulate_poisson(200, UNIT, 6)
        reps = permute_null(pat, 3, 2)
        assert any(not np.array_equal(r.points, pat.points) for r in reps)


class TestSeparabilityTest:
    def test_thinning_leaves_s_targets(self):
        # constant thinning preserves the S statistics' target: the same
        # exact-separable plug-in stays identically 1 on the thinned pattern
        pat = simulate_poisson(2000, UNIT, 7)
        sub = thin(pat, 0.2, 8)
        grid = GridSpec.spacetime(UNIT, 10, 10, 20)
        lam_st, lam_s, lam_t = estimates(sub, grid)
        sep_vals = lam_s.values[:, :, None] * lam_t.values[None, None, :] / len(sub)
        sep = ScalarField(grid, sep_vals)
        stats = compute_S(sub, sep, lam_s, lam_t)
        assert np.allclose(stats.s_t.values, 1.0)

    def test_null_replicate_band_brackets_one(self):
        # permutation replicates of a separable pattern produce S_t values
        # whose empirical 95% band contains 1 at most grid times
        pat = simulate_poisson(1500, UNIT, 9)
        grid = GridSpec.spacetime(UNIT, 12, 12, 25)
        eng = _SeparabilityEngine(pat, KS, KT, grid)
        reps = []
        for b in range(60):
            rng = substream(10, b)
            s_t, _ = eng.curves(rng.permutation(len(pat))[None])
            reps.append(s_t[0])
        reps = np.array(reps)
        lo = np.quantile(reps, 0.025, axis=0)
        hi = np.quantile(reps, 0.975, axis=0)
        frac = ((lo <= 1.0) & (1.0 <= hi)).mean()
        assert frac >= 0.9

    def test_power_against_interaction(self):
        model = AnalyticModel(
            lambda x1, x2, t: 900.0 * (1.0 + 2.5 * (x1 > 0.5) * (t > 0.5)),
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
            pat = simulate_poisson(800, UNIT, substream(s, 13))
            res = separability_test(pat, KernelSpec(0.1), KernelSpec(0.06), B=49,
                                    grid=GridSpec.spacetime(UNIT, 12, 12, 30),
                                    seed=(s, 14))
            hits += res.p_value <= 0.05
        assert hits <= 5  # expect ~1.5 of 30 at the 5% level
