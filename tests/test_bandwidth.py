import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq

from stpp import bandwidth, intensity, secondorder
from stpp.bandwidth import (
    cvl_loss,
    default_candidates,
    inverse_residual_loss,
    select_bandwidth_spatial,
    select_bandwidth_temporal,
)
from stpp.core import GridSpec, PolygonMask, SpatialPattern, Window, project, substream
from stpp.simulate import simulate_poisson, thin

UNIT = Window((0, 1), (0, 1), (0, 1))
POLYGON = Window(
    (0, 1), (0, 1), (0, 1), PolygonMask([(0.05, 0.0), (1.0, 0.1), (0.9, 1.0), (0.0, 0.85)])
)


def normal_reference_bandwidth(x) -> float:
    """1.06 * min(sd, IQR/1.349) * n^(-1/5) Gaussian reference rule."""
    x = np.asarray(x, dtype=float)
    sd = x.std(ddof=1)
    q75, q25 = np.percentile(x, [75, 25])
    scale = min(sd, (q75 - q25) / 1.349)
    return 1.06 * scale * len(x) ** (-0.2)


def poisson_spatial(lam, seed, window=UNIT):
    sp, _ = project(simulate_poisson(lam, window, seed))
    return sp


class TestInverseResidualLoss:
    def test_oracle_constant_field_zero_loss(self):
        # lambda == n/|W| makes the inverse sum exactly |W|
        n = 50
        assert inverse_residual_loss(np.full(n, n / 1.0), 1.0) == 0.0

    def test_oracle_double_field(self):
        n = 50
        loss = inverse_residual_loss(np.full(n, 2 * n / 1.0), 1.0)
        assert loss == pytest.approx(1.0 / 4)

    def test_rows_match_one_dimensional_calls(self):
        lam = np.array([[1.0, 2.0, 4.0], [1.0, 0.0, 3.0], [1e-320, 1.0, 1.0], [-1.0, 2.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            losses = inverse_residual_loss(lam, 0.5)
        assert list(losses) == [inverse_residual_loss(row, 0.5) for row in lam]
        assert list(np.isinf(losses)) == [False, True, True, True]

    def test_zero_value_gives_sentinel(self):
        assert inverse_residual_loss(np.array([1.0, 0.0]), 1.0) == math.inf
        # tiny positive values overflow 1/lam or the square: rejected silently
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert inverse_residual_loss(np.array([1e-320]), 1.0) == math.inf
            assert inverse_residual_loss(np.array([1e-160]), 1.0) == math.inf


class TestCvlLoss:
    def test_argmin_matches_brute_force(self):
        pat = poisson_spatial(2000, 0)
        grid = GridSpec.spatial(UNIT, 128, 128)
        candidates = np.geomspace(0.01, 0.2, 8)
        losses = [cvl_loss(pat, b, grid=grid) for b in candidates]

        # independent brute-force evaluation of the same loss
        def brute(b):
            xy = pat.points
            d2 = ((xy[:, None, :] - xy[None, :, :]) ** 2).sum(-1)
            k = np.exp(-0.5 * d2 / b**2) / (2 * math.pi * b**2)
            np.fill_diagonal(k, 0.0)
            xs = grid.centers(0)
            ys = grid.centers(1)
            zx = (xs[None, :] - xy[:, 0][:, None]) / b
            zy = (ys[None, :] - xy[:, 1][:, None]) / b
            px = np.exp(-0.5 * zx**2).sum(1) * grid.step[0] / (b * math.sqrt(2 * math.pi))
            py = np.exp(-0.5 * zy**2).sum(1) * grid.step[1] / (b * math.sqrt(2 * math.pi))
            e = px * py
            lam = (k / e[:, None]).sum(0)
            return (np.sum(1.0 / lam) - 1.0) ** 2

        brute_losses = [brute(b) for b in candidates]
        assert np.allclose(losses, brute_losses, rtol=1e-8)
        assert np.argmin(losses) == np.argmin(brute_losses)

    def test_rejects_nonpositive_bandwidth(self):
        pat = poisson_spatial(100, 1)
        with pytest.raises(ValueError):
            cvl_loss(pat, 0.0)

    def test_finite_and_smooth_over_candidates(self):
        # no infinite jumps across a fine candidate grid on healthy data
        pat = poisson_spatial(800, 8)
        grid = GridSpec.spatial(UNIT, 64, 64)
        bs = np.geomspace(0.02, 0.3, 24)
        losses = np.array([cvl_loss(pat, b, grid=grid) for b in bs])
        assert np.isfinite(losses).all()
        steps = np.abs(np.diff(np.log1p(losses)))
        assert steps.max() < 5.0


class TestSelectSpatial:
    def test_single_candidate_returned(self):
        pat = poisson_spatial(500, 2)
        assert select_bandwidth_spatial(pat, [0.07], folds=2, retention=0.5, repeats=2, seed=0) == 0.07

    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    def test_matches_procedural_oracle(self, window):
        # replay the documented procedure with cvl_loss per fold and
        # candidate: per repeat, thin with substream(seed, r), permute with
        # the continued stream, split into contiguous fold chunks, evaluate
        # held-out loss, argmin; then average the repeats' argmins.  The
        # selection's losses match these to a tolerance (see the next
        # test), and the chosen candidates, hence their mean, exactly
        pat = poisson_spatial(800, 3, window)
        candidates = np.geomspace(0.02, 0.3, 16)
        got = select_bandwidth_spatial(pat, candidates, folds=5, retention=0.5, repeats=3, seed=11)

        chosen = []
        for r in range(3):
            rng = substream(11, r)
            sub = thin(pat, 0.5, rng)
            perm = rng.permutation(len(sub))
            losses = np.zeros(len(candidates))
            for fold in np.array_split(perm, 5):
                hold = np.zeros(len(sub), dtype=bool)
                hold[fold] = True
                train = SpatialPattern.__new__(SpatialPattern)
                train.points = sub.points[~hold]
                train.window = window
                for j, b in enumerate(candidates):
                    # cvl_loss's default grid is the selector's
                    losses[j] += cvl_loss(train, b, eval_points=sub.points[hold])
            chosen.append(candidates[int(np.argmin(losses / 5))])
        assert len(set(chosen)) > 1  # the average, not one argmin, is compared
        assert got == float(np.mean(chosen))

    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    @pytest.mark.parametrize("chunks", [1, 3, 16])
    def test_batched_folds_match_cvl_loss(self, monkeypatch, window, chunks):
        # every (fold, candidate) intensity and loss of the pair pass is the
        # cvl_loss route's to the stated tolerance, whether the pairs come
        # in 1, 3 or 16 chunks; only the order of the sums differs
        pat = poisson_spatial(800, 3, window)
        candidates = np.geomspace(0.02, 0.3, 16)
        grid = GridSpec.spatial(window, 64, 64)
        sub = thin(pat, 0.5, substream(11, 0))
        folds = np.array_split(substream(11, 1).permutation(len(sub)), 5)
        fold_of = np.empty(len(sub), dtype=np.intp)
        for f, fold in enumerate(folds):
            fold_of[fold] = f
        pairs = len(sub) * (len(sub) - 1) // 2  # all within 10 x 0.3
        monkeypatch.setattr(secondorder, "_PAIR_CHUNK", -(-pairs // chunks))
        assert len(list(secondorder._close_pairs(sub.points, np.zeros(len(sub)), 3.0, 0.0))) \
            == chunks
        e = intensity._spatial_corrections(sub.points, grid, window.raster(grid), candidates)
        w = 1.0 / np.maximum(e, intensity._MIN_CORRECTION)
        lam = bandwidth._held_out_lambdas(sub.points, w, fold_of, candidates)
        for f, fold in enumerate(folds):
            hold = np.zeros(len(sub), dtype=bool)
            hold[fold] = True
            train = SpatialPattern.__new__(SpatialPattern)
            train.points = sub.points[~hold]
            train.window = window
            got = inverse_residual_loss(lam[:, hold], window.area)
            for j, b in enumerate(candidates):
                want = bandwidth._lambda_at_points(
                    train.points, sub.points[hold], b, window, grid, loo=False
                )
                np.testing.assert_allclose(lam[j, hold], want, rtol=1e-12, atol=0)
                loss = cvl_loss(train, b, eval_points=sub.points[hold], grid=grid)
                assert got[j] == pytest.approx(loss, rel=1e-9, abs=0), (f, j)

    def test_no_partner_within_reach_gives_zero(self):
        # two clusters 0.5 apart: the first all in fold 0, the second in
        # fold 1 but for one point.  At b = 0.02 the clusters lie 25 b
        # apart, beyond the 10 b reach, so the first cluster's held-out
        # points get 0 and fold 0's loss is +inf, where the dense sum gives
        # tiny positive values; at b = 0.1 they are in reach and match it
        rng = np.random.default_rng(4)
        xy = np.concatenate([rng.uniform(0.2, 0.21, (6, 2)), rng.uniform(0.7, 0.71, (6, 2))])
        fold_of = np.array([0] * 6 + [1] * 5 + [0])
        candidates = np.array([0.02, 0.1])
        w = np.ones((2, len(xy)))
        lam = bandwidth._held_out_lambdas(xy, w, fold_of, candidates)
        assert (lam[0, :6] == 0).all() and (lam[0, 6:] > 0).all()
        assert inverse_residual_loss(lam[0, fold_of == 0], 1.0) == math.inf
        assert math.isfinite(inverse_residual_loss(lam[0, fold_of == 1], 1.0))
        d2 = ((xy[:, None] - xy[None]) ** 2).sum(-1)
        cross = fold_of[:, None] != fold_of[None, :]
        for j, b in enumerate(candidates):
            dense = (cross * np.exp(-0.5 * d2 / b**2)).sum(0) / (2 * math.pi * b**2)
            assert (dense > 0).all()
            if j == 1:
                np.testing.assert_allclose(lam[j], dense, rtol=1e-12, atol=0)

    def test_warns_when_repeats_choose_an_end(self):
        pat = poisson_spatial(800, 5)
        with pytest.warns(UserWarning, match="3 of 3 repeats chose the smallest candidate 0.3 "
                                             "and 0 the largest 0.5") as record:
            assert select_bandwidth_spatial(pat, [0.3, 0.4, 0.5], folds=5, retention=0.5,
                                            repeats=3, seed=2) == 0.3
        assert len(record) == 1

    def test_single_candidate_does_not_warn(self):
        pat = poisson_spatial(500, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            select_bandwidth_spatial(pat, [0.07], folds=2, retention=0.5, repeats=2, seed=0)

    def test_scale_equivariance_within_one_step(self):
        # 15 Gaussian clusters of 60 points (sd 0.06): every repeat's CV
        # minimum lies inside the candidates at both scales, so no
        # end-of-range warning; on a Poisson pattern every repeat chose
        # the smallest candidate, which shows nothing about equivariance
        rng = substream(1, 0)
        xy = np.repeat(rng.uniform(size=(15, 2)), 60, axis=0) + rng.normal(scale=0.06, size=(900, 2))
        xy = xy[UNIT.contains_xy(xy)]
        c = 3.0
        big = Window((0, c), (0, c), (0, 1))
        cands = np.geomspace(0.01, 0.2, 10)
        search = dict(folds=5, retention=0.5, repeats=2, seed=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b1 = select_bandwidth_spatial(SpatialPattern(xy, UNIT), cands, **search)
            b2 = select_bandwidth_spatial(SpatialPattern(xy * c, big), cands * c, **search)
        assert cands[0] < b1 < cands[-1]
        step = cands[1] / cands[0]
        ratio = b2 / (c * b1)
        assert 1 / step <= ratio <= step

    def test_deterministic_given_seed(self):
        pat = poisson_spatial(600, 6)
        search = dict(candidates=np.geomspace(0.03, 0.3, 5), folds=3, retention=0.5, repeats=3,
                      seed=9)
        assert select_bandwidth_spatial(pat, **search) == select_bandwidth_spatial(pat, **search)

    def test_all_repeats_discarded_raises(self):
        pat = poisson_spatial(30, 7)
        with pytest.warns(UserWarning):
            with pytest.raises(ValueError, match="discarded"):
                select_bandwidth_spatial(pat, [0.1], folds=10, retention=0.05, repeats=2, seed=0)

    def test_fold_partition(self):
        # every subsampled point lands in exactly one validation fold
        rng = substream(21, 0)
        perm = rng.permutation(137)
        folds = np.array_split(perm, 10)
        seen = np.concatenate(folds)
        assert sorted(seen) == list(range(137))


def exact_sheather_jones(x):
    """Sheather-Jones root from exact sums over all n(n-1)/2 pair differences.

    The pilot constants, bracketing and solve are those of the selector; only
    the kernel functionals differ, so this is the oracle for the binning.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    diffs = (x[:, None] - x[None, :])[np.triu_indices(n, k=1)]

    def functional(order, g):
        u2 = (diffs / g) ** 2
        herm = {4: [1, -6, 3], 6: [1, -15, 45, -15]}[order]
        total = 2.0 * (np.polyval(herm, u2) * np.exp(-0.5 * u2)).sum() + n * herm[-1]
        return total / (math.sqrt(2 * math.pi) * n * (n - 1) * g ** (order + 1))

    iqr = np.subtract(*np.percentile(x, [75, 25]))
    scale = min(x.std(ddof=1), iqr / 1.349) if iqr > 0 else x.std(ddof=1)
    a = 1.241 * scale * n ** (-1.0 / 7.0)
    b = 1.230 * scale * n ** (-1.0 / 9.0)
    alpha2_const = 1.357 * (functional(4, a) / -functional(6, b)) ** (1.0 / 7.0)
    c1 = 1.0 / (2.0 * math.sqrt(math.pi) * n)

    def objective(h):
        s = functional(4, alpha2_const * h ** (5.0 / 7.0))
        return (c1 / s) ** 0.2 - h if s > 0 else math.inf

    h0 = 1.144 * scale * n ** (-0.2)
    lo, hi = 0.1 * h0, h0
    while objective(lo) <= 0:
        lo *= 0.5
    while objective(hi) >= 0:
        hi *= 1.5
    return float(brentq(objective, lo, hi, xtol=1e-12 * h0))


def clustered_times(n, rng, duration=3650.0, lag_mean=5.0, per_parent=50):
    """60% uniform background, 40% exponential lags after cluster parents."""
    n_bg = int(0.6 * n)
    parents = rng.uniform(0.0, duration, (n - n_bg) // per_parent + 1)
    lags = rng.exponential(lag_mean, n - n_bg)
    children = parents[rng.integers(0, len(parents), n - n_bg)] + lags
    return np.concatenate([rng.uniform(0.0, duration, n_bg), children])


class TestSheatherJones:
    def test_binned_matches_exact_pair_sums(self):
        rng = substream(3, 0)
        samples = {
            "normal": rng.normal(size=1000),
            "bimodal": np.concatenate([rng.normal(-3, 0.5, 400), rng.normal(3, 0.5, 400)]),
            "lognormal": rng.lognormal(0.0, 1.5, 2000),
            "clustered": clustered_times(5000, rng),
        }
        for name, x in samples.items():
            got = select_bandwidth_temporal(x)
            assert got == pytest.approx(exact_sheather_jones(x), rel=1e-3), name

    def test_bin_cap_warns(self):
        # far outliers ask for more than 2^20 bins of width h0/200
        x = substream(5, 0).normal(size=2000)
        x[:3] = [1e4, 2e4, -1e4]
        with pytest.warns(UserWarning, match="capped"):
            got = select_bandwidth_temporal(x)
        assert got == pytest.approx(exact_sheather_jones(x), rel=1e-3)

    def test_large_sample_is_finite(self):
        # the exact pair sums would need about 2e10 differences here
        x = clustered_times(200_000, substream(4, 0))
        h = select_bandwidth_temporal(x)
        assert math.isfinite(h) and h > 0

    def test_scale_equivariance(self):
        x = substream(0, 0).normal(size=500)
        b = select_bandwidth_temporal(x)
        assert select_bandwidth_temporal(10.0 * x) == pytest.approx(10.0 * b, rel=1e-6)

    def test_matches_independent_root(self):
        # independent re-implementation of the plug-in equation, solved by
        # dense scan plus bisection
        x = substream(1, 0).normal(size=1000)
        n = len(x)
        got = select_bandwidth_temporal(x)

        diffs = (x[:, None] - x[None, :])[np.triu_indices(n, k=1)]

        def phi4(u):
            return (u**4 - 6 * u**2 + 3) * np.exp(-0.5 * u**2) / math.sqrt(2 * math.pi)

        def phi6(u):
            return (u**6 - 15 * u**4 + 45 * u**2 - 15) * np.exp(-0.5 * u**2) / math.sqrt(2 * math.pi)

        def sd(h):
            return (2 * phi4(diffs / h).sum() + n * phi4(0.0)) / (n * (n - 1) * h**5)

        def td(h):
            return -(2 * phi6(diffs / h).sum() + n * phi6(0.0)) / (n * (n - 1) * h**7)

        sigma = min(np.std(x, ddof=1), (np.percentile(x, 75) - np.percentile(x, 25)) / 1.349)
        a = 1.241 * sigma * n ** (-1 / 7)
        b = 1.230 * sigma * n ** (-1 / 9)
        alph2 = 1.357 * (sd(a) / td(b)) ** (1 / 7)
        c1 = 1.0 / (2 * math.sqrt(math.pi) * n)

        def g(h):
            return (c1 / sd(alph2 * h ** (5 / 7))) ** 0.2 - h

        hs = np.linspace(0.02, 1.0, 50)
        vals = np.array([g(h) for h in hs])
        cross = np.nonzero(np.diff(np.sign(vals)) < 0)[0][0]
        lo, hi = hs[cross], hs[cross + 1]
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        assert got == pytest.approx(oracle, rel=0.01)

    def test_bimodal_smaller_than_normal_reference(self):
        rng = substream(2, 0)
        x = np.concatenate([rng.normal(-3, 0.5, 400), rng.normal(3, 0.5, 400)])
        assert select_bandwidth_temporal(x) < normal_reference_bandwidth(x)

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError):
            select_bandwidth_temporal(np.ones(100))
        with pytest.raises(ValueError):
            select_bandwidth_temporal(np.arange(5, dtype=float))


def bench_times(seed=1, n=10_000):
    """Event times of the benchmark's planar catalogue, parsed as the CLI parses them."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "catalogue.py"
    spec = importlib.util.spec_from_file_location("bench_catalogue", path)
    catalogue = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(catalogue)
    _, data = catalogue.planar(seed, n)
    return np.array([float(line.split(b",")[2]) for line in data.splitlines()[1:]])


def step(x, at=1e-250):
    return -1.0 if x < at else 1.0


def solve_both(f, a, b, xtol):
    """(_brentq, scipy brentq) results, or the exception type each raised."""
    out = []
    for solver in (lambda: bandwidth._brentq(f, a, b, xtol), lambda: brentq(f, a, b, xtol=xtol)):
        try:
            out.append(solver())
        except (ValueError, RuntimeError) as exc:
            out.append(type(exc))
    return out


class TestBrentq:
    def test_matches_scipy_on_sheather_jones(self, monkeypatch):
        solve = bandwidth._brentq
        calls = []

        def recording(f, a, b, xtol):
            root = solve(f, a, b, xtol)
            calls.append((root, brentq(f, a, b, xtol=xtol)))
            return root

        monkeypatch.setattr(bandwidth, "_brentq", recording)
        rng = substream(30, 0)
        samples = [bench_times()]
        for n in (100, 1000, 5000):
            for _ in range(4):
                samples += [
                    rng.normal(size=n),
                    np.concatenate([rng.normal(-3, 0.5, n // 2), rng.normal(3, 0.5, n - n // 2)]),
                    rng.lognormal(0.0, 1.5, n),
                    rng.pareto(3.0, n),
                    clustered_times(n, rng),
                ]
        for x in samples:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                h = select_bandwidth_temporal(x)
            root, want = calls[-1]
            assert h == root == want
        assert len(calls) == len(samples)

    def test_matches_scipy_on_synthetic_brackets(self):
        functions = [
            lambda x: x**3 - 2 * x - 5,
            lambda x: math.cos(x) - x,
            lambda x: math.exp(x) - 3.0,
            lambda x: 1e-3 * math.atan(x - 0.3),
            lambda x: (x - 1.1) ** 5,
            lambda x: math.tanh(50.0 * (x - 0.7)),
            lambda x: step(x, 0.123456789),
            lambda x: math.inf if x < 0.5 else 0.5 - x,
        ]
        rng = substream(31, 0)
        for xtol in np.geomspace(1e-14, 1e-2, 13):
            for f in functions:
                for _ in range(10):
                    a, b = rng.uniform(-3.0, 0.1), rng.uniform(1.2, 4.0)
                    got, want = solve_both(f, a, b, xtol)
                    assert got == want

    def test_zero_at_an_end_returns_it(self):
        assert bandwidth._brentq(lambda x: x - 1.0, 1.0, 3.0, 1e-12) == 1.0
        assert bandwidth._brentq(lambda x: x - 3.0, 1.0, 3.0, 1e-12) == 3.0
        assert solve_both(lambda x: x - 1.0, 1.0, 3.0, 1e-12) == [1.0, 1.0]

    def test_same_sign_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            bandwidth._brentq(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12)
        assert solve_both(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12) == [ValueError] * 2

    def test_nan_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            bandwidth._brentq(lambda x: math.nan if x > 1.0 else -1.0, 0.0, 2.0, 1e-12)

        def hole(x):  # nan around the root, which the first secant step lands in
            return math.nan if 0.4 < x < 0.6 else x - 0.5

        with pytest.raises(ValueError, match="NaN"):
            bandwidth._brentq(hole, 0.0, 1.0, 1e-12)
        assert solve_both(hole, 0.0, 1.0, 1e-12) == [ValueError] * 2

    def test_no_convergence_in_100_steps_raises(self):
        # a sign change that bisection needs about 1800 halvings to pin down
        calls = []

        def counted(x):
            calls.append(x)
            return step(x)

        with pytest.raises(RuntimeError, match="100 iterations"):
            bandwidth._brentq(counted, -1e300, 1e300, 1e-300)
        ours, calls[:] = list(calls), []
        with pytest.raises(RuntimeError):
            brentq(counted, -1e300, 1e300, xtol=1e-300)
        assert ours == calls and len(calls) == 2 + 100

    def test_zero_denominator_step(self, monkeypatch):
        # slopes near 1e-200 underflow, so their product divides by zero
        divide = bandwidth._ieee_div
        zero_denominators = []

        def counting(num, den):
            zero_denominators.append(den == 0)
            return divide(num, den)

        monkeypatch.setattr(bandwidth, "_ieee_div", counting)

        def tiny(x):
            return 1e-200 * (x**3 - 2.0)

        got, want = solve_both(tiny, 0.0, 2.0, 1e-12)
        assert any(zero_denominators)
        assert got == want == pytest.approx(2.0 ** (1 / 3), rel=1e-12)

    def test_ieee_div(self):
        assert bandwidth._ieee_div(1.0, 0.0) == math.inf
        assert bandwidth._ieee_div(1.0, -0.0) == -math.inf
        assert bandwidth._ieee_div(-2.0, 0.0) == -math.inf
        assert math.isnan(bandwidth._ieee_div(0.0, 0.0))
        assert bandwidth._ieee_div(3.0, 2.0) == 1.5


def test_default_candidates_bracket():
    cands = default_candidates(UNIT)
    assert len(cands) == 16
    assert cands[0] == pytest.approx(0.005)
    assert cands[-1] == pytest.approx(0.20)


def test_search_validation():
    pat = poisson_spatial(200, 1)
    with pytest.raises(ValueError):
        select_bandwidth_spatial(pat, [0.2, 0.1])  # unsorted
    with pytest.raises(ValueError):
        select_bandwidth_spatial(pat, [0.1], folds=1)
    with pytest.raises(ValueError):
        select_bandwidth_spatial(pat, [0.1], repeats=0)


@pytest.mark.parametrize(
    "kwargs, name",
    [({"folds": 2.5}, "folds"), ({"folds": math.nan}, "folds"), ({"folds": True}, "folds"),
     ({"repeats": 1.5}, "repeats"), ({"retention": math.nan}, "retention")],
    ids=["folds-2.5", "folds-nan", "folds-bool", "repeats-1.5", "retention-nan"],
)
def test_search_rejects_bad_values_by_name(kwargs, name, monkeypatch):
    # rejected by name before any repeat is drawn, not by a TypeError mid-search
    monkeypatch.setattr(bandwidth, "substream", None)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        select_bandwidth_spatial(poisson_spatial(200, 1), [0.1], **kwargs)


@pytest.mark.parametrize("candidates", [[math.nan], [0.1, math.inf], [-math.inf, 0.1]],
                         ids=["nan", "inf", "minus-inf"])
def test_search_rejects_nonfinite_candidates(candidates):
    # the pair pass sizes its search from 10 x the largest candidate
    with pytest.raises(ValueError, match="finite"):
        select_bandwidth_spatial(poisson_spatial(200, 1), candidates)
