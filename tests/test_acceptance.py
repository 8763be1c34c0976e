"""Acceptance suite: one test per release criterion, at pinned tolerances.

Every Monte-Carlo experiment uses fixed substream seeds, so the suite is
deterministic.  Each test prints one summary line via the terminal hook in
conftest.py.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from stpp.bandwidth import select_bandwidth_spatial, select_bandwidth_temporal
from stpp.core import GridSpec, SpaceTimePattern, Window, ball_volume, project, substream
from stpp.homogenize import homogenize
from stpp.inference import CurveSet, combined_erl_test, quadrat_test
from stpp.intensity import (
    KernelSpec,
    estimate_lambda_s,
    estimate_lambda_st,
    estimate_lambda_t,
)
from stpp.secondorder import (
    KGrid,
    average_K,
    estimate_K,
    j_residual_ratio,
    poisson_series_fgj,
)
from stpp.separability import separability_test
from stpp.simulate import (
    ClusterModel,
    simulate_cluster,
    simulate_poisson,
    thin,
)

from helpers import AnalyticModel, simulate_poisson_spatial

UNIT = Window((0, 1), (0, 1), (0, 1))


def test_poisson_k_calibration():
    """Mean K over 100 Poisson seeds matches the cylinder volume at mid-grid,
    and the averaged curves match 2*tau and pi*r^2 within 5%."""
    start = time.time()
    lam = 2000.0
    grid = KGrid.default(UNIT)  # 50 x 50 up to the rule-of-thumb bounds
    acc = np.zeros((len(grid.r), len(grid.tau)))
    kt_acc = np.zeros(len(grid.tau))
    ks_acc = np.zeros(len(grid.r))
    runs = 100
    for s in range(runs):
        pat = simulate_poisson(lam, UNIT, substream(s, 100))
        est = estimate_K(pat, lam, grid)
        acc += est.k
        kt, ks = average_K(est)
        kt_acc += kt
        ks_acc += ks
    vol = 2.0 * grid.tau[None, :] * math.pi * grid.r[:, None] ** 2
    mid = slice(len(grid.r) // 2, None)
    ratio = (acc / runs)[mid, mid] / vol[mid, mid]
    assert ratio.min() >= 0.95 and ratio.max() <= 1.05
    kt_ratio = (kt_acc / runs)[mid] / (2.0 * grid.tau[mid])
    ks_ratio = (ks_acc / runs)[mid] / (math.pi * grid.r[mid] ** 2)
    assert np.abs(kt_ratio - 1.0).max() <= 0.05
    assert np.abs(ks_ratio - 1.0).max() <= 0.05
    assert time.time() - start < 120.0


def test_campbell_mass():
    """Diggle-corrected estimates integrate to n: 0.5% in 2D/3D, 0.1% in 1D."""
    pat = simulate_poisson(2000, UNIT, substream(0, 101))
    n = len(pat)
    sp, tp = project(pat)
    est_s = estimate_lambda_s(sp, KernelSpec(0.05))
    assert abs(est_s.integrate() - n) / n <= 0.005
    est_t = estimate_lambda_t(tp, KernelSpec(0.02))
    assert abs(est_t.integrate() - n) / n <= 0.001
    est_st = estimate_lambda_st(
        pat, KernelSpec(0.05), KernelSpec(0.02), GridSpec.spacetime(UNIT, 64, 64, 250)
    )
    assert abs(est_st.integrate() - n) / n <= 0.005
    # small and large bandwidths keep the identity (quadrature-exact scheme)
    assert abs(estimate_lambda_s(sp, KernelSpec(0.01)).integrate() - n) / n <= 0.005
    assert abs(estimate_lambda_s(sp, KernelSpec(0.2)).integrate() - n) / n <= 0.005


def test_thinning_invariance_prop1():
    """K estimated from a cluster pattern and from its 2.5% thinning agree
    within 3 Monte-Carlo standard errors at every grid point (100 seeds)."""
    model = ClusterModel(kappa=400.0, mean_offspring=20.0, sigma=0.03, sigma_t=0.03)
    grid = KGrid(np.linspace(0.05, 0.2, 15), np.linspace(0.005, 0.02, 15))
    runs = 100
    diffs = np.empty((runs, 15, 15))
    for s in range(runs):
        pat = simulate_cluster(model, UNIT, substream(s, 70))
        sub = thin(pat, 0.025, substream(s, 71))
        k_full = estimate_K(pat, model.intensity, grid).k
        k_sub = estimate_K(sub, 0.025 * model.intensity, grid).k
        diffs[s] = k_sub - k_full
    mean = diffs.mean(axis=0)
    se = diffs.std(axis=0, ddof=1) / math.sqrt(runs)
    assert (np.abs(mean) <= 3.0 * se + 1e-12).all()


def test_prop2_order_check():
    """First-order-corrected J residual scales like the square of the
    retention: ratio between 0.05 and 0.025 lands in [2.5, 6]; the Poisson
    series truncation reproduces the exponential to 1e-10."""
    f, g, j = poisson_series_fgj(2000.0, 0.05, 0.1, 0.05, order=30)
    target = math.exp(-2000.0 * 0.05 * ball_volume(0.1, 0.05))
    assert abs((1.0 - f) - target) <= 1e-10
    assert abs(j - 1.0) <= 1e-10

    model = ClusterModel(kappa=1600.0, mean_offspring=10.0, sigma=0.03, sigma_t=0.03)
    res = j_residual_ratio(
        model, p=0.05, r=0.1, tau=0.05,
        seeds=range(1000, 1200), thinnings=8, n_test=4096,
    )
    assert 2.5 <= res["ratio"] <= 6.0


def _k_curves(lam, grid, rng):
    pat = simulate_poisson(lam, UNIT, rng)
    return average_K(estimate_K(pat, lam, grid))


def test_erl_calibration_and_power():
    """Type-I error of the single and combined envelope tests sits in
    [0.03, 0.07] over 500 null experiments at B=199; the Thomas cluster
    alternative is rejected at the minimal p = 1/200 in at least 95% of runs."""
    lam = 100.0
    grid = KGrid.default(UNIT, 20, 20)
    B = 199
    single_hits = combined_hits = 0
    experiments = 500
    for e in range(experiments):
        kt = np.empty((B + 1, 20))
        ks = np.empty((B + 1, 20))
        for b in range(B + 1):
            kt[b], ks[b] = _k_curves(lam, grid, substream(200 + e, b))
        single_hits += combined_erl_test([CurveSet(grid.tau, kt[0], kt[1:])]).p_value <= 0.05
        combined_hits += (
            combined_erl_test(
                [CurveSet(grid.tau, kt[0], kt[1:]), CurveSet(grid.r, ks[0], ks[1:])]
            ).p_value
            <= 0.05
        )
    assert 0.03 <= single_hits / experiments <= 0.07
    assert 0.03 <= combined_hits / experiments <= 0.07

    # power: denser patterns and a grid floored away from the zero-pair
    # cells, so no degenerate replicate curve can tie the observed one
    lam_alt = 500.0
    power_grid = KGrid(np.linspace(0.04, 0.2, 20), np.linspace(0.0015, 0.0075, 20))
    cluster = ClusterModel(kappa=100.0, mean_offspring=5.0, sigma=0.02, sigma_t=0.02)
    minimal = 0
    runs = 40
    for e in range(runs):
        obs = simulate_cluster(cluster, UNIT, substream(900 + e, 0))
        kt_o, ks_o = average_K(estimate_K(obs, cluster.intensity, power_grid))
        kt = np.empty((B, 20))
        ks = np.empty((B, 20))
        for b in range(B):
            kt[b], ks[b] = _k_curves(lam_alt, power_grid, substream(900 + e, 1 + b))
        res = combined_erl_test(
            [CurveSet(power_grid.tau, kt_o, kt), CurveSet(power_grid.r, ks_o, ks)]
        )
        minimal += res.p_value == pytest.approx(1.0 / (B + 1))
    assert minimal >= 0.95 * runs


def _separability_pipeline(pattern, seed):
    sp, tp = project(pattern)
    b_t = select_bandwidth_temporal(tp)
    b_s = select_bandwidth_spatial(
        sp, np.geomspace(0.02, 0.2, 6), folds=5, retention=0.5, repeats=2, seed=7
    )
    return separability_test(
        pattern, KernelSpec(b_s), KernelSpec(b_t), B=199,
        grid=GridSpec.spacetime(UNIT, 16, 16, 40), seed=seed,
    )


def test_separability_level_and_power():
    """Permutation separability test: at most 7% rejections at the 5% level
    over 40 separable experiments; at least 80% power against an
    interaction alternative."""
    c = 1500.0
    separable = AnalyticModel(
        lambda x1, x2, t: c * (0.5 + x1) * (0.5 + t) * 16.0 / 9.0,
        bound=c * 16.0 / 9.0 * 2.25,
    )
    rejections = 0
    runs = 40
    for s in range(runs):
        pat = simulate_poisson(separable, UNIT, substream(s, 260))
        rejections += _separability_pipeline(pat, (s, 261)).p_value <= 0.05
    assert rejections / runs <= 0.07

    non_separable = AnalyticModel(
        lambda x1, x2, t: c * (1.0 + 2.5 * (x1 > 0.5) * (t > 0.5)) / 1.625,
        bound=c * 3.5 / 1.625,
    )
    power = 0
    power_runs = 25
    for s in range(power_runs):
        pat = simulate_poisson(non_separable, UNIT, substream(s, 62))
        power += _separability_pipeline(pat, (s, 63)).p_value <= 0.05
    assert power / power_runs >= 0.80


def _model_intensity(kind):
    g = 2048
    xs = (np.arange(g) + 0.5) / g
    x1, x2 = np.meshgrid(xs, xs, indexing="ij")
    if kind == "cross":
        phi = 0.02

        def shape(a, b):
            return np.exp(-(1.0 / phi) * (1.0 + np.abs(a - 0.5) * np.abs(b - 0.5)))

        bound_shape = math.exp(-1.0 / phi)
    else:
        phi = 0.2

        def shape(a, b):
            return np.exp(
                (1.0 / phi) * (np.abs(np.sin(np.pi * a)) + np.abs(np.sin(np.pi * b)))
            )

        bound_shape = math.exp(2.0 / phi)
    beta = 50000.0 / shape(x1, x2).mean()
    return (lambda a, b: beta * shape(a, b)), beta * bound_shape


@pytest.mark.parametrize("kind", ["cross", "sin"])
def test_homogenization_study(kind):
    """Level-set thinning of the two benchmark intensity models: zero loss at
    the minimum, retained count 500 +- 3*sqrt(500), quadrat test accepted on
    the homogenized pattern in >= 90% of 20 runs and rejected on every raw
    pattern, all within 5 minutes per model."""
    start = time.time()
    func, bound = _model_intensity(kind)
    target = 500.0
    runs = 20
    accepted = 0
    for s in range(runs):
        pat = simulate_poisson_spatial((func, bound), UNIT, substream(s, 80))
        assert quadrat_test(pat)[1] < 1e-4
        sub, report = homogenize(pat, target, seed=s)
        assert report.loss_at_minimum < 1e-6 * target**2
        assert abs(report.retained - target) <= 3.0 * math.sqrt(target)
        accepted += report.quadrat_p > 0.05
    assert accepted >= 0.90 * runs
    assert time.time() - start < 300.0


def test_quadrat_calibration():
    """Quadrat-test p-values are calibrated: rejection frequency at the 5%
    level lies in [0.03, 0.07] over 1000 homogeneous patterns."""
    hits = 0
    runs = 1000
    for s in range(runs):
        sp, _ = project(
            simulate_poisson(800, UNIT, substream(s, 50))
        )
        hits += quadrat_test(sp)[1] <= 0.05
    assert 0.03 <= hits / runs <= 0.07


def test_determinism_across_threads(tmp_path):
    """A pipeline run with the same config and seed produces byte-identical
    numeric outputs with 1 and 8 worker threads."""
    data_cfg = {
        "window": {"x1": [0, 1], "x2": [0, 1], "t": [0, 1]},
        "simulate": {"lambda": 600},
        "output_dir": str(tmp_path / "data"),
        "seed": 11,
    }
    (tmp_path / "data_cfg.json").write_text(json.dumps(data_cfg))
    subprocess.run(
        [sys.executable, "-m", "stpp.cli", "simulate", "--config",
         str(tmp_path / "data_cfg.json")],
        check=True, capture_output=True,
    )

    outputs = {}
    for threads in (1, 8):
        cfg = {
            "window": {"x1": [0, 1], "x2": [0, 1], "t": [0, 1]},
            "input": str(tmp_path / "data" / "pattern.csv"),
            "output_dir": str(tmp_path / f"k{threads}"),
            "pi0": 1.0,
            "test": {"B": 99},
            "kgrid": {"n_r": 20, "n_tau": 20},
            "seed": 12,
        }
        cfg_path = tmp_path / f"cfg{threads}.json"
        cfg_path.write_text(json.dumps(cfg))
        subprocess.run(
            [sys.executable, "-m", "stpp.cli", "ripley-k", "--config", str(cfg_path),
             "--threads", str(threads)],
            check=True, capture_output=True,
        )
        outputs[threads] = {
            name: (tmp_path / f"k{threads}" / name).read_bytes()
            for name in ("curves_Kt.csv", "curves_Ks.csv", "report.json")
        }
    assert outputs[1] == outputs[8]
