import numpy as np
import pytest

from stpp.core import GridSpec, ScalarField, Window, substream
from stpp.inference import quadrat_test
from stpp.simulate import (
    ClusterModel,
    IntensityModel,
    simulate_cluster,
    simulate_poisson,
    thin,
)

from helpers import AnalyticModel

UNIT = Window((0, 1), (0, 1), (0, 1))


def test_zero_intensity_gives_empty_pattern():
    assert len(simulate_poisson(IntensityModel.const(0.0), UNIT, 0)) == 0


def test_homogeneous_mean_count():
    # Poisson moments: mean over 500 seeds within 3 standard errors
    counts = [len(simulate_poisson(IntensityModel.const(1000), UNIT, s)) for s in range(500)]
    se = np.sqrt(1000 / 500)
    assert abs(np.mean(counts) - 1000) < 3 * se


def test_inhomogeneous_mean_count_campbell():
    # lam(x, t) = c * t integrates to c/2 on the unit window
    c = 2000.0
    model = AnalyticModel(lambda x1, x2, t: c * t, bound=c)
    counts = [len(simulate_poisson(model, UNIT, s)) for s in range(300)]
    se = np.sqrt(c / 2 / 300)  # Poisson variance = mean
    assert abs(np.mean(counts) - c / 2) < 3 * se


def test_bound_violation_is_hard_error():
    model = AnalyticModel(lambda x1, x2, t: 10.0 + 0 * t, bound=5.0)
    with pytest.raises(ValueError, match="bound"):
        simulate_poisson(model, UNIT, 0)


def test_field_model_simulation():
    grid = GridSpec.spacetime(UNIT, 4, 4, 4)
    values = np.zeros(grid.shape)
    values[:2] = 800.0  # only x1 < 0.5 active
    model = IntensityModel(field=ScalarField(grid, values))
    pat = simulate_poisson(model, UNIT, 0)
    assert (pat.x[:, 0] < 0.5).all()
    assert abs(len(pat) - 400) < 4 * np.sqrt(400)


def test_cluster_negligible_offspring():
    model = ClusterModel(kappa=10.0, mean_offspring=1e-9, sigma=0.1, sigma_t=0.1)
    assert len(simulate_cluster(model, UNIT, 0)) == 0


def test_cluster_mean_count():
    model = ClusterModel(kappa=100.0, mean_offspring=5.0, sigma=0.02, sigma_t=0.02)
    counts = [len(simulate_cluster(model, UNIT, s)) for s in range(200)]
    # cluster counts are overdispersed: Var ~ kappa |V| (m + m^2)
    se = np.sqrt(100 * (5 + 25) / 200)
    assert abs(np.mean(counts) - 500) < 3 * se


def test_cluster_clusters_more_than_poisson():
    from stpp.core import ball_volume
    from stpp.secondorder import KGrid, estimate_K

    model = ClusterModel(kappa=100.0, mean_offspring=20.0, sigma=0.02, sigma_t=0.02)
    grid = KGrid(np.array([0.0, 0.05]), np.array([0.0, 0.05]))
    above = 0
    runs = 40
    for s in range(runs):
        pat = simulate_cluster(model, UNIT, s)
        k = estimate_K(pat, model.intensity, grid).k[-1, -1]
        above += k > ball_volume(0.05, 0.05)
    assert above >= 0.95 * runs


def test_thin_identity_and_empty():
    pat = simulate_poisson(IntensityModel.const(300), UNIT, 0)
    same = thin(pat, 1.0, 1)
    assert np.array_equal(same.points, pat.points)
    none = thin(pat, 0.0, 1)
    assert len(none) == 0


def test_thin_binomial_mean_and_quadrat():
    kept = []
    flat = 0
    runs = 300
    for s in range(runs):
        pat = simulate_poisson(IntensityModel.const(1000), UNIT, substream(s, 0))
        sub = thin(pat, 0.025, substream(s, 1))
        kept.append(len(sub))
    se = np.sqrt(25 / runs)
    assert abs(np.mean(kept) - 25) < 3 * se
    # thinned homogeneous Poisson stays homogeneous
    passed = 0
    for s in range(200):
        pat = simulate_poisson(IntensityModel.const(4000), UNIT, substream(s, 2))
        sub = thin(pat, 0.1, substream(s, 3))
        from stpp.core import project

        sp, _ = project(sub)
        passed += quadrat_test(sp)[1] > 0.05
    assert 0.90 <= passed / 200 <= 0.995


def test_thin_first_order_intensity():
    # retention scales the first-order intensity by pi0
    counts = []
    for s in range(400):
        pat = simulate_poisson(IntensityModel.const(1000), UNIT, substream(s, 4))
        counts.append(len(thin(pat, 0.2, substream(s, 5))))
    se = np.sqrt(200 / 400)
    assert abs(np.mean(counts) - 200) < 3 * se


def test_thin_composition_matches_product():
    # two-stage thinning equals one-stage at the product, in distribution:
    # compare first and second moments of counts
    two, one = [], []
    for s in range(1000):
        pat = simulate_poisson(IntensityModel.const(300), UNIT, substream(s, 6))
        a = thin(pat, 0.5, substream(s, 7))
        a = thin(a, 0.4, substream(s, 8))
        b = thin(pat, 0.2, substream(s, 9))
        two.append(len(a))
        one.append(len(b))
    m = 300 * 0.2
    se_mean = np.sqrt(m / 1000)
    assert abs(np.mean(two) - np.mean(one)) < 3 * np.sqrt(2) * se_mean
    # Poisson: variance equals mean for both routes
    assert abs(np.var(two) - np.var(one)) < 0.3 * m


def test_retention_spec_validation():
    pat = simulate_poisson(IntensityModel.const(10), UNIT, 0)
    for pi0 in (1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match=r"retention probability must be in \[0, 1\]"):
            thin(pat, pi0, 1)


def test_determinism_same_seed_same_pattern():
    a = simulate_poisson(IntensityModel.const(500), UNIT, 42)
    b = simulate_poisson(IntensityModel.const(500), UNIT, 42)
    assert np.array_equal(a.points, b.points)
    c1 = simulate_cluster(ClusterModel(50, 10, 0.03, 0.03), UNIT, 7)
    c2 = simulate_cluster(ClusterModel(50, 10, 0.03, 0.03), UNIT, 7)
    assert np.array_equal(c1.points, c2.points)
