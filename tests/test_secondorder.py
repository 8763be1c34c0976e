import math

import numpy as np
import pytest

from stpp import secondorder
from stpp.core import PolygonMask, SpaceTimePattern, Window, ball_volume, substream
from stpp.secondorder import (
    KEstimate,
    KGrid,
    average_K,
    empirical_fgj,
    estimate_K,
    j_residual_ratio,
    poisson_series_fgj,
)
from stpp.simulate import ClusterModel, simulate_cluster, simulate_poisson, thin

UNIT = Window((0, 1), (0, 1), (0, 1))
KITE = Window((0, 1), (0, 1), (0, 1), PolygonMask([(0, 0), (1, 0), (1, 1), (0.2, 0.9)]))
WIDE = KGrid(np.linspace(0.0, 0.25, 12), np.linspace(0.0, 0.2, 12))
FAR = KGrid(np.linspace(0.0, 0.6, 6), np.linspace(0.0, 0.05, 6))  # r_max over half the window


def brute_force_K(pattern, lam, grid, correction="translation", correction_cap=20.0):
    """K from all n(n-1) ordered pairs, summed cell by cell: (k, winsorized).

    Test-only oracle for the pair enumeration.  ``lam`` holds positive
    per-event intensities.  The pair weights and the border eligibility are
    the estimator's; every cell sums its own pairs directly, with no
    histogram, difference array or cumulative sum.
    """
    window, x, t = pattern.window, pattern.x, pattern.t
    i, j = np.nonzero(~np.eye(len(pattern), dtype=bool))
    dx = np.abs(x[i] - x[j])
    ds = np.hypot(dx[:, 0], dx[:, 1])
    dt = np.abs(t[i] - t[j])
    near = (ds <= grid.r[-1]) & (dt <= grid.tau[-1])
    i, j, dx, ds, dt = i[near], j[near], dx[near], ds[near], dt[near]
    w = 1.0 / (lam[i] * lam[j])
    k = np.zeros((len(grid.r), len(grid.tau)))
    if correction == "translation":
        lx = window.x_range[1] - window.x_range[0]
        ly = window.y_range[1] - window.y_range[0]
        e = window.volume / ((lx - dx[:, 0]) * (ly - dx[:, 1]) * (window.duration - dt))
        w = w * np.minimum(e, correction_cap) / window.volume
        for a, b in np.ndindex(k.shape):
            k[a, b] = w[(ds <= grid.r[a]) & (dt <= grid.tau[b])].sum()
        return k, int((e > correction_cap).sum()) // 2
    raster = secondorder._mask_boundary_raster(window)
    d_s, d_t = secondorder._boundary_distances(pattern, raster)
    areas = secondorder._eroded_areas(window, grid.r, raster)
    for a, b in np.ndindex(k.shape):
        r, tau = grid.r[a], grid.tau[b]
        volume = areas[a] * max(window.duration - 2 * tau, 0.0)
        sel = (ds <= r) & (r <= d_s[i]) & (dt <= tau) & (tau <= d_t[i])
        k[a, b] = w[sel].sum() / volume if volume > 0 else np.nan
    return k, 0


def frozen_close_pairs(x, t, r, tau, qx=None, qt=None):
    """The pair enumerator as first written: one searchsorted per candidate
    for its row, 2-D gathers and a single exact cut.  Test-only oracle; it
    splits at the same ``secondorder._PAIR_CHUNK`` candidates."""
    self_pairs = qx is None
    if self_pairs:
        qx, qt = x, t
    if len(x) == 0 or len(qx) == 0:
        return
    pad = 4 * np.finfo(float).eps * (np.abs(qt) + tau)
    t_lo = np.arange(1, len(t) + 1) if self_pairs else np.searchsorted(t, qt - tau - pad)
    t_hi = np.searchsorted(t, qt + tau + pad, side="right")
    origin = np.minimum(x.min(axis=0), qx.min(axis=0))
    span = (np.maximum(x.max(axis=0), qx.max(axis=0)) - origin).max()
    side = max(r * (1 + 1e-9) + 1e-9 * span, span / secondorder._MAX_CELLS, np.finfo(float).tiny)
    width = int(span // side) + 2

    def cell(p):
        c = ((p - origin) // side).astype(np.int64)
        return c[:, 0] * width + c[:, 1]

    n, key = len(t), cell(x)
    order = np.argsort(key, kind="stable")
    ranked = key[order] * n + order
    neighbours = (np.arange(-1, 2)[:, None] * width + np.arange(-1, 2)).ravel()
    block = (cell(qx)[:, None] + neighbours) * n
    lo = np.searchsorted(ranked, block + t_lo[:, None]).ravel()
    counts = np.searchsorted(ranked, block + t_hi[:, None]).ravel() - lo
    ends = np.cumsum(counts)
    total = int(ends[-1])
    for start in range(0, total, secondorder._PAIR_CHUNK):
        pos = np.arange(start, min(start + secondorder._PAIR_CHUNK, total))
        row = np.searchsorted(ends, pos, side="right")
        i, j = row // len(neighbours), order[lo[row] + pos - (ends[row] - counts[row])]
        dx = np.abs(x[j] - qx[i])
        ds = np.hypot(dx[:, 0], dx[:, 1])
        dt = np.abs(t[j] - qt[i])
        near = (ds <= r) & (dt <= tau)
        yield i[near], j[near], dx[near], ds[near], dt[near]


def searchsorted_K(pattern, lam, grid, correction="translation", correction_cap=20.0):
    """(k, winsorized) of estimate_K as first binned: ``np.searchsorted`` on
    both grid axes, over the chunks of ``frozen_close_pairs``.  Test-only
    oracle; every weight, sum and order is the estimator's, so its surface
    is bit-identical to a correct one."""
    window, n = pattern.window, len(pattern)
    n_r, n_t = len(grid.r), len(grid.tau)
    lam_vals = secondorder._lambda_at_events(lam, pattern)
    pairs = frozen_close_pairs(pattern.x, pattern.t, grid.r[-1], grid.tau[-1])
    if correction == "translation":
        lx = window.x_range[1] - window.x_range[0]
        ly = window.y_range[1] - window.y_range[0]
        k, winsorized = np.zeros(n_r * n_t), 0
        for i, j, dx, ds, dt in pairs:
            overlap = (lx - dx[:, 0]) * (ly - dx[:, 1]) * (window.duration - dt)
            e = window.volume / overlap
            winsorized += int((e > correction_cap).sum())
            e = np.minimum(e, correction_cap)
            w = 2.0 * e / (lam_vals[i] * lam_vals[j]) / window.volume
            bins = np.searchsorted(grid.r, ds) * n_t + np.searchsorted(grid.tau, dt)
            k += np.bincount(bins, weights=w, minlength=n_r * n_t)
        return k.reshape(n_r, n_t).cumsum(axis=0).cumsum(axis=1), winsorized
    raster = secondorder._mask_boundary_raster(window)
    d_s, d_t = secondorder._boundary_distances(pattern, raster)
    areas = secondorder._eroded_areas(window, grid.r, raster)
    volumes = areas[:, None] * np.maximum(window.duration - 2 * grid.tau, 0.0)[None, :]
    hist = np.zeros((n_r + 1) * (n_t + 1))
    for i, j, _, ds, dt in pairs:
        ref = np.concatenate([i, j])
        a_lo = np.tile(np.searchsorted(grid.r, ds), 2)
        b_lo = np.tile(np.searchsorted(grid.tau, dt), 2)
        a_hi = np.searchsorted(grid.r, d_s[ref], side="right")
        b_hi = np.searchsorted(grid.tau, d_t[ref], side="right")
        ok = (a_lo < a_hi) & (b_lo < b_hi)
        w = np.tile(1.0 / (lam_vals[i] * lam_vals[j]), 2)[ok]
        a_lo, b_lo, a_hi, b_hi = a_lo[ok], b_lo[ok], a_hi[ok], b_hi[ok]
        corners = np.concatenate([a_lo, a_hi, a_lo, a_hi]) * (n_t + 1)
        corners += np.concatenate([b_lo, b_lo, b_hi, b_hi])
        hist += np.bincount(corners, np.concatenate([w, -w, -w, w]), len(hist))
    sums = hist.reshape(n_r + 1, n_t + 1).cumsum(axis=0).cumsum(axis=1)[:n_r, :n_t]
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(volumes > 0, sums / np.where(volumes > 0, volumes, 1.0), np.nan)
    return k, 0


def brute_force_covered(pattern, xy, tt, r, tau, exclude_self):
    """Share of the query points with a cylinder neighbour, from all pairs."""
    ds = np.hypot(*np.abs(pattern.x[None, :, :] - xy[:, None, :]).transpose(2, 0, 1))
    dt = np.abs(pattern.t[None, :] - tt[:, None])
    hits = ((ds <= r) & (dt <= tau)).sum(axis=1)
    return float((hits >= (2 if exclude_self else 1)).mean())


def assert_surface_close(k, oracle, rel=1e-12):
    """Equal NaN cells, and every other cell within rel of the surface's scale."""
    assert np.array_equal(np.isnan(k), np.isnan(oracle))
    finite = ~np.isnan(oracle)
    scale = np.abs(oracle[finite]).max()
    assert scale > 0
    assert np.abs(k[finite] - oracle[finite]).max() <= rel * scale


def varying_lambda(pattern, level):
    return level * (0.5 + pattern.x[:, 0]) * (1.5 - pattern.t)


def oracle_patterns():
    cluster = ClusterModel(kappa=40.0, mean_offspring=25.0, sigma=0.03, sigma_t=0.03)
    return {
        "poisson": simulate_poisson(1200, UNIT, substream(0, 20)),
        "cluster": simulate_cluster(cluster, UNIT, substream(0, 21)),
    }


class TestEstimateK:
    def test_empty_and_single_point(self):
        grid = KGrid(np.linspace(0, 0.2, 5), np.linspace(0, 0.1, 5))
        empty = SpaceTimePattern(np.empty((0, 3)), UNIT)
        assert (estimate_K(empty, 1.0, grid).k == 0).all()
        one = SpaceTimePattern([(0.5, 0.5, 0.5)], UNIT)
        assert (estimate_K(one, 1.0, grid).k == 0).all()

    def test_two_point_jump_location(self):
        # binary-representable gaps so the inclusive boundary is exact
        d, h = 0.125, 0.0625
        pat = SpaceTimePattern([(0.25, 0.5, 0.25), (0.25 + d, 0.5, 0.25 + h)], UNIT)
        grid = KGrid(np.array([0.0625, d, 0.25]), np.array([0.03125, h, 0.125]))
        est = estimate_K(pat, 1.0, grid)
        expected_weight = 2.0 / ((1 - d) * 1.0 * (1 - h))
        assert est.k[0, 0] == 0.0
        assert est.k[1, 0] == 0.0
        assert est.k[0, 1] == 0.0
        assert est.k[1, 1] == pytest.approx(expected_weight)
        assert est.k[2, 2] == pytest.approx(expected_weight)

    def test_pairs_on_the_grid_edge_count(self):
        # a pair exactly at (r_max, tau_max) and a simultaneous pair at r_max
        d, h = 0.125, 0.0625
        pat = SpaceTimePattern(
            [(0.25, 0.5, 0.25), (0.25 + d, 0.5, 0.25 + h), (0.75, 0.5, 0.5), (0.75, 0.5 + d, 0.5)],
            UNIT,
        )
        est = estimate_K(pat, 1.0, KGrid(np.array([0.0, d]), np.array([0.0, h])))
        simultaneous = 2.0 / (1.0 * (1 - d) * 1.0)
        assert est.k[1, 0] == pytest.approx(simultaneous)
        assert est.k[1, 1] == pytest.approx(simultaneous + 2.0 / ((1 - d) * (1 - h)))
        query = np.array([[0.25, 0.5 + d]]), np.array([0.25 + h])
        assert secondorder._covered_fraction(pat, *query, d, h, False) == 1.0

    def test_poisson_calibration(self):
        grid = KGrid.default(UNIT, 30, 30)
        vol = 2 * grid.tau[None, :] * math.pi * grid.r[:, None] ** 2
        acc = np.zeros_like(vol)
        runs = 40
        for s in range(runs):
            pat = simulate_poisson(2000, UNIT, substream(s, 0))
            acc += estimate_K(pat, 2000.0, grid).k
        ratio = acc / runs / np.where(vol > 0, vol, np.inf)
        mid = ratio[15:, 15:]
        assert mid.min() > 0.95 and mid.max() < 1.05

    def test_monotone_in_both_arguments(self):
        pat = simulate_poisson(500, UNIT, 1)
        est = estimate_K(pat, 500.0, KGrid.default(UNIT, 20, 20))
        assert (np.diff(est.k, axis=0) >= 0).all()
        assert (np.diff(est.k, axis=1) >= 0).all()

    def test_symmetric_in_pair_order(self):
        # reversing the point order leaves the estimate unchanged
        pat = simulate_poisson(300, UNIT, 2)
        rev = SpaceTimePattern(pat.points[::-1], UNIT)
        grid = KGrid.default(UNIT, 15, 15)
        assert np.allclose(estimate_K(pat, 300.0, grid).k, estimate_K(rev, 300.0, grid).k)

    def test_winsorization_reported(self):
        pat = SpaceTimePattern([(0.01, 0.01, 0.05), (0.99, 0.02, 0.05001)], UNIT)
        grid = KGrid(np.array([0.5, 1.0, 1.4]), np.array([0.001, 0.01]))
        est = estimate_K(pat, 1.0, grid, correction_cap=20.0)
        assert est.winsorized_pairs == 1
        # the pair entered with the capped weight
        assert est.k.max() == pytest.approx(2 * 20.0)

    def test_intensity_floor_applied(self):
        pat = simulate_poisson(200, UNIT, 3)
        vals = np.full(len(pat), 200.0)
        vals[0] = 0.0  # would explode without the floor
        est = estimate_K(pat, vals, KGrid.default(UNIT, 10, 10))
        assert np.isfinite(est.k).all()

    def test_masked_window_needs_border_mode(self):
        from stpp.core import PolygonMask

        w = Window((0, 1), (0, 1), (0, 1), PolygonMask([(0, 0), (1, 0), (1, 1)]))
        pat = SpaceTimePattern([(0.9, 0.1, 0.5)], w)
        with pytest.raises(ValueError, match="rectangular"):
            estimate_K(pat, 1.0, KGrid.default(UNIT, 5, 5))
        est = estimate_K(pat, 1.0, KGrid.default(UNIT, 5, 5), correction="border")
        assert est.edge_correction == "border"

    def test_border_correction_unbiased_on_rectangle(self):
        grid = KGrid(np.linspace(0.02, 0.15, 8), np.linspace(0.002, 0.05, 8))
        vol = 2 * grid.tau[None, :] * math.pi * grid.r[:, None] ** 2
        acc = np.zeros((8, 8))
        runs = 60
        for s in range(runs):
            pat = simulate_poisson(1000, UNIT, substream(s, 9))
            acc += estimate_K(pat, 1000.0, grid, correction="border").k
        ratio = acc / runs / vol
        assert 0.9 <= ratio[2:, 2:].min() and ratio[2:, 2:].max() <= 1.1

    def test_border_correction_unbiased_on_masked_window(self):
        from stpp.core import PolygonMask

        w = Window((0, 1), (0, 1), (0, 1), PolygonMask([(0, 0), (1, 0), (1, 1)]))
        grid = KGrid(np.linspace(0.02, 0.15, 8), np.linspace(0.002, 0.05, 8))
        vol = 2 * grid.tau[None, :] * math.pi * grid.r[:, None] ** 2
        acc = np.zeros((8, 8))
        cnt = np.zeros((8, 8))
        for s in range(60):
            pat = simulate_poisson(2000, w, substream(s, 10))
            k = estimate_K(pat, 2000.0, grid, correction="border").k
            good = np.isfinite(k)
            acc[good] += k[good]
            cnt[good] += 1
        ratio = acc / np.maximum(cnt, 1) / vol
        assert 0.9 <= np.nanmin(ratio[3:, 3:]) and np.nanmax(ratio[3:, 3:]) <= 1.1

    def test_border_builds_mask_raster_once(self, monkeypatch):
        calls = []
        build = secondorder._mask_boundary_raster
        monkeypatch.setattr(
            secondorder, "_mask_boundary_raster", lambda w: calls.append(w) or build(w)
        )
        pat = simulate_poisson(300, KITE, 5)
        estimate_K(pat, 300.0, KGrid.default(KITE, 5, 5), correction="border")
        assert len(calls) == 1

    def test_unknown_correction_rejected(self):
        pat = simulate_poisson(50, UNIT, 0)
        with pytest.raises(ValueError, match="correction"):
            estimate_K(pat, 50.0, KGrid.default(UNIT, 5, 5), correction="ripley")

    def test_thinning_invariance_mean(self):
        # K from the pattern and from a thinned version agree on average
        model = ClusterModel(kappa=100.0, mean_offspring=20.0, sigma=0.05, sigma_t=0.05)
        grid = KGrid(np.linspace(0, 0.15, 10), np.linspace(0, 0.08, 10))
        diffs = []
        for s in range(60):
            pat = simulate_cluster(model, UNIT, substream(s, 1))
            sub = thin(pat, 0.3, substream(s, 2))
            k_full = estimate_K(pat, model.intensity, grid).k
            k_sub = estimate_K(sub, 0.3 * model.intensity, grid).k
            diffs.append(k_sub - k_full)
        diffs = np.asarray(diffs)
        mean = diffs.mean(axis=0)
        se = diffs.std(axis=0, ddof=1) / math.sqrt(len(diffs))
        assert (np.abs(mean) <= 3 * se + 1e-12).all()


    @pytest.mark.parametrize("grid", [WIDE, FAR], ids=["wide", "far"])
    @pytest.mark.parametrize("name", ["poisson", "cluster"])
    def test_translation_matches_brute_force(self, name, grid):
        pat = oracle_patterns()[name]
        assert 600 <= len(pat) <= 1500  # above the old direct-enumeration cutoff of 512
        lam = varying_lambda(pat, 1000.0)
        est = estimate_K(pat, lam, grid, correction_cap=1.5)
        k, winsorized = brute_force_K(pat, lam, grid, correction_cap=1.5)
        assert_surface_close(est.k, k)
        assert est.winsorized_pairs == winsorized > 0

    def test_far_offset_window_matches_brute_force(self):
        # projected-metre coordinates: cell indices come from large offsets
        window = Window((6.1e5, 6.2e5), (4.9e6, 4.91e6), (0.0, 3.0e7))
        pat = simulate_poisson(800 / window.volume, window, 6)
        lam = np.full(len(pat), len(pat) / window.volume)
        grid = KGrid.default(window, 10, 10)
        assert_surface_close(estimate_K(pat, lam, grid).k, brute_force_K(pat, lam, grid)[0])

    @pytest.mark.parametrize("window", [UNIT, KITE], ids=["rectangle", "polygon"])
    def test_border_matches_brute_force(self, window):
        pat = simulate_poisson(1200, window, substream(1, 22))
        lam = varying_lambda(pat, 1000.0)
        est = estimate_K(pat, lam, WIDE, correction="border")
        assert_surface_close(est.k, brute_force_K(pat, lam, WIDE, "border")[0])

    def test_chunking_does_not_change_results(self, monkeypatch):
        pat = simulate_poisson(400, UNIT, substream(2, 23))
        masked = simulate_poisson(400, KITE, substream(2, 24))
        xy = substream(2, 25).uniform(0.1, 0.9, (200, 2))
        tt = substream(2, 26).uniform(0.1, 0.9, 200)

        def results():
            trans = estimate_K(pat, 400.0, WIDE, correction_cap=1.5)
            return (
                trans.k,
                trans.winsorized_pairs,
                estimate_K(pat, 400.0, WIDE, correction="border").k,
                estimate_K(masked, 400.0, WIDE, correction="border").k,
                secondorder._covered_fraction(pat, xy, tt, 0.1, 0.05, False),
            )

        whole = results()
        monkeypatch.setattr(secondorder, "_PAIR_CHUNK", 5)
        chunked = results()
        for surface in (0, 2, 3):
            assert_surface_close(chunked[surface], whole[surface])
        assert chunked[1] == whole[1] > 0
        assert chunked[4] == whole[4]

    def test_per_event_intensity_list(self):
        pat = simulate_poisson(200, UNIT, 4)
        vals = varying_lambda(pat, 200.0)
        grid = KGrid.default(UNIT, 10, 10)
        from_list = estimate_K(pat, vals.tolist(), grid).k
        assert np.array_equal(from_list, estimate_K(pat, vals, grid).k)
        with pytest.raises(ValueError, match=rf"\({len(pat)},\)"):
            estimate_K(pat, vals[:-1], grid)
        with pytest.raises(ValueError, match=rf"\({len(pat)},\)"):
            estimate_K(pat, vals.tolist()[:-1], grid, correction="border")


def enumerator_cases():
    """(x, t, r, tau, query) inputs of the pair enumerator; query is () or (qx, qt)."""
    rng = substream(4, 30)
    x, t = rng.uniform(0, 1, (700, 2)), np.sort(rng.uniform(0, 1, 700))
    qx, qt = rng.uniform(0.1, 0.9, (300, 2)), rng.uniform(0, 1, 300)
    tied = np.round(t, 2)  # about 7 events per distinct time
    far = x * 1e4 + (6e5, 4.9e6)
    outside = rng.uniform(-0.5, 1.5, (300, 2)), rng.uniform(-0.2, 1.2, 300)
    # binary lattices: many pairs lie exactly at ||dx|| = r or |dt| = tau
    grid_x = np.stack(np.meshgrid(np.arange(8) / 8, np.arange(8) / 8), -1).reshape(-1, 2)
    lattice = np.repeat(grid_x, 4, axis=0), np.tile(np.arange(4) / 16, 64)
    lattice = lattice[0][np.argsort(lattice[1], kind="stable")], np.sort(lattice[1])
    return {
        "self": (x, t, 0.1, 0.05, ()),
        "query": (x, t, 0.1, 0.05, (qx, qt)),
        "tied-times": (x, tied, 0.1, 0.02, ()),
        "tied-query": (x, tied, 0.1, 0.02, (qx, np.round(qt, 2))),
        "far-offset": (far, t * 3e7, 1e3, 5e5, ()),
        "far-offset-query": (far, t * 3e7, 1e3, 5e5, (qx * 1e4 + (6e5, 4.9e6), qt * 3e7)),
        "one-cell": (x, t, 1.5, 0.1, ()),
        "tau-zero": (x, tied, 0.2, 0.0, ()),
        "tau-zero-query": (x, tied, 0.2, 0.0, (qx, np.round(qt, 2))),
        "n0": (np.empty((0, 2)), np.empty(0), 0.1, 0.05, ()),
        "n0-query": (np.empty((0, 2)), np.empty(0), 0.1, 0.05, (qx, qt)),
        "n1": (x[:1], t[:1], 0.1, 0.05, ()),
        "n1-query": (x[:1], t[:1], 0.5, 0.5, (qx, qt)),
        "n2": (np.array([[0.5, 0.5], [0.55, 0.5]]), np.array([0.3, 0.31]), 0.1, 0.05, ()),
        "outside-box": (x, t, 0.1, 0.05, outside),
        "lattice": (*lattice, 0.125, 0.0625, ()),
        "lattice-query": (*lattice, 0.125, 0.0625, (grid_x + 0.0625, np.full(64, 0.125))),
    }


class TestKGrid:
    @pytest.mark.parametrize(
        "r",
        [
            [0.0], [[0.0, 0.1]], [0.0, 0.1, 0.1], [0.1, 0.0], [-0.1, 0.0, 0.1],
            # NaN fails every comparison, so these once passed
            [0.0, math.nan, 0.1], [0.0, 0.05, math.inf], [math.nan, 0.05, 0.1],
        ],
        ids=["one-value", "two-dimensional", "tie", "decreasing", "negative",
             "nan-inside", "inf-last", "nan-first"],
    )
    @pytest.mark.parametrize("axis", ["r", "tau"])
    def test_invalid_axis_rejected(self, r, axis):
        good = [0.0, 0.05, 0.1]
        args = (r, good) if axis == "r" else (good, r)
        with pytest.raises(ValueError, match=f"^{axis} values must be finite, nonnegative"):
            KGrid(*args)


def bins_axes():
    """KGrid axes for the _bins tests: the defaults, every np.linspace axis of
    2 to 200 values, and uneven ones."""
    unit = KGrid.default(UNIT)
    wide = KGrid.default(Window((0.0, 100.0), (0.0, 100.0), (0.0, 3650.0)))
    axes = [unit.r, unit.tau, wide.r, wide.tau]
    axes += [np.linspace(0.0, 0.2, m) for m in range(2, 201)]
    axes += [np.linspace(0.04, 0.2, 20), np.linspace(1e3, 3e7, 7)]
    axes += [np.geomspace(1e-3, 1.0, 30), np.array([0.0, 1e-9, 0.5, 0.51, 7.0])]
    return axes


def bins_values(axis, rng):
    """Every grid point, its two float neighbours, 0, values beyond the last
    grid point (the border K's distances to the boundary) and uniform draws."""
    end = axis[-1]
    return np.concatenate([
        axis, np.nextafter(axis, -np.inf), np.nextafter(axis, np.inf),
        [0.0, -0.0, end * 1.5, end * 1e6, np.inf, np.nan],
        rng.uniform(0.0, 1.2 * end, 2000),
    ])


class TestBins:
    @pytest.mark.parametrize("bins_min", [None, 0], ids=["default", "always-guess"])
    @pytest.mark.parametrize("side", ["left", "right"])
    def test_equals_searchsorted(self, side, bins_min, monkeypatch):
        if bins_min is not None:
            monkeypatch.setattr(secondorder, "_BINS_MIN", bins_min)
        rng = substream(5, 40)
        for axis in bins_axes():
            values = bins_values(axis, rng)
            assert len(values) >= secondorder._BINS_MIN
            want = np.searchsorted(axis, values, side)
            got = secondorder._bins(axis, values, side)
            assert got.dtype == want.dtype and np.array_equal(got, want)
            # and value by value, which short arrays reach when bins_min is 0
            for v in values[::97]:
                one = secondorder._bins(axis, np.array([v]), side)
                assert one == np.searchsorted(axis, v, side)


def searchsorted_cases():
    """(pattern, lam, grid): a ~5000-event Poisson replicate on the planar
    benchmark window (100 km x 100 km x 3650 days) at the default grid, as
    ripley-k draws them, and a ~100-event unit-cube pattern."""
    bench = Window((0.0, 100.0), (0.0, 100.0), (0.0, 3650.0))
    big = simulate_poisson(5100 / bench.volume, bench, substream(6, 50))
    small = simulate_poisson(100, UNIT, substream(6, 51))
    return {
        "poisson-5000": (big, len(big) / bench.volume, KGrid.default(bench)),
        "poisson-100": (small, varying_lambda(small, 100.0), KGrid.default(UNIT, 20, 20)),
    }


class TestEstimateKBinning:
    @pytest.mark.parametrize("correction", ["translation", "border"])
    @pytest.mark.parametrize("case", sorted(searchsorted_cases()))
    def test_same_surface_as_searchsorted_oracle(self, case, correction):
        pat, lam, grid = searchsorted_cases()[case]
        assert 4500 <= len(pat) <= 5700 if case == "poisson-5000" else 70 <= len(pat) <= 130
        est = estimate_K(pat, lam, grid, correction=correction, correction_cap=1.2)
        k, winsorized = searchsorted_K(pat, lam, grid, correction, correction_cap=1.2)
        assert np.array_equal(est.k, k, equal_nan=True) and np.nanmax(k) > 0
        assert est.winsorized_pairs == winsorized
        assert winsorized > 0 or correction == "border"


class TestClosePairs:
    @pytest.mark.parametrize("chunk", [5, 97, None], ids=["chunk5", "chunk97", "default"])
    @pytest.mark.parametrize("case", sorted(enumerator_cases()))
    def test_same_chunks_as_frozen_enumerator(self, case, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(secondorder, "_PAIR_CHUNK", chunk)
        x, t, r, tau, query = enumerator_cases()[case]
        got = list(secondorder._close_pairs(x, t, r, tau, *query))
        want = list(frozen_close_pairs(x, t, r, tau, *query))
        assert len(got) == len(want)
        for chunk_got, chunk_want in zip(got, want):
            for a, b in zip(chunk_got, chunk_want, strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        if case in ("self", "query", "tied-times", "far-offset", "one-cell", "lattice"):
            assert sum(len(c[0]) for c in want) > 0

    def test_events_on_cell_edges(self):
        # events at m * side, the edges of the enumerator's cells: for some m
        # the quotient (x - origin) / side rounds up to m, while the cell
        # (x - origin) // side is m - 1
        r, span = 0.06, 1.0
        side = r * (1 + 1e-9) + 1e-9 * span
        edges = np.append(np.arange(17) * side, span)
        assert (np.floor(edges / side) != edges // side).sum() >= 2
        rng = substream(7, 61)
        x = np.concatenate([np.stack(np.meshgrid(edges, edges), -1).reshape(-1, 2),
                            rng.uniform(0.0, span, (1500, 2))])
        t = np.sort(rng.uniform(0.0, 1.0, len(x)))
        got = list(secondorder._close_pairs(x, t, r, 0.2))
        want = list(frozen_close_pairs(x, t, r, 0.2))
        assert len(got) == len(want) == 1 and len(want[0][0]) > 0
        for a, b in zip(got[0], want[0], strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_pairs_at_exactly_r_kept(self):
        # a * a + b * b rounds above hypot(a, b) ** 2 for about a quarter of
        # offsets; the squared-distance pre-cut must keep those pairs at
        # r = hypot(a, b), where the exact cut keeps them
        ab = substream(7, 60).uniform(0.0, 1.0, (400, 2))
        r = np.hypot(ab[:, 0], ab[:, 1])
        rounded_up = ab[:, 0] * ab[:, 0] + ab[:, 1] * ab[:, 1] > r * r
        assert rounded_up.sum() >= 50
        for (a, b), rr in zip(ab[rounded_up], r[rounded_up]):
            x, t = np.array([[0.0, 0.0], [a, b]]), np.zeros(2)
            (i, j, dx, ds, dt), = secondorder._close_pairs(x, t, rr, 0.0)
            assert list(i) == [0] and list(j) == [1] and list(ds) == [rr]

    @pytest.mark.parametrize("where", ["below-spacing", "at-a-pair", "beyond-diameter"])
    def test_all_times_equal_gives_each_close_pair_once(self, where):
        # the spatial bandwidth selector's use: every unordered pair with
        # hypot <= r exactly once, when r is below the closest pair's
        # distance (none), equal to some pair's, or beyond the window's
        # diameter (one cell holds every point)
        rng = substream(7, 62)
        x = rng.uniform(0.0, 1.0, (300, 2))
        a, b = np.triu_indices(len(x), k=1)
        d = np.hypot(x[b, 0] - x[a, 0], x[b, 1] - x[a, 1])
        r = {"below-spacing": 0.5 * d.min(), "at-a-pair": np.sort(d)[2000],
             "beyond-diameter": 2.0}[where]
        chunks = list(secondorder._close_pairs(x, np.zeros(len(x)), r, 0.0))
        i, j, dx, ds, dt = (np.concatenate(c) for c in zip(*chunks)) if chunks else [[]] * 5
        got = sorted(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
        want = sorted(zip(a[d <= r].tolist(), b[d <= r].tolist()))
        assert got == want and len(set(got)) == len(got)
        assert len(want) == {"below-spacing": 0, "at-a-pair": 2001,
                             "beyond-diameter": len(d)}[where]
        if len(want):
            assert np.array_equal(ds, np.hypot(x[j, 0] - x[i, 0], x[j, 1] - x[i, 1]))
            assert not np.any(dt)


class TestAverageK:
    def test_poisson_surface_reproduces_identities(self):
        grid = KGrid.default(UNIT, 50, 50)
        surface = 2 * grid.tau[None, :] * math.pi * grid.r[:, None] ** 2
        k_t, k_s = average_K(KEstimate(surface, grid))
        assert np.allclose(k_t[1:], 2 * grid.tau[1:], rtol=1e-3)
        assert np.allclose(k_s[1:], math.pi * grid.r[1:] ** 2, rtol=1e-3)

    def test_zero_surface(self):
        grid = KGrid.default(UNIT, 10, 10)
        k_t, k_s = average_K(KEstimate(np.zeros((10, 10)), grid))
        assert (k_t == 0).all() and (k_s == 0).all()

    def test_needs_three_values(self):
        grid = KGrid(np.array([0.0, 0.1]), np.array([0.0, 0.1]))
        with pytest.raises(ValueError):
            average_K(KEstimate(np.zeros((2, 2)), grid))

    def test_cluster_exceeds_poisson(self):
        model = ClusterModel(kappa=200.0, mean_offspring=10.0, sigma=0.02, sigma_t=0.02)
        grid = KGrid.default(UNIT, 15, 15)
        wins_t = wins_s = 0
        runs = 40
        for s in range(runs):
            pat = simulate_cluster(model, UNIT, substream(s, 3))
            k_t, k_s = average_K(estimate_K(pat, model.intensity, grid))
            wins_t += (k_t[7:] > 2 * grid.tau[7:]).all()
            wins_s += (k_s[7:] > math.pi * grid.r[7:] ** 2).all()
        assert wins_t >= 0.95 * runs
        assert wins_s >= 0.95 * runs


class TestSeries:
    def test_truncation_matches_exponential(self):
        f, g, j = poisson_series_fgj(2000.0, 0.025, 0.1, 0.05, order=30)
        target = math.exp(-2000.0 * 0.025 * ball_volume(0.1, 0.05))
        assert abs((1 - f) - target) < 1e-10
        assert abs((1 - g) - target) < 1e-10

    def test_j_is_one(self):
        _, _, j = poisson_series_fgj(500.0, 0.1, 0.15, 0.02, order=40)
        assert abs(j - 1.0) < 1e-10

    def test_zero_intensity_floor(self):
        f, g, j = poisson_series_fgj(0.0, 0.5, 0.2, 0.2, order=5)
        assert f == 0.0 and g == 0.0

    def test_nondecaying_terms_rejected(self):
        with pytest.raises(ValueError, match="order"):
            poisson_series_fgj(1e6, 1.0, 0.5, 0.5, order=2)

    def test_diagnostics_validation(self):
        with pytest.raises(ValueError):
            poisson_series_fgj(-1.0, 0.5, 0.1, 0.1)
        with pytest.raises(ValueError):
            poisson_series_fgj(1.0, 0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            poisson_series_fgj(1.0, 0.5, 0.1, 0.1, order=1)

    @pytest.mark.parametrize(
        "lam_floor, order, name",
        [(math.nan, 30, "lam_floor"), (1.0, 2.5, "order"), (1.0, math.nan, "order"),
         (1.0, True, "order")],
        ids=["nan-floor", "order-2.5", "order-nan", "order-bool"],
    )
    def test_bad_values_rejected_by_name(self, lam_floor, order, name):
        # a NaN floor once gave (nan, nan, nan) without an error
        with pytest.raises(ValueError, match=f"^{name} must be"):
            poisson_series_fgj(lam_floor, 0.5, 0.1, 0.1, order=order)

    def test_poisson_reference_integrals(self):
        # the series' k-fold integrals are |B(r, tau)|^k, k = 1..order
        vol = ball_volume(0.1, 0.2)
        terms = (-0.5) ** np.arange(1, 5) * vol ** np.arange(1, 5) / [1, 2, 6, 24]
        f, g, _ = poisson_series_fgj(1.0, 0.5, 0.1, 0.2, order=4)
        assert f == g == pytest.approx(-terms.sum(), rel=1e-12)


class TestEmpiricalFGJ:
    def test_poisson_j_near_one(self):
        js = []
        for s in range(30):
            pat = simulate_poisson(300, UNIT, substream(s, 4))
            _, _, j = empirical_fgj(pat, 0.08, 0.04, seed=s)
            js.append(j)
        assert abs(np.mean(js) - 1.0) < 0.05

    def test_cluster_j_below_one(self):
        model = ClusterModel(kappa=50.0, mean_offspring=8.0, sigma=0.03, sigma_t=0.03)
        below = 0
        runs = 30
        for s in range(runs):
            pat = simulate_cluster(model, UNIT, substream(s, 5))
            _, _, j = empirical_fgj(pat, 0.1, 0.05, seed=s)
            below += j < 1.0
        assert below >= 0.9 * runs

    def test_too_large_radius_rejected(self):
        pat = simulate_poisson(100, UNIT, 0)
        with pytest.raises(ValueError):
            empirical_fgj(pat, 0.6, 0.05)

    def test_window_narrow_only_in_y_rejected(self):
        # 2r exceeds the y extent only; the x and t extents are wide enough
        strip = Window((0, 1), (0, 0.15), (0, 1))
        pat = simulate_poisson(2000, strip, 0)
        with pytest.raises(ValueError, match="window too small"):
            empirical_fgj(pat, 0.1, 0.05)


    @pytest.mark.parametrize("name", ["poisson", "cluster"])
    def test_covered_fraction_matches_brute_force(self, name):
        pat = oracle_patterns()[name]
        rng = substream(3, 27)
        xy, tt = rng.uniform(0, 1, (500, 2)), rng.uniform(0, 1, 500)
        # tau = 0 leaves only the events at the query's own time
        for r, tau in ((0.2, 0.0), (0.6, 0.01), (0.05, 0.02), (0.1, 0.05)):
            f = secondorder._covered_fraction(pat, xy, tt, r, tau, False)
            assert f == brute_force_covered(pat, xy, tt, r, tau, False)
            g = secondorder._covered_fraction(pat, pat.x, pat.t, r, tau, True)
            assert g == brute_force_covered(pat, pat.x, pat.t, r, tau, True)
        assert 0 < f < 1 and 0 < g < 1


class TestResidualRatio:
    def test_poisson_residual_is_small(self):
        res = j_residual_ratio(
            4000.0, p=0.05, r=0.1, tau=0.05,
            seeds=range(60), thinnings=3, n_test=2048,
        )
        assert res["residuals"][0.05] < 0.05

    def test_cluster_one_minus_j_positive(self):
        # clustering shortens nearest-neighbour distances: 1 - J > 0
        model = ClusterModel(kappa=800.0, mean_offspring=10.0, sigma=0.03, sigma_t=0.03)
        positive = 0
        runs = 30
        for s in range(runs):
            pat = simulate_cluster(model, UNIT, substream(s, 6))
            sub = thin(pat, 0.05, substream(s, 7))
            _, _, j = empirical_fgj(sub, 0.1, 0.05, seed=s)
            positive += (1.0 - j) > 0
        assert positive >= 0.9 * runs

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match="need"):
            j_residual_ratio(
                100.0, p=0.05, seeds=range(2), thinnings=1,
            )

    def test_invalid_model_rejected(self):
        with pytest.raises(ValueError, match="model"):
            j_residual_ratio(object(), p=0.05, seeds=range(1))


def test_cluster_k_function_analytic_oracle():
    # seed-averaged K estimate agrees with the closed form
    model = ClusterModel(kappa=400.0, mean_offspring=10.0, sigma=0.03, sigma_t=0.03)
    grid = KGrid(np.array([0.0, 0.1]), np.array([0.0, 0.05]))
    vals = []
    for s in range(60):
        pat = simulate_cluster(model, UNIT, substream(s, 8))
        vals.append(estimate_K(pat, model.intensity, grid).k[-1, -1])
    # exact K(r, tau) of the stationary Thomas process: the Poisson cylinder
    # 2 tau pi r^2 plus the within-cluster excess
    # (1/kappa) (1 - exp(-r^2 / (4 sigma^2))) erf(tau / (2 sigma_t))
    r, tau = 0.1, 0.05
    excess = (1.0 - math.exp(-(r**2) / (4 * model.sigma**2))) * math.erf(tau / (2 * model.sigma_t))
    target = 2 * tau * math.pi * r**2 + excess / model.kappa
    se = np.std(vals, ddof=1) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - target) < 3 * se
