import math

import numpy as np
import pytest

from stpp import core
from stpp.core import (
    GridSpec,
    PolygonMask,
    ScalarField,
    SpaceTimePattern,
    SpatialPattern,
    TemporalPattern,
    Window,
    ball_volume,
    project,
    substream,
)
from stpp.simulate import simulate_poisson

UNIT = Window((0, 1), (0, 1), (0, 1))


def test_ball_volume_values():
    assert ball_volume(1, 1) == pytest.approx(2 * math.pi)
    assert ball_volume(0, 5) == 0.0
    assert ball_volume(2, 0.5) == pytest.approx(4 * math.pi)


def test_ball_volume_rejects_negative():
    with pytest.raises(ValueError):
        ball_volume(-1, 1)
    with pytest.raises(ValueError):
        ball_volume(1, -0.1)


def test_window_validation():
    with pytest.raises(ValueError):
        Window((1, 0), (0, 1), (0, 1))
    with pytest.raises(ValueError):
        Window((0, 1), (0, 1), (-1, 1))
    w = Window((0, 2), (0, 3), (5, 11))
    assert w.area == 6
    assert w.duration == 6
    assert w.volume == 36


def test_polygon_mask_area_and_containment():
    # right triangle of area 1/2 inside the unit square
    mask = PolygonMask([(0, 0), (1, 0), (0, 1)])
    assert mask.area == pytest.approx(0.5)
    w = Window((0, 1), (0, 1), (0, 1), mask)
    assert w.area == pytest.approx(0.5)
    assert w.contains_xy([[0.1, 0.1]])[0]
    assert not w.contains_xy([[0.9, 0.9]])[0]


def test_pattern_sorting_and_simplicity():
    pts = [(0.3, 0.4, 0.7), (0.1, 0.2, 0.5), (0.9, 0.9, 0.5)]
    pat = SpaceTimePattern(pts, UNIT)
    assert np.all(np.diff(pat.t) >= 0)
    assert pat.points[0].tolist() == [0.1, 0.2, 0.5]
    with pytest.raises(ValueError):
        SpaceTimePattern([(0.5, 0.5, 0.5), (0.5, 0.5, 0.5)], UNIT)
    jittered = SpaceTimePattern([(0.5, 0.5, 0.5), (0.5, 0.5, 0.5)], UNIT, jitter=True)
    assert len(jittered) == 2
    assert not np.array_equal(jittered.points[0], jittered.points[1])
    # perturbation is tiny
    assert np.abs(jittered.points - 0.5).max() <= 1e-9


def oracle_dedupe(coords, jitter, rng, scale):
    """Reference simplicity check: a lexsort by (x1, x2[, t]) and adjacent rows."""
    order = np.lexsort(coords.T[::-1])
    dup = np.all(np.diff(coords[order], axis=0) == 0.0, axis=1)
    if not dup.any():
        return coords
    if not jitter:
        raise ValueError(f"{int(dup.sum())} duplicate event(s); pass jitter=True to perturb them")
    if rng is None:
        rng = np.random.default_rng(0)
    out = coords.copy()
    dup_idx = order[1:][dup]
    out[dup_idx] += rng.uniform(-1e-9, 1e-9, size=(len(dup_idx), coords.shape[1])) * scale
    return oracle_dedupe(out, False, None, scale)


def oracle_pattern_points(points, window, jitter=False, rng=None):
    """Reference constructor order: deduplicate, then a second lexsort by (t, x1, x2)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    scale = max(
        window.x_range[1] - window.x_range[0], window.y_range[1] - window.y_range[0], window.duration
    )
    pts = oracle_dedupe(pts, jitter, rng, scale)
    return pts[np.lexsort((pts[:, 1], pts[:, 0], pts[:, 2]))]


@pytest.mark.parametrize("seed", range(6))
def test_pattern_single_sort_matches_two_lexsorts(seed):
    rng = np.random.default_rng(seed)
    window = Window((0, 2), (0, 1), (0, 5))
    # coarse values force ties on every key and exact duplicates; -0.0 equals 0.0
    pts = rng.integers(0, 4, size=(300, 3)) * np.array([0.5, 0.25, 1.25])
    pts[(pts == 0) & (rng.uniform(size=pts.shape) < 0.5)] = -0.0
    distinct = np.unique(pts, axis=0)
    for points in (pts, distinct, distinct[::-1], pts[:1]):
        for jitter, draw in ((False, None), (True, None), (True, seed + 100)):
            fresh = (lambda: None) if draw is None else (lambda: np.random.default_rng(draw))
            try:
                want = oracle_pattern_points(points, window, jitter, fresh())
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    SpaceTimePattern(points, window, jitter, fresh())
                assert str(info.value) == str(exc)
                continue
            got = SpaceTimePattern(points, window, jitter, fresh()).points
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
            assert len(got) == len(points) and np.all(np.diff(got[:, 2]) >= 0)
    with pytest.raises(ValueError, match=r"^\d+ duplicate event\(s\)"):
        SpaceTimePattern(pts, window)


@pytest.mark.parametrize("keys", [(2, 0, 1), (0, 1)], ids=["spacetime", "spatial"])
def test_lexsort_rows_matches_full_lexsort(keys):
    # the primary-key argsort plus a lexsort of its tied runs is np.lexsort's order
    rng = np.random.default_rng(3)
    coarse = rng.integers(0, 6, size=(2000, 3)) * 0.25
    coarse[(coarse == 0) & (rng.uniform(size=coarse.shape) < 0.5)] = -0.0
    whole_seconds = np.column_stack([rng.uniform(size=(2000, 2)), rng.integers(0, 500, 2000)])
    distinct = rng.uniform(size=(500, 3))
    for coords in (coarse, whole_seconds, distinct, np.zeros((40, 3)), coarse[:1], coarse[:0]):
        want = np.lexsort([coords[:, k] for k in reversed(keys)])
        assert np.array_equal(core._lexsort_rows(coords, keys), want)


def test_spatial_pattern_jitter_matches_reference():
    rng = np.random.default_rng(7)
    window = Window((0, 1), (0, 1), (0, 1))
    xy = rng.integers(0, 5, size=(200, 2)) / 4.0
    got = SpatialPattern(xy, window, jitter=True, rng=np.random.default_rng(1)).points
    want = oracle_dedupe(xy, True, np.random.default_rng(1), 1.0)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    with pytest.raises(ValueError, match="duplicate"):
        SpatialPattern(xy, window)


def test_pattern_rejects_outside():
    with pytest.raises(ValueError):
        SpaceTimePattern([(1.5, 0.5, 0.5)], UNIT)
    with pytest.raises(ValueError):
        SpaceTimePattern([(0.5, 0.5, 2.0)], UNIT)


def test_project_preserves_cardinality_and_values():
    pat = SpaceTimePattern([(0.1, 0.2, 5), (0.3, 0.4, 7)], Window((0, 1), (0, 1), (0, 10)))
    sp, tp = project(pat)
    assert sp.points.tolist() == [[0.1, 0.2], [0.3, 0.4]]
    assert tp.times.tolist() == [5, 7]

    empty = SpaceTimePattern(np.empty((0, 3)), UNIT)
    sp, tp = project(empty)
    assert len(sp) == 0 and len(tp) == 0

    sim = simulate_poisson(300, UNIT, 0)
    sp, tp = project(sim)
    assert len(sp) == len(sim) == len(tp)
    assert type(sp) is SpatialPattern and type(tp) is TemporalPattern
    assert not sp.points.flags.writeable and not tp.times.flags.writeable


def test_scalar_field_integrates_constant_to_area():
    grid = GridSpec.spatial(UNIT, 173, 91)
    f = ScalarField(grid, np.ones(grid.shape))
    assert f.integrate() == pytest.approx(1.0, rel=1e-6)
    grid3 = GridSpec.spacetime(Window((0, 2), (0, 3), (0, 5)), 32, 32, 17)
    f3 = ScalarField(grid3, np.ones(grid3.shape))
    assert f3.integrate() == pytest.approx(30.0, rel=1e-6)


def test_scalar_field_shape_checks():
    grid = GridSpec.spatial(UNIT, 8, 8)
    with pytest.raises(ValueError):
        ScalarField(grid, np.ones((8, 9)))
    with pytest.raises(ValueError):
        ScalarField(grid, np.full((8, 8), np.nan))


def test_scalar_field_checks_finiteness_on_masked_in_cells_only():
    grid = GridSpec.spatial(UNIT, 8, 8)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[2:5, 3:7] = True
    for bad in (np.inf, -np.inf, np.nan):
        values = np.where(mask, 1.0, bad)
        assert ScalarField(grid, values, mask).integrate() == pytest.approx(12 / 64)
        values = values.copy()
        values[3, 4] = bad
        with pytest.raises(ValueError, match="finite"):
            ScalarField(grid, values, mask)
    grid3 = GridSpec.spacetime(UNIT, 8, 8, 5)
    values3 = np.where(mask[:, :, None], 1.0, np.nan) * np.ones(grid3.shape)
    ScalarField(grid3, values3, mask)
    values3 = values3.copy()
    values3[3, 4, 2] = np.inf
    with pytest.raises(ValueError, match="finite"):
        ScalarField(grid3, values3, mask)


@pytest.mark.parametrize("bad", [0, -2, 2.5, True, "8", None, np.float64(8.0)])
def test_grid_builders_reject_bad_cell_counts(bad):
    with pytest.raises(ValueError, match="cell counts must be integers >= 1"):
        GridSpec.spatial(UNIT, 8, bad)
    with pytest.raises(ValueError, match="cell counts must be integers >= 1"):
        GridSpec.temporal(UNIT, bad)
    with pytest.raises(ValueError, match="cell counts must be integers >= 1"):
        GridSpec.spacetime(UNIT, bad, 8, 8)
    assert GridSpec.spatial(UNIT, np.int64(8), 4).shape == (8, 4)


def test_scalar_field_lookup():
    grid = GridSpec.temporal(UNIT, 10)
    f = ScalarField(grid, np.arange(10, dtype=float))
    xy = np.array([[0.95, 0.5], [0.05, 0.5]])
    assert f.rate_at(xy, np.array([0.05, 0.95])).tolist() == [0.0, 9.0]
    assert f.max_rate() == 9.0
    # a spatial field reads xy, a space-time one (xy, t); off the mask is 0
    values = np.arange(4, dtype=float).reshape(2, 2)
    mask = np.array([[True, True], [True, False]])
    s = ScalarField(GridSpec.spatial(UNIT, 2, 2), values, mask)
    xy = np.array([[0.25, 0.75], [0.75, 0.25], [0.75, 0.75]])
    assert s.rate_at(xy, np.array([0.9, 0.1, 0.5])).tolist() == [1.0, 2.0, 0.0]
    assert s.max_rate() == 2.0
    st = ScalarField(GridSpec.spacetime(UNIT, 2, 2, 2), np.arange(8.0).reshape(2, 2, 2), mask)
    assert st.rate_at(xy, np.array([0.9, 0.1, 0.5])).tolist() == [3.0, 4.0, 0.0]
    assert st.max_rate() == 5.0
    assert ScalarField(grid, np.ones(10), np.zeros(10, dtype=bool)).max_rate() == 0.0


def test_substream_independent_of_order():
    a, b = substream(1, 3), substream(1, 4)
    b2, a2 = substream(1, 4), substream(1, 3)
    assert a.uniform() == a2.uniform()
    assert b.uniform() == b2.uniform()


def test_simulation_paths_keep_invariants():
    # construction invariants hold after simulation and thinning
    from stpp.simulate import thin

    pat = simulate_poisson(400, UNIT, 3)
    assert np.all(np.diff(pat.t) >= 0)
    sub = thin(pat, 0.3, 4)
    assert np.all(np.diff(sub.t) >= 0)
    assert len(np.unique(sub.points, axis=0)) == len(sub)
    assert type(sub) is SpaceTimePattern and not sub.points.flags.writeable

    # the close-pair enumerator of the K and F/G estimators relies on this order
    from test_separability import permute_null
    from stpp.simulate import ClusterModel, simulate_cluster

    model = ClusterModel(kappa=50.0, mean_offspring=10.0, sigma=0.03, sigma_t=0.03)
    for rep in [simulate_cluster(model, UNIT, 6), *permute_null(pat, 3, 7)]:
        assert len(rep) > 0 and np.all(np.diff(rep.t) >= 0)

    sp, _ = project(pat)
    sub_sp = thin(sp, 0.3, 5)
    assert type(sub_sp) is SpatialPattern and not sub_sp.points.flags.writeable
    assert len(np.unique(sub_sp.points, axis=0)) == len(sub_sp)


class TestBlocks:
    def test_no_rows_give_no_block(self):
        assert core._blocks(0, 8) == []

    @pytest.mark.parametrize("n", [1, 7, 100, 1001])
    @pytest.mark.parametrize("row_bytes", [1, 7, 8, 99, 100, 101, 4096])
    def test_blocks_cover_rows_in_order_within_budget(self, monkeypatch, n, row_bytes):
        monkeypatch.setattr(core, "_BLOCK_BYTES", 100)
        blocks = core._blocks(n, row_bytes)
        assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))
        sizes = [rows.stop - rows.start for rows in blocks]
        assert min(sizes) >= 1
        # a block exceeds the budget only when it is one row that does
        assert all(size * row_bytes <= 100 or size == 1 for size in sizes)
        # and holds as many rows as fit: all but the last are full
        assert all(size == max(1, 100 // row_bytes) for size in sizes[:-1])

    def test_default_budget_is_8_mib(self):
        assert core._blocks(1 << 20, 8) == [slice(0, 1 << 20)]
        assert [rows.stop - rows.start for rows in core._blocks(3, 1 << 22)] == [2, 1]
