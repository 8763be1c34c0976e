"""Monte-Carlo inference: the global envelope test with extreme-rank-length
ordering, over one summary function or several combined, and the quadrat
homogeneity test.

The envelope machinery only assumes that the observed curve and its B
replicates are exchangeable under the null, so the returned p-values are
exact Monte-Carlo p-values taking values k/(B+1).

Pointwise ranks come from :func:`_rank_columns`, one stable sort per
column in numpy; it returns the values and dtypes of
``scipy.stats.rankdata(a, method, axis=0)``, which the tests use as its
oracle, without importing ``scipy.stats``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import _FINE_RASTER, GridSpec, SpatialPattern

__all__ = [
    "CurveSet",
    "EnvelopeResult",
    "combined_erl_test",
    "quadrat_test",
]


class CurveSet:
    """An observed curve plus B replicate curves on a common argument grid."""

    def __init__(self, args, observed, replicates):
        self.args = np.asarray(args, dtype=float)
        self.observed = np.asarray(observed, dtype=float)
        self.replicates = np.asarray(replicates, dtype=float)
        if self.observed.shape != self.args.shape:
            raise ValueError("observed curve and argument grid differ in length")
        if self.replicates.ndim != 2 or self.replicates.shape[1] != len(self.args):
            raise ValueError("replicates must be a (B, len(args)) array")
        if not (np.isfinite(self.observed).all() and np.isfinite(self.replicates).all()):
            raise ValueError("curves must be finite")

    def stacked(self) -> np.ndarray:
        """All curves with the observed one in row 0."""
        return np.vstack([self.observed[None, :], self.replicates])


@dataclass
class EnvelopeResult:
    """Outcome of a global envelope test."""

    args: np.ndarray
    observed: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    p_value: float
    measures: np.ndarray  # per-curve extremeness in (0, 1], row 0 = observed
    alpha: float

    @property
    def rejected(self) -> bool:
        return self.p_value <= self.alpha


def _rank_columns(a: np.ndarray, method: str) -> np.ndarray:
    """1-based ranks within each column of ``a``.

    Tied values share the smallest rank of their group (``"min"``, int64)
    or the mean of its ranks (``"average"``, float64).
    """
    n = len(a)
    order = np.argsort(a, axis=0, kind="stable")
    ordered = np.take_along_axis(a, order, axis=0)
    pos = np.arange(n)[:, None]
    first = np.ones(a.shape, dtype=bool)
    first[1:] = ordered[1:] != ordered[:-1]
    # sorted position of the first and of the last member of each tie group
    start = np.maximum.accumulate(np.where(first, pos, 0), axis=0)
    if method == "min":
        values = start + 1
    else:
        last = np.ones(a.shape, dtype=bool)
        last[:-1] = first[1:]
        end = np.minimum.accumulate(np.where(last, pos, n - 1)[::-1], axis=0)[::-1]
        values = (start + end) / 2 + 1
    ranks = np.empty_like(values)
    np.put_along_axis(ranks, order, values, axis=0)
    return ranks


def _pointwise_extreme_ranks(curves: np.ndarray) -> np.ndarray:
    """Two-sided pointwise ranks: min of rank from below and from above.

    Ties share the minimum attainable rank, so tied curves are equally
    extreme.
    """
    return np.minimum(_rank_columns(curves, "min"), _rank_columns(-curves, "min"))


def _erl_order(curves: np.ndarray):
    """Extremeness measures from the lexicographic order of sorted ranks.

    Returns (measures, order) where measures[i] is the fraction of curves
    whose sorted pointwise-rank vector is lexicographically at most curve
    i's (small = extreme; ties share a measure), and order lists curve
    indices from most to least extreme.
    """
    ranks = _pointwise_extreme_ranks(curves)
    sorted_ranks = np.sort(ranks, axis=1)
    s = len(curves)
    order = np.lexsort(sorted_ranks.T[::-1])
    rows = sorted_ranks[order]
    # tied rank vectors are adjacent in lexicographic order; each tie group
    # shares the measure (index of its last member + 1) / s
    last = np.ones(s, dtype=bool)
    last[:-1] = (rows[1:] != rows[:-1]).any(axis=1)
    end = np.minimum.accumulate(np.where(last, np.arange(s), s - 1)[::-1])[::-1]
    measures = np.empty(s)
    measures[order] = (end + 1) / s
    return measures, order


def _build_envelope(curves: np.ndarray, order: np.ndarray, alpha: float):
    s = len(curves)
    k_remove = max(int(math.ceil(alpha * s)) - 1, 0)
    keep = order[k_remove:]
    kept = curves[keep]
    return kept.min(axis=0), kept.max(axis=0)


def combined_erl_test(curve_sets, alpha: float = 0.05) -> EnvelopeResult:
    """Two-sided global envelope test with extreme-rank-length ordering,
    over one summary function or several combined.

    Each component is rank-transformed pointwise (a strictly monotone
    change of scale, which leaves one component's ERL ordering as it is)
    and the transformed curves are concatenated along the argument axis.
    The p-value is (1 + #replicates at least as extreme as the observed
    curve) / (B + 1) in the ERL ordering of the concatenated curves.  The
    envelope at level alpha removes the ceil(alpha*(B+1)) - 1 most extreme
    of all B+1 curves and takes pointwise extremes of the rest, on the
    original scale.  Warns when B < 2/alpha - 1, where no p-value reaches
    alpha.
    """
    if len(curve_sets) == 0:
        raise ValueError("need at least one curve set")
    bs = {len(cs.replicates) for cs in curve_sets}
    if len(bs) != 1:
        raise ValueError(f"components disagree on replicate count: {sorted(bs)}")
    (B,) = bs
    if B < 1:
        raise ValueError("need at least one replicate curve")
    if B < 2.0 / alpha - 1:
        warnings.warn(
            f"B={B} replicates is small for alpha={alpha}; "
            f"recommend B >= {int(math.ceil(2 / alpha - 1))}"
        )
    stacked = [cs.stacked() for cs in curve_sets]
    transformed = np.hstack([_rank_columns(c, "average") for c in stacked])
    measures, order = _erl_order(transformed)
    p = float(measures[0])
    lower, upper = _build_envelope(np.hstack(stacked), order, alpha)
    args = np.concatenate([cs.args for cs in curve_sets])
    observed = np.concatenate([cs.observed for cs in curve_sets])
    return EnvelopeResult(args, observed, lower, upper, p, measures, alpha)


def _tile_areas(window, fine: GridSpec, inside, nx: int, ny: int) -> np.ndarray:
    """Areas of an nx-by-ny tiling intersected with the window, whose
    raster on the square grid ``fine`` is ``inside`` (None if unmasked)."""
    if inside is None:
        ax = (window.x_range[1] - window.x_range[0]) / nx
        ay = (window.y_range[1] - window.y_range[0]) / ny
        return np.full((nx, ny), ax * ay)
    res = fine.shape[0]
    # tile index of each raster cell center, matching histogram2d binning
    ix = np.clip(((np.arange(res) + 0.5) * nx / res).astype(int), 0, nx - 1)
    iy = np.clip(((np.arange(res) + 0.5) * ny / res).astype(int), 0, ny - 1)
    tile_x = np.repeat(ix[:, None], res, axis=1)
    tile_y = np.repeat(iy[None, :], res, axis=0)
    areas = np.zeros((nx, ny))
    np.add.at(areas, (tile_x[inside], tile_y[inside]), fine.cell_volume)
    return areas


def quadrat_test(pattern: SpatialPattern, tiles=None) -> tuple[float, float]:
    """Chi-square test of homogeneity on tile counts.

    Tiles the window (default rule: ceil(sqrt(n/10)) per axis, at most 10),
    compares observed tile counts with expectations proportional to tile
    area, and refers the statistic to chi-square with #cells - 1 degrees
    of freedom.  Slivers, tiles that expect fewer than 5 events and meet
    the window in less than half a tile's area, are pooled into one cell;
    tiles are coarsened while any cell still expects fewer than 5.

    Returns
    -------
    (statistic, p_value)
    """
    from scipy.special import chdtrc

    n = len(pattern)
    if n == 0:
        raise ValueError("cannot test an empty pattern")
    window = pattern.window
    if tiles is None:
        k = min(max(int(math.ceil(math.sqrt(n / 10.0))), 1), 10)
        nx = ny = k
    else:
        nx, ny = tiles
    fine = GridSpec.spatial(window, _FINE_RASTER, _FINE_RASTER)
    inside = window.raster(fine)
    full = (window.x_range[1] - window.x_range[0]) * (window.y_range[1] - window.y_range[0])
    coarsened = False
    while True:
        areas = _tile_areas(window, fine, inside, nx, ny)
        expected = n * areas / areas.sum()
        nonzero = areas > 0
        sliver = nonzero & (expected < 5) & (areas < 0.5 * full / (nx * ny))
        whole = nonzero & ~sliver
        cells = np.append(expected[whole], expected[sliver].sum() if sliver.any() else np.inf)
        if cells.min() >= 5 or (nx <= 1 and ny <= 1):
            break
        coarsened = True
        nx, ny = max(nx - 1, 1), max(ny - 1, 1)
    if coarsened:
        warnings.warn(f"expected count per tile below 5; coarsened to {nx}x{ny} tiles")
    xe = np.linspace(window.x_range[0], window.x_range[1], nx + 1)
    ye = np.linspace(window.y_range[0], window.y_range[1], ny + 1)
    counts, _, _ = np.histogram2d(pattern.points[:, 0], pattern.points[:, 1], bins=[xe, ye])
    stat = float(((counts[whole] - expected[whole]) ** 2 / expected[whole]).sum())
    dof = int(whole.sum()) - 1
    if sliver.any():
        pooled = expected[sliver].sum()
        stat += float((counts[sliver].sum() - pooled) ** 2 / pooled)
        dof += 1
    if dof < 1:
        raise ValueError("fewer than two tiles intersect the window")
    return stat, float(chdtrc(dof, stat))
