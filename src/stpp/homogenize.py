"""Homogenization by level-set thinning.

Given an inhomogeneous planar pattern, estimate its intensity with the
Voronoi estimator, pick the level mu whose level set best matches a target
expected count via the loss

    L(mu) = ( nu_target - mu * |region where intensity >= mu| )^2,

then keep each point x inside the level set with probability
min(1, mu * |cell(x)|), i.e. mu over the estimated intensity.  The
retained pattern is close to homogeneous Poisson with rate mu on the
level set, which the quadrat test can check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import SpatialPattern, VoronoiRegionMask, _trusted, substream
from .inference import quadrat_test
from .intensity import VoronoiCells, voronoi_intensity

__all__ = [
    "HomogenizeReport",
    "level_set",
    "minimize_loss",
    "homogenize",
]

# relative loss at the minimum above which the target count is reported as
# unattainable
_LOSS_TOLERANCE = 1e-9


@dataclass
class HomogenizeReport:
    mu: float
    level_area: float
    n_cells: int
    loss_at_minimum: float
    retained: int
    quadrat_statistic: float
    quadrat_p: float


def level_set(cells: VoronoiCells, mu: float) -> VoronoiRegionMask:
    """The region of cells with estimated intensity (1 / cell area) at least mu.

    Increasing mu never adds cells; the area is the sum of member raster
    areas.  Generators that captured no raster cell carry value +inf, so
    they belong to every level set with zero area contribution.  The
    region keeps the cells' window mask as its parent and stays inside it.
    """
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    member = cells.values >= mu
    area = float(cells.areas[member].sum())
    return VoronoiRegionMask(cells.tree, member, area, cells.window_mask)


def minimize_loss(cells: VoronoiCells, target_count: float) -> float:
    """Exact minimizer of (target_count - mu * |level set area(mu)|)^2.

    The map mu -> mu * |area(mu)| is piecewise linear with breakpoints at
    the sorted cell values, so scanning the breakpoint intervals finds the
    global minimum exactly.  Returns the smallest minimizing mu.  The
    values come from one sort of the positive areas: those of
    ``voronoi_intensity`` are whole multiples of one raster cell, so
    ascending area is strictly descending value.  Peak memory is about 18
    bytes a cell.  The target must be finite and > 0.
    """
    if not (math.isfinite(target_count) and target_count > 0):
        raise ValueError(f"target count must be finite and positive, got {target_count!r}")
    n_points = len(cells.areas)
    if target_count > n_points:
        warnings.warn(
            f"target count {target_count:g} exceeds the pattern size {n_points}; "
            "retention probabilities will be capped at 1"
        )
    # the finite cells' areas ascending, smallest area (largest value) first
    values = cells.areas[cells.areas > 0]
    values.sort()
    # suffix_area[searchsorted(values, mu, "left")] is the area of {value >= mu}:
    # the prefix sums of the ascending areas, written back to front
    suffix_area = np.empty(len(values) + 1)
    suffix_area[-1] = 0.0
    np.cumsum(values, out=suffix_area[-2::-1])
    np.divide(1.0, values, out=values)
    values = values[::-1]  # ascending values, a view

    # mu * area(mu) is linear between consecutive distinct values, so the
    # candidate minimizers are the breakpoints themselves plus each piece's
    # interior parabola vertex target_count / area
    first = np.ones(len(values), dtype=bool)  # first of each run of equal values
    first[1:] = values[1:] != values[:-1]
    uniq = values[first]
    lo_edges = np.concatenate([[0.0], uniq[:-1]])
    piece_areas = suffix_area[np.searchsorted(values, uniq, side="left")]
    with np.errstate(divide="ignore"):
        vertices = np.where(piece_areas > 0, target_count / piece_areas, np.inf)
    interior = (vertices > lo_edges) & (vertices < uniq)
    candidates = np.sort(np.concatenate([[0.0], uniq, vertices[interior]]))
    cand_areas = suffix_area[np.searchsorted(values, candidates, side="left")]
    losses = (target_count - candidates * cand_areas) ** 2
    best = int(np.argmin(losses))  # first minimum = smallest minimizing mu
    best_mu, best_loss = float(candidates[best]), float(losses[best])
    if best_loss > _LOSS_TOLERANCE * target_count**2:
        warnings.warn(
            f"loss at the minimum is {best_loss:.3g}; "
            "the target count may be unattainable for this pattern"
        )
    return best_mu


def homogenize(
    pattern: SpatialPattern, target_count: float, seed=0, resolution: int | None = None
) -> tuple[SpatialPattern, HomogenizeReport]:
    """Thin an inhomogeneous pattern into a homogeneous one on a level set.

    Runs the Voronoi estimate at ``resolution`` (None: its default), picks
    mu for ``target_count``, keeps points of the level set with probability
    min(1, mu * cell area) drawn from ``substream(seed, 29)``, and reports
    the quadrat test of the retained pattern on the level-set region.  That
    region is the output window's mask, inside the input window's mask.
    """
    _, cells = voronoi_intensity(pattern, resolution=resolution)
    mu = minimize_loss(cells, target_count)
    region = level_set(cells, mu)
    loss = (target_count - mu * region.area) ** 2
    retain_p = np.where(region.member, np.minimum(1.0, mu * cells.areas), 0.0)
    rng = substream(seed, 29)
    keep = rng.uniform(size=len(pattern)) < retain_p

    out = _trusted(SpatialPattern, pattern.points[keep], replace(pattern.window, mask=region))

    retained = len(out)
    if retained < 20:
        warnings.warn(f"only {retained} points retained; quadrat test unreliable")
    try:
        stat, p = quadrat_test(out) if retained else (math.nan, math.nan)
    except ValueError:
        stat, p = math.nan, math.nan
    report = HomogenizeReport(mu, region.area, region.n_cells, loss, retained, stat, p)
    return out, report
