"""Core domain types: observation windows, point patterns and gridded fields.

All types are immutable after construction and safe to share between
parallel workers.  Coordinates are planar (projection of geographic input
happens at ingestion time) and times are nonnegative reals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PolygonMask",
    "RasterMask",
    "VoronoiRegionMask",
    "Window",
    "SpaceTimePattern",
    "SpatialPattern",
    "TemporalPattern",
    "GridSpec",
    "ScalarField",
    "as_rng",
    "ball_volume",
    "count_in",
    "project",
    "substream",
]


def ball_volume(r: float, tau: float) -> float:
    """Volume of the cylindrical ball {(x,t): ||x|| <= r, |t| <= tau}.

    Equals ``2 * tau * pi * r**2``; this is the Poisson reference value of
    the space-time K function.

    Parameters
    ----------
    r : float
        Spatial radius, >= 0.
    tau : float
        Temporal half-width, >= 0.
    """
    if r < 0 or tau < 0:
        raise ValueError(f"r and tau must be nonnegative, got r={r}, tau={tau}")
    return 2.0 * tau * math.pi * r * r


def substream(seed, *indices) -> np.random.Generator:
    """Independent RNG substream derived from (seed, indices).

    Replicate farms draw one substream per replicate index so that results
    do not depend on scheduling order or worker count.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(indices)))


def as_rng(seed) -> np.random.Generator:
    """``seed`` itself when it is a Generator, else a new generator seeded by it."""
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


class PolygonMask:
    """Polygonal restriction of a rectangular spatial window.

    Containment uses exact even-odd ray casting; the area is the shoelace
    area of the ring.  Quadrature against the polygon is performed on the
    evaluation grid via :meth:`raster`.
    """

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or len(v) < 3:
            raise ValueError("polygon needs an (m, 2) array with m >= 3")
        if np.allclose(v[0], v[-1]):
            v = v[:-1]
        self.vertices = v
        x, y = v[:, 0], v[:, 1]
        self.area = 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
        if self.area <= 0:
            raise ValueError("polygon has zero area")

    def contains(self, xy) -> np.ndarray:
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        x, y = xy[:, 0], xy[:, 1]
        v = self.vertices
        inside = np.zeros(len(xy), dtype=bool)
        n = len(v)
        for i in range(n):
            x1, y1 = v[i]
            x2, y2 = v[(i + 1) % n]
            crosses = (y1 > y) != (y2 > y)
            with np.errstate(divide="ignore", invalid="ignore"):
                xint = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            inside ^= crosses & (x < xint)
        return inside

    def raster(self, xs, ys) -> np.ndarray:
        """Boolean in-mask grid at the cell centers ``xs`` x ``ys``."""
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return self.contains(np.column_stack([gx.ravel(), gy.ravel()])).reshape(gx.shape)


class RasterMask:
    """Spatial mask given directly as a boolean grid over cell centers."""

    def __init__(self, xs, ys, grid, cell_area):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        self.grid = np.asarray(grid, dtype=bool)
        if self.grid.shape != (len(self.xs), len(self.ys)):
            raise ValueError("raster grid shape does not match axis lengths")
        self.cell_area = float(cell_area)
        self.area = float(self.grid.sum() * self.cell_area)

    def contains(self, xy) -> np.ndarray:
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        sx = self.xs[1] - self.xs[0] if len(self.xs) > 1 else 2 * (self.xs[0] or 1.0)
        sy = self.ys[1] - self.ys[0] if len(self.ys) > 1 else 2 * (self.ys[0] or 1.0)
        i = np.clip(np.round((xy[:, 0] - self.xs[0]) / sx).astype(int), 0, len(self.xs) - 1)
        j = np.clip(np.round((xy[:, 1] - self.ys[0]) / sy).astype(int), 0, len(self.ys) - 1)
        return self.grid[i, j]

    def raster(self, xs, ys) -> np.ndarray:
        if np.array_equal(xs, self.xs) and np.array_equal(ys, self.ys):
            return self.grid
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return self.contains(np.column_stack([gx.ravel(), gy.ravel()])).reshape(gx.shape)


class VoronoiRegionMask:
    """Union of Voronoi cells of a generator set, used as a window mask.

    Containment is exact (nearest-generator membership); the area is taken
    from a raster assignment computed at construction so that it stays
    consistent with the per-cell areas of the tessellation it came from.
    """

    def __init__(self, generators, member, area, raster_xs, raster_ys, raster_mask):
        from scipy.spatial import cKDTree

        self.generators = np.asarray(generators, dtype=float)
        self.member = np.asarray(member, dtype=bool)
        self.area = float(area)
        self._tree = cKDTree(self.generators)
        self._raster_xs = np.asarray(raster_xs)
        self._raster_ys = np.asarray(raster_ys)
        self._raster_mask = np.asarray(raster_mask, dtype=bool)

    def contains(self, xy) -> np.ndarray:
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        _, idx = self._tree.query(xy)
        return self.member[idx]

    def raster(self, xs, ys) -> np.ndarray:
        if np.array_equal(xs, self._raster_xs) and np.array_equal(ys, self._raster_ys):
            return self._raster_mask
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return self.contains(np.column_stack([gx.ravel(), gy.ravel()])).reshape(gx.shape)


@dataclass(frozen=True)
class Window:
    """Observation domain: rectangle [a1,b1] x [a2,b2] times interval [t0,t1].

    An optional spatial mask (polygon or Voronoi region) restricts the
    rectangle; the mask's area is then used as |W| and containment tests
    defer to it.
    """

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    t_range: tuple[float, float]
    mask: PolygonMask | RasterMask | VoronoiRegionMask | None = None

    def __post_init__(self):
        (a1, b1), (a2, b2), (t0, t1) = self.x_range, self.y_range, self.t_range
        if not (b1 > a1 and b2 > a2 and t1 > t0):
            raise ValueError("window ranges must have positive extent")
        if t0 < 0:
            raise ValueError("temporal window must start at t >= 0")

    @property
    def area(self) -> float:
        if self.mask is not None:
            return self.mask.area
        return (self.x_range[1] - self.x_range[0]) * (self.y_range[1] - self.y_range[0])

    @property
    def duration(self) -> float:
        return self.t_range[1] - self.t_range[0]

    @property
    def volume(self) -> float:
        return self.area * self.duration

    def contains_xy(self, xy) -> np.ndarray:
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        ok = (
            (xy[:, 0] >= self.x_range[0])
            & (xy[:, 0] <= self.x_range[1])
            & (xy[:, 1] >= self.y_range[0])
            & (xy[:, 1] <= self.y_range[1])
        )
        if self.mask is not None:
            ok &= self.mask.contains(xy)
        return ok

    def contains_t(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return (t >= self.t_range[0]) & (t <= self.t_range[1])

    def raster(self, grid: GridSpec) -> np.ndarray | None:
        """In-mask booleans at the cell centres of a spatial grid; None if unmasked."""
        if self.mask is None:
            return None
        return self.mask.raster(grid.centers(0), grid.centers(1))


def _dedupe_or_jitter(coords, keys, jitter, rng, scale):
    """``coords`` without exact duplicates, and its lexsort order by ``keys``.

    ``keys`` are column indices, primary first; duplicates are the equal
    adjacent rows of that order.  They are rejected unless ``jitter``, which
    moves all but the first of each run by at most 1e-9 * scale, drawing
    the perturbations in (x1, x2[, t]) order.
    """
    order = np.lexsort([coords[:, k] for k in reversed(keys)])
    sorted_coords = coords[order]
    dup = np.all(sorted_coords[1:] == sorted_coords[:-1], axis=1)
    if not dup.any():
        return coords, order
    if not jitter:
        raise ValueError(
            f"{int(dup.sum())} duplicate event(s); pass jitter=True to perturb them"
        )
    if rng is None:
        rng = np.random.default_rng(0)
    out = coords.copy()
    dup_idx = order[1:][dup]
    dup_idx = dup_idx[np.lexsort(coords[dup_idx].T[::-1])]
    out[dup_idx] += rng.uniform(-1e-9, 1e-9, size=(len(dup_idx), coords.shape[1])) * scale
    return _dedupe_or_jitter(out, keys, False, None, scale)


class SpaceTimePattern:
    """An ordered simple point pattern on a space-time window.

    Events are stored sorted by time (ties broken by x1 then x2); the
    constructor validates containment and simplicity.

    Parameters
    ----------
    points : array-like, shape (n, 3)
        Columns x1, x2, t.
    window : Window
    jitter : bool
        Allow exact duplicates to be perturbed by at most 1e-9 window
        units instead of rejected.
    """

    def __init__(self, points, window: Window, jitter: bool = False, rng=None):
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        if not np.isfinite(pts).all():
            raise ValueError("event coordinates must be finite")
        if len(pts):
            if not window.contains_xy(pts[:, :2]).all():
                raise ValueError("some events fall outside the spatial window")
            if not window.contains_t(pts[:, 2]).all():
                raise ValueError("some events fall outside the temporal window")
            scale = max(
                window.x_range[1] - window.x_range[0],
                window.y_range[1] - window.y_range[0],
                window.duration,
            )
            pts, order = _dedupe_or_jitter(pts, (2, 0, 1), jitter, rng, scale)
            pts = pts[order]
        self.points = pts
        self.window = window
        self.points.setflags(write=False)

    def __len__(self) -> int:
        return len(self.points)

    @property
    def x(self) -> np.ndarray:
        return self.points[:, :2]

    @property
    def t(self) -> np.ndarray:
        return self.points[:, 2]


class SpatialPattern:
    """Projection of a space-time pattern onto its spatial window."""

    def __init__(self, xy, window: Window, jitter: bool = False, rng=None):
        pts = np.asarray(xy, dtype=float).reshape(-1, 2)
        if not np.isfinite(pts).all():
            raise ValueError("coordinates must be finite")
        if len(pts) and not window.contains_xy(pts).all():
            raise ValueError("some points fall outside the spatial window")
        if len(pts):
            scale = max(
                window.x_range[1] - window.x_range[0],
                window.y_range[1] - window.y_range[0],
            )
            pts, _ = _dedupe_or_jitter(pts, (0, 1), jitter, rng, scale)
        self.points = pts
        self.window = window
        self.points.setflags(write=False)

    def __len__(self) -> int:
        return len(self.points)


class TemporalPattern:
    """Projection of a space-time pattern onto its temporal window."""

    def __init__(self, t, window: Window):
        times = np.sort(np.asarray(t, dtype=float).ravel())
        if not np.isfinite(times).all():
            raise ValueError("times must be finite")
        if len(times) and not window.contains_t(times).all():
            raise ValueError("some times fall outside the temporal window")
        self.times = times
        self.window = window
        self.times.setflags(write=False)

    def __len__(self) -> int:
        return len(self.times)


def _trusted(cls, points: np.ndarray, window: Window):
    """A ``cls`` pattern around points already known to be valid on ``window``.

    Skips the constructor's containment, sorting and simplicity checks, so
    callers pass subsets or re-pairings of validated patterns only.
    SpaceTimePattern points must already be in the constructor's (t, x1, x2)
    order, on which ``secondorder``'s pair enumerator relies.  The array is
    made read-only, as the constructors do.
    """
    out = cls.__new__(cls)
    out.points = points
    out.window = window
    points.setflags(write=False)
    return out


def project(pattern: SpaceTimePattern) -> tuple[SpatialPattern, TemporalPattern]:
    """Split a space-time pattern into its spatial and temporal projections.

    Multiplicity is preserved: both projections have the parent's
    cardinality even if projected coordinates coincide.
    """
    sp = _trusted(SpatialPattern, pattern.x, pattern.window)
    return sp, TemporalPattern(pattern.t, pattern.window)


def count_in(pattern: SpaceTimePattern, x_range, y_range, t_range) -> int:
    """Number of events with x in A and t in B for a box region A x B."""
    (a1, b1), (a2, b2), (t0, t1) = x_range, y_range, t_range
    if b1 < a1 or b2 < a2 or t1 < t0:
        raise ValueError("malformed region")
    if len(pattern) == 0:
        return 0
    p = pattern.points
    inside = (
        (p[:, 0] >= a1) & (p[:, 0] <= b1)
        & (p[:, 1] >= a2) & (p[:, 1] <= b2)
        & (p[:, 2] >= t0) & (p[:, 2] <= t1)
    )
    return int(inside.sum())


@dataclass(frozen=True)
class GridSpec:
    """Regular cell grid: cell i has center origin[d] + (i + 1/2) * step[d]."""

    origin: tuple
    step: tuple
    shape: tuple

    def __post_init__(self):
        if not (len(self.origin) == len(self.step) == len(self.shape)):
            raise ValueError("origin, step and shape must have equal length")
        if any(s <= 0 for s in self.step) or any(n < 1 for n in self.shape):
            raise ValueError("steps must be positive and shape at least 1 per axis")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.step))

    def centers(self, axis: int) -> np.ndarray:
        return self.origin[axis] + (np.arange(self.shape[axis]) + 0.5) * self.step[axis]

    def locate(self, coords) -> tuple:
        """Cell indices of points, clipped onto the grid."""
        coords = np.atleast_2d(np.asarray(coords, dtype=float))
        idx = []
        for d in range(self.ndim):
            i = np.floor((coords[:, d] - self.origin[d]) / self.step[d]).astype(int)
            idx.append(np.clip(i, 0, self.shape[d] - 1))
        return tuple(idx)

    @staticmethod
    def spatial(window: Window, nx: int, ny: int) -> "GridSpec":
        return GridSpec(
            (window.x_range[0], window.y_range[0]),
            (
                (window.x_range[1] - window.x_range[0]) / nx,
                (window.y_range[1] - window.y_range[0]) / ny,
            ),
            (nx, ny),
        )

    @staticmethod
    def temporal(window: Window, nt: int) -> "GridSpec":
        return GridSpec((window.t_range[0],), (window.duration / nt,), (nt,))

    @staticmethod
    def spacetime(window: Window, nx: int, ny: int, nt: int) -> "GridSpec":
        return GridSpec(
            (window.x_range[0], window.y_range[0], window.t_range[0]),
            (
                (window.x_range[1] - window.x_range[0]) / nx,
                (window.y_range[1] - window.y_range[0]) / ny,
                window.duration / nt,
            ),
            (nx, ny, nt),
        )


class ScalarField:
    """Cell-constant function on a regular grid over W, T or W x T.

    ``integrate`` is the exact integral of the cell-constant interpolant
    over the masked-in cells; it is the quadrature used everywhere a field
    is integrated against the window.
    """

    def __init__(self, grid: GridSpec, values, mask=None):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.shape:
            raise ValueError(f"values shape {values.shape} != grid shape {grid.shape}")
        if mask is None:
            mask = np.ones(grid.shape, dtype=bool)
        else:
            mask = np.asarray(mask, dtype=bool)
            if mask.shape != grid.shape:
                # spatial 2D masks broadcast over the trailing time axis
                if grid.ndim == 3 and mask.shape == grid.shape[:2]:
                    mask = np.broadcast_to(mask[:, :, None], grid.shape)
                else:
                    raise ValueError("mask shape incompatible with grid")
        if not np.isfinite(values[mask]).all():
            raise ValueError("field values must be finite on masked-in cells")
        self.grid = grid
        self.values = values
        self.mask = mask
        self.values.setflags(write=False)

    def integrate(self) -> float:
        return float(self.values[self.mask].sum() * self.grid.cell_volume)

    def value_at(self, coords) -> np.ndarray:
        """Nearest-cell lookup; coords shape (n, ndim) or (n,) for 1D grids."""
        coords = np.asarray(coords, dtype=float)
        if self.grid.ndim == 1 and coords.ndim == 1:
            coords = coords[:, None]
        idx = self.grid.locate(coords)
        return self.values[idx]

    def mask_at(self, coords) -> np.ndarray:
        coords = np.asarray(coords, dtype=float)
        if self.grid.ndim == 1 and coords.ndim == 1:
            coords = coords[:, None]
        idx = self.grid.locate(coords)
        return self.mask[idx]
