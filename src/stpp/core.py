"""Core domain types: observation windows, point patterns and gridded fields.

All types are immutable after construction and safe to share between
parallel workers.  Coordinates are planar (projection of geographic input
happens at ingestion time) and times are nonnegative reals.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PolygonMask",
    "VoronoiRegionMask",
    "Window",
    "SpaceTimePattern",
    "SpatialPattern",
    "TemporalPattern",
    "GridSpec",
    "ScalarField",
    "as_rng",
    "ball_volume",
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


class VoronoiRegionMask:
    """Union of Voronoi cells of a generator set, used as a window mask.

    A point is in the region when its nearest generator in ``tree`` (a
    ``scipy.spatial.cKDTree``) is flagged in ``member`` and ``parent``, the
    mask the tessellation was clipped to (None for a rectangle), contains
    it.  ``area`` is given, consistent with the tessellation's cell areas.
    """

    def __init__(self, tree, member, area, parent=None):
        self.member = np.asarray(member, dtype=bool)
        self.area = float(area)
        self.parent = parent
        self._tree = tree

    @property
    def n_cells(self) -> int:
        return int(self.member.sum())

    def contains(self, xy) -> np.ndarray:
        xy = np.atleast_2d(np.asarray(xy, dtype=float))
        _, idx = self._tree.query(xy)
        inside = self.member[idx]
        if self.parent is not None:
            inside &= self.parent.contains(xy)
        return inside

    def raster(self, xs, ys) -> np.ndarray:
        inside = None if self.parent is None else self.parent.raster(xs, ys)
        # cells outside the parent hold -1, which picks the appended False
        return np.append(self.member, False)[_owner_grid(self._tree, xs, ys, inside)]


# bytes of scratch that each blocked loop (λ_s, λ_t, λ_st, the Diggle
# corrections, the spatial CV, the separability engine and the owner
# search) builds at a time.  On 25000 events lambda_st took about 15%
# longer with 2 MiB blocks and 6% longer with 128 MiB ones, which also
# cost 128 MiB of memory; small blocks also keep what each owner-search
# thread allocates, and its allocator then holds, to a few MB
_BLOCK_BYTES = 1 << 23


def _blocks(n, row_bytes) -> list[slice]:
    """Slices covering range(n) in order, each of as many rows of
    ``row_bytes`` bytes as fit ``_BLOCK_BYTES``, and at least one."""
    step = max(1, _BLOCK_BYTES // row_bytes)
    return [slice(start, min(start + step, n)) for start in range(0, n, step)]


def parallel_map(fn, n_items: int, threads: int):
    """Index-ordered map over a thread pool; results merge by index."""
    results = [None] * n_items
    if threads <= 1:
        for i in range(n_items):
            results[i] = fn(i)
        return results
    with ThreadPoolExecutor(threads) as pool:
        for i, res in enumerate(pool.map(fn, range(n_items))):
            results[i] = res
    return results


# bytes of the owner search's scratch per raster cell: its ~120, doubled.
# At 128, two concurrent blocks raised the peak RSS of a 10^6-event
# raster by 8 MB
_RASTER_CELL_BYTES = 256
# side of the square tiles whose owners _nearest_owners certifies together,
# and how many generators nearest a tile's centre it fetches
_TILE = 4
_TILE_CANDIDATES = 8
# relative slack on a cell's certificate, and the relative gap under which
# a cell's two best squared distances count as a tie
_RADIUS_SLACK = 1e-9
_TIE_MARGIN = 1e-12


def _nearest_owners(tree, xs, ys, inside) -> np.ndarray:
    """Nearest generator of every cell centre of ``xs`` x ``ys``, as ``tree.query``.

    Returns an int32 (len(xs), len(ys)) grid of indices into ``tree.data``,
    -1 where the boolean grid ``inside`` is False (None: every cell);
    ``_owner_grid`` checks that the indices fit.

    The grid is cut into tiles of at most 4 x 4 cells.  One query fetches
    the k = min(8, n) generators nearest each tile's centre C, the k-th at
    distance d_k.  Each cell c of the tile takes the candidate of least
    ``dx*dx + dy*dy``, the sum ``cKDTree`` compares, at ``best``.  Every
    generator not fetched lies at least d_k from C, so at least
    d_k - |C - c| from c.  The cell is certified when no other candidate
    lies within a relative 1e-12 of ``best`` (far above the few ulps
    between two evaluations of one sum) and, unless k = n,
    (|C - c| + sqrt(best)) * (1 + 1e-9) < d_k: then every generator not
    fetched is strictly farther.  Every other cell, ties included, is
    queried on its own, so exact ties resolve by ``cKDTree``'s own
    traversal and the grid equals one ``tree.query`` of all centres.  On a
    raster coarser than the generators, where a disc of twice a tile's
    radius holds more than k of them on average, few cells could be
    certified and every cell is queried on its own from the start.

    Memory: besides the grid, about 120 bytes per cell at k = 8, mostly
    the (candidate, cell) squared distances.  Queries run on one thread,
    so callers may run blocks in parallel.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    nx, ny = len(xs), len(ys)
    owners = np.full((nx, ny), -1, dtype=np.int32)
    if inside is None:
        inside = np.ones((nx, ny), dtype=bool)
    # cell rows and columns of each tile, padded by repeating the last one
    ri = np.minimum(np.arange(0, nx, _TILE)[:, None] + np.arange(_TILE), nx - 1)
    ci = np.minimum(np.arange(0, ny, _TILE)[:, None] + np.arange(_TILE), ny - 1)
    a, b = np.nonzero(inside[ri[:, :, None, None], ci[None, None]].any(axis=(1, 3)))
    if len(a) == 0:
        return owners
    ri, ci = ri[a], ci[b]
    x0, x1 = xs[ri[:, 0]], xs[ri[:, -1]]
    y0, y1 = ys[ci[:, 0]], ys[ci[:, -1]]
    cx, cy = (x0 + x1) * 0.5, (y0 + y1) * 0.5
    # the farthest cell of a tile from its centre is a corner cell
    r = np.hypot(np.maximum(cx - x0, x1 - cx), np.maximum(cy - y0, y1 - cy))
    k = min(_TILE_CANDIDATES, tree.n)
    if k < tree.n and tree.n * math.pi * (2.0 * r.max()) ** 2 > k * np.prod(tree.maxes - tree.mins):
        # a raster coarser than the generators
        i, j = np.nonzero(inside)
    else:
        dist, idx = tree.query(np.column_stack([cx, cy]), k=k, workers=1)
        idx = np.ascontiguousarray(idx.reshape(-1, k).T)
        # (row or column, tile) cell coordinates and (candidate, row, column,
        # tile) squared distances: tiles last, so each pass runs over slabs
        px, py = np.ascontiguousarray(xs[ri].T), np.ascontiguousarray(ys[ci].T)
        dx = tree.data[idx, 0][:, None, :] - px
        dy = tree.data[idx, 1][:, None, :] - py
        dx *= dx
        dy *= dy
        sq = dx[:, :, None, :] + dy[:, None, :, :]
        del dx, dy
        best = sq.min(axis=0)
        close = (sq <= best * (1.0 + _TIE_MARGIN)).view(np.uint8)
        del sq
        sure = np.add.reduce(close, axis=0) == 1
        # a cell with one close candidate gets its rank as the ranks' sum;
        # the uint8 counts hold for k below 256
        close *= np.arange(k, dtype=np.uint8)[:, None, None, None]
        rank = np.minimum(np.add.reduce(close, axis=0), k - 1)
        if k < tree.n:
            off = np.hypot((px - cx)[:, None, :], (py - cy)[None, :, :])
            sure &= (off + np.sqrt(best)) * (1.0 + _RADIUS_SLACK) < dist.reshape(-1, k)[:, -1]
        rows, cols = np.broadcast_arrays(ri.T[:, None, :], ci.T[None, :, :])
        owners[rows, cols] = idx[rank, np.arange(len(cx))]
        # a grid, so that a padded cell is queried once
        left = np.zeros((nx, ny), dtype=bool)
        left[rows[~sure], cols[~sure]] = True
        i, j = np.nonzero(left & inside)
    if len(i):
        owners[i, j] = tree.query(np.column_stack([xs[i], ys[j]]), workers=1)[1]
    owners[~inside] = -1
    return owners


def _owner_grid(tree, xs, ys, inside) -> np.ndarray:
    """``_nearest_owners`` of a whole grid, in blocks of whole rows of tiles.

    Blocks of ``_BLOCK_BYTES`` at ``_RASTER_CELL_BYTES`` a cell (8 rows of
    a 4000-column raster) run through :func:`parallel_map` on
    ``os.cpu_count()`` threads, the count ``workers=-1`` uses; each queries
    on one thread, so its numpy work runs in parallel too.  Every block
    writes its own rows, so the grid does not depend on the thread count.

    The grid is int32, half the bytes of an intp one.  Its indices fit
    below 2^31 generators; that many would hold 32 GB of coordinates in
    the tree alone, so a larger tree raises ValueError rather than wrap.
    """
    if tree.n > np.iinfo(np.int32).max:
        raise ValueError(f"{tree.n} generators exceed the int32 owner grid")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    owners = np.empty((len(xs), len(ys)), dtype=np.int32)
    # whole rows of tiles: a block that cut one would pad it to full size
    blocks = [
        slice(_TILE * b.start, min(_TILE * b.stop, len(xs)))
        for b in _blocks(-(-len(xs) // _TILE), _TILE * _RASTER_CELL_BYTES * len(ys))
    ]

    def assign(i):
        rows = blocks[i]
        block = None if inside is None else inside[rows]
        owners[rows] = _nearest_owners(tree, xs[rows], ys, block)

    parallel_map(assign, len(blocks), os.cpu_count() or 1)
    return owners


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
    mask: PolygonMask | VoronoiRegionMask | None = None

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


def _lexsort_rows(coords, keys):
    """``np.lexsort`` of the rows of ``coords`` by the columns ``keys``, primary first.

    One stable argsort of the primary key, then a lexsort of only the rows
    that tie on it, by all keys and lastly their position, so runs of equal
    keys keep their input order exactly as in the one full lexsort.
    """
    order = np.argsort(coords[:, keys[0]], kind="stable")
    primary = coords[order, keys[0]]
    tie = primary[1:] == primary[:-1]
    if tie.any():
        in_run = np.zeros(len(order), dtype=bool)
        in_run[1:] = tie
        in_run[:-1] |= tie
        rows = order[in_run]
        order[in_run] = rows[np.lexsort([rows] + [coords[rows, k] for k in reversed(keys)])]
    return order


def _dedupe_or_jitter(coords, keys, jitter, rng, scale):
    """``coords`` without exact duplicates, and its lexsort order by ``keys``.

    ``keys`` are column indices, primary first; duplicates are the equal
    adjacent rows of that order.  They are rejected unless ``jitter``, which
    moves all but the first of each run by at most 1e-9 * scale, drawing
    the perturbations in (x1, x2[, t]) order.
    """
    order = _lexsort_rows(coords, keys)
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


# cells per axis of the fine window raster on which quadrat tile areas and
# the border K's distances to the window boundary are measured
_FINE_RASTER = 512


def _is_count(n) -> bool:
    """Whether ``n`` is an integer >= 1, a bool not counting as one."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1


def _check_counts(*counts) -> None:
    """Raise ValueError unless every grid cell count is an integer >= 1."""
    if not all(map(_is_count, counts)):
        raise ValueError(f"grid cell counts must be integers >= 1, got {list(counts)!r}")


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
        _check_counts(nx, ny)
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
        _check_counts(nt)
        return GridSpec((window.t_range[0],), (window.duration / nt,), (nt,))

    @staticmethod
    def spacetime(window: Window, nx: int, ny: int, nt: int) -> "GridSpec":
        _check_counts(nx, ny, nt)
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
    is integrated against the window.  ``rate_at`` is the one lookup of a
    field at events, which K's weights and ``simulate_poisson`` both use.
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
        # boolean temporaries only: values[mask] would copy the field
        if (mask & ~np.isfinite(values)).any():
            raise ValueError("field values must be finite on masked-in cells")
        self.grid = grid
        self.values = values
        self.mask = mask
        self.values.setflags(write=False)

    def integrate(self) -> float:
        return float(self.values[self.mask].sum() * self.grid.cell_volume)

    def max_rate(self) -> float:
        """The largest value on the mask, 0 if the mask is empty."""
        inside = self.values[self.mask]
        return float(inside.max()) if inside.size else 0.0

    def rate_at(self, xy, t) -> np.ndarray:
        """Values of the cells holding the space-time points (xy, t), 0 off
        the mask: a spatial field reads xy (n, 2), a temporal one t (n,), a
        space-time one both."""
        coords = {1: [t], 2: [xy], 3: [xy, t]}[self.grid.ndim]
        idx = self.grid.locate(np.column_stack(coords))
        return np.where(self.mask[idx], self.values[idx], 0.0)
