"""Kernel intensity estimators with Diggle edge correction, plus the
Voronoi tessellation estimator.

The Gaussian kernel factorizes over coordinate axes, so every 2D (and 3D)
quantity here is assembled from one-dimensional kernel factor matrices.
Spatial edge corrections are computed by quadrature on the same evaluation
grid as the estimate itself, which makes the mass identity

    integral over W of lambda_s_hat = n

hold to floating-point accuracy for any bandwidth (each summand integrates
to exactly 1 by construction).  The temporal estimate uses the exact
Gaussian interval mass as its correction, so its grid integral is close to
n but not equal (10000.0408 for n = 10^4 on the benchmark's first planar
catalogue).  That mass is a difference of two normal CDFs from
:func:`_ndtr`, a port of Cephes' ``ndtr`` that the tests check ``==`` to
``scipy.special.ndtr``.

The kernel estimators return the fitted ``core.ScalarField`` itself, the
same object K weighs pairs by and ``simulate_poisson`` draws from; an
empty pattern warns and gets a zero field.

``_spatial_rows`` and ``_spacetime_rows`` are the one place the per-event
Diggle-corrected kernel factor rows are built, and ``_spatial_kernel_rows``
the one place their outer products, the spatial kernel rows, are; the
separability engine and the spatial bandwidth selector reuse them rather
than rebuilding the kernel.

Memory: the kernel estimators sum over events one block of rows at a
time, a block being as many events as fit ``core._BLOCK_BYTES`` (8 MiB)
of their kernel rows (``core._blocks``), so each needs one block of rows
plus its grid whatever n is.  The corrections alone
(``_spatial_corrections``, which the spatial bandwidth selector uses) come
from the same pass as an O(n) vector, or a (k, n) array for k bandwidths
at once, in blocks of the same budget.  The separability engine, whose
permutations re-pair the events' rows, keeps only the factor rows gx, gy
and the temporal rows T of all events, O(n (nx + ny + nt)), and builds the
spatial rows from them one such block at a time.  It and
``estimate_lambda_st`` check their need against ``_MEMORY_CAP_MB`` up
front and raise ``MemoryError`` before building rows.
With n at most one block the sums are the unblocked ones bit for bit;
beyond it they are reordered over blocks (1e-12 relative by test).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .core import (
    GridSpec,
    PolygonMask,
    ScalarField,
    SpatialPattern,
    TemporalPattern,
    VoronoiRegionMask,
    Window,
    _blocks,
    _owner_counts,
    _owner_grid,
)

if TYPE_CHECKING:
    from scipy.spatial import cKDTree

__all__ = [
    "KernelSpec",
    "estimate_lambda_s",
    "estimate_lambda_t",
    "estimate_lambda_st",
    "voronoi_intensity",
    "VoronoiCells",
]

_MIN_CORRECTION = 1e-12
# exp(-0.5 z^2) is an exact zero in float64 beyond |z| = 38.6; the margin
# covers the rounding of z = (center - t) / b
_EXP_REACH = 38.7

# cap on the memory of space-time kernel rows and a 3D field
_MEMORY_CAP_MB = 2048.0


@dataclass(frozen=True)
class KernelSpec:
    """Isotropic Gaussian kernel with bandwidth (standard deviation) b."""

    bandwidth: float

    def __post_init__(self):
        if not (self.bandwidth > 0 and math.isfinite(self.bandwidth)):
            raise ValueError(f"bandwidth must be positive, got {self.bandwidth}")


def _gauss_factors(points_1d, centers, step, b, out=None):
    """(n, ncells) matrix of 1D Gaussian kernel values times the cell width.

    A vector of k bandwidths gives the (k, n, ncells) stack of them.  Built
    in place in one array, ``out`` if given; equal bit for bit to
    ``exp(-0.5 * z * z) * c`` since scaling by -0.5 is exact.
    """
    b = np.asarray(b, dtype=float)[..., None, None]
    g = np.empty(b.shape[:-2] + (len(points_1d), len(centers))) if out is None else out
    np.subtract(np.asarray(centers)[None, :], np.asarray(points_1d)[:, None], out=g)
    g /= b
    g *= g
    g *= -0.5
    np.exp(g, out=g)
    g *= step / (b * math.sqrt(2.0 * math.pi))
    return g


def _spatial_rows(xy, grid: GridSpec, mask, b):
    """Per-event kernel factor rows on a spatial grid and their corrections.

    Returns gx (n, nx) and gy (n, ny), whose outer product per event is
    its kernel times the cell area, and the Diggle corrections e (n,) by
    quadrature over the window, whose raster on the grid is ``mask``
    (None if unmasked).  A vector of k bandwidths adds a leading axis of
    length k to each.
    """
    gx = _gauss_factors(xy[:, 0], grid.centers(0), grid.step[0], b)
    gy = _gauss_factors(xy[:, 1], grid.centers(1), grid.step[1], b)
    if mask is None:
        e = gx.sum(axis=-1) * gy.sum(axis=-1)
    else:
        # e_i = gx_i^T M gy_i over the masked grid
        e = np.einsum("...ij,...ij->...i", gx @ mask.astype(float), gy)
    return gx, gy, e


def _spatial_corrections(xy, grid: GridSpec, mask, b) -> np.ndarray:
    """Diggle corrections e (n,) of the points, one block of kernel rows at a time.

    ``mask`` is the window's raster on the grid (None if unmasked).  A
    vector of k bandwidths gives e (k, n) from one pass over the points,
    each row equal bit for bit to the pass at that bandwidth alone.
    """
    e = np.empty(np.shape(b) + (len(xy),))
    width = np.size(b) * (grid.shape[0] + grid.shape[1])
    chunks = _blocks(len(xy), 8 * width)
    if len(chunks) > 1 and chunks[-1].start == len(xy) - 1:
        # a one-row block takes numpy's vector-matrix product, whose sums
        # differ in the last bit from the matrix product's that every
        # other row gets; so no block of many has one row
        chunks[-2:] = [slice(chunks[-2].start, len(xy))]
    for rows in chunks:
        e[..., rows] = _spatial_rows(xy[rows], grid, mask, b)[2]
    return e


def _spacetime_rows(x, t, window: Window, grid: GridSpec, mask, b_s, b_t):
    """Corrected kernel factor rows on a space-time grid of the events (x, t).

    ``mask`` is the window's raster on the grid's spatial cells (None if
    unmasked), made once by the caller.  Returns the scaled spatial factors
    gx / (e_s * cell area) (n, nx) and gy (n, ny), whose outer products
    :func:`_spatial_kernel_rows` makes into each event's spatial kernel
    divided by its correction, and T (n, nt), the same for the temporal
    kernel.  Raises ValueError if a correction underflows; no bandwidth
    check is made here.
    """
    nx, ny, nt = grid.shape
    spatial = GridSpec.spatial(window, nx, ny)
    gx, gy, e_s = _spatial_rows(x, spatial, mask, b_s)
    e_t = temporal_corrections(t, window, b_t)
    if (e_s < _MIN_CORRECTION).any() or (e_t < _MIN_CORRECTION).any():
        raise ValueError("edge-correction weight underflow at a data point")
    gx /= e_s[:, None] * spatial.cell_volume
    T = _gauss_factors(t, grid.centers(2), 1.0, b_t)
    T /= e_t[:, None]
    return gx, gy, T


def _spatial_kernel_rows(gx, gy):
    """S (m, nx*ny): the outer product of each event's factor rows, row-major."""
    return (gx[:, :, None] * gy[:, None, :]).reshape(len(gx), gx.shape[1] * gy.shape[1])


def _check_memory(cells):
    """Raise MemoryError, before any work, if ``cells`` float64 values of
    kernel rows, fields and curves need more than ``_MEMORY_CAP_MB`` MB."""
    need_mb = cells * 8 / 1e6
    if need_mb > _MEMORY_CAP_MB:
        raise MemoryError(
            f"3D estimation needs about {need_mb:.0f} MB > cap {_MEMORY_CAP_MB:.0f} MB; "
            "use a coarser grid"
        )


def _check_resolvable(b, grid: GridSpec, axes):
    # midpoint quadrature of a Gaussian is accurate to ~1e-4 of its mass
    # down to b = 0.7 * step; below that the kernel falls between cells
    step = max(grid.step[a] for a in axes)
    if b < 0.7 * step:
        raise ValueError(
            f"bandwidth {b:g} is unresolvable at grid step {step:g}; "
            "refine the grid or increase the bandwidth"
        )


# Cephes ndtr.c (Moshier 1989): erf(x) = x T(x^2) / U(x^2) for |x| <= 1,
# erfc(x) = exp(-x^2) P(x) / Q(x) for 1 <= x < 8 and exp(-x^2) R(x) / S(x)
# beyond; U, Q and S have an implied leading coefficient 1
_NDTR_P = (
    2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
    4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2,
)
_NDTR_Q = (
    1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
    9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2,
)
_NDTR_R = (
    5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
    6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0,
)
_NDTR_S = (
    2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
    1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0,
)
_NDTR_T = (
    9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
    7.00332514112805075473e3, 5.55923013010394962768e4,
)
_NDTR_U = (
    3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
    2.26290000613890934246e4, 4.92673942608635921086e4,
)
_MAXLOG = 7.09782712893383996732e2  # log(DBL_MAX)
_SQRTH = 7.07106781186547524401e-1  # 1 / sqrt(2)
# above z = 6, 1 - erfc(z) / 2 rounds to 1 whatever the last bit of exp(-z^2)
_NDTR_ONE = 6.0


def _polevl(x, coef, monic=False):
    """Cephes ``polevl`` (``p1evl`` if ``monic``): Horner's rule from the top."""
    ans = x + coef[0] if monic else coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _erf(x):
    """Cephes ``erf`` for |x| <= 1."""
    z = x * x
    return x * _polevl(z, _NDTR_T) / _polevl(z, _NDTR_U, monic=True)


def _ndtr(a) -> np.ndarray:
    """Standard normal CDF, ported from Cephes ``ndtr.c`` so that it is ``==``
    to ``scipy.special.ndtr`` (the tests' oracle) without importing
    ``scipy.special``.

    numpy makes the same double operations in Cephes' order.  exp(-z^2) is
    libm's through ``math.exp``, one element at a time, because numpy's
    vector ``exp`` differs from it in the last bit on some inputs; elements
    that underflow, or that round to 1, take none.
    """
    a = np.asarray(a, dtype=float)
    x = a * _SQRTH
    z = np.abs(x)
    y = np.empty_like(x)
    inner = z < _SQRTH
    y[inner] = 0.5 + 0.5 * _erf(x[inner])
    outer = ~inner
    x, z = x[outer], z[outer]
    # erfc(z), left 0 where exp(-z^2) underflows or 1 - erfc(z) / 2 is 1
    erfc = np.zeros_like(z)
    low = z < 1.0
    erfc[low] = 1.0 - _erf(z[low])
    tail = np.flatnonzero(~(low | (-z * z < -_MAXLOG) | ((x > 0) & (z >= _NDTR_ONE))))
    near = z[tail] < 8.0
    for rows, p, q in ((tail[near], _NDTR_P, _NDTR_Q), (tail[~near], _NDTR_R, _NDTR_S)):
        zr = z[rows]
        scale = np.fromiter(map(math.exp, (-zr * zr).tolist()), float, len(zr))
        erfc[rows] = scale * _polevl(zr, p) / _polevl(zr, q, monic=True)
    half = 0.5 * erfc
    y[outer] = np.where(x > 0, 1.0 - half, half)
    y[np.isnan(a)] = np.nan  # Cephes' NAN, whatever the argument's sign bit
    return y


def temporal_corrections(times, window: Window, b) -> np.ndarray:
    """Exact Gaussian interval masses e_t over [t0, t1] for many centers."""
    t = np.asarray(times, dtype=float)
    lo, hi = window.t_range
    return _ndtr((hi - t) / b) - _ndtr((lo - t) / b)


def estimate_lambda_s(
    pattern: SpatialPattern, kernel: KernelSpec, grid: GridSpec | None = None
) -> ScalarField:
    """Diggle-corrected Gaussian kernel estimate of the spatial intensity.

    Parameters
    ----------
    pattern : SpatialPattern
    kernel : KernelSpec
    grid : GridSpec, optional
        Evaluation grid (default 256 x 256 over the window).

    Memory is one block of (m, nx + ny) factor rows, at most
    ``core._BLOCK_BYTES``, plus the grid.
    """
    window = pattern.window
    if grid is None:
        grid = GridSpec.spatial(window, 256, 256)
    if len(pattern) == 0:
        warnings.warn("empty pattern: returning a zero intensity field")
        return ScalarField(grid, np.zeros(grid.shape), window.raster(grid))
    _check_resolvable(kernel.bandwidth, grid, (0, 1))
    mask = window.raster(grid)
    values = np.zeros(grid.shape)
    for rows in _blocks(len(pattern), 8 * (grid.shape[0] + grid.shape[1])):
        gx, gy, e = _spatial_rows(pattern.points[rows], grid, mask, kernel.bandwidth)
        if (e < _MIN_CORRECTION).any():
            raise ValueError("edge-correction weight underflow at a data point")
        gx /= e[:, None] * grid.cell_volume
        values += gx.T @ gy  # kernel values / e, on the grid
        del gx, gy  # before the next block's rows are built
    if mask is not None:
        values[~mask] = 0.0
    return ScalarField(grid, values, mask)


def estimate_lambda_t(
    pattern: TemporalPattern, kernel: KernelSpec, grid: GridSpec | None = None
) -> ScalarField:
    """Diggle-corrected Gaussian kernel estimate of the temporal intensity.

    The correction uses the exact Gaussian interval mass; the default grid
    has 1000 cells over the observation period.  Memory is one block of
    (m, nt) kernel rows, at most ``core._BLOCK_BYTES``, plus the grid and the
    O(n) corrections.  With more than one block, each block's rows span
    only the cells its kernels can reach, so the sums run over fewer
    columns than the full rows' (1e-14 relative by test).
    """
    window = pattern.window
    if grid is None:
        grid = GridSpec.temporal(window, 1000)
    if len(pattern) == 0:
        warnings.warn("empty pattern: returning a zero intensity field")
        return ScalarField(grid, np.zeros(grid.shape))
    b = kernel.bandwidth
    e = temporal_corrections(pattern.times, window, b)
    if (e < _MIN_CORRECTION).any():
        raise ValueError("edge-correction weight underflow at a data point")
    values = np.zeros(grid.shape)
    centers = grid.centers(0)
    blocks = _blocks(len(pattern), 8 * grid.shape[0])
    # one block's worth of rows, reused by every block whatever its width:
    # a new array of each block's width moved later peak RSS by up to 8 MB
    buf = np.empty(blocks[0].stop * grid.shape[0])
    for rows in blocks:
        t = pattern.times[rows]
        lo, hi = 0, len(centers)
        if len(blocks) > 1:
            # the sorted times of a block reach only the cells within
            # _EXP_REACH bandwidths of its ends; beyond, the kernel is an
            # exact zero.  One block keeps the whole row, the oracle's
            lo, hi = np.searchsorted(centers, (t[0] - _EXP_REACH * b, t[-1] + _EXP_REACH * b))
        g = buf[:len(t) * (hi - lo)].reshape(len(t), hi - lo)
        _gauss_factors(t, centers[lo:hi], 1.0, b, out=g)
        values[lo:hi] += (1.0 / e[rows]) @ g  # density values
    return ScalarField(grid, values)


def estimate_lambda_st(
    pattern,
    kernel_s: KernelSpec,
    kernel_t: KernelSpec,
    grid: GridSpec | None = None,
    pi0: float = 1.0,
) -> ScalarField:
    """Product-kernel estimate of the space-time intensity on a 3D grid.

    Each event contributes a spatial Gaussian (corrected by its quadrature
    mass on the window) times a temporal Gaussian (corrected by the exact
    interval mass).  If the pattern was obtained by independent thinning
    at retention probability ``pi0`` in (0, 1], pass it to divide the field
    by ``pi0`` and recover the parent intensity; the default 1.0 leaves the
    field as estimated.

    Memory is one block of (m, nx*ny + nt) kernel rows, at most
    ``core._BLOCK_BYTES``, plus the 3D grid and one block's product, which
    can reach the grid's size; when those need more than ``_MEMORY_CAP_MB``
    MB, ``MemoryError`` is raised before any work.
    """
    if not (0.0 < pi0 <= 1.0):
        raise ValueError(f"pi0 must be in (0, 1], got {pi0}")
    window = pattern.window
    if grid is None:
        grid = GridSpec.spacetime(window, 64, 64, 250)
    nx, ny, nt = grid.shape
    blocks = _blocks(len(pattern), 8 * (nx * ny + nt))
    # the largest block's rows S and T, the 3D field and a block's product
    _check_memory((blocks[0].stop if blocks else 0) * (nx * ny + nt) + 2 * nx * ny * nt)
    mask2d = window.raster(GridSpec.spatial(window, nx, ny))
    if len(pattern) == 0:
        warnings.warn("empty pattern: returning a zero intensity field")
        return ScalarField(grid, np.zeros(grid.shape), mask2d)
    _check_resolvable(kernel_s.bandwidth, grid, (0, 1))
    values = np.zeros((nx * ny, nt))
    for rows in blocks:
        gx, gy, T = _spacetime_rows(
            pattern.x[rows], pattern.t[rows], window, grid, mask2d,
            kernel_s.bandwidth, kernel_t.bandwidth,
        )
        S = _spatial_kernel_rows(gx, gy)
        cols = slice(None)
        if len(blocks) > 1:
            # a block of time-sorted events reaches only the time cells
            # near it; its products with the others are exact zeros.  One
            # block keeps the whole product, the oracle's bit for bit
            reached = np.flatnonzero(T.any(axis=0))
            cols = slice(reached[0], reached[-1] + 1) if len(reached) else slice(0, 0)
        values[:, cols] += S.T @ T[:, cols]
        del S, T, gx, gy  # before the next block's rows are built
    values = values.reshape(nx, ny, nt)
    values /= pi0
    if mask2d is not None:
        values[~mask2d] = 0.0
    return ScalarField(grid, values, mask2d)


@dataclass
class VoronoiCells:
    """Per-generator cell table of a window-clipped Voronoi tessellation.

    ``areas`` come from a raster count of grid cells by nearest generator
    and are the one stored fact: ``values``, 1 / area (inf where a
    generator captured no raster cell), is computed on each read.
    ``tree`` is the k-d tree over the generators, kept for
    nearest-generator queries.  ``window_mask`` is the window's mask the
    tessellation was clipped to (None for a rectangle); a level set of the
    cells keeps it as its parent, so the region stays inside the window.

    ``raster_mask``, the boolean grid of masked-in raster cells, and
    ``assignment``, the int32 grid of each masked-in cell's generator index
    (-1 outside the mask), are built on first read from the tree, the grid
    and the window's mask: ``homogenize`` needs neither.  The raster of a
    masked window, which counting the cells needed anyway, is kept as
    ``raster_mask`` from the start.
    """

    tree: cKDTree
    areas: np.ndarray
    grid: GridSpec
    window_mask: PolygonMask | VoronoiRegionMask | None = None

    @property
    def values(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return 1.0 / self.areas

    @cached_property
    def raster_mask(self) -> np.ndarray:
        if self.window_mask is None:
            return np.ones(self.grid.shape, dtype=bool)
        return self.window_mask.raster(self.grid.centers(0), self.grid.centers(1))

    @cached_property
    def assignment(self) -> np.ndarray:
        return _owner_grid(self.tree, self.grid.centers(0), self.grid.centers(1), self.raster_mask)


class _VoronoiEstimate:
    """The Voronoi estimate of ``cells``, its grid-sized ``field`` built on
    first read: ``homogenize`` needs only the cells."""

    def __init__(self, cells: VoronoiCells):
        self.cells = cells

    @cached_property
    def field(self) -> ScalarField:
        cells = self.cells
        values = cells.values[cells.assignment]
        values[~cells.raster_mask] = 0.0
        return ScalarField(cells.grid, values, cells.raster_mask)


def voronoi_intensity(
    pattern: SpatialPattern, resolution: int | None = None
) -> tuple[_VoronoiEstimate, VoronoiCells]:
    """Voronoi (1 / cell area) intensity estimate, clipped to the window.

    Cell areas are measured by assigning raster cells to their nearest
    generator, so the field integrates to n exactly whenever every
    generator captures at least one raster cell.  The default resolution
    is max(256, sqrt(16 n)) cells per axis, so dense patterns keep about
    16 raster cells per generator.

    Owners come from ``core._nearest_owners``: one k-d tree query per 4 x 4
    tile fetches the k = 8 generators nearest its centre, a certificate
    keeps a cell's nearest candidate when no generator left out can be
    as near, and every other cell, ties included, is queried on its own.
    They equal one ``cKDTree.query`` of every in-mask cell centre, exact
    ties included (see there for the argument).  The raster runs in
    blocks of whole tile rows, ``core._BLOCK_BYTES`` at
    ``core._RASTER_CELL_BYTES`` (256) bytes a cell, on ``os.cpu_count()``
    threads; each finished block's owners are added into integer counts,
    which are exact in any order, so the areas do not depend on the thread
    count.  The owner grid is built on first read of the cells'
    ``assignment`` and the estimate's field on first read of ``.field``.

    Memory: besides the k-d tree, the generators' int64 counts and their
    float64 areas (the cells keep no values vector), about 120 bytes per
    cell of each running block, plus the boolean window raster on a
    masked window: at 10^6 events (a 4000 x 4000 raster, 8 rows a block)
    about 4 MB per block.  Reading ``assignment`` adds the int32 owner grid
    (64 MB there) and, on a rectangle, an all-True mask (16 MB); reading
    ``.field`` adds the 128 MB float64 field.
    """
    from scipy.spatial import cKDTree

    if len(pattern) < 1:
        raise ValueError("voronoi_intensity needs at least one point")
    window = pattern.window
    n = len(pattern)
    if resolution is None:
        resolution = max(256, int(math.ceil(math.sqrt(16.0 * n))))
    grid = GridSpec.spatial(window, resolution, resolution)
    tree = cKDTree(pattern.points)
    inside = window.raster(grid)  # None on a rectangle: every cell
    areas = _owner_counts(tree, grid.centers(0), grid.centers(1), inside) * grid.cell_volume
    cells = VoronoiCells(tree, areas, grid, window.mask)
    if inside is not None:
        cells.raster_mask = inside  # so that reading it does not raster the mask again
    return _VoronoiEstimate(cells), cells
