"""Space-time inhomogeneous Ripley K function and related diagnostics.

``estimate_K`` implements the translation-corrected pair-sum estimator on
rectangular windows,

    K_hat(r, tau) = sum over ordered pairs y != y' of
        1 / ( lambda(y) lambda(y') |W ^ W_h| |T ^ T_v| )

restricted to pairs inside the cylinder {||x - x'|| <= r, |t - t'| <= tau};
under a Poisson model K(r, tau) equals the cylinder volume 2 tau pi r^2.
The one-dimensional averages calibrate to 2 tau and pi r^2 under Poisson.

One enumerator, ``_close_pairs``, serves both K estimators and F/G.  The
events are sorted by (square cell of side >= r, time) with a stable sort
of their cell numbers, held in the smallest unsigned dtype that fits
them, so up to 2^16 cells sort by radix.  For each of the 3 x 3 cells
around its own, a reference point finds the run of events in its time
window with one binary search per bound; the points search in cell
order, so each of the 9 rows of searches is sorted, and the bounds are
gathered back into the points' own order.  Chunks of ``_PAIR_CHUNK``
candidates are expanded from the runs, each candidate's run counted from
the run ends before it, and cut in two stages on coordinates held in
cell order: dx_1^2 + dx_2^2 <= r^2 with a margin for rounding, then
``np.hypot`` ||dx|| <= r and |dt| <= tau on the survivors.  Time is
O(n log n + C) for C ~ 9 n^2 r^2 tau / (|W| |T|) candidates; memory is
bounded by the chunk.  K matches an all-pairs sum to 1e-12 of the
surface's scale and F/G match it exactly (tested).

Both K estimators bin their pairs on the grid axes with ``_bins``, which
equals ``np.searchsorted``: it guesses each bin as if the axis were evenly
spaced between its ends, checks the guess against the axis, and searches
only the values it missed.

The truncated series and residual checks quantify how constant-retention
thinning pushes the empty-space / nearest-neighbour summaries toward their
Poisson forms: the first-order-corrected J residual shrinks like the
square of the retention probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    _FINE_RASTER, GridSpec, ScalarField, SpaceTimePattern, Window, ball_volume, substream,
)
from .intensity import IntensityEstimate
from .simulate import ClusterModel, IntensityModel, simulate_cluster, simulate_poisson, thin

__all__ = [
    "KGrid",
    "KEstimate",
    "SeriesDiagnostics",
    "estimate_K",
    "average_K",
    "poisson_series_fgj",
    "j_residual_ratio",
    "empirical_fgj",
]

_PAIR_CHUNK = 1 << 18  # candidate pairs held in memory at once
_MAX_CELLS = 1024  # spatial cells per axis of the pair search; bounds its int64 keys
_BINS_MIN = 1024  # values below which _bins calls np.searchsorted directly
_FLOOR_QUANTILE = 0.01  # events' intensities are floored at this quantile of the positive ones


@dataclass
class KGrid:
    """Evaluation grid for K(r, tau).

    Defaults follow the usual rules of thumb: 50 radii up to 20% of
    sqrt(|W|) and 50 lags up to 0.75% of |T|.
    """

    r: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        self.r = np.asarray(self.r, dtype=float)
        self.tau = np.asarray(self.tau, dtype=float)
        for name, v in (("r", self.r), ("tau", self.tau)):
            # NaN fails no comparison, so finiteness is checked on its own
            if (v.ndim != 1 or len(v) < 2 or not np.isfinite(v).all()
                    or (np.diff(v) <= 0).any() or v[0] < 0):
                raise ValueError(
                    f"{name} values must be finite, nonnegative and strictly increasing"
                )

    @classmethod
    def default(cls, window: Window, n_r: int = 50, n_tau: int = 50) -> "KGrid":
        r_max = 0.2 * math.sqrt(window.area)
        tau_max = 0.0075 * window.duration
        return cls(np.linspace(0.0, r_max, n_r), np.linspace(0.0, tau_max, n_tau))


@dataclass
class KEstimate:
    """K surface on a KGrid plus bookkeeping about the correction."""

    k: np.ndarray  # (len(r), len(tau))
    grid: KGrid
    edge_correction: str = "translation"
    winsorized_pairs: int = 0
    n_points: int = 0


def _lambda_at_events(lam, pattern: SpaceTimePattern) -> np.ndarray:
    """Intensity values at the events, floored away from zero.

    ``lam`` may be a constant, a 1-D array-like of per-event values, a
    ScalarField or an IntensityEstimate (looked up at event coordinates).
    """
    n = len(pattern)
    if isinstance(lam, IntensityEstimate):
        return _lambda_at_events(lam.field, pattern)
    if isinstance(lam, ScalarField):  # on W, T or W x T
        coords = {3: pattern.points, 2: pattern.x}.get(lam.grid.ndim, pattern.t)
        vals = lam.value_at(coords)
    else:
        vals = np.asarray(lam, dtype=float)
        if vals.ndim == 0:
            vals = np.full(n, float(vals))
        elif vals.shape != (n,):
            raise ValueError(f"per-event intensities need shape ({n},), got {vals.shape}")
    if (vals <= 0).any():
        positive = vals[vals > 0]
        if len(positive) == 0:
            raise ValueError("intensity vanishes at every event")
        vals = np.maximum(vals, np.quantile(positive, _FLOOR_QUANTILE))
    return vals


def estimate_K(
    pattern: SpaceTimePattern,
    lam,
    grid: KGrid | None = None,
    correction: str = "translation",
    correction_cap: float = 20.0,
) -> KEstimate:
    """Inhomogeneous space-time K estimate.

    ``correction="translation"`` (rectangular windows only) weights each
    pair by the reciprocal overlap of the window with its shifted self and
    is exactly unbiased; ``correction="border"`` restricts reference
    points to the eroded window and also works on masked windows.

    ``lam`` is the intensity plugged into the pair weights (constant,
    per-event array, field or estimate); values at events are floored at
    the 1% quantile of the positive values to stop weight explosions.
    Pairs whose translation correction exceeds ``correction_cap`` are
    winsorized at the cap and counted.
    """
    window = pattern.window
    if grid is None:
        grid = KGrid.default(window)
    if correction == "border":
        return _estimate_K_border(pattern, lam, grid)
    if correction != "translation":
        raise ValueError(f"unknown edge correction {correction!r}")
    if window.mask is not None:
        raise ValueError(
            "translation correction requires a rectangular window; "
            "use correction='border' on masked windows"
        )
    n = len(pattern)
    n_r, n_t = len(grid.r), len(grid.tau)
    k = np.zeros(n_r * n_t)
    if n < 2:
        return KEstimate(k.reshape(n_r, n_t), grid, n_points=n)
    lam_vals = _lambda_at_events(lam, pattern)
    lx = window.x_range[1] - window.x_range[0]
    ly = window.y_range[1] - window.y_range[0]
    lt = window.duration
    winsorized = 0
    for i, j, dx, ds, dt in _close_pairs(pattern.x, pattern.t, grid.r[-1], grid.tau[-1]):
        overlap = (lx - dx[:, 0]) * (ly - dx[:, 1]) * (lt - dt)
        e = window.volume / overlap
        winsorized += int(np.count_nonzero(e > correction_cap))
        e = np.minimum(e, correction_cap)
        w = 2.0 * e / (lam_vals[i] * lam_vals[j]) / window.volume  # ordered pairs
        bins = _bins(grid.r, ds) * n_t + _bins(grid.tau, dt)
        k += np.bincount(bins, weights=w, minlength=n_r * n_t)
    k = k.reshape(n_r, n_t).cumsum(axis=0).cumsum(axis=1)
    return KEstimate(k, grid, winsorized_pairs=winsorized, n_points=n)


def _bins(axis, values, side="left"):
    """``np.searchsorted(axis, values, side)`` on an increasing axis with
    finite ends, such as a KGrid's.

    Each bin is guessed as if the axis were evenly spaced between its ends,
    the guess is checked against the axis itself, and only the values whose
    guess fails are searched.  Fewer than ``_BINS_MIN`` values are searched
    directly, as the guess costs more than it saves on them.
    """
    if len(values) < _BINS_MIN:
        return np.searchsorted(axis, values, side)
    n = len(axis)
    # floor(q) + 1 for q the value's place on the evenly spaced axis: the
    # bin for side="right", and for side="left" unless q is whole; fmax and
    # fmin send NaN to an end, where the check fails
    q = values - axis[0]
    q *= (n - 1) / (axis[-1] - axis[0])
    q += 1
    g = np.fmin(np.fmax(q, 0, out=q), n, out=q).astype(np.intp)
    ext = np.concatenate(([-np.inf], axis, [np.inf]))
    below, above = ext[g], ext[1:][g]  # axis[g - 1] and axis[g]
    if side == "left":
        ok = below < values
        ok &= values <= above
    else:
        ok = below <= values
        ok &= values < above
    miss = np.flatnonzero(~ok)
    g[miss] = np.searchsorted(axis, values[miss], side)
    return g


def _close_pairs(x, t, r, tau, qx=None, qt=None):
    """Chunks of (i, j, |dx|, ||dx||, |dt|) with ||dx|| <= r and |dt| <= tau.

    ``t`` must be sorted, as in every SpaceTimePattern.  Without query points
    the pairs are the unordered event pairs (j > i); with them, i indexes
    (qx, qt) and j the events.  The candidates of a reference point are the
    events in its time window, a range of indices into the sorted times,
    that lie in its own or one of the 8 adjacent square cells of side >= r.
    They come in the order (reference point, cell, index) and are split
    into chunks of ``_PAIR_CHUNK`` candidates before the exact cut.
    """
    self_pairs = qx is None
    if self_pairs:
        qx, qt = x, t
    if len(x) == 0 or len(qx) == 0:
        return
    # the window is padded by a few ulps and the exact |dt| <= tau applied
    # afterwards, so rounding in t +- tau can neither add nor drop a pair
    pad = 4 * np.finfo(float).eps * (np.abs(qt) + tau)
    t_hi = np.searchsorted(t, qt + tau + pad, side="right")
    # cells a little wider than r, so rounding cannot put a close pair two
    # cells apart; a spare empty column stops neighbour keys wrapping around.
    # The box is reduced column by column, which is much faster than along
    # axis 0 of an (n, 2) array
    points = x if self_pairs else np.concatenate((x, qx))
    origin = np.array([points[:, 0].min(), points[:, 1].min()])
    top = np.array([points[:, 0].max(), points[:, 1].max()])
    span = (top - origin).max()
    side = max(r * (1 + 1e-9) + 1e-9 * span, span / _MAX_CELLS, np.finfo(float).tiny)
    width = int(span // side) + 2

    def cell(p):
        # (p - origin) // side: floor of the rounded quotient, which differs
        # only where the quotient rounded to a whole number
        d = p - origin
        q = d / side
        c = np.floor(q)
        np.floor_divide(d, side, out=c, where=c == q)
        c = c.astype(np.int64)
        return c[:, 0] * width + c[:, 1]

    # the events sorted by (cell, index), coded as cell * n + index; the
    # index order is the time order
    n, key = len(t), cell(x)
    # the cells are sorted in the smallest dtype that holds them, where
    # numpy's stable sort of up to 2^16 cells is a radix sort
    order = np.argsort(key.astype(np.min_scalar_type(width * width)), kind="stable")
    ranked = key[order] * n + order
    # each reference point looks up (cell + neighbour) * n + time bound for
    # its 9 neighbour cells; in (cell, bound) order of the reference points
    # every neighbour's row of needles is sorted
    if self_pairs:
        qorder, base, t_lo = order, ranked - order, order + 1  # the pairs j > i
    else:
        base = cell(qx) * n
        t_lo = np.searchsorted(t, qt - tau - pad)
        qorder = np.argsort(base + t_lo, kind="stable")
        base, t_lo = base[qorder], t_lo[qorder]
    nq = len(qt)
    shifts = np.array([[(a * width + b) * n] for a in (-1, 0, 1) for b in (-1, 0, 1)])
    needles = (base + np.stack((t_lo, t_hi[qorder])))[:, None] + shifts
    lo, hi = np.searchsorted(ranked, needles).reshape(2, -1)
    # row k = 9 * reference point + neighbour gathers its bounds from
    # column inverse[point] of the neighbour's row of needles
    inverse = np.empty_like(qorder)
    inverse[qorder] = np.arange(nq)
    rows = (inverse[:, None] + np.arange(0, 9 * nq, nq)).ravel()
    counts = (hi - lo)[rows]
    ends = np.cumsum(counts)
    total = int(ends[-1])
    # candidate c, counted over all rows, of row k is the event at position
    # to_ranked[k] + c of ranked; the events' coordinates are held in the
    # same order
    to_ranked = lo[rows] - ends + counts
    del needles, lo, hi, rows, counts  # free the 9n-long set-up arrays before the chunks
    ex, ey, et = x[:, 0][order], x[:, 1][order], t[order]
    qx0, qx1 = qx[:, 0], qx[:, 1]
    # hypot(a, b) <= r implies a * a + b * b <= r2, rounding and underflow
    # included
    r2 = r * r * (1 + 1e-9) + np.finfo(float).tiny
    for start in range(0, total, _PAIR_CHUNK):
        stop = min(start + _PAIR_CHUNK, total)
        first, last = np.searchsorted(ends, (start, stop - 1), side="right")
        # the row of each candidate: first, plus the rows ending at or before
        # it; the steps below work in place where they can, to keep down the
        # arrays of a chunk's length held at once
        row = np.bincount(ends[first:last] - start, minlength=stop - start)
        np.cumsum(row, out=row)
        row += first
        pos = to_ranked[row]
        pos += np.arange(start, stop)
        i = np.floor_divide(row, 9, out=row)
        # the exact cut in two stages: a * a + b * b <= r2 drops only
        # candidates that hypot(a, b) <= r would drop
        d0, d1 = ex[pos], ey[pos]
        d0 -= qx0[i]
        d1 -= qx1[i]
        sq = d0 * d0
        sq += d1 * d1
        k = np.flatnonzero(sq <= r2)
        pos, i = pos[k], i[k]
        dx = np.empty((len(k), 2))
        np.abs(d0[k], out=dx[:, 0])
        np.abs(d1[k], out=dx[:, 1])
        ds = np.hypot(dx[:, 0], dx[:, 1])
        dt = et[pos] - qt[i]
        np.abs(dt, out=dt)
        keep = (ds <= r) & (dt <= tau)
        if not keep.all():  # rare: the candidates passed looser tests
            k = np.flatnonzero(keep)
            pos, i, dx, ds, dt = pos[k], i[k], dx[k], ds[k], dt[k]
        yield i, order[pos], dx, ds, dt


def _boundary_distances(pattern: SpaceTimePattern, raster):
    """Spatial and temporal distances of each event to the window boundary.

    ``raster`` is the window's ``_mask_boundary_raster``, None if unmasked.
    """
    window = pattern.window
    x, y, t = pattern.x[:, 0], pattern.x[:, 1], pattern.t
    d_t = np.minimum(t - window.t_range[0], window.t_range[1] - t)
    d_rect = np.minimum(
        np.minimum(x - window.x_range[0], window.x_range[1] - x),
        np.minimum(y - window.y_range[0], window.y_range[1] - y),
    )
    if raster is None:
        return d_rect, d_t
    dist, _, fine = raster
    return np.minimum(d_rect, dist[fine.locate(pattern.x)]), d_t


def _eroded_areas(window: Window, radii: np.ndarray, raster) -> np.ndarray:
    """|{x in W : distance to the boundary >= r}| for each r."""
    if raster is None:
        lx = window.x_range[1] - window.x_range[0] - 2 * radii
        ly = window.y_range[1] - window.y_range[0] - 2 * radii
        return np.maximum(lx, 0.0) * np.maximum(ly, 0.0)
    dist, inside, fine = raster
    flat = np.sort(dist[inside].ravel())
    counts = len(flat) - np.searchsorted(flat, radii, side="left")
    return counts * fine.cell_volume


def _mask_boundary_raster(window: Window):
    """Distance to the window boundary on the fine raster: EDT of the
    mask, additionally capped by the distance to the enclosing rectangle
    (the array edge carries no mask information).  None if unmasked."""
    if window.mask is None:
        return None
    from scipy.ndimage import distance_transform_edt

    fine = GridSpec.spatial(window, _FINE_RASTER, _FINE_RASTER)
    xs, ys = fine.centers(0), fine.centers(1)
    inside = window.raster(fine)
    dist = distance_transform_edt(inside, sampling=fine.step)
    rect_x = np.minimum(xs - window.x_range[0], window.x_range[1] - xs)
    rect_y = np.minimum(ys - window.y_range[0], window.y_range[1] - ys)
    dist = np.minimum(dist, np.minimum(rect_x[:, None], rect_y[None, :]))
    return dist, inside, fine


def _estimate_K_border(pattern, lam, grid: KGrid) -> KEstimate:
    """Reduced-sample estimator: reference points from the eroded window.

    Not exactly monotone in (r, tau) because the eligible reference set
    shrinks as the arguments grow.
    """
    n = len(pattern)
    n_r, n_t = len(grid.r), len(grid.tau)
    window = pattern.window
    raster = _mask_boundary_raster(window)
    areas = _eroded_areas(window, grid.r, raster)
    lts = np.maximum(window.duration - 2 * grid.tau, 0.0)
    volumes = areas[:, None] * lts[None, :]
    hist = np.zeros((n_r + 1) * (n_t + 1))
    if n >= 2:  # fewer events form no pair and need no intensity
        lam_vals = _lambda_at_events(lam, pattern)
        d_s, d_t = _boundary_distances(pattern, raster)
    for i, j, _, ds, dt in _close_pairs(pattern.x, pattern.t, grid.r[-1], grid.tau[-1]):
        # ordered pair (ref, other) enters cell (a, b) iff ds <= r_a <= d_s[ref]
        # and dt <= tau_b <= d_t[ref]: a contiguous block, applied by
        # inclusion-exclusion on a difference array
        ref = np.concatenate([i, j])
        a_lo = np.tile(_bins(grid.r, ds), 2)
        b_lo = np.tile(_bins(grid.tau, dt), 2)
        a_hi = _bins(grid.r, d_s[ref], side="right")
        b_hi = _bins(grid.tau, d_t[ref], side="right")
        ok = (a_lo < a_hi) & (b_lo < b_hi)
        w = np.tile(1.0 / (lam_vals[i] * lam_vals[j]), 2)[ok]
        a_lo, b_lo, a_hi, b_hi = a_lo[ok], b_lo[ok], a_hi[ok], b_hi[ok]
        corners = np.concatenate([a_lo, a_hi, a_lo, a_hi]) * (n_t + 1)
        corners += np.concatenate([b_lo, b_lo, b_hi, b_hi])
        hist += np.bincount(corners, np.concatenate([w, -w, -w, w]), len(hist))
    sums = hist.reshape(n_r + 1, n_t + 1).cumsum(axis=0).cumsum(axis=1)[:n_r, :n_t]
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(volumes > 0, sums / np.where(volumes > 0, volumes, 1.0), np.nan)
    return KEstimate(k, grid, edge_correction="border", n_points=n)


def average_K(est: KEstimate, grid: KGrid | None = None) -> tuple[np.ndarray, np.ndarray]:
    """One-dimensional K averages, calibrated to the Poisson identities.

    K_t(tau) integrates the surface over r with weight 3 / (pi (r_M^3 -
    r_m^3)); K_s(r) integrates over tau with weight 1 / (tau_M^2 -
    tau_m^2).  Plugging the Poisson surface 2 tau pi r^2 returns 2 tau and
    pi r^2 up to trapezoid error.
    """
    grid = grid or est.grid
    r, tau = grid.r, grid.tau
    if len(r) < 3 or len(tau) < 3:
        raise ValueError("need at least 3 grid values per axis to average")
    k_t = np.trapezoid(est.k, r, axis=0) * 3.0 / (math.pi * (r[-1] ** 3 - r[0] ** 3))
    k_s = np.trapezoid(est.k, tau, axis=1) / (tau[-1] ** 2 - tau[0] ** 2)
    return k_t, k_s


@dataclass
class SeriesDiagnostics:
    """Inputs of the truncated F/G/J series under the Poisson reference.

    ``lam_floor`` plays the role of the lower intensity bound.
    """

    lam_floor: float
    pi0: float
    order: int = 30

    def __post_init__(self):
        if self.lam_floor < 0:
            raise ValueError("intensity floor must be nonnegative")
        if not (0 < self.pi0 <= 1):
            raise ValueError("pi0 must be in (0, 1]")
        if self.order < 2:
            raise ValueError("truncation order must be >= 2")


def poisson_series_fgj(diag: SeriesDiagnostics, r: float, tau: float):
    """Truncated F/G/J series evaluated under the Poisson substitution.

    With the k-fold integrals replaced by their Poisson values |B|^k the
    alternating series for 1-F and 1-G both truncate the exponential
    exp(-lam pi0 |B|), and J is exactly 1.  Raises if the proxy for the
    series convergence condition fails (last term ratio >= 1).
    """
    vol = ball_volume(r, tau)
    x = diag.lam_floor * diag.pi0 * vol
    terms = np.empty(diag.order + 1)
    terms[0] = 1.0
    for kk in range(1, diag.order + 1):
        terms[kk] = terms[kk - 1] * (-x) / kk
    if diag.order >= 1 and x / (diag.order + 1) >= 1.0:
        raise ValueError(
            "series terms are not decaying at the requested order; "
            "increase the order or reduce lam*pi0*volume"
        )
    one_minus_f = float(terms.sum())
    one_minus_g = one_minus_f  # same integrals under the Poisson substitution
    j = one_minus_g / one_minus_f if one_minus_f != 0 else math.nan
    return 1.0 - one_minus_f, 1.0 - one_minus_g, j


def empirical_fgj(
    pattern: SpaceTimePattern,
    r: float,
    tau: float,
    n_test: int = 4096,
    seed=0,
):
    """Border-corrected empirical F, G and J at a single (r, tau).

    F is the fraction of uniformly drawn test points whose cylindrical
    neighbourhood {||dx|| <= r, |dt| <= tau} contains an event; G is the
    same fraction over the events themselves (excluding the event).  Both
    use plain border correction: only reference points at least r from the
    spatial boundary and tau from the temporal boundary count.
    """
    window = pattern.window
    if window.mask is not None:
        raise ValueError("empirical summaries need a rectangular window")
    if (
        window.x_range[1] - window.x_range[0] <= 2 * r
        or window.y_range[1] - window.y_range[0] <= 2 * r
        or window.duration <= 2 * tau
    ):
        raise ValueError("window too small for the requested (r, tau)")
    rng = substream(seed, 977)
    xy = np.column_stack(
        [
            rng.uniform(window.x_range[0] + r, window.x_range[1] - r, n_test),
            rng.uniform(window.y_range[0] + r, window.y_range[1] - r, n_test),
        ]
    )
    tt = rng.uniform(window.t_range[0] + tau, window.t_range[1] - tau, n_test)
    f_hat = _covered_fraction(pattern, xy, tt, r, tau, exclude_self=False)
    inner = (
        (pattern.x[:, 0] >= window.x_range[0] + r)
        & (pattern.x[:, 0] <= window.x_range[1] - r)
        & (pattern.x[:, 1] >= window.y_range[0] + r)
        & (pattern.x[:, 1] <= window.y_range[1] - r)
        & (pattern.t >= window.t_range[0] + tau)
        & (pattern.t <= window.t_range[1] - tau)
    )
    if inner.sum() < 10:
        raise ValueError(f"only {int(inner.sum())} interior events; need >= 10")
    g_hat = _covered_fraction(pattern, pattern.x[inner], pattern.t[inner], r, tau, True)
    if f_hat >= 1.0:
        raise ValueError("empty-space function saturated; reduce (r, tau)")
    j_hat = (1.0 - g_hat) / (1.0 - f_hat)
    return f_hat, g_hat, j_hat


def _covered_fraction(pattern, xy, tt, r, tau, exclude_self):
    hits = np.zeros(len(xy), dtype=np.int64)
    for i, *_ in _close_pairs(pattern.x, pattern.t, r, tau, xy, tt):
        hits += np.bincount(i, minlength=len(xy))
    # a reference event is always its own cylindrical neighbour
    threshold = 2 if exclude_self else 1
    return float((hits >= threshold).mean())


def j_residual_ratio(
    model,
    p: float = 0.05,
    r: float = 0.1,
    tau: float = 0.05,
    window: Window | None = None,
    seeds=range(200),
    thinnings: int = 4,
    n_test: int = 4096,
):
    """Order-of-convergence check for the thinning expansion of J.

    For retention levels p and p/2 (nested thinnings of common patterns)
    the first-order-corrected residual

        J_hat(pi0) - 1 + lam * pi0 * (K_hat - |B|)

    is averaged over seeds; its magnitude should scale like pi0^2, so the
    returned ratio (residual at p over residual at p/2) targets 4.

    ``model`` is a ClusterModel or IntensityModel with constant intensity;
    K_hat is estimated from each unthinned pattern with the true constant
    intensity plugged in.
    """
    if not (0 < p < 1):
        raise ValueError("p must be in (0, 1)")
    if window is None:
        window = Window((0, 1), (0, 1), (0, 1))
    if isinstance(model, ClusterModel):
        lam_const = model.intensity
        draw = lambda rng: simulate_cluster(model, window, rng)
    elif isinstance(model, IntensityModel) and model.constant is not None:
        lam_const = model.constant
        draw = lambda rng: simulate_poisson(model, window, rng)
    else:
        raise ValueError("model must be a ClusterModel or constant IntensityModel")
    vol = ball_volume(r, tau)
    kgrid = KGrid(np.array([0.0, r]), np.array([0.0, tau]))
    levels = (p, p / 2.0)
    # F and G are averaged across replicates before forming J: the ratio
    # (1 - G)/(1 - F) of the means is what the expansion describes, and it
    # avoids the plug-in ratio bias a per-replicate J would carry
    f_sum = {lv: 0.0 for lv in levels}
    g_sum = {lv: 0.0 for lv in levels}
    count = {lv: 0 for lv in levels}
    k_sum = 0.0
    n_seeds = 0
    for s in seeds:
        rng = substream(s, 11)
        pat = draw(rng)
        k_sum += estimate_K(pat, lam_const, kgrid).k[-1, -1]
        n_seeds += 1
        for lv in levels:
            for m in range(thinnings):
                # one substream per (seed, thinning): the same uniforms decide
                # both levels, so the p/2 subsample nests inside the p one
                sub = thin(pat, lv, substream(s, 13, m))
                if len(sub) < 50:
                    raise ValueError(
                        f"retention {lv:g} left only {len(sub)} points (need >= 50)"
                    )
                f_hat, g_hat, _ = empirical_fgj(sub, r, tau, n_test=n_test, seed=(s, m))
                f_sum[lv] += f_hat
                g_sum[lv] += g_hat
                count[lv] += 1
    k_mean = k_sum / n_seeds
    residuals = {}
    for lv in levels:
        f_bar = f_sum[lv] / count[lv]
        g_bar = g_sum[lv] / count[lv]
        j_bar = (1.0 - g_bar) / (1.0 - f_bar)
        residuals[lv] = abs(j_bar - 1.0 + lam_const * lv * (k_mean - vol))
    if residuals[levels[1]] == 0:
        raise ValueError("residual at the finer retention vanished; cannot form ratio")
    return {
        "ratio": residuals[levels[0]] / residuals[levels[1]],
        "residuals": residuals,
        "levels": levels,
    }
