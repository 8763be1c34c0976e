"""Bandwidth selection.

Temporal bandwidths use the Sheather-Jones solve-the-equation plug-in rule
for a Gaussian kernel, solved by :func:`_brentq`, a statement-for-statement
port of scipy's C ``brentq`` that returns the same root as
``scipy.optimize.brentq`` (the tests' oracle) without importing
``scipy.optimize``.  Spatial bandwidths minimize the squared
inverse-residual loss

    L(b) = ( sum over data points of 1 / lambda_hat(x; b)  -  |W| )^2

evaluated by k-fold cross-validation on a thinned subsample, repeated and
averaged, which is what makes the selector affordable on large patterns.
One pass over the distinct points that the repeats draw gives their
Diggle corrections at every candidate.  Per repeat, one pass over the
subsample's pairs closer than ``_NEAR_FIELD`` times the largest candidate,
those of two different folds, gives every fold's held-out intensities at
every candidate: a pair adds to the held-out intensity at b only within
``_NEAR_FIELD`` b, beyond which the kernel is below exp(-50) of its peak.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .core import GridSpec, SpatialPattern, TemporalPattern, substream
from .simulate import thin as thin_spatial
from .intensity import _MIN_CORRECTION, _spatial_corrections
from .secondorder import _close_pairs

__all__ = [
    "BandwidthSearch",
    "cvl_loss",
    "inverse_residual_loss",
    "select_bandwidth_spatial",
    "select_bandwidth_temporal",
]

_NEAR_FIELD = 10.0  # a pair's kernel at bandwidth b counts within this many b
_CV_GRID = 128  # cells per axis of the grid the CV's Diggle corrections sum over


def default_candidates(window, num: int = 16) -> np.ndarray:
    """Log-spaced candidate bandwidths between 0.5% and 20% of sqrt(|W|)."""
    scale = math.sqrt(window.area)
    return np.geomspace(0.005 * scale, 0.20 * scale, num)


@dataclass
class BandwidthSearch:
    """Search plan for the spatial selector.

    candidates must be finite, positive and sorted; ``folds`` is the k of the
    cross-validation, ``retention`` the thinning probability applied before
    each repeat, ``repeats`` the number of thinned subsamples whose
    selected bandwidths are averaged.
    """

    candidates: np.ndarray
    folds: int = 10
    retention: float = 0.025
    repeats: int = 50
    seed: int = 0

    def __post_init__(self):
        c = np.asarray(self.candidates, dtype=float)
        if c.ndim != 1 or len(c) == 0 or not (np.isfinite(c) & (c > 0)).all() \
                or (np.diff(c) < 0).any():
            raise ValueError("candidates must be finite, positive and sorted ascending")
        self.candidates = c
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not (0 < self.retention <= 1):
            raise ValueError("retention must be in (0, 1]")


def inverse_residual_loss(lam_at_points, area: float):
    """Squared inverse-residual loss given intensity values at data points.

    Returns +inf when any value is nonpositive (candidate rejected), and
    also when tiny positive values overflow the inverse sum or its square.
    A 2D array gives the loss of each row, as an array.
    """
    lam = np.asarray(lam_at_points, dtype=float)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # libm pow, as a float64 scalar's ``** 2``; an array's is x * x,
        # which differs from it in the last bit for some x
        loss = np.float_power(np.sum(1.0 / lam, axis=-1) - area, 2)
    loss = np.where((lam <= 0).any(axis=-1) | (lam.shape[-1] == 0), math.inf, loss)
    return float(loss) if lam.ndim == 1 else loss


def _sq_distances(train_xy, eval_xy):
    """(n_train, n_eval) squared distances between two point sets."""
    return (
        (train_xy[:, 0][:, None] - eval_xy[:, 0][None, :]) ** 2
        + (train_xy[:, 1][:, None] - eval_xy[:, 1][None, :]) ** 2
    )


def _lambda_at_points(train_xy, eval_xy, b, window, grid, loo: bool):
    """Diggle-corrected kernel intensity of the train set at eval points."""
    e = np.maximum(_spatial_corrections(train_xy, grid, window.raster(grid), b), _MIN_CORRECTION)
    k = np.exp(-0.5 * _sq_distances(train_xy, eval_xy) / (b * b)) / (2.0 * math.pi * b * b)
    lam = (1.0 / e) @ k
    if loo:
        lam -= (1.0 / (2.0 * math.pi * b * b)) / e
    return lam


def cvl_loss(pattern: SpatialPattern, b: float, eval_points=None, grid=None) -> float:
    """Inverse-residual loss of the kernel estimate at bandwidth b.

    With ``eval_points=None`` the loss is evaluated at the pattern's own
    points, excluding each point's own kernel contribution (leave one
    out).  With explicit held-out ``eval_points`` the full estimate from
    the pattern is used.
    """
    if b <= 0:
        raise ValueError("bandwidth must be positive")
    window = pattern.window
    if grid is None:
        grid = GridSpec.spatial(window, _CV_GRID, _CV_GRID)
    xy = pattern.points
    if eval_points is None:
        lam = _lambda_at_points(xy, xy, b, window, grid, loo=True)
    else:
        eval_xy = np.asarray(eval_points, dtype=float).reshape(-1, 2)
        lam = _lambda_at_points(xy, eval_xy, b, window, grid, loo=False)
    return inverse_residual_loss(lam, window.area)


def _held_out_lambdas(xy, w, fold_of, candidates):
    """Held-out kernel intensities (k, n) of the points at the k candidates.

    ``w`` (k, n) holds the reciprocals of the points' floored Diggle
    corrections at the candidates and ``fold_of`` (n,) each point's fold.
    ``lam[c, i]`` sums the kernel at bandwidth b = ``candidates[c]`` from
    every point of another fold within ``_NEAR_FIELD`` b of point i, each
    term divided by that partner's correction; a point with no such
    partner gets 0.
    The unordered pairs come from ``secondorder._close_pairs`` with all
    times equal, one chunk at a time, so memory is bounded by the chunk.
    Each kernel value is ``cvl_loss``'s bit for bit; the sums run in
    another order (1e-12 relative by test).
    """
    n, k = len(xy), len(candidates)
    lam = np.zeros((k, n))
    reach = _NEAR_FIELD * candidates
    for i, j, dx, ds, _ in _close_pairs(xy, np.zeros(n), reach[-1], 0.0):
        # the first candidate whose reach holds each pair, k for a pair within
        # one fold; sorted by it, the pairs of candidate c are a prefix
        first = np.zeros(len(ds), dtype=np.min_scalar_type(k))
        for r in reach[:-1]:
            first += ds > r
        first[fold_of[i] == fold_of[j]] = k
        order = np.argsort(first, kind="stable")  # a radix sort of small keys
        ends = np.cumsum(np.bincount(first, minlength=k + 1)[:k])
        order = order[:ends[-1]]
        i, j, dx = i[order], j[order], dx[order]
        # -0.5 * ||dx||^2 as the oracle's _sq_distances makes it
        dx *= dx
        h = dx[:, 0] + dx[:, 1]
        h *= -0.5
        for c, m in enumerate(ends):
            b = candidates[c]
            kern = h[:m] / (b * b)
            np.exp(kern, out=kern)
            kern /= 2.0 * math.pi * b * b
            lam[c] += np.bincount(i[:m], kern * np.take(w[c], j[:m]), n)
            lam[c] += np.bincount(j[:m], kern * np.take(w[c], i[:m]), n)
    return lam


def select_bandwidth_spatial(pattern: SpatialPattern, search: BandwidthSearch) -> float:
    """Cross-validated spatial bandwidth on thinned subsamples.

    For each repeat: thin the pattern, split the subsample into k folds,
    fit on the complement of each fold and accumulate the loss at fold
    points, average over folds and take the argmin over candidates.  The
    returned value averages the per-repeat argmins.

    Every repeat's subsample and fold permutation are drawn first, from
    ``substream(seed, r)``.  One pass over the distinct drawn points then
    gives their corrections at every candidate (a point's correction
    depends only on its own position, so it serves every repeat and every
    fold that draws it), and ``_held_out_lambdas`` each repeat's held-out
    intensities from its close cross-fold pairs.  A held-out point with
    no partner within ``_NEAR_FIELD`` b gets intensity 0, and its fold's
    loss at b is +inf; beyond that reach the dense sum adds less than
    exp(-50) of a kernel's peak.  The losses equal the per-fold,
    per-candidate ``cvl_loss`` procedure's to 1e-9 relative (tested).
    Memory is the corrections, (k, n) for the n distinct drawn points,
    plus one pair chunk; it does not grow with the square of a subsample.

    Warns once when, with two or more candidates, some repeats choose the
    first or the last candidate, as the best bandwidth may lie outside them.
    """
    window = pattern.window
    grid = GridSpec.spatial(window, _CV_GRID, _CV_GRID)
    candidates = search.candidates
    draws = []
    for r in range(search.repeats):
        rng = substream(search.seed, r)
        sub = thin_spatial(pattern, search.retention, rng)
        n_sub = len(sub)
        if n_sub < search.folds:
            warnings.warn(f"repeat {r}: subsample of {n_sub} points too small, discarded")
            continue
        fold_of = np.empty(n_sub, dtype=np.intp)
        for f, fold in enumerate(np.array_split(rng.permutation(n_sub), search.folds)):
            fold_of[fold] = f
        draws.append((sub.points, fold_of))
    if not draws:
        raise ValueError("all repeats were discarded; use a larger retention or pattern")
    # each drawn point as one complex number, whose sort is by (x1, x2)
    drawn, inverse = np.unique(
        np.concatenate([xy for xy, _ in draws]).view(np.complex128).ravel(),
        return_inverse=True,
    )
    w = _spatial_corrections(drawn.view(float).reshape(-1, 2), grid, window.raster(grid),
                             candidates)
    np.divide(1.0, np.maximum(w, _MIN_CORRECTION, out=w), out=w)  # reciprocal corrections
    chosen, start = [], 0
    for xy, fold_of in draws:
        rows = inverse[start:start + len(xy)]
        start += len(xy)
        lam = _held_out_lambdas(xy, w[:, rows], fold_of, candidates)
        losses = np.zeros(len(candidates))
        for f in range(search.folds):
            losses += inverse_residual_loss(lam[:, fold_of == f], window.area)
        losses /= search.folds
        chosen.append(int(np.argmin(losses)))
    ends = [chosen.count(0), chosen.count(len(candidates) - 1)]
    if len(candidates) > 1 and any(ends):
        warnings.warn(
            f"{ends[0]} of {len(chosen)} repeats chose the smallest candidate "
            f"{candidates[0]:g} and {ends[1]} the largest {candidates[-1]:g}; "
            "the best bandwidth may lie outside the candidates"
        )
    return float(np.mean(candidates[chosen]))


_HERMITE = {4: (1.0, -6.0, 3.0), 6: (1.0, -15.0, 45.0, -15.0)}  # phi^(r)(u) = P_r(u^2) phi(u)


def _ieee_div(num: float, den: float) -> float:
    """``num / den`` with C's result (+-inf or nan) where Python raises."""
    try:
        return num / den
    except ZeroDivisionError:
        return num * math.copysign(math.inf, den)


def _brentq(f, a: float, b: float, xtol: float) -> float:
    """Root of ``f`` in the bracket [a, b] by Brent's method (Brent 1973, ch. 4).

    Follows scipy's ``brentq.c`` step for step in doubles, so the root is
    the one ``scipy.optimize.brentq`` returns.  Raises ValueError when f
    has the same sign at both ends or returns nan, RuntimeError when 100
    steps do not converge; the relative tolerance is scipy's 4 eps.
    """
    rtol, maxiter = 4 * sys.float_info.epsilon, 100

    def fx(x):
        value = float(f(x))
        if math.isnan(value):
            raise ValueError(f"the function value at x={x} is NaN; solver cannot continue")
        return value

    xpre, xcur, xtol = float(a), float(b), float(xtol)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = fx(xpre), fx(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    # zeros returned above and nan raised, so comparing with 0 is C's signbit
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = _ieee_div(-fcur * (xcur - xpre), fcur - fpre)
            else:
                # extrapolate
                dpre = _ieee_div(fpre - fcur, xpre - xcur)
                dblk = _ieee_div(fblk - fcur, xblk - xcur)
                stry = _ieee_div(-fcur * (fblk * dblk - fpre * dpre), dblk * dpre * (fblk - fpre))
            limit = 3 * abs(sbis) - delta
            if 2 * abs(stry) < (abs(spre) if abs(spre) < limit else limit):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = fx(xcur)
    raise RuntimeError(f"failed to converge after {maxiter} iterations, value is {xcur:f}")


def select_bandwidth_temporal(times: TemporalPattern | np.ndarray) -> float:
    """Sheather-Jones solve-the-equation plug-in bandwidth (Gaussian kernel).

    Solves  h = [ R(K) / (n * S(alpha2(h))) ]^(1/5)  by bracketing, where S
    estimates the integrated squared second derivative of the density at a
    pilot bandwidth alpha2(h) tied to h through two direct plug-in stages.
    Functionals are linearly binned: O(n + M log M), M <= 2^20 bins of h0/200.
    """
    x = times.times if isinstance(times, TemporalPattern) else np.asarray(times, float)
    n = len(x)
    if len(np.unique(x)) < 10:
        raise ValueError("need at least 10 distinct values")
    sd = x.std(ddof=1)
    if sd == 0:
        raise ValueError("zero variance sample")
    iqr = np.subtract(*np.percentile(x, [75, 25]))
    scale = min(sd, iqr / 1.349) if iqr > 0 else sd
    h0 = 1.144 * scale * n ** (-0.2)
    # linear binning (Wand 1994): pair sums become lag sums C(k) = sum_l c_l c_(l+k)
    m = min(math.ceil(200.0 * np.ptp(x) / h0), 2**20 - 1) + 1
    if m == 2**20:
        warnings.warn(f"Sheather-Jones grid capped at {m} bins; spacing exceeds h0/200")
    delta = np.ptp(x) / (m - 1)
    pos = (x - x.min()) / delta
    i = np.minimum(pos.astype(np.int64), m - 2)
    counts = np.bincount(i, i + 1 - pos, m) + np.bincount(i + 1, pos - i, m)
    spec = np.fft.rfft(counts, 1 << (2 * m - 1).bit_length())  # zero-padded: no wrap-around
    lag_sums = np.fft.irfft(np.abs(spec) ** 2)[:m]
    lag_sums[1:] *= 2.0  # lags +k and -k

    def _binned_functional(order, g):
        """sum_(i,j) phi^(order)((x_i - x_j)/g) / (n (n-1) g^(order+1))."""
        u2 = (np.arange(m) * (delta / g)) ** 2
        phi = np.polyval(_HERMITE[order], u2) * np.exp(-0.5 * u2)
        return float(phi @ lag_sums) / (math.sqrt(2.0 * math.pi) * n * (n - 1) * g ** (order + 1))

    # pilot bandwidths 0.920*IQR*n^(-1/7) and 0.912*IQR*n^(-1/9), written
    # against the robust scale so the sd fallback stays usable
    a = 1.241 * scale * n ** (-1.0 / 7.0)
    b = 1.230 * scale * n ** (-1.0 / 9.0)
    tdb = -_binned_functional(6, b)
    sda = _binned_functional(4, a)
    if tdb <= 0 or sda <= 0:
        raise ValueError("plug-in functionals are nonpositive; sample too degenerate")
    alpha2_const = 1.357 * (sda / tdb) ** (1.0 / 7.0)
    c1 = 1.0 / (2.0 * math.sqrt(math.pi) * n)

    def objective(h):
        s = _binned_functional(4, alpha2_const * h ** (5.0 / 7.0))
        if s <= 0:
            return math.inf
        return (c1 / s) ** 0.2 - h

    lo, hi = 0.1 * h0, h0
    flo, fhi = objective(lo), objective(hi)
    for _ in range(20):
        if flo > 0 and fhi < 0:
            break
        if flo <= 0:
            lo *= 0.5
            flo = objective(lo)
        if fhi >= 0:
            hi *= 1.5
            fhi = objective(hi)
    else:
        raise ValueError("failed to bracket the plug-in equation root")
    return _brentq(objective, lo, hi, xtol=1e-12 * h0)
