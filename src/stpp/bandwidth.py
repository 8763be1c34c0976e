"""Bandwidth selection.

Temporal bandwidths use the Sheather-Jones solve-the-equation plug-in rule
for a Gaussian kernel.  Spatial bandwidths minimize the squared
inverse-residual loss

    L(b) = ( sum over data points of 1 / lambda_hat(x; b)  -  |W| )^2

evaluated by k-fold cross-validation on a thinned subsample, repeated and
averaged, which is what makes the selector affordable on large patterns.
Per repeat, the Diggle corrections are computed once per candidate and
the train x test distances once per fold, so each (fold, candidate) pair
costs one ``exp`` over the fold's distance block.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import GridSpec, SpatialPattern, TemporalPattern, substream
from .simulate import RetentionSpec, thin_spatial
from .intensity import _MIN_CORRECTION, _spatial_rows

__all__ = [
    "BandwidthSearch",
    "cvl_loss",
    "inverse_residual_loss",
    "select_bandwidth_spatial",
    "select_bandwidth_temporal",
    "normal_reference_bandwidth",
]


def default_candidates(window, num: int = 16) -> np.ndarray:
    """Log-spaced candidate bandwidths between 0.5% and 20% of sqrt(|W|)."""
    scale = math.sqrt(window.area)
    return np.geomspace(0.005 * scale, 0.20 * scale, num)


@dataclass
class BandwidthSearch:
    """Search plan for the spatial selector.

    candidates must be positive and sorted; ``folds`` is the k of the
    cross-validation, ``retention`` the thinning probability applied before
    each repeat, ``repeats`` the number of thinned subsamples whose
    selected bandwidths are averaged.
    """

    candidates: np.ndarray
    folds: int = 10
    retention: float = 0.025
    repeats: int = 50
    seed: int = 0
    grid: GridSpec | None = None
    average: str = "arithmetic"  # or "geometric"

    def __post_init__(self):
        c = np.asarray(self.candidates, dtype=float)
        if c.ndim != 1 or len(c) == 0 or (c <= 0).any() or (np.diff(c) < 0).any():
            raise ValueError("candidates must be positive and sorted ascending")
        self.candidates = c
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not (0 < self.retention <= 1):
            raise ValueError("retention must be in (0, 1]")
        if self.average not in ("arithmetic", "geometric"):
            raise ValueError("average must be 'arithmetic' or 'geometric'")


def inverse_residual_loss(lam_at_points, area: float) -> float:
    """Squared inverse-residual loss given intensity values at data points.

    Returns +inf when any value is nonpositive (candidate rejected), and
    also when tiny positive values overflow the inverse sum or its square.
    """
    lam = np.asarray(lam_at_points, dtype=float)
    if len(lam) == 0 or (lam <= 0).any():
        return math.inf
    with np.errstate(over="ignore"):
        return float((np.sum(1.0 / lam) - area) ** 2)


def _corrections(xy, b, window, grid):
    """Diggle corrections of the points, floored at the smallest one allowed."""
    return np.maximum(_spatial_rows(xy, grid, window, b)[2], _MIN_CORRECTION)


def _sq_distances(train_xy, eval_xy):
    """(n_train, n_eval) squared distances between two point sets."""
    return (
        (train_xy[:, 0][:, None] - eval_xy[:, 0][None, :]) ** 2
        + (train_xy[:, 1][:, None] - eval_xy[:, 1][None, :]) ** 2
    )


def _kernel_sum(d2, e, b):
    """Corrected kernel intensity at the columns of ``d2`` from its rows."""
    k = np.exp(-0.5 * d2 / (b * b)) / (2.0 * math.pi * b * b)
    return (1.0 / e) @ k


def _lambda_at_points(train_xy, eval_xy, b, window, grid, loo: bool):
    """Diggle-corrected kernel intensity of the train set at eval points."""
    e = _corrections(train_xy, b, window, grid)
    lam = _kernel_sum(_sq_distances(train_xy, eval_xy), e, b)
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
        grid = GridSpec.spatial(window, 128, 128)
    xy = pattern.points
    if eval_points is None:
        lam = _lambda_at_points(xy, xy, b, window, grid, loo=True)
    else:
        eval_xy = np.asarray(eval_points, dtype=float).reshape(-1, 2)
        lam = _lambda_at_points(xy, eval_xy, b, window, grid, loo=False)
    return inverse_residual_loss(lam, window.area)


def select_bandwidth_spatial(pattern: SpatialPattern, search: BandwidthSearch) -> float:
    """Cross-validated spatial bandwidth on thinned subsamples.

    For each repeat: thin the pattern, split the subsample into k folds,
    fit on the complement of each fold and accumulate the loss at fold
    points, average over folds and take the argmin over candidates.  The
    returned value averages the per-repeat argmins.

    The result equals calling ``cvl_loss`` per fold and candidate, bit for
    bit; memory peaks at a few train x test blocks of one fold.
    """
    window = pattern.window
    grid = search.grid or GridSpec.spatial(window, 128, 128)
    retention = RetentionSpec.constant(search.retention)
    chosen = []
    for r in range(search.repeats):
        rng = substream(search.seed, r)
        sub = thin_spatial(pattern, retention, rng)
        n_sub = len(sub)
        if n_sub < search.folds:
            warnings.warn(f"repeat {r}: subsample of {n_sub} points too small, discarded")
            continue
        perm = rng.permutation(n_sub)
        fold_ids = np.array_split(perm, search.folds)
        if min(len(f) for f in fold_ids) == 0:
            warnings.warn(f"repeat {r}: empty fold, discarded")
            continue
        # a point's correction depends only on its own position, so one pass
        # per candidate serves the training set of every fold
        e = [_corrections(sub.points, b, window, grid) for b in search.candidates]
        losses = np.zeros(len(search.candidates))
        for fold in fold_ids:
            hold = np.zeros(n_sub, dtype=bool)
            hold[fold] = True
            d2 = _sq_distances(sub.points[~hold], sub.points[hold])
            for j, b in enumerate(search.candidates):
                lam = _kernel_sum(d2, e[j][~hold], b)
                losses[j] += inverse_residual_loss(lam, window.area)
        losses /= search.folds
        chosen.append(search.candidates[int(np.argmin(losses))])
    if not chosen:
        raise ValueError("all repeats were discarded; use a larger retention or pattern")
    chosen = np.asarray(chosen)
    if search.average == "geometric":
        return float(np.exp(np.mean(np.log(chosen))))
    return float(np.mean(chosen))


_HERMITE = {4: (1.0, -6.0, 3.0), 6: (1.0, -15.0, 45.0, -15.0)}  # phi^(r)(u) = P_r(u^2) phi(u)


def normal_reference_bandwidth(x) -> float:
    """1.06 * min(sd, IQR/1.349) * n^(-1/5) Gaussian reference rule."""
    x = np.asarray(x, dtype=float)
    sd = x.std(ddof=1)
    q75, q25 = np.percentile(x, [75, 25])
    scale = min(sd, (q75 - q25) / 1.349)
    return 1.06 * scale * len(x) ** (-0.2)


def select_bandwidth_temporal(times: TemporalPattern | np.ndarray) -> float:
    """Sheather-Jones solve-the-equation plug-in bandwidth (Gaussian kernel).

    Solves  h = [ R(K) / (n * S(alpha2(h))) ]^(1/5)  by bracketing, where S
    estimates the integrated squared second derivative of the density at a
    pilot bandwidth alpha2(h) tied to h through two direct plug-in stages.
    Functionals are linearly binned: O(n + M log M), M <= 2^20 bins of h0/200.
    """
    from scipy.optimize import brentq

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
    return float(brentq(objective, lo, hi, xtol=1e-12 * h0))
