"""Poisson and cluster pattern generators plus independent Bernoulli thinning.

A Poisson intensity is a number or a ``core.ScalarField``, the type the
kernel estimators return; a cluster process is a :class:`ClusterModel`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ScalarField, SpaceTimePattern, Window, _trusted, as_rng

__all__ = [
    "ClusterModel",
    "simulate_poisson",
    "simulate_cluster",
    "thin",
]


@dataclass(frozen=True)
class ClusterModel:
    """Space-time Thomas process: Poisson parents, Gaussian offspring clouds.

    ``kappa`` parents per unit volume, ``mean_offspring`` points per parent,
    isotropic spatial sd ``sigma`` and temporal sd ``sigma_t``.  The
    stationary intensity is ``kappa * mean_offspring``.
    """

    kappa: float
    mean_offspring: float
    sigma: float
    sigma_t: float

    def __post_init__(self):
        if min(self.kappa, self.mean_offspring, self.sigma, self.sigma_t) <= 0:
            raise ValueError("all cluster parameters must be positive")

    @property
    def intensity(self) -> float:
        return self.kappa * self.mean_offspring


def _uniform_in_window(n: int, window: Window, rng) -> np.ndarray:
    """Uniform spatial draws inside the (possibly masked) window."""
    if window.mask is None:
        x = rng.uniform(window.x_range[0], window.x_range[1], n)
        y = rng.uniform(window.y_range[0], window.y_range[1], n)
        return np.column_stack([x, y])
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        m = max(2 * (n - filled), 64)
        x = rng.uniform(window.x_range[0], window.x_range[1], m)
        y = rng.uniform(window.y_range[0], window.y_range[1], m)
        cand = np.column_stack([x, y])
        cand = cand[window.mask.contains(cand)]
        take = min(len(cand), n - filled)
        out[filled : filled + take] = cand[:take]
        filled += take
    return out


def simulate_poisson(lam, window: Window, seed) -> SpaceTimePattern:
    """Draw an (in)homogeneous Poisson pattern on the window.

    ``lam`` is a nonnegative number, or any object with ``max_rate()`` and
    ``rate_at(xy, t)``, such as a :class:`ScalarField` on W, T or W x T.
    A number samples Poisson(lam * |W| * |T|) uniform events; otherwise a
    dominating homogeneous pattern is drawn at ``lam.max_rate()`` and each
    proposal kept with probability lam(y)/max_rate.  A negative number, or
    a field negative on its mask, is refused before any draw; a proposal
    where lam exceeds its bound is a hard error.
    """
    inhomogeneous = hasattr(lam, "rate_at")
    if not inhomogeneous and lam < 0:
        raise ValueError("constant intensity must be nonnegative")
    if isinstance(lam, ScalarField) and ((lam.values < 0) & lam.mask).any():
        raise ValueError("intensity field must be nonnegative")
    rng = as_rng(seed)
    lam_max = lam.max_rate() if inhomogeneous else float(lam)
    if lam_max == 0:
        return SpaceTimePattern(np.empty((0, 3)), window)
    n = rng.poisson(lam_max * window.volume)
    xy = _uniform_in_window(n, window, rng)
    t = rng.uniform(window.t_range[0], window.t_range[1], n)
    if inhomogeneous:
        rate = lam.rate_at(xy, t)
        if (rate > lam_max * (1 + 1e-12)).any():
            raise ValueError("intensity exceeds its declared upper bound at a proposal")
        keep = rng.uniform(size=n) < rate / lam_max
        xy, t = xy[keep], t[keep]
    return SpaceTimePattern(np.column_stack([xy, t]), window)


def simulate_cluster(model: ClusterModel, window: Window, seed) -> SpaceTimePattern:
    """Draw a space-time Thomas pattern clipped to the window.

    Parents live on the window dilated by 4 sigma (4 sigma_t in time) so
    that the clipped pattern has the stationary mean count
    kappa * mean_offspring * |W| * |T| up to Gaussian tail mass.
    """
    rng = as_rng(seed)
    dx = 4.0 * model.sigma
    dt = 4.0 * model.sigma_t
    px = (window.x_range[0] - dx, window.x_range[1] + dx)
    py = (window.y_range[0] - dx, window.y_range[1] + dx)
    pt = (window.t_range[0] - dt, window.t_range[1] + dt)
    vol = (px[1] - px[0]) * (py[1] - py[0]) * (pt[1] - pt[0])
    n_parents = rng.poisson(model.kappa * vol)
    parents = np.column_stack(
        [
            rng.uniform(px[0], px[1], n_parents),
            rng.uniform(py[0], py[1], n_parents),
            rng.uniform(pt[0], pt[1], n_parents),
        ]
    )
    counts = rng.poisson(model.mean_offspring, n_parents)
    centers = np.repeat(parents, counts, axis=0)
    m = len(centers)
    off = np.column_stack(
        [
            rng.normal(0.0, model.sigma, m),
            rng.normal(0.0, model.sigma, m),
            rng.normal(0.0, model.sigma_t, m),
        ]
    )
    pts = centers + off
    keep = (
        window.contains_xy(pts[:, :2]) & window.contains_t(pts[:, 2])
        if m
        else np.zeros(0, dtype=bool)
    )
    return SpaceTimePattern(pts[keep], window)


def thin(pattern, pi0: float, seed):
    """Keep each event independently with probability ``pi0`` in [0, 1].

    The output has the input's class (SpaceTimePattern or SpatialPattern)
    and window.
    """
    if not (0.0 <= pi0 <= 1.0):
        raise ValueError(f"retention probability must be in [0, 1], got {pi0}")
    keep = as_rng(seed).uniform(size=len(pattern)) < pi0
    return _trusted(type(pattern), pattern.points[keep], pattern.window)
