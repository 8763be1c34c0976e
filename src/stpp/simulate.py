"""Poisson and cluster pattern generators plus independent Bernoulli thinning."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SpaceTimePattern, Window, _trusted, as_rng

__all__ = [
    "IntensityModel",
    "ClusterModel",
    "simulate_poisson",
    "simulate_cluster",
    "thin",
]


class IntensityModel:
    """First-order intensity over W x T: a constant rate or a cell-constant
    :class:`ScalarField`.

    ``simulate_poisson`` reads only ``constant``, ``max_rate()`` and
    ``rate_at(xy, t)``, so any object with those three can stand in for it.
    """

    def __init__(self, constant=None, field=None):
        if (constant is None) == (field is None):
            raise ValueError("specify exactly one of constant, field")
        if constant is not None and constant < 0:
            raise ValueError("constant intensity must be nonnegative")
        if field is not None and (field.values[field.mask] < 0).any():
            raise ValueError("intensity field must be nonnegative")
        self.constant = constant
        self.field = field

    @classmethod
    def const(cls, lam: float) -> "IntensityModel":
        return cls(constant=float(lam))

    def max_rate(self) -> float:
        if self.constant is not None:
            return self.constant
        inside = self.field.values[self.field.mask]
        return float(inside.max()) if inside.size else 0.0

    def rate_at(self, xy, t) -> np.ndarray:
        if self.constant is not None:
            return np.full(len(t), self.constant)
        coords = np.column_stack([xy, t]) if self.field.grid.ndim == 3 else xy
        vals = self.field.value_at(coords)
        vals = np.where(self.field.mask_at(coords), vals, 0.0)
        return vals


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


def simulate_poisson(model: IntensityModel, window: Window, seed) -> SpaceTimePattern:
    """Draw an (in)homogeneous Poisson pattern on the window.

    Homogeneous models sample Poisson(lam * |W| * |T|) uniform events;
    inhomogeneous models draw a dominating homogeneous pattern at
    ``model.max_rate()`` and keep each proposal with probability
    lam(y)/max_rate.  A proposal where lam exceeds that bound is a hard error.
    """
    rng = as_rng(seed)
    lam_max = model.max_rate()
    if lam_max == 0:
        return SpaceTimePattern(np.empty((0, 3)), window)
    n = rng.poisson(lam_max * window.volume)
    xy = _uniform_in_window(n, window, rng)
    t = rng.uniform(window.t_range[0], window.t_range[1], n)
    if model.constant is None:
        rate = model.rate_at(xy, t)
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
