"""Poisson and cluster pattern generators plus independent Bernoulli thinning."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SpaceTimePattern, SpatialPattern, Window, _trusted, as_rng

__all__ = [
    "IntensityModel",
    "ClusterModel",
    "RetentionSpec",
    "simulate_poisson",
    "simulate_poisson_spatial",
    "simulate_cluster",
    "thin",
    "thin_spatial",
]


class IntensityModel:
    """First-order intensity over W x T.

    One of: a constant rate, an analytic function ``lam(x1, x2, t)`` with a
    declared finite upper bound, or a cell-constant :class:`ScalarField`.
    """

    def __init__(self, constant=None, function=None, bound=None, field=None):
        given = sum(v is not None for v in (constant, function, field))
        if given != 1:
            raise ValueError("specify exactly one of constant, function, field")
        if constant is not None and constant < 0:
            raise ValueError("constant intensity must be nonnegative")
        if function is not None:
            if bound is None or not np.isfinite(bound) or bound < 0:
                raise ValueError("analytic models need a finite nonnegative bound")
        if field is not None:
            if (field.values[field.mask] < 0).any():
                raise ValueError("intensity field must be nonnegative")
            bound = float(field.values[field.mask].max()) if field.mask.any() else 0.0
        self.constant = constant
        self.function = function
        self.field = field
        self.bound = float(bound) if bound is not None else None

    @classmethod
    def const(cls, lam: float) -> "IntensityModel":
        return cls(constant=float(lam))

    def max_rate(self) -> float:
        return self.constant if self.constant is not None else self.bound

    def rate_at(self, xy, t) -> np.ndarray:
        if self.constant is not None:
            return np.full(len(t), self.constant)
        if self.function is not None:
            return np.asarray(self.function(xy[:, 0], xy[:, 1], t), dtype=float)
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

    def k_function(self, r, tau) -> np.ndarray:
        """Exact K(r, tau) of the stationary process.

        2*tau*pi*r^2 plus the within-cluster excess
        (1/kappa) * (1 - exp(-r^2/(4 sigma^2))) * erf(tau / (2 sigma_t)).
        """
        from scipy.special import erf

        r = np.asarray(r, dtype=float)
        tau = np.asarray(tau, dtype=float)
        excess = (1.0 - np.exp(-(r**2) / (4 * self.sigma**2))) * erf(
            tau / (2 * self.sigma_t)
        )
        return 2 * tau * np.pi * r**2 + excess / self.kappa


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
    inhomogeneous models draw a dominating homogeneous pattern at the
    declared bound and keep each proposal with probability lam(y)/bound.
    A proposal where lam exceeds the bound is a hard error.
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


def simulate_poisson_spatial(lam, window: Window, seed) -> SpatialPattern:
    """Homogeneous or analytic planar Poisson pattern (no time component).

    ``lam`` is either a constant or a pair ``(func, bound)`` with
    ``func(x1, x2)`` dominated by ``bound``.
    """
    rng = as_rng(seed)
    if isinstance(lam, tuple):
        func, bound = lam
        n = rng.poisson(bound * window.area)
        xy = _uniform_in_window(n, window, rng)
        rate = np.asarray(func(xy[:, 0], xy[:, 1]), dtype=float)
        if (rate > bound * (1 + 1e-12)).any():
            raise ValueError("intensity exceeds its declared upper bound at a proposal")
        xy = xy[rng.uniform(size=n) < rate / bound]
    else:
        n = rng.poisson(float(lam) * window.area)
        xy = _uniform_in_window(n, window, rng)
    return SpatialPattern(xy, window)


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


@dataclass(frozen=True)
class RetentionSpec:
    """Constant retention probability ``pi0`` in [0, 1] for independent thinning."""

    pi0: float

    def __post_init__(self):
        if not (0.0 <= self.pi0 <= 1.0):
            raise ValueError(f"retention probability must be in [0, 1], got {self.pi0}")

    @classmethod
    def constant(cls, pi0: float) -> "RetentionSpec":
        return cls(float(pi0))


def thin(pattern, retention: RetentionSpec, seed):
    """Keep each event independently with probability ``retention.pi0``.

    The output has the input's class (SpaceTimePattern or SpatialPattern)
    and window.
    """
    keep = as_rng(seed).uniform(size=len(pattern)) < retention.pi0
    return _trusted(type(pattern), pattern.points[keep], pattern.window)


thin_spatial = thin  # the planar name, which the spatial bandwidth selector imports
