"""Simulation helpers that only the tests use: an analytic intensity model
for ``simulate_poisson`` and a planar Poisson generator."""

import numpy as np

from stpp.core import SpatialPattern, Window, as_rng
from stpp.simulate import _uniform_in_window


class AnalyticModel:
    """Intensity ``function(x1, x2, t)`` dominated by a declared ``bound``.

    ``simulate_poisson`` draws a homogeneous pattern at the bound and keeps
    each proposal with probability function / bound.
    """

    constant = None

    def __init__(self, function, bound):
        self.function = function
        self.bound = float(bound)

    def max_rate(self) -> float:
        return self.bound

    def rate_at(self, xy, t) -> np.ndarray:
        return np.asarray(self.function(xy[:, 0], xy[:, 1], t), dtype=float)


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
