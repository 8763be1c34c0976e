"""Spatio-temporal point pattern analysis with subsampling.

Library layout:

- ``core``        windows, patterns, gridded fields
- ``simulate``    Poisson / cluster generators, Bernoulli thinning
- ``intensity``   kernel and Voronoi intensity estimators
- ``bandwidth``   temporal plug-in and spatial cross-validated selectors
- ``separability``  first-order separability statistics and permutations
- ``secondorder`` space-time inhomogeneous K function and diagnostics
- ``inference``   global envelope (ERL) and quadrat tests
- ``homogenize``  level-set thinning that flattens an inhomogeneous pattern
- ``cli``         file ingestion and pipeline orchestration

``import stpp`` loads no submodule, and so not numpy: the names below and
the submodules are imported on first use (PEP 562), which lets ``stpp.cli``
set the BLAS thread variables before numpy starts its BLAS.
"""

import importlib

__version__ = "0.1.0"

_CORE_NAMES = frozenset({
    "GridSpec", "PolygonMask", "ScalarField", "SpaceTimePattern",
    "SpatialPattern", "TemporalPattern", "Window", "ball_volume", "project",
    "substream",
})
_SUBMODULES = frozenset({
    "core", "simulate", "intensity", "bandwidth", "separability",
    "secondorder", "inference", "homogenize", "cli",
})


def __getattr__(name):
    if name in _CORE_NAMES:
        value = getattr(importlib.import_module(".core", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _CORE_NAMES | _SUBMODULES)
