"""Seeded synthetic event catalogues for the benchmark workloads.

The generator uses numpy only and never imports ``stpp``, so a change to
``stpp.simulate`` cannot change the benchmark's inputs.  A catalogue has
exactly ``n`` events:

- 60% background, inhomogeneous in space: the intensity decays
  exponentially away from a hotspot, on top of a small uniform floor, and
  times are uniform;
- 40% aftershock-like clusters of about 50 events per parent, with 1 km
  Gaussian spatial scatter and exponential time lags of mean 5 days.

Planar catalogues live in a 100 km x 100 km x 3650 day window.
Geographic catalogues are drawn in kilometres inside the equirectangular
projection of the lon/lat window that ``stpp`` itself uses, then mapped
back to degrees and ISO-8601 UTC times.
"""

from __future__ import annotations

import hashlib
import math
from datetime import datetime

import numpy as np

EARTH_RADIUS_KM = 6371.0
BACKGROUND_SHARE = 0.6
EVENTS_PER_PARENT = 50
CLUSTER_SD_KM = 1.0
LAG_MEAN_DAYS = 5.0
HOTSPOT_DECAY = 0.2  # decay length of the background, as a share of the box side
FLOOR = 0.05  # uniform share of the background intensity at the hotspot

PLANAR_WINDOW = {"x1": [0.0, 100.0], "x2": [0.0, 100.0], "t": [0.0, 3650.0]}
GEO_WINDOW = {
    "lon": [4.43, 7.81],
    "lat": [43.1, 46.36],
    "time": ["2011-01-01T00:00:00Z", "2021-12-31T23:59:59Z"],
}


def _epoch(stamp: str) -> float:
    return datetime.fromisoformat(stamp.replace("Z", "+00:00")).timestamp()


def _geo_box():
    """Projected km box of GEO_WINDOW, as ``stpp.cli.build_window`` computes it."""
    lat0 = 0.5 * (GEO_WINDOW["lat"][0] + GEO_WINDOW["lat"][1])
    kx = EARTH_RADIUS_KM * math.cos(math.radians(lat0))
    x = [kx * math.radians(v) for v in GEO_WINDOW["lon"]]
    y = [EARTH_RADIUS_KM * math.radians(v) for v in GEO_WINDOW["lat"]]
    return x, y, kx


def _inside(xy, lo, hi):
    return np.all((xy > lo) & (xy < hi), axis=1)


def _background(rng, n, lo, hi, hotspot):
    """n locations with intensity floor + exp(-distance / decay) about the hotspot."""
    decay = HOTSPOT_DECAY * float(np.mean(hi - lo))
    parts, have, rate = [], 0, 0.5
    while have < n:
        m = int((n - have) / rate * 1.1) + 64
        prop = lo + (hi - lo) * rng.uniform(size=(m, 2))
        d = np.hypot(*(prop - hotspot).T)
        accept = rng.uniform(size=m) < FLOOR + (1 - FLOOR) * np.exp(-d / decay)
        parts.append(prop[accept])
        have += int(accept.sum())
        rate = max(accept.mean(), 0.01)
    return np.vstack(parts)[:n]


def _points(rng, n, lo, hi, duration, lag_scale):
    """(n, 3) array of x, y, t in box units; lag_scale converts days to t units."""
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    # keep generated points a hair inside so projection round trips stay in
    margin = 1e-6 * (hi - lo)
    lo_in, hi_in = lo + margin, hi - margin
    hotspot = lo + np.array([0.35, 0.6]) * (hi - lo)
    n_bg = int(round(BACKGROUND_SHARE * n))
    n_cl = n - n_bg
    bg_xy = _background(rng, n_bg, lo_in, hi_in, hotspot)
    bg_t = rng.uniform(0.0, duration, n_bg)

    n_par = max(1, int(round(n_cl / EVENTS_PER_PARENT)))
    par_xy = _background(rng, n_par, lo_in, hi_in, hotspot)
    par_t = rng.uniform(0.0, duration, n_par)
    parent = rng.integers(0, n_par, n_cl)
    cl_xy = np.empty((n_cl, 2))
    cl_t = np.empty(n_cl)
    todo = np.arange(n_cl)
    while len(todo):
        p = parent[todo]
        cl_xy[todo] = par_xy[p] + rng.normal(0.0, CLUSTER_SD_KM, (len(todo), 2))
        cl_t[todo] = par_t[p] + rng.exponential(LAG_MEAN_DAYS * lag_scale, len(todo))
        ok = _inside(cl_xy[todo], lo_in, hi_in) & (cl_t[todo] < duration)
        todo = todo[~ok]
    pts = np.column_stack([np.vstack([bg_xy, cl_xy]), np.concatenate([bg_t, cl_t])])
    return pts[rng.permutation(n)]


def _uint(values, width):
    """(n, width) ASCII digit matrix of nonnegative integers, zero padded."""
    values = np.asarray(values, dtype=np.int64)
    powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((values[:, None] // powers) % 10 + ord("0")).astype(np.uint8)


def _fixed(values, int_digits, frac_digits):
    """Fixed-point ASCII matrix, e.g. ``012.500`` for 12.5 at (3, 3) digits.

    Vectorized so that writing a million rows costs a fraction of a second;
    the text parses back to exactly the float it denotes.
    """
    scaled = np.rint(np.asarray(values) * 10.0**frac_digits).astype(np.int64)
    digits = _uint(scaled, int_digits + frac_digits)
    return _row(digits[:, :int_digits], ".", digits[:, int_digits:])


def _row(*parts):
    """Concatenate digit matrices and literal separators column-wise."""
    n = next(len(p) for p in parts if not isinstance(p, str))
    cols = [
        np.broadcast_to(np.frombuffer(p.encode(), np.uint8), (n, len(p)))
        if isinstance(p, str) else p
        for p in parts
    ]
    return np.hstack(cols)


def _iso(secs):
    """``YYYY-MM-DDTHH:MM:SSZ`` matrix of whole epoch seconds."""
    stamp = secs.astype("datetime64[s]")
    month = stamp.astype("datetime64[M]")
    year = month.astype(np.int64) // 12 + 1970
    mon = month.astype(np.int64) % 12 + 1
    day = (stamp.astype("datetime64[D]") - month.astype("datetime64[D]")).astype(np.int64) + 1
    sod = secs % 86400
    return _row(
        _uint(year, 4), "-", _uint(mon, 2), "-", _uint(day, 2), "T",
        _uint(sod // 3600, 2), ":", _uint(sod // 60 % 60, 2), ":", _uint(sod % 60, 2), "Z",
    )


def _csv(header, table):
    return header.encode() + b"\n" + _row(table, "\n").tobytes()


def planar(seed: int, n: int):
    """(window block, CSV bytes) of a planar x1,x2,t catalogue of n events."""
    rng = np.random.default_rng([seed, n, 0])
    w = PLANAR_WINDOW
    pts = _points(
        rng, n, [w["x1"][0], w["x2"][0]], [w["x1"][1], w["x2"][1]], w["t"][1], 1.0
    )
    table = _row(
        _fixed(pts[:, 0], 3, 12), ",", _fixed(pts[:, 1], 3, 12), ",", _fixed(pts[:, 2], 4, 10)
    )
    return dict(w), _csv("x1,x2,t", table)


def geographic(seed: int, n: int):
    """(window block, CSV bytes) of a lon,lat,time catalogue of n events."""
    rng = np.random.default_rng([seed, n, 1])
    x, y, kx = _geo_box()
    t0 = _epoch(GEO_WINDOW["time"][0])
    duration = _epoch(GEO_WINDOW["time"][1]) - t0
    # whole seconds, because ISO stamps carry whole seconds
    pts = _points(rng, n, [x[0], y[0]], [x[1], y[1]], duration - 1.0, 86400.0)
    lon = np.degrees(pts[:, 0] / kx)
    lat = np.degrees(pts[:, 1] / EARTH_RADIUS_KM)
    secs = np.floor(pts[:, 2]).astype(np.int64) + int(t0)
    table = _row(_fixed(lon, 1, 10), ",", _fixed(lat, 2, 10), ",", _iso(secs))
    return dict(GEO_WINDOW), _csv("lon,lat,time", table)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
