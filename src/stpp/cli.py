"""Command line pipeline: ingest CSV events, run an analysis task, emit
plot-ready CSV/JSON artifacts.

    stpp <task> --config <file> [--seed N] [--threads N] [--force] [--skip-bad]

Tasks: intensity, separability, ripley-k, homogenize, simulate,
prop2-check.  Outputs land in the configured directory: gridded fields as
``intensity_*.csv``, curves with envelopes as ``curves_*.csv``, test
results in ``report.json`` and a ``manifest.json`` that pins config hash,
seed and version so a run can be reproduced exactly.
"""

import os

# Replicate farms parallelize over worker threads; BLAS must not introduce
# its own thread-count-dependent reduction orders underneath them.  This
# runs before numpy starts its BLAS, since ``import stpp`` loads no numpy.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import csv
import hashlib
import json
import math
import sys
import warnings
from contextlib import contextmanager
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .bandwidth import (
    default_candidates,
    select_bandwidth_spatial,
    select_bandwidth_temporal,
)
from .core import (
    GridSpec,
    SpaceTimePattern,
    Window,
    _BLOCK_BYTES,
    _CSV_ROW_BYTES,
    _blocks,
    parallel_map,
    project,
    substream,
)
from .homogenize import homogenize
from .inference import CurveSet, combined_erl_test
from .intensity import KernelSpec, estimate_lambda_s, estimate_lambda_st, estimate_lambda_t
from .secondorder import (
    KGrid,
    average_K,
    estimate_K,
    j_residual_ratio,
    poisson_series_fgj,
)
from .separability import separability_test
from .simulate import ClusterModel, simulate_cluster, simulate_poisson, thin

EARTH_RADIUS_KM = 6371.0

TASKS = ("intensity", "separability", "ripley-k", "homogenize", "simulate", "prop2-check")


# ---------------------------------------------------------------- ingestion


def _parse_time(raw: str) -> float:
    """Epoch seconds of a number or an ISO-8601 stamp (UTC unless it says)."""
    raw = raw.strip()
    try:
        return float(raw)
    except ValueError:
        pass
    stamp = raw.replace("Z", "+00:00")
    dt = datetime.fromisoformat(stamp)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def _to_window(a, b, t, context: dict) -> None:
    """Map a file's float columns (x1, x2, t or lon, lat, epoch seconds) to
    window coordinates in place: times from the window's start, lon/lat
    projected equirectangularly to km about ``lat0`` unless in degrees."""
    t -= context["time_origin"]
    if context["mode"] == "lonlat":
        np.radians(a, out=a)
        a *= EARTH_RADIUS_KM * math.cos(math.radians(context["lat0"]))
        np.radians(b, out=b)
        b *= EARTH_RADIUS_KM


def build_window(config: dict) -> tuple[Window, dict]:
    """Window plus projection context from the config's window block.

    Planar windows give ``x1``, ``x2`` and optionally ``t``; geographic ones
    give ``lon``, ``lat`` and ``time`` and are projected to kilometres by
    default (``"projection": "equirect"``); ``"projection": "degrees"``
    keeps raw longitude/latitude coordinates.
    """
    projection = _lookup(config, "projection")
    wc = {k: _lookup(config, "window." + k) for k in ("x1", "x2", "t", "lon", "lat", "time")}
    given = config.get("window") or {}
    planar = [k for k in ("x1", "x2", "t") if k in given]
    geographic = [k for k in ("lon", "lat", "time") if k in given]
    if planar and geographic:
        raise ValueError(
            f"window gives both planar ({', '.join(planar)}) and geographic "
            f"({', '.join(geographic)}) keys; use one form"
        )
    for k in ("lon", "lat", "time") if geographic else ("x1", "x2"):
        if wc[k] is None:
            raise KeyError(f"window.{k}" if "window" in config else "window")
    if not geographic:
        window = Window(tuple(wc["x1"]), tuple(wc["x2"]), tuple(wc["t"]))
        return window, {"mode": "planar", "time_origin": 0.0}
    times = [_parse_time(str(v)) for v in wc["time"]]
    context = {"mode": "degrees", "time_origin": times[0]}
    if projection != "degrees":
        context.update(mode="lonlat", lat0=0.5 * (wc["lat"][0] + wc["lat"][1]))
    corners = np.array([wc["lon"], wc["lat"], times], dtype=float)
    _to_window(*corners, context)
    return Window(*(tuple(c.tolist()) for c in corners)), context


def ingest(path, window: Window, context: dict, skip_bad=False, jitter=False) -> SpaceTimePattern:
    """Read an event CSV into a validated pattern.

    Geographic files carry a ``lon,lat,time`` header (ISO-8601 or epoch
    seconds); planar files carry ``x1,x2,t``.  The header's form must be
    the window's.  Malformed rows abort with their line number unless
    ``skip_bad`` is set.  The parsed columns are mapped to window
    coordinates by ``_to_window``, as the window's corners are.

    Files of plain numbers, with geographic times either all epoch seconds
    or all ``YYYY-MM-DDTHH:MM:SS[.ffffff]Z``, are parsed by columns; any
    other file goes through the row parser, which gives the same points.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file, expected a header row")
        header = [h.strip().lower() for h in header]
        if header[:3] == ["lon", "lat", "time"]:
            geographic = True
        elif header[:3] == ["x1", "x2", "t"]:
            geographic = False
        else:
            raise ValueError(f"{path}: unrecognized header {header!r}")
        if geographic == (context["mode"] == "planar"):
            keys = "window.lon, window.lat and window.time" if geographic else "window.x1 and window.x2"
            raise ValueError(f"{path}: header {','.join(header[:3])} needs a window with {keys}")
        points = _parse_columns(path, reader.line_num, geographic)
        if points is None:
            points = _parse_rows(path, reader, geographic, skip_bad)
    _to_window(*points.T, context)
    if not len(points):
        warnings.warn(f"{path}: no events parsed")
        return SpaceTimePattern(np.empty((0, 3)), window)
    return SpaceTimePattern(points, window, jitter=jitter)


def _parse_rows(path, reader, geographic: bool, skip_bad: bool) -> np.ndarray:
    """The (n, 3) columns of the rows left in ``reader``, parsed one row at a time."""
    rows = []
    bad = 0
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            a, b = float(row[0]), float(row[1])
            rows.append((a, b, _parse_time(row[2]) if geographic else float(row[2])))
        except (ValueError, IndexError) as exc:
            if skip_bad:
                bad += 1
                continue
            raise ValueError(f"{path}:{lineno}: malformed row {row!r}: {exc}") from None
    if bad:
        warnings.warn(f"{path}: skipped {bad} malformed row(s)")
    return np.asarray(rows, dtype=float).reshape(-1, 3)


# widest time field the columnar parse reads (a multiple of 8); a
# full-width field may be cut
_TIME_FIELD = 32
# the UTC stamp layouts it reads, every digit written as 0, NUL-padded to
# that width
_STAMP_LAYOUTS = [
    np.frombuffer(layout.ljust(_TIME_FIELD, b"\0"), dtype=np.uint64)
    for layout in (b"0000-00-00T00:00:00Z", b"0000-00-00T00:00:00.000000Z")
]


def _parse_columns(path, skiprows: int, geographic: bool):
    """The (n, 3) columns of the file parsed by columns, or None if the row
    parser is needed.

    ``np.loadtxt`` parses each number to the same float as ``float`` or
    rejects it.  Files with quotes or NUL characters are declined, so the
    fields are the ones ``csv.reader`` splits; they are looked for in reads
    of ``core._BLOCK_BYTES``, not in the whole file at once.  Besides the
    structured array ``np.loadtxt`` returns (48 bytes a row when
    geographic) and the result, the parse holds one float64 column and
    one block of rows' scratch.
    """
    with open(path, "rb") as fb:
        chunks = iter(partial(fb.read, _BLOCK_BYTES), b"")
        if any(b'"' in chunk or b"\0" in chunk for chunk in chunks):
            return None
    third = f"S{_TIME_FIELD}" if geographic else float
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a file without rows
            cols = np.loadtxt(
                path, dtype=[("a", float), ("b", float), ("c", third)], delimiter=",",
                comments=None, skiprows=skiprows, usecols=(0, 1, 2), ndmin=1,
            )
    except ValueError:
        return None
    if not len(cols):
        return None
    t = _time_seconds(cols["c"]) if geographic else cols["c"]
    if t is None:
        return None
    return np.column_stack([cols["a"], cols["b"], t])


def _time_seconds(fields):
    """Epoch seconds of byte-string time fields as ``_parse_time`` reads them,
    or None if some field needs the row parser.

    Either every field is epoch seconds, or every field has the exact layout
    ``YYYY-MM-DDTHH:MM:SS[.ffffff]Z``: numpy's datetime parser accepts more
    than ``datetime.fromisoformat`` (a ``+`` year sign, year 0), so the layout
    is checked character by character first.  Stamps are exact integer
    microseconds below 2**53, so dividing by 1e6 rounds as the row parser's
    ``timestamp()`` does.

    The fields are read in ``core._blocks`` of rows, each copied, checked
    and converted on its own.  The first block decides which form the
    fields take: a later block of the other form means a mix, which
    ``float`` or the layout check rejects, so the row parser takes the file.
    """
    seconds = np.empty(len(fields))
    stamped = None
    # a row's copies and boolean temporaries take about five times its width
    for rows in _blocks(len(fields), 8 * _TIME_FIELD):
        raw = np.ascontiguousarray(fields[rows])
        chars = raw.view(np.uint8).reshape(len(raw), _TIME_FIELD)
        if chars[:, -1].any():
            return None
        shape = chars.copy()
        np.putmask(shape, (chars >= ord("0")) & (chars <= ord("9")), ord("0"))
        words = shape.view(np.uint64)  # eight characters compared at a time
        stamps = np.zeros(len(raw), dtype=bool)
        for layout in _STAMP_LAYOUTS:
            stamps |= (words == layout).all(axis=1)
        if stamped is None:
            stamped = bool(stamps.all())
        if not stamped:
            try:
                seconds[rows] = [float(f) for f in raw.tolist()]
            except ValueError:
                return None
            continue
        if not stamps.all():
            return None
        chars[chars == ord("Z")] = 0
        try:
            micros = raw.astype("datetime64[us]").astype(np.int64)
        except ValueError:
            return None
        if (np.abs(micros) >= 2**53).any():
            return None
        seconds[rows] = micros / 1e6
    return seconds


# ---------------------------------------------------------------- writers
#
# Every float is written as Python's shortest round-trip ``repr`` by one
# numpy kernel, a block of values at a time.  Its digits come from
# Schubfach (R. Giulietti, "The Schubfach way to render doubles", 2020):
# with q the binary exponent of a double x's last bit and
# k = floor(log10(2**q)), the shortest decimal inside x's rounding interval
# is a multiple of 10**(k+1), or else s or s + 1 times 10**k, where
# s = floor(x / 10**k).  x and the interval's ends are scaled by a 126-bit
# 10**-k held as 32-bit limbs, so 64-bit integer products suffice.


def _floor_log2_pow10(e):
    return (e * 913_124_641_741) >> 38


def _schubfach_table():
    """Per row: k, 2**h and the four 32-bit limbs (bits 95 up, 63 to 94,
    32 to 62 and 0 to 31) of g = floor(10**-k / 2**r) + 1, whose r puts g
    in [2**125, 2**126].

    A row is a biased exponent, plus 2048 for a power of two, whose
    rounding interval below it is half as wide."""
    rows = np.arange(4096)
    q = np.maximum(rows % 2048, 1) - 1075
    # floor(log10(2**q)), or floor(log10(3/4 * 2**q)) below a power of two
    k = (q * 661_971_961_083 - (rows >= 2048) * 274_743_187_321) >> 41
    g = {}
    for kk in set(k.tolist()):
        r = _floor_log2_pow10(-kk) - 125
        num, den = (10**-kk, 1) if kk <= 0 else (1, 10**kk)
        g[kk] = (num << max(-r, 0)) // (den << max(r, 0)) + 1
    limbs = [
        np.array([g[kk] >> shift & mask for kk in k.tolist()], dtype=np.uint64)
        for shift, mask in ((95, 2**31 - 1), (63, 2**32 - 1), (32, 2**31 - 1), (0, 2**32 - 1))
    ]
    scale = np.uint64(1) << (q + _floor_log2_pow10(-k) + 2).astype(np.uint64)
    return k.astype(np.int16), scale, limbs


_TABLE_K, _TABLE_SCALE, _TABLE_G = _schubfach_table()
_LOW32 = np.uint64(0xFFFFFFFF)


def _high64(a1, a0, b1, b0):
    """High 64 bits of (a1 2**32 + a0)(b1 2**32 + b0), limbs below 2**32."""
    low = a0 * b0
    low >>= np.uint64(32)
    cross = a0 * b1
    low += cross & _LOW32
    cross >>= np.uint64(32)
    other = a1 * b0
    low += other & _LOW32
    other >>= np.uint64(32)
    cross += other
    low >>= np.uint64(32)
    cross += low
    np.multiply(a1, b1, out=other)
    cross += other
    return cross


def _shortest(bits):
    """Digits f and table rows: each finite nonzero double is f * 10**k,
    f the shortest digits that read back as it, the closest on a tie of
    lengths, then the even one.  f < 10**17 and may end in zeros."""
    mantissa = bits & np.uint64((1 << 52) - 1)
    biased = bits >> np.uint64(52)
    biased &= np.uint64(0x7FF)
    row = ((mantissa == 0) & (biased > 1)) * np.uint64(2048)
    row += biased
    row = row.astype(np.intp)
    c = (biased != 0) * np.uint64(1 << 52)
    c |= mantissa
    # the value and its rounding interval's ends, times 4 * 2**h
    scale = _TABLE_SCALE.take(row)
    cp = np.empty((3, len(bits)), np.uint64)
    np.multiply(c << np.uint64(2), scale, out=cp[0])
    np.subtract(cp[0], scale << (row < 2048).astype(np.uint64), out=cp[1])
    np.add(cp[0], scale << np.uint64(1), out=cp[2])
    c1, c0 = cp >> np.uint64(32), cp & _LOW32
    g3, g2, g1, g0 = (limbs.take(row) for limbs in _TABLE_G)
    # g cp / 2**127 rounded to odd, from g's two 63-bit halves
    low = _high64(g1, g0, c1, c0)
    mid = ((g3 << np.uint64(32)) | g2) * cp
    v = _high64(g3, g2, c1, c0)
    mid >>= np.uint64(1)
    mid += low
    v += mid >> np.uint64(63)
    mid <<= np.uint64(1)
    v |= mid != 0
    vb, vbl, vbr = v
    odd = c & np.uint64(1)  # an odd c's interval excludes its ends
    vbl += odd
    vbr -= odd
    s = vb >> np.uint64(2)
    s10 = s // np.uint64(10) * np.uint64(10)
    lo_in, hi_in = vbl <= s << np.uint64(2), (s << np.uint64(2)) + np.uint64(4) <= vbr
    short_lo, short_hi = vbl <= s10 << np.uint64(2), (s10 << np.uint64(2)) + np.uint64(40) <= vbr
    rest = vb & np.uint64(3)
    closer_hi = (rest > 2) | (rest == 2) & (s & np.uint64(1)).astype(bool)
    f = s + np.where(lo_in != hi_in, hi_in, closer_hi)
    return np.where(short_lo != short_hi, s10 + short_hi * np.uint64(10), f), row


# the slots a rendered value may fill, in order: sign, "0." and three zeros
# (1e-4 <= |x| < 1), 18 digits with a point slot after each of the first
# 17, and the exponent's "e", sign and three digits
_TEMPLATE = np.frombuffer(b"-0.000" + b"0." * 17 + b"0" + b"e+000", dtype=np.uint8)[:, None]
_DIGITS, _POINTS, _EXPONENT = slice(6, 41, 2), slice(7, 40, 2), 41
_SLOT = np.arange(18, dtype=np.int16)[:, None]
_UP = np.arange(17, dtype=np.uint8)[:, None]
_DOWN = _UP[::-1].copy()
# nan (for either sign), 0.0 and inf, written over a value's first three slots
_LITERALS = np.frombuffer(b"nan0.0inf", dtype=np.uint8).reshape(3, 3)


def _render(values) -> np.ndarray:
    """Each value's Python ``repr`` as a column of a uint8 matrix, NUL in
    the slots it leaves empty; rows no value uses are dropped.

    ``repr`` writes the shortest round-trip digits d_1..d_n of a finite
    nonzero x = 0.d_1..d_n * 10**p positionally for -4 < p <= 16, with
    ``.0`` on whole numbers, and else as d_1.d_2..d_ne-XX with at least two
    exponent digits; the digits here are the Schubfach kernel's.
    """
    x = np.ascontiguousarray(values, dtype=float).ravel()
    bits = x.view(np.uint64)
    f, row = _shortest(bits)
    chars = np.empty((len(_TEMPLATE), len(x)), dtype=np.uint8)
    chars[:] = _TEMPLATE
    digits = chars[_DIGITS]
    high = f // np.uint64(10**8)
    low = (f - high * np.uint64(10**8)).astype(np.uint32)
    digits[0] = high // np.uint64(10**8)
    high = (high - digits[0] * np.uint64(10**8)).astype(np.uint32)
    ten = np.uint32(10)
    for j in range(8, 0, -1):
        tens = high // ten
        digits[j] = high - tens * ten
        high = tens
        tens = low // ten
        digits[8 + j] = low - tens * ten
        low = tens
    nonzero = digits[:17] != 0
    first = 16 - (nonzero * _DOWN).max(axis=0).astype(np.int16)
    last = (nonzero * _UP).max(axis=0).astype(np.int16)
    digits[:17] += ord("0")
    point = _TABLE_K.take(row) + 17  # the decimal point follows slot point - 1
    p = point - first
    exponent = (p <= -4) | (p > 16)
    fraction = (p <= 0) & ~exponent
    whole = ~(exponent | fraction)
    end = np.where(whole, np.maximum(last, point), last)
    dot = np.where(whole, point - 1, np.where(exponent & (last > first), first, -1))
    digits *= (_SLOT >= first) & (_SLOT <= end)
    chars[_POINTS] *= _SLOT[:17] == dot
    chars[0] *= np.signbit(x)
    chars[1:3] *= fraction
    chars[3:6] *= fraction & (_SLOT[1:4] <= -p)
    e = np.abs(p - 1)
    tens = e // 10
    chars[_EXPONENT + 1] = np.where(p > 0, ord("+"), ord("-"))
    chars[_EXPONENT + 2] = (ord("0") + tens // 10) * (e >= 100)
    chars[_EXPONENT + 3] = ord("0") + tens - tens // 10 * 10
    chars[_EXPONENT + 4] = ord("0") + e - tens * 10
    chars[_EXPONENT:] *= exponent
    special = (bits << np.uint64(1)) - np.uint64(1) >= np.uint64(0xFFE0_0000_0000_0000 - 1)
    if special.any():  # zeros, infinities and NaNs
        cols = np.flatnonzero(special)
        twice = bits[cols] << np.uint64(1)
        kind = (twice == 0) + 2 * (twice == np.uint64(0xFFE0_0000_0000_0000))
        chars[1:, cols] = 0
        chars[6:9, cols] = _LITERALS[kind].T
        chars[0, cols] *= kind != 0
    return chars[chars.any(axis=1)]


_COMMA = np.array([[ord(",")]], dtype=np.uint8)
_CRLF = np.array([[ord("\r")], [ord("\n")]], dtype=np.uint8)


def _write_csv(path, header, blocks) -> None:
    """Write a CSV file block by block, every line ending in CRLF.

    Each block is a list of ``_render`` matrices, one per column, with one
    matrix column per row.  Every field is its float's ``repr``, from the
    Schubfach kernel (``tests/test_cli.py`` checks it equal to ``repr``),
    and float fields never need quoting, so the text equals what
    ``csv.writer`` writes with one ``repr`` per field.  One block at a time,
    sized by ``core._blocks``, is held in memory.
    """
    with open(path, "wb") as fh:
        fh.write(",".join(header).encode() + b"\r\n")
        for columns in blocks:
            n = columns[0].shape[1]
            parts = [np.broadcast_to(_COMMA, (1, n))] * (2 * len(columns))
            parts[::2] = columns
            parts[-1] = np.broadcast_to(_CRLF, (2, n))
            text = np.concatenate(parts).T
            fh.write(text[text != 0].tobytes())


def _write_columns(path, header, columns) -> None:
    """One row per index of the equal-length float ``columns``."""
    rows = _blocks(len(columns[0]), _CSV_ROW_BYTES)
    _write_csv(path, header, ([_render(c[block]) for c in columns] for block in rows))


def _packed(values) -> np.ndarray:
    """``_render`` with each value's text moved to the top of its column,
    so the matrix is no taller than the longest text; for short tables."""
    text = [col.tobytes().replace(b"\0", b"") for col in _render(values).T]
    return np.ascontiguousarray(np.array(text).view(np.uint8).reshape(len(text), -1).T)


def _write_grid(path, header, field, inside) -> None:
    """One row per grid cell over a spatial cell ``inside``, in C order:
    the cell's centres, then its value.  Axes are rendered once; a block
    gathers the x1 and x2 text of each of its cells once and repeats it
    along the time axis."""
    axes = [_packed(field.grid.centers(axis)) for axis in range(field.values.ndim)]
    cells = np.flatnonzero(inside)
    times = field.values.size // inside.size  # > 1 on a space-time grid
    values = field.values.reshape(inside.size, times)

    def block(rows):
        first, stop = rows.start // times, -(-rows.stop // times)
        cell = cells[first:stop]
        head = rows.start - first * times
        text = [axis[:, i] for axis, i in zip(axes, np.unravel_index(cell, inside.shape))]
        if times > 1:
            # rows of each cell in the block: all its times but at the cut ends
            counts = np.full(len(cell), times)
            counts[0] -= head
            counts[-1] -= stop * times - rows.stop
            text = [np.repeat(t, counts, axis=1) for t in text]
            text.append(axes[-1][:, np.arange(rows.start, rows.stop) % times])
        return text + [_render(values[cell].ravel()[head : head + rows.stop - rows.start])]

    _write_csv(path, header, map(block, _blocks(len(cells) * times, _CSV_ROW_BYTES)))


def emit_pattern(path, pattern) -> None:
    """Write a pattern's events, one row each, through ``_write_csv``."""
    pts = pattern.points
    _write_columns(path, ["x1", "x2", "t"][: pts.shape[1]], pts.T)


def _write_curves(path, args, observed, lower, upper) -> None:
    _write_columns(path, ["arg", "observed", "lo", "hi"], (args, observed, lower, upper))


def _write_curve_pair(out_dir, names, res, split, outputs) -> None:
    """Write a combined two-component envelope as two curves files, split at ``split``."""
    for name, part in zip(names, (slice(None, split), slice(split, None))):
        _write_curves(
            out_dir / name, res.args[part], res.observed[part], res.lower[part], res.upper[part]
        )
    outputs += names


def _write_field_2d(path, field) -> None:
    _write_grid(path, ["x1", "x2", "value"], field, field.mask)


def _write_field_1d(path, field) -> None:
    _write_columns(path, ["t", "value"], (field.grid.centers(0), field.values))


def _write_field_3d(path, field) -> None:
    _write_grid(path, ["x1", "x2", "t", "value"], field, field.mask[:, :, 0])


# ---------------------------------------------------------------- pipeline


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _bandwidths(pattern, cfg, seed):
    """Temporal (plug-in) and spatial (cross-validated) bandwidths."""
    sp, tp = project(pattern)
    b_t = cfg["bandwidth.temporal"]
    if b_t is None:
        b_t = select_bandwidth_temporal(tp)
    b_s = cfg["bandwidth.spatial"]
    if b_s is None:
        b_s = select_bandwidth_spatial(
            sp,
            cfg["bandwidth.search.candidates"]
            or default_candidates(pattern.window, cfg["bandwidth.search.n_candidates"]),
            folds=cfg["bandwidth.search.folds"], retention=cfg["bandwidth.search.retention"],
            repeats=cfg["bandwidth.search.repeats"], seed=seed,
        )
    return float(b_s), float(b_t)


# ---------------------------------------------------------------- config


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_time(v) -> bool:
    """Whether ``v`` is a number or a string ``_parse_time`` reads as one."""
    if not isinstance(v, str):
        return _is_number(v)
    try:
        return math.isfinite(_parse_time(v))
    except ValueError:
        return False


def _is_list(v, n, item) -> bool:
    """Whether ``v`` is a list of ``n`` (None: one or more) values ``item`` accepts."""
    return isinstance(v, (list, tuple)) and 0 < len(v) == (n or len(v)) and all(map(item, v))


# what a config value must be -> its check; "a number" values resolve to floats
_CHECKS = {
    "a string": lambda v: isinstance(v, str),
    "true or false": lambda v: isinstance(v, bool),
    "'equirect' or 'degrees'": lambda v: v in ("equirect", "degrees"),
    "'constant' or 'kernel'": lambda v: v in ("constant", "kernel"),
    "an integer >= 0": lambda v: _is_int(v) and v >= 0,
    "an integer >= 1": lambda v: _is_int(v) and v >= 1,
    "an integer >= 2": lambda v: _is_int(v) and v >= 2,
    "an integer >= 3": lambda v: _is_int(v) and v >= 3,
    "a number >= 0": lambda v: _is_number(v) and v >= 0,
    "a number > 0": lambda v: _is_number(v) and v > 0,
    "a number in (0, 1]": lambda v: _is_number(v) and 0 < v <= 1,
    "a number in (0, 1)": lambda v: _is_number(v) and 0 < v < 1,
    "a list of 2 numbers": lambda v: _is_list(v, 2, _is_number),
    "a list of 2 times": lambda v: _is_list(v, 2, _is_time),
    "a list of 2 integers >= 1": lambda v: _is_list(v, 2, _CHECKS["an integer >= 1"]),
    "a list of 3 integers >= 1": lambda v: _is_list(v, 3, _CHECKS["an integer >= 1"]),
    "an ascending list of numbers > 0":
        lambda v: _is_list(v, None, _CHECKS["a number > 0"]) and list(v) == sorted(v),
}

_REQUIRED = "required"  # default of a key that must be given whenever its block is

# Every config key the CLI reads, by dotted name: (what its value must be,
# its default).  null is accepted where the default is null.  The null
# defaults of kgrid.r_max, kgrid.tau_max, bandwidth.search.candidates,
# homogenize.target_count and homogenize.resolution are derived from the
# window or the pattern, that of grids.spacetime from the task, where they
# are used; null bandwidths are selected from the data.
_KEYS = {
    "input": ("a string", None),
    "output_dir": ("a string", "stpp-output"),
    "seed": ("an integer >= 0", 0),
    "projection": ("'equirect' or 'degrees'", "equirect"),
    "window.x1": ("a list of 2 numbers", None), "window.x2": ("a list of 2 numbers", None),
    "window.t": ("a list of 2 numbers", [0.0, 1.0]),
    "window.lon": ("a list of 2 numbers", None), "window.lat": ("a list of 2 numbers", None),
    "window.time": ("a list of 2 times", None),
    "jitter": ("true or false", False),
    "pi0": ("a number in (0, 1]", 0.025),
    "versions": ("an integer >= 1", 1),
    "intensity": ("'constant' or 'kernel'", "constant"),
    "emit_spacetime": ("true or false", False),
    "test.B": ("an integer >= 1", 199),
    "test.alpha": ("a number in (0, 1)", 0.05),
    "grids.spatial": ("a list of 2 integers >= 1", [256, 256]),
    "grids.temporal": ("an integer >= 1", 1000),
    "grids.spacetime": ("a list of 3 integers >= 1", None),
    "bandwidth.spatial": ("a number > 0", None), "bandwidth.temporal": ("a number > 0", None),
    "bandwidth.search.candidates": ("an ascending list of numbers > 0", None),
    "bandwidth.search.n_candidates": ("an integer >= 1", 16),
    "bandwidth.search.folds": ("an integer >= 2", 10),
    "bandwidth.search.retention": ("a number in (0, 1]", 0.025),
    "bandwidth.search.repeats": ("an integer >= 1", 50),
    "kgrid.r_max": ("a number > 0", None), "kgrid.tau_max": ("a number > 0", None),
    "kgrid.n_r": ("an integer >= 3", 50), "kgrid.n_tau": ("an integer >= 3", 50),
    "homogenize.target_count": ("a number > 0", None),
    "homogenize.resolution": ("an integer >= 1", None),
    "simulate.lambda": ("a number >= 0", 100.0),
    "simulate.pi0": ("a number in (0, 1]", None),
    "prop2.lambda": ("a number >= 0", 4000.0),
    "prop2.lam_floor": ("a number >= 0", 100.0),
    "prop2.p": ("a number in (0, 1)", 0.05),
    "prop2.r": ("a number > 0", 0.1), "prop2.tau": ("a number > 0", 0.05),
    "prop2.order": ("an integer >= 2", 30),
    "prop2.seeds": ("an integer >= 1", 50),
    "prop2.thinnings": ("an integer >= 1", 4),
}
_CLUSTER = ("kappa", "mean_offspring", "sigma", "sigma_t")
_KEYS.update({f"{block}.cluster.{k}": ("a number > 0", _REQUIRED)
              for block in ("simulate", "prop2") for k in _CLUSTER})
# the dotted names of the blocks: every prefix of a key
_BLOCK_KEYS = {key[:i] for key in _KEYS for i, c in enumerate(key) if c == "."}


def _lookup(config: dict, key: str):
    """The config's value of the dotted ``key``, checked, else its default."""
    what, default = _KEYS[key]
    *blocks, name = key.split(".")
    node = config
    for depth, block in enumerate(blocks):
        if block not in node:
            return None if default is _REQUIRED else default
        node = node[block]
        if not isinstance(node, dict):
            raise ValueError(f"{'.'.join(blocks[:depth + 1])} must be a JSON object, got {node!r}")
    if name not in node and default is _REQUIRED:
        raise KeyError(key)
    value = node.get(name, default)
    if value is None and default is None:
        return None
    if not _CHECKS[what](value):
        raise ValueError(f"{key} must be {what}, got {value!r}")
    return float(value) if what.startswith("a number") else value


def _resolve(config: dict) -> dict:
    """Each key of the table to the config's checked value, else its default."""
    blocks = [("", config)]
    for prefix, block in blocks:
        for name, value in block.items():
            key = prefix + name
            if key in _BLOCK_KEYS and isinstance(value, dict):
                blocks.append((key + ".", value))
            elif key not in _KEYS and key not in _BLOCK_KEYS:
                raise ValueError(f"unknown config key {key!r}")
    return {key: _lookup(config, key) for key in _KEYS}


# ---------------------------------------------------------------- tasks


@contextmanager
def _output_dir(out_dir: Path, force: bool):
    """Make the output directory and its missing parents; if the run fails,
    those this run made are removed again while they are empty.

    Refuses a nonempty directory unless ``force`` is set.
    """
    made = [d for d in (out_dir, *out_dir.parents) if not d.exists()]  # deepest first
    if not made and any(out_dir.iterdir()) and not force:
        raise FileExistsError(f"output directory {out_dir} is not empty; use --force")
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        yield out_dir
    except BaseException:
        for d in made:
            if any(d.iterdir()):
                break
            d.rmdir()
        raise


def run(config: dict, task: str, seed=None, threads=1, force=False, skip_bad=False):
    """Execute one pipeline task and write its artifacts.

    The config is resolved against the key table before any output exists
    or any work is done.  Returns the output directory.  Refuses to reuse a
    nonempty output directory unless ``force`` is set.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; choose from {', '.join(TASKS)}")
    window, context = build_window(config)
    cfg = _resolve(config)
    if task not in ("simulate", "prop2-check") and cfg["input"] is None:
        raise KeyError("input")
    seed = cfg["seed"] if seed is None else seed
    with _output_dir(Path(cfg["output_dir"]), force) as out_dir:
        report = {"task": task, "seed": seed}
        outputs = ["report.json"]
        if task == "simulate":
            pattern = _task_simulate(cfg, window, seed, report)
            emit_pattern(out_dir / "pattern.csv", pattern)
            outputs.append("pattern.csv")
        elif task == "prop2-check":
            _task_prop2(cfg, report)
        else:
            pattern = ingest(cfg["input"], window, context, skip_bad=skip_bad, jitter=cfg["jitter"])
            report["n_events"] = len(pattern)
            task_fn = {"intensity": _task_intensity, "separability": _task_separability,
                       "ripley-k": partial(_task_ripley_k, threads=threads),
                       "homogenize": _task_homogenize}[task]
            task_fn(pattern, cfg, seed, report, out_dir, outputs)
        _write_json(out_dir / "report.json", report)
        manifest = {
            "task": task,
            "config": cfg,
            "config_hash": _config_hash(config),
            "seed": seed,
            "threads": threads,
            "version": __version__,
            "outputs": sorted(outputs),
            "created_utc": datetime.now(timezone.utc).isoformat(),
        }
        _write_json(out_dir / "manifest.json", manifest)
    return out_dir


def _write_json(path, obj) -> None:
    """Strict JSON: a non-finite float is written as null."""
    with open(path, "w") as fh:
        json.dump(_finite(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _finite(obj):
    """``obj`` with every non-finite float in its dicts and lists replaced by None."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def _task_simulate(cfg, window, seed, report):
    model, report["model"] = _model(cfg, "simulate")
    simulate = simulate_cluster if isinstance(model, ClusterModel) else simulate_poisson
    pattern = simulate(model, window, substream(seed, 0))
    pi0 = cfg["simulate.pi0"]
    if pi0 is not None:
        pattern = thin(pattern, pi0, substream(seed, 1))
        report["pi0"] = pi0
    report["n_events"] = len(pattern)
    return pattern


def _thinned(pattern, cfg, seed, report):
    pi0 = cfg["pi0"]
    report["pi0"] = pi0
    if pi0 == 1.0:
        return pattern, 1.0
    sub = thin(pattern, pi0, substream(seed, 7))
    report["n_subsample"] = len(sub)
    return sub, pi0


def _task_intensity(pattern, cfg, seed, report, out_dir, outputs):
    window = pattern.window
    b_s, b_t = _bandwidths(pattern, cfg, seed)
    report.update(bandwidth_spatial=b_s, bandwidth_temporal=b_t)
    sp, tp = project(pattern)
    lam_s = estimate_lambda_s(sp, KernelSpec(b_s), GridSpec.spatial(window, *cfg["grids.spatial"]))
    lam_t = estimate_lambda_t(tp, KernelSpec(b_t), GridSpec.temporal(window, cfg["grids.temporal"]))
    _write_field_2d(out_dir / "intensity_s.csv", lam_s)
    _write_field_1d(out_dir / "intensity_t.csv", lam_t)
    outputs += ["intensity_s.csv", "intensity_t.csv"]
    report["integral_s"] = lam_s.integrate()
    report["integral_t"] = lam_t.integrate()
    if cfg["emit_spacetime"]:
        # the space-time product-kernel field is estimated on a thinned
        # subsample and divided by the retention to recover the parent scale
        sub, pi0 = _thinned(pattern, cfg, seed, report)
        lam_st = estimate_lambda_st(
            sub, KernelSpec(b_s), KernelSpec(b_t),
            GridSpec.spacetime(window, *(cfg["grids.spacetime"] or (64, 64, 250))),
            pi0=pi0,
        )
        _write_field_3d(out_dir / "intensity_st.csv", lam_st)
        outputs.append("intensity_st.csv")
        report["integral_st"] = lam_st.integrate()


def _task_separability(pattern, cfg, seed, report, out_dir, outputs):
    B, alpha = cfg["test.B"], cfg["test.alpha"]
    # the analysis can be repeated on several independent subsamples to
    # check the robustness of the conclusion; curves, bandwidths and the
    # subsample size come from the first
    p_values = []
    for v in range(cfg["versions"]):
        sub, _ = _thinned(pattern, cfg, (seed, v), report if v == 0 else {})
        b_s, b_t = _bandwidths(sub, cfg, seed)
        grid = GridSpec.spacetime(sub.window, *(cfg["grids.spacetime"] or (32, 32, 100)))
        res = separability_test(
            sub, KernelSpec(b_s), KernelSpec(b_t), B=B, alpha=alpha, grid=grid, seed=(seed, 11, v),
        )
        p_values.append(res.p_value)
        if v == 0:
            _write_curve_pair(
                out_dir, ["curves_St.csv", "curves_Ss.csv"], res, grid.shape[2], outputs
            )
            report.update(bandwidth_spatial=b_s, bandwidth_temporal=b_t,
                          p_value=res.p_value, rejected=bool(res.rejected))
    report.update(p_values=p_values, B=B, alpha=alpha)


def _task_ripley_k(pattern, cfg, seed, report, out_dir, outputs, threads):
    B, alpha = cfg["test.B"], cfg["test.alpha"]
    sub, pi0 = _thinned(pattern, cfg, seed, report)
    window = sub.window
    default = KGrid.default(window, cfg["kgrid.n_r"], cfg["kgrid.n_tau"])
    r_max, tau_max = cfg["kgrid.r_max"], cfg["kgrid.tau_max"]
    grid = KGrid(
        default.r if r_max is None else np.linspace(0.0, r_max, len(default.r)),
        default.tau if tau_max is None else np.linspace(0.0, tau_max, len(default.tau)),
    )
    lam_mode = cfg["intensity"]
    if lam_mode == "constant":
        lam = len(sub) / window.volume
    else:
        b_s, b_t = _bandwidths(sub, cfg, seed)
        report.update(bandwidth_spatial=b_s, bandwidth_temporal=b_t)
        lam = estimate_lambda_st(
            sub, KernelSpec(b_s), KernelSpec(b_t),
            GridSpec.spacetime(window, *(cfg["grids.spacetime"] or (32, 32, 100))),
        )
    obs_est = estimate_K(sub, lam, grid)
    report["winsorized_pairs"] = obs_est.winsorized_pairs
    kt_obs, ks_obs = average_K(obs_est)

    def one_replicate(b):
        rep = simulate_poisson(lam, window, substream(seed, 100 + b))
        lam_rep = len(rep) / window.volume if lam_mode == "constant" else lam
        return average_K(estimate_K(rep, lam_rep, grid))

    kt_reps, ks_reps = (np.array(c) for c in zip(*parallel_map(one_replicate, B, threads)))
    res = combined_erl_test(
        [CurveSet(grid.tau, kt_obs, kt_reps), CurveSet(grid.r, ks_obs, ks_reps)],
        alpha=alpha,
    )
    _write_curve_pair(out_dir, ["curves_Kt.csv", "curves_Ks.csv"], res, len(grid.tau), outputs)
    report.update(p_value=res.p_value, B=B, alpha=alpha, rejected=bool(res.rejected), pi0=pi0)


def _task_homogenize(pattern, cfg, seed, report, out_dir, outputs):
    sp, _ = project(pattern)
    target_count = cfg["homogenize.target_count"] or 0.1 * len(pattern)
    sub, rep = homogenize(sp, target_count, seed, cfg["homogenize.resolution"])
    emit_pattern(out_dir / "pattern_homogenized.csv", sub)
    outputs.append("pattern_homogenized.csv")
    report.update(vars(rep))


def _task_prop2(cfg, report):
    r, tau, p = cfg["prop2.r"], cfg["prop2.tau"], cfg["prop2.p"]
    f, g, j = poisson_series_fgj(cfg["prop2.lam_floor"], p, r, tau, cfg["prop2.order"])
    report["series"] = {"F": f, "G": g, "J": j}
    model, _ = _model(cfg, "prop2")
    res = j_residual_ratio(model, p=p, r=r, tau=tau, seeds=range(cfg["prop2.seeds"]),
                           thinnings=cfg["prop2.thinnings"])
    report["residual_ratio"] = res["ratio"]
    report["residuals"] = {str(k): v for k, v in res["residuals"].items()}


def _model(cfg, block: str):
    """The model of the ``simulate`` or ``prop2`` block and its report entry:
    a ClusterModel if ``cluster`` is given, else the number ``lambda``."""
    cluster = {k: cfg[f"{block}.cluster.{k}"] for k in _CLUSTER}
    if cluster["kappa"] is not None:
        return ClusterModel(**cluster), {"cluster": cluster}
    lam = cfg[f"{block}.lambda"]
    return lam, {"lambda": lam}


def _thread_count(flag: str | None) -> int:
    """The ``--threads`` value, else ``STPP_THREADS``, else 1, as an integer >= 1."""
    if flag is None:
        source, raw = "STPP_THREADS", os.environ.get("STPP_THREADS", "1")
    else:
        source, raw = "--threads", flag
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise ValueError(f"{source} must be an integer >= 1, got {raw!r}")
    return threads


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stpp",
        description="Spatio-temporal point pattern analysis pipelines",
    )
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="JSON pipeline configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--threads",
        help="worker threads for ripley-k's replicate farm (env STPP_THREADS, default 1); "
        "the Voronoi owner raster runs on os.cpu_count() threads whatever this says",
    )
    parser.add_argument("--force", action="store_true", help="overwrite existing outputs")
    parser.add_argument("--skip-bad", action="store_true", help="skip malformed input rows")
    args = parser.parse_args(argv)
    try:
        threads = _thread_count(args.threads)
        if args.seed is not None and args.seed < 0:
            raise ValueError(f"--seed must be an integer >= 0, got {args.seed}")
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: the configuration must be a JSON object")
        out = run(
            config, args.task,
            seed=args.seed, threads=threads,
            force=args.force, skip_bad=args.skip_bad,
        )
    except json.JSONDecodeError as exc:
        message = f"{args.config}: malformed JSON: {exc}"
    except KeyError as exc:
        message = f"missing config key {exc}"
    except MemoryError as exc:
        message = f"out of memory: {exc}"
    except (ValueError, OSError) as exc:
        message = str(exc)
    else:
        print(out)
        return 0
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
