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
from itertools import compress, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .bandwidth import (
    BandwidthSearch,
    default_candidates,
    select_bandwidth_spatial,
    select_bandwidth_temporal,
)
from .core import GridSpec, SpaceTimePattern, Window, parallel_map, project, substream
from .homogenize import HomogenizeConfig, homogenize
from .inference import CurveSet, combined_erl_test
from .intensity import KernelSpec, estimate_lambda_s, estimate_lambda_st, estimate_lambda_t
from .secondorder import (
    KGrid,
    SeriesDiagnostics,
    average_K,
    estimate_K,
    j_residual_ratio,
    poisson_series_fgj,
)
from .separability import separability_test
from .simulate import ClusterModel, simulate_cluster, simulate_poisson, thin

EARTH_RADIUS_KM = 6371.0

TASKS = ("intensity", "separability", "ripley-k", "homogenize", "simulate", "prop2-check")


# rows of a pattern file formatted and written at a time
_BLOCK_ROWS = 1 << 16


def _fmt(values) -> list[str]:
    """Each value as a Python float's shortest round-trip ``repr``."""
    return list(map(repr, np.asarray(values, dtype=float).ravel().tolist()))


# ---------------------------------------------------------------- ingestion


def _parse_time(raw: str, origin: float | None):
    raw = raw.strip()
    try:
        return float(raw) - (origin or 0.0)
    except ValueError:
        pass
    stamp = raw.replace("Z", "+00:00")
    dt = datetime.fromisoformat(stamp)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp() - (origin or 0.0)


def _project_lonlat(lon, lat, lat0):
    """Equirectangular projection (km) about the reference latitude."""
    x1 = EARTH_RADIUS_KM * math.cos(math.radians(lat0)) * np.radians(lon)
    x2 = EARTH_RADIUS_KM * np.radians(lat)
    return x1, x2


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
    if geographic:
        t0, t1 = (_parse_time(str(v), None) for v in wc["time"])
        if projection == "degrees":
            window = Window(tuple(wc["lon"]), tuple(wc["lat"]), (0.0, t1 - t0))
            return window, {"mode": "degrees", "time_origin": t0}
        lat0 = 0.5 * (wc["lat"][0] + wc["lat"][1])
        x1a, x2a = _project_lonlat(np.array(wc["lon"]), np.array(wc["lat"]), lat0)
        window = Window(tuple(map(float, x1a)), tuple(map(float, x2a)), (0.0, t1 - t0))
        return window, {"mode": "lonlat", "lat0": lat0, "time_origin": t0}
    window = Window(tuple(wc["x1"]), tuple(wc["x2"]), tuple(wc["t"]))
    return window, {"mode": "planar", "time_origin": 0.0}


def ingest(path, window: Window, context: dict, skip_bad=False, jitter=False) -> SpaceTimePattern:
    """Read an event CSV into a validated pattern.

    Geographic files carry a ``lon,lat,time`` header (ISO-8601 or epoch
    seconds) and are projected onto the planar window; planar files carry
    ``x1,x2,t``.  The header's form must be the window's.  Malformed rows
    abort with their line number unless ``skip_bad`` is set.

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
        points = _parse_columns(path, reader.line_num, geographic, context)
        if points is None:
            points = _parse_rows(path, reader, geographic, context, skip_bad)
    if not len(points):
        warnings.warn(f"{path}: no events parsed")
        return SpaceTimePattern(np.empty((0, 3)), window)
    return SpaceTimePattern(points, window, jitter=jitter)


def _parse_rows(path, reader, geographic: bool, context: dict, skip_bad: bool) -> np.ndarray:
    """The (n, 3) events of the rows left in ``reader``, parsed one row at a time."""
    rows = []
    bad = 0
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            if geographic:
                lon, lat = float(row[0]), float(row[1])
                t = _parse_time(row[2], context["time_origin"])
                if context["mode"] == "degrees":
                    rows.append((lon, lat, t))
                else:
                    x1, x2 = _project_lonlat(lon, lat, context["lat0"])
                    rows.append((float(x1), float(x2), t))
            else:
                rows.append((float(row[0]), float(row[1]), float(row[2])))
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


def _parse_columns(path, skiprows: int, geographic: bool, context: dict):
    """The (n, 3) events of the file parsed by columns, or None if the row
    parser is needed.

    ``np.loadtxt`` parses each number to the same float as ``float`` or
    rejects it.  Files with quotes or NUL characters are declined, so the
    fields are the ones ``csv.reader`` splits.
    """
    with open(path, "rb") as fb:
        data = fb.read()
    if b'"' in data or b"\0" in data:
        return None
    del data
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
    x1, x2, t = cols["a"], cols["b"], cols["c"]
    if geographic:
        t = _time_seconds(t)
        if t is None:
            return None
        t = t - context["time_origin"]
        if context["mode"] != "degrees":
            x1, x2 = _project_lonlat(x1, x2, context["lat0"])
    return np.column_stack([x1, x2, t])


def _time_seconds(fields):
    """Epoch seconds of byte-string time fields as ``_parse_time`` reads them,
    or None if some field needs the row parser.

    Either every field is epoch seconds, or every field has the exact layout
    ``YYYY-MM-DDTHH:MM:SS[.ffffff]Z``: numpy's datetime parser accepts more
    than ``datetime.fromisoformat`` (a ``+`` year sign, year 0), so the layout
    is checked character by character first.  Stamps are exact integer
    microseconds below 2**53, so dividing by 1e6 rounds as the row parser's
    ``timestamp()`` does.
    """
    raw = np.ascontiguousarray(fields)
    chars = raw.view(np.uint8).reshape(len(raw), _TIME_FIELD)
    if chars[:, -1].any():
        return None
    shape = chars.copy()
    np.putmask(shape, (chars >= ord("0")) & (chars <= ord("9")), ord("0"))
    words = shape.view(np.uint64)  # eight characters compared at a time
    stamps = np.zeros(len(raw), dtype=bool)
    for layout in _STAMP_LAYOUTS:
        stamps |= (words == layout).all(axis=1)
    if not stamps.all():
        try:
            return np.array([float(f) for f in raw.tolist()])
        except ValueError:
            return None
    chars[chars == ord("Z")] = 0
    try:
        micros = raw.astype("datetime64[us]").astype(np.int64)
    except ValueError:
        return None
    if (np.abs(micros) >= 2**53).any():
        return None
    return micros / 1e6


def _write_csv(path, header, blocks) -> None:
    """Write a CSV file block by block, every line ending in CRLF.

    Each block is a list of columns, each an iterable of field strings
    (``itertools.repeat`` for a constant one); a block's rows run to its
    shortest column.  Float fields never need quoting, so the text equals
    what ``csv.writer`` writes, and one block at a time is held in memory.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*columns)]))


def emit_pattern(path, pattern) -> None:
    pts = pattern.points
    header = ["x1", "x2", "t"] if pts.shape[1] == 3 else ["x1", "x2"]
    blocks = (
        [_fmt(col) for col in pts[start:start + _BLOCK_ROWS].T]
        for start in range(0, len(pts), _BLOCK_ROWS)
    )
    _write_csv(path, header, blocks)


def _write_curves(path, args, observed, lower, upper) -> None:
    columns = [_fmt(c) for c in (args, observed, lower, upper)]
    _write_csv(path, ["arg", "observed", "lo", "hi"], [columns])


def _write_curve_pair(out_dir, names, res, split, outputs) -> None:
    """Write a combined two-component envelope as two curves files, split at ``split``."""
    for name, part in zip(names, (slice(None, split), slice(split, None))):
        _write_curves(
            out_dir / name, res.args[part], res.observed[part], res.lower[part], res.upper[part]
        )
    outputs += names


def _write_field_2d(path, field) -> None:
    xs, ys = _fmt(field.grid.centers(0)), _fmt(field.grid.centers(1))
    blocks = (
        [repeat(x), compress(ys, keep), _fmt(values[keep])]
        for x, keep, values in zip(xs, field.mask, field.values)
    )
    _write_csv(path, ["x1", "x2", "value"], blocks)


def _write_field_1d(path, field) -> None:
    columns = [_fmt(field.grid.centers(0)), _fmt(field.values)]
    _write_csv(path, ["t", "value"], [columns])


def _write_field_3d(path, field) -> None:
    xs, ys, ts = (_fmt(field.grid.centers(axis)) for axis in range(3))
    blocks = (
        [repeat(xs[i]), repeat(ys[j]), ts, _fmt(field.values[i, j])]
        for i, j in zip(*np.nonzero(field.mask[:, :, 0]))
    )
    _write_csv(path, ["x1", "x2", "t", "value"], blocks)


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
        search = BandwidthSearch(
            cfg["bandwidth.search.candidates"]
            or default_candidates(pattern.window, cfg["bandwidth.search.n_candidates"]),
            folds=cfg["bandwidth.search.folds"], retention=cfg["bandwidth.search.retention"],
            repeats=cfg["bandwidth.search.repeats"], seed=seed,
        )
        b_s = select_bandwidth_spatial(sp, search)
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
        return math.isfinite(_parse_time(v, None))
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
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    hc = HomogenizeConfig(target_count, seed=seed, resolution=cfg["homogenize.resolution"])
    sub, rep = homogenize(sp, hc)
    emit_pattern(out_dir / "pattern_homogenized.csv", sub)
    outputs.append("pattern_homogenized.csv")
    report.update(vars(rep))


def _task_prop2(cfg, report):
    r, tau, p = cfg["prop2.r"], cfg["prop2.tau"], cfg["prop2.p"]
    diag = SeriesDiagnostics(lam_floor=cfg["prop2.lam_floor"], pi0=p, order=cfg["prop2.order"])
    f, g, j = poisson_series_fgj(diag, r, tau)
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
