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
# its own thread-count-dependent reduction orders underneath them.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import csv
import hashlib
import json
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
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
from .core import GridSpec, SpaceTimePattern, Window, project, substream
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
from .simulate import ClusterModel, IntensityModel, RetentionSpec, simulate_cluster, simulate_poisson, thin

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

    Geographic windows are projected to kilometres by default
    (``"projection": "equirect"``); ``"projection": "degrees"`` keeps raw
    longitude/latitude coordinates.  Any other projection is an error.
    """
    projection = config.get("projection", "equirect")
    if projection not in ("equirect", "degrees"):
        raise ValueError(f"projection must be 'equirect' or 'degrees', got {projection!r}")
    wc = config["window"]
    if "lon" in wc:
        t0 = _parse_time(str(wc["time"][0]), None)
        t1 = _parse_time(str(wc["time"][1]), None)
        if projection == "degrees":
            window = Window(tuple(wc["lon"]), tuple(wc["lat"]), (0.0, t1 - t0))
            return window, {"mode": "degrees", "time_origin": t0}
        lat0 = 0.5 * (wc["lat"][0] + wc["lat"][1])
        x1a, x2a = _project_lonlat(np.array(wc["lon"]), np.array(wc["lat"]), lat0)
        window = Window(
            (float(x1a[0]), float(x1a[1])),
            (float(x2a[0]), float(x2a[1])),
            (0.0, t1 - t0),
        )
        return window, {"mode": "lonlat", "lat0": lat0, "time_origin": t0}
    window = Window(
        tuple(wc["x1"]), tuple(wc["x2"]), tuple(wc.get("t", (0.0, 1.0)))
    )
    return window, {"mode": "planar", "time_origin": 0.0}


def ingest(path, window: Window, context: dict, skip_bad=False, jitter=False) -> SpaceTimePattern:
    """Read an event CSV into a validated pattern.

    Geographic files carry a ``lon,lat,time`` header (ISO-8601 or epoch
    seconds) and are projected onto the planar window; planar files carry
    ``x1,x2,t``.  Malformed rows abort with their line number unless
    ``skip_bad`` is set.

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


def parallel_map(fn, n_items: int, threads: int):
    """Index-ordered map over a thread pool; results merge by index."""
    results = [None] * n_items
    if threads <= 1:
        for i in range(n_items):
            results[i] = fn(i)
        return results
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for i, res in enumerate(pool.map(fn, range(n_items))):
            results[i] = res
    return results


def _config_hash(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _bandwidths(pattern, config, seed):
    """Temporal (plug-in) and spatial (cross-validated) bandwidths."""
    bw = config.get("bandwidth", {})
    sp, tp = project(pattern)
    b_t = bw.get("temporal")
    if b_t is None:
        b_t = select_bandwidth_temporal(tp)
    b_s = bw.get("spatial")
    if b_s is None:
        sc = bw.get("search", {})
        candidates = sc.get("candidates")
        candidates = (
            np.asarray(candidates, dtype=float)
            if candidates
            else default_candidates(pattern.window, sc.get("n_candidates", 16))
        )
        search = BandwidthSearch(
            candidates,
            folds=sc.get("folds", 10),
            retention=sc.get("retention", 0.025),
            repeats=sc.get("repeats", 50),
            seed=seed,
        )
        b_s = select_bandwidth_spatial(sp, search)
    return float(b_s), float(b_t)


def run(config: dict, task: str, seed=None, threads=1, force=False, skip_bad=False):
    """Execute one pipeline task and write its artifacts.

    Returns the output directory.  Refuses to reuse a nonempty output
    directory unless ``force`` is set.
    """
    if task not in TASKS:
        raise ValueError(f"unknown task {task!r}; choose from {', '.join(TASKS)}")
    seed = int(config.get("seed", 0) if seed is None else seed)
    window, context = build_window(config)
    out_dir = Path(config.get("output_dir", "stpp-output"))
    if out_dir.exists() and any(out_dir.iterdir()) and not force:
        raise FileExistsError(f"output directory {out_dir} is not empty; use --force")
    out_dir.mkdir(parents=True, exist_ok=True)

    report = {"task": task, "seed": seed}
    outputs = []

    def need_pattern():
        pat = ingest(
            config["input"], window, context,
            skip_bad=skip_bad, jitter=config.get("jitter", False),
        )
        report["n_events"] = len(pat)
        return pat

    pattern_tasks = {
        "intensity": _task_intensity,
        "separability": _task_separability,
        "ripley-k": partial(_task_ripley_k, threads=threads),
        "homogenize": _task_homogenize,
    }
    if task == "simulate":
        pattern = _task_simulate(config, window, seed, report)
        emit_pattern(out_dir / "pattern.csv", pattern)
        outputs.append("pattern.csv")
    elif task == "prop2-check":
        _task_prop2(config, report)
    else:
        pattern_tasks[task](need_pattern(), config, seed, report, out_dir, outputs)

    report_path = out_dir / "report.json"
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    outputs.append("report.json")

    manifest = {
        "task": task,
        "config_hash": _config_hash(config),
        "seed": seed,
        "threads": threads,
        "version": __version__,
        "outputs": sorted(outputs),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return out_dir


def _task_simulate(config, window, seed, report):
    sc = config.get("simulate", {})
    if "cluster" in sc:
        cc = sc["cluster"]
        model = ClusterModel(cc["kappa"], cc["mean_offspring"], cc["sigma"], cc["sigma_t"])
        pattern = simulate_cluster(model, window, substream(seed, 0))
        report["model"] = {"cluster": cc}
    else:
        lam = float(sc.get("lambda", 100.0))
        pattern = simulate_poisson(IntensityModel.const(lam), window, substream(seed, 0))
        report["model"] = {"lambda": lam}
    pi0 = sc.get("pi0")
    if pi0 is not None:
        pattern = thin(pattern, RetentionSpec.constant(pi0), substream(seed, 1))
        report["pi0"] = pi0
    report["n_events"] = len(pattern)
    return pattern


def _thinned(pattern, config, seed, report):
    pi0 = float(config.get("pi0", 0.025))
    report["pi0"] = pi0
    if pi0 >= 1.0:
        return pattern, 1.0
    sub = thin(pattern, RetentionSpec.constant(pi0), substream(seed, 7))
    report["n_subsample"] = len(sub)
    return sub, pi0


def _task_intensity(pattern, config, seed, report, out_dir, outputs):
    grids = config.get("grids", {})
    nx, ny = grids.get("spatial", (256, 256))
    nt = grids.get("temporal", 1000)
    b_s, b_t = _bandwidths(pattern, config, seed)
    report["bandwidth_spatial"] = b_s
    report["bandwidth_temporal"] = b_t
    sp, tp = project(pattern)
    lam_s = estimate_lambda_s(sp, KernelSpec(b_s), GridSpec.spatial(pattern.window, nx, ny))
    lam_t = estimate_lambda_t(tp, KernelSpec(b_t), GridSpec.temporal(pattern.window, nt))
    _write_field_2d(out_dir / "intensity_s.csv", lam_s.field)
    _write_field_1d(out_dir / "intensity_t.csv", lam_t.field)
    outputs += ["intensity_s.csv", "intensity_t.csv"]
    report["integral_s"] = lam_s.integrate()
    report["integral_t"] = lam_t.integrate()
    if config.get("emit_spacetime", False):
        # the space-time product-kernel field is estimated on a thinned
        # subsample and divided by the retention to recover the parent scale
        sub, pi0 = _thinned(pattern, config, seed, report)
        gx, gy, gt = grids.get("spacetime", (64, 64, 250))
        retention = RetentionSpec.constant(pi0) if pi0 < 1.0 else None
        lam_st = estimate_lambda_st(
            sub, KernelSpec(b_s), KernelSpec(b_t),
            GridSpec.spacetime(pattern.window, gx, gy, gt), retention=retention,
        )
        _write_field_3d(out_dir / "intensity_st.csv", lam_st.field)
        outputs.append("intensity_st.csv")
        report["integral_st"] = lam_st.integrate()


def _task_separability(pattern, config, seed, report, out_dir, outputs):
    test_cfg = config.get("test", {})
    B = int(test_cfg.get("B", 199))
    alpha = float(test_cfg.get("alpha", 0.05))
    # the analysis can be repeated on several independent subsamples to
    # check the robustness of the conclusion; curves come from the first
    versions = int(config.get("versions", 1))
    grids = config.get("grids", {})
    gx, gy, gt = grids.get("spacetime", (32, 32, 100))
    p_values = []
    for v in range(versions):
        sub, _ = _thinned(pattern, config, (seed, v), report)
        b_s, b_t = _bandwidths(sub, config, seed)
        res = separability_test(
            sub, KernelSpec(b_s), KernelSpec(b_t),
            B=B, alpha=alpha, grid=GridSpec.spacetime(sub.window, gx, gy, gt),
            seed=(seed, 11, v),
        )
        p_values.append(res.p_value)
        if v == 0:
            report["bandwidth_spatial"] = b_s
            report["bandwidth_temporal"] = b_t
            _write_curve_pair(out_dir, ["curves_St.csv", "curves_Ss.csv"], res, gt, outputs)
            report["p_value"] = res.p_value
            report["rejected"] = bool(res.rejected)
    report["p_values"] = p_values
    report["B"] = B
    report["alpha"] = alpha


def _task_ripley_k(pattern, config, seed, report, out_dir, outputs, threads):
    test_cfg = config.get("test", {})
    B = int(test_cfg.get("B", 199))
    alpha = float(test_cfg.get("alpha", 0.05))
    sub, pi0 = _thinned(pattern, config, seed, report)
    window = sub.window
    kc = config.get("kgrid", {})
    r_max = kc.get("r_max") or 0.2 * math.sqrt(window.area)
    tau_max = kc.get("tau_max") or 0.0075 * window.duration
    grid = KGrid(
        np.linspace(0.0, r_max, int(kc.get("n_r", 50))),
        np.linspace(0.0, tau_max, int(kc.get("n_tau", 50))),
    )
    lam_mode = config.get("intensity", "constant")
    if lam_mode == "constant":
        lam = len(sub) / window.volume
        model = IntensityModel.const(lam)
    else:
        gx, gy, gt = config.get("grids", {}).get("spacetime", (32, 32, 100))
        b_s, b_t = _bandwidths(sub, config, seed)
        report["bandwidth_spatial"] = b_s
        report["bandwidth_temporal"] = b_t
        est = estimate_lambda_st(
            sub, KernelSpec(b_s), KernelSpec(b_t),
            GridSpec.spacetime(window, gx, gy, gt),
        )
        lam = est
        model = IntensityModel(field=est.field)
    obs_est = estimate_K(sub, lam, grid)
    report["winsorized_pairs"] = obs_est.winsorized_pairs
    kt_obs, ks_obs = average_K(obs_est)

    def one_replicate(b):
        rep = simulate_poisson(model, window, substream(seed, 100 + b))
        lam_rep = len(rep) / window.volume if lam_mode == "constant" else lam
        kt, ks = average_K(estimate_K(rep, lam_rep, grid))
        return kt, ks

    curves = parallel_map(one_replicate, B, threads)
    kt_reps = np.array([c[0] for c in curves])
    ks_reps = np.array([c[1] for c in curves])
    res = combined_erl_test(
        [CurveSet(grid.tau, kt_obs, kt_reps), CurveSet(grid.r, ks_obs, ks_reps)],
        alpha=alpha,
    )
    _write_curve_pair(out_dir, ["curves_Kt.csv", "curves_Ks.csv"], res, len(grid.tau), outputs)
    report["p_value"] = res.p_value
    report["B"] = B
    report["alpha"] = alpha
    report["rejected"] = bool(res.rejected)
    report["pi0"] = pi0


def _task_homogenize(pattern, config, seed, report, out_dir, outputs):
    hc = config.get("homogenize", {})
    sp, _ = project(pattern)
    cfg = HomogenizeConfig(
        target_count=float(hc.get("target_count", 0.1 * len(pattern))),
        seed=seed,
        resolution=hc.get("resolution"),
    )
    sub, rep = homogenize(sp, cfg)
    emit_pattern(out_dir / "pattern_homogenized.csv", sub)
    outputs.append("pattern_homogenized.csv")
    report.update(
        {
            "mu": rep.mu,
            "level_area": rep.level_area,
            "n_cells": rep.n_cells,
            "loss_at_minimum": rep.loss_at_minimum,
            "retained": rep.retained,
            "quadrat_statistic": rep.quadrat_statistic,
            "quadrat_p": rep.quadrat_p,
        }
    )


def _task_prop2(config, report):
    pc = config.get("prop2", {})
    r = float(pc.get("r", 0.1))
    tau = float(pc.get("tau", 0.05))
    p = float(pc.get("p", 0.05))
    diag = SeriesDiagnostics(
        lam_floor=float(pc.get("lam_floor", 100.0)),
        pi0=p,
        order=int(pc.get("order", 30)),
    )
    f, g, j = poisson_series_fgj(diag, r, tau)
    report["series"] = {"F": f, "G": g, "J": j}
    if "cluster" in pc:
        cc = pc["cluster"]
        model = ClusterModel(cc["kappa"], cc["mean_offspring"], cc["sigma"], cc["sigma_t"])
    else:
        model = IntensityModel.const(float(pc.get("lambda", 4000.0)))
    res = j_residual_ratio(
        model, p=p, r=r, tau=tau,
        seeds=range(int(pc.get("seeds", 50))),
        thinnings=int(pc.get("thinnings", 4)),
    )
    report["residual_ratio"] = res["ratio"]
    report["residuals"] = {str(k): v for k, v in res["residuals"].items()}


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
        "--threads", help="worker threads for replicate farms (env STPP_THREADS, default 1)"
    )
    parser.add_argument("--force", action="store_true", help="overwrite existing outputs")
    parser.add_argument("--skip-bad", action="store_true", help="skip malformed input rows")
    args = parser.parse_args(argv)
    try:
        threads = _thread_count(args.threads)
        with open(args.config) as fh:
            config = json.load(fh)
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
    except (ValueError, FileExistsError, FileNotFoundError) as exc:
        message = str(exc)
    else:
        print(out)
        return 0
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())
