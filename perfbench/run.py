"""End-to-end benchmark of the ``stpp`` command line on big catalogues.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the one holding ``src/stpp``).
Set-up generates the workload's catalogue and config from the seed with
the benchmark's own numpy generator (``catalogue.py``), several times, and
reports the median.  The measurement then spawns
``python -m stpp.cli <task> ...`` as a fresh subprocess, again and again
while another run still fits in S seconds (at least once), each under an
address-space cap, and checks every run's outputs.  Timings are medians
over those runs.

With ``--trace 1`` one more run goes through ``tracer.py``, which times the
calls into each layer from outside the package; its per-layer numbers are
reported instead of the end-to-end ones.

Every metric is printed by name with its unit and sample count, and the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Inputs, environment, per-run
samples and spans land in ``perfbench/out/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import catalogue

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

ADDRESS_SPACE_CAP = 5 << 30  # bytes; twice the largest seed peak RSS
RUN_DEADLINE_S = 170.0  # the whole invocation must end within 180 s
SETUP_MIN_REPEATS, SETUP_MIN_S, SETUP_MAX_REPEATS = 3, 1.0, 25
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
LAYERS = (
    "cli", "core", "simulate", "intensity", "bandwidth",
    "separability", "secondorder", "inference", "homogenize",
)

# name -> (task, catalogue kind, events, --threads, extra config)
WORKLOADS = {
    "intensity-10k": ("intensity", "planar", 10_000, 1, {"emit_spacetime": True}),
    "ripley-k-200k": ("ripley-k", "planar", 200_000, 2, {}),
    "separability-200k": ("separability", "planar", 200_000, 1, {}),
    "homogenize-geo-1m": ("homogenize", "geographic", 1_000_000, 1, {}),
}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


# ------------------------------------------------------------------ set-up


def set_up(workload, seed, work):
    """Write events.csv and config.json into ``work``; return (input facts, setup times)."""
    _, kind, n, _, extra = WORKLOADS[workload]
    times = []
    while True:
        start = time.perf_counter()
        window, data = getattr(catalogue, kind)(seed, n)
        digest = catalogue.sha256(data)
        (work / "events.csv").write_bytes(data)
        config = {"window": window, "input": "events.csv", "output_dir": "out", "seed": seed}
        config.update(extra)
        (work / "config.json").write_text(json.dumps(config, indent=2))
        times.append(time.perf_counter() - start)
        if len(times) >= SETUP_MAX_REPEATS or (
            len(times) >= SETUP_MIN_REPEATS and sum(times) >= SETUP_MIN_S
        ):
            break
    return {"sha256": digest, "n_events": n, "bytes": len(data)}, times


# ------------------------------------------------------------------ child runs


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_CAP, ADDRESS_SPACE_CAP))


def spawn(argv, work, timeout):
    """Run one child to completion; return wall, rusage and exit facts."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(work / "stdout.txt", "wb") as out, open(work / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=work, env=env, stdout=out, stderr=err, preexec_fn=_cap_address_space
        )
        # poll instead of blocking so a timeout needs no helper thread;
        # preexec_fn is only safe while this process has a single thread
        kill_at = start + max(timeout, 1.0)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > kill_at:
                proc.kill()
                kill_at = float("inf")
            time.sleep(0.002)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (work / "stderr.txt").read_text(errors="replace")
    failures = []
    if "MemoryError" in stderr:
        failures.append("hit the address-space cap (MemoryError)")
    if proc.returncode != 0:
        tail = stderr.strip().splitlines()[-1:] or ["no stderr"]
        failures.append(f"exit code {proc.returncode}: {tail[0][:200]}")
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_code": proc.returncode,
        "failures": failures,
    }


def stpp_argv(workload):
    task, _, _, threads, _ = WORKLOADS[workload]
    return [task, "--config", "config.json", "--threads", str(threads)]


# ------------------------------------------------------------------ output checks


def read_csv(path):
    """(header, float table) of a CSV whose rows all have the header's width."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        table = np.loadtxt(fh, delimiter=",", ndmin=2)
    if len(header) < 2 or (table.size and table.shape[1] != len(header)):
        raise ValueError(f"{table.shape[1]} columns under header {header}")
    return header, table


def _on_lattice(p, B):
    k = p * (B + 1)
    return abs(k - round(k)) < 1e-6 and 1 <= round(k) <= B + 1


def check_outputs(out_dir, n_events):
    """List of failed checks of one run's outputs; also the report's SHA-256."""
    failures = []
    try:
        manifest = json.loads((out_dir / "manifest.json").read_text())
        report_bytes = (out_dir / "report.json").read_bytes()
        report = json.loads(report_bytes)
    except (OSError, ValueError) as exc:
        return [f"manifest/report unreadable: {exc}"], None
    tables = {}
    for name in manifest["outputs"]:
        path = out_dir / name
        try:
            if name.endswith(".json"):
                json.loads(path.read_text())
            else:
                tables[name] = read_csv(path)
        except (OSError, ValueError) as exc:
            failures.append(f"{name}: does not parse ({exc})")
    if report.get("n_events") != n_events:
        failures.append(f"n_events {report.get('n_events')} != {n_events}")
    if "integral_s" in report:
        if abs(report["integral_s"] - n_events) > 1e-9 * n_events:
            failures.append(f"integral_s {report['integral_s']!r} != n_events {n_events}")
    if "B" in report:
        for p in [report.get("p_value")] + list(report.get("p_values", [])):
            if p is None or not _on_lattice(p, report["B"]):
                failures.append(f"p-value {p!r} off the k/(B+1) lattice")
    for name, (header, table) in tables.items():
        if name.startswith("curves_") and not (table[:, 2] <= table[:, 3]).all():
            failures.append(f"{name}: lo > hi somewhere")
    if "pattern_homogenized.csv" in tables:
        rows = len(tables["pattern_homogenized.csv"][1])
        if rows != report.get("retained"):
            failures.append(f"pattern_homogenized.csv has {rows} rows, retained={report.get('retained')}")
    return failures, hashlib.sha256(report_bytes).hexdigest()


def run_checked(argv, work, n_events, deadline):
    """One child run plus its output checks; outputs are removed afterwards."""
    shutil.rmtree(work / "out", ignore_errors=True)
    sample = spawn(argv, work, deadline - time.perf_counter())
    if sample["exit_code"] == 0:
        failures, digest = check_outputs(work / "out", n_events)
        sample["failures"] += failures
        sample["report_sha256"] = digest
    shutil.rmtree(work / "out", ignore_errors=True)
    return sample


# ------------------------------------------------------------------ trace metrics


def _union(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def span_table(spans):
    """Per span name: calls, busy time (union of its spans), summed self time."""
    children = {}
    for sp in spans:
        children.setdefault(sp["parent"], []).append(sp)
    table = {}
    for sp in spans:
        kids = [(max(c["start"], sp["start"]), min(c["end"], sp["end"])) for c in children.get(sp["id"], [])]
        row = table.setdefault(sp["name"], {"calls": 0, "self_s": 0.0, "durations": [], "intervals": []})
        row["calls"] += 1
        row["self_s"] += (sp["end"] - sp["start"]) - _union([k for k in kids if k[1] > k[0]])
        row["durations"].append(sp["end"] - sp["start"])
        row["intervals"].append((sp["start"], sp["end"]))
    for row in table.values():
        row["busy_s"] = _union(row.pop("intervals"))
    return table


def _counts(spans, name, key):
    return [sp["counts"][key] for sp in spans if sp["name"] == name and "counts" in sp]


def _pct_ms(durations, q):
    return 1e3 * float(np.percentile(durations, q)) if durations else 0.0


def layer_metrics(trace, untraced_wall):
    """Per-layer metrics of one traced run: name -> (value, unit, samples)."""
    spans = trace["spans"]
    table = span_table(spans)

    def busy(name):
        row = table.get(name)
        return (row["busy_s"] if row else 0.0, "s", row["calls"] if row else 0)

    def total(name, key, unit="count"):
        vals = _counts(spans, name, key)
        return (float(sum(vals)), unit, len(vals))

    def mean(name, key, unit="count"):
        vals = _counts(spans, name, key)
        return (float(np.mean(vals)) if vals else 0.0, unit, len(vals))

    loss = table.get("bandwidth.cv.loss", {"durations": [], "calls": 0})
    k = table.get("secondorder.K", {"durations": [], "calls": 0})
    finite = _counts(spans, "bandwidth.cv.loss", "finite")
    sj_n = _counts(spans, "bandwidth.sj", "n")
    warn = [w["layer"] for w in trace["warnings"]]
    discarded = sum(
        1 for w in trace["warnings"] if w["layer"] == "bandwidth" and "discarded" in w["message"]
    )
    yield_ = trace["pair_yield"] or {"spatial_pairs": 0, "spacetime_pairs": 0}
    top = [(sp["start"], sp["end"]) for sp in spans if sp["parent"] is None]
    wall = trace["main_end"]
    m = {
        "cli.import.s": busy("cli.import"),
        "cli.ingest.s": busy("cli.ingest"),
        "cli.ingest.events": total("cli.ingest", "events"),
        "core.pattern.s": busy("core.pattern"),
        "cli.write.s": busy("cli.write"),
        "cli.write.bytes": total("cli.write", "bytes", "bytes"),
        "cli.parallel_map.s": busy("cli.parallel_map"),
        "cli.parallel_map.items": total("cli.parallel_map", "items"),
        "bandwidth.sj.s": busy("bandwidth.sj"),
        "bandwidth.sj.n": (float(sum(sj_n)), "count", len(sj_n)),
        "bandwidth.sj.pairs": (float(sum(n * (n - 1) // 2 for n in sj_n)), "count", len(sj_n)),
        "bandwidth.cv.s": busy("bandwidth.cv"),
        "bandwidth.cv.loss_calls": (float(loss["calls"]), "count", loss["calls"]),
        "bandwidth.cv.loss_p50_ms": (_pct_ms(loss["durations"], 50), "ms", loss["calls"]),
        "bandwidth.cv.loss_p90_ms": (_pct_ms(loss["durations"], 90), "ms", loss["calls"]),
        "bandwidth.cv.points_per_repeat": mean("bandwidth.cv.thin", "points"),
        "bandwidth.cv.repeats_discarded": (
            float(discarded), "count", len(_counts(spans, "bandwidth.cv.thin", "points"))
        ),
        "bandwidth.cv.finite_loss_ratio": (
            sum(finite) / len(finite) if finite else 0.0, "ratio", len(finite)
        ),
        "intensity.lambda_s.s": busy("intensity.lambda_s"),
        "intensity.lambda_t.s": busy("intensity.lambda_t"),
        "intensity.lambda_st.s": busy("intensity.lambda_st"),
        "intensity.voronoi.s": busy("intensity.voronoi"),
        "intensity.voronoi.raster_cells": total("intensity.voronoi", "raster_cells"),
        "secondorder.K.s": busy("secondorder.K"),
        "secondorder.K.calls": (float(k["calls"]), "count", k["calls"]),
        "secondorder.K.p50_ms": (_pct_ms(k["durations"], 50), "ms", k["calls"]),
        "secondorder.K.p90_ms": (_pct_ms(k["durations"], 90), "ms", k["calls"]),
        "secondorder.K.points": mean("secondorder.K", "points"),
        "secondorder.K.winsorized": total("secondorder.K", "winsorized"),
        "secondorder.K.pair_yield": (
            yield_["spacetime_pairs"] / yield_["spatial_pairs"] if yield_["spatial_pairs"] else 0.0,
            "ratio", yield_["spatial_pairs"],
        ),
        "secondorder.average_K.s": busy("secondorder.average_K"),
        "simulate.poisson.s": busy("simulate.poisson"),
        "simulate.poisson.events": total("simulate.poisson", "events"),
        "simulate.thin.s": busy("simulate.thin"),
        "separability.test.s": busy("separability.test"),
        "separability.erl.s": busy("separability.erl"),
        "inference.erl.s": busy("inference.erl"),
        "inference.quadrat.s": busy("inference.quadrat"),
        "homogenize.minimize_loss.s": busy("homogenize.minimize_loss"),
        "trace.wall_s": (wall, "s", 1),
        "trace.coverage": (_union(top) / wall, "ratio", len(top)),
        "trace.overhead_s": (trace["wall_s"] - trace["post_s"] - untraced_wall, "s", 1),
    }
    for layer in LAYERS + ("other",):
        m[f"warnings.{layer}"] = (float(warn.count(layer)), "count", len(warn))
    return m, table


# ------------------------------------------------------------------ reporting


def environment():
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_env": {v: os.environ.get(v, "unset (stpp.cli pins 1)") for v in BLAS_VARS},
        "loadavg_at_start": list(os.getloadavg()),
        "address_space_cap_bytes": ADDRESS_SPACE_CAP,
    }


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "stpp").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_determinism(workload, seed, input_sha, digests):
    """Failures if report SHA-256s differ within this invocation or from an
    earlier invocation on the same sources and input."""
    failures = []
    if len(set(digests)) > 1:
        failures.append(f"report.json differs between runs: {sorted(set(digests))}")
    if not digests:
        return failures
    key = hashlib.sha256(f"{workload}|{seed}|{input_sha}|{source_digest()}".encode()).hexdigest()
    record = OUT / "reports" / f"{key[:32]}.sha256"
    record.parent.mkdir(parents=True, exist_ok=True)
    if record.exists():
        if record.read_text().strip() != digests[0]:
            failures.append("report.json differs from an earlier run at the same commit and seed")
    else:
        record.write_text(digests[0] + "\n")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + RUN_DEADLINE_S
    if not (SRC / "stpp" / "cli.py").is_file():
        print(f"error: no stpp sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    env = environment()
    work = OUT / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs, setup_times = set_up(args.workload, args.seed, work)
    n = inputs["n_events"]

    argv = [sys.executable, "-m", "stpp.cli"] + stpp_argv(args.workload)
    samples = []
    start = time.perf_counter()
    while not samples or (
        time.perf_counter() - start + statistics.median(s["wall_s"] for s in samples)
        <= args.seconds
    ):
        samples.append(run_checked(argv, work, n, deadline))
    runs = list(samples)
    untraced = statistics.median(s["wall_s"] for s in samples)

    layer = None
    if args.trace:
        trace_path = work / "trace.json"
        traced_argv = [sys.executable, str(HERE / "tracer.py"), str(trace_path)] + stpp_argv(args.workload)
        traced = run_checked(traced_argv, work, n, deadline)
        runs.append(traced)
        try:
            trace = json.loads(trace_path.read_text())
        except (OSError, ValueError) as exc:
            traced["failures"].append(f"trace unreadable: {exc}")
        else:
            if Path(trace["stpp_file"]).resolve().parent != (SRC / "stpp").resolve():
                traced["failures"].append(f"traced run imported {trace['stpp_file']}")
            trace["wall_s"] = traced["wall_s"]
            layer, spans = layer_metrics(trace, untraced)

    digests = [s["report_sha256"] for s in runs if s.get("report_sha256")]
    det_failures = check_determinism(args.workload, args.seed, inputs["sha256"], digests)
    failed = sum(1 for s in runs if s["failures"]) + (1 if det_failures else 0)
    attempted = len(runs) + (1 if det_failures else 0)

    e2e = {
        name: (statistics.median(s[name] for s in samples), END_TO_END[name], len(samples))
        for name in ("wall_s", "cpu_s", "peak_rss_mb")
    }
    e2e["setup_s"] = (statistics.median(setup_times), "s", len(setup_times))
    metrics = (layer or {}) if args.trace else e2e

    print(f"workload {args.workload}  seed {args.seed}  input sha256 {inputs['sha256']}  n_events {n}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"failed_frac {failed}/{attempted}")
    for s in runs:
        for f in s["failures"]:
            print(f"FAILED: {f}")
    for f in det_failures:
        print(f"FAILED: {f}")
    for name, (value, unit, count) in {**e2e, **(layer or {})}.items():
        print(f"{name:34s} {value:16.6f} {unit:6s} n={count}")
    if layer:
        wall = layer["trace.wall_s"][0]
        print(f"{'span':34s} {'calls':>7s} {'busy_s':>10s} {'self_s':>10s} {'busy/wall':>9s}")
        for name, row in sorted(spans.items(), key=lambda kv: -kv[1]["busy_s"]):
            print(
                f"{name:34s} {row['calls']:7d} {row['busy_s']:10.4f} {row['self_s']:10.4f}"
                f" {row['busy_s'] / wall:9.3f}"
            )

    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                "workload": args.workload,
                "seed": args.seed,
                "seconds": args.seconds,
                "environment": env,
                "input": inputs,
                "setup_times_s": setup_times,
                "runs": runs,
                "determinism_failures": det_failures,
                "end_to_end": e2e,
                "per_layer": layer,
                "spans": {
                    name: {k: row[k] for k in ("calls", "busy_s", "self_s")}
                    for name, row in (spans.items() if layer else ())
                },
            },
            indent=1,
            default=str,
        )
    )
    shutil.rmtree(work, ignore_errors=True)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
