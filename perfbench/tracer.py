"""Traced run of ``stpp.cli.main``, timed from outside the package.

    python3 perfbench/tracer.py TRACE_JSON <stpp arguments...>

Pins the BLAS thread variables exactly as ``stpp.cli`` does, before numpy
is imported, then replaces the layer functions the pipeline calls with
wrappers that record a span (name, start, end, parent, thread) and a few
counts per call.  Spans stay in memory and are written to TRACE_JSON when
the run ends, together with every warning raised and the pair yield of the
observed K subsample.  The package itself is not modified.

``main_end`` is the time from this script's first statement to the return
of ``stpp.cli.main``; ``post_s`` is the time spent after that return
(pair yield and serialization), which the caller subtracts from the
traced wall.
"""

import os
import sys
import time

T0 = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import functools  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import threading  # noqa: E402
import warnings  # noqa: E402


class Tracer:
    """In-memory span recorder.

    A span opened on a worker thread with nothing open on that thread takes
    as parent the innermost span open on the main thread, which is the
    fan-out call (``parallel_map``) the worker serves.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1]["id"]
        elif stack is not self._main_stack and self._main_stack:
            parent = self._main_stack[-1]["id"]
        else:
            parent = None
        span = {
            "id": next(self._ids),
            "name": name,
            "parent": parent,
            "thread": threading.get_ident(),
            "start": time.perf_counter() - T0,
        }
        stack.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter() - T0
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` by a wrapper that records a span per call.

        ``count(result, *args, **kwargs)`` returns the span's counts; it runs
        after the span closes, so its cost lands in the parent span.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if count is not None:
                span["counts"] = count(result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)


def _size(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


def install(tracer, observed):
    """Wrap the layer entry points; ``observed`` receives the first K input."""
    import stpp.bandwidth
    import stpp.cli
    import stpp.core
    import stpp.homogenize
    import stpp.separability

    cli = stpp.cli

    def k_counts(result, pattern, lam, grid=None, *args, **kwargs):
        if not observed:
            observed.update(x=pattern.x, t=pattern.t, r_max=grid.r[-1], tau_max=grid.tau[-1])
        return {"points": len(pattern), "winsorized": result.winsorized_pairs}

    table = [
        (cli, "ingest", "cli.ingest", lambda r, *a, **k: {"events": len(r)}),
        (cli, "emit_pattern", "cli.write", _size),
        (cli, "_write_curves", "cli.write", _size),
        (cli, "_write_field_1d", "cli.write", _size),
        (cli, "_write_field_2d", "cli.write", _size),
        (cli, "_write_field_3d", "cli.write", _size),
        (cli, "parallel_map", "cli.parallel_map", lambda r, fn, n, *a, **k: {"items": n}),
        (cli, "project", "core.project", None),
        (cli, "select_bandwidth_temporal", "bandwidth.sj", lambda r, x, *a, **k: {"n": len(x)}),
        (cli, "select_bandwidth_spatial", "bandwidth.cv", None),
        (cli, "estimate_lambda_s", "intensity.lambda_s", None),
        (cli, "estimate_lambda_t", "intensity.lambda_t", None),
        (cli, "estimate_lambda_st", "intensity.lambda_st", None),
        (cli, "estimate_K", "secondorder.K", k_counts),
        (cli, "average_K", "secondorder.average_K", None),
        (cli, "simulate_poisson", "simulate.poisson", lambda r, *a, **k: {"events": len(r)}),
        (cli, "thin", "simulate.thin", None),
        (cli, "combined_erl_test", "inference.erl", None),
        (cli, "separability_test", "separability.test", None),
        (cli, "homogenize", "homogenize.homogenize", None),
        (stpp.homogenize, "voronoi_intensity", "intensity.voronoi",
         lambda r, *a, **k: {"raster_cells": int(r[1].raster_mask.sum())}),
        (stpp.homogenize, "minimize_loss", "homogenize.minimize_loss", None),
        (stpp.homogenize, "quadrat_test", "inference.quadrat", None),
        (stpp.bandwidth, "cvl_loss", "bandwidth.cv.loss",
         lambda r, *a, **k: {"finite": int(math.isfinite(r))}),
        (stpp.bandwidth, "thin_spatial", "bandwidth.cv.thin", lambda r, *a, **k: {"points": len(r)}),
        (stpp.separability, "combined_erl_test", "separability.erl", None),
        (stpp.core.SpaceTimePattern, "__init__", "core.pattern", None),
    ]
    for owner, attr, name, count in table:
        tracer.wrap(owner, attr, name, count)


def pair_yield(observed):
    """Share of spatial pairs within r_max that are also within tau_max.

    Counted with the benchmark's own cKDTree on the observed K subsample.
    """
    if not observed:
        return None
    from scipy.spatial import cKDTree

    pairs = cKDTree(observed["x"]).query_pairs(observed["r_max"], output_type="ndarray")
    if len(pairs) == 0:
        return {"spatial_pairs": 0, "spacetime_pairs": 0}
    dt = abs(observed["t"][pairs[:, 0]] - observed["t"][pairs[:, 1]])
    return {"spatial_pairs": len(pairs), "spacetime_pairs": int((dt <= observed["tau_max"]).sum())}


def _layer(filename, pkg_dir):
    """stpp module a warning was raised from, or "other"."""
    path = os.path.abspath(filename)
    if os.path.dirname(path) == pkg_dir:
        return os.path.splitext(os.path.basename(path))[0]
    return "other"


def main(trace_path, argv):
    tracer = Tracer()
    span = tracer.open("cli.import")
    import stpp.cli

    tracer.close(span)
    observed = {}
    install(tracer, observed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = stpp.cli.main(argv)
    main_end = time.perf_counter() - T0
    post_start = time.perf_counter()
    pkg_dir = os.path.dirname(os.path.abspath(stpp.cli.__file__))
    record = {
        "stpp_file": stpp.cli.__file__,
        "main_end": main_end,
        "spans": tracer.spans,
        "warnings": [
            {"layer": _layer(w.filename, pkg_dir), "category": w.category.__name__, "message": str(w.message)}
            for w in caught
        ],
        "pair_yield": pair_yield(observed),
        "exit_code": code,
    }
    payload = json.dumps(record)
    post_s = time.perf_counter() - post_start
    with open(trace_path, "w") as fh:
        fh.write('{"post_s": %r, %s' % (post_s, payload[1:]))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
