import csv
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

from stpp import cli
from stpp.cli import EARTH_RADIUS_KM, build_window, emit_pattern, ingest, main, run
from stpp.core import GridSpec, PolygonMask, ScalarField, SpaceTimePattern, SpatialPattern, Window

UNIT = Window((0, 1), (0, 1), (0, 1))
POLYGON = Window(
    (0, 1), (0, 1), (0, 1), PolygonMask([(0.05, 0.0), (1.0, 0.1), (0.9, 1.0), (0.0, 0.85)])
)


def write_config(tmp_path, name="config.json", **overrides):
    cfg = {
        "window": {"x1": [0, 1], "x2": [0, 1], "t": [0, 1]},
        "output_dir": str(tmp_path / "out"),
        "seed": 3,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


# Reference writers: ``csv.writer`` row by row with one ``repr`` per field.
# The CLI's block writers must match them byte for byte.


def _oracle_fmt(x):
    return repr(float(x))


def oracle_emit_pattern(path, pattern):
    pts = pattern.points
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "t"] if pts.shape[1] == 3 else ["x1", "x2"])
        for row in pts:
            writer.writerow([_oracle_fmt(v) for v in row])


def oracle_write_curves(path, args, observed, lower, upper):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["arg", "observed", "lo", "hi"])
        for row in zip(args, observed, lower, upper):
            writer.writerow([_oracle_fmt(v) for v in row])


def oracle_write_field_1d(path, field):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "value"])
        for t, v in zip(field.grid.centers(0), field.values):
            writer.writerow([_oracle_fmt(t), _oracle_fmt(v)])


def oracle_write_field_2d(path, field):
    xs, ys = field.grid.centers(0), field.grid.centers(1)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "value"])
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                if field.mask[i, j]:
                    writer.writerow([_oracle_fmt(x), _oracle_fmt(y), _oracle_fmt(field.values[i, j])])


def oracle_write_field_3d(path, field):
    xs, ys, ts = field.grid.centers(0), field.grid.centers(1), field.grid.centers(2)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "t", "value"])
        for i, x in enumerate(xs):
            for j, y in enumerate(ys):
                if not field.mask[i, j, 0]:
                    continue
                for m, t in enumerate(ts):
                    writer.writerow(
                        [_oracle_fmt(x), _oracle_fmt(y), _oracle_fmt(t), _oracle_fmt(field.values[i, j, m])]
                    )


def same_bytes(tmp_path, write, oracle, *args):
    write(tmp_path / "new.csv", *args)
    oracle(tmp_path / "oracle.csv", *args)
    got = (tmp_path / "new.csv").read_bytes()
    assert got == (tmp_path / "oracle.csv").read_bytes()
    return got


class TestIngest:
    def test_empty_file_with_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x1,x2,t\n")
        window, ctx = build_window({"window": {"x1": [0, 1], "x2": [0, 1], "t": [0, 1]}})
        with pytest.warns(UserWarning, match="no events"):
            pat = ingest(str(path), window, ctx)
        assert len(pat) == 0

    def test_geographic_single_row(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_text("lon,lat,time\n5.0,45.0,2011-01-01T00:00:00Z\n")
        spec = {
            "window": {
                "lon": [4.0, 8.0],
                "lat": [43.0, 47.0],
                "time": ["2011-01-01T00:00:00Z", "2021-12-31T23:59:59Z"],
            }
        }
        window, ctx = build_window(spec)
        pat = ingest(str(path), window, ctx)
        assert len(pat) == 1
        assert pat.t[0] == 0.0
        lat0 = 45.0
        assert pat.x[0, 0] == pytest.approx(
            EARTH_RADIUS_KM * math.cos(math.radians(lat0)) * math.radians(5.0)
        )
        assert pat.x[0, 1] == pytest.approx(EARTH_RADIUS_KM * math.radians(45.0))

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,t\n0.5,0.5,0.5\noops,0.1,0.1\n")
        window, ctx = build_window({"window": {"x1": [0, 1], "x2": [0, 1], "t": [0, 1]}})
        with pytest.raises(ValueError, match="bad.csv:3"):
            ingest(str(path), window, ctx)
        with pytest.warns(UserWarning, match="skipped 1"):
            pat = ingest(str(path), window, ctx, skip_bad=True)
        assert len(pat) == 1

    def test_degrees_mode_keeps_raw_coordinates(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_text("lon,lat,time\n5.0,45.0,10.0\n")
        spec = {
            "window": {"lon": [4.0, 8.0], "lat": [43.0, 47.0], "time": [0, 100]},
            "projection": "degrees",
        }
        window, ctx = build_window(spec)
        pat = ingest(str(path), window, ctx)
        assert pat.x[0].tolist() == [5.0, 45.0]
        assert pat.t[0] == 10.0

    def test_unknown_header_rejected(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("a,b,c\n1,2,3\n")
        window, ctx = build_window({"window": {"x1": [0, 1], "x2": [0, 1], "t": [0, 1]}})
        with pytest.raises(ValueError, match="header"):
            ingest(str(path), window, ctx)

    def test_round_trip_bit_exact(self, tmp_path):
        from stpp.cli import emit_pattern

        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(size=1000), rng.uniform(size=1000),
                               np.sort(rng.uniform(size=1000))])
        window = Window((0, 1), (0, 1), (0, 1))
        pat = SpaceTimePattern(pts, window)
        path = tmp_path / "roundtrip.csv"
        emit_pattern(path, pat)
        window2, ctx = build_window({"window": {"x1": [0, 1], "x2": [0, 1], "t": [0, 1]}})
        back = ingest(str(path), window2, ctx)
        assert np.array_equal(back.points, pat.points)


def oracle_ingest(path, window, context, skip_bad=False, jitter=False):
    """Reference reader: ``csv.reader`` and one ``_parse_time`` per row."""
    rows = []
    bad = 0
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
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            try:
                if geographic:
                    lon, lat = float(row[0]), float(row[1])
                    t = cli._parse_time(row[2], context["time_origin"])
                    if context["mode"] == "degrees":
                        rows.append((lon, lat, t))
                    else:
                        x1, x2 = cli._project_lonlat(lon, lat, context["lat0"])
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
    if not rows:
        warnings.warn(f"{path}: no events parsed")
        return SpaceTimePattern(np.empty((0, 3)), window)
    return SpaceTimePattern(np.asarray(rows, dtype=float), window, jitter=jitter)


GEO = {
    "window": {
        "lon": [4.0, 8.0],
        "lat": [43.0, 47.0],
        "time": ["2011-01-01T00:00:00Z", "2021-12-31T23:59:59Z"],
    }
}
PLANAR = {"window": {"x1": [0, 1], "x2": [0, 1], "t": [0, 1]}}


def geo_rows(n, seed, stamp):
    """``lon,lat,time`` lines with shortest-repr coordinates and ``stamp(us)`` times."""
    rng = np.random.default_rng(seed)
    lon = rng.uniform(4.0, 8.0, n)
    lat = rng.uniform(43.0, 47.0, n)
    start = np.datetime64("2011-01-01T00:00:00", "us").astype(np.int64)
    stop = np.datetime64("2021-12-31T23:59:59", "us").astype(np.int64)
    us = rng.integers(start, stop, n)
    us[: n // 2] -= us[: n // 2] % 1_000_000  # whole seconds in the first half
    return [f"{a!r},{b!r},{stamp(u)}" for a, b, u in zip(lon.tolist(), lat.tolist(), us)]


def iso_z(us):
    s = str(np.datetime64(int(us), "us"))
    return (s[:19] if s.endswith(".000000") else s) + "Z"


def epoch(us):
    return repr(int(us) / 1e6)


def both_ingests(tmp_path, lines, spec, skip_bad=False, header=None):
    """Ingest the same file with ``ingest`` and the reference reader.

    Returns (points or error message, warning messages) for each, and
    whether the columnar parse took the file.
    """
    if header is None:
        header = "lon,lat,time" if "lon" in spec["window"] else "x1,x2,t"
    path = tmp_path / "events.csv"
    path.write_bytes("".join(line + "\n" for line in [header, *lines]).encode())
    window, ctx = build_window(spec)

    def outcome(reader):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = reader(str(path), window, ctx, skip_bad=skip_bad).points
            except ValueError as exc:
                result = str(exc)
        return result, [str(w.message) for w in caught]

    got, want = outcome(ingest), outcome(oracle_ingest)
    columnar = cli._parse_columns(str(path), 1, "lon" in spec["window"], ctx) is not None
    return got, want, columnar


def assert_same_ingest(got, want):
    assert got[1] == want[1]
    if isinstance(want[0], str):
        assert got[0] == want[0]
    else:
        assert got[0].shape == want[0].shape
        assert np.array_equal(got[0].view(np.int64), want[0].view(np.int64))


class TestColumnarIngest:
    """The columnar parse agrees with the row parser bit for bit."""

    @pytest.mark.parametrize("stamp", [iso_z, epoch], ids=["iso_z", "epoch"])
    def test_geographic_bit_identical(self, tmp_path, stamp):
        got, want, columnar = both_ingests(tmp_path, geo_rows(500, 1, stamp), GEO)
        assert columnar
        assert_same_ingest(got, want)
        assert len(got[0]) == 500

    def test_fractional_and_whole_stamps_parse_exactly(self, tmp_path):
        lines = geo_rows(400, 2, iso_z)
        assert any("." in line.split(",")[2] for line in lines[200:])
        assert all("." not in line.split(",")[2] for line in lines[:200])
        got, want, columnar = both_ingests(tmp_path, lines, GEO)
        assert columnar
        assert_same_ingest(got, want)

    def test_degrees_mode(self, tmp_path):
        spec = {**GEO, "projection": "degrees"}
        got, want, columnar = both_ingests(tmp_path, geo_rows(200, 3, iso_z), spec)
        assert columnar
        assert_same_ingest(got, want)
        assert got[0][:, 0].min() >= 4.0 and got[0][:, 0].max() <= 8.0

    def test_planar_crlf_and_extra_columns(self, tmp_path):
        rng = np.random.default_rng(4)
        pts = rng.uniform(size=(300, 3))
        lines = [f"{a!r},{b!r},{c!r},extra,{i}\r" for i, (a, b, c) in enumerate(pts.tolist())]
        got, want, columnar = both_ingests(tmp_path, lines, PLANAR)
        assert columnar
        assert_same_ingest(got, want)
        assert len(got[0]) == 300

    @pytest.mark.parametrize(
        "time",
        [
            "2015-06-01T12:00:00+00:00",
            "2015-06-01T12:00:00+02:00",
            "2015-06-01T12:00:00",
            "2015-06-01T12:00:00.123456",
            "2015-06-01 12:00:00Z",
            "2015-06-01T12:00:00.123Z",
            "+2015-06-01T12:00:00Z",
            "2015-02-30T12:00:00Z",
            "2015-06-01T24:00:00Z",
            " 2015-06-01T12:00:00Z",
            "1435752000.5",
        ],
    )
    def test_other_time_forms_take_the_row_parser(self, tmp_path, time):
        lines = geo_rows(20, 5, iso_z)
        lines[7] = f"5.5,45.5,{time}"
        got, want, columnar = both_ingests(tmp_path, lines, GEO)
        assert not columnar
        assert_same_ingest(got, want)

    def test_time_field_wider_than_the_column_takes_the_row_parser(self, tmp_path):
        lines = geo_rows(20, 9, epoch)
        lines[3] = "5.5,45.5," + "0" * (cli._TIME_FIELD - 8) + "1435752000.5"
        got, want, columnar = both_ingests(tmp_path, lines, GEO)
        assert not columnar
        assert_same_ingest(got, want)
        assert len(got[0]) == 20

    def test_stamps_beyond_exact_microseconds_take_the_row_parser(self, tmp_path):
        spec = {"window": {**GEO["window"], "time": ["1600-01-01T00:00:00Z", "2021-12-31T23:59:59Z"]}}
        lines = geo_rows(20, 6, iso_z) + ["5.5,45.5,1600-06-01T12:00:00Z"]
        got, want, columnar = both_ingests(tmp_path, lines, spec)
        assert not columnar
        assert_same_ingest(got, want)

    @pytest.mark.parametrize(
        "line",
        ['"0.25",0.5,0.5', "0.25,0.5,0.5 # note", "# comment", "0_25e-1,0.5,0.5", "0.25,0.5"],
        ids=["quoted", "trailing_hash", "hash_row", "underscore", "short"],
    )
    def test_planar_rows_the_row_parser_takes(self, tmp_path, line):
        lines = ["0.1,0.2,0.3", line, "0.4,0.6,0.7"]
        for skip_bad in (False, True):
            got, want, columnar = both_ingests(tmp_path, lines, PLANAR, skip_bad=skip_bad)
            assert not columnar
            assert_same_ingest(got, want)

    def test_quoted_newline_in_extra_column(self, tmp_path):
        lines = ['0.1,0.2,0.3,"note', '0.4,0.6,0.7,"', "0.5,0.5,0.5"]
        got, want, columnar = both_ingests(tmp_path, lines, PLANAR)
        assert not columnar
        assert_same_ingest(got, want)
        assert len(got[0]) == 2

    def test_header_only(self, tmp_path):
        for spec in (GEO, PLANAR):
            got, want, _ = both_ingests(tmp_path, [], spec)
            assert_same_ingest(got, want)
            assert got[0].shape == (0, 3) and "no events parsed" in got[1][0]

    def test_epoch_mixed_with_iso(self, tmp_path):
        lines = geo_rows(30, 7, iso_z) + geo_rows(30, 8, epoch)
        got, want, columnar = both_ingests(tmp_path, lines, GEO)
        assert not columnar
        assert_same_ingest(got, want)
        assert len(got[0]) == 60

    def test_malformed_row_line_number_after_blank_lines(self, tmp_path):
        lines = ["0.1,0.2,0.3", "", "   ", " , ", "0.4,0.6,0.7", "", "oops,0.5,0.5", "0.5,0.5,0.5"]
        got, want, columnar = both_ingests(tmp_path, lines, PLANAR)
        assert not columnar
        assert_same_ingest(got, want)
        assert "events.csv:8: malformed row" in got[0]
        got, want, _ = both_ingests(tmp_path, lines, PLANAR, skip_bad=True)
        assert_same_ingest(got, want)
        assert got[1] == [f"{tmp_path / 'events.csv'}: skipped 1 malformed row(s)"]
        assert len(got[0]) == 3

    def test_blank_lines_between_good_rows(self, tmp_path):
        lines = ["0.1,0.2,0.3", "", "0.4,0.6,0.7", "", "0.5,0.5,0.5"]
        got, want, _ = both_ingests(tmp_path, lines, PLANAR)
        assert_same_ingest(got, want)
        assert len(got[0]) == 3


SPECIAL = [-0.0, 1e-320, 5e-324, 1.7976931348623157e308, 0.1, -2.5e-7, 123456789.0]


def field_values(shape, seed):
    rng = np.random.default_rng(seed)
    values = rng.gamma(2.0, 1e3, size=shape).ravel()
    values[: len(SPECIAL)] = SPECIAL
    return values.reshape(shape)


class TestWriters:
    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    def test_fields_match_csv_writer(self, tmp_path, window):
        spatial = GridSpec.spatial(window, 9, 7)
        field_2d = ScalarField(spatial, field_values(spatial.shape, 1), window.raster(spatial))
        text = same_bytes(tmp_path, cli._write_field_2d, oracle_write_field_2d, field_2d)
        assert text.count(b"\r\n") == 1 + field_2d.mask.sum()
        spacetime = GridSpec.spacetime(window, 6, 5, 4)
        mask = window.raster(GridSpec.spatial(window, 6, 5))
        field_3d = ScalarField(spacetime, field_values(spacetime.shape, 2), mask)
        text = same_bytes(tmp_path, cli._write_field_3d, oracle_write_field_3d, field_3d)
        assert text.count(b"\r\n") == 1 + field_3d.mask.sum()
        temporal = GridSpec.temporal(window, 11)
        field_1d = ScalarField(temporal, field_values(temporal.shape, 3))
        same_bytes(tmp_path, cli._write_field_1d, oracle_write_field_1d, field_1d)
        if window is POLYGON:
            assert not field_2d.mask.all() and not field_3d.mask.all()

    @pytest.mark.parametrize("columns", [2, 3])
    def test_emit_pattern_matches_csv_writer(self, tmp_path, monkeypatch, columns):
        rng = np.random.default_rng(columns)
        pts = rng.uniform(size=(100, 3))
        pts = pts[np.argsort(pts[:, 2])]
        pts[0, :2] = [1e-320, -0.0]
        if columns == 3:
            pattern = SpaceTimePattern(pts, UNIT)
        else:
            pattern = SpatialPattern(pts[:, :2], UNIT)
        monkeypatch.setattr(cli, "_BLOCK_ROWS", 7)  # rows span several blocks
        text = same_bytes(tmp_path, emit_pattern, oracle_emit_pattern, pattern)
        assert text.count(b"\r\n") == 101
        assert text.split(b"\r\n")[1].count(b",") == columns - 1

    def test_curves_with_special_values_match_csv_writer(self, tmp_path):
        args = np.linspace(0.0, 1.0, 6)
        observed = np.array([math.inf, math.nan, -0.0, 1e-320, -math.inf, 2.0])
        lower = np.array([-0.0, 0.0, 1e-320, math.nan, 3.0, 5e-324])
        upper = np.array([1e308, math.inf, 0.1, 0.2, -0.0, math.nan])
        text = same_bytes(
            tmp_path, cli._write_curves, oracle_write_curves, args, observed, lower, upper
        )
        fields = set(text.replace(b"\r\n", b",").split(b","))
        assert {b"inf", b"-inf", b"nan", b"-0.0", b"1e-320", b"5e-324"} <= fields
        assert text.endswith(b"\r\n") and text.count(b"\r\n") == 7


class TestRun:
    def test_simulate_task_writes_schema(self, tmp_path):
        cfg_path, cfg = write_config(tmp_path, simulate={"lambda": 200})
        out = run(cfg, "simulate")
        rows = read_csv(out / "pattern.csv")
        assert rows[0] == ["x1", "x2", "t"]
        report = json.loads((out / "report.json").read_text())
        assert report["n_events"] == len(rows) - 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["task"] == "simulate"
        assert "config_hash" in manifest and "version" in manifest

    def test_unknown_task_rejected(self, tmp_path):
        _, cfg = write_config(tmp_path)
        with pytest.raises(ValueError, match="unknown task"):
            run(cfg, "nope")

    def test_output_collision_refused(self, tmp_path):
        _, cfg = write_config(tmp_path, simulate={"lambda": 50})
        run(cfg, "simulate")
        with pytest.raises(FileExistsError):
            run(cfg, "simulate")
        run(cfg, "simulate", force=True)

    def test_ripley_k_task_p_on_grid(self, tmp_path):
        _, cfg = write_config(tmp_path, name="sim.json", simulate={"lambda": 300})
        cfg["output_dir"] = str(tmp_path / "data")
        out = run(cfg, "simulate")
        cfg2 = {
            "window": {"x1": [0, 1], "x2": [0, 1], "t": [0, 1]},
            "input": str(out / "pattern.csv"),
            "output_dir": str(tmp_path / "k"),
            "pi0": 1.0,
            "test": {"B": 39},
            "kgrid": {"n_r": 10, "n_tau": 10},
            "seed": 2,
        }
        run(cfg2, "ripley-k")
        report = json.loads((tmp_path / "k" / "report.json").read_text())
        k = report["p_value"] * 40
        assert k == pytest.approx(round(k))
        rows = read_csv(tmp_path / "k" / "curves_Kt.csv")
        assert rows[0] == ["arg", "observed", "lo", "hi"]
        assert len(rows) == 11

    def test_separability_task(self, tmp_path):
        _, cfg = write_config(tmp_path, simulate={"lambda": 600})
        cfg["output_dir"] = str(tmp_path / "data")
        out = run(cfg, "simulate")
        cfg2 = {
            "window": {"x1": [0, 1], "x2": [0, 1], "t": [0, 1]},
            "input": str(out / "pattern.csv"),
            "output_dir": str(tmp_path / "sep"),
            "pi0": 1.0,
            "test": {"B": 19},
            "grids": {"spacetime": [12, 12, 30]},
            "bandwidth": {"temporal": 0.05, "spatial": 0.1},
            "seed": 4,
        }
        run(cfg2, "separability")
        report = json.loads((tmp_path / "sep" / "report.json").read_text())
        assert 0 < report["p_value"] <= 1
        st = read_csv(tmp_path / "sep" / "curves_St.csv")
        assert len(st) == 31

    def test_intensity_task_at_default_search(self, tmp_path):
        _, cfg = write_config(tmp_path, simulate={"lambda": 2000})
        cfg["output_dir"] = str(tmp_path / "data")
        out = run(cfg, "simulate")
        grids = {"spatial": [24, 20], "temporal": 50, "spacetime": [16, 12, 25]}
        cfg2 = {
            "window": {"x1": [0, 1], "x2": [0, 1], "t": [0, 1]},
            "input": str(out / "pattern.csv"),
            "output_dir": str(tmp_path / "int"),
            "emit_spacetime": True,
            "grids": grids,
            "seed": 6,
        }
        run(cfg2, "intensity")
        report = json.loads((tmp_path / "int" / "report.json").read_text())
        assert report["bandwidth_spatial"] > 0 and report["bandwidth_temporal"] > 0
        assert report["integral_s"] == pytest.approx(report["n_events"], rel=1e-9)
        expected = {
            "intensity_s.csv": (["x1", "x2", "value"], 24 * 20),
            "intensity_t.csv": (["t", "value"], 50),
            "intensity_st.csv": (["x1", "x2", "t", "value"], 16 * 12 * 25),
        }
        for name, (header, n_rows) in expected.items():
            raw = (tmp_path / "int" / name).read_bytes()
            assert raw.endswith(b"\r\n") and raw.count(b"\n") == raw.count(b"\r\n")
            rows = read_csv(tmp_path / "int" / name)
            assert rows[0] == header
            assert len(rows) == 1 + n_rows
            for row in rows[1:]:
                assert len(row) == len(header)
                assert all(repr(float(v)) == v for v in row)

    def test_homogenize_task(self, tmp_path):
        _, cfg = write_config(tmp_path, simulate={"lambda": 2000})
        cfg["output_dir"] = str(tmp_path / "data")
        out = run(cfg, "simulate")
        cfg2 = {
            "window": {"x1": [0, 1], "x2": [0, 1], "t": [0, 1]},
            "input": str(out / "pattern.csv"),
            "output_dir": str(tmp_path / "hom"),
            "homogenize": {"target_count": 300},
            "seed": 5,
        }
        run(cfg2, "homogenize")
        report = json.loads((tmp_path / "hom" / "report.json").read_text())
        assert report["retained"] > 0
        rows = read_csv(tmp_path / "hom" / "pattern_homogenized.csv")
        assert rows[0] == ["x1", "x2"]
        assert len(rows) - 1 == report["retained"]

    def test_homogenize_identical_across_threads(self, tmp_path):
        _, cfg = write_config(tmp_path, simulate={"lambda": 3000})
        cfg["output_dir"] = str(tmp_path / "data")
        out = run(cfg, "simulate")
        outputs = []
        for threads in ("1", "2"):
            cfg_path, _ = write_config(
                tmp_path, name=f"hom{threads}.json",
                input=str(out / "pattern.csv"),
                output_dir=str(tmp_path / f"hom{threads}"),
                homogenize={"target_count": 400},
            )
            assert main(["homogenize", "--config", str(cfg_path), "--threads", threads]) == 0
            outputs.append(
                [(tmp_path / f"hom{threads}" / name).read_bytes()
                 for name in ("pattern_homogenized.csv", "report.json")]
            )
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][1])["retained"] > 0

    def test_prop2_task(self, tmp_path):
        _, cfg = write_config(tmp_path)
        cfg["prop2"] = {"lam_floor": 500.0, "p": 0.05, "r": 0.1, "tau": 0.05,
                        "lambda": 3000.0, "seeds": 3, "thinnings": 1}
        run(cfg, "prop2-check")
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["series"]["J"] == pytest.approx(1.0, abs=1e-10)
        assert "residual_ratio" in report

    def test_rerun_identical_outputs(self, tmp_path):
        _, cfg = write_config(tmp_path, simulate={"lambda": 150})
        cfg["output_dir"] = str(tmp_path / "r1")
        run(cfg, "simulate")
        cfg["output_dir"] = str(tmp_path / "r2")
        run(cfg, "simulate")
        a = (tmp_path / "r1" / "pattern.csv").read_bytes()
        b = (tmp_path / "r2" / "pattern.csv").read_bytes()
        assert a == b


class TestMain:
    def test_cli_error_paths(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, simulate={"lambda": 10})
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        assert main(["simulate", "--config", str(cfg_path)]) == 2  # collision
        err = capsys.readouterr().err
        assert "--force" in err

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text('{"window": {"x1": [0, 1],')
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "malformed JSON" in err

    def test_config_without_window_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({"output_dir": str(tmp_path / "out"), "seed": 3}))
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        assert "error: missing config key 'window'" in capsys.readouterr().err

    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.37 GiB")

        monkeypatch.setattr("stpp.cli.run", exhausted)
        cfg_path, _ = write_config(tmp_path, simulate={"lambda": 10})
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        assert "error: out of memory: Unable to allocate" in capsys.readouterr().err

    @pytest.mark.parametrize("projection", ["degree", "km", None])
    def test_unknown_projection_exits_2(self, tmp_path, capsys, projection):
        cfg_path, _ = write_config(tmp_path, window=GEO["window"], projection=projection)
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: projection must be 'equirect' or 'degrees'")
        assert repr(projection) in err
        assert not (tmp_path / "out").exists()

    def test_known_projections_accepted(self):
        for projection, mode in (("equirect", "lonlat"), ("degrees", "degrees")):
            _, context = build_window({**GEO, "projection": projection})
            assert context["mode"] == mode
        assert build_window(GEO)[1]["mode"] == "lonlat"

    def test_import_leaves_scipy_stats_and_optimize_unloaded(self):
        code = (
            "import sys, stpp.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize'])))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_console_entry_point(self, tmp_path):
        cfg_path, _ = write_config(tmp_path, simulate={"lambda": 10})
        proc = subprocess.run(
            [sys.executable, "-m", "stpp.cli", "simulate", "--config", str(cfg_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0

    def test_threads_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STPP_THREADS", "3")
        cfg_path, _ = write_config(tmp_path, simulate={"lambda": 10})
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["threads"] == 3

    @pytest.mark.parametrize("raw", ["two", "0", "-1", "1.5", ""])
    def test_bad_threads_env_exits_2(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("STPP_THREADS", raw)
        cfg_path, _ = write_config(tmp_path, simulate={"lambda": 10})
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: STPP_THREADS must be an integer >= 1")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw", ["0", "two", "-3"])
    def test_bad_threads_flag_exits_2(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("STPP_THREADS", "2")
        cfg_path, _ = write_config(tmp_path, simulate={"lambda": 10})
        assert main(["simulate", "--config", str(cfg_path), f"--threads={raw}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --threads must be an integer >= 1")
        assert not (tmp_path / "out").exists()

    def test_threads_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STPP_THREADS", "two")
        cfg_path, _ = write_config(tmp_path, simulate={"lambda": 10})
        assert main(["simulate", "--config", str(cfg_path), "--threads", "2"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["threads"] == 2
