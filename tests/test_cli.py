import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from stpp import cli, core
from stpp.cli import EARTH_RADIUS_KM, build_window, emit_pattern, ingest, main, run
from stpp.core import GridSpec, PolygonMask, ScalarField, SpaceTimePattern, SpatialPattern, Window
from stpp.simulate import thin

ROOT = Path(__file__).resolve().parent.parent
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


@pytest.fixture(scope="module")
def catalogue_200k(tmp_path_factory):
    """A Poisson catalogue of about 2·10^5 events in the unit window."""
    tmp_path = tmp_path_factory.mktemp("catalogue")
    _, cfg = write_config(tmp_path, simulate={"lambda": 201_000})
    return run(cfg, "simulate") / "pattern.csv"


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")


def env_without_blas():
    return {k: v for k, v in os.environ.items() if k not in BLAS_VARS}


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
                    t = cli._parse_time(row[2]) - context["time_origin"]
                    if context["mode"] == "degrees":
                        rows.append((lon, lat, t))
                    else:
                        kx = EARTH_RADIUS_KM * math.cos(math.radians(context["lat0"]))
                        x1, x2 = kx * math.radians(lon), EARTH_RADIUS_KM * math.radians(lat)
                        rows.append((x1, x2, t))
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
    columnar = cli._parse_columns(str(path), 1, "lon" in spec["window"]) is not None
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

    @pytest.mark.parametrize("projection", ["equirect", "degrees"])
    @pytest.mark.parametrize("zone", ["Z", "+00:00"], ids=["columnar", "rows"])
    def test_events_at_window_corners_are_inside(self, tmp_path, projection, zone):
        # events and the window's corners go through the one map to window
        # coordinates, so an event on a corner lands on it exactly
        spec = {**GEO, "projection": projection}
        start, stop = (stamp.replace("Z", zone) for stamp in GEO["window"]["time"])
        lines = [f"{lon!r},{lat!r},{t}" for lon in (4.0, 8.0) for lat in (43.0, 47.0)
                 for t in (start, stop)]
        got, want, columnar = both_ingests(tmp_path, lines, spec)
        assert columnar == (zone == "Z")
        assert_same_ingest(got, want)
        window, _ = build_window(spec)
        assert sorted(set(got[0][:, 0])) == list(window.x_range)
        assert sorted(set(got[0][:, 1])) == list(window.y_range)
        assert sorted(set(got[0][:, 2])) == list(window.t_range)

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


# finite values on both sides of each of repr's layout switches: positional
# from 1e-4 up to 1e16, ".0" on whole numbers, subnormals
SPECIAL = [
    -0.0, 1e-320, 5e-324, 1.7976931348623157e308, 0.1, -2.5e-7, 123456789.0,
    1e16, 9999999999999998.0, 1e-4, 9.999999999999999e-05, 100.0, 123456789012345.67, 1e22,
]
NEGATIVE_NAN = float(np.copysign(math.nan, -1.0))


def field_values(shape, seed):
    rng = np.random.default_rng(seed)
    values = rng.gamma(2.0, 1e3, size=shape).ravel()
    n = min(values.size, len(SPECIAL))
    values[:n] = SPECIAL[:n]
    return values.reshape(shape)


def test_render_matches_repr():
    # random bit patterns cover both signs, normals, subnormals and NaN
    # payloads; a power of two's lower neighbour is Schubfach's narrower
    # rounding interval
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2**64, size=10**6, dtype=np.uint64)
    powers = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    edges = np.concatenate([powers, tens])
    values = np.concatenate([
        bits.view(float), edges, np.nextafter(edges, 0.0), np.nextafter(edges, math.inf),
        np.arange(1.0, 10**5 + 1),
        [0.0, -0.0, math.inf, -math.inf, 5e-324, 1.7976931348623157e308],
    ])
    exponent = bits >> np.uint64(52) & np.uint64(0x7FF)
    assert (exponent == 0).sum() > 100 and (exponent == 0x7FF).sum() > 100
    assert 0 < (bits >> np.uint64(63)).sum() < len(bits)
    text = []
    for start in range(0, len(values), 1 << 16):
        chars = cli._render(values[start:start + (1 << 16)])
        lines = np.vstack([chars, np.full((1, chars.shape[1]), ord("\n"), np.uint8)]).T
        text.append(lines[lines != 0].tobytes())  # NUL marks an unused slot
    got = b"".join(text).decode().split("\n")[:-1]
    want = [repr(v) for v in values.tolist()]
    wrong = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert len(got) == len(want) and not wrong[:10]


class TestWriters:
    @pytest.mark.parametrize("window", [UNIT, POLYGON], ids=["rectangle", "polygon"])
    def test_fields_match_csv_writer(self, tmp_path, monkeypatch, window):
        spatial = GridSpec.spatial(window, 9, 7)
        field_2d = ScalarField(spatial, field_values(spatial.shape, 1), window.raster(spatial))
        text = same_bytes(tmp_path, cli._write_field_2d, oracle_write_field_2d, field_2d)
        assert text.count(b"\r\n") == 1 + field_2d.mask.sum()
        spacetime = GridSpec.spacetime(window, 6, 5, 4)
        mask = window.raster(GridSpec.spatial(window, 6, 5))
        field_3d = ScalarField(spacetime, field_values(spacetime.shape, 2), mask)
        text = same_bytes(tmp_path, cli._write_field_3d, oracle_write_field_3d, field_3d)
        assert text.count(b"\r\n") == 1 + field_3d.mask.sum()
        temporal = GridSpec.temporal(window, len(SPECIAL) + 2)
        field_1d = ScalarField(temporal, field_values(temporal.shape, 3))
        same_bytes(tmp_path, cli._write_field_1d, oracle_write_field_1d, field_1d)
        if window is POLYGON:
            assert not field_2d.mask.all() and not field_3d.mask.all()
        # blocks of 999 rows end inside a cell's 25 times
        monkeypatch.setattr(core, "_BLOCK_BYTES", 999 * core._CSV_ROW_BYTES)
        spacetime = GridSpec.spacetime(window, 16, 12, 25)
        mask = window.raster(GridSpec.spatial(window, 16, 12))
        field_3d = ScalarField(spacetime, field_values(spacetime.shape, 4), mask)
        text = same_bytes(tmp_path, cli._write_field_3d, oracle_write_field_3d, field_3d)
        assert text.count(b"\r\n") == 1 + field_3d.mask.sum() > 3 * 999

    @pytest.mark.parametrize("columns", [2, 3])
    def test_emit_pattern_matches_csv_writer(self, tmp_path, monkeypatch, columns):
        rng = np.random.default_rng(columns)
        pts = rng.uniform(size=(100, 3))
        pts = pts[np.argsort(pts[:, 2])]
        inside = [v for v in SPECIAL if abs(v) < 1e23]
        pts[: len(inside), 0] = inside
        pts[: len(inside), 1] = [-v for v in inside]
        wide = Window((-1e23, 1e23), (-1e23, 1e23), (0, 1))
        if columns == 3:
            pattern = SpaceTimePattern(pts, wide)
        else:
            pattern = SpatialPattern(pts[:, :2], wide)
        monkeypatch.setattr(core, "_BLOCK_BYTES", 7 * core._CSV_ROW_BYTES)  # rows span several blocks
        text = same_bytes(tmp_path, emit_pattern, oracle_emit_pattern, pattern)
        assert text.count(b"\r\n") == 101
        assert text.split(b"\r\n")[1].count(b",") == columns - 1

    def test_curves_with_special_values_match_csv_writer(self, tmp_path):
        args = np.linspace(0.0, 1.0, 6 + len(SPECIAL))
        observed = np.array([math.inf, NEGATIVE_NAN, -0.0, 1e-320, -math.inf, 2.0] + SPECIAL)
        lower = np.array([-0.0, 0.0, 1e-320, math.nan, 3.0, 5e-324] + SPECIAL[::-1])
        upper = np.array([1e308, math.inf, 0.1, 0.2, -0.0, math.nan] + [-v for v in SPECIAL])
        assert np.signbit(observed[1])
        text = same_bytes(
            tmp_path, cli._write_curves, oracle_write_curves, args, observed, lower, upper
        )
        fields = set(text.replace(b"\r\n", b",").split(b","))
        assert {b"inf", b"-inf", b"nan", b"-0.0", b"1e-320", b"5e-324"} <= fields
        assert {b"1e+16", b"9999999999999998.0", b"0.0001", b"9.999999999999999e-05"} <= fields
        assert {b"100.0", b"123456789012345.67", b"1e+22", b"-1e+22"} <= fields
        assert text.endswith(b"\r\n") and text.count(b"\r\n") == 7 + len(SPECIAL)


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
        with pytest.warns(UserWarning, match="B=19 replicates is small for alpha=0.05"):
            run(cfg2, "separability")
        report = json.loads((tmp_path / "sep" / "report.json").read_text())
        assert 0 < report["p_value"] <= 1
        st = read_csv(tmp_path / "sep" / "curves_St.csv")
        assert len(st) == 31

    def test_separability_reports_version_0_subsample(self, tmp_path, monkeypatch):
        # with two versions the report's n_subsample is version 0's, the
        # subsample its p_value, bandwidths and curves come from
        _, cfg = write_config(tmp_path, simulate={"lambda": 600})
        cfg["output_dir"] = str(tmp_path / "data")
        out = run(cfg, "simulate")
        sizes = []

        def recorded_thin(*args, **kwargs):
            sub = thin(*args, **kwargs)
            sizes.append(len(sub))
            return sub

        monkeypatch.setattr(cli, "thin", recorded_thin)
        reports = []
        for versions in (1, 2):
            cfg2 = {
                "window": {"x1": [0, 1], "x2": [0, 1], "t": [0, 1]},
                "input": str(out / "pattern.csv"),
                "output_dir": str(tmp_path / f"sep{versions}"),
                "pi0": 0.5,
                "versions": versions,
                "test": {"B": 19},
                "grids": {"spacetime": [12, 12, 30]},
                "bandwidth": {"temporal": 0.05, "spatial": 0.1},
                "seed": 4,
            }
            with pytest.warns(UserWarning, match="B=19 replicates is small for alpha=0.05"):
                run(cfg2, "separability")
            reports.append(json.loads((tmp_path / f"sep{versions}" / "report.json").read_text()))
        one, two = reports
        assert len(sizes) == 3 and sizes[0] == sizes[1] != sizes[2]
        assert one["n_subsample"] == two["n_subsample"] == sizes[0]
        assert two["p_values"][0] == one["p_value"] and len(two["p_values"]) == 2
        del one["p_values"], two["p_values"]
        assert one == two
        for name in ("curves_St.csv", "curves_Ss.csv"):
            one, two = ((tmp_path / f"sep{v}" / name).read_bytes() for v in (1, 2))
            assert one == two, name

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

    @pytest.mark.parametrize(
        "task, extra, names, positive",
        [
            (
                "homogenize",
                {"homogenize": {"target_count": 400}},
                ["pattern_homogenized.csv"],
                "retained",
            ),
            (
                "intensity",
                {
                    "emit_spacetime": True,
                    "pi0": 0.5,
                    "grids": {"spatial": [24, 20], "temporal": 50, "spacetime": [12, 10, 20]},
                    "bandwidth": {"spatial": 0.1},
                },
                ["intensity_s.csv", "intensity_t.csv", "intensity_st.csv"],
                "integral_st",
            ),
            (
                "separability",
                {
                    "pi0": 0.5,
                    "test": {"B": 19},
                    "grids": {"spacetime": [12, 10, 20]},
                    "bandwidth": {"spatial": 0.1},
                },
                ["curves_St.csv", "curves_Ss.csv"],
                "p_value",
            ),
            (
                "ripley-k",
                {
                    "intensity": "kernel",
                    "pi0": 0.5,
                    "test": {"B": 19},
                    "grids": {"spacetime": [12, 10, 20]},
                    "bandwidth": {"spatial": 0.1},
                    "kgrid": {"n_r": 5, "n_tau": 5},
                },
                ["curves_Kt.csv", "curves_Ks.csv"],
                "bandwidth_temporal",
            ),
        ],
        ids=["homogenize", "intensity", "separability", "ripley-k"],
    )
    def test_identical_across_threads(self, tmp_path, task, extra, names, positive):
        _, cfg = write_config(tmp_path, simulate={"lambda": 3000})
        cfg["output_dir"] = str(tmp_path / "data")
        out = run(cfg, "simulate")
        outputs = []
        for threads in ("1", "2"):
            cfg_path, _ = write_config(
                tmp_path, name=f"{task}{threads}.json",
                input=str(out / "pattern.csv"),
                output_dir=str(tmp_path / f"{task}{threads}"),
                **extra,
            )
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main([task, "--config", str(cfg_path), "--threads", threads]) == 0
            small_b = ["B=19 replicates is small for alpha=0.05; recommend B >= 39"]
            assert [str(w.message) for w in caught] == (small_b if "test" in extra else [])
            outputs.append(
                [(tmp_path / f"{task}{threads}" / name).read_bytes()
                 for name in names + ["report.json"]]
            )
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][-1])[positive] > 0

    def test_ripley_k_small_b_warns(self, tmp_path):
        # at B = 9 the smallest p-value is 0.1, so the test cannot reject at
        # alpha = 0.05; the CLI runs it and says so
        _, cfg = write_config(tmp_path, simulate={"lambda": 300})
        cfg["output_dir"] = str(tmp_path / "data")
        out = run(cfg, "simulate")
        cfg_path, _ = write_config(
            tmp_path, name="k.json", input=str(out / "pattern.csv"),
            output_dir=str(tmp_path / "k"), pi0=1.0, test={"B": 9},
            kgrid={"n_r": 5, "n_tau": 5},
        )
        with pytest.warns(UserWarning, match="B=9 replicates is small for alpha=0.05"):
            assert main(["ripley-k", "--config", str(cfg_path)]) == 0
        report = json.loads((tmp_path / "k" / "report.json").read_text())
        assert report["B"] == 9 and report["p_value"] >= 0.1

    def test_report_is_strict_json(self, tmp_path):
        # a target count of 0.5 retains no event, so the quadrat test has
        # nothing to test and its statistic and p-value are NaN
        _, cfg = write_config(tmp_path, simulate={"lambda": 300})
        cfg["output_dir"] = str(tmp_path / "data")
        out = run(cfg, "simulate")
        _, cfg2 = write_config(
            tmp_path, input=str(out / "pattern.csv"), output_dir=str(tmp_path / "hom"),
            homogenize={"target_count": 0.5},
        )
        with pytest.warns(UserWarning, match="only 0 points retained"):
            run(cfg2, "homogenize")

        def rejected(name):
            raise ValueError(f"{name} is not JSON")

        report, _ = (json.loads((tmp_path / "hom" / name).read_text(), parse_constant=rejected)
                     for name in ("report.json", "manifest.json"))
        assert report["retained"] == 0
        assert report["quadrat_p"] is None and report["quadrat_statistic"] is None

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

    def test_oversized_separability_grid_exits_2_before_building_rows(
        self, tmp_path, capsys, monkeypatch
    ):
        def built(*args, **kwargs):
            raise AssertionError("kernel rows built")

        monkeypatch.setattr("stpp.separability._spacetime_rows", built)
        monkeypatch.setattr("stpp.separability._spatial_kernel_rows", built)
        monkeypatch.setattr("stpp.separability.substream", built)
        _, cfg = write_config(tmp_path, simulate={"lambda": 600})
        cfg["output_dir"] = str(tmp_path / "data")
        out = run(cfg, "simulate")
        # the 300 pairings' curves on a 1000 x 1000 spatial grid need about
        # 2.4 GB; the events' factor rows and one S block need 17 MB
        cfg_path, _ = write_config(
            tmp_path, name="sep.json",
            input=str(out / "pattern.csv"),
            output_dir=str(tmp_path / "sep"),
            pi0=1.0,
            test={"B": 299},
            grids={"spacetime": [1000, 1000, 10]},
            bandwidth={"temporal": 0.05, "spatial": 0.1},
        )
        assert main(["separability", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: 3D estimation needs about")
        assert "coarser grid" in err and "Traceback" not in err

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

    def test_import_leaves_scipy_stats_and_optimize_unloaded(self, tmp_path):
        # every task runs in one fresh interpreter; temporal bandwidths are
        # left to Sheather-Jones so its root solve runs too
        window = {"x1": [0, 1], "x2": [0, 1], "t": [0, 1]}
        data = {"window": window, "output_dir": str(tmp_path / "data"), "seed": 3,
                "simulate": {"lambda": 2000}}
        tasks = {
            "simulate": {},
            "intensity": {"grids": {"spatial": [8, 8], "temporal": 20},
                          "bandwidth": {"spatial": 0.1}},
            "separability": {"pi0": 0.5, "test": {"B": 19},
                             "grids": {"spacetime": [8, 8, 10]},
                             "bandwidth": {"spatial": 0.1}},
            "ripley-k": {"pi0": 0.5, "test": {"B": 19},
                         "kgrid": {"n_r": 5, "n_tau": 5}},
            "homogenize": {"homogenize": {"target_count": 300}},
            "prop2-check": {"prop2": {"lam_floor": 500.0, "p": 0.05, "r": 0.1, "tau": 0.05,
                                      "lambda": 3000.0, "seeds": 2, "thinnings": 1}},
        }
        (tmp_path / "data.json").write_text(json.dumps(data))
        for task, extra in tasks.items():
            cfg = {"window": window, "input": str(tmp_path / "data" / "pattern.csv"),
                   "output_dir": str(tmp_path / task), "seed": 4, **extra}
            (tmp_path / f"{task}.json").write_text(json.dumps(cfg))
        code = (
            "import sys, warnings; from stpp.cli import main; "
            "warnings.simplefilter('ignore'); "
            f"codes = [main(['simulate', '--config', {str(tmp_path / 'data.json')!r}])]; "
            f"codes += [main([t, '--config', {str(tmp_path)!r} + '/' + t + '.json']) "
            f"for t in {list(tasks)!r}]; "
            "print(codes); "
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'stats'], ['scipy', 'optimize'])))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == [str([0] * 7), "[]"]
        for task in tasks:
            assert (tmp_path / task / "report.json").exists()
        report = json.loads((tmp_path / "intensity" / "report.json").read_text())
        assert report["bandwidth_temporal"] > 0

    def test_analysis_tasks_leave_scipy_unloaded(self, tmp_path):
        # every task but homogenize, in one fresh interpreter; ripley-k runs
        # with a constant and with a kernel intensity
        window = {"x1": [0, 1], "x2": [0, 1], "t": [0, 1]}
        data = tmp_path / "data" / "pattern.csv"
        ripley = {"input": str(data), "pi0": 0.5, "test": {"B": 19},
                  "kgrid": {"n_r": 5, "n_tau": 5}}
        runs = {
            "simulate": {"simulate": {"lambda": 2000}, "output_dir": str(tmp_path / "data")},
            "intensity": {"input": str(data), "bandwidth": {"spatial": 0.1},
                          "grids": {"spatial": [8, 8], "temporal": 20, "spacetime": [8, 8, 10]},
                          "emit_spacetime": True},
            "separability": {"input": str(data), "pi0": 0.5, "test": {"B": 19},
                             "grids": {"spacetime": [8, 8, 10]},
                             "bandwidth": {"spatial": 0.1}},
            "ripley-k": ripley,
            "ripley-k-kernel": {**ripley, "intensity": "kernel",
                                "grids": {"spacetime": [8, 8, 10]},
                                "bandwidth": {"spatial": 0.1}},
            "prop2-check": {"prop2": {"lam_floor": 500.0, "p": 0.05, "r": 0.1, "tau": 0.05,
                                      "lambda": 3000.0, "seeds": 2, "thinnings": 1}},
        }
        argvs = []
        for name, extra in runs.items():
            cfg = {"window": window, "output_dir": str(tmp_path / name), "seed": 4, **extra}
            (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
            argvs.append([name.removesuffix("-kernel"), "--config", str(tmp_path / f"{name}.json")])
        code = (
            "import sys, warnings; from stpp.cli import main; "
            "warnings.simplefilter('ignore'); "
            f"print([main(argv) for argv in {argvs!r}]); "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-2:] == [str([0] * len(runs)), "[]"]
        report = json.loads((tmp_path / "ripley-k-kernel" / "report.json").read_text())
        assert report["bandwidth_temporal"] > 0

    def test_import_stpp_leaves_numpy_unloaded(self):
        code = (
            "import sys, stpp; print('numpy' in sys.modules); "
            "from stpp import Window; print(Window.__module__); "
            "import stpp.core; print(stpp.core.Window is Window)"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "stpp.core", "True"]

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
    def test_cli_pins_blas_to_one_thread(self):
        # the pin holds only if numpy, and with it BLAS, starts after stpp.cli runs
        code = (
            "import stpp.cli, numpy as np; a = np.ones((500, 500)); a @ a; "
            "print(next(line.split()[1] for line in open('/proc/self/status') "
            "if line.startswith('Threads:')))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env_without_blas()
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "1"

    def test_separability_outputs_independent_of_blas_env(self, tmp_path):
        _, cfg = write_config(tmp_path, simulate={"lambda": 3000})
        cfg["output_dir"] = str(tmp_path / "data")
        out = run(cfg, "simulate")
        outputs = []
        for blas in (None, "1"):
            name = f"sep-{blas}"
            cfg_path, _ = write_config(
                tmp_path, name=f"{name}.json", input=str(out / "pattern.csv"),
                output_dir=str(tmp_path / name), pi0=0.5, test={"B": 19},
                grids={"spacetime": [12, 10, 20]},
                bandwidth={"search": {"retention": 0.5, "repeats": 3}},
            )
            env = env_without_blas()
            if blas is not None:
                env.update(dict.fromkeys(BLAS_VARS, blas))
            proc = subprocess.run(
                [sys.executable, "-m", "stpp.cli", "separability", "--config", str(cfg_path)],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append([(tmp_path / name / f).read_bytes()
                            for f in ("curves_St.csv", "curves_Ss.csv", "report.json")])
        assert outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("B", [0, -3, 2.7])
    @pytest.mark.parametrize("task", ["separability", "ripley-k"])
    def test_bad_replicate_count_exits_2(self, tmp_path, capsys, task, B):
        _, cfg = write_config(tmp_path, simulate={"lambda": 200})
        cfg["output_dir"] = str(tmp_path / "data")
        out = run(cfg, "simulate")
        cfg_path, _ = write_config(
            tmp_path, name="bad.json", input=str(out / "pattern.csv"), pi0=0.5,
            test={"B": B}, bandwidth={"temporal": 0.05, "spatial": 0.1},
        )
        assert main([task, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: test.B must be an integer >= 1, got {B!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pi0", [0, -0.5, 1.5, "x"])
    @pytest.mark.parametrize("task", ["separability", "ripley-k"])
    def test_bad_retention_exits_2(self, tmp_path, capsys, task, pi0):
        _, cfg = write_config(tmp_path, simulate={"lambda": 200})
        cfg["output_dir"] = str(tmp_path / "data")
        out = run(cfg, "simulate")
        cfg_path, _ = write_config(
            tmp_path, name="bad.json", input=str(out / "pattern.csv"), pi0=pi0,
            test={"B": 19}, bandwidth={"temporal": 0.05, "spatial": 0.1},
        )
        assert main([task, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: pi0 must be a number in (0, 1], got {pi0!r}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "task, extra, message",
        [
            ("intensity", {"grids": {"spatial": 5}},
             "grids.spatial must be a list of 2 integers >= 1, got 5"),
            ("intensity", {"grids": {"temporal": [10, 20]}},
             "grids.temporal must be an integer >= 1, got [10, 20]"),
            ("intensity", {"grids": {"spatial": [0, 10]}},
             "grids.spatial must be a list of 2 integers >= 1, got [0, 10]"),
            ("intensity", {"grids": {"spatial": [2.5, 10]}},
             "grids.spatial must be a list of 2 integers >= 1, got [2.5, 10]"),
            ("intensity", {"grids": {"spacetime": [True, 10, 10]}, "emit_spacetime": True},
             "grids.spacetime must be a list of 3 integers >= 1, got [True, 10, 10]"),
            ("separability", {"grids": {"spacetime": [8, 8]}},
             "grids.spacetime must be a list of 3 integers >= 1, got [8, 8]"),
            ("ripley-k", {"intensity": "kernel", "grids": {"spacetime": 5}},
             "grids.spacetime must be a list of 3 integers >= 1, got 5"),
            ("homogenize", {"homogenize": {"target_count": 50, "resolution": 0}},
             "homogenize.resolution must be an integer >= 1, got 0"),
            ("homogenize", {"homogenize": {"target_count": 50, "resolution": 2.5}},
             "homogenize.resolution must be an integer >= 1, got 2.5"),
            ("homogenize", {"homogenize": {"target_count": 50, "resolution": "10"}},
             "homogenize.resolution must be an integer >= 1, got '10'"),
            ("simulate", {"simulate": {"cluster": [1, 2]}},
             "simulate.cluster must be a JSON object, got [1, 2]"),
            ("simulate", {"simulate": {"lambda": [1]}},
             "simulate.lambda must be a number >= 0, got [1]"),
            # these ran at the parent and did something else
            ("separability", {"versions": 0}, "versions must be an integer >= 1, got 0"),
            ("ripley-k", {"intensity": "kernl"},
             "intensity must be 'constant' or 'kernel', got 'kernl'"),
            ("intensity", {"emit_spacetime": "no"},
             "emit_spacetime must be true or false, got 'no'"),
            ("ripley-k", {"jitter": 1}, "jitter must be true or false, got 1"),
            ("simulate", {"seed": 1.7}, "seed must be an integer >= 0, got 1.7"),
            ("simulate", {"seed": True}, "seed must be an integer >= 0, got True"),
            ("intensity", {"bandwidth": {"temporal": 0.05, "search": {"folds": 2.5}}},
             "bandwidth.search.folds must be an integer >= 2, got 2.5"),
            ("ripley-k", {"test": {"B": 19, "alpha": 1.5}},
             "test.alpha must be a number in (0, 1), got 1.5"),
            ("separability", {"test": {"B": 19, "alpha": 0}},
             "test.alpha must be a number in (0, 1), got 0"),
            ("ripley-k", {"kgrid": {"r_max": 0}}, "kgrid.r_max must be a number > 0, got 0"),
            ("ripley-k", {"kgrid": {"tau_max": -1.0}},
             "kgrid.tau_max must be a number > 0, got -1.0"),
            ("ripley-k", {"kgrid": {"nr": 5}}, "unknown config key 'kgrid.nr'"),
            ("simulate", {"simulate": {"lambda": 10, "pi": 0.5}},
             "unknown config key 'simulate.pi'"),
            # these ended in a traceback and exit 1 at the parent
            ("simulate", {"simulate": {"pi0": [0.5]}},
             "simulate.pi0 must be a number in (0, 1], got [0.5]"),
            ("ripley-k", {"kgrid": {"n_r": [5]}}, "kgrid.n_r must be an integer >= 3, got [5]"),
            ("intensity", {"bandwidth": {"temporal": 0.05, "search": {"n_candidates": "4"}}},
             "bandwidth.search.n_candidates must be an integer >= 1, got '4'"),
            ("prop2-check", {"prop2": {"seeds": [1]}},
             "prop2.seeds must be an integer >= 1, got [1]"),
            ("homogenize", {"homogenize": {"target_count": [50]}},
             "homogenize.target_count must be a number > 0, got [50]"),
            ("simulate", {"window": {"x1": [0, 1], "x2": [0, 1], "t": "ab"}},
             "window.t must be a list of 2 numbers, got 'ab'"),
            ("simulate", {"simulate": {"cluster": {"kappa": 5, "mean_offspring": 4, "sigma": 0.1}}},
             "missing config key 'simulate.cluster.sigma_t'"),
            ("ripley-k", {"input": None}, "missing config key 'input'"),
            # these used the geographic form and ignored x1, x2, or named no key
            ("simulate", {"window": {"x1": [0, 1], "x2": [0, 1], "lon": [4.0, 5.0],
                                     "lat": [44.0, 45.0], "time": [0, 3600]}},
             "window gives both planar (x1, x2) and geographic (lon, lat, time) keys; "
             "use one form"),
            ("simulate", {"window": {"lon": [4.0, 5.0], "lat": [44.0, 45.0],
                                     "time": ["abc", "2011-01-02T00:00:00Z"]}},
             "window.time must be a list of 2 times, got ['abc', '2011-01-02T00:00:00Z']"),
            # a partial geographic window names its first missing key
            ("simulate", {"window": {"lat": [44.0, 45.0], "time": [0, 3600]}},
             "missing config key 'window.lon'"),
            # the K averages need 3 grid values per axis; 2 passed the config
            # and failed only after the ingest, the thinning and the observed K
            ("ripley-k", {"kgrid": {"n_r": 2}}, "kgrid.n_r must be an integer >= 3, got 2"),
            ("ripley-k", {"kgrid": {"n_tau": 2}}, "kgrid.n_tau must be an integer >= 3, got 2"),
        ],
        ids=[
            "spatial-scalar", "temporal-list", "spatial-zero", "spatial-float",
            "spacetime-bool", "separability-short", "ripley-k-scalar", "resolution-zero",
            "resolution-float", "resolution-string", "cluster-list", "lambda-list",
            "versions-zero", "intensity-typo", "emit-spacetime-string", "jitter-int",
            "seed-float", "seed-bool", "folds-float", "alpha-above-1", "alpha-zero",
            "r-max-zero", "tau-max-negative", "unknown-kgrid-key", "unknown-simulate-key",
            "simulate-pi0-list", "n-r-list", "n-candidates-string", "prop2-seeds-list",
            "target-count-list", "window-t-string", "cluster-missing-field", "input-null",
            "window-both-forms", "window-time-unparseable", "window-without-lon",
            "n-r-two", "n-tau-two",
        ],
    )
    def test_bad_config_value_exits_2(self, tmp_path, capsys, task, extra, message):
        _, cfg = write_config(tmp_path, simulate={"lambda": 200})
        cfg["output_dir"] = str(tmp_path / "data")
        out = run(cfg, "simulate")
        good = {"input": str(out / "pattern.csv"), "pi0": 0.5, "test": {"B": 19},
                "bandwidth": {"temporal": 0.05, "spatial": 0.1}}
        cfg_path, _ = write_config(tmp_path, name="bad.json", **{**good, **extra})
        assert main([task, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "header, window, projection, keys",
        [
            ("lon,lat,time", {"x1": [0, 10], "x2": [40, 50], "t": [0, 100]}, "equirect",
             "window.lon, window.lat and window.time"),
            ("x1,x2,t", {"lon": [0, 10], "lat": [40, 50], "time": [0, 100]}, "equirect",
             "window.x1 and window.x2"),
            ("x1,x2,t", {"lon": [0, 10], "lat": [40, 50], "time": [0, 100]}, "degrees",
             "window.x1 and window.x2"),
        ],
        ids=["geographic-file-planar-window", "planar-file-geographic-window",
             "planar-file-degrees-window"],
    )
    def test_header_and_window_of_different_forms_exit_2(
        self, tmp_path, capsys, header, window, projection, keys
    ):
        events = tmp_path / "events.csv"
        events.write_text(f"{header}\n5.0,45.0,10.0\n")
        cfg_path, _ = write_config(
            tmp_path, window=window, projection=projection, input=str(events),
            bandwidth={"temporal": 0.05, "spatial": 0.1},
        )
        assert main(["intensity", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == f"error: {events}: header {header} needs a window with {keys}\n"
        assert not (tmp_path / "out").exists()

    def test_intensity_at_defaults_on_20000_events(self, tmp_path):
        # no bandwidth, grids or pi0 keys: Sheather-Jones, the spatial CV,
        # the default grids and retention all run as the README describes
        _, cfg = write_config(tmp_path, simulate={"lambda": 21000})
        cfg["output_dir"] = str(tmp_path / "data")
        out = run(cfg, "simulate")
        cfg_path, _ = write_config(tmp_path, input=str(out / "pattern.csv"), emit_spacetime=True)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["intensity", "--config", str(cfg_path)]) == 0
        assert not [w for w in caught if "discarded" in str(w.message)]
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["n_events"] >= 20_000
        assert report["integral_s"] == pytest.approx(report["n_events"], rel=1e-9)
        assert report["pi0"] == 0.025 and report["bandwidth_spatial"] > 0

    @pytest.mark.parametrize("task", ["separability", "ripley-k"])
    def test_task_at_defaults_on_200000_events(self, tmp_path, catalogue_200k, task):
        # no bandwidth, grids, pi0 or test.B keys: the 2.5% subsample, its
        # Sheather-Jones and double-thinned CV bandwidths (repeats of about
        # 125 points) and B = 199 run as the README describes
        cfg_path, _ = write_config(tmp_path, input=str(catalogue_200k))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([task, "--config", str(cfg_path)]) == 0
        assert not [w for w in caught if "discarded" in str(w.message)]
        out = tmp_path / "out"
        report = json.loads((out / "report.json").read_text())
        assert report["n_events"] >= 200_000 and report["pi0"] == 0.025
        assert report["B"] == 199
        p_values = report.get("p_values", [report["p_value"]])
        assert report["p_value"] == p_values[0]
        for p in p_values:
            assert 1 <= round(200 * p) <= 200 and 200 * p == pytest.approx(round(200 * p))
        if task == "separability":
            assert report["bandwidth_spatial"] > 0 and report["bandwidth_temporal"] > 0
            curves = ["curves_St.csv", "curves_Ss.csv"]
        else:
            assert "bandwidth_spatial" not in report  # a constant intensity by default
            curves = ["curves_Kt.csv", "curves_Ks.csv"]
        for name in curves:
            rows = read_csv(out / name)
            assert rows[0] == ["arg", "observed", "lo", "hi"] and len(rows) > 2

    def test_input_directory_exits_2(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, input=str(tmp_path), test={"B": 19})
        assert main(["ripley-k", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno") and str(tmp_path) in err

    @pytest.mark.parametrize("top", ["[1, 2]", "3", '"window"', "null"])
    def test_non_object_config_exits_2(self, tmp_path, capsys, top):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(top)
        assert main(["simulate", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg_path}: the configuration must be a JSON object\n"

    @pytest.mark.parametrize(
        "key, value",
        [("window", 5), ("test", []), ("grids", 3), ("bandwidth", "b"), ("kgrid", [50]),
         ("homogenize", None), ("simulate", 2.5), ("prop2", True)],
    )
    def test_config_block_not_an_object_exits_2(self, tmp_path, capsys, key, value):
        cfg_path, _ = write_config(tmp_path, **{key: value})
        assert main(["ripley-k", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {key} must be a JSON object, got {value!r}\n"
        assert not (tmp_path / "out").exists()

    def test_bandwidth_search_not_an_object_exits_2(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, input="events.csv", bandwidth={"search": [16]})
        assert main(["intensity", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: bandwidth.search must be a JSON object, got [16]\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "task, extra",
        # a bad config value fails before the directory is made; a missing
        # input file fails after
        [("simulate", {"simulate": {"lambda": "a"}}),
         ("ripley-k", {"input": "no-such-events.csv", "test": {"B": 19}})],
    )
    def test_failed_run_removes_the_output_directory_it_made(
        self, tmp_path, capsys, task, extra
    ):
        out = tmp_path / "runs" / "out"
        cfg_path, _ = write_config(tmp_path, output_dir=str(out), **extra)
        assert main([task, "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "runs").exists()
        # directories that were there before the run stay
        out.mkdir(parents=True)
        assert main([task, "--config", str(cfg_path)]) == 2
        assert out.is_dir()

    def test_input_not_a_string_exits_2_before_reading(self, tmp_path, capsys, monkeypatch):
        # open(5) would read whatever file descriptor 5 is
        def read(*args, **kwargs):
            raise AssertionError("input read")

        monkeypatch.setattr(cli, "ingest", read)
        cfg_path, _ = write_config(tmp_path, input=5, test={"B": 19})
        assert main(["ripley-k", "--config", str(cfg_path)]) == 2
        assert capsys.readouterr().err == "error: input must be a string, got 5\n"
        assert not (tmp_path / "out").exists()

    def test_simulate_cluster_model(self, tmp_path):
        cluster = {"kappa": 20, "mean_offspring": 5, "sigma": 0.02, "sigma_t": 0.02}
        _, cfg = write_config(tmp_path, simulate={"cluster": cluster, "pi0": 0.5})
        out = run(cfg, "simulate")
        report = json.loads((out / "report.json").read_text())
        assert report["model"] == {"cluster": cluster} and report["pi0"] == 0.5
        assert report["n_events"] == len(read_csv(out / "pattern.csv")) - 1 > 0

    @pytest.mark.parametrize("raw", ["0", "two", "-3"])
    def test_bad_threads_flag_exits_2(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("STPP_THREADS", "2")
        cfg_path, _ = write_config(tmp_path, simulate={"lambda": 10})
        assert main(["simulate", "--config", str(cfg_path), f"--threads={raw}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --threads must be an integer >= 1")
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        cfg_path, _ = write_config(tmp_path, simulate={"lambda": 10})
        assert main(["simulate", "--config", str(cfg_path), "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: --seed must be an integer >= 0, got -1\n"
        assert not (tmp_path / "out").exists()

    def test_threads_flag_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STPP_THREADS", "two")
        cfg_path, _ = write_config(tmp_path, simulate={"lambda": 10})
        assert main(["simulate", "--config", str(cfg_path), "--threads", "2"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["threads"] == 2


def _spelled_out_defaults():
    """A config that gives every key of the table its default, nested by block."""
    config = {}
    for key, (_, default) in cli._KEYS.items():
        if default is cli._REQUIRED or key.startswith("window."):
            continue
        *blocks, name = key.split(".")
        node = config
        for block in blocks:
            node = node.setdefault(block, {})
        node[name] = default
    return config


class TestConfigTable:
    def test_manifest_records_the_resolved_config(self, tmp_path):
        base = {"window": PLANAR["window"], "output_dir": str(tmp_path / "out")}
        configs = []
        for extra in ({}, _spelled_out_defaults()):
            run({**extra, **base}, "simulate", force=True)
            configs.append(json.loads((tmp_path / "out" / "manifest.json").read_text())["config"])
        assert configs[0] == configs[1]
        assert set(configs[0]) == set(cli._KEYS)
        assert configs[0]["test.B"] == 199 and configs[0]["pi0"] == 0.025
        assert configs[0]["kgrid.r_max"] is None and configs[0]["homogenize.target_count"] is None
        assert configs[0]["simulate.cluster.kappa"] is None

    def test_readme_table_lists_every_key(self):
        # rows "| `key` | value | default | meaning |" of the README key table
        text = (ROOT / "README.md").read_text()
        section = text.split("### Configuration keys", 1)[1].split("\n#", 1)[0]
        rows = {}
        for line in section.splitlines():
            if line.startswith("| `"):
                key, what, default = (c.strip() for c in line.strip("|").split("|")[:3])
                rows[key.strip("`")] = (what, default.strip("`"))
        assert sorted(rows) == sorted(cli._KEYS)
        for key, (what, default) in cli._KEYS.items():
            assert rows[key][0] == what, key
            if default is cli._REQUIRED:
                assert rows[key][1] == "required", key
            else:
                assert json.loads(rows[key][1]) == default, key

    def test_readme_configs_resolve(self):
        text = (ROOT / "README.md").read_text()
        blocks = [b.split("```", 1)[0] for b in text.split("```json\n")[1:]]
        assert len(blocks) >= 2
        for block in blocks:
            config = json.loads(block)
            cli._resolve(config)
            build_window(config)
