import csv
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from stpp.cli import EARTH_RADIUS_KM, build_window, ingest, main, run
from stpp.core import SpaceTimePattern, Window


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
