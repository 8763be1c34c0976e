"""The package names that the benchmark tracer and the public exports promise."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import stpp

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_finds_every_name_it_wraps():
    # install() replaces each traced name with getattr/setattr, so a missing
    # name raises AttributeError; it runs in a child so no wrapper leaks here
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.install(tracer.Tracer(), {})"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_every_export_resolves():
    missing = [name for name in sorted(stpp._CORE_NAMES) if not hasattr(stpp, name)]
    for name in sorted(stpp._SUBMODULES):
        module = importlib.import_module(f"stpp.{name}")
        exports = getattr(module, "__all__", ())
        missing += [f"{name}.{attr}" for attr in exports if not hasattr(module, attr)]
    assert missing == []
