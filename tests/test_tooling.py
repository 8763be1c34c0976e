"""The package names that the benchmark tracer and the public exports promise,
and the one worker pool and block budget that `core` keeps."""

import ast
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


def test_one_pool_and_one_budget():
    # core._blocks sizes and core.parallel_map fans out every blocked loop;
    # a second thread pool or byte budget elsewhere would split that choice
    offenders = []
    for path in sorted((ROOT / "src" / "stpp").glob("*.py")):
        if path.name == "core.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m == "concurrent" or m.startswith("concurrent.") for m in modules):
                offenders.append(f"{path.name}:{node.lineno} imports {modules}")
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else (
                [node.target] if isinstance(node, ast.AnnAssign) else []
            )
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id.endswith("_BYTES"):
                        offenders.append(f"{path.name}:{node.lineno} defines {name.id}")
    assert offenders == []


def test_readme_library_example_runs():
    # the python block under README's "## Library example", run as written
    text = (ROOT / "README.md").read_text()
    section = text.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    k_t, k_s = namespace["k_t"], namespace["k_s"]
    assert len(k_t) == 50 and len(k_s) == 50
    assert len(namespace["replicate"]) > 0
