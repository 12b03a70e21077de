"""The demos keep working as the public API changes.

Every name a demo imports from nashgrid must exist, which is what
breaks first when a public name is deleted. Only the single-solve demo
runs end to end here; all five together take about ten times longer.
"""
import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def nashgrid_imports(path):
    """(module, name) for every name the script imports from nashgrid."""
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "nashgrid":
            out += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            out += [(alias.name, None) for alias in node.names
                    if alias.name.split(".")[0] == "nashgrid"]
    return out


def test_every_demo_is_checked():
    assert len(DEMOS) == 5
    assert all(nashgrid_imports(path) for path in DEMOS)


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_exist(path):
    for module, name in nashgrid_imports(path):
        mod = importlib.import_module(module)
        assert name is None or hasattr(mod, name), f"{module}.{name}"


def test_single_solve_demo_runs():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "deterministic_equilibrium.py")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert "equilibrium outputs:" in done.stdout
