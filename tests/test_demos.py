"""The demos keep working as the public API changes.

Every name a demo imports from nashgrid must exist, which is what
breaks first when a public name is deleted. The single-solve and the
Monte Carlo demos run end to end here, so a removed keyword breaks a
test too (about 1 s for the two); all five take about 4 s.
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


def run_demo(name):
    """Run demos/<name> with the package on its path; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_single_solve_demo_runs():
    assert "equilibrium outputs:" in run_demo("deterministic_equilibrium.py")


def test_monte_carlo_demo_runs():
    out = run_demo("monte_carlo_check.py")
    assert "monte carlo estimate (4096 draws, 0 failed solves):" in out
    assert "grid minus monte carlo, in standard errors:" in out
