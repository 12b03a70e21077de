"""Static checks on the package source."""
import ast
import re
from pathlib import Path

import nashgrid

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nashgrid"

# module.name -> why the module imports a name it never uses
UNUSED_IMPORTS_ALLOWED = {
    "discretize.ThreadPoolExecutor":
        "perfbench/trace.py rebinds it to trace the sweep",
}

# module.import -> why a module imports a thread or process pool; the
# package starts no threads and no processes
THREAD_IMPORTS_ALLOWED = {
    "discretize.concurrent.futures":
        "perfbench/trace.py rebinds its ThreadPoolExecutor to trace the sweep",
}
THREAD_MODULES = ("threading", "_thread", "multiprocessing", "concurrent")


def _imported_names(tree):
    """The names a module's import statements bind, skipping __future__."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def _used_names(tree):
    """Names the module reads, plus the strings of its __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source_dir):
    """module.name for every imported name its module never uses."""
    found = set()
    for path in sorted(source_dir.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found.update(f"{path.stem}.{name}"
                     for name in _imported_names(tree) - _used_names(tree))
    return found


def test_every_imported_name_is_used():
    # an allowance that no longer matches an unused import fails too, so
    # the list cannot outlive its reason
    assert unused_imports(SRC) == set(UNUSED_IMPORTS_ALLOWED)


def test_public_names_are_exactly_the_package_imports():
    # __all__ lists what __init__.py imports, plus __version__, and every
    # listed name resolves; a name whose import is gone fails both checks
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert sorted(nashgrid.__all__) == sorted(
        _imported_names(tree) | {"__version__"})
    assert len(set(nashgrid.__all__)) == len(nashgrid.__all__)
    assert [name for name in nashgrid.__all__
            if not hasattr(nashgrid, name)] == []


def test_readme_layout_names_every_module():
    # the Layout block's src/nashgrid/ lines, one module a line
    layout = (ROOT / "README.md").read_text().split("## Layout", 1)[1]
    block = layout.split("```")[1]
    named = re.findall(r"^  (\w+\.py) ", block, flags=re.M)
    assert sorted(named) == sorted(path.name for path in SRC.glob("*.py")
                                   if not path.name.startswith("__"))


def _imported_modules(tree):
    """The absolute module names a module's import statements name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def _forks(tree):
    """Whether the module calls os.fork or imports fork from os."""
    return any(
        (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
         and node.func.attr in ("fork", "forkpty")
         and isinstance(node.func.value, ast.Name)
         and node.func.value.id == "os")
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(a.name in ("fork", "forkpty") for a in node.names))
        for node in ast.walk(tree))


def test_the_package_starts_no_threads_and_forks_nowhere():
    threads, forks = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        threads.update(f"{path.stem}.{name}"
                       for name in _imported_modules(tree)
                       if name.split(".")[0] in THREAD_MODULES)
        if _forks(tree):
            forks.add(path.stem)
    assert threads == set(THREAD_IMPORTS_ALLOWED)
    assert forks == set()
