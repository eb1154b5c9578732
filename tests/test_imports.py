"""Checks of the package's imports: no imported name goes unused,
``__all__`` lists each exported name once and only names that exist,
each module-level name is defined in one package module, every exported
function and every LAPACK binding has a reader outside its own module,
the third-party packages imported are the declared dependencies, and a
run loads no scipy submodule it does not call."""

import ast
import importlib
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "sketchsvd"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree):
    """Each name an import statement binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _all(tree):
    """The string entries of a module-level ``__all__``, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return None


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(_all(tree) or ())
    unused = [f"{name} (line {line})" for name, line in _imported(tree)
              if name not in used]
    assert not unused, f"{path.name} imports unused names: {unused}"


def test_all_names_resolve_once():
    checked = 0
    for path in MODULES:
        names = _all(ast.parse(path.read_text()))
        if names is None:
            continue
        checked += 1
        assert len(names) == len(set(names)), f"{path.name}: duplicate __all__ entries"
        stem = "" if path.stem == "__init__" else f".{path.stem}"
        module = importlib.import_module(f"sketchsvd{stem}")
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{path.name}: __all__ names {missing} do not resolve"
    assert checked


def _defined(tree):
    """Each name a module-level ``def``, ``class`` or assignment binds."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def test_each_name_is_defined_once():
    # a constant or helper another module needs is imported from the one
    # module that defines it, so a change to it reaches every reader
    homes = {}
    for path in MODULES:
        for name in set(_defined(ast.parse(path.read_text()))):
            homes.setdefault(name, []).append(path.name)
    twice = {name: where for name, where in homes.items() if len(where) > 1}
    assert not twice, f"names defined in more than one module: {twice}"


def _public_functions(module):
    """``(name, function)`` of each public function ``module`` defines,
    cached ones included."""
    return [(name, fn) for name, fn in inspect.getmembers(module, callable)
            if not inspect.isclass(fn) and not name.startswith("_")
            and getattr(fn, "__module__", None) == module.__name__]


def test_every_exported_function_has_a_reader():
    # A function is read where README.md, perfbench/*.py or a package module
    # other than its own and __init__.py names it.  Classes are exempt: some
    # record types are only ever returned.  The LAPACK bindings of the
    # private _lapack are read only where another package module names
    # them, so a binding that loses its last caller fails here.
    package = importlib.import_module("sketchsvd")
    shared = [REPO / "README.md", *sorted((REPO / "perfbench").glob("*.py"))]
    exported = [(name, getattr(package, name)) for name in package.__all__]
    bindings = _public_functions(importlib.import_module("sketchsvd._lapack"))
    assert bindings
    unread = []
    for functions, files in ((exported, shared), (bindings, [])):
        for name, obj in functions:
            if inspect.isclass(obj):
                continue
            home = obj.__module__.rpartition(".")[2]
            readers = files + [p for p in MODULES if p.stem not in (home, "__init__")]
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(p.read_text()) for p in readers):
                unread.append(name)
    assert not unread, f"exported functions nothing outside their module names: {unread}"


def test_imported_packages_are_the_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"sketchsvd"}
    with open(REPO / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    names = {re.match(r"[A-Za-z0-9_.-]+", spec).group(0).lower() for spec in declared}
    assert third_party == names


# Every sketch kind on dense, sparse and vector input, then ortho and nearest
# through the CLI: the scipy submodules no run calls stay unloaded until
# spectrum's reference svds loads scipy.sparse.linalg.
_FLOOR_RUN = """
import contextlib, io, json, sys
import numpy as np
import scipy.sparse as sp
import sketchsvd
import sketchsvd.cli
from sketchsvd.sketchops import KINDS
X = np.random.default_rng(0).standard_normal((40, 3))
for kind in KINDS:
    op = sketchsvd.build_sketch(kind, 10, 40, seed=1)
    for given in (X, sp.csr_matrix(X), X[:, 0]):
        op.apply(given)
unloaded = ("scipy.fft", "scipy.special", "scipy.sparse.linalg", "scipy.linalg")
codes = []
with contextlib.redirect_stdout(io.StringIO()):
    for command in ("ortho", "nearest"):
        for kind in KINDS:
            codes.append(sketchsvd.cli.main(
                [command, "--matrix", "randn:200,10", "--sketch", kind,
                 "--s", "4n", "--reps", "2"]))
    loaded = [name for name in unloaded if name in sys.modules]
    codes.append(sketchsvd.cli.main(
        ["spectrum", "--matrix", "randn:200,10", "--s", "4n", "--reps", "2"]))
print(json.dumps({"codes": codes, "loaded": loaded,
                  "spectrum_loads_svds": "scipy.sparse.linalg" in sys.modules}))
"""


def test_runs_load_no_scipy_submodule_they_do_not_call():
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", _FLOOR_RUN], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["codes"] == [0] * 7
    assert result["loaded"] == []
    assert result["spectrum_loads_svds"]
