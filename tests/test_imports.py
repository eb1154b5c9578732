"""Static checks of the package's modules: no imported name goes unused,
``__all__`` lists each exported name once and only names that exist, and
every exported function has a reader outside its own module."""

import ast
import importlib
import inspect
import pathlib
import re

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


def test_every_exported_function_has_a_reader():
    # A function is read where README.md, perfbench/*.py or a package module
    # other than its own and __init__.py names it.  Classes are exempt: some
    # record types are only ever returned.
    package = importlib.import_module("sketchsvd")
    shared = [REPO / "README.md", *sorted((REPO / "perfbench").glob("*.py"))]
    unread = []
    for name in package.__all__:
        obj = getattr(package, name)
        if inspect.isclass(obj):
            continue
        home = obj.__module__.rpartition(".")[2]
        readers = shared + [p for p in MODULES if p.stem not in (home, "__init__")]
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(p.read_text()) for p in readers):
            unread.append(name)
    assert not unread, f"exported functions nothing outside their module names: {unread}"
