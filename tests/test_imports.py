"""Static checks of the package's modules: no imported name goes unused,
and ``__all__`` lists each exported name once and only names that exist."""

import ast
import importlib
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "sketchsvd"
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
