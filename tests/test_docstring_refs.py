"""The Sphinx cross-references in the package's docstrings must resolve.

Every ``:func:``, ``:class:`` or ``:meth:`` target in a docstring of a
``src/sketchsvd`` module, with or without a leading ``~``, must name an
attribute of that module, of a class defined in it, or, as a dotted path
such as ``sketchsvd.densekernels.householder_qr``, of the module it
names.  These tests only read and import the package.
"""

import ast
import functools
import importlib
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "sketchsvd"
ROLE = r":(?:func|class|meth):`~?([\w.]+)`"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _references():
    refs = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = "sketchsvd" if path.stem == "__init__" else f"sketchsvd.{path.stem}"
        for node in ast.walk(ast.parse(path.read_text())):
            doc = ast.get_docstring(node) if isinstance(node, DOCUMENTED) else None
            refs.update((module, target) for target in re.findall(ROLE, doc or ""))
    return sorted(refs)


def _follows(obj, dotted):
    try:
        functools.reduce(getattr, dotted.split("."), obj)
    except AttributeError:
        return False
    return True


def _resolves(module_name, target):
    module = importlib.import_module(module_name)
    owners = [module] + [obj for obj in vars(module).values()
                         if isinstance(obj, type) and obj.__module__ == module_name]
    if any(_follows(owner, target) for owner in owners):
        return True
    parts = target.split(".")
    for i in range(len(parts) - 1, 0, -1):
        try:
            named = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        return _follows(named, ".".join(parts[i:]))
    return False


def test_docstrings_cross_reference():
    assert _references()


@pytest.mark.parametrize("module, target", _references(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_docstring_reference_resolves(module, target):
    assert _resolves(module, target), (
        f"a docstring of {module} refers to `{target}`, which does not resolve")
