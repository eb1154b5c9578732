"""The package names the benchmark in ``perfbench/`` relies on must resolve.

``perfbench/layers.py`` wraps every ``(module, function)`` of its
``FUNCTION_LAYERS`` table and raises ``AttributeError`` on a missing name;
``perfbench/table.py`` and ``perfbench/check.py`` call package functions
through their modules.  These tests only read the benchmark's files.
"""

import ast
import importlib
import importlib.util
import pathlib

import pytest

import sketchsvd

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("cli", "densekernels", "errors", "generators", "matio", "nearest",
           "sketchops", "stssvd")


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers",
                                                  PERFBENCH / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module_attributes(path):
    """``(module, name)`` for every ``module.name`` in the file whose module
    is a package module name."""
    tree = ast.parse(path.read_text())
    return sorted({
        (node.value.id, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in MODULES
    })


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="no perfbench directory")
def test_function_layers_resolve():
    for module, name, _ in _layers().FUNCTION_LAYERS:
        mod = importlib.import_module(f"sketchsvd.{module}")
        assert callable(getattr(mod, name, None)), f"sketchsvd.{module}.{name}"


@pytest.mark.skipif(not PERFBENCH.is_dir(), reason="no perfbench directory")
@pytest.mark.parametrize("script", ["table.py", "check.py"])
def test_called_names_resolve(script):
    names = _module_attributes(PERFBENCH / script)
    assert names
    for module, name in names:
        mod = importlib.import_module(f"sketchsvd.{module}")
        assert hasattr(mod, name), f"sketchsvd.{module}.{name} ({script})"


def test_check_oracle_resolves():
    # check.py's reference route: the operator's dense matrix
    assert callable(getattr(sketchsvd.SketchOperator, "materialize", None))
