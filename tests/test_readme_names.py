"""The package names README.md quotes must resolve.

Every backticked ``module.name`` whose module is a package module must be
an attribute of that module (a dotted chain such as
``nearest._SandwichTerms.report`` is followed to its end), or a per-layer
metric that ``BENCHMARK.json`` declares, such as
``densekernels.small_svd_s``.  These tests only read README.md and
BENCHMARK.json.
"""

import functools
import importlib
import json
import pathlib
import re

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
MODULES = sorted(p.stem for p in (REPO / "src" / "sketchsvd").glob("*.py")
                 if p.stem != "__init__")
# module.name inside a backticked span, not part of a path or a longer
# dotted name, and not a file name such as cli.py
NAME = re.compile(rf"(?<![\w./])({'|'.join(MODULES)})\.(?!py\b)(\w+(?:\.\w+)*)")


def _quoted_names():
    spans = re.findall(r"`([^`\n]+)`", (REPO / "README.md").read_text())
    return sorted({match.groups() for span in spans for match in NAME.finditer(span)})


def _layer_metrics():
    path = REPO / "BENCHMARK.json"
    if not path.is_file():
        return set()
    return {layer["name"] for layer in json.loads(path.read_text())["per_layer"]}


def test_readme_quotes_package_names():
    assert _quoted_names()


@pytest.mark.parametrize("module, name", _quoted_names(),
                         ids=lambda v: v if isinstance(v, str) else None)
def test_readme_name_resolves(module, name):
    if f"{module}.{name}" in _layer_metrics():
        return
    obj = importlib.import_module(f"sketchsvd.{module}")
    try:
        functools.reduce(getattr, name.split("."), obj)
    except AttributeError:
        pytest.fail(f"README.md names `{module}.{name}`, which does not resolve")
