"""The package names README.md quotes must resolve, and the measurement
files it and the package cite must exist.

Every backticked ``module.name`` whose module is a package module must be
an attribute of that module (a dotted chain such as
``nearest._SandwichTerms.report`` is followed to its end), or a per-layer
metric that ``BENCHMARK.json`` declares, such as
``densekernels.small_svd_s``.  Every ``BENCH_*.json`` that README.md or a
package module names must be a file at the repository root.  Every
``## `` section of README.md that quotes a time or memory figure must name
the ``BENCH_*.json`` that holds it, and README.md states what the code
does now, not a history of changes.  These tests only read README.md,
BENCHMARK.json and the package's sources.
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
# a time or memory figure such as 0.61 s, 24-26 ms or 10.6 MB
FIGURE = re.compile(r"(?<![\w.])\d[\d.]*(?:-\d[\d.]*)? ?(?:ms|s|MB)\b")
CHANGELOG = ("since then", "after the change")


def _sections():
    """``(title, body)`` of each ``## `` section of README.md."""
    return re.findall(r"^## (.+?)\n(.*?)(?=^## |\Z)", (REPO / "README.md").read_text(),
                      re.M | re.S)


def _quoted_names():
    spans = re.findall(r"`([^`\n]+)`", (REPO / "README.md").read_text())
    return sorted({match.groups() for span in spans for match in NAME.finditer(span)})


def _cited_bench_files():
    texts = [(REPO / "README.md").read_text()]
    texts += [p.read_text() for p in sorted((REPO / "src" / "sketchsvd").glob("*.py"))]
    return sorted({name for text in texts for name in re.findall(r"BENCH_\w+\.json", text)})


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


def test_readme_cites_bench_files():
    assert _cited_bench_files()


@pytest.mark.parametrize("name", _cited_bench_files())
def test_cited_bench_file_exists(name):
    assert (REPO / name).is_file(), f"{name} is cited but not at the repository root"


def test_readme_figures_name_their_bench_file():
    sections = _sections()
    assert sections
    unsourced = {title: FIGURE.findall(body)[:3] for title, body in sections
                 if FIGURE.search(body) and not re.search(r"BENCH_\w+\.json", body)}
    assert not unsourced, f"sections quoting figures without a BENCH_*.json: {unsourced}"


def test_readme_has_no_changelog_phrasing():
    text = (REPO / "README.md").read_text().lower()
    found = [phrase for phrase in CHANGELOG if phrase in text]
    assert not found, f"README.md reads as a changelog: {found}"
