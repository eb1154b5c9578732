"""Golden outputs of every CLI subcommand, with the time fields masked.

Each case runs the CLI in-process on a fixed input and compares its exit
code and every file it writes (CSV, ``.jsonl`` mirror, ``.raw.csv``; or
stdout) with ``tests/golden/<case>.txt``.  Headers, comments, JSONL key
order, booleans, integers and exit codes must match exactly.  A float must
lie within 1e-9 of the largest magnitude in its column (CSV column, JSONL
key or comment key), so that a different BLAS does not fail the test; a
column of roundoff (the distance of an orthonormal input to its polar
factor) is matched within 1e-13.

After an intended change of output, regenerate the files with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import math
import pathlib
import re
import sys
import tempfile

import numpy as np
import pytest

from sketchsvd import write_matrix_market
from sketchsvd.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
RTOL = 1e-9
ATOL = 1e-13
MASK = "<time>"


def _zero(tmp):
    write_matrix_market(np.zeros((6, 4)), tmp / "z.mtx")


def _orthonormal(tmp):
    rng = np.random.default_rng(4)
    write_matrix_market(np.linalg.qr(rng.standard_normal((100, 10)))[0], tmp / "q.mtx")


# name -> (arguments, input writer or None, write to --out with --raw)
CASES = {
    "spectrum_s": (
        "spectrum --matrix cauchy:40 --sketch srtt --s 12 --reps 3 --seed 11", None, True),
    "spectrum_eps": (
        "spectrum --matrix randn:300,8 --sketch gaussian --delta 0.1 --reps 2 --seed 3",
        None, True),
    "spectrum_wide_sparse": (
        "spectrum --matrix sprand:400,30,0.1,1e4 --sketch sparse-sign --s 10 --reps 2",
        None, True),
    "spectrum_zero": (
        "spectrum --matrix {tmp}/z.mtx --sketch gaussian --s 3 --reps 2", _zero, True),
    "spectrum_stdout": ("spectrum --matrix cauchy:20 --s 8 --reps 2", None, False),
    "ortho_violations": (
        "ortho --matrix randn:200,10 --sketch gaussian --s 2n,4n --reps 3 --seed 1",
        None, True),
    "ortho_strict": (
        "ortho --matrix randn:200,10 --sketch gaussian --s 2n,4n --reps 3 --seed 1 "
        "--strict", None, True),
    "ortho_eps_sparse": (
        "ortho --matrix sprand:500,10,0.05,1e6 --sketch srtt --eps 0.6 --delta 0.01 "
        "--reps 2 --seed 5", None, True),
    "nearest_orthonormal": (
        "nearest --matrix {tmp}/q.mtx --sketch srtt --s 4n,6n,8n --reps 2",
        _orthonormal, True),
    "nearest_randn": (
        "nearest --matrix randn:200,10 --sketch gaussian --s 2n,3n,5n --reps 3 --seed 2",
        None, True),
    "nearest_sparse": (
        "nearest --matrix sprand:300,8,0.2,1e3 --sketch sparse-sign --s 3n,6n --reps 2 "
        "--seed 4", None, True),
    "nearest_strict": (
        "nearest --matrix randn:200,10 --sketch sparse-sign --s 2n,4n --reps 3 "
        "--eps 0.1 --strict", None, True),
}


def _mask_csv(text):
    lines = text.splitlines()
    out = []
    header = None
    for line in lines:
        if line.startswith("#"):
            out.append(re.sub(r"(time\w*)=\S+", rf"\1={MASK}", line))
        elif header is None:
            header = line.split(",")
            out.append(line)
        else:
            cells = line.split(",")
            out.append(",".join(
                MASK if "time" in col else cell for col, cell in zip(header, cells)))
    return "\n".join(out) + "\n"


def _mask_jsonl(text):
    out = []
    for line in text.splitlines():
        record = json.loads(line)
        out.append(json.dumps({k: MASK if "time" in k else v for k, v in record.items()}))
    return "\n".join(out) + "\n"


def run_case(name, tmp):
    """Exit code and masked outputs of one case, as golden-file text."""
    args, writer, to_file = CASES[name]
    if writer is not None:
        writer(tmp)
    argv = args.format(tmp=tmp).split()
    out = tmp / "out.csv"
    if to_file:
        argv += ["--out", str(out), "--raw"]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    sections = []
    if not to_file:
        sections.append(("stdout", _mask_csv(buf.getvalue())))
    for suffix in ("", ".jsonl", ".raw.csv"):
        path = pathlib.Path(f"{out}{suffix}")
        if path.exists():
            mask = _mask_jsonl if suffix == ".jsonl" else _mask_csv
            sections.append((path.name, mask(path.read_text())))
    text = f"exit {code}\n" + "".join(f"--- {n}\n{body}" for n, body in sections)
    return text.replace(str(tmp), "<tmp>")


def _is_float(token):
    if re.fullmatch(r"-?\d+", token):
        return False
    try:
        float(token)
    except ValueError:
        return False
    return True


def _skeleton(text):
    """The text with every float replaced by ``<float>``, and the floats
    keyed by (section, column)."""
    floats = {}
    lines = []
    section = header = None
    for line in text.splitlines():
        if line.startswith("--- "):
            section, header = line[4:], None
            lines.append(line)
        elif section is None:
            lines.append(line)
        elif section.endswith(".jsonl"):
            record = json.loads(line)
            for k, v in record.items():
                if isinstance(v, float):
                    floats.setdefault((section, record["type"], k), []).append(v)
                    record[k] = "<float>"
            lines.append(json.dumps(record))
        elif line.startswith("#"):
            tokens = []
            for token in line.split(" "):
                key, _, value = token.partition("=")
                if value and _is_float(value):
                    floats.setdefault((section, "#", key), []).append(float(value))
                    token = f"{key}=<float>"
                tokens.append(token)
            lines.append(" ".join(tokens))
        elif header is None:
            header = line.split(",")
            lines.append(line)
        else:
            cells = line.split(",")
            for i, cell in enumerate(cells):
                if _is_float(cell):
                    floats.setdefault((section, header[i]), []).append(float(cell))
                    cells[i] = "<float>"
            lines.append(",".join(cells))
    return lines, floats


def _assert_matches(got, want):
    got_lines, got_floats = _skeleton(got)
    want_lines, want_floats = _skeleton(want)
    assert got_lines == want_lines
    assert got_floats.keys() == want_floats.keys()
    for column, expected in want_floats.items():
        actual = got_floats[column]
        finite = [abs(v) for v in expected if math.isfinite(v)]
        tol = max(RTOL * max(finite, default=0.0), ATOL)
        for g, w in zip(actual, expected):
            ok = (math.isnan(g) and math.isnan(w)) or g == w or abs(g - w) <= tol
            assert ok, f"{column}: {g!r} != {w!r} (tolerance {tol:.3g})"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name, tmp_path):
    _assert_matches(run_case(name, tmp_path), (GOLDEN / f"{name}.txt").read_text())


def test_matching_tolerates_float_noise_only():
    want = "exit 0\n--- out.csv\n# d=15.5\ns,v,ok\n20,1.25,true\n40,2.5,false\n"
    _assert_matches(want.replace("1.25", "1.2500000001"), want)
    for old, new in (("1.25", "1.2501"), ("exit 0", "exit 4"), ("20,", "21,"),
                     ("15.5", "15.6"), ("true", "false"), ("ok", "pass")):
        with pytest.raises(AssertionError):
            _assert_matches(want.replace(old, new), want)


def write_goldens(directory=GOLDEN):
    directory.mkdir(parents=True, exist_ok=True)
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            (directory / f"{name}.txt").write_text(run_case(name, pathlib.Path(tmp)))


if __name__ == "__main__":
    write_goldens(pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN)
