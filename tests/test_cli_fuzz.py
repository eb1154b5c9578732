"""Fuzz tests of the CLI's error hierarchy: no input kills the process,
lets an exception escape ``main``, prints a traceback or a RuntimeWarning,
or exits with a code other than 0, 2, 3 and 4, and ``gen`` exits 0 only
with its file written.

Generated sources keep their sizes at most 200 outside ``randn:``:
``gen_cauchy`` fills its N x N matrix and ``sprand:`` draws its pattern
before either can reject a size, so a larger one could fill memory.  The
extreme ``randn:`` sizes ask for at least 8e18 bytes, which numpy refuses
before allocating.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sketchsvd.cli import main

EXIT_CODES = {0, 2, 3, 4}

# Valid and degenerate sources are separate branches, so that runs reach
# the commands as well as the source parsers
DEGENERATE = st.sampled_from(["-1", "0", "1.5", "", "x"])
HUGE = st.sampled_from(["1000000000", "1000000000000", str(2**63), str(10**30)])
SOURCES = st.one_of(
    st.one_of(
        st.builds("cauchy:{}".format, st.integers(2, 200)),
        st.builds("sprand:{},{},{},{}".format, st.integers(1, 200), st.integers(1, 60),
                  st.sampled_from([0.01, 0.5, 1]), st.sampled_from([1, 1e10])),
        st.builds("randn:{},{}".format, st.integers(1, 200), st.integers(1, 60)),
    ),
    st.one_of(
        st.builds("cauchy:{}".format, st.one_of(DEGENERATE, st.just(1))),
        st.builds("sprand:{},{},{},{}".format, st.integers(-1, 200), st.integers(-1, 200),
                  st.sampled_from(["-1", "0", "1e-300", "2", "1e300", "inf", "nan", ""]),
                  st.sampled_from(["-1", "0", "0.5", "1e300", "inf", "nan", ""])),
        st.builds("randn:{},{}".format, st.one_of(DEGENERATE, HUGE),
                  st.one_of(DEGENERATE, HUGE)),
        st.sampled_from(["randn:", "randn:3", "randn:3,3,3", "sprand:3,3", "nosuch:3"]),
    ),
)
S_LISTS = st.one_of(st.none(), st.lists(
    st.one_of(st.integers(1, 60).map(str),
              st.sampled_from(["n", "2n", "0.5n", "-1", "0", str(10**30), "0n", "-1n",
                               "1e300n", "infn", "nann", "", "x"])),
    min_size=1, max_size=3).map(",".join))
SEEDS = st.sampled_from(["0", "1", str(2**64), "-1"])


def _run(argv):
    """``main(argv)``'s exit code, and what it wrote to stderr followed by
    every warning it raised."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    return code, err.getvalue() + "".join(
        warnings.formatwarning(w.message, w.category, w.filename, w.lineno)
        for w in caught)


def _check(code, err):
    assert code in EXIT_CODES, err
    assert "Traceback" not in err
    assert "RuntimeWarning" not in err


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(["spectrum", "ortho", "nearest", "gen"]),
       source=SOURCES, s=S_LISTS, seed=SEEDS,
       kind=st.sampled_from(["gaussian", "srtt", "sparse-sign"]),
       out=st.sampled_from(["x.mtx", "noext", "missing/x.mtx", "."]))
def test_generated_sources_stay_in_the_error_hierarchy(tmp_path, command, source, s,
                                                       seed, kind, out):
    argv = [command, "--matrix", source, "--seed", seed]
    if command == "gen":
        target = tmp_path / out
        if target.is_file():
            target.unlink()
        argv += ["--out", str(target)]
    else:
        argv += ["--sketch", kind, "--reps", "1"]
        if s is not None:
            argv += ["--s", s]
    code, err = _run(argv)
    _check(code, err)
    if command == "gen" and code == 0:
        assert target.is_file()


_HEADER = "%%MatrixMarket matrix"

# Degenerate Matrix Market files: empty shapes, short and long entry
# counts, non-finite and overflowing entries, unsupported fields.
CORPUS = {
    "array_0_0": f"{_HEADER} array real general\n0 0\n",
    "array_0_3": f"{_HEADER} array real general\n0 3\n",
    "array_3_0": f"{_HEADER} array real general\n3 0\n",
    "coordinate_0_0": f"{_HEADER} coordinate real general\n0 0 0\n",
    "coordinate_0_3": f"{_HEADER} coordinate real general\n0 3 0\n",
    "coordinate_3_0": f"{_HEADER} coordinate real general\n3 0 0\n",
    "coordinate_no_entries": f"{_HEADER} coordinate real general\n3 2 0\n",
    "array_short": f"{_HEADER} array real general\n3 2\n1\n2\n3\n4\n5\n",
    "array_long": f"{_HEADER} array real general\n3 2\n1\n2\n3\n4\n5\n6\n7\n",
    "coordinate_short": f"{_HEADER} coordinate real general\n3 2 3\n1 1 1\n2 2 2\n",
    "coordinate_long": f"{_HEADER} coordinate real general\n3 2 2\n1 1 1\n2 2 2\n3 1 3\n",
    "coordinate_out_of_range": f"{_HEADER} coordinate real general\n3 2 1\n4 1 1\n",
    "array_nan": f"{_HEADER} array real general\n3 2\n1\nnan\n3\n4\n5\n6\n",
    "array_inf": f"{_HEADER} array real general\n3 2\n1\n2\ninf\n4\n5\n6\n",
    "array_1e300": f"{_HEADER} array real general\n3 2\n1\n2\n3\n1e300\n1e300\n1e300\n",
    "coordinate_nan": f"{_HEADER} coordinate real general\n3 2 2\n1 1 nan\n2 2 1\n",
    "coordinate_1e300": (f"{_HEADER} coordinate real general\n3 2 3\n"
                         "1 1 1e300\n2 2 1e300\n3 1 1\n"),
    "pattern": f"{_HEADER} coordinate pattern general\n3 2 2\n1 1\n2 2\n",
    "complex": f"{_HEADER} array complex general\n3 2\n1 0\n2 1\n3 0\n4 0\n5 0\n6 0\n",
    "empty": "",
    "header_only": f"{_HEADER} array real general\n",
}

# Runs every command on every corpus file in one child process, since
# scipy's reader has died of SIGFPE on such files, and prints one
# [file, command, exit code, stderr, written] record per run.
_CORPUS_RUN = """if True:
    import json, sys, pathlib
    from test_cli_fuzz import CORPUS, _run
    root = pathlib.Path(sys.argv[1])
    for name in CORPUS:
        for command in ("spectrum", "ortho", "nearest", "gen"):
            out = root / f"{name}.{command}.out.mtx"
            argv = [command, "--matrix", str(root / f"{name}.mtx")]
            if command == "gen":
                argv += ["--out", str(out)]
            else:
                argv += ["--s", "2", "--reps", "1"]
            code, err = _run(argv)
            print(json.dumps([name, command, code, err, out.is_file()]))
"""


def test_degenerate_matrix_market_files_stay_in_the_error_hierarchy(tmp_path):
    for name, text in CORPUS.items():
        (tmp_path / f"{name}.mtx").write_text(text)
    tests = pathlib.Path(__file__).parent
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
    proc = subprocess.run([sys.executable, "-c", _CORPUS_RUN, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    records = [json.loads(line) for line in proc.stdout.splitlines()]
    assert len(records) == 4 * len(CORPUS)
    for name, command, code, err, written in records:
        _check(code, err)
        if command == "gen":
            assert written == (code == 0), (name, err)
