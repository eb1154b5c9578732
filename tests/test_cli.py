import argparse
import json
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from sketchsvd import (
    GenerationError, SketchRankWarning, _lapack, cli, gen_sparse_conditioned, nearest,
    read_matrix_market, sketchops, write_matrix_market,
)
from sketchsvd.cli import main
from sketchsvd.densekernels import _GRAM_ROWS


def run(args):
    return main([str(a) for a in args])


def strip_times(csv_text):
    """Drop timing columns and comments so runs can be compared bytewise."""
    lines = [l for l in csv_text.splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    keep = [i for i, c in enumerate(header) if not c.startswith("time")]
    out = []
    for line in lines:
        cells = line.split(",")
        out.append(",".join(cells[i] for i in keep))
    return "\n".join(out)


class TestGen:
    def test_cauchy_round_trip(self, tmp_path):
        out = tmp_path / "c.mtx"
        assert run(["gen", "--matrix", "cauchy:20", "--out", out]) == 0
        A = read_matrix_market(out)
        assert A.shape == (20, 20)
        np.testing.assert_allclose(A[0, 0], 1.0 / (2.0 - 1000.0))

    def test_sprand(self, tmp_path):
        out = tmp_path / "s.mtx"
        rc = run(["gen", "--matrix", "sprand:100,10,0.1,1e4", "--seed", 3, "--out", out])
        assert rc == 0
        A = read_matrix_market(out)
        assert A.shape == (100, 10)

    def test_old_positional_form_rejected(self, tmp_path):
        assert run(["gen", "cauchy", "--n", 20, "--out", tmp_path / "c.mtx"]) == 2

    @pytest.mark.parametrize("command", ["ortho", "nearest"])
    @pytest.mark.parametrize("src", ["sprand:300,10,0.1,1e4", "randn:200,10"])
    def test_written_matrix_gives_same_rows(self, tmp_path, src, command):
        # gen writes the matrix that --matrix SRC names under the same --seed
        mtx = tmp_path / "a.mtx"
        assert run(["gen", "--matrix", src, "--seed", 7, "--out", mtx]) == 0
        raws = []
        for matrix in (src, mtx):
            out = tmp_path / f"{len(raws)}.csv"
            assert run([command, "--matrix", matrix, "--sketch", "gaussian",
                        "--s", "4n,8n", "--reps", 2, "--seed", 7, "--out", out,
                        "--raw"]) == 0
            raws.append(strip_times((tmp_path / f"{out.name}.raw.csv").read_text()))
        assert raws[0] == raws[1]

    @pytest.mark.parametrize("name", ["missing/x.mtx", "adir", "x.mtx", "noext"])
    def test_exit_zero_only_with_the_file_written(self, tmp_path, capsys, name):
        # a path in a missing directory, or one that names a directory, is an
        # input error; any other is written as given, with no suffix added
        (tmp_path / "adir").mkdir()
        out = tmp_path / name
        rc = run(["gen", "--matrix", "randn:5,3", "--out", out])
        if name in ("missing/x.mtx", "adir"):
            assert rc == 2
            assert "input error" in capsys.readouterr().err
        else:
            assert rc == 0
            assert read_matrix_market(out).shape == (5, 3)


@pytest.mark.parametrize("kappa", ["nan", "inf"])
def test_non_finite_kappa_is_input_error(capsys, kappa):
    rc = run(["ortho", "--matrix", f"sprand:200,5,0.5,{kappa}", "--s", 20, "--reps", 1])
    assert rc == 2
    assert "kappa must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "ortho"])
@pytest.mark.parametrize("src, form", [
    ("cauchy:", "cauchy:N"),
    ("cauchy:5,6", "cauchy:N"),
    ("sprand:10,5", "sprand:M,N,DENSITY,KAPPA"),
    ("sprand:10,5,x,1e4", "sprand:M,N,DENSITY,KAPPA"),
    ("randn:10", "randn:M,N"),
    ("randn:10,2.5", "randn:M,N"),
    # empty or negative dimensions
    ("sprand:0,5,0.5,10", "sprand:M,N,DENSITY,KAPPA"),
    ("sprand:10,0,0.5,10", "sprand:M,N,DENSITY,KAPPA"),
    ("randn:5,0", "randn:M,N"),
    ("randn:-3,5", "randn:M,N"),
])
def test_malformed_source_names_its_form(tmp_path, capsys, command, src, form):
    rc = run([command, "--matrix", src, "--out", tmp_path / "x"])
    assert rc == 2
    assert form in capsys.readouterr().err


@pytest.mark.parametrize("src", ["randn:5,0", "randn:0,5", "randn:-3,5"])
def test_randn_needs_positive_dimensions(src):
    with pytest.raises(GenerationError, match="randn:M,N"):
        cli._load_matrix(src, 0)


def test_oversized_source_is_input_error(capsys):
    # 8e18 bytes: no machine can allocate them, so nothing is filled
    src = "randn:1000000000,1000000000"
    assert run(["ortho", "--matrix", src, "--s", "2n", "--reps", 1]) == 2
    err = capsys.readouterr().err
    assert src in err and "(1000000000, 1000000000)" in err


@pytest.mark.parametrize("size", ["0 0", "0 3"])
def test_zero_row_array_file_is_input_error(tmp_path, size):
    # scipy's reader dies of SIGFPE on such a file, so the run is a child
    # process, which a regression cannot take pytest down with
    mtx = tmp_path / "zero.mtx"
    mtx.write_text(f"%%MatrixMarket matrix array real general\n{size}\n")
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "sketchsvd.cli", "ortho", "--matrix",
                           str(mtx)], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert f"got {size.replace(' ', ' x ')}" in proc.stderr


@pytest.mark.parametrize("value, bad", [("10,abc", "abc"), ("10,4x", "4x"),
                                        ("10,infn", "infn"), ("", "")],
                         ids=["abc", "4x", "infn", "empty"])
def test_bad_s_token_names_the_flag(capsys, value, bad):
    # an empty --s is an error too, not a fall back to (--eps, --delta)
    rc = run(["ortho", "--matrix", "randn:50,5", "--s", value, "--reps", 1])
    assert rc == 2
    assert f"--s takes a comma list of integers or Kn multiples, got '{bad}'" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("command, flag, value", [
    ("spectrum", "--eps", "3"), ("ortho", "--delta", "0"), ("nearest", "--delta", "5"),
])
def test_eps_and_delta_range_checked_at_parse_time(capsys, command, flag, value):
    # --s is given, so the s rule that reads them never runs
    rc = run([command, "--matrix", "randn:20,3", "--s", "6", "--reps", 1, flag, value])
    assert rc == 2
    assert f"argument {flag}: must be in (0, 1), got {value}" in capsys.readouterr().err


def test_every_option_and_subcommand_has_help():
    parser = cli._parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    listed = {entry.dest: entry.help for entry in sub._choices_actions}
    assert set(listed) == set(sub.choices)
    missing = [name for name, text in listed.items() if not text]
    for name, p in sub.choices.items():
        missing += [f"{name} {a.option_strings[0]}" for a in p._actions
                    if a.option_strings and not a.help]
    assert not missing, f"no --help text: {missing}"


def test_readme_commands_parse():
    # every `sketchsvd ...` line of the README, continuations joined
    text = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    commands = [
        shlex.split(line)[1:] for line in text.replace("\\\n", " ").splitlines()
        if line.startswith("sketchsvd ")
    ]
    assert {argv[0] for argv in commands} == {"spectrum", "ortho", "nearest", "gen"}
    for argv in commands:
        try:
            cli._parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: sketchsvd {shlex.join(argv)}")


def test_readme_quick_tour_runs():
    # the README's python block, in a fresh interpreter with BLAS on one thread
    root = pathlib.Path(__file__).parents[1]
    (tour,) = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", tour], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


class TestSpectrum:
    def test_deterministic_output(self, tmp_path):
        args = [
            "spectrum", "--matrix", "cauchy:60", "--sketch", "srtt",
            "--s", 20, "--reps", 5, "--seed", 11,
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert strip_times(a.read_text()) == strip_times(b.read_text())

    def test_columns_and_mirror(self, tmp_path):
        out = tmp_path / "spec.csv"
        rc = run(
            ["spectrum", "--matrix", "cauchy:50", "--sketch", "srtt",
             "--s", 16, "--reps", 3, "--out", out, "--raw"]
        )
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "index,sigma_full,theta,sigma_reference_method,time_ms"
        assert len(lines) == 17  # ell = min(40, 16, 50) rows
        records = [
            json.loads(l) for l in (out.parent / "spec.csv.jsonl").read_text().splitlines()
        ]
        assert records[0]["type"] == "meta"
        assert records[0]["s"] == 16
        raw = (out.parent / "spec.csv.raw.csv").read_text().splitlines()
        assert raw[0] == "rep,index,theta,time_ms"
        assert len(raw) == 1 + 3 * 16

    def test_theta_tracks_sigma(self, tmp_path):
        out = tmp_path / "spec.csv"
        assert run(
            ["spectrum", "--matrix", "cauchy:80", "--sketch", "srtt",
             "--s", 30, "--reps", 10, "--out", out]
        ) == 0
        rows = [
            l.split(",") for l in out.read_text().splitlines()
            if not l.startswith(("#", "index"))
        ]
        sigma = np.array([float(r[1]) for r in rows])
        theta = np.array([float(r[2]) for r in rows])
        # leading values agree within the (loose) distortion of the sketch
        np.testing.assert_allclose(theta[:4], sigma[:4], rtol=0.7)
        # timing column is sanity-checked only: nonnegative, no absolute claims
        assert all(float(r[4]) >= 0.0 for r in rows)

    def test_zero_matrix(self, tmp_path):
        Z = np.zeros((6, 4))
        mtx = tmp_path / "z.mtx"
        write_matrix_market(Z, mtx)
        out = tmp_path / "z.csv"
        assert run(
            ["spectrum", "--matrix", mtx, "--sketch", "gaussian", "--s", 3,
             "--reps", 2, "--out", out]
        ) == 0
        text = out.read_text()
        assert "r=0" in text
        assert len([l for l in text.splitlines() if not l.startswith("#")]) == 1

    def test_missing_file(self):
        assert run(["spectrum", "--matrix", "/no/such/file.mtx"]) == 2

    def test_several_sketch_dims_rejected(self, capsys):
        rc = run(["spectrum", "--matrix", "cauchy:30", "--s", "10,20", "--reps", 2])
        assert rc == 2
        assert "spectrum takes one sketch dimension" in capsys.readouterr().err

    def test_strict_rejected(self, capsys):
        # spectrum checks no bound, so it has no --strict to exit 4 under
        rc = run(["spectrum", "--matrix", "cauchy:30", "--s", 10, "--reps", 2,
                  "--strict"])
        assert rc == 2
        assert "--strict" in capsys.readouterr().err

    def test_nan_input_is_numerical_failure(self, tmp_path):
        bad = tmp_path / "bad.mtx"
        bad.write_text(
            "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 nan\n"
        )
        assert run(["spectrum", "--matrix", bad, "--sketch", "srtt", "--s", 1]) == 3

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_arpack_failure_is_numerical_failure(self, tmp_path, capsys):
        # the reference svds overflows on a column of 1e300 and raises
        # ARPACK's error, a RuntimeError
        big = tmp_path / "big.mtx"
        big.write_text("%%MatrixMarket matrix array real general\n3 2\n"
                       "1e300\n1e300\n1e300\n1\n2\n3\n")
        rc = run(["spectrum", "--matrix", big, "--s", 2, "--reps", 1])
        assert rc == 3
        assert "ARPACK error" in capsys.readouterr().err


class TestOrtho:
    def test_runs_and_reports(self, tmp_path):
        out = tmp_path / "ortho.csv"
        rc = run(
            ["ortho", "--matrix", "sprand:800,20,0.05,1e8", "--sketch", "gaussian",
             "--s", "16n", "--reps", 5, "--seed", 1, "--out", out]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[1] == "s,fro_loss,two_loss,time_s"
        s, fro, two, _ = lines[2].split(",")
        assert int(s) == 320
        assert float(two) <= 1.0
        assert float(fro) <= np.sqrt(20.0)
        assert "violations=0" in lines[0]

    def test_deterministic_output(self, tmp_path):
        args = [
            "ortho", "--matrix", "sprand:400,10,0.05,1e6", "--sketch",
            "gaussian", "--s", "8n,12n", "--reps", 4, "--seed", 5,
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert strip_times(a.read_text()) == strip_times(b.read_text())

    def test_strict_flags_violations(self, tmp_path):
        # s = 2n is far too small for the asserted eps = 0.5 bound
        out = tmp_path / "ortho.csv"
        rc = run(
            ["ortho", "--matrix", "randn:200,10", "--sketch", "gaussian",
             "--s", "2n", "--reps", 3, "--out", out, "--strict"]
        )
        assert rc == 4

    def test_violations_not_fatal_without_strict(self, tmp_path):
        out = tmp_path / "ortho.csv"
        rc = run(
            ["ortho", "--matrix", "randn:200,10", "--sketch", "gaussian",
             "--s", "2n", "--reps", 3, "--out", out]
        )
        assert rc == 0
        meta = json.loads((tmp_path / "ortho.csv.jsonl").read_text().splitlines()[0])
        assert meta["violations"] > 0

    def test_each_operator_freed_before_next_build(self, monkeypatch):
        # only one gaussian table may be alive at a time
        alive = []
        build_sketch = cli.build_sketch

        def checking_build_sketch(*args):
            assert all(ref() is None for ref in alive)
            op = build_sketch(*args)
            alive.append(weakref.ref(op))
            return op

        monkeypatch.setattr(cli, "build_sketch", checking_build_sketch)
        rc = run(["ortho", "--matrix", "sprand:400,10,0.05,1e6", "--sketch",
                  "gaussian", "--s", "8n,12n", "--reps", 3])
        assert rc == 0
        assert len(alive) == 6

    def test_bad_eps(self):
        assert run(
            ["ortho", "--matrix", "randn:50,5", "--s", 10, "--eps", "1.5",
             "--reps", 1]
        ) == 2

    def test_full_sample_losses_vanish(self, tmp_path):
        out = tmp_path / "ortho.csv"
        rc = run(
            ["ortho", "--matrix", "randn:50,10", "--sketch", "srtt",
             "--s", 50, "--reps", 2, "--out", out]
        )
        assert rc == 0
        _, fro, two, _ = out.read_text().splitlines()[2].split(",")
        assert float(fro) <= 1e-10 and float(two) <= 1e-10

    def test_rank_warning_below_n(self):
        # s = 10 below n = 20: every sketch singular value is retained, and
        # the factorization may be inexact; ortho still reports its losses
        with pytest.warns(SketchRankWarning):
            rc = run(["ortho", "--matrix", "randn:300,20", "--sketch", "gaussian",
                      "--s", 10, "--reps", 1])
        assert rc == 0

    def test_frobenius_bound_at_retained_rank(self, tmp_path):
        # sts_svd keeps r = 7 of the Cauchy matrix's 200 columns at s = 60,
        # so W has 7 columns and its Frobenius bound at eps = 0.5 is
        # sqrt(7) * eps/(1-eps), not sqrt(200) * eps/(1-eps)
        out = tmp_path / "ortho.csv"
        rc = run(["ortho", "--matrix", "cauchy:200", "--sketch", "srtt",
                  "--s", 60, "--reps", 1, "--out", out])
        assert rc == 0
        assert "bound_fro=2.64575 " in out.read_text().splitlines()[0]
        meta = json.loads((tmp_path / "ortho.csv.jsonl").read_text().splitlines()[0])
        assert meta["bound_fro"] == pytest.approx(np.sqrt(7.0), rel=1e-15)


class TestNearest:
    def test_columns_and_sandwich(self, tmp_path):
        out = tmp_path / "near.csv"
        rc = run(
            ["nearest", "--matrix", "randn:300,20", "--sketch", "gaussian",
             "--s", "5n,10n", "--reps", 3, "--seed", 2, "--out", out, "--raw"]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# time_T_s=")
        assert lines[1] == "s,dist_A_P_2,dist_P_T_2,time_P_s,sandwich_pass"
        rows = [l.split(",") for l in lines[2:]]
        assert [int(r[0]) for r in rows] == [100, 200]
        assert all(r[4] == "true" for r in rows)
        # distances shrink as the sketch grows
        assert float(rows[1][2]) <= float(rows[0][2])
        raw = (tmp_path / "near.csv.raw.csv").read_text().splitlines()
        assert raw[0] == "s,rep,dist_A_P_2,dist_P_T_2,time_P_s,epsilon_emp,sandwich_pass"

    def test_deterministic_output(self, tmp_path):
        args = [
            "nearest", "--matrix", "randn:150,10", "--sketch", "srtt",
            "--s", "4n,8n", "--reps", 3, "--seed", 9,
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args + ["--out", a]) == 0
        assert run(args + ["--out", b]) == 0
        assert strip_times(a.read_text()) == strip_times(b.read_text())

    def test_orthogonal_matrix_trivial(self, tmp_path):
        rng = np.random.default_rng(4)
        Q = np.linalg.qr(rng.standard_normal((100, 10)))[0]
        mtx = tmp_path / "q.mtx"
        write_matrix_market(Q, mtx)
        out = tmp_path / "near.csv"
        rc = run(
            ["nearest", "--matrix", mtx, "--sketch", "srtt", "--s", "8n",
             "--reps", 2, "--out", out]
        )
        assert rc == 0
        row = out.read_text().splitlines()[2].split(",")
        assert float(row[1]) <= 1.5  # dist(A, P) small for orthogonal input

    def test_meta_counts_at_measured_distortion(self, tmp_path):
        out = tmp_path / "near.csv"
        rc = run(["nearest", "--matrix", "randn:200,10", "--sketch", "gaussian",
                  "--s", "2n,5n", "--reps", 3, "--seed", 2, "--out", out, "--raw"])
        assert rc == 0
        meta = json.loads((tmp_path / "near.csv.jsonl").read_text().splitlines()[0])
        lines = (tmp_path / "near.csv.raw.csv").read_text().splitlines()
        eps = [float(l.split(",")[5]) for l in lines[1:]]
        assert meta["uncertified"] == sum(e >= 1.0 for e in eps)
        assert 0 < meta["uncertified"] < len(eps)
        assert meta["sandwich_failures_emp"] == 0
        comment = out.read_text().splitlines()[0]
        assert comment.endswith(f"sandwich_failures_emp=0 uncertified={meta['uncertified']}")

    def test_sparse_gaussian_draws_no_table(self, monkeypatch, tmp_path):
        # The certificate comes from n x n factors, so the one sparse apply
        # per repetition streams its rows and no dense apply draws a table.
        drawn = []
        table = sketchops._gaussian_table

        def counting_table(*args):
            drawn.append(args)
            return table(*args)

        monkeypatch.setattr(sketchops, "_gaussian_table", counting_table)
        rc = run(["nearest", "--matrix", "sprand:2000,20,0.05,1e10", "--sketch",
                  "gaussian", "--s", "8n,16n", "--reps", 2, "--seed", 3,
                  "--out", tmp_path / "near.csv"])
        assert rc == 0
        assert drawn == []

    def test_rank_loss_is_input_error(self, capsys):
        # s = 10 below n = 20: the sketch cannot keep full column rank
        with pytest.warns(SketchRankWarning):
            rc = run(["nearest", "--matrix", "randn:300,20", "--s", 10, "--reps", 1])
        assert rc == 2
        assert "full column rank" in capsys.readouterr().err

    def test_lapack_failure_is_numerical_failure(self, monkeypatch, capsys):
        # numpy reports an SVD that did not converge as a LinAlgError, which
        # is a ValueError, yet a failed LAPACK call
        def unconverged(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", unconverged)
        rc = run(["nearest", "--matrix", "randn:300,20", "--s", "4n", "--reps", 1])
        assert rc == 3
        err = capsys.readouterr().err
        assert "numerical failure" in err and "SVD did not converge" in err


class TestRepetitionMemory:
    """A repetition of ``ortho`` or of ``nearest`` (on its factored route)
    forms no m x n array: beyond the inputs and its operator, it holds
    blocks of ``_GRAM_ROWS`` rows and n x n matrices."""

    m, n = 20_000, 100

    @staticmethod
    def _traced_peak(fn):
        """``fn()`` and the peak of traced memory while it ran."""
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def _matrix(self, tmp_path):
        A = gen_sparse_conditioned(self.m, self.n, 0.01, 1e10, seed=3)
        write_matrix_market(A, tmp_path / "a.mtx")
        return A

    def _repetition_bytes(self, monkeypatch, tmp_path, command):
        """Bytes the run's one repetition allocates above what is held when
        its operator is built, and the peak of building that operator and
        applying it to A alone."""
        A = self._matrix(tmp_path)
        built = []
        build_sketch = cli.build_sketch

        def marking_build_sketch(*args):
            tracemalloc.reset_peak()
            built.append((args, tracemalloc.get_traced_memory()[0]))
            return build_sketch(*args)

        monkeypatch.setattr(cli, "build_sketch", marking_build_sketch)
        argv = [command, "--matrix", tmp_path / "a.mtx", "--sketch", "sparse-sign",
                "--s", "2n", "--reps", 1]
        rc, peak = self._traced_peak(lambda: run(argv))
        assert rc == 0
        [(args, held)] = built
        _, sketch = self._traced_peak(lambda: build_sketch(*args).apply(A))
        return peak - held, sketch

    def test_ortho_forms_no_left_factor(self, monkeypatch, tmp_path):
        extra, sketch = self._repetition_bytes(monkeypatch, tmp_path, "ortho")
        # two blocks of the product (one is freed as the next is formed)
        # and a few n x n matrices; W alone would be 8 m n = 16 MB
        assert extra < sketch + 8 * (2 * _GRAM_ROWS * self.n + 8 * self.n**2)

    def test_factored_nearest_forms_no_P(self, monkeypatch, tmp_path):
        def no_P(*args):
            raise AssertionError("the factored route formed P")

        monkeypatch.setattr(nearest._SketchedPolar, "P", no_P)
        extra, sketch = self._repetition_bytes(monkeypatch, tmp_path, "nearest")
        # n x n matrices only; P alone would be 8 m n = 16 MB
        assert extra < sketch + 8 * 16 * self.n**2

    def test_explicit_nearest_forms_no_P(self, monkeypatch, tmp_path):
        # rotated input at kappa 1e8 takes the explicit route, which forms an
        # orthonormal basis of Range(A) once per run for its certificate,
        # and P in no repetition
        m, n = 2000, 20
        rng = np.random.default_rng(3)
        U, V = (np.linalg.qr(rng.standard_normal(shape))[0]
                for shape in [(m, n), (n, n)])
        write_matrix_market((U * np.logspace(0, -8, n)) @ V.T, tmp_path / "rot.mtx")
        calls, range_basis = [], nearest.range_basis

        def no_P(*args):
            raise AssertionError("the explicit route formed P")

        def recording_basis(*args, **kwargs):
            calls.append(args)
            return range_basis(*args, **kwargs)

        monkeypatch.setattr(nearest._SketchedPolar, "P", no_P)
        monkeypatch.setattr(nearest, "range_basis", recording_basis)
        assert run(["nearest", "--matrix", tmp_path / "rot.mtx", "--sketch", "srtt",
                    "--s", "4n,8n", "--reps", 2, "--out", tmp_path / "n.csv"]) == 0
        assert len(calls) == 1


class TestSeeding:
    def test_repetition_seeds_differ_from_matrix_seed(self, monkeypatch, tmp_path):
        # child 0 of the master seed belongs to the matrix
        master = 7
        child0 = np.random.SeedSequence(master).spawn(1)[0]
        matrix_seed = int(child0.generate_state(1, np.uint64)[0])
        seeds = []
        build_sketch = cli.build_sketch

        def recording_build_sketch(kind, s, m, seed):
            seeds.append(seed)
            return build_sketch(kind, s, m, seed)

        monkeypatch.setattr(cli, "build_sketch", recording_build_sketch)
        rc = run(
            ["ortho", "--matrix", "randn:200,10", "--sketch", "gaussian",
             "--s", "4n,6n", "--reps", 3, "--seed", master, "--out", tmp_path / "o.csv"]
        )
        assert rc == 0
        assert len(seeds) == 6 and len(set(seeds)) == 6
        assert matrix_seed not in seeds

    def test_svds_start_vector_is_not_a_matrix_row(self, monkeypatch):
        # randn:M,N draws A from child 0; the start vector must not reuse it
        master = 3
        child0 = np.random.SeedSequence(master).spawn(1)[0]
        A = np.random.default_rng(
            int(child0.generate_state(1, np.uint64)[0])
        ).standard_normal((300, 8))
        starts = []
        svds = cli.scipy.sparse.linalg.svds

        def recording_svds(*args, v0=None, **kwargs):
            starts.append(v0)
            return svds(*args, v0=v0, **kwargs)

        monkeypatch.setattr(cli.scipy.sparse.linalg, "svds", recording_svds)
        rc = run(["spectrum", "--matrix", "randn:300,8", "--s", "4n", "--reps", 2,
                  "--seed", master])
        assert rc == 0
        assert len(starts) == 1 and starts[0].shape == (8,)
        assert not np.allclose(starts[0], A[0, :])


class TestPresets:
    def test_xl_preset_gated(self):
        assert run(["spectrum", "--preset", "xl"]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_no_matrix(self):
        assert run(["spectrum"]) == 2

    def test_reps_must_be_positive(self):
        assert run(["ortho", "--matrix", "randn:50,5", "--s", 10, "--reps", 0]) == 2

    def test_raw_requires_out(self):
        assert run(
            ["spectrum", "--matrix", "cauchy:20", "--s", 5, "--reps", 1, "--raw"]
        ) == 2

    def test_desk_preset_overridable(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = run(
            ["spectrum", "--preset", "desk", "--matrix", "cauchy:40",
             "--s", 10, "--reps", 2, "--out", out]
        )
        assert rc == 0
        meta = json.loads((tmp_path / "s.csv.jsonl").read_text().splitlines()[0])
        assert meta["matrix"] == "cauchy:40"
        assert meta["reps"] == 2
