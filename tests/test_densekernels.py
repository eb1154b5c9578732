import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from sketchsvd import (
    NumericalError,
    PreconditionError,
    ShapeError,
    build_sketch,
    empirical_epsilon,
    householder_qr,
    jacobi_svd,
    polar_factors,
    range_basis,
    spectral_norm,
    sts_svd,
)
from sketchsvd import _lapack, densekernels
from sketchsvd.densekernels import _GRAM_ROWS
from sketchsvd.cli import main
import scipy.sparse as sp


def rand_orthonormal(rng, m, n):
    return np.linalg.qr(rng.standard_normal((m, n)))[0]


class TestHouseholderQR:
    def test_identity(self):
        np.testing.assert_allclose(householder_qr(np.eye(4)), np.eye(4), atol=1e-15)

    def test_equal_columns_give_zero_diag(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(12)
        X = np.column_stack([a, a])
        R = householder_qr(X)
        assert abs(R[1, 1]) <= 1e-13 * np.linalg.norm(X)

    def test_equals_sign_fixed_reduced_r(self):
        # the R-only factorization skips Q but not one bit of R, and a
        # dense X of at most _GRAM_ROWS rows is one block
        for m, n in [(30, 5), (800, 50), (7, 7), (_GRAM_ROWS, 50)]:
            X = np.random.default_rng(m).standard_normal((m, n))
            R = np.linalg.qr(X)[1]
            d = np.sign(np.diag(R))
            d[d == 0] = 1.0
            assert np.array_equal(householder_qr(X), d[:, None] * R)

    def test_nonnegative_diagonal_and_gram(self):
        # 100 seeded draws at assorted shapes up to 500 x 100
        shapes = [(20, 5), (100, 30), (500, 100), (7, 7)]
        for trial in range(100):
            m, n = shapes[trial % len(shapes)]
            X = np.random.default_rng(trial).standard_normal((m, n))
            R = householder_qr(X)
            assert R.shape == (n, n)
            assert np.array_equal(R, np.triu(R))
            assert np.diag(R).min() >= 0
            G = X.T @ X
            assert np.linalg.norm(R.T @ R - G) <= 1e-13 * np.linalg.norm(G)

    @pytest.mark.parametrize("m", [_GRAM_ROWS + 1, 3 * _GRAM_ROWS + 5])
    def test_blocks_give_the_r_of_a(self, m):
        # R^T R = A^T A with diag(R) >= 0 fixes R; rows are scaled by
        # their diagonal entry, which each column of A's grading sets
        rng = np.random.default_rng(m)
        A = rng.standard_normal((m, 30)) * np.logspace(0, -10, 30)
        R = householder_qr(A)
        assert np.array_equal(R, np.triu(R)) and (np.diag(R) >= 0).all()
        want = np.linalg.qr(A, mode="r")
        want *= np.sign(np.diag(want))[:, None]
        scale = np.diag(want)[:, None]
        np.testing.assert_allclose(R / scale, want / scale, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    @pytest.mark.parametrize("m", [1000, 2 * _GRAM_ROWS + 5])
    def test_sparse_input_is_dense_input(self, m, fmt):
        A = sp.random_array((m, 20), density=0.2, format=fmt, rng=m)
        assert np.array_equal(householder_qr(A), householder_qr(A.toarray()))

    def test_wide_input_rejected(self):
        for X in (np.ones((2, 3)), sp.csr_matrix(np.ones((2, 3)))):
            with pytest.raises(ShapeError):
                householder_qr(X)


class TestJacobiSVD:
    def test_diagonal(self):
        f = jacobi_svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(f.sigma, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(np.abs(f.U), np.eye(3), atol=1e-14)
        np.testing.assert_allclose(np.abs(f.V), np.eye(3), atol=1e-14)

    def test_zero_matrix(self):
        f = jacobi_svd(np.zeros((5, 3)))
        np.testing.assert_allclose(f.sigma, np.zeros(3))
        # U is completed to an orthonormal basis even for zero input
        np.testing.assert_allclose(f.U.T @ f.U, np.eye(3), atol=1e-14)

    def test_reconstruction_and_orthogonality(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((30, 8))
        f = jacobi_svd(X)
        np.testing.assert_allclose((f.U * f.sigma) @ f.V.T, X, atol=1e-13 * f.sigma[0])
        assert np.linalg.norm(f.U.T @ f.U - np.eye(8), 2) <= 1e-13
        assert np.linalg.norm(f.V.T @ f.V - np.eye(8), 2) <= 1e-13
        assert (np.diff(f.sigma) <= 1e-15).all()

    def test_matches_bidiagonalization_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((50, 20))
        f = jacobi_svd(X)
        ref = np.linalg.svd(X, compute_uv=False)
        np.testing.assert_allclose(f.sigma, ref, rtol=1e-12)

    def test_hilbert_small_singular_values(self):
        # Oracle: 60-digit SVD of the 8x8 Hilbert matrix.
        mpmath = pytest.importorskip("mpmath")
        n = 8
        mpmath.mp.dps = 60
        Hm = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                Hm[i, j] = mpmath.mpf(1) / (i + j + 1)
        exact = sorted((float(v) for v in mpmath.svd_r(Hm, compute_uv=False)),
                       reverse=True)
        H = 1.0 / (np.arange(n)[:, None] + np.arange(n)[None, :] + 1.0)
        f = jacobi_svd(H)
        ratio = f.sigma[-1] / f.sigma[0]
        exact_ratio = exact[-1] / exact[0]
        assert exact_ratio == pytest.approx(6.554121158778907e-11, rel=1e-12)
        assert ratio == pytest.approx(exact_ratio, rel=1e-2)  # 2 significant digits

    def test_wide_matrix(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((4, 9))
        f = jacobi_svd(X)
        np.testing.assert_allclose((f.U * f.sigma) @ f.V.T, X, atol=1e-13 * f.sigma[0])
        np.testing.assert_allclose(f.sigma, np.linalg.svd(X, compute_uv=False),
                                   rtol=1e-12)

    def test_rank_deficient_orthonormal_completion(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((10, 2))
        X = np.column_stack([X[:, 0], X[:, 0], X[:, 1]])
        f = jacobi_svd(X)
        assert f.sigma[-1] <= 1e-14 * f.sigma[0]
        assert np.linalg.norm(f.U.T @ f.U - np.eye(3), 2) <= 1e-12

    def test_nonfinite_rejected(self):
        with pytest.raises(PreconditionError):
            jacobi_svd(np.array([[1.0, np.nan], [0.0, 1.0]]))

    def test_nonconvergence_raises(self, monkeypatch, tmp_path, capsys):
        # dgejsv reports non-convergence through info > 0; force that path
        # and check it reaches the CLI as a numerical failure (exit code 3).
        def no_convergence(X):
            n = X.shape[1]
            return np.zeros(n), np.zeros(X.shape), np.zeros((n, n)), np.ones(7), 1

        monkeypatch.setattr(_lapack, "_dgejsv", no_convergence)
        rng = np.random.default_rng(9)
        with pytest.raises(NumericalError, match="did not converge"):
            jacobi_svd(rng.standard_normal((8, 8)))
        out = tmp_path / "n.csv"
        rc = main(["nearest", "--matrix", "randn:40,6", "--sketch", "srtt",
                   "--s", "24", "--reps", "1", "--out", str(out)])
        assert rc == 3
        assert "did not converge" in capsys.readouterr().err

    def test_graded_relative_accuracy(self):
        # Oracle: 50-digit SVD of a column-graded matrix whose singular
        # values span 14 decades; each must come out with high relative
        # accuracy, not just absolute accuracy relative to sigma_1.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(0)
        X = rng.standard_normal((80, 40)) @ np.diag(np.logspace(0, -14, 40))
        with mpmath.workdps(50):
            exact = np.array(sorted(
                (float(v) for v in
                 mpmath.svd_r(mpmath.matrix(X.tolist()), compute_uv=False)),
                reverse=True))
        f = jacobi_svd(X)
        assert np.max(np.abs(f.sigma - exact) / exact) <= 2e-15


class TestPolarFactors:
    def test_orthogonal_input(self):
        rng = np.random.default_rng(8)
        X = rand_orthonormal(rng, 6, 4)
        pair = polar_factors(X)
        np.testing.assert_allclose(pair.P, X, atol=1e-12)
        np.testing.assert_allclose(pair.H, np.eye(4), atol=1e-12)

    def test_scaled_identity(self):
        pair = polar_factors(2.0 * np.eye(3))
        np.testing.assert_allclose(pair.P, np.eye(3), atol=1e-14)
        np.testing.assert_allclose(pair.H, 2.0 * np.eye(3), atol=1e-14)

    def test_minimizes_over_random_orthogonal(self):
        # Oracle: 500 random orthonormal competitors never beat the factor.
        rng = np.random.default_rng(10)
        X = rng.standard_normal((10, 4))
        pair = polar_factors(X)
        best = np.linalg.norm(X - pair.P)
        for _ in range(500):
            Z = rand_orthonormal(rng, 10, 4)
            assert np.linalg.norm(X - Z) >= best - 1e-10

    def test_invariants(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            X = rng.standard_normal((12, 5))
            pair = polar_factors(X)
            nrm = np.linalg.norm(X, 2)
            assert np.linalg.norm(X - pair.P @ pair.H, 2) <= 1e-12 * nrm
            np.testing.assert_allclose(pair.H, pair.H.T, atol=1e-12)
            assert np.linalg.eigvalsh(pair.H).min() >= -1e-12 * nrm
            assert np.linalg.norm(pair.P.T @ pair.P - np.eye(5), 2) <= 1e-12

    def test_wide_rejected(self):
        with pytest.raises(ShapeError):
            polar_factors(np.ones((2, 5)))

    @staticmethod
    def _exact(A):
        """60-digit ``(T, H)`` with ``H = (A^T A)^(1/2)``, ``T = A H^-1``."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(60):
            Am = mpmath.matrix(A.tolist())
            lam, E = mpmath.eigsy(Am.T * Am)
            root = [mpmath.sqrt(v) for v in lam]
            H = E * mpmath.diag(root) * E.T
            T = Am * (E * mpmath.diag([1 / r for r in root]) * E.T)
            return (np.array(T.tolist(), dtype=float),
                    np.array(H.tolist(), dtype=float))

    @pytest.mark.parametrize("kappa", [1e6, 1e10])
    def test_graded_against_mpmath(self, kappa):
        # Column grading leaves kappa(A D) small, so H (relative to each
        # column's norm) and T stay at roundoff for any kappa(A); an SVD of
        # A by bidiagonalization puts H 1e-13 off at kappa(A) = 1e10.
        for seed in range(3):
            rng = np.random.default_rng(seed)
            A = rng.standard_normal((150, 10)) * np.logspace(0, -np.log10(kappa), 10)
            T, H = self._exact(A)
            pair = polar_factors(A)
            assert np.max(np.abs(pair.H - H) / np.linalg.norm(H, axis=0)) <= 1e-14
            assert np.max(np.abs(pair.P - T)) <= 1e-15

    def test_rotated_against_mpmath(self):
        # On rotated input T is as sensitive as Range(A): u * kappa(A)
        kappa = 1e6
        rng = np.random.default_rng(0)
        A = (rand_orthonormal(rng, 150, 10) * np.logspace(0, -np.log10(kappa), 10)
             ) @ rand_orthonormal(rng, 10, 10).T
        T, _ = self._exact(A)
        assert np.max(np.abs(polar_factors(A).P - T)) <= np.finfo(float).eps * kappa


class TestNorms:
    def test_spectral_diag(self):
        assert spectral_norm(np.diag([5.0, 1.0])) == pytest.approx(5.0)

    def test_spectral_zero(self):
        assert spectral_norm(np.zeros((4, 2))) == 0.0

    def test_spectral_matches_svd_small(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((200, 50))
        ref = np.linalg.svd(X, compute_uv=False)[0]
        assert spectral_norm(X) == pytest.approx(ref, rel=1e-8)

    def test_spectral_large(self):
        n = 620
        rng = np.random.default_rng(14)
        X = rng.standard_normal((n + 30, n))
        ref = np.linalg.svd(X, compute_uv=False)[0]
        assert spectral_norm(X) == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_spectral_extreme_scale(self, scale):
        # the Gram matrix of the unscaled input would underflow / overflow
        X = np.random.default_rng(17).standard_normal((40, 6))
        ref = np.linalg.svd(X, compute_uv=False)[0]
        assert spectral_norm(scale * X) / scale == pytest.approx(ref, rel=1e-12)
        assert spectral_norm(sp.csr_matrix(scale * X)) / scale == pytest.approx(
            ref, rel=1e-12
        )

    def test_spectral_wide(self):
        X = np.random.default_rng(18).standard_normal((7, 90))
        ref = np.linalg.svd(X, compute_uv=False)[0]
        assert spectral_norm(X) == pytest.approx(ref, rel=1e-12)

    def test_spectral_sparse(self):
        rng = np.random.default_rng(15)
        X = sp.random_array((300, 40), density=0.05, rng=rng)
        ref = np.linalg.svd(X.toarray(), compute_uv=False)[0]
        assert spectral_norm(X) == pytest.approx(ref, rel=1e-10)


class TestRangeBasis:
    def test_spans_and_trims(self):
        rng = np.random.default_rng(17)
        A = rng.standard_normal((40, 3)) @ rng.standard_normal((3, 6))
        U = range_basis(A)
        assert U.shape == (40, 3)
        np.testing.assert_allclose(U.T @ U, np.eye(3), atol=1e-12)
        # projection captures all of A
        np.testing.assert_allclose(U @ (U.T @ A), A, atol=1e-12)

    def test_union_of_ranges(self):
        rng = np.random.default_rng(18)
        A = rng.standard_normal((20, 2))
        B = rng.standard_normal((20, 3))
        U = range_basis(A, B)
        assert U.shape == (20, 5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises_numerical_error(self, bad):
        # the CLI maps NumericalError to exit 3, as it did LAPACK's
        # LinAlgError; scipy's own check would raise a ValueError (exit 2)
        A = np.ones((6, 3))
        A[2, 1] = bad
        with pytest.raises(NumericalError, match="non-finite"):
            range_basis(A)
        with pytest.raises(NumericalError, match="non-finite"):
            range_basis(np.eye(6, 2), sp.csr_matrix(A))

    @pytest.mark.parametrize("shape, basis", [((10, 0), (10, 0)), ((0, 3), (0, 0))])
    def test_empty_input(self, shape, basis):
        assert range_basis(np.zeros(shape)).shape == basis


def test_blas_threads_reads_the_pinned_count():
    # in a fresh interpreter: the library is not opened on import, and
    # reads the count OPENBLAS_NUM_THREADS set
    if densekernels.blas_threads() is None:
        pytest.skip("numpy's BLAS does not report its thread count")
    code = ("from sketchsvd import _lapack, densekernels as d; "
            "print(_lapack._openblas.cache_info().currsize, d.blas_threads())")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


# Entry points that cast their input to float64, where a cast would drop
# the imaginary part of complex input with only a ComplexWarning.
_CASTING = {
    "apply": lambda op, X: op.apply(X),
    "sts_svd": lambda op, X: sts_svd(X, op),
    "jacobi_svd": lambda op, X: jacobi_svd(X),
    "empirical_epsilon": lambda op, X: empirical_epsilon(op, X),
}
_INPUTS = {
    "dense": lambda X: X,
    "csr": sp.csr_matrix,
    "vector": lambda X: X[:, 0],
}


class TestRealInput:
    @pytest.mark.parametrize("form", _INPUTS)
    @pytest.mark.parametrize("entry", _CASTING)
    def test_complex_input_raises_naming_its_dtype(self, entry, form):
        A = np.random.default_rng(0).standard_normal((100, 5)) * (1 + 1j)
        op = build_sketch("srtt", 20, 100, seed=1)
        with pytest.raises(PreconditionError, match="complex128"):
            _CASTING[entry](op, _INPUTS[form](A))

    def test_complex64_is_named(self):
        with pytest.raises(PreconditionError, match="complex64"):
            densekernels.as_matrix(np.ones((3, 2), dtype=np.complex64))

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, bool])
    @pytest.mark.parametrize("form", _INPUTS)
    def test_integer_and_bool_input_converts(self, form, dtype):
        X = (np.arange(300).reshape(100, 3) % 7 > 2).astype(dtype)
        op = build_sketch("srtt", 20, 100, seed=1)
        got = op.apply(_INPUTS[form](X))
        assert np.array_equal(got, op.apply(_INPUTS[form](X.astype(np.float64))))

    def test_integer_input_factors(self):
        X = np.arange(1, 301).reshape(100, 3) ** 2 % 11
        op = build_sketch("srtt", 20, 100, seed=1)
        assert np.array_equal(sts_svd(X, op).theta, sts_svd(X.astype(float), op).theta)
        assert np.array_equal(jacobi_svd(X).sigma, jacobi_svd(X.astype(float)).sigma)
        E = np.eye(100, 4, dtype=np.int64)
        assert empirical_epsilon(op, E) == empirical_epsilon(op, E.astype(float))

    @pytest.mark.parametrize("form", ["dense", "csr"])
    def test_check_copies_nothing(self, form):
        X = _INPUTS[form](np.ones((4, 2)))
        assert densekernels.require_real(X) is X
