"""Deterministic dense/sparse building blocks: QR, SVD, numerical rank,
polar decomposition, and norms.

Matrices are plain 2-d float64 ``numpy.ndarray`` objects or scipy CSR/CSC
sparse matrices; helpers at the top of the module normalize and validate
them.  All functions are pure and safe to call concurrently on disjoint data.
"""

import ctypes
import functools
import glob
import os
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.linalg.lapack import dgejsv

from .errors import NumericalError, PreconditionError, ShapeError

_EPS = np.finfo(np.float64).eps

# Rows of A per block wherever A is visited block by block (the blocked R
# of householder_qr, and stssvd._left_gram's back-product).  On 2 cores
# with BLAS on one thread, 2048 and 8192 rows took the same time within
# noise in _left_gram (12.8 and 15.0 ms on sparse 20000 x 100, 793 and
# 774 ms on sparse 300000 x 300), and 2048 holds a quarter of the memory
# (3.5 against 13.4 MB, 11.3 against 40.9 MB traced, two blocks at a time).
_GRAM_ROWS = 2048


def require_real(X):
    """``X`` (as an ndarray if it has no dtype) once its dtype is found
    real: a cast to float64 would drop the imaginary part of complex input
    with only a ``ComplexWarning``, so complex input raises
    ``PreconditionError`` naming its dtype.  Integer and bool input pass.
    Reads the dtype alone, so it copies nothing that has one."""
    if not hasattr(X, "dtype"):
        X = np.asarray(X)
    if X.dtype.kind == "c":
        raise PreconditionError(f"expected real input, got dtype {X.dtype}")
    return X


def as_matrix(X):
    """Normalize ``X`` to a 2-d float64 ndarray or CSR matrix."""
    X = require_real(X)
    if sp.issparse(X):
        return X.tocsr().astype(np.float64, copy=False)
    A = np.asarray(X, dtype=np.float64)
    if A.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={A.ndim}")
    return A


@functools.cache
def _blas_getter():
    """``scipy_openblas_get_num_threads64_`` of the OpenBLAS bundled with
    numpy, or None where numpy links another BLAS.  Looked up on first use,
    not on import."""
    libs = os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")
    for lib in sorted(glob.glob(libs)):
        getter = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            return getter
    return None


def blas_threads():
    """Thread count numpy's BLAS reports now, or None if it cannot be read."""
    getter = _blas_getter()
    return None if getter is None else getter()


def to_dense(X):
    return X.toarray() if sp.issparse(X) else np.asarray(X, dtype=np.float64)


def _column_norms(X):
    """2-norms of the columns of a dense X, each column scaled to a largest
    magnitude of 1 first, so that no square overflows or underflows."""
    scale = np.maximum(X.max(axis=0, initial=0.0), -X.min(axis=0, initial=0.0))
    X = X / np.where(scale > 0.0, scale, 1.0)
    X *= X
    return scale * np.sqrt(X.sum(axis=0))


def check_finite(X, context="matrix"):
    data = X.data if sp.issparse(X) else X
    if data.size and not np.isfinite(data).all():
        raise NumericalError(f"{context} contains non-finite entries")


@dataclass(frozen=True)
class SvdFactors:
    """Thin SVD ``X = U @ diag(sigma) @ V.T`` with sigma nonincreasing."""

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray


@dataclass(frozen=True)
class PolarPair:
    """Polar-style factorization ``X = P @ H`` with H symmetric positive
    semidefinite and P orthonormal, ``P^T P = I`` (from
    :func:`polar_factors`), or sketch-orthonormal, ``(SP)^T (SP) = I``."""

    P: np.ndarray
    H: np.ndarray

    def reconstruct(self):
        return self.P @ self.H


def householder_qr(X):
    """R of the thin QR ``X = Q R`` of a dense or sparse X with m >= n
    rows: n x n, upper triangular, with a nonnegative diagonal.

    R is computed over blocks of ``_GRAM_ROWS`` rows, each densified alone
    and factored stacked under the R of the rows before it: the sequential
    variant of TSQR (Demmel, Grigori, Hoemmen & Langou, arXiv:0808.2664).
    So neither Q nor any m x n array is formed, and a dense X of at most
    ``_GRAM_ROWS`` rows is one Householder QR.
    """
    X = as_matrix(X)
    m, n = X.shape
    if m < n:
        raise ShapeError(f"householder_qr requires m >= n, got {m} x {n}")
    R = np.empty((0, n))
    for i0 in range(0, m, _GRAM_ROWS):
        R = np.linalg.qr(np.vstack((R, to_dense(X[i0 : i0 + _GRAM_ROWS]))), mode="r")
    return np.where(np.diag(R) < 0, -1.0, 1.0)[:, None] * R


def jacobi_svd(X):
    """SVD by LAPACK ``dgejsv``, the preconditioned one-sided Jacobi method
    of Drmac and Veselic (SIAM J. Matrix Anal. Appl. 29, 2008).

    Chosen over bidiagonalization for its high relative accuracy on the
    small singular values of column-scaled matrices (``JOBA='C'``).  For
    rank-deficient input the columns of ``U`` belonging to zero singular
    values still complete an orthonormal set.

    Raises
    ------
    NumericalError
        If LAPACK reports that the Jacobi iteration did not converge; the
        message carries its ``info`` code.
    """
    X = np.asarray(require_real(X), dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError("jacobi_svd expects a 2-d array")
    if X.size and not np.isfinite(X).all():
        raise PreconditionError("jacobi_svd requires finite entries")
    p, q = X.shape
    if p < q:
        inner = jacobi_svd(X.T)
        return SvdFactors(U=inner.V, sigma=inner.sigma, V=inner.U)
    if q == 0:
        return SvdFactors(np.zeros((p, 0)), np.zeros(0), np.zeros((0, 0)))

    # JOBA='C', JOBU='U', JOBV='V', JOBR='R', JOBP='P'
    sva, U, V, work, _, info = dgejsv(X, joba=0, jobu=0, jobv=0, jobr=1, jobp=1)
    if info != 0:
        raise NumericalError(
            f"one-sided Jacobi (LAPACK dgejsv) did not converge (info={info})"
        )
    # dgejsv may return the singular values scaled to avoid overflow
    return SvdFactors(U=U, sigma=sva * (work[0] / work[1]), V=V)


def numerical_rank(values, rel_threshold=1e-12):
    """Count of the nonincreasing ``values`` exceeding ``rel_threshold``
    times the first; zero when there are none or the first is not positive."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0 or values[0] <= 0.0:
        return 0
    return int((values > rel_threshold * values[0]).sum())


def polar_factors(X):
    """Orthogonal polar decomposition ``X = Q_P @ H``.

    ``Q_P`` has orthonormal columns and is the nearest such matrix to ``X``
    in both the spectral and Frobenius norms; ``H`` is symmetric positive
    semidefinite.  Requires ``m >= n``.  With the Householder QR
    ``X = Q R`` and the :func:`jacobi_svd` ``R = U diag(sigma) V^T``,
    ``Q_P = Q U V^T`` and ``H = V diag(sigma) V^T``.  X and R share H, so
    H keeps the Jacobi SVD's relative accuracy on column-scaled matrices,
    which an SVD of X by bidiagonalization loses.
    """
    X = to_dense(as_matrix(X))
    m, n = X.shape
    if m < n:
        raise ShapeError(f"polar_factors requires m >= n, got {m} x {n}")
    Q, R = np.linalg.qr(X)
    # signed as by householder_qr: Q D is the Q of the signed D R
    d = np.where(np.diag(R) < 0, -1.0, 1.0)
    f = jacobi_svd(d[:, None] * R)
    P = Q @ (d[:, None] * (f.U @ f.V.T))
    return PolarPair(P=P, H=_symmetric_factor(f.V, f.sigma))


def _symmetric_factor(V, sigma):
    """``V diag(sigma) V^T``, symmetrized: the H of a polar decomposition
    from the right singular vectors and values of its input."""
    H = (V * sigma) @ V.T
    return 0.5 * (H + H.T)


def range_basis(*mats, rtol=None):
    """Orthonormal basis of the joint column space of the given matrices.

    Columns are stacked, densified, and trimmed at ``rtol * sigma_1``
    (default ``max(total shape) * eps``) of their thin SVD by LAPACK
    ``dgesdd`` (``scipy.linalg.svd``), which forms U once, where
    ``numpy.linalg.svd`` holds a second m x n copy of it.  Non-finite
    entries raise ``NumericalError``.  Used to pick the subspace an
    embedding certificate is measured over.
    """
    blocks = [to_dense(as_matrix(M)) for M in mats]
    X = np.hstack(blocks) if len(blocks) > 1 else blocks[0]
    check_finite(X, "range_basis input")
    U, s, _ = scipy.linalg.svd(X, full_matrices=False, check_finite=False)
    if rtol is None:
        rtol = max(X.shape) * _EPS
    return U[:, : numerical_rank(s, rtol)]


def spectral_norm(X):
    """Largest singular value of ``X``, dense or sparse: the square root of
    the largest eigenvalue of the smaller Gram matrix (``X^T X`` or
    ``X X^T``), which costs ``min(m, n)^2`` memory.

    ``X`` is first scaled to a largest entry of 1, so the squared entries
    of the Gram matrix neither overflow nor underflow.
    """
    X = as_matrix(X)
    scale = abs(X).max() if min(X.shape) else 0.0
    if scale == 0.0:
        return 0.0
    X = X / scale
    G = X.T @ X if X.shape[0] >= X.shape[1] else X @ X.T
    lam = np.linalg.eigvalsh(to_dense(G))[-1]
    return float(scale * np.sqrt(max(lam, 0.0)))
