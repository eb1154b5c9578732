"""Deterministic dense/sparse building blocks: QR, SVD, numerical rank,
polar decomposition, and norms.

Matrices are plain 2-d float64 ``numpy.ndarray`` objects or scipy CSR/CSC
sparse matrices; helpers at the top of the module normalize and validate
them.  All functions are pure and safe to call concurrently on disjoint data.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgejsv

from .errors import NumericalError, PreconditionError, ShapeError

# Below this column/row count spectral norms use a full SVD; above it, power
# iteration on the Gram operator.
SPECTRAL_NORM_CROSSOVER = 600

_EPS = np.finfo(np.float64).eps


def as_matrix(X):
    """Normalize ``X`` to a 2-d float64 ndarray or CSR matrix."""
    if sp.issparse(X):
        return X.tocsr()
    A = np.asarray(X, dtype=np.float64)
    if A.ndim != 2:
        raise ShapeError(f"expected a 2-d matrix, got ndim={A.ndim}")
    return A


def to_dense(X):
    return X.toarray() if sp.issparse(X) else np.asarray(X, dtype=np.float64)


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


def householder_qr(X):
    """Thin QR factorization with a nonnegative-diagonal sign convention.

    Parameters
    ----------
    X : (m, n) array, m >= n

    Returns
    -------
    Q : (m, n) array with orthonormal columns
    R : (n, n) upper-triangular array, diag(R) >= 0
    """
    X = np.asarray(X, dtype=np.float64)
    m, n = X.shape
    if m < n:
        raise ShapeError(f"householder_qr requires m >= n, got {m} x {n}")
    Q, R = np.linalg.qr(X, mode="reduced")
    d = np.sign(np.diag(R))
    d[d == 0] = 1.0
    return Q * d, d[:, None] * R


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
    X = np.asarray(X, dtype=np.float64)
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
    """Orthogonal polar decomposition ``X = Q_P @ H`` via the SVD.

    ``Q_P`` has orthonormal columns and is the nearest such matrix to ``X``
    in both the spectral and Frobenius norms; ``H`` is symmetric positive
    semidefinite.  Requires ``m >= n``.
    """
    from .nearest import PolarPair

    X = to_dense(as_matrix(X))
    m, n = X.shape
    if m < n:
        raise ShapeError(f"polar_factors requires m >= n, got {m} x {n}")
    U, s, Vt = np.linalg.svd(X, full_matrices=False)
    Q = U @ Vt
    H = (Vt.T * s) @ Vt
    H = 0.5 * (H + H.T)
    return PolarPair(P=Q, H=H, mode="orthogonal")


def range_basis(*mats, rtol=None):
    """Orthonormal basis of the joint column space of the given matrices.

    Columns are stacked, densified, and trimmed at ``rtol * sigma_1``
    (default ``max(total shape) * eps``).  Used to pick the subspace an
    embedding certificate is measured over.
    """
    blocks = [to_dense(as_matrix(M)) for M in mats]
    X = np.hstack(blocks) if len(blocks) > 1 else blocks[0]
    U, s, _ = np.linalg.svd(X, full_matrices=False)
    if rtol is None:
        rtol = max(X.shape) * _EPS
    return U[:, : numerical_rank(s, rtol)]


def fro_norm(X):
    """Frobenius norm, exact for dense and sparse input."""
    if sp.issparse(X):
        return float(np.sqrt(X.data @ X.data)) if X.nnz else 0.0
    return float(np.linalg.norm(np.asarray(X, dtype=np.float64)))


def spectral_norm(X, tol=1e-9, max_iter=5000, seed=0):
    """Largest singular value of ``X``.

    Uses a full SVD when ``min(m, n) <= SPECTRAL_NORM_CROSSOVER`` (dense
    input) or a dense Gram eigendecomposition (sparse input); otherwise a
    seeded power iteration on the Gram operator.

    Raises
    ------
    NumericalError
        When power iteration fails to settle; ``estimate`` on the exception
        carries the best value found.
    """
    X = as_matrix(X)
    m, n = X.shape
    if m == 0 or n == 0:
        return 0.0
    if min(m, n) <= SPECTRAL_NORM_CROSSOVER:
        if sp.issparse(X):
            G = (X.T @ X).toarray() if m >= n else (X @ X.T).toarray()
            lam = np.linalg.eigvalsh(G)[-1]
            return float(np.sqrt(max(lam, 0.0)))
        return float(np.linalg.svd(X, compute_uv=False)[0]) if X.size else 0.0

    # Power iteration on X^T X (or X X^T, whichever is smaller).  The
    # stopping rule extrapolates the geometric convergence rate from
    # successive increments, so small spectral gaps do not cause premature
    # termination.
    transpose = m < n
    A = X.T if transpose else X
    k = A.shape[1]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(k)
    v /= np.linalg.norm(v)
    est = 0.0
    prev_delta = np.inf
    for _ in range(max_iter):
        w = A @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        new_est = nw
        v = A.T @ w
        nv = np.linalg.norm(v)
        if nv == 0.0:
            return float(new_est)
        v /= nv
        delta = abs(new_est - est)
        rho = min(delta / prev_delta, 0.999) if prev_delta > 0 else 0.0
        tail = delta * rho / (1.0 - rho)
        if delta <= tol * new_est and tail <= tol * new_est:
            return float(new_est)
        est = new_est
        prev_delta = delta if delta > 0 else prev_delta
    raise NumericalError(
        f"power iteration did not converge in {max_iter} iterations",
        estimate=float(est),
    )
