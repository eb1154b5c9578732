"""SVD-like factorization whose left factor is orthonormal in the sketch
inner product.

For a sketch operator S and a tall matrix A, ``sts_svd`` computes
``A = W @ diag(theta) @ V.T`` where ``(SW)^T (SW) = I``, ``V`` has ordinary
orthonormal columns, and theta is nonincreasing and nonnegative.  The
factorization is exact whenever ``rank(S A) == rank(A)``, and the theta
values sandwich the ordinary singular values:
``sqrt(1 - eps) * sigma_k <= theta_k <= sqrt(1 + eps) * sigma_k`` for any
distortion ``eps`` valid over ``Range(A)`` (deterministically so for the
measured ``epsilon_emp``).

Two routes are provided.  The direct route sketches once, takes the SVD of
``S A`` by LAPACK ``dgejsv`` (whose own pivoted QR preconditions the
Jacobi sweeps, so no QR runs in front of it), then recovers
``W = A @ V_r @ diag(theta_r)^-1``; A is touched once for the sketch and
once for the back-product, and sparse input is never densified.  The QR
route takes a sketch-orthonormal basis ``Q`` from :func:`sketched_qr` (two
block applies of S and two in-place triangular solves by BLAS ``dtrsm``,
all on a dense copy of A) and the SVD of its triangular factor.  Both
LAPACK and BLAS routines come from numpy's OpenBLAS (``sketchsvd._lapack``).
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import _lapack
from .densekernels import (
    _EPS,
    _GRAM_ROWS,
    _column_norms,
    as_matrix,
    check_finite,
    householder_qr,
    jacobi_svd,
    numerical_rank,
)
from .errors import NumericalError, RankDeficiencyError, ShapeError, SketchRankWarning

# sketched_qr's default column threshold
_QR_RTOL = 1e-12

# Absolute slack of every bound's pass flag, for roundoff in either side
PASS_SLACK = 1e-10


@dataclass(frozen=True)
class StsSvdFactors:
    """Factors ``A ~= W @ diag(theta) @ V.T`` with sketch-orthonormal W."""

    W: np.ndarray
    theta: np.ndarray
    V: np.ndarray

    @property
    def r(self):
        """Retained rank: the number of theta values."""
        return self.theta.size

    def reconstruct(self):
        return (self.W * self.theta) @ self.V.T


@dataclass(frozen=True)
class SpectrumComparison:
    """Per-index sandwich check of sketch singular values against a
    reference spectrum at a measured distortion."""

    theta: np.ndarray
    sigma: np.ndarray
    epsilon_emp: float
    flags: np.ndarray

    @property
    def all_within(self):
        return bool(self.flags.all())


def _retained(sigma, V, s, n, rtol=None, stacklevel=3):
    """The rank rule of both routes: the leading ``(theta, V)`` of an SVD
    with nonincreasing ``sigma``, truncated at ``rtol * sigma_1`` (default
    ``max(s, n) * eps``) for a sketch of dimension s and n columns.

    Warns with :class:`SketchRankWarning` when every value was retained
    and ``s < n``, at the frame ``stacklevel`` up (by default the caller's
    caller).
    """
    if rtol is None:
        rtol = max(s, n) * _EPS
    r = numerical_rank(sigma, rtol)
    if r == s and s < n:
        warnings.warn(
            "all sketch singular values retained with s < n: sketch "
            "dimension may be below rank(A) and the factorization inexact",
            SketchRankWarning,
            stacklevel=stacklevel,
        )
    return sigma[:r].copy(), np.ascontiguousarray(V[:, :r])


def _left_gram(A, theta, V):
    """``W^T W`` for ``W = A @ (V / theta)``, the left factor of
    :func:`sts_svd`, summed over blocks of ``_GRAM_ROWS`` rows of A, so that
    W is never formed whole."""
    A = as_matrix(A)
    B = V / theta
    G = np.zeros((theta.size, theta.size))
    for i0 in range(0, A.shape[0], _GRAM_ROWS):
        Wb = A[i0 : i0 + _GRAM_ROWS] @ B
        G += Wb.T @ Wb
    return G


def sts_singular_values(A, op):
    """All ``min(s, n)`` sketch singular values of A (no truncation, no W).

    Cheap single-pass helper: the only m-sized work is the sketch itself.
    """
    A = as_matrix(A)
    if op.m != A.shape[0]:
        raise ShapeError(f"operator acts on {op.m} rows, A has {A.shape[0]}")
    SA = op.apply(A)
    check_finite(SA, "sketched matrix")
    # U is unread, but dgejsv without it (JOBU='N') fails the factored/explicit
    # and loss-tie agreement tests on graded input at kappa 1e10
    f = jacobi_svd(SA)
    return f.sigma, f.V


def sts_svd(A, op, rtol=None):
    """Factor ``A = W @ diag(theta) @ V.T`` with ``(SW)^T SW = I``.

    Parameters
    ----------
    A : (m, n) dense or sparse matrix
    op : SketchOperator with ``op.m == m``; exactness requires
        ``op.s >= rank(A)`` (checked a posteriori, see warning below)
    rtol : float, optional
        Relative rank-truncation threshold; theta values at or below
        ``rtol * theta_1`` are dropped.  Default ``max(s, n) * eps``.

    Warns
    -----
    SketchRankWarning
        When every sketch singular value was retained and ``s < n``, in
        which case the sketch dimension may be below ``rank(A)``.
    """
    A = as_matrix(A)
    theta, V = _retained(*sts_singular_values(A, op), op.s, A.shape[1], rtol)
    return StsSvdFactors(W=A @ (V / theta), theta=theta, V=V)


def sketched_qr(A, op, rtol=_QR_RTOL):
    """QR factorization orthonormal in the sketch inner product.

    Two-pass sketch-preconditioned QR, the randomized Cholesky QR of
    Balabanov ("Randomized Cholesky QR factorizations", arXiv:2210.09953):
    ``R1`` is the R factor of ``S A``, ``Q1 = A R1^-1``, ``R2`` is the R
    factor of ``S Q1``, and ``Q = Q1 R2^-1``, ``R = R2 R1``.  A is copied
    once into an m x n float64 array; the operator is applied twice to it,
    each time to a block of n columns, and both triangular solves (BLAS
    ``dtrsm`` of numpy's OpenBLAS) overwrite it in place.  The second pass
    restores the sketch orthonormality lost to rounding in the first, as
    reorthogonalization does in column-by-column randomized Gram-Schmidt
    (Balabanov & Grigori, arXiv:2111.14641).  Returns ``(Q, R)`` with
    ``(SQ)^T (SQ) = I`` (to roundoff), ``A = Q R`` and ``diag(R) > 0``.

    Raises
    ------
    RankDeficiencyError
        When ``R1[j, j]``, the sketch norm of column j's residual against
        the previous columns, falls at or below ``rtol * |a_j|``; the
        exception names the first such column.
    NumericalError
        When ``cond(R2) = cond(S Q1)`` is not below ``eps^-1/2``, past which
        the second solve's sketch Gram defect, about ``n eps cond(R2)``, is
        too large to call Q sketch-orthonormal.
    """
    A = as_matrix(A)
    m, n = A.shape
    if op.m != m:
        raise ShapeError(f"operator acts on {op.m} rows, A has {m}")
    if op.s < n:
        raise ShapeError(f"sketched_qr needs s >= n, got s={op.s}, n={n}")
    Q = A.toarray(order="F") if sp.issparse(A) else np.array(A, order="F")
    # S is applied to the dense copy, so that sparse A takes the dense
    # path too: a fresh gaussian operator then draws its table once, for
    # both applies, instead of streaming its rows for sparse A first
    SA = op.apply(Q)
    check_finite(SA, "sketched matrix")
    R1 = householder_qr(SA)
    resid = np.diag(R1)
    dependent = np.flatnonzero(resid <= rtol * _column_norms(Q))
    if dependent.size:
        j = int(dependent[0])
        raise RankDeficiencyError(
            f"column {j} is numerically dependent on the previous ones "
            f"(sketched residual norm {resid[j]:.3e})",
            column=j,
        )
    Q = _lapack.trsm(R1, Q)
    R2 = householder_qr(op.apply(Q))
    cond = np.linalg.cond(R2)
    if not cond < _EPS**-0.5:
        raise NumericalError(f"S Q1 has condition number {cond:.3e} after one pass")
    Q = _lapack.trsm(R2, Q)
    return Q, R2 @ R1


def sts_svd_via_qr(A, op, rtol=None):
    """Same factorization as :func:`sts_svd`, through the sketched QR.

    More robust on nearly dependent columns it can still orthonormalize.
    It densifies A and applies the operator twice, so it costs about twice
    the direct route: 0.060-0.068 s against 0.028-0.032 s on dense
    10000x50 with a gaussian ``s = 800``, BLAS on one thread, 2 cores, on
    an operator whose table is already drawn.  A fresh gaussian operator
    draws its table in its first apply, which adds about 0.07 s at that
    size to whichever route runs first.
    Requires A of full column rank (rank deficiency raises from
    :func:`sketched_qr`).  An explicit ``rtol`` below :func:`sketched_qr`'s
    default of 1e-12 is also its column threshold, so a small enough
    ``rtol`` lets a nearly dependent column through; a larger one leaves
    the QR at its default and only truncates, as in :func:`sts_svd`.
    """
    A = as_matrix(A)
    Q, R = sketched_qr(A, op, _QR_RTOL if rtol is None else min(rtol, _QR_RTOL))
    f = jacobi_svd(R)
    theta, V = _retained(f.sigma, f.V, op.s, A.shape[1], rtol)
    return StsSvdFactors(W=Q @ f.U[:, : theta.size], theta=theta, V=V)


def truncate(f, k):
    """Rank-k head of the factorization; the best rank-k approximation of
    the original matrix in both sketch norms, with tail identities
    ``|A - A_k|_{S,F}^2 = sum_{i>k} theta_i^2`` and
    ``|A - A_k|_{S,2} = theta_{k+1}``."""
    if not 1 <= k <= f.r:
        raise ValueError(f"truncation rank must be in [1, {f.r}], got {k}")
    return StsSvdFactors(
        W=f.W[:, :k].copy(),
        theta=f.theta[:k].copy(),
        V=f.V[:, :k].copy(),
    )


def compare_spectra(f, sigma, cert):
    """Check every retained theta against the reference singular values
    ``sigma`` (nonincreasing, at least ``f.r`` of them).

    ``flags[k]`` is true iff ``sqrt(1 - eps) * sigma_k - PASS_SLACK <=
    theta_k <= sqrt(1 + eps) * sigma_k + PASS_SLACK`` with
    ``eps = cert.epsilon_emp``.  When the certificate was measured over the
    range of the factored matrix, every flag holds deterministically.
    """
    theta = np.asarray(f.theta, dtype=np.float64)
    sigma = np.asarray(sigma, dtype=np.float64)
    if sigma.size < theta.size:
        raise ShapeError(
            f"reference spectrum has {sigma.size} values, need >= {theta.size}"
        )
    sigma = sigma[: theta.size]
    eps = cert.epsilon_emp
    lo = np.sqrt(max(1.0 - eps, 0.0)) * sigma
    hi = np.sqrt(1.0 + eps) * sigma
    flags = (theta >= lo - PASS_SLACK) & (theta <= hi + PASS_SLACK)
    return SpectrumComparison(
        theta=theta, sigma=sigma, epsilon_emp=eps, flags=flags
    )
