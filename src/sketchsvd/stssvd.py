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

Two routes are provided.  The direct route sketches once, takes a thin QR
of ``S A`` and a Jacobi SVD of the small triangular factor, then recovers
``W = A @ V_r @ diag(theta_r)^-1``; A is touched once for the sketch and
once for the back-product, and sparse input is never densified.  The QR
route orthonormalizes the columns of A against the sketched inner product
(single pass over A) and takes the SVD of its triangular factor.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .densekernels import (
    as_matrix,
    check_finite,
    fro_norm,
    householder_qr,
    jacobi_svd,
    numerical_rank,
    spectral_norm,
)
from .errors import RankDeficiencyError, ShapeError, SketchRankWarning

_EPS = np.finfo(np.float64).eps


@dataclass(frozen=True)
class StsSvdFactors:
    """Factors ``A ~= W @ diag(theta) @ V.T`` with sketch-orthonormal W."""

    W: np.ndarray
    theta: np.ndarray
    V: np.ndarray
    r: int
    op: object = field(repr=False)

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


def _default_rtol(s, n):
    return max(s, n) * _EPS


def sts_singular_values(A, op):
    """All ``min(s, n)`` sketch singular values of A (no truncation, no W).

    Cheap single-pass helper: the only m-sized work is the sketch itself.
    """
    A = as_matrix(A)
    if op.m != A.shape[0]:
        raise ShapeError(f"operator acts on {op.m} rows, A has {A.shape[0]}")
    SA = op.apply(A)
    check_finite(SA, "sketched matrix")
    n = A.shape[1]
    if n == 0:
        return np.zeros(0), np.zeros((0, 0))
    if op.s >= n:
        _, R = householder_qr(SA)
        f = jacobi_svd(R)
    else:
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
    n = A.shape[1]
    if rtol is None:
        rtol = _default_rtol(op.s, n)
    theta_all, V_all = sts_singular_values(A, op)
    r = numerical_rank(theta_all, rtol)
    if r == op.s and op.s < n:
        warnings.warn(
            "all sketch singular values retained with s < n: sketch "
            "dimension may be below rank(A) and the factorization inexact",
            SketchRankWarning,
            stacklevel=2,
        )
    theta = theta_all[:r].copy()
    V = np.ascontiguousarray(V_all[:, :r])
    W = A @ (V / theta) if r else np.zeros((A.shape[0], 0))
    W = np.asarray(W)
    return StsSvdFactors(W=W, theta=theta, V=V, r=r, op=op)


def sketched_qr(A, op, rtol=1e-12):
    """QR factorization orthonormal in the sketch inner product.

    Randomized Gram-Schmidt with one reorthogonalization pass: the sketched
    basis ``S Q`` is maintained explicitly, each new column's coefficients
    are solved against it, and the residual is normalized in the sketch
    norm.  Returns ``(Q, R)`` with ``(SQ)^T (SQ) = I`` (to roundoff) and
    ``A = Q R``.

    Raises
    ------
    RankDeficiencyError
        When a residual column's sketch norm falls at or below
        ``rtol * |a_j|``; the exception names the offending column.
    """
    A = as_matrix(A)
    m, n = A.shape
    if op.m != m:
        raise ShapeError(f"operator acts on {op.m} rows, A has {m}")
    if op.s < n:
        raise ShapeError(f"sketched_qr needs s >= n, got s={op.s}, n={n}")
    SA = op.apply(A)
    check_finite(SA, "sketched matrix")
    cols = A.tocsc() if sp.issparse(A) else A

    Q = np.empty((m, n))
    SQ = np.empty((op.s, n))
    R = np.zeros((n, n))
    for j in range(n):
        if sp.issparse(cols):
            a = cols[:, [j]].toarray().ravel()
        else:
            a = cols[:, j]
        basis = Q[:, :j]
        sbasis = SQ[:, :j]
        coeff = sbasis.T @ SA[:, j]
        v = a - basis @ coeff
        sv = op.apply(v)
        corr = sbasis.T @ sv
        v = v - basis @ corr
        sv = sv - sbasis @ corr
        coeff += corr
        nrm = float(np.linalg.norm(sv))
        if nrm <= rtol * np.linalg.norm(a):
            raise RankDeficiencyError(
                f"column {j} is numerically dependent on the previous ones "
                f"(sketched residual norm {nrm:.3e})",
                column=j,
            )
        Q[:, j] = v / nrm
        SQ[:, j] = sv / nrm
        R[:j, j] = coeff
        R[j, j] = nrm
    return Q, R


def sts_svd_via_qr(A, op, rtol=None):
    """Same factorization as :func:`sts_svd`, through the sketched QR.

    More robust on nearly dependent columns it can still orthonormalize,
    single-pass over A, but generally more expensive; requires A of full
    column rank (rank deficiency raises from :func:`sketched_qr`).
    """
    A = as_matrix(A)
    n = A.shape[1]
    if rtol is None:
        rtol = _default_rtol(op.s, n)
    Q, R = sketched_qr(A, op)
    f = jacobi_svd(R)
    r = numerical_rank(f.sigma, rtol)
    W = Q @ f.U[:, :r]
    return StsSvdFactors(
        W=W,
        theta=f.sigma[:r].copy(),
        V=np.ascontiguousarray(f.V[:, :r]),
        r=r,
        op=op,
    )


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
        r=int(k),
        op=f.op,
    )


def s_fro_norm(X, op):
    """Frobenius norm in the sketch inner product: ``|S X|_F``."""
    return fro_norm(op.apply(X))


def s_two_norm(X, op):
    """Spectral norm in the sketch inner product: ``|S X|_2``."""
    return spectral_norm(op.apply(X))


def compare_spectra(f, reference, cert, slack=1e-10):
    """Check every retained theta against the reference singular values.

    ``flags[k]`` is true iff ``sqrt(1 - eps) * sigma_k - slack <= theta_k
    <= sqrt(1 + eps) * sigma_k + slack`` with ``eps = cert.epsilon_emp``.
    When the certificate was measured over the range of the factored
    matrix, every flag holds deterministically.
    """
    theta = np.asarray(f.theta, dtype=np.float64)
    sigma = np.asarray(
        reference.sigma if hasattr(reference, "sigma") else reference,
        dtype=np.float64,
    )
    if sigma.size < theta.size:
        raise ShapeError(
            f"reference spectrum has {sigma.size} values, need >= {theta.size}"
        )
    sigma = sigma[: theta.size]
    eps = cert.epsilon_emp
    lo = np.sqrt(max(1.0 - eps, 0.0)) * sigma
    hi = np.sqrt(1.0 + eps) * sigma
    flags = (theta >= lo - slack) & (theta <= hi + slack)
    return SpectrumComparison(
        theta=theta, sigma=sigma, epsilon_emp=eps, flags=flags
    )
