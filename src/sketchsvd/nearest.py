"""Nearest-matrix problems under sketch orthogonality, and the certified
bound checks that relate them to the classical polar decomposition.

Given a full-column-rank A and a sketch operator S, the nearest matrix with
``(SQ)^T (SQ) = I`` in the sketch norms is ``P = W @ V.T`` from the
factorization ``A = W diag(theta) V.T`` (the randomized polar decomposition
``A = P H_s`` with ``H_s = V diag(theta) V.T``).  The classical problem's
solution ``T`` comes from the ordinary polar decomposition ``A = T H``.
Every bound this module reports is evaluated at a measured distortion
``epsilon_emp``, so the pass flags are deterministic over the audited
subspace.

The sandwich's distances and its certificate over Range(A) need no m-sized
work beyond the factorization itself.  Since ``P = A H_s^-1`` and T has
orthonormal columns,

* ``|A - T| = |H - I|``, ``|A - P| = |H (I - H_s^-1)|`` and
  ``|P - T| = |H H_s^-1 - I|`` in the spectral norm;
* ``sigma(S T) = sigma(S A H^-1) = sigma(H_s H^-1)``, because
  ``S A = Q H_s`` for a Q with orthonormal columns when the retained rank
  is n (which :func:`nearest_sts_orthogonal` enforces).

Each is an n x n product, formed by SPD solves with H and H_s.  H comes
from the R factor of A's Householder QR (A and R share H, their column
norms and ``kappa(A D)``, D scaling each column to unit norm) by the
one-sided Jacobi SVD, whose relative accuracy on column-scaled matrices it
needs.  Against the explicit route (m x n differences and an apply of S to
T), measured on 2000 x 50 with every sketch kind, the largest relative
difference was 6e-15 on column-graded sparse input at ``kappa(A) = 1e10``
and 3e-13 on column-graded gaussian input, where the explicit route is the
less accurate one (its T, from the SVD of A, is 4e-12 away from the
Jacobi one).  On rotated input ``U diag(sigma) V^T`` it grows as
``u * kappa(A D)``: 1.4e-13 at 1e3, 1e-12 at 1e4 and 5e-9 at 1e8.  So the
n x n route is taken only where ``kappa(A D) <= 1e3``; otherwise the
explicit route is the accurate one.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .densekernels import (
    PolarPair,
    as_matrix,
    householder_qr,
    jacobi_svd,
    polar_factors,
    spectral_norm,
    to_dense,
)
from .errors import (
    NumericalError,
    PreconditionError,
    RankDeficiencyError,
)
from .sketchops import EmbeddingCertificate, empirical_epsilon
from .stssvd import PASS_SLACK, sts_svd


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality ``lhs <= rhs`` at a given distortion."""

    bound_id: str
    lhs: float
    rhs: float
    epsilon: float
    passed: bool
    description: str


def _report(bound_id, lhs, rhs, epsilon, description):
    return BoundReport(
        bound_id=bound_id,
        lhs=float(lhs),
        rhs=float(rhs),
        epsilon=float(epsilon),
        passed=bool(lhs <= rhs + PASS_SLACK),
        description=description,
    )


@dataclass(frozen=True)
class NearestSandwich:
    """Distances of the sketch-orthogonal and orthogonal minimizers, with
    the two-sided comparison bound evaluated at ``epsilon_emp``."""

    dist_sketched: float
    dist_classical: float
    dist_between: float
    epsilon_emp: float
    lower: BoundReport
    upper: BoundReport

    @property
    def passed(self):
        return self.lower.passed and self.upper.passed


def nearest_sts_orthogonal(A, op):
    """Nearest sketch-orthogonal matrix to A in the sketch norms.

    Returns the pair ``(P, H)`` with ``A = P H``, ``(SP)^T SP = I`` and H
    symmetric PSD.  The residuals satisfy
    ``|A - P|_{S,F}^2 = sum (theta_i - 1)^2`` and
    ``|A - P|_{S,2} = max |theta_i - 1|``.

    Raises
    ------
    RankDeficiencyError
        If A is not full column rank at :func:`sts_svd`'s default
        threshold (the family of sketch-orthogonal candidates spanning
        Range(A) needs r == n).
    """
    A = as_matrix(A)
    n = A.shape[1]
    f = sts_svd(A, op)
    if f.r < n:
        raise RankDeficiencyError(
            f"nearest_sts_orthogonal requires full column rank: retained "
            f"rank {f.r} < {n}"
        )
    P = f.W @ f.V.T
    H = (f.V * f.theta) @ f.V.T
    H = 0.5 * (H + H.T)
    return PolarPair(P=P, H=H, mode="s-orthogonal")


def nearest_orthogonal(A):
    """Nearest matrix with orthonormal columns to A (both classical norms);
    the orthogonal factor of the polar decomposition."""
    return polar_factors(A)


def sts_polar_of_orthonormal(T, op):
    """Sketch-orthogonal polar factor of an orthonormal matrix T.

    With ``H = ((ST)^T (ST))^(1/2)`` from a symmetric eigendecomposition
    (eigenvalues clipped to zero above -1e-12, error below) the pair
    satisfies ``T = Q_T @ H`` and ``(S Q_T)^T (S Q_T) = I``.
    """
    T = np.asarray(T, dtype=np.float64)
    n = T.shape[1]
    defect = np.linalg.norm(T.T @ T - np.eye(n), 2)
    if defect > 1e-10:
        raise PreconditionError(
            f"input is not orthonormal: ||T^T T - I||_2 = {defect:.3e}"
        )
    ST = op.apply(T)
    M = ST.T @ ST
    M = 0.5 * (M + M.T)
    lam, E = np.linalg.eigh(M)
    if lam[0] < -1e-12:
        raise NumericalError(
            f"sketched Gram matrix is indefinite (min eigenvalue {lam[0]:.3e})"
        )
    lam = np.clip(lam, 0.0, None)
    if lam[0] <= 1e-24:
        raise NumericalError(
            "sketched Gram matrix is numerically singular: the sketch does "
            "not embed Range(T) (distortion >= 1)"
        )
    root = np.sqrt(lam)
    H = (E * root) @ E.T
    H = 0.5 * (H + H.T)
    Q_T = T @ ((E / root) @ E.T)
    return PolarPair(P=Q_T, H=H, mode="s-orthogonal")


def _loss_factor(eps):
    return eps / (1.0 - eps) if eps < 1.0 else np.inf


def loss_bounds(gram_two, gram_fro, n, eps):
    """The orthogonality loss of an n-column sketch-orthonormal matrix,
    ``|P^T P - I|`` in the spectral (``gram_two``) and Frobenius
    (``gram_fro``) norms, against ``eps/(1-eps)`` and
    ``sqrt(n) * eps/(1-eps)``, as the ``(two, fro)`` pair of
    :class:`BoundReport`."""
    factor = _loss_factor(eps)
    two = _report(
        "gram_defect_two",
        gram_two,
        factor,
        eps,
        "spectral orthogonality loss of a sketch-orthonormal matrix",
    )
    fro = _report(
        "gram_defect_fro",
        gram_fro,
        np.sqrt(n) * factor,
        eps,
        "Frobenius orthogonality loss of a sketch-orthonormal matrix",
    )
    return two, fro


def orthogonality_report(P, op, cert):
    """Evaluate the applicable orthogonality-defect bounds for P.

    P is classified as orthonormal, sketch-orthonormal, or both (within
    1e-6).  For a sketch-orthonormal P the ordinary Gram defect is bounded
    by ``eps/(1-eps)`` (spectral) and ``sqrt(n) * eps/(1-eps)``
    (Frobenius), and the distance to the nearest orthonormal matrix is
    bracketed between the normalized Gram defect and ``eps/(1-eps)``.
    For an orthonormal P the sketched Gram defect is bounded by ``eps``
    and ``eps * sqrt(n)``.  All bounds use ``cert.epsilon_emp``, which must
    be measured over Range(P) for deterministic passes.

    Returns a list of :class:`BoundReport`.
    """
    P = to_dense(as_matrix(P))
    n = P.shape[1]
    eps = cert.epsilon_emp
    gram = P.T @ P - np.eye(n)
    gram_two = np.linalg.norm(gram, 2)
    gram_fro = np.linalg.norm(gram)
    SP = op.apply(P)
    sgram = SP.T @ SP - np.eye(n)
    sgram_two = np.linalg.norm(sgram, 2)
    sgram_fro = np.linalg.norm(sgram)

    is_orthonormal = gram_two <= 1e-6
    is_s_orthonormal = sgram_two <= 1e-6
    if not (is_orthonormal or is_s_orthonormal):
        raise PreconditionError(
            "matrix is neither orthonormal nor sketch-orthonormal: "
            f"||P^T P - I||_2 = {gram_two:.3e}, "
            f"||(SP)^T SP - I||_2 = {sgram_two:.3e}"
        )

    reports = []
    if is_s_orthonormal:
        factor = _loss_factor(eps)
        reports.extend(loss_bounds(gram_two, gram_fro, n, eps))
        # |P - polar factor|_2 = max|sigma_i(P) - 1|, sigma^2 = 1 + eig(gram)
        sigma = np.sqrt(1.0 + np.linalg.eigvalsh(gram))
        dist = np.abs(sigma - 1.0).max(initial=0.0)
        reports.append(
            _report(
                "dist_to_orthonormal_upper",
                dist,
                factor,
                eps,
                "distance to the nearest orthonormal matrix vs distortion",
            )
        )
        reports.append(
            _report(
                "dist_to_orthonormal_lower",
                gram_two / (sigma.max(initial=0.0) + 1.0),
                dist,
                eps,
                "normalized Gram defect lower-bounds the distance to the "
                "nearest orthonormal matrix",
            )
        )
    if is_orthonormal:
        reports.append(
            _report(
                "sketched_gram_defect_two",
                sgram_two,
                eps,
                eps,
                "spectral sketched-orthogonality loss of an orthonormal matrix",
            )
        )
        reports.append(
            _report(
                "sketched_gram_defect_fro",
                sgram_fro,
                eps * np.sqrt(n),
                eps,
                "Frobenius sketched-orthogonality loss of an orthonormal matrix",
            )
        )
    return reports


def sandwich_bounds(dist_AP, dist_AT, eps):
    """The two sides of ``|A - T| - eps/(1-eps) <= |A - P| <=
    (1+eps)/(1-eps) |A - T| + eps/(1-eps)`` for the spectral distances of A
    to its sketch-orthogonal (P) and orthogonal (T) minimizers, as the
    ``(lower, upper)`` pair of :class:`BoundReport`."""
    factor = _loss_factor(eps)
    blowup = (1.0 + eps) / (1.0 - eps) if eps < 1.0 else np.inf
    lower = _report(
        "nearest_sandwich_lower",
        dist_AT - factor,
        dist_AP,
        eps,
        "classical optimum minus the distortion penalty bounds the "
        "sketched optimum from below",
    )
    upper = _report(
        "nearest_sandwich_upper",
        dist_AP,
        blowup * dist_AT + factor,
        eps,
        "sketched optimum is within a distortion factor of the classical one",
    )
    return lower, upper


# Largest kappa(A D) at which the sandwich's terms come from n x n factors
# (the module docstring gives the measured error at each condition).
_FACTORED_MAX_KAPPA = 1e3


def _column_scaled_condition(R):
    """``kappa(R D)``, D scaling each column of R to unit norm; infinite for
    a zero column or none at all."""
    norms = np.linalg.norm(R, axis=0)
    if R.shape[1] == 0 or not norms.all():
        return np.inf
    sv = np.linalg.svd(R / norms, compute_uv=False)
    return sv[0] / sv[-1] if sv[-1] > 0.0 else np.inf


class _SandwichTerms:
    """The sandwich's distances and its certificate over Range(A) for one A
    and its orthogonal polar factor T, against any number of sketched
    pairs ``A = P H_s``.

    Built once per A from the R factor of A's Householder QR, which gives
    ``kappa(A D)`` and H.  Where ``kappa(A D) <= _FACTORED_MAX_KAPPA`` every
    term comes from n x n products of H and H_s; elsewhere from the m x n
    differences and an apply of S to T (see the module docstring).  H is
    not taken from :func:`~sketchsvd.densekernels.polar_factors`: its SVD
    of A put H 1e-12 relative off on column-graded gaussian input at
    ``kappa(A) = 1e10``, and the certificate inherited that error.
    """

    def __init__(self, A, T):
        Ad = to_dense(A)
        R = householder_qr(Ad)
        self.factored = _column_scaled_condition(R) <= _FACTORED_MAX_KAPPA
        if self.factored:
            f = jacobi_svd(R)
            H = (f.V * f.sigma) @ f.V.T
            self.H = 0.5 * (H + H.T)
            self.chol_H = scipy.linalg.cho_factor(self.H)
            self.dist_AT = spectral_norm(self.H - np.eye(len(self.H)))
        else:
            self.Ad, self.T = Ad, T
            self.dist_AT = spectral_norm(Ad - T)

    def distances(self, pair):
        """``(|A - P|_2, |P - T|_2)`` for the sketched pair ``(P, H_s)``."""
        if not self.factored:
            return spectral_norm(self.Ad - pair.P), spectral_norm(pair.P - self.T)
        # H H_s^-1 is the transpose of H_s^-1 H: both factors are symmetric
        HHs = scipy.linalg.solve(pair.H, self.H, assume_a="pos").T
        return spectral_norm(self.H - HHs), spectral_norm(HHs - np.eye(len(HHs)))

    def certificate(self, op, pair):
        """The distortion of ``op`` over Range(A), which is Range(T)."""
        if not self.factored:
            return empirical_epsilon(op, self.T)
        # sigma(S T) = sigma(H_s H^-1) = sigma(H^-1 H_s)
        sv = np.linalg.svd(scipy.linalg.cho_solve(self.chol_H, pair.H),
                           compute_uv=False)
        smax, smin = float(sv[0]), float(sv[-1])
        return EmbeddingCertificate(
            epsilon_emp=max(smax**2 - 1.0, 1.0 - smin**2, 0.0),
            subspace_dim=sv.size,
            sigma_min_sketched=smin,
            sigma_max_sketched=smax,
        )


def nearest_sandwich_report(A, op, cert=None):
    """Compare the two nearest-matrix minimizers in the spectral norm.

    Computes the sketch-orthogonal minimizer P and the classical minimizer
    T, and checks ``|A - T| - eps/(1-eps) <= |A - P| <=
    (1+eps)/(1-eps) |A - T| + eps/(1-eps)`` at ``eps = epsilon_emp``.

    When ``cert`` is omitted the distortion is measured over Range(T).
    The sketch-orthogonal minimizer exists only for full-column-rank A,
    and then T is an orthonormal basis of Range(A), which also holds
    ``A - T`` and ``T - Q_T`` (``Q_T`` the sketch-orthogonal polar factor
    of T): every subspace the inequality's derivation touches.

    The three distances and the default certificate come from the n x n
    polar factors H and H_s through ``A - T = T (H - I)``,
    ``A - P = T H (I - H_s^-1)``, ``P - T = T (H H_s^-1 - I)`` and
    ``sigma(S T) = sigma(H_s H^-1)``: no second apply of S and no m x n
    norm.  Where ``kappa(A D) > 1e3`` (D scaling A's columns to unit norm)
    that route loses about ``u * kappa(A D)`` (5e-9 relative measured at
    1e8), so the terms come from the m x n matrices and
    :func:`~sketchsvd.sketchops.empirical_epsilon` instead.
    """
    A = as_matrix(A)
    pair = nearest_sts_orthogonal(A, op)
    terms = _SandwichTerms(A, nearest_orthogonal(A).P)
    if cert is None:
        cert = terms.certificate(op, pair)
    eps = cert.epsilon_emp
    dist_AP, dist_PT = terms.distances(pair)
    dist_AT = terms.dist_AT
    lower, upper = sandwich_bounds(dist_AP, dist_AT, eps)
    return NearestSandwich(
        dist_sketched=float(dist_AP),
        dist_classical=float(dist_AT),
        dist_between=float(dist_PT),
        epsilon_emp=float(eps),
        lower=lower,
        upper=upper,
    )
