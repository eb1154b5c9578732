"""Nearest-matrix problems under sketch orthogonality, and the certified
bound checks that relate them to the classical polar decomposition.

Given a full-column-rank A and a sketch operator S, the nearest matrix with
``(SQ)^T (SQ) = I`` in the sketch norms is ``P = W @ V.T = A H_s^-1`` from
the factorization ``A = W diag(theta) V.T`` (the randomized polar
decomposition ``A = P H_s`` with ``H_s = V diag(theta) V.T``).  The
classical problem's solution ``T`` comes from the ordinary polar
decomposition ``A = T H``.
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

Each is an n x n product, formed by SPD solves with H and H_s, where H
is the one :func:`~sketchsvd.densekernels.polar_factors` returns.  That
route loses about ``u * kappa(A D)``, D scaling each column of A to unit
norm, and the explicit route (m x n differences and an apply of S to T)
less.  Measured against a 60-digit reference on rotated input
``U diag(sigma) V^T`` (200 x 8, s = 6n, every sketch kind), the n x n
certificate was at most 1.3e-13 from the one over the exact T at
``kappa(A) = 1e3``, and 4.9e-11 to 6.5e-11 at 1e6 and 2.1e-7 to 8e-7 at
1e10, against 5.5e-13 to 4.8e-12 and 1.3e-8 to 8.1e-8 for the explicit
one.  So the n x n route is taken only where ``kappa(A D) <= 1e3``,
which column-graded input meets at any ``kappa(A)``.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .densekernels import (
    PolarPair,
    as_matrix,
    polar_factors,
    spectral_norm,
    to_dense,
)
from .errors import PreconditionError, RankDeficiencyError
from .sketchops import _certificate, empirical_epsilon
from .stssvd import PASS_SLACK, _retained, sts_singular_values


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

    ``H = V diag(theta) V^T`` and ``P = A H^-1`` come from the retained
    ``(theta, V)`` of the SVD of ``S A``; P is one m x n product of A with
    ``V diag(theta)^-1 V^T``.

    Raises
    ------
    RankDeficiencyError
        If A is not full column rank at the default threshold of
        :func:`~sketchsvd.stssvd.sts_svd`, ``max(s, n) * eps`` relative
        (the family of sketch-orthogonal candidates spanning Range(A)
        needs r == n).

    Warns
    -----
    SketchRankWarning
        As :func:`~sketchsvd.stssvd.sts_svd` does, before the error that
        ``s < n`` always brings.
    """
    A = as_matrix(A)
    n = A.shape[1]
    theta, V = _retained(*sts_singular_values(A, op), op.s, n)
    if theta.size < n:
        raise RankDeficiencyError(
            f"nearest_sts_orthogonal requires full column rank: retained "
            f"rank {theta.size} < {n}"
        )
    P = A @ ((V / theta) @ V.T)
    H = (V * theta) @ V.T
    H = 0.5 * (H + H.T)
    return PolarPair(P=P, H=H)


def nearest_orthogonal(A):
    """Nearest matrix with orthonormal columns to A (both classical norms);
    the orthogonal factor of the polar decomposition."""
    return polar_factors(A)


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

    Built once per A from its classical polar pair ``(T, H)``.  Where
    ``kappa(A D) <= _FACTORED_MAX_KAPPA`` every term comes from n x n
    products of H and H_s; elsewhere from the m x n differences and an
    apply of S to T (see the module docstring).
    """

    def __init__(self, A, polar):
        self.H = polar.H
        # A D and H D have the same Gram matrix, so the same condition
        self.factored = _column_scaled_condition(self.H) <= _FACTORED_MAX_KAPPA
        if self.factored:
            self.chol_H = scipy.linalg.cho_factor(self.H)
            self.dist_AT = spectral_norm(self.H - np.eye(len(self.H)))
        else:
            self.Ad, self.T = to_dense(A), polar.P
            self.dist_AT = spectral_norm(self.Ad - self.T)

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
        return _certificate(sv, sv.size)


def nearest_sandwich_report(A, op, cert=None):
    """Compare the two nearest-matrix minimizers in the spectral norm.

    Computes the sketch-orthogonal minimizer P and the classical minimizer
    T, and checks ``|A - T| - eps/(1-eps) <= |A - P| <=
    (1+eps)/(1-eps) |A - T| + eps/(1-eps)`` at ``eps = epsilon_emp``.

    When ``cert`` is omitted the distortion is measured over Range(T).
    The sketch-orthogonal minimizer exists only for full-column-rank A,
    and then T is an orthonormal basis of Range(A), which also holds
    ``A - T`` and ``T - Q_T`` (``Q_T = nearest_sts_orthogonal(T, op).P``,
    the sketch-orthogonal polar factor of T): every subspace the
    inequality's derivation touches.

    The three distances and the default certificate come from the n x n
    polar factors H and H_s through ``A - T = T (H - I)``,
    ``A - P = T H (I - H_s^-1)``, ``P - T = T (H H_s^-1 - I)`` and
    ``sigma(S T) = sigma(H_s H^-1)``: no second apply of S and no m x n
    norm.  Where ``kappa(A D) > 1e3`` (D scaling A's columns to unit norm)
    that route loses about ``u * kappa(A D)`` (the certificate 5e-11 from
    a 60-digit reference at 1e6, against 5e-12 for the explicit route), so
    the terms come from the m x n matrices and
    :func:`~sketchsvd.sketchops.empirical_epsilon` instead.  A is factored
    once, by :func:`nearest_orthogonal`.
    """
    A = as_matrix(A)
    pair = nearest_sts_orthogonal(A, op)
    terms = _SandwichTerms(A, nearest_orthogonal(A))
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
