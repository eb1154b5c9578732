"""Nearest-matrix problems under sketch orthogonality, and the certified
bound checks that relate them to the classical polar decomposition.

Given a full-column-rank A and a sketch operator S, the nearest matrix with
``(SQ)^T (SQ) = I`` in the sketch norms is ``P = W @ V.T = A H_s^-1`` from
the factorization ``A = W diag(theta) V.T`` (the randomized polar
decomposition ``A = P H_s`` with ``H_s = V diag(theta) V.T``).  The
classical problem's solution ``T`` comes from the ordinary polar
decomposition ``A = T H``.  Every bound this module reports is evaluated
at a measured distortion ``epsilon_emp``, so the pass flags are
deterministic over the audited subspace.

The sandwich's distances and its certificate over Range(A) need no m-sized
work beyond the sketch ``S A``, and P itself is not formed.  Since
``P = A H_s^-1`` and T has orthonormal columns,

* ``|A - T| = |H - I|``, ``|A - P| = |H (I - H_s^-1)|`` and
  ``|P - T| = |H H_s^-1 - I|`` in the spectral norm;
* ``sigma(S T) = sigma(S A H^-1) = sigma(H_s H^-1)``, because
  ``S A = Q H_s`` for a Q with orthonormal columns when the retained rank
  is n (which :func:`nearest_sts_orthogonal` enforces).

Each is an n x n product, formed by SPD solves with H and H_s.  A and
the R of its thin QR share H, so H comes from the
:func:`~sketchsvd.densekernels.jacobi_svd` of the R that
:func:`~sketchsvd.densekernels.householder_qr` computes over row blocks
of A; no dense copy of A, no Q and no P is formed.  The distances lose
about ``u * kappa(A)``, as the m x n differences do, since both inherit it
from the SVD of ``S A``; the certificate loses about ``u * kappa(A D)``,
D scaling each column of A to unit norm, and one over an orthonormal
basis of Range(A) less.  So where ``kappa(A D) > 1e3`` the certificate
takes the explicit route, :func:`~sketchsvd.sketchops.empirical_epsilon`
over ``range_basis(A, rtol=0.0)``: ``sigma(S Q W) = sigma(S Q)`` for any
orthogonal W, so any orthonormal basis of Range(A) gives T's
certificate, and ``rtol=0.0`` keeps all n directions, as T does.
README.md gives the errors measured against a 60-digit reference.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import densekernels
from .densekernels import (
    PolarPair,
    _column_norms,
    _symmetric_factor,
    as_matrix,
    householder_qr,
    jacobi_svd,
    range_basis,
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


def _report(bound_id, lhs, rhs, epsilon):
    return BoundReport(bound_id=bound_id, lhs=float(lhs), rhs=float(rhs),
                       epsilon=float(epsilon), passed=bool(lhs <= rhs + PASS_SLACK))


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


@dataclass(frozen=True)
class _SketchedPolar:
    """The n x n part of the sketched polar decomposition ``A = P H_s``:
    the retained ``(theta, V)`` of the SVD of ``S A`` and
    ``H = H_s = V diag(theta) V^T``."""

    theta: np.ndarray
    V: np.ndarray
    H: np.ndarray

    def P(self, A):
        """The m x n factor ``P = A H_s^-1``, one product of A with
        ``V diag(theta)^-1 V^T``."""
        return A @ ((self.V / self.theta) @ self.V.T)


def _sketched_polar(A, op):
    """:class:`_SketchedPolar` of A, with no m x n work beyond ``S A``.

    Raises and warns as :func:`nearest_sts_orthogonal` does.  The warning
    names the line that called this function's caller, so that it points
    past the public entries (:func:`nearest_sts_orthogonal`,
    :func:`nearest_sandwich_report`) into the user's code.
    """
    n = A.shape[1]
    theta, V = _retained(*sts_singular_values(A, op), op.s, n, stacklevel=4)
    if theta.size < n:
        raise RankDeficiencyError(
            f"nearest_sts_orthogonal requires full column rank: retained "
            f"rank {theta.size} < {n}"
        )
    return _SketchedPolar(theta=theta, V=V, H=_symmetric_factor(V, theta))


def nearest_sts_orthogonal(A, op):
    """Nearest sketch-orthogonal matrix to A in the sketch norms.

    Returns the pair ``(P, H)`` with ``A = P H``, ``(SP)^T SP = I`` and H
    symmetric PSD.  The residuals satisfy
    ``|A - P|_{S,F}^2 = sum (theta_i - 1)^2`` and
    ``|A - P|_{S,2} = max |theta_i - 1|``.

    ``H = V diag(theta) V^T`` and ``P = A H^-1`` come from the retained
    ``(theta, V)`` of the SVD of ``S A``; P is one m x n product of A with
    ``V diag(theta)^-1 V^T``, and the only m x n array formed.

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
    sketched = _sketched_polar(A, op)
    return PolarPair(P=sketched.P(A), H=sketched.H)


def nearest_orthogonal(A):
    """Nearest matrix with orthonormal columns to A (both classical norms);
    the orthogonal factor of the polar decomposition."""
    return densekernels.polar_factors(A)


def _loss_factor(eps):
    return eps / (1.0 - eps) if eps < 1.0 else np.inf


def loss_bounds(gram_two, gram_fro, n, eps):
    """The orthogonality loss of an n-column sketch-orthonormal matrix,
    ``|P^T P - I|`` in the spectral (``gram_two``) and Frobenius
    (``gram_fro``) norms, against ``eps/(1-eps)`` and
    ``sqrt(n) * eps/(1-eps)``, as the ``(two, fro)`` pair of
    :class:`BoundReport`."""
    factor = _loss_factor(eps)
    return (_report("gram_defect_two", gram_two, factor, eps),
            _report("gram_defect_fro", gram_fro, np.sqrt(n) * factor, eps))


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
    # both Gram defects are symmetric: the spectral norm is max |eig|
    gram = P.T @ P - np.eye(n)
    lam = np.linalg.eigvalsh(gram)
    gram_two = np.abs(lam).max(initial=0.0)
    gram_fro = np.linalg.norm(gram)
    SP = op.apply(P)
    sgram = SP.T @ SP - np.eye(n)
    sgram_two = np.abs(np.linalg.eigvalsh(sgram)).max(initial=0.0)
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
        reports.extend(loss_bounds(gram_two, gram_fro, n, eps))
        # |P - polar factor|_2 = max|sigma_i(P) - 1|, sigma^2 = 1 + eig(gram)
        sigma = np.sqrt(1.0 + lam)
        dist = np.abs(sigma - 1.0).max(initial=0.0)
        reports.append(_report("dist_to_orthonormal_upper", dist, _loss_factor(eps), eps))
        reports.append(_report("dist_to_orthonormal_lower",
                               gram_two / (sigma.max(initial=0.0) + 1.0), dist, eps))
    if is_orthonormal:
        reports.append(_report("sketched_gram_defect_two", sgram_two, eps, eps))
        reports.append(_report("sketched_gram_defect_fro", sgram_fro, eps * np.sqrt(n), eps))
    return reports


def sandwich_bounds(dist_AP, dist_AT, eps):
    """The two sides of ``|A - T| - eps/(1-eps) <= |A - P| <=
    (1+eps)/(1-eps) |A - T| + eps/(1-eps)`` for the spectral distances of A
    to its sketch-orthogonal (P) and orthogonal (T) minimizers, as the
    ``(lower, upper)`` pair of :class:`BoundReport`."""
    factor = _loss_factor(eps)
    blowup = (1.0 + eps) / (1.0 - eps) if eps < 1.0 else np.inf
    return (_report("nearest_sandwich_lower", dist_AT - factor, dist_AP, eps),
            _report("nearest_sandwich_upper", dist_AP, blowup * dist_AT + factor, eps))


# Largest kappa(A D) at which the certificate comes from n x n factors
# (README.md gives the measured error at each condition).
_FACTORED_MAX_KAPPA = 1e3


def _column_scaled_condition(R):
    """``kappa(R D)``, D scaling each column of R to unit norm; infinite for
    a zero column or none at all."""
    norms = _column_norms(R)
    return np.linalg.cond(R / norms) if norms.size and norms.all() else np.inf


class _SandwichTerms:
    """The sandwich of one A and its orthogonal polar factor T against any
    number of sketched polar decompositions ``A = P H_s``, each given as
    its n x n part (:class:`_SketchedPolar`); :meth:`report` is the one
    place that evaluates it.

    Built once per A from the H of its classical polar decomposition
    ``A = T H``, taken from the row-blocked R of
    :func:`~sketchsvd.densekernels.householder_qr`; neither T nor P is
    formed.  The distances come from n x n products of H and H_s, and so
    does the certificate where ``kappa(A D) <= _FACTORED_MAX_KAPPA``;
    elsewhere it is measured over ``range_basis(A, rtol=0.0)`` (see the
    module docstring).
    """

    def __init__(self, A):
        f = jacobi_svd(householder_qr(A))
        self.H = _symmetric_factor(f.V, f.sigma)
        self.dist_AT = spectral_norm(self.H - np.eye(len(self.H)))
        # A D and H D have the same Gram matrix, so the same condition
        self.factored = _column_scaled_condition(self.H) <= _FACTORED_MAX_KAPPA
        if self.factored:
            self.chol_H = scipy.linalg.cho_factor(self.H)
        else:
            self.basis = range_basis(A, rtol=0.0)

    def certificate(self, op, sketched):
        """The distortion of ``op`` over Range(A), which is Range(T)."""
        if not self.factored:
            return empirical_epsilon(op, self.basis)
        # sigma(S T) = sigma(H_s H^-1) = sigma(H^-1 H_s)
        sv = np.linalg.svd(scipy.linalg.cho_solve(self.chol_H, sketched.H),
                           compute_uv=False)
        return _certificate(sv, sv.size)

    def report(self, op, sketched, cert=None):
        """The :class:`NearestSandwich` of the sketched polar decomposition
        ``A = P H_s``, evaluated at ``cert`` (by default at
        :meth:`certificate`)."""
        if cert is None:
            cert = self.certificate(op, sketched)
        # H H_s^-1 is the transpose of H_s^-1 H: both factors are symmetric
        HHs = scipy.linalg.solve(sketched.H, self.H, assume_a="pos").T
        dist_AP = spectral_norm(self.H - HHs)
        dist_PT = spectral_norm(HHs - np.eye(len(HHs)))
        eps = cert.epsilon_emp
        return NearestSandwich(float(dist_AP), float(self.dist_AT), float(dist_PT),
                               float(eps), *sandwich_bounds(dist_AP, self.dist_AT, eps))


def nearest_sandwich_report(A, op, cert=None):
    """Compare the two nearest-matrix minimizers in the spectral norm.

    Evaluates ``|A - T| - eps/(1-eps) <= |A - P| <=
    (1+eps)/(1-eps) |A - T| + eps/(1-eps)`` for the sketch-orthogonal
    minimizer P and the classical minimizer T at ``eps = epsilon_emp``.

    When ``cert`` is omitted the distortion is measured over Range(A).
    The sketch-orthogonal minimizer exists only for full-column-rank A,
    and then Range(A) = Range(T), which also holds ``A - T`` and
    ``T - Q_T`` (``Q_T = nearest_sts_orthogonal(T, op).P``, the
    sketch-orthogonal polar factor of T): every subspace the
    inequality's derivation touches.  The module docstring gives how the
    distances and that certificate are computed; neither T nor P is formed.
    """
    A = as_matrix(A)
    sketched = _sketched_polar(A, op)
    return _SandwichTerms(A).report(op, sketched, cert)
