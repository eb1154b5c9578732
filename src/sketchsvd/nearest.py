"""Nearest-matrix problems under sketch orthogonality, and the certified
bound checks that relate them to the classical polar decomposition.

Given a full-column-rank A and a sketch operator S, the nearest matrix with
``(SQ)^T (SQ) = I`` in the sketch norms is ``P = W @ V.T`` from the
factorization ``A = W diag(theta) V.T`` (the randomized polar decomposition
``A = P H`` with ``H = V diag(theta) V.T``).  The classical problem's
solution ``T`` comes from the ordinary polar decomposition.  Every bound
this module reports is evaluated at a measured distortion ``epsilon_emp``,
so the pass flags are deterministic over the audited subspace.
"""

from dataclasses import dataclass

import numpy as np

from .densekernels import (
    as_matrix,
    polar_factors,
    range_basis,
    spectral_norm,
    to_dense,
)
from .errors import (
    NumericalError,
    PreconditionError,
    RankDeficiencyError,
)
from .matio import write_csv, write_jsonl
from .sketchops import empirical_epsilon
from .stssvd import sts_svd

PASS_SLACK = 1e-10


@dataclass(frozen=True)
class PolarPair:
    """Polar-style factorization ``X = P @ H``.

    ``mode`` records the orthogonality of P: ``"orthogonal"`` for
    ``P^T P = I`` or ``"s-orthogonal"`` for ``(SP)^T (SP) = I``.  H is
    symmetric positive semidefinite in either mode.
    """

    P: np.ndarray
    H: np.ndarray
    mode: str

    def reconstruct(self):
        return self.P @ self.H


@dataclass(frozen=True)
class BoundReport:
    """One evaluated inequality ``lhs <= rhs`` at a given distortion."""

    bound_id: str
    lhs: float
    rhs: float
    epsilon: float
    passed: bool
    description: str = ""


def _report(bound_id, lhs, rhs, epsilon, description=""):
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


def nearest_sts_orthogonal(A, op, rtol=None):
    """Nearest sketch-orthogonal matrix to A in the sketch norms.

    Returns the pair ``(P, H)`` with ``A = P H``, ``(SP)^T SP = I`` and H
    symmetric PSD.  The residuals satisfy
    ``|A - P|_{S,F}^2 = sum (theta_i - 1)^2`` and
    ``|A - P|_{S,2} = max |theta_i - 1|``.

    Raises
    ------
    RankDeficiencyError
        If A is not full column rank at ``rtol`` (the family of
        sketch-orthogonal candidates spanning Range(A) needs r == n).
    """
    A = as_matrix(A)
    n = A.shape[1]
    f = sts_svd(A, op, rtol=rtol)
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


def sts_polar_of_orthonormal(T, op, floor=-1e-12):
    """Sketch-orthogonal polar factor of an orthonormal matrix T.

    With ``H = ((ST)^T (ST))^(1/2)`` from a symmetric eigendecomposition
    (eigenvalues clipped to zero above ``floor``, error below) the pair
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
    if lam[0] < floor:
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
        reports.append(
            _report(
                "gram_defect_two",
                gram_two,
                factor,
                eps,
                "spectral orthogonality loss of a sketch-orthonormal matrix",
            )
        )
        reports.append(
            _report(
                "gram_defect_fro",
                gram_fro,
                np.sqrt(n) * factor,
                eps,
                "Frobenius orthogonality loss of a sketch-orthonormal matrix",
            )
        )
        Q_P = polar_factors(P).P
        dist = spectral_norm(P - Q_P)
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
                gram_two / (spectral_norm(P) + 1.0),
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


def nearest_sandwich_report(A, op, rtol=None, cert=None):
    """Compare the two nearest-matrix minimizers in the spectral norm.

    Computes the sketch-orthogonal minimizer P and the classical minimizer
    T, and checks ``|A - T| - eps/(1-eps) <= |A - P| <=
    (1+eps)/(1-eps) |A - T| + eps/(1-eps)`` at ``eps = epsilon_emp``.

    When ``cert`` is omitted the distortion is measured over the joint
    column space of A, T, and ``T - Q_T`` (for full-column-rank A this
    equals Range(A), but the union keeps the check honest about every
    subspace the inequality's derivation touches).
    """
    A = as_matrix(A)
    P = nearest_sts_orthogonal(A, op, rtol=rtol).P
    T = nearest_orthogonal(A).P
    Q_T = sts_polar_of_orthonormal(T, op).P
    if cert is None:
        cert = empirical_epsilon(op, range_basis(A, T, T - Q_T))
    eps = cert.epsilon_emp

    Ad = to_dense(A)
    dist_AP = spectral_norm(Ad - P)
    dist_AT = spectral_norm(Ad - T)
    dist_PT = spectral_norm(P - T)
    lower, upper = sandwich_bounds(dist_AP, dist_AT, eps)
    return NearestSandwich(
        dist_sketched=float(dist_AP),
        dist_classical=float(dist_AT),
        dist_between=float(dist_PT),
        epsilon_emp=float(eps),
        lower=lower,
        upper=upper,
    )


_REPORT_FIELDS = ("bound_id", "lhs", "rhs", "epsilon", "pass", "matrix_id", "s", "seed")


def _report_row(rep, matrix_id, s, seed):
    return {
        "bound_id": rep.bound_id,
        "lhs": rep.lhs,
        "rhs": rep.rhs,
        "epsilon": rep.epsilon,
        "pass": rep.passed,
        "matrix_id": matrix_id,
        "s": s,
        "seed": seed,
    }


def bound_reports_to_csv(reports, path_or_file, matrix_id="", s="", seed=""):
    """Write reports as CSV with the documented column set, in the format of
    :func:`sketchsvd.matio.write_csv` (``true``/``false``, LF line ends)."""
    rows = [_report_row(rep, matrix_id, s, seed) for rep in reports]
    write_csv(path_or_file, _REPORT_FIELDS, rows)


def bound_reports_to_jsonl(reports, path_or_file, matrix_id="", s="", seed=""):
    """Write reports as JSON lines mirroring the CSV columns."""
    write_jsonl(path_or_file, [_report_row(rep, matrix_id, s, seed) for rep in reports])
