"""Sketching-based matrix factorizations with certified distortion bounds.

The package factors a tall matrix A as ``W @ diag(theta) @ V.T`` where the
left factor is orthonormal in the inner product induced by a random sketch
operator S (``(SW)^T SW = I``), solves the nearest sketch-orthogonal-matrix
problem through the associated randomized polar decomposition, and measures
empirical embedding distortions so that every probabilistic bound can be
checked deterministically over the audited subspace.
"""

from .densekernels import (
    SvdFactors,
    fro_norm,
    householder_qr,
    jacobi_svd,
    numerical_rank,
    polar_factors,
    range_basis,
    spectral_norm,
)
from .errors import (
    GenerationError,
    NumericalError,
    ParseError,
    PreconditionError,
    RankDeficiencyError,
    ShapeError,
    SketchRankWarning,
    UnsupportedFormatError,
)
from .generators import CauchySpec, gen_cauchy, gen_sparse_conditioned
from .matio import read_matrix_market, write_matrix_market
from .nearest import (
    BoundReport,
    NearestSandwich,
    PolarPair,
    bound_reports_to_csv,
    bound_reports_to_jsonl,
    nearest_orthogonal,
    nearest_sandwich_report,
    nearest_sts_orthogonal,
    orthogonality_report,
    sts_polar_of_orthonormal,
)
from .sketchops import (
    CosineAudit,
    EmbeddingCertificate,
    EmbeddingSpec,
    SketchOperator,
    build_sketch,
    empirical_epsilon,
    pairwise_cosine_audit,
    sketch_dim,
)
from .stssvd import (
    SpectrumComparison,
    StsSvdFactors,
    compare_spectra,
    s_fro_norm,
    s_two_norm,
    sketched_qr,
    sts_singular_values,
    sts_svd,
    sts_svd_via_qr,
    truncate,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CauchySpec",
    "CosineAudit",
    "EmbeddingCertificate",
    "EmbeddingSpec",
    "GenerationError",
    "NearestSandwich",
    "NumericalError",
    "ParseError",
    "PolarPair",
    "PreconditionError",
    "RankDeficiencyError",
    "ShapeError",
    "SketchOperator",
    "SketchRankWarning",
    "SpectrumComparison",
    "StsSvdFactors",
    "SvdFactors",
    "UnsupportedFormatError",
    "bound_reports_to_csv",
    "bound_reports_to_jsonl",
    "build_sketch",
    "compare_spectra",
    "empirical_epsilon",
    "fro_norm",
    "gen_cauchy",
    "gen_sparse_conditioned",
    "householder_qr",
    "jacobi_svd",
    "nearest_orthogonal",
    "nearest_sandwich_report",
    "nearest_sts_orthogonal",
    "numerical_rank",
    "orthogonality_report",
    "pairwise_cosine_audit",
    "polar_factors",
    "range_basis",
    "read_matrix_market",
    "s_fro_norm",
    "s_two_norm",
    "sketch_dim",
    "sketched_qr",
    "spectral_norm",
    "sts_polar_of_orthonormal",
    "sts_singular_values",
    "sts_svd",
    "sts_svd_via_qr",
    "truncate",
    "write_matrix_market",
]
