"""Benchmark matrix generators.

``gen_cauchy`` produces the numerically low-rank Cauchy matrix used for
rank-detection experiments; ``gen_sparse_conditioned`` emulates a random
sparse matrix with a target condition number through a geometric column
scaling (the emulation is approximate by design: its purpose is a matrix
of the right density and conditioning, not an exact clone of any
particular generator).
"""

import numpy as np
import scipy.sparse as sp

from .errors import GenerationError


def gen_cauchy(n):
    """Dense (n, n) Cauchy matrix ``C[i, j] = 1 / (x_i + y_j)`` on the
    equispaced grids ``x`` over [2, 100] and ``y`` over [-1000, -500]
    (endpoints included), so every ``x_i + y_j`` is at most -400."""
    if n < 2:
        raise GenerationError(f"need n >= 2, got {n}")
    x = np.linspace(2.0, 100.0, n)
    y = np.linspace(-1000.0, -500.0, n)
    return 1.0 / (x[:, None] + y[None, :])


def gen_sparse_conditioned(m, n, density, kappa, seed):
    """Random sparse (m, n) CSR matrix with condition number near ``kappa``.

    A uniform random sparse pattern at the requested density (values in
    (0, 1)) is scaled columnwise by the geometric ladder
    ``kappa**(-j/(n-1))``.  Columns left empty by the pattern draw get one
    safety entry so the matrix has full structural column rank.  The
    achieved condition number is within a modest factor of the target
    (verified at desk scale by the test suite).
    """
    if m < 1 or n < 1:
        raise GenerationError(f"need m >= 1 and n >= 1, got m={m}, n={n}")
    if not 0.0 < density <= 1.0:
        raise GenerationError(f"density must be in (0, 1], got {density}")
    if not 1.0 <= kappa < np.inf:
        raise GenerationError(f"kappa must be finite and >= 1, got {kappa}")
    rng = np.random.default_rng(seed)
    A = sp.random_array(
        (m, n), density=density, format="csc", rng=rng, data_sampler=rng.random
    )
    counts = np.diff(A.indptr)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        rows = rng.integers(0, m, size=empty.size)
        fill = sp.csc_array(
            (rng.random(empty.size), (rows, empty)), shape=(m, n)
        )
        A = A + fill
    if n > 1:
        ladder = np.power(kappa, -np.arange(n) / (n - 1))
        A = A @ sp.diags_array(ladder)
    return sp.csr_matrix(A)
