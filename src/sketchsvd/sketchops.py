"""Construction, application, and auditing of oblivious subspace-embedding
operators.

Three operator families are supported, identified by their ``kind`` tag:

* ``"gaussian"``     -- dense i.i.d. normal entries scaled by ``1/sqrt(s)``
  so that ``E |S v|^2 = |v|^2``;
* ``"srtt"``         -- subsampled randomized trigonometric transform
  ``sqrt(m/s) * D F E``: a Rademacher sign diagonal ``E``, the orthonormal
  type-II discrete cosine transform ``F`` (any length, O(m log m) via
  ``scipy.fft``), and ``s`` rows sampled uniformly without replacement
  (``D``); at ``s == m`` the operator is exactly orthogonal;
* ``"sparse-sign"``  -- per input coordinate, ``zeta = min(8, s)`` distinct
  output rows receive ``+-1/sqrt(zeta)``.

All randomness is drawn at construction time, so equal
``(kind, s, m, seed)`` tuples reproduce bitwise-identical operators.  The
srtt and sparse-sign factors come from one ``numpy`` PCG64 generator seeded
with the operator's 64-bit ``seed``.  A gaussian table is cut into 8 fixed
row blocks, and block ``i`` holds float32 normals drawn from an SFC64
generator seeded with child ``i`` of ``numpy.random.SeedSequence(seed)``;
large tables fill their blocks on parallel threads, and since the block
count is a constant, the table does not depend on how many threads or
cores there are.  The float32 table is half the memory of float64, and
the operator applies it in float64: rows are cast to float64 in bounded
blocks before they multiply the input (sparse input on the draw's blocks
and threads, dense input on the calling thread, whose BLAS threads its
own products).  Every certificate here (``empirical_epsilon`` and the
bounds evaluated at it) measures the stored operator, so it is exact for
the table as stored; :meth:`SketchOperator.materialize` returns that
table in float64.
Operators are immutable after construction and safe to share across
threads.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse as sp

from .densekernels import as_matrix
from .errors import PreconditionError, ShapeError

KINDS = ("gaussian", "srtt", "sparse-sign")

SPARSE_SIGN_NNZ_PER_COLUMN = 8

# Column block size used when an SRTT operator is applied to sparse input
# (the trigonometric transform is inherently dense, so columns are densified
# in bounded batches).
_SRTT_BLOCK = 64

# Float64 rows held at once, shared among the threads, while a gaussian
# table is applied to sparse input: each of w threads casts chunks of
# _GAUSSIAN_ROWS // w rows, so this memory does not grow with the core
# count.
_GAUSSIAN_ROWS = 32

# A gaussian table is drawn as this many row blocks, each from its own
# seeded stream (numpy's parallel-generation scheme), so that the blocks
# can be filled on parallel threads.  Changing it changes every table.
_GAUSSIAN_STREAMS = 8

# Tables with fewer entries are filled, and applied to sparse input, on the
# calling thread.
# Starting a thread pool costs about 1 ms; measured on 2 cores, the pool
# fills 2**18 entries in 5.7 ms, as one thread does, and 2**19 entries in
# 9.1 ms against 10.7 ms.
_PARALLEL_MIN_ENTRIES = 1 << 19


@dataclass(frozen=True)
class EmbeddingSpec:
    """Problem statement for picking a sketch dimension: embed any fixed
    ``k``-dimensional subspace of R^m with distortion ``epsilon`` and
    failure probability ``delta``."""

    epsilon: float
    delta: float
    k: int
    m: int
    kind: str = "gaussian"

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not 1 <= self.k <= self.m:
            raise ValueError(f"need 1 <= k <= m, got k={self.k}, m={self.m}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown sketch kind {self.kind!r}")


@dataclass(frozen=True)
class EmbeddingCertificate:
    """Measured distortion of an operator over one audited subspace.

    ``epsilon_emp`` is the tightest ``eps`` such that
    ``(1 - eps) |v|^2 <= |S v|^2 <= (1 + eps) |v|^2`` holds for *every*
    vector ``v`` in the subspace; it is computed from the extreme singular
    values of the sketched orthonormal basis, so bounds evaluated at
    ``epsilon_emp`` hold deterministically on that subspace.
    """

    epsilon_emp: float
    subspace_dim: int
    sigma_min_sketched: float
    sigma_max_sketched: float


@dataclass(frozen=True)
class CosineAudit:
    """Worst pairwise column angle of a sketch-orthonormal matrix, with the
    distortion-based bound it is checked against."""

    max_abs_cosine: float
    epsilon_emp: float
    within_bound: bool


def sketch_dim(spec, c=1.0):
    """Sketch dimension for ``spec``, clamped to ``[k, m]``.

    Gaussian operators use ``ceil(eps^-2 * ln(1/delta) * ln(max(k, 2)))``;
    srtt and sparse-sign use ``max(2k, ceil(c * eps^-2 * k))``.  The
    constant ``c`` is exposed because the practical rule for trigonometric
    sketches diverges as delta -> 0; the default c=1 reflects common usage.
    """
    if spec.kind == "gaussian":
        target = math.ceil(
            spec.epsilon**-2 * math.log(1.0 / spec.delta) * math.log(max(spec.k, 2))
        )
    else:
        target = max(2 * spec.k, math.ceil(c * spec.epsilon**-2 * spec.k))
    return min(spec.m, max(spec.k, target))


def _distinct_rows(rng, n_cols, n_rows, zeta):
    """(n_cols, zeta) row indices, distinct within each column's draw.

    Rejection resampling is fast when ``n_rows >> zeta``; otherwise random
    keys are sorted (memory n_cols * n_rows, only reached for small
    sketches where that is negligible).
    """
    if n_rows < 4 * zeta:
        keys = rng.random((n_cols, n_rows))
        return np.argsort(keys, axis=1)[:, :zeta]
    R = rng.integers(0, n_rows, size=(n_cols, zeta))
    while True:
        Rs = np.sort(R, axis=1)
        bad = (np.diff(Rs, axis=1) == 0).any(axis=1)
        if not bad.any():
            return R
        R[bad] = rng.integers(0, n_rows, size=(int(bad.sum()), zeta))


def _stream_blocks(s):
    """``(i, r0, r1)`` for each nonempty row block of the
    ``_GAUSSIAN_STREAMS`` blocks of a table with ``s`` rows."""
    # the same boundaries as np.linspace(0, s, 9).astype(int), in integers
    bounds = [s * i // _GAUSSIAN_STREAMS for i in range(_GAUSSIAN_STREAMS + 1)]
    return [(i, r0, r1) for i, (r0, r1) in enumerate(zip(bounds, bounds[1:]))
            if r0 < r1]


def _on_streams(fn, s, m):
    """Call ``fn(i, r0, r1, rows)`` for each stream block ``[r0, r1)`` of an
    (s, m) table; tables of at least ``_PARALLEL_MIN_ENTRIES`` entries run
    the blocks on a thread pool of up to
    ``min(_GAUSSIAN_STREAMS, os.cpu_count())`` threads.  ``rows`` is how
    many float64 rows one call may hold at a time: ``_GAUSSIAN_ROWS``
    shared among the threads, so that all of them together hold at most
    ``_GAUSSIAN_ROWS * m`` float64 entries on any core count.  Each block
    is computed the same way on any thread and in chunks of any height, so
    the result does not depend on the thread or core count."""
    blocks = _stream_blocks(s)
    workers = min(len(blocks), os.cpu_count() or 1)
    if workers == 1 or s * m < _PARALLEL_MIN_ENTRIES:
        for block in blocks:
            fn(*block, _GAUSSIAN_ROWS)
    else:
        rows = max(1, _GAUSSIAN_ROWS // workers)
        # numpy's generators and casts and scipy's sparse products release
        # the GIL
        with ThreadPoolExecutor(workers) as pool:
            for future in [pool.submit(fn, *block, rows) for block in blocks]:
                future.result()


def _gaussian_table(s, m, seed):
    """(s, m) float32 table of i.i.d. N(0, 1/s) entries: float32 standard
    normals divided in float32 by ``sqrt(s)``, drawn as
    ``_GAUSSIAN_STREAMS`` row blocks straight into the table, block ``i``
    from an SFC64 generator seeded with child ``i`` of
    ``SeedSequence(seed)``."""
    table = np.empty((s, m), dtype=np.float32)
    scale = np.float32(math.sqrt(s))

    def fill(i, r0, r1, rows):
        # the same child as SeedSequence(seed).spawn(_GAUSSIAN_STREAMS)[i];
        # the block is drawn whole in float32, so it holds no float64 rows
        child = np.random.SeedSequence(seed, spawn_key=(i,))
        block = table[r0:r1]
        np.random.Generator(np.random.SFC64(child)).standard_normal(
            out=block, dtype=np.float32)
        np.divide(block, scale, out=block)

    _on_streams(fill, s, m)
    return table


def dct2_matrix(m):
    """Dense orthonormal type-II DCT matrix; the O(m^2) reference
    transform behind :meth:`SketchOperator.materialize`, which the fast
    path is tested against."""
    i = np.arange(m)
    F = np.sqrt(2.0 / m) * np.cos(np.pi * np.outer(i, 2 * i + 1) / (2.0 * m))
    F[0] *= np.sqrt(0.5)
    return F


class SketchOperator:
    """A realized random linear map ``S: R^m -> R^s``.

    Build through :func:`build_sketch`.  The operator keeps only its
    kind-specific factors (dense table, sign/sample vectors, or sparse
    matrix); :meth:`apply` computes ``S @ X`` with the fast path for the
    kind, and :meth:`materialize` returns the dense float64 ``(s, m)``
    matrix (for srtt, built from the explicit cosine matrix of
    :func:`dct2_matrix`; for gaussian, the float32 table cast exactly).
    """

    def __init__(self, kind, s, m, seed):
        if kind not in KINDS:
            raise ValueError(f"unknown sketch kind {kind!r}")
        if not 1 <= s <= m:
            raise ShapeError(f"need 1 <= s <= m, got s={s}, m={m}")
        self.kind = kind
        self.s = int(s)
        self.m = int(m)
        self.seed = int(seed)
        if kind == "gaussian":
            self._dense = _gaussian_table(self.s, self.m, self.seed)
        elif kind == "srtt":
            rng = np.random.default_rng(self.seed)
            self._signs = rng.integers(0, 2, size=self.m) * 2.0 - 1.0
            self._rows = np.sort(rng.choice(self.m, size=self.s, replace=False))
            self._scale = math.sqrt(self.m / self.s)
        else:
            rng = np.random.default_rng(self.seed)
            zeta = min(SPARSE_SIGN_NNZ_PER_COLUMN, self.s)
            rows = _distinct_rows(rng, self.m, self.s, zeta).ravel()
            cols = np.repeat(np.arange(self.m), zeta)
            signs = rng.integers(0, 2, size=self.m * zeta) * 2.0 - 1.0
            data = signs / math.sqrt(zeta)
            self._sparse = sp.csr_matrix(
                (data, (rows, cols)), shape=(self.s, self.m)
            )
            self.zeta = zeta

    def __repr__(self):
        return f"SketchOperator(kind={self.kind!r}, s={self.s}, m={self.m}, seed={self.seed})"

    def apply(self, X):
        """Compute ``S @ X``; returns a dense (s, n) array (or (s,) for a
        vector input).  Sparse input is never densified for the gaussian
        and sparse-sign kinds.  The gaussian kind casts its float32 table
        back to float64 in row blocks, so that beyond the output it holds
        on any core count at most ``_GAUSSIAN_ROWS * m`` float64 entries
        for sparse input (shared among the threads) and one of the
        ``_GAUSSIAN_STREAMS`` stream blocks, about s * m / 8 float64
        entries, for dense input."""
        vector = not sp.issparse(X) and np.ndim(X) == 1
        if vector:
            X = np.asarray(X, dtype=np.float64)[:, None]
        else:
            X = as_matrix(X)
        if X.shape[0] != self.m:
            raise ShapeError(
                f"operator expects {self.m} rows, input has {X.shape[0]}"
            )
        if self.kind == "gaussian":
            out = self._apply_gaussian(X)
        elif self.kind == "sparse-sign":
            out = self._sparse @ X
            if sp.issparse(out):
                out = out.toarray()
        else:
            out = self._apply_srtt(X)
        return out[:, 0] if vector else out

    def _apply_gaussian(self, X):
        m = self.m
        out = np.empty((self.s, X.shape[1]))
        table = self._dense
        if not sp.issparse(X):
            # one product per stream block, on the calling thread, so that
            # BLAS does the threading: it packs X once per call, and smaller
            # row chunks would repack it for each chunk
            blocks = _stream_blocks(self.s)
            buf = np.empty((max(r1 - r0 for _, r0, r1 in blocks), m))
            for _, r0, r1 in blocks:
                block = buf[:r1 - r0]
                np.copyto(block, table[r0:r1])
                np.matmul(block, X, out=out[r0:r1])
            return out
        Xt = X.T.tocsr()

        def block(i, r0, r1, rows):
            # one float64 buffer per stream block, reused by its row chunks:
            # C-order (m, rows), which scipy uses without a copy
            buf = np.empty(min(rows, r1 - r0) * m)
            for c0 in range(r0, r1, rows):
                c1 = min(c0 + rows, r1)
                chunk = buf[:(c1 - c0) * m].reshape(m, c1 - c0)
                np.copyto(chunk, table[c0:c1].T)
                out[c0:c1] = (Xt @ chunk).T

        _on_streams(block, self.s, m)
        return out

    def _apply_srtt(self, X):
        if sp.issparse(X):
            n = X.shape[1]
            out = np.empty((self.s, n))
            Xc = X.tocsc()
            for j0 in range(0, n, _SRTT_BLOCK):
                j1 = min(j0 + _SRTT_BLOCK, n)
                out[:, j0:j1] = self._apply_srtt(Xc[:, j0:j1].toarray())
            return out
        Y = X * self._signs[:, None]
        Z = scipy.fft.dct(Y, type=2, axis=0, norm="ortho")
        return self._scale * Z[self._rows]

    def materialize(self):
        """Dense (s, m) matrix of the operator; intended for small m."""
        if self.kind == "gaussian":
            return self._dense.astype(np.float64)
        if self.kind == "sparse-sign":
            return self._sparse.toarray()
        F = dct2_matrix(self.m)
        return self._scale * (F * self._signs[None, :])[self._rows]


def build_sketch(kind, s, m, seed):
    """Construct a :class:`SketchOperator`; deterministic in ``seed``."""
    return SketchOperator(kind, s, m, seed)


def empirical_epsilon(op, U):
    """Measure the distortion of ``op`` over ``Range(U)``.

    ``U`` must have orthonormal columns (to 1e-10).  The certificate's
    ``epsilon_emp = max(sigma_max(SU)^2 - 1, 1 - sigma_min(SU)^2)`` makes
    the embedding inequality hold deterministically for every vector in
    the audited subspace.
    """
    U = np.asarray(U, dtype=np.float64)
    if U.ndim == 1:
        U = U[:, None]
    k = U.shape[1]
    if k == 0:
        raise ShapeError("cannot audit an empty basis")
    gram_defect = np.linalg.norm(U.T @ U - np.eye(k), 2)
    if gram_defect > 1e-10:
        raise PreconditionError(
            f"basis is not orthonormal: ||U^T U - I||_2 = {gram_defect:.3e}"
        )
    SU = op.apply(U)
    sv = np.linalg.svd(SU, compute_uv=False)
    smax = float(sv[0])
    # a sketch with fewer rows than the subspace dimension has a nullspace
    # inside the subspace: its smallest gain is exactly zero
    smin = float(sv[-1]) if SU.shape[0] >= k else 0.0
    eps = max(smax**2 - 1.0, 1.0 - smin**2, 0.0)
    return EmbeddingCertificate(
        epsilon_emp=eps,
        subspace_dim=k,
        sigma_min_sketched=smin,
        sigma_max_sketched=smax,
    )


def pairwise_cosine_audit(op, P):
    """Largest pairwise column cosine of a sketch-orthonormal ``P``.

    Requires nonzero columns and ``(SP)^T (SP) = I`` within 1e-8.  The
    returned flag checks the cosine against ``epsilon_emp`` measured over
    ``Range(P)``, which contains every normalized column pair sum and
    difference, so the bound is deterministic up to a slack of 1e-7.
    """
    P = np.asarray(P, dtype=np.float64)
    norms = np.linalg.norm(P, axis=0)
    if (norms == 0).any():
        raise PreconditionError("pairwise_cosine_audit: zero column in input")
    n = P.shape[1]
    SP = op.apply(P)
    defect = np.linalg.norm(SP.T @ SP - np.eye(n), 2)
    if defect > 1e-8:
        raise PreconditionError(
            f"columns are not sketch-orthonormal: ||(SP)^T SP - I||_2 = {defect:.3e}"
        )
    N = P / norms
    C = np.abs(N.T @ N)
    np.fill_diagonal(C, 0.0)
    max_cos = float(C.max()) if n > 1 else 0.0
    basis, _ = np.linalg.qr(P)
    cert = empirical_epsilon(op, basis)
    return CosineAudit(
        max_abs_cosine=max_cos,
        epsilon_emp=cert.epsilon_emp,
        within_bound=max_cos <= cert.epsilon_emp + 1e-7,
    )
