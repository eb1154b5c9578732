"""Construction, application, and auditing of oblivious subspace-embedding
operators.

Three operator families are supported, identified by their ``kind`` tag:

* ``"gaussian"``     -- dense i.i.d. normal entries scaled by ``1/sqrt(s)``
  so that ``E |S v|^2 = |v|^2``;
* ``"srtt"``         -- subsampled randomized trigonometric transform
  ``sqrt(m/s) * D F E``: a Rademacher sign diagonal ``E``, the orthonormal
  type-II discrete cosine transform ``F`` (any length, O(m log m) by
  Makhoul's reordering through one length-m real FFT of ``numpy.fft``,
  evaluated at the sampled frequencies only), and ``s`` rows sampled
  uniformly without replacement (``D``); at ``s == m`` the operator is
  exactly orthogonal;
* ``"sparse-sign"``  -- per input coordinate, ``zeta = min(8, s)`` distinct
  output rows receive ``+-1/sqrt(zeta)``.

Equal ``(kind, s, m, seed)`` tuples reproduce bitwise-identical
operators.  The srtt and sparse-sign factors are drawn at construction
from one ``numpy`` PCG64 generator seeded with the operator's 64-bit
``seed``.  A gaussian table is cut into 8 fixed row blocks, and block
``i`` holds float32 normals drawn from an SFC64 generator seeded with
child ``i`` of ``numpy.random.SeedSequence(seed)``, divided in float32 by
``sqrt(s)``; large tables fill their blocks on parallel threads, and since
the block count is a constant, the table does not depend on how many
threads or cores there are.  A gaussian operator draws nothing at
construction.  Its first dense apply (or :meth:`SketchOperator.materialize`)
draws the whole float32 table, half the memory of float64, and keeps it.
An apply to sparse input never reads the table: each block's rows are
drawn a few at a time from the block's stream, cast to float64, applied
and dropped, so an operator applied only to sparse input never holds its
table, and each sparse apply draws its rows again, even after a dense one.

One budget, ``_APPLY_ENTRIES`` = 320 000 entries, bounds the scratch of
every apply: beyond its input and output, an apply holds about
``budget`` entries per temporary (at least m for srtt and sparse
gaussian applies) on any core count.

* srtt transforms ``max(1, budget // m)`` columns at a time (densifying
  sparse ones);
* a sparse gaussian apply, on the draw's blocks and w threads, draws
  ``max(1, budget // (w * m))`` rows per thread at a time;
* a dense gaussian apply cuts each stream block into two halves whose
  bounds depend on ``s`` alone, and casts a half into float64 one column
  tile at a time: about ``budget // ceil(s / 8)`` columns, split into
  equal tiles whose bounds depend on ``s`` and ``m`` alone, and each
  output row adds up its tile products in column order (the K-blocking
  of Goto & van de Geijn, ACM TOMS 34(3), 2008).  The halves run in
  order on the calling thread, whose BLAS threads each product, unless
  numpy's BLAS reports one thread
  (:func:`~sketchsvd.densekernels.blas_threads`): then they run on up
  to two threads, each casting into its own half of the scratch.  So a
  dense apply computes the same products whatever the core count or the
  BLAS thread count it reads (OpenBLAS's own threads can still change
  the bits of a product with many columns).

The budget is sized to a core's L2 cache: at the desk ``ortho`` shape,
m = 20000 on 2 workers, one worker's chunk of 8 rows in float32 and
float64 takes 1.92 MB, within a 2 MiB L2.  Every gaussian apply
allocates its scratch on the calling thread, one slice per worker, so
that none of it is left in a worker thread's malloc arena.  Every
certificate here (``empirical_epsilon`` and the bounds evaluated at it)
measures the operator's table, so it is exact for the table as drawn;
:meth:`SketchOperator.materialize` returns that table in float64.
Operators are immutable apart from the held table, which is drawn once
under a lock, and safe to share across threads.
"""

import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .densekernels import as_matrix, blas_threads, require_real
from .errors import PreconditionError, ShapeError

KINDS = ("gaussian", "srtt", "sparse-sign")

SPARSE_SIGN_NNZ_PER_COLUMN = 8

# Entries per temporary of any apply (the module docstring gives the
# rule), sized so that one worker's chunk fits in a core's L2 cache
# (2 MiB where it was measured): at the desk ortho shape, m = 20000 on 2
# workers, each worker draws 8 rows, 1.92 MB of float32 and float64.  Swept on 2 cores (BENCH_apply_budget.json), the
# ortho-sparse-gaussian benchmark peaked at 81.0 MB at 32 * 20_000 and
# 77.1 MB here; 8 * 20_000 and 4 * 20_000 peaked at 76.6 MB, but took a
# sparse apply at s = 1600 7% and 18% longer than here.
_APPLY_ENTRIES = 16 * 20_000

# The constant c of the srtt and sparse-sign rule of sketch_dim.
_DIM_CONSTANT = 1.0

# A gaussian table is drawn as this many row blocks, each from its own
# seeded stream (numpy's parallel-generation scheme), so that the blocks
# can be filled on parallel threads.  Changing it changes every table.
_GAUSSIAN_STREAMS = 8

# Tables with fewer entries are filled and applied on the calling thread.
# Starting a thread pool costs about 1 ms; measured on 2 cores, the pool
# fills 2**18 entries in 5.7 ms, as one thread does, and 2**19 entries in
# 9.1 ms against 10.7 ms.
_PARALLEL_MIN_ENTRIES = 1 << 19


@dataclass(frozen=True)
class EmbeddingSpec:
    """Inputs of the sketch-dimension rule of :func:`sketch_dim`: a target
    distortion ``epsilon`` and failure probability ``delta`` for a fixed
    ``k``-dimensional subspace of R^m.  The rule is a heuristic and does
    not guarantee that target: :func:`sketch_dim` gives the measured
    misses."""

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


def sketch_dim(spec):
    """Heuristic sketch dimension for ``spec``, clamped to ``[k, m]``.

    Gaussian operators use ``ceil(eps^-2 * ln(1/delta) * ln(max(k, 2)))``;
    srtt and sparse-sign use ``max(2k, ceil(c * eps^-2 * k))`` with
    ``c = _DIM_CONSTANT`` (1, as in common usage), because the practical
    rule for trigonometric sketches diverges as delta -> 0.
    Neither rule guarantees distortion ``eps`` with probability
    ``1 - delta``: over a random 50-dimensional subspace of R^5000 at
    ``eps = 0.5``, every kind measured a distortion above ``eps`` for 20 of
    20 sketch seeds.  Measure the distortion with :func:`empirical_epsilon`
    where a bound must hold.
    """
    if spec.kind == "gaussian":
        target = math.ceil(
            spec.epsilon**-2 * math.log(1.0 / spec.delta) * math.log(max(spec.k, 2))
        )
    else:
        target = max(2 * spec.k, math.ceil(_DIM_CONSTANT * spec.epsilon**-2 * spec.k))
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


def _column_tiles(s, m):
    """``(c0, c1)`` bounds of the column tiles in which a dense gaussian
    apply casts an (s, m) table: about ``_APPLY_ENTRIES`` entries over one
    stream block's ``ceil(s / 8)`` rows, split into equal tiles.  They
    depend on ``s`` and ``m`` alone, so the sum each output row adds up
    tile by tile does not depend on the thread or core count."""
    cols = max(1, _APPLY_ENTRIES // -(-s // _GAUSSIAN_STREAMS))
    count = -(-m // cols)
    bounds = [m * k // count for k in range(count + 1)]
    return list(zip(bounds, bounds[1:]))


def _pool_workers(s, m, most):
    """Threads for work on an (s, m) table: one below
    ``_PARALLEL_MIN_ENTRIES`` entries, else up to ``most``, capped by
    ``os.cpu_count()``."""
    if s * m < _PARALLEL_MIN_ENTRIES:
        return 1
    return min(most, os.cpu_count() or 1)


def _on_streams(fn, chunks, workers):
    """Call ``fn(w, *chunk)`` for each chunk: worker ``w`` of ``workers``
    runs ``chunks[w::workers]`` in order, on a thread pool when there is
    more than one worker.  ``w`` lets a call pick scratch that no other
    worker uses.  Each chunk must be computed the same way by any worker,
    so that the result does not depend on the thread or core count."""
    if workers == 1:
        for chunk in chunks:
            fn(0, *chunk)
        return

    def run(w):
        for chunk in chunks[w::workers]:
            fn(w, *chunk)

    # numpy's generators, casts and BLAS products and scipy's sparse
    # products release the GIL
    with ThreadPoolExecutor(workers) as pool:
        for future in [pool.submit(run, w) for w in range(workers)]:
            future.result()


def _stream(seed, i):
    """SFC64 generator of stream block ``i`` of a gaussian table, seeded
    with child ``i`` of ``SeedSequence(seed)``."""
    # the same child as SeedSequence(seed).spawn(_GAUSSIAN_STREAMS)[i]
    child = np.random.SeedSequence(seed, spawn_key=(i,))
    return np.random.Generator(np.random.SFC64(child))


def _draw(gen, rows, scale):
    """Fill the float32 array ``rows`` with the next standard normals of
    ``gen``, divided in float32 by ``scale``.  Consecutive calls continue
    the stream, so a block drawn in pieces equals the block drawn whole."""
    gen.standard_normal(out=rows, dtype=np.float32)
    np.divide(rows, scale, out=rows)


def _gaussian_table(s, m, seed):
    """(s, m) float32 table of i.i.d. N(0, 1/s) entries: float32 standard
    normals divided in float32 by ``sqrt(s)``, drawn as
    ``_GAUSSIAN_STREAMS`` row blocks straight into the table, block ``i``
    from :func:`_stream` ``(seed, i)``."""
    table = np.empty((s, m), dtype=np.float32)
    scale = np.float32(math.sqrt(s))

    def fill(_, i, r0, r1):
        _draw(_stream(seed, i), table[r0:r1], scale)

    blocks = _stream_blocks(s)
    _on_streams(fill, blocks, _pool_workers(s, m, len(blocks)))
    return table


def dct2_matrix(k, m):
    """Rows ``k`` (frequencies in ``[0, m)``) of the dense orthonormal
    type-II DCT matrix of length m, one row of m entries each; the
    reference transform behind :meth:`SketchOperator.materialize`, which
    the fast path is tested against."""
    k = np.asarray(k)
    # entry (k, j) is at the angle pi k (2j + 1) / 2m; k (2j + 1) is reduced
    # mod 4m in integers first, so the angle's rounding does not grow with m
    angle = np.pi * (np.outer(k, 2 * np.arange(m) + 1) % (4 * m)) / (2.0 * m)
    F = np.sqrt(2.0 / m) * np.cos(angle)
    F[k == 0] *= np.sqrt(0.5)
    return F


def _integer(value, name, error):
    """``value`` as a Python int, or ``error`` if it is not an integer."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


class SketchOperator:
    """A realized random linear map ``S: R^m -> R^s``.

    Build through :func:`build_sketch`.  The operator keeps only its
    kind-specific factors (sign/sample vectors, sparse matrix, or the
    gaussian table once a dense apply or :meth:`materialize` has drawn
    it); :meth:`apply` computes ``S @ X`` with the fast path for the
    kind, and :meth:`materialize` returns the dense float64 ``(s, m)``
    matrix (for srtt, built from the explicit cosine matrix of
    :func:`dct2_matrix`; for gaussian, the float32 table cast exactly).
    """

    def __init__(self, kind, s, m, seed):
        if kind not in KINDS:
            raise ValueError(f"unknown sketch kind {kind!r}")
        self.kind = kind
        self.s = _integer(s, "s", ShapeError)
        self.m = _integer(m, "m", ShapeError)
        self.seed = _integer(seed, "seed", ValueError)
        if not 1 <= self.s <= self.m:
            raise ShapeError(f"need 1 <= s <= m, got s={s}, m={m}")
        if kind == "gaussian":
            self._dense = None
            self._lock = threading.Lock()
        elif kind == "srtt":
            rng = np.random.default_rng(self.seed)
            self._signs = rng.integers(0, 2, size=self.m) * 2.0 - 1.0
            self._rows = np.sort(rng.choice(self.m, size=self.s, replace=False))
            # Makhoul (IEEE TASSP 28(1), 1980): DCT-II frequency k of x is
            # Re(exp(-i pi k / 2m) V_k), V the FFT of x's even entries
            # followed by its odd ones reversed.  A real FFT holds V_k for
            # k <= m // 2, and V_k = conj(V_{m-k}) past it; c_k folds in
            # sqrt(m/s), the orthonormal sqrt(2/m) and 1/sqrt(2) at k = 0.
            k = self._rows
            c = math.sqrt(2.0 / self.s) * np.where(k == 0, math.sqrt(0.5), 1.0)
            angle = np.pi * k / (2 * self.m)
            self._bins = np.minimum(k, self.m - k)
            self._re = c * np.cos(angle)
            self._im = np.where(k > self.m // 2, -c, c) * np.sin(angle)
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

    def _table(self):
        """The gaussian float32 table: drawn on the first call, under the
        lock so that concurrent callers draw it once, then held."""
        with self._lock:
            if self._dense is None:
                self._dense = _gaussian_table(self.s, self.m, self.seed)
            return self._dense

    def __repr__(self):
        return f"SketchOperator(kind={self.kind!r}, s={self.s}, m={self.m}, seed={self.seed})"

    def apply(self, X):
        """Compute ``S @ X``; returns a dense (s, n) array (or (s,) for a
        vector input).  Sparse input is never densified for the gaussian
        and sparse-sign kinds.  The module docstring gives the budget that
        bounds its scratch and the threads a gaussian apply uses."""
        X = require_real(X)
        vector = not sp.issparse(X) and X.ndim == 1
        if vector:
            X = np.asarray(X, dtype=np.float64)[:, None]
        elif sp.issparse(X):
            # each kind converts it once, to the format it reads
            X = X.astype(np.float64, copy=False)
        else:
            X = as_matrix(X)
        if X.shape[0] != self.m:
            raise ShapeError(
                f"operator expects {self.m} rows, input has {X.shape[0]}"
            )
        if self.kind == "gaussian":
            out = self._apply_gaussian(X)
        elif self.kind == "sparse-sign":
            out = self._sparse @ (X.tocsr() if sp.issparse(X) else X)
            if sp.issparse(out):
                out = out.toarray()
        else:
            out = self._apply_srtt(X)
        return out[:, 0] if vector else out

    def _apply_gaussian(self, X):
        m = self.m
        out = np.empty((self.s, X.shape[1]))
        blocks = _stream_blocks(self.s)
        if not sp.issparse(X):
            table = self._table()
            # each stream block is cut into two halves whose bounds depend
            # on s alone, on either route, so that both compute the same
            # products: with BLAS on one thread the halves run on up to two
            # workers, worker w taking every w-th half, else in order on the
            # calling thread, whose BLAS threads each product
            chunks = []
            for _, r0, r1 in blocks:
                mid = r0 + (r1 - r0 + 1) // 2
                chunks += [(r0, mid), (mid, r1)]
            workers = _pool_workers(self.s, m, 2) if blas_threads() == 1 else 1
            # float64 scratch for one half's column tile per worker, and a
            # partial product when there is more than one tile, allocated
            # here as the sparse apply's buffers are
            half = max(r1 - r0 for r0, r1 in chunks)
            tiles = _column_tiles(self.s, m)
            buf = np.empty((workers, half, max(c1 - c0 for c0, c1 in tiles)))
            part = np.empty((workers, half, X.shape[1])) if len(tiles) > 1 else None

            def product(w, r0, r1):
                # each row adds up its tile products in column order
                for t, (c0, c1) in enumerate(tiles):
                    tile = buf[w, :r1 - r0, :c1 - c0]
                    np.copyto(tile, table[r0:r1, c0:c1])
                    if t == 0:
                        np.matmul(tile, X[c0:c1], out=out[r0:r1])
                    else:
                        np.matmul(tile, X[c0:c1], out=part[w, :r1 - r0])
                        out[r0:r1] += part[w, :r1 - r0]

            _on_streams(product, chunks, workers)
            return out
        Xt = X.tocsc().T  # the CSR of X^T; CSC input is not copied
        workers = _pool_workers(self.s, m, len(blocks))
        rows = max(1, _APPLY_ENTRIES // (workers * m))
        scale = np.float32(math.sqrt(self.s))
        # one float32 and one float64 buffer per worker, allocated here as
        # buf is for dense input, reused by every row chunk the worker
        # draws; the latter C-order (m, rows), which scipy uses without a
        # copy
        height = min(rows, max(r1 - r0 for _, r0, r1 in blocks))
        drawn = np.empty((workers, height, m), dtype=np.float32)
        buf = np.empty((workers, height * m))

        def block(w, i, r0, r1):
            # the block's rows come from its own stream
            gen = _stream(self.seed, i)
            for c0 in range(r0, r1, rows):
                c1 = min(c0 + rows, r1)
                piece = drawn[w, :c1 - c0]
                _draw(gen, piece, scale)
                chunk = buf[w, :(c1 - c0) * m].reshape(m, c1 - c0)
                np.copyto(chunk, piece.T)
                out[c0:c1] = (Xt @ chunk).T

        _on_streams(block, blocks, workers)
        return out

    def _apply_srtt(self, X):
        n = X.shape[1]
        cols = max(1, _APPLY_ENTRIES // self.m)
        out = np.empty((self.s, n))
        if sp.issparse(X):
            X = X.tocsc()
        for j0 in range(0, n, cols):
            out[:, j0:j0 + cols] = self._srtt_block(X[:, j0:j0 + cols])
        return out

    def _srtt_block(self, X):
        # a call of its own, so one block's arrays die before the next's exist
        X = X.toarray() if sp.issparse(X) else X
        # Makhoul's reordering, signed, with the transform axis last (the
        # real FFT runs fastest along contiguous rows)
        h = (self.m + 1) // 2
        Y = np.empty((X.shape[1], self.m))
        np.multiply(X[0::2].T, self._signs[0::2], out=Y[:, :h])
        np.multiply(X[1::2][::-1].T, self._signs[1::2][::-1], out=Y[:, h:])
        R = np.fft.rfft(Y, axis=1)[:, self._bins]
        return (self._re * R.real + self._im * R.imag).T

    def materialize(self):
        """Dense (s, m) matrix of the operator; intended for small m."""
        if self.kind == "gaussian":
            return self._table().astype(np.float64)
        if self.kind == "sparse-sign":
            return self._sparse.toarray()
        F = dct2_matrix(self._rows, self.m)
        return math.sqrt(self.m / self.s) * (F * self._signs[None, :])


def build_sketch(kind, s, m, seed):
    """Construct a :class:`SketchOperator`; deterministic in ``seed``.

    ``s``, ``m`` and ``seed`` are Python or numpy integers; any other
    value raises (``ShapeError`` for ``s`` or ``m``, ``ValueError`` for
    ``seed``) instead of being truncated.
    """
    return SketchOperator(kind, s, m, seed)


def empirical_epsilon(op, U):
    """Measure the distortion of ``op`` over ``Range(U)``.

    ``U`` must have orthonormal columns (to 1e-10).  The certificate's
    ``epsilon_emp = max(sigma_max(SU)^2 - 1, 1 - sigma_min(SU)^2)`` makes
    the embedding inequality hold deterministically for every vector in
    the audited subspace.
    """
    U = np.asarray(require_real(U), dtype=np.float64)
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
    return _certificate(np.linalg.svd(op.apply(U), compute_uv=False), k)


def _certificate(sv, k):
    """The :class:`EmbeddingCertificate` of a k-dimensional subspace whose
    orthonormal basis the sketch maps to a matrix with the nonincreasing
    singular values ``sv``."""
    smax = float(sv[0])
    # a sketch with fewer rows than the subspace dimension has a nullspace
    # inside the subspace: its smallest gain is exactly zero
    smin = float(sv[-1]) if sv.size >= k else 0.0
    return EmbeddingCertificate(
        epsilon_emp=max(smax**2 - 1.0, 1.0 - smin**2, 0.0),
        subspace_dim=k,
        sigma_min_sketched=smin,
        sigma_max_sketched=smax,
    )

