import math
import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchsvd import (
    EmbeddingSpec,
    PreconditionError,
    ShapeError,
    build_sketch,
    empirical_epsilon,
    sketch_dim,
    sts_svd,
)
from sketchsvd import _lapack, densekernels, sketchops
from sketchsvd.sketchops import (
    _APPLY_ENTRIES, _PARALLEL_MIN_ENTRIES, KINDS, dct2_matrix
)


@pytest.fixture
def pin_blas():
    """Sets the thread count of numpy's OpenBLAS for one test (None, or a
    BLAS without the setter, leaves it as it is) and restores it after."""
    setter = _lapack.routine("openblas_set_num_threads")
    before = densekernels.blas_threads()

    def pin(threads):
        if threads is not None and setter is not None:
            setter(threads)
            assert densekernels.blas_threads() == threads

    yield pin
    if setter is not None and before is not None:
        setter(before)


class TestSketchDim:
    def test_gaussian_large_subspace(self):
        spec = EmbeddingSpec(epsilon=0.5, delta=1e-6, k=300, m=300_000,
                             kind="gaussian")
        assert sketch_dim(spec) == 316

    def test_clamped_at_ambient(self):
        for kind in KINDS:
            spec = EmbeddingSpec(epsilon=0.5, delta=0.01, k=64, m=64, kind=kind)
            assert sketch_dim(spec) == 64

    def test_srtt_rule(self):
        spec = EmbeddingSpec(epsilon=0.5, delta=0.01, k=40, m=10_000, kind="srtt")
        assert sketch_dim(spec) == max(80, 160) == 160

    def test_at_least_k(self):
        spec = EmbeddingSpec(epsilon=0.9, delta=0.9, k=50, m=10_000,
                             kind="gaussian")
        assert sketch_dim(spec) >= 50

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epsilon=0.0, delta=0.1, k=1, m=2),
            dict(epsilon=1.0, delta=0.1, k=1, m=2),
            dict(epsilon=0.5, delta=0.0, k=1, m=2),
            dict(epsilon=0.5, delta=0.1, k=0, m=2),
            dict(epsilon=0.5, delta=0.1, k=3, m=2),
            dict(epsilon=0.5, delta=0.1, k=1, m=2, kind="fourier"),
        ],
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ValueError):
            EmbeddingSpec(**kwargs)


class TestBuildSketch:
    @pytest.mark.parametrize("kind", KINDS)
    def test_determinism_bitwise(self, kind):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 5))
        a = build_sketch(kind, 12, 30, seed=42).apply(X)
        b = build_sketch(kind, 12, 30, seed=42).apply(X)
        assert np.array_equal(a, b)
        c = build_sketch(kind, 12, 30, seed=43).apply(X)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("bad_s", [0, -1, 31])
    def test_invalid_dimension(self, bad_s):
        with pytest.raises(ShapeError):
            build_sketch("gaussian", bad_s, 30, seed=0)

    @pytest.mark.parametrize("s, m, seed, error", [
        (10.5, 100, 1, ShapeError), (10, 100.9, 1, ShapeError),
        (np.float64(10), 100, 1, ShapeError), (10, 100, 1.7, ValueError),
        (10, 100, "1", ValueError),
    ], ids=["float-s", "float-m", "numpy-float-s", "float-seed", "str-seed"])
    def test_non_integral_parameters_raise(self, s, m, seed, error):
        # a float is rejected, not truncated
        with pytest.raises(error, match="must be an integer"):
            build_sketch("srtt", s, m, seed)

    @pytest.mark.parametrize("kind", KINDS)
    def test_numpy_integer_parameters(self, kind):
        op = build_sketch(kind, np.int64(12), np.int32(30), np.uint64(42))
        assert (op.s, op.m, op.seed) == (12, 30, 42)
        assert all(type(v) is int for v in (op.s, op.m, op.seed))
        assert np.array_equal(op.materialize(),
                              build_sketch(kind, 12, 30, 42).materialize())

    def test_srtt_full_sample_is_orthogonal(self):
        op = build_sketch("srtt", 16, 16, seed=5)
        S = op.materialize()
        np.testing.assert_allclose(S.T @ S, np.eye(16), atol=1e-12)

    def test_gaussian_mean_square_monte_carlo(self):
        # 1e4 rebuilds of a 4 x 8 operator; entries have variance 1/s.
        s, m, n_builds = 4, 8, 10_000
        total = np.zeros(n_builds)
        for seed in range(n_builds):
            E = build_sketch("gaussian", s, m, seed=seed).materialize()
            total[seed] = (E * E).mean()
        grand = total.mean()
        # each entry^2 is (1/s) * chi2_1: var = 2/s^2 per entry
        se = np.sqrt(2.0 / s**2 / (n_builds * s * m))
        assert abs(grand - 1.0 / s) <= 3 * se

    @pytest.mark.parametrize("s", [1, 7, 31, 33, 65])
    def test_gaussian_table_is_eight_seeded_blocks(self, s):
        # row block i of the table holds float32 draws from an SFC64
        # generator seeded with child i of SeedSequence(seed), divided in
        # float32 by sqrt(s)
        m, seed = 150, 17
        bounds = np.linspace(0, s, 9).astype(int)
        children = np.random.SeedSequence(seed).spawn(8)
        expected = np.vstack([
            np.random.Generator(np.random.SFC64(child)).standard_normal(
                (b1 - b0, m), dtype=np.float32)
            for child, b0, b1 in zip(children, bounds, bounds[1:])
        ]) / np.float32(math.sqrt(s))
        assert expected.dtype == np.float32
        op = build_sketch("gaussian", s, m, seed)
        assert np.array_equal(op.materialize(), expected.astype(np.float64))

    def test_gaussian_table_is_standard_normal(self):
        # Kolmogorov-Smirnov test of the scaled 64 x 4096 table against N(0, 1)
        s, m = 64, 4096
        z = build_sketch("gaussian", s, m, seed=31).materialize() * math.sqrt(s)
        assert scipy.stats.kstest(z.ravel(), "norm").pvalue > 1e-3

    def test_gaussian_table_independent_of_thread_count(self, monkeypatch):
        # large enough for the thread pool; 1 worker fills it in a plain loop
        s, m = 96, _PARALLEL_MIN_ENTRIES // 96 + 1
        tables = []
        for cores in (1, 4):
            monkeypatch.setattr(sketchops.os, "cpu_count", lambda: cores)
            tables.append(build_sketch("gaussian", s, m, seed=5).materialize())
        assert np.array_equal(tables[0], tables[1])

    @pytest.mark.parametrize("blas", [1, 2])
    def test_gaussian_apply_independent_of_thread_count(self, monkeypatch, pin_blas, blas):
        # at one or two BLAS threads, dense input runs on the same pool
        pin_blas(blas)
        s, m = 96, _PARALLEL_MIN_ENTRIES // 96 + 1
        X = np.random.default_rng(27).standard_normal((m, 5))
        Xs = sp.random_array((m, 6), density=0.01, rng=28, format="csr")
        op = build_sketch("gaussian", s, m, seed=5)
        dense, sparse = [], []
        for cores in (1, 4):
            monkeypatch.setattr(sketchops.os, "cpu_count", lambda: cores)
            dense.append(op.apply(X))
            sparse.append(op.apply(Xs))
        assert np.array_equal(dense[0], dense[1])
        assert np.array_equal(sparse[0], sparse[1])
        S = op.materialize()
        np.testing.assert_allclose(dense[0], S @ X, rtol=1e-13, atol=1e-13)
        assert np.array_equal(sparse[0], (Xs.T @ S.T).T)

    @pytest.mark.parametrize("cores", [2, 8])
    def test_gaussian_build_memory(self, monkeypatch, cores):
        # the float32 table and no float64 scratch, on any core count
        monkeypatch.setattr(sketchops.os, "cpu_count", lambda: cores)
        s, m = 512, 4096
        tracemalloc.start()
        try:
            sketchops._gaussian_table(s, m, 29)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.1 * s * m

    def test_sparse_sign_column_structure(self):
        op = build_sketch("sparse-sign", 16, 100, seed=1)
        S = op._sparse.tocsc()
        counts = np.diff(S.indptr)
        assert (counts == 8).all()
        np.testing.assert_allclose(np.abs(S.data), 1.0 / np.sqrt(8.0))
        # positions are distinct within each column
        for j in range(100):
            rows = S.indices[S.indptr[j]:S.indptr[j + 1]]
            assert len(set(rows)) == 8

    def test_sparse_sign_zeta_clamped_to_s(self):
        op = build_sketch("sparse-sign", 3, 20, seed=2)
        assert ((op.materialize() != 0).sum(axis=0) == 3).all()


class TestApply:
    @pytest.mark.parametrize("kind", KINDS)
    def test_zero_matrix(self, kind):
        op = build_sketch(kind, 8, 20, seed=3)
        out = op.apply(np.zeros((20, 4)))
        np.testing.assert_allclose(out, np.zeros((8, 4)), atol=0)

    def test_srtt_full_sample_preserves_frobenius(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((24, 6))
        op = build_sketch("srtt", 24, 24, seed=7)
        assert np.linalg.norm(op.apply(X)) == pytest.approx(
            np.linalg.norm(X), rel=1e-12
        )

    def test_gaussian_on_identity_is_entry_table(self):
        op = build_sketch("gaussian", 6, 8, seed=3)
        np.testing.assert_allclose(op.apply(np.eye(8)), op.materialize(), atol=0)

    def test_row_mismatch(self):
        op = build_sketch("gaussian", 4, 10, seed=0)
        with pytest.raises(ShapeError):
            op.apply(np.ones((11, 2)))

    @pytest.mark.parametrize("kind", KINDS)
    def test_sparse_input_matches_dense(self, kind):
        rng = np.random.default_rng(5)
        X = sp.random_array((200, 9), density=0.1, rng=rng).tocsr()
        op = build_sketch(kind, 40, 200, seed=6)
        np.testing.assert_allclose(
            op.apply(X), op.apply(X.toarray()), rtol=1e-13, atol=1e-14
        )

    def test_sparse_never_densified_for_gaussian(self):
        class NoDense(sp.csr_matrix):
            def toarray(self, *a, **k):  # pragma: no cover
                raise AssertionError("input was densified")

        rng = np.random.default_rng(6)
        X = NoDense(sp.random_array((100, 5), density=0.1, rng=rng))
        for kind in ("gaussian", "sparse-sign"):
            build_sketch(kind, 20, 100, seed=1).apply(X)

    @pytest.mark.parametrize("cores", [1, 4])
    @pytest.mark.parametrize("fmt", ["csr", "csc"])
    def test_gaussian_sparse_row_blocks_bitwise(self, monkeypatch, fmt, cores):
        # row chunks drawn from the streams, before and after a dense apply
        # has drawn the table, give the same bits as one sparse product;
        # the stream blocks of 33-34 rows are no multiple of the 32 (one
        # worker) or 8 (four workers) rows of a chunk at this m
        monkeypatch.setattr(sketchops.os, "cpu_count", lambda: cores)
        s, m = 8 * 33 + 3, _APPLY_ENTRIES // 32
        rng = np.random.default_rng(23)
        X = sp.random_array((m, 7), density=0.05, rng=rng, format=fmt)
        op = build_sketch("gaussian", s, m, seed=24)
        streamed = op.apply(X)
        assert op._dense is None
        expected = (X.T @ op.materialize().T).T
        assert np.array_equal(streamed, expected)
        assert np.array_equal(op.apply(X), expected)

    def test_gaussian_sparse_apply_memory(self):
        # an 8 MB table; the apply must not copy it whole
        op = build_sketch("gaussian", 100, 10_000, seed=25)
        table_bytes = 100 * 10_000 * 8
        X = sp.random_array((10_000, 20), density=0.01, rng=26, format="csr")
        tracemalloc.start()
        try:
            op.apply(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < table_bytes / 2

    @pytest.mark.parametrize("route", ["apply", "sts_svd"])
    @pytest.mark.parametrize("cores", [2, 8])
    def test_gaussian_sparse_memory_without_table(self, monkeypatch, cores, route):
        # an operator built and applied once to sparse input, alone or in
        # sts_svd as the CLI's ortho runs it, never holds its table: the
        # threads share one budget of float32 and float64 rows, so more
        # cores do not add up to a copy of the table
        monkeypatch.setattr(sketchops.os, "cpu_count", lambda: cores)
        s, m = 512, 10_000
        X = sp.random_array((m, 5), density=0.01, rng=26, format="csr")
        tracemalloc.start()
        try:
            op = build_sketch("gaussian", s, m, seed=25)
            op.apply(X) if route == "apply" else sts_svd(X, op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert op._dense is None
        # half the float32 table; the budget's float32 and float64 scratch
        # is 1.5 bytes per entry here
        assert peak < 2 * s * m

    @staticmethod
    def _scratch_peak(op, X):
        """tracemalloc peak of ``op.apply(X)`` beyond its output."""
        tracemalloc.start()
        try:
            out = op.apply(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - out.nbytes

    def test_gaussian_sparse_apply_within_budget(self, monkeypatch):
        # at m = 100000 each of two workers draws 1 row at a time, not 8:
        # about the budget in float32 and in float64
        monkeypatch.setattr(sketchops.os, "cpu_count", lambda: 2)
        m = 100_000
        X = sp.random_array((m, 5), density=1e-3, rng=40, format="csr")
        op = build_sketch("gaussian", 128, m, seed=41)
        assert self._scratch_peak(op, X) < 1.5 * 12 * _APPLY_ENTRIES

    def test_gaussian_sparse_apply_fits_l2_at_desk_shape(self, monkeypatch):
        # the desk ortho shape on two workers: each draws 8 rows of 20000
        # at a time, 1.92 MB of float32 and float64 that fit a 2 MiB L2;
        # with the transposed input that is about 4.1 MB beyond the output
        monkeypatch.setattr(sketchops.os, "cpu_count", lambda: 2)
        m = 20_000
        X = sp.random_array((m, 100), density=0.01, rng=44, format="csr")
        op = build_sketch("gaussian", 1200, m, seed=45)
        assert self._scratch_peak(op, X) < 5e6
        assert op._dense is None

    @pytest.mark.parametrize("fmt", ["csc", "dense"])
    def test_srtt_apply_within_budget(self, fmt):
        # at m = 100000 the transform runs on 3 columns at a time, not on
        # 40: the densified block, its signed copy and its transform hold
        # 8 bytes per entry of the block each, and CSC input is read in
        # place.  2% covers the arrays of s rows
        m = 100_000
        X = sp.random_array((m, 40), density=1e-3, rng=42, format="csc")
        if fmt == "dense":
            X = X.toarray()
        op = build_sketch("srtt", 200, m, seed=43)
        temporaries = 3 * 8 * (_APPLY_ENTRIES // m) * m
        assert self._scratch_peak(op, X) < 1.02 * temporaries

    @pytest.mark.parametrize("kind", ["srtt", "gaussian"])
    def test_csc_input_copied_no_more_than_csr(self, monkeypatch, kind):
        # each kind converts sparse input once, to the format it reads:
        # srtt reads CSC, and the gaussian apply reads the CSR of X^T, which
        # is CSC input transposed in place
        monkeypatch.setattr(sketchops.os, "cpu_count", lambda: 2)
        m = 100_000
        X = sp.random_array((m, 40), density=0.01, rng=46, format="csr")
        op = build_sketch(kind, 200, m, seed=47)
        outs, peaks = [], []
        for Y in (X, X.tocsc()):
            peaks.append(self._scratch_peak(op, Y))
            outs.append(op.apply(Y))
        assert peaks[1] <= peaks[0]
        assert np.array_equal(outs[0], outs[1])

    @staticmethod
    def _tiles(s, m):
        """Column tiles of a dense apply, by the module docstring's rule:
        about budget // (2 * ceil(s / 8)) columns, split into equal tiles."""
        cols = max(1, sketchops._APPLY_ENTRIES // (2 * math.ceil(s / 8)))
        count = math.ceil(m / cols)
        return [(m * k // count, m * (k + 1) // count) for k in range(count)]

    def _tiled_products(self, op, X):
        """S @ X as a dense apply computes it: per stream block, the tile
        products added up in column order."""
        S = op.materialize()
        (c0, c1), *rest = self._tiles(op.s, op.m)
        bounds = np.linspace(0, op.s, 9).astype(int)
        rows = []
        for r0, r1 in zip(bounds, bounds[1:]):
            acc = S[r0:r1, c0:c1] @ X[c0:c1]
            for d0, d1 in rest:
                acc += S[r0:r1, d0:d1] @ X[d0:d1]
            rows.append(acc)
        return np.vstack(rows)

    @pytest.mark.parametrize("blas", [1, 2])
    def test_gaussian_dense_apply_memory(self, monkeypatch, pin_blas, blas):
        # dense input is cast into one column tile of a stream block per
        # worker (half the budget each, here an eighth of the block's
        # columns) of scratch, on any core count and BLAS thread count
        pin_blas(blas)
        monkeypatch.setattr(sketchops.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(sketchops, "_APPLY_ENTRIES", 32 * 1024)
        s, m = 256, 4096
        assert len(self._tiles(s, m)) == 8
        op = build_sketch("gaussian", s, m, seed=30)
        op._table()
        X = np.random.default_rng(31).standard_normal((m, 3))
        # beyond the output: one partial product per worker, and 32 KiB
        # for the pool's bookkeeping (16 KiB measured)
        assert self._scratch_peak(op, X) < 8 * 32 * 1024 + 2 * 32 * 3 * 8 + 32 * 1024

    @pytest.mark.parametrize("cols", [None, 1, 2, 5, 50])
    @pytest.mark.parametrize("s", [9, 99])
    def test_gaussian_dense_blocks_on_the_pool(self, monkeypatch, s, cols):
        # each stream block is applied whole (at s = 9 most blocks have one
        # row), in 18 or 11 column tiles, on two workers
        monkeypatch.setattr(sketchops.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sketchops, "_APPLY_ENTRIES", 13 * 1000)
        m = _PARALLEL_MIN_ENTRIES // s + 1
        assert len(self._tiles(s, m)) > 1
        shape = (m,) if cols is None else (m, cols)
        X = np.random.default_rng(32).standard_normal(shape)
        op = build_sketch("gaussian", s, m, seed=33)
        out = op.apply(X)
        expected = self._tiled_products(op, X.reshape(m, -1))
        assert np.array_equal(out.reshape(s, -1), expected)
        reference = op.materialize() @ X
        assert np.linalg.norm(out - reference) <= 1e-13 * np.linalg.norm(reference)

    _POOL_RUN = """
import sys
import numpy as np
from sketchsvd import build_sketch, sketchops

pools = []

class Counted(sketchops.ThreadPoolExecutor):
    def __init__(self, *args):
        pools.append(args)
        super().__init__(*args)

sketchops.ThreadPoolExecutor = Counted
sketchops.os.cpu_count = lambda: 2
sketchops._APPLY_ENTRIES = 12 * 1000
s, m = 96, sketchops._PARALLEL_MIN_ENTRIES // 96 + 1
op = build_sketch("gaussian", s, m, seed=35)
op._table()
pools.clear()
X = np.random.default_rng(34).standard_normal((m, 5))
np.save(sys.argv[1], op.apply(X))
print(len(pools))
"""

    def test_gaussian_dense_pool_at_default_blas_threads(self, monkeypatch, tmp_path):
        # with OpenBLAS on two threads of its own, a dense apply still
        # takes whole stream blocks on one pool of its own
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
               "PYTHONPATH": str(pathlib.Path(__file__).parents[1] / "src")}
        out = tmp_path / "out.npy"
        proc = subprocess.run([sys.executable, "-c", self._POOL_RUN, str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1"]
        monkeypatch.setattr(sketchops, "_APPLY_ENTRIES", 12 * 1000)
        s, m = 96, _PARALLEL_MIN_ENTRIES // 96 + 1
        assert len(self._tiles(s, m)) == 11
        op = build_sketch("gaussian", s, m, seed=35)
        X = np.random.default_rng(34).standard_normal((m, 5))
        assert np.array_equal(np.load(out), self._tiled_products(op, X))

    def test_gaussian_table_drawn_once_under_concurrent_applies(self, monkeypatch):
        # threads that apply one fresh operator to dense input at once all
        # see one table; the slowed draw widens the window a lost check
        # would need
        calls = []
        draw = sketchops._gaussian_table

        def counted(*args):
            calls.append(args)
            time.sleep(0.05)
            return draw(*args)

        monkeypatch.setattr(sketchops, "_gaussian_table", counted)
        s, m, threads = 40, 2000, 4
        op = build_sketch("gaussian", s, m, seed=36)
        X = np.random.default_rng(37).standard_normal((m, 3))
        start = threading.Barrier(threads)

        def apply():
            start.wait(timeout=10)
            return op.apply(X)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(threads) as pool:
                futures = [pool.submit(apply) for _ in range(threads)]
                results = [f.result(timeout=30) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert len(calls) == 1
        for out in results[1:]:
            assert np.array_equal(out, results[0])

    @pytest.mark.parametrize("fmt", ["csr", "dense"])
    def test_srtt_crosses_column_blocks(self, monkeypatch, fmt):
        # blocks of 7 columns give the same bits as one block of 150
        rng = np.random.default_rng(21)
        X = sp.random_array((120, 150), density=0.05, rng=rng, format="csr")
        if fmt == "dense":
            X = X.toarray()
        op = build_sketch("srtt", 30, 120, seed=22)
        whole = op.apply(X)
        monkeypatch.setattr(sketchops, "_APPLY_ENTRIES", 7 * 120)
        assert np.array_equal(op.apply(X), whole)
        reference = op.materialize() @ X
        assert np.linalg.norm(whole - reference) <= 1e-13 * np.linalg.norm(reference)

    def test_vector_apply(self):
        op = build_sketch("srtt", 10, 50, seed=8)
        v = np.random.default_rng(9).standard_normal(50)
        out = op.apply(v)
        assert out.shape == (10,)
        np.testing.assert_allclose(out, op.apply(v[:, None])[:, 0], atol=0)

    @pytest.mark.parametrize("m", [1, 2, 3, 7, 12, 16, 129, 2000])
    def test_srtt_fast_vs_reference(self, m):
        # prime, mixed, power of two, odd composite lengths; at s = m every
        # frequency is sampled, k = 0, k = m/2 and the folded k > m/2 with it
        rng = np.random.default_rng(m)
        X = rng.standard_normal((m, 3))
        for s in sorted({1, max(1, m // 2), m}):
            op = build_sketch("srtt", s, m, seed=m)
            slow = op.materialize() @ X
            for given_X, ref in ((X, slow), (sp.csc_matrix(X), slow),
                                 (X[:, 0], slow[:, 0])):
                fast = op.apply(given_X)
                assert fast.shape == ref.shape
                assert np.linalg.norm(fast - ref) <= 1e-13 * np.linalg.norm(ref), s

    def test_dct_reference_is_orthonormal(self):
        for m in (5, 8, 13):
            F = dct2_matrix(np.arange(m), m)
            np.testing.assert_allclose(F.T @ F, np.eye(m), atol=1e-13)

    def test_srtt_materialize_forms_sampled_rows_only(self):
        # s x m arrays, not the m x m cosine matrix (32 MB per copy here)
        s, m = 100, 2000
        op = build_sketch("srtt", s, m, seed=1)
        tracemalloc.start()
        try:
            S = op.materialize()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert S.shape == (s, m)
        assert peak < 4 * 8 * s * m

    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=20, deadline=None)
    @given(
        alpha=st.floats(-8, 8, allow_nan=False),
        beta=st.floats(-8, 8, allow_nan=False),
    )
    def test_linearity(self, kind, alpha, beta):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((40, 3))
        Y = rng.standard_normal((40, 3))
        op = build_sketch(kind, 15, 40, seed=11)
        left = op.apply(alpha * X + beta * Y)
        right = alpha * op.apply(X) + beta * op.apply(Y)
        scale = max(np.linalg.norm(left), 1.0)
        assert np.linalg.norm(left - right) <= 1e-13 * scale

    def test_srtt_isometry_at_full_sample(self):
        op = build_sketch("srtt", 33, 33, seed=12)
        rng = np.random.default_rng(13)
        for _ in range(100):
            x = rng.standard_normal(33)
            assert np.linalg.norm(op.apply(x)) == pytest.approx(
                np.linalg.norm(x), rel=1e-12
            )

    def test_gaussian_unbiased_norm(self):
        # E |S v|^2 = |v|^2 over independent operator draws
        s, m, n_seeds = 6, 20, 10_000
        v = np.random.default_rng(14).standard_normal(m)
        v /= np.linalg.norm(v)
        vals = np.array(
            [
                np.sum(build_sketch("gaussian", s, m, seed=seed).apply(v) ** 2)
                for seed in range(n_seeds)
            ]
        )
        se = np.sqrt(2.0 / s / n_seeds)  # |Sv|^2 ~ chi2_s / s
        assert abs(vals.mean() - 1.0) <= 3 * se


class TestDenseTiles:
    """A dense gaussian apply at a shape that spans several column tiles
    (the budget is lowered so that a small table does)."""

    BUDGET = 7 * 1000
    S, M = 8 * 13 + 5, _PARALLEL_MIN_ENTRIES // (8 * 13 + 5) + 1

    @pytest.fixture(autouse=True)
    def budget(self, monkeypatch):
        monkeypatch.setattr(sketchops, "_APPLY_ENTRIES", self.BUDGET)
        # ceil(109 / 8) = 14 rows per stream block, tiles of 7000 // (2 * 14)
        # = 250 columns for two workers
        assert len(sketchops._column_tiles(self.S, self.M)) == 20

    @pytest.mark.parametrize("cols", [None, 1, 4])
    def test_bits_independent_of_threads_and_cores(self, monkeypatch, cols):
        shape = (self.M,) if cols is None else (self.M, cols)
        X = np.random.default_rng(48).standard_normal(shape)
        op = build_sketch("gaussian", self.S, self.M, seed=49)
        outs = []
        for cores in (1, 2, 4):
            monkeypatch.setattr(sketchops.os, "cpu_count", lambda: cores)
            outs.append(op.apply(X))
        for out in outs[1:]:
            assert np.array_equal(out, outs[0])
        reference = op.materialize() @ X
        assert np.abs(outs[0] - reference).max() <= 1e-13 * np.abs(reference).max()

    @pytest.mark.parametrize("blas", [1, None])
    def test_scratch_within_budget(self, monkeypatch, pin_blas, blas):
        # the float64 tiles take at most the budget together; each worker
        # also holds a partial product of its block's rows, and the pool
        # takes 10 KiB (measured) of bookkeeping; at one BLAS thread and at
        # OpenBLAS's own count
        pin_blas(blas)
        monkeypatch.setattr(sketchops.os, "cpu_count", lambda: 4)
        op = build_sketch("gaussian", self.S, self.M, seed=50)
        op._table()
        X = np.random.default_rng(51).standard_normal((self.M, 2))
        tracemalloc.start()
        try:
            out = op.apply(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - out.nbytes <= 8 * self.BUDGET + 2 * 14 * 2 * 8 + 32 * 1024

class TestEmpiricalEpsilon:
    def test_exact_isometry(self):
        op = build_sketch("srtt", 30, 30, seed=1)
        U = np.linalg.qr(np.random.default_rng(2).standard_normal((30, 6)))[0]
        cert = empirical_epsilon(op, U)
        assert cert.epsilon_emp <= 1e-12
        assert cert.subspace_dim == 6

    def test_canonical_columns_match_submatrix_oracle(self):
        # Oracle: singular values of the materialized 40 x 5 sub-block.
        op = build_sketch("gaussian", 40, 200, seed=5)
        U = np.eye(200)[:, :5]
        cert = empirical_epsilon(op, U)
        sub = op.materialize()[:, :5]
        sv = np.linalg.svd(sub, compute_uv=False)
        expected = max(sv[0] ** 2 - 1.0, 1.0 - sv[-1] ** 2)
        assert cert.epsilon_emp == pytest.approx(expected, rel=1e-12)
        assert cert.sigma_max_sketched == pytest.approx(sv[0], rel=1e-12)
        assert cert.sigma_min_sketched == pytest.approx(sv[-1], rel=1e-12)

    def test_single_vector(self):
        op = build_sketch("sparse-sign", 12, 30, seed=3)
        u = np.zeros(30)
        u[4] = 1.0
        cert = empirical_epsilon(op, u)
        assert cert.epsilon_emp == pytest.approx(
            abs(np.sum(op.apply(u) ** 2) - 1.0), abs=1e-14
        )

    def test_nonorthonormal_rejected(self):
        op = build_sketch("gaussian", 10, 20, seed=4)
        with pytest.raises(PreconditionError):
            empirical_epsilon(op, np.ones((20, 2)))

    def test_empty_basis_rejected(self):
        op = build_sketch("gaussian", 10, 20, seed=4)
        with pytest.raises(ShapeError):
            empirical_epsilon(op, np.zeros((20, 0)))

    def test_subspace_wider_than_sketch(self):
        # s < k: the sketch has a nullspace inside the subspace, so the
        # lower gain is exactly zero and the distortion is at least 1
        op = build_sketch("gaussian", 3, 20, seed=5)
        U = np.eye(20)[:, :6]
        cert = empirical_epsilon(op, U)
        assert cert.sigma_min_sketched == 0.0
        assert cert.epsilon_emp >= 1.0

    def test_certificate_is_tight(self):
        # There is a unit vector achieving the measured distortion.
        op = build_sketch("gaussian", 25, 60, seed=6)
        U = np.linalg.qr(np.random.default_rng(7).standard_normal((60, 8)))[0]
        cert = empirical_epsilon(op, U)
        SU = op.apply(U)
        _, sv, Vt = np.linalg.svd(SU)
        for x in (Vt[0], Vt[-1]):
            dev = abs(np.sum((SU @ x) ** 2) - 1.0)
            if dev == pytest.approx(cert.epsilon_emp, abs=1e-10):
                break
        else:
            pytest.fail("no extreme singular vector attains epsilon_emp")

    def test_embedding_inequality_holds_on_subspace(self):
        op = build_sketch("srtt", 40, 90, seed=8)
        rng = np.random.default_rng(9)
        U = np.linalg.qr(rng.standard_normal((90, 5)))[0]
        cert = empirical_epsilon(op, U)
        for _ in range(200):
            x = rng.standard_normal(5)
            v = U @ (x / np.linalg.norm(x))
            sq = np.sum(op.apply(v) ** 2)
            assert 1.0 - cert.epsilon_emp - 1e-10 <= sq <= 1.0 + cert.epsilon_emp + 1e-10

