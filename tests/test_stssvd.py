import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from sketchsvd import (
    NumericalError,
    RankDeficiencyError,
    ShapeError,
    SketchRankWarning,
    build_sketch,
    compare_spectra,
    empirical_epsilon,
    gen_cauchy,
    gen_sparse_conditioned,
    jacobi_svd,
    numerical_rank,
    range_basis,
    sketched_qr,
    sts_singular_values,
    sts_svd,
    sts_svd_via_qr,
    truncate,
)
from sketchsvd.densekernels import _GRAM_ROWS
from sketchsvd.sketchops import KINDS
from sketchsvd.stssvd import _left_gram, _retained


def rand_orthonormal(rng, m, n):
    return np.linalg.qr(rng.standard_normal((m, n)))[0]


def s_norm(X, op, ord=None):
    """``|S X|``: the sketch Frobenius norm, or with ``ord=2`` the sketch
    spectral norm."""
    return np.linalg.norm(op.apply(X), ord)


def dense_checks(A, f, op):
    """Direct dense verification of the factorization contract."""
    recon = f.reconstruct()
    assert np.linalg.norm(A - recon) <= 1e-12 * np.linalg.norm(A)
    SW = op.apply(f.W)
    assert np.linalg.norm(SW.T @ SW - np.eye(f.r), 2) <= 1e-12
    assert np.linalg.norm(f.V.T @ f.V - np.eye(f.r), 2) <= 1e-12
    assert (np.diff(f.theta) <= 1e-15).all()
    assert (f.theta >= 0).all()


class TestStsSvd:
    def test_single_canonical_column(self):
        m = 12
        e1 = np.zeros((m, 1))
        e1[0, 0] = 1.0
        op = build_sketch("gaussian", 5, m, seed=1)
        f = sts_svd(e1, op)
        theta1 = np.linalg.norm(op.apply(e1))
        assert f.r == 1
        assert f.theta[0] == pytest.approx(theta1, rel=1e-14)
        assert abs(f.V[0, 0]) == pytest.approx(1.0, abs=1e-14)
        np.testing.assert_allclose(
            f.W[:, 0] * f.V[0, 0], e1[:, 0] / theta1, atol=1e-14
        )

    def test_zero_matrix(self):
        op = build_sketch("srtt", 6, 10, seed=2)
        f = sts_svd(np.zeros((10, 4)), op)
        assert f.r == 0
        assert f.W.shape == (10, 0)
        assert f.theta.shape == (0,)
        assert f.V.shape == (4, 0)
        assert np.linalg.norm(f.reconstruct()) == 0.0

    def test_small_dense_direct_checks(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((8, 3))
        op = build_sketch("gaussian", 6, 8, seed=4)
        f = sts_svd(A, op)
        dense_checks(A, f, op)
        # theta equals the singular values of the materialized S A
        ref = np.linalg.svd(op.materialize() @ A, compute_uv=False)
        np.testing.assert_allclose(f.theta, ref, rtol=1e-12)

    @pytest.mark.parametrize("kind", ["gaussian", "srtt", "sparse-sign"])
    def test_exactness_well_conditioned(self, kind):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((100, 12))
        op = build_sketch(kind, 48, 100, seed=6)
        f = sts_svd(A, op)
        assert f.r == 12
        assert np.linalg.norm(A - f.reconstruct()) <= 1e-10 * np.linalg.norm(A)

    def test_exactness_ill_conditioned(self):
        # documented degradation: kappa = 1e10 still reconstructs to 1e-6
        rng = np.random.default_rng(7)
        n = 30
        A = rng.standard_normal((200, n)) @ np.diag(
            np.power(1e10, -np.arange(n) / (n - 1))
        )
        op = build_sketch("gaussian", 4 * n, 200, seed=8)
        f = sts_svd(A, op)
        assert f.r == n
        assert np.linalg.norm(A - f.reconstruct()) <= 1e-6 * np.linalg.norm(A)

    def test_exact_for_rank_deficient_input(self):
        # exactness only needs the sketch to preserve the rank, not full
        # column rank: the retained right factor spans the row space
        rng = np.random.default_rng(21)
        A = rng.standard_normal((30, 3)) @ rng.standard_normal((3, 8))
        op = build_sketch("gaussian", 16, 30, seed=22)
        f = sts_svd(A, op)
        assert f.r == 3
        assert np.linalg.norm(A - f.reconstruct()) <= 1e-10 * np.linalg.norm(A)

    def test_sparse_input_not_densified(self):
        class NoDense(sp.csr_matrix):
            def toarray(self, *a, **k):  # pragma: no cover
                raise AssertionError("matrix was densified")

        rng = np.random.default_rng(9)
        A = NoDense(sp.random_array((300, 10), density=0.05, rng=rng))
        op = build_sketch("gaussian", 40, 300, seed=10)
        f = sts_svd(A, op)
        assert f.r == 10
        dense = sp.csr_matrix(A).toarray()
        assert np.linalg.norm(dense - f.reconstruct()) <= 1e-10 * np.linalg.norm(dense)

    def test_low_sketch_dimension_warns(self):
        rng = np.random.default_rng(11)
        A = rng.standard_normal((40, 10))
        op = build_sketch("gaussian", 4, 40, seed=12)
        with pytest.warns(SketchRankWarning):
            f = sts_svd(A, op)
        assert f.r == 4

    def test_row_mismatch(self):
        op = build_sketch("gaussian", 4, 40, seed=0)
        with pytest.raises(ShapeError):
            sts_svd(np.ones((41, 2)), op)

    @pytest.mark.parametrize("route", [sts_svd, sts_svd_via_qr])
    def test_factors_do_not_keep_operator_alive(self, route):
        # a desk-scale gaussian table is 160 MB: it must go with its last user
        A = np.random.default_rng(23).standard_normal((50, 5))
        op = build_sketch("gaussian", 20, 50, seed=24)
        alive = weakref.ref(op)
        f = route(A, op)
        head = truncate(f, 3)
        del op
        gc.collect()
        assert alive() is None
        assert f.r == 5 and head.r == 3

    def test_rotation_invariance(self):
        rng = np.random.default_rng(13)
        A = rng.standard_normal((60, 8))
        op = build_sketch("srtt", 32, 60, seed=14)
        f = sts_svd(A, op)
        SW = op.apply(f.W)
        base = np.linalg.norm(SW.T @ SW - np.eye(8), 2)
        for seed in range(10):
            U = rand_orthonormal(np.random.default_rng(seed), 8, 8)
            SWU = op.apply(f.W @ U)
            assert np.linalg.norm(SWU.T @ SWU - np.eye(8), 2) <= base + 1e-12


class TestSketchedQR:
    def test_orthonormal_input_full_sample(self):
        m, n = 24, 5
        op = build_sketch("srtt", m, m, seed=1)
        A = rand_orthonormal(np.random.default_rng(2), m, n)
        Q, R = sketched_qr(A, op)
        np.testing.assert_allclose(Q, A, atol=1e-10)
        np.testing.assert_allclose(R, np.eye(n), atol=1e-10)

    def test_dependent_columns_raise(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(30)
        A = np.column_stack([a, 2 * a])
        op = build_sketch("gaussian", 10, 30, seed=4)
        with pytest.raises(RankDeficiencyError) as err:
            sketched_qr(A, op)
        assert err.value.column == 1

    def test_residual_and_orthogonality(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((100, 10))
        op = build_sketch("gaussian", 40, 100, seed=6)
        Q, R = sketched_qr(A, op)
        assert np.linalg.norm(A - Q @ R) <= 1e-10 * np.linalg.norm(A)
        SQ = op.apply(Q)
        assert np.linalg.norm(SQ.T @ SQ - np.eye(10), 2) <= 1e-8
        assert (np.diag(R) > 0).all()

    def test_sketch_too_small(self):
        op = build_sketch("gaussian", 3, 30, seed=7)
        with pytest.raises(ShapeError):
            sketched_qr(np.ones((30, 5)), op)

    def test_sparse_input(self):
        rng = np.random.default_rng(8)
        A = sp.random_array((80, 6), density=0.3, rng=rng).tocsr()
        op = build_sketch("srtt", 30, 80, seed=9)
        Q, R = sketched_qr(A, op)
        assert np.linalg.norm(A.toarray() - Q @ R) <= 1e-10 * np.linalg.norm(A.toarray())


class TestSketchedQRTwoPass:
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8, 1e12])
    def test_stability(self, kappa, kind, sparse):
        m, n = 600, 20
        rng = np.random.default_rng(int(np.log10(kappa)))
        sigma = np.logspace(0, -np.log10(kappa), n)
        A = (rand_orthonormal(rng, m, n) * sigma) @ rand_orthonormal(rng, n, n).T
        op = build_sketch(kind, 3 * n, m, seed=7)
        Q, R = sketched_qr(sp.csr_matrix(A) if sparse else A, op)
        SQ = op.apply(Q)
        assert np.linalg.norm(SQ.T @ SQ - np.eye(n), 2) <= 1e-12
        assert np.linalg.norm(A - Q @ R) <= 1e-13 * np.linalg.norm(A)
        assert (np.diag(R) > 0).all()
        assert np.array_equal(R, np.triu(R))

    @pytest.mark.parametrize("source", ["randn", "sparse-graded", "dense-graded"])
    @pytest.mark.parametrize("factor", [4, 16])
    @pytest.mark.parametrize("kind", KINDS)
    def test_loss_equals_left_factor_loss(self, kind, factor, source):
        # Q and the left factor W of sts_svd are sketch-orthonormal bases of
        # Range(A) for one operator, so Q = W O for an orthogonal O, and
        # Q^T Q - I = O^T (W^T W - I) O: the same orthogonality loss in the
        # spectral and Frobenius norms (measured within 5.2e-15 relative).
        m, n = 2000, 50
        rng = np.random.default_rng(0)
        if source == "sparse-graded":
            A = gen_sparse_conditioned(m, n, 0.05, 1e10, seed=1)
        else:
            A = rng.standard_normal((m, n))
            if source == "dense-graded":
                A *= np.logspace(0, -6, n)
        op = build_sketch(kind, factor * n, m, seed=3)
        Q, _ = sketched_qr(A, op)
        theta, V = _retained(*sts_singular_values(A, op), op.s, n)
        assert theta.size == n
        loss_Q = Q.T @ Q - np.eye(n)
        loss_W = _left_gram(A, theta, V) - np.eye(n)
        for ord in (2, None):
            assert np.linalg.norm(loss_Q, ord) == pytest.approx(
                np.linalg.norm(loss_W, ord), rel=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_kahan_factor(self, kind):
        # U K with K a 100 x 100 Kahan matrix: every R1[j, j] / |a_j| is at
        # least 1e-3, so the rank test passes, yet cond(A) is about 9e16
        m, n = 2000, 100
        sn = 1e-3 ** (1 / (n - 1))
        K = np.diag(sn ** np.arange(n)) @ (
            np.eye(n) - np.sqrt(1 - sn**2) * np.triu(np.ones((n, n)), 1)
        )
        A = rand_orthonormal(np.random.default_rng(0), m, n) @ K
        assert np.linalg.cond(A) > 1e16
        op = build_sketch(kind, 4 * n, m, seed=3)
        Q, R = sketched_qr(A, op)
        SQ = op.apply(Q)
        assert np.linalg.norm(SQ.T @ SQ - np.eye(n), 2) <= 1e-12
        assert np.linalg.norm(A - Q @ R) <= 1e-13 * np.linalg.norm(A)
        assert (np.diag(R) > 0).all()

    @pytest.mark.parametrize("dtype", [np.int64, np.float32, np.bool_])
    def test_sparse_input_any_dtype(self, dtype):
        rng = np.random.default_rng(10)
        A = sp.random_array((80, 6), density=0.5, rng=rng, dtype=np.float64)
        A = sp.csr_matrix((10 * A).astype(dtype))
        op = build_sketch("gaussian", 30, 80, seed=11)
        Q, R = sketched_qr(A, op)
        assert Q.dtype == np.float64
        Ad = A.toarray().astype(np.float64)
        assert np.linalg.norm(Ad - Q @ R) <= 1e-13 * np.linalg.norm(Ad)
        SQ = op.apply(Q)
        assert np.linalg.norm(SQ.T @ SQ - np.eye(6), 2) <= 1e-12

    def test_ill_conditioned_second_sketch_raises(self):
        # the second sketch shrinks one column by 1e-9, as no linear S can
        # (S Q1 is then far from orthonormal): Q must not be returned
        class DriftingOperator:
            def __init__(self, op):
                self.op, self.m, self.s, self.calls = op, op.m, op.s, 0

            def apply(self, X):
                self.calls += 1
                out = self.op.apply(X)
                if self.calls == 2:
                    out[:, -1] *= 1e-9
                return out

        A = np.random.default_rng(12).standard_normal((200, 8))
        op = DriftingOperator(build_sketch("srtt", 32, 200, seed=13))
        with pytest.raises(NumericalError):
            sketched_qr(A, op)

    def test_two_block_applies(self):
        class CountingOperator:
            def __init__(self, op):
                self.op, self.m, self.s, self.calls = op, op.m, op.s, 0

            def apply(self, X):
                self.calls += 1
                return self.op.apply(X)

        m, n = 2000, 50
        A = np.random.default_rng(1).standard_normal((m, n))
        op = CountingOperator(build_sketch("gaussian", 4 * n, m, seed=2))
        sketched_qr(A, op)
        assert op.calls == 2

    def test_first_dependent_column_named(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((60, 6))
        A[:, 3] = A[:, 0] - 2.0 * A[:, 2]
        A[:, 5] = 3.0 * A[:, 1] + A[:, 4]
        op = build_sketch("sparse-sign", 30, 60, seed=5)
        with pytest.raises(RankDeficiencyError) as err:
            sketched_qr(A, op)
        assert err.value.column == 3

    def test_input_not_overwritten(self):
        A = np.asfortranarray(np.random.default_rng(6).standard_normal((40, 4)))
        before = A.copy()
        sketched_qr(A, build_sketch("srtt", 16, 40, seed=7))
        assert np.array_equal(A, before)


class TestViaQrRoute:
    def test_orthogonal_input_full_sample(self):
        m, n = 20, 6
        op = build_sketch("srtt", m, m, seed=1)
        A = rand_orthonormal(np.random.default_rng(2), m, n)
        f = sts_svd_via_qr(A, op)
        np.testing.assert_allclose(f.theta, np.ones(n), atol=1e-12)

    def test_route_agreement(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((50, 5))
        op = build_sketch("gaussian", 30, 50, seed=4)
        direct = sts_svd(A, op)
        via_qr = sts_svd_via_qr(A, op)
        np.testing.assert_allclose(via_qr.theta, direct.theta, rtol=1e-10)
        dense_checks(A, via_qr, op)

    def test_route_agreement_many_seeds(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            A = rng.standard_normal((40, 6))
            op = build_sketch("srtt", 24, 40, seed=seed)
            direct = sts_svd(A, op)
            via_qr = sts_svd_via_qr(A, op)
            np.testing.assert_allclose(via_qr.theta, direct.theta, rtol=1e-8)

    @pytest.mark.parametrize("kind", KINDS)
    def test_sketch_of_several_blocks(self, kind):
        # s > _GRAM_ROWS: both R factors of sketched_qr come from the
        # row-blocked QR, and Q stays sketch-orthonormal
        m, n, s = 3000, 10, _GRAM_ROWS + 52
        A = np.random.default_rng(7).standard_normal((m, n)) * np.logspace(0, -6, n)
        op = build_sketch(kind, s, m, seed=8)
        f = sts_svd_via_qr(A, op)
        assert f.r == n
        dense_checks(A, f, op)
        np.testing.assert_allclose(f.theta, sts_svd(A, op).theta, rtol=1e-10)

    def test_rank_deficient_raises(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(25)
        A = np.column_stack([a, -0.5 * a])
        op = build_sketch("gaussian", 10, 25, seed=6)
        with pytest.raises(RankDeficiencyError):
            sts_svd_via_qr(A, op)

    def test_explicit_rtol_reaches_sketched_qr(self):
        # condition 1e14: column 48 fails sketched_qr's default threshold,
        # but a caller's rtol=1e-20 lets the factorization through
        m, n = 2000, 50
        rng = np.random.default_rng(0)
        A = (rand_orthonormal(rng, m, n) * np.logspace(0, -14, n)) @ (
            rand_orthonormal(rng, n, n).T)
        op = build_sketch("gaussian", 800, m, seed=0)
        with pytest.raises(RankDeficiencyError):
            sts_svd_via_qr(A, op)
        f = sts_svd_via_qr(A, op, rtol=1e-20)
        SW = op.apply(f.W)
        assert np.linalg.norm(SW.T @ SW - np.eye(f.r), 2) <= 1e-12
        assert f.r == sts_svd(A, op, rtol=1e-20).r == n

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [2.0**-700, 2.0**600])
    def test_column_norms_do_not_overflow(self, scale):
        # sketched_qr's |a_j| squares no entry, so a full-rank A is not
        # called dependent where its squared entries would overflow
        rng = np.random.default_rng(8)
        A = rng.standard_normal((2000, 50))
        op = build_sketch("srtt", 200, 2000, seed=9)
        want = sts_svd_via_qr(A, op).theta
        got = sts_svd_via_qr(scale * A, op).theta
        np.testing.assert_allclose(got / scale, want, rtol=1e-13, atol=0)

    def test_coarse_rtol_truncates(self):
        # a truncation threshold above sketched_qr's 1e-12 must truncate
        # like sts_svd, not turn into sketched_qr's column test and raise
        m, n = 2000, 50
        rng = np.random.default_rng(0)
        A = (rand_orthonormal(rng, m, n) * np.logspace(0, -6, n)) @ (
            rand_orthonormal(rng, n, n).T)
        op = build_sketch("gaussian", 800, m, seed=0)
        f = sts_svd_via_qr(A, op, rtol=1e-3)
        assert f.r == sts_svd(A, op, rtol=1e-3).r < n


class TestTruncate:
    @pytest.fixture
    def factored(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((30, 6))
        op = build_sketch("gaussian", 24, 30, seed=8)
        return A, op, sts_svd(A, op)

    def test_full_rank_zero_error(self, factored):
        A, op, f = factored
        fk = truncate(f, f.r)
        assert s_norm(A - fk.reconstruct(), op) <= 1e-12 * np.linalg.norm(A)

    def test_drop_one_tail(self, factored):
        A, op, f = factored
        fk = truncate(f, f.r - 1)
        err = s_norm(A - fk.reconstruct(), op)
        assert err == pytest.approx(f.theta[-1], rel=1e-10)
        err2 = s_norm(A - fk.reconstruct(), op, 2)
        assert err2 == pytest.approx(f.theta[-1], rel=1e-10)

    def test_tail_identities_all_k(self, factored):
        A, op, f = factored
        tail_sq = np.cumsum(f.theta[::-1] ** 2)[::-1]
        for k in range(1, f.r):
            fk = truncate(f, k)
            err_f = s_norm(A - fk.reconstruct(), op)
            assert err_f**2 == pytest.approx(tail_sq[k], rel=1e-10)
            err_2 = s_norm(A - fk.reconstruct(), op, 2)
            assert err_2 == pytest.approx(f.theta[k], rel=1e-10)

    def test_beats_random_competitors(self, factored):
        A, op, f = factored
        k = 3
        fk = truncate(f, k)
        best_f = s_norm(A - fk.reconstruct(), op)
        best_2 = s_norm(A - fk.reconstruct(), op, 2)
        rng = np.random.default_rng(9)
        Wk, Vk = f.W[:, :k], f.V[:, :k]
        for trial in range(200):
            if trial % 2 == 0:
                L = np.diag(f.theta[:k]) + 0.1 * rng.standard_normal((k, k))
            else:
                L = rng.standard_normal((k, k))
            B = (Wk @ L) @ Vk.T
            assert s_norm(A - B, op) >= best_f - 1e-10
            assert s_norm(A - B, op, 2) >= best_2 - 1e-10
        # the classical truncated SVD is also no better in the sketch norms
        U, sig, Vt = np.linalg.svd(A, full_matrices=False)
        B = (U[:, :k] * sig[:k]) @ Vt[:k]
        assert s_norm(A - B, op) >= best_f - 1e-10
        assert s_norm(A - B, op, 2) >= best_2 - 1e-10

    @settings(max_examples=15, deadline=None)
    @given(k=st.integers(1, 6), seed=st.integers(0, 10))
    def test_truncation_rank_property(self, k, seed):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((30, 6))
        op = build_sketch("gaussian", 24, 30, seed=seed)
        f = sts_svd(A, op)
        fk = truncate(f, k)
        assert fk.r == k
        assert fk.W.shape[1] == k
        np.testing.assert_allclose(fk.theta, f.theta[:k])

    def test_out_of_range(self, factored):
        _, _, f = factored
        with pytest.raises(ValueError):
            truncate(f, 0)
        with pytest.raises(ValueError):
            truncate(f, f.r + 1)

    def test_minmax_characterization(self, factored):
        # theta_k dominates the sketched smallest gain over random
        # k-dimensional trial subspaces, with equality on the leading
        # right singular subspace.
        A, op, f = factored
        SA = op.apply(A)
        rng = np.random.default_rng(10)
        n = A.shape[1]
        for k in (1, 3, 5):
            for _ in range(200):
                U = rand_orthonormal(rng, n, k)
                gain = np.linalg.svd(SA @ U, compute_uv=False)[-1]
                assert gain <= f.theta[k - 1] + 1e-10
            opt = np.linalg.svd(SA @ f.V[:, :k], compute_uv=False)[-1]
            assert opt == pytest.approx(f.theta[k - 1], rel=1e-10)


class TestSNorms:
    def test_full_sample_matches_classical(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((18, 4))
        op = build_sketch("srtt", 18, 18, seed=3)
        assert s_norm(X, op) == pytest.approx(np.linalg.norm(X), rel=1e-12)
        assert s_norm(X, op, 2) == pytest.approx(np.linalg.norm(X, 2), rel=1e-12)

    def test_theta_identities(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((40, 7))
        op = build_sketch("gaussian", 28, 40, seed=5)
        f = sts_svd(A, op)
        assert s_norm(A, op) == pytest.approx(
            np.sqrt(np.sum(f.theta**2)), rel=1e-10
        )
        assert s_norm(A, op, 2) == pytest.approx(f.theta[0], rel=1e-10)

    def test_certificate_inequality(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((50, 6))
        op = build_sketch("gaussian", 30, 50, seed=7)
        cert = empirical_epsilon(op, range_basis(X))
        lo = np.sqrt(max(1.0 - cert.epsilon_emp, 0.0))
        hi = np.sqrt(1.0 + cert.epsilon_emp)
        for ord in (None, 2):
            norm, sketched = np.linalg.norm(X, ord), s_norm(X, op, ord)
            assert lo * norm - 1e-10 <= sketched <= hi * norm + 1e-10


class TestCompareSpectra:
    def test_orthonormal_full_sample(self):
        m, n = 30, 5
        A = rand_orthonormal(np.random.default_rng(1), m, n)
        op = build_sketch("srtt", m, m, seed=2)
        f = sts_svd(A, op)
        ref = jacobi_svd(A).sigma
        cert = empirical_epsilon(op, range_basis(A))
        cmp = compare_spectra(f, ref, cert)
        assert cmp.all_within
        np.testing.assert_allclose(cmp.theta, np.ones(n), atol=1e-12)
        np.testing.assert_allclose(cmp.sigma, np.ones(n), atol=1e-12)

    def test_sandwich_many_seeds(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            A = rng.standard_normal((40, 8))
            op = build_sketch("gaussian", 24, 40, seed=seed)
            f = sts_svd(A, op)
            ref = np.linalg.svd(A, compute_uv=False)
            cert = empirical_epsilon(op, range_basis(A))
            assert compare_spectra(f, ref, cert).all_within

    def test_cauchy_rank_detection(self):
        C = gen_cauchy(200)
        sigma = np.linalg.svd(C, compute_uv=False)
        rank_sigma = numerical_rank(sigma)
        assert rank_sigma <= 12
        op = build_sketch("srtt", 60, 200, seed=3)
        from sketchsvd import sts_singular_values

        theta, _ = sts_singular_values(C, op)
        assert numerical_rank(theta) == rank_sigma

    def test_sandwich_with_sketch_below_columns(self):
        # s < n: the certificate over the full range degenerates
        # (epsilon_emp >= 1) but the upper side still binds every theta
        C = gen_cauchy(200)
        ref = np.linalg.svd(C, compute_uv=False)
        for seed in range(5):
            op = build_sketch("srtt", 30, 200, seed=seed)
            with pytest.warns(SketchRankWarning):
                f = sts_svd(C, op, rtol=0.0)
            cert = empirical_epsilon(op, range_basis(C, rtol=0.0))
            assert cert.epsilon_emp >= 1.0
            assert compare_spectra(f, ref, cert).all_within

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((20, 6))
        op = build_sketch("gaussian", 12, 20, seed=5)
        f = sts_svd(A, op)
        cert = empirical_epsilon(op, range_basis(A))
        with pytest.raises(ShapeError):
            compare_spectra(f, np.ones(2), cert)


class TestSingularValues:
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_no_columns(self, kind, sparse):
        A = sp.csr_matrix((20, 0)) if sparse else np.zeros((20, 0))
        op = build_sketch(kind, 6, 20, seed=1)
        theta, V = sts_singular_values(A, op)
        assert theta.shape == (0,) and V.shape == (0, 0)
        f = sts_svd(A, op)
        assert f.r == 0
        assert f.W.shape == (20, 0) and f.theta.shape == (0,) and f.V.shape == (0, 0)

    @pytest.mark.parametrize("kind,seed", [(k, i) for i, k in enumerate(KINDS)])
    def test_tall_graded_relative_accuracy(self, kind, seed):
        # Oracle: 50-digit SVD of the sketched matrix itself.  Its columns
        # are graded over 12 decades in random order, so each theta must
        # come out with high relative accuracy, not just accuracy relative
        # to theta_1 (an unpivoted bidiagonalization misses by ~1e-5 here).
        mpmath = pytest.importorskip("mpmath")
        m, n = 300, 20
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, n)) * rng.permutation(np.logspace(0, -12, n))
        op = build_sketch(kind, 3 * n, m, seed=seed + 10)
        SA = op.apply(A)
        with mpmath.workdps(50):
            exact = np.array(sorted(
                (float(v) for v in
                 mpmath.svd_r(mpmath.matrix(SA.tolist()), compute_uv=False)),
                reverse=True))
        theta, _ = sts_singular_values(A, op)
        assert np.max(np.abs(theta - exact) / exact) <= 2e-15


class TestLeftGram:
    """``_left_gram`` sums ``W^T W`` over row blocks of A; it must agree
    with the Gram matrix of the left factor that ``sts_svd`` forms whole."""

    n = 12

    @staticmethod
    def _gram_of_factor(A, op):
        f = sts_svd(A, op)
        return f.W.T @ f.W, _left_gram(A, f.theta, f.V)

    @pytest.mark.parametrize("fmt", ["dense", "csr", "csc"])
    @pytest.mark.parametrize(
        "m", [100, 2 * _GRAM_ROWS - 1, 2 * _GRAM_ROWS, 2 * _GRAM_ROWS + 1])
    def test_matches_whole_factor(self, m, fmt):
        # below one block, and two blocks exactly, less one row and plus one
        rng = np.random.default_rng(m)
        A = sp.random_array((m, self.n), density=0.3, rng=rng, format="csr")
        A = A @ sp.diags_array(np.logspace(0, -8, self.n))
        A = A.toarray() if fmt == "dense" else A.asformat(fmt)
        op = build_sketch("sparse-sign", 4 * self.n, m, seed=m + 1)
        want, got = self._gram_of_factor(A, op)
        assert got.shape == (self.n, self.n)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("kind", KINDS)
    def test_retained_rank_below_n(self, kind):
        # rank 5 of 12 columns: the Gram matrix is 5 x 5
        m = _GRAM_ROWS + 7
        rng = np.random.default_rng(3)
        A = rng.standard_normal((m, 5)) @ rng.standard_normal((5, self.n))
        op = build_sketch(kind, 4 * self.n, m, seed=4)
        want, got = self._gram_of_factor(A, op)
        assert got.shape == (5, 5)
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("sparse", [False, True])
    def test_zero_matrix(self, sparse):
        m = _GRAM_ROWS + 1
        A = sp.csr_matrix((m, self.n)) if sparse else np.zeros((m, self.n))
        op = build_sketch("gaussian", 2 * self.n, m, seed=5)
        want, got = self._gram_of_factor(A, op)
        assert want.shape == got.shape == (0, 0)
