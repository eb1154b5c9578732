import tracemalloc
from contextlib import suppress

import numpy as np
import pytest
import scipy.sparse as sp

from sketchsvd import (
    PreconditionError,
    RankDeficiencyError,
    ShapeError,
    SketchRankWarning,
    build_sketch,
    empirical_epsilon,
    gen_sparse_conditioned,
    nearest,
    nearest_orthogonal,
    nearest_sandwich_report,
    nearest_sts_orthogonal,
    orthogonality_report,
    polar_factors,
    range_basis,
    sketched_qr,
    spectral_norm,
    sts_svd,
)
from sketchsvd.densekernels import _GRAM_ROWS, _symmetric_factor, to_dense
from sketchsvd.nearest import _SandwichTerms, _sketched_polar, loss_bounds
from sketchsvd.sketchops import KINDS


def rand_orthonormal(rng, m, n):
    return np.linalg.qr(rng.standard_normal((m, n)))[0]


def s_norm(X, op, ord=None):
    """``|S X|``: the sketch Frobenius norm, or with ``ord=2`` the sketch
    spectral norm."""
    return np.linalg.norm(op.apply(X), ord)


def s_orthonormal(rng, op, m, n):
    Q, _ = sketched_qr(rng.standard_normal((m, n)), op)
    return Q


class TestNearestStsOrthogonal:
    def test_already_s_orthogonal(self):
        m, n = 60, 5
        op = build_sketch("gaussian", 30, m, seed=1)
        A = s_orthonormal(np.random.default_rng(2), op, m, n)
        pair = nearest_sts_orthogonal(A, op)
        np.testing.assert_allclose(pair.P, A, atol=1e-9)
        np.testing.assert_allclose(pair.H, np.eye(n), atol=1e-9)
        assert s_norm(A - pair.P, op) <= 1e-8

    def test_scaled_s_orthogonal(self):
        m, n = 50, 4
        op = build_sketch("srtt", 25, m, seed=3)
        W0 = s_orthonormal(np.random.default_rng(4), op, m, n)
        pair = nearest_sts_orthogonal(3.0 * W0, op)
        np.testing.assert_allclose(pair.P, W0, atol=1e-9)
        np.testing.assert_allclose(pair.H, 3.0 * np.eye(n), atol=1e-9)
        assert s_norm(3.0 * W0 - pair.P, op, 2) == pytest.approx(2.0, rel=1e-9)

    def test_decomposition_contract(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((40, 6))
        op = build_sketch("gaussian", 24, 40, seed=6)
        pair = nearest_sts_orthogonal(A, op)
        nrm = np.linalg.norm(A, 2)
        assert np.linalg.norm(A - pair.P @ pair.H, 2) <= 1e-10 * nrm
        np.testing.assert_allclose(pair.H, pair.H.T, atol=1e-12)
        assert np.linalg.eigvalsh(pair.H).min() >= -1e-12 * nrm
        SP = op.apply(pair.P)
        assert np.linalg.norm(SP.T @ SP - np.eye(6), 2) <= 1e-10

    def test_residual_identities(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((40, 6))
        op = build_sketch("gaussian", 24, 40, seed=8)
        f = sts_svd(A, op)
        pair = nearest_sts_orthogonal(A, op)
        assert s_norm(A - pair.P, op) == pytest.approx(
            np.sqrt(np.sum((f.theta - 1.0) ** 2)), rel=1e-10
        )
        assert s_norm(A - pair.P, op, 2) == pytest.approx(
            np.abs(f.theta - 1.0).max(), rel=1e-10
        )

    def test_beats_random_competitors(self):
        rng = np.random.default_rng(9)
        A = rng.standard_normal((40, 6))
        op = build_sketch("gaussian", 24, 40, seed=10)
        f = sts_svd(A, op)
        pair = nearest_sts_orthogonal(A, op)
        best_f = s_norm(A - pair.P, op)
        best_2 = s_norm(A - pair.P, op, 2)
        for _ in range(300):
            L = rand_orthonormal(rng, 6, 6)
            Q = (f.W @ L) @ f.V.T
            comp_f = s_norm(A - Q, op)
            comp_2 = s_norm(A - Q, op, 2)
            assert comp_f >= best_f - 1e-10
            assert comp_2 >= best_2 - 1e-10
            if comp_f <= best_f + 1e-10:
                assert np.linalg.norm(L - np.eye(6)) < 1e-8

    def test_sparse_input(self):
        import scipy.sparse as sp

        rng = np.random.default_rng(20)
        A = sp.random_array((120, 6), density=0.2, rng=rng).tocsr()
        op = build_sketch("gaussian", 36, 120, seed=21)
        pair = nearest_sts_orthogonal(A, op)
        dense = A.toarray()
        assert np.linalg.norm(dense - pair.P @ pair.H, 2) <= 1e-10 * np.linalg.norm(
            dense, 2
        )

    def test_rank_deficient_rejected(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal(30)
        A = np.column_stack([a, 2 * a, rng.standard_normal(30)])
        op = build_sketch("gaussian", 12, 30, seed=12)
        with pytest.raises(RankDeficiencyError):
            nearest_sts_orthogonal(A, op)

    @pytest.mark.parametrize("kappa", [1e6, 1e10])
    @pytest.mark.parametrize("kind", KINDS)
    def test_rotated_against_mpmath(self, kind, kappa):
        # P = A (A^T S^T S A)^(-1/2) in 60 digits, from the operator's own
        # dense matrix; the computed P is within u * kappa(A) of it
        mpmath = pytest.importorskip("mpmath")
        m, n = 200, 8
        rng = np.random.default_rng(7)
        sigma = np.logspace(0, -np.log10(kappa), n)
        A = (rand_orthonormal(rng, m, n) * sigma) @ rand_orthonormal(rng, n, n).T
        op = build_sketch(kind, 6 * n, m, seed=8)
        with mpmath.workdps(60):
            Am = mpmath.matrix(A.tolist())
            SA = mpmath.matrix(op.materialize().tolist()) * Am
            lam, E = mpmath.eigsy(SA.T * SA)
            inv_root = mpmath.diag([1 / mpmath.sqrt(v) for v in lam])
            want = np.array((Am * (E * inv_root * E.T)).tolist(), dtype=float)
        got = nearest_sts_orthogonal(A, op).P
        assert np.abs(got - want).max() <= np.finfo(float).eps * kappa


@pytest.mark.parametrize("route", [sts_svd, nearest_sts_orthogonal])
def test_rank_warning_names_the_caller(route):
    # s < n: the warning is reported at this file's call, not in the package
    A = np.random.default_rng(11).standard_normal((40, 10))
    op = build_sketch("gaussian", 4, 40, seed=12)
    with pytest.warns(SketchRankWarning) as record, suppress(RankDeficiencyError):
        route(A, op)
    assert [w.filename for w in record] == [__file__]


class TestNearestOrthogonal:
    def test_orthogonal_fixed_point(self):
        A = rand_orthonormal(np.random.default_rng(1), 12, 4)
        pair = nearest_orthogonal(A)
        np.testing.assert_allclose(pair.P, A, atol=1e-12)

    def test_diagonal_embedded(self):
        A = np.zeros((4, 2))
        A[0, 0] = 2.0
        A[1, 1] = 0.5
        pair = nearest_orthogonal(A)
        np.testing.assert_allclose(pair.P, np.eye(4)[:, :2], atol=1e-14)
        assert spectral_norm(A - pair.P) == pytest.approx(1.0, rel=1e-12)

    def test_classical_minimality(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((15, 4))
        pair = nearest_orthogonal(A)
        best_2 = np.linalg.norm(A - pair.P, 2)
        best_f = np.linalg.norm(A - pair.P)
        for _ in range(500):
            Z = rand_orthonormal(rng, 15, 4)
            assert np.linalg.norm(A - Z, 2) >= best_2 - 1e-10
            assert np.linalg.norm(A - Z) >= best_f - 1e-10


class TestNearestStsOrthogonalOfOrthonormal:
    def test_full_sample_identity(self):
        m = 20
        op = build_sketch("srtt", m, m, seed=1)
        T = rand_orthonormal(np.random.default_rng(2), m, 5)
        pair = nearest_sts_orthogonal(T, op)
        np.testing.assert_allclose(pair.P, T, atol=1e-10)
        np.testing.assert_allclose(pair.H, np.eye(5), atol=1e-10)

    def test_single_column(self):
        m = 30
        op = build_sketch("gaussian", 10, m, seed=3)
        t = np.zeros((m, 1))
        t[2, 0] = 1.0
        pair = nearest_sts_orthogonal(t, op)
        nrm = np.linalg.norm(op.apply(t))
        assert pair.H[0, 0] == pytest.approx(nrm, rel=1e-12)
        np.testing.assert_allclose(pair.P, t / nrm, atol=1e-12)

    def test_distance_bounded_by_distortion(self):
        rng = np.random.default_rng(4)
        T = rand_orthonormal(rng, 60, 5)
        op = build_sketch("gaussian", 30, 60, seed=5)
        pair = nearest_sts_orthogonal(T, op)
        cert = empirical_epsilon(op, T)
        assert s_norm(T - pair.P, op, 2) <= cert.epsilon_emp + 1e-10
        # the factor is sketch-orthonormal and reconstructs T
        SQ = op.apply(pair.P)
        assert np.linalg.norm(SQ.T @ SQ - np.eye(5), 2) <= 1e-8
        assert np.linalg.norm(T - pair.P @ pair.H, 2) <= 1e-10

    def test_singular_sketched_gram(self):
        # s = 1 cannot embed a 2-dimensional range: one value is retained
        op = build_sketch("srtt", 1, 10, seed=7)
        T = np.eye(10)[:, :2]
        with pytest.warns(SketchRankWarning), pytest.raises(RankDeficiencyError):
            nearest_sts_orthogonal(T, op)


class TestOrthogonalityReport:
    def test_full_sample_all_tiny(self):
        m, n = 30, 4
        op = build_sketch("srtt", m, m, seed=1)
        P = rand_orthonormal(np.random.default_rng(2), m, n)
        cert = empirical_epsilon(op, P)
        reports = orthogonality_report(P, op, cert)
        # orthonormal and sketch-orthonormal at once: both report sets
        ids = {r.bound_id for r in reports}
        assert ids == {
            "gram_defect_two", "gram_defect_fro",
            "dist_to_orthonormal_upper", "dist_to_orthonormal_lower",
            "sketched_gram_defect_two", "sketched_gram_defect_fro",
        }
        assert all(r.passed for r in reports)
        assert cert.epsilon_emp <= 1e-10
        for r in reports:
            if r.bound_id in ("gram_defect_two", "sketched_gram_defect_two"):
                assert r.lhs <= 1e-10

    def test_s_orthonormal_bounds_at_measured_eps(self):
        m, n = 400, 10
        for seed in range(20):
            op = build_sketch("gaussian", 10 * n, m, seed=seed)
            P = s_orthonormal(np.random.default_rng(seed), op, m, n)
            cert = empirical_epsilon(op, range_basis(P))
            reports = orthogonality_report(P, op, cert)
            assert cert.epsilon_emp < 1.0
            failed = [r for r in reports if not r.passed]
            assert not failed, failed

    def test_orthonormal_bounds_at_measured_eps(self):
        m, n = 300, 8
        for seed in range(20):
            op = build_sketch("srtt", 4 * n, m, seed=seed)
            T = rand_orthonormal(np.random.default_rng(seed), m, n)
            cert = empirical_epsilon(op, T)
            reports = orthogonality_report(T, op, cert)
            ids = {r.bound_id for r in reports}
            assert "sketched_gram_defect_two" in ids
            failed = [r for r in reports if not r.passed]
            assert not failed, failed

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("kappa", [1.0, 1e4, 1e8])
    def test_distance_matches_polar_factor(self, kappa, kind):
        # the singular values of P give both sides; compare with the
        # explicit polar factor and Gram-matrix norms
        m, n = 300, 12
        rng = np.random.default_rng(int(np.log10(kappa)))
        A = rng.standard_normal((m, n)) * np.logspace(0, -np.log10(kappa), n)
        op = build_sketch(kind, 4 * n, m, seed=2)
        P, _ = sketched_qr(A, op)
        cert = empirical_epsilon(op, range_basis(P))
        got = {r.bound_id: r for r in orthogonality_report(P, op, cert)}
        dist = spectral_norm(P - polar_factors(P).P)
        gram_two = np.linalg.norm(P.T @ P - np.eye(n), 2)
        upper = got["dist_to_orthonormal_upper"]
        lower = got["dist_to_orthonormal_lower"]
        assert abs(upper.lhs - dist) <= 1e-14
        assert abs(lower.rhs - dist) <= 1e-14
        assert abs(lower.lhs - gram_two / (spectral_norm(P) + 1.0)) <= 1e-14

    def test_unclassifiable_rejected(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((20, 3))
        op = build_sketch("gaussian", 12, 20, seed=4)
        cert = empirical_epsilon(op, range_basis(A))
        with pytest.raises(PreconditionError):
            orthogonality_report(A, op, cert)


class TestNearestSandwich:
    def test_orthogonal_input(self):
        A = rand_orthonormal(np.random.default_rng(1), 50, 5)
        op = build_sketch("gaussian", 40, 50, seed=2)
        result = nearest_sandwich_report(A, op)
        assert result.passed
        assert result.dist_classical <= 1e-12
        factor = result.epsilon_emp / (1.0 - result.epsilon_emp)
        assert result.dist_sketched <= factor + 1e-10

    def test_many_seeds(self):
        # At s = 80 about 0.3% of gaussian tables measure epsilon_emp >= 1 on
        # this shape, so 3 or more of 50 seeds has probability about 5e-4.
        wide = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            A = rng.standard_normal((100, 8))
            op = build_sketch("gaussian", 80, 100, seed=seed)
            result = nearest_sandwich_report(A, op)
            assert result.lower.passed and result.upper.passed
            wide += result.epsilon_emp >= 1.0
        assert wide <= 2

    def test_report_fields(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((60, 5))
        op = build_sketch("srtt", 40, 60, seed=4)
        result = nearest_sandwich_report(A, op)
        assert result.lower.bound_id == "nearest_sandwich_lower"
        assert result.upper.bound_id == "nearest_sandwich_upper"
        assert result.upper.lhs == pytest.approx(result.dist_sketched)
        assert result.lower.rhs == pytest.approx(result.dist_sketched)


    @pytest.mark.parametrize("kappa", [1.0, 1e10])
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_default_certificate_covers_every_derivation_subspace(
        self, kind, sparse, kappa
    ):
        # The default certificate is measured over Range(T); it must equal
        # the one over the union of every subspace the sandwich's
        # derivation touches (A, T, and T - Q_T).
        m, n = 200, 8
        rng = np.random.default_rng(7)
        if sparse:
            A = gen_sparse_conditioned(m, n, 0.2, kappa, seed=7)
        else:
            sigma = np.logspace(0, -np.log10(kappa), n)
            A = (rand_orthonormal(rng, m, n) * sigma) @ rand_orthonormal(rng, n, n).T
        op = build_sketch(kind, 6 * n, m, seed=8)
        T = nearest_orthogonal(A).P
        Q_T = nearest_sts_orthogonal(T, op).P
        union = empirical_epsilon(op, range_basis(A, T, T - Q_T))
        assert union.subspace_dim == n
        result = nearest_sandwich_report(A, op)
        assert result.epsilon_emp == pytest.approx(union.epsilon_emp, abs=1e-12)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rotated_certificate_against_mpmath(self, kind):
        # Rotated input at kappa(A) = 1e6 takes the explicit route: its
        # certificate is 5e-13 to 5e-12 from the one over the exact T, where
        # the n x n sigma(diag(sigma)^-1 M diag(theta)) is 1e-11 to 5e-11 off.
        mpmath = pytest.importorskip("mpmath")
        m, n = 200, 8
        rng = np.random.default_rng(7)
        sigma = np.logspace(0, -6, n)
        A = (rand_orthonormal(rng, m, n) * sigma) @ rand_orthonormal(rng, n, n).T
        with mpmath.workdps(60):
            Am = mpmath.matrix(A.tolist())
            lam, E = mpmath.eigsy(Am.T * Am)
            inv_root = mpmath.diag([1 / mpmath.sqrt(v) for v in lam])
            T = np.array((Am * (E * inv_root * E.T)).tolist(), dtype=float)
        op = build_sketch(kind, 6 * n, m, seed=8)
        want = empirical_epsilon(op, T).epsilon_emp
        got = nearest_sandwich_report(A, op).epsilon_emp
        assert got == pytest.approx(want, rel=0, abs=2e-11)


    @pytest.mark.parametrize("kind", KINDS)
    def test_rotated_distances_against_mpmath(self, kind):
        # |A - T|, |A - P| and |P - T| over the exact T and P in 60 digits;
        # at kappa(A) = 1e6 the n x n distances were at most 5.5e-11
        # relative off, and the m x n ones 6.2e-11
        mpmath = pytest.importorskip("mpmath")
        m, n = 200, 8
        rng = np.random.default_rng(7)
        sigma = np.logspace(0, -6, n)
        A = (rand_orthonormal(rng, m, n) * sigma) @ rand_orthonormal(rng, n, n).T
        op = build_sketch(kind, 6 * n, m, seed=8)

        def inv_root(G):
            lam, E = mpmath.eigsy(G)
            return E * mpmath.diag([1 / mpmath.sqrt(v) for v in lam]) * E.T

        def norm_two(X):
            return float(mpmath.sqrt(max(mpmath.eigsy(X.T * X, eigvals_only=True))))

        with mpmath.workdps(60):
            Am = mpmath.matrix(A.tolist())
            SA = mpmath.matrix(op.materialize().tolist()) * Am
            T, P = Am * inv_root(Am.T * Am), Am * inv_root(SA.T * SA)
            want = [norm_two(Am - T), norm_two(Am - P), norm_two(P - T)]
        r = nearest_sandwich_report(A, op)
        got = [r.dist_classical, r.dist_sketched, r.dist_between]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=0)


def _explicit_terms(A, op, T, P):
    """The sandwich's terms from the m x n matrices and an apply of S."""
    Ad = to_dense(A)
    return (spectral_norm(Ad - T), spectral_norm(Ad - P), spectral_norm(P - T),
            empirical_epsilon(op, T).epsilon_emp)


def _factored_terms(terms, op, sketched):
    r = terms.report(op, sketched)
    return r.dist_classical, r.dist_sketched, r.dist_between, r.epsilon_emp


class TestSandwichTerms:
    m, n = 2000, 50

    def _matrix(self, sparse, kappa):
        if sparse:
            return gen_sparse_conditioned(self.m, self.n, 0.05, kappa, seed=1)
        rng = np.random.default_rng(2)
        return rng.standard_normal((self.m, self.n)) * np.logspace(
            0, -np.log10(kappa), self.n)

    @pytest.mark.parametrize("kappa", [1.0, 1e10])
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_factored_route_matches_explicit(self, kind, sparse, kappa):
        # Column-graded input keeps kappa(A D) small at any kappa(A).
        A = self._matrix(sparse, kappa)
        T = nearest_orthogonal(A).P
        terms = _SandwichTerms(A)
        assert terms.factored
        for seed in range(2):
            op = build_sketch(kind, 8 * self.n, self.m, seed=seed)
            got = _factored_terms(terms, op, _sketched_polar(A, op))
            want = _explicit_terms(A, op, T, nearest_sts_orthogonal(A, op).P)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kappa", [1.0, 1e10])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_factored_route_forms_no_T(self, monkeypatch, sparse, kappa):
        def no_basis(*args, **kwargs):
            raise AssertionError("the factored route called range_basis")

        A = self._matrix(sparse, kappa)
        monkeypatch.setattr(nearest, "range_basis", no_basis)
        assert _SandwichTerms(A).factored
        op = build_sketch("srtt", 4 * self.n, self.m, seed=6)
        assert nearest_sandwich_report(A, op).passed

    def test_factored_route_holds_one_block(self):
        # beyond A: blocks of _GRAM_ROWS rows and n x n matrices; the dense
        # copy of A, its Q and T would take 8 m n = 16 MB each
        m, n = 20_000, 100
        A = gen_sparse_conditioned(m, n, 0.01, 1e10, seed=3)
        tracemalloc.start()
        try:
            terms = _SandwichTerms(A)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert terms.factored
        assert peak < 8 * (3 * (_GRAM_ROWS + n) * n + 16 * n**2)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rotated_ill_conditioned_takes_explicit_route(self, kind, monkeypatch):
        calls = []

        def recording_basis(*args, **kwargs):
            calls.append(args)
            return range_basis(*args, **kwargs)

        monkeypatch.setattr(nearest, "range_basis", recording_basis)
        op = build_sketch(kind, 8 * self.n, self.m, seed=4)
        for kappa in (1e4, 1e8, 1e12):
            rng = np.random.default_rng(3)
            U = rand_orthonormal(rng, self.m, self.n)
            A = (U * np.logspace(0, -np.log10(kappa), self.n)) @ (
                rand_orthonormal(rng, self.n, self.n).T)
            calls.clear()
            terms = _SandwichTerms(A)
            assert not terms.factored
            assert len(calls) == 1
            got = _factored_terms(terms, op, _sketched_polar(A, op))
            want = _explicit_terms(A, op, nearest_orthogonal(A).P,
                                   nearest_sts_orthogonal(A, op).P)
            # the certificate is the one over range_basis(A, rtol=0.0), to
            # the bit, and the one over T up to rounding, since
            # sigma(S Q W) = sigma(S Q) for orthogonal W; the distances come
            # from n x n factors, within about u * kappa(A) of the m x n ones
            basis = range_basis(A, rtol=0.0)
            assert got[3] == empirical_epsilon(op, basis).epsilon_emp
            assert got[3] == pytest.approx(want[3], rel=1e-13, abs=0)
            np.testing.assert_allclose(got[:3], want[:3], rtol=2e-16 * kappa, atol=0)

    def test_explicit_basis_keeps_every_direction(self):
        # past 1 / (m u), where range_basis's default cutoff would trim the
        # basis, the audited subspace is still all of Range(A), as Range(T) is
        rng = np.random.default_rng(8)
        A = (rand_orthonormal(rng, self.m, self.n) * np.logspace(0, -14, self.n)) @ (
            rand_orthonormal(rng, self.n, self.n).T)
        assert range_basis(A).shape[1] < self.n
        assert _SandwichTerms(A).basis.shape == (self.m, self.n)

    def test_explicit_repetition_holds_no_m_by_n_array(self):
        # a repetition applies S to A and to T in column blocks and forms
        # n x n matrices; P, A - P or P - T would take 8 m n = 16 MB each
        m, n = 20_000, 100
        rng = np.random.default_rng(5)
        A = (rand_orthonormal(rng, m, n) * np.logspace(0, -8, n)) @ (
            rand_orthonormal(rng, n, n).T)
        terms = _SandwichTerms(A)
        assert not terms.factored
        op = build_sketch("srtt", 4 * n, m, seed=6)
        tracemalloc.start()
        try:
            terms.report(op, _sketched_polar(A, op))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * m * n

    @pytest.mark.parametrize("kappa", [1.0, 1e10])
    def test_route_and_certificate_do_not_depend_on_scale(self, kappa):
        # kappa(A D) squares no entry, so it neither overflows nor underflows
        A = self._matrix(False, kappa)
        op = build_sketch("srtt", 4 * self.n, self.m, seed=7)
        want = _SandwichTerms(A).certificate(op, _sketched_polar(A, op))
        for scale in (2.0**-700, 2.0**600):
            terms = _SandwichTerms(scale * A)
            assert terms.factored
            got = terms.certificate(op, _sketched_polar(scale * A, op))
            assert got.epsilon_emp == pytest.approx(want.epsilon_emp, rel=1e-12)

    def test_certificate_fields(self):
        A = self._matrix(False, 1.0)
        T = nearest_orthogonal(A).P
        op = build_sketch("srtt", 4 * self.n, self.m, seed=5)
        got = _SandwichTerms(A).certificate(op, _sketched_polar(A, op))
        want = empirical_epsilon(op, T)
        assert got.subspace_dim == want.subspace_dim == self.n
        assert got.sigma_min_sketched == pytest.approx(want.sigma_min_sketched, rel=1e-12)
        assert got.sigma_max_sketched == pytest.approx(want.sigma_max_sketched, rel=1e-12)


class TestRowBlockedR:
    """nearest's H, from the row-blocked R of householder_qr."""

    @pytest.mark.parametrize("m", [50, 1000, _GRAM_ROWS])
    def test_one_block_is_householder_qr(self, m):
        # one block is the one-shot Householder R of polar_factors, so
        # nearest's H, and its outputs, are the ones polar_factors gives
        rng = np.random.default_rng(m)
        A = rng.standard_normal((m, 50)) * np.logspace(0, -10, 50)
        terms = _SandwichTerms(A)
        H = _symmetric_factor(terms.V, terms.sigma)
        assert np.array_equal(H, polar_factors(A).H)

    def test_wide_rejected(self):
        for A in (np.ones((2, 5)), sp.csr_matrix(np.ones((2, 5)))):
            with pytest.raises(ShapeError):
                _SandwichTerms(A)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_graded_h_against_mpmath(self, sparse):
        # H = (A^T A)^(1/2) in 60 digits, over three row blocks; column
        # grading to 1e10 leaves kappa(A D) small, so H stays at roundoff
        # relative to each column's norm
        mpmath = pytest.importorskip("mpmath")
        m, n = 2 * _GRAM_ROWS + 7, 6
        if sparse:
            A = gen_sparse_conditioned(m, n, 0.05, 1e10, seed=4)
            X = to_dense(A)
        else:
            rng = np.random.default_rng(4)
            A = X = rng.standard_normal((m, n)) * np.logspace(0, -10, n)
        with mpmath.workdps(60):
            cols = [[mpmath.mpf(v) for v in X[:, j]] for j in range(n)]
            gram = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(i + 1):
                    gram[i, j] = gram[j, i] = mpmath.fdot(cols[i], cols[j])
            lam, E = mpmath.eigsy(gram)
            H = E * mpmath.diag([mpmath.sqrt(v) for v in lam]) * E.T
            want = np.array(H.tolist(), dtype=float)
        terms = _SandwichTerms(A)
        got = _symmetric_factor(terms.V, terms.sigma)
        assert np.max(np.abs(got - want) / np.linalg.norm(want, axis=0)) <= 1e-14


class TestLossBounds:
    def test_rhs_and_pass_slack(self):
        eps = 1.0 / 3.0  # eps / (1 - eps) = 0.5
        two, fro = loss_bounds(0.5 + 5e-11, 1.0 + 5e-11, 4, eps)
        assert (two.bound_id, fro.bound_id) == ("gram_defect_two", "gram_defect_fro")
        assert two.rhs == pytest.approx(0.5, rel=1e-15)
        assert fro.rhs == pytest.approx(1.0, rel=1e-15)
        assert two.passed and fro.passed
        two, fro = loss_bounds(0.5 + 1e-9, 0.0, 4, eps)
        assert not two.passed and fro.passed

    def test_unbounded_at_unit_distortion(self):
        two, fro = loss_bounds(1e6, 1e6, 4, 1.0)
        assert two.rhs == np.inf and fro.rhs == np.inf
        assert two.passed and fro.passed


class TestReportSerialization:
    def _reports(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((40, 4))
        op = build_sketch("gaussian", 32, 40, seed=6)
        P = nearest_sts_orthogonal(A, op).P
        cert = empirical_epsilon(op, range_basis(P))
        return orthogonality_report(P, op, cert)

    def test_pass_flag_invariant(self):
        for rep in self._reports():
            assert rep.passed == (rep.lhs <= rep.rhs + 1e-10)
