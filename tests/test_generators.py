import numpy as np
import pytest
import scipy.sparse as sp

from sketchsvd import GenerationError, gen_cauchy, gen_sparse_conditioned
from sketchsvd.stssvd import numerical_rank


class TestGenCauchy:
    def test_closed_form_n2(self):
        C = gen_cauchy(2)
        # grids are the interval endpoints
        np.testing.assert_allclose(C[0, 0], 1.0 / (2.0 - 1000.0))
        np.testing.assert_allclose(C[0, 1], 1.0 / (2.0 - 500.0))
        np.testing.assert_allclose(C[1, 0], 1.0 / (100.0 - 1000.0))
        np.testing.assert_allclose(C[1, 1], 1.0 / (100.0 - 500.0))

    def test_numerically_low_rank(self):
        C = gen_cauchy(200)
        sigma = np.linalg.svd(C, compute_uv=False)
        assert numerical_rank(sigma, 1e-12) <= 12

    def test_entries_match_rule(self):
        C = gen_cauchy(5)
        x = np.linspace(2, 100, 5)
        y = np.linspace(-1000, -500, 5)
        np.testing.assert_allclose(C, 1.0 / (x[:, None] + y[None, :]))

    def test_too_small(self):
        with pytest.raises(GenerationError):
            gen_cauchy(1)


class TestGenSparseConditioned:
    def test_dense_well_conditioned(self):
        A = gen_sparse_conditioned(30, 8, density=1.0, kappa=1.0, seed=0)
        sigma = np.linalg.svd(A.toarray(), compute_uv=False)
        assert sigma[0] / sigma[-1] <= 10.0

    def test_target_condition_number(self):
        A = gen_sparse_conditioned(2000, 50, density=0.01, kappa=1e10, seed=1)
        sigma = np.linalg.svd(A.toarray(), compute_uv=False)
        kappa = sigma[0] / sigma[-1]
        assert 1e9 <= kappa <= 1e11

    def test_density_and_full_columns(self):
        m, n, density = 500, 40, 0.02
        A = gen_sparse_conditioned(m, n, density, 1e6, seed=2)
        target = density * m * n
        assert abs(A.nnz - target) <= 0.1 * target + n
        counts = np.diff(sp.csc_matrix(A).indptr)
        assert counts.min() >= 1

    def test_sparse_columns_filled_at_tiny_density(self):
        A = gen_sparse_conditioned(50, 30, density=0.001, kappa=10.0, seed=3)
        counts = np.diff(sp.csc_matrix(A).indptr)
        assert counts.min() >= 1

    def test_determinism(self):
        A = gen_sparse_conditioned(100, 10, 0.05, 1e4, seed=7)
        B = gen_sparse_conditioned(100, 10, 0.05, 1e4, seed=7)
        assert (A != B).nnz == 0

    @pytest.mark.parametrize("density", [0.0, 1.5])
    def test_bad_density(self, density):
        with pytest.raises(GenerationError):
            gen_sparse_conditioned(10, 5, density, 10.0, seed=0)

    @pytest.mark.parametrize("kappa", [0.5, np.nan, np.inf])
    def test_bad_kappa(self, kappa):
        with pytest.raises(GenerationError):
            gen_sparse_conditioned(10, 5, 0.5, kappa, seed=0)
