import numpy as np
import pytest
import scipy.sparse as sp

from kmz import matrix as mx
from kmz import oracle
from kmz.errors import ConfigError, KmzError, ScaleCapError


class TestLeastSquares:
    def test_identity(self):
        x = oracle.svd_least_squares(np.eye(2), np.array([3.0, 4.0]))
        assert np.allclose(x, [3.0, 4.0])

    def test_padded_identity(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        x = oracle.svd_least_squares(A, np.array([1.0, 2.0, 9.0]))
        assert np.allclose(x, [1.0, 2.0])

    def test_averaging_column(self):
        x = oracle.svd_least_squares(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
        assert np.allclose(x, [1.0])

    def test_minimum_norm_on_rank_deficient(self):
        A = np.array([[1.0, 1.0]])
        x = oracle.svd_least_squares(A, np.array([2.0]))
        assert np.allclose(x, [1.0, 1.0])  # min-norm representative

    def test_handle_input(self):
        A = mx.from_dense(np.eye(3))
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(oracle.svd_least_squares(A, b), b)

    def test_scale_cap(self):
        with pytest.raises(ScaleCapError):
            oracle.svd_least_squares(np.zeros((2001, 2001)), np.zeros(2001))
        with pytest.raises(ScaleCapError):  # checked before the CSR is made dense
            oracle.svd_least_squares(mx.from_scipy(sp.eye(2001, format="csr")),
                                     np.zeros(2001))

    def test_zero_matrix_rejected(self):
        with pytest.raises(KmzError):
            oracle.svd_least_squares(np.zeros((3, 2)), np.zeros(3))

    def test_optimality_against_perturbations(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((20, 6)) @ rng.standard_normal((6, 8))  # rank 6
        for _ in range(20):
            b = rng.standard_normal(20)
            x = oracle.svd_least_squares(A, b)
            base = np.linalg.norm(A @ x - b)
            for _ in range(20):
                y = x + rng.standard_normal(8) * 0.1
                assert base <= np.linalg.norm(A @ y - b) + 1e-10


class TestRangeDecomposition:
    def test_examples(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        v = np.array([1.0, 2.0, 3.0])
        assert np.allclose(oracle.project_range_perp(A, v), [0.0, 0.0, 3.0])
        assert np.allclose(oracle.project_range_perp(np.eye(2), [5.0, 6.0]), 0.0)

    def test_decomposition_orthogonality(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            A = rng.standard_normal((12, 5))
            v = rng.standard_normal(12)
            perp = oracle.project_range_perp(A, v)
            in_range = v - perp
            assert abs(perp @ in_range) <= 1e-10 * (v @ v)
            assert np.linalg.norm(A.T @ perp) <= 1e-10 * np.linalg.norm(A) * np.linalg.norm(v)


class TestSpectralProfile:
    def test_identity(self):
        p = oracle.spectral_profile(np.eye(3))
        assert p.sigma_min == p.sigma_max == p.kappa == 1.0
        assert p.frob_sq == 3.0
        assert p.alpha == pytest.approx(1.0 - 1.0 / 3.0)
        assert p.gamma == 3.0
        assert p.min_row_norm_sq == 1.0

    def test_diagonal(self):
        p = oracle.spectral_profile(np.diag([1.0, 2.0]))
        assert p.sigma_min == 1.0 and p.sigma_max == 2.0 and p.kappa == 2.0
        assert p.alpha == pytest.approx(1.0 - 1.0 / 5.0)
        assert p.gamma == pytest.approx(8.0)

    def test_rank_deficient_uses_smallest_nonzero(self):
        p = oracle.spectral_profile(np.array([[1.0, 0.0], [2.0, 0.0]]))
        assert p.sigma_min == pytest.approx(np.sqrt(5.0))
        assert p.alpha == pytest.approx(0.0, abs=1e-14)

    def test_alpha_matches_definition(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((30, 8))
        p = oracle.spectral_profile(A)
        s = np.linalg.svd(A, compute_uv=False)
        assert p.alpha == pytest.approx(1.0 - s[-1] ** 2 / (A ** 2).sum(), rel=1e-12)
        assert 0.0 < p.alpha < 1.0


class TestYoungPairing:
    def test_values(self):
        assert oracle.young_pair(0.5) == pytest.approx(-1.0)
        assert oracle.young_pair(0.75) == pytest.approx(-3.0)

    def test_pairing_identity(self):
        for a1 in (0.5, 0.6, 0.9, 0.99):
            b1 = oracle.young_pair(a1)
            assert a1 + b1 == pytest.approx(a1 * b1, rel=1e-12)

    def test_out_of_range(self):
        for bad in (0.4, 1.0, 1.5, -0.5):
            with pytest.raises(ConfigError):
                oracle.young_pair(bad)

    def test_quadratic_inequality_holds(self):
        # (r1 + r2)^2 >= alpha1 r1^2 + beta1 r2^2 for the exact-square pairing
        rng = np.random.default_rng(3)
        a1 = rng.uniform(0.5, 0.99, size=10_000)
        b1 = a1 / (a1 - 1.0)
        r1 = rng.standard_normal(10_000) * 10.0
        r2 = rng.standard_normal(10_000) * 10.0
        slack = (r1 + r2) ** 2 - a1 * r1 ** 2 - b1 * r2 ** 2
        assert np.all(slack >= -1e-12 * (r1 ** 2 + r2 ** 2))

    def test_equality_ray(self):
        # equality holds on (1 - alpha1) r1 = -r2
        for a1 in (0.5, 0.7, 0.9):
            b1 = oracle.young_pair(a1)
            r1 = 3.0
            r2 = -(1.0 - a1) * r1
            lhs = (r1 + r2) ** 2
            rhs = a1 * r1 ** 2 + b1 * r2 ** 2
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestBounds:
    def test_rek_bound_identity(self):
        profile = oracle.spectral_profile(np.eye(2))
        v = oracle.rek_bound(profile, k=4, x0_err_sq=1.0, xstar_norm_sq=1.0)
        assert v == pytest.approx(0.25 * 1.0 + (0.25 + 0.25) * 1.0)

    def test_rek_bound_k0(self):
        profile = oracle.spectral_profile(np.eye(2))
        v = oracle.rek_bound(profile, k=0, x0_err_sq=7.0, xstar_norm_sq=1.0)
        assert v == pytest.approx(7.0 + 2.0)

    def test_rek_bound_decays(self):
        profile = oracle.spectral_profile(np.random.default_rng(4).standard_normal((40, 6)))
        vals = [oracle.rek_bound(profile, k, 1.0, 1.0) for k in (0, 10, 20, 40)]
        assert vals == sorted(vals, reverse=True)


class TestContractionRateCheck:
    def test_k0_row_is_exact(self):
        rng = np.random.default_rng(5)
        A = rng.standard_normal((30, 6))
        b = rng.standard_normal(30)
        rows = oracle.contraction_rate_check(A, b, omega=1, trials=30, k_max=3, seed=0)
        k, mean, env = rows[0]
        assert k == 0
        assert mean == pytest.approx(env, rel=1e-10)

    def test_mean_tracks_envelope(self):
        rng = np.random.default_rng(6)
        A = rng.standard_normal((100, 20))
        b = rng.standard_normal(100)
        for omega in (1, 4):
            rows = oracle.contraction_rate_check(A, b, omega=omega, trials=50,
                                           k_max=30, seed=1)
            for k, mean, env in rows:
                assert mean <= env * 1.10

    def test_omega_floor(self):
        with pytest.raises(ConfigError):
            oracle.contraction_rate_check(np.eye(3), np.ones(3), omega=0, trials=30,
                                          k_max=2, seed=0)

    def test_trials_floor(self):
        with pytest.raises(ConfigError):
            oracle.contraction_rate_check(np.eye(3), np.ones(3), omega=1, trials=10,
                                    k_max=2, seed=0)


class TestDenseInput:
    def test_dense_handle_is_read_in_place(self):
        A = mx.from_dense(np.random.default_rng(3).standard_normal((8, 3)))
        assert np.shares_memory(oracle._as_dense(A), A.dense)
