import tracemalloc

import numpy as np
import pytest

from kmz import matrix as mx
from kmz import oracle
from kmz import problems as pb
from kmz.errors import MatrixError, ProblemError


class TestDenseGaussian:
    def test_determinism(self):
        A = pb.gen_dense_gaussian(20, 7, seed=5)
        B = pb.gen_dense_gaussian(20, 7, seed=5)
        assert np.array_equal(A.dense, B.dense)
        C = pb.gen_dense_gaussian(20, 7, seed=6)
        assert not np.array_equal(A.dense, C.dense)

    def test_moments(self):
        A = pb.gen_dense_gaussian(10_000, 500, seed=0)
        assert abs(A.dense.mean()) < 0.02
        assert abs(A.dense.var() - 1.0) < 0.02

    def test_tiny(self):
        A = pb.gen_dense_gaussian(1, 1, seed=0)
        assert A.shape == (1, 1) and np.isfinite(A.dense[0, 0])

    def test_bad_shape(self):
        with pytest.raises(ProblemError):
            pb.gen_dense_gaussian(0, 5, seed=0)


class TestSparseGaussian:
    def test_density_one_is_full(self):
        A = pb.gen_sparse_gaussian(10, 6, 1.0, seed=0)
        assert not A.is_dense
        assert np.all(A.to_dense() != 0.0)

    def test_stored_fraction(self):
        A = pb.gen_sparse_gaussian(2000, 400, 0.1, seed=1)
        frac = A.csr.nnz / (2000 * 400)
        assert abs(frac - 0.1) < 0.005

    def test_density_out_of_range(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ProblemError):
                pb.gen_sparse_gaussian(5, 5, bad, seed=0)

    def test_mask_is_never_whole(self):
        # one m x n boolean mask alone takes m n bytes; the mask used to be
        # a whole m x n draw of doubles, eight times that
        m, n = 20_000, 500
        tracemalloc.start()
        try:
            A = pb.gen_sparse_gaussian(m, n, 1e-3, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * n
        assert abs(A.csr.nnz / (m * n) - 1e-3) < 1e-4

    def test_pattern_substream_independent_of_values(self):
        A = pb.gen_sparse_gaussian(50, 30, 0.2, seed=7)
        B = pb.gen_sparse_gaussian(50, 30, 0.2, seed=7)
        assert np.array_equal(A.csr.indptr, B.csr.indptr)
        assert np.array_equal(A.csr.indices, B.csr.indices)
        assert np.array_equal(A.csr.data, B.csr.data)


class TestRankDeficiency:
    def test_dense_last_row_is_average(self):
        A = pb.gen_dense_gaussian(6, 4, seed=2)
        B = pb.enforce_rank_deficiency(A)
        assert np.allclose(B.dense[-1], 0.5 * (A.dense[0] + A.dense[1]))
        assert np.array_equal(B.dense[:-1], A.dense[:-1])

    def test_idempotent(self):
        A = pb.enforce_rank_deficiency(pb.gen_dense_gaussian(6, 4, seed=3))
        B = pb.enforce_rank_deficiency(A)
        assert np.allclose(A.to_dense(), B.to_dense())

    def test_sparse_variant(self):
        A = pb.gen_sparse_gaussian(8, 5, 0.5, seed=4)
        B = pb.enforce_rank_deficiency(A)
        assert not B.is_dense
        dense = A.to_dense()
        assert np.allclose(B.to_dense()[-1], 0.5 * (dense[0] + dense[1]))

    def test_zero_leading_rows(self):
        dense = np.zeros((4, 3))
        dense[2] = [1.0, 2.0, 3.0]
        dense[3] = [4.0, 5.0, 6.0]
        B = pb.enforce_rank_deficiency(mx.from_dense(dense))
        assert np.array_equal(B.dense[-1], [0.0, 0.0, 0.0])

    def test_one_copy_of_the_entries(self):
        # A and the handle's copy, nothing more: a second copy of 1.6 MB
        # would show in the peak
        A = pb.gen_dense_gaussian(1000, 200, seed=6)
        tracemalloc.start()
        try:
            B = pb.enforce_rank_deficiency(A)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert B.dense.flags.f_contiguous and B.dense.flags.owndata
        assert not np.shares_memory(B.dense, A.dense)
        assert A.dense.nbytes <= peak < 1.2 * A.dense.nbytes

    def test_overflowing_average_rejected(self):
        A = mx.from_dense([[1e308, 1.0], [1e308, 1.0], [0.0, 1.0]])
        with pytest.raises(MatrixError, match="non-finite"):
            pb.enforce_rank_deficiency(A)

    def test_too_few_rows(self):
        with pytest.raises(ProblemError):
            pb.enforce_rank_deficiency(pb.gen_dense_gaussian(2, 2, seed=0))

    def test_reduces_rank(self):
        A = pb.enforce_rank_deficiency(pb.gen_dense_gaussian(5, 5, seed=5))
        prof = oracle.spectral_profile(A)
        assert np.linalg.matrix_rank(A.dense) == 4
        assert prof.alpha < 1.0


class TestInconsistentRhs:
    def test_construction_identities(self):
        A = pb.gen_dense_gaussian(30, 8, seed=6)
        x_star = np.ones(8)
        b, r = pb.build_inconsistent_rhs(A, x_star, seed=7, scale=0.25)
        ax = mx.matvec(A, x_star)
        assert np.allclose(b, ax + r)
        assert np.linalg.norm(r) == pytest.approx(0.25 * np.linalg.norm(ax), rel=1e-12)

    def test_residual_orthogonal_to_range(self):
        rng = np.random.default_rng(8)
        for trial in range(50):
            m, n = int(rng.integers(6, 25)), int(rng.integers(3, 10))
            if m <= n:
                m = n + 3
            A = pb.gen_dense_gaussian(m, n, seed=trial)
            if trial % 2 == 0:
                A = pb.enforce_rank_deficiency(A)
            b, r = pb.build_inconsistent_rhs(A, np.ones(n), seed=trial + 1, scale=0.5)
            at_r = A.dense.T @ r
            assert np.linalg.norm(at_r) <= 1e-9 * np.sqrt(A.frob_sq) * np.linalg.norm(r)

    def test_determinism(self):
        A = pb.gen_dense_gaussian(20, 5, seed=9)
        b1, r1 = pb.build_inconsistent_rhs(A, np.ones(5), seed=3, scale=0.25)
        b2, r2 = pb.build_inconsistent_rhs(A, np.ones(5), seed=3, scale=0.25)
        assert np.array_equal(b1, b2) and np.array_equal(r1, r2)

    def test_scale_must_be_positive(self):
        A = pb.gen_dense_gaussian(10, 3, seed=0)
        with pytest.raises(ProblemError):
            pb.build_inconsistent_rhs(A, np.ones(3), seed=0, scale=0.0)

    def test_full_rank_square_rejected(self):
        A = mx.from_dense(np.eye(4))
        with pytest.raises(ProblemError):
            pb.build_inconsistent_rhs(A, np.ones(4), seed=0, scale=0.25)

    def test_zero_image_rejected(self):
        A = pb.gen_dense_gaussian(10, 3, seed=1)
        with pytest.raises(ProblemError):
            pb.build_inconsistent_rhs(A, np.zeros(3), seed=0, scale=0.25)


class TestNoise:
    def test_zero_level(self):
        b = np.array([1.0, 2.0])
        out, r = pb.add_gaussian_noise(b, 0.0, seed=0)
        assert np.array_equal(out, b) and np.all(r == 0.0)

    def test_exact_relative_norm(self):
        b = np.random.default_rng(10).standard_normal(200)
        out, r = pb.add_gaussian_noise(b, 0.01, seed=1)
        ratio = np.linalg.norm(r) / np.linalg.norm(b)
        assert ratio == pytest.approx(0.01, abs=1e-12)
        assert np.allclose(out, b + r)

    def test_determinism(self):
        b = np.arange(1.0, 10.0)
        out1, _ = pb.add_gaussian_noise(b, 0.05, seed=2)
        out2, _ = pb.add_gaussian_noise(b, 0.05, seed=2)
        assert np.array_equal(out1, out2)

    def test_zero_rhs_rejected(self):
        with pytest.raises(ProblemError):
            pb.add_gaussian_noise(np.zeros(3), 0.01, seed=0)


class TestTomography:
    def geom(self, **kw):
        base = dict(image_n=8, half_width=4.0,
                    angles_deg=list(np.arange(0.0, 180.0, 15.0)), rays=11, span=10.0)
        base.update(kw)
        return pb.TomoGeometry(**base)

    def test_shape_and_sign(self):
        g = self.geom()
        A = pb.gen_parallel_tomo(g)
        assert A.shape == (g.rows, g.cols) == (12 * 11, 64)
        assert not A.is_dense
        assert np.all(A.csr.data >= 0.0)

    def test_row_sum_bounded_by_diameter(self):
        A = pb.gen_parallel_tomo(self.geom())
        sums = np.asarray(A.csr.sum(axis=1)).ravel()
        assert np.all(sums <= 2.0 * np.sqrt(2.0) * 4.0 + 1e-9)

    def test_axis_aligned_ray_full_crossing(self):
        # horizontal rays inside the domain cross exactly 2*half_width of material
        g = self.geom(angles_deg=[0.0], rays=5, span=6.0)
        A = pb.gen_parallel_tomo(g)
        sums = np.asarray(A.csr.sum(axis=1)).ravel()
        assert np.allclose(sums, 8.0, rtol=1e-10)

    def test_center_ray_unit_pixels(self):
        # N=4 over [-2,2]^2: a horizontal center ray at offset h/2 crosses four
        # pixels of one row, each with intersection length exactly 1
        g = pb.TomoGeometry(image_n=4, half_width=2.0, angles_deg=[0.0],
                            rays=1, span=1.0)
        A = pb.gen_parallel_tomo(g)
        row = A.to_dense()[0]
        nz = row[row > 0]
        assert nz.size == 0 or np.allclose(nz, 1.0)

    def test_ray_missing_domain_gives_zero_row(self):
        # offsets -15, 0, 15: only the center ray intersects [-4,4]^2
        g = self.geom(angles_deg=[0.0], rays=3, span=30.0)
        A = pb.gen_parallel_tomo(g)
        sums = np.asarray(A.csr.sum(axis=1)).ravel()
        assert sums[0] == 0.0 and sums[2] == 0.0 and sums[1] > 0.0

    def test_all_rays_missing_rejected(self):
        g = self.geom(angles_deg=[0.0], rays=2, span=30.0)  # offsets +-15 > d*sqrt(2)
        with pytest.raises(ProblemError):
            pb.gen_parallel_tomo(g)

    def test_reference_geometry_shape(self):
        g = pb.TomoGeometry(image_n=40, half_width=20.0,
                            angles_deg=list(np.arange(0.0, 151.0, 2.0)),
                            rays=125, span=120.0)
        A = pb.gen_parallel_tomo(g)
        assert A.shape == (9500, 1600)

    def test_degenerate_geometry_rejected(self):
        with pytest.raises(ProblemError):
            pb.gen_parallel_tomo(self.geom(image_n=0))
        with pytest.raises(ProblemError):
            pb.gen_parallel_tomo(self.geom(angles_deg=[]))
        with pytest.raises(ProblemError):
            pb.gen_parallel_tomo(self.geom(span=0.0))

    def test_projection_consistency(self):
        # a constant image integrates to the ray lengths themselves
        g = self.geom()
        A = pb.gen_parallel_tomo(g)
        ones_img = np.ones(g.cols)
        sums = np.asarray(A.csr.sum(axis=1)).ravel()
        assert np.allclose(mx.matvec(A, ones_img), sums, rtol=1e-12)


class TestPhantom:
    def test_range_and_support(self):
        img = pb.shepp_logan_phantom(64)
        assert img.shape == (64, 64)
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert img.max() > 0.5  # skull shell present
        for corner in (img[0, 0], img[0, -1], img[-1, 0], img[-1, -1]):
            assert corner == 0.0

    def test_interior_darker_than_shell(self):
        img = pb.shepp_logan_phantom(64)
        assert img[32, 32] < img.max()

    def test_determinism_and_column_major_flatten(self):
        img = pb.shepp_logan_phantom(40)
        assert np.array_equal(img, pb.shepp_logan_phantom(40))
        assert img.flatten(order="F").shape == (1600,)

    def test_too_small(self):
        with pytest.raises(ProblemError):
            pb.shepp_logan_phantom(4)


class TestProblemIO:
    def test_roundtrip_dense(self, tmp_path):
        A = pb.gen_dense_gaussian(12, 5, seed=11)
        b, r = pb.build_inconsistent_rhs(A, np.ones(5), seed=12, scale=0.25)
        prob = pb.ProblemInstance(A=A, b=b, x_star=np.ones(5), r_tilde=r,
                                  kind=pb.DENSE, seed=11, meta={"note": "t"})
        pb.save_problem(prob, tmp_path / "p")
        back = pb.load_problem(tmp_path / "p")
        assert np.array_equal(back.A.to_dense(), A.to_dense())
        assert np.array_equal(back.b, b)
        assert np.array_equal(back.x_star, np.ones(5))
        assert np.array_equal(back.r_tilde, r)
        assert back.kind == pb.DENSE and back.seed == 11
        assert back.meta["note"] == "t"

    def test_roundtrip_tomo_geometry(self, tmp_path):
        g = pb.TomoGeometry(image_n=8, half_width=4.0, angles_deg=[0.0, 45.0],
                            rays=5, span=6.0)
        A = pb.gen_parallel_tomo(g)
        img = pb.shepp_logan_phantom(8).flatten(order="F")
        prob = pb.ProblemInstance(A=A, b=mx.matvec(A, img), x_star=img,
                                  kind=pb.TOMO, seed=0, geometry=g)
        pb.save_problem(prob, tmp_path / "t")
        back = pb.load_problem(tmp_path / "t")
        assert back.kind == pb.TOMO
        assert back.geometry.to_dict() == g.to_dict()
        assert np.array_equal(back.A.to_dense(), A.to_dense())

    def test_missing_optional_vectors(self, tmp_path):
        A = pb.gen_dense_gaussian(4, 3, seed=0)
        prob = pb.ProblemInstance(A=A, b=np.ones(4))
        pb.save_problem(prob, tmp_path / "m")
        back = pb.load_problem(tmp_path / "m")
        assert back.x_star is None and back.r_tilde is None
