import numpy as np
import pytest
import scipy.sparse as sp

from kmz import matrix as mx
from kmz.errors import MatrixError, MatrixFormatError


class TestBuild:
    def test_identity_dense(self):
        A = mx.from_dense(np.eye(2))
        assert np.allclose(A.row_norms_sq, [1, 1])
        assert A.frob_sq == pytest.approx(2.0)

    def test_single_row_col_norms(self):
        A = mx.from_dense([[3.0, 4.0, 0.0]])
        assert A.shape == (1, 3)
        assert np.allclose(A.col_norms_sq, [9, 16, 0])
        assert A.frob_sq == pytest.approx(25.0)

    def test_csr_duplicate_column_rejected(self):
        with pytest.raises(MatrixError):
            mx.from_csr(1, 3, [0, 2], [1, 1], [1.0, 2.0])

    def test_csr_unsorted_rejected(self):
        with pytest.raises(MatrixError):
            mx.from_csr(1, 3, [0, 2], [2, 0], [1.0, 2.0])

    def test_csr_triplet_via_build(self):
        A = mx.from_csr(2, 3, np.array([0, 1, 3]), np.array([2, 0, 1]),
                        np.array([5.0, 1.0, 2.0]))
        assert not A.is_dense and A.shape == (2, 3)
        assert np.allclose(A.to_dense(), [[0, 0, 5], [1, 2, 0]])

    def test_non_finite_rejected(self):
        with pytest.raises(MatrixError):
            mx.from_dense([[1.0, np.nan]])
        with pytest.raises(MatrixError):
            mx.from_csr(1, 2, [0, 1], [0], [np.inf])

    def test_offsets_must_match_entry_count(self):
        with pytest.raises(MatrixError):
            mx.from_csr(1, 2, [0, 2], [0], [1.0])
        # the stated shape must agree with the triplet: rows with indptr,
        # cols with every column index
        with pytest.raises(MatrixError):
            mx.from_csr(3, 2, [0, 1], [0], [1.0])
        with pytest.raises(MatrixError):
            mx.from_csr(1, 2, [0, 1], [2], [1.0])

    def test_storage_is_immutable(self):
        A = mx.from_dense(np.eye(2))
        with pytest.raises(ValueError):
            A.dense[0, 0] = 5.0


class TestKernels:
    def test_matvec_identity(self):
        A = mx.from_dense(np.eye(2))
        assert np.allclose(mx.matvec(A, [1.0, 2.0]), [1, 2])

    def test_matvec_padded_identity(self):
        A = mx.from_dense([[1, 0], [0, 1], [0, 0]])
        assert np.allclose(mx.matvec(A, [1.0, 2.0]), [1, 2, 0])

    def test_matvec_row(self):
        A = mx.from_dense([[3.0, 4.0]])
        assert np.allclose(mx.matvec(A, [1.0, 1.0]), [7])

    def test_matvec_length_mismatch(self):
        with pytest.raises(MatrixError):
            mx.matvec(mx.from_dense(np.eye(2)), np.ones(3))

    def test_row_dot(self):
        A = mx.from_dense([[3.0, 4.0]])
        assert mx.row_dot(A, 0, np.ones(2)) == pytest.approx(7.0)

    def test_row_dot_zero_row(self):
        A = mx.from_dense([[0.0, 0.0], [1.0, 1.0]])
        assert mx.row_dot(A, 0, np.array([5.0, 7.0])) == 0.0

    def test_col_dot(self):
        A = mx.from_dense(np.array([[1.0], [0.0], [1.0]]))
        assert mx.col_dot(A, 0, np.ones(3)) == pytest.approx(2.0)

    def test_index_out_of_range(self):
        A = mx.from_dense(np.eye(2))
        with pytest.raises(MatrixError):
            mx.row_dot(A, 2, np.ones(2))
        with pytest.raises(MatrixError):
            mx.col_dot(A, -1, np.ones(2))

    def test_axpy_row_zero_coefficient(self):
        A = mx.from_dense([[3.0, 4.0]])
        x = np.array([1.0, 2.0])
        assert np.array_equal(mx.axpy_row(x, A, 0, 0.0), [1.0, 2.0])

    def test_axpy_row_values(self):
        A = mx.from_dense([[3.0, 4.0]])
        x = mx.axpy_row(np.zeros(2), A, 0, 0.2)
        assert np.allclose(x, [0.6, 0.8])

    def test_axpy_support_confinement(self):
        A = mx.from_csr(1, 4, [0, 1], [2], [1.0])
        x = mx.axpy_row(np.zeros(4), A, 0, 1.0)
        assert np.array_equal(x, [0, 0, 1, 0])
        z = mx.axpy_col(np.array([5.0]), A, 0, 0.0)
        assert np.array_equal(z, [5.0])

    def test_dense_csr_matvec_agree(self):
        import scipy.sparse as sp
        rng = np.random.default_rng(0)
        for _ in range(100):
            m, n = rng.integers(1, 51, size=2)
            dense = rng.standard_normal((m, n))
            dense[rng.random((m, n)) < 0.4] = 0.0
            x = rng.standard_normal(n)
            yd = mx.matvec(mx.from_dense(dense), x)
            ys = mx.matvec(mx.from_scipy(sp.csr_matrix(dense)), x)
            assert np.allclose(yd, ys, rtol=1e-12, atol=1e-12)

    def test_norm_cache_consistency(self):
        import scipy.sparse as sp
        rng = np.random.default_rng(1)
        for sparse in (False, True):
            for _ in range(50):
                m, n = rng.integers(1, 40, size=2)
                dense = rng.standard_normal((m, n))
                if sparse:
                    dense[rng.random((m, n)) < 0.6] = 0.0
                    A = mx.from_scipy(sp.csr_matrix(dense))
                else:
                    A = mx.from_dense(dense)
                assert np.allclose(A.row_norms_sq, (dense ** 2).sum(axis=1), rtol=1e-12)
                assert np.allclose(A.col_norms_sq, (dense ** 2).sum(axis=0), rtol=1e-12)
                assert A.frob_sq == pytest.approx(A.row_norms_sq.sum(), rel=1e-12)
                assert A.frob_sq == pytest.approx(A.col_norms_sq.sum(), rel=1e-12)

    def test_projection_identity(self):
        # after projecting x onto the hyperplane of row i, the row equation holds
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(2, 20))
            A = mx.from_dense(rng.standard_normal((3, n)))
            x = rng.standard_normal(n)
            beta = float(rng.standard_normal())
            i = int(rng.integers(0, 3))
            c = (beta - mx.row_dot(A, i, x)) / A.row_norms_sq[i]
            mx.axpy_row(x, A, i, c)
            assert mx.row_dot(A, i, x) == pytest.approx(beta, rel=1e-10, abs=1e-10)


class TestMatrixMarket:
    def test_roundtrip_dense(self, tmp_path):
        A = mx.from_dense(np.random.default_rng(3).standard_normal((3, 2)))
        path = tmp_path / "a.mtx"
        mx.write_matrix_market(A, path)
        B = mx.read_matrix_market(path)
        assert B.is_dense
        assert np.array_equal(A.dense, B.dense)

    def test_roundtrip_csr(self, tmp_path):
        import scipy.sparse as sp
        dense = np.random.default_rng(4).standard_normal((5, 4))
        dense[dense < 0] = 0.0
        A = mx.from_scipy(sp.csr_matrix(dense))
        path = tmp_path / "a.mtx"
        mx.write_matrix_market(A, path)
        B = mx.read_matrix_market(path)
        assert not B.is_dense
        assert np.array_equal(A.to_dense(), B.to_dense())

    def test_empty_coordinate_file(self, tmp_path):
        path = tmp_path / "empty.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n3 2 0\n")
        A = mx.read_matrix_market(path)
        assert A.shape == (3, 2)
        assert np.all(A.col_norms_sq == 0.0)

    def test_pattern_rejected(self, tmp_path):
        path = tmp_path / "p.mtx"
        path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n")
        with pytest.raises(MatrixFormatError):
            mx.read_matrix_market(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("not a matrix market file\n1 1 1\n")
        with pytest.raises(MatrixFormatError):
            mx.read_matrix_market(path)

    def test_entry_count_overflow(self, tmp_path):
        path = tmp_path / "over.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        "2 2 1\n1 1 1.0\n2 2 2.0\n")
        with pytest.raises(MatrixFormatError):
            mx.read_matrix_market(path)

    def test_symmetric_expanded(self, tmp_path):
        path = tmp_path / "sym.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "2 2 2\n1 1 1.0\n2 1 3.0\n")
        A = mx.read_matrix_market(path)
        assert np.allclose(A.to_dense(), [[1, 3], [3, 0]])


class TestGram:
    def test_gram(self):
        rng = np.random.default_rng(0)
        entries = rng.standard_normal((30, 7))
        A = mx.from_dense(entries)
        H = A.gram
        assert H is A.gram  # built once per handle
        assert np.array_equal(H, H.T)
        assert np.allclose(H, entries.T @ entries)
        assert not H.flags.writeable
        with pytest.raises(MatrixError):
            mx.from_scipy(sp.csr_matrix(entries)).gram


class TestLayout:
    """Dense handles keep one column-major copy, so a column is contiguous."""

    def entries(self):
        return np.random.default_rng(5).standard_normal((9, 4))

    def test_from_dense_is_column_major(self):
        A = mx.from_dense(self.entries())
        assert A.dense.flags.f_contiguous
        assert all(A.dense[:, j].flags.c_contiguous for j in range(A.n))

    def test_to_dense_equals_input(self):
        entries = self.entries()
        A = mx.from_dense(entries)
        out = A.to_dense()
        assert np.array_equal(out, entries)
        assert out.flags.f_contiguous and out.flags.writeable

    def test_matrix_market_bytes_unchanged(self, tmp_path):
        from scipy.io import mmwrite
        entries = self.entries()
        mx.write_matrix_market(mx.from_dense(entries), tmp_path / "f.mtx")
        mmwrite(tmp_path / "c.mtx", np.ascontiguousarray(entries),
                symmetry="general", precision=17)
        assert (tmp_path / "f.mtx").read_bytes() == (tmp_path / "c.mtx").read_bytes()
