import tracemalloc
import warnings

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

    def test_csr_duplicate_columns_summed(self):
        # from_scipy canonicalizes: a column stored twice in a row is one entry
        A = mx.from_scipy(sp.csr_matrix(([1.0, 2.0], [1, 1], [0, 2]), shape=(1, 3)))
        assert A.csr.nnz == 1 and np.array_equal(A.to_dense(), [[0, 3, 0]])
        assert np.array_equal(A.row_norms_sq, [9.0])

    def test_csr_unsorted_indices_sorted(self):
        A = mx.from_scipy(sp.csr_matrix(([1.0, 2.0], [2, 0], [0, 2]), shape=(1, 3)))
        assert A.csr.has_sorted_indices and np.array_equal(A.csr.indices, [0, 2])
        assert A.col_views[0][1].tolist() == [2.0] and A.col_views[1][0].size == 0

    def test_csr_triplet_via_build(self):
        A = mx.from_scipy(sp.csr_matrix(
            (np.array([5.0, 1.0, 2.0]), np.array([2, 0, 1]), np.array([0, 1, 3])),
            shape=(2, 3)))
        assert not A.is_dense and A.shape == (2, 3)
        assert np.allclose(A.to_dense(), [[0, 0, 5], [1, 2, 0]])

    def test_non_finite_rejected(self):
        with pytest.raises(MatrixError):
            mx.from_dense([[1.0, np.nan]])
        with pytest.raises(MatrixError):
            mx.from_scipy(sp.csr_matrix(([np.inf], [0], [0, 1]), shape=(1, 2)))

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
        # one past the end and a negative index, which a view list would
        # otherwise wrap around to the last row or column
        entries = np.arange(1.0, 7.0).reshape(2, 3)
        for A in (mx.from_dense(entries), mx.from_scipy(sp.csr_matrix(entries))):
            x, z = np.ones(3), np.ones(2)
            for i in (2, -1, -3):
                with pytest.raises(MatrixError, match="row index"):
                    mx.row_dot(A, i, x)
                with pytest.raises(MatrixError, match="row index"):
                    mx.axpy_row(x, A, i, 1.0)
            for j in (3, -1, -4):
                with pytest.raises(MatrixError, match="column index"):
                    mx.col_dot(A, j, z)
                with pytest.raises(MatrixError, match="column index"):
                    mx.axpy_col(z, A, j, 1.0)
            assert np.array_equal(x, np.ones(3)) and np.array_equal(z, np.ones(2))

    def test_axpy_row_zero_coefficient(self):
        A = mx.from_dense([[3.0, 4.0]])
        x = np.array([1.0, 2.0])
        assert np.array_equal(mx.axpy_row(x, A, 0, 0.0), [1.0, 2.0])

    def test_axpy_row_values(self):
        A = mx.from_dense([[3.0, 4.0]])
        x = mx.axpy_row(np.zeros(2), A, 0, 0.2)
        assert np.allclose(x, [0.6, 0.8])

    def test_axpy_support_confinement(self):
        A = mx.from_scipy(sp.csr_matrix(([1.0], [2], [0, 1]), shape=(1, 4)))
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


class TestSinglePrecision:
    def test_copy_is_column_major_float32(self):
        rng = np.random.default_rng(3)
        A = mx.from_dense(rng.standard_normal((40, 7)))
        A32 = mx.single_copy(A)
        assert A32.dtype == np.float32 and A32.flags.f_contiguous
        assert np.array_equal(A32, A.dense.astype(np.float32))

    def test_no_copy_beyond_float32_range_or_for_csr(self):
        big = np.eye(3)
        big[1, 2] = -1e39
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mx.single_copy(mx.from_dense(big)) is None
        assert mx.single_copy(mx.from_scipy(sp.eye(3, format="csr"))) is None
        edge = np.eye(3)
        edge[0, 0] = float(np.finfo(np.float32).max)
        assert np.isfinite(mx.single_copy(mx.from_dense(edge))).all()

    def test_product_within_the_float32_dot_product_bound(self):
        rng = np.random.default_rng(4)
        A = mx.from_dense(rng.standard_normal((300, 50)))
        d = rng.standard_normal(50)
        w = mx.matvec_single(mx.single_copy(A), d)
        assert w.dtype == np.float32
        # |fl32(A) fl32(d)| products summed in float32: gamma_n on |A||d|,
        # plus 2 u32 for the two roundings to float32
        u32 = 2.0 ** -24
        slack = ((50 + 2) * u32 / (1 - 52 * u32)) * (abs(A.dense) @ abs(d))
        assert np.all(abs(w.astype(np.float64) - A.dense @ d) <= slack * 1.01)


class TestRowCosines:
    """The packed float16 cosines of the rows (MatrixHandle.row_cosines)
    that dense EMRK/MEMRK step their anchored residual with."""

    def test_column_is_the_rounded_cosine(self):
        rng = np.random.default_rng(5)
        entries = rng.standard_normal((70, 9)) * np.logspace(-3, 3, 70)[:, None]
        entries[4] = 0.0
        entries[9] = entries[2]
        A = mx.from_dense(entries)
        norms = np.sqrt(A.row_norms_sq)
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = (entries @ entries.T) / np.outer(norms, norms)
        cos[4] = cos[:, 4] = 0.0
        assert A.row_cosines.dtype == np.float16
        assert A.row_cosines.size == 70 * 71 // 2
        starts = np.arange(71) * np.arange(1, 72) // 2
        out = np.empty(70, dtype=np.float16)
        for i in range(70):
            col = mx.cosine_column(A, i, out, starts).astype(np.float64)
            # float16 rounding on the float64 cosine: 2^-11 relative, or
            # 2^-25 below float16's smallest normal number
            assert np.all(abs(col - cos[:, i]) <= 2.0 ** -11 * abs(cos[:, i])
                          + 2.0 ** -25), i
        assert mx.cosine_column(A, 9, out, starts)[2] == 1.0

    def test_built_on_first_use_and_kept(self):
        A = mx.from_dense(np.random.default_rng(6).standard_normal((40, 5)))
        assert A._cosines is None
        first = A.row_cosines
        assert A.row_cosines is first and not first.flags.writeable

    def test_gate(self):
        rng = np.random.default_rng(7)
        # m (m + 1) bytes <= 16 m n, the bytes of A and its row-major copy
        assert mx.from_dense(rng.standard_normal((159, 10))).row_cosines is not None
        assert mx.from_dense(rng.standard_normal((160, 10))).row_cosines is None
        assert mx.from_scipy(sp.eye(3, format="csr")).row_cosines is None
        huge = np.eye(3)
        huge[0, 0] = 1e155  # ||A||_F^2 overflows
        assert mx.from_dense(huge).row_cosines is None

    def test_underflowing_row_has_zero_cosines(self):
        A = mx.from_dense([[1e-150, 1e-150], [0.0, 1.5e-162]])
        assert A.row_norms_sq[1] == 0.0
        assert A.row_cosines.tolist() == [1.0, 0.0, 0.0]

    def test_build_is_logged(self, caplog):
        A = mx.from_dense(np.random.default_rng(8).standard_normal((30, 4)))
        with caplog.at_level("INFO", logger="kmz.matrix"):
            A.row_cosines
        assert "row cosines of a 30 x 4 matrix" in caplog.text
        assert "MB" in caplog.text


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


class TestRowReach:
    """row_reach bounds ||A a_i^T|| from above, tightly, for every shape."""

    @pytest.mark.parametrize("shape", ["tall", "wide", "csr_tall", "csr_wide",
                                       "badly_scaled"])
    def test_upper_bound_on_every_row_image(self, shape, monkeypatch):
        rng = np.random.default_rng(0)
        m, n = (37, 7) if "tall" in shape or shape == "badly_scaled" else (7, 37)
        entries = rng.standard_normal((m, n))
        entries[3] = 0.0  # a zero row
        if shape == "badly_scaled":
            entries *= np.logspace(-3, 3, n) * np.logspace(-2, 2, m)[:, None]
        if shape.startswith("csr"):
            entries[rng.random((m, n)) < 0.5] = 0.0
            A = mx.from_scipy(sp.csr_matrix(entries))
        else:
            A = mx.from_dense(entries)
        # several row blocks, the last one short; tall shapes take the A^T A
        # path and wide ones the A A^T path, for CSR too (the 7 x 7 Gram is
        # smaller than the stored entries, the 37 x 37 one is not), and a
        # CSR row of A A^T wider than a block gets a block of its own
        monkeypatch.setattr(mx, "_REACH_BLOCK", 3 * min(m, n) - 1)
        ld = entries.astype(np.longdouble)
        exact = np.sqrt(np.sum((ld @ ld.T) ** 2, axis=0))  # column i is A a_i^T
        reach = A.row_reach
        assert reach is A.row_reach and all(type(v) is float for v in reach)
        assert reach[3] == 0.0
        assert np.all(np.array(reach, dtype=np.longdouble) >= exact)
        assert np.all(np.array(reach) <= exact * (1 + 1e-9) + 1e-300)
        assert not hasattr(A, "gram")

    @pytest.mark.parametrize("ratio", [0, 10 ** 12], ids=["sparse_product",
                                                       "dense_blocks"])
    def test_csr_and_dense_handles_agree(self, ratio, monkeypatch):
        # both ways a CSR handle forms A^T A, against the dense handle of the
        # same matrix: each reach is an upper bound, and the two differ by at
        # most the stated margin 4 (m + n + 8) eps ||A||_F^2 ||a_i||^2
        monkeypatch.setattr(mx, "_DENSE_GRAM_RATIO", ratio)
        monkeypatch.setattr(mx, "_keeps_gram", lambda A: True)
        monkeypatch.setattr(mx, "_REACH_BLOCK", 3 * 40 - 1)  # two rows a block
        rng = np.random.default_rng(2)
        entries = rng.standard_normal((301, 40))
        entries[rng.random(entries.shape) < 0.7] = 0.0
        dense, csr = mx.from_dense(entries), mx.from_scipy(sp.csr_matrix(entries))
        rd, rc = np.array(dense.row_reach), np.array(csr.row_reach)
        ld = entries.astype(np.longdouble)
        exact = np.sqrt(np.sum((ld @ ld.T) ** 2, axis=0))
        assert np.all(rd >= exact) and np.all(rc >= exact)
        eps = np.finfo(float).eps
        margin = 4 * (301 + 40 + 8) * eps * dense.frob_sq * dense.row_norms_sq
        assert np.all(abs(rc ** 2 - rd ** 2) <= margin * (1 + 1e-9))
        # the kept Gram matrices agree within gamma_m |A|^T |A|
        absg = abs(entries).T @ abs(entries)
        assert np.all(abs(csr._gram - dense._gram) <= 2 * 301 * eps * absg)
        assert not csr._gram.flags.writeable

    def test_gram_kept_only_where_a_refresh_pays(self):
        # kept when the stored entries reach 2 (n^2 + 4m) and 2^17
        rng = np.random.default_rng(3)
        cases = [((3000, 50), True), ((2000, 50), False),  # 2^17 = 131072
                 ((700, 400), False), ((1200, 300), True)]  # 2 (n^2 + 4m)
        for (m, n), kept in cases:
            A = mx.from_dense(rng.standard_normal((m, n)))
            A.row_reach
            assert (A._gram is not None) == kept, (m, n)
            if kept:
                assert np.allclose(A._gram, A.dense.T @ A.dense, rtol=0, atol=1e-9)
        dense_csr = mx.from_scipy(sp.random(3000, 50, density=0.9, random_state=rng))
        dense_csr.row_reach
        assert dense_csr._gram is not None

    def test_large_sparse_stays_sparse(self):
        # A^T A would be 5000 x 5000, 200 MB dense; the reach must cost memory
        # in proportion to the stored entries instead
        rng = np.random.default_rng(1)
        csr = sp.random(20000, 5000, density=1e-3, format="csr", random_state=rng)
        A = mx.from_scipy(csr)
        tracemalloc.start()
        try:
            reach = np.array(A.row_reach)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, peak
        rows = rng.choice(A.m, 40, replace=False)
        cols = A.csc.astype(np.longdouble)
        for i in rows:
            a = csr.getrow(i)
            image = cols[:, a.indices] @ a.data.astype(np.longdouble)  # A a_i^T
            exact = np.sqrt(np.sum(image ** 2))
            # the rounding margin is 4 (m + n + 8) eps ||A||_F^2 ||a_i||^2
            assert exact <= reach[i] <= exact * (1 + 1e-6)

    def test_one_wide_row_gets_no_more_blocks(self, monkeypatch):
        # a dense row 0 makes row 0 of A A^T as wide as nnz(A); the other
        # rows still share blocks (a block per row took 60x longer on
        # 20000 x 5000), and every q_i is the same for any blocking
        rng = np.random.default_rng(4)
        entries = rng.standard_normal((400, 300)) * (rng.random((400, 300)) < 0.01)
        entries[0] = 1.0
        csr = sp.csr_matrix(entries)
        whole = mx.from_scipy(csr).row_reach
        dots, rows = mx._row_dots, []
        monkeypatch.setattr(mx, "_row_dots",
                            lambda P, Q: rows.append(P.shape[0]) or dots(P, Q))
        monkeypatch.setattr(mx, "_REACH_BLOCK", 2 * csr.nnz)
        A = mx.from_scipy(csr)
        assert 8 * A.n * A.n > 24 * A.csr.nnz  # the A A^T path
        assert A.row_reach == whole
        assert sum(rows) == 400 and 2 <= len(rows) <= 8, rows


class TestLayout:
    """Dense handles store their entries column-major, so a column is
    contiguous.  Above the _keeps_rows gate (at least _ROWS_MIN_ENTRIES
    entries), the first x-step adds a read-only row-major copy, so a row
    is contiguous too; its rows are dotted with a stride-2 copy of x, which
    takes the BLAS loop a strided row takes and so gives the same bits.
    C-order arrays and CSR handles get no copy.  The kernels read prebuilt
    read-only views of the rows and columns, with the bits of slicing them
    anew."""

    def entries(self):
        return np.random.default_rng(5).standard_normal((9, 4))

    def test_from_dense_is_column_major(self):
        A = mx.from_dense(self.entries())
        assert A.dense.flags.f_contiguous
        assert all(A.dense[:, j].flags.c_contiguous for j in range(A.n))

    def test_step_indexes_built_with_the_handle(self):
        entries = self.entries()
        for A in (mx.from_dense(entries), mx.from_scipy(sp.csr_matrix(entries))):
            for table, norms_sq in ((A.row_table, A.row_norms_sq),
                                    (A.col_table, A.col_norms_sq)):
                assert table == (np.cumsum(norms_sq).tolist(), norms_sq.tolist())
            assert len(A.col_views) == A.n
            # built on first use: the row views (with any row-major copy),
            # and row_reach (with A^T A)
            assert A._row_views is None and A._row_reach is None
            assert A._gram is None

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

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 50, 500])
    def test_row_kernels_bit_identical_to_the_strided_row(self, n, monkeypatch):
        # the remainder loop of n mod 4 terms is covered, and x's magnitudes
        # span 24 decades, so a change of summation order shows in the bits
        monkeypatch.setattr(mx, "_keeps_rows", lambda A: True)
        rng = np.random.default_rng(n)
        m = 37 if n < 500 else 300
        A = mx.from_dense(rng.standard_normal((m, n)))
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
        # an m x 1 array is C-contiguous too, so it keeps its strided read
        assert (A.rows is A.dense) == (n == 1) and A.rows.flags.c_contiguous
        for i in range(m):
            assert np.float64(mx.row_dot(A, i, x)).tobytes() == \
                np.float64(A.dense[i] @ x).tobytes(), i
            c = float(rng.standard_normal())
            expected = x + c * A.dense[i]
            assert mx.axpy_row(x.copy(), A, i, c).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("layout", ["f_below", "f_above", "c_below",
                                        "c_above", "csr"])
    def test_view_kernels_bit_identical_to_slicing(self, layout, monkeypatch):
        # each kernel on its prebuilt views against the expressions on
        # freshly sliced rows and columns: columns of A.dense, the strided
        # (or C-order) row, and indptr slices of the CSR and CSC arrays
        rng = np.random.default_rng(8)
        m, n = 41, 13
        entries = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-8, 8, (m, n))
        if layout == "csr":
            entries[rng.random((m, n)) < 0.6] = 0.0
            entries[[4, 30]] = 0.0     # empty rows
            entries[:, [0, 7]] = 0.0   # empty columns
            A = mx.from_scipy(sp.csr_matrix(entries))
        else:
            monkeypatch.setattr(mx, "_keeps_rows",
                                lambda A: layout.endswith("above"))
            order = "F" if layout.startswith("f") else "C"
            A = mx.MatrixHandle(dense=np.array(entries, order=order))
            copied = layout == "f_above"
            assert (A.rows is not A.dense) == copied
        x = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, n)
        z = rng.standard_normal(m) * 10.0 ** rng.integers(-12, 12, m)
        xs = mx.row_buffer(A)

        def sliced(kind, k):
            """(indices or None, entries) of row or column k, sliced anew."""
            if A.is_dense:
                return None, (A.dense[k] if kind == "row" else A.dense[:, k])
            M = A.csr if kind == "row" else A.csc
            s, e = M.indptr[k], M.indptr[k + 1]
            return M.indices[s:e], M.data[s:e]

        for kind, size, v, dot, axpy in (
                ("row", m, x, mx.row_dot, mx.axpy_row),
                ("col", n, z, mx.col_dot, mx.axpy_col)):
            for k in range(size):
                idx, a = sliced(kind, k)
                c = float(rng.standard_normal())
                if idx is None:
                    want_dot, want_axpy = a @ v, v + c * a
                else:
                    want_dot = a @ v[idx]
                    want_axpy = v.copy()
                    want_axpy[idx] += c * a
                for buf in ((None, xs) if kind == "row" else (None,)):
                    args = (A, k, v) if buf is None else (A, k, v, buf)
                    assert np.float64(dot(*args)).tobytes() == \
                        np.float64(want_dot).tobytes(), (kind, k)
                assert axpy(v.copy(), A, k, c).tobytes() == want_axpy.tobytes()
        assert A.row_views is A.row_views and A.col_views is A.col_views
        for views in (A.row_views, A.col_views):
            for view in views:
                for arr in (view,) if A.is_dense else view:
                    assert arr.ndim == 1 and not arr.flags.writeable

    def test_row_copy_only_for_a_large_column_major_array(self):
        rng = np.random.default_rng(6)
        n = 64
        m = -(-mx._ROWS_MIN_ENTRIES // n)
        above = mx.from_dense(rng.standard_normal((m, n)))
        few_entries = mx.from_dense(rng.standard_normal((m - 1, n)))
        c_order = mx.MatrixHandle(dense=np.ascontiguousarray(above.dense))
        csr = mx.from_scipy(sp.random(m, n, density=1.0, format="csr",
                                      random_state=rng))
        assert above._rows is None  # nothing is built before the first x-step
        for A in (above, few_entries, c_order, csr):
            mx.row_dot(A, 0, np.ones(A.n))
        assert above.rows.flags.c_contiguous and not above.rows.flags.writeable
        assert np.array_equal(above.rows, above.dense)
        assert above.rows is not above.dense and above.rows is above.rows
        # a C-order array above the gate is its own row-major copy
        for A in (few_entries, c_order):
            assert A.rows is A.dense
        assert csr.rows is None
