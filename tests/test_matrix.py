import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

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


def packed_cosines(A: mx.MatrixHandle) -> np.ndarray:
    """The reference the panel store must match bit for bit: the lower
    triangle of the cosines packed row by row, from the same float64 row
    blocks and scalings, each row put on the int16 grid on its own."""
    m = A.m
    norms = np.sqrt(A.row_norms_sq)
    inv = np.divide(1.0, norms, out=np.zeros(m), where=norms > 0.0)
    packed = np.empty(m * (m + 1) // 2, dtype=np.int16)
    height = max(1, 8 * mx._REACH_BLOCK // m)
    pos = 0
    for s in range(0, m, height):
        e = min(m, s + height)
        block = A.dense[s:e] @ A.dense[:e].T
        block *= (inv * mx._COS_ONE)[s:e, None]
        block *= inv[:e]
        for k, row in enumerate(block, s + 1):
            packed[pos:pos + k] = np.rint(
                np.clip(row[:k], -mx._COS_ONE, mx._COS_ONE))
            pos += k
    return packed


def packed_column(packed: np.ndarray, m: int, i: int) -> np.ndarray:
    """Column i of the symmetric matrix whose lower triangle is `packed`:
    row i's own i + 1 entries, then entry i of each later row."""
    starts = np.arange(m + 1) * np.arange(1, m + 2) // 2
    return np.concatenate((packed[starts[i]:starts[i + 1]],
                           packed[starts[i + 1:-1] + i]))


def cosine_handle(entries, mp) -> mx.MatrixHandle:
    """A dense handle with its row cosines built, the gate's byte count
    lifted: a matrix narrower than a tile's padding would not fit it."""
    mp.setattr(mx, "_cosine_bytes", lambda m: 0)
    A = mx.from_dense(entries)
    assert A.row_cosines is not None
    return A


def assert_matches_packed(A: mx.MatrixHandle) -> None:
    """Every column of A's panel store equals the packed reference, bit
    for bit, read into int16 and into float64."""
    packed = packed_cosines(A)
    half, wide = np.empty(A.m, dtype=np.int16), np.empty(A.m)
    for i in range(A.m):
        want = packed_column(packed, A.m, i)
        assert mx.cosine_column(A, i, half).tobytes() == want.tobytes(), i
        assert mx.cosine_column(A, i, wide).tobytes() == \
            want.astype(np.float64).tobytes(), i


@st.composite
def cosine_cases(draw):
    """Entries of a dense matrix of 1 to 3 tiles of rows, with rows of
    scales from 1e-165 (their squared norms underflow, to 0 below about
    1e-162) to 1e150, and zero, duplicated and near-parallel rows drawn in."""
    m = draw(st.integers(1, 3 * mx._TILE + 1))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = rng.standard_normal((m, n)) \
        * 10.0 ** rng.integers(-165, 151, size=(m, 1))
    for kind in draw(st.lists(st.sampled_from(["zero", "dup", "near"]),
                              max_size=4)):
        k, j = rng.integers(m, size=2)
        if kind == "zero":
            entries[k] = 0.0
        elif kind == "dup":
            entries[k] = entries[j]
        else:
            entries[k] = entries[j] * (1.0 + 1e-3 * rng.standard_normal(n))
    return entries


# Rows whose squared norms underflow in part, so that their float64 cosine
# is about 1.79 and the grid's clip sets it to 1 (-1 for the second pair).
PARTLY_UNDERFLOWING = [[-2.2796357842907424e-162, 4.609611642481368e-162],
                       [-1.3310525454002463e-162, 2.6914980683813054e-162],
                       [2.2796357842907424e-162, -4.609611642481368e-162],
                       [-1.3310525454002463e-162, 2.6914980683813054e-162]]


class TestRowCosines:
    """The int16 fixed-point cosines of the rows (MatrixHandle.row_cosines),
    stored as tile-column panels, that dense EMRK/MEMRK step their anchored
    residual with."""

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
        assert A.row_cosines.dtype == np.int16
        assert A.row_cosines.nbytes == mx._cosine_bytes(70)
        out = np.empty(70)
        for i in range(70):
            col = mx.cosine_column(A, i, out) / mx._COS_ONE
            # the grid's rounding on the float64 cosine: 1/65534 absolute,
            # and a few float64 roundings between cos and the build's value
            assert np.all(abs(col - cos[:, i]) <= 1.0 / 65534 + 1e-14), i
        assert mx.cosine_column(A, 9, out)[2] == mx._COS_ONE

    def test_cosines_beyond_one_are_clipped(self, monkeypatch):
        # the float64 cosine of rows 0 and 1 is about 1.79, since their
        # squared norms underflow in part; on the grid it is 1, and that of
        # rows 1 and 2 is -1, not an int16 value wrapped around
        A = cosine_handle(PARTLY_UNDERFLOWING, monkeypatch)
        nu = np.sqrt(A.row_norms_sq)
        gram = A.dense @ A.dense.T
        assert gram[1, 0] / nu[1] / nu[0] > 1.7
        assert gram[2, 1] / nu[2] / nu[1] < -1.7
        column = mx.cosine_column(A, 1, np.empty(4, np.int16))
        assert column.tolist() == [32767, 32767, -32767, 32767]
        assert_matches_packed(A)

    @pytest.mark.parametrize("m", [1, 2, mx._TILE - 1, mx._TILE,
                                   mx._TILE + 1, 3 * mx._TILE + 5, 300])
    def test_columns_equal_the_packed_reference(self, m, monkeypatch):
        # one tile or less, and tile widths that do and do not divide m
        rng = np.random.default_rng(m)
        entries = rng.standard_normal((m, 7)) * np.logspace(-2, 2, m)[:, None]
        if m > 5:
            entries[1] = 0.0
            entries[3] = entries[m - 1]
            entries[4] = 1e-163  # its squared norm underflows to 0
        A = cosine_handle(entries, monkeypatch)
        assert m <= 5 or A.row_norms_sq[4] == 0.0
        assert_matches_packed(A)

    def test_blocks_that_end_inside_a_diagonal_tile(self, monkeypatch):
        # 8 * 57 // 90 = 5 rows a build block, so that block edges fall
        # inside tiles: a block's copy writes the part of a diagonal tile's
        # upper half that it holds from its own entries, scaled in the other
        # order, and leaves the rest; the mirror replaces both
        monkeypatch.setattr(mx, "_REACH_BLOCK", 57)
        rng = np.random.default_rng(9)
        entries = rng.standard_normal((90, 4)) * np.logspace(-3, 3, 90)[:, None]
        assert_matches_packed(cosine_handle(entries, monkeypatch))

    def test_diagonal_tile_holds_row_i_values_above_the_diagonal(
            self, monkeypatch):
        # C_01 from the GEMM's entry (0, 1), scaled by 32767 / nu_0 first,
        # and from row 1's entry (1, 0), scaled by 32767 / nu_1 first: near
        # a rounding midpoint of the grid the two orders round apart, and
        # the upper half must hold row 1's value, as the packed triangle did
        mid = 0.5 / mx._COS_ONE  # halfway between the grid's 0 and 1
        rng = np.random.default_rng(11)
        for _ in range(200):
            alpha, beta = rng.uniform(1.0, 2.0, 2)
            entries = np.array([[alpha, 0.0],
                                [beta * mid, beta * np.sqrt(1.0 - mid * mid)]])
            G = entries @ entries.T
            inv = 1.0 / np.sqrt(mx.from_dense(entries).row_norms_sq)
            one = inv * mx._COS_ONE
            row_1 = np.rint(G[1, 0] * one[1] * inv[0])
            if np.rint(G[0, 1] * one[0] * inv[1]) != row_1:
                break
        else:
            pytest.fail("no pair of rows whose two scalings round apart")
        A = cosine_handle(entries, monkeypatch)
        assert mx.cosine_column(A, 1, np.empty(2, np.int16))[0] == row_1
        assert_matches_packed(A)

    @settings(max_examples=60, deadline=None)
    @given(entries=cosine_cases())
    def test_drawn_columns_equal_the_packed_reference(self, entries):
        with pytest.MonkeyPatch.context() as mp:
            assert_matches_packed(cosine_handle(entries, mp))

    def test_column_index_out_of_range(self):
        A = mx.from_dense(np.random.default_rng(10).standard_normal((20, 4)))
        assert A.row_cosines is not None
        out = np.empty(20)
        for i in (20, -1, -21):
            with pytest.raises(MatrixError, match="row index"):
                mx.cosine_column(A, i, out)

    def test_built_on_first_use_and_kept(self):
        A = mx.from_dense(np.random.default_rng(6).standard_normal((40, 5)))
        assert A._cosines is None
        first = A.row_cosines
        assert A.row_cosines is first and not first.flags.writeable
        panels, tile_rows, _ = A._panels
        assert not any(view.flags.writeable for view in (*panels, tile_rows))

    def test_gate(self):
        rng = np.random.default_rng(7)
        # the store takes m (m + b) bytes where b divides m, so 16 n - b
        # rows of n = 10 fit in 16 m n, the bytes of A and its row-major copy
        edge = 16 * 10 - mx._TILE
        fits = mx.from_dense(rng.standard_normal((edge, 10))).row_cosines
        assert fits is not None and fits.nbytes == edge * (edge + mx._TILE)
        assert fits.nbytes <= 16 * edge * 10
        assert mx.from_dense(rng.standard_normal((edge + 1, 10))).row_cosines is None
        assert mx._cosine_bytes(edge + 1) > 16 * (edge + 1) * 10
        assert mx.from_scipy(sp.eye(3, format="csr")).row_cosines is None
        huge = np.eye(3)
        huge[0, 0] = 1e155  # ||A||_F^2 overflows
        assert mx.from_dense(huge).row_cosines is None

    def test_underflowing_row_has_zero_cosines(self, monkeypatch):
        A = cosine_handle([[1e-150, 1e-150], [0.0, 1.5e-162]], monkeypatch)
        assert A.row_norms_sq[1] == 0.0
        out = np.empty(2)
        assert mx.cosine_column(A, 0, out).tolist() == [mx._COS_ONE, 0.0]
        assert mx.cosine_column(A, 1, out).tolist() == [0.0, 0.0]

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


def row_images(entries) -> np.ndarray:
    """||A a_i^T|| for every row i, in longdouble."""
    ld = np.asarray(entries, dtype=np.longdouble)
    return np.sqrt(np.sum((ld @ ld.T) ** 2, axis=0))  # column i is A a_i^T


class TestRowReach:
    """row_reach bounds ||A a_i^T|| from above: tightly on the per-row path,
    within ||A||_2 ||a_i|| / ||A a_i^T|| on the spectral one."""

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
        exact = row_images(entries)
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
        # same matrix.  301 x 40 keeps no A^T A, so each reach is the per-row
        # bound, formed from A^T A, and the two differ by at most the stated
        # margin 4 (m + n + 8) eps ||A||_F^2 ||a_i||^2
        monkeypatch.setattr(mx, "_DENSE_GRAM_RATIO", ratio)
        monkeypatch.setattr(mx, "_REACH_BLOCK", 3 * 40 - 1)  # two rows a block
        rng = np.random.default_rng(2)
        entries = rng.standard_normal((301, 40))
        entries[rng.random(entries.shape) < 0.7] = 0.0
        exact = row_images(entries)
        dense, csr = mx.from_dense(entries), mx.from_scipy(sp.csr_matrix(entries))
        rd, rc = np.array(dense.row_reach), np.array(csr.row_reach)
        assert dense._gram is None and csr._gram is None
        assert np.all(rd >= exact) and np.all(rc >= exact)
        eps = np.finfo(float).eps
        margin = 4 * (301 + 40 + 8) * eps * dense.frob_sq * dense.row_norms_sq
        assert np.all(abs(rc ** 2 - rd ** 2) <= margin * (1 + 1e-9))
        # kept, the Gram matrices agree within gamma_m |A|^T |A|, and both
        # spectral reaches are upper bounds
        monkeypatch.setattr(mx, "_keeps_gram", lambda A: True)
        dense, csr = mx.from_dense(entries), mx.from_scipy(sp.csr_matrix(entries))
        rd, rc = np.array(dense.row_reach), np.array(csr.row_reach)
        assert np.all(rd >= exact) and np.all(rc >= exact)
        absg = abs(entries).T @ abs(entries)
        assert np.all(abs(csr._gram - dense._gram) <= 2 * 301 * eps * absg)
        assert not csr._gram.flags.writeable

    @pytest.mark.parametrize("case", ["top_singular_row", "scaled_columns",
                                      "subnormal_products", "csr_sparse_product",
                                      "csr_dense_blocks", "lost_ones"])
    def test_spectral_reach_bounds_every_row(self, case, monkeypatch, caplog):
        # where the handle keeps A^T A, reach_i = sqrt(Lam) ||a_i|| with Lam
        # >= ||A||_2^2 certified by a Cholesky factorization; an upper bound
        # on ||A a_i^T|| (longdouble) on every row, with A^T A kept by force
        monkeypatch.setattr(mx, "_keeps_gram", lambda A: True)
        rng = np.random.default_rng(6)
        if case == "top_singular_row":
            # A = Q D V^T with Q's row 0 = e_1^T, so a_0 = d_1 v_1^T lies along
            # the top right singular vector and ||A a_0^T|| = ||A||_2 ||a_0||:
            # the bound is tight there
            m, n = 300, 40
            Q = np.zeros((m, n))
            Q[0, 0] = 1.0
            Q[1:, 1:] = np.linalg.qr(rng.standard_normal((m - 1, n - 1)))[0]
            V = np.linalg.qr(rng.standard_normal((n, n)))[0]
            entries = Q @ np.diag(np.linspace(3.0, 0.5, n)) @ V.T
        elif case == "scaled_columns":
            entries = rng.standard_normal((300, 40)) * np.logspace(-3, 3, 40)
            entries[3] = 0.0  # a zero row
        elif case == "subnormal_products":
            # every product a^2 = 1.49 2^-1074 rounds down to 2^-1074, in any
            # order of the sums, so fl(A^T A) is 1/1.49 of A^T A: the
            # certificate's m n 2^-1074 underflow term is needed
            entries = np.full((30, 4), np.sqrt(1.49) * 2.0 ** -537)
        elif case == "lost_ones":
            # a column 2^27, 1, ..., 1: the sparse product adds the ones one
            # at a time to 2^54, whose spacing is 4, and loses all 199; the
            # term m eps ||A||_F^2 takes that
            monkeypatch.setattr(mx, "_DENSE_GRAM_RATIO", 0)
            entries = np.ones((200, 1))
            entries[0] = 2.0 ** 27
        else:
            monkeypatch.setattr(mx, "_DENSE_GRAM_RATIO",
                                0 if case == "csr_sparse_product" else 10 ** 12)
            entries = rng.standard_normal((301, 40))
            entries[rng.random(entries.shape) < 0.7] = 0.0
            entries[5] = 0.0
        A = (mx.from_scipy(sp.csr_matrix(entries)) if case.startswith(("csr", "lost"))
             else mx.from_dense(entries))
        with caplog.at_level("INFO", logger="kmz.matrix"):
            reach = np.array(A.row_reach, dtype=np.longdouble)
        assert "A^T A kept, spectral, ||A||_2^2 <= " in caplog.text
        exact = row_images(entries)
        assert np.all(reach >= exact)
        assert np.all((reach == 0) == ~entries.any(axis=1))
        if case == "top_singular_row":
            assert reach[0] <= exact[0] * (1 + 1e-9)

    def test_failed_cholesky_takes_the_per_row_path(self, monkeypatch, caplog):
        # a lam^ too low to factor mu I - A^T A leaves the per-row bound,
        # from the same kept A^T A; so does an A^T A that overflows
        rng = np.random.default_rng(7)
        entries = rng.standard_normal((300, 40))
        per_row = mx.from_dense(entries).row_reach  # keeps no A^T A
        monkeypatch.setattr(mx, "_keeps_gram", lambda A: True)
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda M: eigvalsh(M) / 2)
        A = mx.from_dense(entries)
        with caplog.at_level("INFO", logger="kmz.matrix"):
            assert A.row_reach == per_row
        assert "A^T A kept, per row: no Cholesky factor of mu I - A^T A" \
            in caplog.text
        assert A._gram is not None
        caplog.clear()
        huge = mx.from_dense(entries * 1e155)
        with caplog.at_level("INFO", logger="kmz.matrix"):
            reach = np.array(huge.row_reach)
        assert "A^T A kept, per row: A^T A is not finite" in caplog.text
        assert not np.isfinite(reach).any()  # forces the solver to form r

    def test_kept_gram_forms_no_row_products(self, monkeypatch):
        # the spectral path reads A only through A^T A: no a_i H a_i^T (2 m
        # n^2 flops) and no block of them; its memory is A^T A's copies
        # (scaled, factored) and a few m-vectors, far below one m x n array
        calls = []
        monkeypatch.setattr(mx, "_row_dots", lambda P, Q: calls.append(1))
        A = mx.from_dense(np.random.default_rng(8).standard_normal((3000, 50)))
        tracemalloc.start()
        try:
            A.row_reach
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert A._gram is not None and not calls
        assert peak <= 3 * A._gram.nbytes + 64 * A.m, peak
        assert 8 * A.m * A.n > 3 * A._gram.nbytes + 64 * A.m

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

    def test_build_is_logged(self, caplog):
        # 1200 x 300 keeps its A^T A (0.72 MB) and takes the spectral path;
        # 700 x 400 frees it and bounds each row
        rng = np.random.default_rng(4)
        for (m, n), mb, path in (((1200, 300), "0.7", "spectral, ||A||_2^2 <= "),
                                 ((700, 400), "0.0", "per row")):
            entries = rng.standard_normal((m, n))
            A = mx.from_dense(entries)
            caplog.clear()
            with caplog.at_level("INFO", logger="kmz.matrix"):
                A.row_reach
            assert f"row reach of a {m} x {n} matrix: " in caplog.text
            assert f" s, {mb} MB of A^T A kept, {path}" in caplog.text
            if mb == "0.7":  # the logged Lam bounds ||A||_2^2 from above
                lam = float(caplog.text.split("<= ")[1].split()[0])
                assert np.linalg.norm(entries, 2) ** 2 <= lam

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
