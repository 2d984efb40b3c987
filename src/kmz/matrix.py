"""Immutable dense / CSR matrix storage with cached norms and Matrix Market I/O.

A :class:`MatrixHandle` keeps the squared row norms, squared column norms and
the squared Frobenius norm alongside the entries, because the solvers consume
those quantities on every single step.  Column access is the inner hot loop
of the auxiliary-vector sweep, so it is the contiguous one: dense handles
store their entries column-major (Fortran order), and CSR handles carry a
CSC mirror that touches only the stored entries of a column.  A row of a
column-major array has a stride of m entries, one cache line per entry, so
a dense handle with too many entries for a core's cache (_keeps_rows) also
keeps a read-only row-major copy for the x-step, built on its first row
read.  Its rows are dotted with a stride-2 copy of x, which
keeps BLAS on the loop a strided row takes, and so every row dot, and every
iterate, bit-identical to a read of the column-major array.

The four step kernels (row_dot, col_dot, axpy_row, axpy_col) index lists of
1-D views, one per row and one per column (row_views, col_views), and call
ndarray.dot: a view slices nothing per step, and .dot skips the matmul
dispatch of @ for the same bits.  A CSR row or column is the (indices, data)
pair of its stored entries.  The column views are built with the handle;
the row kernels read the row list's slot and call its property only until
it is built, since a property call would add about 0.3 us to every step.
Handles come from from_dense, from_scipy and read_matrix_market.
"""

from __future__ import annotations

import logging
import math
import time

import numpy as np
import scipy.sparse as sp
from scipy.io import mmread, mmwrite

from .errors import MatrixError, MatrixFormatError

log = logging.getLogger(__name__)


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _norm_table(norms_sq: np.ndarray) -> tuple[list, list]:
    return np.cumsum(norms_sq).tolist(), norms_sq.tolist()


def _pairs(compressed) -> list:
    """(indices, data) of each compressed row (CSR) or column (CSC), as
    read-only slices of the matrix's own arrays."""
    ptr = compressed.indptr.tolist()
    idx, data = compressed.indices, compressed.data
    return [(idx[s:e], data[s:e]) for s, e in zip(ptr, ptr[1:])]


class MatrixHandle:
    """Immutable matrix, either dense column-major (+ a row-major copy
    above the :func:`_keeps_rows` gate) or CSR (+ CSC mirror).

    Build through :func:`from_dense`, :func:`from_scipy` or
    :func:`read_matrix_market`; those store dense entries column-major.
    A handle built directly keeps the array it is given in its own layout.

    Built with the handle, because every solve reads them from its first
    step: the squared row and column norms, their (cumulative, squared)
    tables as Python float lists (row_table, col_table; the samplers bisect
    and index them once per step, cheaper in the interpreter than a numpy
    call on one scalar) and one view per column (col_views).  Built on first
    use: the row views with the row-major copy (:attr:`rows`),
    :attr:`row_reach` with A^T A, which only REK/PREK with a RES stop read,
    and :attr:`row_cosines`, the float16 cosines of every pair of rows in
    tile-column panels, with the views that :func:`cosine_column` reads
    them through, which only EMRK/MEMRK read.  None of the three may be
    alive during a set-up SVD of A, where peak memory is set: at 6000 x 500
    the cosines take 36 MB and the row-major copy 24 MB, so building them
    with the handle would lift that peak.
    """

    __slots__ = ("m", "n", "dense", "csr", "csc", "row_norms_sq",
                 "col_norms_sq", "frob_sq", "row_table", "col_table",
                 "col_views", "_rows", "_row_views", "_row_reach", "_gram",
                 "_cosines", "_panels")

    def __init__(self, *, dense=None, csr=None):
        if (dense is None) == (csr is None):
            raise MatrixError("exactly one of dense/csr storage must be given")
        if dense is not None:
            self.m, self.n = dense.shape
            self.dense = _readonly(dense)
            self.csr = None
            self.csc = None
            # the array x-steps read rows from: None until rows builds it,
            # else the stored array itself
            self._rows = None if _keeps_rows(self) else self.dense
            self.row_norms_sq = _readonly(np.einsum("ij,ij->i", dense, dense))
            self.col_norms_sq = _readonly(np.einsum("ij,ij->j", dense, dense))
            # 1-D views, contiguous where the array is column-major
            self.col_views = list(self.dense.T)
        else:
            self.m, self.n = csr.shape
            self.dense = None
            self.csr = csr
            self.csc = csr.tocsc()
            self._rows = None
            sq = csr.data * csr.data
            self.row_norms_sq = _readonly(
                np.add.reduceat(np.append(sq, 0.0), csr.indptr[:-1])
                * (np.diff(csr.indptr) > 0))
            csq = self.csc.data * self.csc.data
            self.col_norms_sq = _readonly(
                np.add.reduceat(np.append(csq, 0.0), self.csc.indptr[:-1])
                * (np.diff(self.csc.indptr) > 0))
            for arr in (csr.data, csr.indices, csr.indptr,
                        self.csc.data, self.csc.indices, self.csc.indptr):
                arr.setflags(write=False)
            self.col_views = _pairs(self.csc)
        self.frob_sq = float(self.row_norms_sq.sum())
        self.row_table = _norm_table(self.row_norms_sq)
        self.col_table = _norm_table(self.col_norms_sq)
        self._row_views = None
        self._row_reach = None
        # A^T A as _row_reach built it, kept when _keeps_gram holds, else None
        self._gram = None
        self._cosines = None
        # the views of the row cosines that cosine_column reads
        self._panels = None

    @property
    def row_reach(self) -> list:
        """Upper bounds on ||A a_i^T||, one per row i, as Python floats.

        An x-step x += d a_i^T moves A x by exactly d A a_i^T, so this is how
        far one unit of step along row i can move r = b - A x - z.  Built on
        first use; see :func:`_row_reach`.
        """
        if self._row_reach is None:
            self._row_reach, self._gram = _row_reach(self)
        return self._row_reach

    @property
    def row_cosines(self) -> np.ndarray | None:
        """The cosines fl16(a_l a_i^T / (||a_l|| ||a_i||)) of the rows l >= i
        of a dense handle that passes :func:`_fits_cosines`, as one
        read-only float16 array of tile-column panels of width _TILE: panel
        I holds rows l >= I b of columns I b .. (I + 1) b - 1, C-order, its
        diagonal tile in full (see :func:`_row_cosines`).  A cosine with an
        all-zero (or underflowing) row is 0.  Built on first use, with the
        panel views, by :func:`_row_cosines`; None where the gate fails.
        Column i is read by :func:`cosine_column`, in two slices.
        """
        if self._cosines is None and _fits_cosines(self):
            self._cosines, self._panels = _row_cosines(self)
        return self._cosines

    @property
    def rows(self) -> np.ndarray | None:
        """The array whose rows the dense x-step kernels read; None for CSR.

        A dense array that passes :func:`_keeps_rows` gets a read-only
        row-major (C-order) copy, built on first use, so that a row is
        contiguous; a C-contiguous array is its own copy, and an array
        below the gate is read as it is.  See :func:`row_dot` for why the
        copy leaves every row dot bit-identical.
        """
        if self._rows is None and self.dense is not None:
            self._rows = _readonly(np.ascontiguousarray(self.dense))
        return self._rows

    @property
    def row_views(self) -> list:
        """One read-only view per row, built on first use: a 1-D view of
        :attr:`rows` for a dense handle (the row-major copy is built with
        it where the handle keeps one), an (indices, data) pair of the row's
        stored entries for CSR, as col_views holds for the columns."""
        if self._row_views is None:
            self._row_views = (list(self.rows) if self.dense is not None
                               else _pairs(self.csr))
        return self._row_views

    @property
    def is_dense(self) -> bool:
        return self.dense is not None

    @property
    def shape(self):
        return (self.m, self.n)

    def to_dense(self) -> np.ndarray:
        """Materialize the entries as a 2-D array (copy, in the stored layout)."""
        if self.dense is not None:
            return self.dense.copy(order="K")
        return self.csr.toarray()


_F32_MAX = float(np.finfo(np.float32).max)
# Entries of the largest temporary block that _row_reach forms at once.
_REACH_BLOCK = 1 << 17
# A CSR handle's A^T A is built from dense row blocks when sum_i nnz(a_i)^2,
# the flops of the sparse product, reaches m n^2 / _DENSE_GRAM_RATIO.  For
# n = 400-500 the dense blocks were measured faster from density 0.1 on,
# where that sum is about m n^2 / 100.
_DENSE_GRAM_RATIO = 100
# Fewest stored entries for which the handle keeps its A^T A; see _keeps_gram.
_GRAM_MIN_ENTRIES = 1 << 17
# Fewest entries for which a dense handle keeps a row-major copy; see _keeps_rows.
_ROWS_MIN_ENTRIES = 1 << 19
# Width b of the tile-column panels of the row cosines (_row_cosines).  On
# 6000 x 500 (BENCH_cosine_panels.json, medians) a random column read into
# float64 took 25.6 us at b = 16 and 38.5 us at b = 32 (65.5 us from a
# packed triangle), the build 0.61 s and 0.52 s (0.74 s packed), and an
# EMRK iteration 181 and 182 us (213 us packed), a tie: the faster read
# decides.
_TILE = 16


def _keeps_gram(A: MatrixHandle) -> bool:
    """Whether the handle keeps its n x n A^T A for the REK/PREK floor
    refresh: stored entries >= 2 (n^2 + 4m) and >= _GRAM_MIN_ENTRIES, m n
    for a dense handle and nnz for CSR; such a Gram matrix takes at most
    half the bytes of A's stored entries.  Below the gate a refresh costs
    about the mat-vec it saves: on small-200x50 (seed 800) a kept A^T A let
    refreshes replace all but one float64 pass per solve (REK 5598 -> 20,
    PREK 4403 -> 20), and the median best of 5 over 9 alternating runs went
    from 0.36 to 0.40 s for REK and from 0.32 to 0.33 s for PREK."""
    entries = A.m * A.n if A.dense is not None else A.csr.nnz
    return entries >= max(2 * (A.n * A.n + 4 * A.m), _GRAM_MIN_ENTRIES)


def _fits_cosines(A: MatrixHandle) -> bool:
    """Whether a dense handle may build :attr:`MatrixHandle.row_cosines`:
    their panel store (:func:`_cosine_bytes`) takes no more than the 16 m n
    bytes of A and its row-major copy, and 2 ||A||_F^2 is finite, which
    keeps every entry of A A^T finite.  A full square float16 matrix would
    take 72 MB at 6000 x 500 and lift the solve's peak memory above that of
    the set-up SVD."""
    return (A.dense is not None and _cosine_bytes(A.m) <= 16 * A.m * A.n
            and 2.0 * A.frob_sq < math.inf)


def _cosine_bytes(m: int) -> int:
    """Bytes of the row cosines' panel store for m rows, the padding and
    the full diagonal tiles counted: 2 b sum_I (m - I b), b = _TILE, which
    is m (m + b) where b divides m."""
    return 2 * _TILE * int(_panel_heights(m).sum())


def _keeps_rows(A: MatrixHandle) -> bool:
    """Whether a dense handle keeps a row-major copy of its entries for the
    x-step (MatrixHandle.rows): m n >= _ROWS_MIN_ENTRIES.  A row read from
    the copy takes n / 8 cache lines instead of n, one per entry, but x's
    stride-2 copy adds a fixed cost per read, so the copy pays only for a
    matrix that a core's cache does not hold.  Measured per budget-mode REK
    iteration on 12 shapes from 200 x 50 to 6000 x 500, in three rounds of
    7 alternating repeats (BENCH_handle_indexes.json), the copy was faster
    in the median round on every shape of at least 6 10^5 entries (2000 x
    300 to 6000 x 500, by 9-34%), and from 1.3% faster to 5.3% slower on
    every shape of at most 3.5 10^5 entries, 700 x 400 and 5000 x 60
    included."""
    return A.m * A.n >= _ROWS_MIN_ENTRIES


def _row_reach(A: MatrixHandle) -> tuple[list, np.ndarray | None]:
    """(reach, H): reach_i = sqrt(q_i + margin_i) (1 + 4 eps), q_i =
    ||A a_i^T||^2, computed in row blocks of at most _REACH_BLOCK entries or
    one row each: as a_i H a_i^T, H = A^T A (dense), when H takes no more
    bytes than the stored entries of A (for a dense A, when n <= m); else as
    the squared norm of row i of A A^T, sparse for a CSR handle, whose
    entries and flops number sum_j nnz(A_(j)) over the columns j that row i
    touches.  H is returned when _keeps_gram holds, else None (freed).

    A CSR handle on the H path forms H as a sparse product, which costs
    sum_i nnz(a_i)^2 flops at sparse-product speed, unless that sum reaches
    m n^2 / _DENSE_GRAM_RATIO; then it densifies each row block (toarray)
    and forms H and q from BLAS products, 2 m n^2 flops in all.

    margin_i = 4 (m + n + 8) eps ||A||_F^2 ||a_i||^2 covers the rounding of q_i:
    every product above is a dot product of at most max(m, n) terms, each
    off by at most gamma_max(m,n) |A| |a_i^T| entrywise, and
    || |A| |a_i^T| || <= ||A||_F ||a_i||; the H path errs by at most
    (m + 2n) eps and the A A^T path by (2m + 2n) eps, to first order, times
    ||A||_F^2 ||a_i||^2, whatever the order of the sums (so also for H
    summed over row blocks).  The factor 4 eps covers the final sum and sqrt.
    """
    m, n = A.m, A.n
    eps = float(np.finfo(np.float64).eps)
    if A.dense is not None:
        stored, stored_t, nbytes = A.dense, A.dense.T, A.dense.nbytes
    else:
        stored, stored_t = A.csr, A.csc.T  # A.csc.T is A^T in CSR form
        nbytes = A.csr.data.nbytes + A.csr.indices.nbytes
        nbytes += A.csc.data.nbytes + A.csc.indices.nbytes
    gram = 8 * n * n <= nbytes
    densify = False
    if gram:
        width = np.full(m, n)  # entries of a row of blk @ H
        if A.dense is None:
            nnz_sq = np.diff(A.csr.indptr).astype(np.float64) ** 2
            densify = _DENSE_GRAM_RATIO * nnz_sq.sum() >= float(m) * n * n
    elif A.dense is not None:
        width = np.full(m, m)  # entries of a row of A A^T
    else:
        width = np.bincount(np.repeat(np.arange(m), np.diff(A.csr.indptr)),
                            np.diff(A.csc.indptr)[A.csr.indices], minlength=m)
    # cut by summed widths, not the widest row: a dense row of a CSR A makes
    # one row of A A^T far wider than the rest (BENCH_unused_settings.json)
    cum = np.cumsum(width)

    def blocks():
        s = 0
        while s < m:
            e = max(s + 1, int(np.searchsorted(
                cum, cum[s] - width[s] + _REACH_BLOCK, side="right")))
            blk = stored[s:e]
            yield s, e, (blk.toarray() if densify else blk)
            s = e

    q = np.empty(m)
    # An overflow leaves an inf or NaN bound, which only forces the solver
    # to form r in full.
    with np.errstate(over="ignore", invalid="ignore"):
        if not gram:
            for s, e, blk in blocks():
                G = blk @ stored_t  # the block's rows of A A^T
                q[s:e] = _row_dots(G, G)
        else:
            if A.dense is not None:
                H = stored_t @ stored
            elif densify:
                H = np.zeros((n, n))
                for _, _, blk in blocks():
                    H += blk.T @ blk
            else:
                H = (stored_t @ stored).toarray()
            for s, e, blk in blocks():
                q[s:e] = _row_dots(blk, blk @ H)
        margin = 4.0 * (m + n + 8) * eps * A.frob_sq * A.row_norms_sq
        reach = (np.sqrt(q + margin) * (1.0 + 4.0 * eps)).tolist()
    return reach, (_readonly(H) if gram and _keeps_gram(A) else None)


def _panel_heights(m: int) -> np.ndarray:
    """Rows of each tile-column panel of an m x m cosine matrix: panel I
    holds rows I b .. m - 1, b = _TILE."""
    return m - np.arange(0, m, _TILE)


def _row_cosines(A: MatrixHandle) -> tuple[np.ndarray, tuple]:
    """(store, (panels, tile_rows, base)): the lower triangle of C = D A A^T
    D, D = diag(1 / nu), nu_l = fl(sqrt(||a_l||^2)) (1 / 0 taken as 0), in
    float16 tile-column panels of width b = _TILE.  Panel I is the C-order
    block C[I b:, I b:(I + 1) b] (a view in `panels`, zero-padded beyond
    column m - 1), and its diagonal tile is stored in full: the upper half
    mirrors the lower, so C_li for l < i in that tile holds row i's value,
    C_il.  Row i of panel L < i // b is row base[L] + i of `tile_rows`, the
    store viewed as (-1, b).  :func:`cosine_column` reads column i from
    these views.

    A A^T is formed in float64 by BLAS-3 in row blocks of at most
    _REACH_BLOCK * 8 entries, each block scaled, rounded to float16 once
    and copied into the panels it crosses.  Each entry of A A^T errs by at
    most gamma_n |a_l| |a_i| and n 2^-1075 of underflow (Higham 2002, sec.
    3.1), in any order of summation; the two scalings round by eps/2
    relative each and the cast to float16 by 2^-11 relative or 2^-25
    absolute (solvers.GramResidual bounds their effect).  Logs its seconds
    and megabytes."""
    m, b = A.m, _TILE
    start = time.perf_counter()
    norms = np.sqrt(A.row_norms_sq)
    inv = np.divide(1.0, norms, out=np.zeros(m), where=norms > 0.0)
    sizes = _panel_heights(m) * b
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    store = np.zeros(offsets[-1], dtype=np.float16)
    panels = [store[o:o + k].reshape(-1, b) for o, k in zip(offsets, sizes)]
    height = max(1, 8 * _REACH_BLOCK // m)
    # one buffer of each type for every block: a fresh 8 MB block per
    # GEMM would fault in its pages on every call
    size = min(height, m) * m
    wide, narrow = np.empty(size), np.empty(size, np.float16)
    for s in range(0, m, height):
        e = min(m, s + height)
        block = np.matmul(A.dense[s:e], A.dense[:e].T,
                          out=wide[:(e - s) * e].reshape(e - s, e))
        block *= inv[s:e, None]
        block *= inv[:e]
        block16 = narrow[:block.size].reshape(block.shape)
        block16[...] = block
        for top in range(0, e, b):
            lo = max(s, top)
            tile = block16[lo - s:, top:top + b]
            panels[top // b][lo - top:e - top, :tile.shape[1]] = tile
    for panel in panels:  # the mirror: upper half of the diagonal tile
        h = min(b, len(panel))
        tile, upper = panel[:h, :h], np.triu_indices(h, 1)
        tile[upper] = tile.T[upper]
    base = offsets[:-1] // b - np.arange(0, m, b)
    log.info("row cosines of a %d x %d matrix: %.3f s, %.1f MB", m, A.n,
             time.perf_counter() - start, store.nbytes / 1e6)
    return _readonly(store), ([_readonly(p) for p in panels],
                              _readonly(store.reshape(-1, b)), base)


def _row_dots(P, Q) -> np.ndarray:
    """Row sums of the entrywise product P * Q; P dense or sparse."""
    if sp.issparse(P):
        return np.asarray(P.multiply(Q).sum(axis=1)).ravel()
    return np.einsum("ij,ij->i", P, Q)


def from_dense(entries) -> MatrixHandle:
    """Build a dense handle from a 2-D array of finite values.

    The entries are copied once, column-major, so that a column is contiguous.
    """
    arr = np.array(entries, dtype=np.float64, order="F")
    if arr.ndim != 2:
        raise MatrixError(f"dense entries must be 2-D, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise MatrixError("non-finite entry in dense matrix")
    return MatrixHandle(dense=arr)


def from_scipy(mat) -> MatrixHandle:
    """Wrap a scipy sparse matrix (canonicalized) as a CSR handle."""
    csr = sp.csr_matrix(mat, dtype=np.float64)
    csr.sum_duplicates()
    csr.sort_indices()
    if not np.all(np.isfinite(csr.data)):
        raise MatrixError("non-finite entry in sparse matrix")
    return MatrixHandle(csr=csr)


# -- kernels ------------------------------------------------------------------


def matvec(A: MatrixHandle, x: np.ndarray) -> np.ndarray:
    """y = A x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.n,):
        raise MatrixError(f"matvec length mismatch: {x.shape} vs n={A.n}")
    if A.dense is not None:
        return A.dense @ x
    return A.csr @ x


def single_copy(A: MatrixHandle) -> np.ndarray | None:
    """A column-major float32 copy of a dense handle's entries, for
    :func:`matvec_single`; None when an entry lies beyond the float32 range
    (checked before the cast, which would overflow) or the handle is CSR."""
    if A.dense is None:
        return None
    if not max(A.dense.max(), -A.dense.min()) <= _F32_MAX:
        return None
    return A.dense.astype(np.float32, order="F")


def matvec_single(A32: np.ndarray, d: np.ndarray) -> np.ndarray:
    """w = A32 fl32(d) in float32: one pass over a :func:`single_copy`, half
    the bytes of :func:`matvec`.  The caller keeps d small enough that
    neither fl32(d) nor the product overflows."""
    return A32 @ d.astype(np.float32)


def cosine_column(A: MatrixHandle, i: int, out: np.ndarray) -> np.ndarray:
    """Column i of the symmetric cosine matrix (:attr:`MatrixHandle.row_cosines`)
    into the m-vector `out`, cast to its dtype.  With I = i // b, b = _TILE,
    the entries l >= I b are column i - I b of panel I, a slice with a
    stride of b entries; the entries l < I b are row i of panels 0 .. I - 1,
    I contiguous b-entry rows of the store, gathered."""
    if not 0 <= i < A.m:
        raise MatrixError(f"row index {i} out of range [0, {A.m})")
    panels, tile_rows, base = A._panels
    I, k = divmod(i, _TILE)
    top = I * _TILE
    out[top:] = panels[I][:, k]
    out[:top] = np.take(tile_rows, base[:I] + i, axis=0).reshape(top)
    return out


def row_buffer(A: MatrixHandle) -> np.ndarray:
    """A stride-2 float64 buffer of length n for :func:`row_dot` to copy x
    into; a caller that dots many rows allocates it once."""
    return np.empty(2 * A.n)[::2]


def row_dot(A: MatrixHandle, i: int, x: np.ndarray,
            xs: np.ndarray | None = None) -> float:
    """A⁽ⁱ⁾ · x, from the row's view (:attr:`MatrixHandle.row_views`); the
    CSR path touches only the stored entries of row i.

    A row of a column-major array has a stride of m entries, so BLAS takes
    its non-unit-stride ddot loop, whose sum is symmetric in its two
    operands (OpenBLAS's; TestLayout in tests/test_matrix.py pins it).
    Where the handle keeps a row-major copy (:attr:`MatrixHandle.rows`), the
    contiguous row is dotted with a stride-2 copy of x: the same loop, the
    same products in the same order, so the same bits.  The copy goes into
    `xs`, a :func:`row_buffer` of A, or into one allocated per call when
    `xs` is None.  x itself is left as it is, because a strided x would
    change the bits of A x and x . x elsewhere.
    """
    if not 0 <= i < A.m:
        raise MatrixError(f"row index {i} out of range [0, {A.m})")
    row = (A._row_views or A.row_views)[i]
    if A.dense is None:
        idx, data = row
        return float(data.dot(x[idx]))
    if A._rows is not A.dense:
        if xs is None:
            xs = row_buffer(A)
        xs[...] = x
        x = xs
    return float(row.dot(x))


def col_dot(A: MatrixHandle, j: int, z: np.ndarray) -> float:
    """A₍ⱼ₎ᵀ · z, from the column's view (:attr:`MatrixHandle.col_views`)."""
    if not 0 <= j < A.n:
        raise MatrixError(f"column index {j} out of range [0, {A.n})")
    col = A.col_views[j]
    if A.dense is None:
        idx, data = col
        return float(data.dot(z[idx]))
    return float(col.dot(z))


def axpy_row(x: np.ndarray, A: MatrixHandle, i: int, c: float) -> np.ndarray:
    """x += c · (A⁽ⁱ⁾)ᵀ in place; returns x."""
    if not 0 <= i < A.m:
        raise MatrixError(f"row index {i} out of range [0, {A.m})")
    row = (A._row_views or A.row_views)[i]
    if A.dense is None:
        idx, data = row
        x[idx] += c * data
    else:
        x += c * row
    return x


def axpy_col(z: np.ndarray, A: MatrixHandle, j: int, c: float) -> np.ndarray:
    """z += c · A₍ⱼ₎ in place; returns z."""
    if not 0 <= j < A.n:
        raise MatrixError(f"column index {j} out of range [0, {A.n})")
    col = A.col_views[j]
    if A.dense is None:
        idx, data = col
        z[idx] += c * data
    else:
        z += c * col
    return z


# -- Matrix Market I/O ---------------------------------------------------------


def read_matrix_market(path) -> MatrixHandle:
    """Read a Matrix Market file; coordinate -> CSR, array -> dense.

    Symmetric-tagged files are expanded to general form.  Pattern and complex
    fields are rejected (real values are required).
    """
    with open(path, "r") as fh:
        banner = fh.readline().split()
    if len(banner) < 5 or banner[0].lower() != "%%matrixmarket":
        raise MatrixFormatError(f"{path}: malformed Matrix Market header")
    fmt, field = banner[2].lower(), banner[3].lower()
    if field == "pattern":
        raise MatrixFormatError(f"{path}: pattern files carry no values")
    if field == "complex":
        raise MatrixFormatError(f"{path}: complex scalars are not supported")
    try:
        mat = mmread(path)
    except Exception as exc:
        raise MatrixFormatError(f"{path}: {exc}") from exc
    if sp.issparse(mat):
        return from_scipy(mat)
    return from_dense(np.asarray(mat, dtype=np.float64))


def write_matrix_market(A: MatrixHandle, path) -> None:
    """Write the handle; dense -> array format, CSR -> coordinate format."""
    if A.dense is not None:
        mmwrite(path, A.dense, symmetry="general", precision=17)
    else:
        mmwrite(path, A.csr.tocoo(), symmetry="general", precision=17)
