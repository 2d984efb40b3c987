"""Immutable dense / CSR matrix storage with cached norms and Matrix Market I/O.

A :class:`MatrixHandle` keeps the squared row norms, squared column norms and
the squared Frobenius norm alongside the entries, because the solvers consume
those quantities on every single step.  Column access is the inner hot loop
of the auxiliary-vector sweep, so it is the contiguous one: dense handles
store their entries column-major (Fortran order), and CSR handles carry a
CSC mirror that touches only the stored entries of a column.  A row of a
column-major array has a stride of m entries, one cache line per entry, so
a dense handle with too many entries for a core's cache (_keeps_rows) also
keeps a read-only row-major copy for the x-step (build_rows).  Its rows are
dotted with a stride-2 copy of x, which
keeps BLAS on the loop a strided row takes, and so every row dot, and every
iterate, bit-identical to a read of the column-major array.

The four step kernels (row_dot, col_dot, axpy_row, axpy_col) index lists of
1-D views, one per row and one per column (row_views, col_views), and call
ndarray.dot: a view slices nothing per step, and .dot skips the matmul
dispatch of @ for the same bits.  A CSR row or column is the (indices, data)
pair of its stored entries.  The column views are built with the handle,
the row views by build_rows.  Dense greedy solves also read one column of
the row cosines per x-step (cosine_column), stored as int16 fixed point:
q = rint(32767 C), whose widening to float64 is a native cast, exact, at
two bytes an entry.  The builders (build_rows, build_row_reach,
build_cosines) are called by solvers.plan, which evaluates their gates
(_keeps_rows, _keeps_gram, _fits_cosines) and times them; no property or
kernel builds anything.  Handles come from from_dense, from_scipy and
read_matrix_market.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.io import mmread, mmwrite

from .errors import MatrixError, MatrixFormatError


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
    call on one scalar) and one view per column (col_views).  None until a
    solve's plan (solvers.plan) builds them, and kept after: rows and
    row_views (:func:`build_rows`), which every solve reads; row_reach and
    gram, A^T A where :func:`_keeps_gram` holds (:func:`build_row_reach`),
    which only REK/PREK with a RES stop read; and cosines, the int16 row
    cosines in tile-column panels (:func:`build_cosines`), which only
    EMRK/MEMRK read.  None of them may be alive during a set-up SVD of A,
    where peak memory is set: at 6000 x 500 the cosines take 36 MB and the
    row-major copy 24 MB, so building them with the handle would lift that
    peak.
    """

    __slots__ = ("m", "n", "dense", "csr", "csc", "row_norms_sq",
                 "col_norms_sq", "frob_sq", "row_table", "col_table",
                 "col_views", "rows", "row_views", "row_reach", "gram",
                 "cosines")

    def __init__(self, *, dense=None, csr=None):
        if (dense is None) == (csr is None):
            raise MatrixError("exactly one of dense/csr storage must be given")
        if dense is not None:
            self.m, self.n = dense.shape
            self.dense = _readonly(dense)
            self.csr = None
            self.csc = None
            self.row_norms_sq = _readonly(np.einsum("ij,ij->i", dense, dense))
            self.col_norms_sq = _readonly(np.einsum("ij,ij->j", dense, dense))
            # 1-D views, contiguous where the array is column-major
            self.col_views = list(self.dense.T)
        else:
            self.m, self.n = csr.shape
            self.dense = None
            self.csr = csr
            self.csc = csr.tocsc()
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
        self.rows = self.row_views = self.row_reach = self.gram = None
        self.cosines = None

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
# Entries of the largest temporary block that build_row_reach forms at once.
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
# Width b of the tile-column panels of the row cosines (build_cosines).  On
# 6000 x 500 (BENCH_cosine_panels.json, medians) a random column read into
# float64 took 25.6 us at b = 16 and 38.5 us at b = 32 (65.5 us from a
# packed triangle), the build 0.61 s and 0.52 s (0.74 s packed), and an
# EMRK iteration 181 and 182 us (213 us packed), a tie: the faster read
# decides.
_TILE = 16
# The int16 value of a cosine of 1: the row cosines are stored as
# rint(_COS_ONE C), the widest grid on which |C| <= 1 fits int16.
_COS_ONE = 32767


def _keeps_gram(A: MatrixHandle) -> bool:
    """Whether the handle keeps its n x n A^T A for the REK/PREK floor
    refresh: stored entries >= 2 (n^2 + 4m) and >= _GRAM_MIN_ENTRIES, m n
    for a dense handle and nnz for CSR; such a Gram matrix takes at most
    half the bytes of A's stored entries.  Below the gate a refresh costs
    about the mat-vec it saves: on small-200x50's 20 instances (seed 800,
    tol 1e-8), a kept A^T A, with the spectral row_reach and the tangent
    tier, cut the float64 passes from 5687 to 20 (REK) and from 4389 to 20
    (PREK), but the median of 9 alternating pairs went from 0.305 to 0.314
    s for REK and from 0.240 to 0.258 s for PREK, ranges overlapping."""
    entries = A.m * A.n if A.dense is not None else A.csr.nnz
    return entries >= max(2 * (A.n * A.n + 4 * A.m), _GRAM_MIN_ENTRIES)


def _fits_cosines(A: MatrixHandle) -> bool:
    """Whether a dense handle may keep its row cosines (:func:`build_cosines`):
    their panel store (:func:`_cosine_bytes`) takes no more than the 16 m n
    bytes of A and its row-major copy, and 2 ||A||_F^2 is finite, which
    keeps every entry of A A^T finite.  A full square int16 matrix would
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
    x-step (:func:`build_rows`): m n >= _ROWS_MIN_ENTRIES.  A row read from
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


def build_rows(A: MatrixHandle, copy: bool) -> int:
    """Sets A.rows, the array whose rows the dense x-step kernels read
    (None for CSR), and A.row_views, one read-only view per row, as
    col_views holds for the columns; returns the bytes of the copy made.
    With `copy` (solvers.plan passes :func:`_keeps_rows`), a dense array
    gets a read-only row-major copy, so that a row is contiguous (see
    :func:`row_dot` for why its row dots are bit-identical); a C-contiguous
    array is its own copy."""
    if A.dense is None:
        A.row_views = _pairs(A.csr)
        return 0
    A.rows = _readonly(np.ascontiguousarray(A.dense)) if copy else A.dense
    A.row_views = list(A.rows)
    return 0 if A.rows is A.dense else A.rows.nbytes


def build_row_reach(A: MatrixHandle, keep: bool) -> str:
    """Sets A.row_reach, upper bounds reach_i >= ||A a_i^T|| as Python
    floats, and A.gram = fl(A^T A) where `keep` (solvers.plan passes
    :func:`_keeps_gram`), else None (freed); returns the path taken, with
    the reason for a fallback.  An x-step x += d a_i^T moves A x by exactly
    d A a_i^T, so reach_i is how far one unit of step along row i can move
    r = b - A x - z.  Products with A are formed in row blocks of at most
    _REACH_BLOCK entries, or one row each.

    Spectral, where H is kept: ||A a_i^T|| <= ||A||_2 ||a_i||, so reach_i =
    sqrt(Lam) sqrt(R2_i) (1 + 4 eps) + 2^-1074 (R2_i below), with Lam from
    :func:`_norm_sq_bound`, in O(n^3): 1.20-1.28 times ||A a_i^T|| (median
    1.23) on a standard normal 6000 x 500.  Lam's factor 1 + n eps takes the gamma_n of the stored
    ||a_i||^2, and 4 eps the five roundings after it, of sqrt(Lam), its
    product with 1 + 4 eps, R2_i, sqrt(R2_i) and the product; the last is
    absolute, up to 2^-1075, where the product falls below 2^-1022, which
    the 2^-1074 added to a live row takes.  If Lam cannot be certified, the
    per-row path runs on the same H.

    Per row, elsewhere: reach_i = sqrt(q_i + margin_i) (1 + 4 eps), q_i =
    ||A a_i^T||^2 computed as a_i H a_i^T, H = A^T A (dense), when H takes
    no more bytes than the stored entries of A (for a dense A, when n <=
    m); else as the squared norm of row i of A A^T, sparse for a CSR
    handle, whose entries and flops number sum_j nnz(A_(j)) over the
    columns j that row i touches.  2 m n^2 flops on the H path.

    A CSR handle forms H as a sparse product, which costs sum_i nnz(a_i)^2
    flops at sparse-product speed, unless that sum reaches m n^2 /
    _DENSE_GRAM_RATIO; then it densifies each row block (toarray) and
    forms H from BLAS products.

    margin_i = 4 (m + n + 8) eps F2 R2_i + U_i covers the rounding of q_i:
    every product above is a dot product of at most max(m, n) terms, each
    off by at most gamma_max(m,n) |A| |a_i^T| entrywise, and
    || |A| |a_i^T| || <= ||A||_F ||a_i||; the H path errs by at most
    (m + 2n) eps and the A A^T path by (2m + 2n) eps, to first order, times
    ||A||_F^2 ||a_i||^2, whatever the order of the sums (so also for H
    summed over row blocks).  A product that underflows errs by up to
    2^-1075 absolutely, which no relative term covers.  So F2 = ||A||_F^2 +
    m n 2^-1074 and R2_i = ||a_i||^2 + n 2^-1074, the stored squares plus
    what their sums may lose to underflow, bound ||A||_F^2 and ||a_i||^2;
    w_i = sqrt(n R2_i) bounds ||a_i||_1, and c = sqrt(m (max_j
    ||A_(j)||^2 + m 2^-1074)) every ||A_(j)||_1.  The entries of H err by
    at most m 2^-1075 more, so q_i by (m w_i^2 + n w_i + n) 2^-1075 on the
    H path; the entries G_il of A A^T err by n 2^-1075 and sum_l |G_il| <=
    c w_i, so q_i = sum_l G_il^2 errs by (2 n c w_i + m) 2^-1075 and a term
    in 2^-2150 on the other.  U_i = (w_i (m w_i + 2 n c + n) + m + n)
    2^-1073 covers both, with slack for the relative factors on top.  A
    zero row (no stored entry, for CSR) takes R2_i = U_i = 0: every product
    with it is exact, and its reach is 0.  The factor 4 eps covers the
    final sum and sqrt.
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

    kept = lam = None
    path = "per row"
    # An overflow leaves an inf or NaN bound, which only forces the solver
    # to form r in full.
    with np.errstate(over="ignore", invalid="ignore"):
        if gram:
            if A.dense is not None:
                H = stored_t @ stored
            elif densify:
                H = np.zeros((n, n))
                for _, _, blk in blocks():
                    H += blk.T @ blk
            else:
                H = (stored_t @ stored).toarray()
            if keep:
                kept = _readonly(H)
                lam, path = _norm_sq_bound(A, H)
        if A.dense is not None:
            live = A.row_norms_sq > 0.0
            dark = np.flatnonzero(~live)  # zero, or squares that underflow
            live[dark] = A.dense[dark].any(axis=1)
        else:
            live = np.diff(A.csr.indptr) > 0
        R2 = np.where(live, A.row_norms_sq + n * 2.0 ** -1074, 0.0)
        if lam is not None:
            reach = np.sqrt(R2) * (math.sqrt(lam) * (1.0 + 4.0 * eps)) \
                + live * 2.0 ** -1074
        else:
            q = np.empty(m)
            for s, e, blk in blocks():
                if gram:
                    q[s:e] = _row_dots(blk, blk @ H)
                else:
                    G = blk @ stored_t  # the block's rows of A A^T
                    q[s:e] = _row_dots(G, G)
            w = np.sqrt(n * R2)
            c = math.sqrt(m * (float(A.col_norms_sq.max()) + m * 2.0 ** -1074))
            under = (w * (m * w + 2.0 * n * c + n) + m + n) * 2.0 ** -1073
            margin = 4.0 * (m + n + 8) * eps \
                * (A.frob_sq + m * n * 2.0 ** -1074) * R2 \
                + np.where(live, under, 0.0)
            reach = np.sqrt(q + margin) * (1.0 + 4.0 * eps)
    A.row_reach, A.gram = reach.tolist(), kept
    return path


def _norm_sq_bound(A: MatrixHandle, H: np.ndarray) -> tuple[float | None, str]:
    """(Lam, path): Lam >= ||A||_2^2 (1 + n eps), certified from H =
    fl(A^T A) by one Cholesky factorization, or (None, path) naming why
    not; path is the text build_row_reach returns.

    With k the power of two that puts max_j H_jj in [1/2, 1), H_s =
    fl(2^k H), lam^ = eigvalsh(H_s)[-1] and mu = fl(lam^ (1 + 2 n (n + 1)
    eps)), the Cholesky factorization of M = fl(mu I - H_s) is tried.
    lam^ is only a guess, and the margin, about twice the term (n + 2) eps
    t <= (n + 2) eps n mu that a success adds below, keeps M positive
    definite by more than the factorization may lose once lam^ is that
    close to lambda_max(H_s): lam^ alone failed on 1-5 of 5 random
    matrices of each shape from 50 x 5 to 20000 x 500.

    If it succeeds, R^T R = M + E with |E| <= gamma_(n+2) |R^T| |R|, in
    any order of the sums and with each division done as a product with
    the reciprocal, as blocked kernels do (Higham, Accuracy and Stability
    of Numerical Algorithms, 2002, Thm 10.3; Rump, BIT 46, 2006), and
    || |R^T| |R| ||_2 <= ||R||_F^2 = tr(M + E), so lambda_min(M) >=
    -gamma_(n+2) tr(M) / (1 - gamma_(n+2)).  M's diagonal is fl(mu -
    H_s,jj), within eps/2 of itself, and t = fl(sum_j |M_jj|) within
    gamma_n of tr(M): so lambda_max(H_s) <= mu + (n + 2) eps t, whose
    coefficient, (2n + 4) eps/2, exceeds the (2n + 3) eps/2 needed to
    first order.  Underflow: fl(2^k H) and every product of the
    factorization may lose 2^-1075, in all at most n (n + 1 + max_j R_jj)
    2^-1075 from lambda_min(M), with R_jj^2 <= 2 mu <= 2 n.  A pivot M_jj
    - (...) > 0 needs mu > max_j H_s,jj >= 1/2, so for any n < 2^60 that
    is below 2^-950 mu, which the spare eps/2 of the factor 4 eps below
    takes: no term for it.

    Unscaled, lambda_max(H) <= 2^-k (mu + (n + 2) eps t).  |H - A^T A| <=
    gamma_m |A|^T |A| + m 2^-1075 entrywise (Higham sec. 3.1, any order,
    so for a CSR handle's sparse product and summed row blocks too), and
    || |A|^T |A| ||_2 <= ||A||_F^2 <= F2 = ||A||_F^2 + m n 2^-1074 up to
    gamma_(m+n), so ||A||_2^2 <= lambda_max(H) + m eps F2 + m n 2^-1074:
    m eps is twice gamma_m, and m n 2^-1074 twice the m n 2^-1075 that
    H's entries may lose to underflow.  The spare takes the one absolute
    rounding that can matter: where 2^-k (...) falls below 2^-1022, every
    fl(||A_(j)||^2) does, so every product and partial sum of H is
    subnormal, exact but for underflow, and m eps F2 is not needed;
    elsewhere 2^-k (...) is exact, and only m eps F2 may round below
    2^-1022.
    Lam is that sum times 1 + (n + 4) eps: n eps takes the gamma_n of a
    stored ||a_i||^2 (see build_row_reach; where R2_i errs relatively, Lam >=
    ||a_i||^2 >= 2^-1022, so the factor is not lost to underflow), and
    4 eps the seven roundings of the sum.
    """
    m, n = A.m, A.n
    eps = float(np.finfo(np.float64).eps)
    if not np.isfinite(H).all():
        return None, "per row: A^T A is not finite"
    k = -math.frexp(float(np.diagonal(H).max()))[1]
    M = np.ldexp(H, k)
    mu = float(np.linalg.eigvalsh(M)[-1]) * (1.0 + 2.0 * n * (n + 1) * eps)
    np.negative(M, out=M)
    M.flat[::n + 1] += mu
    t = float(np.abs(np.diagonal(M)).sum())
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None, "per row: no Cholesky factor of mu I - A^T A"
    F2 = A.frob_sq + m * n * 2.0 ** -1074
    lam = (float(np.ldexp(mu + (n + 2) * eps * t, -k)) + m * eps * F2
           + m * n * 2.0 ** -1074) * (1.0 + (n + 4) * eps)
    return lam, f"spectral, ||A||_2^2 <= {lam!r}"


def _panel_heights(m: int) -> np.ndarray:
    """Rows of each tile-column panel of an m x m cosine matrix: panel I
    holds rows I b .. m - 1, b = _TILE."""
    return m - np.arange(0, m, _TILE)


def build_cosines(A: MatrixHandle) -> int:
    """Sets A.cosines = (panels, tile_rows, base), the row cosines of a
    dense handle, and returns their bytes: the lower triangle of C = D A
    A^T D, D = diag(1 / nu), nu_l = fl(sqrt(||a_l||^2)) (1 / 0 taken as 0,
    so a cosine with an all-zero or underflowing row is 0), as q =
    rint(clip(_COS_ONE C, +-_COS_ONE)), each within 1 / (2 _COS_ONE) =
    1/65534 of the float64 cosine, in one read-only int16 store of
    tile-column panels of width b = _TILE.  Panel I is the C-order
    block C[I b:, I b:(I + 1) b] (a view in `panels`, zero-padded beyond
    column m - 1), and its diagonal tile is stored in full: the upper half
    mirrors the lower, so C_li for l < i in that tile holds row i's value,
    C_il.  Row i of panel L < i // b is row base[L] + i of `tile_rows`, the
    store viewed as (-1, b).  :func:`cosine_column` reads column i from
    these views.

    A A^T is formed in float64 by BLAS-3 in row blocks of at most
    _REACH_BLOCK * 8 entries, each block scaled by _COS_ONE / nu_l and
    1 / nu_i, clipped, rounded to integers into int16 once and copied into
    the panels it crosses.  Each entry of A A^T errs by at most gamma_n
    |a_l| |a_i| and n 2^-1075 of underflow (Higham 2002, sec. 3.1), in any
    order of summation; the two scalings round by eps/2 relative each, the
    clip only moves a value toward the exact cosine, |C| <= 1, and the
    rounding to the grid errs by at most 1/65534 absolute in C's units
    (solvers.GramResidual bounds their effect)."""
    m, b = A.m, _TILE
    norms = np.sqrt(A.row_norms_sq)
    inv = np.divide(1.0, norms, out=np.zeros(m), where=norms > 0.0)
    inv_one = inv * _COS_ONE
    sizes = _panel_heights(m) * b
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    store = np.zeros(offsets[-1], dtype=np.int16)
    panels = [store[o:o + k].reshape(-1, b) for o, k in zip(offsets, sizes)]
    height = max(1, 8 * _REACH_BLOCK // m)
    # one buffer of each type for every block: a fresh 8 MB block per
    # GEMM would fault in its pages on every call
    size = min(height, m) * m
    wide, narrow = np.empty(size), np.empty(size, np.int16)
    for s in range(0, m, height):
        e = min(m, s + height)
        block = np.matmul(A.dense[s:e], A.dense[:e].T,
                          out=wide[:(e - s) * e].reshape(e - s, e))
        block *= inv_one[s:e, None]
        block *= inv[:e]
        np.clip(block, -_COS_ONE, _COS_ONE, out=block)
        block16 = narrow[:block.size].reshape(block.shape)
        np.rint(block, out=block16, casting="unsafe")
        for top in range(0, e, b):
            lo = max(s, top)
            tile = block16[lo - s:, top:top + b]
            panels[top // b][lo - top:e - top, :tile.shape[1]] = tile
    for panel in panels:  # the mirror: upper half of the diagonal tile
        h = min(b, len(panel))
        tile, upper = panel[:h, :h], np.triu_indices(h, 1)
        tile[upper] = tile.T[upper]
    base = offsets[:-1] // b - np.arange(0, m, b)
    A.cosines = ([_readonly(p) for p in panels],
                 _readonly(store.reshape(-1, b)), base)
    return store.nbytes


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
    (checked before the cast, which would overflow)."""
    if not max(A.dense.max(), -A.dense.min()) <= _F32_MAX:
        return None
    return A.dense.astype(np.float32, order="F")


def matvec_single(A32: np.ndarray, d: np.ndarray) -> np.ndarray:
    """w = A32 fl32(d) in float32: one pass over a :func:`single_copy`, half
    the bytes of :func:`matvec`.  The caller keeps d small enough that
    neither fl32(d) nor the product overflows."""
    return A32 @ d.astype(np.float32)


def cosine_column(A: MatrixHandle, i: int, out: np.ndarray) -> np.ndarray:
    """Column i of the symmetric cosine matrix (:func:`build_cosines`),
    its int16 values q = rint(_COS_ONE C), into the m-vector `out`, cast to
    its dtype (exactly, into float64).  With I = i // b, b = _TILE,
    the entries l >= I b are column i - I b of panel I, a slice with a
    stride of b entries; the entries l < I b are row i of panels 0 .. I - 1,
    I contiguous b-entry rows of the store, gathered."""
    if not 0 <= i < A.m:
        raise MatrixError(f"row index {i} out of range [0, {A.m})")
    panels, tile_rows, base = A.cosines
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
    """A⁽ⁱ⁾ · x, from the row's view (MatrixHandle.row_views, set by
    :func:`build_rows`); the CSR path touches only the stored entries of
    row i.

    A row of a column-major array has a stride of m entries, so BLAS takes
    its non-unit-stride ddot loop, whose sum is symmetric in its two
    operands (OpenBLAS's; TestLayout in tests/test_matrix.py pins it).
    Where the handle keeps a row-major copy (MatrixHandle.rows), the
    contiguous row is dotted with a stride-2 copy of x: the same loop, the
    same products in the same order, so the same bits.  The copy goes into
    `xs`, a :func:`row_buffer` of A, or into one allocated per call when
    `xs` is None.  x itself is left as it is, because a strided x would
    change the bits of A x and x . x elsewhere.
    """
    if not 0 <= i < A.m:
        raise MatrixError(f"row index {i} out of range [0, {A.m})")
    row = A.row_views[i]
    if A.dense is None:
        idx, data = row
        return float(data.dot(x[idx]))
    if A.rows is not A.dense:
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
    row = A.row_views[i]
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
