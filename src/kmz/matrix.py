"""Immutable dense / CSR matrix storage with cached norms and Matrix Market I/O.

A :class:`MatrixHandle` keeps the squared row norms, squared column norms and
the squared Frobenius norm alongside the entries, because the solvers consume
those quantities on every single step.  Column access is the inner hot loop
of the auxiliary-vector sweep, so it is the contiguous one: dense handles
keep their single copy of the entries column-major (Fortran order), and CSR
handles carry a CSC mirror that touches only the stored entries of a column.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.io import mmread, mmwrite

from .errors import MatrixError, MatrixFormatError


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class MatrixHandle:
    """Immutable matrix, either dense column-major or CSR (+ CSC mirror).

    Build through :func:`from_dense`, :func:`from_csr`, :func:`from_scipy`
    or :func:`read_matrix_market`; those store dense entries column-major.
    A handle built directly keeps the array it is given in its own layout.
    """

    __slots__ = ("m", "n", "dense", "csr", "csc", "row_norms_sq",
                 "col_norms_sq", "frob_sq", "_row_cum", "_col_cum", "_gram")

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
        self.frob_sq = float(self.row_norms_sq.sum())
        self._row_cum = None
        self._col_cum = None
        self._gram = None

    # -- lazy cumulative norm tables for inverse-CDF sampling ----------------

    @property
    def row_cumsum(self) -> np.ndarray:
        if self._row_cum is None:
            self._row_cum = _readonly(np.cumsum(self.row_norms_sq))
        return self._row_cum

    @property
    def col_cumsum(self) -> np.ndarray:
        if self._col_cum is None:
            self._col_cum = _readonly(np.cumsum(self.col_norms_sq))
        return self._col_cum

    @property
    def gram(self) -> np.ndarray:
        """The n x n Gram matrix AᵀA of a dense handle, built on first use.

        It is symmetric, so its contiguous row j serves as column j.
        """
        if self.dense is None:
            raise MatrixError("the Gram matrix is kept for dense handles only")
        if self._gram is None:
            self._gram = _readonly(self.dense.T @ self.dense)
        return self._gram

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


def from_csr(rows: int, cols: int, indptr, indices, data) -> MatrixHandle:
    """Build a CSR handle from a validated (indptr, indices, data) triplet."""
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    data = np.array(data, dtype=np.float64)
    if rows < 0 or cols < 0:
        raise MatrixError("negative dimensions")
    if indptr.shape != (rows + 1,):
        raise MatrixError(f"indptr must have length {rows + 1}")
    if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
        raise MatrixError("CSR offsets must start at 0 and be nondecreasing")
    nnz = int(indptr[-1])
    if len(indices) != nnz or len(data) != nnz:
        raise MatrixError("CSR offsets disagree with stored-entry count")
    if nnz and (indices.min() < 0 or indices.max() >= cols):
        raise MatrixError("CSR column index out of range")
    if not np.all(np.isfinite(data)):
        raise MatrixError("non-finite entry in CSR data")
    if nnz > 1:
        # strictly increasing within each row; pairs that span a row boundary
        # are exempt.  Catches both unsorted and duplicate column indices.
        same_row = np.ones(nnz - 1, dtype=bool)
        boundaries = indptr[1:-1]
        same_row[boundaries[(boundaries > 0) & (boundaries < nnz)] - 1] = False
        if np.any((np.diff(indices) <= 0) & same_row):
            raise MatrixError("CSR column indices must be strictly increasing per row")
    csr = sp.csr_matrix((data, indices.astype(np.int32, copy=False),
                         indptr.astype(np.int32, copy=False)), shape=(rows, cols))
    return MatrixHandle(csr=csr)


def from_scipy(mat) -> MatrixHandle:
    """Wrap a scipy sparse matrix (canonicalized) as a CSR handle."""
    csr = sp.csr_matrix(mat, dtype=np.float64)
    csr.sum_duplicates()
    csr.sort_indices()
    if not np.all(np.isfinite(csr.data)):
        raise MatrixError("non-finite entry in sparse matrix")
    return MatrixHandle(csr=csr)


# -- kernels ------------------------------------------------------------------


def _check_row(A: MatrixHandle, i: int):
    if not 0 <= i < A.m:
        raise MatrixError(f"row index {i} out of range [0, {A.m})")


def _check_col(A: MatrixHandle, j: int):
    if not 0 <= j < A.n:
        raise MatrixError(f"column index {j} out of range [0, {A.n})")


def matvec(A: MatrixHandle, x: np.ndarray) -> np.ndarray:
    """y = A x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.n,):
        raise MatrixError(f"matvec length mismatch: {x.shape} vs n={A.n}")
    if A.dense is not None:
        return A.dense @ x
    return A.csr @ x


def row_dot(A: MatrixHandle, i: int, x: np.ndarray) -> float:
    """A⁽ⁱ⁾ · x; CSR path touches only the stored entries of row i."""
    _check_row(A, i)
    if A.dense is not None:
        return float(A.dense[i] @ x)
    s, e = A.csr.indptr[i], A.csr.indptr[i + 1]
    return float(A.csr.data[s:e] @ x[A.csr.indices[s:e]])


def col_dot(A: MatrixHandle, j: int, z: np.ndarray) -> float:
    """A₍ⱼ₎ᵀ · z."""
    _check_col(A, j)
    if A.dense is not None:
        return float(A.dense[:, j] @ z)
    s, e = A.csc.indptr[j], A.csc.indptr[j + 1]
    return float(A.csc.data[s:e] @ z[A.csc.indices[s:e]])


def axpy_row(x: np.ndarray, A: MatrixHandle, i: int, c: float) -> np.ndarray:
    """x += c · (A⁽ⁱ⁾)ᵀ in place; returns x."""
    _check_row(A, i)
    if A.dense is not None:
        x += c * A.dense[i]
    else:
        s, e = A.csr.indptr[i], A.csr.indptr[i + 1]
        x[A.csr.indices[s:e]] += c * A.csr.data[s:e]
    return x


def axpy_col(z: np.ndarray, A: MatrixHandle, j: int, c: float) -> np.ndarray:
    """z += c · A₍ⱼ₎ in place; returns z."""
    _check_col(A, j)
    if A.dense is not None:
        z += c * A.dense[:, j]
    else:
        s, e = A.csc.indptr[j], A.csc.indptr[j + 1]
        z[A.csc.indices[s:e]] += c * A.csc.data[s:e]
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
