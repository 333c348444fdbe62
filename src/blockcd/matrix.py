"""Dense and compressed-sparse-column matrix storage with the solver kernels.

Both storage classes expose the same five kernels (full matvec, transpose
matvec, column-restricted matvec, column norms, column gather) so solver
code never branches on the representation.  Column-major / CSC layout is
deliberate: every solver step works column-wise (gradient entries are column
dot-products, updates are column gathers).

A run reaches A and b only through the kernel that ``Matrix.normal_kernel(b)``
makes for it.  The kernel forms c = A^T b, and on dense input G = A^T A.  It
gives a step A^T A_tau v, by two passes over CSC storage or read from G, and
the mrbgs subsolve the gathered A_tau and G_tau = A_tau^T A_tau.  It also
decides how a refresh re-derives s = A^T (b - A x): as c - G x while that
form's rounding is far below ||s||, else by a pass that forms r.

Matrices are immutable after construction and safe to share between
concurrent runs; every kernel returns a freshly allocated array.
RankDeficiencyError lives here so that the solvers and the oracle share it
without the solvers importing the oracle.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "Matrix",
    "DenseMatrix",
    "SparseMatrixCSC",
    "RankDeficiencyError",
]


class RankDeficiencyError(ValueError):
    """A numerical failure on a block of columns, from one of two causes.

    A pivot of a factorization falls below its tolerance (mrbgs's QR
    fallback, the oracle's QR); `column` is the first dependent column.  Or
    a step's squared norm ||A_tau eta||^2 underflows
    (``line_search_update``); `column` is the block's first.
    """

    def __init__(self, column: int, magnitude: float, message: str | None = None):
        self.column = column
        self.magnitude = magnitude
        super().__init__(
            message
            or f"numerical rank deficiency at column {column}: |R_jj|={magnitude:.3e}"
        )


class Matrix:
    """Common kernel interface over dense and CSC storage."""

    rows: int
    cols: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """y = A x."""
        raise NotImplementedError

    def transpose_matvec(self, r: np.ndarray) -> np.ndarray:
        """s = A^T r, entry j the dot of column j with r."""
        raise NotImplementedError

    def restricted_matvec(self, indices: np.ndarray, values: np.ndarray) -> np.ndarray:
        """A eta for the sparse direction carrying `values` on `indices`.

        Touches only the selected columns.
        """
        raise NotImplementedError

    def column_norms(self) -> np.ndarray:
        """Euclidean norm of every column."""
        raise NotImplementedError

    def gather_columns(self, indices: np.ndarray) -> np.ndarray:
        """Dense m-by-len(indices) copy of the selected columns."""
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        """Dense 2-D view/copy of the matrix (oracle and test use)."""
        raise NotImplementedError

    def scaled(self, e: int) -> "Matrix":
        """2^e A, a copy; exact unless an entry leaves the normal range."""
        raise NotImplementedError

    def normal_kernel(self, b: np.ndarray) -> "NormalKernel":
        """A fresh per-run kernel for the least-squares problem A x = b."""
        return NormalKernel(self, b)

    def _check_vec(self, v: np.ndarray, length: int, op: str) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] != length:
            raise ValueError(
                f"{op}: expected vector of length {length}, got shape {v.shape}"
            )
        return v

    def _check_indices(self, indices) -> np.ndarray:
        idx = np.asarray(indices, dtype=np.int64)
        if idx.ndim != 1:
            raise ValueError("column indices must be one-dimensional")
        if idx.size and (idx.min() < 0 or idx.max() >= self.cols):
            raise ValueError(
                f"column index out of range: valid range is [0, {self.cols})"
            )
        return idx

    def _check_direction(self, indices, values) -> tuple[np.ndarray, np.ndarray]:
        idx = self._check_indices(indices)
        vals = np.asarray(values, dtype=np.float64)
        if vals.shape != idx.shape:
            raise ValueError("indices and direction values must have equal length")
        return idx, vals


class DenseMatrix(Matrix):
    """Column-major (Fortran-order) dense matrix of 64-bit floats."""

    def __init__(self, values):
        a = np.array(values, dtype=np.float64, order="F")
        if a.ndim != 2:
            raise ValueError(f"dense matrix needs a 2-D array, got ndim={a.ndim}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ValueError(f"matrix dimensions must be >= 1, got {a.shape}")
        self._a = a
        self._a.flags.writeable = False
        self.rows, self.cols = a.shape

    @property
    def array(self) -> np.ndarray:
        return self._a

    def matvec(self, x):
        x = self._check_vec(x, self.cols, "matvec")
        return self._a @ x

    def transpose_matvec(self, r):
        r = self._check_vec(r, self.rows, "transpose_matvec")
        return self._a.T @ r

    def restricted_matvec(self, indices, values):
        idx, vals = self._check_direction(indices, values)
        return self._a[:, idx] @ vals

    def column_norms(self):
        return np.sqrt(np.einsum("ij,ij->j", self._a, self._a))

    def gather_columns(self, indices):
        idx = self._check_indices(indices)
        # rows of the C-ordered transpose: one contiguous copy, in Fortran order
        return self._a.T[idx].T

    def to_dense(self):
        return self._a

    def scaled(self, e):
        return DenseMatrix(np.ldexp(self._a, e))

    def normal_kernel(self, b) -> "GramKernel":
        return GramKernel(self, b)


class SparseMatrixCSC(Matrix):
    """Compressed sparse column storage: `indptr`, `row_indices` and `values`.

    Invariants enforced at construction: non-decreasing `indptr` starting at 0
    and ending at nnz, strictly increasing row indices within each column, no
    explicitly stored zeros.  Use :meth:`from_coo` for unsorted triplet input
    (duplicates are summed; entries that cancel to exact zero are dropped).

    :meth:`transpose_matvec` is a segment sum over `indptr`: the entries of a
    column are contiguous, so entry j of A^T r is one ``np.add.reduceat``
    segment.  numpy sums each segment pairwise rather than strictly left to
    right, so results can differ from a sequential sum in the last bits.
    """

    def __init__(self, rows: int, cols: int, indptr, row_indices, values):
        if rows < 1 or cols < 1:
            raise ValueError(f"matrix dimensions must be >= 1, got ({rows}, {cols})")
        indptr = np.asarray(indptr, dtype=np.int64)
        row_indices = np.asarray(row_indices, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if indptr.shape != (cols + 1,):
            raise ValueError(f"indptr must have length cols+1={cols + 1}")
        if indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing and start at 0")
        if indptr[-1] != len(values) or len(row_indices) != len(values):
            raise ValueError("indptr[-1] must equal the number of stored entries")
        if values.size and (row_indices.min() < 0 or row_indices.max() >= rows):
            raise ValueError(f"row index out of range: valid range is [0, {rows})")
        if np.any(values == 0.0):
            raise ValueError("explicit zero values are not allowed in CSC storage")

        self.rows = int(rows)
        self.cols = int(cols)
        self.indptr = indptr
        self.row_indices = row_indices
        self.values = values
        # columns holding at least one entry: the segments of transpose_matvec
        self._nonempty = np.flatnonzero(np.diff(indptr))

        if values.size:
            col = self.entry_columns
            if np.any(np.diff(row_indices)[col[1:] == col[:-1]] <= 0):
                raise ValueError("row indices must be strictly increasing per column")
        for arr in (self.indptr, self.row_indices, self.values, self._nonempty):
            arr.flags.writeable = False

    @classmethod
    def from_coo(cls, rows: int, cols: int, row_idx, col_idx, values) -> "SparseMatrixCSC":
        """Build from triplets, summing duplicates and dropping exact zeros."""
        ri = np.asarray(row_idx, dtype=np.int64)
        ci = np.asarray(col_idx, dtype=np.int64)
        v = np.asarray(values, dtype=np.float64)
        if not (ri.shape == ci.shape == v.shape):
            raise ValueError("row, column and value arrays must have equal length")
        if ri.size:
            if ri.min() < 0 or ri.max() >= rows:
                raise ValueError(f"row index out of range: valid range is [0, {rows})")
            if ci.min() < 0 or ci.max() >= cols:
                raise ValueError(f"column index out of range: valid range is [0, {cols})")
        key = ci * np.int64(rows) + ri
        order = np.argsort(key, kind="stable")
        key, v = key[order], v[order]
        # key is sorted, so each run of equal keys starts where the key changes
        start = np.flatnonzero(np.r_[key.size > 0, key[1:] != key[:-1]])
        uniq = key[start]
        summed = np.add.reduceat(v, start) if v.size else v
        keep = summed != 0.0
        uniq, summed = uniq[keep], summed[keep]
        ci, ri = uniq // rows, uniq % rows
        indptr = np.zeros(cols + 1, dtype=np.int64)
        np.cumsum(np.bincount(ci, minlength=cols), out=indptr[1:])
        return cls(rows, cols, indptr, ri, summed)

    @classmethod
    def from_dense(cls, array) -> "SparseMatrixCSC":
        a = np.asarray(array, dtype=np.float64)
        ri, ci = np.nonzero(a)
        # nonzero() walks rows first; from_coo resorts into column order
        return cls.from_coo(a.shape[0], a.shape[1], ri, ci, a[ri, ci])

    def matvec(self, x):
        x = self._check_vec(x, self.cols, "matvec")
        w = self.values * np.repeat(x, np.diff(self.indptr))
        return np.bincount(self.row_indices, weights=w, minlength=self.rows)

    def transpose_matvec(self, r):
        r = self._check_vec(r, self.rows, "transpose_matvec")
        w = self.values * r[self.row_indices]
        # a column's entries are contiguous, so s_j is one segment sum over
        # indptr; reduceat yields w[start] for an empty segment and rejects a
        # start equal to nnz, hence only non-empty columns are passed to it
        s = np.zeros(self.cols)
        s[self._nonempty] = np.add.reduceat(w, self.indptr[self._nonempty])
        return s

    def restricted_matvec(self, indices, values):
        idx, vals = self._check_direction(indices, values)
        y = np.zeros(self.rows)
        # row indices are unique within a column, so fancy += is collision-free
        for j, v in zip(idx, vals):
            lo, hi = self.indptr[j], self.indptr[j + 1]
            y[self.row_indices[lo:hi]] += v * self.values[lo:hi]
        return y

    def column_norms(self):
        sq = np.bincount(self.entry_columns, weights=self.values**2, minlength=self.cols)
        return np.sqrt(sq)

    def gather_columns(self, indices):
        idx = self._check_indices(indices)
        out = np.zeros((self.rows, len(idx)), order="F")
        for p, j in enumerate(idx):
            lo, hi = self.indptr[j], self.indptr[j + 1]
            out[self.row_indices[lo:hi], p] = self.values[lo:hi]
        return out

    def to_dense(self):
        out = np.zeros((self.rows, self.cols), order="F")
        out[self.row_indices, self.entry_columns] = self.values
        return out

    def scaled(self, e):
        return SparseMatrixCSC(*self.shape, self.indptr, self.row_indices, np.ldexp(self.values, e))

    @property
    def entry_columns(self) -> np.ndarray:
        """Column id of each stored entry, aligned with `values`; expanded
        from `indptr` on every read rather than stored."""
        return np.repeat(np.arange(self.cols, dtype=np.int64), np.diff(self.indptr))

    @property
    def nnz(self) -> int:
        return len(self.values)


# a refresh reads s = c - G x only while ||s|| exceeds this times its
# eps ||G||_F ||x|| rounding
GRAM_REFRESH_MARGIN = 1e6


class NormalKernel:
    """One run's problem A x = b, and the products with A^T A its steps need.

    Making it forms c = A^T b, the start's s.  `step(block, v)` returns
    (A^T A_tau v, ||A_tau v||^2) for the direction carrying `v` on `block`.
    `block_system(block)` gives the mrbgs subsolve its A_tau and G_tau.
    `refresh` re-derives s = A^T r for a fresh r = b - A x by two passes
    over A, so the kernel needs no full A^T A v.
    """

    def __init__(self, A: Matrix, b: np.ndarray):
        self.A = A
        self.b = b
        self.c = A.transpose_matvec(b)

    def step(self, block: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
        a_v = self.A.restricted_matvec(block, v)
        return self.A.transpose_matvec(a_v), float(np.dot(a_v, a_v))

    def block_system(self, block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The block's columns A_tau, gathered dense, and G_tau = A_tau^T A_tau."""
        a_tau = self.A.gather_columns(block)
        return a_tau, a_tau.T @ a_tau

    def refresh(self, x, s, floor=0.0, form_r=False) -> tuple[np.ndarray, np.ndarray | None]:
        """A fresh s = A^T (b - A x) in place of the carried `s`, and the r it formed.

        The kernel picks the form; by passes over A it is always A^T r for a
        fresh r = b - A x.  `floor` and `form_r` (the caller carries r, so r
        must be formed again) matter only to a kernel with another form.
        """
        r = self.b - self.A.matvec(x)
        return self.A.transpose_matvec(r), r


class GramKernel(NormalKernel):
    """The same products read from G = A^T A, formed once when the kernel is made.

    A step then costs O(n |tau|) and reads no length-m vector; G is n-by-n,
    never larger than A since problems require m >= n.  Forming it is one
    BLAS-3 pass that each run pays inside its own timing, so the kernel is
    made per run and never stored on the shared, immutable matrix.
    """

    def __init__(self, A: DenseMatrix, b: np.ndarray):
        super().__init__(A, b)
        a = A.array
        self._g = a.T @ a

    def step(self, block, v):
        # G is symmetric, so its rows on the block are the columns A^T A_tau
        g = v @ self._g[block]
        return g, float(np.dot(v, g[block]))

    def block_system(self, block):
        return self.A.gather_columns(block), self._g[np.ix_(block, block)]

    def refresh(self, x, s, floor=0.0, form_r=False):
        """s = c - G x, forming no r, unless `form_r` is set or the carried or
        the fresh ||s|| is at most `floor` or GRAM_REFRESH_MARGIN eps ||G||_F
        ||x||, the scale of that form's rounding: G^-1 amplifies it by
        1/sigma_min^2, the rounding of A^T (b - A x) by 1/sigma_min only.
        Then the pass form, which forms r."""
        if not form_r:
            fresh = self.c - self._g @ x
            cut = max(floor, GRAM_REFRESH_MARGIN * (self._rounding * float(np.linalg.norm(x))))
            if min(np.linalg.norm(s), np.linalg.norm(fresh)) > cut:
                return fresh, None
        return super().refresh(x, s)

    @functools.cached_property
    def _rounding(self) -> float:
        """eps ||G||_F, taken on the first refresh."""
        return float(np.finfo(np.float64).eps * np.linalg.norm(self._g))
