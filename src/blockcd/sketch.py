"""Count sketch construction and application.

The d-by-m sketching matrix is never materialized: it is fully described by
a bucket map h (one bucket per input row) and a sign per input row, so it
applies to a vector in one O(m) pass and to a sparse matrix in one pass over
the stored entries.

The sketch of a sparse matrix is not sparse: each of SA's d rows sums about
m/d rows of A, and SA has up to min(nnz(A), d n) nonzeros.  So SA is stored
dense when d n <= DENSE_SKETCH_ENTRIES_PER_NNZ * nnz(A), where its d n
eight-byte words take at most 8 times the bytes of A's CSC storage and the
sketched solve steps from the Gram matrix.  Dense SA, of dense or CSC input,
is written by one bucket sum per column; sparser inputs keep CSC output.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .matrix import DenseMatrix, Matrix, SparseMatrixCSC
from .problems import ProblemInstance, ZeroColumnError

__all__ = [
    "CountSketch",
    "build_count_sketch",
    "sketch_apply_vector",
    "sketch_apply_matrix",
    "cs_prepare",
]

# Dense SA of CSC input may hold up to this many entries per stored entry of A.
# On 20000x500 sparse Gaussians (2-CPU x86, 1 BLAS thread), sketch plus solve
# ran faster dense at up to 13 entries per nonzero and faster on CSC from 20,
# timed with an earlier dense kernel (one flat bincount) slower than the
# per-column one, so 16 now leans toward CSC; it is kept on purpose.
DENSE_SKETCH_ENTRIES_PER_NNZ = 16


@dataclass(frozen=True)
class CountSketch:
    """Bucket map and sign diagonal defining the sketch.

    Buckets are 0-based: row i of the input adds signs[i] times itself to
    output row h[i].
    """

    d: int
    h: np.ndarray
    signs: np.ndarray

    def __post_init__(self):
        if self.h.ndim != 1 or self.signs.shape != self.h.shape:
            raise ValueError("bucket map and signs must have one entry per input row")
        if not 1 <= self.d <= self.m:
            raise ValueError(f"need 1 <= d <= m, got d={self.d}, m={self.m}")
        if self.h.min() < 0 or self.h.max() >= self.d:
            raise ValueError(f"bucket values must lie in [0, {self.d})")
        if not np.all(np.abs(self.signs) == 1.0):
            raise ValueError("signs must be +1 or -1")

    @property
    def m(self) -> int:
        """Input row count, one per bucket-map entry."""
        return len(self.h)


def build_count_sketch(d: int, m: int, seed: int) -> CountSketch:
    """Draw a sketch with buckets uniform over [0, d) and independent signs.

    Fully determined by `seed`: the bucket and sign streams are the first
    two children of ``numpy.random.SeedSequence(seed)``, in that order.
    """
    if d > m:
        raise ValueError(f"sketch would not compress: d={d} > m={m}")
    if d < 1:
        raise ValueError(f"need at least one output row, got d={d}")
    ss_h, ss_signs = np.random.SeedSequence(seed).spawn(2)
    h = np.random.default_rng(ss_h).integers(0, d, size=m, dtype=np.int64)
    signs = np.where(np.random.default_rng(ss_signs).random(m) < 0.5, -1.0, 1.0)
    return CountSketch(d=d, h=h, signs=signs)


def sketch_apply_vector(sketch: CountSketch, v: np.ndarray) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (sketch.m,):
        raise ValueError(
            f"sketch_apply_vector: expected vector of length {sketch.m}, got shape {v.shape}"
        )
    return np.bincount(sketch.h, weights=sketch.signs * v, minlength=sketch.d)


def sketch_apply_matrix(sketch: CountSketch, A: Matrix) -> Matrix:
    """Sketch every column.  Dense output (of dense input, or of CSC input with
    d n <= DENSE_SKETCH_ENTRIES_PER_NNZ * nnz(A)) holds one bucket sum per
    column; sparser CSC input gives CSC output, assembled by
    `SparseMatrixCSC.from_coo`, which drops exact cancellations."""
    if A.rows != sketch.m:
        raise ValueError(
            f"sketch_apply_matrix: sketch expects {sketch.m} input rows, matrix has {A.rows}"
        )
    if isinstance(A, SparseMatrixCSC):
        entry_buckets = sketch.h[A.row_indices]
        entry_signs = sketch.signs[A.row_indices]
        if sketch.d * A.cols > DENSE_SKETCH_ENTRIES_PER_NNZ * A.nnz:
            return SparseMatrixCSC.from_coo(
                sketch.d, A.cols, entry_buckets, A.entry_columns, A.values * entry_signs
            )
        bounds = A.indptr.tolist()
        columns = (
            (entry_buckets[lo:hi], entry_signs[lo:hi], A.values[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])
        )
    else:
        dense = A.to_dense()
        columns = ((sketch.h, sketch.signs, dense[:, j]) for j in range(A.cols))
    out = np.empty((sketch.d, A.cols), order="F")
    for j, (buckets, signs, values) in enumerate(columns):
        out[:, j] = np.bincount(buckets, weights=signs * values, minlength=sketch.d)
    return DenseMatrix(out)


def check_sketch_dimension(d: int, m: int, n: int) -> None:
    """Refuse d sketch rows for an m x n matrix unless n <= d < m."""
    if d >= m:
        raise ValueError(f"sketch would not compress: d={d} >= m={m}")
    if d < n:
        raise ValueError(
            f"sketch dimension d={d} below the column count {n} cannot "
            "preserve full column rank"
        )


def cs_prepare(problem, d: int, seed: int):
    """Compress (A, b) to (SA, Sb), returning the new instance and prep seconds.

    The reference solution is carried over unchanged: iterates of the
    sketched run live in the original coefficient space, and for a consistent
    system the sketched system stays consistent with the same solution.
    """
    A: Matrix = problem.A
    check_sketch_dimension(d, A.rows, A.cols)
    if not problem.consistent:
        warnings.warn(
            "count-sketch preprocessing of an inconsistent system: the sketched "
            "least-squares solution only approximates the original one"
            if problem.x_star is not None
            else "count-sketch preprocessing of a system without x_star: its consistency "
            "cannot be checked, and if it is inconsistent the sketched least-squares "
            "solution only approximates the original one",
            stacklevel=2,
        )
    t0 = time.perf_counter()
    sketch = build_count_sketch(d, A.rows, seed)
    a_sk = sketch_apply_matrix(sketch, A)
    b_sk = sketch_apply_vector(sketch, problem.b)
    prep_seconds = time.perf_counter() - t0
    try:
        sketched = ProblemInstance(
            A=a_sk, b=b_sk, x_star=problem.x_star, label=f"{problem.label}+cs{d}"
        )
    except ZeroColumnError as exc:  # A itself has none, so the sketch made it
        raise ValueError(
            f"the count sketch with d={d} rows drawn from seed {seed} cancels column "
            f"{exc.column} of the matrix to zero; try another seed or a larger d_factor"
        ) from exc
    return sketched, prep_seconds
