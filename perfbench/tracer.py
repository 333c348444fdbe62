"""Outside-in per-layer tracing of blockcd's public kernels.

A :class:`Tracer` replaces, for the duration of a ``with`` block, the public
functions of each layer that the package looks up at call time: the dense and
CSC matrix kernels (class attributes), the block selectors and the mrbgs
subsolve (``blockcd.solvers`` globals) and the count-sketch functions
(``blockcd.sketch`` globals).  Nothing under ``src/`` is edited; leaving the
block restores the originals.

Each wrapped call adds, under the current cell, one call, its inclusive wall
time, and a work count computed from array sizes: ``bytes`` (operands read
plus result written, stored entries with their index arrays for CSC; cache
misses and temporaries are ignored) or ``flops`` (Householder least squares).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import blockcd.sketch
import blockcd.solvers
from blockcd.matrix import DenseMatrix, SparseMatrixCSC

F64 = 8  # bytes per float64 and per int64 index


def _matrix_bytes(A) -> int:
    """Storage a pass over every entry reads: values, plus row and column ids for CSC."""
    if isinstance(A, SparseMatrixCSC):
        return 3 * F64 * A.nnz
    return F64 * A.rows * A.cols


def _block_entries(A, idx) -> int:
    """Stored entries in the selected columns."""
    if isinstance(A, SparseMatrixCSC):
        return int((A.indptr[1:][idx] - A.indptr[:-1][idx]).sum())
    return A.rows * len(idx)


def _full_pass(A, *_):
    return {"bytes": _matrix_bytes(A) + F64 * (A.rows + A.cols)}


def _restricted(A, indices, values):
    # CSC reads values and row ids of the block; dense reads the block columns
    per_entry = 2 * F64 if isinstance(A, SparseMatrixCSC) else F64
    return {
        "bytes": per_entry * _block_entries(A, indices) + F64 * (A.rows + 2 * len(indices)),
        "columns": len(indices),
    }


def _gather(A, indices):
    per_entry = 2 * F64 if isinstance(A, SparseMatrixCSC) else F64
    return {"bytes": per_entry * _block_entries(A, indices) + F64 * A.rows * len(indices)}


def _column_norms(A):
    return {"bytes": _matrix_bytes(A) + F64 * A.cols}


def _householder(a, b):
    m, n = a.shape
    # QR by reflectors 2mn^2 - 2n^3/3, Q^T b 4mn - 2n^2, back substitution n^2
    return {"flops": 2 * m * n * n - 2 * n**3 // 3 + 4 * m * n - n * n}


def _sketch_matrix(sketch, A):
    out = F64 * sketch.d * A.cols if isinstance(A, DenseMatrix) else 3 * F64 * A.nnz
    return {"bytes": _matrix_bytes(A) + 2 * F64 * sketch.m + out}


def _no_work(*_):
    return {}


MATRIX_KERNELS = {
    "transpose_matvec": _full_pass,
    "matvec": _full_pass,
    "restricted_matvec": _restricted,
    "gather_columns": _gather,
    "column_norms": _column_norms,
}

# (owner, attribute, traced name, work counter)
TARGETS = (
    *(
        (cls, attr, f"matrix.{attr}", work)
        for cls in (DenseMatrix, SparseMatrixCSC)
        for attr, work in MATRIX_KERNELS.items()
    ),
    (blockcd.solvers, "select_block_madbcd", "solvers.select", _no_work),
    (blockcd.solvers, "select_block_fbcd", "solvers.select", _no_work),
    (blockcd.solvers, "select_block_mrbgs", "solvers.select", _no_work),
    (blockcd.solvers, "householder_lstsq", "oracle.householder_lstsq", _householder),
    (blockcd.sketch, "build_count_sketch", "sketch.build_count_sketch", _no_work),
    (blockcd.sketch, "sketch_apply_matrix", "sketch.sketch_apply_matrix", _sketch_matrix),
    (blockcd.sketch, "sketch_apply_vector", "sketch.sketch_apply_vector", _no_work),
)


def wrapped_targets() -> list[str]:
    """Names of traced functions that are currently wrapped (empty when clean)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in TARGETS
        if hasattr(owner.__dict__[attr], "__wrapped__")
    ]


def assert_unwrapped() -> None:
    """Refuse to time anything while a traced function is wrapped."""
    wrapped = wrapped_targets()
    if wrapped:
        raise RuntimeError(f"untraced timing with wrapped functions: {wrapped}")


class Tracer:
    """Per-cell call counts, busy seconds and work counts of wrapped calls.

    ``cell`` names the method cell the next calls belong to.  ``busy_total``
    sums the time of outermost wrapped calls only, so a caller can take a
    solve's self time as its duration minus the change in ``busy_total``.
    """

    def __init__(self):
        self.cell = "setup"
        self.stats: dict[tuple[str, str], dict[str, float]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.busy_total = 0.0
        self._depth = 0
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, work):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._depth += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._depth -= 1
                if self._depth == 0:
                    self.busy_total += dt
                entry = self.stats[(self.cell, name)]
                entry["calls"] += 1
                entry["busy_s"] += dt
                for key, value in work(*args, **kwargs).items():
                    entry[key] += value

        return traced

    def __enter__(self) -> "Tracer":
        assert_unwrapped()
        for owner, attr, name, work in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, work))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
