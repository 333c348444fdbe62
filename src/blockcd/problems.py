"""Problem specs, generation and on-disk exchange.

`PROBLEM_FIELDS` declares every problem kind and its typed fields;
`build_problem` realizes a spec for one seed, and `parse_problem` reads the
command line's short forms (`CLI_FORMS`) through the same table.

Generators cover dense Gaussian, sparse Gaussian and a synthetic
parallel-beam travel-time tomography (a deliberately simplified stand-in for
the usual tomography toolbox generators: qualitative behaviour matches,
bit-level output does not).  Real matrices are ingested from Matrix Market
coordinate files.

All generators are pure functions of their parameters and seed.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
from dataclasses import dataclass
from typing import get_args

import numpy as np

from .matrix import DenseMatrix, Matrix, SparseMatrixCSC

__all__ = [
    "ProblemInstance",
    "MatrixMarketError",
    "gen_gaussian_dense",
    "gen_sparse_gaussian",
    "gen_tomography",
    "trace_ray",
    "make_consistent_problem",
    "read_matrix_market",
    "write_matrix_market",
    "read_problem_bundle",
    "write_problem_bundle",
    "build_problem",
]

CONSISTENCY_RTOL = 1e-10

# 4 log2 max_j ||a_j|| + 2 log2 max_i |b_i| estimates log2 ||A_tau eta||^2, the
# squared norm a line-search step divides by.  A consistent 200x20 Gaussian
# scaled by 1e-53 gives about -1034 and still solves to 1e-12; scaled by 1e-55
# it gives about -1073, ||s||^2 and ||A_tau eta||^2 underflow, and a full-rank
# problem would stop on a false rank deficiency or zero residual.
SCALE_LOG2_FLOOR = -1050


def _refuse_non_finite(what: str, v: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(v))
    if bad.size:
        raise ValueError(f"{what} has a non-finite entry at index {bad[0]}")


class ZeroColumnError(ValueError):
    """A matrix column with no nonzero entry; `column` is its index."""

    def __init__(self, column: int):
        self.column = column
        super().__init__(f"matrix has a zero column at index {column}")


@dataclass
class ProblemInstance:
    """A least-squares instance: coefficients, right-hand side, optional truth."""

    A: Matrix
    b: np.ndarray
    x_star: np.ndarray | None = None
    label: str = ""

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=np.float64)
        if self.A.rows < self.A.cols:
            raise ValueError(
                f"matrix is wider than tall ({self.A.rows}x{self.A.cols}); the "
                "solvers need m >= n - transpose wide storage on ingestion"
            )
        if self.b.shape != (self.A.rows,):
            raise ValueError(
                f"right-hand side must have length {self.A.rows}, got shape {self.b.shape}"
            )
        # A before b: b = A x_star of a bad A is bad too, and A is at fault
        with np.errstate(over="ignore"):  # an overflow is refused just below
            norms = self.A.column_norms()
        # a NaN or infinity anywhere in column j makes its norm non-finite
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            raise ValueError(
                f"matrix column {bad[0]} has a non-finite entry or overflowing norm"
            )
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            j = int(zero[0])
            if self.A.gather_columns([j]).any():
                raise ValueError(
                    f"matrix column {j} has nonzero entries but its norm underflows "
                    "to zero; rescale the matrix"
                )
            raise ZeroColumnError(j)
        _refuse_non_finite("right-hand side", self.b)
        b_max = float(np.abs(self.b).max())
        if b_max > 0.0:  # b = 0 is solved by x = 0 at any scale
            a_max = float(norms.max())
            # in log2, so that the check itself cannot underflow
            if 4 * math.log2(a_max) + 2 * math.log2(b_max) < SCALE_LOG2_FLOOR:
                raise ValueError(
                    f"matrix and right-hand side are too small to solve in double precision "
                    f"(largest column norm {a_max:.3e}, largest |b_i| {b_max:.3e}); rescale them"
                )
        if self.x_star is not None:
            self.x_star = np.asarray(self.x_star, dtype=np.float64)
            if self.x_star.shape != (self.A.cols,):
                raise ValueError(
                    f"reference solution must have length {self.A.cols}, "
                    f"got shape {self.x_star.shape}"
                )
            _refuse_non_finite("reference solution", self.x_star)
            if not self.x_star.any():
                raise ValueError(
                    "reference solution is all zeros, so the relative solution "
                    "error is undefined; omit x_star to stop on the normal residual"
                )

    @functools.cached_property
    def consistent(self) -> bool:
        """Computed from the data on first read, never declared: true exactly
        when x_star is given and ||b - A x_star|| <= CONSISTENCY_RTOL ||b||."""
        return self.x_star is not None and float(
            np.linalg.norm(self.b - self.A.matvec(self.x_star))
        ) <= CONSISTENCY_RTOL * float(np.linalg.norm(self.b))


def gen_gaussian_dense(m: int, n: int, seed: int) -> DenseMatrix:
    """i.i.d. standard-normal dense matrix (ziggurat draws from a seeded PCG64)."""
    if m < n:
        raise ValueError(f"overdetermined contract requires m >= n, got {m} < {n}")
    if n < 1:
        raise ValueError("need at least one column")
    rng = np.random.default_rng(seed)
    return DenseMatrix(rng.standard_normal((m, n)))


def gen_sparse_gaussian(m: int, n: int, density: float, seed: int) -> SparseMatrixCSC:
    """Sparse matrix with Bernoulli(density) pattern and standard-normal values.

    A column that comes out empty is repaired with one normal entry at a
    seeded random row, so the no-zero-column invariant always holds.
    """
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must lie in (0, 1], got {density}")
    if m < n:
        raise ValueError(f"overdetermined contract requires m >= n, got {m} < {n}")
    if n < 1:
        raise ValueError("need at least one column")
    rng = np.random.default_rng(seed)
    col_rows: list[np.ndarray] = []
    col_vals: list[np.ndarray] = []
    for _ in range(n):
        rows = np.flatnonzero(rng.random(m) < density)
        if rows.size == 0:
            rows = np.array([rng.integers(m)], dtype=np.int64)
        vals = rng.standard_normal(rows.size)
        keep = vals != 0.0  # exact-zero draws would violate CSC storage
        col_rows.append(rows[keep])
        col_vals.append(vals[keep])
    lengths = np.array([r.size for r in col_rows], dtype=np.int64)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=indptr[1:])
    return SparseMatrixCSC(
        m, n, indptr, np.concatenate(col_rows), np.concatenate(col_vals)
    )


def make_consistent_problem(A: Matrix, seed: int, label: str = "") -> ProblemInstance:
    """Draw x_star ~ N(0, I) and set b = A x_star."""
    rng = np.random.default_rng(seed)
    x_star = rng.standard_normal(A.cols)
    return ProblemInstance(
        A=A,
        b=A.matvec(x_star),
        x_star=x_star,
        label=label,
    )


# ---------------------------------------------------------------------------
# synthetic tomography
# ---------------------------------------------------------------------------


def trace_ray(origin, direction, grid_side: int) -> tuple[np.ndarray, np.ndarray]:
    """Pixel indices and intersection lengths of one ray through the grid.

    The grid occupies [0, grid_side]^2 with unit pixels; pixel (ix, iy) maps
    to flat index iy * grid_side + ix.  The ray is the full line through
    `origin` along `direction`.  Returns empty arrays when the line misses
    the grid.
    """
    n = grid_side
    p = np.asarray(origin, dtype=np.float64)
    d = np.asarray(direction, dtype=np.float64)
    nrm = float(np.linalg.norm(d))
    if nrm == 0.0:
        raise ValueError("ray direction must be nonzero")
    d = d / nrm

    empty = (np.empty(0, dtype=np.int64), np.empty(0))
    tmin, tmax = -math.inf, math.inf
    for axis in (0, 1):
        if abs(d[axis]) < 1e-14:
            if not 0.0 < p[axis] < n:
                return empty
        else:
            t1 = (0.0 - p[axis]) / d[axis]
            t2 = (n - p[axis]) / d[axis]
            tmin = max(tmin, min(t1, t2))
            tmax = min(tmax, max(t1, t2))
    if not tmax - tmin > 1e-12:
        return empty

    ts = [np.array([tmin, tmax])]
    for axis in (0, 1):
        if abs(d[axis]) >= 1e-14:
            lo = p[axis] + tmin * d[axis]
            hi = p[axis] + tmax * d[axis]
            lo, hi = min(lo, hi), max(lo, hi)
            planes = np.arange(math.ceil(lo), math.floor(hi) + 1, dtype=np.float64)
            ts.append((planes - p[axis]) / d[axis])
    t = np.unique(np.concatenate(ts))
    t = t[(t >= tmin - 1e-12) & (t <= tmax + 1e-12)]
    seg = np.diff(t)
    keep = seg > 1e-12
    if not np.any(keep):
        return empty
    mids = (t[:-1] + t[1:])[keep] / 2.0
    px = p[0] + mids * d[0]
    py = p[1] + mids * d[1]
    ix = np.clip(np.floor(px).astype(np.int64), 0, n - 1)
    iy = np.clip(np.floor(py).astype(np.int64), 0, n - 1)
    return iy * n + ix, seg[keep]


_SHEPP_LOGAN_ELLIPSES = [
    # (intensity, semi-axis a, semi-axis b, x0, y0, rotation degrees)
    (2.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.98, 0.6624, 0.8740, 0.0, -0.0184, 0.0),
    (-0.02, 0.1100, 0.3100, 0.22, 0.0, -18.0),
    (-0.02, 0.1600, 0.4100, -0.22, 0.0, 18.0),
    (0.01, 0.2100, 0.2500, 0.0, 0.35, 0.0),
    (0.01, 0.0460, 0.0460, 0.0, 0.1, 0.0),
    (0.01, 0.0460, 0.0460, 0.0, -0.1, 0.0),
    (0.01, 0.0460, 0.0230, -0.08, -0.605, 0.0),
    (0.01, 0.0230, 0.0230, 0.0, -0.606, 0.0),
    (0.01, 0.0230, 0.0460, 0.06, -0.605, 0.0),
]


def _shepp_logan_phantom(n: int) -> np.ndarray:
    c = (np.arange(n) + 0.5) / n * 2.0 - 1.0
    x, y = np.meshgrid(c, c)  # y runs over rows (iy), x over columns (ix)
    img = np.zeros((n, n))
    for val, a, b, x0, y0, deg in _SHEPP_LOGAN_ELLIPSES:
        phi = math.radians(deg)
        xr = (x - x0) * math.cos(phi) + (y - y0) * math.sin(phi)
        yr = -(x - x0) * math.sin(phi) + (y - y0) * math.cos(phi)
        img[(xr / a) ** 2 + (yr / b) ** 2 <= 1.0] += val
    return img.ravel()


def _blocks_phantom(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    img = np.zeros((n, n))
    for _ in range(4):
        h = int(rng.integers(n // 4, max(n // 2, n // 4 + 1)))
        w = int(rng.integers(n // 4, max(n // 2, n // 4 + 1)))
        top = int(rng.integers(0, n - h + 1))
        left = int(rng.integers(0, n - w + 1))
        img[top : top + h, left : left + w] += float(rng.uniform(0.5, 2.0))
    return img.ravel()


def gen_tomography(grid_side: int, phantom: str = "shepp-logan-like",
                   seed: int = 0) -> ProblemInstance:
    """Parallel-beam scan of an N-by-N unit-pixel grid projecting a phantom.

    2N angles spread evenly over [0, pi).  For each, ceil(1.5 N) parallel rays
    (enough to span the grid diagonal) cross the grid, one pixel width apart
    along the perpendicular detector axis and centered on the grid center.
    Rays that miss the grid are dropped; at least N - 1 per angle pass closer
    than N/2 to the center and so cross it, which keeps the 2N(N - 1) or more
    rows above the N^2 pixels.  b = A x_star with x_star the rasterized phantom.
    """
    if grid_side < 4:
        raise ValueError(f"grid side must be >= 4, got {grid_side}")
    if phantom not in ("shepp-logan-like", "blocks"):
        raise ValueError(f"unknown phantom {phantom!r}")
    n = grid_side
    n_angles, n_detectors = 2 * n, math.ceil(1.5 * n)
    rows_idx: list[np.ndarray] = []
    cols_idx: list[np.ndarray] = []
    vals: list[np.ndarray] = []
    row = 0
    offsets = np.arange(n_detectors) - (n_detectors - 1) / 2.0
    center = n / 2.0
    for theta in np.arange(n_angles) * math.pi / n_angles:
        d = np.array([math.cos(theta), math.sin(theta)])
        perp = np.array([-math.sin(theta), math.cos(theta)])
        for off in offsets:
            origin = np.array([center, center]) + off * perp
            cols, lens = trace_ray(origin, d, n)
            if cols.size == 0:
                continue
            rows_idx.append(np.full(cols.size, row, dtype=np.int64))
            cols_idx.append(cols)
            vals.append(lens)
            row += 1
    A = SparseMatrixCSC.from_coo(
        row, n * n, np.concatenate(rows_idx), np.concatenate(cols_idx),
        np.concatenate(vals),
    )
    if phantom == "shepp-logan-like":
        x_star = _shepp_logan_phantom(n)
    else:
        x_star = _blocks_phantom(n, seed)
    return ProblemInstance(
        A=A,
        b=A.matvec(x_star),
        x_star=x_star,
        label=f"tomo{n}x{n}-{phantom}",
    )


# ---------------------------------------------------------------------------
# Matrix Market exchange
# ---------------------------------------------------------------------------


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input, with the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


def read_matrix_market(path, transpose: bool = False) -> SparseMatrixCSC:
    """Parse a coordinate Matrix Market file into CSC storage.

    Supports real/integer/pattern fields (pattern entries become 1.0) and
    general/symmetric symmetry (symmetric storage is expanded to full).
    1-based file indices become 0-based; duplicate entries are summed.  With
    `transpose`, the transposed matrix is returned, mirroring the common
    trick of solving with A^T when the stored matrix is wide.
    """
    with open(path, "r", encoding="ascii") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError(path, 1, "empty file")
    banner = lines[0].split()
    if len(banner) != 5 or banner[0].lower() != "%%matrixmarket":
        raise MatrixMarketError(path, 1, "missing %%MatrixMarket banner")
    obj, fmt, fld, sym = (w.lower() for w in banner[1:])
    if obj != "matrix":
        raise MatrixMarketError(path, 1, f"unsupported object {obj!r}")
    if fmt != "coordinate":
        raise MatrixMarketError(path, 1, f"unsupported format {fmt!r} (need coordinate)")
    if fld == "complex":
        raise MatrixMarketError(path, 1, "complex field is not supported")
    if fld not in ("real", "integer", "pattern"):
        raise MatrixMarketError(path, 1, f"unsupported field {fld!r}")
    if sym not in ("general", "symmetric"):
        raise MatrixMarketError(path, 1, f"unsupported symmetry {sym!r}")

    # (line number, text) of each line after the banner that holds data
    data = (
        (ln, text)
        for ln, text in enumerate((line.strip() for line in lines[1:]), start=2)
        if text and not text.startswith("%")
    )
    ln, text = next(data, (len(lines), ""))
    if not text:
        raise MatrixMarketError(path, ln, "missing size line")
    parts = text.split()
    if len(parts) != 3:
        raise MatrixMarketError(path, ln, "size line must be 'rows cols nnz'")
    try:
        size = tuple(int(p) for p in parts)
    except ValueError:
        raise MatrixMarketError(path, ln, f"bad size line {text!r}") from None
    m, n, nnz = size
    if m < 1 or n < 1 or nnz < 0:
        raise MatrixMarketError(path, ln, f"invalid dimensions {size}")
    if nnz > len(lines) - ln:  # one entry per line; refused before it sizes the arrays
        raise MatrixMarketError(
            path, ln, f"declared {nnz} entries but only {len(lines) - ln} lines follow"
        )

    ri = np.empty(nnz, dtype=np.int64)
    ci = np.empty(nnz, dtype=np.int64)
    vv = np.empty(nnz)
    want = 2 if fld == "pattern" else 3
    count = 0
    for ln, text in data:
        parts = text.split()
        if len(parts) != want:
            raise MatrixMarketError(
                path, ln, f"expected {want} tokens per entry, got {len(parts)}"
            )
        if count >= nnz:
            raise MatrixMarketError(path, ln, f"more than the declared {nnz} entries")
        try:
            i = int(parts[0])
            j = int(parts[1])
            v = 1.0 if fld == "pattern" else float(parts[2])
        except ValueError:
            raise MatrixMarketError(path, ln, f"bad entry {text!r}") from None
        if not (1 <= i <= m and 1 <= j <= n):
            raise MatrixMarketError(
                path, ln, f"index ({i}, {j}) out of bounds for {m}x{n}"
            )
        ri[count] = i - 1
        ci[count] = j - 1
        vv[count] = v
        count += 1
    if count != nnz:
        raise MatrixMarketError(
            path, len(lines), f"declared {nnz} entries but found {count}"
        )

    if sym == "symmetric":
        if m != n:
            raise MatrixMarketError(path, 1, "symmetric matrices must be square")
        off = ri != ci
        ri, ci, vv = (
            np.concatenate([ri, ci[off]]),
            np.concatenate([ci, ri[off]]),
            np.concatenate([vv, vv[off]]),
        )
    if transpose:
        ri, ci = ci, ri
        m, n = n, m
    return SparseMatrixCSC.from_coo(m, n, ri, ci, vv)


def write_matrix_market(path, A: Matrix) -> None:
    """Emit coordinate real general with full-precision values."""
    if isinstance(A, DenseMatrix):
        A = SparseMatrixCSC.from_dense(A.to_dense())
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write(f"{A.rows} {A.cols} {A.nnz}\n")
        cols = A.entry_columns
        for p in range(A.nnz):
            # repr of a Python float is the shortest exact round-trip form
            fh.write(f"{A.row_indices[p] + 1} {cols[p] + 1} {float(A.values[p])!r}\n")


def write_problem_bundle(directory, problem: ProblemInstance) -> None:
    """Write A.mtx, b.txt (one float per line) and optionally x_star.txt."""
    os.makedirs(directory, exist_ok=True)
    write_matrix_market(os.path.join(directory, "A.mtx"), problem.A)
    with open(os.path.join(directory, "b.txt"), "w", encoding="ascii") as fh:
        fh.writelines(f"{float(v)!r}\n" for v in problem.b)
    if problem.x_star is not None:
        with open(os.path.join(directory, "x_star.txt"), "w", encoding="ascii") as fh:
            fh.writelines(f"{float(v)!r}\n" for v in problem.x_star)


def read_problem_bundle(directory) -> ProblemInstance:
    """Load a problem bundle; x_star.txt is optional."""
    A = read_matrix_market(os.path.join(directory, "A.mtx"))
    b = np.loadtxt(os.path.join(directory, "b.txt"), ndmin=1)
    x_path = os.path.join(directory, "x_star.txt")
    x_star = np.loadtxt(x_path, ndmin=1) if os.path.exists(x_path) else None
    return ProblemInstance(
        A=A,
        b=b,
        x_star=x_star,
        label=os.path.basename(os.path.normpath(str(directory))),
    )


# per problem kind: the fields it cannot do without, and the ones it may take
PROBLEM_FIELDS = {
    "gaussian": ({"m": int, "n": int}, {}),
    "sparse-gaussian": ({"m": int, "n": int, "density": float}, {}),
    "tomography": ({"grid_side": int}, {"phantom": str}),
    "mtx": ({"path": str}, {"transpose": bool}),
    "bundle": ({"path": str}, {}),
}

# per command-line short form NAME:V1:V2...: its kind, whose `PROBLEM_FIELDS`
# its values fill in order, required fields first; optional ones may be left out
CLI_FORMS = {"gaussian": "gaussian", "sparse": "sparse-gaussian", "tomo": "tomography"}


def _form_usage(name: str) -> str:
    required, optional = PROBLEM_FIELDS[CLI_FORMS[name]]
    return name + "".join([f":{f}" for f in required] + [f"[:{f}]" for f in optional]).upper()


PROBLEM_GRAMMAR = " | ".join([*map(_form_usage, CLI_FORMS), "FILE.mtx[:T]", "BUNDLE_DIR"])


def _checked_fields(what: str, raw: dict, declared: dict, required=()) -> dict:
    """A copy of `raw` holding plain Python numbers, or a ValueError naming
    the keys that are not in `declared` (name -> type), the `required` keys
    that are not in `raw`, or the first key whose value does not have its type.

    Any integer (numpy's too) passes where an int is declared and becomes an
    int, and any real number where a float is, becoming a float; a boolean
    passes only where a bool is.
    """
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object, got {raw!r}")
    extra = set(raw) - set(declared)
    if extra:
        raise ValueError(f"unknown {what} keys {sorted(extra)}")
    missing = [key for key in required if key not in raw]
    if missing:
        raise ValueError(f"missing {what} keys {missing}")
    plain = {}
    for key, value in raw.items():
        declared_type = declared[key]
        types = tuple(
            {int: numbers.Integral, float: numbers.Real}.get(t, t)
            for t in get_args(declared_type) or (declared_type,)
        )
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            name = getattr(declared_type, "__name__", str(declared_type))
            raise ValueError(f"{what} key {key!r} must be {name}, got {value!r}")
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            value = int(value) if isinstance(value, numbers.Integral) else float(value)
        plain[key] = value
    return plain


def _store_checked(record, what: str, declared: dict) -> None:
    """Refuse, as `_checked_fields` does, a `declared` field of the frozen
    dataclass `record` whose value does not have its type, and store the plain
    Python value of each in its place."""
    raw = {key: getattr(record, key) for key in declared}
    for key, value in _checked_fields(what, raw, declared).items():
        object.__setattr__(record, key, value)


def _problem_spec(spec: dict) -> dict:
    """`spec` checked against its kind's fields, holding plain Python numbers."""
    kind = spec.get("kind")
    if kind not in PROBLEM_FIELDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    required, optional = PROBLEM_FIELDS[kind]
    return _checked_fields("problem", spec, {"kind": str, **required, **optional}, required)


def parse_problem(text: str) -> dict:
    """The spec a `--problem` value names: a `CLI_FORMS` short form, each value
    converted by its field's `PROBLEM_FIELDS` type, a Matrix Market file
    ('path.mtx', or 'path.mtx:T' to transpose), or a bundle directory."""
    if os.path.isdir(text):
        return {"kind": "bundle", "path": text}
    transpose = text.endswith(":T")
    mtx_path = text[:-2] if transpose else text
    if mtx_path.endswith(".mtx"):
        if not os.path.isfile(mtx_path):
            raise ValueError(f"no such Matrix Market file: {mtx_path!r}")
        return {"kind": "mtx", "path": mtx_path, "transpose": transpose}
    name, *values = text.split(":")
    if name in CLI_FORMS:
        kind = CLI_FORMS[name]
        required, optional = PROBLEM_FIELDS[kind]
        fields = {**required, **optional}
        if len(required) <= len(values) <= len(fields):
            try:
                return {"kind": kind, **{f: t(v) for (f, t), v in zip(fields.items(), values)}}
            except ValueError:
                pass
    raise ValueError(f"cannot parse problem spec {text!r}: expected {PROBLEM_GRAMMAR}")


def build_problem(spec: dict, seed) -> ProblemInstance:
    """Realize a problem spec for one seed.

    `spec` holds a `PROBLEM_FIELDS` kind and that kind's fields.  Generated
    kinds draw the matrix from the seed; mtx draws the right-hand side from it
    (b = A x_star), and a bundle comes from disk whole.  Any other key, or a
    value of the wrong type, is refused with a ValueError naming it.
    """
    spec = _problem_spec(spec)
    kind = spec["kind"]
    ss = np.random.SeedSequence(seed)
    mat_seed, rhs_seed = (int(s) for s in ss.generate_state(2))
    if kind == "gaussian":
        A = gen_gaussian_dense(spec["m"], spec["n"], mat_seed)
        return make_consistent_problem(A, rhs_seed, label=f"randn{spec['m']}x{spec['n']}")
    if kind == "sparse-gaussian":
        A = gen_sparse_gaussian(spec["m"], spec["n"], spec["density"], mat_seed)
        return make_consistent_problem(
            A, rhs_seed, label=f"sprandn{spec['m']}x{spec['n']}d{spec['density']:g}"
        )
    if kind == "tomography":
        geometry = {k: v for k, v in spec.items() if k != "kind"}
        return gen_tomography(**geometry, seed=mat_seed)
    if kind == "mtx":
        transpose = spec.get("transpose", False)
        A = read_matrix_market(spec["path"], transpose=transpose)
        name = os.path.splitext(os.path.basename(spec["path"]))[0]
        return make_consistent_problem(
            A, rhs_seed, label=name + ("^T" if transpose else "")
        )
    return read_problem_bundle(spec["path"])
