"""Workloads, timed solves, the outside correctness gate and the metric tables.

Everything here goes through blockcd's public API (``build_problem``,
``cs_prepare``, ``run_solver``, ``MethodParams``, ``StoppingRule``).  A solve
is timed from the start of ``cs_prepare`` (sketched cells) or ``run_solver``
to the return of ``run_solver``.  Its answer is then judged with plain numpy
on the original, unsketched (A, b).

End-to-end solve times are gated in units of a reference pass: one plain
numpy ``A^T (b - A x)`` over a matrix of the workload's shape and density that
this file generates itself, timed right before and right after every solve.
Load from other tenants of a shared host slows both alike, for minutes at a
time, so the ratio stays put where the seconds drift by 10-30%.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from blockcd import MethodParams, StoppingRule, build_problem, cs_prepare, run_solver
from blockcd.matrix import SparseMatrixCSC

from tracer import Tracer, assert_unwrapped

STOP = StoppingRule(rse_threshold=1e-6, max_iterations=100000)
RSE_LIMIT = 1e-6
# For a consistent system ||A^T(b - Ax)|| / ||A^T b|| <= kappa(A)^2 sqrt(RSE);
# kappa(A)^2 is below 4 on every workload shape, so 1e-2 leaves room to spare.
NORMAL_RESIDUAL_LIMIT = 1e-2
TRACED_PASSES = 2
REFERENCE_STREAM = 0x5EF  # keeps the reference matrix apart from the instances' seeds


@dataclass(frozen=True)
class Cell:
    """One method cell: its metric prefix and how it is solved."""

    name: str
    method: str
    beta: float = 0.0
    d_factor: int | None = None  # sketch rows as a multiple of n; None = unsketched
    reps: int = 1  # back-to-back solves per instance per round

    @property
    def params(self) -> MethodParams:
        return MethodParams(self.method, self.beta)


@dataclass(frozen=True)
class Workload:
    name: str
    problem: dict
    instances: int
    setup_builds: int  # build_problem calls timed for setup_s, cycling the instances
    cells: tuple[Cell, ...]


def _sketch_cells(reps: int) -> tuple[Cell, ...]:
    return (
        Cell("cs-madbcd", "madbcd", 0.30, 4, reps),
        Cell("cs-madbcd-d2n", "madbcd", 0.55, 2, reps),
        Cell("cs-madbcd-d8n", "madbcd", 0.20, 8, reps),
    )


# Every workload runs the five cells whose metrics are gated, so each run
# prints the same metric set; cd and mrbgs are affordable on dense-desk only.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "dense-desk",
            {"kind": "gaussian", "m": 3500, "n": 350},
            instances=6,
            setup_builds=12,
            cells=(
                Cell("madbcd", "madbcd", 0.10, reps=4),
                Cell("fbcd", "fbcd", reps=2),
                Cell("mrbgs", "mrbgs"),
                Cell("cd", "cd"),
                *_sketch_cells(reps=3),
            ),
        ),
        Workload(
            "sparse-5pct",
            {"kind": "sparse-gaussian", "m": 20000, "n": 500, "density": 0.05},
            instances=6,
            setup_builds=12,
            cells=(
                Cell("madbcd", "madbcd", 0.20, reps=2),
                Cell("fbcd", "fbcd"),
                *_sketch_cells(reps=1),
            ),
        ),
        Workload(
            "tall-cs",
            {"kind": "gaussian", "m": 100000, "n": 200},
            instances=4,
            setup_builds=4,
            cells=(
                Cell("madbcd", "madbcd", 0.0),
                Cell("fbcd", "fbcd"),
                *_sketch_cells(reps=1),
            ),
        ),
    )
}
GATED_CELLS = ("madbcd", "fbcd", "cs-madbcd", "cs-madbcd-d2n", "cs-madbcd-d8n")


@dataclass
class Instance:
    problem: object
    sketch_seed: int
    atb_norm: float
    x_star_sq: float
    entry_col: np.ndarray | None = None  # CSC only: column of each stored entry

    @classmethod
    def of(cls, problem, sketch_seed: int) -> "Instance":
        A = problem.A
        entry_col = None
        if isinstance(A, SparseMatrixCSC):
            entry_col = np.repeat(np.arange(A.cols), np.diff(A.indptr))
        inst = cls(problem, sketch_seed, 0.0, float(problem.x_star @ problem.x_star), entry_col)
        inst.atb_norm = float(np.linalg.norm(inst.at_times(problem.b)))
        return inst

    def a_times(self, x: np.ndarray) -> np.ndarray:
        A = self.problem.A
        if self.entry_col is None:
            return A.array @ x
        return np.bincount(A.row_indices, A.values * x[self.entry_col], minlength=A.rows)

    def at_times(self, r: np.ndarray) -> np.ndarray:
        A = self.problem.A
        if self.entry_col is None:
            return A.array.T @ r
        return np.add.reduceat(A.values * r[A.row_indices], A.indptr[:-1])

    def check(self, report, normal_residual: bool = True) -> str | None:
        """Why the answer is wrong, judged on the original (A, b); None if right.

        `normal_residual=False` skips the O(nnz) residual test, for an iterate
        bit-identical to one that already passed it.
        """
        if not report.converged:
            return f"did not converge: {report.stop_reason}"
        x = report.x_final
        diff = x - self.problem.x_star
        rse = float(diff @ diff) / self.x_star_sq
        if not rse <= RSE_LIMIT:
            return f"rse {rse:.3e} > {RSE_LIMIT:g}"
        if not normal_residual:
            return None
        normal = float(np.linalg.norm(self.at_times(self.problem.b - self.a_times(x))))
        if not normal <= NORMAL_RESIDUAL_LIMIT * self.atb_norm:
            return f"normal residual {normal / self.atb_norm:.3e} > {NORMAL_RESIDUAL_LIMIT:g}"
        return None


def build_instances(workload: Workload, seed: int) -> tuple[list[Instance], list[float]]:
    """The workload's instances for `seed`, and the time of every build_problem call."""
    state = np.random.SeedSequence(seed).generate_state(2 * workload.instances)
    problem_seeds = [int(s) for s in state[: workload.instances]]
    sketch_seeds = [int(s) for s in state[workload.instances :]]
    problems = [None] * workload.instances
    setup_times = []
    for j in range(max(workload.setup_builds, workload.instances)):
        i = j % workload.instances
        problems[i] = None  # release the previous build before timing the next
        t0 = time.perf_counter()
        problems[i] = build_problem(workload.problem, problem_seeds[i])
        setup_times.append(time.perf_counter() - t0)
    return [Instance.of(p, s) for p, s in zip(problems, sketch_seeds)], setup_times


class ReferencePass:
    """A fixed plain-numpy pass ``A^T (b - A x)`` to time solves against.

    The matrix has the workload's shape and, for a sparse workload, its
    density and CSC layout, but it is generated here from the run's seed and
    never touched by blockcd: a change to blockcd cannot move it.  Dense and
    CSC passes read the same operands as the solvers' ``matvec`` and
    ``transpose_matvec``, so a busy memory bus slows them alike.
    """

    def __init__(self, problem: dict, seed: int):
        rng = np.random.default_rng([seed, REFERENCE_STREAM])
        m, n = problem["m"], problem["n"]
        self.x = rng.standard_normal(n)
        self.b = rng.standard_normal(m)
        density = problem.get("density")
        if density is None:
            self.A = rng.standard_normal((m, n))
            self.csc = None
        else:
            rows = [np.flatnonzero(rng.random(m) < density) for _ in range(n)]
            indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows])))
            row_ids = np.concatenate(rows)
            col_ids = np.repeat(np.arange(n), np.diff(indptr))
            self.csc = (rng.standard_normal(len(row_ids)), row_ids, col_ids, indptr[:-1], m)

    def run(self) -> np.ndarray:
        if self.csc is None:
            return self.A.T @ (self.b - self.A @ self.x)
        values, rows, cols, starts, m = self.csc
        r = self.b - np.bincount(rows, values * self.x[cols], minlength=m)
        return np.add.reduceat(values * r[rows], starts)

    def time(self) -> float:
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


@dataclass
class Solve:
    seconds: float  # prep + solve
    prep_seconds: float
    traced_seconds: float  # time of outermost traced calls inside run_solver
    report: object


def solve(cell: Cell, inst: Instance, ci: int, tracer: Tracer | None = None) -> Solve:
    """One timed solve of `cell` on `inst`; `ci` offsets the sketch seed per cell."""
    params = cell.params
    problem = inst.problem
    t0 = time.perf_counter()
    if cell.d_factor is not None:
        problem, _ = cs_prepare(problem, cell.d_factor * problem.A.cols, inst.sketch_seed + ci)
    t1 = time.perf_counter()
    busy0 = tracer.busy_total if tracer else 0.0
    report = run_solver(problem, params, STOP)
    t2 = time.perf_counter()
    busy = (tracer.busy_total if tracer else 0.0) - busy0
    return Solve(t2 - t0, t1 - t0, busy, report)


@dataclass
class Ledger:
    """Solves attempted and failed, with the iteration count and first
    correct answer of each (cell, instance)."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    iterations: dict[tuple[str, int], int] = field(default_factory=dict)
    answers: dict[tuple[str, int], np.ndarray] = field(default_factory=dict)

    def run(self, cell: Cell, inst: Instance, i: int, ci: int, tracer=None) -> Solve | None:
        self.attempted += 1
        try:
            s = solve(cell, inst, ci, tracer)
        except Exception as exc:  # a raising solve is a failed solve, not a crash
            self.failures.append(f"{cell.name} instance {i}: raised {exc!r}")
            return None
        key = (cell.name, i)
        x = s.report.x_final
        seen = key in self.answers and np.array_equal(x, self.answers[key])
        problem = inst.check(s.report, normal_residual=not seen)
        first = self.iterations.setdefault(key, s.report.iterations)
        if problem is None and s.report.iterations != first:
            problem = f"iterations {s.report.iterations} differ from the first solve's {first}"
        if problem is not None:
            self.failures.append(f"{cell.name} instance {i}: {problem}")
            return None
        self.answers.setdefault(key, x)
        return s

    @property
    def total_iterations(self) -> int:
        return sum(self.iterations.values())


def _rotated(seq, r: int):
    r %= len(seq)
    return list(seq[r:]) + list(seq[:r])


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(samples)
    if n <= 10:
        return None
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(samples)[rank - 1]


def run_end_to_end(workload: Workload, seed: int, seconds: float):
    """Untraced rounds until `seconds` have passed; returns (metrics, details, ledger).

    A round solves every cell `reps` times on every instance, with cells and
    instances in an order that rotates each round.  Every solve is divided by
    the mean of the reference passes timed just before and just after it.  A
    cell's time to solution is the median of those ratios per instance,
    averaged over the instances: one more iteration on the median instance
    would move a pooled median by up to a tenth.  The wall-clock median, tail
    percentile and sample count go in `details`.
    """
    assert_unwrapped()
    instances, setup_times = build_instances(workload, seed)
    reference = ReferencePass(workload.problem, seed)
    cells = list(enumerate(workload.cells))
    ledger = Ledger()
    for i, inst in enumerate(instances):  # warm-up: fixes iteration counts, untimed
        for ci, cell in cells:
            ledger.run(cell, inst, i, ci)
            reference.run()

    samples = {(cell.name, i): [] for _, cell in cells for i in range(len(instances))}
    ref_times = [reference.time()]
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        for i in _rotated(range(len(instances)), rounds):
            if rounds and time.perf_counter() >= deadline:
                break
            for ci, cell in _rotated(cells, rounds):
                for _ in range(cell.reps):
                    s = ledger.run(cell, instances[i], i, ci)
                    ref_times.append(reference.time())
                    if s is not None:
                        ratio = 2.0 * s.seconds / (ref_times[-2] + ref_times[-1])
                        samples[(cell.name, i)].append((s.seconds, ratio))
        else:
            rounds += 1
            continue
        break

    metrics, details = {}, {}
    for _, cell in cells:
        per_instance = [samples[(cell.name, i)] for i in range(len(instances))]
        if not all(per_instance):
            continue  # every solve of some instance failed; the ledger says so
        wall = [t for s in per_instance for t, _ in s]
        metrics[f"{cell.name}.time_to_solution"] = statistics.fmean(
            statistics.median(r for _, r in s) for s in per_instance
        )
        details[cell.name] = {
            "pooled_median_s": statistics.median(wall),
            "tail": tail_percentile(wall),
            "samples": len(wall),
        }
    metrics["suite.time_to_solution"] = sum(
        metrics.get(f"{cell.name}.time_to_solution", math.nan) for _, cell in cells
    )
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["iterations"] = ledger.total_iterations
    details["setup"] = {
        "pooled_median_s": metrics["setup_s"],
        "tail": tail_percentile(setup_times),
        "samples": len(setup_times),
    }
    details["reference"] = {
        "pooled_median_s": statistics.median(ref_times),
        "tail": tail_percentile(ref_times),
        "samples": len(ref_times),
    }
    details["rounds"] = rounds
    return metrics, details, ledger


def run_traced(workload: Workload, seed: int, passes: int = TRACED_PASSES):
    """Per-layer metrics of a fixed amount of work; returns (metrics, ledger).

    The same `passes` over every (instance, cell) run untraced and then
    traced, so call counts repeat exactly and ``trace.overhead_frac`` compares
    like with like.  Instances are built under the tracer (cell ``setup``).
    """
    with Tracer() as tracer:
        instances, setup_times = build_instances(workload, seed)
    cells = list(enumerate(workload.cells))
    ledger = Ledger()
    schedule = [(i, ci, cell) for i in range(len(instances)) for ci, cell in cells]

    assert_unwrapped()
    for i, ci, cell in schedule:  # warm-up
        ledger.run(cell, instances[i], i, ci)
    untraced_s = 0.0
    for _ in range(passes):
        for i, ci, cell in schedule:
            s = ledger.run(cell, instances[i], i, ci)
            untraced_s += s.seconds if s else 0.0

    per_cell = {cell.name: {"solve_s": 0.0, "traced_s": 0.0, "prep_s": 0.0, "blocks": []}
                for _, cell in cells}
    traced_s = 0.0
    with tracer:
        for _ in range(passes):
            for i, ci, cell in schedule:
                tracer.cell = cell.name
                s = ledger.run(cell, instances[i], i, ci, tracer)
                if s is None:
                    continue
                traced_s += s.seconds
                acc = per_cell[cell.name]
                acc["solve_s"] += s.seconds - s.prep_seconds
                acc["traced_s"] += s.traced_seconds
                acc["prep_s"] += s.prep_seconds
                acc["blocks"].extend(rec.block_size for rec in s.report.records[:-1])

    n = instances[0].problem.A.cols
    metrics = {
        "problems.build_problem.calls": len(setup_times),
        "problems.build_problem.busy_s": sum(setup_times),
        "trace.overhead_frac": traced_s / untraced_s - 1.0 if untraced_s else 0.0,
    }
    for (cell, name), entry in sorted(tracer.stats.items()):
        for key, value in entry.items():
            metrics[f"{cell}.{name}.{key}"] = value
    for _, cell in cells:
        acc = per_cell[cell.name]
        metrics[f"{cell.name}.solvers.run_solver.self_s"] = acc["solve_s"] - acc["traced_s"]
        metrics[f"{cell.name}.solvers.iterations"] = len(acc["blocks"])
        metrics[f"{cell.name}.solvers.block_fraction"] = (
            statistics.fmean(acc["blocks"]) / n if acc["blocks"] else 0.0
        )
        if cell.d_factor is not None:
            metrics[f"{cell.name}.sketch.prep_s"] = acc["prep_s"]
    return metrics, ledger


# Workload-wide sums over every solve cell, reported under the bare layer name.
TOTALED = (
    "matrix.transpose_matvec.calls",
    "matrix.transpose_matvec.busy_s",
    "matrix.transpose_matvec.bytes",
    "matrix.restricted_matvec.calls",
    "matrix.restricted_matvec.busy_s",
    "matrix.restricted_matvec.bytes",
    "matrix.restricted_matvec.columns",
    "matrix.matvec.calls",
    "matrix.matvec.busy_s",
    "matrix.matvec.bytes",
    "matrix.gather_columns.calls",
    "matrix.gather_columns.busy_s",
    "matrix.gather_columns.bytes",
    "matrix.column_norms.calls",
    "matrix.column_norms.busy_s",
    "matrix.column_norms.bytes",
    "solvers.select.calls",
    "solvers.select.busy_s",
    "solvers.run_solver.self_s",
    "solvers.iterations",
    "oracle.householder_lstsq.calls",
    "oracle.householder_lstsq.busy_s",
    "oracle.householder_lstsq.flops",
    "sketch.build_count_sketch.busy_s",
    "sketch.sketch_apply_matrix.busy_s",
    "sketch.sketch_apply_matrix.bytes",
    "sketch.sketch_apply_vector.busy_s",
    "sketch.prep_s",
)
# Per gated cell, the layer metrics a hot-path change is most likely to move.
PER_CELL = (
    "matrix.transpose_matvec.calls",
    "matrix.transpose_matvec.busy_s",
    "matrix.restricted_matvec.calls",
    "matrix.restricted_matvec.busy_s",
    "matrix.restricted_matvec.columns",
    "solvers.select.busy_s",
    "solvers.run_solver.self_s",
    "solvers.iterations",
    "solvers.block_fraction",
)
PER_SKETCH_CELL = ("sketch.prep_s", "sketch.sketch_apply_matrix.busy_s")


def layer_metric_names() -> list[str]:
    """The per-layer metrics every traced run reports, in a fixed order."""
    names = ["problems.build_problem.busy_s", *TOTALED]
    for cell in GATED_CELLS:
        names += [f"{cell}.{m}" for m in PER_CELL]
        if cell.startswith("cs-"):
            names += [f"{cell}.{m}" for m in PER_SKETCH_CELL]
    return names + ["trace.overhead_frac"]


def gated_layer_metrics(workload: Workload, traced: dict) -> dict:
    """Select and total the traced metrics into the fixed per-layer set."""
    out = {}
    solve_cells = [cell.name for cell in workload.cells]
    for name in layer_metric_names():
        if name in TOTALED:
            out[name] = sum(traced.get(f"{cell}.{name}", 0) for cell in solve_cells)
        else:
            out[name] = traced.get(name, 0)
    return out


END_TO_END = (
    ("setup_s", "s"),
    ("iterations", "count"),
    ("suite.time_to_solution", "ref"),
    *((f"{cell}.time_to_solution", "ref") for cell in GATED_CELLS),
)


def layer_unit(name: str) -> str:
    leaf = name.rsplit(".", 1)[-1]
    return {
        "calls": "count",
        "columns": "count",
        "iterations": "count",
        "bytes": "B",
        "flops": "flop",
        "block_fraction": "fraction",
        "overhead_frac": "fraction",
    }.get(leaf, "s")
