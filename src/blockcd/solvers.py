"""Iterative least-squares solvers behind one driver.

cd, fbcd and madbcd are one step: an exact line search along the direction
that carries the gradient entries s = A^T r on a block, plus the heavy-ball
term beta (x_k - x_{k-1}) (beta = 0 for cd and fbcd).  They differ only in
the block rule: the singleton {argmax |s_j|} (greedy coordinate descent,
cd), the averaged threshold of the fast block method (fbcd), or the mean
||s||^2 / n threshold of the adaptive method (madbcd).  The maximal-residual
block baseline (mrbgs) swaps the line search for an exact least-squares
subsolve on its block.

All methods share the same bookkeeping: the residual r = b - A x and the
difference image w = A(x - x_prev) are updated incrementally each step and
recomputed from scratch every ``RESIDUAL_REFRESH`` steps to bound drift.
The gradient s is recomputed fresh every iteration since block updates
touch unpredictable column subsets.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .matrix import Matrix
from .oracle import RankDeficiencyError, householder_lstsq

__all__ = [
    "METHODS",
    "RESIDUAL_REFRESH",
    "BlockIndexSet",
    "MethodParams",
    "StoppingRule",
    "SolverState",
    "IterationRecord",
    "ConvergenceReport",
    "select_block_madbcd",
    "select_block_fbcd",
    "select_block_mrbgs",
    "block_rule",
    "line_search_update",
    "subsolve_update",
    "run_solver",
    "compute_rse",
]

METHODS = ("cd", "fbcd", "mrbgs", "madbcd")

# incremental r and w are re-derived from x this often
RESIDUAL_REFRESH = 50


@dataclass(frozen=True)
class BlockIndexSet:
    """Selected column indices with the driving gradient entries.

    `values` are exactly the entries of s at `indices`; for the line-search
    methods they are also the nonzeros of the update direction.
    """

    indices: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.indices.size == 0:
            raise ValueError("block index set must be nonempty")
        if self.indices.shape != self.values.shape:
            raise ValueError("indices and values must have matching shapes")

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class MethodParams:
    """Which method to run and its scalar knobs."""

    method: str
    beta: float = 0.0
    mrbgs_fraction: float = 0.3

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        if self.method == "madbcd":
            if not 0.0 <= self.beta <= 0.9:
                raise ValueError(f"momentum weight must lie in [0, 0.9], got {self.beta}")
        elif self.beta != 0.0:
            raise ValueError(f"method {self.method!r} does not take a momentum weight")
        if not 0.0 < self.mrbgs_fraction <= 1.0:
            raise ValueError(f"mrbgs fraction must lie in (0, 1], got {self.mrbgs_fraction}")


@dataclass(frozen=True)
class StoppingRule:
    """Run limits; at least one of the three hard limits must be set.

    When the problem carries no reference solution, `grad_threshold` replaces
    the relative-solution-error rule: stop once ||A^T r|| / ||A^T b|| falls
    below it (flagged in the report as a fallback).
    """

    rse_threshold: float | None = 1e-6
    max_iterations: int | None = None
    time_budget_s: float | None = None
    grad_threshold: float | None = None

    def __post_init__(self):
        if (
            self.rse_threshold is None
            and self.max_iterations is None
            and self.time_budget_s is None
        ):
            raise ValueError("at least one stopping limit must be finite")
        for name in ("rse_threshold", "time_budget_s", "grad_threshold"):
            v = getattr(self, name)
            if v is not None and v <= 0.0:
                raise ValueError(f"{name} must be positive, got {v}")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class SolverState:
    """One iterate of any method, with the incrementally maintained vectors."""

    x_curr: np.ndarray
    x_prev: np.ndarray
    residual: np.ndarray
    diff_image: np.ndarray  # w = A (x_curr - x_prev)
    k: int = 0

    @classmethod
    def initial(cls, A: Matrix, b: np.ndarray, x0: np.ndarray | None = None) -> "SolverState":
        m, n = A.shape
        if x0 is None:
            x = np.zeros(n)
            r = np.array(b, dtype=np.float64)
        else:
            x = np.array(x0, dtype=np.float64)
            r = b - A.matvec(x)
        return cls(x_curr=x, x_prev=x.copy(), residual=r, diff_image=np.zeros(m), k=0)

    def advance(self, x_next: np.ndarray, w_next: np.ndarray) -> "SolverState":
        """The next iterate, given x_{k+1} and w = A (x_{k+1} - x_k)."""
        return SolverState(
            x_curr=x_next,
            x_prev=self.x_curr,
            residual=self.residual - w_next,
            diff_image=w_next,
            k=self.k + 1,
        )


@dataclass(frozen=True)
class IterationRecord:
    """Per-iterate trace entry; block fields describe the step leaving it."""

    k: int
    rse: float | None
    grad_norm: float
    block_size: int
    elapsed_s: float
    eta_dot_s: float = math.nan
    s_norm_sq: float = math.nan


@dataclass
class ConvergenceReport:
    """Everything a run produced: history, final iterate, and why it stopped."""

    method: str
    beta: float
    records: list[IterationRecord]
    x_final: np.ndarray
    stop_reason: str
    converged: bool
    solve_seconds: float
    prep_seconds: float = 0.0
    problem_label: str = ""
    residual_drift: list[tuple[int, float]] = field(default_factory=list)
    iterate_history: list[np.ndarray] | None = None
    block_history: list[np.ndarray] | None = None

    @property
    def iterations(self) -> int:
        return self.records[-1].k


def compute_rse(x: np.ndarray, x_star: np.ndarray) -> float:
    """Relative solution error ||x - x_star||^2 / ||x_star||^2."""
    ref = float(np.dot(x_star, x_star))
    if ref == 0.0:
        raise ValueError("relative solution error is undefined for x_star = 0")
    diff = x - x_star
    return float(np.dot(diff, diff)) / ref


def select_block_madbcd(s: np.ndarray) -> BlockIndexSet:
    """Indices whose squared gradient entry meets the mean ||s||^2 / n.

    Inclusive comparison, ties kept, no cap on the block size.  The argmax
    always qualifies, so the result is nonempty whenever s != 0.
    """
    sq = s * s
    s_norm_sq = float(sq.sum())
    if s_norm_sq == 0.0:
        raise ValueError("cannot select a block from a zero gradient")
    idx = np.flatnonzero(sq >= s_norm_sq / len(s))
    if idx.size == 0:  # float guard, mathematically unreachable
        idx = np.array([int(np.argmax(sq))], dtype=np.int64)
    return BlockIndexSet(indices=idx, values=s[idx])


def select_block_fbcd(
    s: np.ndarray, col_norms: np.ndarray, frobenius: float
) -> tuple[float, BlockIndexSet]:
    """Threshold scale delta_k and the block it admits.

    delta_k averages the best column-normalized gradient share with the
    uniform share 1/||A||_F^2; a column enters when its squared gradient
    entry reaches delta_k ||s||^2 ||A_j||^2.
    """
    sq = s * s
    s_norm_sq = float(sq.sum())
    if s_norm_sq == 0.0:
        raise ValueError("cannot select a block from a zero gradient")
    cn_sq = col_norms * col_norms
    ratios = sq / cn_sq
    delta = 0.5 * (float(ratios.max()) / s_norm_sq + 1.0 / frobenius**2)
    idx = np.flatnonzero(sq >= delta * s_norm_sq * cn_sq)
    if idx.size == 0:  # float guard
        idx = np.array([int(np.argmax(ratios))], dtype=np.int64)
    return delta, BlockIndexSet(indices=idx, values=s[idx])


def select_block_mrbgs(s: np.ndarray, fraction: float = 0.3) -> BlockIndexSet:
    """Indices whose squared gradient entry reaches `fraction` of the max."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
    sq = s * s
    if float(sq.sum()) == 0.0:
        raise ValueError("cannot select a block from a zero gradient")
    idx = np.flatnonzero(sq >= fraction * float(sq.max()))
    return BlockIndexSet(indices=idx, values=s[idx])


def block_rule(params: MethodParams, A: Matrix) -> Callable[[np.ndarray], BlockIndexSet]:
    """The method's block selector s -> BlockIndexSet, with its constants of A bound.

    Looks the selectors up per run, not at import time, so that one rebound on
    this module (as perfbench's tracer does) is the one used.
    """
    if params.method == "madbcd":
        return select_block_madbcd
    if params.method == "fbcd":
        col_norms, frobenius = A.column_norms(), A.frobenius_norm()
        return lambda s: select_block_fbcd(s, col_norms, frobenius)[1]
    if params.method == "mrbgs":
        return lambda s: select_block_mrbgs(s, params.mrbgs_fraction)

    def singleton(s: np.ndarray) -> BlockIndexSet:
        idx = np.array([int(np.argmax(np.abs(s)))], dtype=np.int64)
        return BlockIndexSet(indices=idx, values=s[idx])

    return singleton


def line_search_update(
    state: SolverState, A: Matrix, block: BlockIndexSet, beta: float
) -> tuple[SolverState, float]:
    """Exact line search along eta (block.values on block.indices) plus momentum.

    Returns the next state and eta^T s.  With beta = 0 this is the plain block
    step; on a singleton block it is the coordinate step s_j / ||a_j||^2.
    """
    a_eta = A.restricted_matvec(block.indices, block.values)
    denom = float(np.dot(a_eta, a_eta))
    if denom == 0.0:
        raise RankDeficiencyError(
            int(block.indices[0]),
            0.0,
            "rank deficiency detected: selected columns map the direction to zero",
        )
    eta_dot_s = float(np.dot(block.values, block.values))
    c = eta_dot_s / denom
    if beta != 0.0:
        x_next = state.x_curr + beta * (state.x_curr - state.x_prev)
        w_next = c * a_eta + beta * state.diff_image
    else:
        x_next = state.x_curr.copy()
        w_next = c * a_eta
    x_next[block.indices] += c * block.values
    return state.advance(x_next, w_next), eta_dot_s


def subsolve_update(state: SolverState, A: Matrix, block: BlockIndexSet) -> SolverState:
    """Maximal-residual block step: exact least-squares subsolve on the block's columns."""
    a_tau = A.gather_columns(block.indices)
    try:
        d = householder_lstsq(a_tau, state.residual)
    except RankDeficiencyError as exc:
        raise RankDeficiencyError(
            int(block.indices[exc.column]),
            exc.magnitude,
            f"rank-deficient subproblem on block {block.indices.tolist()}: "
            f"|R_jj|={exc.magnitude:.3e} at block position {exc.column}",
        ) from exc
    x_next = state.x_curr.copy()
    x_next[block.indices] += d
    return state.advance(x_next, a_tau @ d)


def run_solver(
    problem,
    params: MethodParams,
    stop: StoppingRule,
    *,
    x0: np.ndarray | None = None,
    record_iterates: bool = False,
    record_blocks: bool = False,
) -> ConvergenceReport:
    """Iterate `params.method` on `problem` until a stopping limit fires.

    Starts from x_prev = x_curr = x0 (zero by default).  Records one
    IterationRecord per iterate including the initial one, so a run of IT
    steps yields IT + 1 records.  Non-convergence by iteration or time limit
    is a reported outcome, not an error.
    """
    A: Matrix = problem.A
    b = problem.b
    x_star = problem.x_star

    use_rse = stop.rse_threshold is not None and x_star is not None
    grad_threshold = stop.grad_threshold
    if stop.rse_threshold is not None and x_star is None and grad_threshold is None:
        # no ground truth: fall back to the normalized gradient criterion
        grad_threshold = stop.rse_threshold
    atb_norm = float(np.linalg.norm(A.transpose_matvec(b))) if grad_threshold else 0.0

    select = block_rule(params, A)

    state = SolverState.initial(A, b, x0)
    records: list[IterationRecord] = []
    drift_log: list[tuple[int, float]] = []
    iterates = [state.x_curr.copy()] if record_iterates else None
    blocks: list[np.ndarray] | None = [] if record_blocks else None

    t0 = time.perf_counter()
    stop_reason = ""
    converged = False
    while True:
        rse = compute_rse(state.x_curr, x_star) if x_star is not None else None
        s = A.transpose_matvec(state.residual)
        s_norm_sq = float(np.dot(s, s))
        grad_norm = math.sqrt(s_norm_sq)
        elapsed = time.perf_counter() - t0

        if not math.isfinite(s_norm_sq):
            stop_reason = "diverged: non-finite normal-equation residual"
        elif use_rse and rse is not None and rse < stop.rse_threshold:
            stop_reason = "converged: rse threshold"
            converged = True
        elif s_norm_sq == 0.0:
            stop_reason = "converged: zero normal-equation residual"
            converged = True
        elif grad_threshold is not None and atb_norm > 0.0 and grad_norm <= grad_threshold * atb_norm:
            stop_reason = "converged: gradient fallback threshold"
            converged = True
        elif stop.max_iterations is not None and state.k >= stop.max_iterations:
            stop_reason = "max iterations exceeded"
        elif stop.time_budget_s is not None and elapsed >= stop.time_budget_s:
            stop_reason = "time budget exhausted"

        if stop_reason:
            records.append(
                IterationRecord(
                    k=state.k, rse=rse, grad_norm=grad_norm, block_size=0,
                    elapsed_s=elapsed,
                )
            )
            break

        block = select(s)
        if params.method == "mrbgs":
            state, eta_dot_s = subsolve_update(state, A, block), math.nan
        else:
            state, eta_dot_s = line_search_update(state, A, block, params.beta)

        records.append(
            IterationRecord(
                k=state.k - 1,
                rse=rse,
                grad_norm=grad_norm,
                block_size=len(block),
                elapsed_s=elapsed,
                eta_dot_s=eta_dot_s,
                s_norm_sq=s_norm_sq,
            )
        )
        if iterates is not None:
            iterates.append(state.x_curr.copy())
        if blocks is not None:
            blocks.append(np.array(block.indices))

        if state.k % RESIDUAL_REFRESH == 0:
            fresh = b - A.matvec(state.x_curr)
            drift = float(np.linalg.norm(state.residual - fresh))
            drift_log.append((state.k, drift))
            state.residual = fresh
            state.diff_image = A.matvec(state.x_curr - state.x_prev)

    solve_seconds = time.perf_counter() - t0
    return ConvergenceReport(
        method=params.method,
        beta=params.beta,
        records=records,
        x_final=state.x_curr,
        stop_reason=stop_reason,
        converged=converged,
        solve_seconds=solve_seconds,
        problem_label=getattr(problem, "label", ""),
        residual_drift=drift_log,
        iterate_history=iterates,
        block_history=blocks,
    )
