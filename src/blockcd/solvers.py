"""Iterative least-squares solvers behind one driver.

cd, fbcd and madbcd are one step: an exact line search along the direction
that carries the gradient entries s = A^T r on a block, plus the heavy-ball
term beta (x_k - x_{k-1}) (beta = 0 for cd and fbcd).  Every method's block
comes from one threshold rule, ``select_block``: with the score s_j^2 / w_j,
keep every j whose score reaches min(lam max score + mu ||s||^2 / sum w,
max score).  madbcd's mean ||s||^2 / n threshold is (w, lam, mu) = (1, 0,
1); the averaged threshold of the fast block method (fbcd) is (||a_j||^2,
1/2, 1/2); mrbgs's fraction of the largest entry is (1, MRBGS_FRACTION, 0);
and greedy coordinate descent (cd) takes the first index of (1, 1, 0), which
is argmax |s_j|.  The maximal-residual block baseline (mrbgs) swaps the
line search for an exact least-squares subsolve on its block: the corrected
semi-normal equations on G_tau = A_tau^T A_tau, with LAPACK's blocked
Householder QR of [A_tau | r] as the rank-revealing fallback.  The oracle
keeps its own hand-rolled QR as the independent route that audits this
subsolve.  cs-madbcd is madbcd on (SA, Sb), the problem compressed by a
count sketch S with d_factor * n rows.

The loop runs in n-space from x = 0.  Its state is the iterate (x, x_prev,
s, u) with s = A^T r and u = A^T A (x - x_prev), plus the run's kernel, so a
step takes only the state and its block: ``line_search_update(state, block,
beta)`` and ``subsolve_update(state, block)``.  Both go through
``SolverState.advance``: x moves by d on the block plus beta (x - x_prev),
u becomes A^T A_tau d + beta u and s becomes s - u.  The kernel,
``Matrix.normal_kernel(b)``, owns the run's linear algebra: it forms
c = A^T b and, for a dense matrix, G = A^T A once per run inside the timed
solve; it gives a step (A^T A_tau v, ||A_tau v||^2) and the mrbgs subsolve
A_tau and G_tau.  Only s accumulates rounding: u is rebuilt from a fresh
product every step, so its old rounding decays by beta per step.  Every
``RESIDUAL_REFRESH`` steps, and before a stop on the normal residual is
reported, ``SolverState.refreshed`` re-derives s from x by the kernel's
``refresh``: c - G x on a dense line-search run while ||s|| is far above that
form's rounding, else, and for every stop it confirms, A^T (b - A x); mrbgs
reads that r.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, get_type_hints

import numpy as np

from .matrix import Matrix, NormalKernel, RankDeficiencyError
from .problems import SCALE_BAND_LOG2, _store_checked
from .sketch import cs_prepare

__all__ = [
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

MADBCD = "madbcd"
CS_MADBCD = "cs-madbcd"
METHODS = ("cd", "fbcd", "mrbgs", MADBCD, CS_MADBCD)

# the incremental s is re-derived from x this often
RESIDUAL_REFRESH = 50
ZERO_RESIDUAL_STOP = "converged: zero normal-equation residual"
GRADIENT_FALLBACK_STOP = "converged: gradient fallback threshold"
MRBGS_FRACTION = 0.3  # mrbgs's block: every j with s_j^2 >= this fraction of max_j s_j^2
# a Cholesky factor of G_tau whose smallest pivot is below this fraction of
# its largest leaves the mrbgs block to the QR, which solves it or names the
# dependent column
CSNE_PIVOT_RATIO = 1e-6


@dataclass(frozen=True)
class MethodParams:
    """Which method to run and its scalar knobs, typed as a config's are."""

    method: str
    beta: float = 0.0
    d_factor: int | None = None  # sketch rows as a multiple of n (cs-madbcd only)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}, expected one of {METHODS}")
        _store_checked(self, "method", get_type_hints(MethodParams))
        if (self.d_factor is None) == (self.method == CS_MADBCD):
            raise ValueError(
                "'d_factor' (sketch rows as a multiple of n) is required for cs-madbcd "
                f"and refused for every other method; got method {self.method!r} "
                f"with d_factor {self.d_factor}"
            )
        if self.d_factor is not None and self.d_factor < 1:
            raise ValueError(f"'d_factor' must be >= 1, got {self.d_factor}")
        if self.method in (MADBCD, CS_MADBCD):
            if not 0.0 <= self.beta <= 0.9:
                raise ValueError(f"momentum weight must lie in [0, 0.9], got {self.beta}")
        elif self.beta != 0.0:
            raise ValueError(f"method {self.method!r} does not take a momentum weight")

    def sketch_rows(self, n: int) -> int | None:
        return None if self.d_factor is None else self.d_factor * n

    def label(self) -> str:
        parts = [self.method]
        if self.method in (MADBCD, CS_MADBCD):
            # shortest round-trip form, so distinct weights get distinct labels
            parts.append(f"b{np.format_float_positional(self.beta, trim='-')}")
        if self.d_factor is not None:
            parts.append(f"d{self.d_factor}n")
        return "_".join(parts)


@dataclass(frozen=True)
class StoppingRule:
    """Run limits, typed as a config's are; every run is capped at `max_iterations`.

    `rse_threshold` bounds the relative solution error when the problem
    carries a reference solution.  Without one it bounds the normalized
    gradient ||A^T r|| / ||A^T b|| instead (stop reason "converged: gradient
    fallback threshold").  `rse_threshold` and `time_budget_s` may be None.
    """

    rse_threshold: float | None = 1e-6
    max_iterations: int = 100_000
    time_budget_s: float | None = None

    def __post_init__(self):
        _store_checked(self, "stopping", get_type_hints(StoppingRule))
        for name in ("rse_threshold", "time_budget_s"):
            v = getattr(self, name)
            if v is not None and not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {v}")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class SolverState:
    """One iterate of any method, with the incrementally maintained n-vectors.

    `grad` is s = A^T (b - A x_curr) and `grad_step` is u = A^T A (x_curr -
    x_prev), so each step sets grad to the previous grad - grad_step.  s alone
    is refreshed: u is rebuilt each step as a fresh product plus beta u.
    `residual` is r = b - A x_curr where the start, a refresh's pass or a
    subsolve step formed it, and None otherwise.  b, c = A^T b and G belong
    to the run's `kernel`.
    """

    x_curr: np.ndarray
    x_prev: np.ndarray
    grad: np.ndarray
    grad_step: np.ndarray
    kernel: NormalKernel
    k: int = 0
    residual: np.ndarray | None = None

    @classmethod
    def initial(cls, A: Matrix, b: np.ndarray) -> "SolverState":
        """x_prev = x_curr = 0, so r = b and s = c; makes the run's normal kernel."""
        kernel = A.normal_kernel(b)
        return cls(
            x_curr=np.zeros(A.cols),
            x_prev=np.zeros(A.cols),
            grad=kernel.c,
            grad_step=np.zeros(A.cols),
            kernel=kernel,
            residual=b,
        )

    def advance(
        self, block: np.ndarray, d: np.ndarray, g: np.ndarray, beta: float = 0.0
    ) -> "SolverState":
        """x + beta (x - x_prev) + d on `block`, with u = g + beta u for g = A^T A_tau d."""
        # beta = 0 gives the same values without the temporaries
        x_next = self.x_curr + beta * (self.x_curr - self.x_prev) if beta else self.x_curr.copy()
        x_next[block] += d
        u_next = g + beta * self.grad_step if beta else g
        return SolverState(
            x_curr=x_next,
            x_prev=self.x_curr,
            grad=self.grad - u_next,
            grad_step=u_next,
            kernel=self.kernel,
            k=self.k + 1,
        )

    def refreshed(self, floor: float = 0.0) -> tuple["SolverState", float]:
        """This iterate with a fresh s, u kept, and the drift ||s - fresh s||.

        The kernel's ``refresh`` picks the form; `floor` bounds the ||s|| at
        which it may read s from G.  A state that carries r re-forms it.
        """
        grad, r = self.kernel.refresh(self.x_curr, self.grad, floor, self.residual is not None)
        return replace(self, grad=grad, residual=r), float(np.linalg.norm(self.grad - grad))


@dataclass(frozen=True)
class IterationRecord:
    """Per-iterate trace entry; block fields describe the step leaving it.

    `normal_residual` is ||s||, the incrementally carried s = A^T r (fresh
    at a refresh and at a stop on it).  Each curve column is one of these fields.
    A rescaled run (`run_solver`) keeps `eta_dot_s`, a square, in its own units.
    """

    k: int
    rse: float | None
    normal_residual: float
    block_size: int
    elapsed_s: float
    eta_dot_s: float = math.nan


@dataclass
class ConvergenceReport:
    """Everything a run produced: history, final iterate, and why it stopped.

    `residual_drift` holds (k, ||s - fresh s||) once per refreshed iterate:
    every RESIDUAL_REFRESH steps, and where a stop on the normal residual is
    proposed.  It is the drift of the carried s, against the s the refresh
    took (``NormalKernel.refresh``): c - G x_k or A^T (b - A x_k).
    `converged` follows `stop_reason`: derived from it when not given,
    refused when it disagrees.
    """

    method: str
    beta: float
    records: list[IterationRecord]
    x_final: np.ndarray
    stop_reason: str
    solve_seconds: float
    converged: bool | None = None
    prep_seconds: float = 0.0
    problem_label: str = ""
    residual_drift: list[tuple[int, float]] = field(default_factory=list)
    iterate_history: list[np.ndarray] | None = None
    block_history: list[np.ndarray] | None = None

    def __post_init__(self):
        converged = self.stop_reason.startswith("converged")
        if self.converged is None:
            self.converged = converged
        elif self.converged != converged:
            raise ValueError(
                f"converged={self.converged} contradicts stop reason {self.stop_reason!r}"
            )

    @property
    def iterations(self) -> int:
        return self.records[-1].k


def compute_rse(x: np.ndarray, x_star: np.ndarray) -> float:
    """Relative solution error ||x - x_star||^2 / ||x_star||^2."""
    return rse_to(x_star)(x)


def rse_to(x_star: np.ndarray) -> Callable[[np.ndarray], float]:
    """x -> compute_rse(x, x_star), with the scale and ||x_star||^2 settled once.

    Outside 2^+-SCALE_BAND_LOG2, the power of two that brings max |x_star_i|
    into [1/2, 1) scales x and x_star: the ratio is exact and stays in range.
    """
    e = -math.frexp(float(np.abs(x_star).max()))[1]
    e = e if abs(e) > SCALE_BAND_LOG2 else 0
    x_star = np.ldexp(x_star, e)
    ref = float(np.dot(x_star, x_star))
    if ref == 0.0:
        raise ValueError("relative solution error is undefined for x_star = 0")

    def rse(x: np.ndarray) -> float:
        diff = (np.ldexp(x, e) if e else x) - x_star
        return float(np.dot(diff, diff)) / ref

    return rse


def select_block(
    lam: float, mu: float, s: np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Every j whose score s_j^2 / w_j reaches min(lam max score + mu ||s||^2 / sum w, max score).

    `weights` None stands for w = 1 (sum w = n) and skips the division.  The
    cap at the max score always admits the argmax, so the block is nonempty
    whenever s != 0 and tied scores are kept.  Inclusive comparison, no cap
    on the block size.
    """
    sq = s * s
    s_norm_sq = float(sq.sum())
    if s_norm_sq == 0.0:
        raise ValueError("cannot select a block from a zero gradient")
    score, weight_sum = (sq, len(s)) if weights is None else (sq / weights, float(weights.sum()))
    top = float(score.max())
    return np.flatnonzero(score >= min(lam * top + mu * s_norm_sq / weight_sum, top))


# each method's (lam, mu); perfbench's tracer wraps these names, so they stay
# module globals called positionally: s, then fbcd's w_j = ||a_j||^2
select_block_madbcd = partial(select_block, 0.0, 1.0)
select_block_mrbgs = partial(select_block, MRBGS_FRACTION, 0.0)
select_block_fbcd = partial(select_block, 0.5, 0.5)


def block_rule(params: MethodParams, col_norms: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The method's block selector s -> column indices, one setting of ``select_block``.

    | method            | w_j       | lam            | mu  |
    |-------------------|-----------|----------------|-----|
    | madbcd, cs-madbcd | 1         | 0              | 1   |
    | mrbgs             | 1         | MRBGS_FRACTION | 0   |
    | fbcd              | ||a_j||^2 | 1/2            | 1/2 |
    | cd                | 1         | 1              | 0   |

    cd keeps only the first index of its block, argmax |s_j|, and computes
    that argmax directly: it is several times cheaper than the general rule,
    and cd selects once per coordinate step.  fbcd's weights are formed once
    per run from `col_norms`.  Looks the selectors up per run, not at import
    time, so that one rebound on this module (as perfbench's tracer does) is
    the one used.
    """
    if params.method in (MADBCD, CS_MADBCD):
        return select_block_madbcd
    if params.method == "mrbgs":
        return select_block_mrbgs
    if params.method == "fbcd":
        weights = col_norms * col_norms
        return lambda s: select_block_fbcd(s, weights)
    return lambda s: np.abs(s).argmax(keepdims=True)


def line_search_update(
    state: SolverState, block: np.ndarray, beta: float = 0.0
) -> tuple[SolverState, float]:
    """Exact line search along eta = s[block] on the block's columns, plus momentum.

    s is the state's `grad`.  Returns the next state and eta^T s.  With
    beta = 0 this is the plain block step; on a singleton block it is the
    coordinate step s_j / ||a_j||^2.
    """
    eta = state.grad[block]
    g, denom = state.kernel.step(block, eta)
    if not denom > 0.0:
        # eta = A_tau^T r, so ||A_tau eta||^2 = 0 only if eta = 0, which the
        # block rule excludes: the product underflowed
        raise RankDeficiencyError(
            int(block[0]),
            denom,
            f"the step's squared norm ||A_tau eta||^2 underflowed to {denom:.3e} on a "
            f"block of {block.size} column(s); rescale the problem's columns",
        )
    eta_dot_s = float(np.dot(eta, eta))
    c = eta_dot_s / denom
    return state.advance(block, c * eta, c * g, beta), eta_dot_s


def householder_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimize ||b - a x||_2 on a dense m-by-k block; b has length m, and m >= k.

    Factors [a | b] by LAPACK's blocked Householder QR (dgeqrf) without
    forming Q, so that R[:k, k] = Q^T b, then solves R[:k, :k] x = R[:k, k].
    Raises RankDeficiencyError at the first block position j with
    |R_jj| <= 1e-12 * ||a||_F, the same contract as the oracle's QR.
    """
    k = a.shape[1]
    r = np.linalg.qr(np.column_stack((a, b)), mode="r")
    diag = np.abs(np.diagonal(r)[:k])
    small = np.flatnonzero(diag <= 1e-12 * np.linalg.norm(a))
    if small.size:
        j = int(small[0])
        raise RankDeficiencyError(j, float(diag[j]))
    # R is upper triangular with a nonzero diagonal, so LU solves it without
    # a row swap: this is back substitution
    return np.linalg.solve(r[:k, :k], r[:k, k])


def csne_lstsq(a: np.ndarray, g: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """Minimize ||b - a x||_2 by the corrected semi-normal equations on g = a^T a.

    Solves g x = a^T b, then makes one correction x += g^-1 a^T (b - a x)
    (Bjorck, Linear Algebra Appl. 1987): the first solve alone loses accuracy
    with the square of the condition number of a.  Returns None, leaving the
    block to a QR, when g is not safely positive definite: its Cholesky
    factorization fails, or its smallest pivot is below CSNE_PIVOT_RATIO of
    its largest.
    """
    try:
        pivots = np.diagonal(np.linalg.cholesky(g))
    except np.linalg.LinAlgError:
        return None
    if not pivots.min() >= CSNE_PIVOT_RATIO * pivots.max():
        return None
    x = np.linalg.solve(g, a.T @ b)
    return x + np.linalg.solve(g, a.T @ (b - a @ x))


def subsolve_update(state: SolverState, block: np.ndarray) -> SolverState:
    """Maximal-residual block step: exact least-squares subsolve on the block's columns.

    Solves by ``csne_lstsq`` on the kernel's G_tau; a block it leaves goes to
    ``householder_lstsq``, whose RankDeficiencyError names the global column.
    r stays incremental, r - A_tau d: near convergence a residual recomputed
    from x is rounding noise relative to the r the subsolve must make
    orthogonal to A_tau.
    """
    a_tau, g_tau = state.kernel.block_system(block)
    r = state.residual
    d = csne_lstsq(a_tau, g_tau, r)
    if d is None:
        try:
            d = householder_lstsq(a_tau, r)
        except RankDeficiencyError as exc:
            raise RankDeficiencyError(
                int(block[exc.column]),
                exc.magnitude,
                f"rank-deficient subproblem on block {block.tolist()}: "
                f"|R_jj|={exc.magnitude:.3e} at block position {exc.column}",
            ) from exc
    moved = state.advance(block, d, state.kernel.step(block, d)[0])
    return replace(moved, residual=r - a_tau @ d)


def run_solver(
    problem,
    params: MethodParams,
    stop: StoppingRule,
    *,
    record_history: bool = False,
    sketch_seed: int | None = None,
) -> ConvergenceReport:
    """Iterate `params.method` on `problem` until a stopping limit fires.

    Starts from x_prev = x_curr = 0 and steps with ``line_search_update(state,
    block, beta)`` or ``subsolve_update(state, block)``.  Records one
    IterationRecord per iterate including the initial one, so a run of IT
    steps yields IT + 1 records; `record_history` also keeps every iterate and
    block, for the oracle's audits.  Non-convergence by iteration or time limit
    is a reported outcome, not an error.  A problem with nonzero `scale_exponents`
    (p, q) is solved as 2^p A x = 2^q b, in the same steps, and x maps back by
    2^(p - q) and ||s|| by 2^-(p + q).

    cs-madbcd first compresses `problem` with a count sketch drawn from
    `sketch_seed` (which it requires, and the other methods ignore); its
    report names the unsketched problem and carries the sketching time as
    prep seconds.
    """
    problem_label, prep_seconds = problem.label, 0.0
    p, q = problem.scale_exponents
    if p or q:
        x_star = problem.x_star if problem.x_star is None else np.ldexp(problem.x_star, q - p)
        problem = replace(problem, A=problem.A.scaled(p), b=np.ldexp(problem.b, q), x_star=x_star)
    d = params.sketch_rows(problem.A.cols)
    if d is not None:
        if sketch_seed is None:
            raise ValueError(f"{params.method} needs a sketch_seed to draw its count sketch")
        problem, prep_seconds = cs_prepare(problem, d, sketch_seed)
    A: Matrix = problem.A
    rse_of = None if problem.x_star is None else rse_to(problem.x_star)
    select = block_rule(params, problem.column_norms)

    def verdict(s_norm_sq: float, rse: float | None, k: int, elapsed: float) -> str:
        if not math.isfinite(s_norm_sq):
            return "diverged: non-finite normal-equation residual"
        if rse is not None and stop.rse_threshold is not None and rse < stop.rse_threshold:
            return "converged: rse threshold"
        if s_norm_sq == 0.0:
            return ZERO_RESIDUAL_STOP
        if grad_floor is not None and math.sqrt(s_norm_sq) <= grad_floor:
            return GRADIENT_FALLBACK_STOP
        if k >= stop.max_iterations:
            return "max iterations exceeded"
        if stop.time_budget_s is not None and elapsed >= stop.time_budget_s:
            return "time budget exhausted"
        return ""

    # G = A^T A of a dense matrix is formed here, so the solve time pays for it
    t0 = time.perf_counter()
    state = SolverState.initial(A, problem.b)
    # no ground truth: rse_threshold bounds ||A^T r|| / ||A^T b|| instead,
    # and the start's s is A^T b
    grad_floor = None
    if rse_of is None and stop.rse_threshold is not None:
        grad_floor = stop.rse_threshold * float(np.linalg.norm(state.grad))
    records: list[IterationRecord] = []
    drift_log: list[tuple[int, float]] = []
    iterates, blocks = ([state.x_curr], []) if record_history else (None, None)

    while True:
        k = state.k
        rse = None if rse_of is None else rse_of(state.x_curr)
        s_norm_sq = float(np.dot(state.grad, state.grad))
        elapsed = time.perf_counter() - t0
        stop_reason = verdict(s_norm_sq, rse, k, elapsed)
        if stop_reason in (ZERO_RESIDUAL_STOP, GRADIENT_FALLBACK_STOP) or (
            k > 0 and k % RESIDUAL_REFRESH == 0
        ):
            # the incremental s may have drifted: re-derive it, and stop on
            # it only if the fresh A^T (b - A x) agrees (a refresh from G
            # never admits a stop on s)
            state, drift = state.refreshed(grad_floor or 0.0)
            drift_log.append((k, drift))
            s_norm_sq = float(np.dot(state.grad, state.grad))
            stop_reason = verdict(s_norm_sq, rse, k, elapsed)

        block_size, eta_dot_s = 0, math.nan
        if not stop_reason:
            block = select(state.grad)
            if params.method == "mrbgs":
                state = subsolve_update(state, block)
            else:
                state, eta_dot_s = line_search_update(state, block, params.beta)
            block_size = block.size
        records.append(
            IterationRecord(
                k=k,
                rse=rse,
                normal_residual=math.sqrt(s_norm_sq),
                block_size=block_size,
                elapsed_s=elapsed,
                eta_dot_s=eta_dot_s,
            )
        )
        if stop_reason:
            break
        if record_history:
            iterates.append(state.x_curr)
            blocks.append(block)

    solve_seconds = time.perf_counter() - t0
    if p or q:  # a norm beyond double range in the problem's units reads inf there
        iterates = iterates and [np.ldexp(x, p - q) for x in iterates]
        with np.errstate(over="ignore"):
            records = [
                replace(r, normal_residual=float(np.ldexp(r.normal_residual, -p - q)))
                for r in records
            ]
            drift_log = [(k, float(np.ldexp(v, -p - q))) for k, v in drift_log]
    return ConvergenceReport(
        method=params.method,
        beta=params.beta,
        records=records,
        x_final=np.ldexp(state.x_curr, p - q),
        stop_reason=stop_reason,
        solve_seconds=solve_seconds,
        prep_seconds=prep_seconds,
        problem_label=problem_label,
        residual_drift=drift_log,
        iterate_history=iterates,
        block_history=blocks,
    )
