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
line search for an exact least-squares subsolve on its block: it solves
G_tau d = s_tau on the carried s, with G_tau = A_tau^T A_tau from the run's
kernel, and LAPACK's blocked Householder QR of [A_tau | r] on a fresh
r = b - A x is the rank-revealing fallback.  The oracle keeps its own
hand-rolled QR as the independent route that audits this subsolve.
cs-madbcd is madbcd on (SA, Sb), the problem compressed by a count sketch S
with d_factor * n rows.

One driver, ``run_solver``, runs every method in n-space from x = 0.  The
iterate is (x, x_prev, s, u) with s = A^T r and u = A^T A (x - x_prev); no
run carries r.  The loop keeps these as local arrays, moves x in place at
beta = 0 (nothing else holds it there) and keeps each record field in its
own list, so a step costs its arithmetic.  A method's step is a function of
(kernel, x, s, block) that returns (where, d, g, eta^T s) with
g = A^T A_tau d: ``line_search`` for cd, fbcd, madbcd and cs-madbcd,
``subsolve`` for mrbgs, picked once per run as ``block_rule`` picks the
block selector.  ``move`` applies it: x moves by d on the block plus
beta (x - x_prev), u becomes g + beta u and s becomes s - u.  These three
functions are public, so a run can be replayed step by step.  The kernel,
``Matrix.normal_kernel(b)``, owns the run's linear algebra: it forms
c = A^T b and, for a dense matrix, G = A^T A once per run inside the timed
solve (reported as ``kernel_seconds``); it gives a step
(A^T A_tau v, ||A_tau v||^2) and the subsolve G_tau.  A one-column block of
a line search is a coordinate step: the kernel gets the column's int index
j and the scalar s_j, and a dense kernel reads row j of G in place.  Only s
accumulates rounding: u is rebuilt from a fresh product every step, so its
old rounding decays by beta per step.  Every ``RESIDUAL_REFRESH`` steps, and
before a stop on the normal residual is reported, the loop re-derives s
from x by the kernel's ``refresh``: c - G x on dense input while ||s|| is
far above that form's rounding, else, and for every stop it confirms,
A^T (b - A x).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, get_type_hints

import numpy as np

from .matrix import Matrix, NormalKernel, RankDeficiencyError
from .problems import SCALE_BAND_LOG2, _store_checked
from .sketch import cs_prepare

__all__ = [
    "MethodParams",
    "StoppingRule",
    "IterationRecord",
    "ConvergenceReport",
    "select_block_madbcd",
    "select_block_fbcd",
    "select_block_mrbgs",
    "block_rule",
    "line_search",
    "subsolve",
    "move",
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
# its largest leaves the mrbgs block to the QR on a fresh r, which solves it
# or names the dependent column.  The pivots spread about as far as the
# singular values of A_tau.  d is read from the carried s, with no correction
# on a fresh r, and a step formed from G leaves rounding of about
# eps ||G|| ||d|| in that s: so a block with cond(A_tau) above about 1e3
# must go to the QR, or the run can stall short of its threshold
SUBSOLVE_PIVOT_RATIO = 3e-4


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


@dataclass(frozen=True)
class IterationRecord:
    """Per-iterate trace entry; block fields describe the step leaving it.

    Each field is a curve column, in the units of the system the run
    iterated on.  `normal_residual` is ||s||, the incrementally carried
    s = A^T r (fresh at a refresh and at a stop on it); `drift` is
    ||s - fresh s|| where a refresh ran (``NormalKernel.refresh``), else NaN.
    """

    k: int
    rse: float | None
    normal_residual: float
    block_size: int
    elapsed_s: float
    eta_dot_s: float = math.nan
    drift: float = math.nan


@dataclass
class ConvergenceReport:
    """Everything a run produced: history, final iterate, and why it stopped.

    `x_final` and `iterate_history` are in the problem's units, `records`
    in the run's: with (p, q) its `scale_exponents`, a norm of s there is
    2^(p + q) times the problem's, and eta^T s 2^(2(p + q)) times.
    `kernel_seconds` is the part of `solve_seconds` spent making the run's
    kernel (c = A^T b, and G on dense input); the rest is the steps.
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
    kernel_seconds: float = 0.0
    problem_label: str = ""
    scale_exponents: tuple[int, int] = (0, 0)
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


def move(
    x: np.ndarray, x_prev: np.ndarray, s: np.ndarray, u: np.ndarray,
    where, d, g: np.ndarray, beta: float = 0.0, in_place: bool = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every method's step: (x + beta (x - x_prev) + d on `where`, s - u', u' = g + beta u).

    `g` is A^T A_tau d.  `where` is an index array with `d` its values, or
    one column's int index with a scalar `d`.  At beta = 0, `in_place`
    moves x itself, for a caller that holds no other reference to it;
    otherwise x, s and u are left as they are.
    """
    if beta:
        x = x + beta * (x - x_prev)
        g = g + beta * u
    elif not in_place:
        x = x.copy()
    x[where] += d
    return x, s - g, g


def line_search(
    kernel: NormalKernel, x: np.ndarray, s: np.ndarray, block: np.ndarray
) -> tuple[int | np.ndarray, np.ndarray | float, np.ndarray, float]:
    """The exact line search along eta = s[block]: (where, c eta, c A^T A_tau eta, eta^T s).

    c = eta^T s / ||A_tau eta||^2; the iterate `x` is not read.  A
    one-column block is a coordinate step: `where` is its int index j and
    eta the scalar s_j, so that a dense kernel reads one row of G.
    Otherwise `where` is the block.
    """
    if block.size == 1:
        where = int(block[0])
        eta = float(s[where])
        eta_dot_s = eta * eta
    else:
        where, eta = block, s[block]
        eta_dot_s = float(np.dot(eta, eta))
    g, denom = kernel.step(where, eta)
    if not denom > 0.0:
        # eta = A_tau^T r, so ||A_tau eta||^2 = 0 only if eta = 0, which the
        # block rule excludes: the product underflowed
        raise RankDeficiencyError(
            int(block[0]),
            denom,
            f"the step's squared norm ||A_tau eta||^2 underflowed to {denom:.3e} on a "
            f"block of {block.size} column(s); rescale the problem's columns",
        )
    c = eta_dot_s / denom
    g *= c  # the kernel's product is fresh
    return where, c * eta, g, eta_dot_s


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


def subsolve(
    kernel: NormalKernel, x: np.ndarray, s: np.ndarray, block: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """mrbgs's step, the exact least-squares subsolve on the block: (block, d, A^T A_tau d, nan).

    d minimizes ||r - A_tau d|| for r = b - A x, so G_tau d = A_tau^T r,
    which is s_tau: it is solved on the kernel's G_tau and the carried s.  A
    G_tau with no Cholesky factor, or whose smallest pivot is below
    SUBSOLVE_PIVOT_RATIO of its largest, leaves the block to
    ``householder_lstsq`` on A_tau and r, formed from `x` by one pass over
    A; its RankDeficiencyError names the global column.  The step has no
    eta^T s.
    """
    g_tau = kernel.block_system(block)
    try:
        pivots = np.diagonal(np.linalg.cholesky(g_tau))
        factored = pivots.min() >= SUBSOLVE_PIVOT_RATIO * pivots.max()
    except np.linalg.LinAlgError:
        factored = False
    if factored:
        d = np.linalg.solve(g_tau, s[block])
    else:
        r = kernel.b - kernel.A.matvec(x)
        try:
            d = householder_lstsq(kernel.A.gather_columns(block), r)
        except RankDeficiencyError as exc:
            raise RankDeficiencyError(
                int(block[exc.column]),
                exc.magnitude,
                f"rank-deficient subproblem on block {block.tolist()}: "
                f"|R_jj|={exc.magnitude:.3e} at block position {exc.column}",
            ) from exc
    return block, d, kernel.step(block, d)[0], math.nan


def run_solver(
    problem,
    params: MethodParams,
    stop: StoppingRule,
    *,
    record_history: bool = False,
    sketch_seed: int | None = None,
) -> ConvergenceReport:
    """Iterate `params.method` on `problem` until a stopping limit fires.

    Starts from x_prev = x = 0.  Each step is the method's step function,
    ``subsolve`` for mrbgs and ``line_search`` otherwise, applied by
    ``move``.  Records one IterationRecord per iterate including the initial
    one, so a run of IT steps yields IT + 1 records; `record_history` also
    keeps a copy of every iterate and every block, for the oracle's audits.
    Non-convergence by iteration or time limit is a reported outcome, not an
    error.  A problem with nonzero `scale_exponents` (p, q) is solved as
    2^p A x = 2^q b, in the same steps; x maps back by 2^(p - q), and the
    records stay in the run's units.

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
    kernel = A.normal_kernel(problem.b)
    kernel_seconds = time.perf_counter() - t0
    # the iterate from x_prev = x = 0: s = c and u = 0.  s and u are
    # replaced, never written, so s may start as the kernel's c; x moves in
    # place at beta = 0, where nothing else holds it
    n, beta = A.cols, params.beta
    x, x_prev, s, u = np.zeros(n), np.zeros(n), kernel.c, np.zeros(n)
    step = subsolve if params.method == "mrbgs" else line_search
    # no ground truth: rse_threshold bounds ||A^T r|| / ||A^T b|| instead,
    # and the start's s is A^T b
    grad_floor = None
    if rse_of is None and stop.rse_threshold is not None:
        grad_floor = stop.rse_threshold * float(np.linalg.norm(s))
    # one list per IterationRecord field; the records are built after the loop
    rses, norms, sizes, times, etas, drifts = [], [], [], [], [], []
    iterates, blocks = ([x.copy()], []) if record_history else (None, None)

    k = 0
    while True:
        rse = None if rse_of is None else rse_of(x)
        s_norm_sq = float(np.dot(s, s))
        elapsed = time.perf_counter() - t0
        stop_reason = verdict(s_norm_sq, rse, k, elapsed)
        drift = math.nan
        if stop_reason in (ZERO_RESIDUAL_STOP, GRADIENT_FALLBACK_STOP) or (
            k > 0 and k % RESIDUAL_REFRESH == 0
        ):
            # the incremental s may have drifted: re-derive it, and stop on
            # it only if the fresh A^T (b - A x) agrees (a refresh from G
            # never admits a stop on s)
            fresh = kernel.refresh(x, s, grad_floor or 0.0)
            drift = float(np.linalg.norm(s - fresh))
            s = fresh
            s_norm_sq = float(np.dot(s, s))
            stop_reason = verdict(s_norm_sq, rse, k, elapsed)
        rses.append(rse)
        norms.append(math.sqrt(s_norm_sq))
        times.append(elapsed)
        drifts.append(drift)
        if stop_reason:
            sizes.append(0)
            etas.append(math.nan)
            break

        block = select(s)
        where, d, g, eta_dot_s = step(kernel, x, s, block)
        x_next, s, u = move(x, x_prev, s, u, where, d, g, beta, in_place=True)
        x_prev, x = x, x_next
        sizes.append(block.size)
        etas.append(eta_dot_s)
        k += 1
        if record_history:
            iterates.append(x.copy())
            blocks.append(block)

    solve_seconds = time.perf_counter() - t0
    if p or q:
        iterates = iterates and [np.ldexp(x, p - q) for x in iterates]
    records = list(map(IterationRecord, range(k + 1), rses, norms, sizes, times, etas, drifts))
    return ConvergenceReport(
        method=params.method,
        beta=params.beta,
        records=records,
        x_final=np.ldexp(x, p - q),
        stop_reason=stop_reason,
        solve_seconds=solve_seconds,
        prep_seconds=prep_seconds,
        kernel_seconds=kernel_seconds,
        problem_label=problem_label,
        scale_exponents=(p, q),
        iterate_history=iterates,
        block_history=blocks,
    )
