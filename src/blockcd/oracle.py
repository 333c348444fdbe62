"""Independent reference machinery for checking solver runs.

Everything here is deliberately self-contained (hand-rolled Householder QR
and cyclic Jacobi) so it forms an independent route against the iterative
solvers: the solvers are never allowed to verify themselves.

Intended for desk-scale audits (n up to a few hundred); the Gram-matrix
Jacobi route squares the condition number, which is acceptable in 64-bit
arithmetic at these sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .matrix import Matrix, RankDeficiencyError

__all__ = [
    "ContractionBounds",
    "reference_lsq_solve",
    "gram_extremal_singular_values",
    "q_from_recurrence",
    "beta_feasible_max",
    "contraction_bounds",
    "run_contraction_bounds",
    "contraction_audit",
]


def _as_dense(A) -> np.ndarray:
    if isinstance(A, Matrix):
        return A.to_dense()
    return np.asarray(A, dtype=np.float64)


def householder_lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimize ||b - a x||_2 by Householder QR on a dense m>=n matrix.

    Raises RankDeficiencyError when a diagonal of R falls below
    1e-12 * ||a||_F, naming the offending column.
    """
    a = np.array(a, dtype=np.float64)  # working copy, overwritten by R
    y = np.array(b, dtype=np.float64)
    m, n = a.shape
    if m < n:
        raise ValueError(f"need m >= n for a full-column-rank solve, got {a.shape}")
    if y.shape != (m,):
        raise ValueError(f"rhs must have length {m}, got shape {y.shape}")
    frob = np.linalg.norm(a)
    tol = 1e-12 * frob
    for j in range(n):
        x = a[j:, j]
        normx = np.linalg.norm(x)
        if normx > 0.0:
            v = x.copy()
            v[0] += math.copysign(normx, x[0]) if x[0] != 0.0 else normx
            vnorm = np.linalg.norm(v)
            if vnorm > 0.0:
                v /= vnorm
                a[j:, j:] -= 2.0 * np.outer(v, v @ a[j:, j:])
                y[j:] -= 2.0 * v * (v @ y[j:])
        if abs(a[j, j]) <= tol:
            raise RankDeficiencyError(j, abs(a[j, j]))
    x = np.zeros(n)
    for i in range(n - 1, -1, -1):
        x[i] = (y[i] - a[i, i + 1 :] @ x[i + 1 :]) / a[i, i]
    return x


def reference_lsq_solve(A, b: np.ndarray) -> np.ndarray:
    """Ground-truth least-squares minimizer via dense Householder QR."""
    return householder_lstsq(_as_dense(A), b)


def _jacobi_eigenvalues(g: np.ndarray) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    g = np.array(g, dtype=np.float64)
    n = g.shape[0]
    if n == 1:
        return g.ravel().copy()
    tol = 1e-12 * np.linalg.norm(g)

    def off_norm() -> float:
        # summed entrywise: the difference-of-squares form cancels catastrophically
        off = g - np.diag(np.diag(g))
        return float(np.linalg.norm(off))

    for _ in range(60):
        if off_norm() <= tol:
            return np.diag(g).copy()
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = g[p, q]
                # entries this small cannot lift the off-norm above tol, and
                # skipping them keeps theta far from overflow
                if abs(apq) <= tol / (2.0 * n):
                    continue
                theta = (g[q, q] - g[p, p]) / (2.0 * apq)
                # hypot keeps the tangent formula finite for huge theta
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                gp = g[:, p].copy()
                gq = g[:, q].copy()
                g[:, p] = c * gp - s * gq
                g[:, q] = s * gp + c * gq
                gp = g[p, :].copy()
                gq = g[q, :].copy()
                g[p, :] = c * gp - s * gq
                g[q, :] = s * gp + c * gq
    if off_norm() > tol:
        raise RuntimeError("Jacobi iteration did not reach the target tolerance")
    return np.diag(g).copy()


def gram_extremal_singular_values(A) -> tuple[float, float]:
    """(sigma_min, sigma_max) of A from Jacobi on the n-by-n Gram matrix."""
    a = _as_dense(A)
    g = a.T @ a
    eigs = _jacobi_eigenvalues(g)
    return math.sqrt(max(float(eigs.min()), 0.0)), math.sqrt(max(float(eigs.max()), 0.0))


def _q_raw(gamma1: float, gamma2: float) -> float:
    """Larger root of q^2 = gamma1 q + gamma2 (gamma1 when gamma2 = 0), unchecked."""
    if gamma2 > 0.0:
        return (gamma1 + math.sqrt(gamma1 * gamma1 + 4.0 * gamma2)) / 2.0
    return gamma1


def q_from_recurrence(gamma1: float, gamma2: float) -> float:
    """Decay rate q of the two-term recurrence F_{k+1} <= g1 F_k + g2 F_{k-1}.

    Requires g1, g2 >= 0 and g1 + g2 < 1.  The returned q additionally
    satisfies g1 + g2 <= q < 1, and the bound F_{k+1} <= q^k (1 + (q - g1)) F_0
    is re-verified here by iterating the worst-case recurrence 200 steps.
    """
    if gamma1 < 0.0 or gamma2 < 0.0:
        raise ValueError("recurrence coefficients must be nonnegative")
    if gamma1 + gamma2 >= 1.0:
        raise ValueError(
            f"contraction hypothesis violated: gamma1+gamma2={gamma1 + gamma2} >= 1"
        )
    q = _q_raw(gamma1, gamma2)
    tau = q - gamma1
    # self-check: the closed form must dominate the recurrence it came from
    f_prev = f_curr = 1.0
    for k in range(1, 201):
        f_next = gamma1 * f_curr + gamma2 * f_prev
        if f_next > (q**k) * (1.0 + tau) * (1.0 + 1e-12) + 1e-300:
            raise RuntimeError(
                f"recurrence bound violated at step {k}: {f_next} > q^k(1+tau)"
            )
        f_prev, f_curr = f_curr, f_next
    return q


def beta_feasible_max(alpha: float) -> float:
    """Largest momentum weight keeping the contraction hypothesis satisfiable.

    Positive root of 4 b^2 + (4 - 3 alpha) b - alpha = 0; below it the
    two-term coefficients satisfy gamma1 + gamma2 < 1, above it they do not.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    lin = 4.0 - 3.0 * alpha
    disc = lin * lin + 16.0 * alpha
    return (-lin + math.sqrt(disc)) / 8.0


@dataclass(frozen=True)
class ContractionBounds:
    """Per-iteration convergence-bound ingredients for a momentum run."""

    alpha: float
    gamma1: float
    gamma2: float
    q: float
    tau: float
    feasible: bool


def block_contraction_alpha(A, block_indices, sigma_min: float | None = None) -> float:
    """alpha = |tau| sigma_min(A)^2 / (n sigma_max(A_tau)^2)."""
    idx = np.asarray(block_indices, dtype=np.int64)
    if idx.size == 0:
        raise ValueError("block index set must be nonempty")
    a = _as_dense(A)
    if sigma_min is None:
        sigma_min = gram_extremal_singular_values(a)[0]
    smax_tau = gram_extremal_singular_values(a[:, idx])[1]
    return len(idx) * sigma_min**2 / (a.shape[1] * smax_tau**2)


def contraction_bounds(A, block_indices, beta: float, eps: float = 0.0, *,
                       sigma_min: float | None = None) -> ContractionBounds:
    """Convergence-bound coefficients for one momentum iteration.

    gamma1 = (1 + 3 beta + 2 beta^2) rho - (3 beta + 1) alpha and
    gamma2 = (2 beta^2 + beta) rho, with rho = ((1 + eps) / (1 - eps))^2 the
    inflation an eps-distortion sketch puts on a sketched run (rho = 1 at the
    default eps = 0).  `sigma_min` may be passed to avoid recomputing it
    across a run's audits.
    """
    if not 0.0 <= eps < 1.0:
        raise ValueError(f"embedding distortion eps must lie in [0, 1), got {eps}")
    alpha = block_contraction_alpha(A, block_indices, sigma_min)
    rho = ((1.0 + eps) / (1.0 - eps)) ** 2
    gamma1 = (1.0 + 3.0 * beta + 2.0 * beta * beta) * rho - (3.0 * beta + 1.0) * alpha
    gamma2 = (2.0 * beta * beta + beta) * rho
    q = _q_raw(gamma1, gamma2)
    return ContractionBounds(
        alpha=alpha,
        gamma1=gamma1,
        gamma2=gamma2,
        q=q,
        tau=q - gamma1,
        feasible=gamma1 + gamma2 < 1.0,
    )


def run_contraction_bounds(report, A) -> list[ContractionBounds]:
    """Bound coefficients for every recorded iteration of a run.

    The run must have been recorded with record_history=True; sigma_min(A) is
    computed once and shared across iterations.
    """
    if report.block_history is None:
        raise ValueError("bounds need a run recorded with record_history=True")
    a = _as_dense(A)
    sigma_min = gram_extremal_singular_values(a)[0]
    return [
        contraction_bounds(a, idx, report.beta, sigma_min=sigma_min)
        for idx in report.block_history
    ]


def contraction_audit(report, A, x_star: np.ndarray):
    """Check the per-step energy contraction of a momentum-free run.

    Recomputes F_k = ||A (x_k - x_star)||^2 from the recorded iterates and
    asserts F_{k+1} <= (1 - alpha_k) F_k for each step, alpha_k from the
    recorded block.  Returns the list of (k, measured, bound) violations,
    expected empty.
    """
    if report.block_history is None:
        raise ValueError("contraction audit needs a run recorded with record_history=True")
    if report.beta != 0.0:
        raise ValueError("contraction audit applies to beta=0 runs only")
    a = _as_dense(A)
    sigma_min = gram_extremal_singular_values(a)[0]
    iterates = report.iterate_history
    blocks = report.block_history
    violations = []
    for k, idx in enumerate(blocks):
        f_k = float(np.sum((a @ (iterates[k] - x_star)) ** 2))
        f_next = float(np.sum((a @ (iterates[k + 1] - x_star)) ** 2))
        alpha = block_contraction_alpha(a, idx, sigma_min)
        bound = (1.0 - alpha) * f_k
        if f_next > bound * (1.0 + 1e-9) + 1e-300:
            violations.append((k, f_next, bound))
    return violations
