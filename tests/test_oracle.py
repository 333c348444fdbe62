import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockcd import (
    DenseMatrix,
    MethodParams,
    RankDeficiencyError,
    StoppingRule,
    beta_feasible_max,
    contraction_audit,
    gen_gaussian_dense,
    gram_extremal_singular_values,
    make_consistent_problem,
    q_from_recurrence,
    reference_lsq_solve,
    run_contraction_bounds,
    run_solver,
    contraction_bounds,
)


class TestReferenceSolve:
    def test_identity(self):
        b = np.array([2.0, -1.0, 0.5])
        assert_allclose(reference_lsq_solve(np.eye(3), b), b)

    def test_rank_one_mean(self):
        x = reference_lsq_solve(np.array([[1.0], [1.0]]), np.array([0.0, 2.0]))
        assert_allclose(x, [1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_recovers_generating_solution(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((30, 8))
        x_star = rng.standard_normal(8)
        x = reference_lsq_solve(a, a @ x_star)
        assert_allclose(x, x_star, rtol=1e-8)

    def test_residual_orthogonality(self, rng):
        a = rng.standard_normal((25, 6))
        b = rng.standard_normal(25)
        x = reference_lsq_solve(a, b)
        bound = 1e-8 * np.linalg.norm(a) * np.linalg.norm(b)
        assert np.linalg.norm(a.T @ (b - a @ x)) <= bound

    def test_rank_deficiency_names_column(self, rng):
        a = rng.standard_normal((10, 3))
        a[:, 2] = a[:, 0] + a[:, 1]
        with pytest.raises(RankDeficiencyError) as exc:
            reference_lsq_solve(a, rng.standard_normal(10))
        assert exc.value.column == 2

    def test_rejects_wide_input(self):
        with pytest.raises(ValueError, match="m >= n"):
            reference_lsq_solve(np.ones((2, 3)), np.ones(2))

    def test_rejects_rhs_of_wrong_length(self):
        with pytest.raises(ValueError, match=r"rhs must have length 3, got shape \(2,\)"):
            reference_lsq_solve(np.eye(3), np.ones(2))


class TestGramSingularValues:
    def test_padded_diagonal(self):
        a = np.vstack([np.diag([2.0, 3.0]), np.zeros((3, 2))])
        assert gram_extremal_singular_values(a) == pytest.approx((2.0, 3.0))

    def test_orthonormal_columns(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((9, 4)))
        smin, smax = gram_extremal_singular_values(q)
        assert smin == pytest.approx(1.0, rel=1e-10)
        assert smax == pytest.approx(1.0, rel=1e-10)

    def test_sandwich_inequality(self, rng):
        a = rng.standard_normal((20, 6))
        smin, smax = gram_extremal_singular_values(a)
        for _ in range(100):
            x = rng.standard_normal(6)
            ax_sq = float(np.dot(a @ x, a @ x))
            x_sq = float(np.dot(x, x))
            assert smin**2 * x_sq * (1 - 1e-9) <= ax_sq <= smax**2 * x_sq * (1 + 1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_numpy_svd(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((12 + seed, 5))
        smin, smax = gram_extremal_singular_values(a)
        sv = np.linalg.svd(a, compute_uv=False)
        assert smax == pytest.approx(sv[0], rel=1e-10)
        assert smin == pytest.approx(sv[-1], rel=1e-10)

    def test_accepts_matrix_objects(self, rng):
        a = rng.standard_normal((10, 3))
        assert gram_extremal_singular_values(DenseMatrix(a)) == pytest.approx(
            gram_extremal_singular_values(a)
        )


class TestRecurrenceRate:
    def test_gamma2_zero_branch(self):
        assert q_from_recurrence(0.5, 0.0) == pytest.approx(0.5)

    def test_pure_second_order(self):
        # q = sqrt(4 * 0.25) / 2, cross-checked by iterating the recurrence
        assert q_from_recurrence(0.0, 0.25) == pytest.approx(0.5)

    def test_mixed_case(self):
        q = q_from_recurrence(0.3, 0.3)
        assert q == pytest.approx((0.3 + math.sqrt(1.29)) / 2)
        assert q == pytest.approx(0.71789, abs=1e-5)

    def test_rejects_violated_hypothesis(self):
        with pytest.raises(ValueError, match="contraction hypothesis"):
            q_from_recurrence(0.7, 0.3)
        with pytest.raises(ValueError, match="nonnegative"):
            q_from_recurrence(-0.1, 0.2)

    @pytest.mark.parametrize("g1,g2", [(0.0, 0.0), (0.9, 0.0), (0.1, 0.8), (0.45, 0.45)])
    def test_recurrence_iteration_oracle(self, g1, g2):
        q = q_from_recurrence(g1, g2)
        tau = q - g1
        assert g1 + g2 <= q + 1e-15 < 1.0
        f_prev = f_curr = 1.0
        for k in range(1, 200):
            f_next = g1 * f_curr + g2 * f_prev
            assert f_next <= q**k * (1.0 + tau) * (1 + 1e-12)
            f_prev, f_curr = f_curr, f_next

    def test_monotone_in_both_coefficients(self):
        grid = np.linspace(0.0, 0.45, 8)
        for g1 in grid:
            qs = [q_from_recurrence(g1, g2) for g2 in grid]
            assert all(a <= b + 1e-15 for a, b in zip(qs, qs[1:]))
        for g2 in grid:
            qs = [q_from_recurrence(g1, g2) for g1 in grid]
            assert all(a <= b + 1e-15 for a, b in zip(qs, qs[1:]))


class TestBetaFeasibleMax:
    def test_alpha_one(self):
        assert beta_feasible_max(1.0) == pytest.approx((math.sqrt(17) - 1) / 8)
        assert beta_feasible_max(1.0) == pytest.approx(0.39039, abs=1e-5)

    def test_vanishes_with_alpha(self):
        assert beta_feasible_max(1e-9) < 1e-9

    def test_half(self):
        # 4 b^2 + 2.5 b - 0.5 = 0
        assert beta_feasible_max(0.5) == pytest.approx(
            (-2.5 + math.sqrt(14.25)) / 8
        )
        assert beta_feasible_max(0.5) == pytest.approx(0.159365, abs=1e-5)

    @pytest.mark.parametrize("seed", range(50))
    def test_sign_change_across_root(self, seed):
        alpha = float(np.random.default_rng(seed).uniform(0.01, 1.0))
        bmax = beta_feasible_max(alpha)

        def poly(b):
            return 4 * b * b + (4 - 3 * alpha) * b - alpha

        assert poly(bmax - 1e-6) < 0.0 < poly(bmax + 1e-6)

    def test_bracketing_on_orthonormal_case(self):
        # identity with the full block: alpha = 1 exactly
        A = np.eye(4)
        tau = np.arange(4)
        bmax = beta_feasible_max(1.0)
        assert contraction_bounds(A, tau, bmax - 1e-6).feasible
        assert not contraction_bounds(A, tau, bmax + 1e-6).feasible

    def test_domain(self):
        with pytest.raises(ValueError):
            beta_feasible_max(0.0)
        with pytest.raises(ValueError):
            beta_feasible_max(1.2)


class TestContractionBounds:
    def test_no_momentum_collapse(self, rng):
        a = rng.standard_normal((15, 5))
        tb = contraction_bounds(a, np.array([1, 3]), beta=0.0)
        assert tb.gamma1 == pytest.approx(1.0 - tb.alpha)
        assert tb.gamma2 == 0.0
        assert tb.q == tb.gamma1
        assert tb.tau == 0.0

    def test_identity_full_block(self):
        tb = contraction_bounds(np.eye(5), np.arange(5), beta=0.0)
        assert tb.alpha == pytest.approx(1.0, rel=1e-12)
        assert tb.gamma1 == pytest.approx(0.0, abs=1e-12)
        assert tb.q == pytest.approx(0.0, abs=1e-12)
        assert tb.feasible

    def test_q_matches_recurrence_formula(self):
        # any bounds object with gamma1 = gamma2 = 0.4 must carry the lemma q
        tb = contraction_bounds(np.eye(5), np.arange(5), beta=0.0)
        assert tb.q == pytest.approx(q_from_recurrence(tb.gamma1, tb.gamma2), abs=1e-15)
        assert q_from_recurrence(0.4, 0.4) == pytest.approx(0.86333, abs=1e-5)

    def test_interlacing(self, rng):
        for _ in range(10):
            a = rng.standard_normal((18, 7))
            smin = gram_extremal_singular_values(a)[0]
            idx = np.sort(rng.choice(7, size=int(rng.integers(1, 6)), replace=False))
            smax_tau = gram_extremal_singular_values(a[:, idx])[1]
            assert smax_tau >= smin * (1 - 1e-12)

    def test_sketched_reduces_at_eps_zero(self, rng):
        # at eps = 0 the sketch inflation is exactly 1: the unsketched closed form
        a = rng.standard_normal((20, 6))
        idx = np.array([0, 2, 5])
        beta = 0.25
        tb = contraction_bounds(a, idx, beta=beta, eps=0.0)
        assert tb.gamma1 == 1.0 + 3.0 * beta + 2.0 * beta * beta - (3.0 * beta + 1.0) * tb.alpha
        assert tb.gamma2 == 2.0 * beta * beta + beta
        assert tb.q == (tb.gamma1 + math.sqrt(tb.gamma1 * tb.gamma1 + 4.0 * tb.gamma2)) / 2.0
        assert tb.feasible == (tb.gamma1 + tb.gamma2 < 1.0)

    def test_sketched_beta_zero_eps_zero(self, rng):
        a = rng.standard_normal((20, 6))
        cb = contraction_bounds(a, np.array([1, 2]), beta=0.0, eps=0.2)
        assert cb.gamma1 == pytest.approx(2.25 - cb.alpha, rel=1e-12)
        assert cb.gamma2 == 0.0

    def test_sketched_infeasible_example(self):
        # identity n=5 with a 4-column block gives alpha = 0.8 exactly
        cb = contraction_bounds(np.eye(5), np.arange(4), beta=0.1, eps=0.2)
        assert cb.gamma1 == pytest.approx(1.32 * 2.25 - 1.3 * 0.8, rel=1e-12)
        assert cb.gamma1 == pytest.approx(1.93, rel=1e-12)
        assert not cb.feasible

    def test_empty_block_refused(self):
        with pytest.raises(ValueError, match="block index set must be nonempty"):
            contraction_bounds(np.eye(3), [], 0.0)

    def test_eps_domain(self, rng):
        a = rng.standard_normal((10, 3))
        with pytest.raises(ValueError, match="eps"):
            contraction_bounds(a, np.array([0]), beta=0.0, eps=1.0)


class TestContractionAudit:
    def _run(self, problem, beta=0.0):
        return run_solver(
            problem,
            MethodParams("madbcd", beta),
            StoppingRule(rse_threshold=1e-12, max_iterations=2000),
            record_history=True,
        )

    def test_identity_system(self):
        problem = make_consistent_problem(DenseMatrix(np.eye(8)), seed=3)
        report = self._run(problem)
        assert contraction_audit(report, problem.A, problem.x_star) == []
        # orthonormal case: alpha_k is exactly |tau_k| / n
        for idx in report.block_history:
            tb = contraction_bounds(problem.A, idx, beta=0.0)
            assert tb.alpha == pytest.approx(len(idx) / 8.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_instances_have_no_violations(self, seed):
        problem = make_consistent_problem(gen_gaussian_dense(40, 10, seed), seed + 77)
        report = self._run(problem)
        assert contraction_audit(report, problem.A, problem.x_star) == []

    def test_negative_control_detects_corruption(self):
        problem = make_consistent_problem(gen_gaussian_dense(40, 10, 5), 6)
        report = self._run(problem)
        k_bad = len(report.block_history) // 2
        report.iterate_history[k_bad + 1] = report.iterate_history[0].copy()
        violations = contraction_audit(report, problem.A, problem.x_star)
        assert any(k == k_bad for k, _, _ in violations)

    def test_requires_recorded_history(self):
        problem = make_consistent_problem(gen_gaussian_dense(20, 5, 1), 2)
        report = run_solver(
            problem, MethodParams("madbcd", 0.0),
            StoppingRule(rse_threshold=1e-8, max_iterations=100),
        )
        with pytest.raises(ValueError, match="record"):
            contraction_audit(report, problem.A, problem.x_star)

    def test_rejects_momentum_runs(self):
        problem = make_consistent_problem(gen_gaussian_dense(20, 5, 1), 2)
        report = self._run(problem, beta=0.1)
        with pytest.raises(ValueError, match="beta=0"):
            contraction_audit(report, problem.A, problem.x_star)


class TestRunBounds:
    def test_one_bounds_object_per_step(self):
        problem = make_consistent_problem(gen_gaussian_dense(30, 6, 4), 5)
        report = run_solver(
            problem, MethodParams("madbcd", 0.05),
            StoppingRule(rse_threshold=1e-8, max_iterations=500),
            record_history=True,
        )
        bounds = run_contraction_bounds(report, problem.A)
        assert len(bounds) == report.iterations
        assert all(0.0 < tb.alpha <= 1.0 + 1e-12 for tb in bounds)
        assert all(tb.gamma2 == bounds[0].gamma2 for tb in bounds)  # fixed beta

    def test_needs_recorded_blocks(self):
        problem = make_consistent_problem(gen_gaussian_dense(20, 5, 1), 2)
        report = run_solver(
            problem, MethodParams("madbcd", 0.0),
            StoppingRule(rse_threshold=1e-6, max_iterations=100),
        )
        with pytest.raises(ValueError, match="record_history"):
            run_contraction_bounds(report, problem.A)
