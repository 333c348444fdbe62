import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockcd import (
    DenseMatrix,
    MethodParams,
    ProblemInstance,
    SolverState,
    SparseMatrixCSC,
    StoppingRule,
    block_rule,
    compute_rse,
    gen_gaussian_dense,
    line_search_update,
    make_consistent_problem,
    reference_lsq_solve,
    run_solver,
    select_block_fbcd,
    select_block_madbcd,
    select_block_mrbgs,
    subsolve_update,
)
from blockcd.solvers import RESIDUAL_REFRESH


def identity_problem(b):
    b = np.asarray(b, dtype=float)
    A = DenseMatrix(np.eye(len(b)))
    return ProblemInstance(A=A, b=b, x_star=b.copy(), consistent=True)


def step(state, A, method, beta=0.0):
    """One step of `method` from `state`, built as run_solver builds it."""
    block = block_rule(MethodParams(method, beta), A)(A.transpose_matvec(state.residual))
    if method == "mrbgs":
        return subsolve_update(state, A, block), block
    return line_search_update(state, A, block, beta)[0], block


class TestSelectMadbcd:
    def test_all_tie_the_threshold(self):
        block = select_block_madbcd(np.array([1.0, 1.0, 1.0, 1.0]))
        assert block.indices.tolist() == [0, 1, 2, 3]

    def test_single_support(self):
        block = select_block_madbcd(np.array([1.0, 0.0, 0.0]))
        assert block.indices.tolist() == [0]
        assert block.values.tolist() == [1.0]

    def test_hand_threshold(self):
        # ||s||^2 = 14, threshold 14/3: only 9 qualifies
        block = select_block_madbcd(np.array([3.0, 2.0, 1.0]))
        assert block.indices.tolist() == [0]
        assert block.values.tolist() == [3.0]

    def test_zero_gradient_is_a_signal(self):
        with pytest.raises(ValueError, match="zero gradient"):
            select_block_madbcd(np.zeros(3))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive_filter(self, seed):
        s = np.random.default_rng(seed).standard_normal(12)
        expected = [j for j in range(12) if s[j] ** 2 >= np.dot(s, s) / 12]
        block = select_block_madbcd(s)
        assert block.indices.tolist() == expected
        assert_allclose(block.values, s[expected])

    def test_values_are_exact_gradient_entries(self, rng):
        s = rng.standard_normal(9)
        block = select_block_madbcd(s)
        assert np.array_equal(block.values, s[block.indices])


def test_selectors_are_deterministic(rng):
    # nothing in the selection rules is randomized: same s, same block
    s = rng.standard_normal(15)
    col_norms = np.abs(rng.standard_normal(15)) + 0.5
    frob = float(np.linalg.norm(col_norms))
    for _ in range(3):
        assert np.array_equal(
            select_block_madbcd(s).indices, select_block_madbcd(s).indices
        )
        assert np.array_equal(
            select_block_fbcd(s, col_norms, frob)[1].indices,
            select_block_fbcd(s, col_norms, frob)[1].indices,
        )
        assert np.array_equal(
            select_block_mrbgs(s, 0.3).indices, select_block_mrbgs(s, 0.3).indices
        )


class TestSelectFbcd:
    def test_single_support_identity(self):
        delta, block = select_block_fbcd(
            np.array([1.0, 0.0]), np.ones(2), np.sqrt(2.0)
        )
        assert delta == pytest.approx(0.75)
        assert block.indices.tolist() == [0]

    def test_symmetric_case(self):
        delta, block = select_block_fbcd(
            np.array([1.0, 1.0]), np.ones(2), np.sqrt(2.0)
        )
        assert delta == pytest.approx(0.5)
        assert block.indices.tolist() == [0, 1]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive_filter(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((10, 4))
        a /= np.linalg.norm(a, axis=0)  # unit columns
        s = rng.standard_normal(4)
        col_norms = np.linalg.norm(a, axis=0)
        frob = np.linalg.norm(a)
        delta, block = select_block_fbcd(s, col_norms, frob)
        s_sq = np.dot(s, s)
        expected = [
            j
            for j in range(4)
            if s[j] ** 2 >= delta * s_sq * col_norms[j] ** 2
        ]
        assert block.indices.tolist() == expected
        assert len(expected) >= 1


class TestSelectMrbgs:
    def test_hand_cutoff(self):
        block = select_block_mrbgs(np.array([3.0, 2.0, 1.0]), 0.3)
        assert block.indices.tolist() == [0, 1]  # cutoff 2.7 admits 9 and 4

    def test_fraction_one_keeps_argmax_ties(self):
        block = select_block_mrbgs(np.array([2.0, -2.0, 1.0]), 1.0)
        assert block.indices.tolist() == [0, 1]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive_filter(self, seed):
        s = np.random.default_rng(seed).standard_normal(12)
        block = select_block_mrbgs(s, 0.3)
        cutoff = 0.3 * np.max(s * s)
        expected = [j for j in range(12) if s[j] ** 2 >= cutoff]
        assert block.indices.tolist() == expected

    def test_fraction_domain(self):
        with pytest.raises(ValueError, match="fraction"):
            select_block_mrbgs(np.ones(3), 0.0)


class TestMadbcdStep:
    def test_two_step_identity_trace(self):
        problem = identity_problem([1.0, 2.0])
        state = SolverState.initial(problem.A, problem.b)
        # s = (1, 2), threshold 2.5 -> block {1}, step length 1
        state, block = step(state, problem.A, "madbcd")
        assert block.indices.tolist() == [1]
        assert_allclose(state.x_curr, [0.0, 2.0])
        assert_allclose(state.residual, [1.0, 0.0])
        # s = (1, 0) -> block {0}, lands on the solution
        state, block = step(state, problem.A, "madbcd")
        assert block.indices.tolist() == [0]
        assert_allclose(state.x_curr, [1.0, 2.0])
        assert_allclose(
            state.x_curr, reference_lsq_solve(problem.A, problem.b), atol=1e-15
        )

    def test_momentum_arithmetic(self):
        A = DenseMatrix(np.eye(2))
        state = SolverState(
            x_curr=np.array([0.0, 2.0]),
            x_prev=np.array([0.0, 0.0]),
            residual=np.array([1.0, 0.0]),
            diff_image=np.array([0.0, 2.0]),
            k=1,
        )
        state, block = step(state, A, "madbcd", beta=0.5)
        assert block.indices.tolist() == [0]
        assert_allclose(state.x_curr, [1.0, 3.0])

    def test_fixed_point_stops_driver(self):
        problem = identity_problem([1.0, 2.0])
        report = run_solver(
            problem,
            MethodParams("madbcd", 0.0),
            StoppingRule(rse_threshold=None, max_iterations=50, grad_threshold=1e-12),
            x0=problem.x_star,
        )
        assert report.iterations == 0
        assert report.converged
        assert_allclose(report.x_final, problem.x_star)


class TestFbcdStep:
    def test_orthonormal_one_step(self):
        problem = identity_problem([1.0, 0.0])
        state = SolverState.initial(problem.A, problem.b)
        state, _ = step(state, problem.A, "fbcd")
        assert_allclose(state.x_curr, [1.0, 0.0])

    def test_energy_decrease_against_reference(self, rng):
        a = rng.standard_normal((6, 3))
        x_star = rng.standard_normal(3)
        problem = ProblemInstance(
            A=DenseMatrix(a), b=a @ x_star, x_star=x_star, consistent=True
        )
        x_ref = reference_lsq_solve(a, problem.b)
        state = SolverState.initial(problem.A, problem.b)
        before = np.linalg.norm(a @ (state.x_curr - x_ref))
        state, _ = step(state, problem.A, "fbcd")
        after = np.linalg.norm(a @ (state.x_curr - x_ref))
        assert after < before


class TestCdStep:
    def test_identity_single_coordinate(self):
        problem = identity_problem([1.0, 2.0])
        state = SolverState.initial(problem.A, problem.b)
        state, block = step(state, problem.A, "cd")
        assert block.indices.tolist() == [1]
        assert_allclose(state.x_curr, [0.0, 2.0])

    def test_rank_one_averaging(self):
        A = DenseMatrix([[1.0], [1.0]])
        state = SolverState.initial(A, np.array([0.0, 2.0]))
        state, _ = step(state, A, "cd")
        assert_allclose(state.x_curr, [1.0])

    def test_matches_madbcd_on_singleton_blocks(self):
        # s = (10, 1, 1): threshold 34 admits only the first coordinate
        a = np.vstack([np.eye(3), np.zeros((1, 3))])
        A = DenseMatrix(a)
        b = np.array([10.0, 1.0, 1.0, 0.0])
        s0 = A.transpose_matvec(b)
        block = select_block_madbcd(s0)
        assert len(block) == 1

        st_cd, cd_block = step(SolverState.initial(A, b), A, "cd")
        assert cd_block.indices.tolist() == block.indices.tolist()
        st_mb, _ = step(SolverState.initial(A, b), A, "madbcd")
        assert_allclose(st_cd.x_curr, st_mb.x_curr, rtol=1e-15, atol=0)
        assert_allclose(st_cd.residual, st_mb.residual, rtol=1e-15, atol=0)


class TestMrbgsStep:
    def test_singleton_block_for_uneven_gradient(self):
        # s = (1, 2): cutoff 0.3 * 4 = 1.2 excludes the first coordinate
        problem = identity_problem([1.0, 2.0])
        state = SolverState.initial(problem.A, problem.b)
        state, block = step(state, problem.A, "mrbgs")
        assert block.indices.tolist() == [1]
        assert_allclose(state.x_curr, [0.0, 2.0])

    def test_orthonormal_one_step(self):
        problem = identity_problem([1.0, 1.0])
        state = SolverState.initial(problem.A, problem.b)
        state, block = step(state, problem.A, "mrbgs")
        assert block.indices.tolist() == [0, 1]
        assert_allclose(state.x_curr, [1.0, 1.0])

    def test_singleton_equals_cd(self):
        problem = identity_problem([1.0, 2.0])
        st_m, block = step(SolverState.initial(problem.A, problem.b), problem.A, "mrbgs")
        st_c, cd_block = step(SolverState.initial(problem.A, problem.b), problem.A, "cd")
        assert cd_block.indices.tolist() == block.indices.tolist()
        assert_allclose(st_m.x_curr, st_c.x_curr, rtol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_subsolve_orthogonality(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((12, 5))
        A = DenseMatrix(a)
        b = rng.standard_normal(12)
        state = SolverState.initial(A, b)
        r_before = np.linalg.norm(state.residual)
        state, block = step(state, A, "mrbgs")
        a_tau = a[:, block.indices]
        bound = 1e-10 * np.linalg.norm(a_tau) * r_before
        assert np.linalg.norm(a_tau.T @ state.residual) <= bound


class TestComputeRse:
    def test_exact(self):
        assert compute_rse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_zero_iterate(self):
        assert compute_rse(np.zeros(2), np.array([1.0, 2.0])) == 1.0

    def test_direct_arithmetic(self):
        assert compute_rse(np.array([1.0, 3.0]), np.array([1.0, 2.0])) == pytest.approx(0.2)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            compute_rse(np.ones(2), np.zeros(2))


class TestParamsValidation:
    def test_method_names(self):
        with pytest.raises(ValueError, match="unknown method"):
            MethodParams("newton")

    def test_beta_range(self):
        with pytest.raises(ValueError, match="momentum weight"):
            MethodParams("madbcd", beta=0.95)
        with pytest.raises(ValueError, match="momentum weight"):
            MethodParams("madbcd", beta=-0.1)

    def test_beta_zero_for_non_momentum_methods(self):
        with pytest.raises(ValueError, match="does not take"):
            MethodParams("fbcd", beta=0.2)

    def test_stopping_needs_a_limit(self):
        with pytest.raises(ValueError, match="stopping limit"):
            StoppingRule(rse_threshold=None)
        StoppingRule(rse_threshold=None, max_iterations=10)


class TestRunSolver:
    @pytest.mark.parametrize("method", ["cd", "fbcd", "mrbgs", "madbcd"])
    def test_identity_converges_within_n(self, method):
        problem = make_consistent_problem(DenseMatrix(np.eye(100)), seed=5)
        report = run_solver(
            problem,
            MethodParams(method),
            StoppingRule(rse_threshold=1e-28, max_iterations=101),
        )
        assert report.converged
        assert report.iterations <= 100

    def test_madbcd_beats_fbcd_on_gaussian(self):
        problem = make_consistent_problem(gen_gaussian_dense(500, 50, 3), 4)
        stop = StoppingRule(rse_threshold=1e-6, max_iterations=10000)
        it_m = run_solver(problem, MethodParams("madbcd", 0.1), stop).iterations
        it_f = run_solver(problem, MethodParams("fbcd"), stop).iterations
        assert it_m < it_f

    def test_records_shape_and_counters(self):
        problem = make_consistent_problem(gen_gaussian_dense(60, 12, 0), 1)
        report = run_solver(
            problem,
            MethodParams("madbcd", 0.1),
            StoppingRule(rse_threshold=1e-8, max_iterations=5000),
        )
        ks = [rec.k for rec in report.records]
        assert ks == list(range(report.iterations + 1))
        assert all(rec.block_size >= 1 for rec in report.records[:-1])
        assert report.records[-1].block_size == 0
        assert report.records[0].rse == pytest.approx(1.0)  # x0 = 0
        assert report.stop_reason == "converged: rse threshold"

    def test_block_lower_bound_identity_on_every_iteration(self):
        problem = make_consistent_problem(gen_gaussian_dense(80, 16, 7), 8)
        report = run_solver(
            problem,
            MethodParams("madbcd", 0.2),
            StoppingRule(rse_threshold=1e-10, max_iterations=5000),
        )
        n = problem.A.cols
        for rec in report.records[:-1]:
            bound = rec.block_size * rec.s_norm_sq / n
            assert rec.eta_dot_s >= bound * (1 - 1e-12)

    def test_monotone_energy_decrease_without_momentum(self):
        problem = make_consistent_problem(gen_gaussian_dense(50, 10, 2), 3)
        report = run_solver(
            problem,
            MethodParams("madbcd", 0.0),
            StoppingRule(rse_threshold=1e-12, max_iterations=5000),
            record_iterates=True,
        )
        a = problem.A.to_dense()
        energies = [
            np.linalg.norm(a @ (x - problem.x_star)) for x in report.iterate_history
        ]
        assert all(e1 > e2 for e1, e2 in zip(energies, energies[1:]))

    def test_incremental_residual_fidelity(self):
        # correlated columns slow convergence enough to cross the refresh point
        rng = np.random.default_rng(0)
        base = rng.standard_normal((120, 1))
        a = base + 0.05 * rng.standard_normal((120, 30))
        problem = make_consistent_problem(DenseMatrix(a), seed=1)
        report = run_solver(
            problem,
            MethodParams("madbcd", 0.0),
            StoppingRule(rse_threshold=1e-12, max_iterations=3 * RESIDUAL_REFRESH + 1),
        )
        assert len(report.residual_drift) >= 1
        b_norm = np.linalg.norm(problem.b)
        for k, drift in report.residual_drift:
            assert k % RESIDUAL_REFRESH == 0
            assert drift <= 1e-8 * b_norm

    def test_max_iterations_is_a_reported_outcome(self):
        problem = make_consistent_problem(gen_gaussian_dense(40, 10, 1), 2)
        report = run_solver(
            problem,
            MethodParams("cd"),
            StoppingRule(rse_threshold=1e-14, max_iterations=3),
        )
        assert not report.converged
        assert report.stop_reason == "max iterations exceeded"
        assert report.iterations == 3

    def test_non_finite_iterates_stop_the_run(self):
        # an overflowing start must terminate even under rse-only stopping
        problem = make_consistent_problem(gen_gaussian_dense(30, 6, 1), 2)
        report = run_solver(
            problem,
            MethodParams("madbcd", 0.0),
            StoppingRule(rse_threshold=1e-6),
            x0=np.full(6, 1e200),
        )
        assert not report.converged
        assert report.stop_reason.startswith("diverged")

    def test_time_budget_fires(self):
        problem = make_consistent_problem(gen_gaussian_dense(2000, 200, 1), 2)
        report = run_solver(
            problem,
            MethodParams("cd"),
            StoppingRule(rse_threshold=None, time_budget_s=0.02),
        )
        assert report.stop_reason == "time budget exhausted"
        assert not report.converged

    def test_gradient_fallback_without_ground_truth(self):
        problem = make_consistent_problem(gen_gaussian_dense(60, 12, 3), 4)
        blind = ProblemInstance(A=problem.A, b=problem.b, label="blind")
        report = run_solver(
            blind,
            MethodParams("madbcd", 0.1),
            StoppingRule(rse_threshold=1e-8, max_iterations=10000),
        )
        assert report.converged
        assert "fallback" in report.stop_reason
        assert report.records[-1].rse is None

    def test_deterministic_reruns(self):
        problem = make_consistent_problem(gen_gaussian_dense(70, 14, 9), 10)
        stop = StoppingRule(rse_threshold=1e-9, max_iterations=5000)
        r1 = run_solver(problem, MethodParams("madbcd", 0.3), stop, record_blocks=True)
        r2 = run_solver(problem, MethodParams("madbcd", 0.3), stop, record_blocks=True)
        assert r1.iterations == r2.iterations
        assert [rec.rse for rec in r1.records] == [rec.rse for rec in r2.records]
        assert all(
            np.array_equal(b1, b2)
            for b1, b2 in zip(r1.block_history, r2.block_history)
        )
        assert np.array_equal(r1.x_final, r2.x_final)

    def test_concurrent_runs_share_one_matrix(self):
        # matrices are immutable: parallel runs against one instance must
        # reproduce the serial results exactly
        from concurrent.futures import ThreadPoolExecutor

        problem = make_consistent_problem(gen_gaussian_dense(200, 30, 6), 7)
        stop = StoppingRule(rse_threshold=1e-10, max_iterations=5000)
        params = [MethodParams("madbcd", b) for b in (0.0, 0.1, 0.2, 0.3)]
        serial = [run_solver(problem, p, stop) for p in params]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda p: run_solver(problem, p, stop), params))
        for rs, rt in zip(serial, threaded):
            assert rs.iterations == rt.iterations
            assert np.array_equal(rs.x_final, rt.x_final)

    def test_sparse_and_dense_runs_agree(self):
        a, _, _ = np.random.default_rng(3).standard_normal((40, 8)), None, None
        dense = make_consistent_problem(DenseMatrix(a), seed=4)
        sparse = ProblemInstance(
            A=SparseMatrixCSC.from_dense(a),
            b=dense.b,
            x_star=dense.x_star,
            consistent=True,
        )
        stop = StoppingRule(rse_threshold=1e-10, max_iterations=1000)
        rd = run_solver(dense, MethodParams("madbcd", 0.1), stop)
        rs = run_solver(sparse, MethodParams("madbcd", 0.1), stop)
        assert rd.iterations == rs.iterations
        assert_allclose(rd.x_final, rs.x_final, rtol=1e-9)
