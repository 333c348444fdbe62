import math
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockcd import (
    ConvergenceReport,
    DenseMatrix,
    IterationRecord,
    MethodParams,
    ProblemInstance,
    RankDeficiencyError,
    SolverState,
    SparseMatrixCSC,
    StoppingRule,
    block_rule,
    compute_rse,
    cs_prepare,
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
from blockcd import oracle, solvers
from blockcd.solvers import METHODS, RESIDUAL_REFRESH, householder_lstsq


def identity_problem(b):
    b = np.asarray(b, dtype=float)
    A = DenseMatrix(np.eye(len(b)))
    return ProblemInstance(A=A, b=b, x_star=b.copy())


def blind_problem():
    """300x40 Gaussian with a random b and no x_star: stops on the gradient fallback."""
    b = np.random.default_rng(12).standard_normal(300)
    return ProblemInstance(A=gen_gaussian_dense(300, 40, 11), b=b)


def step(state, A, method, beta=0.0):
    """One step of `method` from `state`, built as run_solver builds it."""
    block = block_rule(MethodParams(method, beta), A)(state.grad)
    if method == "mrbgs":
        return subsolve_update(state, block), block
    return line_search_update(state, block, beta)[0], block


class TestSelectMadbcd:
    def test_all_tie_the_threshold(self):
        block = select_block_madbcd(np.array([1.0, 1.0, 1.0, 1.0]))
        assert block.tolist() == [0, 1, 2, 3]

    def test_single_support(self):
        s = np.array([1.0, 0.0, 0.0])
        block = select_block_madbcd(s)
        assert block.tolist() == [0]
        assert s[block].tolist() == [1.0]

    def test_hand_threshold(self):
        # ||s||^2 = 14, threshold 14/3: only 9 qualifies
        s = np.array([3.0, 2.0, 1.0])
        block = select_block_madbcd(s)
        assert block.tolist() == [0]
        assert s[block].tolist() == [3.0]

    def test_zero_gradient_is_a_signal(self):
        with pytest.raises(ValueError, match="zero gradient"):
            select_block_madbcd(np.zeros(3))

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive_filter(self, seed):
        s = np.random.default_rng(seed).standard_normal(12)
        expected = [j for j in range(12) if s[j] ** 2 >= np.dot(s, s) / 12]
        block = select_block_madbcd(s)
        assert block.tolist() == expected
        assert_allclose(s[block], s[expected])

    def test_values_are_exact_gradient_entries(self, rng):
        # the step moves x only on the block, by c times the gradient entries there
        a = rng.standard_normal((20, 9))
        A = DenseMatrix(a)
        state = SolverState.initial(A, rng.standard_normal(20))
        s = A.transpose_matvec(state.residual)
        block = select_block_madbcd(s)
        nxt, eta_dot_s = line_search_update(state, block)
        step_ = nxt.x_curr - state.x_curr
        off_block = np.setdiff1d(np.arange(9), block)
        assert np.all(step_[off_block] == 0.0)
        assert np.all(step_[block] != 0.0)
        c = eta_dot_s / np.dot(a[:, block] @ s[block], a[:, block] @ s[block])
        assert_allclose(step_[block], c * s[block], rtol=1e-14)


def test_selectors_are_deterministic(rng):
    # nothing in the selection rules is randomized: same s, same block
    s = rng.standard_normal(15)
    col_norms = np.abs(rng.standard_normal(15)) + 0.5
    frob = float(np.linalg.norm(col_norms))
    for _ in range(3):
        assert np.array_equal(
            select_block_madbcd(s), select_block_madbcd(s)
        )
        assert np.array_equal(
            select_block_fbcd(s, col_norms, frob)[1],
            select_block_fbcd(s, col_norms, frob)[1],
        )
        assert np.array_equal(
            select_block_mrbgs(s), select_block_mrbgs(s)
        )


def test_blocks_are_int64_index_arrays(rng):
    s = rng.standard_normal(15)
    a = rng.standard_normal((40, 15))
    A = DenseMatrix(a)
    col_norms = np.linalg.norm(a, axis=0)
    every_method = [
        MethodParams(method, d_factor=2 if method == "cs-madbcd" else None)
        for method in METHODS
    ]
    blocks = [
        select_block_madbcd(s),
        select_block_fbcd(s, col_norms, float(np.linalg.norm(a)))[1],
        select_block_mrbgs(s),
        *(block_rule(params, A)(s) for params in every_method),
    ]
    problem = make_consistent_problem(A, seed=4)
    for params in every_method:
        report = run_solver(
            problem, params, StoppingRule(max_iterations=10),
            record_history=True, sketch_seed=5,
        )
        assert len(report.block_history) == report.iterations
        blocks += report.block_history
    for block in blocks:
        assert isinstance(block, np.ndarray)
        assert block.dtype == np.int64 and block.ndim == 1 and block.size >= 1


class TestSelectFbcd:
    def test_single_support_identity(self):
        delta, block = select_block_fbcd(
            np.array([1.0, 0.0]), np.ones(2), np.sqrt(2.0)
        )
        assert delta == pytest.approx(0.75)
        assert block.tolist() == [0]

    def test_symmetric_case(self):
        delta, block = select_block_fbcd(
            np.array([1.0, 1.0]), np.ones(2), np.sqrt(2.0)
        )
        assert delta == pytest.approx(0.5)
        assert block.tolist() == [0, 1]

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
        assert block.tolist() == expected
        assert len(expected) >= 1

    def test_zero_gradient_is_a_signal(self):
        with pytest.raises(ValueError, match="zero gradient"):
            select_block_fbcd(np.zeros(3), np.ones(3), np.sqrt(3.0))


class TestSelectMrbgs:
    def test_hand_cutoff(self):
        block = select_block_mrbgs(np.array([3.0, 2.0, 1.0]))
        assert block.tolist() == [0, 1]  # cutoff 2.7 admits 9 and 4

    def test_fraction_one_keeps_argmax_ties(self):
        block = select_block_mrbgs(np.array([2.0, -2.0, 1.0]))
        assert block.tolist() == [0, 1]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_exhaustive_filter(self, seed):
        s = np.random.default_rng(seed).standard_normal(12)
        block = select_block_mrbgs(s)
        cutoff = 0.3 * np.max(s * s)
        expected = [j for j in range(12) if s[j] ** 2 >= cutoff]
        assert block.tolist() == expected

    def test_zero_gradient_is_a_signal(self):
        with pytest.raises(ValueError, match="zero gradient"):
            select_block_mrbgs(np.zeros(3))


def test_every_method_moves_by_the_shared_transition():
    problem = make_consistent_problem(gen_gaussian_dense(60, 12, 7), 8)
    for method in METHODS:
        momentum = method in ("madbcd", "cs-madbcd")
        params = MethodParams(
            method, 0.3 if momentum else 0.0, d_factor=2 if method == "cs-madbcd" else None
        )
        A, b = problem.A, problem.b
        if params.d_factor is not None:
            sketched, _ = cs_prepare(problem, params.sketch_rows(A.cols), seed=5)
            A, b = sketched.A, sketched.b
        select = block_rule(params, A)
        state = SolverState.initial(A, b)
        a = A.to_dense()
        iterates = [state.x_curr]
        for _ in range(6):
            s = state.grad
            block = select(s)
            if method == "mrbgs":
                nxt = subsolve_update(state, block)
            else:
                nxt = line_search_update(state, block, params.beta)[0]
            assert np.array_equal(nxt.x_prev, state.x_curr), method
            assert np.array_equal(nxt.grad, state.grad - nxt.grad_step), method
            image = a.T @ (a @ (nxt.x_curr - nxt.x_prev))
            err = np.linalg.norm(nxt.grad_step - image)
            assert err <= 1e-12 * np.linalg.norm(image), method
            state = nxt
            iterates.append(state.x_curr)
        # the loop above steps exactly as run_solver does
        report = run_solver(
            problem, params, StoppingRule(max_iterations=6), record_history=True,
            sketch_seed=5,
        )
        assert report.iterations == 6
        for got, want in zip(report.iterate_history, iterates, strict=True):
            assert np.array_equal(got, want), method


class TestMadbcdStep:
    def test_two_step_identity_trace(self):
        problem = identity_problem([1.0, 2.0])
        state = SolverState.initial(problem.A, problem.b)
        # s = (1, 2), threshold 2.5 -> block {1}, step length 1
        state, block = step(state, problem.A, "madbcd")
        assert block.tolist() == [1]
        assert_allclose(state.x_curr, [0.0, 2.0])
        assert_allclose(state.residual, [1.0, 0.0])
        # s = (1, 0) -> block {0}, lands on the solution
        state, block = step(state, problem.A, "madbcd")
        assert block.tolist() == [0]
        assert_allclose(state.x_curr, [1.0, 2.0])
        assert_allclose(
            state.x_curr, reference_lsq_solve(problem.A, problem.b), atol=1e-15
        )

    def test_momentum_arithmetic(self):
        A = DenseMatrix(np.eye(2))
        # x_curr - x_prev = (0, 2), r = b - x_curr = (1, 0)
        state = SolverState(
            x_curr=np.array([0.0, 2.0]),
            x_prev=np.array([0.0, 0.0]),
            grad=np.array([1.0, 0.0]),
            grad_step=np.array([0.0, 2.0]),
            kernel=A.normal_kernel(),
            b=np.array([1.0, 2.0]),
            k=1,
        )
        state, block = step(state, A, "madbcd", beta=0.5)
        assert block.tolist() == [0]
        assert_allclose(state.x_curr, [1.0, 3.0])
        assert_allclose(state.grad_step, [1.0, 1.0])
        assert_allclose(state.grad, [0.0, -1.0])
        assert_allclose(state.grad, A.transpose_matvec(state.residual))

    def test_beta_zero_ignores_momentum_state(self, rng):
        # beta = 0 takes the general formula, which must leave no trace of a
        # nonzero x_curr - x_prev or u in the result, bit for bit
        a = rng.standard_normal((15, 6))
        A = DenseMatrix(a)
        x_curr, x_prev = rng.standard_normal(6), rng.standard_normal(6)
        b = rng.standard_normal(15)
        kernel = A.normal_kernel()
        state = SolverState(
            x_curr=x_curr,
            x_prev=x_prev,
            grad=a.T @ (b - a @ x_curr),
            grad_step=a.T @ (a @ (x_curr - x_prev)),
            kernel=kernel,
            b=b,
            k=3,
        )
        s = state.grad
        block = select_block_madbcd(s)
        nxt, eta_dot_s = line_search_update(state, block)
        g, denom = kernel.step(block, s[block])
        c = eta_dot_s / denom
        expected = x_curr.copy()
        expected[block] += c * s[block]
        assert np.array_equal(nxt.x_curr, expected)
        assert np.array_equal(nxt.grad_step, c * g)
        assert np.array_equal(nxt.grad, s - c * g)
        assert np.array_equal(nxt.x_prev, x_curr)

    @pytest.mark.parametrize("storage", [DenseMatrix, SparseMatrixCSC.from_dense])
    def test_underflowing_step_is_named_as_underflow(self, storage):
        # one nonzero column: ||A_tau eta||^2 = 1e-600 underflows to zero
        A = storage(np.array([[1e-150], [0.0]]))
        state = SolverState.initial(A, np.array([1.0, 0.0]))
        with pytest.raises(RankDeficiencyError, match="underflowed .* rescale the problem"):
            step(state, A, "madbcd")

    def test_fixed_point_stops_driver(self):
        # b = 0 makes the start x = 0 a solution: s = A^T b is exactly zero
        problem = ProblemInstance(A=DenseMatrix(np.eye(2)), b=np.zeros(2))
        report = run_solver(
            problem,
            MethodParams("madbcd", 0.0),
            StoppingRule(rse_threshold=None, max_iterations=50),
        )
        assert report.iterations == 0
        assert report.converged
        assert np.array_equal(report.x_final, np.zeros(2))


class TestFbcdStep:
    def test_orthonormal_one_step(self):
        problem = identity_problem([1.0, 0.0])
        state = SolverState.initial(problem.A, problem.b)
        state, _ = step(state, problem.A, "fbcd")
        assert_allclose(state.x_curr, [1.0, 0.0])

    def test_energy_decrease_against_reference(self, rng):
        a = rng.standard_normal((6, 3))
        x_star = rng.standard_normal(3)
        problem = ProblemInstance(A=DenseMatrix(a), b=a @ x_star, x_star=x_star)
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
        assert block.tolist() == [1]
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
        assert cd_block.tolist() == block.tolist()
        st_mb, _ = step(SolverState.initial(A, b), A, "madbcd")
        assert_allclose(st_cd.x_curr, st_mb.x_curr, rtol=1e-15, atol=0)
        assert_allclose(st_cd.residual, st_mb.residual, rtol=1e-15, atol=0)


class TestMrbgsStep:
    def test_singleton_block_for_uneven_gradient(self):
        # s = (1, 2): cutoff 0.3 * 4 = 1.2 excludes the first coordinate
        problem = identity_problem([1.0, 2.0])
        state = SolverState.initial(problem.A, problem.b)
        state, block = step(state, problem.A, "mrbgs")
        assert block.tolist() == [1]
        assert_allclose(state.x_curr, [0.0, 2.0])

    def test_orthonormal_one_step(self):
        problem = identity_problem([1.0, 1.0])
        state = SolverState.initial(problem.A, problem.b)
        state, block = step(state, problem.A, "mrbgs")
        assert block.tolist() == [0, 1]
        assert_allclose(state.x_curr, [1.0, 1.0])

    def test_singleton_equals_cd(self):
        problem = identity_problem([1.0, 2.0])
        st_m, block = step(SolverState.initial(problem.A, problem.b), problem.A, "mrbgs")
        st_c, cd_block = step(SolverState.initial(problem.A, problem.b), problem.A, "cd")
        assert cd_block.tolist() == block.tolist()
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
        a_tau = a[:, block]
        bound = 1e-10 * np.linalg.norm(a_tau) * r_before
        assert np.linalg.norm(a_tau.T @ state.residual) <= bound


class TestSubsolveQr:
    """The solver-path LAPACK QR against the oracle's hand-rolled one."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("m, k", [(40, 1), (40, 5), (7, 7)])
    def test_agrees_with_oracle(self, rng, order, m, k):
        a = np.asarray(rng.standard_normal((m, k)), order=order)
        b = rng.standard_normal(m)
        want = oracle.householder_lstsq(a, b)
        assert_allclose(householder_lstsq(a, b), want, rtol=0, atol=1e-10 * np.linalg.norm(want))

    @pytest.mark.parametrize("defect", ["duplicate", "zero"])
    def test_rank_deficiency_at_the_oracles_position(self, rng, defect):
        a = rng.standard_normal((20, 6))
        a[:, 4] = a[:, 1] if defect == "duplicate" else 0.0
        b = rng.standard_normal(20)
        with pytest.raises(RankDeficiencyError) as want:
            oracle.householder_lstsq(a, b)
        with pytest.raises(RankDeficiencyError) as got:
            householder_lstsq(a, b)
        assert got.value.column == want.value.column == 4

    def test_subsolve_names_the_global_column(self, rng):
        a = rng.standard_normal((30, 8))
        a[:, 5] = a[:, 2]
        A = DenseMatrix(a)
        state = SolverState.initial(A, rng.standard_normal(30))
        with pytest.raises(RankDeficiencyError) as exc:
            subsolve_update(state, np.array([0, 2, 5, 7], dtype=np.int64))
        assert exc.value.column == 5

    def test_solver_does_not_use_the_oracle(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("the mrbgs subsolve called the oracle")

        assert householder_lstsq is not oracle.householder_lstsq
        monkeypatch.setattr(oracle, "householder_lstsq", refuse)
        problem = make_consistent_problem(gen_gaussian_dense(200, 20, 3), 4)
        report = run_solver(
            problem, MethodParams("mrbgs"), StoppingRule(rse_threshold=1e-12, max_iterations=1000)
        )
        assert report.converged


@pytest.fixture
def qr_calls(monkeypatch):
    """Counts the subsolve's calls to the QR fallback, solving as before."""
    calls = []

    def counted(a, b):
        calls.append(a.shape[1])
        return householder_lstsq(a, b)

    monkeypatch.setattr(solvers, "householder_lstsq", counted)
    return calls


class TestSubsolveCsne:
    """The corrected semi-normal equations on G_tau, and their QR fallback."""

    @pytest.mark.parametrize("storage", ["dense", "csc"])
    @pytest.mark.parametrize("top", [0, 6])
    def test_agrees_with_oracle(self, rng, qr_calls, storage, top):
        scales = np.logspace(0, top, 12)
        a = rng.standard_normal((80, 12))
        if storage == "csc":
            a *= rng.random(a.shape) < 0.4
        a *= scales
        b = rng.standard_normal(80)
        A = DenseMatrix(a) if storage == "dense" else SparseMatrixCSC.from_dense(a)
        # the last block spans the whole 1e6 and may fall back to the QR
        for block in ([0, 3, 5, 7], [2, 9], [0, 4, 8, 11]):
            block = np.array(block)
            d = subsolve_update(SolverState.initial(A, b), block).x_curr[block]
            want = oracle.householder_lstsq(a[:, block], b)
            # compared on the equilibrated columns, where both solves are accurate
            err = np.linalg.norm((d - want) * scales[block])
            assert err <= 1e-12 * np.linalg.norm(want * scales[block]), block
            if block[-1] != 11:
                assert qr_calls == [], block

    @pytest.mark.parametrize("storage", ["dense", "csc"])
    def test_correction_step_keeps_qr_accuracy(self, rng, qr_calls, storage):
        # column 3 lies within 1e-4 of column 0: cond(A_tau) is about 2e4, so the
        # uncorrected solve of G_tau would err by about cond^2 u, near 1e-8
        a = rng.standard_normal((80, 6))
        if storage == "csc":
            a *= rng.random(a.shape) < 0.4
        a[:, 3] = a[:, 0] + 1e-4 * rng.standard_normal(80)
        block = np.array([0, 1, 2, 3])
        x = rng.standard_normal(4)
        b = a[:, block] @ x
        A = DenseMatrix(a) if storage == "dense" else SparseMatrixCSC.from_dense(a)
        d = subsolve_update(SolverState.initial(A, b), block).x_curr[block]
        assert qr_calls == []
        want = oracle.householder_lstsq(a[:, block], b)
        assert np.linalg.norm(d - want) <= 1e-11 * np.linalg.norm(want)
        assert np.linalg.norm(d - x) <= 1e-11 * np.linalg.norm(x)

    def test_gaussian_run_makes_no_qr_call(self, qr_calls):
        problem = make_consistent_problem(gen_gaussian_dense(200, 20, 3), 4)
        report = run_solver(
            problem, MethodParams("mrbgs"), StoppingRule(rse_threshold=1e-12, max_iterations=1000)
        )
        assert report.converged and report.iterations > 5
        assert qr_calls == []

    def test_block_below_the_pivot_ratio_falls_back_to_the_qr(self, rng, qr_calls):
        a = rng.standard_normal((30, 3))
        a[:, 2] = a[:, 0] + 1e-7 * rng.standard_normal(30)
        b = rng.standard_normal(30)
        assert solvers.csne_lstsq(a, a.T @ a, b) is None
        state = SolverState.initial(DenseMatrix(a), b)
        d = subsolve_update(state, np.arange(3)).x_curr
        assert qr_calls == [3]
        want = oracle.householder_lstsq(a, b)
        assert_allclose(d, want, rtol=1e-6)

    @pytest.mark.parametrize("top, steps", [(3, 276), (6, 1484), (9, 4496)])
    def test_pinned_counts_on_scaled_columns(self, qr_calls, top, steps):
        # the counts of the QR-only subsolve, which CSNE keeps; under the wider
        # scalings some blocks' Cholesky pivots spread past CSNE_PIVOT_RATIO
        rng = np.random.default_rng(0)
        a = rng.standard_normal((200, 20)) * np.logspace(0, top, 20)
        b = rng.standard_normal(200)
        report = run_solver(
            ProblemInstance(A=DenseMatrix(a), b=b),
            MethodParams("mrbgs"),
            StoppingRule(rse_threshold=1e-10),
        )
        assert report.stop_reason == "converged: gradient fallback threshold"
        assert report.iterations == steps
        assert (len(qr_calls) > 0) == (top > 3)


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

    @pytest.mark.parametrize("value", [0, -3])
    def test_max_iterations_below_one_refused(self, value):
        with pytest.raises(ValueError, match="max_iterations must be >= 1"):
            StoppingRule(max_iterations=value)

    @pytest.mark.parametrize(
        "beta, label",
        [(0.0, "madbcd_b0"), (0.35, "madbcd_b0.35"), (1e-5, "madbcd_b0.00001"),
         (0.1234561, "madbcd_b0.1234561")],
    )
    def test_label_writes_beta_in_shortest_round_trip_form(self, beta, label):
        assert MethodParams("madbcd", beta).label() == label

    def test_stopping_needs_a_limit(self):
        # every rule is capped: the cap has a default and cannot be None
        assert StoppingRule().max_iterations == 100000
        assert StoppingRule(rse_threshold=None).max_iterations == 100000
        with pytest.raises(ValueError, match="stopping key 'max_iterations' must be int, got None"):
            StoppingRule(max_iterations=None)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("field", ["rse_threshold", "time_budget_s"])
    def test_non_finite_limit_refused(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite and positive"):
            StoppingRule(max_iterations=10, **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("max_iterations", 2.5), ("max_iterations", True), ("rse_threshold", True), ("time_budget_s", True)],
    )
    def test_limit_of_a_type_a_config_refuses_is_refused(self, field, value):
        with pytest.raises(ValueError, match=f"stopping key '{field}' must be"):
            StoppingRule(**{"max_iterations": 10, field: value})


class TestConvergenceReport:
    @staticmethod
    def report(stop_reason, **kwargs):
        return ConvergenceReport(
            method="madbcd",
            beta=0.0,
            records=[IterationRecord(k=0, rse=1.0, normal_residual=1.0, block_size=0, elapsed_s=0.0)],
            x_final=np.zeros(2),
            stop_reason=stop_reason,
            solve_seconds=0.0,
            **kwargs,
        )

    @pytest.mark.parametrize(
        "stop_reason, converged",
        [("converged: rse threshold", True), ("max iterations exceeded", False)],
    )
    def test_converged_derived_from_stop_reason(self, stop_reason, converged):
        assert self.report(stop_reason).converged is converged

    def test_converged_contradicting_stop_reason_refused(self):
        with pytest.raises(ValueError, match="contradicts stop reason 'max iterations exceeded'"):
            self.report("max iterations exceeded", converged=True)


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
        assert report.records[0].rse == pytest.approx(1.0)  # the start is x = 0
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
            bound = rec.block_size * rec.normal_residual**2 / n
            assert rec.eta_dot_s >= bound * (1 - 1e-12)

    def test_monotone_energy_decrease_without_momentum(self):
        problem = make_consistent_problem(gen_gaussian_dense(50, 10, 2), 3)
        report = run_solver(
            problem,
            MethodParams("madbcd", 0.0),
            StoppingRule(rse_threshold=1e-12, max_iterations=5000),
            record_history=True,
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

    @pytest.mark.parametrize("method", ["cd", "fbcd", "madbcd", "cs-madbcd"])
    def test_dense_step_touches_no_m_length_kernel(self, monkeypatch, method):
        # a dense step reads G = A^T A; only refreshes and stop confirmations
        # pass over A (cs-madbcd also checks the unsketched system's consistency)
        problem = make_consistent_problem(gen_gaussian_dense(300, 40, 11), 12)
        calls = dict.fromkeys(("transpose_matvec", "restricted_matvec", "matvec"), 0)
        for name in calls:
            original = getattr(DenseMatrix, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(DenseMatrix, name, counted)
        momentum = method in ("madbcd", "cs-madbcd")
        params = MethodParams(
            method, 0.3 if momentum else 0.0, d_factor=4 if method == "cs-madbcd" else None
        )
        steps = 2 * RESIDUAL_REFRESH + 7
        report = run_solver(
            problem, params, StoppingRule(rse_threshold=None, max_iterations=steps),
            sketch_seed=3,
        )
        assert report.iterations == steps
        bound = 2 * math.ceil(steps / RESIDUAL_REFRESH) + 2
        assert calls["restricted_matvec"] == 0
        assert calls["transpose_matvec"] <= bound and calls["matvec"] <= bound, calls

    def test_blind_run_passes_over_a_once_to_start(self, monkeypatch):
        # the gradient-fallback floor reads ||A^T b|| from the start's s
        calls = []
        original = DenseMatrix.transpose_matvec

        def counted(self, r):
            calls.append(r.shape)
            return original(self, r)

        monkeypatch.setattr(DenseMatrix, "transpose_matvec", counted)
        report = run_solver(
            blind_problem(),
            MethodParams("madbcd", 0.3),
            StoppingRule(rse_threshold=1e-10, max_iterations=1),
        )
        assert report.iterations == 1
        assert len(calls) == 1

    def test_confirming_refresh_logs_its_drift(self):
        # a gradient-fallback stop is confirmed on a fresh A^T r, whose drift is logged
        report = run_solver(
            blind_problem(),
            MethodParams("madbcd", 0.3),
            StoppingRule(rse_threshold=1e-10, max_iterations=5000),
        )
        assert report.stop_reason == "converged: gradient fallback threshold"
        assert report.residual_drift
        assert report.residual_drift[-1][0] == report.iterations

    def test_refresh_rederives_s_and_keeps_u(self, rng):
        problem = make_consistent_problem(gen_gaussian_dense(60, 12, 3), 4)
        A, a = problem.A, problem.A.to_dense()
        state = SolverState.initial(A, problem.b)
        for _ in range(3):
            state, _ = step(state, A, "mrbgs")
        state = replace(state, grad=state.grad + 1e-3 * rng.standard_normal(12))
        fresh, drift = state.refreshed()
        want = a.T @ (problem.b - a @ state.x_curr)
        assert_allclose(fresh.grad, want, rtol=1e-12, atol=1e-12 * np.linalg.norm(want))
        assert drift == pytest.approx(np.linalg.norm(state.grad - fresh.grad))
        assert fresh.grad_step is state.grad_step
        assert state.subsolve_residual is not None and fresh.subsolve_residual is None

    def test_each_refreshed_iterate_logs_one_drift(self, monkeypatch):
        # a periodic refresh that meets a proposed stop on s is one refresh
        monkeypatch.setattr(solvers, "RESIDUAL_REFRESH", 1)
        report = run_solver(
            blind_problem(),
            MethodParams("madbcd", 0.3),
            StoppingRule(rse_threshold=1e-10, max_iterations=5000),
        )
        assert report.stop_reason == "converged: gradient fallback threshold"
        ks = [k for k, _ in report.residual_drift]
        assert ks == list(range(1, report.iterations + 1))

    def test_momentum_run_matches_a_replay_that_refreshes_u(self):
        # u needs no refresh: a replay that also re-derives u = A^T A (x - x_prev)
        # at every refresh takes the same path
        problem = make_consistent_problem(gen_gaussian_dense(130, 100, 11), 12)
        A, a, threshold = problem.A, problem.A.to_dense(), 1e-12
        report = run_solver(
            problem,
            MethodParams("madbcd", 0.5),
            StoppingRule(rse_threshold=threshold, max_iterations=5000),
            record_history=True,
        )
        assert report.converged and len(report.residual_drift) >= 5
        state = SolverState.initial(A, problem.b)
        replayed = [state.x_curr]
        while compute_rse(state.x_curr, problem.x_star) >= threshold:
            state, _ = step(state, A, "madbcd", beta=0.5)
            if state.k % RESIDUAL_REFRESH == 0:
                state, _ = state.refreshed()
                u = a.T @ (a @ (state.x_curr - state.x_prev))
                state = replace(state, grad_step=u)
            replayed.append(state.x_curr)
        assert state.k == report.iterations
        for x, y in zip(report.iterate_history[1:], replayed[1:]):
            assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y)

    def test_normal_residual_stop_is_true(self):
        # columns scaled over 1e3 make the drift of the incremental s matter at
        # this threshold: a gradient-fallback stop must hold on a fresh A^T r
        rng = np.random.default_rng(12)
        a = rng.standard_normal((200, 20))
        scales = np.logspace(0, 3, 20)
        sparse = a * (rng.random(a.shape) < 0.3) * scales
        b = rng.standard_normal(200)
        threshold = 1e-14
        matrices = {
            "dense": DenseMatrix(a),
            "dense-scaled": DenseMatrix(a * scales),
            "csc-scaled": SparseMatrixCSC.from_dense(sparse),
        }
        for label, A in matrices.items():
            blind = ProblemInstance(A=A, b=b, label=label)
            dense = A.to_dense()
            floor = threshold * np.linalg.norm(dense.T @ b)
            stopped = 0
            for method, beta in [("cd", 0.0), ("fbcd", 0.0), ("mrbgs", 0.0), ("madbcd", 0.3)]:
                report = run_solver(
                    blind, MethodParams(method, beta),
                    StoppingRule(rse_threshold=threshold, max_iterations=3000),
                )
                if report.stop_reason != "converged: gradient fallback threshold":
                    continue
                stopped += 1
                x = report.x_final
                assert np.linalg.norm(dense.T @ (b - dense @ x)) <= floor, (label, method)
            assert stopped >= 3, label

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

    def test_default_cap_ends_a_run_that_cannot_meet_its_threshold(self):
        # the sketched least-squares solution of a noisy system misses the
        # unsketched one by far more than the threshold
        A = gen_gaussian_dense(40, 5, 1)
        noise = 0.1 * np.random.default_rng(2).standard_normal(40)
        b = A.matvec(np.random.default_rng(3).standard_normal(5)) + noise
        problem = ProblemInstance(A=A, b=b, x_star=reference_lsq_solve(A, b))
        with pytest.warns(UserWarning, match="inconsistent"):
            report = run_solver(
                problem,
                MethodParams("cs-madbcd", 0.3, d_factor=4),
                StoppingRule(rse_threshold=1e-6),
                sketch_seed=4,
            )
        assert report.stop_reason == "max iterations exceeded"
        assert report.iterations == 100000
        assert report.records[-1].rse > 1e-6

    def test_non_finite_iterates_stop_the_run(self):
        # an overflowing right-hand side is stopped as diverged, not by the cap
        A = gen_gaussian_dense(30, 6, 1)
        x_star = np.full(6, 1e200)
        problem = ProblemInstance(A=A, b=A.matvec(x_star), x_star=x_star)
        with pytest.warns(RuntimeWarning, match="overflow"):
            report = run_solver(
                problem,
                MethodParams("madbcd", 0.0),
                StoppingRule(rse_threshold=1e-6),
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
        r1 = run_solver(problem, MethodParams("madbcd", 0.3), stop, record_history=True)
        r2 = run_solver(problem, MethodParams("madbcd", 0.3), stop, record_history=True)
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
        )
        stop = StoppingRule(rse_threshold=1e-10, max_iterations=1000)
        rd = run_solver(dense, MethodParams("madbcd", 0.1), stop)
        rs = run_solver(sparse, MethodParams("madbcd", 0.1), stop)
        assert rd.iterations == rs.iterations
        assert_allclose(rd.x_final, rs.x_final, rtol=1e-9)
