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
    select_block_madbcd,
    subsolve_update,
)
from blockcd import matrix, oracle, problems, solvers
from blockcd.solvers import METHODS, RESIDUAL_REFRESH, householder_lstsq


def identity_problem(b):
    b = np.asarray(b, dtype=float)
    A = DenseMatrix(np.eye(len(b)))
    return ProblemInstance(A=A, b=b, x_star=b.copy())


def blind_problem():
    """300x40 Gaussian with a random b and no x_star: stops on the gradient fallback."""
    b = np.random.default_rng(12).standard_normal(300)
    return ProblemInstance(A=gen_gaussian_dense(300, 40, 11), b=b)


def rotated_problem(m, n, kappa, noise, seed):
    """U diag(logspace(0, -log10 kappa)) V^T with random orthonormal U and V, and
    b = A x_star plus `noise` ||A x_star|| along a unit vector orthogonal to range(A)."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((m, n + 1)))
    v, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = (u[:, :n] * np.logspace(0, -np.log10(kappa), n)) @ v.T
    x_star = rng.standard_normal(n)
    b = a @ x_star
    return ProblemInstance(
        A=DenseMatrix(a), b=b + noise * np.linalg.norm(b) * u[:, n], x_star=x_star
    )


def step(state, A, method, beta=0.0):
    """One step of `method` from `state`, built as run_solver builds it."""
    block = block_rule(MethodParams(method, beta), A.column_norms())(state.grad)
    if method == "mrbgs":
        return subsolve_update(state, block), block
    return line_search_update(state, block, beta)[0], block


# each method's (w_j = ||a_j||^2, lam, mu) in the one threshold rule; w = 1 otherwise
RULES = {
    "madbcd": (False, 0.0, 1.0),
    "mrbgs": (False, solvers.MRBGS_FRACTION, 0.0),
    "fbcd": (True, 0.5, 0.5),
    "cd": (False, 1.0, 0.0),
}


class TestSelectBlock:
    @pytest.mark.parametrize("method", RULES)
    @pytest.mark.parametrize(
        "s",
        [
            *(np.random.default_rng(seed).standard_normal(12) for seed in range(10)),
            np.array([2.0, -2.0, 1.0, 2.0, 0.5]),
            np.array([0.0, 0.0, -3.0, 0.0]),
        ],
        ids=[*(f"random-{seed}" for seed in range(10)), "tied", "one-nonzero"],
    )
    def test_block_is_every_score_reaching_the_threshold(self, method, s, rng):
        col_norms = rng.uniform(0.5, 2.0, s.size)
        weighted, lam, mu = RULES[method]
        w = col_norms**2 if weighted else np.ones(s.size)
        score = s * s / w
        cut = min(lam * score.max() + mu * (s * s).sum() / w.sum(), score.max())
        expected = [j for j in range(s.size) if score[j] >= cut]
        block = block_rule(MethodParams(method), col_norms)(s)
        assert block.dtype == np.int64 and block.ndim == 1
        # cd is the lam = 1 block's first index
        assert block.tolist() == (expected[:1] if method == "cd" else expected)

    @pytest.mark.parametrize(
        "method, s, col_norms, expected",
        [
            ("madbcd", [1.0, 1.0, 1.0, 1.0], None, [0, 1, 2, 3]),  # all tie the mean 1
            ("madbcd", [1.0, 0.0, 0.0], None, [0]),
            ("madbcd", [3.0, 2.0, 1.0], None, [0]),  # mean 14/3: only 9 reaches it
            ("mrbgs", [3.0, 2.0, 1.0], None, [0, 1]),  # 0.3 * 9 = 2.7 admits 9 and 4
            ("mrbgs", [2.0, -2.0, 1.0], None, [0, 1]),  # argmax ties are kept
            ("fbcd", [1.0, 0.0], [1.0, 1.0], [0]),  # min(1/2 + 1/4, 1) = 3/4
            ("fbcd", [1.0, 1.0], [1.0, 1.0], [0, 1]),  # min(1/2 + 1/2, 1) = 1
            ("fbcd", [2.0, 1.0, 1.0], [2.0, 1.0, 0.5], [2]),  # scores 1, 1, 4; cut 2 + 4/7
            ("fbcd", [2.0, 1.0, 1.0], [1.0, 1.0, 2.0], [0]),  # scores 4, 1, 1/4; cut 5/2
            ("cd", [2.0, -2.0, 1.0], None, [0]),  # first of the tied argmax
            ("cd", [1.0, -3.0, 2.0], None, [1]),
        ],
    )
    def test_hand_computed_blocks(self, method, s, col_norms, expected):
        s = np.array(s)
        col_norms = np.ones(s.size) if col_norms is None else np.array(col_norms)
        assert block_rule(MethodParams(method), col_norms)(s).tolist() == expected

    @pytest.mark.parametrize(
        "method, value, norm",
        [("madbcd", 57.99732627352366, 1.0), ("fbcd", 0.10520315032328138, 1.786106414881354)],
    )
    def test_ties_are_kept_where_the_rounded_threshold_exceeds_them(self, method, value, norm):
        s, col_norms = np.full(3, value), np.full(3, norm)
        weighted, lam, mu = RULES[method]
        w = col_norms**2 if weighted else np.ones(3)
        score = s * s / w
        assert lam * score.max() + mu * (s * s).sum() / w.sum() > score.max()
        assert block_rule(MethodParams(method), col_norms)(s).tolist() == [0, 1, 2]

    def test_zero_gradient_is_a_signal(self):
        with pytest.raises(ValueError, match="zero gradient"):
            solvers.select_block(0.0, 1.0, np.zeros(3))

    @pytest.mark.parametrize("method", ["madbcd", "fbcd", "mrbgs"])
    def test_run_calls_the_named_selector_by_position_once_per_step(self, monkeypatch, method):
        # perfbench's tracer rebinds these module names with wrappers whose
        # work counters take positional arguments only
        name = f"select_block_{method}"
        original, calls = getattr(solvers, name), []

        def counting(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(solvers, name, counting)
        problem = make_consistent_problem(gen_gaussian_dense(200, 20, 3), 4)
        report = run_solver(problem, MethodParams(method), StoppingRule())
        assert report.converged and len(calls) == report.iterations > 0

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
    for method in RULES:
        select = block_rule(MethodParams(method), col_norms)
        first = select(s)
        for _ in range(3):
            assert np.array_equal(select(s), first)


def test_blocks_are_int64_index_arrays():
    problem = make_consistent_problem(gen_gaussian_dense(40, 15, 2), seed=4)
    for method in METHODS:
        params = MethodParams(method, d_factor=2 if method == "cs-madbcd" else None)
        report = run_solver(
            problem, params, StoppingRule(max_iterations=10),
            record_history=True, sketch_seed=5,
        )
        assert len(report.block_history) == report.iterations
        for block in report.block_history:
            assert block.dtype == np.int64 and block.ndim == 1 and block.size >= 1


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
        select = block_rule(params, A.column_norms())
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
        assert_allclose(problem.b - problem.A.matvec(state.x_curr), [1.0, 0.0])
        # s = (1, 0) -> block {0}, lands on the solution
        state, block = step(state, problem.A, "madbcd")
        assert block.tolist() == [0]
        assert_allclose(state.x_curr, [1.0, 2.0])
        assert_allclose(
            state.x_curr, reference_lsq_solve(problem.A, problem.b), atol=1e-15
        )

    def test_momentum_arithmetic(self):
        A, b = DenseMatrix(np.eye(2)), np.array([1.0, 2.0])
        # x_curr - x_prev = (0, 2), r = b - x_curr = (1, 0)
        state = SolverState(
            x_curr=np.array([0.0, 2.0]),
            x_prev=np.array([0.0, 0.0]),
            grad=np.array([1.0, 0.0]),
            grad_step=np.array([0.0, 2.0]),
            kernel=A.normal_kernel(b),
            k=1,
        )
        state, block = step(state, A, "madbcd", beta=0.5)
        assert block.tolist() == [0]
        assert_allclose(state.x_curr, [1.0, 3.0])
        assert_allclose(state.grad_step, [1.0, 1.0])
        assert_allclose(state.grad, [0.0, -1.0])
        assert_allclose(state.grad, A.transpose_matvec(b - A.matvec(state.x_curr)))

    def test_beta_zero_ignores_momentum_state(self, rng):
        # beta = 0 takes the general formula, which must leave no trace of a
        # nonzero x_curr - x_prev or u in the result, bit for bit
        a = rng.standard_normal((15, 6))
        A = DenseMatrix(a)
        x_curr, x_prev = rng.standard_normal(6), rng.standard_normal(6)
        b = rng.standard_normal(15)
        kernel = A.normal_kernel(b)
        state = SolverState(
            x_curr=x_curr,
            x_prev=x_prev,
            grad=a.T @ (b - a @ x_curr),
            grad_step=a.T @ (a @ (x_curr - x_prev)),
            kernel=kernel,
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
        assert_allclose(b - A.matvec(st_cd.x_curr), b - A.matvec(st_mb.x_curr), rtol=1e-15, atol=0)


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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("e", [700, -700])
    @pytest.mark.parametrize("gap", [1.0, 1e-9])
    def test_exact_where_the_squares_leave_double_range(self, rng, e, gap):
        v = rng.standard_normal(30)
        w = v + gap * rng.standard_normal(30)
        assert compute_rse(np.ldexp(w, e), np.ldexp(v, e)) == compute_rse(w, v)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_reference_entry_inside_the_scale_band_reads_finite(self):
        # b and the column norms lie in band, so the run is not rescaled, yet
        # x_star_5^2 overflows; the run still cannot converge on this column
        rng = np.random.default_rng(0)
        a = rng.standard_normal((200, 20))
        a[:, 5] *= 1e-140
        x_star = rng.standard_normal(20)
        x_star[5] = 1e160
        problem = ProblemInstance(A=DenseMatrix(a), b=a @ x_star, x_star=x_star)
        assert problem.scale_exponents == (0, 0)
        report = run_solver(problem, MethodParams("cd"), StoppingRule(max_iterations=200))
        assert report.stop_reason == "max iterations exceeded"
        assert all(math.isfinite(r.rse) for r in report.records)


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

    @pytest.mark.parametrize("refreshes", [1, 3])
    @pytest.mark.parametrize("method", ["cd", "fbcd", "madbcd", "cs-madbcd"])
    def test_dense_step_touches_no_m_length_kernel(self, monkeypatch, method, refreshes):
        # a dense step reads G = A^T A, and so does a refresh while s stands
        # well above the rounding of c - G x, as it does on this slow problem:
        # a line-search run passes over A once, for the start's s = A^T b.
        # cs-madbcd also checks the unsketched system's consistency.
        problem = rotated_problem(300, 40, 100.0, 0.0, 11)
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
        steps = refreshes * RESIDUAL_REFRESH + 7
        report = run_solver(
            problem, params, StoppingRule(rse_threshold=None, max_iterations=steps),
            sketch_seed=3,
        )
        assert report.iterations == steps
        assert len(report.residual_drift) == refreshes
        assert calls["restricted_matvec"] == 0
        if method == "cs-madbcd":
            bound = 2 * math.ceil(steps / RESIDUAL_REFRESH) + 2
            assert calls["transpose_matvec"] <= bound and calls["matvec"] <= bound, calls
        else:
            assert calls["transpose_matvec"] == 1 and calls["matvec"] == 0, calls

    @pytest.mark.parametrize("method", ["cd", "fbcd"])
    def test_csc_refresh_forms_r_by_two_passes(self, monkeypatch, method):
        # CSC storage has no G: every refresh forms r = b - A x and s = A^T r,
        # beside the start's A^T b and each step's restricted and transpose matvec
        problem = problems.build_problem(
            {"kind": "sparse-gaussian", "m": 4000, "n": 100, "density": 0.05}, 0
        )
        calls = dict.fromkeys(("transpose_matvec", "restricted_matvec", "matvec"), 0)
        for name in calls:
            original = getattr(SparseMatrixCSC, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(SparseMatrixCSC, name, counted)
        report = run_solver(problem, MethodParams(method), StoppingRule(rse_threshold=1e-12))
        assert report.converged and report.iterations > RESIDUAL_REFRESH
        drifts = len(report.residual_drift)
        assert drifts >= report.iterations // RESIDUAL_REFRESH
        assert calls == {
            "transpose_matvec": 1 + report.iterations + drifts,
            "restricted_matvec": report.iterations,
            "matvec": drifts,
        }

    def test_refresh_reads_g_only_far_above_its_rounding(self, monkeypatch):
        # c - G x carries rounding of order eps ||G|| ||x||, which G^-1
        # amplifies by 1/sigma_min^2: refreshing from G all the way down loses
        # final accuracy that A^T (b - A x) keeps, and the shipped switch keeps it
        problem = rotated_problem(300, 10, 30.0, 0.1, 3)

        def final_rse(margin):
            monkeypatch.setattr(matrix, "GRAM_REFRESH_MARGIN", margin)
            report = run_solver(
                problem, MethodParams("madbcd", 0.3), StoppingRule(1e-40, 10_000)
            )
            return report.records[-1].rse

        shipped = final_rse(matrix.GRAM_REFRESH_MARGIN)
        m_space = final_rse(math.inf)
        assert final_rse(0.0) > 100 * m_space
        assert shipped <= 2 * m_space

    @pytest.mark.parametrize("storage", [DenseMatrix, SparseMatrixCSC.from_dense])
    def test_fbcd_reads_the_column_norms_its_problem_holds(self, monkeypatch, storage):
        # building a problem measures its columns; a run measures them again
        # only where it builds its own rescaled problem
        a = np.random.default_rng(5).standard_normal((200, 20))
        calls = []
        for cls in (DenseMatrix, SparseMatrixCSC):
            original = cls.column_norms
            monkeypatch.setattr(
                cls, "column_norms", lambda self, f=original: calls.append(1) or f(self)
            )
        for factor, want in ((1.0, 0), (1e60, 1)):
            problem = make_consistent_problem(storage(a * factor), 6)
            calls.clear()
            report = run_solver(problem, MethodParams("fbcd"), StoppingRule())
            assert report.converged and len(calls) == want

    @pytest.mark.parametrize("blind", [False, True])
    def test_mrbgs_forms_r_once_per_refresh(self, monkeypatch, blind):
        # r starts as b and each refresh, periodic or confirming a stop, keeps
        # the r it forms, so the refresh's matvec is the run's only one
        if blind:
            problem, stop = blind_problem(), StoppingRule(rse_threshold=1e-10)
        else:
            problem = make_consistent_problem(gen_gaussian_dense(300, 40, 11), 12)
            stop = StoppingRule(rse_threshold=None, max_iterations=2 * RESIDUAL_REFRESH + 7)
        calls = []
        original = DenseMatrix.matvec
        monkeypatch.setattr(
            DenseMatrix, "matvec", lambda self, x: calls.append(1) or original(self, x)
        )
        report = run_solver(problem, MethodParams("mrbgs"), stop)
        assert len(report.residual_drift) >= 2
        assert len(calls) == len(report.residual_drift)

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
        # the refresh keeps the r it formed, so mrbgs reads it without a matvec
        assert np.array_equal(fresh.residual, problem.b - A.matvec(state.x_curr))

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

    def test_non_finite_iterates_stop_the_run(self, monkeypatch):
        # the rescale keeps the squares of finite data in range, so a step
        # that overflows s is injected: the run stops as diverged, not by the cap
        def overflowing(state, block, beta):
            moved, eta_dot_s = line_search_update(state, block, beta)
            return replace(moved, grad=np.full_like(moved.grad, np.inf)), eta_dot_s

        monkeypatch.setattr(solvers, "line_search_update", overflowing)
        problem = make_consistent_problem(gen_gaussian_dense(30, 6, 1), 2)
        report = run_solver(problem, MethodParams("madbcd"), StoppingRule(rse_threshold=1e-6))
        assert not report.converged
        assert report.stop_reason.startswith("diverged")
        assert report.iterations == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_right_hand_side_is_solved_rescaled(self):
        # unscaled, ||s||^2 of this problem overflows at the start
        A = gen_gaussian_dense(30, 6, 1)
        x_star = np.full(6, 1e200)
        problem = ProblemInstance(A=A, b=A.matvec(x_star), x_star=x_star)
        report = run_solver(problem, MethodParams("madbcd"), StoppingRule(rse_threshold=1e-6))
        assert report.stop_reason == "converged: rse threshold"
        assert report.records[-1].rse < 1e-6
        # x_star . x_star overflows, so the error is read per entry
        assert_allclose(report.x_final, x_star, rtol=1e-2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_normal_residual_beyond_double_range_reads_inf(self):
        A = gen_gaussian_dense(200, 20, 1)
        b = 1e307 * np.random.default_rng(0).standard_normal(200)
        report = run_solver(ProblemInstance(A=A, b=b), MethodParams("madbcd"), StoppingRule())
        assert report.stop_reason == "converged: gradient fallback threshold"
        assert report.records[0].normal_residual == np.inf
        assert np.isfinite(report.x_final).all()

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


def rescale_cell(problem, cell):
    """Run one cell of the forced-rescale check; returns the exponents of the run too."""
    stop = StoppingRule(rse_threshold=1e-12, max_iterations=5000)
    if cell == "cs-madbcd-two-call":
        problem, _ = cs_prepare(problem, 4 * problem.A.cols, seed=1)
        cell = "madbcd"
    beta = 0.3 if cell in ("madbcd", "cs-madbcd") else 0.0
    params = MethodParams(cell, beta, 4 if cell == "cs-madbcd" else None)
    report = run_solver(problem, params, stop, record_history=True, sketch_seed=1)
    return report, problem.scale_exponents


class TestRescale:
    @pytest.mark.parametrize(
        "cell", ["cd", "fbcd", "mrbgs", "madbcd", "cs-madbcd", "cs-madbcd-two-call"]
    )
    @pytest.mark.parametrize(
        "storage", [DenseMatrix, SparseMatrixCSC.from_dense], ids=["dense", "csc"]
    )
    def test_forced_rescale_maps_back_bit_for_bit(self, monkeypatch, storage, cell):
        # a power-of-two rescale changes no rounding, so the rescaled run takes
        # the same steps; its x and ||s|| map back exactly
        a = gen_gaussian_dense(200, 20, 5).to_dense()
        x_star = 10.0 * np.random.default_rng(6).standard_normal(20)  # so that p != q

        def problem():
            return ProblemInstance(A=storage(a), b=a @ x_star, x_star=x_star)

        plain, exps = rescale_cell(problem(), cell)
        assert exps == (0, 0)
        monkeypatch.setattr(problems, "SCALE_BAND_LOG2", -1)
        scaled, (p, q) = rescale_cell(problem(), cell)
        assert p != q and p + q != 0
        assert plain.stop_reason == scaled.stop_reason == "converged: rse threshold"
        assert plain.iterations == scaled.iterations
        assert np.array_equal(plain.x_final, scaled.x_final)
        for x, y in zip(plain.iterate_history, scaled.iterate_history, strict=True):
            assert np.array_equal(x, y)
        for field in ("rse", "normal_residual", "block_size"):
            curve = [getattr(r, field) for r in plain.records]
            assert curve == [getattr(r, field) for r in scaled.records], field
        assert plain.residual_drift == scaled.residual_drift
        # eta_dot_s, a square, stays in the run's units
        eta = np.array([r.eta_dot_s for r in plain.records])
        assert np.array_equal(
            np.ldexp(eta, 2 * (p + q)), [r.eta_dot_s for r in scaled.records], equal_nan=True
        )
