import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockcd import (
    CountSketch,
    DenseMatrix,
    MethodParams,
    ProblemInstance,
    SparseMatrixCSC,
    StoppingRule,
    build_count_sketch,
    build_problem,
    cs_prepare,
    gen_gaussian_dense,
    make_consistent_problem,
    run_solver,
    sketch_apply_matrix,
    sketch_apply_vector,
)
from blockcd.matrix import GramKernel

from conftest import random_sparse


def identity_sketch(m: int) -> CountSketch:
    """The d = m sketch with trivial buckets and +1 signs."""
    return CountSketch(d=m, h=np.arange(m, dtype=np.int64), signs=np.ones(m))


def densify(sketch: CountSketch) -> np.ndarray:
    s = np.zeros((sketch.d, sketch.m))
    s[sketch.h, np.arange(sketch.m)] = sketch.signs
    return s


class TestBuild:
    def test_rejects_expansion(self):
        with pytest.raises(ValueError, match="compress"):
            build_count_sketch(11, 10, seed=0)
        with pytest.raises(ValueError, match="output row"):
            build_count_sketch(0, 10, seed=0)

    def test_seed_determinism(self):
        s1 = build_count_sketch(5, 100, seed=42)
        s2 = build_count_sketch(5, 100, seed=42)
        assert np.array_equal(s1.h, s2.h)
        assert np.array_equal(s1.signs, s2.signs)
        s3 = build_count_sketch(5, 100, seed=43)
        assert not np.array_equal(s1.h, s3.h)

    def test_identity_hook(self):
        s = identity_sketch(4)
        v = np.array([1.0, -2.0, 3.0, 4.0])
        assert_allclose(sketch_apply_vector(s, v), v)
        assert_allclose(densify(s), np.eye(4))

    @pytest.mark.parametrize("seed", range(5))
    def test_bucket_split_chi_square(self, seed):
        # chi-square with 1 dof; 10.83 is the p = 0.001 critical value
        s = build_count_sketch(2, 10**4, seed=seed)
        counts = np.bincount(s.h, minlength=2)
        expected = 5000.0
        chi2 = np.sum((counts - expected) ** 2 / expected)
        assert chi2 < 10.83

    def test_validation(self):
        with pytest.raises(ValueError, match="bucket"):
            CountSketch(d=2, h=np.array([0, 1, 5]), signs=np.ones(3))
        with pytest.raises(ValueError, match="signs"):
            CountSketch(d=2, h=np.array([0, 1]), signs=np.array([1.0, 0.5]))
        with pytest.raises(ValueError, match="one entry per input row"):
            CountSketch(d=2, h=np.array([0, 1, 0]), signs=np.ones(2))
        with pytest.raises(ValueError, match="one entry per input row"):
            CountSketch(d=2, h=np.zeros((2, 2), dtype=np.int64), signs=np.ones((2, 2)))
        with pytest.raises(ValueError, match="d <= m"):
            CountSketch(d=3, h=np.array([0, 1]), signs=np.ones(2))

    def test_row_count_is_the_bucket_map_length(self):
        s = CountSketch(d=2, h=np.array([0, 1, 0, 1, 1]), signs=np.ones(5))
        assert s.m == len(s.h) == 5
        assert build_count_sketch(3, 40, seed=1).m == 40
        with pytest.raises(TypeError):
            CountSketch(d=2, m=5, h=np.array([0, 1, 0, 1, 1]), signs=np.ones(5))


class TestApplyVector:
    def test_hand_example(self):
        s = CountSketch(
            d=2, h=np.array([0, 1, 0, 1]), signs=np.array([1.0, -1.0, 1.0, -1.0])
        )
        out = sketch_apply_vector(s, np.array([1.0, 2.0, 3.0, 4.0]))
        assert_allclose(out, [4.0, -6.0])

    def test_dimension_mismatch(self):
        s = identity_sketch(3)
        with pytest.raises(ValueError, match="length 3"):
            sketch_apply_vector(s, np.ones(4))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_densified_oracle(self, seed):
        rng = np.random.default_rng(seed)
        s = build_count_sketch(7, 30, seed=seed)
        v = rng.standard_normal(30)
        assert_allclose(
            sketch_apply_vector(s, v), densify(s) @ v, rtol=1e-14, atol=1e-14
        )


class TestApplyMatrix:
    def test_identity_hook(self, rng):
        a = rng.standard_normal((5, 3))
        out = sketch_apply_matrix(identity_sketch(5), DenseMatrix(a))
        assert_allclose(out.to_dense(), a)

    def test_consistency_with_vector_apply(self):
        s = CountSketch(
            d=2, h=np.array([0, 1, 0, 1]), signs=np.array([1.0, -1.0, 1.0, -1.0])
        )
        col = np.array([[1.0], [2.0], [3.0], [4.0]])
        out = sketch_apply_matrix(s, DenseMatrix(col))
        assert_allclose(out.to_dense().ravel(), [4.0, -6.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_sparse_columns_match_densified_oracle(self, seed):
        # both sides of the storage rule d n <= 16 nnz(A): 50x6 at 30% (about
        # 90 stored entries) sketched to 9 rows, 400x6 at 1% (about 25) to 200
        for m, density, d, storage in (
            (50, 0.3, 9, DenseMatrix),
            (400, 0.01, 200, SparseMatrixCSC),
        ):
            a, _, sp = random_sparse(m, 6, density, seed=seed)
            s = build_count_sketch(d, m, seed=seed)
            out = sketch_apply_matrix(s, sp)
            assert type(out) is storage
            assert_allclose(out.to_dense(), densify(s) @ a, rtol=1e-14, atol=1e-14)
        assert out.nnz <= sp.nnz  # CSC output stores no more than its input

    def test_sparse_storage_threshold_is_inclusive(self):
        # 25 stored entries in 4 columns: d n = 16 nnz(A) exactly at d = 100
        a = np.zeros((200, 4))
        a[7 * np.arange(25), np.arange(25) % 4] = 1.0 + np.arange(25)
        sp = SparseMatrixCSC.from_dense(a)
        at = sketch_apply_matrix(build_count_sketch(100, 200, seed=0), sp)
        past = sketch_apply_matrix(build_count_sketch(101, 200, seed=0), sp)
        assert type(at) is DenseMatrix and type(past) is SparseMatrixCSC

    @pytest.mark.parametrize("seed", range(3))
    def test_dense_output_does_not_depend_on_input_storage(self, seed):
        # columns 0, 3 and 7 are empty; 60x8 at about 40% holds about 120
        # entries, so every d < 60 is on the dense-output side of the rule
        rng = np.random.default_rng(seed)
        a = np.where(rng.random((60, 8)) < 0.4, rng.standard_normal((60, 8)), 0.0)
        a[:, [0, 3, 7]] = 0.0
        for d in (5, 12, 30):
            s = build_count_sketch(d, 60, seed=seed)
            dense = sketch_apply_matrix(s, DenseMatrix(a))
            csc = sketch_apply_matrix(s, SparseMatrixCSC.from_dense(a))
            assert type(dense) is DenseMatrix and type(csc) is DenseMatrix
            bits = [np.ascontiguousarray(o.to_dense()).view(np.uint64) for o in (dense, csc)]
            assert np.array_equal(*bits)

    def test_dense_matches_dense_oracle(self, rng):
        a = rng.standard_normal((40, 5))
        s = build_count_sketch(8, 40, seed=3)
        out = sketch_apply_matrix(s, DenseMatrix(a))
        assert_allclose(out.to_dense(), densify(s) @ a, rtol=1e-13, atol=1e-13)

    def test_dimension_mismatch(self, rng):
        s = build_count_sketch(2, 10, seed=0)
        with pytest.raises(ValueError, match="input rows"):
            sketch_apply_matrix(s, DenseMatrix(rng.standard_normal((9, 2))))


def test_unbiasedness_of_gram_average():
    m, d, trials = 20, 5, 2000
    acc = np.zeros((m, m))
    for seed in range(trials):
        s = densify(build_count_sketch(d, m, seed=seed))
        acc += s.T @ s
    acc /= trials
    assert np.max(np.abs(acc - np.eye(m))) <= 0.05


def test_embedding_frequency():
    # fixed matrix and direction, fresh sketch per trial; the distortion bound
    # should hold in well over the required 75 percent of trials
    n, m, d, eps = 4, 500, 80, 0.5
    rng = np.random.default_rng(0)
    a = rng.standard_normal((m, n))
    x = rng.standard_normal(n)
    ax = a @ x
    ax_norm = np.linalg.norm(ax)
    hits = 0
    trials = 500
    for seed in range(trials):
        s = build_count_sketch(d, m, seed=seed)
        sk_norm = np.linalg.norm(sketch_apply_vector(s, ax))
        if (1 - eps) * ax_norm <= sk_norm <= (1 + eps) * ax_norm:
            hits += 1
    assert hits / trials >= 0.75


class TestCsPrepare:
    def test_consistency_carries_over(self):
        problem = make_consistent_problem(gen_gaussian_dense(300, 20, 1), 2)
        sketched, prep = cs_prepare(problem, 80, seed=3)
        assert prep >= 0.0
        assert sketched.consistent
        assert np.array_equal(sketched.x_star, problem.x_star)
        assert sketched.A.shape == (80, 20)
        resid = np.linalg.norm(sketched.b - sketched.A.matvec(problem.x_star))
        assert resid <= 1e-10 * np.linalg.norm(sketched.b)

    def test_rejects_non_compressing_dim(self):
        problem = make_consistent_problem(gen_gaussian_dense(50, 5, 1), 2)
        with pytest.raises(ValueError, match="compress"):
            cs_prepare(problem, 50, seed=0)

    def test_rejects_dim_below_column_count(self):
        problem = make_consistent_problem(gen_gaussian_dense(50, 5, 1), 2)
        with pytest.raises(ValueError, match="below the column count 5"):
            cs_prepare(problem, 4, seed=0)

    def test_warns_on_inconsistent_systems(self, rng):
        A = gen_gaussian_dense(40, 6, 5)
        b = rng.standard_normal(40)
        problem = ProblemInstance(A=A, b=b, label="inconsistent")
        with pytest.warns(UserWarning, match="inconsistent"):
            cs_prepare(problem, 12, seed=0)

    def test_end_to_end_solve_on_sketched_problem(self):
        problem = make_consistent_problem(gen_gaussian_dense(4000, 100, 11), 12)
        stop = StoppingRule(rse_threshold=1e-6, max_iterations=10000)
        plain = run_solver(problem, MethodParams("madbcd", 0.0), stop)
        sketched, _ = cs_prepare(problem, 8 * 100, seed=13)
        cs = run_solver(sketched, MethodParams("madbcd", 0.2), stop)
        assert plain.converged and cs.converged
        assert cs.records[-1].rse < 1e-6
        assert plain.iterations <= cs.iterations

    # far from 1 the run solves its power-of-two rescale, in both forms
    @pytest.mark.parametrize("scale", [1.0, 1e-120, 1e200])
    def test_one_call_cs_madbcd_is_madbcd_on_the_sketch(self, scale):
        a = gen_gaussian_dense(2000, 50, 21).array * scale
        problem = make_consistent_problem(DenseMatrix(a), 22)
        stop = StoppingRule(rse_threshold=1e-6, max_iterations=10000)
        one = run_solver(problem, MethodParams("cs-madbcd", 0.3, 4), stop, sketch_seed=23)
        sketched, _ = cs_prepare(problem, 4 * 50, seed=23)
        two = run_solver(sketched, MethodParams("madbcd", 0.3), stop)

        assert one.converged and np.array_equal(one.x_final, two.x_final)
        assert (one.iterations, one.stop_reason) == (two.iterations, two.stop_reason)

        # records are in a run's units: a norm of s is 2^(p + q) times the
        # problem's, eta^T s 2^(2(p + q)) times, and each form takes (p, q) from
        # the problem it solves; both are 0 in the scale band
        assert one.scale_exponents == problem.scale_exponents
        assert two.scale_exponents == sketched.scale_exponents
        shift = sum(one.scale_exponents) - sum(two.scale_exponents)

        def untimed(report, k=0):
            return [
                repr(dataclasses.replace(
                    r,
                    elapsed_s=0.0,
                    normal_residual=math.ldexp(r.normal_residual, k),
                    drift=math.ldexp(r.drift, k),
                    eta_dot_s=math.ldexp(r.eta_dot_s, 2 * k),
                ))
                for r in report.records
            ]

        assert untimed(one) == untimed(two, shift)
        assert one.method == "cs-madbcd" and one.problem_label == problem.label
        assert one.prep_seconds > 0.0

    def test_sketch_that_cancels_a_column_refused(self, rng):
        # seed 23 sends rows 0 and 1 of a 40-row input to one of 16 buckets
        # with opposite signs, so it sums the column (1, 1, 0, ...) to zero
        a = rng.standard_normal((40, 4))
        a[:, 0] = 0.0
        a[[0, 1], 0] = 1.0
        problem = make_consistent_problem(DenseMatrix(a), 3)
        stop = StoppingRule(max_iterations=5)
        with pytest.raises(ValueError) as info:
            run_solver(problem, MethodParams("cs-madbcd", 0.3, 4), stop, sketch_seed=23)
        message = str(info.value)
        assert "d=16" in message and "seed 23" in message and "column 0" in message
        assert "another seed or a larger d_factor" in message

    def test_sparse_sketch_that_cancels_a_column_refused_on_the_dense_path(self, rng):
        # the column and seed above, stored CSC; its 122 stored entries put
        # the 16-row sketch on the dense-output side of the storage rule
        a = rng.standard_normal((40, 4))
        a[:, 0] = 0.0
        a[[0, 1], 0] = 1.0
        sp = SparseMatrixCSC.from_dense(a)
        assert type(sketch_apply_matrix(build_count_sketch(16, 40, 23), sp)) is DenseMatrix
        problem = make_consistent_problem(sp, 3)
        stop = StoppingRule(max_iterations=5)
        with pytest.raises(ValueError) as info:
            run_solver(problem, MethodParams("cs-madbcd", 0.3, 4), stop, sketch_seed=23)
        message = str(info.value)
        assert "d=16" in message and "seed 23" in message and "column 0" in message
        assert "another seed or a larger d_factor" in message

    def test_sparse_problem_above_the_threshold_solves_from_the_gram_matrix(self):
        # 2000x100 at 5% holds about 10^4 entries; d = 4n gives d n / nnz near 4
        problem = build_problem(
            {"kind": "sparse-gaussian", "m": 2000, "n": 100, "density": 0.05}, 5
        )
        assert isinstance(problem.A, SparseMatrixCSC)
        sketched, _ = cs_prepare(problem, 4 * 100, seed=6)
        assert type(sketched.A) is DenseMatrix
        assert type(sketched.A.normal_kernel(sketched.b)) is GramKernel
        stop = StoppingRule(rse_threshold=1e-6, max_iterations=10000)
        report = run_solver(problem, MethodParams("cs-madbcd", 0.3, 4), stop, sketch_seed=6)
        assert report.converged and report.records[-1].rse < 1e-6

    @pytest.mark.parametrize(("problem_seed", "sketch_seed", "iterations"),
                             [(0, 100, 15), (1, 101, 16), (2, 102, 16)])
    def test_sparse_problem_below_the_threshold_solves_on_csc(
        self, problem_seed, sketch_seed, iterations
    ):
        # 20000x100 at 0.2% holds about 4000 entries; d = 8n gives d n / nnz near 20
        problem = build_problem(
            {"kind": "sparse-gaussian", "m": 20000, "n": 100, "density": 0.002},
            problem_seed,
        )
        sketched, _ = cs_prepare(problem, 8 * 100, seed=sketch_seed)
        assert type(sketched.A) is SparseMatrixCSC
        assert sketched.A.nnz <= problem.A.nnz
        stop = StoppingRule(rse_threshold=1e-6, max_iterations=10000)
        one = run_solver(
            problem, MethodParams("cs-madbcd", 0.3, 8), stop, sketch_seed=sketch_seed
        )
        two = run_solver(sketched, MethodParams("madbcd", 0.3), stop)
        assert (one.iterations, one.stop_reason) == (iterations, "converged: rse threshold")
        assert np.array_equal(one.x_final, two.x_final)

    def test_cs_madbcd_without_sketch_seed_refused(self):
        problem = make_consistent_problem(gen_gaussian_dense(300, 20, 1), 2)
        stop = StoppingRule(max_iterations=5)
        with pytest.raises(ValueError, match="sketch_seed"):
            run_solver(problem, MethodParams("cs-madbcd", 0.3, 4), stop)
