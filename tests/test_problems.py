import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockcd import (
    DenseMatrix,
    MatrixMarketError,
    MethodParams,
    ProblemInstance,
    SparseMatrixCSC,
    StoppingRule,
    cs_prepare,
    gen_gaussian_dense,
    gen_sparse_gaussian,
    gen_tomography,
    gram_extremal_singular_values,
    make_consistent_problem,
    read_matrix_market,
    read_problem_bundle,
    run_solver,
    trace_ray,
    write_matrix_market,
    write_problem_bundle,
)

from conftest import random_sparse
from blockcd.problems import (
    CLI_FORMS,
    PROBLEM_FIELDS,
    ZeroColumnError,
    _problem_spec,
    parse_problem,
)


class TestGaussianDense:
    def test_determinism(self):
        a = gen_gaussian_dense(30, 7, seed=9)
        b = gen_gaussian_dense(30, 7, seed=9)
        assert np.array_equal(a.to_dense(), b.to_dense())

    def test_moments(self):
        a = gen_gaussian_dense(10**4, 1, seed=0).to_dense().ravel()
        assert abs(a.mean()) <= 0.05
        assert 0.9 <= a.var() <= 1.1

    def test_full_column_rank_at_scale(self):
        a = gen_gaussian_dense(2000, 200, seed=1)
        smin, _ = gram_extremal_singular_values(a)
        assert smin > 0.0

    def test_overdetermined_contract(self):
        with pytest.raises(ValueError, match="m >= n"):
            gen_gaussian_dense(5, 6, seed=0)


class TestSparseGaussian:
    def test_determinism(self):
        a = gen_sparse_gaussian(200, 8, 0.1, seed=3)
        b = gen_sparse_gaussian(200, 8, 0.1, seed=3)
        assert np.array_equal(a.row_indices, b.row_indices)
        assert np.array_equal(a.values, b.values)

    def test_entry_count_near_binomial_mean(self):
        m, n, density = 10**4, 10, 0.1
        a = gen_sparse_gaussian(m, n, density, seed=5)
        mean = m * n * density
        sigma = np.sqrt(m * n * density * (1 - density))
        assert abs(a.nnz - mean) <= 3 * sigma

    def test_density_one_is_dense_equivalent(self):
        a = gen_sparse_gaussian(20, 5, 1.0, seed=2)
        assert a.nnz == 100

    def test_zero_columns_are_repaired(self):
        a = gen_sparse_gaussian(50, 5, 1e-6, seed=7)
        assert np.all(a.column_norms() > 0)

    def test_density_domain(self):
        with pytest.raises(ValueError, match="density"):
            gen_sparse_gaussian(10, 2, 0.0, seed=0)

    def test_overdetermined_contract(self):
        with pytest.raises(ValueError, match="m >= n, got 5 < 6"):
            gen_sparse_gaussian(5, 6, 0.5, seed=0)


class TestMakeConsistent:
    def test_identity_rhs_is_solution(self):
        p = make_consistent_problem(DenseMatrix(np.eye(4)), seed=1)
        assert_allclose(p.b, p.x_star)

    def test_residual_is_rounding_level(self, rng):
        p = make_consistent_problem(DenseMatrix(rng.standard_normal((30, 6))), seed=2)
        assert np.linalg.norm(p.b - p.A.matvec(p.x_star)) <= 1e-12 * np.linalg.norm(p.b)

    def test_determinism(self):
        A = DenseMatrix(np.eye(3))
        assert np.array_equal(
            make_consistent_problem(A, seed=5).x_star,
            make_consistent_problem(A, seed=5).x_star,
        )


class TestProblemInstanceValidation:
    def test_zero_column_named(self):
        a = np.eye(3)
        a[:, 1] = 0.0
        with pytest.raises(ValueError, match="zero column at index 1"):
            ProblemInstance(A=DenseMatrix(a), b=np.ones(3))

    def test_underflowing_column_named(self):
        # 1e-170 squared underflows to zero, so the column's norm reads 0.0
        a = np.eye(3)
        a[:, 1] = 1e-170
        for A in (DenseMatrix(a), SparseMatrixCSC.from_dense(a)):
            assert A.column_norms()[1] == 0.0
            with pytest.raises(ValueError, match="column 1 .* underflows") as info:
                ProblemInstance(A=A, b=np.ones(3))
            assert not isinstance(info.value, ZeroColumnError)

    @pytest.mark.parametrize("exponent", [-55, -60, -80, -100])
    @pytest.mark.parametrize(
        "storage", [DenseMatrix, SparseMatrixCSC.from_dense], ids=["dense", "csc"]
    )
    def test_underflowing_scale_refused(self, storage, exponent):
        # full rank, but a step's squared norms ||s||^2 and ||A_tau eta||^2 underflow
        a = gen_gaussian_dense(200, 20, seed=0).to_dense() * 10.0**exponent
        x_star = np.random.default_rng(1).standard_normal(20)
        with pytest.raises(
            ValueError, match=r"largest column norm .*, largest \|b_i\| .*; rescale them"
        ):
            ProblemInstance(A=storage(a), b=a @ x_star, x_star=x_star)

    @pytest.mark.parametrize("exponent", [-50, -53])
    @pytest.mark.parametrize("method", ["cd", "fbcd", "mrbgs", "madbcd", "cs-madbcd"])
    def test_scale_above_the_floor_solves(self, method, exponent):
        a = gen_gaussian_dense(200, 20, seed=0).to_dense() * 10.0**exponent
        x_star = np.random.default_rng(1).standard_normal(20)
        problem = ProblemInstance(A=DenseMatrix(a), b=a @ x_star, x_star=x_star)
        params = MethodParams(method, d_factor=4 if method == "cs-madbcd" else None)
        report = run_solver(problem, params, StoppingRule(1e-12, 20000), sketch_seed=1)
        assert report.stop_reason == "converged: rse threshold"

    def test_zero_rhs_is_not_refused_at_any_scale(self):
        problem = ProblemInstance(A=DenseMatrix(np.eye(3) * 1e-100), b=np.zeros(3))
        assert not problem.b.any()

    def test_non_finite_rhs_named(self):
        b = np.ones(3)
        b[2] = np.nan
        with pytest.raises(ValueError, match="non-finite entry at index 2"):
            ProblemInstance(A=DenseMatrix(np.eye(3)), b=b)

    @pytest.mark.parametrize("bad", [np.inf, np.nan, 1e200])
    def test_non_finite_matrix_column_named(self, bad):
        a = np.eye(3)
        a[0, 1] = bad
        for A in (DenseMatrix(a), SparseMatrixCSC.from_dense(a)):
            # b = A 1 inherits the bad entry, and the matrix is still named
            for b in (np.ones(3), A.matvec(np.ones(3))):
                with pytest.raises(
                    ValueError, match="column 1 has a non-finite entry or overflowing norm"
                ):
                    ProblemInstance(A=A, b=b)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_reference_solution_named(self, bad):
        x_star = np.ones(3)
        x_star[1] = bad
        with pytest.raises(
            ValueError, match="reference solution has a non-finite entry at index 1"
        ):
            ProblemInstance(A=DenseMatrix(np.eye(3)), b=np.ones(3), x_star=x_star)

    def test_reference_solution_length(self):
        with pytest.raises(
            ValueError, match=r"reference solution must have length 3, got shape \(2,\)"
        ):
            ProblemInstance(A=DenseMatrix(np.eye(3)), b=np.ones(3), x_star=np.ones(2))

    def test_all_zero_reference_solution_refused(self):
        with pytest.raises(ValueError, match="all zeros.*undefined.*omit x_star"):
            ProblemInstance(A=DenseMatrix(np.eye(3)), b=np.ones(3), x_star=np.zeros(3))

    def test_rhs_length(self):
        with pytest.raises(ValueError, match="length 2"):
            ProblemInstance(A=DenseMatrix(np.eye(2)), b=np.ones(3))

    def test_unflagged_consistent_system_is_consistent(self, rng):
        a = rng.standard_normal((400, 20))
        x_star = rng.standard_normal(20)
        problem = ProblemInstance(A=DenseMatrix(a), b=a @ x_star, x_star=x_star)
        assert problem.consistent
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cs_prepare(problem, 80, seed=1)

    def test_perturbed_rhs_is_inconsistent_and_warns(self, rng):
        a = rng.standard_normal((400, 20))
        x_star = rng.standard_normal(20)
        b = a @ x_star + 1e-3 * rng.standard_normal(400)
        problem = ProblemInstance(A=DenseMatrix(a), b=b, x_star=x_star)
        assert not problem.consistent
        with pytest.warns(UserWarning, match="inconsistent"):
            cs_prepare(problem, 80, seed=1)


class TestConsistentIsComputedOnFirstRead:
    @staticmethod
    def count_matvecs(monkeypatch, cls):
        calls = []
        original = cls.matvec

        def counted(self, x):
            calls.append(1)
            return original(self, x)

        monkeypatch.setattr(cls, "matvec", counted)
        return calls

    @pytest.mark.parametrize("storage", [DenseMatrix, SparseMatrixCSC.from_dense])
    def test_construction_runs_no_matvec_and_the_first_read_runs_one(
        self, monkeypatch, rng, storage
    ):
        a = rng.standard_normal((30, 5))
        x_star = rng.standard_normal(5)
        A = storage(a)
        calls = self.count_matvecs(monkeypatch, type(A))
        problem = ProblemInstance(A=A, b=a @ x_star, x_star=x_star)
        assert calls == []
        assert problem.consistent and problem.consistent
        assert calls == [1]

    def test_consistent_cannot_be_declared(self):
        with pytest.raises(TypeError):
            ProblemInstance(A=DenseMatrix(np.eye(3)), b=np.ones(3), consistent=True)

    @pytest.mark.parametrize(
        "A", [gen_gaussian_dense(200, 10, 1), gen_sparse_gaussian(200, 10, 0.3, 1)]
    )
    def test_cs_prepare_after_the_first_read_runs_no_matvec(self, monkeypatch, A):
        problem = make_consistent_problem(A, seed=2)
        assert problem.consistent
        calls = self.count_matvecs(monkeypatch, type(A))
        sketched, _ = cs_prepare(problem, 40, seed=3)
        assert calls == []
        assert "consistent" not in vars(sketched)


class TestTraceRay:
    def test_horizontal_ray_row_of_ones(self):
        cols, lens = trace_ray((0.0, 0.5), (1.0, 0.0), grid_side=6)
        assert cols.tolist() == [0, 1, 2, 3, 4, 5]
        assert_allclose(lens, np.ones(6))

    def test_diagonal_through_single_pixel(self):
        cols, lens = trace_ray((0.0, 0.0), (1.0, 1.0), grid_side=1)
        assert cols.tolist() == [0]
        assert lens[0] == pytest.approx(np.sqrt(2.0))

    def test_missing_ray_is_empty(self):
        cols, lens = trace_ray((0.0, 10.0), (1.0, 0.0), grid_side=4)
        assert cols.size == 0 and lens.size == 0

    def test_vertical_ray(self):
        cols, lens = trace_ray((2.5, -3.0), (0.0, 1.0), grid_side=4)
        assert cols.tolist() == [2, 6, 10, 14]
        assert_allclose(lens, np.ones(4))


    def test_zero_direction_refused(self):
        with pytest.raises(ValueError, match="ray direction must be nonzero"):
            trace_ray([1.0, 1.0], [0.0, 0.0], 4)


class TestTomography:
    def test_row_sums_conserve_chord_length(self):
        p = gen_tomography(8, phantom="blocks", seed=1)
        # 24 of the 16 x 12 rays miss the grid at axis-aligned angles
        assert p.A.rows == 168
        a = p.A.to_dense()
        row_sums = a.sum(axis=1)
        # independent oracle: clip each kept ray against the bounding square;
        # the fixed geometry is 2N angles over [0, pi) and ceil(1.5 N) detectors
        n, n_angles, n_detectors = 8, 16, 12
        kept = 0
        offsets = np.arange(n_detectors) - (n_detectors - 1) / 2.0
        for theta in np.arange(n_angles) * np.pi / n_angles:
            d = np.array([np.cos(theta), np.sin(theta)])
            perp = np.array([-np.sin(theta), np.cos(theta)])
            for off in offsets:
                p0 = np.array([n / 2.0, n / 2.0]) + off * perp
                tmin, tmax = -np.inf, np.inf
                miss = False
                for axis in (0, 1):
                    if abs(d[axis]) < 1e-14:
                        if not 0.0 < p0[axis] < n:
                            miss = True
                    else:
                        t1, t2 = (0.0 - p0[axis]) / d[axis], (n - p0[axis]) / d[axis]
                        tmin = max(tmin, min(t1, t2))
                        tmax = min(tmax, max(t1, t2))
                if miss or not tmax - tmin > 1e-12:
                    continue
                assert row_sums[kept] == pytest.approx(tmax - tmin, abs=1e-10)
                kept += 1
        assert kept == p.A.rows

    @pytest.mark.parametrize(
        "grid_side, rows, nnz",
        [(4, 44, 164), (8, 168, 1328), (16, 644, 10444), (32, 2604, 83484)],
    )
    def test_default_geometry_sizes(self, grid_side, rows, nnz):
        # 2N angles x ceil(1.5 N) detectors, less the rays that miss the grid
        p = gen_tomography(grid_side)
        assert (p.A.rows, p.A.nnz) == (rows, nnz)

    def test_no_zero_columns_and_consistency(self):
        p = gen_tomography(16)
        assert np.all(p.A.column_norms() > 0)
        assert p.consistent
        assert p.A.rows == 644

    def test_solver_recovers_phantom(self):
        p = gen_tomography(16)
        assert p.A.rows == 644
        report = run_solver(
            p,
            MethodParams("madbcd", 0.3),
            StoppingRule(rse_threshold=1e-6, max_iterations=100000),
        )
        assert report.converged
        assert report.records[-1].rse < 1e-6

    def test_blocks_phantom_is_seeded(self):
        p1 = gen_tomography(8, phantom="blocks", seed=3)
        p2 = gen_tomography(8, phantom="blocks", seed=3)
        p3 = gen_tomography(8, phantom="blocks", seed=4)
        assert p1.A.rows == p2.A.rows == p3.A.rows == 168
        assert np.array_equal(p1.x_star, p2.x_star)
        assert not np.array_equal(p1.x_star, p3.x_star)

    def test_grid_side_below_four_refused(self):
        with pytest.raises(ValueError, match="grid side must be >= 4, got 3"):
            gen_tomography(3)

    def test_unknown_phantom(self):
        with pytest.raises(ValueError, match="phantom"):
            gen_tomography(8, phantom="gradient")

    def test_head_phantom_value_range(self):
        p = gen_tomography(16, phantom="shepp-logan-like")
        assert p.A.rows == 644
        assert p.x_star.min() >= 0.0
        assert 1.9 <= p.x_star.max() <= 2.1
        assert np.linalg.norm(p.x_star) > 0.0


_GENERAL = "%%MatrixMarket matrix coordinate real general\n"


class TestMatrixMarket:
    def test_golden_identity(self, tmp_path):
        path = tmp_path / "ident.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment line\n"
            "2 2 2\n"
            "1 1 1.0\n"
            "2 2 1.0\n"
        )
        A = read_matrix_market(path)
        assert_allclose(A.to_dense(), np.eye(2))

    def test_pattern_entries_become_ones(self, tmp_path):
        path = tmp_path / "p.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate pattern general\n"
            "2 3 2\n"
            "1 2\n"
            "2 3\n"
        )
        A = read_matrix_market(path)
        expected = np.zeros((2, 3))
        expected[0, 1] = expected[1, 2] = 1.0
        assert_allclose(A.to_dense(), expected)

    def test_symmetric_expansion_against_mirror_oracle(self, tmp_path):
        path = tmp_path / "s.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 4\n"
            "1 1 2.0\n"
            "2 1 -1.0\n"
            "3 2 0.5\n"
            "3 3 4.0\n"
        )
        A = read_matrix_market(path).to_dense()
        lower = np.array([[2.0, 0, 0], [-1.0, 0, 0], [0, 0.5, 4.0]])
        mirrored = lower + lower.T - np.diag(np.diag(lower))
        assert_allclose(A, mirrored)

    def test_duplicates_are_summed(self, tmp_path):
        path = tmp_path / "d.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 1.0\n1 1 2.5\n2 2 1.0\n"
        )
        assert read_matrix_market(path).to_dense()[0, 0] == pytest.approx(3.5)

    @pytest.mark.parametrize("seed", range(20))
    def test_write_read_round_trip(self, tmp_path, seed):
        _, _, sp = random_sparse(15, 8, 0.3, seed=seed)
        path = tmp_path / f"rt{seed}.mtx"
        write_matrix_market(path, sp)
        back = read_matrix_market(path)
        assert np.array_equal(back.indptr, sp.indptr)
        assert np.array_equal(back.row_indices, sp.row_indices)
        assert np.array_equal(back.values, sp.values)

    def test_transpose_flag_on_wide_matrix(self, tmp_path, rng):
        # stored wide (30 x 200); the transpose flag yields the tall solve form
        a = rng.standard_normal((30, 200))
        a[rng.random((30, 200)) > 0.1] = 0.0
        a[0, :] = 1.0  # no zero columns once transposed
        sp = SparseMatrixCSC.from_dense(a)
        path = tmp_path / "wide.mtx"
        write_matrix_market(path, sp)
        tall = read_matrix_market(path, transpose=True)
        assert tall.shape == (200, 30)
        assert_allclose(tall.to_dense(), a.T)

    def test_error_complex_field(self, tmp_path):
        path = tmp_path / "c.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n")
        with pytest.raises(MatrixMarketError, match="complex"):
            read_matrix_market(path)

    def test_error_missing_banner(self, tmp_path):
        path = tmp_path / "b.mtx"
        path.write_text("1 1 1\n1 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="banner"):
            read_matrix_market(path)

    def test_error_out_of_bounds_with_line_number(self, tmp_path):
        path = tmp_path / "o.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n"
        )
        with pytest.raises(MatrixMarketError, match=r":3: index \(3, 1\)"):
            read_matrix_market(path)

    def test_error_truncated_entries(self, tmp_path):
        path = tmp_path / "t.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="declared 2"):
            read_matrix_market(path)

    def test_error_entry_count_beyond_the_file(self, tmp_path):
        path = tmp_path / "huge.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "% a count no file of this length can hold\n"
            "3 3 100000000000000\n1 1 1.0\n2 2 1.0\n"
        )
        with pytest.raises(MatrixMarketError, match=":3: declared 100000000000000 entries"):
            read_matrix_market(path)

    def test_error_array_format(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n0.0\n0.0\n1.0\n")
        with pytest.raises(MatrixMarketError, match="coordinate"):
            read_matrix_market(path)

    @pytest.mark.parametrize(
        "text, message, line",
        [
            ("", "empty file", 1),
            ("%%MatrixMarket vector coordinate real general\n1 1 1\n1 1 1.0\n",
             "unsupported object 'vector'", 1),
            ("%%MatrixMarket matrix coordinate double general\n1 1 1\n1 1 1.0\n",
             "unsupported field 'double'", 1),
            ("%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1.0\n",
             "unsupported symmetry 'hermitian'", 1),
            (_GENERAL + "% a comment\n\n2 2\n1 1 1.0\n",
             "size line must be 'rows cols nnz'", 4),
            (_GENERAL + "2 two 1\n1 1 1.0\n", "bad size line '2 two 1'", 2),
            (_GENERAL + "% only a comment\n\n", "missing size line", 3),
            (_GENERAL, "missing size line", 1),
            (_GENERAL + "0 2 1\n1 1 1.0\n", "invalid dimensions (0, 2, 1)", 2),
            (_GENERAL + "2 2 1\n1 1\n", "expected 3 tokens per entry, got 2", 3),
            (_GENERAL + "2 2 1\n1 1 1.0\n2 2 1.0\n", "more than the declared 1 entries", 4),
            (_GENERAL + "2 2 1\n% a comment\n1 x 1.0\n", "bad entry '1 x 1.0'", 4),
            (_GENERAL + "2 2 2\n1 1 1.0\n% padding\n% padding\n",
             "declared 2 entries but found 1", 5),
            ("%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 1 1.0\n",
             "symmetric matrices must be square", 1),
        ],
        ids=["empty", "object", "field", "symmetry", "size-tokens", "size-value",
             "no-size-line", "banner-only", "dimensions", "entry-tokens", "extra-entry",
             "entry-value", "missing-entry", "symmetric-not-square"],
    )
    def test_refusal_names_its_line(self, tmp_path, text, message, line):
        path = tmp_path / "r.mtx"
        path.write_text(text)
        with pytest.raises(MatrixMarketError) as info:
            read_matrix_market(path)
        assert info.value.line_no == line
        assert str(info.value) == f"{path}:{line}: {message}"

    def test_comment_and_blank_lines_between_entries_are_skipped(self, tmp_path):
        path = tmp_path / "gaps.mtx"
        path.write_text(_GENERAL + "\n% size next\n2 2 2\n1 1 1.0\n\n% between\n  \n2 2 3.0\n")
        assert_allclose(read_matrix_market(path).to_dense(), np.diag([1.0, 3.0]))


class TestProblemBundle:
    def test_round_trip_with_reference_solution(self, tmp_path):
        problem = make_consistent_problem(gen_sparse_gaussian(40, 6, 0.3, 1), 2, label="x")
        write_problem_bundle(tmp_path / "bundle", problem)
        back = read_problem_bundle(tmp_path / "bundle")
        assert back.consistent
        assert np.array_equal(back.b, problem.b)
        assert np.array_equal(back.x_star, problem.x_star)
        assert np.array_equal(back.A.values, problem.A.values)
        assert back.label == "bundle"

    def test_round_trip_without_reference_solution(self, tmp_path, rng):
        problem = ProblemInstance(
            A=DenseMatrix(rng.standard_normal((10, 3))), b=rng.standard_normal(10)
        )
        write_problem_bundle(tmp_path / "nb", problem)
        back = read_problem_bundle(tmp_path / "nb")
        assert back.x_star is None
        assert not back.consistent
        assert_allclose(back.b, problem.b)


# "{dir}" stands for a bundle directory holding A.mtx
@pytest.mark.parametrize(
    "text, expected",
    [
        ("gaussian:200:30", {"kind": "gaussian", "m": 200, "n": 30}),
        ("sparse:300:20:0.2", {"kind": "sparse-gaussian", "m": 300, "n": 20, "density": 0.2}),
        ("tomo:8", {"kind": "tomography", "grid_side": 8}),
        ("tomo:8:blocks", {"kind": "tomography", "grid_side": 8, "phantom": "blocks"}),
        ("{dir}/A.mtx", {"kind": "mtx", "path": "{dir}/A.mtx", "transpose": False}),
        ("{dir}/A.mtx:T", {"kind": "mtx", "path": "{dir}/A.mtx", "transpose": True}),
        ("{dir}", {"kind": "bundle", "path": "{dir}"}),
    ],
)
def test_parse_problem_grammar(tmp_path, text, expected):
    write_problem_bundle(tmp_path, make_consistent_problem(gen_gaussian_dense(6, 3, 1), 2))

    def fill(v):
        return v.format(dir=tmp_path) if isinstance(v, str) else v

    expected = {k: fill(v) for k, v in expected.items()}
    spec = parse_problem(fill(text))
    assert spec == expected
    # == holds between 200 and 200.0, so the types are compared too
    assert [type(v) for v in spec.values()] == [type(v) for v in expected.values()]
    assert _problem_spec(spec) == spec


@pytest.mark.parametrize("text", ["hilbert:3", "gaussian:1:2:3", "gaussian:50:abc", "tomo:8:blocks:x"])
def test_parse_problem_refuses(text):
    with pytest.raises(ValueError, match="cannot parse"):
        parse_problem(text)


def test_cli_forms_fill_no_bool_field():
    for kind in CLI_FORMS.values():
        required, optional = PROBLEM_FIELDS[kind]
        # parse_problem converts by calling the type, and bool("false") is True
        assert bool not in {**required, **optional}.values()
