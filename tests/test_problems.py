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
    TomoGeometry,
    default_tomo_geometry,
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
            with pytest.raises(
                ValueError, match="column 1 has a non-finite entry or overflowing norm"
            ):
                ProblemInstance(A=A, b=np.ones(3))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_reference_solution_named(self, bad):
        x_star = np.ones(3)
        x_star[1] = bad
        with pytest.raises(
            ValueError, match="reference solution has a non-finite entry at index 1"
        ):
            ProblemInstance(A=DenseMatrix(np.eye(3)), b=np.ones(3), x_star=x_star)

    def test_all_zero_reference_solution_refused(self):
        with pytest.raises(ValueError, match="all zeros.*undefined.*omit x_star"):
            ProblemInstance(A=DenseMatrix(np.eye(3)), b=np.ones(3), x_star=np.zeros(3))

    def test_rhs_length(self):
        with pytest.raises(ValueError, match="length 2"):
            ProblemInstance(A=DenseMatrix(np.eye(2)), b=np.ones(3))

    def test_consistency_flag_checked(self):
        with pytest.raises(ValueError, match="flagged consistent"):
            ProblemInstance(
                A=DenseMatrix(np.eye(2)),
                b=np.array([1.0, 1.0]),
                x_star=np.array([5.0, 5.0]),
                consistent=True,
            )


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


class TestTomography:
    def test_row_sums_conserve_chord_length(self):
        geom = default_tomo_geometry(8)
        with pytest.warns(UserWarning):
            p = gen_tomography(geom, "blocks", seed=1)
        a = p.A.to_dense()
        row_sums = a.sum(axis=1)
        # independent oracle: clip each kept ray against the bounding square
        n = geom.grid_side
        kept = 0
        offsets = (np.arange(geom.n_detectors) - (geom.n_detectors - 1) / 2.0)
        offsets = offsets * geom.detector_spacing
        for theta in geom.angles:
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

    def test_no_zero_columns_and_consistency(self):
        geom = TomoGeometry(16, np.arange(30) * np.pi / 30, 24, 1.0)
        with pytest.warns(UserWarning):
            p = gen_tomography(geom)
        assert np.all(p.A.column_norms() > 0)
        assert p.consistent
        assert p.A.rows > 16 * 16

    def test_solver_recovers_phantom(self):
        geom = TomoGeometry(16, np.arange(30) * np.pi / 30, 24, 1.0)
        with pytest.warns(UserWarning):
            p = gen_tomography(geom)
        report = run_solver(
            p,
            MethodParams("madbcd", 0.3),
            StoppingRule(rse_threshold=1e-6, max_iterations=100000),
        )
        assert report.converged
        assert report.records[-1].rse < 1e-6

    def test_too_few_rays_rejected(self):
        geom = TomoGeometry(8, np.array([0.0]), 8, 1.0)
        with pytest.raises(ValueError, match="overdetermined"):
            gen_tomography(geom)

    def test_blocks_phantom_is_seeded(self):
        geom = default_tomo_geometry(8)
        with pytest.warns(UserWarning):
            p1 = gen_tomography(geom, "blocks", seed=3)
        with pytest.warns(UserWarning):
            p2 = gen_tomography(geom, "blocks", seed=3)
        with pytest.warns(UserWarning):
            p3 = gen_tomography(geom, "blocks", seed=4)
        assert np.array_equal(p1.x_star, p2.x_star)
        assert not np.array_equal(p1.x_star, p3.x_star)

    def test_unknown_phantom(self):
        geom = default_tomo_geometry(8)
        with pytest.raises(ValueError, match="phantom"):
            gen_tomography(geom, "gradient")

    def test_head_phantom_value_range(self):
        geom = default_tomo_geometry(16)
        with pytest.warns(UserWarning):
            p = gen_tomography(geom, "shepp-logan-like")
        assert p.x_star.min() >= 0.0
        assert 1.9 <= p.x_star.max() <= 2.1
        assert np.linalg.norm(p.x_star) > 0.0


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

    def test_error_array_format(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text("%%MatrixMarket matrix array real general\n2 2\n1.0\n0.0\n0.0\n1.0\n")
        with pytest.raises(MatrixMarketError, match="coordinate"):
            read_matrix_market(path)


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
