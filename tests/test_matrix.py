import numpy as np
import pytest
from numpy.testing import assert_allclose

from blockcd import DenseMatrix, SparseMatrixCSC

from conftest import random_sparse


class TestMatvec:
    def test_identity(self):
        A = DenseMatrix(np.eye(2))
        assert_allclose(A.matvec(np.array([1.0, 2.0])), [1.0, 2.0])

    def test_direct_arithmetic(self):
        A = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
        assert_allclose(A.matvec(np.array([1.0, 1.0])), [3.0, 7.0])

    def test_sparse_matches_densify_oracle(self):
        a, _, sp = random_sparse(7, 4, 0.5, seed=11)
        x = np.random.default_rng(0).standard_normal(4)
        assert_allclose(sp.matvec(x), a @ x, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        A = DenseMatrix(np.eye(3))
        with pytest.raises(ValueError, match="expected vector of length 3"):
            A.matvec(np.ones(4))
        with pytest.raises(ValueError, match="expected vector of length 3"):
            SparseMatrixCSC.from_dense(np.eye(3)).matvec(np.ones(2))


class TestTransposeMatvec:
    def test_identity(self):
        A = DenseMatrix(np.eye(2))
        assert_allclose(A.transpose_matvec(np.array([3.0, 4.0])), [3.0, 4.0])

    def test_direct_arithmetic(self):
        A = DenseMatrix([[1.0, 0.0], [0.0, 2.0], [1.0, 1.0]])
        assert_allclose(A.transpose_matvec(np.ones(3)), [2.0, 3.0])

    def test_sparse_matches_densify_oracle(self):
        a, _, sp = random_sparse(9, 5, 0.4, seed=3)
        r = np.random.default_rng(1).standard_normal(9)
        assert_allclose(sp.transpose_matvec(r), a.T @ r, rtol=1e-12, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="transpose_matvec"):
            DenseMatrix(np.eye(3)).transpose_matvec(np.ones(2))

    @pytest.mark.parametrize(
        "empty", [[0], [2], [4], [1, 2], [0, 3, 4], [0, 1, 2, 3, 4]]
    )
    def test_sparse_with_empty_columns(self, empty):
        # leading, interior, trailing and all-empty columns: an empty CSC
        # segment must give exactly 0, never a neighbouring column's entry
        a, _, _ = random_sparse(8, 5, 0.6, seed=len(empty))
        a[:, empty] = 0.0
        sp = SparseMatrixCSC.from_dense(a)
        r = np.random.default_rng(4).standard_normal(8)
        s = sp.transpose_matvec(r)
        assert_allclose(s, a.T @ r, rtol=1e-12, atol=1e-12)
        assert np.all(s[empty] == 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_sparse_matches_sequential_column_sums(self, seed):
        _, _, sp = random_sparse(400, 30, 0.3, seed=seed)
        r = np.random.default_rng(seed).standard_normal(400)
        s = sp.transpose_matvec(r)
        for j in range(sp.cols):
            lo, hi = sp.indptr[j], sp.indptr[j + 1]
            terms = sp.values[lo:hi] * r[sp.row_indices[lo:hi]]
            seq = 0.0
            for t in terms:
                seq += t
            # every order lies within (len - 1) * eps/2 * sum|terms| of the exact sum
            bound = 2 * (hi - lo) * np.finfo(np.float64).eps * np.abs(terms).sum()
            assert abs(s[j] - seq) <= bound


class TestRestrictedMatvec:
    def test_identity_single_column(self):
        A = DenseMatrix(np.eye(2))
        out = A.restricted_matvec(np.array([1]), np.array([2.0]))
        assert_allclose(out, [0.0, 2.0])

    def test_consistency_with_matvec(self):
        A = DenseMatrix([[1.0, 2.0], [3.0, 4.0]])
        out = A.restricted_matvec(np.array([0, 1]), np.array([1.0, 1.0]))
        assert_allclose(out, A.matvec(np.array([1.0, 1.0])))

    @pytest.mark.parametrize("seed", range(5))
    def test_sparse_matches_padded_matvec(self, seed):
        a, dn, sp = random_sparse(20, 8, 0.4, seed=seed)
        rng = np.random.default_rng(seed + 100)
        idx = np.sort(rng.choice(8, size=3, replace=False))
        vals = rng.standard_normal(3)
        padded = np.zeros(8)
        padded[idx] = vals
        for A in (dn, sp):
            assert_allclose(
                A.restricted_matvec(idx, vals), A.matvec(padded), rtol=1e-14, atol=1e-14
            )

    def test_index_out_of_range(self):
        A = DenseMatrix(np.eye(2))
        with pytest.raises(ValueError, match="out of range"):
            A.restricted_matvec(np.array([2]), np.array([1.0]))

    @pytest.mark.parametrize("storage", [DenseMatrix, SparseMatrixCSC.from_dense],
                             ids=["dense", "csc"])
    def test_direction_length_mismatch(self, storage):
        A = storage(np.eye(3))
        with pytest.raises(ValueError, match="equal length"):
            A.restricted_matvec(np.array([0, 2]), np.array([1.0]))

    @pytest.mark.parametrize("storage", [DenseMatrix, SparseMatrixCSC.from_dense],
                             ids=["dense", "csc"])
    def test_two_dimensional_indices_refused(self, storage):
        A = storage(np.eye(3))
        with pytest.raises(ValueError, match="one-dimensional"):
            A.restricted_matvec(np.array([[0, 1]]), np.array([[1.0, 1.0]]))
        with pytest.raises(ValueError, match="one-dimensional"):
            A.gather_columns(np.array([[0], [1]]))


class TestColumnNorms:
    def test_identity(self):
        assert_allclose(DenseMatrix(np.eye(3)).column_norms(), np.ones(3))

    def test_three_four_five(self):
        assert_allclose(DenseMatrix([[3.0], [4.0]]).column_norms(), [5.0])

    def test_sparse_matches_densify_oracle(self):
        a, _, sp = random_sparse(15, 6, 0.3, seed=7)
        assert_allclose(
            sp.column_norms(), np.linalg.norm(a, axis=0), rtol=1e-12
        )


@pytest.mark.parametrize("seed", range(10))
def test_adjointness_property(seed):
    a, dn, sp = random_sparse(11, 6, 0.5, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    x = rng.standard_normal(6)
    r = rng.standard_normal(11)
    for A in (dn, sp):
        lhs = np.dot(A.matvec(x), r)
        rhs = np.dot(x, A.transpose_matvec(r))
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("seed", range(5))
def test_dense_and_csc_agree_on_all_kernels(seed):
    a, dn, sp = random_sparse(14, 7, 0.4, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(7)
    r = rng.standard_normal(14)
    idx = np.sort(rng.choice(7, size=3, replace=False))
    vals = rng.standard_normal(3)
    assert_allclose(dn.matvec(x), sp.matvec(x), rtol=1e-12, atol=1e-12)
    assert_allclose(
        dn.transpose_matvec(r), sp.transpose_matvec(r), rtol=1e-12, atol=1e-12
    )
    assert_allclose(
        dn.restricted_matvec(idx, vals),
        sp.restricted_matvec(idx, vals),
        rtol=1e-12,
        atol=1e-12,
    )
    assert_allclose(dn.column_norms(), sp.column_norms(), rtol=1e-12)
    assert_allclose(dn.gather_columns(idx), sp.gather_columns(idx))
    assert_allclose(dn.to_dense(), sp.to_dense())


class TestConstruction:
    def test_dense_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="2-D"):
            DenseMatrix(np.ones(3))
        with pytest.raises(ValueError, match=">= 1"):
            DenseMatrix(np.ones((0, 2)))

    def test_from_coo_sums_duplicates(self):
        A = SparseMatrixCSC.from_coo(
            2, 2, [0, 0, 1], [0, 0, 1], [1.0, 2.0, 5.0]
        )
        assert A.nnz == 2
        assert_allclose(A.to_dense(), [[3.0, 0.0], [0.0, 5.0]])

    def test_from_coo_drops_cancellations(self):
        A = SparseMatrixCSC.from_coo(
            2, 2, [0, 0, 1], [0, 0, 0], [1.0, -1.0, 2.0]
        )
        assert A.nnz == 1
        assert_allclose(A.to_dense(), [[0.0, 0.0], [2.0, 0.0]])

    @pytest.mark.parametrize("seed", range(8))
    def test_from_coo_matches_unique_reference(self, seed):
        rng = np.random.default_rng(seed)
        m, n, k = 6, 5, 60 * (seed % 4)  # seed % 4 == 0 is the empty-triplet case
        ri = rng.integers(m, size=k)
        ci = rng.integers(n, size=k)
        # small integers make many duplicates sum, and some cancel, exactly
        v = rng.choice([-2.0, -1.0, 1.0, 2.0, 0.5], size=k)
        A = SparseMatrixCSC.from_coo(m, n, ri, ci, v)

        key = ci * m + ri
        order = np.argsort(key, kind="stable")
        key, vs = key[order], v[order]
        uniq, start = np.unique(key, return_index=True)
        summed = np.add.reduceat(vs, start) if vs.size else vs
        keep = summed != 0.0
        uniq, summed = uniq[keep], summed[keep]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(uniq // m, minlength=n), out=indptr[1:])

        np.testing.assert_array_equal(A.indptr, indptr)
        np.testing.assert_array_equal(A.row_indices, uniq % m)
        np.testing.assert_array_equal(A.values, summed)

    def test_rejects_explicit_zeros(self):
        with pytest.raises(ValueError, match="zero values"):
            SparseMatrixCSC(2, 1, [0, 2], [0, 1], [1.0, 0.0])

    def test_rejects_unsorted_rows(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseMatrixCSC(3, 1, [0, 2], [2, 0], [1.0, 2.0])

    def test_rejects_bad_indptr(self):
        with pytest.raises(ValueError, match="indptr"):
            SparseMatrixCSC(2, 2, [0, 2], [0, 1], [1.0, 1.0])
        with pytest.raises(ValueError, match="non-decreasing"):
            SparseMatrixCSC(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])

    def test_csc_rejects_no_rows(self):
        with pytest.raises(ValueError, match=r"dimensions must be >= 1, got \(0, 2\)"):
            SparseMatrixCSC(0, 2, [0, 0, 0], [], [])

    def test_rejects_indptr_end_other_than_the_entry_count(self):
        with pytest.raises(ValueError, match=r"indptr\[-1\] must equal"):
            SparseMatrixCSC(2, 1, [0, 2], [0], [1.0])

    @pytest.mark.parametrize(
        "rows, cols, vals, message",
        [
            ([0, 1], [0], [1.0, 2.0], "equal length"),
            ([0], [2], [1.0], r"column index out of range: valid range is \[0, 2\)"),
        ],
        ids=["unequal-lengths", "column-out-of-range"],
    )
    def test_from_coo_rejects_bad_triplets(self, rows, cols, vals, message):
        with pytest.raises(ValueError, match=message):
            SparseMatrixCSC.from_coo(2, 2, rows, cols, vals)

    def test_rejects_out_of_range_rows(self):
        with pytest.raises(ValueError, match="row index out of range"):
            SparseMatrixCSC(2, 1, [0, 1], [5], [1.0])
        with pytest.raises(ValueError, match="row index out of range"):
            SparseMatrixCSC.from_coo(2, 2, [3], [0], [1.0])

    def test_empty_pattern_is_legal_storage(self):
        # all-zero matrices are valid storage (problems reject them later)
        A = SparseMatrixCSC.from_coo(3, 2, [], [], [])
        assert A.nnz == 0
        assert_allclose(A.matvec(np.ones(2)), np.zeros(3))
        assert_allclose(A.transpose_matvec(np.ones(3)), np.zeros(2))
        assert_allclose(A.column_norms(), np.zeros(2))

    @pytest.mark.parametrize("seed", range(3))
    def test_csc_stores_no_per_entry_column_ids(self, seed):
        # indptr, row ids and values, plus the non-empty column starts; a
        # column id per stored entry would add another 8 bytes per entry
        _, _, sp = random_sparse(60, 8, 0.4, seed=seed)
        stored = sum(v.nbytes for v in vars(sp).values() if isinstance(v, np.ndarray))
        assert stored <= 16 * sp.nnz + 16 * (sp.cols + 1)

    def test_kernel_outputs_are_fresh(self):
        a, _, sp = random_sparse(6, 3, 0.6, seed=2)
        y = sp.matvec(np.ones(3))
        y[:] = 0.0
        assert_allclose(sp.matvec(np.ones(3)), a @ np.ones(3))

    def test_matrices_are_immutable(self):
        _, dn, sp = random_sparse(4, 3, 0.8, seed=5)
        with pytest.raises(ValueError):
            dn.array[0, 0] = 9.0
        with pytest.raises(ValueError):
            sp.values[0] = 9.0

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_dense_matrix_copies_the_callers_array(self, order):
        a = np.asarray(np.arange(6.0).reshape(3, 2), order=order)
        A = DenseMatrix(a)
        a[0, 0] = 9.0
        assert A.array[0, 0] == 0.0
        assert a.flags.writeable


@pytest.mark.parametrize("storage", [DenseMatrix, SparseMatrixCSC.from_dense])
def test_coordinate_step_is_the_one_column_block_step(storage):
    # an int column with a scalar value gives the one-column block's
    # products bit for bit; a dense kernel reads them from one row of G
    rng = np.random.default_rng(8)
    a = rng.standard_normal((30, 7)) * (rng.random((30, 7)) < 0.6)
    A = storage(a)
    kernel = A.normal_kernel(rng.standard_normal(30))
    for j, v in enumerate(rng.standard_normal(7)):
        g, denom = kernel.step(j, float(v))
        want_g, want_denom = kernel.step(np.array([j]), np.array([v]))
        assert np.array_equal(g, want_g) and denom == want_denom
        assert np.array_equal(kernel.step(np.int64(j), v)[0], g)
        if storage is DenseMatrix:
            gram = A.array.T @ A.array  # G as the kernel forms it
            assert np.array_equal(g, np.array([v]) @ gram[[j]])
            assert denom == float(np.dot([v], g[[j]]))
