"""Sparse kernel tests against dense numpy oracles."""

import ast
import pathlib
import re

import numpy as np
import pytest
import scipy.sparse as sps
from scipy.sparse import _compressed

from airmg import (AdvectionProblem, SetupConfig, SolveConfig, SparseMatrix,
                   build_advection_2d, diagonal, drop_and_lump, extract,
                   read_matrix_market, richardson_solve, setup, spgemm,
                   spgemm_fixed_sparsity, spmv, validate, write_matrix_market)
from airmg import sparse
from structural_spgemm import assert_same_without_zeros, structural_spgemm


def random_sparse(rng, nrows, ncols, density):
    mask = rng.random((nrows, ncols)) < density
    dense = np.where(mask, rng.uniform(-1.0, 1.0, (nrows, ncols)), 0.0)
    return SparseMatrix.from_dense(dense)


def test_spmv_identity():
    I3 = SparseMatrix.identity(3)
    assert np.array_equal(spmv(I3, [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_spmv_scaled_identity():
    D = SparseMatrix.from_dense(2.0 * np.eye(2))
    assert np.array_equal(spmv(D, [1.0, 1.0]), [2.0, 2.0])


def test_spmv_matches_dense_oracle():
    rng = np.random.default_rng(11)
    A = random_sparse(rng, 5, 5, 0.4)
    x = rng.uniform(-1, 1, 5)
    expected = A.to_dense() @ x
    got = spmv(A, x)
    assert np.linalg.norm(got - expected) <= 1e-14 * max(np.linalg.norm(expected), 1)


def test_spmv_dimension_mismatch():
    with pytest.raises(ValueError, match='vector of length 4 incompatible '
                                         'with 3x3 matrix'):
        spmv(SparseMatrix.identity(3), np.ones(4))


def random_with_empty_rows_and_zeros(rng, nrows, ncols):
    """Random CSR with some empty rows and some stored explicit zeros."""
    dense = random_sparse(rng, nrows, ncols, 0.3).to_dense()
    dense[rng.random(nrows) < 0.3] = 0.0
    pattern = dense != 0
    pattern |= rng.random((nrows, ncols)) < 0.05
    rows, cols = np.nonzero(pattern)
    return SparseMatrix.from_coo(nrows, ncols, rows, cols, dense[rows, cols])


def test_spmv_bitwise_equals_scipy_matmul():
    rng = np.random.default_rng(12)
    for nrows, ncols in [(30, 30), (17, 45), (45, 17), (0, 6), (6, 0), (0, 0)]:
        A = random_with_empty_rows_and_zeros(rng, nrows, ncols)
        x = rng.uniform(-1, 1, ncols)
        got = spmv(A, x)
        assert got.dtype == np.float64 and got.shape == (nrows,)
        assert np.array_equal(got, A._scipy @ x)
        if nrows == 30:
            assert np.any(np.diff(A.row_offsets) == 0)
            assert np.any(A.values == 0.0)


def test_spmv_accepts_strided_integer_and_list_vectors():
    rng = np.random.default_rng(13)
    A = random_with_empty_rows_and_zeros(rng, 20, 20)
    wide = rng.uniform(-1, 1, 40)
    assert np.array_equal(spmv(A, wide[::2]), A._scipy @ wide[::2])
    ints = np.arange(-10, 10)
    assert np.array_equal(spmv(A, ints), A._scipy @ ints.astype(np.float64))
    listed = [float(v) for v in wide[:20]]
    assert np.array_equal(spmv(A, listed), A._scipy @ wide[:20])


def test_setup_and_solve_do_not_use_scipy_matvec_dispatch(monkeypatch):
    def refuse(self, other):
        raise AssertionError('a product went through csr_matrix @ vector')

    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, _ = build_advection_2d(AdvectionProblem(nx=32, ny=32, vx=vx, vy=vy))
    monkeypatch.setattr(_compressed._cs_matrix, '_matmul_vector', refuse)
    H = setup(A, SetupConfig())
    b = np.random.default_rng(14).uniform(-1, 1, A.nrows)
    x, stats = richardson_solve(H, b, np.zeros(A.nrows), SolveConfig())
    assert stats.converged
    assert np.linalg.norm(b - spmv(A, x)) <= 1e-10 * np.linalg.norm(b)


def test_only_sparse_module_imports_scipy():
    """One module owns the sparse backend: only ``sparse.py`` imports scipy,
    and scipy's private ``_sparsetools``, the cached ``_scipy`` views and
    ``SparseMatrix._from_scipy`` are named nowhere else."""
    src = pathlib.Path(__file__).resolve().parents[1] / 'src' / 'airmg'
    modules = sorted(src.glob('*.py'))
    assert any(path.name == 'sparse.py' for path in modules)
    for path in modules:
        text = path.read_text()
        imported = []
        for node in ast.walk(ast.parse(text, filename=str(path))):
            if isinstance(node, ast.Import):
                imported += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append(node.module)
        uses_scipy = any(m.split('.')[0] == 'scipy' for m in imported)
        if path.name == 'sparse.py':
            assert uses_scipy
        else:
            assert not uses_scipy, path.name
            assert '_sparsetools' not in text, path.name
            assert not re.search(r'\b_(from_)?scipy\b', text), path.name


def test_spgemm_identity_left_bit_identical():
    rng = np.random.default_rng(5)
    B = random_sparse(rng, 6, 4, 0.5)
    C = spgemm(SparseMatrix.identity(6), B)
    assert np.array_equal(C.values, B.values)
    assert np.array_equal(C.col_indices, B.col_indices)
    assert np.array_equal(C.row_offsets, B.row_offsets)


def test_spgemm_identity_right():
    rng = np.random.default_rng(6)
    A = random_sparse(rng, 4, 6, 0.5)
    C = spgemm(A, SparseMatrix.identity(6))
    assert np.array_equal(C.to_dense(), A.to_dense())


def test_spgemm_matches_dense_oracle():
    rng = np.random.default_rng(7)
    A = random_sparse(rng, 6, 6, 0.45)
    B = random_sparse(rng, 6, 6, 0.45)
    got = spgemm(A, B)
    validate(got)
    expected = A.to_dense() @ B.to_dense()
    assert np.max(np.abs(got.to_dense() - expected)) <= 1e-14


def test_spgemm_retains_cancellation_zeros():
    # The structural-pattern reference product, which setup's products are
    # checked against, keeps (0, 0): it cancels exactly but stays stored.
    A = SparseMatrix.from_dense([[1.0, -1.0], [0.0, 2.0]])
    B = SparseMatrix.from_dense([[1.0, 0.0], [1.0, 0.0]])
    C = structural_spgemm(A, B)
    assert C.nnz == 2
    cols, vals = C.row(0)
    assert list(cols) == [0] and vals[0] == 0.0


def test_spgemm_numeric_drops_cancellation_zeros():
    # spgemm forms the numeric product only and does not store (0, 0).
    A = SparseMatrix.from_dense([[1.0, -1.0], [0.0, 2.0]])
    B = SparseMatrix.from_dense([[1.0, 0.0], [1.0, 0.0]])
    C = spgemm(A, B)
    validate(C)
    assert C.nnz == 1
    ref = structural_spgemm(A, B)
    assert np.array_equal(C.to_dense(), ref.to_dense())
    assert_same_without_zeros(C, ref)


def test_from_scipy_sorts_unsorted_rows():
    # rows deliberately unsorted; every value must stay with its column
    m = sps.csr_matrix((np.array([3.0, 1.0, 2.0, 5.0, 4.0]),
                        np.array([2, 0, 1, 3, 0]),
                        np.array([0, 3, 3, 5])), shape=(3, 4))
    assert not m.has_sorted_indices
    expected = m.toarray()
    got = SparseMatrix._from_scipy(m)
    validate(got)
    assert np.array_equal(got.row_offsets, [0, 3, 3, 5])
    assert np.array_equal(got.col_indices, [0, 1, 2, 0, 3])
    assert np.array_equal(got.to_dense(), expected)


def test_spgemm_dimension_mismatch():
    with pytest.raises(ValueError):
        spgemm(SparseMatrix.identity(3), SparseMatrix.identity(4))


def test_spgemm_associativity():
    rng = np.random.default_rng(8)
    for _ in range(5):
        A = random_sparse(rng, 5, 6, 0.5)
        B = random_sparse(rng, 6, 4, 0.5)
        C = random_sparse(rng, 4, 7, 0.5)
        left = spgemm(spgemm(A, B), C).to_dense()
        right = spgemm(A, spgemm(B, C)).to_dense()
        scale = max(np.max(np.abs(left)), 1.0)
        assert np.max(np.abs(left - right)) <= 1e-12 * scale


def test_fixed_sparsity_full_pattern_is_unrestricted():
    rng = np.random.default_rng(9)
    A = random_sparse(rng, 5, 5, 0.6)
    full = SparseMatrix.from_dense(np.ones((5, 5)))
    got = spgemm_fixed_sparsity(A, SparseMatrix.identity(5), full)
    assert np.array_equal(got.to_dense(), A.to_dense())


def test_fixed_sparsity_tridiagonal_power():
    n = 7
    dense = (np.diag(np.full(n, 2.0)) + np.diag(np.full(n - 1, -1.0), -1)
             + np.diag(np.full(n - 1, -0.5), 1))
    T = SparseMatrix.from_dense(dense)
    got = spgemm_fixed_sparsity(T, T, T)
    expected = dense @ dense
    expected[dense == 0.0] = 0.0  # mask to tridiagonal positions
    assert np.max(np.abs(got.to_dense() - expected)) <= 1e-14


def test_fixed_sparsity_diagonal_pattern():
    rng = np.random.default_rng(10)
    A = random_sparse(rng, 6, 6, 0.5)
    B = random_sparse(rng, 6, 6, 0.5)
    got = spgemm_fixed_sparsity(A, B, SparseMatrix.identity(6))
    expected = np.diag(np.diag(A.to_dense() @ B.to_dense()))
    assert np.max(np.abs(got.to_dense() - expected)) <= 1e-14
    # Pattern values only mark positions: an explicit zero keeps its
    # position and non-unit values do not scale the product.
    weights = np.array([3.0, 0.0, -2.0, 0.5, 7.0, 1e-3])
    marked = SparseMatrix.csr(6, 6, np.arange(7), np.arange(6), weights)
    got = spgemm_fixed_sparsity(A, B, marked)
    assert list(got.row(1)[0]) == [1]
    assert np.array_equal(got.to_dense(),
                          np.diag(np.diag(spgemm(A, B).to_dense())))


def test_fixed_sparsity_shape_errors():
    I3 = SparseMatrix.identity(3)
    with pytest.raises(ValueError):
        spgemm_fixed_sparsity(I3, SparseMatrix.identity(4), I3)
    with pytest.raises(ValueError):
        spgemm_fixed_sparsity(I3, I3, SparseMatrix.identity(4))


def test_extract_all_is_identity_operation():
    rng = np.random.default_rng(12)
    A = random_sparse(rng, 5, 5, 0.5)
    idx = np.arange(5)
    got = extract(A, idx, idx)
    assert np.array_equal(got.to_dense(), A.to_dense())


def test_extract_matches_dense_indexing():
    rng = np.random.default_rng(13)
    A = random_sparse(rng, 4, 4, 0.7)
    got = extract(A, [0, 2], [1, 3])
    expected = A.to_dense()[np.ix_([0, 2], [1, 3])]
    assert np.array_equal(got.to_dense(), expected)


def test_extract_empty_rows():
    rng = np.random.default_rng(14)
    A = random_sparse(rng, 4, 4, 0.7)
    got = extract(A, [], [0, 1, 2])
    assert got.nrows == 0 and got.ncols == 3 and got.nnz == 0


def test_extract_out_of_range():
    A = SparseMatrix.identity(3)
    with pytest.raises(ValueError):
        extract(A, [0, 5], [0])
    with pytest.raises(ValueError):
        extract(A, [1, 0], [0])  # not increasing


def test_extract_block_reassembly_roundtrip():
    rng = np.random.default_rng(15)
    A = random_sparse(rng, 9, 9, 0.5)
    f = np.array([0, 2, 3, 7])
    c = np.array([1, 4, 5, 6, 8])
    blocks = {(a, b): extract(A, ra, cb).to_dense()
              for a, ra in (('f', f), ('c', c)) for b, cb in (('f', f), ('c', c))}
    top = np.hstack([blocks[('f', 'f')], blocks[('f', 'c')]])
    bottom = np.hstack([blocks[('c', 'f')], blocks[('c', 'c')]])
    reassembled = np.vstack([top, bottom])
    perm = np.concatenate([f, c])
    assert np.array_equal(reassembled, A.to_dense()[np.ix_(perm, perm)])
    total_nnz = sum(extract(A, ra, cb).nnz
                    for ra in (f, c) for cb in (f, c))
    assert total_nnz == A.nnz


def test_drop_and_lump_zero_tolerance_is_identity():
    rng = np.random.default_rng(16)
    A = random_sparse(rng, 6, 6, 0.5)
    got = drop_and_lump(A, 0.0, lump=True)
    assert np.array_equal(got.values, A.values)
    assert np.array_equal(got.col_indices, A.col_indices)


def test_drop_and_lump_single_row_example():
    A = SparseMatrix.from_dense([[2.0, 1e-8, -1.0],
                                 [0.0, 1.0, 0.0],
                                 [0.0, 0.0, 1.0]])
    got = drop_and_lump(A, 1e-6, lump=True)
    cols, vals = got.row(0)
    assert list(cols) == [0, 2]
    assert vals[0] == 2.0 + 1e-8 and vals[1] == -1.0
    assert abs(got.to_dense()[0].sum() - A.to_dense()[0].sum()) < 1e-16


def test_drop_and_lump_preserves_row_sums():
    rng = np.random.default_rng(17)
    for _ in range(5):
        A = random_sparse(rng, 8, 8, 0.6)
        got = drop_and_lump(A, 0.1, lump=True)
        before = A.to_dense().sum(axis=1)
        after = got.to_dense().sum(axis=1)
        assert np.max(np.abs(before - after)) <= 1e-14 * max(np.max(np.abs(before)), 1)


def test_drop_and_lump_inserts_missing_diagonal():
    A = SparseMatrix.from_dense([[0.0, 1.0, 1e-9], [1.0, 1.0, 0.0],
                                 [0.0, 0.0, 1.0]])
    got = drop_and_lump(A, 1e-6, lump=True)
    # row 0 has no stored diagonal; the dropped 1e-9 must land there
    assert got.to_dense()[0, 0] == 1e-9
    assert np.allclose(got.to_dense().sum(axis=1), A.to_dense().sum(axis=1))


def test_drop_and_lump_nonsquare_lump_error():
    rng = np.random.default_rng(18)
    A = random_sparse(rng, 3, 4, 0.5)
    with pytest.raises(ValueError):
        drop_and_lump(A, 0.1, lump=True)
    drop_and_lump(A, 0.1, lump=False)  # fine without lumping


def test_drop_and_lump_keep_diagonal_false_thresholds_every_entry():
    A = SparseMatrix.from_dense([[1e-3, 1.0, 0.5],
                                 [2.0, 1e-3, 0.0]])
    assert drop_and_lump(A, 0.01, lump=False).nnz == 5
    got = drop_and_lump(A, 0.01, lump=False, keep_diagonal=False)
    assert np.array_equal(got.to_dense(), [[0.0, 1.0, 0.5], [2.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        drop_and_lump(SparseMatrix.identity(2), 0.1, lump=True,
                      keep_diagonal=False)


def test_diagonal_of_strictly_lower_triangular():
    A = SparseMatrix.from_dense(np.tril(np.ones((5, 5)), -1))
    assert np.array_equal(diagonal(A), np.zeros(5))


def test_diagonal_reads_stored_values():
    A = SparseMatrix.from_dense([[3.0, 1.0], [0.0, -2.0]])
    assert np.array_equal(diagonal(A), [3.0, -2.0])


def test_validate_rejects_bad_matrices():
    ok = SparseMatrix.identity(3)
    validate(ok)
    with pytest.raises(ValueError):
        validate(SparseMatrix(2, 2, np.array([0, 1, 3]), np.array([0, 1, 1]),
                              np.array([1.0, 1.0, 1.0])))  # duplicate column
    with pytest.raises(ValueError):
        validate(SparseMatrix(2, 2, np.array([0, 1, 2]), np.array([0, 3]),
                              np.array([1.0, 1.0])))  # column out of range
    with pytest.raises(ValueError):
        validate(SparseMatrix(1, 1, np.array([0, 1]), np.array([0]),
                              np.array([np.nan])))


def test_from_coo_sums_duplicates():
    A = SparseMatrix.from_coo(2, 2, [0, 0, 1], [1, 1, 0], [2.0, 3.0, 1.0])
    assert A.nnz == 2
    assert A.to_dense()[0, 1] == 5.0


def test_matrix_market_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(20)
    A = random_sparse(rng, 9, 5, 0.4)
    path = tmp_path / 'matrix.mtx'
    write_matrix_market(A, path)
    B = read_matrix_market(path)
    assert B.nrows == A.nrows and B.ncols == A.ncols
    assert np.array_equal(B.values, A.values)
    assert np.array_equal(B.col_indices, A.col_indices)
    assert np.array_equal(B.row_offsets, A.row_offsets)


def test_matrix_market_empty_matrix_roundtrip(tmp_path):
    A = SparseMatrix(3, 5, np.zeros(4, dtype=np.int64),
                     np.zeros(0, dtype=np.int64), np.zeros(0))
    path = tmp_path / 'empty.mtx'
    write_matrix_market(A, path)
    B = read_matrix_market(path)
    assert B.nrows == 3 and B.ncols == 5 and B.nnz == 0


def test_matrix_market_rejects_other_formats(tmp_path):
    path = tmp_path / 'bad.mtx'
    path.write_text('%%MatrixMarket matrix coordinate complex general\n'
                    '1 1 1\n1 1 1.0 0.0\n')
    with pytest.raises(ValueError):
        read_matrix_market(path)
    path.write_text('%%MatrixMarket matrix coordinate real symmetric\n'
                    '2 2 1\n2 1 1.0\n')
    with pytest.raises(ValueError):
        read_matrix_market(path)
    path.write_text('%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n')
    with pytest.raises(ValueError):
        read_matrix_market(path)


def test_outside_input_must_be_finite(tmp_path):
    with pytest.raises(ValueError, match='finite'):
        SparseMatrix.from_coo(2, 2, [0, 1], [0, 1], [1.0, np.nan])
    with pytest.raises(ValueError, match='finite'):
        SparseMatrix.from_dense([[1.0, 0.0], [np.inf, 2.0]])
    path = tmp_path / 'nan.mtx'
    path.write_text('%%MatrixMarket matrix coordinate real general\n'
                    '2 2 2\n1 1 nan\n2 1 inf\n')
    with pytest.raises(ValueError, match='finite'):
        read_matrix_market(path)


def test_drop_and_lump_skips_rows_with_one_entry(monkeypatch):
    # A lone entry is its own row maximum: with rel_tol <= 1 the block comes
    # back as the same object, without building a row index.
    Z = SparseMatrix.csr(4, 5, [0, 1, 1, 2, 3], [4, 1, 3],
                         [1e-9, -3.0, 0.0])
    square = SparseMatrix.csr(3, 3, [0, 1, 2, 3], [2, 1, 0], [5.0, -1e-12, 2.0])

    def refuse(A):
        raise AssertionError('row index built')

    monkeypatch.setattr(sparse, '_row_index', refuse)
    for rel_tol in (1e-2, 1.0):
        assert drop_and_lump(Z, rel_tol, lump=False,
                             keep_diagonal=False) is Z
        assert drop_and_lump(Z, rel_tol, lump=False) is Z
        assert drop_and_lump(square, rel_tol, lump=True) is square
    monkeypatch.undo()
    # rel_tol > 1 puts every nonzero lone entry below its threshold.
    out = drop_and_lump(Z, 1.5, lump=False, keep_diagonal=False)
    assert np.array_equal(out.row_offsets, [0, 0, 0, 0, 1])
    assert np.array_equal(out.col_indices, [3])
    assert np.array_equal(out.values, [0.0])
    kept = drop_and_lump(square, 1.5, lump=False)
    assert np.array_equal(kept.col_indices, [1])
