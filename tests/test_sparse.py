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


def to_scipy(A):
    """scipy copy of ``A``, built from its public arrays."""
    return sps.csr_matrix((A.values.copy(), A.col_indices.copy(),
                           A.row_offsets.copy()), shape=(A.nrows, A.ncols))


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
        assert np.array_equal(got, to_scipy(A) @ x)
        if nrows == 30:
            assert np.any(np.diff(A.row_offsets) == 0)
            assert np.any(A.values == 0.0)


def test_spmv_accepts_strided_integer_and_list_vectors():
    rng = np.random.default_rng(13)
    A = random_with_empty_rows_and_zeros(rng, 20, 20)
    wide = rng.uniform(-1, 1, 40)
    m = to_scipy(A)
    assert np.array_equal(spmv(A, wide[::2]), m @ wide[::2])
    ints = np.arange(-10, 10)
    assert np.array_equal(spmv(A, ints), m @ ints.astype(np.float64))
    listed = [float(v) for v in wide[:20]]
    assert np.array_equal(spmv(A, listed), m @ wide[:20])


def test_setup_and_solve_do_not_use_scipy_matvec_dispatch(monkeypatch):
    # Setup and solve run scipy's kernels on the matrices' own arrays: no
    # scipy matrix is built, no product goes through ``@``, and no product
    # pays for scipy's symbolic sizing pass.
    def refuse(*args, **kwargs):
        raise AssertionError('setup or solve went through a scipy matrix')

    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, _ = build_advection_2d(AdvectionProblem(nx=32, ny=32, vx=vx, vy=vy))
    monkeypatch.setattr(_compressed._cs_matrix, '_matmul_vector', refuse)
    monkeypatch.setattr(_compressed._cs_matrix, '__init__', refuse)
    monkeypatch.setattr(sparse._sparsetools, 'csr_matmat_maxnnz', refuse)
    H = setup(A, SetupConfig())
    b = np.random.default_rng(14).uniform(-1, 1, A.nrows)
    x, stats = richardson_solve(H, b, np.zeros(A.nrows), SolveConfig())
    assert stats.converged
    assert np.linalg.norm(b - spmv(A, x)) <= 1e-10 * np.linalg.norm(b)


def test_only_sparse_module_imports_scipy():
    """One module owns the sparse backend: only ``sparse.py`` imports scipy,
    its one scipy name is the compiled-kernel module ``_sparsetools``, and
    no other module names ``_sparsetools`` or a scipy matrix view."""
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
                imported += [f'{node.module}.{alias.name}'
                             for alias in node.names]
        scipy_names = [m for m in imported if m.split('.')[0] == 'scipy']
        if path.name == 'sparse.py':
            assert scipy_names == ['scipy.sparse._sparsetools']
        else:
            assert not scipy_names, path.name
            assert '_sparsetools' not in text, path.name
            assert not re.search(r'\b_(from_)?scipy\b', text), path.name


def test_no_module_calls_linalg_norm():
    """Norms that feed decisions come from ``sparse._norm``, whose summation
    order is fixed; ``np.linalg.norm`` reaches a BLAS that splits long sums
    by thread count."""
    src = pathlib.Path(__file__).resolve().parents[1] / 'src' / 'airmg'
    calls = []
    for path in sorted(src.glob('*.py')):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == 'norm'
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == 'linalg'):
                calls.append(f'{path.name}:{node.lineno}')
    assert calls == []


def test_only_sparse_module_names_an_index_width():
    """One index width: matrix indices are ``sparse._INDEX`` (int32, scipy's
    own width), and index sets that gather or scatter are ``np.intp``.  No
    other module names a fixed integer width, as ``np.int64`` or as a dtype
    string."""
    src = pathlib.Path(__file__).resolve().parents[1] / 'src' / 'airmg'
    widths = {'int32', 'int64'}
    named = []
    for path in sorted(src.glob('*.py')):
        if path.name == 'sparse.py':
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if ((isinstance(node, ast.Attribute) and node.attr in widths)
                    or (isinstance(node, ast.Constant)
                        and node.value in widths)
                    or (isinstance(node, ast.Name) and node.id in widths)):
                named.append(f'{path.name}:{node.lineno}')
    assert named == []
    assert sparse._INDEX is np.int32


def airmg_imports(path):
    """Names of the airmg modules that a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            dotted = (['airmg.' + node.module] if node.module
                      else ['airmg.' + alias.name for alias in node.names])
        elif isinstance(node, ast.ImportFrom):
            dotted = [node.module + '.' + alias.name for alias in node.names]
        else:
            continue
        names.update(d.split('.')[1] for d in dotted
                     if d.startswith('airmg.'))
    return names


def test_modules_import_only_lower_layers():
    """The library is layered, so a result computed in one layer reaches the
    next by value: ``solve`` reports the flop count that ``setup`` stored
    instead of importing ``hierarchy`` to recount it.  The command line and
    the package ``__init__`` sit on top and may import any module."""
    allowed = {
        'sparse': set(),
        'problems': {'sparse'},
        'splitting': {'sparse'},
        'polynomial': {'sparse'},
        'hierarchy': {'polynomial', 'sparse', 'splitting'},
        'solve': {'polynomial', 'sparse'},
    }
    src = pathlib.Path(__file__).resolve().parents[1] / 'src' / 'airmg'
    modules = {path.stem for path in src.glob('*.py')}
    assert set(allowed) == modules - {'__init__', 'cli'}
    for name, may in allowed.items():
        extra = airmg_imports(src / f'{name}.py') - may
        assert not extra, (name, sorted(extra))


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
    lo, hi = C.row_offsets[0], C.row_offsets[1]
    cols, vals = C.col_indices[lo:hi], C.values[lo:hi]
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
    # Kernel output with rows deliberately unsorted, in buffers longer than
    # the entries: every value must stay with its column, and the kept
    # arrays are trimmed in place, not views of the buffers.
    m = sps.csr_matrix((np.array([3.0, 1.0, 2.0, 5.0, 4.0]),
                        np.array([2, 0, 1, 3, 0]),
                        np.array([0, 3, 3, 5])), shape=(3, 4))
    assert not m.has_sorted_indices
    expected = m.toarray()
    cols = np.concatenate([m.indices, np.full(3, -1, dtype=np.int32)])
    values = np.concatenate([m.data, np.full(3, np.nan)])
    got = sparse._finish(3, 4, m.indptr.copy(), cols, values)
    validate(got)
    assert np.array_equal(got.row_offsets, [0, 3, 3, 5])
    assert np.array_equal(got.col_indices, [0, 1, 2, 0, 3])
    assert np.array_equal(got.to_dense(), expected)
    for arr in (got.col_indices, got.values):
        assert arr.base is None and arr.size == 5


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


def cancelling_sparse(rng, nrows, ncols, density=0.35):
    """Random CSR with empty rows and stored explicit zeros whose values,
    drawn from a few small integers, make products and sums cancel
    exactly."""
    keep = rng.random((nrows, ncols)) < density
    keep[rng.random(nrows) < 0.2] = False
    rows, cols = np.nonzero(keep)
    values = rng.choice([-2.0, -1.0, 1.0, 2.0], size=len(rows))
    values[rng.random(len(rows)) < 0.1] = 0.0
    return SparseMatrix.from_coo(nrows, ncols, rows, cols, values)


def assert_equals_scipy(got, m):
    """``got`` holds the bits of the scipy result ``m``, rows sorted."""
    m = m.tocsr()
    m.sort_indices()
    validate(got)
    assert (got.nrows, got.ncols) == m.shape
    assert np.array_equal(got.row_offsets, m.indptr)
    assert np.array_equal(got.col_indices, m.indices)
    assert np.array_equal(got.values.view(np.uint64), m.data.view(np.uint64))


KERNEL_SHAPES = [(30, 30, 30), (7, 9, 5), (9, 7, 12), (1, 1, 1), (0, 4, 3),
                 (4, 0, 3), (5, 6, 0), (0, 0, 0)]


@pytest.mark.parametrize('m, k, n', KERNEL_SHAPES)
def test_kernels_bitwise_equal_scipy_public_operations(m, k, n):
    """``spgemm``, ``_add``, ``spgemm_fixed_sparsity`` and ``extract`` run
    scipy's kernels directly and give the bits of scipy's ``@``, ``+``,
    ``.multiply`` and fancy indexing."""
    rng = np.random.default_rng(1000 + 100 * m + 10 * k + n)
    cancelled = 0
    for _ in range(4):
        A, B = cancelling_sparse(rng, m, k), cancelling_sparse(rng, k, n)
        C = random_with_empty_rows_and_zeros(rng, m, k)
        product = to_scipy(A) @ to_scipy(B)
        assert_equals_scipy(spgemm(A, B), product)
        assert_equals_scipy(spgemm(C, B), to_scipy(C) @ to_scipy(B))
        # Positions with a nonzero term whose terms sum to exactly zero.
        cancelled += (abs(to_scipy(A)) @ abs(to_scipy(B))).nnz - product.nnz
        assert_equals_scipy(sparse._add(A, C), to_scipy(A) + to_scipy(C))
        P = random_with_empty_rows_and_zeros(rng, m, n)
        unit = sps.csr_matrix((np.ones(P.nnz), P.col_indices, P.row_offsets),
                              shape=(m, n))
        assert_equals_scipy(spgemm_fixed_sparsity(A, B, P),
                            product.multiply(unit))
        rows = np.flatnonzero(rng.random(m) < 0.6)
        cols = np.flatnonzero(rng.random(k) < 0.6)
        assert_equals_scipy(extract(A, rows, cols), to_scipy(A)[rows][:, cols])
    if m == k == n == 30:
        assert cancelled > 0
        assert np.any(A.values == 0.0) and np.any(np.diff(A.row_offsets) == 0)


def test_product_count_past_the_index_width(monkeypatch):
    """A product whose multiply-add count exceeds the index width is sized
    by scipy's exact symbolic count; one whose entries exceed it is
    refused."""
    calls = []
    real = sparse._sparsetools.csr_matmat_maxnnz

    def counting(*args):
        calls.append(args)
        return real(*args)

    full = SparseMatrix.from_dense(np.arange(1.0, 17.0).reshape(4, 4))
    column = SparseMatrix.from_dense(np.ones((5, 1)))
    row = SparseMatrix.from_dense(np.ones((1, 5)))
    monkeypatch.setattr(sparse._sparsetools, 'csr_matmat_maxnnz', counting)
    monkeypatch.setattr(sparse, '_INDEX_MAX', 20)
    want = to_scipy(full) @ to_scipy(full)
    # 16 multiply-adds: the count is the bound.
    assert_equals_scipy(spgemm(full, SparseMatrix.identity(4)), to_scipy(full))
    assert calls == []
    # 64 multiply-adds for 16 entries.
    assert_equals_scipy(spgemm(full, full), want)
    assert_equals_scipy(spgemm_fixed_sparsity(full, full, full), want)
    assert len(calls) == 2
    # 25 multiply-adds for 25 entries.
    with pytest.raises(ValueError, match='int32 range'):
        spgemm(column, row)


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
    assert list(got.col_indices[got.row_offsets[1]:got.row_offsets[2]]) == [1]
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


def _matrix_of_kind(kind, rng, nrows, ncols):
    if kind == 'diagonal':
        return SparseMatrix.csr(nrows, nrows, np.arange(nrows + 1),
                                np.arange(nrows), rng.uniform(1, 2, nrows))
    if kind == 'one per row':
        return SparseMatrix.csr(nrows, ncols, np.arange(nrows + 1),
                                rng.integers(0, ncols, nrows),
                                rng.uniform(-1.0, 1.0, nrows))
    return random_sparse(rng, nrows, ncols, 0.2)


@pytest.mark.parametrize('kind', ['general', 'one per row', 'diagonal'])
@pytest.mark.parametrize('moved', ['rows', 'cols', 'both', 'symmetric'])
def test_permute_matches_dense_indexing_bitwise(kind, moved):
    # Every path of ``_permute``: general rows (the transposes when a row
    # comes out unsorted, ``csr_row_index`` otherwise), one entry per row,
    # and a diagonal permuted on both sides.  The result is canonical and
    # holds the input's values, bit for bit.
    rng = np.random.default_rng(len(kind) + len(moved))
    n = 40
    A = _matrix_of_kind(kind, rng, n, n if moved == 'symmetric' else 30)
    rows = sparse._permutation(rng.permutation(A.nrows))
    cols = (rows if moved == 'symmetric'
            else sparse._permutation(rng.permutation(A.ncols)))
    if moved == 'rows':
        cols = None
    if moved == 'cols':
        rows = None
    got = validate(sparse._permute(A, rows, cols, sparse._row_lengths(A)))
    want = A.to_dense()
    if rows is not None:
        want = want[rows.order]
    if cols is not None:
        want = want[:, cols.order]
    assert np.array_equal(got.to_dense(), want)
    assert np.array_equal(np.sort(got.values.view(np.uint64)),
                          np.sort(A.values.view(np.uint64)))
    assert got.row_offsets.dtype == got.col_indices.dtype == np.int32


def test_permute_with_no_permutation_is_the_matrix():
    A = random_sparse(np.random.default_rng(5), 6, 6, 0.5)
    assert sparse._permute(A, None, None, sparse._row_lengths(A)) is A


def test_permutation_inverts_the_order():
    order = np.random.default_rng(6).permutation(50)
    got, inverse = sparse._permutation(order)
    assert got.dtype == np.intp and inverse.dtype == np.int32
    assert np.array_equal(inverse[order], np.arange(50))


@pytest.mark.parametrize('spans', [(3, 1, 4), (300, 200, 2), (70000, 3, 1),
                                   (5, 1, 1)])
def test_stable_order_is_lexsort_of_the_keys(spans):
    # Packed into 16 bits, into 32 bits, and with a key whose values lie
    # far above 16 bits; a constant key is left out and the positions in
    # order already give None.
    rng = np.random.default_rng(sum(spans))
    n = 2000
    keys = [(1 << 17) + rng.integers(0, span, n).astype(np.int32)
            for span in spans]
    want = np.lexsort(keys[::-1])
    got = sparse._stable_order(keys[0], None, *keys[1:])
    assert np.array_equal(got, want)
    assert sparse._stable_order(*(k[want] for k in keys)) is None
    assert sparse._stable_order(np.full(n, 3, dtype=np.int32)) is None


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
    lo, hi = got.row_offsets[0], got.row_offsets[1]
    cols, vals = got.col_indices[lo:hi], got.values[lo:hi]
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
    # Diagonals inserted at a row's start (row 0), mid-row (rows 1 and 3)
    # and at a row's end (row 2), all in one call; row 4 lumps onto the
    # diagonal it stores.
    D = np.array([[0.0, 1.0, 0.0, 0.0, 1e-9],
                  [1.0, 0.0, 2.0, 1e-9, 0.0],
                  [3.0, 1e-9, 0.0, 0.0, 0.0],
                  [1.0, 2e-9, 0.0, 0.0, 5.0],
                  [1e-9, 0.0, 0.0, 0.0, 1.0]])
    got = validate(drop_and_lump(SparseMatrix.from_dense(D), 1e-6, lump=True))
    want = np.where(np.abs(D) < 1e-6, 0.0, D)
    want[np.diag_indices(5)] += [1e-9, 1e-9, 1e-9, 2e-9, 1e-9]
    assert np.array_equal(got.to_dense(), want)
    assert got.nnz == np.count_nonzero(want)


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


def test_outside_input_must_fit_the_index_width(tmp_path):
    # 2**32 + 5 narrowed by a plain cast is 5, a valid column of an 8-column
    # matrix; 2**31 + 5 would wrap negative.  Both are refused, not wrapped.
    for col in (2 ** 32 + 5, 2 ** 31 + 5):
        cols = np.array([0, col, 1], dtype=np.int64)
        with pytest.raises(ValueError, match='int32 range'):
            SparseMatrix.csr(3, 8, [0, 1, 2, 3], cols, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match='int32 range'):
            SparseMatrix.from_coo(3, 8, [0, 1, 2], cols, [1.0, 2.0, 3.0])
        path = tmp_path / 'wide.mtx'
        path.write_text('%%MatrixMarket matrix coordinate real general\n'
                        f'3 8 3\n1 1 1.0\n2 {col + 1} 2.0\n3 2 3.0\n')
        with pytest.raises(ValueError, match='int32 range'):
            read_matrix_market(path)
    # Dimensions and entry counts are checked before any array is narrowed.
    with pytest.raises(ValueError, match='int32 range'):
        SparseMatrix.csr(1, 2 ** 31, [0, 1], [2 ** 31 - 1], [1.0])
    with pytest.raises(ValueError, match='int32 range'):
        SparseMatrix.from_coo(2 ** 31, 1, [0], [0], [1.0])
    path = tmp_path / 'tall.mtx'
    path.write_text('%%MatrixMarket matrix coordinate real general\n'
                    f'{2 ** 31} 1 1\n1 1 1.0\n')
    with pytest.raises(ValueError, match='int32 range'):
        read_matrix_market(path)
    wide = sps.csr_matrix(([1.0], [2 ** 31 + 5], [0, 1]),
                          shape=(1, 2 ** 31 + 6))
    assert wide.indices.dtype == np.int64
    with pytest.raises(ValueError, match='int32 range'):
        SparseMatrix.csr(1, wide.shape[1], wide.indptr, wide.indices,
                         wide.data)


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
