"""Structural-pattern sparse product: the reference for setup's products.

``airmg.spgemm`` does not store entries that cancel to exactly zero.
``structural_spgemm`` keeps them as explicit zeros: it takes the pattern from
a counting product (every contribution is 1, so no entry cancels) and aligns
the values of a numeric scipy product, built from the public CSR arrays,
onto it.  With explicit zeros removed the two must agree bit for bit.
"""

import numpy as np
import scipy.sparse as sps

from airmg import SparseMatrix


def _csr(A, values):
    """scipy copy of ``A``'s pattern holding ``values``."""
    return sps.csr_matrix((values, A.col_indices, A.row_offsets),
                          shape=(A.nrows, A.ncols), copy=True)


def _keys(m):
    """Row-major linear keys of the entries of a sorted scipy CSR matrix."""
    rows = np.repeat(np.arange(m.shape[0], dtype=np.int64), np.diff(m.indptr))
    return rows * m.shape[1] + m.indices


def structural_spgemm(A, B):
    """``A @ B`` on the exact structural pattern of the product."""
    pattern = (_csr(A, np.ones(A.nnz)) @ _csr(B, np.ones(B.nnz))).tocsr()
    numeric = (_csr(A, A.values) @ _csr(B, B.values)).tocsr()
    pattern.sort_indices()
    numeric.sort_indices()
    values = np.zeros(pattern.nnz)
    values[np.searchsorted(_keys(pattern), _keys(numeric))] = numeric.data
    return SparseMatrix.csr(A.nrows, B.ncols, pattern.indptr, pattern.indices,
                            values)


def assert_same_without_zeros(got, expected):
    """Equal stored nonzeros, bit for bit, once explicit zeros are removed."""
    a, b = _csr(got, got.values), _csr(expected, expected.values)
    a.eliminate_zeros()
    b.eliminate_zeros()
    assert a.shape == b.shape
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data.view(np.uint64), b.data.view(np.uint64))
