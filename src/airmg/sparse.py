"""Compressed sparse row storage and the kernels shared by the whole solver stack.

Matrices are immutable after construction and always kept in canonical CSR
form: row offsets non-decreasing, column indices strictly increasing within
each row, no duplicate entries, no NaN/inf values.  Explicit zeros are legal
stored entries.  Products and sums (``spgemm``, ``spgemm_fixed_sparsity``,
``_add``) do not store entries that cancel to exactly zero; beyond that only
``drop_and_lump`` removes entries.

Row offsets and column indices are 0-based ``_INDEX`` (int32) integers,
scipy's own width for every matrix that fits it, so the cached scipy view
wraps them without a copy and a scipy result is kept as it comes.  The
entry points that take outside arrays refuse any dimension, entry count or
index that int32 cannot hold instead of letting it wrap.  Index arrays that
numpy gathers or scatters through (``extract``'s row and column sets, a
split's F and C points, the row of each entry from ``_row_index``) are
``np.intp``: numpy indexes through int32 arrays several times slower than
through its native width, so hot gathers through stored indices widen them
first.

Setup forms ``Z`` and both halves of ``R A P`` with the public ``spgemm``,
which ``hierarchy`` calls by name, so the benchmark's tracer, which rebinds
that name, sees every general product of setup.

Setup builds CSR in one of three ways: a scipy result (a product, a sum from
``_add``, a masked power sum from ``_masked_power_sum``, an elementwise mask)
becomes canonical in ``SparseMatrix._from_scipy``, which no other module
calls; a subset of a matrix's stored entries is taken by ``_keep_entries``;
operators with one entry per row (the one-point prolongator) are written
directly.  ``SparseMatrix.from_coo`` sorts and sums
coordinate triplets and is meant for outside input, such as test problems and
Matrix Market files.

scipy is the sparse backend, and this is the only module that imports it.
Products and conversions go through its public ``csr_matrix``.  ``spmv``
calls the CSR matrix-vector kernel of ``scipy.sparse._sparsetools``, the one
private scipy name used anywhere: it is the kernel that ``csr_matrix @ x``
reaches, so results are bitwise equal, but the solve makes thousands of
products with matrices of a few dozen rows, where the dispatch around
``@`` costs more than the kernel.

Inner products and norms that feed a decision come from ``_dot``/``_norm``,
whose order is fixed by the shapes; BLAS ``ddot`` splits long sums by thread.
"""

import io
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as _spsparse
from scipy.sparse import _sparsetools

__all__ = [
    'SparseMatrix',
    'validate',
    'spmv',
    'spgemm',
    'spgemm_fixed_sparsity',
    'extract',
    'drop_and_lump',
    'diagonal',
    'read_matrix_market',
    'write_matrix_market',
]

_INDEX = np.int32
_INDEX_MAX = int(np.iinfo(_INDEX).max)
_VALUE = np.float64


def _check_fits(nrows, ncols, nnz):
    """Refuse a shape or entry count whose indices ``_INDEX`` cannot hold."""
    if max(nrows, ncols, nnz) > _INDEX_MAX:
        raise ValueError(f'{nrows}x{ncols} matrix with {nnz} entries does '
                         f'not fit the {np.dtype(_INDEX).name} range')


def _as_offsets(arr):
    """``arr`` as a contiguous ``_INDEX`` array, refusing values that would
    wrap; an array already of that width is returned as it is."""
    arr = np.asarray(arr)
    if arr.dtype != _INDEX and arr.size:
        if arr.min() < -_INDEX_MAX - 1 or arr.max() > _INDEX_MAX:
            raise ValueError(f'index value outside the '
                             f'{np.dtype(_INDEX).name} range')
    return np.ascontiguousarray(arr, dtype=_INDEX)


def _as_values(arr):
    return np.ascontiguousarray(arr, dtype=_VALUE)


@dataclass(frozen=True, eq=False)
class SparseMatrix:
    """Real sparse matrix in canonical CSR form.

    Attributes
    ----------
    nrows, ncols : int
        Matrix dimensions.
    row_offsets : ndarray (int32, length nrows+1)
        Start of each row in ``col_indices``/``values``.
    col_indices : ndarray (int32)
        Column index of each stored entry, strictly increasing per row.
    values : ndarray (float64)
        Stored entry values; explicit zeros are permitted.
    """

    nrows: int
    ncols: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray

    @classmethod
    def csr(cls, nrows, ncols, row_offsets, col_indices, values):
        """Build from CSR arrays, validating canonical form."""
        _check_fits(nrows, ncols, len(values))
        return validate(cls(int(nrows), int(ncols), _as_offsets(row_offsets),
                            _as_offsets(col_indices), _as_values(values)))

    @classmethod
    def from_coo(cls, nrows, ncols, rows, cols, values):
        """Build from coordinate triplets; sorts entries and sums duplicates."""
        values = _as_values(values)
        if not (len(rows) == len(cols) == len(values)):
            raise ValueError('coordinate arrays must have equal length')
        _check_fits(nrows, ncols, len(values))
        rows = _as_offsets(rows)
        cols = _as_offsets(cols)
        if len(rows) and (rows.min() < 0 or rows.max() >= nrows
                          or cols.min() < 0 or cols.max() >= ncols):
            raise ValueError('coordinate entry out of range')
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        if len(rows):
            new = np.empty(len(rows), dtype=bool)
            new[0] = True
            new[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
            starts = np.flatnonzero(new)
            values = np.add.reduceat(values, starts)
            rows, cols = rows[starts], cols[starts]
        offsets = np.zeros(nrows + 1, dtype=_INDEX)
        np.cumsum(np.bincount(rows, minlength=nrows), out=offsets[1:])
        return cls.csr(nrows, ncols, offsets, cols, values)

    @classmethod
    def from_dense(cls, arr):
        """Build from a dense array, storing only nonzero entries."""
        arr = np.asarray(arr, dtype=_VALUE)
        if arr.ndim != 2:
            raise ValueError('expected a 2-D array')
        rows, cols = np.nonzero(arr)
        return cls.from_coo(arr.shape[0], arr.shape[1], rows, cols, arr[rows, cols])

    @classmethod
    def identity(cls, n):
        idx = np.arange(n, dtype=_INDEX)
        offsets = np.arange(n + 1, dtype=_INDEX)
        return cls(n, n, offsets, idx, np.ones(n, dtype=_VALUE))

    @classmethod
    def _from_scipy(cls, m):
        """Wrap a scipy CSR result whose rows hold no duplicate columns.

        scipy's int32 offsets and indices are kept as they are, not copied.
        Rows are sorted in place when the kernel left them unsorted, so pass
        only temporaries that nothing else holds.
        """
        m = m.tocsr()
        _check_fits(m.shape[0], m.shape[1], m.nnz)
        if not m.has_sorted_indices:
            m.sort_indices()
        return cls(int(m.shape[0]), int(m.shape[1]), _as_offsets(m.indptr),
                   _as_offsets(m.indices), _as_values(m.data))

    @cached_property
    def _scipy(self):
        """scipy CSR view sharing all three arrays, built on first use.

        The int32 offsets and column indices are scipy's own index width, so
        scipy wraps them without a copy and ``spmv`` reads ``col_indices``
        itself.
        """
        m = _spsparse.csr_matrix((self.values, self.col_indices, self.row_offsets),
                                 shape=(self.nrows, self.ncols), copy=False)
        m.has_sorted_indices = True
        return m

    @property
    def nnz(self):
        return int(self.row_offsets[-1])

    def to_dense(self):
        out = np.zeros((self.nrows, self.ncols), dtype=_VALUE)
        row_of = _row_index(self)
        out[row_of, self.col_indices] = self.values
        return out

    def row(self, i):
        """Column indices and values of row ``i`` (views, do not modify)."""
        lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
        return self.col_indices[lo:hi], self.values[lo:hi]

    def __repr__(self):
        return f'SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})'


def _row_index(A):
    """Row index of each stored entry, as a gather index (``np.intp``)."""
    return np.repeat(np.arange(A.nrows, dtype=np.intp), np.diff(A.row_offsets))


def _keep_entries(A, keep):
    """``A`` with only the stored entries where the boolean ``keep`` holds."""
    kept_before = np.zeros(A.nnz + 1, dtype=_INDEX)
    np.cumsum(keep, out=kept_before[1:])
    kept = np.flatnonzero(keep)
    return SparseMatrix(A.nrows, A.ncols,
                        kept_before[A.row_offsets.astype(np.intp)],
                        A.col_indices[kept], A.values[kept])


def _symmetric_pattern(A):
    """Row offsets and sorted column indices of the pattern of ``A + A^T``."""
    K = _spsparse.csr_matrix((np.ones(A.nnz, dtype=bool), A.col_indices,
                              A.row_offsets), shape=(A.nrows, A.ncols))
    closure = K + K.T.tocsr()
    closure.sort_indices()
    return _as_offsets(closure.indptr), _as_offsets(closure.indices)


def _row_max(values, row_of, nrows):
    """Per-row maximum of non-negative entry ``values`` (0 in empty rows);
    ``maximum.at`` beats ``reduceat`` several times over on short rows."""
    out = np.zeros(nrows, dtype=_VALUE)
    np.maximum.at(out, row_of, values)
    return out


def validate(A):
    """Check the canonical-form invariants, raising ``ValueError`` on violation."""
    offs, cols, vals = A.row_offsets, A.col_indices, A.values
    if A.nrows < 0 or A.ncols < 0:
        raise ValueError('negative dimension')
    if len(offs) != A.nrows + 1:
        raise ValueError('row_offsets has wrong length')
    if offs[0] != 0 or offs[-1] != len(cols) or len(cols) != len(vals):
        raise ValueError('row_offsets endpoints inconsistent with entry arrays')
    if np.any(np.diff(offs) < 0):
        raise ValueError('row_offsets must be non-decreasing')
    if len(cols):
        if cols.min() < 0 or cols.max() >= A.ncols:
            raise ValueError('column index out of range')
        row_of = _row_index(A)
        same = row_of[1:] == row_of[:-1]
        if not np.all(cols[1:][same] > cols[:-1][same]):
            raise ValueError('column indices must be strictly increasing within rows')
    if len(vals) and not np.all(np.isfinite(vals)):
        raise ValueError('stored values must be finite')
    return A


def spmv(A, x):
    """Sparse matrix-vector product ``A @ x`` into a new vector.

    Runs scipy's CSR kernel on the cached ``A._scipy`` view directly, the
    same kernel and summation order as ``A._scipy @ x`` without the dispatch.
    """
    x = np.asarray(x, dtype=_VALUE)
    if x.ndim != 1 or len(x) != A.ncols:
        raise ValueError(f'vector of length {len(x)} incompatible with '
                         f'{A.nrows}x{A.ncols} matrix')
    m = A._scipy
    y = np.zeros(A.nrows, dtype=_VALUE)
    _sparsetools.csr_matvec(A.nrows, A.ncols, m.indptr, m.indices, m.data, x, y)
    return y


def _dot(X, y):
    """``X . y`` for a vector or each matrix row, with no BLAS or temporary."""
    return np.einsum('...i,...i->...', X, y)


def _norm(y):
    """Euclidean norm of a vector, summed in ``_dot``'s fixed order."""
    return np.sqrt(_dot(y, y))


def _add(A, B):
    """``A + B`` from one scipy sum; exact cancellations are not stored."""
    return SparseMatrix._from_scipy(A._scipy + B._scipy)


def _masked_power_sum(coeffs, base, pattern):
    """``sum_k coeffs[k] * base^k``, summed left to right in scipy; exact
    cancellations are not stored.  Each power past ``base`` is the previous
    one times ``base`` kept to ``pattern``, formed by ``spgemm_fixed_sparsity``
    under its module name, so a tracer that rebinds the name sees each one."""
    acc = coeffs[0] * SparseMatrix.identity(base.nrows)._scipy
    power = base
    for k in range(1, len(coeffs)):
        if k > 1:
            power = spgemm_fixed_sparsity(power, base, pattern)
        acc = acc + coeffs[k] * power._scipy
    return SparseMatrix._from_scipy(acc)


def spgemm(A, B):
    """Sparse matrix-matrix product ``A @ B`` from one scipy product.

    Entries that cancel to exactly zero are not stored: they carry no value
    into the solve.
    """
    if A.ncols != B.nrows:
        raise ValueError(f'cannot multiply {A.nrows}x{A.ncols} by {B.nrows}x{B.ncols}')
    return SparseMatrix._from_scipy(A._scipy @ B._scipy)


def spgemm_fixed_sparsity(A, B, pattern):
    """Product ``A @ B`` restricted to the stored positions of ``pattern``.

    Entries of the true product outside the pattern are discarded, not lumped.
    As in ``spgemm``, entries that cancel to exactly zero are not stored,
    even inside the pattern.  The pattern's stored values, explicit zeros
    included, only mark positions: the unsorted scipy product is multiplied
    elementwise by a unit-valued copy of ``pattern`` and made canonical by
    ``SparseMatrix._from_scipy``, so only the kept entries are sorted.
    """
    if A.ncols != B.nrows:
        raise ValueError(f'cannot multiply {A.nrows}x{A.ncols} by {B.nrows}x{B.ncols}')
    if pattern.nrows != A.nrows or pattern.ncols != B.ncols:
        raise ValueError('pattern shape must match the product shape')
    mask = replace(pattern, values=np.ones(pattern.nnz, dtype=_VALUE))
    return SparseMatrix._from_scipy((A._scipy @ B._scipy).multiply(mask._scipy))


def _as_index_set(indices, limit, name):
    idx = np.ascontiguousarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ValueError(f'{name} index set must be one-dimensional')
    if len(idx):
        if idx[0] < 0 or idx[-1] >= limit:
            raise ValueError(f'{name} index out of range for dimension {limit}')
        if np.any(np.diff(idx) <= 0):
            raise ValueError(f'{name} index set must be strictly increasing')
    return idx


def extract(A, rows, cols):
    """Submatrix ``A[rows, cols]`` with contiguous renumbered indices.

    ``rows`` and ``cols`` must be strictly increasing index sets into ``A``.
    """
    rows = _as_index_set(rows, A.nrows, 'row')
    cols = _as_index_set(cols, A.ncols, 'column')
    row_member = np.zeros(A.nrows, dtype=bool)
    row_member[rows] = True
    col_member = np.zeros(A.ncols, dtype=bool)
    col_member[cols] = True
    kept = _keep_entries(A, np.repeat(row_member, np.diff(A.row_offsets))
                         & col_member[A.col_indices.astype(np.intp)])
    # Rows outside ``rows`` keep no entries, so each kept row ends where the
    # next one in ``rows`` starts.
    offsets = np.zeros(len(rows) + 1, dtype=_INDEX)
    offsets[1:] = kept.row_offsets[rows + 1]
    colmap = np.zeros(A.ncols, dtype=_INDEX)
    colmap[cols] = np.arange(len(cols), dtype=_INDEX)
    return SparseMatrix(len(rows), len(cols), offsets,
                        colmap[kept.col_indices.astype(np.intp)], kept.values)


def drop_and_lump(A, rel_tol, lump, keep_diagonal=True):
    """Drop small off-diagonal entries, optionally lumping them onto the diagonal.

    An off-diagonal entry is dropped when ``|a_ij| < rel_tol * max_k |a_ik|``
    (row-relative threshold).  Diagonal entries are never dropped.  With
    ``lump=True`` each dropped value is added to the row's diagonal, which
    preserves row sums; a diagonal entry is inserted if a row lumps mass but
    stores none.  ``keep_diagonal=False`` applies the threshold to every entry,
    for blocks such as the ``Z`` of a restriction whose ``(i, i)`` entries are
    not diagonal; it cannot be combined with lumping.
    """
    if rel_tol < 0:
        raise ValueError('rel_tol must be non-negative')
    if lump and A.nrows != A.ncols:
        raise ValueError('lumping requires a square matrix')
    if lump and not keep_diagonal:
        raise ValueError('lumping requires keep_diagonal')
    # A row's lone entry is its own row maximum, so it is never dropped.
    if (rel_tol == 0 or A.nnz == 0
            or (rel_tol <= 1 and np.diff(A.row_offsets).max() <= 1)):
        return A
    row_of = _row_index(A)
    rowmax = _row_max(np.abs(A.values), row_of, A.nrows)
    is_diag = (A.col_indices == row_of) & keep_diagonal
    keep = is_diag | (np.abs(A.values) >= rel_tol * rowmax[row_of])
    if np.all(keep):
        return A
    if not lump:
        return _keep_entries(A, keep)
    dropped = ~keep
    lumped = np.bincount(row_of[dropped], weights=A.values[dropped],
                         minlength=A.nrows)
    # Every stored diagonal is kept: it takes its row's dropped mass, and
    # rows that lump mass but store no diagonal get one inserted in place.
    diag_rows = row_of[is_diag]
    kept = _keep_entries(A, keep)
    kept.values[is_diag[keep]] += lumped[diag_rows]
    lumped[diag_rows] = 0.0
    insert = np.flatnonzero(lumped)
    if len(insert) == 0:
        return kept
    # An inserted diagonal goes after the kept entries of its row that lie
    # left of it.
    left = np.bincount(row_of[keep & (A.col_indices < row_of)],
                       minlength=A.nrows)
    pos = kept.row_offsets[insert] + left[insert]
    offsets = kept.row_offsets + np.searchsorted(
        insert, np.arange(A.nrows + 1)).astype(_INDEX)
    return SparseMatrix(A.nrows, A.ncols, offsets,
                        np.insert(kept.col_indices, pos, insert),
                        np.insert(kept.values, pos, lumped[insert]))


def diagonal(A):
    """Main diagonal as a dense vector; structurally missing entries are 0."""
    n = min(A.nrows, A.ncols)
    out = np.zeros(n, dtype=_VALUE)
    row_of = _row_index(A)
    hit = (A.col_indices == row_of) & (row_of < n)
    out[row_of[hit]] = A.values[hit]
    return out


def write_matrix_market(A, path):
    """Write in Matrix Market coordinate real general format.

    Values are printed with 17 significant digits so a read/write round trip
    reproduces every float64 exactly.
    """
    row_of = _row_index(A)
    with open(path, 'w') as fh:
        fh.write('%%MatrixMarket matrix coordinate real general\n')
        fh.write(f'{A.nrows} {A.ncols} {A.nnz}\n')
        for i, j, v in zip(row_of, A.col_indices, A.values):
            fh.write(f'{i + 1} {j + 1} {v:.16e}\n')


def read_matrix_market(path):
    """Read a Matrix Market coordinate real general file."""
    with open(path) as fh:
        banner = fh.readline().split()
        if (len(banner) != 5 or banner[0] != '%%MatrixMarket'
                or [t.lower() for t in banner[1:]] != ['matrix', 'coordinate',
                                                       'real', 'general']):
            raise ValueError('expected a "matrix coordinate real general" file')
        line = fh.readline()
        while line.startswith('%'):
            line = fh.readline()
        dims = line.split()
        if len(dims) != 3:
            raise ValueError('malformed size line')
        nrows, ncols, nnz = (int(t) for t in dims)
        _check_fits(nrows, ncols, nnz)
        if nnz == 0:
            body = np.zeros((0, 3))
        else:
            body = np.loadtxt(io.StringIO(fh.read()), dtype=_VALUE,
                              comments='%', ndmin=2)
    if body.size == 0:
        body = body.reshape(0, 3)
    if body.shape[0] != nnz or (nnz and body.shape[1] != 3):
        raise ValueError('entry count does not match the size line')
    # Read at full width, so from_coo refuses indices that int32 cannot hold.
    rows = body[:, 0].astype(np.int64) - 1
    cols = body[:, 1].astype(np.int64) - 1
    return SparseMatrix.from_coo(nrows, ncols, rows, cols, body[:, 2])
