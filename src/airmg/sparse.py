"""Compressed sparse row storage and the kernels shared by the whole solver stack.

Matrices are immutable after construction and always kept in canonical CSR
form: row offsets non-decreasing, column indices strictly increasing within
each row, no duplicate entries, no NaN/inf values.  Explicit zeros are legal
stored entries.  Products and sums (``spgemm``, ``spgemm_fixed_sparsity``,
``_add``) do not store entries that cancel to exactly zero; beyond that only
``drop_and_lump`` removes entries.

Row offsets and column indices are 0-based ``_INDEX`` (int32) integers,
scipy's own width, so scipy's compiled kernels read a matrix's arrays as they
are.  The entry points that take outside arrays refuse any dimension, entry
count or index that int32 cannot hold instead of letting it wrap.  Index
arrays that numpy gathers or scatters through (``extract``'s row and column
sets, a split's F and C points, the row of each entry from ``_row_index``)
are ``np.intp``: numpy indexes through int32 arrays several times slower
than through its native width, so hot gathers through stored indices widen
them first.

Setup forms ``Z`` and both halves of ``R A P`` with the public ``spgemm``,
which ``hierarchy`` calls by name, so the benchmark's tracer, which rebinds
that name, sees every general product of setup.

Setup builds CSR in one of three ways: a kernel's output buffers (a product,
a sum from ``_add``, a masked power sum from ``_masked_power_sum``, an
elementwise mask) become canonical in ``_finish``, which trims them in place
and sorts rows only when the kernel left them unsorted; the entries of a
matrix are selected by ``_keep_entries`` or ``extract``, or moved into a new
numbering by ``_permute``, which the cycle-order renumbering uses; operators
with one entry per row (the one-point prolongator) are written directly.
``SparseMatrix.from_coo`` sorts and sums coordinate triplets and is meant
for outside input, such as test problems and Matrix Market files.

scipy is the sparse backend, and this is the only module that imports it.
Its one import is ``scipy.sparse._sparsetools``, the compiled CSR kernels
behind scipy's matrix classes; no scipy matrix object is built.  Each
operation here runs the kernel that scipy's public one reaches (``@`` on
matrices and on vectors, ``+``, ``.multiply``, fancy indexing), so results
are bitwise equal to it, without two costs around it.  A scipy product
first runs the symbolic ``csr_matmat_maxnnz`` to size its output, the first
pass of Bank and Douglas's two-pass SpGEMM (SMMP, Adv. Comput. Math. 1993);
here the multiply-add count, one pass over the index arrays, bounds the
output instead, and the symbolic pass runs only when that bound exceeds
int32.  And each scipy operation constructs and checks matrix objects,
which costs more than the kernel on coarse levels of a few dozen rows,
where setup makes many products and the solve thousands of matrix-vector
products.

Inner products and norms that feed a decision come from ``_dot``/``_norm``,
whose order is fixed by the shapes; BLAS ``ddot`` splits long sums by thread.
"""

import io
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np
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

    @property
    def nnz(self):
        return int(self.row_offsets[-1])

    def to_dense(self):
        out = np.zeros((self.nrows, self.ncols), dtype=_VALUE)
        row_of = _row_index(self)
        out[row_of, self.col_indices] = self.values
        return out

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
    unit = replace(A, values=np.ones(A.nnz, dtype=_VALUE))
    transpose = _buffers(A.ncols, A.nnz)
    _sparsetools.csr_tocsc(A.nrows, A.ncols, A.row_offsets, A.col_indices,
                           unit.values, *transpose)
    closure = _add(unit, SparseMatrix(A.ncols, A.nrows, *transpose))
    return closure.row_offsets, closure.col_indices


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

    Runs scipy's CSR kernel on ``A``'s own arrays: the kernel and summation
    order of scipy's ``csr_matrix @ x``, without the dispatch around it.
    """
    x = np.asarray(x, dtype=_VALUE)
    if x.ndim != 1 or len(x) != A.ncols:
        raise ValueError(f'vector of length {len(x)} incompatible with '
                         f'{A.nrows}x{A.ncols} matrix')
    y = np.zeros(A.nrows, dtype=_VALUE)
    _sparsetools.csr_matvec(A.nrows, A.ncols, A.row_offsets, A.col_indices,
                            A.values, x, y)
    return y


def _dot(X, y):
    """``X . y`` for a vector or each matrix row, with no BLAS or temporary."""
    return np.einsum('...i,...i->...', X, y)


def _norm(y):
    """Euclidean norm of a vector, summed in ``_dot``'s fixed order."""
    return np.sqrt(_dot(y, y))


def _buffers(nrows, bound):
    """Output arrays for a kernel that writes at most ``bound`` entries."""
    return (np.empty(nrows + 1, dtype=_INDEX), np.empty(bound, dtype=_INDEX),
            np.empty(bound, dtype=_VALUE))


def _finish(nrows, ncols, offsets, cols, values):
    """Canonical matrix from a kernel's output buffers.

    The buffers are trimmed in place to the entries written, so no kept
    array is a view of a larger buffer; rows are sorted only when the kernel
    left them unsorted.  Pass only fresh buffers that nothing else holds.
    """
    nnz = int(offsets[-1])
    cols.resize(nnz, refcheck=False)
    values.resize(nnz, refcheck=False)
    if not _sparsetools.csr_has_sorted_indices(nrows, offsets, cols):
        _sparsetools.csr_sort_indices(nrows, offsets, cols, values)
    return SparseMatrix(nrows, ncols, offsets, cols, values)


def _add(A, B):
    """``A + B``; exact cancellations are not stored.

    scipy's ``csr_plus_csr`` merges canonical rows in order, so the sum is
    canonical; its output is sized by scipy's own bound, ``nnz(A) + nnz(B)``,
    which must fit the index width.
    """
    if (A.nrows, A.ncols) != (B.nrows, B.ncols):
        raise ValueError(f'cannot add {A.nrows}x{A.ncols} and '
                         f'{B.nrows}x{B.ncols}')
    bound = A.nnz + B.nnz
    _check_fits(A.nrows, A.ncols, bound)
    out = _buffers(A.nrows, bound)
    _sparsetools.csr_plus_csr(A.nrows, A.ncols, A.row_offsets, A.col_indices,
                              A.values, B.row_offsets, B.col_indices, B.values,
                              *out)
    return _finish(A.nrows, A.ncols, *out)


def _masked_power_sum(coeffs, base, pattern):
    """``sum_k coeffs[k] * base^k``, summed left to right by ``_add``; exact
    cancellations are not stored.  Each power past ``base`` is the previous
    one times ``base`` kept to ``pattern``, formed by ``spgemm_fixed_sparsity``
    under its module name, so a tracer that rebinds the name sees each one."""
    eye = SparseMatrix.identity(base.nrows)
    acc = replace(eye, values=coeffs[0] * eye.values)
    power = base
    for k in range(1, len(coeffs)):
        if k > 1:
            power = spgemm_fixed_sparsity(power, base, pattern)
        acc = _add(acc, replace(power, values=coeffs[k] * power.values))
    return acc


def _matmat(A, B):
    """``A @ B`` from scipy's numeric ``csr_matmat`` alone, in its buffers:
    rows in the kernel's order, arrays possibly longer than the entries.

    The buffers are sized by the multiply-add count, which bounds the
    stored entries and costs one pass over the index arrays.  Only when
    that count exceeds the index width does scipy's symbolic pass,
    ``csr_matmat_maxnnz``, give the exact count, which must fit.
    """
    if A.ncols != B.nrows:
        raise ValueError(f'cannot multiply {A.nrows}x{A.ncols} by {B.nrows}x{B.ncols}')
    bound = int(np.bincount(A.col_indices, minlength=A.ncols)
                @ np.diff(B.row_offsets))
    if bound > _INDEX_MAX:
        bound = int(_sparsetools.csr_matmat_maxnnz(
            A.nrows, B.ncols, A.row_offsets, A.col_indices, B.row_offsets,
            B.col_indices))
        _check_fits(A.nrows, B.ncols, bound)
    out = _buffers(A.nrows, bound)
    _sparsetools.csr_matmat(A.nrows, B.ncols, A.row_offsets, A.col_indices,
                            A.values, B.row_offsets, B.col_indices, B.values,
                            *out)
    return out


def spgemm(A, B):
    """Sparse matrix-matrix product ``A @ B``.

    Bitwise equal to scipy's ``csr_matrix @``, whose numeric kernel it runs.
    Entries that cancel to exactly zero are not stored: they carry no value
    into the solve.
    """
    return _finish(A.nrows, B.ncols, *_matmat(A, B))


def spgemm_fixed_sparsity(A, B, pattern):
    """Product ``A @ B`` restricted to the stored positions of ``pattern``.

    Entries of the true product outside the pattern are discarded, not lumped.
    As in ``spgemm``, entries that cancel to exactly zero are not stored,
    even inside the pattern.  The pattern's stored values, explicit zeros
    included, only mark positions: scipy's ``csr_elmul_csr`` multiplies the
    unsorted product by a unit-valued copy of ``pattern``, so only the kept
    entries are sorted.  The product's entry count sizes the output: a
    pattern position the product does not store gives a zero, which is not
    stored.  ``nnz(pattern)`` is no bound, because an inf or NaN product
    entry outside the pattern gives NaN, which is.
    """
    if pattern.nrows != A.nrows or pattern.ncols != B.ncols:
        raise ValueError('pattern shape must match the product shape')
    offsets, cols, values = _matmat(A, B)
    out = _buffers(A.nrows, int(offsets[-1]))
    _sparsetools.csr_elmul_csr(A.nrows, B.ncols, offsets, cols, values,
                               pattern.row_offsets, pattern.col_indices,
                               np.ones(pattern.nnz, dtype=_VALUE), *out)
    return _finish(A.nrows, B.ncols, *out)


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
    n_rows, n_cols = len(rows), len(cols)
    # scipy's fancy-index kernels: whole rows first, then the kept columns,
    # renumbered in order, so each row stays sorted.
    row_offsets = np.zeros(n_rows + 1, dtype=_INDEX)
    np.cumsum(A.row_offsets[rows + 1] - A.row_offsets[rows],
              out=row_offsets[1:])
    row_cols = np.empty(row_offsets[-1], dtype=_INDEX)
    row_values = np.empty(row_offsets[-1], dtype=_VALUE)
    _sparsetools.csr_row_index(n_rows, rows.astype(_INDEX), A.row_offsets,
                               A.col_indices, A.values, row_cols, row_values)
    col_ends = np.zeros(A.ncols, dtype=_INDEX)
    offsets = np.empty(n_rows + 1, dtype=_INDEX)
    _sparsetools.csr_column_index1(n_cols, cols.astype(_INDEX), n_rows,
                                   A.ncols, row_offsets, row_cols, col_ends,
                                   offsets)
    out_cols = np.empty(offsets[-1], dtype=_INDEX)
    out_values = np.empty(offsets[-1], dtype=_VALUE)
    _sparsetools.csr_column_index2(np.arange(n_cols, dtype=_INDEX), col_ends,
                                   len(row_cols), row_cols, row_values,
                                   out_cols, out_values)
    return SparseMatrix(n_rows, n_cols, offsets, out_cols, out_values)


_Permutation = namedtuple('_Permutation', 'order inverse')


def _permutation(order):
    """The permutation ``order`` (new position -> old index) as ``np.intp``
    with its ``inverse`` (old index -> new) as ``_INDEX``, the width of the
    column indices it relabels, for ``_permute``."""
    order = np.asarray(order, dtype=np.intp)
    inverse = np.empty(len(order), dtype=_INDEX)
    inverse[order] = np.arange(len(order), dtype=_INDEX)
    return _Permutation(order, inverse)


def _row_lengths(A):
    """The number of entries in each row of ``A``, or ``None`` when every
    row holds exactly one."""
    if A.nnz == A.nrows and np.array_equal(
            A.row_offsets, np.arange(A.nrows + 1, dtype=_INDEX)):
        return None
    return np.diff(A.row_offsets)


def _permute(A, rows, cols, lengths):
    """``A[rows, :][:, cols]`` for permutations from ``_permutation``: row
    ``i`` of the result is row ``rows.order[i]`` of ``A``, and column ``j``
    is column ``cols.order[j]``.  ``None`` keeps that numbering.
    ``lengths`` is ``_row_lengths(A)``.

    With one entry per row the entries are gathered.  Otherwise the column
    indices are relabelled by a gather; where that leaves every row sorted,
    or columns keep their numbering, rows move with scipy's
    ``csr_row_index``, and where it does not, two scipy ``csr_tocsc``
    transposes move and sort them, with the row indices relabelled in
    between.  Values are moved, never combined, so every stored entry
    keeps its bits.
    """
    if rows is None and cols is None:
        return A
    n, nnz = A.nrows, A.nnz
    offsets, col_indices, values = A.row_offsets, A.col_indices, A.values
    if lengths is None:
        if rows is not None:
            values = values[rows.order]
            if cols is rows and np.array_equal(col_indices, offsets[:-1]):
                cols = None  # a permuted diagonal stays diagonal
            else:
                col_indices = col_indices[rows.order]
        if cols is not None:
            col_indices = cols.inverse[col_indices.astype(np.intp)]
        return SparseMatrix(n, A.ncols, offsets, col_indices, values)
    if cols is not None:
        col_indices = cols.inverse[col_indices.astype(np.intp)]
        if not _sparsetools.csr_has_sorted_indices(n, offsets, col_indices):
            t = _buffers(A.ncols, nnz)
            _sparsetools.csr_tocsc(n, A.ncols, offsets, col_indices, values,
                                   *t)
            if rows is not None:
                t[1][:] = rows.inverse[t[1].astype(np.intp)]
            out = _buffers(n, nnz)
            _sparsetools.csr_tocsc(A.ncols, n, *t, *out)
            return SparseMatrix(n, A.ncols, *out)
    if rows is not None:
        offsets = np.empty(n + 1, dtype=_INDEX)
        offsets[0] = 0
        np.take(lengths, rows.order, out=offsets[1:], mode='clip')
        np.cumsum(offsets[1:], out=offsets[1:])
        moved = _buffers(n, nnz)[1:]
        _sparsetools.csr_row_index(n, rows.order.astype(_INDEX), A.row_offsets,
                                   col_indices, values, *moved)
        col_indices, values = moved
    return SparseMatrix(n, A.ncols, offsets, col_indices, values)


def _stable_order(*keys):
    """Stable order of the positions by non-negative integer ``keys``,
    compared in turn (``None`` skips a key), or ``None`` when the positions
    are in that order already.

    A key that is equal everywhere is left out, and the others are packed
    into one integer per position, so one stable sort ranks them; numpy's
    stable sort is a radix sort when that integer fits 16 bits.
    """
    ranges = []
    for key in keys:
        if key is not None and len(key):
            low, high = int(key.min()), int(key.max())
            if low < high:
                ranges.append((key, low, high - low + 1))
    if not ranges:
        return None
    spans = np.prod([span for _, _, span in ranges], dtype=float)
    if spans > 2.0 ** 62:
        return np.lexsort([key for key, _, _ in ranges[::-1]])
    width = (np.uint16 if spans <= 2 ** 16
             else _INDEX if spans <= _INDEX_MAX else np.int64)
    key, low, _ = ranges[0]
    packed = (key - low).astype(width, copy=False)
    for key, low, span in ranges[1:]:
        packed *= span
        packed += (key - low).astype(width, copy=False)
    if np.all(packed[1:] >= packed[:-1]):
        return None
    return np.argsort(packed, kind='stable')


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
    absv = np.abs(A.values)
    keep = absv >= rel_tol * _row_max(absv, row_of, A.nrows)[row_of]
    if keep_diagonal:
        is_diag = A.col_indices == row_of
        keep |= is_diag
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
