"""The cycle orders of a hierarchy, rebuilt from the operators setup made.

``record_setup`` runs ``setup`` with a spy on ``build_restriction`` and
returns each level's split, ``Z``, ``A_ff``, ``A_fc`` and F smoother in
setup order.  ``keeps_A_ff`` states when a level keeps its ``A_ff``.
``cycle_orders`` rebuilds from the records the orders that
``hierarchy.renumber`` documents, with ``np.lexsort`` in place of the
library's packed sort, and ``reindexed`` permutes a matrix through
coordinates, in place of the library's ``csr_row_index`` path.
"""

import numpy as np

from airmg import SetupConfig, SparseMatrix, hierarchy, setup


def record_setup(monkeypatch, A, cfg=SetupConfig()):
    """``setup(A, cfg)`` and, per level, ``(split, Z, A_ff, A_fc,
    smoother)`` as ``build_restriction`` returned them."""
    recorded = []
    build = hierarchy.build_restriction

    def spy(*args, **kwargs):
        out = build(*args, **kwargs)
        recorded.append((args[1],) + tuple(out))
        return out

    monkeypatch.setattr(hierarchy, 'build_restriction', spy)
    H = setup(A, cfg)
    monkeypatch.setattr(hierarchy, 'build_restriction', build)
    return H, recorded


def keeps_A_ff(smoother, f_smooths=1):
    """Whether a level keeps its ``A_ff``: when its cycle multiplies by it,
    which a smoother of degree 1 or more does, and so does every smooth
    after the first."""
    return smoother.effective_order >= 1 or f_smooths > 1


def row_lengths(M):
    return np.diff(M.row_offsets)


def f_key(recorded, k, f_smooths=1):
    """The documented sort key of level ``k``'s F points, most significant
    first: nnz of the ``A_ff`` row (zero where the level keeps no
    ``A_ff``), of the row in the ``Z`` above, of the ``A_fc`` row."""
    split, _, A_ff, A_fc, smoother = recorded[k]
    zeros = np.zeros(split.n_f, dtype=np.intp)
    ff_lengths = (row_lengths(A_ff) if keeps_A_ff(smoother, f_smooths)
                  else zeros)
    z_lengths = row_lengths(recorded[k - 1][1])[split.f_set] if k else zeros
    return np.stack([ff_lengths, z_lengths, row_lengths(A_fc)])


def cycle_orders(recorded, f_smooths=1):
    """``(pi, sigma)``: per level, the F order and the cycle order
    ``sigma_l = [f_set[pi_l], c_set[sigma_{l+1}]]``; ``sigma`` has one more
    entry, the coarsest level's identity.  ``f_smooths`` is the number of
    smooths per cycle, ``len(smooth_type)``."""
    pi = [np.lexsort(f_key(recorded, k, f_smooths)[::-1])
          for k in range(len(recorded))]
    sigma = [np.arange(recorded[-1][0].n_c)] if recorded else []
    for k in reversed(range(len(recorded))):
        split = recorded[k][0]
        sigma.insert(0, np.concatenate((split.f_set[pi[k]],
                                        split.c_set[sigma[0]])))
    return pi, sigma


def reindexed(M, rows, cols):
    """``M[rows, :][:, cols]`` for permutations ``rows`` and ``cols``,
    through coordinate triplets."""
    new_row = np.argsort(rows)
    new_col = np.argsort(cols)
    row_of = np.repeat(np.arange(M.nrows), row_lengths(M))
    return SparseMatrix.from_coo(M.nrows, M.ncols, new_row[row_of],
                                 new_col[M.col_indices], M.values)


def assert_same_bits(got, want):
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
    assert np.array_equal(got.row_offsets, want.row_offsets)
    assert np.array_equal(got.col_indices, want.col_indices)
    assert np.array_equal(got.values.view(np.uint64),
                          want.values.view(np.uint64))
