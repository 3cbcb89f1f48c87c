"""V-cycle with an explicit restriction: the reference for ``solve.vcycle``.

``solve.vcycle`` restricts with ``Z r_f + r_c`` and never stores the unit
block of ``R = [Z I]``.  ``explicit_r_vcycle`` assembles ``R`` with
``restriction(Z, split)`` and restricts with ``spmv(R, r)``, gathering and
scattering through the split's index sets; the rest of the cycle is the
same, and level 0 goes through ``H.order`` as ``vcycle`` does.  Levels are
stored in cycle order, where ``R``'s unit C columns come after its ``Z``
columns, so the two cycles agree bit for bit on any input ordering.

On a level that keeps no ``A_ff`` the smoother has degree 0 and reads only
the size of the matrix it is applied with, so this cycle applies it through
``apply_matrix_free`` on the identity, where ``vcycle`` scales without a
matrix.
"""

import numpy as np

from airmg import SparseMatrix, apply_matrix_free, restriction, spmv


def explicit_r_vcycle(H, level, r):
    """Error estimate for ``A_level e = r``, restricting with the full ``R``."""
    if level == len(H.levels):
        return apply_matrix_free(H.coarse_solver, H.coarsest_A, r)
    if level == 0:
        e = np.zeros(len(r))
        e[H.order] = _cycle(H, r[H.order])
        return e
    return _cycle(H, r, level)


def _cycle(H, r, level=0):
    L = H.levels[level]
    e_c = explicit_r_vcycle(H, level + 1, spmv(restriction(L.Z, L.split), r))
    r_f = r[L.split.f_set]
    t = spmv(L.A_fc, e_c)
    A_ff = (SparseMatrix.identity(L.split.n_f) if L.A_ff is None
            else L.A_ff)
    e_f = apply_matrix_free(L.f_smoother, A_ff, r_f - t)
    for _ in range(H.f_smooths - 1):
        e_f = e_f + apply_matrix_free(L.f_smoother, A_ff,
                                      r_f - t - spmv(A_ff, e_f))
    e = np.zeros(L.n)
    e[L.split.f_set] = e_f
    e[L.split.c_set] = e_c
    return e
