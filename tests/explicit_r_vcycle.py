"""V-cycle with an explicit restriction: the reference for ``solve.vcycle``.

``solve.vcycle`` restricts with ``Z r_f + r_c`` and never stores the unit
block of ``R = [Z I]``.  ``explicit_r_vcycle`` assembles ``R`` with
``restriction(Z, split)`` and restricts with ``spmv(R, r)``; the rest of the
cycle is the same.  Where every ``Z`` column of a C row precedes that C point
in the level's ordering the two agree bit for bit.
"""

import numpy as np

from airmg import apply_matrix_free, restriction, spmv


def explicit_r_vcycle(H, level, r):
    """Error estimate for ``A_level e = r``, restricting with the full ``R``."""
    if level == len(H.levels):
        return apply_matrix_free(H.coarse_solver, H.coarsest_A, r)
    L = H.levels[level]
    e_c = explicit_r_vcycle(H, level + 1, spmv(restriction(L.Z, L.split), r))
    r_f = r[L.split.f_set]
    t = spmv(L.A_fc, e_c)
    e_f = apply_matrix_free(L.f_smoother, L.A_ff, r_f - t)
    for _ in range(H.f_smooths - 1):
        e_f = e_f + apply_matrix_free(L.f_smoother, L.A_ff,
                                      r_f - t - spmv(L.A_ff, e_f))
    e = np.zeros(L.n)
    e[L.split.f_set] = e_f
    e[L.split.c_set] = e_c
    return e
