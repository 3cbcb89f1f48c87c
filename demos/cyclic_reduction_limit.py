"""The exact-solver limit: 1-D upwind advection.

A lower bidiagonal advection matrix is the reduction-multigrid analogue of
cyclic reduction: every level's independent-set splitting leaves a diagonal
fine-fine block, the polynomial inverse of a diagonal matrix is exact, so the
restriction is exactly ideal and one V-cycle solves the system to roundoff.
The blocks are read from the setup record: the last diagonal-dominance pass
finds no F-F coupling on any level (``ratio_max == 0``).  The smoothers come
out with degree 0, scalings that read no matrix, so the levels keep no
fine-fine block at all.
"""

import numpy as np

from airmg import (SetupConfig, SolveConfig, build_advection_1d,
                   richardson_solve, setup, spmv, vcycle)

for n in (64, 1024, 4096):
    A = build_advection_1d(n, vx=1.0)
    H = setup(A, SetupConfig(strong_threshold=0.5, poly_order=1))

    diagonal_blocks = all(L.ddc_stats[-1].ratio_max == 0 for L in H.levels)
    degree_zero = all(L.f_smoother.effective_order == 0 for L in H.levels)
    print(f'n = {n:5d}: {len(H.levels)} reduction levels, '
          f'coarsest size {H.coarsest_A.nrows}, '
          f'every fine block diagonal: {diagonal_blocks}, '
          f'every smoother of degree 0: {degree_zero}')

    rng = np.random.default_rng(n)
    b = rng.uniform(-1.0, 1.0, n)
    e = vcycle(H, 0, b)
    one_cycle = np.linalg.norm(b - spmv(A, e)) / np.linalg.norm(b)
    print(f'           one V-cycle residual reduction: {one_cycle:.2e}')

    x, stats = richardson_solve(H, b, np.zeros(n), SolveConfig(rtol=1e-10))
    print(f'           Richardson: {stats.iterations} iteration(s) to '
          f'{stats.residual_history[-1] / stats.residual_history[0]:.2e} '
          'relative residual')
print('\nThe hierarchy is a direct solver in this limit: the iteration '
      'count stays at one regardless of resolution.')
