"""Near-constant iteration counts under mesh refinement.

Solves the 2-D upwind advection problem at the pi/4 velocity on a sequence of
square grids with the default configuration: strong threshold 0.99, two 1%
dominance-cleanup passes, an order-6 matrix-free smoother polynomial per
level, a Newton-form coarse solver with automatic truncation, and the
default drop tolerances on the coarse matrices and on ``R``.  The coarse
order 100 is a cap: the build stops where its GMRES residual reaches
rounding level, at degree 8-11 here.  The undamped Richardson iteration
count barely moves as the grid is refined.  Cycle complexity grows slowly
(12.5, 14.3, 16.1 from 64^2 to 256^2), and so does storage complexity
(5.99, 6.94, 7.70).  With ``a_drop=1e-6, r_drop=0`` both grow faster (cycle
complexity 15.1, 20.3, 25.6).
"""

import time

import numpy as np

from airmg import (AdvectionProblem, SetupConfig, SolveConfig,
                   build_advection_2d, hierarchy_summary, richardson_solve,
                   setup)

vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)

print(f'{"grid":>8} {"unknowns":>9} {"levels":>6} {"trunc@":>6} '
      f'{"iters":>5} {"cycle cx":>8} {"storage cx":>10} {"setup s":>8}')
for nx in (64, 128, 256):
    A, b = build_advection_2d(AdvectionProblem(nx=nx, ny=nx, vx=vx, vy=vy))
    t0 = time.perf_counter()
    H = setup(A, SetupConfig())
    setup_s = time.perf_counter() - t0
    x, stats = richardson_solve(H, b, np.ones(A.nrows),
                                SolveConfig(rtol=1e-10))
    print(f'{nx:>5}^2 {A.nrows:>9} {len(H.levels):>6} '
          f'{str(H.truncated_at):>6} {stats.iterations:>5} '
          f'{H.cycle_complexity:>8.1f} {H.storage_complexity:>10.2f} '
          f'{setup_s:>8.2f}')

summary = hierarchy_summary(H)
print('\nPer-level table of the largest run:')
print(f'{"level":>5} {"n":>7} {"n_f":>7} {"n_c":>7} {"nnz_A":>8}')
for entry in summary['levels']:
    print(f'{entry["level"]:>5} {entry["n"]:>7} {entry["n_f"]:>7} '
          f'{entry["n_c"]:>7} {entry["nnz_A"]:>8}')
print(f'coarsest: n = {summary["coarsest"]["n"]}, solved with a '
      f'{summary["coarsest"]["solver_kind"]} polynomial of degree '
      f'{summary["coarsest"]["solver_effective_order"]} (cap '
      f'{summary["coarsest"]["solver_order"]})')
