"""Reduction multigrid with approximate ideal restriction and
GMRES-polynomial approximate inverses, plus upwind advection test problems.

Typical use::

    from airmg import AdvectionProblem, build_advection_2d, SetupConfig
    from airmg import SolveConfig, setup, richardson_solve
    import numpy as np

    A, b = build_advection_2d(AdvectionProblem(nx=128, ny=128,
                                               vx=np.cos(np.pi/4),
                                               vy=np.sin(np.pi/4)))
    H = setup(A, SetupConfig())
    x, stats = richardson_solve(H, b, np.ones(A.nrows), SolveConfig())
"""

from .sparse import (SparseMatrix, validate, spmv, spgemm,
                     spgemm_fixed_sparsity, extract, drop_and_lump, diagonal,
                     read_matrix_market, write_matrix_market)
from .problems import AdvectionProblem, build_advection_2d, build_advection_1d
from .splitting import (F_POINT, C_POINT, StrengthGraph, CFSplit,
                        DDCPassStats, strength_graph, pmisr, ddc_pass,
                        cf_split)
from .polynomial import (PolySolver, gmres_poly_arnoldi, gmres_poly_newton,
                         neumann_poly, apply_matrix_free,
                         assemble_fixed_sparsity)
from .hierarchy import (SetupConfig, Level, TruncationTest, Hierarchy,
                        build_restriction, restriction, build_prolongation,
                        coarse_matrix, try_truncate, setup, count_cycle_flops,
                        hierarchy_summary)
from .solve import (SolveConfig, SolveStats, DivergenceError, vcycle,
                    richardson_solve)

__version__ = '0.1.0'

__all__ = [
    'SparseMatrix', 'validate', 'spmv', 'spgemm', 'spgemm_fixed_sparsity',
    'extract', 'drop_and_lump', 'diagonal',
    'read_matrix_market', 'write_matrix_market',
    'AdvectionProblem', 'build_advection_2d', 'build_advection_1d',
    'F_POINT', 'C_POINT', 'StrengthGraph', 'CFSplit', 'DDCPassStats',
    'strength_graph', 'pmisr', 'ddc_pass', 'cf_split',
    'PolySolver', 'gmres_poly_arnoldi', 'gmres_poly_newton', 'neumann_poly',
    'apply_matrix_free', 'assemble_fixed_sparsity',
    'SetupConfig', 'Level', 'TruncationTest', 'Hierarchy',
    'build_restriction', 'restriction', 'build_prolongation',
    'coarse_matrix', 'try_truncate', 'setup', 'count_cycle_flops',
    'hierarchy_summary',
    'SolveConfig', 'SolveStats', 'DivergenceError', 'vcycle',
    'richardson_solve',
]
