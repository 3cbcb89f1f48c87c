"""Setup and solve give the same bits whatever the BLAS thread count.

Run as a script, ``python tests/test_determinism.py N`` prints the sha256
digest of an ``N x N`` pi/4 advection setup and two solves.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from airmg import (AdvectionProblem, SetupConfig, SolveConfig,
                   build_advection_2d, richardson_solve, setup)

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_digest(n):
    """sha256 over every level's ``R``/``A_ff``/``A_fc`` and split labels,
    the coarsest matrix, the coarse roots, and the residual histories of the
    generator's zero rhs from ``x0 = 1`` ("gen") and of a standard-normal rhs
    from ``x0 = 0`` ("rand")."""
    A, b = build_advection_2d(AdvectionProblem(
        nx=n, ny=n, vx=np.cos(np.pi / 4), vy=np.sin(np.pi / 4)))
    H = setup(A, SetupConfig())
    arrays = []
    for M in ([m for L in H.levels for m in (L.R, L.A_ff, L.A_fc)]
              + [H.coarsest_A]):
        arrays += [M.row_offsets, M.col_indices, M.values]
    arrays += [L.split.labels for L in H.levels]
    arrays.append(np.asarray(H.coarse_solver.roots))
    cfg = SolveConfig(rtol=1e-10)
    rand = np.random.default_rng(1).standard_normal(A.nrows)
    for rhs, x0 in ((b, np.ones(A.nrows)), (rand, np.zeros(A.nrows))):
        arrays.append(np.array(richardson_solve(H, rhs, x0, cfg)[1]
                               .residual_history))
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _digest_with_threads(n, threads):
    env = dict(os.environ,
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / 'src'),
                                 os.environ.get('PYTHONPATH')])))
    out = subprocess.run([sys.executable, __file__, str(n)], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    return out.stdout.strip()


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason='needs two CPUs for a second BLAS thread')
def test_setup_and_solve_bitwise_equal_across_blas_thread_counts():
    """OpenBLAS splits long dot products across threads, so any decision
    fed by a BLAS reduction could change with the thread count."""
    one = _digest_with_threads(128, 1)
    two = _digest_with_threads(128, 2)
    assert len(one) == 64
    assert one == two


if __name__ == '__main__':
    print(run_digest(int(sys.argv[1])))
