"""Digests of whole setups and solves, and the golden file that holds them.

``hierarchy_digest`` hashes everything a setup decides and every bit a solve
returns, one sha256 per part (``PARTS``), so a change that moves bits names
the parts it moved.  ``tests/golden.json`` holds the part digests of each
case in ``CASES`` with the plain numbers behind them (level sizes,
iterations) and the numpy and scipy versions they were made with.
Regenerate it after a change that is meant to move bits, and say which parts
of which cases moved and why::

    PYTHONPATH=src python tests/golden.py
"""

import hashlib
import json
import pathlib

import numpy as np
import scipy

from airmg import (AdvectionProblem, SetupConfig, SolveConfig, SparseMatrix,
                   build_advection_1d, build_advection_2d, richardson_solve,
                   setup)

GOLDEN = pathlib.Path(__file__).resolve().parent / 'golden.json'


def pi4_advection(n):
    """pi/4 upwind advection on an ``n x n`` grid, velocity ``(cos, sin)``."""
    return build_advection_2d(AdvectionProblem(
        nx=n, ny=n, vx=np.cos(np.pi / 4), vy=np.sin(np.pi / 4)))


def permuted(A, seed):
    """``Q A Q^T`` for a random permutation ``Q`` drawn from ``seed``."""
    perm = np.random.default_rng(seed).permutation(A.nrows)
    inv = np.argsort(perm)
    rows = np.repeat(np.arange(A.nrows), np.diff(A.row_offsets))
    return SparseMatrix.from_coo(A.nrows, A.ncols, inv[rows],
                                 inv[A.col_indices], A.values)


def _pi4_perm(n, seed):
    A, b = pi4_advection(n)
    return permuted(A, seed), b


# Small versions of the benchmark's three workloads, each under a second.
CASES = {
    'pi4_64': lambda: pi4_advection(64),
    'pi4_perm_48': lambda: _pi4_perm(48, 48),
    'chain_16384': lambda: (build_advection_1d(2 ** 14, 1.0),
                            np.zeros(2 ** 14)),
}


def _matrix_arrays(M):
    if M is None:  # a block that a level does not keep
        return [np.array([-1, -1], dtype=np.int64)]
    return [np.array([M.nrows, M.ncols], dtype=np.int64), M.row_offsets,
            M.col_indices, M.values]


def _poly_arrays(p):
    return [np.asarray(a) for a in (p.coeffs, p.roots, p.diag_scale)
            if a is not None]


# The parts of a digest, in the order ``hierarchy_digest`` hashes them.
PARTS = ('operators', 'splits', 'smoothers', 'coarse', 'truncation',
         'complexities', 'gen.history', 'gen.solution', 'rand.history',
         'rand.solution')


def _sha256(arrays):
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def hierarchy_digest(A, b):
    """Setup of ``A`` and two solves, as one sha256 per part and plain
    numbers.

    The parts (``PARTS``) are every level's ``Z``/``A_ff``/``A_fc`` (an
    absent ``A_ff`` as a marker); the split labels with the top level's
    cycle order; the smoother coefficients; the coarsest matrix and the
    coarse solver; the truncation record; the three complexities with
    ``flops_per_cycle``; and the residual history and the solution of two
    solves: ``b`` from ``x0 = 1`` ("gen") and a standard-normal rhs from
    ``x0 = 0`` ("rand").
    """
    H = setup(A, SetupConfig())
    parts = {
        'operators': [a for L in H.levels for M in (L.Z, L.A_ff, L.A_fc)
                      for a in _matrix_arrays(M)],
        'splits': [L.split.labels for L in H.levels] + [H.order],
        'smoothers': [a for L in H.levels for a in _poly_arrays(L.f_smoother)],
        'coarse': _matrix_arrays(H.coarsest_A) + _poly_arrays(H.coarse_solver),
        'truncation': [np.frombuffer(repr([
            [t.level, t.n, t.effective_order, t.residual, t.accepted]
            for t in H.truncation_tests]).encode(), dtype=np.uint8)],
        'complexities': [np.array([H.cycle_complexity, H.storage_complexity,
                                   H.grid_complexity]),
                         np.array([H.flops_per_cycle], dtype=np.int64)],
    }
    cfg = SolveConfig(rtol=1e-10)
    rand = np.random.default_rng(1).standard_normal(A.nrows)
    iterations = {}
    for name, rhs, x0 in (('gen', b, np.ones(A.nrows)),
                          ('rand', rand, np.zeros(A.nrows))):
        x, stats = richardson_solve(H, rhs, x0, cfg)
        parts[f'{name}.history'] = [np.array(stats.residual_history)]
        parts[f'{name}.solution'] = [x]
        iterations[name] = stats.iterations
    assert tuple(parts) == PARTS
    return {
        'digests': {name: _sha256(arrays) for name, arrays in parts.items()},
        'level_n': [L.n for L in H.levels] + [H.coarsest_A.nrows],
        'level_nnz': [L.nnz_A for L in H.levels] + [H.coarsest_A.nnz],
        'iterations': iterations,
    }


def versions():
    return {'numpy': np.__version__, 'scipy': scipy.__version__}


def main():
    golden = {'versions': versions(),
              'cases': {name: hierarchy_digest(*build())
                        for name, build in CASES.items()}}
    GOLDEN.write_text(json.dumps(golden, indent=1) + '\n')
    print(f'wrote {GOLDEN}')


if __name__ == '__main__':
    main()
