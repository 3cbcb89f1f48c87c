"""Benchmark inputs: upwind advection operators and right-hand sides.

Every array is generated here from the workload seed, independently of
``airmg.problems``; airmg only ever receives the finished CSR matrix and the
right-hand sides.  The same arrays also build the scipy matrix that checks
each solve, so the check never goes through airmg.
"""

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class Workload:
    """One benchmark input family.

    ``nrhs`` right-hand sides are solved after each setup.  The first solve
    of a setup is cold (it builds the lazily cached scipy views) and is
    excluded from the warm-solve samples.
    """

    name: str
    dim: int
    size: int
    permute: bool
    nrhs: int


WORKLOADS = {w.name: w for w in (
    # The paper's headline problem; setup (mostly SpGEMM) dominates.  With
    # 16 rhs a run still holds enough warm solves for a tail that lies well
    # above the median.
    Workload('adv2d_256', dim=2, size=256, permute=False, nrhs=16),
    # Random symmetric permutation breaks triangular/banded locality; one
    # setup then many right-hand sides, so the solve layer dominates.
    Workload('adv2d_perm_128_multirhs', dim=2, size=128, permute=True,
             nrhs=64),
    # 1-D chain: the hierarchy is cyclic reduction, so splitting and
    # extraction dominate setup and the solve is a single cycle.
    Workload('adv1d_1m', dim=1, size=2 ** 20, permute=False, nrhs=8),
)}


@dataclass
class Inputs:
    """CSR arrays of the operator, the scipy check matrix and the rhs."""

    n: int
    row_offsets: np.ndarray
    col_indices: np.ndarray
    values: np.ndarray
    check_matrix: sp.csr_matrix
    rhs: list


def _upwind_coo(w):
    """Coordinate triplets of the upwind stencil, row-major with x fastest.

    A 2-D unknown couples to its west and south neighbours with ``-vx`` and
    ``-vy`` (velocity at pi/4) and to itself with ``vx + vy``; the 1-D chain
    is lower bidiagonal with unit velocity.
    """
    if w.dim == 1:
        n = w.size
        idx = np.arange(n, dtype=np.int64)
        rows = np.concatenate([idx, idx[1:]])
        cols = np.concatenate([idx, idx[1:] - 1])
        vals = np.concatenate([np.ones(n), -np.ones(n - 1)])
        return n, rows, cols, vals
    nx = w.size
    n = nx * nx
    vx, vy = math.cos(math.pi / 4), math.sin(math.pi / 4)
    idx = np.arange(n, dtype=np.int64)
    west = idx[idx % nx > 0]
    south = idx[idx >= nx]
    rows = np.concatenate([idx, west, south])
    cols = np.concatenate([idx, west - 1, south - nx])
    vals = np.concatenate([np.full(n, vx + vy), np.full(len(west), -vx),
                           np.full(len(south), -vy)])
    return n, rows, cols, vals


def make_inputs(w, seed):
    """Operator and right-hand sides for workload ``w``; same seed, same
    inputs.  With ``permute`` the operator is ``Q A Q^T`` for a random
    permutation ``Q`` drawn from the seed."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, w.size]))
    n, rows, cols, vals = _upwind_coo(w)
    M = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    if w.permute:
        perm = rng.permutation(n)
        M = M[perm][:, perm].tocsr()
    M.sum_duplicates()
    M.sort_indices()
    offsets = M.indptr.astype(np.int64)
    indices = M.indices.astype(np.int64)
    check = sp.csr_matrix((M.data.copy(), indices.copy(), offsets.copy()),
                          shape=(n, n))
    rhs = [rng.standard_normal(n) for _ in range(w.nrhs)]
    return Inputs(n, offsets, indices, M.data.copy(), check, rhs)


def relative_residual(inputs, b, x):
    """``||b - A x|| / ||b||`` computed with scipy on the generated arrays."""
    return float(np.linalg.norm(b - inputs.check_matrix @ x)
                 / np.linalg.norm(b))
