"""Upwind finite-difference advection test problems on structured grids.

The operators are non-dimensionalised by the mesh spacing, so stencil values
are independent of resolution: an interior unknown couples to its west
neighbour with ``-vx``, its south neighbour with ``-vy``, and itself with
``vx + vy``.  Unknowns are ordered row-major with x fastest, which makes the
matrix lower triangular for first-quadrant velocities.  The inflow boundary
data is zero, so every right-hand side is the zero vector.
"""

from dataclasses import dataclass

import numpy as np

from .sparse import SparseMatrix

__all__ = ['AdvectionProblem', 'build_advection_2d', 'build_advection_1d']


@dataclass(frozen=True)
class AdvectionProblem:
    """Constant-velocity advection on an ``nx`` by ``ny`` structured grid.

    ``ny = 0`` selects the 1-D problem of size ``nx``.  Velocities must lie in
    the first quadrant with ``vx + vy > 0``; other quadrants are reflections
    that add no new structure.
    """

    nx: int
    ny: int
    vx: float
    vy: float

    def __post_init__(self):
        if self.nx < 1 or self.ny < 0:
            raise ValueError('require nx >= 1 and ny >= 0')
        if self.vx < 0 or self.vy < 0 or self.vx + self.vy <= 0:
            raise ValueError('velocity must satisfy vx >= 0, vy >= 0, vx + vy > 0')

    @property
    def n(self):
        return self.nx * max(self.ny, 1)


def build_advection_2d(problem):
    """Assemble the 2-D upwind operator and its (zero) right-hand side.

    Unknown ``(i, j)`` lives at index ``j*nx + i``.  Rows on the inflow
    boundary (``i = 0`` and/or ``j = 0``) simply omit the out-of-domain
    neighbour; with zero inflow data this contributes nothing to the rhs.

    Returns
    -------
    A : SparseMatrix
        Lower-triangular operator of size ``nx*ny``.
    rhs : ndarray
        Zero vector of length ``nx*ny``.
    """
    p = problem
    if p.ny < 1:
        raise ValueError('build_advection_2d requires ny >= 1; '
                         'use build_advection_1d for 1-D problems')
    n = p.nx * p.ny
    idx = np.arange(n, dtype=np.intp)
    i = idx % p.nx
    j = idx // p.nx
    rows = [idx]
    cols = [idx]
    vals = [np.full(n, p.vx + p.vy)]
    if p.vx > 0:
        west = idx[i > 0]
        rows.append(west)
        cols.append(west - 1)
        vals.append(np.full(len(west), -p.vx))
    if p.vy > 0:
        south = idx[j > 0]
        rows.append(south)
        cols.append(south - p.nx)
        vals.append(np.full(len(south), -p.vy))
    A = SparseMatrix.from_coo(n, n, np.concatenate(rows), np.concatenate(cols),
                              np.concatenate(vals))
    return A, np.zeros(n)


def build_advection_1d(n, vx):
    """Assemble the 1-D upwind operator: lower bidiagonal with ``vx`` on the
    diagonal and ``-vx`` on the subdiagonal."""
    if n < 1:
        raise ValueError('require n >= 1')
    if vx <= 0:
        raise ValueError('require vx > 0')
    idx = np.arange(n, dtype=np.intp)
    rows = np.concatenate([idx, idx[1:]])
    cols = np.concatenate([idx, idx[1:] - 1])
    vals = np.concatenate([np.full(n, float(vx)), np.full(n - 1, -float(vx))])
    return SparseMatrix.from_coo(n, n, rows, cols, vals)
