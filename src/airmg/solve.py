"""V-cycle application and the Richardson outer iteration.

The cycle restricts the residual with ``Z r_f + r_c`` (``R = [Z I]``, whose
identity block is never stored), solves the coarse problem recursively, and
then smooths only the fine points on the way back up: with the error update

    e_f <- e_f + q(A_ff) (r_f - A_fc e_c - A_ff e_f)

starting from ``e_f = 0``; coarse entries take the coarse-grid error
directly.  The product ``A_fc e_c`` is cached across repeated smooths.
Levels are stored in cycle order, F points first, so ``r_f``, ``r_c``,
``e_f`` and ``e_c`` are the halves of the level's vectors; only the top
level translates, through ``Hierarchy.order``.  A solve writes nothing into
the hierarchy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .polynomial import _apply_degree_zero, apply_matrix_free
from .sparse import _norm, spmv

__all__ = [
    'SolveConfig',
    'SolveStats',
    'DivergenceError',
    'vcycle',
    'richardson_solve',
]

_DIVERGENCE_FACTOR = 1e8


@dataclass(frozen=True)
class SolveConfig:
    """Outer-iteration controls.

    ``rtol`` is relative to ``||b||`` when nonzero, otherwise to the initial
    residual.  The smooths per cycle are set by ``SetupConfig.smooth_type``.
    """

    rtol: float = 1e-10
    atol: float = 1e-50
    max_iters: int = 100

    def validate(self):
        if not 0.0 < self.rtol < math.inf:
            raise ValueError('rtol must be finite and positive')
        if not 0.0 <= self.atol < math.inf:
            raise ValueError('atol must be finite and non-negative')
        if self.max_iters < 1:
            raise ValueError('max_iters must be at least 1')
        return self


@dataclass
class SolveStats:
    """Iteration record for one solve; ``residual_history[0]`` is the initial
    unpreconditioned residual norm.  Its ``convergence_factor`` is the mean
    per-iteration residual reduction, ``None`` when no iteration ran.
    ``flops_per_cycle`` is the count ``setup`` stored on the hierarchy
    (``Hierarchy.flops_per_cycle``)."""

    iterations: int
    residual_history: list
    converged: bool
    flops_per_cycle: int

    def to_dict(self):
        h = self.residual_history
        return {
            'iterations': self.iterations,
            'convergence_factor':
                None if self.iterations == 0
                else float((h[-1] / h[0]) ** (1.0 / self.iterations)),
            'residual_history': [float(r) for r in self.residual_history],
            'converged': self.converged,
            'flops_per_cycle': self.flops_per_cycle,
        }


class DivergenceError(RuntimeError):
    """Raised when the outer iteration produces a non-finite or exploding
    residual."""

    def __init__(self, message, iteration):
        super().__init__(message)
        self.iteration = iteration


def vcycle(H, level, r, out=None):
    """Error estimate for ``A_level e = r`` from one V-cycle recursion.

    Every level is stored in its cycle order, F points first
    (``hierarchy.renumber``), so the F and C parts of ``r`` and ``e`` are
    the two halves of the vector: below the top the cycle gathers and
    scatters nothing, and each level writes its error straight into the C
    half of the level above (``out``).  At ``level`` 0, ``r`` and the
    returned ``e`` are in the problem's numbering, and ``H.order``
    translates them.

    The restriction applies ``R = [Z I]`` as ``Z r_f + r_c``.  In cycle
    order the unit C columns of ``R`` come after its ``Z`` columns, so
    adding ``r_c`` last reproduces ``spmv(R, r)`` bit for bit.  A level
    that keeps no ``A_ff`` has one smooth with a degree-0 smoother, which
    scales the residual without a matrix, bitwise as ``apply_matrix_free``
    would.
    """
    if level == len(H.levels):
        e = apply_matrix_free(H.coarse_solver, H.coarsest_A, r)
        if out is not None:
            out[:] = e
        return e
    if level == 0:
        r = r[H.order]
    L = H.levels[level]
    n_f = L.split.n_f
    r_f = r[:n_f]
    r_coarse = spmv(L.Z, r_f)
    r_coarse += r[n_f:]
    if level == 0:
        e_c = np.empty(L.split.n_c)
    else:
        e = np.empty(L.n) if out is None else out
        e_c = e[n_f:]
    vcycle(H, level + 1, r_coarse, e_c)
    t = spmv(L.A_fc, e_c)
    residual_f = np.subtract(r_f, t, out=t)
    if L.A_ff is None:
        e_f = _apply_degree_zero(L.f_smoother, residual_f)
    else:
        e_f = apply_matrix_free(L.f_smoother, L.A_ff, residual_f)
    for _ in range(H.f_smooths - 1):
        e_f = e_f + apply_matrix_free(L.f_smoother, L.A_ff,
                                      residual_f - spmv(L.A_ff, e_f))
    if level == 0:
        e = np.empty(L.n)
        e[H.order[:n_f]] = e_f
        e[H.order[n_f:]] = e_c
    else:
        e[:n_f] = e_f
    return e


def richardson_solve(H, b, x0, cfg):
    """Undamped Richardson iteration preconditioned by one V-cycle per step.

    Convergence is declared when the unpreconditioned residual norm falls to
    ``max(rtol * ref, atol)`` where ``ref = ||b||`` if nonzero, else the
    initial residual norm (covering the zero-rhs test setup).

    Returns
    -------
    x : ndarray
    stats : SolveStats

    Raises
    ------
    DivergenceError
        If the residual becomes non-finite or exceeds 1e8 times its initial
        value.
    """
    cfg.validate()
    A = H.top_A
    b = np.asarray(b, dtype=np.float64)
    x = np.array(x0, dtype=np.float64, copy=True)
    if len(b) != A.nrows or len(x) != A.nrows:
        raise ValueError('right-hand side or initial guess has wrong length')
    bnorm = float(_norm(b))
    if np.any(x):
        r = b - spmv(A, x)
        rnorm = float(_norm(r))
    else:
        # Each row of ``A 0`` sums to +0.0 and ``b - 0.0`` is ``b``, so this
        # is the same residual without the product.  ``r`` aliases ``b``:
        # nothing below writes into it.
        r, rnorm = b, bnorm
    history = [rnorm]
    reference = bnorm if bnorm > 0 else rnorm
    threshold = max(cfg.rtol * reference, cfg.atol)
    if not np.isfinite(rnorm):
        raise DivergenceError('non-finite residual at iteration 0', 0)
    converged = rnorm <= threshold
    iterations = 0
    while not converged and iterations < cfg.max_iters:
        x += vcycle(H, 0, r)
        r = b - spmv(A, x)
        rnorm = float(_norm(r))
        iterations += 1
        history.append(rnorm)
        if not np.isfinite(rnorm):
            raise DivergenceError(
                f'non-finite residual at iteration {iterations}', iterations)
        if rnorm > _DIVERGENCE_FACTOR * history[0]:
            raise DivergenceError(
                f'residual grew by more than {_DIVERGENCE_FACTOR:g} at '
                f'iteration {iterations}', iterations)
        converged = rnorm <= threshold
    stats = SolveStats(iterations=iterations, residual_history=history,
                       converged=converged,
                       flops_per_cycle=H.flops_per_cycle)
    return x, stats
