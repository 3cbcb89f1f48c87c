"""Multigrid hierarchy construction for reduction multigrid.

Each level splits the unknowns, approximates the inverse of the fine-fine
block with a fixed polynomial, builds the approximate ideal restriction
``R = [Z I]`` with ``Z = -A_cf * Ahat_ff^-1``, pairs it with a one-point
prolongator, and forms the Galerkin coarse matrix with drop/lump control.
The split comes back repaired for the one-point prolongator; each split
block is extracted once, by ``build_restriction``, and ``P`` uses ``A_fc``.
Once a high-order tentative coarse polynomial can solve the current level to
a loose tolerance the hierarchy is truncated there.  After the coarse matrix
is formed only ``A_fc``, ``Z`` and, where the cycle multiplies by it,
``A_ff`` are retained per level: the cycle smooths fine points only,
restricts with ``Z r_f + r_c`` and never applies ``P``.  ``P``, the full
``R`` (``restriction(Z, split)``) and the level matrix are intermediates of
the Galerkin product.

After the last level ``renumber`` puts every level into its cycle order: F
points first, sorted stably by row length, then the level below in its own
cycle order.  The cycle then reads each level's F and C parts as the two
halves of its vectors; ``Hierarchy.order`` maps the top level's cycle
positions to the problem's unknowns.
"""

import logging
import math
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .polynomial import (COEFF_KINDS, POLY_KINDS, PolySolver,
                         _poly_apply_flops, _random_unit_vector,
                         apply_matrix_free, assemble_fixed_sparsity,
                         gmres_poly_arnoldi, gmres_poly_newton, neumann_poly)
from .sparse import (_INDEX, SparseMatrix, _add, _norm, _permutation,
                     _permute, _row_index, _row_lengths, _row_max,
                     _stable_order, drop_and_lump, extract, spgemm, spmv)
from .splitting import C_POINT, F_POINT, CFSplit, cf_split

__all__ = [
    'SetupConfig',
    'Level',
    'TruncationTest',
    'Hierarchy',
    'build_restriction',
    'restriction',
    'build_prolongation',
    'coarse_matrix',
    'try_truncate',
    'renumber',
    'setup',
    'count_cycle_flops',
    'hierarchy_summary',
]

_log = logging.getLogger(__name__)

_SEED_SPLIT, _SEED_SMOOTHER, _SEED_COARSE_POLY, _SEED_TRUNC_RHS = range(4)

SETUP_PHASES = ('cf_split', 'prolongator', 'polynomial', 'spgemm_R',
                'spgemm_coarse', 'extract', 'drop', 'truncation', 'renumber')


def _derive_seed(root, level, role):
    """Stable per-level, per-role seed derived from the root seed."""
    return int(np.random.SeedSequence([root, level, role]).generate_state(1)[0])


@dataclass(frozen=True)
class SetupConfig:
    """Hierarchy construction parameters.

    The benchmark's command-line flags are generated from the fields.
    ``smooth_type`` holds one ``'f'`` per up-cycle F-point smooth (``'ff'``
    smooths twice).  Its other letters (C-point and FCF smoothing) and the
    fields after it name variants that this solver deliberately does not
    implement; ``validate`` rejects them with a clear error.

    ``a_drop`` filters each coarse matrix (dropped entries are lumped onto
    the diagonal when ``a_lump``); ``r_drop`` filters the ``Z`` block of ``R``
    (dropped, not lumped).  Both are row-relative.  Their defaults were
    chosen by a sweep on pi/4 upwind advection from 128^2 to 512^2, not
    taken from the paper: they keep 6 iterations at every size with cycle
    complexity nearly flat in n.  ``a_drop=1e-4`` costs an iteration at
    512^2 and ``r_drop=3e-2`` one at 256^2.
    """

    strong_threshold: float = 0.99
    ddc_fraction: float = 0.01
    ddc_its: int = 2
    poly_order: int = 6
    inverse_type: str = 'arnoldi'
    a_drop: float = 1e-5
    r_drop: float = 1e-2
    a_lump: bool = True
    coarsest_poly_order: int = 100
    coarsest_inverse_type: str = 'newton'
    auto_truncate_tol: float | None = 0.1
    max_levels: int = 100
    min_coarse_size: int = 16
    seed: int = 0
    smooth_type: str = 'f'
    one_point_classical_prolong: bool = True
    improve_z_its: int = 0
    improve_w_its: int = 0
    inverse_sparsity_order: int = 1

    def validate(self):
        # Each float check is a range test that NaN fails.
        if not 0.0 <= self.strong_threshold <= 1.0:
            raise ValueError('strong_threshold must lie in [0, 1]')
        if not 0.0 < self.ddc_fraction < 1.0:
            raise ValueError('ddc_fraction must lie in (0, 1)')
        if self.ddc_its < 0:
            raise ValueError('ddc_its must be non-negative')
        if self.poly_order < 0:
            raise ValueError('poly_order must be non-negative')
        if self.inverse_type not in COEFF_KINDS:
            raise ValueError(f'inverse_type must be one of {COEFF_KINDS}')
        for name in ('a_drop', 'r_drop'):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f'{name} must be finite and non-negative')
        if self.coarsest_inverse_type not in POLY_KINDS:
            raise ValueError('coarsest_inverse_type must be one of '
                             f'{POLY_KINDS}')
        min_order = 1 if self.coarsest_inverse_type == 'newton' else 0
        if self.coarsest_poly_order < min_order:
            raise ValueError('coarsest_poly_order too small for '
                             f'{self.coarsest_inverse_type}')
        if (self.auto_truncate_tol is not None
                and not 0.0 <= self.auto_truncate_tol < math.inf):
            raise ValueError('auto_truncate_tol must be finite and '
                             'non-negative, or None')
        if self.max_levels < 1:
            raise ValueError('max_levels must be at least 1')
        if self.min_coarse_size < 1:
            raise ValueError('min_coarse_size must be at least 1')
        if self.seed < 0:
            raise ValueError('seed must be non-negative')
        if not self.smooth_type or self.smooth_type.strip('f'):
            raise ValueError("only fine-point smoothing is supported "
                             "(smooth_type 'f', 'ff', ...); C-point and FCF "
                             "smoothing are not implemented")
        if not self.one_point_classical_prolong:
            raise ValueError('approximate ideal prolongation is not '
                             'implemented; only the one-point classical '
                             'prolongator is supported')
        if self.improve_z_its != 0 or self.improve_w_its != 0:
            raise ValueError('Richardson improvement of the transfer '
                             'operators is not implemented')
        if self.inverse_sparsity_order != 1:
            raise ValueError('only inverse_sparsity_order=1 is implemented')
        return self


@dataclass
class Level:
    """Operators retained for the solve on one reduction level, in the
    level's cycle order (``renumber``).

    ``split`` is the level's split in that order: the ``n_f`` F points come
    first (``f_set = arange(n_f)``), then the ``n_c`` C points, which are
    the next level's unknowns in its own cycle order.  ``Z`` is the
    ``n_c x n_f`` F-column block of the restriction ``R = [Z I]``; the unit
    C block stays implicit, and ``restriction(Z, split)`` rebuilds ``R``.
    The one-point prolongator is not kept: the cycle never applies it, and
    ``build_prolongation(A_fc, split)`` rebuilds its pattern (setup broke
    exact ties in its own numbering).  The cycle smooths with ``f_smoother``
    applied matrix-free on ``A_ff``.  ``A_ff`` is ``None`` when the cycle
    never multiplies by it (``_cycle_reads_A_ff``): a smoother of degree 0
    is a scaling of the residual, and with one smooth per cycle no residual
    update reads the block either.  ``nnz_A`` records the size of the level
    matrix before it was discarded.
    """

    Z: SparseMatrix
    A_ff: SparseMatrix | None
    A_fc: SparseMatrix
    f_smoother: PolySolver
    split: CFSplit
    n: int
    nnz_A: int
    ddc_stats: tuple = ()
    # Not a field: always None; its only reader is perfbench/layers.py.
    f_smoother_assembled = None

    @property
    def R(self):
        # Not the restriction: ``Z`` itself, the matrix the cycle's
        # restriction applies; its only reader is perfbench/layers.py.
        return self.Z


@dataclass(frozen=True)
class TruncationTest:
    """One truncation test: the level, its size, the tentative solver's
    achieved degree and its independent-rhs relative residual (both
    ``None`` when the build failed), and whether the level was accepted."""

    level: int
    n: int
    effective_order: int | None
    residual: float | None
    accepted: bool


@dataclass
class Hierarchy:
    """The complete multigrid: per-level operators, the F-point smooths per
    level of a cycle, the coarsest matrix and its polynomial solver, the
    truncation tests in the order they ran, and the global complexity
    metrics.  ``flops_per_cycle`` is ``count_cycle_flops`` of the finished
    hierarchy, counted once by ``setup``; ``cycle_complexity`` is that count
    over one top-grid SpMV (``2 * nnz``).

    ``order`` (``np.intp``) is the top level's cycle order: position ``i``
    of level 0 is problem unknown ``order[i]``.  ``top_A`` and the solve's
    vectors stay in the problem's numbering.  A hierarchy is not modified
    after setup and holds no work vectors, so concurrent solves may share
    it."""

    levels: list
    coarsest_A: SparseMatrix
    coarse_solver: PolySolver
    top_A: SparseMatrix
    order: np.ndarray
    f_smooths: int = 1
    flops_per_cycle: int = 0
    cycle_complexity: float = 0.0
    storage_complexity: float = 0.0
    grid_complexity: float = 0.0
    truncated_at: int = None
    truncation_tests: tuple = ()
    setup_breakdown: dict = field(default_factory=dict)

    @property
    def num_levels(self):
        return len(self.levels)


class _Timer:
    def __init__(self, sink, phase):
        self.sink = sink
        self.phase = phase

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.sink is not None:
            self.sink[self.phase] = (self.sink.get(self.phase, 0.0)
                                     + time.perf_counter() - self.start)
        return False


def build_restriction(A, split, cfg, level=0, timings=None):
    """Approximate ideal restriction and the operators kept for smoothing.

    Extracts the split blocks, builds the fine-block polynomial (the
    smoother, applied matrix-free), and assembles it with the fixed sparsity
    of ``A_ff`` as ``Ahat_ff^-1`` only to form ``Z = -A_cf * Ahat_ff^-1``.
    Entries dropped from ``Z`` by ``r_drop`` are discarded, not lumped.
    ``Z`` is ``n_c x n_f`` in ``split.f_set`` column order;
    ``restriction(Z, split)`` scatters ``[Z I]`` into the level's ordering.

    Returns
    -------
    (Z, A_ff, A_fc, f_smoother) -- ``build_prolongation`` takes ``A_fc``.
    """
    f, c = split.f_set, split.c_set
    with _Timer(timings, 'extract'):
        A_ff = extract(A, f, f)
        A_fc = extract(A, f, c)
        A_cf = extract(A, c, f)
    with _Timer(timings, 'polynomial'):
        smoother = _build_poly(cfg.inverse_type, A_ff, cfg.poly_order,
                               _derive_seed(cfg.seed, level, _SEED_SMOOTHER))
        assembled = assemble_fixed_sparsity(smoother, A_ff)
    with _Timer(timings, 'spgemm_R'):
        Z = spgemm(A_cf, assembled)
        Z = replace(Z, values=-Z.values)
    with _Timer(timings, 'drop'):
        Z = drop_and_lump(Z, cfg.r_drop, lump=False, keep_diagonal=False)
    return Z, A_ff, A_fc, smoother


def restriction(Z, split):
    """``R = [Z I]`` as an ``n_c x n`` matrix in the level's fine ordering:
    ``Z``'s columns scattered to ``split.f_set``, plus a unit entry at each
    C point's column."""
    # Z stores no zeros and ``f_set`` is increasing, so its block is canonical
    # in the level's ordering and the sum with the disjoint unit C block
    # drops nothing.
    f, c = split.f_set, split.c_set
    n_c = len(c)
    z_cols = f[Z.col_indices.astype(np.intp)].astype(_INDEX)
    z_block = replace(Z, ncols=split.n, col_indices=z_cols)
    c_block = SparseMatrix(n_c, split.n, np.arange(n_c + 1, dtype=_INDEX),
                           c.astype(_INDEX), np.ones(n_c))
    return _add(z_block, c_block)


def build_prolongation(A_fc, split):
    """One-point classical prolongator ``P = [W; I]``.

    Built from the ``n_f x n_c`` block ``A_fc`` of ``split``: each F row
    carries a single unit entry in the column of its largest coupling (by
    absolute value) to a C point, ties resolved to the lowest C index; C rows
    are the identity.
    """
    f, c = split.f_set, split.c_set
    n, n_c = split.n, len(c)
    if (A_fc.nrows, A_fc.ncols) != (len(f), n_c):
        raise ValueError(f'A_fc is {A_fc.nrows}x{A_fc.ncols}, but the split '
                         f'has {len(f)} F and {n_c} C points')
    lens = np.diff(A_fc.row_offsets)
    if np.any(lens == 0):
        bad = f[int(np.flatnonzero(lens == 0)[0])]
        raise ValueError(f'fine point {bad} has no coupling to any coarse '
                         'point; the splitting is invalid for a one-point '
                         'prolongator')
    absv = np.abs(A_fc.values)
    row_of = _row_index(A_fc)
    at_max = np.flatnonzero(absv == _row_max(absv, row_of, A_fc.nrows)[row_of])
    # ``first`` takes ``at_max``'s dtype: ``ufunc.at`` is fast only when the
    # target and the values match.
    first = np.full(A_fc.nrows, A_fc.nnz, dtype=at_max.dtype)
    np.minimum.at(first, row_of[at_max], at_max)
    cols = np.empty(n, dtype=_INDEX)
    cols[f] = A_fc.col_indices[first]
    cols[c] = np.arange(n_c, dtype=_INDEX)
    return SparseMatrix(n, n_c, np.arange(n + 1, dtype=_INDEX), cols,
                        np.ones(n))


def coarse_matrix(A, R, P, cfg, timings=None):
    """Galerkin triple product ``R A P`` followed by drop/lump control.

    Entries of ``R A P`` that cancel to exactly zero are not stored.
    """
    with _Timer(timings, 'spgemm_coarse'):
        coarse = spgemm(R, spgemm(A, P))
    with _Timer(timings, 'drop'):
        return drop_and_lump(coarse, cfg.a_drop, lump=cfg.a_lump)


def _build_poly(kind, A, order, seed):
    """Polynomial inverse of ``A`` of any of the ``POLY_KINDS``.
    The builders are called by module name, so rebinding the names (as a
    tracer does) reaches every build."""
    if kind == 'newton':
        return gmres_poly_newton(A, order, seed)
    if kind == 'arnoldi':
        return gmres_poly_arnoldi(A, order, seed)
    return neumann_poly(A, order)


def _build_coarse_solver(A, cfg, level):
    return _build_poly(cfg.coarsest_inverse_type, A, cfg.coarsest_poly_order,
                       _derive_seed(cfg.seed, level, _SEED_COARSE_POLY))


def _resolve_truncate_start(cfg, n_top):
    """Start level for truncation testing, estimated a priori from the
    problem size and the coarsening-rate bound of two: at least
    ``log2(n/reach)`` levels must pass before the remaining size can be
    within the coarse polynomial's reach (at most ``coarsest_poly_order + 1``
    Krylov directions, where the tentative solver is close to exact; a build
    on an easy level stops at rounding level with far fewer), plus two
    levels of margin since observed coarsening is slower than the bound.
    """
    reach = cfg.coarsest_poly_order + 1
    if n_top <= reach:
        return 0
    return int(np.ceil(np.log2(n_top / reach))) + 2


def try_truncate(A, cfg, level, record):
    """Tentative high-order coarse solver test for early truncation.

    Builds the coarse polynomial, applies it once matrix-free to an
    independent random right-hand side, and accepts (returning the solver,
    else ``None``) when the relative residual meets ``auto_truncate_tol``.
    Construction failures are logged and treated as "keep coarsening".
    Each test appends its ``TruncationTest`` to the list ``record``;
    ``setup`` decides the levels at which it is called
    (``_resolve_truncate_start``) and passes its own list.
    """
    if cfg.auto_truncate_tol is None:
        return None
    solver, order, residual = None, None, None
    try:
        solver = _build_coarse_solver(A, cfg, level)
    except (ValueError, np.linalg.LinAlgError) as exc:
        _log.warning('tentative coarse solver failed at level %d: %s',
                     level, exc)
    if solver is not None:
        order = solver.effective_order
        rhs = _random_unit_vector(
            A.nrows, _derive_seed(cfg.seed, level, _SEED_TRUNC_RHS))
        x = apply_matrix_free(solver, A, rhs)
        residual = float(_norm(rhs - spmv(A, x)) / _norm(rhs))
        if not math.isfinite(residual):
            residual = None
    accepted = residual is not None and residual <= cfg.auto_truncate_tol
    record.append(TruncationTest(level=level, n=A.nrows,
                                 effective_order=order, residual=residual,
                                 accepted=accepted))
    return solver if accepted else None


def _cycle_reads_A_ff(smoother, f_smooths):
    """Whether a V-cycle multiplies by a level's ``A_ff``: its smoother has
    degree 1 or more, or a smooth after the first forms ``r_f - A_ff e_f``.
    A degree-0 smoother scales the residual and reads no matrix."""
    return smoother.effective_order >= 1 or f_smooths > 1


def _nnz(M):
    """Entries stored in ``M``; a block a level does not keep holds none."""
    return 0 if M is None else M.nnz


def _cycle_split(n_f, n_c, base):
    """The split of a level in cycle order, F points first; its index sets
    are views of ``base``, an ``arange`` at least as long as the level."""
    labels = np.full(n_f + n_c, F_POINT, dtype=np.int8)
    labels[n_f:] = C_POINT
    return CFSplit(labels, base[:n_f], base[n_f:n_f + n_c])


def _reorder_smoother(p, f_order):
    """``p`` for the F points taken in ``f_order`` (``None`` keeps their
    order): a Neumann smoother's ``diag_scale`` holds one entry per F point
    and moves with them; the other kinds hold scalars only and come back
    unchanged."""
    if f_order is None or p.diag_scale is None:
        return p
    return replace(p, diag_scale=p.diag_scale[f_order])


def renumber(levels):
    """Renumber every level of ``levels`` into its cycle order, in place,
    and return the top level's order ``sigma_0``.

    The orders are built bottom-up: the coarsest level keeps its numbering
    and level ``l`` takes ``sigma_l = [f_set[pi_l], c_set[sigma_{l+1}]]``.
    ``pi_l`` sorts the level's F points stably by the nnz of their ``A_ff``
    row, then of their row in the ``Z`` of the level above (the level's
    unknowns are that ``Z``'s rows), then of their ``A_fc`` row, so the
    cycle's SpMVs with ``A_ff``, ``Z`` and ``A_fc`` meet rows grouped by
    length; a level that keeps no ``A_ff`` leaves out its key.  ``A_ff`` is
    permuted by ``pi_l`` on both sides, a Neumann smoother's ``diag_scale``
    by ``pi_l``, ``Z``'s rows by ``sigma_{l+1}`` and its columns by
    ``pi_l``, and ``A_fc``'s rows by ``pi_l`` and its columns by
    ``sigma_{l+1}``; each split becomes the level's split in cycle order, F
    points first.  Entries move without being combined, so every stored
    value keeps its bits.
    """
    # One entry per row (``None``) is an equal key, which the sort leaves
    # out, as it does an absent block's.
    lengths = [tuple(None if M is None else _row_lengths(M)
                     for M in (L.A_ff, L.A_fc, L.Z))
               for L in levels]
    f_orders = []
    z_above = None
    for L, (ff, fc, z) in zip(levels, lengths):
        f_orders.append(_stable_order(
            ff, None if z_above is None else z_above[L.split.f_set], fc))
        z_above = z
    base = np.arange(levels[0].n)
    below = sigma = None  # the coarsest level keeps its numbering
    for k in reversed(range(len(levels))):
        L, f_order, (ff, fc, z) = levels[k], f_orders[k], lengths[k]
        f, c = L.split.f_set, L.split.c_set
        # Gathered straight into the halves of ``sigma``, with no temporary;
        # the indices are in range, and ``clip`` skips buffering ``out``.
        sigma = np.empty(L.n, dtype=np.intp)
        if f_order is None:
            sigma[:len(f)] = f
        else:
            np.take(f, f_order, out=sigma[:len(f)], mode='clip')
        if below is None:
            sigma[len(f):] = c
        else:
            np.take(c, below.order, out=sigma[len(f):], mode='clip')
        pi = None if f_order is None else _permutation(f_order)
        levels[k] = replace(
            L, Z=_permute(L.Z, below, pi, z),
            A_ff=None if L.A_ff is None else _permute(L.A_ff, pi, pi, ff),
            A_fc=_permute(L.A_fc, pi, below, fc),
            f_smoother=_reorder_smoother(L.f_smoother, f_order),
            split=_cycle_split(L.split.n_f, L.split.n_c, base))
        if k:
            below = _permutation(sigma)
    return sigma


def setup(A, cfg):
    """Build the multigrid hierarchy for ``A``.

    Per level: stop if the matrix is small enough (or the level budget is
    exhausted); otherwise test truncation when eligible, split, build the
    restriction/prolongation pair and the Galerkin coarse matrix, and
    descend.  The full restrictions, prolongators and intermediate level
    matrices are released once used; only the top and coarsest matrices are
    retained.  A level's ``A_ff`` is released with them when the cycle never
    multiplies by it (``_cycle_reads_A_ff``).  Last, ``renumber`` puts the
    levels into cycle order.
    """
    cfg.validate()
    if A.nrows != A.ncols:
        raise ValueError('require a square matrix')
    if A.nrows == 0:
        raise ValueError('require a non-empty matrix')
    timings = {phase: 0.0 for phase in SETUP_PHASES}
    truncate_start = _resolve_truncate_start(cfg, A.nrows)
    levels = []
    current = A
    level = 0
    truncated_at = None
    truncation_tests = []
    coarse_solver = None
    while True:
        if current.nrows <= cfg.min_coarse_size:
            break
        if level >= cfg.max_levels:
            _log.warning('level budget (%d) exhausted at %d unknowns; '
                         'building the coarse solver here',
                         cfg.max_levels, current.nrows)
            break
        if level >= truncate_start:
            with _Timer(timings, 'truncation'):
                coarse_solver = try_truncate(current, cfg, level,
                                             truncation_tests)
            if coarse_solver is not None:
                truncated_at = level
                break
        with _Timer(timings, 'cf_split'):
            split, ddc_stats = cf_split(
                current, cfg.strong_threshold, cfg.ddc_fraction, cfg.ddc_its,
                _derive_seed(cfg.seed, level, _SEED_SPLIT))
        if split.n_f == 0:
            # The repair made every F point C (a diagonal matrix): solve here.
            _log.info('level %d needs no further reduction; building the '
                      'coarse solver directly', level)
            break
        Z, A_ff, A_fc, smoother = build_restriction(
            current, split, cfg, level=level, timings=timings)
        if not _cycle_reads_A_ff(smoother, len(cfg.smooth_type)):
            A_ff = None  # not held through the next level's split either
        with _Timer(timings, 'spgemm_R'):
            R = restriction(Z, split)
        with _Timer(timings, 'prolongator'):
            P = build_prolongation(A_fc, split)
        coarse = coarse_matrix(current, R, P, cfg, timings=timings)
        del R, P  # setup intermediates: not held through the next level
        levels.append(Level(
            Z=Z, A_ff=A_ff, A_fc=A_fc, f_smoother=smoother, split=split,
            n=current.nrows, nnz_A=current.nnz, ddc_stats=tuple(ddc_stats)))
        current = coarse
        level += 1
    if coarse_solver is None:
        with _Timer(timings, 'truncation'):
            coarse_solver = _build_coarse_solver(current, cfg, level)
    with _Timer(timings, 'renumber'):
        order = renumber(levels) if levels else np.arange(A.nrows)
    H = Hierarchy(levels=levels, coarsest_A=current,
                  coarse_solver=coarse_solver, top_A=A, order=order,
                  f_smooths=len(cfg.smooth_type), truncated_at=truncated_at,
                  truncation_tests=tuple(truncation_tests),
                  setup_breakdown=timings)
    retained = sum(_nnz(L.A_ff) + L.A_fc.nnz + L.Z.nnz for L in H.levels)
    H.storage_complexity = (retained + A.nnz + H.coarsest_A.nnz) / A.nnz
    H.flops_per_cycle = count_cycle_flops(H)
    H.cycle_complexity = H.flops_per_cycle / (2.0 * A.nnz)
    H.grid_complexity = (sum(L.n for L in H.levels)
                         + H.coarsest_A.nrows) / A.nrows
    return H


def count_cycle_flops(H):
    """Deterministic FLOP count of one V-cycle as ``solve.vcycle`` runs it.

    Cost model: an SpMV with ``nnz`` stored entries costs ``2*nnz``; a vector
    scale/axpy/elementwise update producing ``n`` entries costs ``2*n``;
    copies, scatters and gathers are free.  Per level this covers the
    restriction (an SpMV with ``Z`` plus the C-point residual), the cached
    ``A_fc e_c`` product, the ``H.f_smooths`` fine-point smooths (one per
    letter of ``smooth_type``; the first exploits the zero initial error),
    the free merge, and at the bottom one coarse polynomial application:

    * restriction: ``2*nnz(Z) + n_c``
    * coarse-coupling cache: ``2*nnz(A_fc)``
    * first smooth: ``2*n_f`` (residual combine) + one smoother application
    * each of the ``H.f_smooths - 1`` further smooths: ``2*nnz(A_ff) +
      4*n_f`` (residual combine) + one smoother application + ``2*n_f``
      (error update)
    * matrix-free smoother application of degree ``d``: ``2*n + d*(2*nnz +
      2*n)`` for coefficient form, ``2*n + d*(2*nnz + 6*n)`` for the Neumann
      series, ``2*nnz + 4*n`` per real root and ``4*nnz + 10*n`` per
      conjugate pair for the Newton form; a degree-0 smoother, applied
      without ``A_ff``, costs ``2*n_f`` either way.

    A level that keeps no ``A_ff`` counts it as 0 entries; its one smooth
    has degree 0, so its count reads no ``nnz`` and comes out the same.
    """
    total = sum(_level_cycle_flops(L, H.f_smooths) for L in H.levels)
    total += _poly_apply_flops(H.coarse_solver, H.coarsest_A.nnz,
                               H.coarsest_A.nrows)
    return int(total)


def _level_cycle_flops(L, f_smooths):
    """FLOPs that level ``L`` adds to one V-cycle (``count_cycle_flops``)."""
    n_f = len(L.split.f_set)
    nnz_ff = _nnz(L.A_ff)
    smooth = _poly_apply_flops(L.f_smoother, nnz_ff, n_f)
    return (2 * L.Z.nnz + L.split.n_c + 2 * L.A_fc.nnz + 2 * n_f + smooth
            + (f_smooths - 1) * (2 * nnz_ff + 4 * n_f + smooth + 2 * n_f))


def hierarchy_summary(H):
    """JSON-serialisable summary: per-level sizes and nonzero counts, the
    coarse solver, the truncation tests and decision, and complexity
    metrics.  ``nnz_A_ff`` is ``None`` for a level that keeps no ``A_ff``."""
    levels = []
    for idx, L in enumerate(H.levels):
        levels.append({
            'level': idx,
            'n': int(L.n),
            'n_f': int(L.split.n_f),
            'n_c': int(L.split.n_c),
            'nnz_A': int(L.nnz_A),
            'nnz_A_ff': None if L.A_ff is None else int(L.A_ff.nnz),
            'nnz_A_fc': int(L.A_fc.nnz),
            'nnz_Z': int(L.Z.nnz),
            'smoother_kind': L.f_smoother.kind,
            'smoother_order': int(L.f_smoother.order),
            'smoother_effective_order': int(L.f_smoother.effective_order),
            'ddc_passes': [asdict(s) for s in L.ddc_stats],
        })
    return {
        'num_levels': len(H.levels),
        'num_grids': len(H.levels) + 1,
        'n_top': int(H.top_A.nrows),
        'nnz_top': int(H.top_A.nnz),
        'levels': levels,
        'coarsest': {
            'n': int(H.coarsest_A.nrows),
            'nnz': int(H.coarsest_A.nnz),
            'solver_kind': H.coarse_solver.kind,
            'solver_order': int(H.coarse_solver.order),
            'solver_effective_order': int(H.coarse_solver.effective_order),
            'solver_roots':
                None if H.coarse_solver.roots is None
                else len(H.coarse_solver.roots),
        },
        'truncated_at': H.truncated_at,
        'truncation_tests': [asdict(t) for t in H.truncation_tests],
        'cycle_complexity': H.cycle_complexity,
        'storage_complexity': H.storage_complexity,
        'grid_complexity': H.grid_complexity,
    }
