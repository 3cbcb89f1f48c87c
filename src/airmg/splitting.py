"""Strength-of-connection graphs and the two-pass coarse/fine splitting.

The splitting is built for reduction multigrid: the fine points are chosen as
a maximal independent set of the symmetrised strength graph (so the fine-fine
block carries no strong couplings), then a diagonal-dominance cleanup pass
converts the least dominant fine points to coarse points, and a repair
makes C every F point with no C coupling.  All stages read one view of the
level matrix, which ``cf_split`` builds once.
"""

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .sparse import _keep_entries, _row_index, _row_max, _symmetric_pattern

__all__ = [
    'F_POINT',
    'C_POINT',
    'StrengthGraph',
    'CFSplit',
    'DDCPassStats',
    'strength_graph',
    'pmisr',
    'ddc_pass',
    'cf_split',
]

F_POINT = 0
C_POINT = 1

_UNDECIDED, _FINE, _COARSE = 0, 1, 2
_DDC_BINS = 1000


@dataclass(frozen=True)
class StrengthGraph:
    """Pattern of ``S + S^T`` for the strong-connection adjacency ``S`` (no
    diagonal): CSR row offsets and sorted column indices, no values."""

    row_offsets: np.ndarray
    col_indices: np.ndarray

    @property
    def n(self):
        return len(self.row_offsets) - 1


@dataclass(frozen=True)
class CFSplit:
    """Per-unknown F/C labels with the sorted index sets of both classes."""

    labels: np.ndarray
    f_set: np.ndarray
    c_set: np.ndarray

    @classmethod
    def from_labels(cls, labels):
        labels = np.ascontiguousarray(labels, dtype=np.int8)
        return cls(labels,
                   np.flatnonzero(labels == F_POINT).astype(np.int64),
                   np.flatnonzero(labels == C_POINT).astype(np.int64))

    @property
    def n(self):
        return len(self.labels)

    @property
    def n_f(self):
        return len(self.f_set)

    @property
    def n_c(self):
        return len(self.c_set)


@dataclass(frozen=True)
class DDCPassStats:
    """Diagnostics from one diagonal-dominance cleanup pass."""

    n_f_before: int
    converted: int
    ratio_min: float
    ratio_max: float
    ratio_mean: float
    cut: float


_LevelView = namedtuple('_LevelView', 'row_of offdiag_abs diag_abs')


def _level_view(A):
    """Row of each stored entry, its magnitude (``+0.0`` on the diagonal)
    and the absolute diagonal (0 where none is stored)."""
    row_of = _row_index(A)
    at = np.flatnonzero(A.col_indices == row_of)
    offdiag_abs = np.abs(A.values)
    diag_abs = np.zeros(A.nrows)
    diag_abs[row_of[at]] = offdiag_abs[at]
    offdiag_abs[at] = 0.0
    return _LevelView(row_of, offdiag_abs, diag_abs)


def strength_graph(A, theta, view=None):
    """Closure pattern of the strong connections of ``A``: ``j`` is strong
    for row ``i`` iff ``j != i``, ``a_ij`` is nonzero, and
    ``|a_ij| >= theta * max_{k != i} |a_ik|``; the graph holds ``(i, j)``
    when either direction is strong.  ``theta = 0`` keeps every nonzero
    off-diagonal.
    """
    if A.nrows != A.ncols:
        raise ValueError('strength graph requires a square matrix')
    if not 0.0 <= theta <= 1.0:
        raise ValueError('theta must lie in [0, 1]')
    view = _level_view(A) if view is None else view
    absv, row_of = view.offdiag_abs, view.row_of
    keep = absv >= theta * _row_max(absv, row_of, A.nrows)[row_of]
    keep &= absv > 0
    return StrengthGraph(*_symmetric_pattern(_keep_entries(A, keep)))


def _luby_weights(degrees, seed):
    """Luby priority of each node: a uniform draw keyed by (seed, node
    position) plus the degree bias ``deg/(deg+1)``."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return rng.random(len(degrees)) + degrees / (degrees + 1.0)


def pmisr(graph, seed):
    """Luby-style maximal independent set on the closure pattern ``graph``;
    the independent set becomes the F points, its complement the C points.

    Each round runs on the edges with two undecided ends.  A node is beaten
    by a neighbour of higher weight, or of equal weight and lower index; an
    unbeaten node joins F, its neighbours become C, and edges with a decided
    end are dropped.  The rounds run until all nodes are decided, so F is
    maximal.
    """
    n, degrees = graph.n, np.diff(graph.row_offsets)
    weights = _luby_weights(degrees.astype(np.float64), seed)
    # Each undirected edge once, as (lo, hi) with lo < hi: lo beats hi
    # exactly when w_lo >= w_hi.
    lo = np.repeat(np.arange(n, dtype=np.int64), degrees)
    upper = np.flatnonzero(graph.col_indices > lo)
    lo, hi = lo[upper], graph.col_indices[upper]
    state = np.full(n, _UNDECIDED, dtype=np.int8)
    while np.any(state == _UNDECIDED):
        beaten = state != _UNDECIDED
        beaten[np.where(weights[lo] >= weights[hi], hi, lo)] = True
        state[np.flatnonzero(~beaten)] = _FINE
        state[hi[np.flatnonzero(state[lo] == _FINE)]] = _COARSE
        state[lo[np.flatnonzero(state[hi] == _FINE)]] = _COARSE
        live = np.flatnonzero((state[lo] == _UNDECIDED)
                              & (state[hi] == _UNDECIDED))
        lo, hi = lo[live], hi[live]
    labels = np.where(state == _FINE, F_POINT, C_POINT).astype(np.int8)
    return CFSplit.from_labels(labels)


def _dominance_ratios(A, split, view=None):
    """Row dominance ratios of the fine-fine block of ``A`` under ``split``
    (off-diagonal absolute sum over absolute diagonal, in ``f_set`` order).
    The block is read through the labels; entries outside it add ``+0.0``,
    so the sums equal those over the extracted block bit for bit."""
    view = _level_view(A) if view is None else view
    diag = view.diag_abs[split.f_set]
    if np.any(diag == 0):
        bad = split.f_set[int(np.flatnonzero(diag == 0)[0])]
        raise ValueError(f'zero diagonal in fine-fine block (fine row {bad}); '
                         'splitting is not usable for reduction')
    offdiag = np.where(split.labels[A.col_indices] == F_POINT,
                       view.offdiag_abs, 0.0)
    offsum = np.bincount(view.row_of, weights=offdiag, minlength=A.nrows)
    return offsum[split.f_set] / diag


def ddc_pass(A, split, fraction, view=None):
    """One diagonal-dominance cleanup pass: bin the fine-row dominance ratios
    into ``_DDC_BINS`` equal-width bins and convert to C every fine point
    above the bin boundary whose exceedance count is closest to ``fraction``
    of the current fine points.  Returns ``(split, DDCPassStats)``."""
    if not 0.0 < fraction < 1.0:
        raise ValueError('fraction must lie in (0, 1)')
    if A.nrows != A.ncols:
        raise ValueError('diagonal-dominance cleanup requires a square matrix')
    if split.n_f == 0:
        raise ValueError('split has no F point to clean up')
    ratios = _dominance_ratios(A, split, view)
    n_f = len(ratios)
    target = fraction * n_f
    lo, hi = float(ratios.min()), float(ratios.max())
    if lo == hi:
        # Single populated bin: convert the whole bin only when that is
        # strictly closer to the target than converting nothing.
        convert = np.full(n_f, abs(n_f - target) < target, dtype=bool)
        cut = lo if convert.any() else hi
    else:
        edges = lo + (hi - lo) * np.arange(_DDC_BINS + 1) / _DDC_BINS
        sorted_ratios = np.sort(ratios)
        above = n_f - np.searchsorted(sorted_ratios, edges, side='right')
        diffs = np.abs(above - target)
        # Among equidistant boundaries prefer the one converting fewer points.
        k = _DDC_BINS - int(np.argmin(diffs[::-1]))
        cut = float(edges[k])
        convert = ratios > cut
    labels = split.labels.copy()
    labels[split.f_set[convert]] = C_POINT
    stats = DDCPassStats(n_f_before=n_f, converted=int(convert.sum()),
                         ratio_min=lo, ratio_max=hi,
                         ratio_mean=float(ratios.mean()), cut=float(cut))
    return CFSplit.from_labels(labels), stats


def _repair_split(A, split, view):
    """Make C every F point whose row stores no entry (explicit zeros count)
    in a C column.  Such rows (inflow boundary rows of the upwind problems)
    leave the one-point prolongator no column to pick; their ideal
    interpolation weight is zero, so keeping them coarse is harmless."""
    coupled = np.zeros(A.nrows, dtype=bool)
    at_c = np.flatnonzero(split.labels[A.col_indices] == C_POINT)
    coupled[view.row_of[at_c]] = True
    isolated = ~coupled[split.f_set]
    if not np.any(isolated):
        return split
    labels = split.labels.copy()
    labels[split.f_set[isolated]] = C_POINT
    return CFSplit.from_labels(labels)


def cf_split(A, theta, ddc_fraction, ddc_its, seed):
    """Full splitting: independent-set selection, ``ddc_its`` dominance
    cleanup passes and the repair, all reading one view of ``A``.  Returns
    ``(split, stats)``, with the ``DDCPassStats`` of each pass in ``stats``.

    The split is ready for the one-point prolongator: every F row stores an
    entry in a C column, so a diagonal matrix comes back all C.  Raises
    ``ValueError`` when selection and cleanup leave no F point.
    """
    view = _level_view(A)
    split = pmisr(strength_graph(A, theta, view), seed)
    stats = []
    while split.n_f and len(stats) < ddc_its:
        split, pass_stats = ddc_pass(A, split, ddc_fraction, view)
        stats.append(pass_stats)
    if split.n_f == 0:
        raise ValueError(f'splitting produced no F points ({A.nrows} rows)')
    return _repair_split(A, split, view), stats
