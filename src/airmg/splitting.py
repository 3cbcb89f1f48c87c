"""Strength-of-connection graphs and the two-pass coarse/fine splitting.

The splitting is built for reduction multigrid: the fine points are chosen as
a maximal independent set of the symmetrised strength graph (so the fine-fine
block carries no strong couplings), then a diagonal-dominance cleanup pass
converts the least dominant fine points to coarse points.
"""

from dataclasses import dataclass, replace

import numpy as np

from .sparse import SparseMatrix, _keep_entries, _row_index, _segment_max

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


@dataclass(frozen=True)
class StrengthGraph:
    """Strong-connection adjacency ``S`` (unit values, no diagonal) and the
    pattern of ``S + S^T``."""

    S: SparseMatrix
    symmetric_closure: SparseMatrix

    @property
    def n(self):
        return self.S.nrows


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


def strength_graph(A, theta):
    """Strong connections of ``A``: edge ``(i, j)`` is present iff ``j != i``,
    ``a_ij`` is nonzero, and ``|a_ij| >= theta * max_{k != i} |a_ik|``.

    ``theta = 0`` keeps every nonzero off-diagonal.
    """
    if A.nrows != A.ncols:
        raise ValueError('strength graph requires a square matrix')
    if not 0.0 <= theta <= 1.0:
        raise ValueError('theta must lie in [0, 1]')
    row_of = _row_index(A)
    absv = np.abs(A.values)
    absv[A.col_indices == row_of] = 0.0
    rowmax = _segment_max(absv, A.row_offsets, A.nrows)
    keep = (absv > 0) & (absv >= theta * rowmax[row_of])
    # Release the per-entry temporaries before S and its closure are built.
    del row_of, absv, rowmax
    S = _keep_entries(A, keep)
    S = replace(S, values=np.ones(S.nnz))
    closure = SparseMatrix._from_scipy(S._scipy + S._scipy.T.tocsr())
    return StrengthGraph(S, replace(closure, values=np.ones(closure.nnz)))


def _luby_ranks(n, degrees, seed):
    """Total priority order for the Luby rounds.

    Each node draws a uniform weight keyed by (seed, node position) plus a
    degree bias ``deg/(deg+1)``; exact weight ties are broken in favour of the
    lower node index.  Returning dense ranks makes every comparison strict.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    weights = rng.random(n) + degrees / (degrees + 1.0)
    order = np.lexsort((-np.arange(n), weights))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n, dtype=np.int64)
    return ranks


def pmisr(graph, seed, max_luby_loops=None):
    """Luby-style maximal independent set on the symmetric closure; the
    independent set becomes the F points, its complement the C points.

    A node joins F when its priority beats every undecided neighbour; its
    undecided neighbours then become C.  With ``max_luby_loops=None`` the
    rounds run until every node is decided (F is then maximal); otherwise any
    node still undecided after the cap becomes C.
    """
    G = graph.symmetric_closure
    n = G.nrows
    offsets, cols = G.row_offsets, G.col_indices
    row_of = _row_index(G)
    degrees = np.diff(offsets).astype(np.float64)
    ranks = _luby_ranks(n, degrees, seed)
    state = np.full(n, _UNDECIDED, dtype=np.int8)
    loops = 0
    while True:
        undecided = state == _UNDECIDED
        if not undecided.any():
            break
        if max_luby_loops is not None and loops >= max_luby_loops:
            state[undecided] = _COARSE
            break
        contender = np.where(undecided[cols], ranks[cols], -1)
        best = _segment_max(contender, offsets, n, empty=-1.0)
        new_f = undecided & (ranks > best)
        state[new_f] = _FINE
        blocked = cols[new_f[row_of]]
        state[blocked[state[blocked] == _UNDECIDED]] = _COARSE
        loops += 1
    labels = np.where(state == _FINE, F_POINT, C_POINT).astype(np.int8)
    return CFSplit.from_labels(labels)


def _dominance_ratios(A, split):
    """Row dominance ratios of the fine-fine block of ``A`` under ``split``
    (off-diagonal absolute sum over absolute diagonal, in ``f_set`` order).
    The block is read through the labels; entries outside it add ``+0.0``,
    so the sums equal those over the extracted block bit for bit."""
    row_of = _row_index(A)
    is_diag = A.col_indices == row_of
    diag = np.zeros(A.nrows)
    diag[row_of[is_diag]] = A.values[is_diag]
    diag = diag[split.f_set]
    if np.any(diag == 0):
        bad = split.f_set[int(np.flatnonzero(diag == 0)[0])]
        raise ValueError(f'zero diagonal in fine-fine block (fine row {bad}); '
                         'splitting is not usable for reduction')
    in_block = (split.labels[A.col_indices] == F_POINT) & ~is_diag
    offdiag = np.where(in_block, np.abs(A.values), 0.0)
    offsum = np.bincount(row_of, weights=offdiag, minlength=A.nrows)
    return offsum[split.f_set] / np.abs(diag)


def ddc_pass(A, split, fraction, nbins=1000):
    """One diagonal-dominance cleanup pass: bin the fine-row dominance ratios
    into ``nbins`` equal-width bins and convert to C every fine point above
    the bin boundary whose exceedance count is closest to ``fraction``
    of the current fine points.  Returns ``(split, DDCPassStats)``."""
    if not 0.0 < fraction < 1.0:
        raise ValueError('fraction must lie in (0, 1)')
    if nbins < 1:
        raise ValueError('nbins must be positive')
    if A.nrows != A.ncols:
        raise ValueError('diagonal-dominance cleanup requires a square matrix')
    ratios = _dominance_ratios(A, split)
    n_f = len(ratios)
    target = fraction * n_f
    lo, hi = float(ratios.min()), float(ratios.max())
    if lo == hi:
        # Single populated bin: convert the whole bin only when that is
        # strictly closer to the target than converting nothing.
        convert = np.full(n_f, abs(n_f - target) < target, dtype=bool)
        cut = lo if convert.any() else hi
    else:
        edges = lo + (hi - lo) * np.arange(nbins + 1) / nbins
        sorted_ratios = np.sort(ratios)
        above = n_f - np.searchsorted(sorted_ratios, edges, side='right')
        diffs = np.abs(above - target)
        # Among equidistant boundaries prefer the one converting fewer points.
        k = nbins - int(np.argmin(diffs[::-1]))
        cut = float(edges[k])
        convert = ratios > cut
    labels = split.labels.copy()
    labels[split.f_set[convert]] = C_POINT
    stats = DDCPassStats(n_f_before=n_f, converted=int(convert.sum()),
                         ratio_min=lo, ratio_max=hi,
                         ratio_mean=float(ratios.mean()), cut=float(cut))
    return CFSplit.from_labels(labels), stats


def cf_split(A, theta, ddc_fraction, ddc_its, seed, nbins=1000,
             max_luby_loops=None):
    """Full two-pass splitting: independent-set selection followed by
    ``ddc_its`` dominance-cleanup passes.

    Returns
    -------
    split : CFSplit
    stats : list of DDCPassStats
        Ratio diagnostics from each cleanup pass.
    """
    graph = strength_graph(A, theta)
    split = pmisr(graph, seed, max_luby_loops=max_luby_loops)
    stats = []
    for _ in range(ddc_its):
        if split.n_f == 0:
            break
        split, pass_stats = ddc_pass(A, split, ddc_fraction, nbins)
        stats.append(pass_stats)
    return split, stats
