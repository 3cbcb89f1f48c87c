"""Strength graph, independent-set splitting and dominance-cleanup tests."""

import numpy as np
import pytest

from airmg import (AdvectionProblem, C_POINT, CFSplit, F_POINT, SparseMatrix,
                   build_advection_1d, build_advection_2d, build_prolongation,
                   cf_split, ddc_pass, extract, pmisr, strength_graph)
from airmg import splitting
from airmg.hierarchy import _SEED_SPLIT, _derive_seed
from airmg.sparse import _row_index
from airmg.splitting import _dominance_ratios, _level_view


def all_fine(n):
    return CFSplit.from_labels(np.full(n, F_POINT, dtype=np.int8))


def closure_dense(G):
    """Dense 0/1 adjacency of a strength graph's closure pattern."""
    return SparseMatrix(G.n, G.n, G.row_offsets, G.col_indices,
                        np.ones(len(G.col_indices))).to_dense()


def neighbours(G, i):
    return G.col_indices[G.row_offsets[i]:G.row_offsets[i + 1]]


def reference_closure(A, theta):
    """Dense oracle for the strength closure: ``S | S^T`` with ``S`` from the
    row-relative threshold on the nonzero off-diagonals."""
    absd = np.abs(A.to_dense())
    np.fill_diagonal(absd, 0.0)
    S = (absd > 0) & (absd >= theta * absd.max(axis=1, initial=0.0)[:, None])
    return S | S.T


def reference_pmisr(graph, seed, weights=None):
    """The sort-based PMISR that the edge-list form replaced, kept as its
    reference: the weights become dense ranks through ``np.lexsort`` (exact
    ties to the lower index) and every round sweeps the whole closure.
    ``weights`` defaults to the draw that rank computation made."""
    n, offsets, cols = graph.n, graph.row_offsets, graph.col_indices
    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(offsets))
    if weights is None:
        degrees = np.diff(offsets).astype(np.float64)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        weights = rng.random(n) + degrees / (degrees + 1.0)
    order = np.lexsort((-np.arange(n), weights))
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n, dtype=np.int64)
    undecided_, fine, coarse = 0, 1, 2
    state = np.full(n, undecided_, dtype=np.int8)
    while True:
        undecided = state == undecided_
        if not undecided.any():
            break
        contender = np.where(undecided[cols], ranks[cols], -1)
        best = np.full(n, -1.0)
        np.maximum.at(best, row_of, contender)
        new_f = undecided & (ranks > best)
        state[new_f] = fine
        blocked = cols[new_f[row_of]]
        state[blocked[state[blocked] == undecided_]] = coarse
    return np.where(state == fine, F_POINT, C_POINT).astype(np.int8)


def reference_dominance_ratios(A, split):
    """The per-pass ``_dominance_ratios`` that the shared level view
    replaced, kept as its reference: the diagonal, the diagonal mask and
    ``|a_ij|`` are rebuilt from ``A`` on every call."""
    row_of = _row_index(A)
    is_diag = A.col_indices == row_of
    at = np.flatnonzero(is_diag)
    diag = np.zeros(A.nrows)
    diag[row_of[at]] = A.values[at]
    diag = diag[split.f_set]
    if np.any(diag == 0):
        bad = split.f_set[int(np.flatnonzero(diag == 0)[0])]
        raise ValueError(f'zero diagonal in fine-fine block (fine row {bad}); '
                         'splitting is not usable for reduction')
    in_block = (split.labels[A.col_indices] == F_POINT) & ~is_diag
    offdiag = np.where(in_block, np.abs(A.values), 0.0)
    offsum = np.bincount(row_of, weights=offdiag, minlength=A.nrows)
    return offsum[split.f_set] / np.abs(diag)


def random_matrix(rng, n, density):
    """Nonsymmetric test matrix with tied magnitudes, explicit zeros, empty
    rows and some missing diagonals."""
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, rng.random(n) < 0.8)
    mask[rng.random(n) < 0.15] = False
    vals = np.round(rng.uniform(-1, 1, (n, n)), 1)
    rows, cols = np.nonzero(mask)
    return SparseMatrix.from_coo(n, n, rows, cols, vals[rows, cols])


def with_signed_zeros(rng, A):
    """``A`` with about a tenth of its stored values set to ``-0.0``."""
    values = A.values.copy()
    values[rng.random(A.nnz) < 0.1] = -0.0
    return SparseMatrix(A.nrows, A.ncols, A.row_offsets, A.col_indices,
                        values)


def permuted(A, seed):
    """``Q A Q^T`` for a random permutation ``Q``."""
    inv = np.argsort(np.random.default_rng(seed).permutation(A.nrows))
    return SparseMatrix.from_coo(A.nrows, A.ncols, inv[_row_index(A)],
                                 inv[A.col_indices], A.values)


def check_independent_and_maximal(closure_dense, labels):
    """Brute-force graph oracle for the F set."""
    n = len(labels)
    f = np.flatnonzero(labels == F_POINT)
    for i in f:
        for j in f:
            if i != j:
                assert closure_dense[i, j] == 0, 'two adjacent F points'
    for i in np.flatnonzero(labels == C_POINT):
        neighbours = np.flatnonzero(closure_dense[i])
        assert np.any(labels[neighbours] == F_POINT), \
            f'C point {i} could join the independent set'


def test_strength_diagonal_matrix_empty_graph():
    A = SparseMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
    G = strength_graph(A, 0.5)
    assert G.n == 3
    assert len(G.col_indices) == 0
    assert np.array_equal(G.row_offsets, [0, 0, 0, 0])


def test_strength_equal_offdiagonals_tie_at_max():
    v = 0.7071067811865476
    A = SparseMatrix.from_dense([[2 * v, 0.0, 0.0],
                                 [-v, 2 * v, -v],
                                 [0.0, 0.0, 2 * v]])
    G = strength_graph(A, 0.99)
    assert list(neighbours(G, 1)) == [0, 2]


def test_strength_threshold_selects_dominant_direction():
    vx, vy = np.sqrt(2 / 3), np.sqrt(1 / 3)
    A = SparseMatrix.from_dense([[vx + vy, 0.0, 0.0],
                                 [-vx, vx + vy, -vy],
                                 [0.0, 0.0, vx + vy]])
    strong = strength_graph(A, 0.99)
    assert list(neighbours(strong, 1)) == [0]
    both = strength_graph(A, 0.4)
    assert list(neighbours(both, 1)) == [0, 2]


def test_strength_theta_zero_keeps_all_nonzeros_only():
    A = SparseMatrix.from_coo(2, 2, [0, 0, 1], [0, 1, 1],
                              [1.0, 0.0, 1.0])  # explicit zero off-diagonal
    G = strength_graph(A, 0.0)
    assert len(G.col_indices) == 0


def test_strength_theta_validation():
    A = SparseMatrix.identity(2)
    with pytest.raises(ValueError):
        strength_graph(A, -0.1)
    with pytest.raises(ValueError):
        strength_graph(A, 1.5)


def test_strength_closure_is_symmetric():
    A = build_advection_1d(6, 1.0)
    G = strength_graph(A, 0.5)
    closure = closure_dense(G)
    assert np.array_equal(closure, closure.T)
    # the directed chain's five links, each stored in both directions
    path = np.eye(6, k=1) + np.eye(6, k=-1)
    assert np.array_equal(closure, path)
    assert len(G.col_indices) == 10


def test_strength_closure_matches_dense_oracle():
    rng = np.random.default_rng(31)
    for n in (1, 5, 17, 40):
        for theta in (0.0, 0.25, 0.5, 0.99, 1.0):
            A = random_matrix(rng, n, 0.2)
            G = strength_graph(A, theta)
            assert np.array_equal(closure_dense(G) != 0,
                                  reference_closure(A, theta))
            for i in range(n):
                assert np.all(np.diff(neighbours(G, i)) > 0)
            shared = strength_graph(A, theta, view=_level_view(A))
            assert np.array_equal(shared.row_offsets, G.row_offsets)
            assert np.array_equal(shared.col_indices, G.col_indices)


def test_pmisr_empty_graph_all_fine():
    A = SparseMatrix.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))
    split = pmisr(strength_graph(A, 0.5), seed=1)
    assert np.all(split.labels == F_POINT)


def test_pmisr_path_graph_maximal_independent():
    A = SparseMatrix.from_dense([[1.0, -1.0, 0.0],
                                 [-1.0, 1.0, -1.0],
                                 [0.0, -1.0, 1.0]])
    for seed in range(8):
        G = strength_graph(A, 0.5)
        split = pmisr(G, seed)
        check_independent_and_maximal(closure_dense(G),
                                      split.labels)
        f = set(split.f_set.tolist())
        assert f in ({0, 2}, {1})


def test_pmisr_chain_independent_and_large_enough():
    n = 60
    A = build_advection_1d(n, 1.0)
    G = strength_graph(A, 0.5)
    split = pmisr(G, seed=4)
    check_independent_and_maximal(closure_dense(G), split.labels)
    assert split.n_f >= int(np.ceil(n / 3))


def test_pmisr_random_matrices_independent():
    rng = np.random.default_rng(21)
    for trial in range(4):
        dense = np.where(rng.random((20, 20)) < 0.2,
                         rng.uniform(-1, 1, (20, 20)), 0.0)
        np.fill_diagonal(dense, 2.0)
        A = SparseMatrix.from_dense(dense)
        G = strength_graph(A, 0.25)
        split = pmisr(G, seed=trial)
        check_independent_and_maximal(closure_dense(G),
                                      split.labels)


def test_pmisr_deterministic():
    A, _ = build_advection_2d(AdvectionProblem(nx=12, ny=12, vx=0.6, vy=0.4))
    G = strength_graph(A, 0.5)
    a = pmisr(G, seed=9)
    b = pmisr(G, seed=9)
    assert np.array_equal(a.labels, b.labels)


def test_pmisr_matches_sort_based_reference():
    rng = np.random.default_rng(41)
    advection, _ = build_advection_2d(AdvectionProblem(nx=20, ny=20,
                                                       vx=0.6, vy=0.8))
    matrices = [random_matrix(rng, n, min(0.5, 4.0 / n))
                for n in (1, 2, 9, 33, 120)] + [advection]
    for A in matrices:
        for theta in (0.0, 0.3, 0.99):
            G = strength_graph(A, theta)
            for seed in range(3):
                split = pmisr(G, seed)
                assert np.array_equal(split.labels,
                                      reference_pmisr(G, seed))


def test_pmisr_equal_weights_go_to_lower_index(monkeypatch):
    monkeypatch.setattr(splitting, '_luby_weights',
                        lambda degrees, seed: np.ones(len(degrees)))
    # Path 0-1-...-7 with all weights equal: 0 wins first, then every
    # second node, so the F points are the even ones (the odd ones if the
    # higher index won ties).
    A = build_advection_1d(8, 1.0)
    split = pmisr(strength_graph(A, 0.5), seed=0)
    assert list(split.f_set) == [0, 2, 4, 6]


def test_pmisr_tied_weights_match_reference(monkeypatch):
    def rounded(degrees, seed):
        rng = np.random.default_rng(seed)
        return np.round(rng.random(len(degrees)), 1) + np.minimum(degrees, 2)

    monkeypatch.setattr(splitting, '_luby_weights', rounded)
    rng = np.random.default_rng(43)
    for n in (12, 40, 90):
        A = random_matrix(rng, n, 5.0 / n)
        G = strength_graph(A, 0.0)
        degrees = np.diff(G.row_offsets).astype(np.float64)
        for seed in range(4):
            weights = rounded(degrees, seed)
            assert len(np.unique(weights)) < n
            assert np.array_equal(pmisr(G, seed).labels,
                                  reference_pmisr(G, seed, weights=weights))


def test_pmisr_does_not_sort(monkeypatch):
    A, _ = build_advection_2d(AdvectionProblem(nx=16, ny=16, vx=0.6, vy=0.8))
    G = strength_graph(A, 0.5)

    def refuse(*args, **kwargs):
        raise AssertionError('pmisr sorted')

    for name in ('lexsort', 'argsort', 'sort'):
        monkeypatch.setattr(np, name, refuse)
    split = pmisr(G, seed=5)
    monkeypatch.undo()
    assert np.array_equal(split.labels, reference_pmisr(G, 5))


def test_dominance_ratio_arithmetic():
    A = SparseMatrix.from_dense([[2.0, -1.0, -0.5],
                                 [0.0, 1.0, 0.0],
                                 [0.0, 0.0, 1.0]])
    rho = _dominance_ratios(A, all_fine(3))
    assert rho[0] == pytest.approx(0.75)
    assert rho[1] == 0.0 and rho[2] == 0.0


def test_dominance_ratios_match_reference_bitwise():
    # Explicit and signed zeros, empty rows and C rows without a diagonal;
    # F rows need a nonzero diagonal, so rows without one are made C.
    rng = np.random.default_rng(61)
    for n in (1, 6, 25, 80):
        for _ in range(3):
            A = with_signed_zeros(rng, random_matrix(rng, n, 0.2))
            view = _level_view(A)
            usable = view.diag_abs != 0
            for f_share in (0.2, 0.6, 1.0):
                labels = np.where(usable & (rng.random(n) < f_share),
                                  F_POINT, C_POINT).astype(np.int8)
                split = CFSplit.from_labels(labels)
                want = reference_dominance_ratios(A, split).view(np.uint64)
                for got in (_dominance_ratios(A, split),
                            _dominance_ratios(A, split, view)):
                    assert np.array_equal(got.view(np.uint64), want)


def test_ddc_zero_diagonal_error():
    A = SparseMatrix.from_dense([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        ddc_pass(A, all_fine(2), 0.25)
    # Row 1 stores no diagonal, row 2 an explicit -0.0 one.
    B = SparseMatrix.csr(3, 3, [0, 2, 3, 5], [0, 1, 0, 0, 2],
                         [1.0, 0.5, 1.0, 0.5, -0.0])
    for split in (all_fine(3), CFSplit.from_labels(np.array(
            [F_POINT, C_POINT, F_POINT], dtype=np.int8))):
        with pytest.raises(ValueError) as want:
            reference_dominance_ratios(B, split)
        with pytest.raises(ValueError) as got:
            _dominance_ratios(B, split)
        assert str(got.value) == str(want.value)
        assert 'zero diagonal in fine-fine block' in str(got.value)


def test_ddc_pass_rejects_split_without_f_points():
    A = SparseMatrix.from_dense([[2.0, -1.0], [0.0, 1.0]])
    all_coarse = CFSplit.from_labels(np.full(2, C_POINT, dtype=np.int8))
    with pytest.raises(ValueError, match='split has no F point'):
        ddc_pass(A, all_coarse, 0.25)


def test_ddc_diagonal_block_converts_nothing():
    A = SparseMatrix.from_dense(np.diag([1.0, 2.0, 3.0, 4.0]))
    split, _ = ddc_pass(A, all_fine(4), 0.01)
    assert np.all(split.labels == F_POINT)


def test_ddc_binning_rule_selects_top_ratio():
    # dominance ratios 0.1, 0.5, 0.9, 1.3 with fraction 0.25: the 1.3 point
    # converts
    dense = np.zeros((4, 4))
    np.fill_diagonal(dense, 1.0)
    dense[0, 1] = 0.1
    dense[1, 2] = 0.5
    dense[2, 3] = 0.9
    dense[3, 0] = 1.3
    A = SparseMatrix.from_dense(dense)
    split, _ = ddc_pass(A, all_fine(4), 0.25)
    assert np.array_equal(split.labels,
                          [F_POINT, F_POINT, F_POINT, C_POINT])


def test_ddc_never_converts_coarse_to_fine():
    rng = np.random.default_rng(22)
    dense = np.where(rng.random((16, 16)) < 0.3,
                     rng.uniform(-1, 1, (16, 16)), 0.0)
    np.fill_diagonal(dense, 3.0)
    A = SparseMatrix.from_dense(dense)
    labels = np.array([F_POINT if i % 3 else C_POINT for i in range(16)],
                      dtype=np.int8)
    before = CFSplit.from_labels(labels)
    after, _ = ddc_pass(A, before, 0.3)
    assert np.all(after.labels[before.c_set] == C_POINT)
    assert after.n_f <= before.n_f


def test_ddc_max_ratio_non_increasing():
    rng = np.random.default_rng(23)
    dense = np.where(rng.random((24, 24)) < 0.4,
                     rng.uniform(-1, 1, (24, 24)), 0.0)
    np.fill_diagonal(dense, 2.0)
    A = SparseMatrix.from_dense(dense)
    split = all_fine(24)
    prev = _dominance_ratios(A, split).max()
    for _ in range(3):
        split, _ = ddc_pass(A, split, 0.15)
        if split.n_f == 0:
            break
        cur = _dominance_ratios(A, split).max()
        assert cur <= prev + 1e-15
        prev = cur


def test_cf_split_diagonal_matrix():
    # Every point is selected F and no cleanup pass converts one, but no F
    # row couples to a C point, so the repair makes them all C.
    A = SparseMatrix.from_dense(np.diag(np.arange(1.0, 9.0)))
    split, stats = cf_split(A, theta=0.99, ddc_fraction=0.01, ddc_its=2,
                            seed=0)
    assert np.all(split.labels == C_POINT)
    assert all(s.converted == 0 for s in stats)


def check_every_f_row_couples_to_c(A, split):
    """Every F row stores an entry (explicit zeros count) in a C column, so
    the one-point prolongator has a column to pick."""
    stored = np.zeros((A.nrows, A.ncols), dtype=bool)
    stored[_row_index(A), A.col_indices] = True
    assert np.all(stored[np.ix_(split.f_set, split.c_set)].any(axis=1))
    build_prolongation(extract(A, split.f_set, split.c_set), split)


def test_cf_split_returns_split_ready_for_prolongation():
    rng = np.random.default_rng(71)
    matrices = []
    for n in (8, 30, 90):
        # A diagonal of at least 1 on every row keeps the cleanup passes
        # defined.
        A = random_matrix(rng, n, 3.0 / n)
        matrices.append(SparseMatrix.from_coo(
            n, n, np.concatenate([_row_index(A), np.arange(n)]),
            np.concatenate([A.col_indices, np.arange(n)]),
            np.concatenate([A.values, rng.uniform(2.0, 3.0, n)])))
    advection, _ = build_advection_2d(AdvectionProblem(
        nx=20, ny=20, vx=np.cos(np.pi / 4), vy=np.sin(np.pi / 4)))
    matrices += [advection, permuted(advection, 3)]
    repaired = 0
    for A in matrices:
        for theta in (0.0, 0.5, 0.99):
            for ddc_its in (0, 2):
                split, _ = cf_split(A, theta, 0.05, ddc_its, seed=4)
                check_every_f_row_couples_to_c(A, split)
                if ddc_its == 0:
                    selected = pmisr(strength_graph(A, theta), seed=4)
                    repaired += split.n_c > selected.n_c
    assert repaired > 0  # some F rows were isolated before the repair


def test_cf_split_raises_when_cleanup_leaves_no_f_points():
    # The matrix and configuration of ``setup``'s stagnation test.
    A = SparseMatrix.from_dense([[1.0, -1.0, 0.0, 0.0],
                                 [-1.0, 1.0, 0.0, 0.0],
                                 [0.0, 0.0, 1.0, -1.0],
                                 [0.0, 0.0, -1.0, 1.0]])
    with pytest.raises(ValueError, match='no F points'):
        cf_split(A, theta=0.5, ddc_fraction=0.9, ddc_its=1,
                 seed=_derive_seed(0, 0, _SEED_SPLIT))


def test_cf_split_produces_dominant_fine_block():
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, _ = build_advection_2d(AdvectionProblem(nx=16, ny=16, vx=vx, vy=vy))
    split, _ = cf_split(A, theta=0.99, ddc_fraction=0.01, ddc_its=2, seed=0)
    rho = _dominance_ratios(A, split)
    assert rho.max() < 1.0


def test_cf_split_low_threshold_coarsens_slower():
    vx, vy = np.sqrt(2 / 3), np.sqrt(1 / 3)
    A, _ = build_advection_2d(AdvectionProblem(nx=16, ny=16, vx=vx, vy=vy))
    slow, _ = cf_split(A, theta=0.4, ddc_fraction=0.01, ddc_its=2, seed=0)
    fast, _ = cf_split(A, theta=0.99, ddc_fraction=0.01, ddc_its=2, seed=0)
    assert slow.n_c / slow.n > fast.n_c / fast.n


def test_cf_split_deterministic():
    A, _ = build_advection_2d(AdvectionProblem(nx=16, ny=16, vx=0.7, vy=0.3))
    a, _ = cf_split(A, theta=0.5, ddc_fraction=0.05, ddc_its=2, seed=13)
    b, _ = cf_split(A, theta=0.5, ddc_fraction=0.05, ddc_its=2, seed=13)
    assert np.array_equal(a.labels, b.labels)


def test_cf_split_partition_invariants():
    A, _ = build_advection_2d(AdvectionProblem(nx=10, ny=10, vx=0.8, vy=0.2))
    split, _ = cf_split(A, theta=0.6, ddc_fraction=0.02, ddc_its=1, seed=5)
    assert len(np.intersect1d(split.f_set, split.c_set)) == 0
    assert len(split.f_set) + len(split.c_set) == split.n
    assert np.all(np.diff(split.f_set) > 0)
    assert np.all(np.diff(split.c_set) > 0)
