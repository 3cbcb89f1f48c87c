"""Strength graph, independent-set splitting and dominance-cleanup tests."""

import numpy as np
import pytest

from airmg import (AdvectionProblem, C_POINT, CFSplit, F_POINT, SparseMatrix,
                   build_advection_1d, build_advection_2d, cf_split, ddc_pass,
                   pmisr, strength_graph)
from airmg.splitting import _dominance_ratios


def all_fine(n):
    return CFSplit.from_labels(np.full(n, F_POINT, dtype=np.int8))


def check_independent_and_maximal(closure_dense, labels, require_maximal=True):
    """Brute-force graph oracle for the F set."""
    n = len(labels)
    f = np.flatnonzero(labels == F_POINT)
    for i in f:
        for j in f:
            if i != j:
                assert closure_dense[i, j] == 0, 'two adjacent F points'
    if require_maximal:
        for i in np.flatnonzero(labels == C_POINT):
            neighbours = np.flatnonzero(closure_dense[i])
            assert np.any(labels[neighbours] == F_POINT), \
                f'C point {i} could join the independent set'


def test_strength_diagonal_matrix_empty_graph():
    A = SparseMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
    G = strength_graph(A, 0.5)
    assert G.S.nnz == 0
    assert G.symmetric_closure.nnz == 0


def test_strength_equal_offdiagonals_tie_at_max():
    v = 0.7071067811865476
    A = SparseMatrix.from_dense([[2 * v, 0.0, 0.0],
                                 [-v, 2 * v, -v],
                                 [0.0, 0.0, 2 * v]])
    G = strength_graph(A, 0.99)
    cols, _ = G.S.row(1)
    assert list(cols) == [0, 2]


def test_strength_threshold_selects_dominant_direction():
    vx, vy = np.sqrt(2 / 3), np.sqrt(1 / 3)
    A = SparseMatrix.from_dense([[vx + vy, 0.0, 0.0],
                                 [-vx, vx + vy, -vy],
                                 [0.0, 0.0, vx + vy]])
    strong = strength_graph(A, 0.99)
    cols, _ = strong.S.row(1)
    assert list(cols) == [0]
    both = strength_graph(A, 0.4)
    cols, _ = both.S.row(1)
    assert list(cols) == [0, 2]


def test_strength_theta_zero_keeps_all_nonzeros_only():
    A = SparseMatrix.from_coo(2, 2, [0, 0, 1], [0, 1, 1],
                              [1.0, 0.0, 1.0])  # explicit zero off-diagonal
    G = strength_graph(A, 0.0)
    assert G.S.nnz == 0


def test_strength_theta_validation():
    A = SparseMatrix.identity(2)
    with pytest.raises(ValueError):
        strength_graph(A, -0.1)
    with pytest.raises(ValueError):
        strength_graph(A, 1.5)


def test_strength_closure_is_symmetric():
    A = build_advection_1d(6, 1.0)
    G = strength_graph(A, 0.5)
    closure = G.symmetric_closure.to_dense()
    assert np.array_equal(closure, closure.T)
    assert G.S.nnz == 5  # directed chain
    assert G.symmetric_closure.nnz == 10


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
        check_independent_and_maximal(G.symmetric_closure.to_dense(),
                                      split.labels)
        f = set(split.f_set.tolist())
        assert f in ({0, 2}, {1})


def test_pmisr_chain_independent_and_large_enough():
    n = 60
    A = build_advection_1d(n, 1.0)
    G = strength_graph(A, 0.5)
    split = pmisr(G, seed=4)
    check_independent_and_maximal(G.symmetric_closure.to_dense(), split.labels)
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
        check_independent_and_maximal(G.symmetric_closure.to_dense(),
                                      split.labels)


def test_pmisr_loop_cap_marks_rest_coarse():
    n = 40
    A = build_advection_1d(n, 1.0)
    G = strength_graph(A, 0.5)
    split = pmisr(G, seed=2, max_luby_loops=1)
    # still independent, but maximality may fail; leftovers became C
    check_independent_and_maximal(G.symmetric_closure.to_dense(),
                                  split.labels, require_maximal=False)
    full = pmisr(G, seed=2)
    assert split.n_f <= full.n_f


def test_pmisr_deterministic():
    A, _ = build_advection_2d(AdvectionProblem(nx=12, ny=12, vx=0.6, vy=0.4))
    G = strength_graph(A, 0.5)
    a = pmisr(G, seed=9)
    b = pmisr(G, seed=9)
    assert np.array_equal(a.labels, b.labels)


def test_dominance_ratio_arithmetic():
    A = SparseMatrix.from_dense([[2.0, -1.0, -0.5],
                                 [0.0, 1.0, 0.0],
                                 [0.0, 0.0, 1.0]])
    rho = _dominance_ratios(A, all_fine(3))
    assert rho[0] == pytest.approx(0.75)
    assert rho[1] == 0.0 and rho[2] == 0.0


def test_ddc_zero_diagonal_error():
    A = SparseMatrix.from_dense([[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        ddc_pass(A, all_fine(2), 0.25)


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
    A = SparseMatrix.from_dense(np.diag(np.arange(1.0, 9.0)))
    split, stats = cf_split(A, theta=0.99, ddc_fraction=0.01, ddc_its=2,
                            seed=0)
    assert np.all(split.labels == F_POINT)
    assert all(s.converted == 0 for s in stats)


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
