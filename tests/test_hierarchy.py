"""Hierarchy construction tests: restriction/prolongation operators, the
Galerkin coarse product, truncation and the full setup loop."""

import logging

import numpy as np
import pytest

from airmg import (AdvectionProblem, CFSplit, F_POINT, C_POINT, SetupConfig,
                   SparseMatrix, apply_matrix_free, build_advection_1d,
                   build_advection_2d, build_prolongation, build_restriction,
                   cf_split, coarse_matrix, drop_and_lump, extract,
                   hierarchy_summary, richardson_solve, setup, spgemm, spmv,
                   try_truncate, vcycle, SolveConfig)
from airmg import hierarchy, sparse, splitting
from airmg.hierarchy import (_SEED_COARSE_POLY, _SEED_TRUNC_RHS, _derive_seed,
                             _resolve_truncate_start)
from airmg.polynomial import _random_unit_vector, gmres_poly_newton
from airmg.splitting import _level_view, _repair_split
from structural_spgemm import assert_same_without_zeros, structural_spgemm


def labels_from_sets(n, c_set):
    labels = np.full(n, F_POINT, dtype=np.int8)
    labels[list(c_set)] = C_POINT
    return CFSplit.from_labels(labels)


def test_restriction_is_ideal_for_diagonal_fine_block():
    # 1-D chain: the fine block of any independent-set split is diagonal, so
    # the assembled polynomial inverse is exact and Z = -A_cf A_ff^{-1}
    A = build_advection_1d(32, 1.5)
    split, _ = cf_split(A, theta=0.5, ddc_fraction=0.01, ddc_its=2, seed=0)
    cfg = SetupConfig(poly_order=2)
    R, A_ff, A_fc, smoother, _ = build_restriction(A, split, cfg)
    assert A_ff.nnz == A_ff.nrows  # diagonal
    A_cf = extract(A, split.c_set, split.f_set)
    Z = R.to_dense()[:, split.f_set]
    ideal = -A_cf.to_dense() @ np.linalg.inv(A_ff.to_dense())
    assert np.max(np.abs(Z - ideal)) <= 1e-13
    # C block of R is the identity
    assert np.array_equal(R.to_dense()[:, split.c_set],
                          np.eye(split.n_c))


def test_restriction_quality_bounded_and_polynomial_improves():
    vx, vy = np.sqrt(2.0 / 3.0), np.sqrt(1.0 / 3.0)
    A, _ = build_advection_2d(AdvectionProblem(nx=16, ny=16, vx=vx, vy=vy))
    split, _ = cf_split(A, theta=0.99, ddc_fraction=0.01, ddc_its=2, seed=0)
    A_ff = extract(A, split.f_set, split.f_set)
    assert A_ff.nnz > A_ff.nrows  # non-diagonal fine block
    A_cf = extract(A, split.c_set, split.f_set)
    dense_ff = A_ff.to_dense()
    inv_ff = np.linalg.inv(dense_ff)
    prev = None
    for order in range(1, 7):
        cfg = SetupConfig(poly_order=order)
        R, _, _, smoother, _ = build_restriction(A, split, cfg)
        Z = R.to_dense()[:, split.f_set]
        rel = (np.linalg.norm(Z @ dense_ff + A_cf.to_dense())
               / np.linalg.norm(A_cf.to_dense()))
        assert rel < 1.0
        # the matrix-free polynomial itself converges to the dense inverse
        qm = np.column_stack([apply_matrix_free(smoother, A_ff, e)
                              for e in np.eye(A_ff.nrows)])
        poly_err = np.linalg.norm(qm - inv_ff)
        if prev is not None:
            assert poly_err <= prev * (1 + 1e-10)
        prev = poly_err


def test_restriction_r_drop_discards_small_entries():
    A = build_advection_1d(24, 1.0)
    split, _ = cf_split(A, theta=0.5, ddc_fraction=0.01, ddc_its=1, seed=3)
    loose = SetupConfig(poly_order=1, r_drop=0.9)
    tight = SetupConfig(poly_order=1, r_drop=0.0)
    R_loose = build_restriction(A, split, loose)[0]
    R_tight = build_restriction(A, split, tight)[0]
    assert R_loose.nnz <= R_tight.nnz
    # row sums changed (discarded, not lumped) unless nothing was dropped
    if R_loose.nnz < R_tight.nnz:
        assert not np.allclose(R_loose.to_dense().sum(axis=1),
                               R_tight.to_dense().sum(axis=1))


def test_restriction_r_drop_never_touches_the_identity_block():
    # Under a random ordering some Z entries sit at local (i, i) positions;
    # they are not diagonal entries and must meet the threshold like the rest.
    A, _ = build_advection_2d(AdvectionProblem(nx=48, ny=48,
                                               vx=np.cos(np.pi / 4),
                                               vy=np.sin(np.pi / 4)))
    A = _permuted(A, 5)
    r_drop = 0.99
    H = setup(A, SetupConfig(r_drop=r_drop, auto_truncate_tol=None))
    for L in H.levels:
        R = L.R.to_dense()
        assert np.array_equal(R[:, L.split.c_set], np.eye(L.split.n_c))
        Z = np.abs(R[:, L.split.f_set])
        rowmax = Z.max(axis=1, keepdims=True)
        assert np.all((Z == 0) | (Z >= r_drop * rowmax))


def test_prolongation_all_coarse_is_identity():
    A = SparseMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
    split = labels_from_sets(3, [0, 1, 2])
    P = build_prolongation(extract(A, split.f_set, split.c_set), split)
    assert np.array_equal(P.to_dense(), np.eye(3))


def test_prolongation_picks_strongest_coupling():
    dense = np.array([[2.0, -0.8, -0.3],
                      [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0]])
    A = SparseMatrix.from_dense(dense)
    split = labels_from_sets(3, [1, 2])
    P = build_prolongation(extract(A, split.f_set, split.c_set), split)
    # F row 0 interpolates from coarse point 1 (|-0.8| > |-0.3|)
    assert np.array_equal(P.to_dense(),
                          [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_prolongation_tie_takes_lowest_coarse_index():
    v = 0.7071067811865476
    dense = np.array([[2 * v, -v, -v],
                      [0.0, 1.0, 0.0],
                      [0.0, 0.0, 1.0]])
    A = SparseMatrix.from_dense(dense)
    split = labels_from_sets(3, [1, 2])
    P = build_prolongation(extract(A, split.f_set, split.c_set), split)
    assert np.array_equal(P.to_dense(),
                          [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])


def test_prolongation_errors_without_coarse_coupling():
    dense = np.array([[1.0, 0.0, 0.0],
                      [0.0, 1.0, -0.5],
                      [0.0, -0.5, 1.0]])
    A = SparseMatrix.from_dense(dense)
    split = labels_from_sets(3, [1, 2])  # F point 0 couples to nothing
    with pytest.raises(ValueError, match='no coupling'):
        build_prolongation(extract(A, split.f_set, split.c_set), split)


def test_prolongation_rejects_a_block_of_the_wrong_shape():
    A = SparseMatrix.from_dense([[2.0, -0.8, -0.3],
                                 [0.0, 1.0, 0.0],
                                 [0.0, 0.0, 1.0]])
    split = labels_from_sets(3, [1, 2])
    with pytest.raises(ValueError, match='A_fc is 3x3'):
        build_prolongation(A, split)  # the level matrix, not its F-C block


def test_repair_split_converts_fine_rows_without_coarse_coupling():
    # Row 0 stores only its diagonal, row 1 couples only to F point 0, and
    # the only C coupling of row 2 is an explicit zero in column 3.
    A = SparseMatrix.csr(4, 4, [0, 1, 3, 5, 6], [0, 0, 1, 2, 3, 3],
                         [1.0, -0.5, 1.0, 1.0, 0.0, 1.0])
    repaired = _repair_split(A, labels_from_sets(4, [3]), _level_view(A))
    assert np.array_equal(repaired.labels,
                          [C_POINT, C_POINT, F_POINT, C_POINT])
    P = build_prolongation(extract(A, repaired.f_set, repaired.c_set),
                           repaired)
    assert np.array_equal(P.to_dense()[2], [0.0, 0.0, 1.0])
    all_coarse = labels_from_sets(4, range(4))
    assert _repair_split(A, all_coarse, _level_view(A)) is all_coarse


def test_prolongation_unit_rows_inside_setup():
    A, _ = build_advection_2d(AdvectionProblem(nx=12, ny=12, vx=0.9, vy=0.1))
    H = setup(A, SetupConfig(auto_truncate_tol=None, min_coarse_size=30))
    for L in H.levels:
        P = build_prolongation(L.A_fc, L.split).to_dense()
        for j, row_idx in enumerate(L.split.c_set):
            row = P[row_idx]
            assert row[j] == 1.0 and np.count_nonzero(row) == 1
        for row_idx in L.split.f_set:
            row = P[row_idx]
            assert np.count_nonzero(row) == 1
            assert row.max() == 1.0


def test_coarse_matrix_all_coarse_degenerate():
    rng = np.random.default_rng(41)
    dense = np.where(rng.random((5, 5)) < 0.6, rng.uniform(-1, 1, (5, 5)), 0.0)
    np.fill_diagonal(dense, 2.0)
    A = SparseMatrix.from_dense(dense)
    I5 = SparseMatrix.identity(5)
    cfg = SetupConfig(a_drop=0.0, a_lump=False)
    got = coarse_matrix(A, I5, I5, cfg)
    assert np.array_equal(got.to_dense(), dense)


def test_coarse_matrix_matches_schur_complement():
    A = build_advection_1d(20, 1.0)
    split, _ = cf_split(A, theta=0.5, ddc_fraction=0.01, ddc_its=1, seed=1)
    cfg = SetupConfig(poly_order=1, a_drop=0.0, a_lump=False, r_drop=0.0)
    R, A_ff, A_fc, _, _ = build_restriction(A, split, cfg)
    P = build_prolongation(A_fc, split)
    got = coarse_matrix(A, R, P, cfg).to_dense()
    f, c = split.f_set, split.c_set
    dense = A.to_dense()
    schur = (dense[np.ix_(c, c)]
             - dense[np.ix_(c, f)] @ np.linalg.inv(dense[np.ix_(f, f)])
             @ dense[np.ix_(f, c)])
    assert np.max(np.abs(got - schur)) <= 1e-12


def test_coarse_matrix_zero_drop_keeps_everything():
    A = build_advection_1d(16, 1.0)
    split, _ = cf_split(A, theta=0.5, ddc_fraction=0.01, ddc_its=1, seed=2)
    base = SetupConfig(poly_order=1, a_drop=0.0, a_lump=False)
    lumped = SetupConfig(poly_order=1, a_drop=0.0, a_lump=True)
    R, _, A_fc, _, _ = build_restriction(A, split, base)
    P = build_prolongation(A_fc, split)
    got_a = coarse_matrix(A, R, P, base).to_dense()
    got_b = coarse_matrix(A, R, P, lumped).to_dense()
    assert np.array_equal(got_a, got_b)


def test_try_truncate_identity_succeeds():
    A = SparseMatrix.identity(40)
    cfg = SetupConfig(coarsest_poly_order=4, auto_truncate_tol=0.1)
    solver = try_truncate(A, cfg, level=0)
    assert solver is not None
    b = np.arange(1.0, 41.0)
    assert np.allclose(apply_matrix_free(solver, A, b), b, rtol=1e-12)


def test_try_truncate_small_spectrum_succeeds():
    A = SparseMatrix.from_dense(np.diag(np.arange(1.0, 6.0)))
    cfg = SetupConfig(coarsest_poly_order=10, auto_truncate_tol=0.1)
    assert try_truncate(A, cfg, level=0) is not None


def test_try_truncate_threshold_semantics():
    # measure the residual the tentative solver achieves, then bracket it
    A = build_advection_1d(150, 1.0)
    order = 40
    level = 0
    solver = gmres_poly_newton(A, order,
                               _derive_seed(0, level, _SEED_COARSE_POLY))
    rhs = _random_unit_vector(A.nrows, _derive_seed(0, level, _SEED_TRUNC_RHS))
    x = apply_matrix_free(solver, A, rhs)
    res = np.linalg.norm(rhs - spmv(A, x)) / np.linalg.norm(rhs)
    assert 1e-12 < res < 0.5  # nontrivial residual for the bracket
    accept = SetupConfig(coarsest_poly_order=order,
                         auto_truncate_tol=res * (1 + 1e-9), seed=0)
    reject = SetupConfig(coarsest_poly_order=order,
                         auto_truncate_tol=res * (1 - 1e-9), seed=0)
    assert try_truncate(A, accept, level) is not None
    assert try_truncate(A, reject, level) is None


def test_try_truncate_respects_start_level(monkeypatch):
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, _ = build_advection_2d(AdvectionProblem(nx=32, ny=32, vx=vx, vy=vy))
    levels = []

    def counting(A, cfg, level):
        levels.append(level)
        return try_truncate(A, cfg, level)

    monkeypatch.setattr(hierarchy, 'try_truncate', counting)
    setup(A, SetupConfig())
    start = _resolve_truncate_start(SetupConfig(), A.nrows)
    assert levels and levels[0] == start
    assert levels == list(range(start, start + len(levels)))


def test_truncation_rhs_differs_from_coefficient_rhs():
    # the acceptance test vector must be independent of the vector that
    # generated the polynomial coefficients
    s_poly = _derive_seed(0, 5, _SEED_COARSE_POLY)
    s_test = _derive_seed(0, 5, _SEED_TRUNC_RHS)
    assert s_poly != s_test
    a = _random_unit_vector(64, s_poly)
    b = _random_unit_vector(64, s_test)
    assert abs(a @ b) < 0.999


def test_truncate_start_level_estimate():
    cfg = SetupConfig(coarsest_poly_order=100)
    assert _resolve_truncate_start(cfg, 50) == 0
    assert _resolve_truncate_start(cfg, 65536) == int(np.ceil(np.log2(65536 / 101))) + 2


def test_setup_diagonal_matrix_single_level():
    A = SparseMatrix.from_dense(np.diag(np.arange(1.0, 41.0)))
    H = setup(A, SetupConfig(min_coarse_size=4, coarsest_poly_order=50))
    assert len(H.levels) == 0
    b = np.ones(40)
    x = apply_matrix_free(H.coarse_solver, H.coarsest_A, b)
    assert np.allclose(spmv(A, x), b, rtol=1e-9)


def test_setup_cyclic_reduction_limit_single_cycle():
    A = build_advection_1d(1024, 1.0)
    H = setup(A, SetupConfig(strong_threshold=0.5, poly_order=1,
                             auto_truncate_tol=None))
    for L in H.levels:
        assert L.A_ff.nnz == L.A_ff.nrows  # diagonal every level
    rng = np.random.default_rng(42)
    b = rng.uniform(-1, 1, 1024)
    e = vcycle(H, 0, b)
    assert np.linalg.norm(b - spmv(A, e)) <= 1e-12 * np.linalg.norm(b)


def test_default_drops_keep_complexity_flat_in_n():
    cc = {}
    for nx in (128, 256):
        A, _ = build_advection_2d(AdvectionProblem(nx=nx, ny=nx,
                                                   vx=np.cos(np.pi / 4),
                                                   vy=np.sin(np.pi / 4)))
        cc[nx] = setup(A, SetupConfig()).cycle_complexity
    assert cc[256] / cc[128] <= 1.10, cc


def test_default_drops_leave_the_1d_chain_alone():
    # Cyclic reduction has no fill, so the filters find nothing to drop.
    A = build_advection_1d(4096, 1.0)
    b = np.random.default_rng(3).uniform(-1, 1, A.nrows)
    runs = []
    for cfg in (SetupConfig(), SetupConfig(a_drop=0.0, r_drop=0.0)):
        H = setup(A, cfg)
        _, stats = richardson_solve(H, b, np.zeros(A.nrows), SolveConfig())
        runs.append((H, stats.residual_history))
    (H_def, hist_def), (H_off, hist_off) = runs
    assert hist_def == hist_off
    assert len(H_def.levels) == len(H_off.levels)
    for got, want in zip(H_def.levels, H_off.levels):
        assert np.array_equal(got.split.labels, want.split.labels)
        for name in ('R', 'A_ff', 'A_fc'):
            _assert_same_bits(getattr(got, name), getattr(want, name))
    _assert_same_bits(H_def.coarsest_A, H_off.coarsest_A)


def test_setup_level_sizes_strictly_decrease():
    A, _ = build_advection_2d(AdvectionProblem(nx=24, ny=24, vx=0.8, vy=0.6))
    H = setup(A, SetupConfig(auto_truncate_tol=None))
    sizes = [L.n for L in H.levels] + [H.coarsest_A.nrows]
    assert all(a > b for a, b in zip(sizes, sizes[1:]))


def test_setup_records_nnz_of_discarded_matrices():
    A, _ = build_advection_2d(AdvectionProblem(nx=16, ny=16, vx=0.7, vy=0.7))
    H = setup(A, SetupConfig(auto_truncate_tol=None))
    assert H.levels[0].nnz_A == A.nnz
    assert all(L.nnz_A > 0 for L in H.levels)


def test_setup_deterministic():
    A, _ = build_advection_2d(AdvectionProblem(nx=32, ny=32,
                                               vx=np.cos(np.pi / 4),
                                               vy=np.sin(np.pi / 4)))
    cfg = SetupConfig(seed=5)
    s1 = hierarchy_summary(setup(A, cfg))
    s2 = hierarchy_summary(setup(A, cfg))
    assert s1 == s2


def test_setup_storage_complexity_recomputable_from_summary():
    A, _ = build_advection_2d(AdvectionProblem(nx=24, ny=24, vx=0.9, vy=0.3))
    for mf in (True, False):
        H = setup(A, SetupConfig(matrix_free_polys=mf))
        s = hierarchy_summary(H)
        retained = sum(l['nnz_A_ff'] + l['nnz_A_fc'] + l['nnz_R']
                       + (l['nnz_smoother_assembled'] or 0)
                       for l in s['levels'])
        expected = (retained + s['nnz_top'] + s['coarsest']['nnz']) / s['nnz_top']
        assert s['storage_complexity'] == expected
        assert s['storage_complexity'] >= 1.0
        assert s['cycle_complexity'] >= 1.0


def test_setup_assembled_smoother_mode():
    A, _ = build_advection_2d(AdvectionProblem(nx=16, ny=16,
                                               vx=np.cos(np.pi / 4),
                                               vy=np.sin(np.pi / 4)))
    H = setup(A, SetupConfig(matrix_free_polys=False))
    assert any(L.f_smoother_assembled is not None for L in H.levels)
    from airmg import richardson_solve
    x, stats = richardson_solve(H, np.zeros(A.nrows), np.ones(A.nrows),
                                SolveConfig(max_iters=40))
    assert stats.converged


def test_setup_grid_complexity_ordering_with_threshold():
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, _ = build_advection_2d(AdvectionProblem(nx=64, ny=64, vx=vx, vy=vy))
    slow = setup(A, SetupConfig(strong_threshold=0.4, auto_truncate_tol=None))
    fast = setup(A, SetupConfig(strong_threshold=0.99, auto_truncate_tol=None))
    assert slow.grid_complexity > fast.grid_complexity


def test_setup_stagnation_error():
    # two strongly tied pairs: DDC with a huge fraction converts every F
    # point (all dominance ratios equal), leaving no F points to reduce
    dense = np.array([[1.0, -1.0, 0.0, 0.0],
                      [-1.0, 1.0, 0.0, 0.0],
                      [0.0, 0.0, 1.0, -1.0],
                      [0.0, 0.0, -1.0, 1.0]])
    A = SparseMatrix.from_dense(dense)
    cfg = SetupConfig(strong_threshold=0.5, ddc_fraction=0.9, ddc_its=1,
                      min_coarse_size=1, auto_truncate_tol=None,
                      coarsest_poly_order=3)
    with pytest.raises(ValueError, match='no F points'):
        setup(A, cfg)


def test_setup_max_levels_warning(caplog):
    A, _ = build_advection_2d(AdvectionProblem(nx=24, ny=24, vx=0.6, vy=0.8))
    with caplog.at_level(logging.WARNING, logger='airmg.hierarchy'):
        H = setup(A, SetupConfig(max_levels=2, auto_truncate_tol=None,
                                 coarsest_poly_order=60))
    assert len(H.levels) == 2
    assert any('budget' in rec.message for rec in caplog.records)


def test_setup_config_rejects_unimplemented_variants():
    for smooth_type in ('fcf', 'c', 'fc', ''):
        with pytest.raises(ValueError, match='C-point and FCF smoothing'):
            SetupConfig(smooth_type=smooth_type).validate()
    assert SetupConfig(smooth_type='fff').validate().smooth_type == 'fff'
    with pytest.raises(ValueError, match='prolong'):
        SetupConfig(one_point_classical_prolong=False).validate()
    with pytest.raises(ValueError, match='improve'):
        SetupConfig(improve_z_its=1).validate()
    with pytest.raises(ValueError, match='sparsity'):
        SetupConfig(inverse_sparsity_order=2).validate()


def test_setup_config_validation_bounds():
    with pytest.raises(ValueError):
        SetupConfig(strong_threshold=1.2).validate()
    with pytest.raises(ValueError):
        SetupConfig(ddc_fraction=0.0).validate()
    with pytest.raises(ValueError):
        SetupConfig(inverse_type='chebyshev').validate()
    with pytest.raises(ValueError):
        SetupConfig(coarsest_poly_order=0).validate()  # newton needs >= 1
    SetupConfig(coarsest_poly_order=0,
                coarsest_inverse_type='arnoldi').validate()


def test_hierarchy_summary_schema():
    A = build_advection_1d(128, 1.0)
    H = setup(A, SetupConfig(strong_threshold=0.5, poly_order=1))
    s = hierarchy_summary(H)
    assert s['num_grids'] == s['num_levels'] + 1
    assert s['n_top'] == 128
    for entry in s['levels']:
        assert entry['n_f'] + entry['n_c'] == entry['n']
    assert s['coarsest']['solver_kind'] == 'newton'


def test_hierarchy_summary_counts_coarse_roots():
    # Every harmonic Ritz value once, plus the stability copies.
    A, _ = build_advection_2d(AdvectionProblem(nx=32, ny=32,
                                               vx=np.cos(np.pi / 4),
                                               vy=np.sin(np.pi / 4)))
    H = setup(A, SetupConfig())
    coarsest = hierarchy_summary(H)['coarsest']
    assert coarsest['solver_roots'] == len(H.coarse_solver.roots)
    assert coarsest['solver_roots'] >= coarsest['solver_effective_order'] + 1
    H = setup(A, SetupConfig(coarsest_inverse_type='arnoldi',
                             coarsest_poly_order=4))
    assert hierarchy_summary(H)['coarsest']['solver_roots'] is None


def test_setup_operators_stay_canonical():
    from airmg import validate
    A, _ = build_advection_2d(AdvectionProblem(nx=12, ny=12, vx=0.8, vy=0.6))
    H = setup(A, SetupConfig(auto_truncate_tol=None))
    validate(H.top_A)
    validate(H.coarsest_A)
    for L in H.levels:
        for op in (L.R, build_prolongation(L.A_fc, L.split), L.A_ff, L.A_fc):
            validate(op)


def test_setup_one_by_one_matrix():
    A = SparseMatrix.from_dense([[4.0]])
    H = setup(A, SetupConfig(coarsest_inverse_type='arnoldi',
                             coarsest_poly_order=3))
    x = apply_matrix_free(H.coarse_solver, H.coarsest_A, np.array([2.0]))
    assert x == pytest.approx([0.5], rel=1e-14)


def test_hierarchy_level_chain_consistent():
    A, _ = build_advection_2d(AdvectionProblem(nx=20, ny=20, vx=0.7, vy=0.7))
    H = setup(A, SetupConfig(auto_truncate_tol=None))
    for upper, lower in zip(H.levels, H.levels[1:]):
        assert lower.n == upper.split.n_c
        assert upper.R.nrows == upper.split.n_c
        assert upper.R.ncols == upper.n
        assert upper.A_fc.ncols == upper.split.n_c
    assert H.coarsest_A.nrows == H.levels[-1].split.n_c


def _permuted(A, seed):
    perm = np.random.default_rng(seed).permutation(A.nrows)
    inv = np.argsort(perm)
    rows = np.repeat(np.arange(A.nrows), np.diff(A.row_offsets))
    return SparseMatrix.from_coo(A.nrows, A.ncols, inv[rows],
                                 inv[A.col_indices], A.values)


def _assert_same_bits(got, want):
    assert (got.nrows, got.ncols) == (want.nrows, want.ncols)
    assert np.array_equal(got.row_offsets, want.row_offsets)
    assert np.array_equal(got.col_indices, want.col_indices)
    assert np.array_equal(got.values.view(np.uint64),
                          want.values.view(np.uint64))


@pytest.mark.parametrize('permute', [False, True])
def test_setup_products_match_structural_spgemm_bitwise(permute):
    # On every level, the products inside setup give the same nonzeros, bit
    # for bit, as the structural-pattern reference product once explicit
    # zeros are removed.
    A, _ = build_advection_2d(AdvectionProblem(nx=64, ny=64,
                                               vx=np.cos(np.pi / 4),
                                               vy=np.sin(np.pi / 4)))
    if permute:
        A = _permuted(A, 17)
    cfg = SetupConfig()
    for level in range(6):
        split, _ = cf_split(A, cfg.strong_threshold, cfg.ddc_fraction,
                            cfg.ddc_its, seed=level)
        R, _, A_fc, _, assembled = build_restriction(A, split, cfg,
                                                     level=level)
        P = build_prolongation(A_fc, split)
        coarse = coarse_matrix(A, R, P, cfg)
        assert_same_without_zeros(
            coarse,
            drop_and_lump(structural_spgemm(R, structural_spgemm(A, P)),
                          cfg.a_drop, lump=cfg.a_lump))
        ref = structural_spgemm(extract(A, split.c_set, split.f_set),
                                assembled)
        ref = drop_and_lump(
            SparseMatrix(ref.nrows, ref.ncols, ref.row_offsets,
                         ref.col_indices, -ref.values),
            cfg.r_drop, lump=False, keep_diagonal=False)
        assert_same_without_zeros(
            extract(R, np.arange(split.n_c), split.f_set), ref)
        A = coarse


def test_setup_forms_three_products_per_level(monkeypatch):
    # Z and both halves of R (A P), each through the public spgemm, which the
    # benchmark's tracer wraps by name.  No coordinate sort either: setup's
    # operators have no duplicate entries.
    calls = []

    def counting_spgemm(*args):
        calls.append(args)
        return spgemm(*args)

    def refuse(*_):
        raise AssertionError('setup must not sort coordinates')

    A, _ = build_advection_2d(AdvectionProblem(nx=32, ny=32,
                                               vx=np.cos(np.pi / 4),
                                               vy=np.sin(np.pi / 4)))
    monkeypatch.setattr(hierarchy, 'spgemm', counting_spgemm)
    monkeypatch.setattr(SparseMatrix, 'from_coo', refuse)
    H = setup(A, SetupConfig())
    assert H.num_levels > 0
    assert len(calls) == 3 * H.num_levels


def test_setup_extracts_three_blocks_per_level(monkeypatch):
    # A_ff, A_fc and A_cf once each; the splitting, its repair and P read
    # the level matrix through the labels or reuse A_fc.
    calls = []

    def counting_extract(*args):
        calls.append(args)
        return extract(*args)

    A, _ = build_advection_2d(AdvectionProblem(nx=32, ny=32,
                                               vx=np.cos(np.pi / 4),
                                               vy=np.sin(np.pi / 4)))
    monkeypatch.setattr(hierarchy, 'extract', counting_extract)
    H = setup(A, SetupConfig())
    assert H.num_levels > 0
    assert len(calls) == 3 * H.num_levels
    assert not hasattr(splitting, 'extract')


def test_setup_builds_one_row_index_per_level(monkeypatch):
    # ``cf_split`` builds one view of each level matrix, and with it the only
    # row index of that matrix; the strength graph, both DDC passes and the
    # split repair read the view.  ``drop_and_lump`` reads the Galerkin
    # product before it becomes the next level matrix and is not counted.
    built = {hierarchy: [], splitting: []}
    viewed = []
    level_matrices = []
    row_index, level_view = sparse._row_index, splitting._level_view
    split = hierarchy.cf_split

    def counting_row_index(module):
        def count(A):
            built[module].append(A)
            return row_index(A)
        return count

    def counting_level_view(A):
        viewed.append(A)
        return level_view(A)

    def recording_cf_split(A, *args, **kwargs):
        level_matrices.append(A)
        return split(A, *args, **kwargs)

    def per_level(matrices):
        return [sum(B is M for B in matrices) for M in level_matrices]

    A, _ = build_advection_2d(AdvectionProblem(nx=64, ny=64,
                                               vx=np.cos(np.pi / 4),
                                               vy=np.sin(np.pi / 4)))
    for module in built:
        monkeypatch.setattr(module, '_row_index', counting_row_index(module))
    monkeypatch.setattr(splitting, '_level_view', counting_level_view)
    monkeypatch.setattr(hierarchy, 'cf_split', recording_cf_split)
    H = setup(A, SetupConfig())
    assert len(level_matrices) == H.num_levels > 0
    assert per_level(built[splitting]) == [1] * H.num_levels
    assert per_level(viewed) == [1] * H.num_levels
    assert per_level(built[hierarchy]) == [0] * H.num_levels
    assert not hasattr(hierarchy, '_repair_split')
