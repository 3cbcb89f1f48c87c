"""V-cycle and Richardson iteration tests, including the FLOP-model audit."""

import numpy as np
import pytest

from airmg import (AdvectionProblem, DivergenceError, SetupConfig,
                   SolveConfig, SparseMatrix, build_advection_1d,
                   build_advection_2d, build_prolongation, build_restriction,
                   cf_split, coarse_matrix, count_cycle_flops, extract,
                   richardson_solve, setup, spmv, vcycle)


def forward_substitution(A, b):
    dense = A.to_dense()
    x = np.zeros(len(b))
    for i in range(len(b)):
        x[i] = (b[i] - dense[i, :i] @ x[:i]) / dense[i, i]
    return x


def single_level_hierarchy(A, coarsest_inverse_type='arnoldi', order=0):
    cfg = SetupConfig(min_coarse_size=A.nrows + 1,
                      coarsest_inverse_type=coarsest_inverse_type,
                      coarsest_poly_order=order)
    return setup(A, cfg)


def test_vcycle_single_level_identity_returns_residual():
    A = SparseMatrix.identity(12)
    H = single_level_hierarchy(A)
    r = np.linspace(-1, 1, 12)
    assert np.allclose(vcycle(H, 0, r, SolveConfig()), r, rtol=1e-14)


def test_vcycle_direct_solver_limit_1d():
    A = build_advection_1d(256, 1.0)
    H = setup(A, SetupConfig(strong_threshold=0.5, poly_order=1,
                             auto_truncate_tol=None))
    rng = np.random.default_rng(50)
    r = rng.uniform(-1, 1, 256)
    e = vcycle(H, 0, r, SolveConfig())
    assert np.linalg.norm(r - spmv(A, e)) <= 1e-12 * np.linalg.norm(r)


def test_two_level_ideal_restriction_zeroes_coarse_error():
    # theta = 0 gives a diagonal fine block, so Z is exact; with an exact
    # coarse solve the coarse-point error vanishes after correction
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, _ = build_advection_2d(AdvectionProblem(nx=14, ny=14, vx=vx, vy=vy))
    split, _ = cf_split(A, theta=0.0, ddc_fraction=0.01, ddc_its=2, seed=0)
    A_ff = extract(A, split.f_set, split.f_set)
    assert A_ff.nnz == A_ff.nrows
    cfg = SetupConfig(poly_order=1, a_drop=0.0, lump=False, r_drop=0.0)
    R, _, A_fc, _, _ = build_restriction(A, split, cfg)
    P = build_prolongation(A_fc, split)
    A_coarse = coarse_matrix(A, R, P, cfg)
    rng = np.random.default_rng(51)
    e0 = rng.uniform(-1, 1, A.nrows)
    r = spmv(A, e0)
    e_c = np.linalg.solve(A_coarse.to_dense(), spmv(R, r))
    c_err = np.linalg.norm(e0[split.c_set] - e_c)
    assert c_err <= 1e-12 * np.linalg.norm(e0)


def test_richardson_identity_converges_in_one():
    A = SparseMatrix.identity(10)
    H = single_level_hierarchy(A)
    b = np.linspace(1, 2, 10)
    x, stats = richardson_solve(H, b, np.ones(10), SolveConfig())
    assert stats.iterations == 1 and stats.converged
    assert np.allclose(x, b, rtol=1e-12)
    assert len(stats.residual_history) == stats.iterations + 1


def test_richardson_cyclic_reduction_two_iterations():
    for n in (64, 512):
        A = build_advection_1d(n, 1.0)
        H = setup(A, SetupConfig(strong_threshold=0.5, poly_order=1))
        rng = np.random.default_rng(n)
        b = rng.uniform(-1, 1, n)
        x, stats = richardson_solve(H, b, np.zeros(n), SolveConfig())
        assert stats.converged and stats.iterations <= 2
        expected = forward_substitution(A, b)
        assert np.linalg.norm(x - expected) <= 1e-10 * np.linalg.norm(expected)


def test_richardson_zero_rhs_uses_initial_residual_reference():
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, b = build_advection_2d(AdvectionProblem(nx=32, ny=32, vx=vx, vy=vy))
    H = setup(A, SetupConfig())
    x, stats = richardson_solve(H, b, np.ones(A.nrows), SolveConfig())
    assert stats.converged
    assert stats.residual_history[-1] <= 1e-10 * stats.residual_history[0]
    assert np.linalg.norm(x) <= 1e-9  # solution of A x = 0


def test_richardson_exact_threshold_counts_as_converged():
    A = build_advection_1d(64, 1.0)
    H = setup(A, SetupConfig(strong_threshold=0.5, poly_order=1))
    b = np.ones(64)
    _, probe = richardson_solve(H, b, np.zeros(64), SolveConfig())
    target = probe.residual_history[1]
    assert target > 0
    _, stats = richardson_solve(H, b, np.zeros(64),
                                SolveConfig(rtol=1e-300, atol=target))
    assert stats.converged and stats.iterations == 1


def test_richardson_divergence_guard():
    # hierarchy whose outer matrix disagrees in sign with the solver
    A = SparseMatrix.identity(4)
    H = single_level_hierarchy(A)
    H.top_A = SparseMatrix.from_dense(-np.eye(4))
    with pytest.raises(DivergenceError) as info:
        richardson_solve(H, np.ones(4), np.zeros(4), SolveConfig())
    assert info.value.iteration >= 1


def test_richardson_nonfinite_guard():
    A = SparseMatrix.identity(4)
    H = single_level_hierarchy(A)
    x0 = np.array([np.inf, 0.0, 0.0, 0.0])
    with pytest.raises(DivergenceError):
        richardson_solve(H, np.ones(4), x0, SolveConfig())


def test_richardson_validates_config_and_shapes():
    A = SparseMatrix.identity(4)
    H = single_level_hierarchy(A)
    with pytest.raises(ValueError):
        richardson_solve(H, np.ones(4), np.zeros(4), SolveConfig(rtol=0.0))
    with pytest.raises(ValueError):
        richardson_solve(H, np.ones(5), np.zeros(4), SolveConfig())


def test_cycle_flops_hand_audit_single_level():
    # cost model: SpMV = 2*nnz, vector op = 2*n, copies free.
    n = 10
    A = SparseMatrix.from_dense(2.0 * np.eye(n))
    H = single_level_hierarchy(A, 'arnoldi', order=0)
    # degree-0 coefficient polynomial: one scaled copy of the rhs = 2n
    assert count_cycle_flops(H) == 2 * n
    assert H.cycle_complexity == (2 * n) / (2 * A.nnz) == 1.0
    Hn = single_level_hierarchy(A, 'newton', order=1)
    # breakdown leaves one real root: one SpMV + two vector updates
    assert len(Hn.coarse_solver.roots) == 1
    assert count_cycle_flops(Hn) == 2 * A.nnz + 4 * n
    assert Hn.cycle_complexity == 3.0


def test_cycle_flops_increase_with_smoothing():
    A, _ = build_advection_2d(AdvectionProblem(nx=16, ny=16, vx=0.6, vy=0.8))
    H = setup(A, SetupConfig(auto_truncate_tol=None))
    one = count_cycle_flops(H, f_smooth_its=1)
    two = count_cycle_flops(H, f_smooth_its=2)
    assert two > one
    _, stats = richardson_solve(H, np.zeros(A.nrows), np.ones(A.nrows),
                                SolveConfig(f_smooth_its=2, max_iters=50))
    assert stats.converged
    assert stats.flops_per_cycle == two


def test_truncated_hierarchy_fewer_levels_higher_complexity():
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, b = build_advection_2d(AdvectionProblem(nx=64, ny=64, vx=vx, vy=vy))
    full = setup(A, SetupConfig(auto_truncate_tol=None))
    truncated = setup(A, SetupConfig())
    assert truncated.truncated_at is not None
    assert len(truncated.levels) < len(full.levels)
    assert truncated.cycle_complexity > full.cycle_complexity


def test_iterations_do_not_increase_with_smoother_order():
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, b = build_advection_2d(AdvectionProblem(nx=64, ny=64, vx=vx, vy=vy))
    counts = []
    for order in (1, 2, 4, 6):
        H = setup(A, SetupConfig(poly_order=order, auto_truncate_tol=None))
        _, stats = richardson_solve(H, b, np.ones(A.nrows),
                                    SolveConfig(max_iters=60))
        assert stats.converged
        counts.append(stats.iterations)
    assert all(a >= b for a, b in zip(counts, counts[1:]))


def test_vcycle_callable_at_inner_level():
    A = build_advection_1d(128, 1.0)
    H = setup(A, SetupConfig(strong_threshold=0.5, poly_order=1,
                             auto_truncate_tol=None))
    assert len(H.levels) >= 2
    n1 = H.levels[1].n
    rng = np.random.default_rng(8)
    r = rng.uniform(-1, 1, n1)
    e = vcycle(H, 1, r, SolveConfig())
    assert len(e) == n1 and np.all(np.isfinite(e))


def test_neumann_coarse_solver_variant():
    A = build_advection_1d(200, 1.0)
    H = setup(A, SetupConfig(strong_threshold=0.5, poly_order=1,
                             coarsest_inverse_type='neumann',
                             coarsest_poly_order=20, auto_truncate_tol=None))
    assert H.coarse_solver.kind == 'neumann'
    b = np.ones(200)
    x, stats = richardson_solve(H, b, np.zeros(200), SolveConfig())
    assert stats.converged and stats.iterations <= 2


def test_assembled_smoother_flop_branch():
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, _ = build_advection_2d(AdvectionProblem(nx=16, ny=16, vx=vx, vy=vy))
    H = setup(A, SetupConfig(matrix_free_polys=False, auto_truncate_tol=None))
    total = 0
    for L in H.levels:
        n_f = len(L.split.f_set)
        total += 2 * L.R.nnz + 2 * L.A_fc.nnz + 2 * n_f
        total += 2 * L.f_smoother_assembled.nnz
    from airmg.polynomial import _poly_apply_flops
    total += _poly_apply_flops(H.coarse_solver, H.coarsest_A.nnz,
                               H.coarsest_A.nrows)
    assert count_cycle_flops(H) == total


def test_rectangular_domain_solve():
    # resolution stretched in one dimension only; a lower-order coarse
    # polynomial with truncation keeps the hierarchy shallow
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, b = build_advection_2d(AdvectionProblem(nx=64, ny=256, vx=vx, vy=vy))
    H = setup(A, SetupConfig(coarsest_poly_order=10))
    x, stats = richardson_solve(H, b, np.ones(A.nrows), SolveConfig())
    assert stats.converged and stats.iterations <= 12
    assert H.truncated_at is not None


def test_residual_history_decreases_after_first_iteration():
    # empirical contraction of the default configuration, not a theorem
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, b = build_advection_2d(AdvectionProblem(nx=64, ny=64, vx=vx, vy=vy))
    H = setup(A, SetupConfig())
    _, stats = richardson_solve(H, b, np.ones(A.nrows), SolveConfig())
    h = stats.residual_history
    assert all(h[i + 1] < h[i] for i in range(1, len(h) - 1))
    assert all(np.isfinite(r) for r in h)


def test_convergence_factor_is_mean_residual_reduction():
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, _ = build_advection_2d(AdvectionProblem(nx=32, ny=32, vx=vx, vy=vy))
    H = setup(A, SetupConfig())
    zero = np.zeros(A.nrows)
    _, stats = richardson_solve(H, np.ones(A.nrows), zero, SolveConfig())
    h = stats.residual_history
    factor = stats.to_dict()['convergence_factor']
    assert factor == (h[-1] / h[0]) ** (1.0 / stats.iterations)
    assert 0 < factor < 1
    _, stats = richardson_solve(H, zero, zero, SolveConfig())
    assert stats.iterations == 0
    assert stats.to_dict()['convergence_factor'] is None


def test_solve_bitwise_deterministic():
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, b = build_advection_2d(AdvectionProblem(nx=32, ny=32, vx=vx, vy=vy))
    cfg = SetupConfig(seed=3)
    runs = []
    for _ in range(2):
        H = setup(A, cfg)
        x, stats = richardson_solve(H, b, np.ones(A.nrows), SolveConfig())
        runs.append((stats.iterations, tuple(stats.residual_history), x))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1] == runs[1][1]
    assert np.array_equal(runs[0][2], runs[1][2])


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(max_iters=0).validate()
    with pytest.raises(ValueError):
        SolveConfig(f_smooth_its=0).validate()
    with pytest.raises(ValueError):
        SolveConfig(atol=-1.0).validate()
