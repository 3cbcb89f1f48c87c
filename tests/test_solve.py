"""V-cycle and Richardson iteration tests, including the FLOP-model audit."""

import dataclasses
import hashlib

import numpy as np
import pytest

from airmg import (AdvectionProblem, DivergenceError, PolySolver,
                   SetupConfig, SolveConfig, SparseMatrix, apply_matrix_free,
                   build_advection_1d, build_advection_2d, build_prolongation,
                   build_restriction, cf_split, coarse_matrix,
                   count_cycle_flops, extract, restriction, richardson_solve,
                   setup, spmv, vcycle)
from airmg import polynomial, solve
from airmg.polynomial import _apply_degree_zero, _poly_apply_flops
from airmg.sparse import _norm
from explicit_r_vcycle import explicit_r_vcycle
from golden import CASES


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
    assert np.allclose(vcycle(H, 0, r), r, rtol=1e-14)


def test_vcycle_direct_solver_limit_1d():
    A = build_advection_1d(256, 1.0)
    H = setup(A, SetupConfig(strong_threshold=0.5, poly_order=1,
                             auto_truncate_tol=None))
    rng = np.random.default_rng(50)
    r = rng.uniform(-1, 1, 256)
    e = vcycle(H, 0, r)
    assert np.linalg.norm(r - spmv(A, e)) <= 1e-12 * np.linalg.norm(r)


def test_two_level_ideal_restriction_zeroes_coarse_error():
    # theta = 0 gives a diagonal fine block, so Z is exact; with an exact
    # coarse solve the coarse-point error vanishes after correction
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, _ = build_advection_2d(AdvectionProblem(nx=14, ny=14, vx=vx, vy=vy))
    split, _ = cf_split(A, theta=0.0, ddc_fraction=0.01, ddc_its=2, seed=0)
    A_ff = extract(A, split.f_set, split.f_set)
    assert A_ff.nnz == A_ff.nrows
    cfg = SetupConfig(poly_order=1, a_drop=0.0, a_lump=False, r_drop=0.0)
    Z, _, A_fc, _ = build_restriction(A, split, cfg)
    R = restriction(Z, split)
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
    one = setup(A, SetupConfig(auto_truncate_tol=None))
    two = setup(A, SetupConfig(auto_truncate_tol=None, smooth_type='ff'))
    assert (one.f_smooths, two.f_smooths) == (1, 2)
    assert count_cycle_flops(two) > count_cycle_flops(one)
    assert two.cycle_complexity > one.cycle_complexity
    _, stats = richardson_solve(two, np.zeros(A.nrows), np.ones(A.nrows),
                                SolveConfig(max_iters=50))
    assert stats.converged
    assert two.flops_per_cycle == count_cycle_flops(two) == \
        stats.flops_per_cycle


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
    e = vcycle(H, 1, r)
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


@pytest.mark.parametrize('smooth_type', ['f', 'ff'])
def test_multilevel_flop_count_by_hand(smooth_type):
    # Every per-level term of the cost model, summed by hand over a
    # multi-level hierarchy; 'ff' adds the second smooth's residual product,
    # combine, smoother application and error update.  A level that keeps
    # no A_ff has one smooth of degree 0, a scaling of its n_f entries.
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, _ = build_advection_2d(AdvectionProblem(nx=16, ny=16, vx=vx, vy=vy))
    H = setup(A, SetupConfig(auto_truncate_tol=None, smooth_type=smooth_type))
    assert len(H.levels) >= 2
    assert (H.levels[0].A_ff is None) == (smooth_type == 'f')
    total = 0
    for L in H.levels:
        n_f = len(L.split.f_set)
        if L.A_ff is None:
            assert smooth_type == 'f'
            assert L.f_smoother.effective_order == 0
            smooth = 2 * n_f
        else:
            smooth = _poly_apply_flops(L.f_smoother, L.A_ff.nnz, n_f)
        total += 2 * L.Z.nnz + L.split.n_c + 2 * L.A_fc.nnz + 2 * n_f + smooth
        if smooth_type == 'ff':
            total += 2 * L.A_ff.nnz + 4 * n_f + smooth + 2 * n_f
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


@pytest.mark.parametrize('case', ['pi4_64', 'chain_16384', 'pi4_perm_48'])
def test_vcycle_matches_the_explicit_restriction_cycle(case, monkeypatch):
    # In cycle order each C row of R = [Z I] has its unit entry after its Z
    # entries, so ``Z r_f + r_c`` sums as ``R r`` does and the solves agree
    # bit for bit, under a random permutation of the problem too.
    A, b = CASES[case]()
    H = setup(A, SetupConfig())
    rand = np.random.default_rng(1).standard_normal(A.nrows)
    solves = ((b, np.ones(A.nrows)), (rand, np.zeros(A.nrows)))
    runs = []
    for cycle in (solve.vcycle, explicit_r_vcycle):
        monkeypatch.setattr(solve, 'vcycle', cycle)
        runs.append([richardson_solve(H, rhs, x0, SolveConfig())
                     for rhs, x0 in solves])
    for (x, stats), (want_x, want) in zip(*runs):
        assert stats.converged
        assert stats.residual_history == want.residual_history
        assert np.array_equal(x.view(np.uint64), want_x.view(np.uint64))


@pytest.mark.parametrize('case, smooth_type', [
    ('pi4_64', 'f'), ('pi4_perm_48', 'f'), ('chain_16384', 'f'),
    ('chain_16384', 'ff')])
def test_every_operator_a_level_keeps_is_read_by_one_vcycle(
        case, smooth_type, monkeypatch):
    # One V-cycle multiplies by every matrix a level holds and applies its
    # smoother.  A degree-0 smoother scales the residual without a matrix,
    # so with one smooth per cycle its level keeps no A_ff: level 0 of the
    # 2-D cases and every level of the chain.  With 'ff' the second smooth
    # forms r_f - A_ff e_f, so every level keeps its A_ff.
    A, _ = CASES[case]()
    H = setup(A, SetupConfig(smooth_type=smooth_type))
    multiplied, applied = set(), set()

    def spy_spmv(M, x):
        multiplied.add(id(M))
        return spmv(M, x)

    def spy_apply(p, M, b):
        applied.add(id(p))
        return apply_matrix_free(p, M, b)

    def spy_degree_zero(p, b):
        applied.add(id(p))
        return _apply_degree_zero(p, b)

    for module in (solve, polynomial):
        monkeypatch.setattr(module, 'spmv', spy_spmv)
    monkeypatch.setattr(solve, 'apply_matrix_free', spy_apply)
    monkeypatch.setattr(solve, '_apply_degree_zero', spy_degree_zero)
    vcycle(H, 0, np.random.default_rng(2).standard_normal(A.nrows))
    for L in H.levels:
        held = [getattr(L, f.name) for f in dataclasses.fields(L)]
        matrices = [v for v in held if isinstance(v, SparseMatrix)]
        smoothers = [v for v in held if isinstance(v, PolySolver)]
        assert len(matrices) == 2 + (L.A_ff is not None)
        assert all(id(M) in multiplied for M in matrices)
        assert smoothers and all(id(p) in applied for p in smoothers)
    kept = [L.A_ff is not None for L in H.levels]
    if smooth_type == 'ff':
        assert all(kept)
    elif case == 'chain_16384':
        assert not any(kept)
    else:
        assert not kept[0] and all(kept[1:])


def _held_arrays(obj, seen=None):
    """Every ndarray reachable from ``obj`` through dataclass fields,
    lists and tuples, each once."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if dataclasses.is_dataclass(obj):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, (list, tuple)):
        children = obj
    else:
        return []
    return [a for child in children for a in _held_arrays(child, seen)]


def _digest(H):
    digest = hashlib.sha256()
    arrays = _held_arrays(H)
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return len(arrays), digest.hexdigest()


@pytest.mark.parametrize('case', ['pi4_64', 'chain_16384', 'pi4_perm_48'])
def test_a_solve_writes_nothing_into_the_hierarchy(case):
    # Hierarchies are immutable after setup and safe to share between
    # concurrent solves: two solves whose cycles interleave leave every
    # array the hierarchy holds as it was, and each gives the bits it gives
    # alone.
    A, b = CASES[case]()
    H = setup(A, SetupConfig())
    before = _digest(H)
    assert before[0] > 4 * H.num_levels
    rhs = (b, np.random.default_rng(1).standard_normal(A.nrows))
    alone = [richardson_solve(H, r, np.zeros(A.nrows), SolveConfig())
             for r in rhs]
    x = [np.zeros(A.nrows), np.zeros(A.nrows)]
    r = list(rhs)
    for it in range(max(stats.iterations for _, stats in alone)):
        for k, (_, stats) in enumerate(alone):
            if it < stats.iterations:
                x[k] += vcycle(H, 0, r[k])
                r[k] = rhs[k] - spmv(A, x[k])
    assert _digest(H) == before
    for got, (want, _) in zip(x, alone):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_zero_initial_guess_skips_the_first_product(monkeypatch):
    # With no nonzero entry in ``x0`` the initial residual is ``b`` itself:
    # one top-level product fewer, and the bits of ``b - A x0``.
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, _ = build_advection_2d(AdvectionProblem(nx=32, ny=32, vx=vx, vy=vy))
    H = setup(A, SetupConfig())
    b = np.random.default_rng(15).standard_normal(A.nrows)

    def reference(x0, iterations):
        x = x0.copy()
        r = b - spmv(A, x)
        history = [float(_norm(r))]
        for _ in range(iterations):
            x += vcycle(H, 0, r)
            r = b - spmv(A, x)
            history.append(float(_norm(r)))
        return x, history

    top = []

    def counting(M, x):
        top.append(M is H.top_A)
        return spmv(M, x)

    monkeypatch.setattr(solve, 'spmv', counting)
    for x0, first in ((np.zeros(A.nrows), 0), (np.full(A.nrows, -0.0), 0),
                      (np.ones(A.nrows), 1)):
        top.clear()
        b_before = b.copy()
        x, stats = richardson_solve(H, b, x0, SolveConfig())
        assert stats.converged and stats.iterations > 0
        assert sum(top) == stats.iterations + first
        assert np.array_equal(b, b_before)
        want_x, want_history = reference(x0, stats.iterations)
        assert stats.residual_history == want_history
        assert np.array_equal(x.view(np.uint64), want_x.view(np.uint64))


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(max_iters=0).validate()
    with pytest.raises(ValueError):
        SolveConfig(atol=-1.0).validate()
