"""Polynomial approximate-inverse tests.

The coefficient form is checked against a self-contained dense GMRES oracle
(modified Gram-Schmidt Arnoldi plus a least-squares solve, residual measured
explicitly), the Newton form against dense eigenvalues and against the
coefficient form, and the assembled form against dense masked-power oracles.
"""

import math
from dataclasses import fields

import numpy as np
import pytest

from airmg import polynomial, sparse
from airmg import (PolySolver, SparseMatrix, apply_matrix_free,
                   assemble_fixed_sparsity, build_advection_1d,
                   build_advection_2d, AdvectionProblem, cf_split, extract,
                   gmres_poly_arnoldi, gmres_poly_newton, neumann_poly,
                   spgemm_fixed_sparsity, spmv)
from airmg.sparse import _row_index
from airmg.polynomial import (_SCALE_LIMIT, _arnoldi, _group_conjugate_units,
                              _harmonic_ritz, _leja_order, _log_distances,
                              _poly_apply_flops, _random_unit_vector,
                              _residual_history, _with_added_roots)


def dense_gmres_residual(A_dense, b, m):
    """Textbook GMRES residual at step ``m``: build the Krylov basis densely,
    solve the small least-squares problem, and measure ||b - A x|| directly."""
    n = len(b)
    beta = np.linalg.norm(b)
    Q = [b / beta]
    h = np.zeros((m + 1, m))
    steps = 0
    for j in range(m):
        w = A_dense @ Q[j]
        for i in range(j + 1):
            h[i, j] = Q[i] @ w
            w = w - h[i, j] * Q[i]
        h[j + 1, j] = np.linalg.norm(w)
        steps = j + 1
        if h[j + 1, j] < 1e-13 * beta:
            break
        Q.append(w / h[j + 1, j])
    rhs = np.zeros(steps + 1)
    rhs[0] = beta
    y, *_ = np.linalg.lstsq(h[:steps + 1, :steps], rhs, rcond=None)
    x = np.column_stack(Q[:steps]) @ y
    return np.linalg.norm(b - A_dense @ x)


def random_dd_matrix(rng, n, density=0.3):
    """Random strictly diagonally dominant sparse matrix."""
    dense = np.where(rng.random((n, n)) < density,
                     rng.uniform(-1, 1, (n, n)), 0.0)
    np.fill_diagonal(dense, 0.0)
    rowsum = np.abs(dense).sum(axis=1)
    np.fill_diagonal(dense, rowsum + rng.uniform(0.5, 1.5, n))
    return SparseMatrix.from_dense(dense)


def generating_residual(p, A, seed):
    b = _random_unit_vector(A.nrows, seed)
    x = apply_matrix_free(p, A, b)
    return np.linalg.norm(b - spmv(A, x))


# Plain-form references for the matrix-free applications: one new vector per
# operation, no scratch buffers.  The library's in-place loops must reproduce
# them bit for bit.

def reference_horner(coeffs, A, b):
    d = len(coeffs) - 1
    y = coeffs[d] * b
    for j in range(d - 1, -1, -1):
        y = spmv(A, y) + coeffs[j] * b
    return y


def reference_neumann(p, A, b):
    t = p.diag_scale * b
    acc = t.copy()
    for _ in range(p.effective_order):
        t = t - p.diag_scale * spmv(A, t)
        acc += t
    return acc


def reference_newton(roots, A, b, trace=None):
    """Plain factored form; ``trace`` collects ``'rescale'`` and ``'stop'``
    events so a test can show which paths it reached."""
    trace = [] if trace is None else trace
    x = np.zeros_like(b)
    u = b.copy()
    scale = 1.0
    i = 0
    with np.errstate(over='ignore', invalid='ignore'):
        while i < len(roots):
            th = roots[i]
            if th.imag == 0:
                t = th.real
                delta = (scale / t) * u
                if not np.all(np.isfinite(delta)):
                    trace.append('stop')
                    break
                x += delta
                u -= spmv(A, u) / t
                i += 1
            else:
                a = th.real
                m2 = (th * np.conj(th)).real
                w = spmv(A, u)
                delta = (scale / m2) * (2.0 * a * u - w)
                if not np.all(np.isfinite(delta)):
                    trace.append('stop')
                    break
                x += delta
                u += (spmv(A, w) - 2.0 * a * w) / m2
                i += 2
            nrm = np.max(np.abs(u))
            if nrm == 0.0:
                break
            if nrm > _SCALE_LIMIT or nrm < 1.0 / _SCALE_LIMIT:
                trace.append('rescale')
                u /= nrm
                scale *= nrm
                if not np.isfinite(scale) or scale == 0.0:
                    trace.append('stop')
                    break
    return x


def assert_matches_reference(p, A, b):
    if p.kind == 'arnoldi':
        want = reference_horner(p.coeffs, A, b)
    elif p.kind == 'neumann':
        want = reference_neumann(p, A, b)
    else:
        want = reference_newton(p.roots, A, b)
    got = apply_matrix_free(p, A, b)
    assert np.array_equal(got, want)
    return got


def test_arnoldi_scaled_identity_exact():
    A = SparseMatrix.from_dense(2.0 * np.eye(5))
    p = gmres_poly_arnoldi(A, order=3, seed=0)
    assert p.effective_order == 0
    assert p.coeffs[0] == pytest.approx(0.5, rel=1e-14)
    b = np.arange(1.0, 6.0)
    assert np.allclose(apply_matrix_free(p, A, b), b / 2.0, rtol=1e-14)


def test_arnoldi_two_point_spectrum_coefficients():
    # exact inverse of diag(1, 2) needs q(t) = 1.5 - 0.5 t
    A = SparseMatrix.from_dense(np.diag([1.0, 2.0]))
    p = gmres_poly_arnoldi(A, order=1, seed=3)
    assert p.coeffs == pytest.approx([1.5, -0.5], rel=1e-12)


def test_arnoldi_zero_matrix_error():
    A = SparseMatrix.from_coo(3, 3, [0], [0], [0.0])
    with pytest.raises(ValueError):
        gmres_poly_arnoldi(A, order=2, seed=0)


def test_arnoldi_residual_matches_textbook_gmres():
    rng = np.random.default_rng(31)
    for trial in range(6):
        n = int(rng.integers(10, 40))
        A = random_dd_matrix(rng, n)
        for order in (1, 3, 5):
            seed = 100 * trial + order
            p = gmres_poly_arnoldi(A, order=order, seed=seed)
            if p.effective_order < order:
                continue  # polynomial already exact; oracle step differs
            b = _random_unit_vector(n, seed)
            got = generating_residual(p, A, seed)
            want = dense_gmres_residual(A.to_dense(), b, order + 1)
            assert got == pytest.approx(want, rel=1e-10, abs=1e-13)


def test_arnoldi_residual_non_increasing_in_order():
    rng = np.random.default_rng(32)
    A = random_dd_matrix(rng, 30)
    seed = 7
    residuals = [generating_residual(gmres_poly_arnoldi(A, k, seed), A, seed)
                 for k in range(6)]
    for lo, hi in zip(residuals[1:], residuals[:-1]):
        assert lo <= hi + 1e-12


def test_arnoldi_truncates_near_identity_stagnation():
    # near scaled identity: tiny couplings stall the Krylov space; the
    # extracted polynomial must stay accurate instead of blowing up
    dense = 1.4142 * np.eye(12)
    dense[3, 1] = -0.04
    dense[7, 2] = -0.002
    A = SparseMatrix.from_dense(dense)
    p = gmres_poly_arnoldi(A, order=6, seed=1)
    v = _random_unit_vector(12, 9)
    err = v - apply_matrix_free(p, A, spmv(A, v))
    assert np.linalg.norm(err) < 1e-8


def test_newton_scaled_identity_single_root():
    A = SparseMatrix.from_dense(3.0 * np.eye(6))
    p = gmres_poly_newton(A, order=4, seed=0)
    assert p.effective_order == 0
    assert len(p.roots) == 1
    assert p.roots[0] == pytest.approx(3.0, rel=1e-13)
    b = np.linspace(1, 2, 6)
    assert np.allclose(apply_matrix_free(p, A, b), b / 3.0, rtol=1e-13)


def test_newton_full_krylov_recovers_eigenvalues():
    A = SparseMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
    p = gmres_poly_newton(A, order=3, seed=5)
    got = np.sort(p.roots.real)
    assert np.max(np.abs(p.roots.imag)) < 1e-12
    assert got == pytest.approx([1.0, 2.0, 3.0], rel=1e-12)


def test_newton_matches_arnoldi_coefficient_form():
    rng = np.random.default_rng(33)
    A = random_dd_matrix(rng, 50, density=0.2)
    seed = 17
    order = 10
    pa = gmres_poly_arnoldi(A, order=order, seed=seed)
    pn = gmres_poly_newton(A, order=order, seed=seed)
    b = _random_unit_vector(50, 999)
    ra = np.linalg.norm(b - spmv(A, apply_matrix_free(pa, A, b)))
    rn = np.linalg.norm(b - spmv(A, apply_matrix_free(pn, A, b)))
    assert rn == pytest.approx(ra, rel=1e-8)


def test_newton_conjugate_pairs_adjacent():
    # rotation-like block gives complex harmonic Ritz values
    dense = np.array([[2.0, -1.0, 0.0, 0.0],
                      [1.0, 2.0, 0.0, 0.0],
                      [0.0, 0.0, 3.0, -0.5],
                      [0.0, 0.0, 0.5, 3.0]])
    A = SparseMatrix.from_dense(dense)
    p = gmres_poly_newton(A, order=4, seed=2)
    roots = p.roots
    i = 0
    while i < len(roots):
        if roots[i].imag != 0:
            assert roots[i + 1] == np.conj(roots[i])
            i += 2
        else:
            i += 1


def test_newton_high_order_finite_on_wide_spectrum():
    rng = np.random.default_rng(34)
    A = SparseMatrix.from_dense(np.diag(np.geomspace(1e-4, 1e4, 120)))
    p = gmres_poly_newton(A, order=100, seed=4)
    b = rng.uniform(-1, 1, 120)
    trace = []
    reference_newton(p.roots, A, b, trace)
    assert 'rescale' in trace
    x = assert_matches_reference(p, A, b)
    assert np.all(np.isfinite(x))


def test_newton_order_100_on_dd_matrix_finite_and_accurate():
    rng = np.random.default_rng(35)
    A = random_dd_matrix(rng, 300, density=0.05)
    p = gmres_poly_newton(A, order=100, seed=6)
    assert np.any(p.roots.imag == 0) and np.any(p.roots.imag != 0)
    b = _random_unit_vector(300, 777)
    x = assert_matches_reference(p, A, b)
    assert np.all(np.isfinite(x))
    assert np.linalg.norm(b - spmv(A, x)) < 1e-8


def test_neumann_diagonal_exact():
    A = SparseMatrix.from_dense(np.diag([2.0, 4.0, 8.0]))
    p = neumann_poly(A, order=5)
    b = np.array([2.0, 4.0, 8.0])
    assert np.allclose(apply_matrix_free(p, A, b), np.ones(3), rtol=1e-15)


def test_neumann_order_zero_is_jacobi():
    A = SparseMatrix.from_dense([[2.0, -1.0], [0.0, 4.0]])
    p = neumann_poly(A, order=0)
    b = np.array([2.0, 8.0])
    assert np.array_equal(apply_matrix_free(p, A, b), [1.0, 2.0])


def test_neumann_exact_for_nilpotent_offdiagonal():
    A = build_advection_1d(4, 1.0)
    p = neumann_poly(A, order=3)
    rng = np.random.default_rng(36)
    b = rng.uniform(-1, 1, 4)
    expected = np.linalg.solve(A.to_dense(), b)
    assert np.allclose(apply_matrix_free(p, A, b), expected, rtol=1e-13)


def test_neumann_zero_diagonal_error():
    A = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        neumann_poly(A, order=2)


def test_apply_matches_dense_polynomial_oracle():
    rng = np.random.default_rng(37)
    A = random_dd_matrix(rng, 20)
    dense = A.to_dense()
    for order in (0, 2, 5, 10):
        p = gmres_poly_arnoldi(A, order=order, seed=order + 1)
        b = rng.uniform(-1, 1, 20)
        expected = np.zeros(20)
        power = b.copy()
        for c in p.coeffs:
            expected += c * power
            power = dense @ power
        got = apply_matrix_free(p, A, b)
        assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)


def test_apply_degree_zero_scales():
    from airmg import PolySolver
    p = PolySolver(kind='arnoldi', order=0, effective_order=0,
                   coeffs=np.array([2.5]))
    A = SparseMatrix.identity(3)
    assert np.array_equal(apply_matrix_free(p, A, np.ones(3)), 2.5 * np.ones(3))


def test_assemble_diagonal_is_exact_inverse():
    A = SparseMatrix.from_dense(np.diag([2.0, 5.0]))
    p = gmres_poly_arnoldi(A, order=1, seed=0)
    assembled = assemble_fixed_sparsity(p, A)
    assert np.allclose(assembled.to_dense(), np.diag([0.5, 0.2]), rtol=1e-14)
    pn = neumann_poly(A, order=4)
    assert np.allclose(assemble_fixed_sparsity(pn, A).to_dense(),
                       np.diag([0.5, 0.2]), rtol=1e-14)


def test_assemble_order_one_matches_matrix_free():
    rng = np.random.default_rng(38)
    A = random_dd_matrix(rng, 15)
    b = rng.uniform(-1, 1, 15)
    for p in (gmres_poly_arnoldi(A, order=1, seed=2), neumann_poly(A, 1)):
        direct = apply_matrix_free(p, A, b)
        via_matrix = spmv(assemble_fixed_sparsity(p, A), b)
        assert np.linalg.norm(direct - via_matrix) <= 1e-14 * np.linalg.norm(direct)


def test_assemble_tridiagonal_masked_oracle():
    n = 8
    dense = (np.diag(np.full(n, 3.0)) + np.diag(np.full(n - 1, -1.0), -1)
             + np.diag(np.full(n - 1, 0.5), 1))
    A = SparseMatrix.from_dense(dense)
    p = gmres_poly_arnoldi(A, order=3, seed=1)
    got = assemble_fixed_sparsity(p, A).to_dense()
    # dense masked-power oracle: every power is confined to the pattern of A
    # plus the diagonal before multiplying again
    pattern = (dense != 0) | np.eye(n, dtype=bool)
    expected = np.zeros((n, n))
    power = np.eye(n)
    for k, c in enumerate(p.coeffs):
        expected += c * power
        power = power @ dense
        power[~pattern] = 0.0
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    got_pattern = assemble_fixed_sparsity(p, A)
    inside = pattern[_row_index(got_pattern), got_pattern.col_indices]
    assert np.all(inside)


def test_assemble_neumann_masked_oracle():
    n = 8
    rng = np.random.default_rng(39)
    A = random_dd_matrix(rng, n, density=0.25)
    dense = A.to_dense()
    order = 4
    p = neumann_poly(A, order=order)
    got = assemble_fixed_sparsity(p, A).to_dense()
    pattern = (dense != 0) | np.eye(n, dtype=bool)
    dinv = 1.0 / np.diag(dense)
    N = np.eye(n) - dinv[:, None] * dense
    expected = np.zeros((n, n))
    power = np.eye(n)
    for k in range(order + 1):
        expected += power
        power = power @ N
        power[~pattern] = 0.0
    expected = expected * dinv[None, :]
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


def scipy_loop_assembly(p, A):
    """The fixed-sparsity assembly as one scipy loop: identity and powers
    summed left to right, each power past the first masked to ``I + A``."""
    eye = SparseMatrix.identity(A.nrows)._scipy
    unit = SparseMatrix(A.nrows, A.ncols, A.row_offsets, A.col_indices,
                        np.ones(A.nnz))
    pattern = SparseMatrix._from_scipy(eye + unit._scipy)
    base = A
    if p.kind == 'neumann':
        scaled = SparseMatrix(A.nrows, A.ncols, A.row_offsets, A.col_indices,
                              -p.diag_scale[_row_index(A)] * A.values)
        base = SparseMatrix._from_scipy(eye + scaled._scipy)
    acc = p.coeffs[0] * eye
    power = base
    for k in range(1, len(p.coeffs)):
        if k > 1:
            power = spgemm_fixed_sparsity(power, base, pattern)
        acc = acc + p.coeffs[k] * power._scipy
    out = SparseMatrix._from_scipy(acc)
    if p.kind == 'neumann':
        out = SparseMatrix(out.nrows, out.ncols, out.row_offsets,
                           out.col_indices,
                           out.values * p.diag_scale[out.col_indices])
    return out


def test_assemble_bitwise_equals_scipy_loop_and_traces_each_power(
        monkeypatch):
    # Every masked power goes through ``spgemm_fixed_sparsity`` by its name
    # in ``sparse``, so a tracer that rebinds the name sees each one.
    calls = []

    def counting(*args):
        calls.append(args)
        return spgemm_fixed_sparsity(*args)

    A = random_dd_matrix(np.random.default_rng(40), 30, density=0.2)
    monkeypatch.setattr(sparse, 'spgemm_fixed_sparsity', counting)
    for p in (gmres_poly_arnoldi(A, 0, seed=1), gmres_poly_arnoldi(A, 1, seed=1),
              gmres_poly_arnoldi(A, 6, seed=1), neumann_poly(A, 0),
              neumann_poly(A, 5)):
        calls.clear()
        got = assemble_fixed_sparsity(p, A)
        assert len(calls) == max(len(p.coeffs) - 2, 0)
        want = scipy_loop_assembly(p, A)
        assert np.array_equal(got.row_offsets, want.row_offsets)
        assert np.array_equal(got.col_indices, want.col_indices)
        assert np.array_equal(got.values.view(np.uint64),
                              want.values.view(np.uint64))
    assert len(gmres_poly_arnoldi(A, 6, seed=1).coeffs) > 3


def test_assemble_rejects_newton():
    A = SparseMatrix.identity(4)
    p = gmres_poly_newton(SparseMatrix.from_dense(np.diag([1.0, 2.0, 3.0, 4.0])),
                          order=2, seed=0)
    with pytest.raises(ValueError, match='coefficient kinds'):
        assemble_fixed_sparsity(p, A)


def test_unknown_kind_is_refused_at_construction():
    with pytest.raises(ValueError, match='bogus'):
        PolySolver(kind='bogus', order=0, effective_order=0)
    for kind in polynomial.POLY_KINDS:
        assert PolySolver(kind=kind, order=0, effective_order=0).kind == kind
    assert set(polynomial.COEFF_KINDS) < set(polynomial.POLY_KINDS)


def test_f_block_polynomial_residual_matches_gmres_on_advection():
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, _ = build_advection_2d(AdvectionProblem(nx=8, ny=8, vx=vx, vy=vy))
    split, _ = cf_split(A, theta=0.4, ddc_fraction=0.01, ddc_its=1, seed=0)
    A_ff = extract(A, split.f_set, split.f_set)
    seed = 11
    p = gmres_poly_arnoldi(A_ff, order=5, seed=seed)
    if p.effective_order == 5:
        b = _random_unit_vector(A_ff.nrows, seed)
        want = dense_gmres_residual(A_ff.to_dense(), b, 6)
        got = generating_residual(p, A_ff, seed)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-13)


@pytest.mark.parametrize('order', [0, 2, 6, 10])
def test_arnoldi_apply_bitwise_equals_plain_form(order):
    rng = np.random.default_rng(60 + order)
    for n in (12, 40):
        A = random_dd_matrix(rng, n, density=0.2)
        p = gmres_poly_arnoldi(A, order=order, seed=order)
        assert_matches_reference(p, A, rng.uniform(-1, 1, n))


def test_neumann_apply_bitwise_equals_plain_form():
    rng = np.random.default_rng(61)
    A = random_dd_matrix(rng, 40, density=0.2)
    assert_matches_reference(neumann_poly(A, 4), A, rng.uniform(-1, 1, 40))


@pytest.mark.parametrize('roots', [
    np.full(8, 1e-100, dtype=np.complex128),
    np.array([1e-100 + 1e-100j, 1e-100 - 1e-100j] * 4),
], ids=['real', 'conjugate_pair'])
def test_newton_out_of_range_stops_at_last_finite_sum(roots):
    A = SparseMatrix.from_dense(np.diag([1.0, 2.0, 3.0]))
    b = np.array([1.0, -0.5, 0.25])
    p = PolySolver(kind='newton', order=len(roots),
                   effective_order=len(roots), roots=roots)
    trace = []
    reference_newton(roots, A, b, trace)
    assert trace[-1] == 'stop'
    x = assert_matches_reference(p, A, b)
    assert np.all(np.isfinite(x)) and np.any(x != 0)


# The root construction and residual history in their first, per-element
# form: generator scores over every placed root, a per-unit copy test and
# one least-squares solve per Krylov step.  The library's array passes must
# give the same units, order and roots bit for bit, and the same history to
# rounding.  The score is an explicit left-to-right loop so the reference
# does not depend on the interpreter's float summation.

def reference_units(roots):
    real = [complex(r) for r in roots[roots.imag == 0]]
    upper = np.sort_complex(roots[roots.imag > 0])
    return [(r,) for r in real] + [(t, np.conj(t)) for t in upper]


def reference_leja_order(units):
    remaining = list(units)
    remaining.sort(key=lambda u: max(abs(t) for t in u), reverse=True)
    ordered = [remaining.pop(0)]
    placed = list(ordered[0])
    while remaining:
        scores = []
        for u in remaining:
            s = 0.0
            for t in u:
                for p in placed:
                    s += math.log(max(abs(t - p), 1e-300))
            scores.append(s)
        best = int(np.argmax(scores))
        unit = remaining.pop(best)
        ordered.append(unit)
        placed.extend(unit)
    return ordered


def reference_added_roots(units, rel_tol):
    out = []
    placed = []
    for unit in units:
        copies = 1
        if rel_tol > 0:
            for t in unit:
                if any(abs(t - p) < rel_tol * max(abs(t), abs(p))
                       for p in placed):
                    copies = 2
                    break
        for _ in range(copies):
            out.extend(unit)
        placed.extend(unit)
    return np.array(out, dtype=np.complex128)


def reference_residual_history(H, k, beta):
    rhs = np.zeros(H.shape[0])
    rhs[0] = beta
    out = []
    for j in range(1, k + 1):
        y, *_ = np.linalg.lstsq(H[:j + 1, :j], rhs[:j + 1], rcond=None)
        out.append(np.linalg.norm(rhs[:j + 1] - H[:j + 1, :j] @ y))
    return np.array(out)


def reference_newton_flops(roots, nnz, n):
    total = 0
    i = 0
    while i < len(roots):
        if roots[i].imag == 0:
            total += 2 * nnz + 4 * n
            i += 1
        else:
            total += 4 * nnz + 10 * n
            i += 2
    return total


def unit_tuples(lead, paired):
    return [(t, np.conj(t)) if p else (t,) for t, p in zip(lead, paired)]


def root_bits(units):
    """Unit sizes and the bit patterns of the roots (sign of zero kept)."""
    flat = np.array([t for u in units for t in u], dtype=np.complex128)
    return [len(u) for u in units], flat.view(np.uint64).tolist()


def conjugate_closed(rng, real, upper):
    roots = np.concatenate((np.asarray(real, dtype=np.complex128), upper,
                            np.conj(upper)))
    return rng.permutation(roots)


def random_spectra(rng):
    """Root sets of every shape the Newton build meets, and some it should
    survive: dense and triangular eigenvalues (exact repeats), near-clusters,
    conjugate pairs only, all real, a single unit and signed zero parts."""
    for n in (*range(1, 31), 100):
        yield np.linalg.eigvals(rng.standard_normal((n, n)))
    for n in range(2, 31):
        T = np.triu(rng.standard_normal((n, n)))
        np.fill_diagonal(T, rng.choice([-1.0, 0.5, 2.0, 3.0], n))
        yield np.linalg.eigvals(T)
    for _ in range(60):
        centres = rng.standard_normal(rng.integers(1, 6)) * 3
        real = np.concatenate([c * (1 + rng.uniform(-1, 1, rng.integers(1, 5))
                                    * 10.0 ** -rng.integers(3, 12))
                               for c in centres])
        z = complex(*rng.standard_normal(2))
        upper = z * (1 + 10.0 ** -rng.integers(3, 12)
                     * rng.uniform(-1, 1, rng.integers(1, 5)))
        upper = upper[upper.imag > 0]
        yield conjugate_closed(rng, real, upper)
    for _ in range(40):
        m = rng.integers(1, 20)
        upper = np.abs(rng.standard_normal(m)) * 1j + rng.standard_normal(m)
        yield conjugate_closed(rng, [], np.repeat(upper, rng.integers(1, 3)))
        yield conjugate_closed(rng, np.repeat(rng.uniform(-3, 3, m),
                                              rng.integers(1, 3)), [])
    # Symmetric lattices tie scores up to rounding, so the fold order, the
    # modulus and the logarithm decide; equal moduli (Pythagorean pairs)
    # tie the starting sort.
    for width in range(2, 12):
        grid = np.arange(-width, width + 1, dtype=np.float64)
        yield conjugate_closed(rng, grid[grid != 0], [])
        upper = (grid[:, None] + 1j * np.arange(1, 4)[None, :]).ravel()
        yield conjugate_closed(rng, grid[::2], upper)
    pythagorean = np.array([7 + 24j, 24 + 7j, 15 + 20j, 20 + 15j, 25j])
    for _ in range(10):
        yield conjugate_closed(rng, rng.permutation([25.0, -25.0, 5.0, -5.0,
                                                     3.0, -3.0] * 2),
                               np.concatenate((pythagorean,
                                               -np.conj(pythagorean[:4]),
                                               [3 + 4j, 4 + 3j, -3 + 4j])))
    yield np.array([2.5 + 0j])
    yield np.array([1.0 + 2.0j, 1.0 - 2.0j])
    yield np.array([complex(1.5, -0.0), 2.0 + 0j, complex(-1.5, -0.0),
                    0.5 + 1j, 0.5 - 1j])


def test_leja_order_and_added_roots_match_reference_bitwise():
    rng = np.random.default_rng(70)
    count = 0
    for roots in random_spectra(rng):
        lead, paired = _group_conjugate_units(roots)
        units = reference_units(roots)
        assert root_bits(unit_tuples(lead, paired)) == root_bits(units)
        leja = _leja_order(lead, paired)
        ordered = reference_leja_order(units)
        assert root_bits(unit_tuples(lead[leja], paired[leja])) == \
            root_bits(ordered)
        for tol in (0.0, 1e-4, 1e-2):
            got = _with_added_roots(lead[leja], paired[leja], tol)
            want = reference_added_roots(ordered, tol)
            assert got.view(np.uint64).tolist() == \
                want.view(np.uint64).tolist()
        count += 1
    assert count > 200


def test_log_distances_match_scalar_arithmetic_bitwise():
    # Vectorised complex abs and log differ from the scalar ones in the last
    # bit on a fraction of inputs; the Leja scores must not.
    rng = np.random.default_rng(74)
    roots = np.concatenate((rng.standard_normal(150),
                            rng.standard_normal(150) * (1 + 1j),
                            [0.5, 0.5, 0.5 + 1e-310]))
    want = [[math.log(max(abs(complex(a) - complex(b)), 1e-300))
             for b in roots] for a in roots]
    got = _log_distances(roots.astype(np.complex128))
    assert got.view(np.uint64).tolist() == \
        np.array(want).view(np.uint64).tolist()


def hessenbergs():
    """``(label, H, k, beta)``: random blocks, Krylov spaces of random and
    advection matrices, a lucky breakdown and a rank-cut degree.

    Random blocks stay below condition number 1e14: beyond it the
    reference's ``lstsq`` cuts the rank (``rcond`` is ``eps * (k + 1)``)
    and its residual is no longer the minimum (see the next test).
    """
    rng = np.random.default_rng(71)
    for k in (1, 2, 7, 40):
        H = np.triu(rng.standard_normal((k + 1, k)), -1)
        assert np.linalg.cond(H) < 1e14
        yield 'random', H, k, rng.uniform(0.1, 10.0)
    for n in (10, 60, 150):
        for M in (SparseMatrix.from_dense(rng.standard_normal((n, n))),
                  random_dd_matrix(rng, n)):
            H, k, beta = _arnoldi(M, _random_unit_vector(n, n), 101)
            yield 'random_krylov', H, k, beta
    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, _ = build_advection_2d(AdvectionProblem(nx=16, ny=16, vx=vx, vy=vy))
    split, _ = cf_split(A, theta=0.4, ddc_fraction=0.1, ddc_its=1, seed=0)
    for M in (A, extract(A, split.f_set, split.f_set)):
        H, k, beta = _arnoldi(M, _random_unit_vector(M.nrows, 3), 101)
        yield 'advection', H, k, beta
    D = SparseMatrix.from_dense(np.diag(np.repeat([1.0, 2.0, 5.0, 9.0], 5)))
    H, k, beta = _arnoldi(D, 3.0 * _random_unit_vector(20, 4), 10)
    assert k == 4 and H[k, k - 1] == 0.0
    yield 'breakdown', H, k, beta
    S = SparseMatrix.from_dense(np.diag([0.0, 1.0, 2.0, 4.0]))
    H, k, beta = _arnoldi(S, _random_unit_vector(4, 5), 4)
    _, k_cut = _harmonic_ritz(H, k)
    assert k_cut < k
    yield 'rank_cut', H, k_cut, beta
    # The second column repeats the first: the residual must not move.
    yield 'singular', np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]), 2, 1.0


def test_residual_history_matches_least_squares_reference():
    for label, H, k, beta in hessenbergs():
        got = np.array(_residual_history(H, k, beta))
        want = reference_residual_history(H, k, beta)
        assert got.shape == (k,)
        assert np.max(np.abs(got - want)) <= 1e-13 * beta, label
        if label == 'breakdown':
            assert got[-1] == 0.0


def test_residual_history_at_most_least_squares_when_ill_conditioned():
    # Condition number about 2e15: the rank-cut least-squares solution is a
    # feasible but not minimal correction, so the sweep may only be lower.
    rng = np.random.default_rng(73)
    H = np.triu(rng.standard_normal((102, 101)), -1)
    assert np.linalg.cond(H) > 1e14
    got = np.array(_residual_history(H, 101, 2.0))
    want = reference_residual_history(H, 101, 2.0)
    assert np.all(got <= want + 1e-13 * 2.0)
    assert np.all(np.diff(got) <= 0)


def test_newton_build_makes_no_least_squares_call(monkeypatch):
    def refuse(*_, **__):
        raise AssertionError('the Newton build must not solve least-squares '
                             'problems')

    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, _ = build_advection_2d(AdvectionProblem(nx=12, ny=12, vx=vx, vy=vy))
    monkeypatch.setattr(np.linalg, 'lstsq', refuse)
    p = gmres_poly_newton(A, order=100, seed=3)
    assert len(p.roots) >= p.effective_order + 1


def test_newton_build_runs_no_residual_sweep(monkeypatch):
    # The Givens sweep only picks the Arnoldi kind's degree; no solver keeps
    # a residual history.
    def refuse(*_):
        raise AssertionError('the Newton build must not run the sweep')

    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, _ = build_advection_2d(AdvectionProblem(nx=12, ny=12, vx=vx, vy=vy))
    monkeypatch.setattr(polynomial, '_residual_history', refuse)
    gmres_poly_newton(A, order=100, seed=3)
    assert 'residual_history' not in {f.name for f in fields(PolySolver)}


def test_arnoldi_build_makes_one_least_squares_call(monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq

    def counting(*args, **kwargs):
        calls.append(args)
        return lstsq(*args, **kwargs)

    vx, vy = np.cos(np.pi / 4), np.sin(np.pi / 4)
    A, _ = build_advection_2d(AdvectionProblem(nx=12, ny=12, vx=vx, vy=vy))
    monkeypatch.setattr(np.linalg, 'lstsq', counting)
    gmres_poly_arnoldi(A, order=10, seed=3)
    assert len(calls) == 1


def test_newton_flops_count_real_roots_and_pairs():
    rng = np.random.default_rng(72)
    for _ in range(300):
        m = rng.integers(1, 60)
        paired = rng.random(m) < rng.random()
        lead = rng.standard_normal(m) + 1j * np.where(
            paired, np.abs(rng.standard_normal(m)) + 0.1, 0.0)
        if not paired.all():
            lead[np.flatnonzero(~paired)[0]] = complex(-1.0, -0.0)
        # Each unit once or twice, as stability copies leave it.
        roots = np.array([t for u in unit_tuples(lead, paired)
                          for t in u * rng.integers(1, 3)])
        p = PolySolver(kind='newton', order=m, effective_order=m - 1,
                       roots=roots)
        nnz, n = (int(v) for v in rng.integers(1, 10 ** 7, 2))
        got = _poly_apply_flops(p, nnz, n)
        assert type(got) is int
        assert got == reference_newton_flops(roots, nnz, n)
