"""Polynomial approximations to a matrix inverse.

Three kinds are supported, all applicable matrix-free (SpMVs and vector
updates only, no dot products during application):

* ``arnoldi`` -- the minimum-residual (GMRES) polynomial of a requested
  degree, built once from a random right-hand side via Arnoldi and stored as
  explicit monomial coefficients.  Intended for low orders.
* ``newton`` -- the same minimising polynomial represented by the roots
  of its residual polynomial (the harmonic Ritz values), Leja-ordered and
  applied in factored Newton form.  Stable to very high order.
* ``neumann`` -- the truncated Neumann series ``sum_k (I - D^-1 A)^k D^-1``.

Low-order solvers can also be assembled as sparse matrices with the sparsity
of each matrix power constrained to the pattern of ``A`` plus its diagonal;
the hierarchy does so only to form the restriction's ``Z`` block.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .sparse import (SparseMatrix, _add, _dot, _masked_power_sum, _norm,
                     _row_index, diagonal, spmv)

__all__ = [
    'POLY_KINDS',
    'COEFF_KINDS',
    'PolySolver',
    'gmres_poly_arnoldi',
    'gmres_poly_newton',
    'neumann_poly',
    'apply_matrix_free',
    'assemble_fixed_sparsity',
]

_BREAKDOWN_REL = 1e-14
_RANK_REL = 1e-12
_SCALE_LIMIT = 1e150
_ADDED_ROOT_TOL = 1e-4

# The polynomial kinds, and the coefficient kinds among them: the ones that
# ``assemble_fixed_sparsity`` accepts, so the ones a smoother may use.
POLY_KINDS = ('newton', 'arnoldi', 'neumann')
COEFF_KINDS = ('arnoldi', 'neumann')


@dataclass(frozen=True)
class PolySolver:
    """A fixed polynomial approximation of a matrix inverse.

    ``order`` is the requested degree of the polynomial; ``effective_order``
    is the degree actually achieved after breakdown/rank truncation.  ``kind``
    is one of ``POLY_KINDS``.  The coefficient kinds store ``coeffs``
    (monomial coefficients for ``arnoldi``, series weights on powers of
    ``I - D^-1 A`` for ``neumann``); the Newton kind stores the
    residual-polynomial ``roots`` with conjugate pairs adjacent and any
    stability copies included.
    """

    kind: str
    order: int
    effective_order: int
    coeffs: np.ndarray = None
    roots: np.ndarray = None
    diag_scale: np.ndarray = None

    def __post_init__(self):
        if self.kind not in POLY_KINDS:
            raise ValueError(f'polynomial kind must be one of {POLY_KINDS}, '
                             f'not {self.kind!r}')


def _random_unit_vector(n, seed):
    """Uniform components in [-1, 1), normalised; keyed by the seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    v = rng.uniform(-1.0, 1.0, n)
    return v / _norm(v)


def _givens_step(H, j, rotations):
    """Residual factor of GMRES step ``j + 1``: ``|s|`` of its rotation.

    Rotates column ``j`` of the Hessenberg block by the rotations of the
    earlier steps (only the entry that stays below the diagonal is carried),
    then appends the rotation that zeroes ``H[j+1, j]``.  The GMRES residual
    after step ``j + 1`` is ``beta * prod |s_i|`` (Saad & Schultz 1986).  A
    column that is zero in both rotated rows (singular on the Krylov space)
    leaves the residual unchanged.  Step ``j`` reads only ``H[:j+2, j]``, so
    it can run while Arnoldi fills the block.
    """
    column = H[:j + 2, j].tolist()
    a = column[0]
    for (c, s), h in zip(rotations, column[1:]):
        a = c * h - s * a
    b = column[-1]
    r = math.hypot(a, b)
    c, s = (a / r, b / r) if r > 0 else (0.0, 1.0)
    rotations.append((c, s))
    return abs(s)


def _arnoldi(A, b, m):
    """Arnoldi with classical Gram-Schmidt twice, in two blocked sweeps.

    Twice is enough (Giraud, Langou & Rozložník, Comput. Math. Appl. 2005).
    Returns ``(H, k, beta, history)``: the ``(k+1) x k`` Hessenberg block,
    ``beta = ||b||`` and the GMRES residual norms after steps ``1..k``.
    ``m`` is a cap on the steps.  Each step carries the GMRES residual by
    one Givens rotation (``_givens_step``), and Arnoldi stops at the first
    step whose residual is at most ``eps * beta``: the Krylov space already
    solves ``b`` to rounding level, so further steps add degrees but no
    accuracy.  A lucky breakdown also stops it, when the subdiagonal falls
    below ``1e-14`` of the running maximum Hessenberg column norm.
    """
    n = A.nrows
    m = min(m, n)
    V = np.zeros((m + 1, n))
    H = np.zeros((m + 1, m))
    beta = _norm(b)
    if beta == 0:
        raise ValueError('cannot build a Krylov space from a zero vector')
    V[0] = b / beta
    floor = np.finfo(np.float64).eps * beta
    rotations = []
    history = []
    res = beta
    hmax = 0.0
    k = m
    for j in range(m):
        w = spmv(A, V[j])
        for _ in range(2):
            h = _dot(V[:j + 1], w)
            H[:j + 1, j] += h
            w -= _dot(V[:j + 1].T, h)
        hnorm = _norm(w)
        H[j + 1, j] = hnorm
        hmax = max(hmax, _norm(H[:j + 2, j]))
        if hnorm <= _BREAKDOWN_REL * hmax:
            H[j + 1, j] = 0.0
        res *= _givens_step(H, j, rotations)
        history.append(res)
        if H[j + 1, j] == 0.0 or res <= floor:
            k = j + 1
            break
        V[j + 1] = w / hnorm
    if np.max(np.abs(H[:k + 1, :k])) == 0.0:
        raise ValueError('matrix is numerically zero on the Krylov space')
    return H[:k + 1, :k], k, beta, tuple(history)


def gmres_poly_arnoldi(A, order, seed):
    """Minimum-residual polynomial of degree ``order`` in monomial form.

    Runs up to ``order + 1`` Arnoldi steps from a random unit-norm
    right-hand side and converts the Krylov-space solution into explicit
    monomial coefficients through the change of basis accumulated during
    Arnoldi.  Intended for low orders; high orders should use the Newton
    form.

    The conversion divides by the Hessenberg subdiagonals, which amplifies
    roundoff once the generating residual approaches machine precision (a
    near scaled identity stagnates this way without a hard breakdown).  The
    polynomial is therefore truncated at the step minimising the achievable
    residual including the measured basis growth, so ``effective_order`` can
    fall below ``order`` on easy matrices.
    """
    if A.nrows != A.ncols:
        raise ValueError('require a square matrix')
    if order < 0:
        raise ValueError('order must be non-negative')
    b = _random_unit_vector(A.nrows, seed)
    m = order + 1
    H, k, beta, history = _arnoldi(A, b, m)
    # Columns of C express each basis vector as a polynomial in A applied to
    # the start vector: V[j] = sum_i C[i, j] A^i v0.
    C = np.zeros((k, k))
    C[0, 0] = 1.0
    scale = max(_norm(H[:j + 2, j]) for j in range(k))
    powers = scale ** np.arange(k)
    growth = np.empty(k)
    growth[0] = 1.0
    for j in range(k - 1):
        shifted = np.zeros(k)
        shifted[1:j + 2] = C[:j + 1, j]
        C[:, j + 1] = (shifted - C[:, :j + 1] @ H[:j + 1, j]) / H[j + 1, j]
        growth[j + 1] = np.abs(C[:, j + 1]) @ powers
    eps = np.finfo(np.float64).eps
    noise = eps * np.maximum.accumulate(growth) * beta
    achievable = np.maximum(history, noise)
    k_use = int(np.argmin(achievable)) + 1
    rhs = np.zeros(k_use + 1)
    rhs[0] = beta
    y, *_ = np.linalg.lstsq(H[:k_use + 1, :k_use], rhs, rcond=None)
    coeffs = (C[:k_use, :k_use] @ y) / beta
    return PolySolver(kind='arnoldi', order=order,
                      effective_order=k_use - 1, coeffs=coeffs)


def _harmonic_ritz(H, k):
    """Harmonic Ritz values from the ``(k+1) x k`` Hessenberg block.

    Uses a rank-revealing decomposition of the square block: if it is
    numerically rank deficient (the GMRES polynomial has stagnated, e.g. a
    scaled identity), the achieved degree is cut back to the numerical rank
    before the shifted eigenproblem is formed.
    """
    while True:
        Hk = H[:k, :k]
        svals = np.linalg.svd(Hk, compute_uv=False)
        rank = int(np.sum(svals > _RANK_REL * svals[0])) if svals[0] > 0 else 0
        if rank == 0:
            raise ValueError('matrix is numerically zero on the Krylov space')
        if rank == k:
            break
        k = rank
    hsub = H[k, k - 1] if H.shape[0] > k else 0.0
    e_k = np.zeros(k)
    e_k[-1] = 1.0
    try:
        f = np.linalg.solve(Hk.T, e_k)
    except np.linalg.LinAlgError:
        f, *_ = np.linalg.lstsq(Hk.T, e_k, rcond=None)
    M = Hk.copy()
    M[:, -1] += (hsub * hsub) * f
    return np.linalg.eigvals(M), k


def _group_conjugate_units(roots):
    """Group roots into units: single real roots, then conjugate pairs.

    Returns ``(lead, paired)``: each unit's first root (a real root, or the
    upper-half-plane member of a pair) and whether its conjugate follows it.
    """
    real = roots[roots.imag == 0].astype(np.complex128)
    upper = np.sort_complex(roots[roots.imag > 0])
    if len(upper) != np.count_nonzero(roots.imag < 0):
        raise ValueError('complex roots of a real matrix must come in '
                         'conjugate pairs')
    lead = np.concatenate((real, upper))
    paired = np.arange(len(lead)) >= len(real)
    return lead, paired


def _unit_members(lead, paired):
    """Roots of the units in order, a conjugate right after its lead root,
    and the unit each root belongs to."""
    both = np.stack((lead, np.conj(lead)), axis=1)
    present = np.stack((np.ones(len(lead), dtype=bool), paired), axis=1)
    return both[present], np.nonzero(present)[0]


def _log_distances(roots):
    """``log(max(|r_a - r_b|, 1e-300))`` for every pair of roots.

    The modulus is ``hypot`` and the logarithm the C library's, as for
    Python complex scalars: numpy's vectorised ``abs`` of complex numbers
    and ``log`` differ from those in the last bit on some inputs.  The table
    is symmetric, so only the upper triangle is evaluated.
    """
    n = len(roots)
    upper = np.triu_indices(n, 1)
    diff = roots[upper[0]] - roots[upper[1]]
    dist = np.maximum(np.hypot(diff.real, diff.imag), 1e-300)
    logs = np.fromiter(map(math.log, dist.tolist()), np.float64, len(dist))
    out = np.full((n, n), math.log(1e-300))
    out[upper] = logs
    out.T[upper] = logs
    return out


def _leja_order(lead, paired):
    """Order units so successive factor products stay balanced.

    Start from the unit of largest modulus (ties keep the given order), then
    repeatedly append the unit maximising the summed log-distance to every
    root already placed (log arithmetic avoids overflow in the products of
    factors); ties go to the earliest remaining unit.  A unit's score is a
    left-to-right fold: its first root against each placed root in placement
    order, then its conjugate the same way (``+0.0`` terms for a real unit).
    Each step folds that ``(remaining, 2 * placed)`` array with
    ``np.add.accumulate``, so the order does not depend on the summation
    algorithm of the interpreter.  Returns the unit order as indices.
    """
    roots, _ = _unit_members(lead, paired)
    # Rows of each unit's first root and of its conjugate in ``logd``; a
    # real unit's conjugate row is the trailing row of zeros.
    first = np.cumsum(1 + paired) - (1 + paired)
    rows = np.stack((first, np.where(paired, first + 1, len(roots))), axis=1)
    logd = np.vstack((_log_distances(roots), np.zeros(len(roots))))
    modulus = np.hypot(lead.real, lead.imag)
    remaining = np.argsort(-modulus, kind='stable')
    best = 0
    order = []
    placed = []
    while len(remaining):
        unit = remaining[best]
        remaining = np.delete(remaining, best)
        order.append(unit)
        placed.extend(rows[unit, :1 + paired[unit]])
        if len(remaining):
            terms = logd[rows[remaining][:, :, None], np.array(placed)]
            scores = np.add.accumulate(terms.reshape(len(remaining), -1),
                                       axis=1)[:, -1]
            best = int(np.argmax(scores))
    return np.array(order, dtype=np.intp)


def _with_added_roots(lead, paired, rel_tol):
    """Roots of the units in order, with a second copy of every unit that
    has a root clustered (relative gap below ``rel_tol``) with a root of an
    earlier unit; the extra copy damps the factored application."""
    roots, unit = _unit_members(lead, paired)
    diff = roots[:, None] - roots[None, :]
    modulus = np.hypot(roots.real, roots.imag)
    close = (np.hypot(diff.real, diff.imag)
             < rel_tol * np.maximum(modulus[:, None], modulus[None, :]))
    close &= unit[None, :] < unit[:, None]
    copies = np.ones(len(lead), dtype=np.intp)
    copies[unit[close.any(axis=1)]] = 2
    blocks = np.repeat(np.arange(len(lead)), copies)
    return _unit_members(lead[blocks], paired[blocks])[0]


def gmres_poly_newton(A, order, seed):
    """Minimum-residual polynomial of degree ``order`` in factored Newton form.

    ``order`` is a cap: Arnoldi runs up to ``order + 1`` steps but stops
    once its GMRES residual reaches rounding level (``_arnoldi``), so an
    easy matrix gets a low ``effective_order``.  The harmonic Ritz values of
    the ``(k+1) x k`` block it returns (the roots of the residual
    polynomial) go through a rank-revealing path, are ordered in a Leja
    sequence with conjugate pairs kept adjacent, and clustered roots get
    copies for stability of high-order application.
    """
    if A.nrows != A.ncols:
        raise ValueError('require a square matrix')
    if order < 1:
        raise ValueError('order must be at least 1')
    b = _random_unit_vector(A.nrows, seed)
    H, k, *_ = _arnoldi(A, b, order + 1)
    theta, k = _harmonic_ritz(H, k)
    if np.any(np.abs(theta) == 0):
        raise ValueError('zero harmonic Ritz value; residual polynomial '
                         'is degenerate')
    lead, paired = _group_conjugate_units(theta)
    leja = _leja_order(lead, paired)
    roots = _with_added_roots(lead[leja], paired[leja], _ADDED_ROOT_TOL)
    return PolySolver(kind='newton', order=order, effective_order=k - 1,
                      roots=roots)


def neumann_poly(A, order):
    """Truncated Neumann series ``sum_{k<=order} (I - D^-1 A)^k D^-1``."""
    if A.nrows != A.ncols:
        raise ValueError('require a square matrix')
    if order < 0:
        raise ValueError('order must be non-negative')
    diag = diagonal(A)
    if np.any(diag == 0):
        raise ValueError('Neumann polynomial requires a nonzero diagonal')
    return PolySolver(kind='neumann', order=order, effective_order=order,
                      coeffs=np.ones(order + 1), diag_scale=1.0 / diag)


def _apply_horner(coeffs, A, b):
    d = len(coeffs) - 1
    y = coeffs[d] * b
    for j in range(d - 1, -1, -1):
        y = spmv(A, y)
        y += coeffs[j] * b
    return y


def _apply_degree_zero(p, b):
    """``q(A) b`` for a coefficient-kind polynomial of degree 0, a scaling
    that reads nothing of ``A``: ``coeffs[0] * b`` (``arnoldi``) or
    ``diag_scale * b`` (``neumann``), bitwise what ``apply_matrix_free``
    computes at that degree."""
    if p.kind not in COEFF_KINDS or p.effective_order != 0:
        raise ValueError('a degree-0 application needs a coefficient-kind '
                         f'polynomial of degree 0, not {p.kind} of degree '
                         f'{p.effective_order}')
    if p.kind == 'arnoldi':
        return p.coeffs[0] * b
    return p.diag_scale * b


def _apply_neumann(p, A, b):
    t = p.diag_scale * b
    acc = t.copy()
    for _ in range(p.effective_order):
        w = spmv(A, t)
        w *= p.diag_scale
        t -= w
        acc += t
    return acc


def _apply_newton(roots, A, b):
    """Factored application of ``q(A) b``.

    Conjugate pairs are fused into real quadratic updates.  The running
    factor product is kept within ``1e+-150`` by rescaling, with the scale
    carried onto the solution contributions; if a contribution still leaves
    the floating-point range (a polynomial genuinely beyond double
    precision) the application stops at the last finite partial sum, so the
    result is always finite and NaN-free.

    Vectors are updated in place through one scratch buffer, with the
    operations and their order of the plain form, so results are bitwise
    equal to it.  A real root's contribution ``c * u`` is tested as the
    scalar ``|c| * max|u|``, reusing the maximum the rescale test computes:
    rounding is monotonic, so that product is finite exactly when every
    entry of ``c * u`` is.
    """
    x = np.zeros_like(b)
    u = b.copy()
    buf = np.empty_like(b)
    umax = np.max(np.abs(u))
    scale = 1.0
    i = 0
    with np.errstate(over='ignore', invalid='ignore'):
        while i < len(roots):
            th = roots[i]
            if th.imag == 0:
                t = th.real
                c = scale / t
                if not math.isfinite(abs(c) * umax):
                    break
                np.multiply(c, u, out=buf)
                x += buf
                w = spmv(A, u)
                w /= t
                u -= w
                i += 1
            else:
                a2 = 2.0 * th.real
                m2 = (th * np.conj(th)).real
                w = spmv(A, u)
                np.multiply(a2, u, out=buf)
                buf -= w
                buf *= scale / m2
                if not np.isfinite(buf).all():
                    break
                x += buf
                z = spmv(A, w)
                w *= a2
                z -= w
                z /= m2
                u += z
                i += 2
            np.abs(u, out=buf)
            umax = buf.max()
            if umax == 0.0:
                break
            if umax > _SCALE_LIMIT or umax < 1.0 / _SCALE_LIMIT:
                u /= umax
                scale *= umax
                if not np.isfinite(scale) or scale == 0.0:
                    break
                umax = np.max(np.abs(u))
    return x


def apply_matrix_free(p, A, b):
    """Evaluate ``q(A) b`` using only SpMVs and vector updates."""
    b = np.asarray(b, dtype=np.float64)
    if A.nrows != A.ncols or len(b) != A.ncols:
        raise ValueError('solver, matrix and vector shapes disagree')
    if p.kind == 'arnoldi':
        return _apply_horner(p.coeffs, A, b)
    if p.kind == 'neumann':
        return _apply_neumann(p, A, b)
    return _apply_newton(p.roots, A, b)


def _poly_apply_flops(p, nnz, n):
    """FLOPs of one matrix-free polynomial application under the cycle cost
    model (see ``hierarchy.count_cycle_flops``)."""
    if p.kind == 'arnoldi':
        d = len(p.coeffs) - 1
        return 2 * n + d * (2 * nnz + 2 * n)
    if p.kind == 'neumann':
        return 2 * n + p.effective_order * (2 * nnz + 6 * n)
    n_real = int(np.count_nonzero(p.roots.imag == 0))
    n_pairs = (len(p.roots) - n_real) // 2
    return n_real * (2 * nnz + 4 * n) + n_pairs * (4 * nnz + 10 * n)


def assemble_fixed_sparsity(p, A):
    """Assemble the polynomial as a sparse matrix with controlled sparsity.

    Matrix powers beyond the first are constrained to the pattern of ``A``
    plus its diagonal before the next multiplication, so the result never
    leaves that pattern.  Defined for the ``COEFF_KINDS`` only.
    """
    if p.kind not in COEFF_KINDS:
        raise ValueError('fixed-sparsity assembly is defined for the '
                         f'coefficient kinds {COEFF_KINDS} only, not {p.kind}')
    if A.nrows != A.ncols:
        raise ValueError('require a square matrix')
    # Only powers past the first read the pattern, and a degree-0 sum
    # (``coeffs[0] * I``) reads nothing of its base but the size; neither is
    # built where it is not read.
    eye = SparseMatrix.identity(A.nrows)
    degree = len(p.coeffs) - 1
    pattern = (_add(eye, replace(A, values=np.ones(A.nnz))) if degree > 1
               else None)
    if p.kind == 'arnoldi':
        return _masked_power_sum(p.coeffs, A, pattern)
    # Series in N = I - D^-1 A, right-scaled by D^-1 at the end.
    base = A
    if degree > 0:
        base = _add(eye, replace(
            A, values=-p.diag_scale[_row_index(A)] * A.values))
    out = _masked_power_sum(p.coeffs, base, pattern)
    return replace(out, values=out.values * p.diag_scale[out.col_indices])
