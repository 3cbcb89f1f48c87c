"""Per-layer metrics and per-level rows computed from one traced round.

``MOVES`` records, for each per-layer metric, the end-to-end metric it
should move and the workload where it should show.  ``BENCHMARK.json``
allows only ``name``/``unit``/``better`` per metric, so the mapping lives
here and is printed with every traced result.
"""

from collections import defaultdict

from tracer import ROOT, self_times

_SETUP_256 = ('setup_s', 'adv2d_256')
_SETUP_1D = ('setup_s', 'adv1d_1m')
_SOLVE_PERM = ('solve_s', 'adv2d_perm_128_multirhs')
_ALL = 'all'

MOVES = {
    'sparse.spgemm.self_s': _SETUP_256,
    'sparse.spgemm.calls': _SETUP_256,
    'sparse.spgemm.out_nnz': _SETUP_256,
    'sparse.spgemm.flops': _SETUP_256,
    'sparse.spgemm_fixed_sparsity.self_s': _SETUP_256,
    'sparse.spgemm_fixed_sparsity.kept_fraction': _SETUP_256,
    'sparse.spmv.self_s': ('solve_s, solve_tail_s', _SOLVE_PERM[1]),
    'sparse.spmv.calls': ('solve_s, solve_tail_s', _SOLVE_PERM[1]),
    'sparse.spmv.gflops': ('solve_s, solve_tail_s', _SOLVE_PERM[1]),
    'sparse.extract.self_s': _SETUP_1D,
    'sparse.drop_and_lump.self_s': ('setup_s, storage_complexity',
                                    'adv2d_256'),
    'sparse.drop_and_lump.dropped_nnz': ('setup_s, storage_complexity',
                                         'adv2d_256'),
    'splitting.strength_graph.self_s': _SETUP_1D,
    'splitting.pmisr.self_s': _SETUP_1D,
    'splitting.cf_split.self_s': _SETUP_1D,
    'splitting.f_fraction': ('cycle_complexity, storage_complexity', _ALL),
    'polynomial.assemble_fixed_sparsity.s': _SETUP_256,
    'polynomial.assemble_fixed_sparsity.self_s': _SETUP_256,
    'polynomial.gmres_poly_arnoldi.self_s': _SETUP_256,
    'polynomial.gmres_poly_newton.self_s': _SETUP_1D,
    'polynomial.gmres_poly_newton.calls': _SETUP_1D,
    'polynomial.apply_matrix_free.self_s': _SOLVE_PERM,
    'hierarchy.build_restriction.s': ('setup_s', _ALL),
    'hierarchy.build_prolongation.s': ('setup_s', _ALL),
    'hierarchy.coarse_matrix.s': ('setup_s', _ALL),
    'hierarchy.setup.self_s': ('setup_s', _ALL),
    'hierarchy.try_truncate.s': ('setup_s, cycle_complexity', _ALL),
    'hierarchy.try_truncate.calls': ('setup_s, cycle_complexity', _ALL),
    'hierarchy.try_truncate.accept_ratio': ('setup_s, cycle_complexity',
                                            _ALL),
    'hierarchy.levels': ('setup_s, cycle_complexity', _ALL),
    'solve.vcycle.self_s': _SOLVE_PERM,
    'solve.vcycle.calls': _SOLVE_PERM,
    'solve.restrict.s': _SOLVE_PERM,
    'solve.smooth.s': _SOLVE_PERM,
    'solve.coarse.s': _SOLVE_PERM,
    'solve.gflops': ('solve_s', _ALL),
    'solve.convergence_factor': ('iterations', _ALL),
    'trace.overhead_s': ('none (cost of tracing)', _ALL),
}

# Metrics read from the traced spans: (function, statistic).  ``s`` is the
# summed span duration; none of these functions calls itself.
_SPAN_METRICS = (
    ('sparse.spgemm', 'self_s'), ('sparse.spgemm', 'calls'),
    ('sparse.spgemm_fixed_sparsity', 'self_s'),
    ('sparse.spmv', 'self_s'), ('sparse.spmv', 'calls'),
    ('sparse.extract', 'self_s'), ('sparse.drop_and_lump', 'self_s'),
    ('splitting.strength_graph', 'self_s'), ('splitting.pmisr', 'self_s'),
    ('splitting.cf_split', 'self_s'),
    ('polynomial.assemble_fixed_sparsity', 's'),
    ('polynomial.assemble_fixed_sparsity', 'self_s'),
    ('polynomial.gmres_poly_arnoldi', 'self_s'),
    ('polynomial.gmres_poly_newton', 'self_s'),
    ('polynomial.gmres_poly_newton', 'calls'),
    ('polynomial.apply_matrix_free', 'self_s'),
    ('hierarchy.build_restriction', 's'), ('hierarchy.build_prolongation', 's'),
    ('hierarchy.coarse_matrix', 's'), ('hierarchy.setup', 'self_s'),
    ('hierarchy.try_truncate', 's'), ('hierarchy.try_truncate', 'calls'),
    ('solve.vcycle', 'self_s'), ('solve.vcycle', 'calls'),
)


def _matrix_roles(H):
    """Solve-phase role of each matrix the cycle applies, keyed by id."""
    roles = {id(H.coarsest_A): 'coarse'}
    for L in H.levels:
        roles[id(L.R)] = 'restrict'
        for M in (L.A_ff, L.A_fc, L.f_smoother_assembled):
            if M is not None:
                roles[id(M)] = 'smooth'
    return roles


def span_metrics(spans, H):
    """Per-layer metrics of one traced round whose hierarchy ``H`` is still
    alive (matrix ids classify the solve-phase calls)."""
    duration, own = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[0]].append(i)
    out = {}
    for fn, stat in _SPAN_METRICS:
        idx = by_name.get(fn, [])
        if stat == 'calls':
            out[f'{fn}.calls'] = len(idx)
        else:
            source = own if stat == 'self_s' else duration
            out[f'{fn}.{stat}'] = float(source[idx].sum())

    spgemm = [spans[i] for i in by_name['sparse.spgemm']]
    out['sparse.spgemm.out_nnz'] = sum(s[4][0] for s in spgemm)
    out['sparse.spgemm.flops'] = sum(s[4][1] for s in spgemm)
    masked = set(by_name['sparse.spgemm_fixed_sparsity'])
    kept = sum(spans[i][4][0] for i in masked)
    formed = sum(s[4][0] for s in spgemm if s[3] in masked)
    # With no masked product formed (polynomials of degree below two, as on
    # the 1-D chain) nothing was wasted.
    out['sparse.spgemm_fixed_sparsity.kept_fraction'] = (
        kept / formed if formed else 1.0)
    spmv = by_name['sparse.spmv']
    spmv_flops = 2 * sum(spans[i][4][1] for i in spmv)
    out['sparse.spmv.gflops'] = spmv_flops / float(duration[spmv].sum()) / 1e9
    out['sparse.drop_and_lump.dropped_nnz'] = sum(
        spans[i][4][0] for i in by_name['sparse.drop_and_lump'])
    tries = by_name['hierarchy.try_truncate']
    out['hierarchy.try_truncate.accept_ratio'] = (
        sum(bool(spans[i][4][0]) for i in tries) / len(tries) if tries else 0.0)

    roles = _matrix_roles(H)
    role_s = dict.fromkeys(('restrict', 'smooth', 'coarse'), 0.0)
    cycles = set(by_name['solve.vcycle'])
    for fn in ('sparse.spmv', 'polynomial.apply_matrix_free'):
        for i in by_name.get(fn, []):
            if spans[i][3] in cycles:
                role_s[roles[spans[i][4][0]]] += float(duration[i])
    for role, secs in role_s.items():
        out[f'solve.{role}.s'] = secs
    return out


def level_rows(spans):
    """Self time and call count per (phase, level, function).

    Setup levels are counted by the ``coarse_matrix`` calls made directly
    by ``setup`` (each ends one level); solve levels come from the
    ``vcycle`` level argument.  Solve spans outside any cycle (the outer
    residual) have level -1; spans directly in a phase but outside every
    level have level ``None``.
    """
    _, own = self_times(spans)
    phase = [None] * len(spans)
    level = [None] * len(spans)
    completed = {}
    for i, (name, _, _, parent, info) in enumerate(spans):
        if name == ROOT:
            phase[i] = 'bench'
        elif name == 'hierarchy.setup':
            phase[i] = 'setup'
            completed[i] = 0
        elif name == 'solve.richardson_solve':
            phase[i], level[i] = 'solve', -1
        elif name == 'solve.vcycle':
            phase[i], level[i] = 'solve', info[0]
        elif parent in completed:
            phase[i], level[i] = 'setup', completed[parent]
            if name == 'hierarchy.coarse_matrix':
                completed[parent] += 1
        elif parent >= 0:
            phase[i], level[i] = phase[parent], level[parent]
    rows = defaultdict(lambda: [0.0, 0])
    for i, s in enumerate(spans):
        row = rows[(phase[i], level[i], s[0])]
        row[0] += float(own[i])
        row[1] += 1
    return [{'phase': p, 'level': lvl, 'function': fn, 'self_s': v[0],
             'count': v[1]}
            for (p, lvl, fn), v in rows.items()]
