"""Benchmark harness: build a problem, run setup and solve, write its record.

Setup and solve flags are generated from the ``SetupConfig``/``SolveConfig``
fields (``SETUP_FLAG_MAP``/``SOLVE_FLAG_MAP``); a flag that is not given
leaves its field at the dataclass default.  The JSON record of the run is its
one result, written to ``--output`` or stdout; side files hold only what the
record lacks (matrices, CF labels).  Exit codes: 0 converged, 1 configuration
error, 2 non-convergence or divergence.
"""

import argparse
import csv
import json
import os
import sys
import time
import typing
from dataclasses import asdict, fields, replace

import numpy as np

from .hierarchy import (SetupConfig, build_prolongation, hierarchy_summary,
                        restriction, setup)
from .polynomial import COEFF_KINDS, POLY_KINDS
from .problems import AdvectionProblem, build_advection_1d, build_advection_2d
from .solve import DivergenceError, SolveConfig, richardson_solve
from .sparse import (_permutation, _permute, _row_lengths,
                     write_matrix_market)
from .splitting import CFSplit, C_POINT, F_POINT, _dominance_ratios

__all__ = ['main', 'run', 'SETUP_FLAG_MAP', 'SOLVE_FLAG_MAP']

SCHEMA_VERSION = 13

# Each config field is one flag, ``--field-name``; boolean fields get paired
# --flag/--no-flag options, and an ``X | None`` field also takes the literal
# ``none``.
_CHOICES = {'inverse_type': COEFF_KINDS, 'coarsest_inverse_type': POLY_KINDS}


def _flag(name):
    return '--' + name.replace('_', '-')


SETUP_FLAG_MAP = {_flag(f.name): f.name for f in fields(SetupConfig)}
SOLVE_FLAG_MAP = {_flag(f.name): f.name for f in fields(SolveConfig)}


def _field_parser(tp):
    """Command-line parser for a field annotated ``tp``."""
    base, *optional = typing.get_args(tp) or (tp,)
    if not optional:
        return base

    def parse(text):
        return None if text == 'none' else base(text)
    parse.__name__ = base.__name__  # argparse names it in its errors
    return parse


def _add_config_flags(group, cls):
    """One flag per field of ``cls``; it sets no attribute unless given."""
    for f in fields(cls):
        if f.type is bool:
            how = {'action': argparse.BooleanOptionalAction}
        else:
            how = {'type': _field_parser(f.type),
                   'choices': _CHOICES.get(f.name)}
        group.add_argument(_flag(f.name), dest=f.name,
                           default=argparse.SUPPRESS, **how)


def _build_parser():
    p = argparse.ArgumentParser(
        prog='airmg-bench',
        description='Reduction-multigrid benchmark on upwind advection '
                    'problems.')
    prob = p.add_argument_group('problem')
    prob.add_argument('--dim', type=int, choices=(1, 2), default=2)
    prob.add_argument('--n', type=int, default=64,
                      help='cells per dimension (square grid; default 64)')
    prob.add_argument('--vx', type=float, default=None)
    prob.add_argument('--vy', type=float, default=None)

    su = p.add_argument_group('setup (maps 1:1 onto SetupConfig)')
    _add_config_flags(su, SetupConfig)

    so = p.add_argument_group('solve (maps 1:1 onto SolveConfig)')
    _add_config_flags(so, SolveConfig)

    out = p.add_argument_group('execution and output')
    out.add_argument('--repeats', type=int, default=1,
                     help='timed warm solves after the cold one; 0 reports '
                          'the cold solve')
    out.add_argument('--output', default=None, help='JSON result path '
                     '(default: stdout)')
    out.add_argument('--dump-operators', default=None,
                     help='directory for per-level operator Matrix Market '
                          'dumps')
    out.add_argument('--cf-diagnostics', default=None,
                     help='directory for per-level CF labels and '
                          'dominance-ratio histogram CSVs')
    return p


def _config_from_args(args, cls):
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls)
                  if hasattr(args, f.name)})


def _problem_from_args(args):
    """The velocity is at pi/4 unless ``--vx`` or ``--vy`` is given; then a
    component not given is 0.  A 1-D problem has no y direction."""
    if args.vx is None and args.vy is None:
        vx, vy = float(np.cos(np.pi / 4)), float(np.sin(np.pi / 4))
    else:
        vx = args.vx if args.vx is not None else 0.0
        vy = args.vy if args.vy is not None else 0.0
    if args.dim == 1:
        if args.vy is not None:
            raise ValueError('--vy cannot be combined with --dim 1')
        return AdvectionProblem(nx=args.n, ny=0, vx=vx, vy=0.0)
    return AdvectionProblem(nx=args.n, ny=args.n, vx=vx, vy=vy)


def _build_system(problem):
    if problem.ny == 0:
        A = build_advection_1d(problem.nx, problem.vx)
        return A, np.zeros(A.nrows)
    return build_advection_2d(problem)


def _problem_indices(H):
    """Per level, the problem unknown at each of its cycle positions: level
    ``k`` holds the last ``n_k`` entries of ``H.order``, because each level's
    cycle order lists its F points and then the level below."""
    start = 0
    for L in H.levels:
        yield H.order[start:]
        start += L.split.n_f


def _prolongation(L, problem_index):
    """The one-point ``P`` that setup built for ``L``, in ``L``'s cycle
    numbering.

    ``build_prolongation`` breaks exact ties by the lowest C index.  Setup
    built ``P`` in its own numbering, which orders a level's points as their
    problem indices do (each ``c_set`` is increasing), so the C columns are
    put in problem order for the build and the F rows' picks moved back.
    """
    n_f = L.split.n_f
    by_problem = _permutation(np.argsort(problem_index[n_f:]))
    P = build_prolongation(
        _permute(L.A_fc, None, by_problem, _row_lengths(L.A_fc)), L.split)
    cols = P.col_indices.copy()
    cols[:n_f] = by_problem.order[cols[:n_f]]
    return replace(P, col_indices=cols)


def _dump_operators(H, directory):
    os.makedirs(directory, exist_ok=True)
    write_matrix_market(H.top_A, os.path.join(directory, 'top_A.mtx'))
    write_matrix_market(H.coarsest_A, os.path.join(directory,
                                                   'coarsest_A.mtx'))
    np.savetxt(os.path.join(directory, 'level0_order.txt'), H.order,
               fmt='%d')
    for idx, (L, problem_index) in enumerate(zip(H.levels,
                                                 _problem_indices(H))):
        ops = {'R': restriction(L.Z, L.split),
               'P': _prolongation(L, problem_index),
               'A_ff': L.A_ff, 'A_fc': L.A_fc}
        for name, op in ops.items():
            if op is not None:  # a level may keep no A_ff
                write_matrix_market(op, os.path.join(
                    directory, f'level{idx}_{name}.mtx'))


def _write_cf_diagnostics(H, directory):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, 'cf_labels.csv'), 'w', newline='') as fh:
        w = csv.writer(fh)
        w.writerow(['level', 'node', 'label'])
        for idx, L in enumerate(H.levels):
            labels = L.split.labels
            if idx == 0:  # in the problem's numbering
                labels = np.full(L.n, C_POINT, dtype=np.int8)
                labels[H.order[:L.split.n_f]] = F_POINT
            for node, lab in enumerate(labels):
                w.writerow([idx, node, 'F' if lab == F_POINT else 'C'])
    with open(os.path.join(directory, 'ddc_ratio_histograms.csv'), 'w',
              newline='') as fh:
        w = csv.writer(fh)
        w.writerow(['level', 'bin_lo', 'bin_hi', 'count'])
        for idx, L in enumerate(H.levels):
            if L.A_ff is None:  # its smoother has degree 0 (README)
                continue
            all_fine = np.full(L.A_ff.nrows, F_POINT, dtype=np.int8)
            ratios = _dominance_ratios(L.A_ff, CFSplit.from_labels(all_fine))
            counts, edges = np.histogram(ratios, bins=50)
            for b, c in zip(range(50), counts):
                w.writerow([idx, f'{edges[b]:.6g}', f'{edges[b + 1]:.6g}',
                            int(c)])


def _single_run(problem, A, b, setup_cfg, solve_cfg, repeats):
    x0 = np.ones(A.nrows)
    t0 = time.perf_counter()
    H = setup(A, setup_cfg)
    setup_seconds = time.perf_counter() - t0
    t0 = time.perf_counter()
    _, stats = richardson_solve(H, b, x0, solve_cfg)
    first_solve_seconds = time.perf_counter() - t0
    repeat_seconds = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _, stats = richardson_solve(H, b, x0, solve_cfg)
        repeat_seconds.append(time.perf_counter() - t0)
    solve_seconds = repeat_seconds[-1] if repeat_seconds else first_solve_seconds
    result = {
        'schema_version': SCHEMA_VERSION,
        'problem': {
            'dim': 1 if problem.ny == 0 else 2,
            'nx': problem.nx, 'ny': problem.ny,
            'n': A.nrows,
            'vx': problem.vx, 'vy': problem.vy,
        },
        'setup_config': asdict(setup_cfg),
        'solve_config': asdict(solve_cfg),
        'summary': hierarchy_summary(H),
        'solve': stats.to_dict(),
        'timings': {
            'setup_seconds': setup_seconds,
            'first_solve_seconds': first_solve_seconds,
            'solve_seconds': solve_seconds,
            'repeat_seconds': repeat_seconds,
            'setup_breakdown': dict(H.setup_breakdown),
        },
    }
    return H, stats, result


def run(args):
    """Execute the configured benchmark.

    Returns ``(exit_code, result_dict)``; never raises for solver
    non-convergence (exit code 2 carries it instead).
    """
    problem = _problem_from_args(args)
    setup_cfg = _config_from_args(args, SetupConfig).validate()
    solve_cfg = _config_from_args(args, SolveConfig).validate()
    if args.repeats < 0:
        raise ValueError('--repeats must be non-negative')

    A, b = _build_system(problem)
    try:
        H, stats, result = _single_run(problem, A, b, setup_cfg, solve_cfg,
                                       args.repeats)
    except DivergenceError as exc:
        return 2, {'schema_version': SCHEMA_VERSION, 'diverged': True,
                   'error': str(exc), 'iteration': exc.iteration}
    if args.dump_operators:
        _dump_operators(H, args.dump_operators)
    if args.cf_diagnostics:
        _write_cf_diagnostics(H, args.cf_diagnostics)
    return (0 if stats.converged else 2), result


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        exit_code, result = run(args)
    except (ValueError, OSError) as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 1
    try:
        payload = json.dumps(result, indent=2, sort_keys=True)
        if args.output:
            with open(args.output, 'w') as fh:
                fh.write(payload + '\n')
        else:
            print(payload)
    except OSError as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 1
    return exit_code


if __name__ == '__main__':
    sys.exit(main())
