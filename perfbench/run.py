"""Setup/solve benchmark of airmg on upwind advection workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload adv2d_256 --seed 1 --seconds 30 \
        --trace 0

Each round hands airmg a freshly built CSR matrix, runs
``setup(A, SetupConfig())`` and then ``richardson_solve`` (x0 = 0, default
``SolveConfig``) for every right-hand side, and checks every answer with
scipy.  Rounds repeat until ``--seconds`` would be exceeded.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` untraced and traced rounds alternate, the traced ones are
checked against the untraced ones (transparency), and the last line holds
the per-layer metrics.  The line before it is a JSON report with the
environment, sample counts and, when traced, per-level rows.  Metric names
and units are those declared in ``BENCHMARK.json``.
"""

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT_DIR = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
_THREAD_VARS = ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS',
                'BLIS_NUM_THREADS', 'VECLIB_MAXIMUM_THREADS',
                'NUMEXPR_NUM_THREADS')


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing sources or declarations)."""


def _nproc():
    return len(os.sched_getaffinity(0))


def _git_commit():
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT_DIR / '.git'
    try:
        head = (git / 'HEAD').read_text().strip()
        if not head.startswith('ref: '):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / 'packed-refs').read_text().splitlines():
            if line.endswith(' ' + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _import_airmg():
    """Import airmg from this checkout's ``src``, never from elsewhere."""
    src = ROOT_DIR / 'src'
    if not (src / 'airmg' / '__init__.py').is_file():
        raise BenchmarkError(f'no airmg sources under {src}')
    sys.path.insert(0, str(src))
    import airmg
    if Path(airmg.__file__).resolve().parent != (src / 'airmg').resolve():
        raise BenchmarkError(f'airmg imported from {airmg.__file__}, '
                             f'not from {src}')
    return airmg


def _declared(kind):
    """``{name: unit}`` of the metrics ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT_DIR / 'BENCHMARK.json').read_text())
    return {m['name']: m['unit'] for m in spec[kind]}


def main(argv=None):
    # The thread count is fixed before numpy is first imported.
    threads = min(BLAS_THREADS, _nproc())
    for var in _THREAD_VARS:
        os.environ[var] = str(threads)
    from workloads import WORKLOADS
    p = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    p.add_argument('--workload', required=True, choices=sorted(WORKLOADS))
    p.add_argument('--seed', type=int, required=True)
    p.add_argument('--seconds', type=float, required=True)
    p.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        airmg = _import_airmg()
        declared = _declared('per_layer' if args.trace else 'end_to_end')
    except (BenchmarkError, OSError, ValueError, KeyError) as exc:
        print(f'perfbench: {exc}', file=sys.stderr)
        return 2

    import numpy as np
    import scipy
    from measure import measure_traced, measure_untraced
    from workloads import make_inputs

    workload = WORKLOADS[args.workload]
    inputs = make_inputs(workload, args.seed)
    if args.trace:
        result = measure_traced(airmg, inputs, args.seconds)
    else:
        result = measure_untraced(airmg, workload, inputs, args.seconds)
    metrics = result.pop('metrics')
    if set(metrics) != set(declared):
        print(f'perfbench: computed metrics {sorted(metrics)} differ from '
              f'those declared {sorted(declared)}', file=sys.stderr)
        return 2
    for value in metrics.values():
        if not math.isfinite(value):
            result['checks']['finite_metrics'] = False
    correct = all(result['checks'].values()) and result['failed'] == 0
    report = {
        'workload': workload.name, 'seed': args.seed,
        'seconds': args.seconds, 'trace': args.trace,
        'environment': {
            'python': sys.version.split()[0], 'numpy': np.__version__,
            'scipy': scipy.__version__, 'nproc': _nproc(),
            'git_commit': _git_commit(), 'blas_threads': threads,
            'processes': 1,
        },
        **result,
    }
    print(json.dumps(report))
    print(json.dumps({
        'correct': correct,
        'attempted': result['attempted'],
        'failed': result['failed'],
        'metrics': {name: {'value': metrics[name], 'unit': unit}
                    for name, unit in declared.items()},
    }))
    return 0


if __name__ == '__main__':
    sys.exit(main())
