"""The library–benchmark contract: ``perfbench`` measures airmg through its
public functions, hierarchy fields and traced layer functions.  Two tiny
workloads run through the benchmark's own measurement code, so a library
change that would break ``perfbench/run.py`` fails here first."""

import json
import math
import sys
from pathlib import Path

import pytest

import airmg

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / 'perfbench'))

import measure  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / 'BENCHMARK.json').read_text())
TINY = {'2d': workloads.Workload('tiny2d', 2, 24, True, 12),
        '1d': workloads.Workload('tiny1d', 1, 4096, False, 12)}


def _names(kind):
    return {m['name'] for m in DECLARED[kind]}


@pytest.mark.parametrize('key', sorted(TINY))
def test_untraced_measurement_runs(key):
    w = TINY[key]
    result = measure.measure_untraced(airmg, w, workloads.make_inputs(w, 3), 0)
    assert all(result['checks'].values()), result['checks']
    assert result['failed'] == 0
    assert set(result['metrics']) == _names('end_to_end')
    assert all(map(math.isfinite, result['metrics'].values()))


@pytest.mark.parametrize('key', sorted(TINY))
def test_traced_measurement_runs(key):
    w = TINY[key]
    result = measure.measure_traced(airmg, workloads.make_inputs(w, 3), 0)
    assert all(result['checks'].values()), result['checks']
    assert result['failed'] == 0
    assert set(result['metrics']) == _names('per_layer')
    assert all(map(math.isfinite, result['metrics'].values()))
    # Setup's three products per level (Z, A P and R (A P)) are traced.
    metrics = result['metrics']
    assert metrics['sparse.spgemm.calls'] == 3 * metrics['hierarchy.levels']
    assert metrics['sparse.spgemm.out_nnz'] > 0
    assert metrics['sparse.spgemm.flops'] > 0
