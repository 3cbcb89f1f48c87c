"""Setup and solve give the same bits whatever the BLAS thread count.

Run as a script, ``python tests/test_determinism.py N`` prints the sha256
part digests of an ``N x N`` pi/4 advection setup and two solves as JSON.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from golden import PARTS, hierarchy_digest, pi4_advection

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_digest(n):
    """sha256 part digests of an ``n x n`` pi/4 setup and two solves
    (``golden.hierarchy_digest``)."""
    return hierarchy_digest(*pi4_advection(n))['digests']


def _digest_with_threads(n, threads):
    env = dict(os.environ,
               OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [str(ROOT / 'src'),
                                 os.environ.get('PYTHONPATH')])))
    out = subprocess.run([sys.executable, __file__, str(n)], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True)
    return json.loads(out.stdout)


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason='needs two CPUs for a second BLAS thread')
def test_setup_and_solve_bitwise_equal_across_blas_thread_counts():
    """OpenBLAS splits long dot products across threads, so any decision
    fed by a BLAS reduction could change with the thread count."""
    one = _digest_with_threads(128, 1)
    two = _digest_with_threads(128, 2)
    assert list(one) == list(PARTS)
    assert one == two


if __name__ == '__main__':
    print(json.dumps(run_digest(int(sys.argv[1]))))
