"""Setups and solves are bit-identical to the committed ``golden.json``,
part by part.

The level sizes and iteration counts are compared on any build.  Digests
also depend on the numpy and scipy builds (``einsum`` order, SIMD kernels),
so they are compared only under the versions the file was made with.
"""

import json

import pytest

from golden import CASES, GOLDEN, PARTS, hierarchy_digest, versions

_GOLDEN = json.loads(GOLDEN.read_text())


@pytest.fixture(scope='module')
def results():
    return {name: hierarchy_digest(*build()) for name, build in CASES.items()}


def test_golden_covers_every_case():
    assert set(_GOLDEN['cases']) == set(CASES)


@pytest.mark.parametrize('name', sorted(CASES))
def test_golden_plain_numbers(results, name):
    want = _GOLDEN['cases'][name]
    got = results[name]
    for key in ('level_n', 'level_nnz', 'iterations'):
        assert got[key] == want[key], key


@pytest.mark.parametrize('name', sorted(CASES))
def test_golden_digests(results, name):
    if versions() != _GOLDEN['versions']:
        pytest.skip(f'golden digests were made under {_GOLDEN["versions"]}, '
                    f'this build is {versions()}')
    got = results[name]['digests']
    want = _GOLDEN['cases'][name]['digests']
    assert set(want) == set(PARTS)
    moved = [part for part in PARTS if got[part] != want[part]]
    assert moved == [], f'{name}: parts that moved: {moved}'

