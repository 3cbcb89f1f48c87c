"""The narrative demos run to completion, and the README lists each of them."""

import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / 'demos').glob('*.py'))


@pytest.mark.parametrize('path', DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name='__main__')
    assert capsys.readouterr().out.strip()


def test_readme_lists_every_demo():
    readme = (ROOT / 'README.md').read_text()
    listed = re.findall(r'^python demos/(\S+\.py)', readme, re.MULTILINE)
    assert sorted(listed) == [p.name for p in DEMOS]
