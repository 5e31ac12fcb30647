"""The narrative demos run to completion against this checkout's sources.

Demo 06 trains on the full default fixture for 8 epochs and takes the longest,
about 2.5 s.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0[1-6]_*.py"))


def test_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05", "06"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_zero(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []  # the demo removed what it wrote
