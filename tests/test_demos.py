"""Smoke test: the narrative demos run to completion against the library."""

import os
import pathlib
import subprocess
import sys

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
DEMOS = ["01_hankel_rank_and_order.py", "02_single_solve_tradeoff.py", "03_certified_path.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_exits_zero(demo, tmp_path):
    # demo 03 writes its outputs under the temporary directory
    env = dict(os.environ, TMPDIR=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, str(DEMO_DIR / demo)],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
