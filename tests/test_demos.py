"""Every demo script runs to completion against the source tree and prints
its pinned output."""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    """The printed numbers carry the last bits of LAPACK results, so the
    golden bytes belong to one numpy/OpenBLAS build: after a change of that
    build, recapture them and check that only last digits moved."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(demo)], env=env, cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / f"demo_{demo.stem}.txt").read_text()
