"""Every script under demos/ runs to the end in a fresh interpreter, silently on stderr."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import SRC

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_runs_cleanly(demo):
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
