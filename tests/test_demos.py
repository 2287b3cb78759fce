"""Every demo runs to completion against the library in this checkout."""

import os
import pathlib
import subprocess
import sys

import pytest

import mimocov

_DEMOS = sorted((pathlib.Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda p: p.stem)
def test_demo_runs_cleanly(demo):
    src = os.path.dirname(os.path.dirname(mimocov.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
