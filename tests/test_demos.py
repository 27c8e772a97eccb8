"""Each script in demos/ runs to completion through the public names."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


def test_there_are_six_demos():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(path, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, str(path)], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60)
    assert proc.returncode == 0 and "Traceback" not in proc.stderr, proc.stderr
