"""Every script in demos/ runs to completion.

Each demo runs in a fresh interpreter with the package under test on
PYTHONPATH and a temporary working directory, since demo 03 writes its
trajectory CSV into the directory it runs from.  A demo must exit 0 and
print something.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dogfight

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SOURCE_ROOT = Path(dogfight.__file__).resolve().parents[1]


def test_the_demos_are_found():
    assert DEMOS, "no script in demos/"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SOURCE_ROOT))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
