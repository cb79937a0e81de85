"""The demos that use the row API and the CLI steps run to completion."""

import os
import subprocess
import sys

import pytest

import churnforge

DEMOS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(churnforge.__file__)))


@pytest.mark.parametrize("demo", ["01_generate_dataset.py", "02_feature_windows.py",
                                  "07_full_pipeline.py"])
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, os.path.join(DEMOS, demo)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
