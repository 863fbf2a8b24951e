"""The fast demos run to completion against the current API."""

import os
import subprocess
import sys

import pytest

import qincident

SRC = os.path.dirname(os.path.dirname(os.path.abspath(qincident.__file__)))
DEMOS = os.path.join(os.path.dirname(SRC), "demos")


# scarcity_study.py trains for about two minutes and is left out
@pytest.mark.parametrize("script", ["pipeline_walkthrough.py", "quantum_layer.py"])
def test_demo_exits_0(script):
    proc = subprocess.run(
        [sys.executable, os.path.join(DEMOS, script)],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
