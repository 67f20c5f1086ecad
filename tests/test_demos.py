"""The narrative demos run to the end (exit 0) against the current library."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["demo_wave_operator_identity.py", "demo_rescaled_symbol.py",
                                  "demo_jost_and_levinson.py", "demo_topological_levinson.py"])
def test_demo_runs(name):
    path = [str(DEMOS.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
