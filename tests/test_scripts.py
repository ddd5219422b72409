"""The experiment scripts under scripts/ run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [["theta_table.py"], ["kd2_study.py", "--max-d", "3"],
                                  ["synchronicity_boundary.py"],
                                  ["cli_cost.py", "--d", "2", "--repeat", "1"],
                                  ["witness_cost.py", "--lifts", "2,2,2", "--d", "2",
                                   "--repeat", "1"],
                                  ["theta_cost.py", "--repeat", "1", "--paley", "37"]])
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
