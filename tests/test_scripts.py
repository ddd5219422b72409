"""The experiment scripts under scripts/ and the README example run to completion."""

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
                                  ["theta_cost.py", "--repeat", "1", "--paley", "37"],
                                  ["theta_cost.py", "--repeat", "1", "--paley", "--cycles",
                                   "--gnp", "12:0.5", "9:0.2"],
                                  ["witness_cost.py", "--psd", "--repeat", "1"]])
def test_script_runs(argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("```python\n", 1)[1].split("```", 1)[0]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_cli_block_documents_every_command():
    from qnskit.cli import _COMMANDS
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    documented = {line.split()[1] for line in block.splitlines() if line.startswith("qnskit ")}
    assert set(_COMMANDS) <= documented, set(_COMMANDS) - documented
