"""The scripts run, each scripts/cost.py section prints its rows, and the README example runs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
#: the sums of one theta benchmark round, by medians and by minima
ROUND = (r"one benchmark round \(23 solves\): solve_theta [0-9.]+ ms \(min [0-9.]+\), "
         r"edge path [0-9.]+ ms \(min [0-9.]+\)")


def run_script(name: str, *args: str) -> str:
    """The stdout of ``scripts/name`` run with ``args``, which must exit 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("argv", [["theta_table.py"], ["kd2_study.py", "--max-d", "3"],
                                  ["synchronicity_boundary.py"]])
def test_script_runs(argv):
    run_script(*argv)


@pytest.mark.parametrize("argv, line, count", [
    (["cli", "--d", "2", "--repeat", "1"], r"kd2 --d 2 .*  [0-9a-f]{64}", 1),
    (["witness", "--lifts", "2,2,2", "--d", "2", "--repeat", "1"],
     r"commuting gate lift \(2, 2, 2\) .*  'pass'", 1),
    (["theta", "--repeat", "1", "--paley", "37"], ROUND, 1),
    (["theta", "--repeat", "1", "--paley", "--cycles", "--gnp", "12:0.5", "9:0.2"], ROUND, 1),
    (["psd", "--repeat", "1"], r"psd .*(passes|-> eigensolve) .*", 8)])
def test_cost_section_prints(argv, line, count):
    """Each section of scripts/cost.py runs and prints ``count`` lines matching ``line``."""
    stdout = run_script("cost.py", *argv)
    assert len(re.findall(rf"^ *{line}$", stdout, re.M)) == count, stdout


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
