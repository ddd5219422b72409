"""Wall time, peak memory and output digest of `qnskit kd2 --d D --out FILE`.

usage: PYTHONPATH=src python3 scripts/cli_cost.py [--d 4 5] [--repeat 3]

Each command runs in a fresh `python -m qnskit` process.  The figures are the
median wall time over the repeats, the largest peak resident set size the
kernel reports for the child, and the SHA-256 of the payload it wrote, so two
source trees can be compared byte for byte.  This script imports only the
standard library: on Linux a child's peak RSS starts from its parent's, so a
large parent would hide the child's own peak.
"""

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time


def run(argv: list[str]) -> tuple[float, float]:
    """Seconds and peak RSS in MB of one child process running ``argv``."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    if os.waitstatus_to_exitcode(status) != 0:
        raise SystemExit(f"{' '.join(argv)} failed: {proc.stderr.read().decode()}")
    proc.stderr.close()
    return seconds, usage.ru_maxrss / 1024


def sha256(path: str) -> str:
    """Hex digest of the file at ``path``, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--d", type=int, nargs="+", default=[4, 5])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    print(f"{'command':>16} {'median s':>9} {'peak MB':>8}  sha256")
    with tempfile.TemporaryDirectory() as tmp:
        for d in args.d:
            out = os.path.join(tmp, f"kd2-{d}.json")
            argv = [sys.executable, "-m", "qnskit", "kd2", "--d", str(d), "--out", out]
            runs = [run(argv) for _ in range(args.repeat)]
            print(f"{'kd2 --d ' + str(d):>16} {statistics.median(s for s, _ in runs):>9.2f} "
                  f"{max(mb for _, mb in runs):>8.1f}  {sha256(out)}")


if __name__ == "__main__":
    main()
