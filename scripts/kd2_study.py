"""Reproduce the explicit d-colouring of the complete graph on d^2 vertices.

For each d the script builds the colouring, checks the classical-to-quantum
invariants, properness against K_{d^2}, the agreement between the explicit
rank-one states and the tracial witness, and compares against the Lovasz
lower bound sqrt(n / theta), which the construction saturates.
"""

import argparse
import time

import numpy as np

from qnskit.correlations import cqns_report
from qnskit.graphs import (Graph, kd2_colouring, kd2_explicit_states,
                           proper_residuals, xi_qc_lower_bound)
from qnskit.symmetry import fair_residual


def study(d: int) -> dict:
    start = time.time()
    corr = kd2_colouring(d)
    graph = Graph.complete(d * d)
    report = cqns_report(corr)
    two_path = float(np.max(np.abs(corr.states - kd2_explicit_states(d))))
    out = {
        "d": d,
        "n_vertices": d * d,
        "cqns_ok": report.ok,
        "properness": max(proper_residuals(corr, graph).values()),
        "two_path": two_path,
        "witness": report.witness_residual,
        "fair": fair_residual(corr),
        "xi_qc_bound": xi_qc_lower_bound(graph),
        "seconds": time.time() - start,
    }
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-d", type=int, default=4)
    args = parser.parse_args()
    print(f"{'d':>2} {'n':>3} {'cqns':>5} {'proper':>9} {'two-path':>9} "
          f"{'witness':>9} {'fair':>9} {'xi_qc>=':>8} {'time':>6}")
    for d in range(2, args.max_d + 1):
        r = study(d)
        print(f"{r['d']:>2} {r['n_vertices']:>3} {str(r['cqns_ok']):>5} "
              f"{r['properness']:>9.1e} {r['two_path']:>9.1e} "
              f"{r['witness']:>9.1e} {r['fair']:>9.1e} "
              f"{r['xi_qc_bound']:>8.5f} {r['seconds']:>5.2f}s")


if __name__ == "__main__":
    main()
