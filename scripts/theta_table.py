"""Tabulate Lovasz theta, its certified upper bound, the brute-force independence
number and the chromatic lower bound sqrt(n / theta) over a graph catalogue."""

import argparse
import itertools
import time

import numpy as np

from qnskit.graphs import Graph, independence_number, xi_qc_lower_bound
from qnskit.theta import solve_theta


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def catalogue(seed: int):
    rng = np.random.default_rng(seed)
    graphs = [("K3", Graph.complete(3)), ("K9", Graph.complete(9)),
              ("E7", Graph.empty(7)), ("C5", Graph.cycle(5)),
              ("C7", Graph.cycle(7)), ("Petersen", petersen())]
    for k in range(3):
        n = int(rng.integers(6, 13))
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.35]
        graphs.append((f"G({n},{len(edges)})", Graph.from_edges(n, edges)))
    return graphs


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    print(f"{'graph':>10} {'n':>3} {'theta':>10} {'upper':>10} "
          f"{'alpha':>5} {'xi_qc>=':>8} {'iters':>5} {'time':>6}")
    for name, g in catalogue(args.seed):
        start = time.time()
        result = solve_theta(g.n, g.edges)
        alpha = independence_number(g)
        assert alpha - 1e-6 <= result.value <= g.n + 1e-6
        print(f"{name:>10} {g.n:>3} {result.value:>10.6f} "
              f"{result.dual_bound:>10.6f} {alpha:>5} "
              f"{xi_qc_lower_bound(g, result.dual_bound):>8.4f} "
              f"{result.iterations:>5} {time.time() - start:>5.2f}s")


if __name__ == "__main__":
    main()
