"""Per-graph time and iteration count of the theta solver on its two paths.

usage: PYTHONPATH=src python3 scripts/theta_cost.py [--seed 301] [--repeat 5]
                                                    [--paley 61 101]
                                                    [--cycles 1001 4001 100001]
                                                    [--gnp 40:0.8 60:0.5 40:0.2]

The graphs are the theta catalogue of perfbench (Paley(13, 17, 29), C5 ... C15,
co-C9 ... co-C15 and two seeded G(16, 1/2) with their complements, drawn from
``--seed``), then Paley(q) for each ``--paley`` q.  Each graph is solved by
`solve_theta`, which takes the circulant operator (Delsarte's LP) when the
graph is circulant, and by the interior-point loop with the edge operator
forced, which is the path every graph took before the circulant operator
existed.  Every timing follows one untimed warm-up call.  Each line gives,
per path, the median and the minimum milliseconds over the repeats, the
iteration count, the median milliseconds per iteration and the constraint
count, and the distance between the two values.  A graph with more than
EDGE_PATH_MAX_M edge constraints skips the edge path (its m x m Schur matrix
alone would pass 128 MB) and prints "-" there.  The next line sums one
benchmark round (the repeated graphs counted as often as a round solves
them), by medians and by minima.

Then, for each ``--cycles`` n, the large sparse circulant C_n: the median
and the minimum milliseconds and the tracemalloc peak in MB of the
circulance test `theta._shifts` alone and of the whole `solve_theta`, with
its iteration count.

Then, for each ``--gnp`` n:p, a G(n, p) drawn in the order given from one
generator seeded with ``--seed`` and solved on the edge path: the median and
the minimum milliseconds, the iteration count, the median milliseconds per
iteration, the constraint count m and the tracemalloc peak in MB of one solve.
At these sizes the edge path does far more work per iteration than on the
benchmark's G(16, 1/2), so a change to the edge operator shows there.

Set OPENBLAS_NUM_THREADS=1 for figures that do not depend on the machine's
other load; the benchmark runs with it.
"""

import argparse
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from qnskit import theta

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402  (perfbench's numpy-only input generator)

#: The most constraints the forced edge path is run with.
EDGE_PATH_MAX_M = 4000


def timed_ms(fn, repeat: int):
    """Median and minimum milliseconds of ``repeat`` calls of ``fn`` after one
    untimed warm-up call, and the value that call returned."""
    value = fn()
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times), 1e3 * min(times), value


def peak_mb(fn) -> float:
    """The tracemalloc peak of one call of ``fn``, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def edge_path(n: int, edges) -> theta.ThetaResult:
    op = theta._EdgeOperator(n, tuple(theta.edge_pairs(n, edges).T))
    return theta._solve(op, theta.GAP_TOL, theta.MAX_ITER)


def gnp_spec(text: str) -> tuple[int, float]:
    """``n:p`` as (n, p)."""
    n, p = text.split(":")
    return int(n), float(p)


def gnp_edges(rng, n: int, p: float) -> np.ndarray:
    """Each pair i < j of 0..n-1 an edge with probability p."""
    pairs = np.column_stack(np.triu_indices(n, 1))
    return pairs[rng.random(len(pairs)) < p]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=301)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--paley", type=int, nargs="*", default=[61, 101])
    parser.add_argument("--cycles", type=int, nargs="*", default=[1001, 4001, 100001])
    parser.add_argument("--gnp", type=gnp_spec, nargs="*", default=[], metavar="N:P")
    args = parser.parse_args()

    catalogue = inputs.theta_catalogue(args.seed)
    extra = [{"name": f"Paley({q})", "n": q, "edges": inputs.paley_edges(q)}
             for q in args.paley]
    print(f"{'graph':>16} {'n':>4} | {'solve_theta':>11} {'min':>8} {'iters':>5} {'ms/it':>6} "
          f"{'m':>5} | {'edge path':>11} {'min':>8} {'iters':>5} {'ms/it':>6} {'m':>5} | "
          f"{'|dtheta|':>8}")
    timed = {}
    for g in catalogue + extra:
        name, n, edges = g["name"], g["n"], g["edges"]
        if name in timed:
            continue
        pairs = tuple(theta.edge_pairs(n, edges).T)
        shifts = theta._shifts(n, pairs)
        m_circ = "-" if shifts is None else 1 + len(shifts)
        m_edge = 1 + len(pairs[0])
        ms, ms_min, ours = timed_ms(lambda: theta.solve_theta(n, edges), args.repeat)
        if m_edge <= EDGE_PATH_MAX_M:
            ms_edge, ms_edge_min, edge = timed_ms(lambda: edge_path(n, edges), args.repeat)
            cols = (f"{ms_edge:>8.2f} ms {ms_edge_min:>8.2f} {edge.iterations:>5} "
                    f"{ms_edge / edge.iterations:>6.3f} {m_edge:>5} | "
                    f"{abs(ours.value - edge.value):>8.1e}")
        else:
            ms_edge = ms_edge_min = float("nan")
            cols = f"{'-':>11} {'-':>8} {'-':>5} {'-':>6} {m_edge:>5} | {'-':>8}"
        timed[name] = ms, ms_min, ms_edge, ms_edge_min
        print(f"{name:>16} {n:>4} | {ms:>8.2f} ms {ms_min:>8.2f} {ours.iterations:>5} "
              f"{ms / ours.iterations:>6.3f} {m_circ:>5} | {cols}")
    ours, ours_min, edge, edge_min = (sum(timed[g["name"]][k] for g in catalogue)
                                      for k in range(4))
    print(f"one benchmark round ({len(catalogue)} solves): solve_theta {ours:.1f} ms "
          f"(min {ours_min:.1f}), edge path {edge:.1f} ms (min {edge_min:.1f})")

    if args.cycles:
        print(f"\n{'graph':>16} | {'_shifts':>11} {'min':>8} {'peak':>9} | "
              f"{'solve_theta':>11} {'min':>8} {'peak':>9} {'iters':>5}")
    for n in args.cycles:
        edges = inputs.cycle_edges(n)
        pairs = tuple(theta.edge_pairs(n, edges).T)
        ms_shifts, min_shifts, _ = timed_ms(lambda: theta._shifts(n, pairs), args.repeat)
        ms, ms_min, result = timed_ms(lambda: theta.solve_theta(n, edges), args.repeat)
        peak_shifts = peak_mb(lambda: theta._shifts(n, pairs))
        peak_solve = peak_mb(lambda: theta.solve_theta(n, edges))
        print(f"{f'C{n}':>16} | {ms_shifts:>8.2f} ms {min_shifts:>8.2f} {peak_shifts:>6.2f} MB | "
              f"{ms:>8.2f} ms {ms_min:>8.2f} {peak_solve:>6.1f} MB {result.iterations:>5}")

    if args.gnp:
        print(f"\n{'graph':>16} | {'edge path':>11} {'min':>8} {'iters':>5} {'ms/it':>6} "
              f"{'m':>5} {'peak':>9}")
    rng = np.random.default_rng(args.seed)
    for n, p in args.gnp:
        edges = gnp_edges(rng, n, p)
        ms, ms_min, result = timed_ms(lambda: edge_path(n, edges), args.repeat)
        peak = peak_mb(lambda: edge_path(n, edges))
        print(f"{f'G({n}, {p:g})':>16} | {ms:>8.2f} ms {ms_min:>8.2f} {result.iterations:>5} "
              f"{ms / result.iterations:>6.3f} {1 + len(edges):>5} {peak:>6.1f} MB")


if __name__ == "__main__":
    main()
