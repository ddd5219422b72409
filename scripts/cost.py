"""Time the certificates' paths that perfbench never reaches, one section at a time.

usage: PYTHONPATH=src python3 scripts/cost.py SECTION [options], where SECTION is one of
  theta   [--seed 301] [--repeat 5] [--paley 61 101] [--cycles 1001 4001 100001] [--gnp N:P ...]
  witness [--lifts 3,3,2 4,4,2] [--d 3 4] [--repeat 7] [--seed 1]
  psd     [--repeat 7] [--seed 1]
  cli     [--d 4 5] [--repeat 3]

- theta: perfbench's theta catalogue, drawn from ``--seed``, and Paley(q) for
  each ``--paley`` q, each by `solve_theta` (Delsarte's LP on a circulant
  graph) and by the forced edge path, which is skipped above EDGE_PATH_MAX_M
  constraints (its m x m Schur matrix alone would pass 128 MB), then the sums
  of one benchmark round; `theta._shifts` and `solve_theta` on each
  ``--cycles`` C_n; and each ``--gnp`` G(n, p), drawn in the order given from
  one generator seeded with ``--seed``, on the edge path.
- witness: `max_commutator` and the commuting gate (its value is "pass" or
  the residual it refused) on a commuting lift (E (x) I, I (x) F) with dims
  dim_x,dim_a,dim_h, on that pair with every block conjugated by one seeded
  unitary, and on the lifted E against a seeded F from a child stream (so the
  other inputs are drawn as without it); the kd2 colouring's game check,
  fairness and CQNS certificate; a local build with its report; a composition.
- psd: `hermiticity_and_psd_defect`, the PSD kernel of every certificate, on
  eight seeded inputs, each labelled with the factorisation that decides it.
- cli: `qnskit kd2 --d D --out FILE`, each run in a fresh process.

An in-process row gives the median and the minimum milliseconds of ``--repeat``
calls after one untimed warm-up call, the tracemalloc peak in MB of one more
call and the value the warm-up call returned, so two source trees can be
compared on the same seed.  A cli row gives the median seconds over
``--repeat`` processes, the largest peak RSS the kernel reports for one of
them and the SHA-256 of the payload.  Only the standard library is imported at
module level: on Linux a child's peak RSS starts from its parent's, so a large
parent would hide the child's own peak.  Set OPENBLAS_NUM_THREADS=1 for figures
that do not depend on the machine's other load; the benchmark runs with it.
"""

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

#: The most constraints the forced edge path is run with.
EDGE_PATH_MAX_M = 4000


def show(label: str, figures, value) -> None:
    """One output line: the label, each figure (a float, or a string such as
    "-") in a column of ten, then the value."""
    cells = " ".join(f"{f:>10}" if isinstance(f, str) else f"{f:>10.2f}" for f in figures)
    print(f"{label:>56} {cells}  {value}")


def row(label: str, fn, repeat: int, describe=repr):
    """Print the in-process row of ``fn`` and return its median and minimum
    milliseconds and the value of its warm-up call."""
    value = fn()
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        fn()
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    ms, ms_min = 1e3 * statistics.median(times), 1e3 * min(times)
    show(label, (ms, ms_min, peak), describe(value))
    return ms, ms_min, value


def spawn(argv: list[str]) -> tuple[float, float]:
    """Seconds and peak RSS in MB of one child process running ``argv``.  Its
    stderr goes to a file, which no amount of output can fill and block."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            err.seek(0)
            raise SystemExit(f"{' '.join(argv)} failed: {err.read().decode()}")
    return seconds, usage.ru_maxrss / 1024


def gnp_spec(text: str) -> tuple[int, float]:
    """``n:p`` as (n, p)."""
    n, p = text.split(":")
    return int(n), float(p)


def theta_section(args) -> None:
    """Time and iterations of the theta solver on its two paths."""
    import numpy as np

    from qnskit import theta
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import inputs  # perfbench's numpy-only input generator

    def edge_path(n, edges):
        op = theta._EdgeOperator(n, tuple(theta.edge_pairs(n, edges).T))
        return theta._solve(op, theta.GAP_TOL, theta.MAX_ITER)

    def solved(m):
        return lambda result: f"theta {result.value!r} iters {result.iterations} m {m}"

    catalogue = inputs.theta_catalogue(args.seed)
    extra = [{"name": f"Paley({q})", "n": q, "edges": inputs.paley_edges(q)}
             for q in args.paley]
    timed = {}
    for g in catalogue + extra:
        name, n, edges = g["name"], g["n"], g["edges"]
        if name in timed:
            continue
        pairs = tuple(theta.edge_pairs(n, edges).T)
        shifts = theta._shifts(n, pairs)
        m_edge = 1 + len(pairs[0])
        ms, ms_min, ours = row(f"solve_theta {name} n={n}", lambda: theta.solve_theta(n, edges),
                               args.repeat, solved("-" if shifts is None else 1 + len(shifts)))
        if m_edge > EDGE_PATH_MAX_M:
            show(f"edge path {name} n={n}", ("-",) * 3, f"skipped: m {m_edge}")
            timed[name] = ms, ms_min, float("nan"), float("nan")
            continue
        ms_edge, min_edge, _ = row(
            f"edge path {name} n={n}", lambda: edge_path(n, edges), args.repeat,
            lambda edge: f"{solved(m_edge)(edge)} |dtheta| {abs(ours.value - edge.value):.1e}")
        timed[name] = ms, ms_min, ms_edge, min_edge
    total, total_min, edge, edge_min = (sum(timed[g["name"]][k] for g in catalogue)
                                        for k in range(4))
    print(f"one benchmark round ({len(catalogue)} solves): solve_theta {total:.1f} ms "
          f"(min {total_min:.1f}), edge path {edge:.1f} ms (min {edge_min:.1f})")

    for n in args.cycles:
        edges = inputs.cycle_edges(n)
        pairs = tuple(theta.edge_pairs(n, edges).T)
        _, _, shifts = row(f"_shifts C{n}", lambda: theta._shifts(n, pairs), args.repeat,
                           lambda shifts: f"m {1 + len(shifts)}")
        row(f"solve_theta C{n}", lambda: theta.solve_theta(n, edges), args.repeat,
            solved(1 + len(shifts)))

    rng = np.random.default_rng(args.seed)
    for n, p in args.gnp:
        pairs = np.column_stack(np.triu_indices(n, 1))
        edges = pairs[rng.random(len(pairs)) < p]  # each pair i < j with probability p
        row(f"edge path G({n}, {p:g})", lambda: edge_path(n, edges), args.repeat,
            solved(1 + len(edges)))


def witness_section(args) -> None:
    """Commutation, game, fairness and witness certificates on seeded inputs."""
    import numpy as np

    from qnskit import rand as qr
    from qnskit.correlations import (CorrelationDims, build_local, compose_correlations,
                                     cqns_report, qns_report, witness_residual)
    from qnskit.games import colouring_game, perfect_strategy_check
    from qnskit.graphs import Graph, kd2_colouring
    from qnskit.linalg import CheckError
    from qnskit.stochastic import (StochasticOperatorMatrix, _require_commuting,
                                   max_commutator, with_ancilla_left, with_ancilla_right)
    from qnskit.symmetry import fair_residual

    def gate(e, f):
        try:
            _require_commuting(e, f)
        except CheckError as err:
            return err.residual
        return "pass"

    rng = np.random.default_rng(args.seed)
    spare = np.random.default_rng(np.random.SeedSequence(args.seed).spawn(1)[0])
    for spec in args.lifts:
        dims = tuple(int(n) for n in spec.split(","))
        e, f = qr.random_stochastic(rng, *dims), qr.random_stochastic(rng, *dims)
        lift = (with_ancilla_right(e, dims[2]), with_ancilla_left(f, dims[2]))
        big = np.kron(np.eye(dims[0] * dims[1]), qr.random_unitary(rng, dims[2] ** 2))
        rotated = tuple(StochasticOperatorMatrix(*m.dims, big @ m.mat @ big.conj().T)
                        for m in lift)
        against = (lift[0], qr.random_stochastic(spare, *lift[0].dims))
        for label, (e, f) in (("lift", lift), ("rotated lift", rotated),
                              ("lift vs random F", against)):
            row(f"max_commutator {label} {dims}", lambda: max_commutator(e, f), args.repeat)
            row(f"commuting gate {label} {dims}", lambda: gate(e, f), args.repeat)
    for d in args.d:
        corr, graph = kd2_colouring(d), Graph.complete(d * d)
        row(f"game + strategy check kd2 d={d}",
            lambda: perfect_strategy_check(colouring_game(graph, d), corr), args.repeat,
            lambda report: repr(report.max_residual))
        row(f"fair_residual kd2 d={d}", lambda: fair_residual(corr), args.repeat)

        def kd2_certified(d=d):
            corr = kd2_colouring(d)
            return cqns_report(corr).ok, witness_residual(corr)
        row(f"kd2 + cqns_report + residual d={d}", kd2_certified, args.repeat)
    chois = [qr.random_channel_choi(rng, 2, 2) for _ in range(4)]
    row("build_local + qns_report", lambda: qns_report(build_local(
        [0.4, 0.6], chois[:2], chois[2:], CorrelationDims(2, 2, 2, 2))), args.repeat,
        lambda report: repr(report.witness_residual))
    inner = build_local([0.3, 0.7], [qr.random_channel_choi(rng, 4, 4) for _ in range(2)],
                        [qr.random_channel_choi(rng, 4, 4) for _ in range(2)],
                        CorrelationDims(4, 4, 4, 4))
    outer = build_local([1.0], [qr.random_channel_choi(rng, 4, 2)],
                        [qr.random_channel_choi(rng, 4, 2)], CorrelationDims(4, 4, 2, 2))
    row("compose local (4,4,4,4) -> (2,2)", lambda: compose_correlations(outer, inner),
        args.repeat, lambda corr: repr(witness_residual(corr)))


def psd_section(args) -> None:
    """The PSD kernel on positive definite, rank-deficient and indefinite inputs."""
    import numpy as np

    from qnskit import rand as qr
    from qnskit.correlations import CorrelationDims, build_local, build_quantum
    from qnskit.graphs import kd2_colouring
    from qnskit.linalg import hermiticity_and_psd_defect

    rng = np.random.default_rng(args.seed)
    stochastic = [qr.random_stochastic(rng, 4, 4, 4) for _ in range(2)]
    quantum = build_quantum(*stochastic, qr.random_state(rng, 16)).choi
    local = build_local([0.5, 0.5], [qr.random_channel_choi(rng, 4, 4, kraus=2) for _ in range(2)],
                        [qr.random_channel_choi(rng, 4, 4, kraus=2) for _ in range(2)],
                        CorrelationDims(4, 4, 4, 4)).choi
    g = qr.complex_gaussian(rng, 256, 256)

    def mixture(terms):  # equal weights, every channel of Kraus rank 4: rank 16 terms
        return build_local([1 / terms] * terms,
                           [qr.random_channel_choi(rng, 4, 4, kraus=4) for _ in range(terms)],
                           [qr.random_channel_choi(rng, 4, 4, kraus=4) for _ in range(terms)],
                           CorrelationDims(4, 4, 4, 4)).choi
    rank80, rank144 = mixture(5), mixture(9)
    for label, m in (("quantum witness Choi (PD): up-shift passes", quantum),
                     ("local Choi (rank 8): up-shift passes", local),
                     ("indefinite: pivot <= 0 -> eigensolve", g + g.conj().T),
                     ("local Choi (rank 80): up-shift passes", rank80),
                     ("local Choi (rank 144): up-shift passes", rank144),
                     ("kd2 d=4 states (256 blocks): up-shift passes", kd2_colouring(4).states),
                     ("g g* (PD, s > TOL_ALG): down-shift passes", g @ g.conj().T),
                     ("rank-80 Choi x 1e4: down-shift fails -> eigensolve", rank80 * 1e4)):
        row(f"psd {label}", lambda: hermiticity_and_psd_defect(m), args.repeat)


def cli_section(args) -> None:
    """Wall time, peak RSS and payload digest of `qnskit kd2 --d D --out FILE`."""
    with tempfile.TemporaryDirectory() as tmp:
        for d in args.d:
            out = os.path.join(tmp, f"kd2-{d}.json")
            argv = [sys.executable, "-m", "qnskit", "kd2", "--d", str(d), "--out", out]
            runs = [spawn(argv) for _ in range(args.repeat)]
            digest = hashlib.sha256()
            with open(out, "rb") as fh:  # in 1 MiB blocks, so the parent stays small
                for block in iter(lambda: fh.read(1 << 20), b""):
                    digest.update(block)
            show(f"kd2 --d {d}", (statistics.median(s for s, _ in runs),
                                  max(mb for _, mb in runs)), digest.hexdigest())


_IN_PROCESS = ("median ms", "min ms", "peak MB")
_SEED = {"type": int, "default": 1}
_REPEAT = {"type": int, "default": 7}
#: section -> (function, column headings, options)
SECTIONS = {
    "theta": (theta_section, _IN_PROCESS, {
        "--seed": {"type": int, "default": 301}, "--repeat": {"type": int, "default": 5},
        "--paley": {"type": int, "nargs": "*", "default": [61, 101]},
        "--cycles": {"type": int, "nargs": "*", "default": [1001, 4001, 100001]},
        "--gnp": {"type": gnp_spec, "nargs": "*", "default": [], "metavar": "N:P"}}),
    "witness": (witness_section, _IN_PROCESS, {
        "--lifts": {"nargs": "+", "default": ["3,3,2", "4,4,2"],
                    "help": "dims dim_x,dim_a,dim_h of each lifted pair"},
        "--d": {"type": int, "nargs": "+", "default": [3, 4]},
        "--repeat": _REPEAT, "--seed": _SEED}),
    "psd": (psd_section, _IN_PROCESS, {"--repeat": _REPEAT, "--seed": _SEED}),
    "cli": (cli_section, ("median s", "peak MB"), {
        "--d": {"type": int, "nargs": "+", "default": [4, 5]},
        "--repeat": {"type": int, "default": 3}}),
}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="section", required=True)
    for name, (func, _, options) in SECTIONS.items():
        p = sub.add_parser(name, help=func.__doc__)
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
    args = parser.parse_args()
    func, columns, _ = SECTIONS[args.section]
    show("operation", columns, "value")
    func(args)


if __name__ == "__main__":
    main()
