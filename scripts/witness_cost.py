"""Median wall time of the three stacked certificates on seeded inputs.

usage: PYTHONPATH=src python3 scripts/witness_cost.py [--lifts 3,3,2 4,4,2] [--d 3 4]
                                                      [--repeat 7] [--seed 1] [--psd]

- `max_commutator` on a commuting lift (E (x) I, I (x) F) of two seeded
  stochastic operator matrices with dims (dim_x, dim_a, dim_h), and on the
  same pair with every block conjugated by one seeded unitary, so that the
  commutators are rounding-sized rather than exactly zero, and on the lifted E
  against a seeded F on the same H, which does not commute with it; beside each,
  the commuting gate on the same pair, which tries the span bound
  `commutator_bound` first and runs `max_commutator` when that bound is above
  TOL_COMM (its value is "pass" or the residual it refused);
- `colouring_game` of K_{d^2} with d colours followed by
  `perfect_strategy_check` of the kd2 colouring against it;
- `fair_residual` of the kd2 colouring;
- `kd2_colouring` followed by `cqns_report` and `witness_residual`, which
  share the one tracial contraction of the colouring's witness;
- `build_local` of a seeded mixture of two product channels on
  (X, Y, A, B) = (2, 2, 2, 2) followed by `qns_report`, whose witness
  re-check reads the Choi matrix the build made;
- `compose_correlations` of a seeded local correlation on (4, 4, 4, 4), a
  mixture of two product channels, with a product channel (4, 4) -> (2, 2):
  one `choi_compose` of the Choi matrices and one over the stacks of terms.
  Its value is the `witness_residual` of the composition.

With ``--psd`` it times only `hermiticity_and_psd_defect`, the PSD kernel of
every certificate, on six seeded inputs, each labelled with the factorisation
that decided it: the Choi matrix of a quantum witness on (4,4,4,4), 256 x 256
and positive definite, on which the leading 32 x 32 and 96 x 96 blocks (the
rungs of the ladder) and step 1 (one Cholesky factorisation shifted down by the
margin) complete; a local Choi matrix of rank 8 (two product terms of Kraus rank
2 x 2), whose leading 32 x 32 block fails to factor; an indefinite Hermitian
matrix, which has a diagonal entry <= 0 and goes to the eigensolve; local Choi
matrices of rank 80 (five product terms of Kraus rank 4 x 4), whose 96 x 96
block fails, and 144 (nine terms), on which only the full factorisation fails;
and the states of the kd2 colouring with d = 4, 256 blocks of 16 x 16, each
with a zero diagonal entry. The rank-deficient ones are then settled by one
factorisation shifted up by a quarter of the margin (the up-shift).

Each line gives the median over the repeats in milliseconds, the tracemalloc
peak in MB of one more call, and the value the call returned, so two source
trees can be compared on the same seed.
Set OPENBLAS_NUM_THREADS=1 for figures that do not depend on the machine's
other load.
"""

import argparse
import statistics
import time
import tracemalloc

import numpy as np

from qnskit import rand as qr
from qnskit.correlations import (CorrelationDims, build_local, build_quantum,
                                 compose_correlations, cqns_report, qns_report,
                                 witness_residual)
from qnskit.games import colouring_game, perfect_strategy_check
from qnskit.graphs import Graph, kd2_colouring
from qnskit.linalg import CheckError, hermiticity_and_psd_defect
from qnskit.stochastic import (StochasticOperatorMatrix, _require_commuting, max_commutator,
                               with_ancilla_left, with_ancilla_right)
from qnskit.symmetry import fair_residual


def median_ms(fn, repeat: int):
    """Median milliseconds of ``repeat`` calls of ``fn`` and the last value it returned."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        value = fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times), value


def row(label: str, fn, repeat: int, show=repr) -> None:
    """Print the median milliseconds of ``fn``, the tracemalloc peak of one more
    call in MB, and ``show`` of the value it returned."""
    ms, value = median_ms(fn, repeat)
    tracemalloc.start()
    try:
        fn()
        mb = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    print(f"{label:>56} {ms:>10.2f} {mb:>8.2f}  {show(value)}")


def lifts(rng, spare, dims):
    """A commuting lift of two seeded matrices, its blockwise rotation by a unitary,
    and its E against a matrix drawn from ``spare``."""
    e, f = qr.random_stochastic(rng, *dims), qr.random_stochastic(rng, *dims)
    pair = (with_ancilla_right(e, dims[2]), with_ancilla_left(f, dims[2]))
    big = np.kron(np.eye(dims[0] * dims[1]), qr.random_unitary(rng, dims[2] ** 2))
    rotated = tuple(StochasticOperatorMatrix(*m.dims, big @ m.mat @ big.conj().T) for m in pair)
    return pair, rotated, (pair[0], qr.random_stochastic(spare, *pair[0].dims))


def gate(e, f):
    """The commuting gate's verdict on a pair: "pass" or the residual it refused."""
    try:
        _require_commuting(e, f)
    except CheckError as err:
        return err.residual
    return "pass"


def psd_rows(rng, repeat: int) -> None:
    """Time the PSD kernel on positive definite, rank-deficient and indefinite 256 x 256
    matrices, and on the 256 states of the kd2 colouring with d = 4."""
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
    for label, m in (("quantum witness Choi (PD): lead 32, 96, full pass", quantum),
                     ("local Choi (rank 8): lead 32 fails -> up-shift", local),
                     ("indefinite: pivot <= 0 -> eigensolve", g + g.conj().T),
                     ("local Choi (rank 80): lead 96 fails -> up-shift", mixture(5)),
                     ("local Choi (rank 144): full fails -> up-shift", mixture(9)),
                     ("kd2 d=4 states (256 blocks): pivot <= 0 -> up-shift",
                      kd2_colouring(4).states)):
        row(f"psd {label}", lambda m=m: hermiticity_and_psd_defect(m), repeat)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lifts", nargs="+", default=["3,3,2", "4,4,2"],
                        help="dims dim_x,dim_a,dim_h of each lifted pair")
    parser.add_argument("--d", type=int, nargs="+", default=[3, 4])
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--psd", action="store_true",
                        help="time only the PSD kernel on six seeded inputs")
    args = parser.parse_args()
    rng = np.random.default_rng(args.seed)
    print(f"{'operation':>56} {'median ms':>10} {'peak MB':>8}  value")
    if args.psd:
        psd_rows(rng, args.repeat)
        return
    # a child stream for the random F: every other row draws what it drew without it
    [spare] = rng.spawn(1)
    for spec in args.lifts:
        dims = tuple(int(n) for n in spec.split(","))
        for label, (e, f) in zip(("lift", "rotated lift", "lift vs random F"),
                                 lifts(rng, spare, dims)):
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

if __name__ == "__main__":
    main()
