"""Benchmark of qnskit: theta solves, witness certification and CLI pipelines.

usage: python3 perfbench/run.py --workload {theta,witness,cli} --seed N
                                --seconds S --trace {0,1}

Runs from the root of a checkout against the checkout's own `src/qnskit`.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end figures of an untraced run; with `--trace 1` a
traced run follows the untraced one and the metrics are the per-layer
figures, its own end-to-end figures and the tracing overhead.  See
perfbench/README.md for the workloads and the meaning of every metric.
"""

from __future__ import annotations

import os
import sys

#: One BLAS thread: the figures then do not depend on what else the machine runs.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("theta", "witness", "cli")
#: Fresh processes timed for `setup_s`; the median is reported.
SETUP_REPEATS = 5
#: Names the workloads give to the two generic throughput and latency metrics.
ALIASES = {"theta": ("theta_solves_per_s", "theta_solve_p50_ms"),
           "witness": ("certified_per_s", "certify_p50_ms"),
           "cli": ("cli_cmds_per_s", "cli_p50_ms")}


class SetupError(RuntimeError):
    """The checkout does not hold the package, or set-up failed."""


def import_package():
    """Import qnskit from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "qnskit", "__init__.py")):
        raise SetupError(f"no package at {os.path.join(SRC, 'qnskit')}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)
    import qnskit
    if not os.path.abspath(qnskit.__file__).startswith(SRC + os.sep):
        raise SetupError(f"qnskit imported from {qnskit.__file__}, not from {SRC}")
    return qnskit


def make_workload(name: str, seed: int):
    """Import the package and generate the workload's inputs."""
    qk = import_package()
    import inputs
    import oracles
    import workloads
    if name == "theta":
        return workloads.ThetaWorkload(qk, seed)
    if name == "witness":
        return workloads.WitnessWorkload(qk, seed)
    workdir = os.path.join(OUT, f"cli-{seed}")
    inputs.write_cli_inputs(workdir, seed,
                            lambda e, f, s, dims: oracles.quantum_choi(e, f, s, dims, dims))
    return workloads.CliWorkload(SRC, workdir, seed, HERE)


def time_setup(name: str, seed: int) -> float:
    """Median wall time of fresh processes that import the package and make the inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--setup-only",
                               "--workload", name, "--seed", str(seed)],
                              stdin=subprocess.DEVNULL, capture_output=True, text=True)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            raise SetupError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(times)


def measure(workload, seconds: float, tracer=None):
    """Run whole rounds for about `seconds`; returns the tally.

    Another round starts only if it would end less than half a round past
    the deadline, so a run overshoots by at most half a round.
    """
    import workloads
    tally = workloads.Tally()
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        workload.run_round(tally, tracer)
        now = time.perf_counter()
        if now - start + (now - round_start) / 2 >= seconds:
            return tally


def throughput_latency(tally) -> tuple[float, float]:
    """(operations per busy second, median operation time in ms)."""
    return (len(tally.durations) / sum(tally.durations),
            1e3 * statistics.median(tally.durations))


def summary_lines(name: str, tally, metrics: dict) -> list[str]:
    lines = [f"workload {name}: {len(tally.durations)} operations attempted, "
             f"{tally.failed} failed"]
    for key, m in metrics.items():
        lines.append(f"  {key} = {m['value']:.6g} {m['unit']}")
    per_s, p50 = ALIASES[name]
    ops_per_s, p50_ms = throughput_latency(tally)
    lines.append(f"  ({per_s} = {ops_per_s:.6g} 1/s, {p50} = {p50_ms:.6g} ms)")
    n = len(tally.durations)
    if n >= 40:   # the highest percentile with at least ten samples beyond it
        q = 90 if n >= 100 else 75
        tail = statistics.quantiles(tally.durations, n=100)[q - 1]
        lines.append(f"  op_p{q}_ms = {1e3 * tail:.6g} ms over {n} samples")
    for err in tally.errors[:10]:
        lines.append(f"  ERROR {err}")
    return lines


def run(args) -> dict:
    setup_s = time_setup(args.workload, args.seed)
    workload = make_workload(args.workload, args.seed)
    workload.warm_up()
    tally = measure(workload, args.seconds)
    ops_per_s, p50_ms = throughput_latency(tally)
    if args.workload == "cli":
        peak_kb = tally.child_peak_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    e2e = {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
           "op_p50_ms": {"value": p50_ms, "unit": "ms"},
           "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
           "setup_s": {"value": setup_s, "unit": "s"}}
    print("\n".join(summary_lines(args.workload, tally, e2e)))
    samples = os.path.join(OUT, f"samples-{args.workload}-{args.seed}.json")
    with open(samples, "w", encoding="utf-8") as fh:
        json.dump({"names": tally.names, "seconds": tally.durations,
                   "errors": tally.errors}, fh)
    if not args.trace:
        return {"correct": not tally.errors, "attempted": len(tally.durations),
                "failed": tally.failed, "metrics": e2e}

    import tracing
    tracer = tracing.Tracer()
    if args.workload != "cli":          # CLI children install their own tracer
        tracer.install()
    traced = measure(workload, args.seconds, tracer)
    tracer.restore()
    t_ops_per_s, t_p50_ms = throughput_latency(traced)
    ops = len(traced.durations)
    per_layer = tracing.per_layer_metrics(tracer.spans, tracer.counters, ops,
                                          getattr(workload, "startup_s", 0.0))
    per_layer["trace.untraced_ops_per_s"] = (ops_per_s, "1/s")
    per_layer["trace.untraced_op_p50_ms"] = (p50_ms, "ms")
    per_layer["trace.traced_ops_per_s"] = (t_ops_per_s, "1/s")
    per_layer["trace.traced_op_p50_ms"] = (t_p50_ms, "ms")
    per_layer["trace.overhead_pct"] = (100 * (ops_per_s / t_ops_per_s - 1), "%")
    trace_path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "operations": ops,
                   "span_fields": ["op", "name", "start", "end", "parent"],
                   **tracer.export()}, fh)
    print(f"traced run: {ops} operations, {len(tracer.spans)} spans -> {trace_path}")
    print(tracing.self_time_table(tracer.spans, ops))
    print(f"tracing overhead {per_layer['trace.overhead_pct'][0]:.2f}% "
          f"({ops_per_s:.6g} -> {t_ops_per_s:.6g} ops/s)")
    errors = tally.errors + traced.errors
    return {"correct": not errors, "attempted": ops + len(tally.durations),
            "failed": tally.failed + traced.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import the package, make the inputs and exit")
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            make_workload(args.workload, args.seed)
            return 0
        import_package()
        os.makedirs(OUT, exist_ok=True)
        result = run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(OUT, f"result-{args.workload}-{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
