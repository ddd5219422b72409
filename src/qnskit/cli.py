"""Command-line front end.

Exit codes: 0 success / check passed, 1 check failed, 2 malformed input or
IO error.  Reports are JSON objects (the default) or an equivalent plain
text rendering; produced payloads go to --out when given, otherwise to
stdout with the report on stderr so that commands compose through pipes.
"""

from __future__ import annotations

import argparse
import sys

from . import io
from .algebra import AlgStochasticMatrix
from .correlations import (CqnsCorrelation, NsCorrelation, QnsCorrelation,
                           build_from_witness, compose_correlations,
                           compose_tables, cqns_report, lift_cqns, ns_report,
                           qns_report, reduce_cqns, reduce_ns)
from .games import ConstraintGame, compose_games, perfect_strategy_check
from .graphs import (Graph, kd2_colouring, orth_rep_to_colouring,
                     proper_residuals, xi_qc_lower_bound)
from .linalg import TOL_ALG, Report, worst
from .stochastic import StochasticOperatorMatrix, verify as verify_stochastic
from .symmetry import build_tracial_cqns, build_tracial_ns, fair_residual
from .theta import GAP_TOL, SolverError, solve_theta


class CliError(Exception):
    """Input or usage problem; maps to exit code 2."""


def _render_text(obj, prefix="") -> list[str]:
    lines = []
    if isinstance(obj, dict):
        for key in sorted(obj):
            value = obj[key]
            if isinstance(value, (dict, list)):
                lines.extend(_render_text(value, f"{prefix}{key}."))
            else:
                lines.append(f"{prefix}{key}: {value!r}")
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            if isinstance(value, (dict, list)):
                lines.extend(_render_text(value, f"{prefix}{i}."))
            else:
                lines.append(f"{prefix}{i}: {value!r}")
    else:
        lines.append(f"{prefix.rstrip('.')}: {obj!r}")
    return lines


def _jsonable(obj):
    """Replace non-finite floats so reports stay strict JSON."""
    import math
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _emit_report(report: dict, fmt: str, stream) -> int:
    """Print ``report`` to ``stream``; the exit code, 0 if it passes and 1 if not."""
    report = _jsonable(report)
    if fmt == "json":
        io.write_json(report, stream)
        stream.write("\n")
    else:
        print("\n".join(_render_text(report)), file=stream)
    return 0 if report["pass"] else 1


def _emit_payload(payload: dict, report: dict, args) -> int:
    """Write ``payload`` to --out, or to stdout with the report on stderr; the exit code.

    The payload is checked before --out is opened, so one that JSON cannot hold
    leaves the file as it was.
    """
    pieces = io.json_pieces(payload) + ["\n"]
    stream = sys.stdout
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="utf-8") as fh:
            io.write_pieces(pieces, fh)
    else:
        io.write_pieces(pieces, sys.stdout)
        stream = sys.stderr
    return _emit_report(report, args.format, stream)


#: What reading a file and decoding its JSON raise on malformed input: a JSON
#: tree of the wrong shape fails a lookup, an unpacking or a conversion.
_DECODE_ERRORS = (OSError, ValueError, KeyError, IndexError, TypeError, AttributeError)


def _load_payload(path: str, decode=io.detect_payload):
    """``decode`` of the JSON in ``path``; a file that cannot be read or decoded is a CliError."""
    try:
        return decode(io.load(path))
    except _DECODE_ERRORS as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


#: Correlation type -> (report kind, report function).
_CORRELATIONS = {QnsCorrelation: ("qns", qns_report), CqnsCorrelation: ("cqns", cqns_report),
                 NsCorrelation: ("ns", ns_report)}


def _correlation_report(corr, tol: float, **checks) -> dict:
    """The correlation's report, tagged with its kind; ``checks`` are added to it."""
    if type(corr) not in _CORRELATIONS:
        raise CliError("file does not contain a correlation")
    kind, check = _CORRELATIONS[type(corr)]
    report = check(corr, tol=tol)
    return Report({**report.checks, **checks}, tol, {**report.info, "kind": kind}).as_dict()


def _emit_correlation(corr, args, **checks) -> int:
    """Emit a produced correlation with its report; ``checks`` are added to the report."""
    report = _correlation_report(corr, args.tol, **checks)
    return _emit_payload(io.correlation_to_json(corr), report, args)


def _cmd_verify(args) -> int:
    payload = _load_payload(args.file)
    if isinstance(payload, tuple(_CORRELATIONS)):
        report = _correlation_report(payload, args.tol)
    elif isinstance(payload, StochasticOperatorMatrix):
        report = {**verify_stochastic(payload, args.tol).as_dict(), "kind": "stochastic"}
    elif isinstance(payload, AlgStochasticMatrix):
        report = {**payload.verification_report(args.tol).as_dict(), "kind": "alg-stochastic"}
    else:
        raise CliError("verify expects a correlation or stochastic matrix file")
    return _emit_report(report, args.format, sys.stdout)


#: ``build`` kind -> witness class; the other kinds build classical-input data.
_WITNESS_CLASSES = {"local": "local", "quantum": "quantum", "qc": "commuting",
                    "tracial": "tracial"}
_BUILDERS = (*_WITNESS_CLASSES, "cqns-tracial", "ns-tracial")


def _cmd_build(args) -> int:
    if args.kind in _WITNESS_CLASSES:
        corr = build_from_witness(_load_payload(args.witness, lambda obj: io.witness_from_json(
            {**obj, "class": _WITNESS_CLASSES[args.kind]})))
    else:
        build = build_tracial_cqns if args.kind == "cqns-tracial" else build_tracial_ns
        corr = build(_load_payload(args.witness, io.alg_stochastic_from_json))
    return _emit_correlation(corr, args)


def _cmd_reduce(args) -> int:
    corr = _load_payload(args.file)
    if args.map == "E":
        if not isinstance(corr, QnsCorrelation):
            raise CliError("reduce E expects a qns correlation")
        out = reduce_cqns(corr)
    else:
        if not isinstance(corr, (QnsCorrelation, CqnsCorrelation)):
            raise CliError("reduce N expects a qns or cqns correlation")
        out = reduce_ns(corr)
    return _emit_correlation(out, args)


def _cmd_lift(args) -> int:
    corr = _load_payload(args.file)
    if not isinstance(corr, CqnsCorrelation):
        raise CliError("lift expects a cqns correlation")
    return _emit_correlation(lift_cqns(corr), args)


def _cmd_compose(args) -> int:
    second = _load_payload(args.second)
    first = _load_payload(args.first)
    if isinstance(second, ConstraintGame) and isinstance(first, ConstraintGame):
        out = compose_games(second, first)
        # no condition certifies a composed game, so its report only describes it
        report = {"kind": "game", "n_constraints": out.n_constraints, "pass": True}
        return _emit_payload(io.game_to_json(out), report, args)
    if isinstance(second, QnsCorrelation) and isinstance(first, QnsCorrelation):
        return _emit_correlation(compose_correlations(second, first), args)
    if isinstance(second, NsCorrelation) and isinstance(first, NsCorrelation):
        return _emit_correlation(compose_tables(second, first), args)
    raise CliError("compose expects two games, two qns or two ns correlations")


def _cmd_check_game(args) -> int:
    game = _load_payload(args.game)
    if not isinstance(game, ConstraintGame):
        raise CliError("first argument must be a game file")
    strategy = _load_payload(args.strategy)
    if not isinstance(strategy, tuple(_CORRELATIONS)):
        raise CliError("second argument must be a correlation file")
    report = perfect_strategy_check(game, strategy, args.tol).as_dict()
    return _emit_report(report, args.format, sys.stdout)


def _cmd_theta(args) -> int:
    graph = _load_payload(args.graph)
    if not isinstance(graph, Graph):
        raise CliError("theta expects a graph file")
    try:
        result = solve_theta(graph.n, graph.edges, tol=args.tol)
    except SolverError as exc:
        report = Report({"gap": float("inf")}, args.tol, {"solver_error": str(exc)}).as_dict()
    else:
        report = Report({"gap": result.gap}, args.tol, {
            "theta": result.value, "iterations": result.iterations, "dual_bound": result.dual_bound,
            "xi_qc_lower_bound": xi_qc_lower_bound(graph, result.dual_bound)}).as_dict()
        if args.format == "text":
            print(f"{result.value:.6f}")
    return _emit_report(report, args.format, sys.stderr if args.format == "text" else sys.stdout)


def _properness(corr, graph: Graph) -> float:
    """Largest pairing of an edge state with the maximally entangled matrix."""
    return worst(*proper_residuals(corr, graph).values())


def _cmd_kd2(args) -> int:
    corr = kd2_colouring(args.d)
    return _emit_correlation(corr, args, properness_residual=_properness(
        corr, Graph.complete(args.d * args.d)))


def _cmd_orthrep(args) -> int:
    graph = _load_payload(args.graph)
    if not isinstance(graph, Graph):
        raise CliError("orthrep expects a graph file first")
    vectors = _load_payload(args.vectors,
                            lambda obj: [io.vector_from_json(v) for v in obj["vectors"]])
    corr = orth_rep_to_colouring(vectors, graph)
    return _emit_correlation(corr, args, properness_residual=_properness(corr, graph))


def _cmd_fair(args) -> int:
    corr = _load_payload(args.file)
    if not isinstance(corr, tuple(_CORRELATIONS)):
        raise CliError("fair expects a correlation file")
    report = Report({"fair_residual": fair_residual(corr)}, args.tol).as_dict()
    return _emit_report(report, args.format, sys.stdout)


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < float("inf"):  # NaN fails
        raise argparse.ArgumentTypeError("tolerance must be positive and finite")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnskit",
        description="Build, verify and compose no-signalling correlations and "
                    "quantum non-local games.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol=TOL_ALG):
        p.add_argument("--tol", type=_positive_float, default=tol,
                       help="override the check tolerance")
        p.add_argument("--out", default=None, help="write the produced payload here")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("verify", help="verify a correlation or stochastic matrix file")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("build", help="build a correlation from a witness file")
    p.add_argument("kind", choices=_BUILDERS)
    p.add_argument("witness")
    common(p)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("reduce", help="classical reduction of a correlation")
    p.add_argument("map", choices=("E", "N"))
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("lift", help="lift a cqns correlation to a qns correlation")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_lift)

    p = sub.add_parser("compose", help="compose two correlations or two games")
    p.add_argument("second", help="outer correlation/game (applied last)")
    p.add_argument("first", help="inner correlation/game (applied first)")
    common(p)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("check-game", help="check a strategy against a game")
    p.add_argument("game")
    p.add_argument("strategy")
    common(p)
    p.set_defaults(func=_cmd_check_game)

    p = sub.add_parser("theta", help="Lovasz theta of a graph")
    p.add_argument("graph")
    common(p, tol=GAP_TOL)
    p.set_defaults(func=_cmd_theta)

    p = sub.add_parser("kd2", help="explicit colouring of the complete graph on d^2 vertices")
    p.add_argument("--d", type=int, required=True)
    common(p)
    p.set_defaults(func=_cmd_kd2)

    p = sub.add_parser("orthrep", help="colouring from an orthogonal representation")
    p.add_argument("graph")
    p.add_argument("vectors")
    common(p)
    p.set_defaults(func=_cmd_orthrep)

    p = sub.add_parser("fair", help="fairness check of a correlation")
    p.add_argument("file")
    common(p)
    p.set_defaults(func=_cmd_fair)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
