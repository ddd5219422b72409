"""Command-line front end.

Exit codes: 0 success / check passed, 1 check failed, 2 malformed input (also
JSON nested too deep, or a size numpy cannot allocate) or IO error.  Reports are
JSON objects (the default) or an equivalent plain text rendering; produced payloads
go to --out when given, else to stdout with the report on stderr, so commands pipe.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from . import io
from .algebra import AlgStochasticMatrix
from .correlations import (CqnsCorrelation, NsCorrelation, QnsCorrelation,
                           build_from_witness, compose_correlations,
                           compose_tables, cqns_report, lift_cqns, ns_report,
                           qns_report, reduce_cqns, reduce_ns)
from .games import ConstraintGame, compose_games, perfect_strategy_check
from .graphs import (Graph, kd2_colouring, orth_rep_to_colouring,
                     proper_residuals, xi_qc_lower_bound)
from .linalg import TOL_ALG, Report, positive, worst
from .stochastic import StochasticOperatorMatrix, verify as verify_stochastic
from .symmetry import build_tracial_cqns, build_tracial_ns, fair_residual
from .theta import GAP_TOL, SolverError, solve_theta


class CliError(Exception):
    """Input or usage problem; maps to exit code 2."""


def _render_text(obj, prefix="") -> list[str]:
    """The ``key.key: value`` lines of a dict or list tree, dict keys sorted."""
    items = sorted(obj.items()) if isinstance(obj, dict) else enumerate(obj)
    return [line for key, value in items for line in (
        _render_text(value, f"{prefix}{key}.") if isinstance(value, (dict, list))
        else [f"{prefix}{key}: {value!r}"])]


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


#: What reading and decoding a malformed file raise (RecursionError: nesting too deep).
_DECODE_ERRORS = (OSError, ValueError, RecursionError)


def _load_payload(path: str, types=object, what: str = "", decode=io.detect_payload):
    """``decode`` of the JSON in ``path``; a file that cannot be read or decoded, or
    whose payload is not one of ``types``, is a CliError (the latter saying ``what``)."""
    try:
        payload = decode(io.load(path))
    except _DECODE_ERRORS as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc
    if not isinstance(payload, types):
        raise CliError(what)
    return payload


#: Payload type -> (report kind, report function of the payload and a tolerance).
_REPORTS = {QnsCorrelation: ("qns", qns_report), CqnsCorrelation: ("cqns", cqns_report),
            NsCorrelation: ("ns", ns_report),
            StochasticOperatorMatrix: ("stochastic", verify_stochastic),
            AlgStochasticMatrix: ("alg-stochastic", AlgStochasticMatrix.verification_report)}
_CORRELATION_TYPES = (QnsCorrelation, CqnsCorrelation, NsCorrelation)


def _report(payload, tol: float, **checks) -> dict:
    """The payload's report, tagged with its kind; ``checks`` are added to it."""
    kind, check = _REPORTS[type(payload)]
    report = check(payload, tol)
    return Report({**report.checks, **checks}, tol, {**report.info, "kind": kind}).as_dict()


def _emit_correlation(corr, args, **checks) -> int:
    """Emit a produced correlation with its report; ``checks`` are added to the report."""
    report = _report(corr, args.tol, **checks)
    return _emit_payload(io.correlation_to_json(corr), report, args)


def _cmd_verify(args) -> int:
    payload = _load_payload(args.file, tuple(_REPORTS),
                            "verify expects a correlation or stochastic matrix file")
    return _emit_report(_report(payload, args.tol), args.format, sys.stdout)


#: ``build`` kind -> (builder, decoder of the witness file): a witness class, or classical inputs.
_BUILDERS = {kind: (build_from_witness, partial(io.witness_from_json, kind=cls)) for kind, cls in (
    ("local", "local"), ("quantum", "quantum"), ("qc", "commuting"), ("tracial", "tracial"))}
_BUILDERS.update({"cqns-tracial": (build_tracial_cqns, io.alg_stochastic_from_json),
                  "ns-tracial": (build_tracial_ns, io.alg_stochastic_from_json)})


def _cmd_build(args) -> int:
    build, decode = _BUILDERS[args.kind]
    return _emit_correlation(build(_load_payload(args.witness, decode=decode)), args)


def _cmd_reduce(args) -> int:
    if args.map == "E":
        out = reduce_cqns(_load_payload(args.file, QnsCorrelation,
                                        "reduce E expects a qns correlation"))
    else:
        out = reduce_ns(_load_payload(args.file, (QnsCorrelation, CqnsCorrelation),
                                      "reduce N expects a qns or cqns correlation"))
    return _emit_correlation(out, args)


def _cmd_lift(args) -> int:
    corr = _load_payload(args.file, CqnsCorrelation, "lift expects a cqns correlation")
    return _emit_correlation(lift_cqns(corr), args)


def _cmd_compose(args) -> int:
    second = _load_payload(args.second)
    first = _load_payload(args.first)
    if isinstance(second, ConstraintGame) and isinstance(first, ConstraintGame):
        out = compose_games(second, first)
        # no condition certifies a composed game, so its report only describes it
        report = Report({}, args.tol, {"kind": "game", "n_constraints": out.n_constraints})
        return _emit_payload(io.game_to_json(out), report.as_dict(), args)
    if isinstance(second, QnsCorrelation) and isinstance(first, QnsCorrelation):
        return _emit_correlation(compose_correlations(second, first), args)
    if isinstance(second, NsCorrelation) and isinstance(first, NsCorrelation):
        return _emit_correlation(compose_tables(second, first), args)
    raise CliError("compose expects two games, two qns or two ns correlations")


def _cmd_check_game(args) -> int:
    game = _load_payload(args.game, ConstraintGame, "first argument must be a game file")
    strategy = _load_payload(args.strategy, _CORRELATION_TYPES,
                             "second argument must be a correlation file")
    report = perfect_strategy_check(game, strategy, args.tol).as_dict()
    return _emit_report(report, args.format, sys.stdout)


def _cmd_theta(args) -> int:
    graph = _load_payload(args.graph, Graph, "theta expects a graph file")
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
    graph = _load_payload(args.graph, Graph, "orthrep expects a graph file first")
    vectors = _load_payload(args.vectors, decode=io.vectors_from_json)
    corr = orth_rep_to_colouring(vectors, graph)
    return _emit_correlation(corr, args, properness_residual=_properness(corr, graph))


def _cmd_fair(args) -> int:
    corr = _load_payload(args.file, _CORRELATION_TYPES, "fair expects a correlation file")
    report = Report({"fair_residual": fair_residual(corr)}, args.tol).as_dict()
    return _emit_report(report, args.format, sys.stdout)


def _positive_float(text: str) -> float:
    try:
        positive(value := float(text), "tolerance")
    except ValueError:
        raise argparse.ArgumentTypeError("tolerance must be positive and finite") from None
    return value


#: The flags every command takes; the commands that produce a payload add --out.
_TOL = {"type": _positive_float, "default": TOL_ALG, "help": "override the check tolerance"}
_FORMAT = {"choices": ("json", "text"), "default": "json"}
_FLAGS = {"--tol": _TOL, "--format": _FORMAT}
_PAYLOAD_FLAGS = {"--tol": _TOL, "--out": {"default": None,
                                           "help": "write the produced payload here"},
                  "--format": _FORMAT}

#: Subcommand -> (handler, help, add_argument keywords of each argument in order).
_COMMANDS = {
    "verify": (_cmd_verify, "verify a correlation or stochastic matrix file",
               {"file": {}, **_FLAGS}),
    "build": (_cmd_build, "build a correlation from a witness file",
              {"kind": {"choices": _BUILDERS}, "witness": {}, **_PAYLOAD_FLAGS}),
    "reduce": (_cmd_reduce, "classical reduction of a correlation",
               {"map": {"choices": ("E", "N")}, "file": {}, **_PAYLOAD_FLAGS}),
    "lift": (_cmd_lift, "lift a cqns correlation to a qns correlation",
             {"file": {}, **_PAYLOAD_FLAGS}),
    "compose": (_cmd_compose, "compose two correlations or two games",
                {"second": {"help": "outer correlation/game (applied last)"},
                 "first": {"help": "inner correlation/game (applied first)"}, **_PAYLOAD_FLAGS}),
    "check-game": (_cmd_check_game, "check a strategy against a game",
                   {"game": {}, "strategy": {}, **_FLAGS}),
    "theta": (_cmd_theta, "Lovasz theta of a graph",
              {"graph": {}, "--tol": {**_TOL, "default": GAP_TOL}, "--format": _FORMAT}),
    "kd2": (_cmd_kd2, "explicit colouring of the complete graph on d^2 vertices",
            {"--d": {"type": int, "required": True}, **_PAYLOAD_FLAGS}),
    "orthrep": (_cmd_orthrep, "colouring from an orthogonal representation",
                {"graph": {}, "vectors": {}, **_PAYLOAD_FLAGS}),
    "fair": (_cmd_fair, "fairness check of a correlation", {"file": {}, **_FLAGS}),
}


def _add_command(sub, name: str, func, text: str, arguments: dict) -> None:
    p = sub.add_parser(name, help=text)
    for argument, keywords in arguments.items():
        p.add_argument(argument, **keywords)
    p.set_defaults(func=func)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnskit",
        description="Build, verify and compose no-signalling correlations and "
                    "quantum non-local games.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, text, arguments) in _COMMANDS.items():
        _add_command(sub, name, func, text, arguments)
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, OSError, ValueError, MemoryError) as exc:  # MemoryError: a size numpy refuses
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
