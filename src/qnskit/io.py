"""JSON interchange for matrices, correlations, witnesses, graphs and games.

Matrices are stored as {"rows": n, "cols": m, "data": [[re, im], ...]} with
row-major data; every other payload is built from this block plus plain
dimension fields.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from .algebra import AlgStochasticMatrix, TracialAlgebra
from .correlations import (CorrelationDims, CqnsCorrelation, LocalWitness,
                           NsCorrelation, QnsCorrelation, QuantumWitness,
                           TracialWitness)
from .games import ConstraintGame, RuleFunction
from .graphs import Graph
from .linalg import asmatrix
from .stochastic import StochasticOperatorMatrix


class FormatError(ValueError):
    """Malformed JSON payload."""


def _pairs(z: np.ndarray) -> list:
    """The entries of ``z``, row-major, as [re, im] lists of Python floats."""
    z = z.reshape(-1)
    return np.stack((z.real, z.imag), -1).tolist()


def matrix_to_json(m: np.ndarray) -> dict:
    m = asmatrix(m)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": _pairs(m)}


def matrix_from_json(obj: Any) -> np.ndarray:
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        data = obj["data"]
    except (TypeError, KeyError) as exc:
        raise FormatError(f"not a matrix object: {exc}") from exc
    if len(data) != rows * cols:
        raise FormatError(f"matrix data length {len(data)} != {rows}x{cols}")
    flat = np.array([complex(re, im) for re, im in data])
    return flat.reshape(rows, cols)


def vector_to_json(v: np.ndarray) -> list:
    return _pairs(np.asarray(v, dtype=complex))


def vector_from_json(obj: Any) -> np.ndarray:
    return np.array([complex(re, im) for re, im in obj])


def stochastic_to_json(e: StochasticOperatorMatrix) -> dict:
    return {"dimX": e.dim_x, "dimA": e.dim_a, "dimH": e.dim_h,
            "matrix": matrix_to_json(e.mat)}


def stochastic_from_json(obj: Any) -> StochasticOperatorMatrix:
    try:
        return StochasticOperatorMatrix(int(obj["dimX"]), int(obj["dimA"]),
                                        int(obj["dimH"]),
                                        matrix_from_json(obj["matrix"]))
    except (TypeError, KeyError, ValueError) as exc:
        raise FormatError(f"not a stochastic operator matrix: {exc}") from exc


def algebra_to_json(alg: TracialAlgebra) -> dict:
    return {"blocks": list(alg.block_dims), "weights": list(alg.weights)}


def algebra_from_json(obj: Any) -> TracialAlgebra:
    return TracialAlgebra(tuple(obj["blocks"]), tuple(obj["weights"]))


def alg_stochastic_to_json(e: AlgStochasticMatrix) -> dict:
    return {"algebra": algebra_to_json(e.alg), "dimX": e.dim_x, "dimA": e.dim_a,
            "blocks": [matrix_to_json(b.mat) for b in e.blocks]}


def alg_stochastic_from_json(obj: Any) -> AlgStochasticMatrix:
    try:
        alg = algebra_from_json(obj["algebra"])
        dx, da = int(obj["dimX"]), int(obj["dimA"])
        blocks = tuple(StochasticOperatorMatrix(dx, da, d, matrix_from_json(m))
                       for d, m in zip(alg.block_dims, obj["blocks"]))
        return AlgStochasticMatrix(alg, blocks)
    except (TypeError, KeyError, ValueError) as exc:
        raise FormatError(f"not a stochastic algebra matrix: {exc}") from exc


def witness_to_json(w) -> dict:
    if isinstance(w, LocalWitness):
        return {"class": "local", "weights": list(w.weights),
                "alice": [matrix_to_json(c) for c in w.alice],
                "bob": [matrix_to_json(c) for c in w.bob]}
    if isinstance(w, QuantumWitness):
        return {"class": w.kind, "E": stochastic_to_json(w.e),
                "F": stochastic_to_json(w.f), "sigma": matrix_to_json(w.sigma)}
    if isinstance(w, TracialWitness):
        return {"class": "tracial", **alg_stochastic_to_json(w.matrix)}
    raise FormatError(f"unknown witness type {type(w)!r}")


def witness_from_json(obj: Any):
    kind = obj.get("class")
    if kind == "local":
        return LocalWitness(tuple(float(x) for x in obj["weights"]),
                            tuple(matrix_from_json(m) for m in obj["alice"]),
                            tuple(matrix_from_json(m) for m in obj["bob"]))
    if kind in ("quantum", "commuting"):
        return QuantumWitness(kind, stochastic_from_json(obj["E"]),
                              stochastic_from_json(obj["F"]),
                              matrix_from_json(obj["sigma"]))
    if kind == "tracial":
        return TracialWitness(alg_stochastic_from_json(obj))
    raise FormatError(f"unknown witness class {kind!r}")


def _dims_obj(d: CorrelationDims) -> dict:
    return {"X": d.x, "Y": d.y, "A": d.a, "B": d.b}


def dims_from_json(obj: Any) -> CorrelationDims:
    return CorrelationDims(int(obj["X"]), int(obj["Y"]), int(obj["A"]), int(obj["B"]))


def correlation_to_json(corr) -> dict:
    out: dict = {"dims": _dims_obj(corr.dims)}
    if isinstance(corr, QnsCorrelation):
        out["kind"] = "qns"
        out["choi"] = matrix_to_json(corr.choi)
    elif isinstance(corr, CqnsCorrelation):
        out["kind"] = "cqns"
        out["states"] = [[matrix_to_json(corr.states[x, y])
                          for y in range(corr.dims.y)] for x in range(corr.dims.x)]
    elif isinstance(corr, NsCorrelation):
        out["kind"] = "ns"
        out["table"] = corr.table.tolist()
    else:
        raise FormatError(f"unknown correlation type {type(corr)!r}")
    if corr.witness is not None:
        out["witness"] = witness_to_json(corr.witness)
    return out


def correlation_from_json(obj: Any):
    try:
        kind = obj["kind"]
        dims = dims_from_json(obj["dims"])
    except (TypeError, KeyError) as exc:
        raise FormatError(f"not a correlation object: {exc}") from exc
    witness = witness_from_json(obj["witness"]) if "witness" in obj else None
    if kind == "qns":
        return QnsCorrelation(dims, matrix_from_json(obj["choi"]), witness)
    if kind == "cqns":
        states = np.stack([np.stack([matrix_from_json(m) for m in row])
                           for row in obj["states"]])
        return CqnsCorrelation(dims, states, witness)
    if kind == "ns":
        return NsCorrelation(dims, np.asarray(obj["table"], dtype=float), witness)
    raise FormatError(f"unknown correlation kind {kind!r}")


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def graph_from_json(obj: Any) -> Graph:
    try:
        return Graph.from_edges(int(obj["n"]), obj["edges"])
    except (TypeError, KeyError, ValueError) as exc:
        raise FormatError(f"not a graph object: {exc}") from exc


def game_to_json(g: ConstraintGame) -> dict:
    out = {
        "inDims": list(g.in_dims),
        "outDims": list(g.out_dims),
        "classicalInput": g.classical_input,
        "constraints": [{"U": [vector_to_json(u[:, k]) for k in range(u.shape[1])],
                         "V": [vector_to_json(v[:, k]) for k in range(v.shape[1])]}
                        for u, v in g.constraints],
    }
    if g.rule is not None:
        out["rule"] = g.rule.table.tolist()
    return out


def game_from_json(obj: Any) -> ConstraintGame:
    try:
        if "rule" in obj and "constraints" not in obj:
            from .games import from_rule
            return from_rule(np.asarray(obj["rule"]))
        in_dims = tuple(int(d) for d in obj["inDims"])
        out_dims = tuple(int(d) for d in obj["outDims"])
        din = in_dims[0] * in_dims[1]
        dout = out_dims[0] * out_dims[1]
        constraints = []
        for c in obj["constraints"]:
            u_cols = [vector_from_json(v) for v in c["U"]]
            v_cols = [vector_from_json(v) for v in c["V"]]
            u = np.column_stack(u_cols) if u_cols else np.zeros((din, 0), dtype=complex)
            v = np.column_stack(v_cols) if v_cols else np.zeros((dout, 0), dtype=complex)
            constraints.append((u, v))
        rule = RuleFunction(np.asarray(obj["rule"])) if "rule" in obj else None
        return ConstraintGame(in_dims, out_dims, bool(obj["classicalInput"]),
                              tuple(constraints), rule)
    except (TypeError, KeyError, ValueError) as exc:
        raise FormatError(f"not a game object: {exc}") from exc


def load(path_or_obj) -> Any:
    """Parse a JSON file (path, '-' for stdin) into its payload object."""
    import sys
    if isinstance(path_or_obj, (dict, list)):
        obj = path_or_obj
    elif path_or_obj == "-":
        obj = json.load(sys.stdin)
    else:
        with open(path_or_obj, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    return obj


def detect_payload(obj: Any):
    """Instantiate whichever payload type the JSON object encodes."""
    if not isinstance(obj, dict):
        raise FormatError("top-level JSON payload must be an object")
    if "kind" in obj:
        return correlation_from_json(obj)
    if "dimH" in obj and "matrix" in obj:
        return stochastic_from_json(obj)
    if "algebra" in obj:
        return alg_stochastic_from_json(obj)
    if "constraints" in obj or ("rule" in obj and "inDims" not in obj and "kind" not in obj):
        return game_from_json(obj)
    if "edges" in obj and "n" in obj:
        return graph_from_json(obj)
    if "rows" in obj and "data" in obj:
        return matrix_from_json(obj)
    raise FormatError("unrecognised payload")


def dump_json(obj: Any) -> str:
    """Deterministic JSON rendering for reports and payloads."""
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
