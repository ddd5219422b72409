"""JSON interchange for matrices, correlations, witnesses, graphs and games.

Matrices are stored as {"rows": n, "cols": m, "data": [[re, im], ...]} with
row-major data; every other payload is built from this block plus plain
dimension fields.  In the trees of the ``*_to_json`` functions each list of
[re, im] pairs is a read-only (n, 2) float array.  ``json`` lays out every
payload and report as ``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``
would, and the writer streams only the pair arrays, in chunks of the same bytes.
"""

from __future__ import annotations

import json
import math
from io import StringIO
from typing import Any

import numpy as np

from .algebra import AlgStochasticMatrix, TracialAlgebra
from .correlations import (CorrelationDims, CqnsCorrelation, LocalWitness,
                           NsCorrelation, QnsCorrelation, QuantumWitness,
                           TracialWitness)
from .games import ConstraintGame, RuleFunction, from_rule
from .graphs import Graph
from .linalg import asmatrix, orthonormal_columns, readonly
from .stochastic import StochasticOperatorMatrix


class FormatError(ValueError):
    """Malformed JSON payload."""


#: The types ``json.load`` gives for each kind of value a field may hold.
_KINDS = {"an integer": (int,), "a number": (int, float), "true or false": (bool,)}


def _typed(value: Any, field: str, kind: str = "an integer") -> Any:
    """``value`` if ``json.load`` gives it as ``kind``; anything else in ``field`` (a
    string, a float for an integer, a bool for a number) is refused."""
    if type(value) not in _KINDS[kind]:
        raise FormatError(f"{field} must be {kind}, got {value!r}")
    return value


def vector_to_json(v: np.ndarray) -> np.ndarray:
    """The entries of ``v``, row-major, as a read-only (n, 2) float array of [re, im]
    pairs: a view of C-ordered data the library holds read-only, else a copy."""
    return readonly(np.ascontiguousarray(v)).reshape(-1).view(float).reshape(-1, 2)


def matrix_to_json(m: np.ndarray) -> dict:
    m = asmatrix(m)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": vector_to_json(m)}


def _complex(data: Any, shape: tuple, message: str) -> np.ndarray:
    """``data``, [re, im] number pairs in lists or a pair array, as a complex array of ``shape``.

    One numpy conversion reads it all; a string, null or boolean entry, a pair
    of another arity or nesting of another shape raises ``FormatError(message)``.
    """
    try:
        pairs = np.asarray(data)
    except ValueError as exc:  # ragged nesting
        raise FormatError(message) from exc
    empty = pairs.size == 0 == math.prod(shape)
    if pairs.dtype.kind not in "iuf" or pairs.shape != (*shape, 2) and not empty:
        raise FormatError(message)
    pairs = np.ascontiguousarray(pairs.reshape(*shape, 2), dtype=float)
    return pairs.view(complex).reshape(shape)


def matrix_from_json(obj: Any) -> np.ndarray:
    try:
        rows, cols = _typed(obj["rows"], "rows"), _typed(obj["cols"], "cols")
        data = obj["data"]
    except (TypeError, KeyError) as exc:
        raise FormatError(f"not a matrix object: {exc}") from exc
    if len(data) != rows * cols:
        raise FormatError(f"matrix data length {len(data)} != {rows}x{cols}")
    flat = _complex(data, (len(data),), "matrix data must be [re, im] number pairs")
    return flat.reshape(rows, cols)


def vector_from_json(obj: Any) -> np.ndarray:
    return _complex(obj, (len(obj),), "vector entries must be [re, im] number pairs")


def stochastic_to_json(e: StochasticOperatorMatrix) -> dict:
    return {"dimX": e.dim_x, "dimA": e.dim_a, "dimH": e.dim_h,
            "matrix": matrix_to_json(e.mat)}


def stochastic_from_json(obj: Any) -> StochasticOperatorMatrix:
    try:
        return StochasticOperatorMatrix(*(_typed(obj[k], k) for k in ("dimX", "dimA", "dimH")),
                                        matrix_from_json(obj["matrix"]))
    except (TypeError, KeyError, ValueError) as exc:
        raise FormatError(f"not a stochastic operator matrix: {exc}") from exc


def algebra_to_json(alg: TracialAlgebra) -> dict:
    return {"blocks": list(alg.block_dims), "weights": list(alg.weights)}


def algebra_from_json(obj: Any) -> TracialAlgebra:
    return TracialAlgebra(tuple(_typed(d, "algebra blocks") for d in obj["blocks"]),
                          tuple(_typed(w, "algebra weights", "a number") for w in obj["weights"]))


def alg_stochastic_to_json(e: AlgStochasticMatrix) -> dict:
    return {"algebra": algebra_to_json(e.alg), "dimX": e.dim_x, "dimA": e.dim_a,
            "blocks": [matrix_to_json(b.mat) for b in e.blocks]}


def alg_stochastic_from_json(obj: Any) -> AlgStochasticMatrix:
    try:
        alg = algebra_from_json(obj["algebra"])
        dx, da = _typed(obj["dimX"], "dimX"), _typed(obj["dimA"], "dimA")
        if len(obj["blocks"]) != alg.n_blocks:
            raise FormatError(f"{len(obj['blocks'])} blocks for an algebra of {alg.n_blocks}")
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
    """The witness ``obj`` encodes; a local one reads its correlation's ``dims`` too."""
    kind = obj.get("class")
    if kind == "local":
        return LocalWitness(tuple(_typed(w, "weights", "a number") for w in obj["weights"]),
                            tuple(matrix_from_json(m) for m in obj["alice"]),
                            tuple(matrix_from_json(m) for m in obj["bob"]),
                            dims_from_json(obj["dims"]))
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
    return CorrelationDims(*(_typed(obj[k], k) for k in "XYAB"))


def correlation_to_json(corr) -> dict:
    out: dict = {"dims": _dims_obj(corr.dims)}
    if isinstance(corr, QnsCorrelation):
        out["kind"] = "qns"
        out["choi"] = matrix_to_json(corr.choi)
    elif isinstance(corr, CqnsCorrelation):
        out["kind"] = "cqns"
        out["states"] = [[matrix_to_json(m) for m in row] for row in corr.states]
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
    witness = None
    if "witness" in obj:
        if not isinstance(obj["witness"], dict):
            raise FormatError(f"witness must be an object, got {json.dumps(obj['witness'])[:40]}")
        witness = witness_from_json({**obj["witness"], "dims": obj["dims"]})
    if kind == "qns":
        return QnsCorrelation(dims, matrix_from_json(obj["choi"]), witness)
    if kind == "cqns":
        states = np.stack([np.stack([matrix_from_json(m) for m in row])
                           for row in obj["states"]])
        return CqnsCorrelation(dims, states, witness)
    if kind == "ns":
        table = np.asarray(obj["table"])
        if table.dtype.kind not in "iuf":
            raise FormatError("ns table entries must be numbers")
        return NsCorrelation(dims, table, witness)
    raise FormatError(f"unknown correlation kind {kind!r}")


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": g.edges.tolist()}


def graph_from_json(obj: Any) -> Graph:
    try:
        n, edges = _typed(obj["n"], "n"), obj["edges"]
        # numpy reads a JSON boolean as the vertex 0 or 1
        bad = next((e for e in edges if isinstance(e, (list, tuple))
                    and any(isinstance(v, bool) for v in e)), None)
        if bad is not None:
            raise FormatError(f"edges must be pairs of integer vertices, got {json.dumps(bad)}")
        return Graph.from_edges(n, edges)
    except (TypeError, KeyError, ValueError) as exc:
        raise FormatError(f"not a graph object: {exc}") from exc


def game_to_json(g: ConstraintGame) -> dict:
    out = {
        "inDims": list(g.in_dims),
        "outDims": list(g.out_dims),
        "classicalInput": g.classical_input,
        "constraints": [{"U": [vector_to_json(c) for c in u.T],
                         "V": [vector_to_json(c) for c in v.T]} for u, v in g.constraints],
    }
    if g.rule is not None:
        out["rule"] = g.rule.table.tolist()
    return out


def _columns(vectors, n: int, where: str) -> np.ndarray:
    """Orthonormal columns spanning the JSON ``vectors``, each of length ``n``."""
    message = f"{where} must hold vectors of {n} [re, im] number pairs"
    return orthonormal_columns(_complex(vectors, (len(vectors), n), message).T)


def _rule_table(rule: Any) -> np.ndarray:
    """The JSON ``rule`` as an array, unless it holds a boolean, which numpy reads as 0 or 1."""
    items = [rule]
    while items:
        item = items.pop()
        if isinstance(item, bool):
            raise FormatError(f"rule entries must be 0 or 1, got {json.dumps(item)}")
        if isinstance(item, list):
            items.extend(item)
    return np.asarray(rule)


def game_from_json(obj: Any) -> ConstraintGame:
    try:
        if "rule" in obj and "constraints" not in obj:
            return from_rule(_rule_table(obj["rule"]))
        in_dims = tuple(_typed(d, "inDims") for d in obj["inDims"])
        out_dims = tuple(_typed(d, "outDims") for d in obj["outDims"])
        din = in_dims[0] * in_dims[1]
        dout = out_dims[0] * out_dims[1]
        constraints = tuple((_columns(c["U"], din, f"constraint {k}: U"),
                             _columns(c["V"], dout, f"constraint {k}: V"))
                            for k, c in enumerate(obj["constraints"]))
        rule = RuleFunction(_rule_table(obj["rule"])) if "rule" in obj else None
        classical = _typed(obj["classicalInput"], "classicalInput", "true or false")
        return ConstraintGame(in_dims, out_dims, classical, constraints, rule)
    except (TypeError, KeyError, ValueError) as exc:
        raise FormatError(f"not a game object: {exc}") from exc


def load(path_or_obj) -> Any:
    """Parse a JSON file (path, '-' for stdin) into its payload object."""
    import sys
    if path_or_obj == "-":
        return json.load(sys.stdin)
    with open(path_or_obj, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
    if "constraints" in obj or ("rule" in obj and "inDims" not in obj):
        return game_from_json(obj)
    if "edges" in obj and "n" in obj:
        return graph_from_json(obj)
    if "rows" in obj and "data" in obj:
        return matrix_from_json(obj)
    raise FormatError("unrecognised payload")


#: Pairs formatted per write of a streamed pair list.
_CHUNK = 4096


def json_pieces(obj: Any) -> list:
    """The text of ``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`` as
    pieces for ``write_pieces``: strings, and a (pairs, level) tuple for each (n, 2)
    pair array at nesting ``level``, checked but not yet formatted.

    ``json`` lays out the whole tree, so whatever ``json.dumps`` raises on it (a
    non-finite float, an object JSON cannot hold) is raised before a byte is written.
    """
    pieces, text, arrays = [], [], []

    def pairs(a):
        if not isinstance(a, np.ndarray):
            return json.JSONEncoder.default(encoder, a)  # json's own TypeError
        if not a.size or not np.isfinite(a).all():
            return a.tolist()  # [], or json's own error, which names the value
        arrays.append(a)
        return None

    encoder = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False, default=pairs)
    # Without ``_one_shot`` ``iterencode`` runs json's pure-Python encoder, which
    # yields what ``default`` returns as its next chunk: here the placeholder null.
    for chunk in encoder.iterencode(obj):
        if not arrays:
            text.append(chunk)
            continue
        line = next((c for c in reversed(text) if "\n" in c), "")  # indents the array
        pieces += ["".join(text), (arrays.pop(), len(line.rpartition("\n")[2]) // 2)]
        text.clear()
    return pieces + ["".join(text)]


def _write_pairs(fh, pairs: np.ndarray, level: int) -> None:
    """Write an (n, 2) pair array at nesting ``level`` as ``json.dumps(indent=2)`` writes
    its list: ``_CHUNK`` pairs per write, each through one template and ``float.__repr__``."""
    outer, inner = "\n" + "  " * (level + 1), "\n" + "  " * (level + 2)
    pair, sep = f"[{inner}%r,{inner}%r{outer}]", "," + outer
    fh.write("[" + outer)
    for start in range(0, len(pairs), _CHUNK):
        chunk = pairs[start:start + _CHUNK].reshape(-1).tolist()
        fh.write((sep if start else "") + sep.join([pair] * (len(chunk) // 2)) % tuple(chunk))
    fh.write("\n" + "  " * level + "]")


def write_pieces(pieces: list, fh) -> None:
    """Write the ``json_pieces`` of a tree to the text stream ``fh``."""
    for piece in pieces:
        if type(piece) is str:
            fh.write(piece)
        else:
            _write_pairs(fh, *piece)


def write_json(obj: Any, fh) -> None:
    """Write exactly ``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`` to
    the text stream ``fh``; the tree is checked in full before the first write."""
    write_pieces(json_pieces(obj), fh)


def dump_json(obj: Any) -> str:
    """Deterministic JSON rendering for reports and payloads, as ``write_json`` writes it."""
    text = StringIO()
    write_json(obj, text)
    return text.getvalue()
