"""JSON interchange for matrices, correlations, witnesses, graphs and games.

Matrices are stored as {"rows": n, "cols": m, "data": [[re, im], ...]} with
row-major data; every other payload is built from this block plus plain
dimension fields.  In the trees of the ``*_to_json`` functions each list of
[re, im] pairs is a read-only (n, 2) float array.  ``json`` lays out every
payload and report as ``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)``
would, and the writer streams only the pair arrays, in chunks of the same bytes.

Every decoder reads every field through ``_get`` / ``_each`` as one of ``_KINDS``
or a nested decoder, number tables through ``_entries``, pair data through
``_complex``; it raises only a ``FormatError`` naming the field or array at
fault, or the ``ValueError`` of a model's own gate.
"""

from __future__ import annotations

import json
import math
from functools import partial
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


#: The types ``json.load`` gives each kind of field (a list may also be a pair array).
_KINDS = {"an integer": (int,), "a number": (int, float), "true or false": (bool,),
          "a string": (str,), "an object": (dict,), "a list": (list, np.ndarray)}
_NAMES = {type(None): "null", dict: "an object", list: "a list", np.ndarray: "an array"}


def _typed(value: Any, kind, field: str) -> Any:
    """``value`` of ``field`` read as ``kind``: one of ``_KINDS``, which refuses any other
    type (a string, a float for an integer, a boolean for a number), or a nested decoder."""
    if callable(kind):
        return kind(value, field)
    if type(value) not in _KINDS[kind]:
        raise FormatError(f"{field} must be {kind}, got {_NAMES.get(type(value)) or repr(value)}")
    return value


def _get(obj: Any, key: str, kind, where: str, default: Any = ...) -> Any:
    """The field ``key`` of the object ``where`` read as ``kind``, or ``default`` if absent."""
    if key not in _typed(obj, "an object", where):
        if default is ...:
            raise FormatError(f"{where} has no {key!r} field")
        return default
    return _typed(obj[key], kind, key)


def _each(obj: Any, key: str, kind, where: str) -> list:
    """The list field ``key`` of the object ``where``, each item read as ``kind``."""
    return [_typed(item, kind, key) for item in _get(obj, key, "a list", where)]


#: The error of each number table field: ``{entry}`` is the bad leaf, ``{row}`` its list.
_TABLES = {"table": "ns table entries must be numbers",
           "rule": "rule entries must be 0 or 1, got {entry:.80}",
           "edges": "edges must be pairs of integer vertices, got {row:.80}"}


def _entries(tree: Any, field: str) -> np.ndarray:
    """The number table ``field`` as one array, ``[]`` as it is; any other leaf (a boolean
    too, which numpy reads as 0 or 1) or ragged nesting raises its ``_TABLES`` message."""
    message, rows = _TABLES[field], [_typed(tree, "a list", field)]
    while rows:
        row = rows.pop()
        for entry in row:
            if type(entry) is list:
                rows.append(entry)
            elif type(entry) not in _KINDS["a number"]:
                raise FormatError(message.format(entry=json.dumps(entry), row=json.dumps(row)))
    try:
        return np.asarray(tree) if len(tree) else tree
    except ValueError:  # ragged nesting
        raise FormatError(message.format(entry="ragged nesting", row="ragged nesting")) from None


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


def matrix_from_json(obj: Any, where: str = "matrix") -> np.ndarray:
    rows, cols = (_get(obj, key, "an integer", where) for key in ("rows", "cols"))
    data = _get(obj, "data", "a list", where)
    if len(data) != rows * cols:
        raise FormatError(f"matrix data length {len(data)} != {rows}x{cols}")
    flat = _complex(data, (len(data),), "matrix data must be [re, im] number pairs")
    return flat.reshape(rows, cols)


def vector_from_json(obj: Any) -> np.ndarray:
    return _complex(obj, (len(obj),), "vector entries must be [re, im] number pairs")


def vectors_from_json(obj: Any) -> list:
    return [vector_from_json(v) for v in _each(obj, "vectors", "a list", "vectors file")]


def stochastic_to_json(e: StochasticOperatorMatrix) -> dict:
    return {"dimX": e.dim_x, "dimA": e.dim_a, "dimH": e.dim_h,
            "matrix": matrix_to_json(e.mat)}


def stochastic_from_json(obj: Any, where: str = "stochastic matrix") -> StochasticOperatorMatrix:
    dims = [_get(obj, key, "an integer", where) for key in ("dimX", "dimA", "dimH")]
    return StochasticOperatorMatrix(*dims, _get(obj, "matrix", matrix_from_json, where))


def algebra_to_json(alg: TracialAlgebra) -> dict:
    return {"blocks": list(alg.block_dims), "weights": list(alg.weights)}


def algebra_from_json(obj: Any, where: str = "algebra") -> TracialAlgebra:
    return TracialAlgebra(tuple(_each(obj, "blocks", "an integer", where)),
                          tuple(_each(obj, "weights", "a number", where)))


def alg_stochastic_to_json(e: AlgStochasticMatrix) -> dict:
    return {"algebra": algebra_to_json(e.alg), "dimX": e.dim_x, "dimA": e.dim_a,
            "blocks": [matrix_to_json(b.mat) for b in e.blocks]}


def alg_stochastic_from_json(obj: Any, where: str = "stochastic algebra matrix"):
    alg = _get(obj, "algebra", algebra_from_json, where)
    dx, da = (_get(obj, key, "an integer", where) for key in ("dimX", "dimA"))
    blocks = _each(obj, "blocks", matrix_from_json, where)
    if len(blocks) != alg.n_blocks:
        raise FormatError(f"{len(blocks)} blocks for an algebra of {alg.n_blocks}")
    return AlgStochasticMatrix(alg, tuple(StochasticOperatorMatrix(dx, da, d, m)
                                          for d, m in zip(alg.block_dims, blocks)))


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


def witness_from_json(obj: Any, where: str = "witness", kind: str = "", dims=None):
    """The witness ``obj``, of class ``kind`` or its own; a local one of ``dims`` or its own."""
    kind = kind or _get(obj, "class", "a string", where)
    if kind == "local":
        weights, alice, bob = (tuple(_each(obj, key, read, where)) for key, read in (
            ("weights", "a number"), ("alice", matrix_from_json), ("bob", matrix_from_json)))
        return LocalWitness(weights, alice, bob, dims or _get(obj, "dims", dims_from_json, where))
    if kind in ("quantum", "commuting"):
        e, f = (_get(obj, key, stochastic_from_json, where) for key in "EF")
        return QuantumWitness(kind, e, f, _get(obj, "sigma", matrix_from_json, where))
    if kind == "tracial":
        return TracialWitness(alg_stochastic_from_json(obj, where))
    raise FormatError(f"unknown witness class {kind!r}")


def _dims_obj(d: CorrelationDims) -> dict:
    return {"X": d.x, "Y": d.y, "A": d.a, "B": d.b}


def dims_from_json(obj: Any, where: str = "dims") -> CorrelationDims:
    return CorrelationDims(*(_get(obj, key, "an integer", where) for key in "XYAB"))


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
    kind = _get(obj, "kind", "a string", "correlation")
    dims = _get(obj, "dims", dims_from_json, "correlation")
    witness = _get(obj, "witness", partial(witness_from_json, dims=dims), "correlation", None)
    if kind == "qns":
        return QnsCorrelation(dims, _get(obj, "choi", matrix_from_json, "correlation"), witness)
    if kind == "cqns":
        states = [[matrix_from_json(m, "states") for m in row]
                  for row in _each(obj, "states", "a list", "correlation")]
        return CqnsCorrelation(dims, states, witness)
    if kind == "ns":
        return NsCorrelation(dims, _get(obj, "table", _entries, "correlation"), witness)
    raise FormatError(f"unknown correlation kind {kind!r}")


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "edges": g.edges.tolist()}


def graph_from_json(obj: Any) -> Graph:
    return Graph(_get(obj, "n", "an integer", "graph"), _get(obj, "edges", _entries, "graph"))


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


def game_from_json(obj: Any) -> ConstraintGame:
    """A constraint game, or with a "rule" but no "constraints" or "inDims", the rule's game."""
    rule = _get(obj, "rule", _entries, "game", None)
    if rule is not None and "constraints" not in obj and "inDims" not in obj:
        return from_rule(rule)
    dims = [tuple(_each(obj, key, "an integer", "game")) for key in ("inDims", "outDims")]
    if [len(d) for d in dims] != [2, 2]:
        raise FormatError(f"inDims and outDims must be integer pairs, got {dims}")
    constraints = tuple(tuple(_columns(_get(c, key, "a list", "constraints"), math.prod(d),
                                       f"constraint {k}: {key}") for key, d in zip("UV", dims))
                        for k, c in enumerate(_get(obj, "constraints", "a list", "game")))
    return ConstraintGame(*dims, _get(obj, "classicalInput", "true or false", "game"),
                          constraints, None if rule is None else RuleFunction(rule))


def load(path_or_obj) -> Any:
    """Parse a JSON file (path, '-' for stdin) into its payload object."""
    import sys
    if path_or_obj == "-":
        return json.load(sys.stdin)
    with open(path_or_obj, "r", encoding="utf-8") as fh:
        return json.load(fh)


#: Marker fields -> the decoder of a payload that holds them all, in the order tried.
_DECODERS = (("kind", correlation_from_json), ("dimH+matrix", stochastic_from_json),
             ("algebra", alg_stochastic_from_json), ("constraints", game_from_json),
             ("rule", game_from_json), ("edges+n", graph_from_json),
             ("rows+data", matrix_from_json))


def detect_payload(obj: Any):
    """Decode the JSON object ``obj`` by the first marker fields it holds."""
    _typed(obj, "an object", "top-level JSON payload")
    for markers, decode in _DECODERS:
        if all(key in obj for key in markers.split("+")):
            return decode(obj)
    raise FormatError("unrecognised payload, with none of " + ", ".join(m for m, _ in _DECODERS))


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
