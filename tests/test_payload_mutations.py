"""Every payload the CLI reads fails closed on a leaf or container of the wrong JSON type.

Each case starts from the smallest valid payload of one kind, with the command
that reads it.  One leaf the decoder reads is changed at a time, to true, "x",
null or [], and an integer also to 1.5; each required key is deleted once; and
each list or object under a key is replaced whole by {}, [], true, "x", null,
1.5, [[1, 2, 3]] or [[]].  Within a number array only the first entry changes,
because numpy reads the array in one conversion.  Every mutation must exit 2
with one ``error:`` line that names what was changed: the key, or for an entry
of a pair array or number table, that array's message.  Fed straight to the
decoder its command uses, every mutation raises a ``ValueError`` and nothing else.
"""

from __future__ import annotations

import json
import re
from functools import partial

import numpy as np
import pytest

from qnskit import io
from qnskit import rand as qr
from qnskit.cli import run
from qnskit.correlations import CorrelationDims, NsCorrelation, build_quantum
from qnskit.games import colouring_game
from qnskit.graphs import Graph
from qnskit.symmetry import build_tracial_cqns, build_tracial_ns


def _plain(tree) -> dict:
    """``tree`` as ``json.load`` reads it back."""
    return json.loads(io.dump_json(tree))


def _payloads() -> dict:
    """Name -> (argv, the valid payload it reads as payload.json, the payload's
    optional keys, the other files argv reads by name, the decoder argv uses)."""
    rng = np.random.default_rng(20240901)
    e, f = qr.random_stochastic(rng, 2, 2, 1), qr.random_stochastic(rng, 2, 2, 1)
    sigma = qr.random_state(rng, 1)
    alg = qr.random_algebra(rng, 1, 1)
    strategy = io.correlation_to_json(NsCorrelation(CorrelationDims(2, 2, 2, 2),
                                                    qr.random_ns_table(rng, 2, 2, 2, 2)))
    graph = io.graph_to_json(Graph.complete(2))
    verify, detect = ["verify", "payload.json"], io.detect_payload
    return {
        "stochastic": (verify, _plain(io.stochastic_to_json(e)), (), {}, detect),
        "qns": (verify, _plain(io.correlation_to_json(build_quantum(e, f, sigma))),
                ("witness",), {}, detect),
        "cqns": (verify, _plain(io.correlation_to_json(build_tracial_cqns(
            qr.random_tracial_witness(rng, 2, 2, alg, "semiclassical")))), ("witness",), {},
            detect),
        "ns": (verify, _plain(io.correlation_to_json(build_tracial_ns(
            qr.random_tracial_witness(rng, 2, 2, alg, "classical")))), ("witness",), {}, detect),
        "local witness": (["build", "local", "payload.json"], _plain({
            "dims": {"X": 2, "Y": 2, "A": 2, "B": 2}, "weights": [1.0],
            "alice": [io.matrix_to_json(qr.random_channel_choi(rng, 2, 2))],
            "bob": [io.matrix_to_json(qr.random_channel_choi(rng, 2, 2))]}), (), {},
            partial(io.witness_from_json, kind="local")),
        "quantum witness": (["build", "quantum", "payload.json"], _plain({
            "E": io.stochastic_to_json(e), "F": io.stochastic_to_json(f),
            "sigma": io.matrix_to_json(sigma)}), (), {},
            partial(io.witness_from_json, kind="quantum")),
        "tracial witness": (["build", "tracial", "payload.json"], _plain(io.alg_stochastic_to_json(
            qr.random_tracial_witness(rng, 2, 2, alg))), (), {},
            partial(io.witness_from_json, kind="tracial")),
        # true in place of the vertex 0 reads as the edge (1, 2), which a graph may hold
        "graph": (["theta", "payload.json"], {"n": 3, "edges": [[0, 2]]}, (), {}, detect),
        "constraint game": (["check-game", "payload.json", "strategy.json"],
                            _plain(io.game_to_json(colouring_game(Graph.complete(2), 2))),
                            (), {"strategy.json": strategy}, detect),
        "rule game": (["check-game", "payload.json", "strategy.json"],
                      {"rule": np.ones((2, 2, 2, 2), dtype=int).tolist()}, (),
                      {"strategy.json": strategy}, detect),
        "orthrep vectors": (["orthrep", "graph.json", "payload.json"], _plain(
            {"vectors": [io.vector_to_json(v) for v in np.eye(2, dtype=complex)]}), (),
            {"graph.json": graph}, io.vectors_from_json),
    }


def _numbers(tree) -> bool:
    """Whether ``tree`` is a number or a nested list of numbers (and holds one)."""
    if isinstance(tree, list):
        return bool(tree) and all(map(_numbers, tree))
    return type(tree) in (int, float)


def _leaves(tree, path=()):
    """The paths of the leaves a decoder reads: every scalar, but only the first
    entry of a number array."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaves(value, (*path, key))
    elif isinstance(tree, list):
        for i, value in enumerate(tree[:1] if _numbers(tree) else tree):
            yield from _leaves(value, (*path, i))
    else:
        yield path


def _keys(tree, path=()):
    """The paths of every dict key in ``tree``."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield (*path, key)
            yield from _keys(value, (*path, key))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _keys(value, (*path, i))


def _get(tree, path):
    for step in path:
        tree = tree[step]
    return tree


_OPEN = "FOUND: a boolean among [re, im] pairs is read as 0 or 1 (io._complex)"


def _read_as_number(argv, path, leaf) -> bool:
    """Whether ``true`` in place of ``leaf`` is read as 1 and accepted: the open FOUND,
    in [re, im] pairs.  ``build`` gates every matrix it reads, so it
    refuses the changed entry unless that entry was 1 already; a game's ``U``
    refuses it too, since input subspaces must be spanned by standard basis vectors."""
    array = next(step for step in reversed(path) if type(step) is str)
    return array in {"data", "V", "vectors"} and (leaf == 1 or argv[0] != "build")


_PAYLOADS = _payloads()
_DELETE = object()
#: What replaces each list or object under a key.
_CONTAINER_VALUES = ({}, [], True, "x", None, 1.5, [[1, 2, 3]], [[]])
#: [] in place of these keys leaves a valid payload: the edgeless graph, a game with
#: no constraints, and a constraint on the zero subspace.
_STILL_VALID = {"edges", "constraints", "U", "V"}
#: Mutations the decoder reads and the command's own gate refuses: an orthogonal
#: representation's vectors are counted as it is coloured.
_GATED_LATER = {"orthrep vectors:vectors=[]", "orthrep vectors:vectors=[[]]"}
#: The message of each pair array and number table, which an error about an entry names.
_PAIRS = {"data": "matrix data must be [re, im] number pairs",
          "vectors": "vector entries must be [re, im] number pairs",
          "U": "U must hold vectors of", "V": "V must hold vectors of"}
_ARRAYS = {**_PAIRS, "table": "ns table entries must be numbers",
           "rule": "rule entries must be 0 or 1",
           "edges": "edges must be pairs of integer vertices"}


def _param(name, path, value, marks=()):
    where = ".".join(map(str, path))
    shown = f"del {where}" if value is _DELETE else f"{where}={json.dumps(value)}"
    return pytest.param(name, path, value, marks=marks, id=f"{name}:{shown}")


def _mutations():
    """Every leaf mutation and key deletion of every payload."""
    for name, (argv, payload, optional, _, _) in _PAYLOADS.items():
        for path in _leaves(payload):
            leaf = _get(payload, path)
            for value in (True, "x", None, [], *([1.5] if type(leaf) is int else [])):
                if type(value) is type(leaf) and value == leaf:
                    continue
                marks = [pytest.mark.xfail(strict=True, reason=_OPEN)] * (
                    value is True and _read_as_number(argv, path, leaf))
                yield _param(name, path, value, marks)
        for path in _keys(payload):
            if path not in [(key,) for key in optional]:
                yield _param(name, path, _DELETE)


def _container_mutations():
    """Every replacement of a list or object under a key, but those that stay valid."""
    for name, (_, payload, _, _, _) in _PAYLOADS.items():
        for path in _keys(payload):
            if isinstance(_get(payload, path), (dict, list)):
                for value in _CONTAINER_VALUES:
                    if value != _get(payload, path) and not (
                            value == [] and path[-1] in _STILL_VALID):
                        yield _param(name, path, value)


def _boolean_in_pairs(path, value) -> bool:
    """Whether ``value`` is true in [re, im] pairs, which the decoder reads as 1: the open
    FOUND, refused (if at all) by a gate of the model that names no array."""
    return value is True and next(s for s in reversed(path) if type(s) is str) in _PAIRS


def _mutated(name, path, value):
    """The payload ``name`` with ``value`` at ``path``, or with that key deleted."""
    mutated = json.loads(json.dumps(_PAYLOADS[name][1]))
    *parent, last = path
    if value is _DELETE:
        del _get(mutated, parent)[last]
    else:
        _get(mutated, parent)[last] = value
    return mutated


def _run(tmp_path, argv, files: dict) -> int:
    """``cli.run(argv)`` with each of ``files`` written to ``tmp_path`` under its name."""
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    return run([str(tmp_path / arg) if arg in files else arg for arg in argv])


def _names(path) -> list:
    """Patterns of what an error about ``path`` names: its key, in the singular or plural,
    unless ``path`` is an entry of a pair array or number table, whose message it names
    instead (one replaced whole may be named either way)."""
    i = max(i for i, step in enumerate(path) if type(step) is str)
    key = path[i]
    names = [rf"\b{re.escape(key.removesuffix('s'))}s?\b"]
    if key in _ARRAYS:
        names = [re.escape(_ARRAYS[key])] + names * (i == len(path) - 1)
    return names


def _exits_2_naming_the_change(name, path, value, tmp_path, capsys):
    argv, _, _, others, _ = _PAYLOADS[name]
    code = _run(tmp_path, argv, {**others, "payload.json": _mutated(name, path, value)})
    err = capsys.readouterr().err
    assert (code, err.count("\n"), err[:7]) == (2, 1, "error: "), err
    names = _names(path)
    assert _boolean_in_pairs(path, value) or any(re.search(n, err) for n in names), (names, err)


@pytest.mark.parametrize("name, path, value", _mutations())
def test_a_mutated_leaf_exits_2_with_one_error_line(name, path, value, tmp_path, capsys):
    _exits_2_naming_the_change(name, path, value, tmp_path, capsys)


@pytest.mark.parametrize("name, path, value", _container_mutations())
def test_a_mutated_container_exits_2_with_one_error_line(name, path, value, tmp_path, capsys):
    _exits_2_naming_the_change(name, path, value, tmp_path, capsys)


@pytest.mark.parametrize("name, path, value", [
    param for param in (*_mutations(), *_container_mutations())
    if not _boolean_in_pairs(*param.values[1:]) and param.id not in _GATED_LATER])
def test_a_decoder_raises_only_value_errors(name, path, value):
    """The decoder each command uses refuses a mutation with a ``FormatError`` or a
    model's gate, never a ``KeyError``, ``TypeError``, ``IndexError`` or ``AttributeError``."""
    with pytest.raises(ValueError):
        _PAYLOADS[name][4](_mutated(name, path, value))


@pytest.mark.parametrize("name", list(_PAYLOADS))
def test_each_unmutated_payload_is_read(name, tmp_path, capsys):
    argv, payload, _, others, _ = _PAYLOADS[name]
    assert _run(tmp_path, argv, {**others, "payload.json": payload}) in (0, 1)
    assert "error: " not in capsys.readouterr().err  # a produced payload's report is there
