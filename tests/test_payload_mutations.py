"""Every payload the CLI reads fails closed on a leaf of the wrong JSON type.

Each case starts from the smallest valid payload of one kind, with the command
that reads it.  One leaf the decoder reads is changed at a time, to true, "x",
null or [], and an integer also to 1.5; each required key is deleted once.
Within a number array only the first entry changes, because numpy reads the
array in one conversion.  Every mutation must exit 2 with one ``error:`` line.
"""

from __future__ import annotations

import json

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
    optional keys, the other files argv reads by name)."""
    rng = np.random.default_rng(20240901)
    e, f = qr.random_stochastic(rng, 2, 2, 1), qr.random_stochastic(rng, 2, 2, 1)
    sigma = qr.random_state(rng, 1)
    alg = qr.random_algebra(rng, 1, 1)
    strategy = io.correlation_to_json(NsCorrelation(CorrelationDims(2, 2, 2, 2),
                                                    qr.random_ns_table(rng, 2, 2, 2, 2)))
    graph = io.graph_to_json(Graph.complete(2))
    verify = ["verify", "payload.json"]
    return {
        "stochastic": (verify, _plain(io.stochastic_to_json(e)), (), {}),
        "qns": (verify, _plain(io.correlation_to_json(build_quantum(e, f, sigma))),
                ("witness",), {}),
        "cqns": (verify, _plain(io.correlation_to_json(build_tracial_cqns(
            qr.random_tracial_witness(rng, 2, 2, alg, "semiclassical")))), ("witness",), {}),
        "ns": (verify, _plain(io.correlation_to_json(build_tracial_ns(
            qr.random_tracial_witness(rng, 2, 2, alg, "classical")))), ("witness",), {}),
        "local witness": (["build", "local", "payload.json"], _plain({
            "dims": {"X": 2, "Y": 2, "A": 2, "B": 2}, "weights": [1.0],
            "alice": [io.matrix_to_json(qr.random_channel_choi(rng, 2, 2))],
            "bob": [io.matrix_to_json(qr.random_channel_choi(rng, 2, 2))]}), (), {}),
        "quantum witness": (["build", "quantum", "payload.json"], _plain({
            "E": io.stochastic_to_json(e), "F": io.stochastic_to_json(f),
            "sigma": io.matrix_to_json(sigma)}), (), {}),
        "tracial witness": (["build", "tracial", "payload.json"], _plain(io.alg_stochastic_to_json(
            qr.random_tracial_witness(rng, 2, 2, alg))), (), {}),
        # true in place of the vertex 0 reads as the edge (1, 2), which a graph may hold
        "graph": (["theta", "payload.json"], {"n": 3, "edges": [[0, 2]]}, (), {}),
        "constraint game": (["check-game", "payload.json", "strategy.json"],
                            _plain(io.game_to_json(colouring_game(Graph.complete(2), 2))),
                            (), {"strategy.json": strategy}),
        "rule game": (["check-game", "payload.json", "strategy.json"],
                      {"rule": np.ones((2, 2, 2, 2), dtype=int).tolist()}, (),
                      {"strategy.json": strategy}),
        "orthrep vectors": (["orthrep", "graph.json", "payload.json"], _plain(
            {"vectors": [io.vector_to_json(v) for v in np.eye(2, dtype=complex)]}), (),
            {"graph.json": graph}),
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


_OPEN = "FOUND: a boolean among numbers is read as 0 or 1 (io._complex, the ns table)"


def _read_as_number(argv, path, leaf) -> bool:
    """Whether ``true`` in place of ``leaf`` is read as 1 and accepted: the open FOUND,
    in [re, im] pairs and NS tables.  ``build`` gates every matrix it reads, so it
    refuses the changed entry unless that entry was 1 already; a game's ``U``
    refuses it too, since input subspaces must be spanned by standard basis vectors."""
    array = next(step for step in reversed(path) if type(step) is str)
    return array in {"data", "V", "vectors", "table"} and (leaf == 1 or argv[0] != "build")


_PAYLOADS = _payloads()
_DELETE = object()


def _mutations():
    for name, (argv, payload, optional, others) in _PAYLOADS.items():
        for path in _leaves(payload):
            leaf = _get(payload, path)
            for value in (True, "x", None, [], *([1.5] if type(leaf) is int else [])):
                if type(value) is type(leaf) and value == leaf:
                    continue
                marks = [pytest.mark.xfail(strict=True, reason=_OPEN)] * (
                    value is True and _read_as_number(argv, path, leaf))
                yield pytest.param(argv, payload, path, value, others, marks=marks,
                                   id=f"{name}:{'.'.join(map(str, path))}={json.dumps(value)}")
        for path in _keys(payload):
            if path not in [(key,) for key in optional]:
                yield pytest.param(argv, payload, path, _DELETE, others,
                                   id=f"{name}:del {'.'.join(map(str, path))}")


def _run(tmp_path, argv, files: dict) -> int:
    """``cli.run(argv)`` with each of ``files`` written to ``tmp_path`` under its name."""
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    return run([str(tmp_path / arg) if arg in files else arg for arg in argv])


@pytest.mark.parametrize("argv, payload, path, value, others", _mutations())
def test_a_mutated_leaf_exits_2_with_one_error_line(argv, payload, path, value, others,
                                                    tmp_path, capsys):
    mutated = json.loads(json.dumps(payload))
    *parent, last = path
    if value is _DELETE:
        del _get(mutated, parent)[last]
    else:
        _get(mutated, parent)[last] = value
    code = _run(tmp_path, argv, {**others, "payload.json": mutated})
    err = capsys.readouterr().err
    assert (code, err.count("\n"), err[:7]) == (2, 1, "error: "), err


@pytest.mark.parametrize("name", list(_PAYLOADS))
def test_each_unmutated_payload_is_read(name, tmp_path, capsys):
    argv, payload, _, others = _PAYLOADS[name]
    assert _run(tmp_path, argv, {**others, "payload.json": payload}) in (0, 1)
    assert "error: " not in capsys.readouterr().err  # a produced payload's report is there
