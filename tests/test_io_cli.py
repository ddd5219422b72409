import itertools
import json
import re
from io import StringIO

import numpy as np
import pytest
from conftest import plain
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnskit import io
from qnskit import rand as qr
from qnskit.algebra import abelian_algebra
from qnskit.cli import run
from qnskit.correlations import (CorrelationDims, CqnsCorrelation, LocalWitness, NsCorrelation,
                                 QnsCorrelation, build_local, build_quantum,
                                 build_tracial, from_classical)
from qnskit.games import colouring_game
from qnskit.graphs import Graph, cycle5_umbrella
from qnskit.linalg import TOL_ALG, max_entangled
from qnskit.symmetry import build_tracial_cqns, build_tracial_ns


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(plain(obj)))
    return str(path)


def test_matrix_roundtrip(rng):
    m = qr.complex_gaussian(rng, 3, 4)
    assert np.array_equal(io.matrix_from_json(io.matrix_to_json(m)), m)


def test_matrix_format_shape():
    obj = io.matrix_to_json(np.array([[1 + 2j]]))
    assert plain(obj) == {"rows": 1, "cols": 1, "data": [[1.0, 2.0]]}
    with pytest.raises(io.FormatError):
        io.matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})


def test_correlation_roundtrip_all_kinds(rng):
    e = qr.random_stochastic(rng, 2, 2, 2)
    f = qr.random_stochastic(rng, 2, 2, 2)
    q = build_quantum(e, f, qr.random_state(rng, 4))
    cq = build_tracial_cqns(qr.random_tracial_witness(rng, 2, 2, kind="semiclassical"))
    ns = build_tracial_ns(qr.random_tracial_witness(rng, 2, 2, kind="classical"))
    for corr in (q, cq, ns):
        back = io.correlation_from_json(io.correlation_to_json(corr))
        assert back.dims == corr.dims
        assert type(back.witness) is type(corr.witness)
    back_q = io.correlation_from_json(io.correlation_to_json(q))
    assert np.max(np.abs(back_q.choi - q.choi)) <= 1e-15


def test_tracial_witness_roundtrip(rng):
    wit = qr.random_tracial_witness(rng, 2, 2)
    corr = build_tracial(wit)
    back = io.correlation_from_json(io.correlation_to_json(corr))
    from qnskit.correlations import witness_residual
    assert witness_residual(back) <= 1e-12


def test_game_roundtrip():
    game = colouring_game(Graph.complete(3), 2)
    back = io.game_from_json(io.game_to_json(game))
    assert back.n_constraints == game.n_constraints
    for (u1, v1), (u2, v2) in zip(game.constraints, back.constraints):
        assert np.max(np.abs(u1 @ u1.conj().T - u2 @ u2.conj().T)) <= 1e-12
        assert np.max(np.abs(v1 @ v1.conj().T - v2 @ v2.conj().T)) <= 1e-12


def test_rule_game_roundtrip_keeps_rule(rng):
    from qnskit.games import from_rule
    rule = (rng.random((2, 2, 2, 2)) > 0.4).astype(int)
    game = from_rule(rule)
    back = io.game_from_json(io.game_to_json(game))
    assert back.rule is not None
    assert np.array_equal(back.rule.table, game.rule.table)
    bare = io.game_from_json({"rule": rule.tolist()})
    assert bare.n_constraints == 4


def test_detect_payload_variants(rng):
    assert isinstance(io.detect_payload({"n": 2, "edges": []}), Graph)
    assert isinstance(io.detect_payload(io.stochastic_to_json(
        qr.random_stochastic(rng, 2, 2, 1))), object)
    with pytest.raises(io.FormatError):
        io.detect_payload({"mystery": 1})
    with pytest.raises(io.FormatError):
        io.detect_payload([1, 2, 3])


def test_report_rendering_is_deterministic():
    text = io.dump_json({"b": 1.5, "a": [1, 2]})
    assert text == io.dump_json({"a": [1, 2], "b": 1.5})


def _arrays(tree):
    """Every array leaf of a payload tree."""
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, list):
        return [a for value in tree for a in _arrays(value)]
    return [tree] if isinstance(tree, np.ndarray) else []


def test_pair_arrays_view_read_only_data_and_copy_the_callers(rng):
    e, f = qr.random_stochastic(rng, 2, 2, 2), qr.random_stochastic(rng, 2, 2, 2)
    corr = build_quantum(e, f, qr.random_state(rng, 4))
    data = io.matrix_to_json(corr.choi)["data"]
    assert data.shape == (corr.choi.size, 2) and data.dtype == float
    assert not data.flags.writeable and np.shares_memory(data, corr.choi)
    assert np.shares_memory(io.stochastic_to_json(e)["matrix"]["data"], e.mat)
    mine = qr.complex_gaussian(rng, 3, 4)
    for m in (mine, np.asfortranarray(mine), mine.T):
        for pairs in (io.matrix_to_json(m)["data"], io.vector_to_json(m)):
            assert not pairs.flags.writeable and not np.shares_memory(pairs, mine)
            assert np.array_equal(pairs.view(complex).reshape(m.shape), m)
    trees = [io.correlation_to_json(c) for c in (
        corr, build_tracial_cqns(qr.random_tracial_witness(rng, 2, 2, kind="semiclassical")),
        build_local([1.0], [qr.random_channel_choi(rng, 2, 2)],
                    [qr.random_channel_choi(rng, 2, 2)], CorrelationDims(2, 2, 2, 2)),
        build_tracial(qr.random_tracial_witness(rng, 2, 2)))]
    trees.append(io.game_to_json(colouring_game(Graph.cycle(3), 3)))
    for tree in trees:
        arrays = _arrays(tree)
        assert arrays and all(not a.flags.writeable and a.dtype == float and a.ndim == 2
                              and a.shape[1] == 2 for a in arrays)
        with pytest.raises(TypeError, match="ndarray is not JSON serializable"):
            json.dumps(tree)
        assert io.dump_json(tree) == _oracle(tree)


def test_decoded_entries_keep_their_values():
    m = io.matrix_from_json({"rows": 2, "cols": 1, "data": [[1, -0.0], [float("inf"), 2.5]]})
    assert m.shape == (2, 1) and m.dtype == complex
    assert m[0, 0] == 1 and np.signbit(m[0, 0].imag) and m[1, 0] == complex(float("inf"), 2.5)
    assert io.matrix_from_json({"rows": 3, "cols": 0, "data": []}).shape == (3, 0)
    assert io.vector_from_json([]).shape == (0,)
    assert np.array_equal(io.vector_from_json([[0, 1], [2.5, -3]]), [1j, 2.5 - 3j])


# ---------------------------------------------------------------------------
# JSON writer


def _oracle(obj) -> str:
    return json.dumps(plain(obj), sort_keys=True, indent=2, allow_nan=False)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 1e308, -1e308])
_MATRICES = st.tuples(st.integers(0, 3), st.integers(0, 3)).flatmap(
    lambda shape: st.lists(_FLOATS, min_size=2 * shape[0] * shape[1],
                           max_size=2 * shape[0] * shape[1]).map(
        lambda xs: io.matrix_to_json(np.array(xs, dtype=float).view(complex).reshape(shape))))
_PAIRS = st.lists(st.tuples(_FLOATS, _FLOATS), max_size=4).map(
    lambda xs: np.array(xs, dtype=float).reshape(-1, 2))
_LEAVES = (st.none() | st.booleans() | st.integers() | _FLOATS | st.text()
           | st.lists(st.lists(_FLOATS, min_size=2, max_size=2), max_size=4) | _MATRICES
           | _PAIRS)
# one key type per dict: json cannot sort mixed keys
_KEYS = st.sampled_from([st.text(), st.integers(), _FLOATS, st.booleans(), st.none()])
_TREES = st.recursive(_LEAVES, lambda kids: st.lists(kids, max_size=4)
                      | st.lists(kids, max_size=4).map(tuple)
                      | _KEYS.flatmap(lambda keys: st.dictionaries(keys, kids, max_size=4)),
                      max_leaves=25)


@settings(max_examples=200, deadline=None)
@given(_TREES)
@example({"dims": {"X": 3, "A": 2}, "text": "\"q\\\n\u2603\U0001f600", "e": [], "d": {},
          "m00": io.matrix_to_json(np.zeros((0, 0))), "m30": io.matrix_to_json(np.zeros((3, 0))),
          "flags": [True, False, None], "pairs": [[-0.0, 5e-324], [1e308, -1e308]]})
@example({"kind": "cqns", "states": [[io.matrix_to_json(np.eye(2) / 2),
                                      io.matrix_to_json(np.diag([1.0, -0.0j]))]] * 2})
def test_write_json_writes_the_bytes_of_json_dumps(tree):
    text = StringIO()
    io.write_json(tree, text)
    assert text.getvalue() == io.dump_json(tree) == _oracle(tree)


@settings(max_examples=50, deadline=None)
@given(_TREES, st.sampled_from([float("nan"), float("inf"), float("-inf")]),
       st.sampled_from(["float", "pairs", "array"]))
def test_write_json_refuses_non_finite_floats_before_writing(tree, bad, where):
    obj = {"a": tree, "b": {"float": bad, "pairs": [[1.0, bad]],
                            "array": np.array([[1.0, bad]])}[where]}
    with pytest.raises(ValueError) as want:
        _oracle(obj)
    text = StringIO()
    with pytest.raises(ValueError) as got:
        io.write_json(obj, text)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("Out of range float values are not JSON compliant: ")
    assert text.getvalue() == ""


@pytest.mark.parametrize("leaf", [{1, 2}, np.int64(1)], ids=["set", "int64"])
def test_write_json_refuses_what_json_cannot_encode_before_writing(leaf):
    obj = {"a": io.matrix_to_json(np.eye(2)), "b": [1.5, leaf]}
    with pytest.raises(TypeError) as want:
        _oracle(obj)
    text = StringIO()
    with pytest.raises(TypeError) as got:
        io.write_json(obj, text)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith(" is not JSON serializable")
    assert text.getvalue() == ""


def test_dump_json_matches_json_dumps_on_payloads(rng):
    e = qr.random_stochastic(rng, 2, 2, 2)
    f = qr.random_stochastic(rng, 2, 2, 2)
    payloads = [
        io.correlation_to_json(build_quantum(e, f, qr.random_state(rng, 4))),
        io.correlation_to_json(build_tracial(qr.random_tracial_witness(rng, 2, 2))),
        io.correlation_to_json(build_tracial_cqns(
            qr.random_tracial_witness(rng, 2, 2, kind="semiclassical"))),
        io.correlation_to_json(build_tracial_ns(
            qr.random_tracial_witness(rng, 2, 2, kind="classical"))),
        io.correlation_to_json(build_local(
            [1.0], [qr.random_channel_choi(rng, 2, 2)], [qr.random_channel_choi(rng, 2, 2)],
            CorrelationDims(2, 2, 2, 2))),
        io.game_to_json(colouring_game(Graph.cycle(5), 3)),
        io.graph_to_json(Graph.cycle(5)),
        {1: "int", 2: [1, 2.5]}, {1.5: "float"}, {True: 1, False: 0}, {None: []},
    ]
    for obj in payloads:
        assert io.dump_json(obj) == _oracle(obj)


def test_graph_tree_holds_plain_lists():
    g = Graph.from_edges(4, np.array([[3, 0], [0, 3], [2, 1]], dtype=np.int32))
    assert json.dumps(io.graph_to_json(g)) == '{"n": 4, "edges": [[0, 3], [1, 2]]}'


def test_cli_payloads_and_reports_are_json_dumps_bytes(tmp_path, capsys, rng):
    e = io.stochastic_to_json(qr.random_stochastic(rng, 2, 2, 2))
    f = io.stochastic_to_json(qr.random_stochastic(rng, 2, 2, 2))
    witness = _write(tmp_path, "w.json", {"E": e, "F": f,
                                          "sigma": io.matrix_to_json(qr.random_state(rng, 4))})
    q, cq = str(tmp_path / "q.json"), str(tmp_path / "cq.json")
    commands = [["build", "quantum", witness], ["reduce", "E", q], ["reduce", "N", cq],
                ["reduce", "N", q], ["lift", cq], ["compose", q, q],
                ["kd2", "--d", "2"], ["kd2", "--d", "3"]]
    outputs = {0: q, 1: cq}

    def canonical(text):
        assert text == _oracle(json.loads(text)) + "\n"

    for i, argv in enumerate(commands):
        out = outputs.get(i, str(tmp_path / f"out{i}.json"))
        assert run([*argv, "--out", out]) == 0, argv
        canonical(capsys.readouterr().out)
        with open(out, encoding="utf-8") as fh:
            payload = fh.read()
        canonical(payload)
        assert run(argv) == 0, argv
        captured = capsys.readouterr()
        assert captured.out == payload
        canonical(captured.err)


def test_cli_non_finite_payload_exits_2_and_leaves_out_alone(tmp_path, capsys):
    matrix = np.eye(16) / 4
    matrix[0, 0] = float("nan")
    choi = io.matrix_to_json(matrix)
    path = _write(tmp_path, "nan.json", {"kind": "qns", "dims": {"X": 2, "Y": 2, "A": 2, "B": 2},
                                         "choi": choi})
    kept, fresh = tmp_path / "kept.json", tmp_path / "fresh.json"
    kept.write_text("keep me\n")
    for out in (kept, fresh):
        assert run(["reduce", "E", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: Out of range float values are not JSON compliant: nan\n"
    assert kept.read_text() == "keep me\n"
    assert not fresh.exists()


# ---------------------------------------------------------------------------
# CLI


def test_cli_theta_k5(tmp_path, capsys):
    path = _write(tmp_path, "k5.json", io.graph_to_json(Graph.complete(5)))
    assert run(["theta", path, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "1.000000" in out


def test_cli_theta_json(tmp_path, capsys):
    path = _write(tmp_path, "c5.json", io.graph_to_json(Graph.cycle(5)))
    assert run(["theta", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["theta"] == pytest.approx(np.sqrt(5), abs=1e-4)
    assert set(report) == {"dual_bound", "gap", "iterations", "pass", "theta", "tol",
                           "xi_qc_lower_bound"}


def test_cli_theta_and_alg_verify_report_tol_and_checks(tmp_path, capsys, rng):
    path = _write(tmp_path, "c5.json", io.graph_to_json(Graph.cycle(5)))
    assert run(["theta", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True and report["gap"] <= report["tol"] == 1e-7
    path = _write(tmp_path, "alg.json", io.alg_stochastic_to_json(
        qr.random_tracial_witness(rng, 2, 2)))
    assert run(["verify", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["kind"] == "alg-stochastic" and report["pass"] is True
    assert {"hermiticity", "psd_defect", "marginal_residual", "povm_defect", "tol"} <= set(report)


def test_cli_kd2_then_check_game(tmp_path, capsys):
    kd2_path = str(tmp_path / "kd2.json")
    assert run(["kd2", "--d", "2", "--out", kd2_path]) == 0
    capsys.readouterr()
    game_path = _write(tmp_path, "game.json",
                       io.game_to_json(colouring_game(Graph.complete(4), 2)))
    assert run(["check-game", game_path, kd2_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True


def test_cli_build_verify_roundtrip(tmp_path, capsys, rng):
    e = qr.random_stochastic(rng, 2, 2, 2)
    f = qr.random_stochastic(rng, 2, 2, 2)
    wit_path = _write(tmp_path, "wit.json", {
        "E": io.stochastic_to_json(e), "F": io.stochastic_to_json(f),
        "sigma": io.matrix_to_json(qr.random_state(rng, 4))})
    out_path = str(tmp_path / "corr.json")
    assert run(["build", "quantum", wit_path, "--out", out_path]) == 0
    capsys.readouterr()
    assert run(["verify", out_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True and report["kind"] == "qns"


def test_cli_build_tracial_and_fair(tmp_path, capsys, rng):
    wit = qr.random_tracial_witness(rng, 2, 2)
    wit_path = _write(tmp_path, "wit.json", io.alg_stochastic_to_json(wit))
    out_path = str(tmp_path / "corr.json")
    assert run(["build", "tracial", wit_path, "--out", out_path]) == 0
    capsys.readouterr()
    assert run(["fair", out_path]) == 0


def test_cli_every_builder_output_reverifies(tmp_path, capsys, rng):
    witnesses = {
        "local": {"dims": {"X": 2, "Y": 2, "A": 2, "B": 2},
                  "weights": [0.5, 0.5],
                  "alice": [io.matrix_to_json(qr.random_channel_choi(rng, 2, 2))
                            for _ in range(2)],
                  "bob": [io.matrix_to_json(qr.random_channel_choi(rng, 2, 2))
                          for _ in range(2)]},
        "quantum": {"E": io.stochastic_to_json(qr.random_stochastic(rng, 2, 2, 2)),
                    "F": io.stochastic_to_json(qr.random_stochastic(rng, 2, 2, 2)),
                    "sigma": io.matrix_to_json(qr.random_state(rng, 4))},
        "tracial": io.alg_stochastic_to_json(qr.random_tracial_witness(rng, 2, 2)),
        "cqns-tracial": io.alg_stochastic_to_json(
            qr.random_tracial_witness(rng, 2, 2, kind="semiclassical")),
        "ns-tracial": io.alg_stochastic_to_json(
            qr.random_tracial_witness(rng, 2, 2, kind="classical")),
    }
    e = qr.random_stochastic(rng, 2, 2, 2)
    from qnskit.stochastic import with_ancilla_left, with_ancilla_right
    witnesses["qc"] = {
        "E": io.stochastic_to_json(with_ancilla_right(e, 2)),
        "F": io.stochastic_to_json(with_ancilla_left(
            qr.random_stochastic(rng, 2, 2, 2), 2)),
        "sigma": io.matrix_to_json(qr.random_state(rng, 4))}
    for kind, obj in witnesses.items():
        wit_path = _write(tmp_path, f"wit_{kind}.json", obj)
        out_path = str(tmp_path / f"corr_{kind}.json")
        assert run(["build", kind, wit_path, "--out", out_path]) == 0, kind
        capsys.readouterr()
        assert run(["verify", out_path]) == 0, kind
        capsys.readouterr()


def test_cli_reduce_lift_chain(tmp_path, capsys, rng):
    e = qr.random_stochastic(rng, 2, 2, 2)
    f = qr.random_stochastic(rng, 2, 2, 2)
    corr = build_quantum(e, f, qr.random_state(rng, 4))
    c_path = _write(tmp_path, "c.json", io.correlation_to_json(corr))
    cq_path = str(tmp_path / "cq.json")
    ns_path = str(tmp_path / "ns.json")
    lift_path = str(tmp_path / "lift.json")
    assert run(["reduce", "E", c_path, "--out", cq_path]) == 0
    assert run(["reduce", "N", cq_path, "--out", ns_path]) == 0
    assert run(["lift", cq_path, "--out", lift_path]) == 0
    capsys.readouterr()
    for path in (cq_path, ns_path, lift_path):
        assert run(["verify", path]) == 0
        capsys.readouterr()


def test_cli_compose_correlations(tmp_path, capsys, rng):
    table = qr.random_ns_table(rng, 2, 2, 2, 2)
    p = from_classical(NsCorrelation(CorrelationDims(2, 2, 2, 2), table))
    p_path = _write(tmp_path, "p.json", io.correlation_to_json(p))
    out_path = str(tmp_path / "comp.json")
    assert run(["compose", p_path, p_path, "--out", out_path]) == 0
    capsys.readouterr()
    assert run(["verify", out_path]) == 0


def test_cli_compose_tables_and_games(tmp_path, capsys, rng):
    p = NsCorrelation(CorrelationDims(2, 2, 2, 2), qr.random_ns_table(rng, 2, 2, 2, 2))
    p_path = _write(tmp_path, "p.json", io.correlation_to_json(p))
    out_path = str(tmp_path / "pp.json")
    assert run(["compose", p_path, p_path, "--out", out_path]) == 0
    capsys.readouterr()
    assert run(["verify", out_path]) == 0
    capsys.readouterr()
    from qnskit.games import from_rule
    rule = np.ones((2, 2, 2, 2), dtype=int)
    g_path = _write(tmp_path, "g.json", io.game_to_json(from_rule(rule)))
    gg_path = str(tmp_path / "gg.json")
    assert run(["compose", g_path, g_path, "--out", gg_path]) == 0
    # a composed game has no check, so its report describes it against the default tol
    assert json.loads(capsys.readouterr().out) == {"kind": "game", "n_constraints": 4,
                                                   "pass": True, "tol": TOL_ALG}
    assert run(["check-game", gg_path, p_path]) == 0


def test_cli_verify_detects_broken_choi(tmp_path, capsys):
    corr = QnsCorrelation(CorrelationDims(2, 2, 2, 2),
                          2 * np.kron(max_entangled(2), max_entangled(2)))
    path = _write(tmp_path, "bad.json", io.correlation_to_json(corr))
    assert run(["verify", path]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False
    assert report["tp_residual"] > 0.5


def test_cli_orthrep(tmp_path, capsys):
    g_path = _write(tmp_path, "c5.json", io.graph_to_json(Graph.cycle(5)))
    v_path = _write(tmp_path, "vecs.json", {
        "vectors": [io.vector_to_json(v) for v in cycle5_umbrella()]})
    out_path = str(tmp_path / "col.json")
    assert run(["orthrep", g_path, v_path, "--out", out_path]) == 0


def test_cli_reads_stdin(monkeypatch, capsys):
    import io as _io
    payload = json.dumps(plain(io.graph_to_json(Graph.complete(3))))
    monkeypatch.setattr("sys.stdin", _io.StringIO(payload))
    assert run(["theta", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["theta"] == pytest.approx(1.0, abs=1e-6)


def test_cli_theta_solver_breakdown_fails_the_report(tmp_path, capsys):
    # at --tol 1e-12 an iterate of this graph loses definiteness near the optimum
    rng = np.random.default_rng(3)
    edges = [list(e) for e in itertools.combinations(range(12), 2) if rng.random() < 0.5]
    path = _write(tmp_path, "g12.json", {"n": 12, "edges": edges})
    assert run(["theta", path, "--tol", "1e-12"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["pass"] is False and report["gap"] == "inf"
    assert re.match(r"iteration \d+ failed at gap .*: Matrix is not positive definite",
                    report["solver_error"])
    assert "Traceback" not in captured.err


def test_boolean_payload_entries_are_refused(tmp_path, capsys):
    # numpy reads JSON true / false as dtype kind "b", which passed as 1 / 0
    with pytest.raises(io.FormatError, match=r"^matrix data must be \[re, im\] number pairs$"):
        io.matrix_from_json({"rows": 1, "cols": 1, "data": [[True, False]]})
    table = {"kind": "ns", "dims": {"X": 1, "Y": 1, "A": 2, "B": 1},
             "table": [[[[True], [False]]]]}
    with pytest.raises(io.FormatError, match="^ns table entries must be numbers$"):
        io.correlation_from_json(table)
    capsys.readouterr()
    assert run(["verify", _write(tmp_path, "bool.json", table)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.endswith("ns table entries must be numbers\n"), err


def test_cli_malformed_input(tmp_path, capsys, rng):
    path = _write(tmp_path, "junk.json", {"who": "knows"})
    assert run(["verify", path]) == 2
    missing = str(tmp_path / "absent.json")
    assert run(["theta", missing]) == 2
    # JSON trees of the wrong shape: each fails a lookup, an unpacking or a
    # conversion while it is decoded, and must read as malformed input
    local = io.correlation_to_json(build_local(
        [1.0], [qr.random_channel_choi(rng, 2, 2)], [qr.random_channel_choi(rng, 2, 2)],
        CorrelationDims(2, 2, 2, 2)))
    graph = _write(tmp_path, "c5.json", io.graph_to_json(Graph.cycle(5)))
    two_blocks = io.alg_stochastic_to_json(
        qr.random_tracial_witness(rng, 2, 2, abelian_algebra((0.5, 0.5)), kind="classical"))
    extra = {**two_blocks, "blocks": two_blocks["blocks"] * 2}  # 4 blocks, 2 algebra blocks
    k3 = io.game_to_json(colouring_game(Graph.complete(3), 3))
    game = _write(tmp_path, "k3.json", k3)
    # flags and weights of another JSON type, which bool() and float() would read
    alg_weights = {**two_blocks["algebra"], "weights": ["0.5", "0.5"]}
    local_witness = {**local["witness"], "dims": local["dims"]}
    ns_dims = {"X": 1, "Y": 1, "A": 2, "B": 1}  # tables of this shape, entries not numbers
    cases = [
        ["verify", {"rows": 1, "cols": 1, "data": [[None, 0]]}],
        ["verify", {"rows": 1, "cols": 1, "data": [["1", "0"]]}],
        ["verify", {"rows": 1, "cols": 1, "data": [1]}],
        ["theta", {"n": 3, "edges": [[1]]}],
        ["theta", {"n": 3, "edges": [[0, 1, 2]]}],
        ["theta", {"n": 3, "edges": [["0", "2"]]}],
        ["verify", {"kind": "cqns", "dims": local["dims"], "states": 3}],
        ["verify", {**local, "witness": [local["witness"]]}],
        ["verify", {**local, "witness": {**local["witness"], "alice": 3}}],
        ["orthrep", graph, {"vectors": []}],
        ["verify", extra],
        ["compose", game, {**k3, "classicalInput": "false"}],
        ["build", "ns-tracial", {**two_blocks, "algebra": alg_weights}],
        ["build", "local", {**local_witness, "weights": ["1.0"]}],
        ["build", "local", {**local_witness, "weights": [True]}],
        ["verify", {**local, "witness": {**local["witness"], "weights": ["1.0"]}}],
        ["verify", {"kind": "ns", "dims": ns_dims, "table": [[[["0.5"], ["0.5"]]]]}],
        ["verify", {"kind": "ns", "dims": ns_dims, "table": [[[[None], [0.5]]]]}],
    ]
    capsys.readouterr()
    for i, (*argv, obj) in enumerate(cases):
        assert run([*argv, _write(tmp_path, f"bad{i}.json", obj)]) == 2, obj
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err
    with pytest.raises(io.FormatError, match="4 blocks for an algebra of 2"):
        io.alg_stochastic_from_json(extra)


@pytest.mark.parametrize("field", ["alice", "bob", "weights"])
def test_local_witness_without_one_weight_per_pair_is_malformed(tmp_path, capsys, rng, field):
    # verify read such a witness and failed its re-check (exit 1); build refused it (exit 2)
    local = io.correlation_to_json(build_local(
        [1.0], [qr.random_channel_choi(rng, 2, 2)], [qr.random_channel_choi(rng, 2, 2)],
        CorrelationDims(2, 2, 2, 2)))
    witness = {**local["witness"], field: []}
    capsys.readouterr()
    for argv, obj in ((["verify"], {**local, "witness": witness}),
                      (["build", "local"], {**witness, "dims": local["dims"]})):
        assert run([*argv, _write(tmp_path, "w.json", obj)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "need one weight per channel pair" in err, err


@pytest.mark.parametrize("edges, pair", [([[0, True]], "[0, true]"),
                                         ([[0, 2], [False, 1]], "[false, 1]")])
def test_theta_refuses_a_boolean_vertex(tmp_path, capsys, edges, pair):
    # numpy read [0, true] as the edge (0, 1), so theta exited 0 with theta = 2
    capsys.readouterr()
    assert run(["theta", _write(tmp_path, "g.json", {"n": 3, "edges": edges})]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: "), err
    assert err.rstrip().endswith(f"edges must be pairs of integer vertices, got {pair}"), err


_UNIT = {"rows": 1, "cols": 1, "data": [[1.0, 0.0]]}


def test_null_witness_is_refused_by_name(tmp_path, capsys):
    # {**None} raised "'NoneType' object is not a mapping", which named no field
    payload = {"kind": "qns", "dims": {"X": 1, "Y": 1, "A": 1, "B": 1},
               "choi": _UNIT, "witness": None}
    with pytest.raises(io.FormatError, match="witness must be an object, got null"):
        io.correlation_from_json(payload)
    capsys.readouterr()
    assert run(["verify", _write(tmp_path, "c.json", payload)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and "witness" in err, err


@pytest.mark.parametrize("rule", [[[[[True]]]], [[[[0, 1], [True, 0]]]]])
def test_rule_game_refuses_a_boolean_entry(rule):
    # numpy read true as 1, so {"rule": [[[[true]]]]} decoded as a rule game
    game = io.game_to_json(colouring_game(Graph.complete(2), 2))
    for payload in ({"rule": rule}, {**game, "rule": rule}):
        with pytest.raises(io.FormatError, match="rule entries must be 0 or 1, got true"):
            io.game_from_json(payload)


@pytest.mark.parametrize("value", [1.9, "1", True])
@pytest.mark.parametrize("command, files, payload, path", [
    ("verify", 1, {"kind": "qns", "dims": {"X": 1, "Y": 1, "A": 1, "B": 1}, "choi": _UNIT},
     path) for path in [("dims", "X"), ("dims", "Y"), ("dims", "A"), ("dims", "B"),
                        ("choi", "rows"), ("choi", "cols")]] + [
    ("verify", 1, {"dimX": 1, "dimA": 1, "dimH": 1, "matrix": _UNIT}, (key,))
    for key in ("dimX", "dimA", "dimH")] + [
    ("theta", 1, {"n": 1, "edges": []}, ("n",)),
    ("compose", 2, {"inDims": [1, 1], "outDims": [1, 1], "classicalInput": True,
                    "constraints": []}, ("inDims", 1)),
    ("compose", 2, {"inDims": [1, 1], "outDims": [1, 1], "classicalInput": True,
                    "constraints": []}, ("outDims", 0)),
])
def test_cli_refuses_dimensions_that_are_not_integers(tmp_path, capsys, command, files,
                                                      payload, path, value):
    # every payload decodes with 1 in the field; int() would read each value as 1
    obj = json.loads(json.dumps(payload))
    *outer, last = path
    parent = obj
    for key in outer:
        parent = parent[key]
    parent[last] = value
    file = _write(tmp_path, "bad.json", obj)
    assert run([command, *[file] * files]) == 2
    err = capsys.readouterr().err
    field = path[0] if path[0] in ("inDims", "outDims") else last
    assert err.startswith(f"error: cannot read {file}: ") \
        and f"{field} must be an integer, got {value!r}" in err, err


_PAIRS_MESSAGE = "must be [re, im] number pairs"


@pytest.mark.parametrize("data, rows, message", [
    ([["1.0", 0.0]], 1, _PAIRS_MESSAGE),          # a string entry
    ([[None, 0.0]], 1, _PAIRS_MESSAGE),           # a null entry
    ([[1.0]], 1, _PAIRS_MESSAGE),                 # a pair of arity 1
    ([[1.0, 0.0, 0.0]], 1, _PAIRS_MESSAGE),       # a pair of arity 3
    ([[1.0, 0.0], [1.0]], 2, _PAIRS_MESSAGE),     # pairs of mixed arity
    ([[1.0, 0.0], [0.0, 0.0]], 1, "matrix data length 2 != 1x1"),
])
def test_cli_refuses_malformed_matrix_data(tmp_path, capsys, data, rows, message):
    path = _write(tmp_path, "bad.json", {"kind": "qns", "dims": {"X": 1, "Y": 1, "A": 1, "B": 1},
                                         "choi": {"rows": rows, "cols": 1, "data": data}})
    assert run(["verify", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ") and message in err, err


@pytest.mark.parametrize("vector", [[["1.0", 0.0]] * 3, [[None, 0.0]] * 3, [[1.0]] * 3,
                                    [[1.0, 0.0, 0.0]] * 3, [[1.0, 0.0], [1.0], [0.0, 0.0]]])
def test_cli_refuses_malformed_vector_entries(tmp_path, capsys, vector):
    graph = _write(tmp_path, "c5.json", io.graph_to_json(Graph.cycle(5)))
    vectors = [io.vector_to_json(v) for v in cycle5_umbrella()]
    path = _write(tmp_path, "bad.json", {"vectors": [vector, *vectors[1:]]})
    assert run(["orthrep", graph, path]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: ") and \
        "vector entries must be [re, im] number pairs" in err, err


def _wrong_payloads(tmp_path) -> dict:
    """Files of every payload type the refusals below hand to the wrong command."""
    d1 = CorrelationDims(1, 1, 1, 1)
    return {"qns": _write(tmp_path, "qns.json", io.correlation_to_json(
                QnsCorrelation(d1, np.eye(1)))),
            "cqns": _write(tmp_path, "cqns.json", io.correlation_to_json(
                CqnsCorrelation(d1, np.ones((1, 1, 1, 1))))),
            "ns": _write(tmp_path, "ns.json", io.correlation_to_json(
                NsCorrelation(d1, np.ones((1, 1, 1, 1))))),
            "graph": _write(tmp_path, "graph.json", io.graph_to_json(Graph.cycle(5))),
            "game": _write(tmp_path, "game.json", io.game_to_json(
                colouring_game(Graph.complete(4), 2))),
            "vectors": _write(tmp_path, "vectors.json", {
                "vectors": [io.vector_to_json(v) for v in cycle5_umbrella()]}),
            "missing": str(tmp_path / "missing.json")}


@pytest.mark.parametrize("argv, message", [
    (["verify", "graph"], "verify expects a correlation or stochastic matrix file"),
    (["verify", "game"], "verify expects a correlation or stochastic matrix file"),
    (["reduce", "E", "cqns"], "reduce E expects a qns correlation"),
    (["reduce", "N", "ns"], "reduce N expects a qns or cqns correlation"),
    (["lift", "qns"], "lift expects a cqns correlation"),
    (["compose", "qns", "ns"], "compose expects two games, two qns or two ns correlations"),
    (["compose", "cqns", "cqns"], "compose expects two games, two qns or two ns correlations"),
    (["theta", "qns"], "theta expects a graph file"),
    (["orthrep", "qns", "vectors"], "orthrep expects a graph file first"),
    (["orthrep", "qns", "missing"], "orthrep expects a graph file first"),
    (["fair", "graph"], "fair expects a correlation file"),
    (["check-game", "qns", "qns"], "first argument must be a game file"),
    (["check-game", "qns", "missing"], "first argument must be a game file"),
    (["check-game", "game", "graph"], "second argument must be a correlation file"),
])
def test_cli_refuses_a_payload_of_the_wrong_type(tmp_path, capsys, argv, message):
    """Each command names what it expects; the first argument is checked before the
    second is read."""
    files = _wrong_payloads(tmp_path)
    assert run([files.get(arg, arg) for arg in argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("argv", [["verify", "qns"], ["check-game", "game", "qns"],
                                  ["theta", "graph"], ["fair", "qns"]])
def test_cli_report_commands_refuse_out(tmp_path, capsys, argv):
    """Only the commands that produce a payload take --out."""
    files = _wrong_payloads(tmp_path)
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        run([*(files.get(arg, arg) for arg in argv), "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --out" in capsys.readouterr().err
    assert not out.exists()


def test_cli_check_game_refuses_vectors_of_the_wrong_length(tmp_path, capsys):
    game = io.game_to_json(colouring_game(Graph.cycle(3), 3))
    game["constraints"][0]["V"] = [io.vector_to_json(np.ones(18))] * 3
    path = _write(tmp_path, "game.json", game)
    assert run(["check-game", path, path]) == 2
    assert "constraint 0: V must hold vectors of 9 [re, im] number pairs" in \
        capsys.readouterr().err


def test_cli_build_local_ragged_terms_exit_2(tmp_path, capsys, rng):
    choi = io.matrix_to_json(qr.random_channel_choi(rng, 2, 2))
    path = _write(tmp_path, "ragged.json", {
        "dims": {"X": 2, "Y": 2, "A": 2, "B": 2}, "weights": [0.5, 0.5],
        "alice": [choi, io.matrix_to_json(np.eye(2))], "bob": [choi, choi]})
    assert run(["build", "local", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_a_misshapen_local_term_is_refused_when_the_witness_is_made(tmp_path, capsys, rng):
    corr = build_local([1.0], [qr.random_channel_choi(rng, 2, 2)],
                       [qr.random_channel_choi(rng, 2, 2)], CorrelationDims(2, 2, 2, 2))
    message = "alice term 0 has shape (1, 1), expected (4, 4)"
    with pytest.raises(ValueError, match=re.escape(message)):
        LocalWitness((1.0,), (np.eye(1),), corr.witness.bob, corr.dims)
    with pytest.raises(ValueError, match=re.escape("bob term 0 has shape (4,), expected")):
        LocalWitness((1.0,), corr.witness.alice, (np.ones(4),), corr.dims)
    payload = io.correlation_to_json(corr)
    payload["witness"]["alice"][0] = io.matrix_to_json(np.eye(1))
    for argv in (["verify", _write(tmp_path, "qns.json", payload)],
                 ["build", "local", _write(tmp_path, "local.json",
                                           {**payload["witness"], "dims": payload["dims"]})]):
        assert run(argv) == 2  # verify exited 1 with a witness_error while terms were checked late
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, payload, message", [
    (["theta"], {"n": 3, "edges": {}}, "edges must be a list, got an object"),
    (["check-game", "game.json"], {**plain(io.game_to_json(colouring_game(Graph.complete(2), 2))),
                                   "constraints": {}}, "constraints must be a list, got an object"),
])
def test_cli_refuses_an_object_where_a_list_belongs(tmp_path, capsys, argv, payload, message):
    # the edge walk and the constraint loop read {} as an empty list, so theta exited 0
    # with theta = 3 and check-game passed a game of no constraints
    path = _write(tmp_path, "game.json", payload)
    assert run([argv[0], path, *[path] * (len(argv) - 1)]) == 2
    assert capsys.readouterr().err == f"error: cannot read {path}: {message}\n"


def test_cli_refuses_json_nested_too_deep(tmp_path, capsys):
    # json.load raised RecursionError, which escaped as a traceback and exit 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    assert run(["theta", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}: maximum recursion depth") \
        and err.count("\n") == 1, err


def test_cli_refuses_a_size_numpy_cannot_allocate(capsys):
    # kd2 at d = 100 asks for a (10^8, 10^8) complex matrix, 142 PiB, which numpy refuses
    # before it allocates anything; the MemoryError escaped as a traceback and exit 1
    assert run(["kd2", "--d", "100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1, err


def test_cli_rejects_bad_tolerance(tmp_path):
    path = _write(tmp_path, "k2.json", io.graph_to_json(Graph.complete(2)))
    with pytest.raises(SystemExit):
        run(["theta", path, "--tol", "-1"])


def test_cli_reports_byte_stable(tmp_path, capsys):
    path = _write(tmp_path, "k3.json", io.graph_to_json(Graph.complete(3)))
    assert run(["theta", path]) == 0
    first = capsys.readouterr().out
    assert run(["theta", path]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_kd2_d5_within_3gb_address_space():
    # the witness re-check reads only the input-diagonal blocks; the full
    # Choi matrix at d = 5 alone would take 3.64 GiB
    import os
    import resource
    import subprocess
    import sys

    import qnskit

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3_000_000_000, 3_000_000_000))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qnskit.__file__)))
    proc = subprocess.run([sys.executable, "-m", "qnskit", "kd2", "--d", "5", "--out", os.devnull],
                          capture_output=True, text=True, env=env, preexec_fn=limit,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["pass"] is True
    assert report["witness_residual"] <= 1e-9


def test_no_boolean_verdict_takes_a_tolerance():
    import ast
    import pathlib

    from qnskit import linalg
    # a public check returns a residual or a Report, never a bool decided at ``tol``
    for path in sorted(pathlib.Path(linalg.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                returns_bool = isinstance(node.returns, ast.Name) and node.returns.id == "bool"
                assert not ("tol" in names and returns_bool), f"{path.name}:{node.name}"

def test_default_tolerances_pinned():
    import ast
    import inspect
    import pathlib

    from qnskit import (algebra, correlations, games, graphs, linalg, stochastic,
                        symmetry, theta)
    from qnskit.cli import build_parser
    assert (linalg.TOL_ALG, linalg.EIG_CLAMP, linalg.TOL_COMM, linalg.NEG_CLAMP,
            linalg.TOL_INPUT) == (1e-9, 1e-10, 1e-8, -1e-12, 1e-7)
    assert (theta.GAP_TOL, theta.FEAS_TOL) == (1e-7, 1e-8)
    # the checks that had a probability or game tolerance of their own
    for fn in (correlations.ns_report, games.perfect_strategy_check):
        assert inspect.signature(fn).parameters["tol"].default == 1e-9, fn.__name__
    # residuals only measure: a Report or require holds them against a tolerance
    for fn in (graphs.stahlke_residual, graphs.hom_residual, graphs.proper_residuals,
               symmetry.fair_residual, symmetry.fair_state_residual,
               symmetry.reciprocal_residual, stochastic.semiclassical_defect,
               stochastic.classical_defect, linalg.psd_defect, linalg.channel_defects):
        assert "tol" not in inspect.signature(fn).parameters, fn.__name__
    # builders and input gates compare at TOL_ALG, so a witness that builds re-checks
    for fn in (correlations.from_classical, correlations.build_local,
               correlations.build_quantum, correlations.build_commuting,
               stochastic.dilate, stochastic.channel_choi, stochastic.tensor_contraction,
               stochastic.commuting_contraction, stochastic.tensor, stochastic.commuting_product,
               stochastic.from_povms, symmetry.build_locally_tracial,
               symmetry.build_tracial_cqns, symmetry.build_tracial_ns,
               symmetry.reciprocal_from_state, algebra.check_alg_stochastic,
               linalg.herm_sqrt, linalg.check_channel, stochastic._require_verified,
               stochastic._check_sigma, stochastic._require_commuting):
        assert "tol" not in inspect.signature(fn).parameters, fn.__name__
    # a witness carries its dims, so nothing on the witness path takes them
    for fn, params in ((correlations.build_from_witness, ["w"]),
                       (correlations._pinch_witness, ["w", "classical"]),
                       (correlations._compose_witness, ["w2", "w1"])):
        assert list(inspect.signature(fn).parameters) == params, fn.__name__
    for module in (correlations, games, graphs, stochastic):
        for name in ("TOL_PROB", "TOL_POVM", "TOL_GAME"):
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    # tolerances have one home: no other module writes a small float literal
    for path in sorted(pathlib.Path(linalg.__file__).parent.glob("*.py")):
        if path.name in ("linalg.py", "theta.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                assert not 0 < abs(node.value) < 1e-5, f"{path.name}:{node.lineno}"
    parser = build_parser()
    for argv in (["verify", "f"], ["build", "local", "w"], ["reduce", "E", "f"],
                 ["lift", "f"], ["compose", "a", "b"], ["check-game", "g", "s"],
                 ["kd2", "--d", "2"], ["orthrep", "g", "v"], ["fair", "f"]):
        assert parser.parse_args(argv).tol == 1e-9
    assert parser.parse_args(["theta", "g"]).tol == 1e-7
