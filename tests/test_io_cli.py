import json

import numpy as np
import pytest

from qnskit import io
from qnskit import rand as qr
from qnskit.cli import run
from qnskit.correlations import (CorrelationDims, NsCorrelation,
                                 QnsCorrelation, build_local, build_quantum,
                                 build_tracial, from_classical)
from qnskit.games import colouring_game
from qnskit.graphs import Graph, cycle5_umbrella
from qnskit.linalg import max_entangled
from qnskit.symmetry import build_tracial_cqns, build_tracial_ns


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_matrix_roundtrip(rng):
    m = qr.complex_gaussian(rng, 3, 4)
    assert np.array_equal(io.matrix_from_json(io.matrix_to_json(m)), m)


def test_matrix_format_shape():
    obj = io.matrix_to_json(np.array([[1 + 2j]]))
    assert obj == {"rows": 1, "cols": 1, "data": [[1.0, 2.0]]}
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
    capsys.readouterr()
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
    payload = json.dumps(io.graph_to_json(Graph.complete(3)))
    monkeypatch.setattr("sys.stdin", _io.StringIO(payload))
    assert run(["theta", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["theta"] == pytest.approx(1.0, abs=1e-6)


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
    cases = [
        ["verify", {"rows": 1, "cols": 1, "data": [[None, 0]]}],
        ["verify", {"rows": 1, "cols": 1, "data": [["1", "0"]]}],
        ["verify", {"rows": 1, "cols": 1, "data": [1]}],
        ["theta", {"n": 3, "edges": [[1]]}],
        ["verify", {"kind": "cqns", "dims": local["dims"], "states": 3}],
        ["verify", {**local, "witness": [local["witness"]]}],
        ["verify", {**local, "witness": {**local["witness"], "alice": 3}}],
        ["orthrep", graph, {"vectors": []}],
    ]
    capsys.readouterr()
    for i, (*argv, obj) in enumerate(cases):
        assert run([*argv, _write(tmp_path, f"bad{i}.json", obj)]) == 2, obj
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err


def test_cli_build_local_ragged_terms_exit_2(tmp_path, capsys, rng):
    choi = io.matrix_to_json(qr.random_channel_choi(rng, 2, 2))
    path = _write(tmp_path, "ragged.json", {
        "dims": {"X": 2, "Y": 2, "A": 2, "B": 2}, "weights": [0.5, 0.5],
        "alice": [choi, io.matrix_to_json(np.eye(2))], "bob": [choi, choi]})
    assert run(["build", "local", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
    for fn in (correlations.ns_report, graphs.stahlke_check, graphs.hom_check,
               graphs.proper_check, games.perfect_strategy_check):
        assert inspect.signature(fn).parameters["tol"].default == 1e-9, fn.__name__
    # builders and input gates compare at TOL_ALG, so a witness that builds re-checks
    for fn in (correlations.from_classical, correlations.build_local,
               correlations.build_quantum, correlations.build_commuting,
               stochastic.dilate, stochastic.channel_choi, stochastic.tensor_choi,
               stochastic.commuting_choi, stochastic.tensor, stochastic.commuting_product,
               stochastic.from_povms, symmetry.build_locally_tracial,
               symmetry.build_tracial_cqns, symmetry.build_tracial_ns,
               symmetry.reciprocal_from_state, algebra.check_alg_stochastic,
               linalg.herm_sqrt, linalg.check_channel, stochastic._require_verified,
               stochastic._check_sigma, stochastic._require_commuting):
        assert "tol" not in inspect.signature(fn).parameters, fn.__name__
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
