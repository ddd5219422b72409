"""Non-finite data fails every check, wherever it sits."""

import ast
import json
import pathlib
import re

import numpy as np
import pytest

from qnskit import graphs, io, linalg, stochastic
from qnskit import rand as qr
from qnskit.algebra import TracialAlgebra, abelian_from_chois
from qnskit.cli import run
from qnskit.correlations import (CorrelationDims, CqnsCorrelation,
                                 NsCorrelation, QnsCorrelation, QuantumWitness,
                                 TracialWitness, build_local, build_quantum,
                                 build_tracial, cqns_report, ns_report,
                                 qns_report)
from qnskit.games import colouring_game, perfect_strategy_check
from qnskit.graphs import (Graph, SkewSymmetricSubspace, cycle5_umbrella,
                           graph_subspace, kd2_colouring,
                           orth_rep_to_colouring, realization_basis,
                           stahlke_check, stahlke_residual, vertex_map_kraus)
from qnskit.linalg import (CheckError, Report, channel_defects, check_state,
                           herm_sqrt, is_psd, max_entangled, psd_defect,
                           state_defect)
from qnskit.stochastic import StochasticOperatorMatrix, from_povms, verify
from qnskit.symmetry import (build_tracial_cqns, build_tracial_ns, fair_residual,
                             reciprocal_certificate)
from qnskit.theta import solve_theta

D2 = CorrelationDims(2, 2, 2, 2)


def _nan_table():
    table = np.full((2, 2, 2, 2), 0.25)
    table[0, 0, 0, 0] = np.nan
    return NsCorrelation(D2, table)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_psd_defect_is_infinite_on_non_finite_input(bad):
    m = np.eye(3, dtype=complex)
    m[0, 1] = bad
    assert psd_defect(m) == np.inf
    assert not verify(StochasticOperatorMatrix(1, 3, 1, m)).ok


def test_ns_report_fails_on_nan():
    report = ns_report(_nan_table())
    assert not report.ok and report.as_dict()["pass"] is False


@pytest.mark.parametrize("xy", [(3, 2), (0, 1)])
def test_game_report_fails_on_nan_state_anywhere(xy):
    corr = kd2_colouring(2)
    states = corr.states.copy()
    states[xy][0, 0] = np.nan
    report = perfect_strategy_check(colouring_game(Graph.complete(4), 2),
                                    CqnsCorrelation(corr.dims, states))
    assert np.isnan(report.max_residual)
    assert not report.ok


@pytest.mark.parametrize("residuals", [(np.nan, 0.0), (0.0, np.nan)])
def test_game_report_max_residual_keeps_nan(residuals):
    max_residual = float(np.max(residuals, initial=0.0))
    assert not Report({"max_residual": max_residual}, info={"residuals": residuals}).ok


def test_cqns_report_fails_on_off_diagonal_nan():
    states = np.broadcast_to(np.eye(4) / 4, (2, 2, 4, 4)).astype(complex)
    states[1, 0, 0, 1] = np.nan
    report = cqns_report(CqnsCorrelation(D2, states))
    assert report.state_defect == np.inf
    assert not report.ok


def test_qns_report_fails_on_nan():
    choi = np.diag(np.full(16, 0.25)).astype(complex)
    choi[3, 5] = np.nan
    assert not qns_report(QnsCorrelation(D2, choi)).ok


def test_cli_verify_nan_table_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text(json.dumps(io.correlation_to_json(_nan_table()), allow_nan=True))
    assert run(["verify", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False


def test_fair_residual_keeps_nan():
    table = np.full((2, 2, 2, 2), 0.25)
    table[0, 1, 1, 0] = np.nan
    assert np.isnan(fair_residual(NsCorrelation(D2, table)))
    states = np.broadcast_to(np.eye(4) / 4, (2, 2, 4, 4)).astype(complex)
    states[1, 1, 2, 3] = np.nan
    assert np.isnan(fair_residual(CqnsCorrelation(D2, states)))


def test_stahlke_rejects_nan_kraus():
    kraus = vertex_map_kraus([1, 2, 0], 3, 3)
    basis = realization_basis(graph_subspace(Graph.cycle(3)))
    kraus[2][0, 2] = np.nan
    assert np.isnan(stahlke_residual(kraus, basis, basis))
    with pytest.raises(ValueError, match="not trace preserving"):
        stahlke_check(kraus, basis, basis)


def test_orth_rep_rejects_nan_vector(tmp_path, capsys):
    vectors = cycle5_umbrella()
    vectors[2] = np.full(3, np.nan, dtype=complex)
    with pytest.raises(ValueError, match="vector 2 "):
        orth_rep_to_colouring(vectors, Graph.cycle(5))
    graph_path = tmp_path / "c5.json"
    graph_path.write_text(json.dumps(io.graph_to_json(Graph.cycle(5))))
    vectors_path = tmp_path / "vectors.json"
    vectors_path.write_text(json.dumps(
        {"vectors": [io.vector_to_json(v) for v in vectors]}, allow_nan=True))
    assert run(["orthrep", str(graph_path), str(vectors_path)]) == 2
    assert "vector 2 " in capsys.readouterr().err


def _non_hermitian_states(eps):
    """Maximally mixed states with the same Hermiticity defect ``eps`` in every
    state, so that the marginals stay no-signalling."""
    states = np.broadcast_to(np.eye(4) / 4, (2, 2, 4, 4)).astype(complex)
    states[:, :, 0, 1] += eps
    return CqnsCorrelation(D2, states)


def test_cqns_report_counts_non_hermiticity():
    report = cqns_report(_non_hermitian_states(5e-8), tol=1e-12)
    assert report.state_defect == pytest.approx(5e-8)
    assert not report.ok


@pytest.mark.parametrize("eps, tol", [(5e-8, "1e-12"), (0.3, "1e-9")])
def test_cli_verify_non_hermitian_cqns_fails_with_report(tmp_path, capsys, eps, tol):
    path = tmp_path / "cq.json"
    path.write_text(json.dumps(io.correlation_to_json(_non_hermitian_states(eps))))
    assert run(["verify", str(path), "--tol", tol]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False and report["state_defect"] >= eps


def test_residuals_measure_non_hermitian_input_without_raising():
    m = np.eye(2, dtype=complex) / 2
    m[0, 1] = 0.3
    assert psd_defect(m) == pytest.approx(0.3)
    assert not is_psd(m)
    assert state_defect(m) == pytest.approx(0.3)
    cp, tp = channel_defects(m, (1, 2))
    assert cp == pytest.approx(0.3) and tp == 0.0


# ---------------------------------------------------------------------------
# Input gates: every one raises through ``linalg.require``, so NaN fails


def test_from_povms_rejects_nan_sum():
    with pytest.raises(CheckError, match="does not sum to the identity"):
        from_povms([[np.array([[np.nan]]), np.array([[0.5]])]])


def test_from_povms_hermiticity_gate_rejects_nan(monkeypatch):
    # a NaN element trips the sum gate first, so the residual itself is made NaN
    monkeypatch.setattr(stochastic, "hermiticity_defect", lambda m: np.nan)
    with pytest.raises(CheckError, match=r"POVM element \(0,0\) is not Hermitian"):
        from_povms([[np.array([[1.0]])]])


def test_tracial_algebra_rejects_nan_weight():
    with pytest.raises(ValueError, match="weights"):
        TracialAlgebra((1,), (np.nan,))


def test_build_local_rejects_nan_weight():
    ident = max_entangled(2)
    with pytest.raises(CheckError, match="weights"):
        build_local([np.nan], [ident], [ident], D2)


def test_build_local_names_a_non_channel_among_channels(rng):
    chois = [qr.random_channel_choi(rng, 2, 2) for _ in range(3)]
    chois[1] = 1.3 * chois[1]
    with pytest.raises(CheckError, match="Choi matrix of a channel"):
        build_local([0.2, 0.3, 0.5], chois, [max_entangled(2)] * 3, D2)


def _kron_t(omega):
    return np.kron(omega, omega.T)


_MIXED, _PURE = np.eye(2) / 2, np.diag([1.0, 0.0])


@pytest.mark.parametrize("weights, states, target, message", [
    # 2 w1 (x) w1^t - w2 (x) w2^t is not even positive
    ([2.0, -1.0], [_MIXED, _PURE], 2 * _kron_t(_MIXED) - _kron_t(_PURE), "non-negative"),
    ([1.0], [_MIXED, _PURE], _kron_t(_MIXED), "one weight per state"),
    ([0.5], [_MIXED], 0.5 * _kron_t(_MIXED), "sum to one"),
])
def test_reciprocal_certificate_refuses_malformed_decompositions(weights, states, target,
                                                                 message):
    with pytest.raises(ValueError, match=message):
        reciprocal_certificate(weights, states, target)


def test_skew_subspace_rejects_nan_basis():
    basis = graph_subspace(Graph.cycle(3)).basis.copy()
    basis[1, 0] = np.nan
    with pytest.raises(CheckError, match="orthonormal"):
        SkewSymmetricSubspace(3, basis)


@pytest.mark.parametrize("method, message", [("skew_defect", "not skew"),
                                             ("symmetry_defect", "not flip invariant")])
def test_skew_subspace_gates_reject_nan_defect(monkeypatch, method, message):
    # NaN basis data trips the orthonormality gate first, so the defect is made NaN
    basis = graph_subspace(Graph.cycle(3)).basis
    monkeypatch.setattr(SkewSymmetricSubspace, method, lambda self: np.nan)
    with pytest.raises(CheckError, match=message):
        SkewSymmetricSubspace(3, basis)


def test_herm_sqrt_rejects_nan():
    with pytest.raises(CheckError, match="not Hermitian"):
        herm_sqrt(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_check_error_names_residual_and_tol():
    message = r"not a state \(residual 1\.000e\+00, tol 1\.000e-09\)"
    with pytest.raises(CheckError, match=message) as err:
        check_state(np.eye(2))
    assert (err.value.residual, err.value.tol) == (1.0, 1e-9)
    report = Report({"a": 0.0, "b": np.nan})
    with pytest.raises(CheckError, match="residual nan"):
        report.require("report fails")
    Report({"a": 0.0}).require("never raised")


def test_kd2_self_check_failure_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(graphs, "kd2_explicit_states", lambda d: np.zeros(1))
    assert run(["kd2", "--d", "2"]) == 2
    assert "colouring self-check failed" in capsys.readouterr().err


def test_broken_witness_reports_its_error(rng, tmp_path, capsys):
    e, f = qr.random_stochastic(rng, 2, 2, 2), qr.random_stochastic(rng, 2, 2, 2)
    corr = build_quantum(e, f, qr.random_state(rng, 4))
    broken = QnsCorrelation(corr.dims, corr.choi, QuantumWitness("quantum", e, f, 2 * np.eye(4)))
    report = qns_report(broken)
    assert report.witness_residual == np.inf and not report.ok
    assert "not a state" in report.info["witness_error"]
    assert "witness_error" not in qns_report(corr).info
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(io.correlation_to_json(broken)))
    assert run(["verify", str(path)]) == 1
    assert "not a state" in json.loads(capsys.readouterr().out)["witness_error"]


def _cli(*argv):
    """``python -m qnskit argv`` in a fresh interpreter, so warnings reach stderr."""
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(linalg.__file__).parents[1]))
    return subprocess.run([sys.executable, "-m", "qnskit", *argv], capture_output=True,
                          text=True, env=env, timeout=120)


def test_cli_verify_infinite_diagonal_warns_nothing(tmp_path):
    m = np.diag([np.inf, 1.0]).astype(complex)
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(io.stochastic_to_json(StochasticOperatorMatrix(1, 2, 1, m)),
                               allow_nan=True))
    proc = _cli("verify", str(path))
    assert proc.returncode == 1
    report = json.loads(proc.stdout)
    assert report["hermiticity"] == "nan" and report["psd_defect"] == "inf"
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("alice, message", [
    ([max_entangled(2), np.eye(2)], r"alice term 1 has shape \(2, 2\), expected \(4, 4\)"),
    ([np.eye(2), np.eye(2)], r"alice term 0 has shape \(2, 2\), expected \(4, 4\)"),
], ids=["ragged", "all-wrong-size"])
def test_cli_build_local_names_a_misshapen_term(tmp_path, capsys, alice, message):
    ident = io.matrix_to_json(max_entangled(2))
    path = tmp_path / "local.json"
    path.write_text(json.dumps({
        "dims": {"X": 2, "Y": 2, "A": 2, "B": 2}, "weights": [0.5, 0.5],
        "alice": [io.matrix_to_json(c) for c in alice], "bob": [ident, ident]}))
    assert run(["build", "local", str(path)]) == 2
    assert re.search(message, capsys.readouterr().err)


# ---------------------------------------------------------------------------
# Tracial witnesses: every contraction verifies its matrix


def _non_positive_tracial():
    """Abelian witness whose blocks diag(1.1, -0.1) and diag(-0.1, 1.1) are not
    positive (psd_defect 0.1), while the data they generate is a valid correlation."""
    chois = [np.diag([1.1, -0.1]), np.diag([-0.1, 1.1]), np.diag([0.5, 0.5])]
    e = abelian_from_chois(chois, (0.1, 0.1, 0.8), 1, 2)
    choi = sum(w * np.kron(c, c) for w, c in zip(e.alg.weights, chois))
    return e, choi.astype(complex)


def test_build_tracial_refuses_a_non_positive_witness():
    e, _ = _non_positive_tracial()
    assert e.verification_report().psd_defect == pytest.approx(0.1)
    with pytest.raises(CheckError, match="stochastic algebra matrix fails verification"):
        build_tracial(e)


@pytest.mark.parametrize("kind", ["qns", "cqns", "ns"])
def test_reports_refuse_a_non_positive_tracial_witness(kind):
    e, choi = _non_positive_tracial()
    d = CorrelationDims(1, 1, 2, 2)
    corr, report = {
        "qns": (QnsCorrelation(d, choi, TracialWitness(e)), qns_report),
        "cqns": (CqnsCorrelation(d, choi.reshape(1, 1, 4, 4), TracialWitness(e)), cqns_report),
        "ns": (NsCorrelation(d, np.real(np.diag(choi)).reshape(1, 1, 2, 2), TracialWitness(e)),
               ns_report),
    }[kind]
    assert report(corr, check_witness=False).ok
    result = report(corr)
    assert result.witness_residual == np.inf and not result.ok
    assert "fails verification" in result.info["witness_error"]


def test_cli_refuses_a_non_positive_tracial_witness(tmp_path, capsys):
    e, choi = _non_positive_tracial()
    witness = tmp_path / "wit.json"
    witness.write_text(json.dumps(io.alg_stochastic_to_json(e)))
    assert run(["build", "tracial", str(witness)]) == 2
    assert "fails verification" in capsys.readouterr().err
    payload = tmp_path / "qns.json"
    payload.write_text(json.dumps(io.correlation_to_json(
        QnsCorrelation(CorrelationDims(1, 1, 2, 2), choi, TracialWitness(e)))))
    assert run(["verify", str(payload)]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is False and report["witness_residual"] == "inf"


@pytest.mark.parametrize("kind", ["cqns", "ns"])
def test_reports_refuse_a_witness_of_other_dims(rng, kind):
    """A tracial witness over X = 1 certifies nothing about data over X = Y = 2,
    even when every state or table slice copies the one it generates."""
    d = CorrelationDims(2, 2, 2, 2)
    if kind == "cqns":
        small = build_tracial_cqns(qr.random_tracial_witness(rng, 1, 2, kind="semiclassical"))
        corr = CqnsCorrelation(d, np.broadcast_to(small.states, (2, 2, 4, 4)), small.witness)
        report = cqns_report
    else:
        small = build_tracial_ns(qr.random_tracial_witness(rng, 1, 2, kind="classical"))
        corr = NsCorrelation(d, np.broadcast_to(small.table, (2, 2, 2, 2)), small.witness)
        report = ns_report
    assert report(corr, check_witness=False).ok
    result = report(corr)
    assert result.witness_residual == np.inf and not result.ok
    stored = (2, 2, 4, 4) if kind == "cqns" else (2, 2, 2, 2)
    assert f"shape {(1, 1) + stored[2:]}" in result.info["witness_error"]
    assert f"shape {stored}" in result.info["witness_error"]


# ---------------------------------------------------------------------------
# Tolerances must be positive and finite


@pytest.mark.parametrize("tol", [np.inf, np.nan, 0.0, -1.0])
def test_solve_theta_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="positive and finite"):
        solve_theta(5, [(i, (i + 1) % 5) for i in range(5)], tol=tol)


@pytest.mark.parametrize("tol", ["inf", "nan", "-inf", "0"])
def test_cli_rejects_non_finite_tolerance(tmp_path, capsys, tol):
    graph = tmp_path / "c5.json"
    graph.write_text(json.dumps(io.graph_to_json(Graph.cycle(5))))
    table = tmp_path / "ns.json"  # normalisation residual 4.0
    table.write_text(json.dumps(io.correlation_to_json(
        NsCorrelation(D2, np.full((2, 2, 2, 2), 1.25)))))
    for argv in (["theta", str(graph)], ["verify", str(table)]):
        with pytest.raises(SystemExit) as err:
            run(argv + [f"--tol={tol}"])
        assert err.value.code == 2
        assert "positive and finite" in capsys.readouterr().err


def test_gates_raise_through_require():
    """No hand-written ``if ... tol ...: raise`` outside linalg and theta, and the
    retired exception classes stay gone."""
    retired = ("hermitize", "NonHermitianError", "VerificationError", "CommutationError")
    for path in sorted(pathlib.Path(linalg.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for name in retired:
            assert name not in text, f"{path.name} names {name}"
        if path.name in ("linalg.py", "theta.py"):
            continue
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.If):
                continue
            names = {n.id for n in ast.walk(node.test) if isinstance(n, ast.Name)} | \
                {n.attr for n in ast.walk(node.test) if isinstance(n, ast.Attribute)}
            if any(n == "tol" or n.startswith("TOL_") for n in names):
                assert not any(isinstance(n, ast.Raise) for n in ast.walk(node)), \
                    f"{path.name}:{node.lineno} compares a tolerance by hand"
