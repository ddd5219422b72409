"""Trivial tensor factors (dimension one) through every pipeline stage, and empty ones."""

import json

import numpy as np
import pytest

from qnskit import io
from qnskit import rand as qr
from qnskit.cli import run
from qnskit.correlations import (CorrelationDims, NsCorrelation, build_quantum,
                                 build_tracial, cqns_report, ns_report,
                                 qns_report, reduce_cqns, reduce_ns)
from qnskit.games import from_rule, homomorphism_game, perfect_strategy_check
from qnskit.graphs import (Graph, graph_subspace, kraus_channel_defect, lovasz_theta,
                           stahlke_residual)
from qnskit.linalg import TOL_ALG, channel_defects, max_entangled
from qnskit.stochastic import (StochasticOperatorMatrix, channel_choi, compose, dilate,
                               tensor, verify)
from qnskit.symmetry import fair_residual


@pytest.mark.parametrize("dims", [(1, 2, 2), (2, 1, 2), (2, 2, 1),
                                  (1, 1, 1), (1, 3, 2)])
def test_stochastic_paths_with_unit_factors(rng, dims):
    e = qr.random_stochastic(rng, *dims)
    assert verify(e).ok
    dil = dilate(e)
    assert dil.isometry_defect() <= 1e-8
    assert np.max(np.abs(dil.reconstruct().mat - e.mat)) <= 1e-8
    choi = channel_choi(e, qr.random_state(rng, dims[2]))
    assert np.max(channel_defects(choi, (dims[0], dims[1]))) <= TOL_ALG



@pytest.mark.parametrize("dims, marginal", [((0, 2, 2), 0.0), ((1, 2, 0), 0.0),
                                            ((2, 0, 2), 1.0)])
def test_verify_empty_stochastic_matrix(tmp_path, capsys, dims, marginal):
    # no input or no workspace: the marginal is the empty identity; no outputs
    # with inputs and workspace: Tr_A E = 0, one away from the identity
    e = StochasticOperatorMatrix(*dims, np.zeros((0, 0)))
    report = verify(e)
    assert report.marginal_residual == marginal and report.ok == (marginal == 0.0)
    path = tmp_path / "empty.json"
    path.write_text(io.dump_json(io.stochastic_to_json(e)))
    assert run(["verify", str(path)]) == (0 if marginal == 0.0 else 1)
    assert json.loads(capsys.readouterr().out)["marginal_residual"] == marginal
    if report.ok:
        assert dilate(e).isometry_defect() == 0.0


def test_kraus_family_with_empty_input():
    # input dimension 0: sum M* M is the empty identity, and there is nothing to map
    assert kraus_channel_defect(np.zeros((1, 2, 0))) == 0.0
    assert stahlke_residual(np.zeros((1, 2, 0)), [], [np.eye(2)]) == 0.0

def test_products_with_unit_factors(rng):
    e1 = qr.random_stochastic(rng, 1, 2, 2)
    f1 = qr.random_stochastic(rng, 2, 1, 2)
    assert verify(tensor(e1, f1)).ok
    g = compose(qr.random_stochastic(rng, 2, 1, 2),
                qr.random_stochastic(rng, 1, 2, 1))
    assert verify(g).ok


def test_correlation_with_unit_parties(rng):
    corr = build_quantum(qr.random_stochastic(rng, 1, 2, 2),
                         qr.random_stochastic(rng, 2, 1, 2),
                         qr.random_state(rng, 4))
    assert qns_report(corr).ok
    assert cqns_report(reduce_cqns(corr)).ok
    assert ns_report(reduce_ns(corr)).ok


def test_tracial_with_unit_dims(rng):
    for dims in ((1, 2), (3, 1)):
        corr = build_tracial(qr.random_tracial_witness(rng, *dims))
        assert qns_report(corr).ok
        assert fair_residual(corr) <= 1e-9


def test_single_question_game(rng):
    game = from_rule(np.ones((1, 1, 2, 2), dtype=int))
    p = NsCorrelation(CorrelationDims(1, 1, 2, 2),
                      qr.random_ns_table(rng, 1, 1, 2, 2))
    assert perfect_strategy_check(game, p).ok


def test_zero_source_homomorphism_game():
    u = graph_subspace(Graph.empty(2))     # zero subspace
    v = graph_subspace(Graph.complete(2))
    game = homomorphism_game(u, v)
    from qnskit.correlations import build_local
    ident = build_local([1.0], [max_entangled(2)], [max_entangled(2)],
                        CorrelationDims(2, 2, 2, 2))
    assert perfect_strategy_check(game, ident).ok


def test_theta_single_vertex():
    assert lovasz_theta(Graph.complete(1)) == pytest.approx(1.0, abs=1e-8)
