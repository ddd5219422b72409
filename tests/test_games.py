import numpy as np
import pytest

from qnskit import rand as qr
from qnskit.correlations import (CorrelationDims, NsCorrelation,
                                 compose_correlations, compose_tables,
                                 from_classical)
from qnskit.games import (ConstraintGame, RuleFunction, colouring_game,
                          compose_games, compose_rules, from_rule,
                          _orthocomplement_of_entangled, homomorphism_game,
                          perfect_strategy_check)
from qnskit.graphs import (Graph, graph_subspace, kd2_colouring, kraus_to_choi,
                           vertex_map_kraus)
from qnskit.linalg import CheckError
from qnskit.symmetry import build_locally_tracial

D2 = CorrelationDims(2, 2, 2, 2)


def _colouring_rule(graph: Graph, a_dim: int) -> np.ndarray:
    n = graph.n
    adj = graph.adjacency()
    rule = np.ones((n, n, a_dim, a_dim), dtype=int)
    for x in range(n):
        for y in range(n):
            for a in range(a_dim):
                for b in range(a_dim):
                    if x == y and a != b:
                        rule[x, y, a, b] = 0
                    if adj[x, y] and a == b:
                        rule[x, y, a, b] = 0
    return rule


def _deterministic_table(fmap, gmap, dims: CorrelationDims) -> NsCorrelation:
    table = np.zeros((dims.x, dims.y, dims.a, dims.b))
    for x in range(dims.x):
        for y in range(dims.y):
            table[x, y, fmap[x], gmap[y]] = 1.0
    return NsCorrelation(dims, table)


def test_all_ones_rule_accepts_everything(rng):
    game = from_rule(np.ones((2, 2, 2, 2), dtype=int))
    for _ in range(3):
        p = NsCorrelation(D2, qr.random_ns_table(rng, 2, 2, 2, 2))
        assert perfect_strategy_check(game, p).ok


def test_rule_rejects_invalid_entries():
    with pytest.raises(ValueError):
        RuleFunction(np.full((2, 2, 2, 2), 0.5))


def test_colouring_rule_game_on_k2():
    game = from_rule(_colouring_rule(Graph.complete(2), 2))
    proper = _deterministic_table([0, 1], [0, 1], D2)
    assert perfect_strategy_check(game, proper).ok
    constant = _deterministic_table([0, 0], [0, 0], D2)
    report = perfect_strategy_check(game, constant)
    assert not report.ok
    assert report.max_residual == pytest.approx(1.0)


def test_rule_check_matches_support_condition(rng):
    # for classical strategies the residual check agrees with
    # "rule is zero => probability is zero"
    rule = (rng.random((2, 2, 2, 2)) > 0.3).astype(int)
    rule[:, :, 0, 0] = 1  # keep every question answerable
    game = from_rule(rule)
    for _ in range(10):
        p = NsCorrelation(D2, qr.random_ns_table(rng, 2, 2, 2, 2))
        support_ok = bool(np.all(p.table[rule == 0] <= 1e-12))
        assert perfect_strategy_check(game, p, tol=1e-12).ok == support_ok


def test_strategy_check_works_for_lifted_strategy(rng):
    rule = _colouring_rule(Graph.complete(2), 2)
    game = from_rule(rule)
    p = _deterministic_table([0, 1], [0, 1], D2)
    lifted = from_classical(p)
    assert perfect_strategy_check(game, lifted).ok


def test_colouring_game_dimensions():
    game = colouring_game(Graph.complete(2), 2)
    assert game.n_constraints == 2
    u, v = game.constraints[0]
    assert u.shape == (4, 1)
    assert v.shape == (4, 3)  # complement of the entangled line


def test_colouring_game_with_synchronicity():
    game = colouring_game(Graph.complete(2), 2, synchronous=True)
    assert game.n_constraints == 4
    proper = _deterministic_table([0, 1], [0, 1], D2)
    assert perfect_strategy_check(game, proper).ok
    swapped = _deterministic_table([0, 1], [1, 0], D2)
    assert not perfect_strategy_check(game, swapped).ok


def test_kd2_passes_its_colouring_game():
    game = colouring_game(Graph.complete(4), 2)
    assert perfect_strategy_check(game, kd2_colouring(2)).ok


def test_monotone_in_target_space(rng):
    game = colouring_game(Graph.complete(2), 2)
    p = NsCorrelation(D2, qr.random_ns_table(rng, 2, 2, 2, 2))
    base = perfect_strategy_check(game, p)
    enlarged = ConstraintGame(game.in_dims, game.out_dims, True,
                              tuple((u, np.eye(4, dtype=complex))
                                    for u, _ in game.constraints))
    bigger = perfect_strategy_check(enlarged, p)
    assert bigger.max_residual <= base.max_residual + 1e-12
    assert bigger.ok


def test_hom_game_chain_composes_to_endpoints():
    u = graph_subspace(Graph.complete(2))
    v = graph_subspace(Graph.complete(3))
    w = graph_subspace(Graph.complete(4))
    g1, g2 = homomorphism_game(u, v), homomorphism_game(v, w)
    comp = compose_games(g2, g1)
    assert comp.n_constraints == 1
    cu, cv = comp.constraints[0]
    assert cu.shape[1] == u.dim
    assert cv.shape[1] == w.dim
    # the composed target projector matches the target graph subspace
    assert np.max(np.abs(cv @ cv.conj().T - w.projector())) <= 1e-9


def test_hom_chain_strategies_compose():
    u = graph_subspace(Graph.complete(2))
    v = graph_subspace(Graph.complete(3))
    w = graph_subspace(Graph.complete(4))
    g1, g2 = homomorphism_game(u, v), homomorphism_game(v, w)
    phi1 = kraus_to_choi(vertex_map_kraus([0, 1], 2, 3))
    phi2 = kraus_to_choi(vertex_map_kraus([0, 1, 2], 3, 4))
    s1 = build_locally_tracial([phi1], [1.0], dims=(2, 3))
    s2 = build_locally_tracial([phi2], [1.0], dims=(3, 4))
    assert perfect_strategy_check(g1, s1).ok
    assert perfect_strategy_check(g2, s2).ok
    composed = compose_correlations(s2, s1)
    assert perfect_strategy_check(compose_games(g2, g1), composed).ok


def test_rule_composition_associative(rng):
    r1 = RuleFunction((rng.random((2, 2, 2, 2)) > 0.4).astype(int))
    r2 = RuleFunction((rng.random((2, 2, 2, 2)) > 0.4).astype(int))
    r3 = RuleFunction((rng.random((2, 2, 2, 2)) > 0.4).astype(int))
    left = compose_rules(r3, compose_rules(r2, r1))
    right = compose_rules(compose_rules(r3, r2), r1)
    assert np.array_equal(left.table, right.table)


def test_rule_composition_is_relational(rng):
    r1 = RuleFunction((rng.random((2, 2, 3, 2)) > 0.5).astype(int))
    r2 = RuleFunction((rng.random((3, 2, 2, 2)) > 0.5).astype(int))
    comp = compose_rules(r2, r1)
    for x in range(2):
        for y in range(2):
            for z in range(2):
                for w in range(2):
                    expect = any(r1.allows(x, y, a, b) and r2.allows(a, b, z, w)
                                 for a in range(3) for b in range(2))
                    assert comp.allows(x, y, z, w) == expect


def test_rule_games_compose_through_rules(rng):
    # deterministic perfect strategies compose to a perfect strategy of the
    # composed rule game
    for trial in range(10):
        f = rng.integers(0, 2, size=2)
        g = rng.integers(0, 2, size=2)
        h = rng.integers(0, 2, size=2)
        k = rng.integers(0, 2, size=2)
        rule1 = (rng.random((2, 2, 2, 2)) > 0.6).astype(int)
        rule2 = (rng.random((2, 2, 2, 2)) > 0.6).astype(int)
        for x in range(2):
            for y in range(2):
                rule1[x, y, f[x], g[y]] = 1
                rule2[x, y, h[x], k[y]] = 1
        game1, game2 = from_rule(rule1), from_rule(rule2)
        p1 = _deterministic_table(f, g, D2)
        p2 = _deterministic_table(h, k, D2)
        assert perfect_strategy_check(game1, p1).ok
        assert perfect_strategy_check(game2, p2).ok
        composed_game = compose_games(game2, game1)
        assert composed_game.rule is not None
        composed_strategy = compose_tables(p2, p1)
        assert perfect_strategy_check(composed_game, composed_strategy).ok


def test_check_rejects_dim_mismatch(rng):
    game = colouring_game(Graph.complete(2), 3)
    p = NsCorrelation(D2, qr.random_ns_table(rng, 2, 2, 2, 2))
    with pytest.raises(ValueError):
        perfect_strategy_check(game, p)


def test_composition_preserves_pass_for_tracial_strategies(rng):
    # random tracial behaviours are perfect for their own support games;
    # composed strategies stay perfect for the composed games
    from qnskit.symmetry import build_tracial_ns

    def support_game(p: NsCorrelation):
        return from_rule((p.table > 1e-13).astype(int))

    for _ in range(10):
        p1 = build_tracial_ns(qr.random_tracial_witness(rng, 2, 2, kind="classical"))
        p2 = build_tracial_ns(qr.random_tracial_witness(rng, 2, 2, kind="classical"))
        g1, g2 = support_game(p1), support_game(p2)
        assert perfect_strategy_check(g1, p1).ok
        assert perfect_strategy_check(g2, p2).ok
        composed = compose_tables(p2, p1)
        assert perfect_strategy_check(compose_games(g2, g1), composed).ok


def test_game_subspaces_are_checked_not_recomputed():
    game = colouring_game(Graph.cycle(5), 3, synchronous=True)
    v_edge = _orthocomplement_of_entangled(3)
    assert all(np.array_equal(v, v_edge) for _, v in game.constraints[:10])  # the 10 edges
    again = ConstraintGame(game.in_dims, game.out_dims, True, game.constraints)
    assert all(np.array_equal(a, b) for pa, pb in zip(again.constraints, game.constraints)
               for a, b in zip(pa, pb))
    scaled = game.constraints[:1] + ((game.constraints[1][0], 2 * v_edge),)
    with pytest.raises(CheckError, match="constraint 1: subspaces must have orthonormal"):
        ConstraintGame(game.in_dims, game.out_dims, True, scaled)


def test_decoded_games_are_orthonormalised(tmp_path):
    from qnskit import io
    game = colouring_game(Graph.complete(4), 2)
    obj = io.game_to_json(game)
    for c in obj["constraints"]:
        c["V"] = [[[2 * re, 2 * im] for re, im in vec] for vec in c["V"]]
    decoded = io.game_from_json(obj)
    for (u, v), (u0, v0) in zip(decoded.constraints, game.constraints):
        assert np.abs(v @ v.conj().T - v0 @ v0.conj().T).max() <= 1e-12
    assert perfect_strategy_check(decoded, kd2_colouring(2)).ok
