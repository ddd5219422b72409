"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is fixed here and matches the library defaults.
"""

import time

import numpy as np
import pytest

from qnskit import rand as qr
from qnskit.correlations import (CorrelationDims, NsCorrelation,
                                 QnsCorrelation, build_commuting, build_local,
                                 build_quantum, build_tracial,
                                 compose_correlations, compose_tables,
                                 cqns_report, from_classical, qns_report,
                                 reduce_cqns, reduce_ns, witness_residual)
from qnskit.games import (compose_games, from_rule, homomorphism_game,
                          perfect_strategy_check)
from qnskit.graphs import (Graph, graph_subspace, hom_residual, kd2_colouring,
                           kd2_explicit_states, kraus_to_choi,
                           proper_residuals, realization_basis, stahlke_residual,
                           vertex_map_kraus, xi_qc_lower_bound)
from qnskit.linalg import TOL_ALG
from qnskit.stochastic import with_ancilla_left, with_ancilla_right
from qnskit.symmetry import (build_locally_tracial, build_tracial_ns,
                             channel_sharp, fair_residual)
from qnskit.theta import solve_theta

D2 = CorrelationDims(2, 2, 2, 2)


def _report(name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: PASS{suffix}")


def test_criterion_1_kd2_reproduction():
    start = time.time()
    for d in (2, 3):
        corr = kd2_colouring(d)
        assert cqns_report(corr, tol=1e-9).ok
        residuals = proper_residuals(corr, Graph.complete(d * d))
        assert max(residuals.values()) <= 1e-9
        assert np.max(np.abs(corr.states - kd2_explicit_states(d))) <= 1e-9
        bound = xi_qc_lower_bound(Graph.complete(d * d))
        assert bound == pytest.approx(d, abs=1e-6)
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report("1 complete-graph colouring", f"d=2,3 in {elapsed:.2f}s")


def test_criterion_2_lovasz_theta():
    start = time.time()
    for n in range(1, 11):
        t0 = time.time()
        value = solve_theta(n, [(i, j) for i in range(n) for j in range(i + 1, n)]).value
        assert value == pytest.approx(1.0, abs=1e-6)
        assert time.time() - t0 < 10.0
    for n in (1, 2, 5, 10, 15):
        t0 = time.time()
        value = solve_theta(n, []).value
        assert value == pytest.approx(n, abs=1e-6)
        assert time.time() - t0 < 10.0
    t0 = time.time()
    value = solve_theta(5, [(i, (i + 1) % 5) for i in range(5)]).value
    assert value == pytest.approx(np.sqrt(5), abs=1e-4)
    assert time.time() - t0 < 10.0
    _report("2 Lovasz theta", f"complete/edgeless/C5 in {time.time() - start:.2f}s")


def _random_witness(rng, constructor: str) -> QnsCorrelation:
    if constructor == "local":
        k = int(rng.integers(1, 4))
        return build_local(rng.dirichlet(np.ones(k)),
                           [qr.random_channel_choi(rng, 2, 2) for _ in range(k)],
                           [qr.random_channel_choi(rng, 2, 2) for _ in range(k)],
                           D2)
    if constructor == "quantum":
        return build_quantum(qr.random_stochastic(rng, 2, 2, 2),
                             qr.random_stochastic(rng, 2, 2, 2),
                             qr.random_state(rng, 4))
    if constructor == "commuting":
        e = with_ancilla_right(qr.random_stochastic(rng, 2, 2, 2), 2)
        f = with_ancilla_left(qr.random_stochastic(rng, 2, 2, 2), 2)
        return build_commuting(e, f, qr.random_state(rng, 4))
    return build_tracial(qr.random_tracial_witness(rng, 2, 2))


def test_criterion_3_qns_cone_soundness():
    start = time.time()
    rng = qr.rng_for(31)
    for constructor in ("local", "quantum", "commuting", "tracial"):
        for _ in range(200):
            corr = _random_witness(rng, constructor)
            report = qns_report(corr, tol=1e-8)
            assert report.ok, f"{constructor} witness failed: {report.as_dict()}"
    base = _random_witness(rng, "quantum")
    failures = 0
    for _ in range(50):
        x0, x1 = 0, 1
        y0, a0, b0 = (int(rng.integers(0, 2)) for _ in range(3))
        v = np.zeros(16)
        v[int(np.ravel_multi_index((x0, y0, a0, b0), (2, 2, 2, 2)))] = 1.0
        v[int(np.ravel_multi_index((x1, y0, a0, b0), (2, 2, 2, 2)))] = float(
            rng.choice([1.0, -1.0]))
        bump = 10 ** float(rng.uniform(-4, -2))
        bad = QnsCorrelation(base.dims, base.choi + bump * np.outer(v, v))
        report = qns_report(bad, tol=1e-8, check_witness=False)
        assert report.b_residual > 1e-8
        failures += int(not report.ok)
    assert failures == 50
    elapsed = time.time() - start
    assert elapsed < 60.0
    _report("3 certificate soundness", f"4x200 pass + 50 bumps fail in {elapsed:.1f}s")


def test_criterion_4_classical_reduction():
    rng = qr.rng_for(41)
    for _ in range(100):
        dims = CorrelationDims(2, int(rng.integers(2, 4)), int(rng.integers(2, 4)), 2)
        p = NsCorrelation(dims, qr.random_ns_table(rng, dims.x, dims.y, dims.a, dims.b))
        back = reduce_ns(from_classical(p))
        assert np.max(np.abs(back.table - p.table)) <= 1e-12
    for _ in range(25):
        corr = build_quantum(qr.random_stochastic(rng, 2, 2, 2),
                             qr.random_stochastic(rng, 2, 2, 2),
                             qr.random_state(rng, 4))
        assert cqns_report(reduce_cqns(corr), tol=1e-9).ok
    _report("4 classical reduction", "100 table round-trips, 25 quantum reductions")


def test_criterion_5_fairness():
    rng = qr.rng_for(51)
    for _ in range(10):
        corr = build_tracial(qr.random_tracial_witness(rng, 2, 2))
        assert fair_residual(corr) <= 1e-9
        semi = qr.random_tracial_witness(rng, 2, 2, kind="semiclassical")
        from qnskit.symmetry import build_tracial_cqns
        assert fair_residual(build_tracial_cqns(semi)) <= 1e-9
        cl = qr.random_tracial_witness(rng, 2, 2, kind="classical")
        assert fair_residual(build_tracial_ns(cl)) <= 1e-9
    agreement = 0
    for trial in range(50):
        phi = qr.random_channel_choi(rng, 2, 2)
        psi = channel_sharp(phi) if trial % 2 == 0 else qr.random_channel_choi(rng, 2, 2)
        corr = build_local([1.0], [phi], [psi], D2)
        kernel_fair = fair_residual(corr) <= 1e-9
        algebraic = np.max(np.abs(channel_sharp(psi) - phi)) <= 1e-9
        assert kernel_fair == algebraic
        agreement += 1
    assert agreement == 50
    _report("5 fairness", "30 tracial constructions fair; 50 product-pair matches")


def test_criterion_6_composition():
    rng = qr.rng_for(61)
    for _ in range(25):
        w1 = qr.random_tracial_witness(rng, 2, 2)
        w2 = qr.random_tracial_witness(rng, 2, 2)
        comp = compose_correlations(build_tracial(w2), build_tracial(w1))
        assert qns_report(comp, tol=1e-8, check_witness=False).ok
        assert witness_residual(comp) <= 1e-8  # two-path tracial identity

    # homomorphism chain K2 -> K3 -> K4
    u = graph_subspace(Graph.complete(2))
    v = graph_subspace(Graph.complete(3))
    w = graph_subspace(Graph.complete(4))
    g1, g2 = homomorphism_game(u, v), homomorphism_game(v, w)
    s1 = build_locally_tracial([kraus_to_choi(vertex_map_kraus([0, 1], 2, 3))],
                               [1.0], dims=(2, 3))
    s2 = build_locally_tracial([kraus_to_choi(vertex_map_kraus([0, 1, 2], 3, 4))],
                               [1.0], dims=(3, 4))
    assert perfect_strategy_check(g1, s1).ok
    assert perfect_strategy_check(g2, s2).ok
    assert perfect_strategy_check(compose_games(g2, g1),
                                  compose_correlations(s2, s1)).ok

    for _ in range(10):
        f, g = rng.integers(0, 2, 2), rng.integers(0, 2, 2)
        h, k = rng.integers(0, 2, 2), rng.integers(0, 2, 2)
        rule1 = (rng.random((2, 2, 2, 2)) > 0.5).astype(int)
        rule2 = (rng.random((2, 2, 2, 2)) > 0.5).astype(int)
        for x in range(2):
            for y in range(2):
                rule1[x, y, f[x], g[y]] = 1
                rule2[x, y, h[x], k[y]] = 1
        p1 = _det_table(f, g)
        p2 = _det_table(h, k)
        assert perfect_strategy_check(from_rule(rule1), p1).ok
        assert perfect_strategy_check(from_rule(rule2), p2).ok
        composed = compose_games(from_rule(rule2), from_rule(rule1))
        assert perfect_strategy_check(composed, compose_tables(p2, p1)).ok
    _report("6 composition", "25 tracial pairs, hom chain, 10 rule compositions")


def _det_table(fmap, gmap) -> NsCorrelation:
    table = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            table[x, y, fmap[x], gmap[y]] = 1.0
    return NsCorrelation(D2, table)


def test_criterion_7_homomorphism_equivalence():
    rng = qr.rng_for(71)
    u = graph_subspace(Graph.complete(2))
    targets = [graph_subspace(Graph.complete(3)),
               graph_subspace(Graph.from_edges(3, [(0, 1)])),
               graph_subspace(Graph.empty(3))]
    for trial in range(50):
        choi = qr.random_channel_choi(rng, 2, 3)
        kraus = _choi_to_kraus(choi, 2, 3)
        v = targets[trial % len(targets)]
        assert (stahlke_residual(kraus, realization_basis(u), realization_basis(v)) <= 1e-8) \
            == (hom_residual(choi, u, v) <= 1e-8)
    v3 = graph_subspace(Graph.complete(3))
    v1 = graph_subspace(Graph.complete(1))
    good = kraus_to_choi(vertex_map_kraus([0, 1], 2, 3))
    bad = kraus_to_choi(vertex_map_kraus([0, 0], 2, 1))
    assert hom_residual(good, u, v3) <= TOL_ALG
    assert stahlke_residual(vertex_map_kraus([0, 1], 2, 3),
                            realization_basis(u), realization_basis(v3)) <= TOL_ALG
    assert not hom_residual(bad, u, v1) <= TOL_ALG
    assert not stahlke_residual(vertex_map_kraus([0, 0], 2, 1),
                                realization_basis(u), realization_basis(v1)) <= TOL_ALG
    _report("7 homomorphism equivalence", "50 random + complete-graph fixtures")


def _choi_to_kraus(choi, din, dout):
    w, vecs = np.linalg.eigh((choi + choi.conj().T) / 2)
    return [np.sqrt(lam) * col.reshape(din, dout).T
            for lam, col in zip(w, vecs.T) if lam > 1e-12]


def test_criterion_8_synchronicity_boundary():
    rng = qr.rng_for(81)
    from qnskit.algebra import AlgStochasticMatrix, matrix_algebra
    from qnskit.stochastic import from_povms
    for trial in range(10):
        pvms = [qr.random_pvm(rng, 4, 3) for _ in range(3)]
        witness = AlgStochasticMatrix(matrix_algebra(4), (from_povms(pvms),))
        p = build_tracial_ns(witness)
        for x in range(3):
            for a in range(3):
                for b in range(3):
                    if a != b:
                        assert abs(p.table[x, x, a, b]) <= 1e-12

    povm = [np.diag([0.7, 0.3]), np.diag([0.3, 0.7])]
    witness = AlgStochasticMatrix(matrix_algebra(2),
                                  (from_povms([povm, povm[::-1]]),))
    p = build_tracial_ns(witness)
    assert witness_residual(p) <= 1e-12      # tracial by construction
    assert fair_residual(p) <= 1e-9          # hence fair
    off_diag = max(p.table[x, x, a, b] for x in range(2)
                   for a in range(2) for b in range(2) if a != b)
    assert off_diag > 1e-3                   # strictly non-synchronous
    _report("8 synchronicity boundary", f"PVM synchronous; POVM off-diagonal {off_diag:.2f}")
