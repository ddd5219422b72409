import itertools

import numpy as np
import pytest

from qnskit import rand as qr
from qnskit.correlations import cqns_report, qns_report, witness_residual
from qnskit.graphs import (Graph, SkewSymmetricSubspace, cycle5_umbrella,
                           graph_subspace, hom_residual, independence_number,
                           kd2_colouring, kd2_explicit_states, kraus_to_choi,
                           orth_rep_to_colouring, proper_residuals,
                           realization_basis, realize_vector, stahlke_residual,
                           vertex_map_kraus)
from qnskit.linalg import TOL_ALG, CheckError, max_entangled_vector


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 5)])
    for bad in [(0, 1, 2), (0, 1.7), ("0", "2")]:
        with pytest.raises(ValueError, match="pairs of integer vertices"):
            Graph.from_edges(3, [bad])
    g = Graph.from_edges(3, [(1, 0), (0, 1), (1, 2)])
    assert g.edges.tolist() == [[0, 1], [1, 2]]


def test_independence_number():
    assert independence_number(Graph.complete(5)) == 1
    assert independence_number(Graph.empty(6)) == 6
    assert independence_number(Graph.cycle(5)) == 2


def test_independence_number_matches_vertex_subsets(rng):
    for _ in range(20):
        n = int(rng.integers(1, 10))
        g = Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2)
                                 if rng.random() < 0.5])
        adj = g.adjacency()
        alpha = max(len(s) for k in range(n + 1) for s in itertools.combinations(range(n), k)
                    if not adj[np.ix_(s, s)].any())
        assert independence_number(g) == alpha


def test_graph_subspace_empty_and_k2():
    assert graph_subspace(Graph.empty(3)).dim == 0
    u = graph_subspace(Graph.complete(2))
    assert u.dim == 2
    span = u.projector()
    expect = np.zeros((4, 4))
    expect[1, 1] = expect[2, 2] = 1.0
    assert np.allclose(span, expect)


def test_graph_subspace_dim_counts_ordered_pairs(rng):
    for _ in range(5):
        n = int(rng.integers(2, 6))
        mask = rng.random((n, n)) < 0.4
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]]
        g = Graph.from_edges(n, edges)
        assert graph_subspace(g).dim == 2 * len(g.edges)


def test_skew_subspace_rejects_entangled_overlap():
    n = 2
    vec = np.eye(n).reshape(-1)  # the maximally entangled direction
    with pytest.raises(ValueError):
        SkewSymmetricSubspace.from_vectors(n, [vec])


def test_skew_subspace_rejects_asymmetric():
    vecs = np.zeros((4, 1), dtype=complex)
    vecs[1, 0] = 1.0  # e_0 (x) e_1 alone is not flip invariant
    with pytest.raises(ValueError):
        SkewSymmetricSubspace(2, vecs)


def test_realize_vector_matrix_unit():
    zeta = np.zeros(4)
    zeta[1] = 1.0  # e_0 (x) e_1
    out = realize_vector(zeta, (2, 2))
    expect = np.zeros((2, 2))
    expect[1, 0] = 1.0
    assert np.allclose(out, expect)


def test_realization_trace_equals_pairing(rng):
    for _ in range(10):
        zeta = qr.complex_gaussian(rng, 9)
        assert np.trace(realize_vector(zeta, (3, 3))) == pytest.approx(
            max_entangled_vector(3) @ zeta)


def test_realization_of_graph_space_is_adjacency_pattern():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    mats = realization_basis(graph_subspace(g))
    total = sum(np.abs(m) for m in mats)
    adj = g.adjacency()
    assert np.allclose((total > 1e-12), adj > 0)


def test_stahlke_identity_channel(rng):
    u = graph_subspace(Graph.complete(3))
    basis = realization_basis(u)
    assert stahlke_residual([np.eye(3)], basis, basis) <= TOL_ALG


def test_stahlke_vertex_map_homomorphism():
    u = graph_subspace(Graph.complete(2))
    v = graph_subspace(Graph.complete(3))
    kraus = vertex_map_kraus([0, 1], 2, 3)
    assert stahlke_residual(kraus, realization_basis(u), realization_basis(v)) <= TOL_ALG


@pytest.mark.parametrize("f, dim_in, match", [
    ([0, -1, 1], 3, r"needs 3 integers in 0\.\.1, got vertex 1 maps to -1$"),  # no wrap
    (lambda x: 1.7, 2, r"got vertex 0 maps to 1\.7$"),  # no truncation to 1
    ([0, 1, 1], 2, "needs 2 integers in 0..1, got 3 images$"),  # no silent cut
    ([0, True], 2, "got vertex 1 maps to True$")])
def test_vertex_map_refuses_images_outside_the_target(f, dim_in, match):
    with pytest.raises(ValueError, match=match):
        vertex_map_kraus(f, dim_in, 2)


def test_stahlke_fails_without_homomorphism():
    u = graph_subspace(Graph.complete(2))
    v = graph_subspace(Graph.complete(1))  # no edges: empty target
    kraus = vertex_map_kraus([0, 0], 2, 1)
    resid = stahlke_residual(kraus, realization_basis(u), realization_basis(v))
    assert resid > 0.1


def test_stahlke_requires_channel():
    with pytest.raises(ValueError):
        stahlke_residual([2 * np.eye(2)], [np.eye(2)], [np.eye(2)])


def test_hom_check_identity(rng):
    u = graph_subspace(Graph.complete(3))
    assert hom_residual(np.asarray(kraus_to_choi([np.eye(3)])), u, u) <= TOL_ALG


def test_hom_check_k2_to_k3_and_k1():
    u = graph_subspace(Graph.complete(2))
    v3 = graph_subspace(Graph.complete(3))
    v1 = graph_subspace(Graph.complete(1))
    good = kraus_to_choi(vertex_map_kraus([0, 1], 2, 3))
    bad = kraus_to_choi(vertex_map_kraus([0, 0], 2, 1))
    assert hom_residual(good, u, v3) <= TOL_ALG
    assert hom_residual(bad, u, v1) > 0.5


def test_hom_residual_requires_channel_to_tol_alg():
    u = graph_subspace(Graph.complete(2))
    v = graph_subspace(Graph.complete(3))
    choi = kraus_to_choi(vertex_map_kraus([0, 1], 2, 3))
    not_tp, not_hermitian = choi.copy(), choi.copy()
    not_tp[0, 0] += 5e-8
    not_hermitian[0, 1] += 1e-8
    for bad in (not_tp, not_hermitian):
        with pytest.raises(ValueError, match="Choi matrix of a channel"):
            hom_residual(bad, u, v)


def test_stahlke_agrees_with_hom_check(rng):
    # the two homomorphism tests agree on random channels and subspaces
    u = graph_subspace(Graph.complete(2))
    targets = [graph_subspace(Graph.complete(3)),
               graph_subspace(Graph.from_edges(3, [(0, 1)])),
               graph_subspace(Graph.empty(3))]
    agreements = 0
    for trial in range(20):
        choi = qr.random_channel_choi(rng, 2, 3)
        kraus = _choi_to_kraus(choi, 2, 3)
        v = targets[trial % len(targets)]
        a = stahlke_residual(kraus, realization_basis(u), realization_basis(v)) <= 1e-8
        b = hom_residual(choi, u, v) <= 1e-8
        assert a == b
        agreements += 1
    assert agreements == 20


def _choi_to_kraus(choi, din, dout):
    w, vecs = np.linalg.eigh((choi + choi.conj().T) / 2)
    out = []
    for lam, col in zip(w, vecs.T):
        if lam > 1e-12:
            out.append(np.sqrt(lam) * col.reshape(din, dout).T)
    return out


def test_proper_check_k2_basis_vectors():
    corr = orth_rep_to_colouring([np.array([1, 0]), np.array([0, 1])])
    assert max(proper_residuals(corr, Graph.complete(2)).values()) <= TOL_ALG
    assert cqns_report(corr).ok


def test_umbrella_colours_c5():
    vectors = cycle5_umbrella()
    g = Graph.cycle(5)
    for x, y in g.edges:
        assert abs(np.vdot(vectors[x], vectors[y])) <= 1e-12
    corr = orth_rep_to_colouring(vectors, g)
    assert max(proper_residuals(corr, g).values()) <= 1e-12
    assert cqns_report(corr).ok
    assert witness_residual(corr) <= 1e-12


def test_nonorthogonal_vectors_residual_formula(rng):
    v0 = qr.complex_gaussian(rng, 3)
    v0 /= np.linalg.norm(v0)
    v1 = qr.complex_gaussian(rng, 3)
    v1 /= np.linalg.norm(v1)
    corr = orth_rep_to_colouring([v0, v1])
    res = proper_residuals(corr, Graph.complete(2))
    expect = abs(np.vdot(v1, v0)) ** 2
    assert res[(0, 1)] == pytest.approx(expect, abs=1e-10)


def test_orth_rep_validates_against_graph(rng):
    v = qr.complex_gaussian(rng, 3)
    v /= np.linalg.norm(v)
    with pytest.raises(ValueError):
        orth_rep_to_colouring([v, v], Graph.complete(2))


def test_orth_rep_names_the_first_failing_edge():
    # on K4 the edges (0, 2) and (0, 3) both fail; (0, 2) comes first in edge order
    e0, e1, e2 = np.eye(3)
    vectors = [e0, e1, (e0 + e2) / np.sqrt(2), (e0 - e2) / np.sqrt(2)]
    with pytest.raises(CheckError, match=r"vectors on edge \(0,2\) are not orthogonal"):
        orth_rep_to_colouring(vectors, Graph.complete(4))


def test_kd2_invariants():
    for d in (2, 3):
        corr = kd2_colouring(d)
        report = cqns_report(corr)
        assert report.ok
        graph = Graph.complete(d * d)
        assert max(proper_residuals(corr, graph).values()) <= TOL_ALG
        # workspace marginals are maximally mixed
        s = corr.states.reshape(d * d, d * d, d, d, d, d)
        tr_a = s.trace(axis1=2, axis2=4)
        assert np.max(np.abs(tr_a - np.eye(d) / d)) <= 1e-12


def test_kd2_refuses_a_d_that_is_not_an_integer_at_least_2():
    for d in (2.0, "3", True):
        with pytest.raises(ValueError, match=rf"^d must be integers, got {d!r}$"):
            kd2_colouring(d)
    for d in (1, -3):
        with pytest.raises(ValueError, match="^d must be at least 2$"):
            kd2_colouring(d)


def test_kd2_two_path_identity():
    for d in (2, 3):
        corr = kd2_colouring(d)
        explicit = kd2_explicit_states(d)
        assert np.max(np.abs(corr.states - explicit)) <= 1e-9


def test_kd2_properness_sum_rule():
    # diagonal pairing value: sum_ab <sigma_xy, e_a e_b* (x) e_a e_b*> is
    # d when x equals y and zero otherwise
    d = 2
    corr = kd2_colouring(d)
    from qnskit.linalg import max_entangled
    omega = max_entangled(d)
    for x in range(d * d):
        for y in range(d * d):
            val = np.real(np.trace(corr.states[x, y] @ omega))
            assert val == pytest.approx(d if x == y else 0.0, abs=1e-10)


def test_kd2_lifts_to_qns():
    from qnskit.correlations import lift_cqns
    corr = kd2_colouring(2)
    lifted = lift_cqns(corr)
    assert qns_report(lifted).ok
