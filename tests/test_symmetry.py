import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnskit import rand as qr
from qnskit.algebra import (abelian_from_chois, compose_alg,
                            matrix_algebra, tracial_choi)
from qnskit.correlations import (CorrelationDims, build_local, build_tracial,
                                 qns_report, reduce_cqns, reduce_ns,
                                 witness_residual)
from qnskit.linalg import TOL_ALG, apply_choi, channel_defects, max_entangled, state_defect
from qnskit.symmetry import (build_locally_tracial, build_tracial_cqns,
                             build_tracial_ns, channel_sharp, fair_residual,
                             fair_state_residual, image_reciprocal_witness,
                             reciprocal_from_state, reciprocal_residual,
                             reciprocal_state)
from qnskit import symmetry

D = CorrelationDims(2, 2, 2, 2)


# --------------------------------------------------------------------------
# fair states


def test_maximally_mixed_is_fair():
    assert fair_state_residual(np.eye(4) / 4, 2) <= TOL_ALG


def test_diagonal_pair_is_fair():
    rho = np.zeros((4, 4))
    rho[0, 0] = 1.0  # e_0 e_0* (x) e_0 e_0*
    assert fair_state_residual(rho, 2) <= TOL_ALG


def test_mismatched_pair_is_not_fair():
    rho = np.zeros((4, 4))
    rho[1, 1] = 1.0  # e_0 e_0* (x) e_1 e_1*
    assert fair_state_residual(rho, 2) == pytest.approx(1.0)


def test_product_with_transpose_is_fair(rng):
    omega = qr.random_state(rng, 3)
    assert fair_state_residual(np.kron(omega, omega.T), 3) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_tracial_trace_property(seed):
    rng = np.random.default_rng(seed)
    alg = qr.random_algebra(rng, max_blocks=3, max_dim=3)
    u = [qr.complex_gaussian(rng, d, d) for d in alg.block_dims]
    v = [qr.complex_gaussian(rng, d, d) for d in alg.block_dims]
    uv = [a @ b for a, b in zip(u, v)]
    vu = [b @ a for a, b in zip(u, v)]
    assert alg.trace(uv) == pytest.approx(alg.trace(vu))


# --------------------------------------------------------------------------
# the sharp involution


def test_sharp_identity_channel():
    assert np.allclose(channel_sharp(max_entangled(3)), max_entangled(3))


def test_sharp_transpose_map_fixed():
    # Choi of the transpose map is the flip; it is symmetric, hence fixed
    d = 2
    c4 = np.zeros((d, d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            c4[i, j, j, i] = 1.0
    choi = c4.reshape(d * d, d * d)
    assert np.allclose(channel_sharp(choi), choi)


def test_sharp_involution_and_cp(rng):
    for _ in range(5):
        choi = qr.random_channel_choi(rng, 2, 3)
        sharp = channel_sharp(choi)
        assert np.max(channel_defects(sharp, (2, 3))) <= TOL_ALG
        assert np.allclose(channel_sharp(sharp), choi)


def test_sharp_matches_direct_application(rng):
    choi = qr.random_channel_choi(rng, 2, 3)
    omega = qr.complex_gaussian(rng, 2, 2)
    via_sharp = apply_choi(channel_sharp(choi), (2, 3), omega)
    direct = apply_choi(choi, (2, 3), omega.T).T
    assert np.allclose(via_sharp, direct, atol=1e-12)


# --------------------------------------------------------------------------
# fairness of correlations


def test_product_with_sharp_is_fair(rng):
    choi = qr.random_channel_choi(rng, 2, 2)
    corr = build_local([1.0], [choi], [channel_sharp(choi)], D)
    assert fair_residual(corr) <= TOL_ALG


def test_mismatched_product_is_not_fair():
    # two distinct deterministic channels
    def det_choi(fmap):
        c4 = np.zeros((2, 2, 2, 2), dtype=complex)
        for x in range(2):
            c4[x, fmap[x], x, fmap[x]] = 1.0
        return c4.reshape(4, 4)

    corr = build_local([1.0], [det_choi([0, 1])], [det_choi([1, 0])], D)
    assert not fair_residual(corr) <= TOL_ALG


def test_fairness_iff_sharp_condition(rng):
    for trial in range(10):
        phi = qr.random_channel_choi(rng, 2, 2)
        if trial % 2 == 0:
            psi = channel_sharp(phi)
        else:
            psi = qr.random_channel_choi(rng, 2, 2)
        corr = build_local([1.0], [phi], [psi], D)
        algebraic = np.max(np.abs(channel_sharp(psi) - phi)) <= 1e-9
        assert (fair_residual(corr) <= TOL_ALG) == algebraic


def test_aggregate_fairness_of_mixtures(rng):
    # a mixture can be fair through the summed condition even when no term
    # pairs a channel with its own sharp
    phi1 = qr.random_channel_choi(rng, 2, 2)
    phi2 = qr.random_channel_choi(rng, 2, 2)
    psi1, psi2 = channel_sharp(phi2), channel_sharp(phi1)
    corr = build_local([0.5, 0.5], [phi1, phi2], [psi1, psi2], D)
    assert np.max(np.abs(channel_sharp(psi1) - phi1)) > 1e-3  # not termwise
    assert fair_residual(corr) <= TOL_ALG
    # breaking the aggregate identity breaks fairness
    bad = build_local([0.5, 0.5], [phi1, phi2],
                      [psi1, qr.random_channel_choi(rng, 2, 2)], D)
    assert not fair_residual(bad) <= TOL_ALG


def test_fair_requires_square_dims(rng):
    corr = build_local([1.0], [qr.random_channel_choi(rng, 2, 3)],
                       [qr.random_channel_choi(rng, 2, 3)],
                       CorrelationDims(2, 2, 3, 3))
    assert np.isfinite(fair_residual(corr))  # square out dims are fine
    bad = build_local([1.0], [qr.random_channel_choi(rng, 2, 2)],
                      [qr.random_channel_choi(rng, 3, 2)],
                      CorrelationDims(2, 3, 2, 2))
    with pytest.raises(ValueError):
        fair_residual(bad)


# --------------------------------------------------------------------------
# tracial constructions


def test_scalar_algebra_tracial_is_product_with_sharp(rng):
    choi = qr.random_channel_choi(rng, 2, 2)
    tracial = build_tracial(abelian_from_chois([choi], [1.0], 2, 2))
    direct = build_local([1.0], [choi], [channel_sharp(choi)], D)
    assert np.max(np.abs(tracial.choi - direct.choi)) <= 1e-12


def test_abelian_tracial_equals_locally_tracial(rng):
    chois = [qr.random_channel_choi(rng, 2, 2) for _ in range(3)]
    weights = rng.dirichlet(np.ones(3))
    via_alg = build_tracial(abelian_from_chois(chois, weights, 2, 2))
    via_channels = build_locally_tracial(chois, weights, dims=(2, 2))
    assert np.max(np.abs(via_alg.choi - via_channels.choi)) <= 1e-12
    direct = build_local(weights, chois, [channel_sharp(c) for c in chois], D)
    assert np.max(np.abs(via_alg.choi - direct.choi)) <= 1e-12


def test_random_tracial_passes_qns_and_fair(rng):
    for _ in range(10):
        witness = qr.random_tracial_witness(rng, 2, 2)
        corr = build_tracial(witness)
        report = qns_report(corr)
        assert report.ok
        assert fair_residual(corr) <= 1e-9


def test_tracial_reductions_are_fair_and_consistent(rng):
    witness = qr.random_tracial_witness(rng, 2, 2, kind="semiclassical")
    cq = build_tracial_cqns(witness)
    assert fair_residual(cq) <= 1e-9
    assert witness_residual(cq) <= 1e-12
    lifted = build_tracial(witness)
    assert np.max(np.abs(reduce_cqns(lifted).states - cq.states)) <= 1e-12

    cl = qr.random_tracial_witness(rng, 2, 2, kind="classical")
    p = build_tracial_ns(cl)
    assert fair_residual(p) <= 1e-9
    assert np.max(np.abs(reduce_ns(build_tracial(cl)).table - p.table)) <= 1e-12


def test_tracial_cqns_requires_semiclassical(rng):
    full = qr.random_tracial_witness(rng, 2, 2, kind="full")
    with pytest.raises(ValueError):
        build_tracial_cqns(full)


def test_pvm_tracial_ns_is_synchronous(rng):
    from qnskit.algebra import AlgStochasticMatrix
    from qnskit.stochastic import from_povms
    pvms = [qr.random_pvm(rng, 4, 3) for _ in range(2)]
    witness = AlgStochasticMatrix(matrix_algebra(4), (from_povms(pvms),))
    p = build_tracial_ns(witness)
    for x in range(2):
        for a in range(3):
            for b in range(3):
                if a != b:
                    assert abs(p.table[x, x, a, b]) <= 1e-12


def test_povm_tracial_ns_not_synchronous():
    # explicit two-outcome POVM that is not a PVM
    from qnskit.algebra import AlgStochasticMatrix
    from qnskit.stochastic import from_povms
    povm = [np.diag([0.7, 0.3]), np.diag([0.3, 0.7])]
    witness = AlgStochasticMatrix(matrix_algebra(2),
                                  (from_povms([povm, povm[::-1]]),))
    p = build_tracial_ns(witness)
    assert fair_residual(p) <= 1e-9
    # tau(g_{x,a} g_{x,b}) = Tr(diag(.7,.3) diag(.3,.7)) / 2 = 0.21
    assert p.table[0, 0, 0, 1] == pytest.approx(0.21)
    assert p.table[0, 0, 0, 1] > 1e-3  # strictly non-synchronous


# --------------------------------------------------------------------------
# reciprocal states


def test_scalar_reciprocal_is_twisted_product(rng):
    omega = qr.random_state(rng, 3)
    witness = reciprocal_from_state(omega)
    assert np.max(np.abs(reciprocal_state(witness) - np.kron(omega, omega.T))) <= 1e-12


def test_abelian_reciprocal_is_exchangeable(rng):
    # diagonal blocks: reciprocal state is sum_j w_j q_j (x) q_j on the diagonal
    weights = rng.dirichlet(np.ones(3))
    dists = rng.dirichlet(np.ones(4), size=3)
    from qnskit.algebra import AlgStochasticMatrix, abelian_algebra
    from qnskit.stochastic import StochasticOperatorMatrix
    blocks = tuple(StochasticOperatorMatrix(1, 4, 1, np.diag(q).astype(complex))
                   for q in dists)
    witness = AlgStochasticMatrix(abelian_algebra(weights), blocks)
    omega = reciprocal_state(witness)
    expect = sum(w * np.kron(np.diag(q), np.diag(q)) for w, q in zip(weights, dists))
    assert np.max(np.abs(omega - expect)) <= 1e-12
    assert reciprocal_residual(weights, [np.diag(q) for q in dists], omega) <= TOL_ALG


def test_reciprocal_certificate_rejects_wrong_target(rng):
    omega = qr.random_state(rng, 2)
    target = np.kron(omega, omega.T) + 0.1 * np.eye(4)
    assert not reciprocal_residual([1.0], [omega], target) <= TOL_ALG


def test_tracial_image_of_reciprocal_is_reciprocal(rng):
    for _ in range(5):
        corr_wit = qr.random_tracial_witness(rng, 2, 3)
        rec_wit = qr.random_tracial_witness(rng, 1, 2)
        corr = build_tracial(corr_wit)
        omega_in = reciprocal_state(rec_wit)
        assert max(state_defect(omega_in), fair_state_residual(omega_in, 2)) <= TOL_ALG
        image = corr.apply(omega_in)
        out_wit = image_reciprocal_witness(corr_wit, rec_wit)
        assert np.max(np.abs(reciprocal_state(out_wit) - image)) <= 1e-9


def test_tracial_cqns_image_of_exchangeable_is_reciprocal(rng):
    # a classical-to-quantum tracial correlation maps exchangeable input
    # distributions to states carrying a reciprocal witness
    corr_wit = qr.random_tracial_witness(rng, 2, 3, kind="semiclassical")
    rec_wit = qr.random_tracial_witness(rng, 1, 2, kind="classical")
    e = build_tracial_cqns(corr_wit)
    q_in = np.real(np.einsum("xyxy->xy", reciprocal_state(rec_wit).reshape(2, 2, 2, 2)))
    image = np.einsum("xy,xyij->ij", q_in, e.states)
    out_wit = image_reciprocal_witness(corr_wit, rec_wit)
    assert np.max(np.abs(reciprocal_state(out_wit) - image)) <= 1e-9
    assert max(state_defect(image), fair_state_residual(image, 3)) <= TOL_ALG


def test_tracial_ns_image_of_exchangeable_is_exchangeable(rng):
    # classical analogue of the reciprocal invariance: a tracial behaviour
    # maps exchangeable input distributions to distributions carrying a
    # classical reciprocal witness over the tensor algebra
    corr_wit = qr.random_tracial_witness(rng, 2, 3, kind="classical")
    rec_wit = qr.random_tracial_witness(rng, 1, 2, kind="classical")
    p = build_tracial_ns(corr_wit)
    q_in = np.real(np.einsum("xyxy->xy", reciprocal_state(rec_wit).reshape(2, 2, 2, 2)))
    q_out = np.einsum("xyab,xy->ab", p.table, q_in)
    out_wit = image_reciprocal_witness(corr_wit, rec_wit)
    assert out_wit.classical_defect() <= TOL_ALG
    omega_out = reciprocal_state(out_wit)
    diag = np.real(np.einsum("abab->ab", omega_out.reshape(3, 3, 3, 3)))
    assert np.max(np.abs(diag - q_out)) <= 1e-9
    # and the full matrix is diagonal, i.e. a classical distribution
    assert np.max(np.abs(omega_out - np.diag(np.diag(omega_out)))) <= 1e-12


def test_compose_alg_matches_correlation_composition(rng):
    w1 = qr.random_tracial_witness(rng, 2, 2)
    w2 = qr.random_tracial_witness(rng, 2, 2)
    composed = compose_alg(w2, w1)
    g = build_tracial(composed)
    direct = np.asarray(tracial_choi(composed))
    assert np.max(np.abs(g.choi - direct)) == 0.0
    from qnskit.correlations import compose_correlations
    two_path = compose_correlations(build_tracial(w2), build_tracial(w1))
    assert np.max(np.abs(two_path.choi - g.choi)) <= 1e-8


@pytest.mark.parametrize("subspace", [symmetry.fair_subspace, symmetry.classical_fair_subspace])
def test_cached_fair_subspaces_are_read_only(rng, subspace):
    corr = build_tracial(qr.random_tracial_witness(rng, 2, 2))
    before = fair_residual(corr)
    with pytest.raises(ValueError, match="read-only"):
        subspace(2)[:] = 0
    assert fair_residual(corr) == before
