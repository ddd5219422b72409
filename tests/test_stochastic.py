import numpy as np
import pytest

from qnskit import rand as qr
from qnskit.linalg import TOL_ALG, CheckError, channel_defects, kron, max_entangled
from qnskit.stochastic import (StochasticOperatorMatrix, channel_choi,
                               classical_defect, commuting_product, compose, dilate,
                               from_choi, from_povms, max_commutator,
                               semiclassical_defect, tensor, to_classical,
                               to_semiclassical, verify, with_ancilla_left,
                               with_ancilla_right)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)


def test_verify_omega_passes():
    e = from_choi(max_entangled(3), 3, 3)
    assert verify(e).ok


def test_verify_depolarising_passes():
    mat = kron(np.eye(2), kron(np.eye(3) / 3, np.eye(2)))
    e = StochasticOperatorMatrix(2, 3, 2, mat)
    assert verify(e).ok


def test_verify_scaled_fails_marginal():
    e = from_choi(2 * max_entangled(2), 2, 2)
    report = verify(e)
    assert not report.ok
    assert report.marginal_residual == pytest.approx(1.0)


def test_verify_reports_psd_failure():
    mat = np.diag([1.0, -0.5, 1.0, 0.5])  # hermitian, not psd
    e = StochasticOperatorMatrix(2, 2, 1, mat)
    report = verify(e)
    assert not report.ok
    assert report.psd_defect >= 0.5


def test_dilate_omega_rank_truncation():
    d = 3
    e = from_choi(max_entangled(d), d, d)
    dil = dilate(e)
    assert dil.dim_k == 1
    for a in range(d):
        for x in range(d):
            assert abs(dil.blocks[a, x, 0, 0]) == pytest.approx(1.0 if a == x else 0.0,
                                                                abs=1e-10)


def test_dilate_reconstructs_random(rng):
    e = qr.random_stochastic(rng, 2, 3, 2)
    dil = dilate(e)
    assert dil.isometry_defect() <= 1e-8
    assert np.max(np.abs(dil.reconstruct().mat - e.mat)) <= 1e-8


def test_dilate_rejects_invalid():
    bad = from_choi(2 * max_entangled(2), 2, 2)
    with pytest.raises(CheckError, match="fails verification"):
        dilate(bad)


def test_dilate_pvm_blocks_partial_isometries(rng):
    pvms = [qr.random_pvm(rng, 4, 2) for _ in range(2)]
    e = from_povms(pvms)
    dil = dilate(e)
    for x in range(2):
        for a in range(2):
            v = dil.blocks[a, x]
            gram = v.conj().T @ v
            # V*V equals the PVM element, an idempotent
            assert np.max(np.abs(gram @ gram - gram)) <= 1e-8
            assert np.max(np.abs(gram - pvms[x][a])) <= 1e-8


def test_channel_trivial_h_returns_choi(rng):
    e = qr.random_stochastic(rng, 2, 3, 1)
    out = channel_choi(e, np.eye(1))
    assert np.allclose(out, e.mat)


def test_channel_depolarising(rng):
    mat = kron(np.eye(2), kron(np.eye(2) / 2, np.eye(3)))
    e = StochasticOperatorMatrix(2, 2, 3, mat)
    choi = channel_choi(e, qr.random_state(rng, 3))
    assert np.allclose(choi, kron(np.eye(2), np.eye(2) / 2))


def test_channel_output_is_channel(rng):
    for _ in range(5):
        e = qr.random_stochastic(rng, 3, 2, 2)
        choi = channel_choi(e, qr.random_state(rng, 2))
        assert np.max(channel_defects(choi, (3, 2))) <= 1e-9


def test_channel_rejects_non_state(rng):
    e = qr.random_stochastic(rng, 2, 2, 2)
    with pytest.raises(ValueError):
        channel_choi(e, np.eye(2))  # trace 2


def test_tensor_of_omegas_is_omega():
    e = from_choi(max_entangled(2), 2, 2)
    f = from_choi(max_entangled(3), 3, 3)
    big = tensor(e, f)
    # Omega_{XY} pairs composite indices; tensor + reshuffle reproduces it
    expect = from_choi(max_entangled(6), 6, 6)
    perm_check = np.max(np.abs(big.mat - expect.mat))
    assert perm_check <= 1e-12


def test_tensor_verifies(rng):
    e = qr.random_stochastic(rng, 2, 2, 2)
    f = qr.random_stochastic(rng, 3, 2, 2)
    assert verify(tensor(e, f)).ok


def test_tensor_channel_splits(rng):
    e = qr.random_stochastic(rng, 2, 2, 2)
    f = qr.random_stochastic(rng, 2, 2, 3)
    sa, sb = qr.random_state(rng, 2), qr.random_state(rng, 3)
    joint = channel_choi(tensor(e, f), kron(sa, sb))
    ca, cb = channel_choi(e, sa), channel_choi(f, sb)
    direct = kron(ca, cb).reshape(2, 2, 2, 2, 2, 2, 2, 2)
    direct = np.transpose(direct, (0, 2, 1, 3, 4, 6, 5, 7)).reshape(16, 16)
    assert np.max(np.abs(joint - direct)) <= 1e-12


def test_commuting_product_equals_tensor_on_lifts(rng):
    e = qr.random_stochastic(rng, 2, 2, 2)
    f = qr.random_stochastic(rng, 2, 3, 3)
    lifted_e = with_ancilla_right(e, 3)
    lifted_f = with_ancilla_left(f, 2)
    assert max_commutator(lifted_e, lifted_f) <= 1e-12
    prod = commuting_product(lifted_e, lifted_f)
    assert np.max(np.abs(prod.mat - tensor(e, f).mat)) <= 1e-12


def test_commuting_product_diagonal_povms(rng):
    povm_e = [np.diag(p) for p in np.transpose(rng.dirichlet(np.ones(3), size=4))]
    povm_f = [np.diag(p) for p in np.transpose(rng.dirichlet(np.ones(2), size=4))]
    e = from_povms([povm_e, povm_e[::-1]])
    f = from_povms([povm_f, povm_f[::-1]])
    prod = commuting_product(e, f)
    assert verify(prod).ok


def _controlled_unitary_som(unitaries):
    """Blocks E[x, x', a, a'] = delta(a,x) delta(a',x') U_x* U_x'."""
    n = len(unitaries)
    dh = unitaries[0].shape[0]
    t = np.zeros((n, n, dh, n, n, dh), dtype=complex)
    for x, ux in enumerate(unitaries):
        for xp, uxp in enumerate(unitaries):
            t[x, x, :, xp, xp, :] = ux.conj().T @ uxp
    return StochasticOperatorMatrix(n, n, dh, t.reshape(n * n * dh, n * n * dh))


def test_commuting_product_rejects_paulis():
    e = _controlled_unitary_som([np.eye(2), SX])
    f = _controlled_unitary_som([np.eye(2), SZ])
    assert verify(e).ok and verify(f).ok
    with pytest.raises(CheckError, match="do not commute") as err:
        commuting_product(e, f)
    # largest block commutator is || [sx, sz] || = 2
    assert err.value.residual == pytest.approx(2.0)


def test_compose_classical_matches_matrix_product(rng):
    p = rng.dirichlet(np.ones(3), size=2)  # rows: P[x, a]
    q = rng.dirichlet(np.ones(2), size=3)  # rows: Q[a, z]
    e = from_povms([[np.array([[pa]]) for pa in row] for row in p])
    f = from_povms([[np.array([[qa]]) for qa in row] for row in q])
    g = compose(f, e)
    assert verify(g).ok
    t = g.tensor6()
    for x in range(2):
        for z in range(2):
            assert t[x, z, 0, x, z, 0] == pytest.approx((p @ q)[x, z])


def test_compose_with_identity_witness(rng):
    e = qr.random_stochastic(rng, 2, 3, 2)
    ident = from_choi(max_entangled(3), 3, 3)
    out = compose(ident, e)
    assert np.max(np.abs(out.mat - e.mat)) <= 1e-12


def test_compose_verifies(rng):
    e = qr.random_stochastic(rng, 2, 3, 2)
    f = qr.random_stochastic(rng, 3, 2, 2)
    assert verify(compose(f, e)).ok


def test_classicality_predicates(rng):
    trivial = from_povms([[np.eye(3)]])
    assert classical_defect(trivial) <= TOL_ALG and semiclassical_defect(trivial) <= TOL_ALG
    omega = from_choi(max_entangled(2), 2, 2)
    assert not semiclassical_defect(omega) <= TOL_ALG
    e = qr.random_stochastic(rng, 2, 2, 2)
    sc = to_semiclassical(e)
    assert semiclassical_defect(sc) <= TOL_ALG and verify(sc).ok
    assert np.max(np.abs(to_semiclassical(sc).mat - sc.mat)) == 0.0  # idempotent
    cl = to_classical(e)
    assert classical_defect(cl) <= TOL_ALG and verify(cl).ok
    assert np.max(np.abs(to_classical(to_semiclassical(e)).mat - cl.mat)) == 0.0


def test_pinched_channel_identity(rng):
    # the channel of the input-pinched matrix equals the channel precomposed
    # with the diagonal conditional expectation
    e = qr.random_stochastic(rng, 3, 2, 2)
    sigma = qr.random_state(rng, 2)
    pinched = channel_choi(to_semiclassical(e), sigma)
    full = channel_choi(e, sigma).reshape(3, 2, 3, 2)
    expect = np.zeros_like(full)
    for x in range(3):
        expect[x, :, x, :] = full[x, :, x, :]
    assert np.max(np.abs(pinched.reshape(3, 2, 3, 2) - expect)) <= 1e-12


def test_from_povms_validates():
    with pytest.raises(ValueError):
        from_povms([[np.eye(2), np.eye(2)]])  # sums to 2I
