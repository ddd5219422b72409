import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnskit.linalg import (TOL_ALG, CheckError, Report, apply_choi, choi_compose, herm_sqrt,
                           kron, max_entangled, max_entangled_vector, nullspace,
                           partial_trace, permute_systems, psd_defect, worst)


def _cg(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_kron_identity():
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_basis_bookkeeping():
    e00 = np.zeros((2, 2)); e00[0, 0] = 1
    e11 = np.zeros((2, 2)); e11[1, 1] = 1
    assert np.allclose(kron(e00, e11), np.diag([0, 1.0, 0, 0]))


def test_kron_index_expansion(rng):
    a, b = _cg(rng, 2, 2), _cg(rng, 2, 2)
    k = kron(a, b)
    for i in range(2):
        for j in range(2):
            for l in range(2):
                for m in range(2):
                    assert k[i * 2 + l, j * 2 + m] == pytest.approx(a[i, j] * b[l, m])


def test_partial_trace_factorised(rng):
    rho, sigma = _cg(rng, 3, 3), _cg(rng, 2, 2)
    out = partial_trace(kron(rho, sigma), (3, 2), 0)
    assert np.allclose(out, np.trace(rho) * sigma, atol=1e-12)
    out2 = partial_trace(kron(rho, sigma), (3, 2), 1)
    assert np.allclose(out2, np.trace(sigma) * rho, atol=1e-12)


def test_partial_trace_omega():
    assert np.allclose(partial_trace(max_entangled(2), (2, 2), 0), np.eye(2))


def test_partial_trace_slices_commute(rng):
    m = _cg(rng, 2 * 3 * 2, 2 * 3 * 2)
    ab = partial_trace(partial_trace(m, (2, 3, 2), 0), (3, 2), 0)
    ba = partial_trace(partial_trace(m, (2, 3, 2), 1), (2, 2), 0)
    assert np.allclose(ab, ba, atol=1e-12)
    both = partial_trace(m, (2, 3, 2), (0, 1))
    assert np.allclose(both, ab, atol=1e-12)


def test_permute_identity_and_swap(rng):
    a, b = _cg(rng, 2, 2), _cg(rng, 3, 3)
    m = kron(a, b)
    assert np.allclose(permute_systems(m, (2, 3), (0, 1)), m)
    assert np.allclose(permute_systems(m, (2, 3), (1, 0)), kron(b, a))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31), which=st.permutations(list(range(3))))
def test_permute_preserves_spectrum(seed, which):
    rng = np.random.default_rng(seed)
    g = _cg(rng, 8, 8)
    h = g + g.conj().T
    out = permute_systems(h, (2, 2, 2), which)
    assert np.allclose(np.linalg.eigvalsh(out), np.linalg.eigvalsh(h), atol=1e-9)


def test_transposition_involutive(rng):
    m = _cg(rng, 12, 12)
    twice = permute_systems(permute_systems(m, (2, 3, 2), (2, 1, 0)), (2, 3, 2), (2, 1, 0))
    assert np.array_equal(twice, m)


def test_herm_sqrt_fixtures():
    assert np.allclose(herm_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(herm_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_herm_sqrt_reconstructs(rng):
    g = _cg(rng, 6, 6)
    m = g @ g.conj().T
    s = herm_sqrt(m)
    assert psd_defect(s) <= 1e-9
    assert np.linalg.norm(s @ s - m, 2) <= 1e-9 * np.linalg.norm(m, 2)


def test_herm_sqrt_rejects_asymmetric(rng):
    m = _cg(rng, 3, 3)
    with pytest.raises(CheckError, match="not Hermitian"):
        herm_sqrt(m)


def test_is_psd(rng):
    g = _cg(rng, 4, 4)
    assert psd_defect(g @ g.conj().T) <= TOL_ALG
    h = g + g.conj().T
    h -= (np.linalg.eigvalsh(h)[0] - 1.0) * np.eye(4)  # shift to be indefinite
    assert not psd_defect(h - 10 * np.eye(4)) <= TOL_ALG


def test_omega_small_cases():
    assert np.allclose(max_entangled(1), [[1.0]])
    om = max_entangled(2)
    expect = np.zeros((4, 4))
    for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
        expect[i, j] = 1.0
    assert np.allclose(om, expect)


def test_omega_rank_one(rng):
    for d in (2, 3, 4):
        om = max_entangled(d)
        v = max_entangled_vector(d)
        assert np.allclose(om, np.outer(v, v.conj()))
        w = np.linalg.eigvalsh(om)
        assert w[-1] == pytest.approx(d)
        assert np.allclose(w[:-1], 0.0, atol=1e-12)
        assert np.trace(om) == pytest.approx(d)


def test_apply_choi_identity(rng):
    rho = _cg(rng, 3, 3)
    assert np.allclose(apply_choi(max_entangled(3), (3, 3), rho), rho)


def test_apply_choi_depolarising(rng):
    choi = kron(np.eye(2), np.eye(3)) / 3.0
    rho = _cg(rng, 2, 2)
    assert np.allclose(apply_choi(choi, (2, 3), rho), np.trace(rho) * np.eye(3) / 3)


def test_apply_choi_slice_identity(rng):
    # <Gamma(rho), omega> computed two ways: through the map and through the Choi
    choi = _cg(rng, 6, 6)
    rho, omega = _cg(rng, 2, 2), _cg(rng, 3, 3)
    lhs = np.trace(apply_choi(choi, (2, 3), rho) @ omega.T)
    c4 = choi.reshape(2, 3, 2, 3)
    rhs = np.einsum("ikjl,ij,kl", c4, rho, omega)
    assert lhs == pytest.approx(rhs)


def test_apply_choi_on_basis_units():
    d = 3
    om = max_entangled(d)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d)); unit[i, j] = 1.0
            assert np.allclose(apply_choi(om, (d, d), unit), unit)


def test_choi_compose_names_a_misshapen_operand():
    for choi2, choi1 in ((np.eye(4), np.eye(9)), (np.eye(9), np.eye(4))):
        with pytest.raises(ValueError, match=r"Choi shape \(9, 9\) does not match dims \(2, 2\)"):
            choi_compose(choi2, (2, 2), choi1, (2, 2))
    with pytest.raises(ValueError, match="inner dimensions differ: 2 vs 3"):
        choi_compose(np.eye(9), (3, 3), np.eye(4), (2, 2))


def test_nullspace():
    mat = np.array([[1.0, -1.0, 0.0]])
    ns = nullspace(mat)
    assert ns.shape == (3, 2)
    assert np.allclose(mat @ ns, 0.0, atol=1e-12)


def test_report_reads_checks_and_fails_closed():
    report = Report({"b_residual": 1e-12, "c_residual": 0.0}, 1e-9, {"kind": "qns"})
    assert report.ok and report.b_residual == 1e-12
    assert report.as_dict() == {"kind": "qns", "b_residual": 1e-12, "c_residual": 0.0,
                                "pass": True, "tol": 1e-9}
    with pytest.raises(AttributeError):
        report.witness_residual
    for bad in (np.nan, np.inf, 1e-8):
        assert not Report({"b_residual": 0.0, "c_residual": bad}, 1e-9).ok


def test_worst_policy():
    assert worst() == 0.0
    assert worst(np.zeros(0), np.zeros((2, 0, 3)), []) == 0.0
    # absolute values over scalars and stacks alike
    assert worst(-3.0, np.array([[1.0, -2j]])) == 3.0
    assert worst(np.array([[[1.0]], [[-4.0]]]), 0.5) == 4.0
    for parts in ((np.array([1.0, np.nan]), 5.0), (np.inf, np.nan), (np.nan, np.inf),
                  (np.array([complex(np.nan, 0.0)]),)):
        assert np.isnan(worst(*parts))
    assert worst(1.0, np.array([-np.inf])) == np.inf
    # a Python float NaN first, in the middle or last among arrays and numbers
    others = [np.array([2.0, -7.0]), np.inf, np.zeros((2, 0))]
    for at in range(len(others) + 1):
        value = worst(*others[:at], float("nan"), *others[at:])
        assert type(value) is float and np.isnan(value), at
    for parts, expected in (((), 0.0), ((-0.0,), 0.0), ((np.float64(-2.5),), 2.5),
                            ((True,), 1.0), ((-3,), 3.0), ((3 - 4j,), 5.0),
                            ((np.array(-1.5),), 1.5), ((np.float32(1.0),), 1.0),
                            ((-0.0, np.array([-0.0])), 0.0), ((np.nan,), np.nan)):
        value = worst(*parts)
        assert type(value) is float, parts
        np.testing.assert_equal(value, expected, err_msg=repr(parts))  # +0.0 for -0.0
