import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnskit import rand as qr
from qnskit.correlations import (CorrelationDims, NsCorrelation,
                                 QnsCorrelation, build_commuting,
                                 build_from_witness, build_local, build_quantum,
                                 build_tracial, compose_correlations,
                                 compose_tables, cqns_report, from_classical,
                                 lift_cqns, mix_local, ns_report, qns_report,
                                 reduce_cqns, reduce_ns, witness_residual)
from qnskit.graphs import kd2_colouring
from qnskit.linalg import kron, max_entangled, permute_systems
from qnskit.stochastic import from_choi, with_ancilla_left, with_ancilla_right

D2222 = CorrelationDims(2, 2, 2, 2)


def _identity_qns(dx, dy):
    choi = kron(max_entangled(dx), max_entangled(dy))
    choi = permute_systems(choi, (dx, dx, dy, dy), [0, 2, 1, 3])
    return QnsCorrelation(CorrelationDims(dx, dy, dx, dy), choi)


def _swap_qns(d):
    # Gamma(rho_X (x) rho_Y) = rho_Y (x) rho_X: Choi entries C[x y a b, x' y' a' b']
    # = delta(a, y) delta(a', y') delta(b, x) delta(b', x')
    c8 = np.zeros((d, d, d, d, d, d, d, d), dtype=complex)
    for x in range(d):
        for y in range(d):
            for xp in range(d):
                for yp in range(d):
                    c8[x, y, y, x, xp, yp, yp, xp] = 1.0
    return QnsCorrelation(CorrelationDims(d, d, d, d), c8.reshape(d**4, d**4))


def test_identity_channel_is_qns():
    assert qns_report(_identity_qns(2, 3)).ok


def test_swap_channel_fails_condition_b():
    report = qns_report(_swap_qns(2))
    assert not report.ok
    assert report.b_residual > 0.5
    assert report.psd_defect <= 1e-12 and report.tp_residual <= 1e-12


def test_lifted_ns_tables_are_qns(rng):
    for _ in range(10):
        table = qr.random_ns_table(rng, 2, 3, 2, 2)
        p = NsCorrelation(CorrelationDims(2, 3, 2, 2), table)
        assert ns_report(p).ok
        assert qns_report(from_classical(p)).ok


def test_from_classical_deterministic_pattern():
    table = np.zeros((2, 2, 2, 2))
    f, g = [0, 1], [1, 0]
    for x in range(2):
        for y in range(2):
            table[x, y, f[x], g[y]] = 1.0
    corr = from_classical(NsCorrelation(D2222, table))
    diag = np.diag(corr.choi)
    assert set(np.round(np.real(diag), 12)) == {0.0, 1.0}
    assert np.count_nonzero(corr.choi) == 4


def test_from_classical_uniform():
    table = np.full((2, 2, 2, 2), 0.25)
    corr = from_classical(NsCorrelation(D2222, table))
    assert np.allclose(corr.choi, np.diag(np.full(16, 0.25)))


def test_reduce_roundtrip_on_tables(rng):
    for _ in range(10):
        table = qr.random_ns_table(rng, 2, 2, 3, 2)
        p = NsCorrelation(CorrelationDims(2, 2, 3, 2), table)
        back = reduce_ns(from_classical(p))
        assert np.max(np.abs(back.table - p.table)) <= 1e-12


def test_reduce_cqns_matches_table(rng):
    table = qr.random_ns_table(rng, 2, 2, 2, 2)
    p = NsCorrelation(D2222, table)
    e = reduce_cqns(from_classical(p))
    for x in range(2):
        for y in range(2):
            assert np.allclose(np.diag(e.states[x, y]), table[x, y].reshape(-1))


def test_lift_of_reduction_identity_for_classical(rng):
    table = qr.random_ns_table(rng, 2, 2, 2, 2)
    corr = from_classical(NsCorrelation(D2222, table))
    again = lift_cqns(reduce_cqns(corr))
    assert np.max(np.abs(again.choi - corr.choi)) <= 1e-12


def test_reduce_cqns_of_quantum_witness(rng):
    for _ in range(5):
        e = qr.random_stochastic(rng, 2, 2, 2)
        f = qr.random_stochastic(rng, 2, 2, 2)
        corr = build_quantum(e, f, qr.random_state(rng, 4))
        red = reduce_cqns(corr)
        assert cqns_report(red).ok
        assert witness_residual(red) <= 1e-9


def test_build_local_identity_term():
    corr = build_local([1.0], [max_entangled(2)], [max_entangled(2)], D2222)
    assert np.max(np.abs(corr.choi - _identity_qns(2, 2).choi)) <= 1e-12
    assert qns_report(corr).ok


def test_build_local_depolarising_terms(rng):
    dep = kron(np.eye(2), np.eye(2)) / 2
    corr = build_local([0.5, 0.5], [dep, dep], [dep, dep], D2222)
    assert qns_report(corr).ok
    rho = qr.random_state(rng, 4)
    assert np.allclose(corr.apply(rho), np.eye(4) / 4)


def test_build_local_random_mixture(rng):
    chois_a = [qr.random_channel_choi(rng, 2, 2) for _ in range(3)]
    chois_b = [qr.random_channel_choi(rng, 2, 2) for _ in range(3)]
    w = rng.dirichlet(np.ones(3))
    corr = build_local(w, chois_a, chois_b, D2222)
    report = qns_report(corr)
    assert report.ok
    assert report.witness_residual <= 1e-12


def test_build_local_rejects_bad_channel():
    with pytest.raises(ValueError):
        build_local([1.0], [2 * max_entangled(2)], [max_entangled(2)], D2222)


def test_build_quantum_classical_reduces_to_quantum_correlation(rng):
    # classical PVM pair with a pure state reproduces <(E (x) F) xi, xi>
    pvm_a = [qr.random_pvm(rng, 2, 2) for _ in range(2)]
    pvm_b = [qr.random_pvm(rng, 2, 2) for _ in range(2)]
    from qnskit.stochastic import from_povms
    e, f = from_povms(pvm_a), from_povms(pvm_b)
    xi = qr.complex_gaussian(rng, 4)
    xi /= np.linalg.norm(xi)
    corr = build_quantum(e, f, np.outer(xi, xi.conj()))
    p = reduce_ns(corr)
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    op = kron(pvm_a[x][a], pvm_b[y][b])
                    expected = np.real(np.vdot(xi, op @ xi))
                    assert p.table[x, y, a, b] == pytest.approx(expected, abs=1e-10)


def test_build_quantum_trivial_h_equals_local():
    choi_a, choi_b = max_entangled(2), kron(np.eye(2), np.eye(2)) / 2
    e, f = from_choi(choi_a, 2, 2), from_choi(choi_b, 2, 2)
    corr = build_quantum(e, f, np.eye(1))
    local = build_local([1.0], [choi_a], [choi_b], D2222)
    assert np.max(np.abs(corr.choi - local.choi)) <= 1e-12


def test_build_quantum_random_passes(rng):
    for _ in range(5):
        e = qr.random_stochastic(rng, 2, 2, 2)
        f = qr.random_stochastic(rng, 2, 3, 2)
        corr = build_quantum(e, f, qr.random_state(rng, 4))
        assert qns_report(corr).ok


def test_build_commuting_classical_diagonal_povms(rng):
    # commuting (diagonal) measurement families on a shared workspace give
    # the usual quantum behaviour <E_xa F_yb xi, xi>
    from qnskit.stochastic import from_povms
    povms_a = [[np.diag(p) for p in np.transpose(rng.dirichlet(np.ones(2), size=4))]
               for _ in range(2)]
    povms_b = [[np.diag(p) for p in np.transpose(rng.dirichlet(np.ones(2), size=4))]
               for _ in range(2)]
    e, f = from_povms(povms_a), from_povms(povms_b)
    xi = qr.complex_gaussian(rng, 4)
    xi /= np.linalg.norm(xi)
    corr = build_commuting(e, f, np.outer(xi, xi.conj()))
    assert qns_report(corr).ok
    p = reduce_ns(corr)
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    op = povms_a[x][a] @ povms_b[y][b]
                    expected = np.real(np.vdot(xi, op @ xi))
                    assert p.table[x, y, a, b] == pytest.approx(expected, abs=1e-10)


def test_build_commuting_on_lifted_pair(rng):
    from qnskit.stochastic import with_ancilla_left, with_ancilla_right
    e = qr.random_stochastic(rng, 2, 2, 2)
    f = qr.random_stochastic(rng, 2, 2, 2)
    sigma = qr.random_state(rng, 4)
    qc = build_commuting(with_ancilla_right(e, 2), with_ancilla_left(f, 2), sigma)
    q = build_quantum(e, f, sigma)
    assert np.max(np.abs(qc.choi - q.choi)) <= 1e-12
    assert qns_report(qc).ok


def test_compose_with_identity(rng):
    e = qr.random_stochastic(rng, 2, 2, 2)
    f = qr.random_stochastic(rng, 2, 2, 2)
    corr = build_quantum(e, f, qr.random_state(rng, 4))
    ident = _identity_qns(2, 2)
    out = compose_correlations(ident, corr)
    assert np.max(np.abs(out.choi - corr.choi)) <= 1e-12


def test_compose_matches_table_composition(rng):
    p1 = NsCorrelation(D2222, qr.random_ns_table(rng, 2, 2, 2, 2))
    p2 = NsCorrelation(D2222, qr.random_ns_table(rng, 2, 2, 2, 2))
    lifted = compose_correlations(from_classical(p2), from_classical(p1))
    direct = from_classical(compose_tables(p2, p1))
    assert np.max(np.abs(lifted.choi - direct.choi)) <= 1e-12


def test_compose_quantum_witness_two_path(rng):
    for _ in range(5):
        g1 = build_quantum(qr.random_stochastic(rng, 2, 2, 2),
                           qr.random_stochastic(rng, 2, 2, 2),
                           qr.random_state(rng, 4))
        g2 = build_quantum(qr.random_stochastic(rng, 2, 2, 2),
                           qr.random_stochastic(rng, 2, 2, 2),
                           qr.random_state(rng, 4))
        comp = compose_correlations(g2, g1)
        assert comp.witness is not None
        assert witness_residual(comp) <= 1e-8
        assert qns_report(comp).ok


def test_compose_associative(rng):
    corrs = [build_quantum(qr.random_stochastic(rng, 2, 2, 2),
                           qr.random_stochastic(rng, 2, 2, 2),
                           qr.random_state(rng, 4)) for _ in range(3)]
    left = compose_correlations(corrs[2], compose_correlations(corrs[1], corrs[0]))
    right = compose_correlations(compose_correlations(corrs[2], corrs[1]), corrs[0])
    assert np.max(np.abs(left.choi - right.choi)) <= 1e-9


def test_local_midpoint_reverifies(rng):
    def rand_local():
        chois_a = [qr.random_channel_choi(rng, 2, 2) for _ in range(2)]
        chois_b = [qr.random_channel_choi(rng, 2, 2) for _ in range(2)]
        return build_local(rng.dirichlet(np.ones(2)), chois_a, chois_b, D2222)

    mixed = mix_local(rand_local(), rand_local())
    report = qns_report(mixed)
    assert report.ok
    assert report.witness_residual <= 1e-12


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_ns_tables_no_signalling_property(seed):
    rng = np.random.default_rng(seed)
    table = qr.random_ns_table(rng, 2, 2, 2, 2)
    p = NsCorrelation(D2222, table)
    assert ns_report(p).ok
    # marginals do not depend on the far input
    marg_b = table.sum(axis=2)
    assert np.max(np.abs(marg_b[0] - marg_b[1])) <= 1e-12


def test_ns_report_flags_signalling():
    table = np.zeros((2, 2, 2, 2))
    table[:, :, 0, 0] = 1.0
    table[1, :, 0, 0] = 0.0
    table[1, :, 1, 1] = 1.0  # Bob's marginal now depends on x
    report = ns_report(NsCorrelation(D2222, table))
    # marginals [1, 0] vs [0, 1] deviate from their mean by 0.5
    assert not report.ok and report.ns_residual == pytest.approx(0.5)


def test_choi_conditions_match_operational_no_signalling(rng):
    # two-path oracle: the (b)/(c) residual checks against direct evaluation
    # of the defining marginal conditions on traceless inputs
    from qnskit.linalg import partial_trace
    dims = CorrelationDims(2, 3, 4, 2)
    corr = build_quantum(qr.random_stochastic(rng, 2, 4, 2),
                         qr.random_stochastic(rng, 3, 2, 3),
                         qr.random_state(rng, 6))
    assert qns_report(corr).ok
    for _ in range(5):
        traceless_x = qr.complex_gaussian(rng, 2, 2)
        traceless_x -= np.trace(traceless_x) * np.eye(2) / 2
        rho_y = qr.random_state(rng, 3)
        out = corr.apply(np.kron(traceless_x, rho_y))
        assert np.max(np.abs(partial_trace(out, (4, 2), 0))) <= 1e-12
        traceless_y = qr.complex_gaussian(rng, 3, 3)
        traceless_y -= np.trace(traceless_y) * np.eye(3) / 3
        out = corr.apply(np.kron(qr.random_state(rng, 2), traceless_y))
        assert np.max(np.abs(partial_trace(out, (4, 2), 1))) <= 1e-12


def test_composition_matches_brute_force_on_units(rng):
    g1 = build_quantum(qr.random_stochastic(rng, 2, 3, 2),
                       qr.random_stochastic(rng, 2, 2, 2),
                       qr.random_state(rng, 4))
    g2 = build_quantum(qr.random_stochastic(rng, 3, 2, 2),
                       qr.random_stochastic(rng, 2, 2, 2),
                       qr.random_state(rng, 4))
    comp = compose_correlations(g2, g1)
    n = g1.dims.in_size
    for i in range(n):
        for j in range(n):
            unit = np.zeros((n, n))
            unit[i, j] = 1.0
            assert np.max(np.abs(comp.apply(unit) -
                                 g2.apply(g1.apply(unit)))) <= 1e-12


def test_from_classical_rejects_invalid_table():
    bad = np.full((2, 2, 2, 2), 0.3)  # rows do not normalise
    with pytest.raises(ValueError):
        from_classical(NsCorrelation(D2222, bad))


def test_pr_box_lifts_to_qns():
    # extremal no-signalling behaviour: a XOR b = x AND y
    table = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    if (a + b) % 2 == (x & y):
                        table[x, y, a, b] = 0.5
    pr = NsCorrelation(D2222, table)
    assert ns_report(pr).ok
    assert qns_report(from_classical(pr)).ok


def test_signalling_table_fails_qns_conditions():
    # diagonal Choi of a signalling behaviour violates condition (c):
    # Bob's output distribution depends on Alice's input
    table = np.zeros((2, 2, 2, 2))
    table[0, :, 0, 0] = 1.0
    table[1, :, 0, 1] = 1.0
    d = D2222
    c8 = np.zeros((2, 2, 2, 2, 2, 2, 2, 2), dtype=complex)
    for x in range(2):
        for y in range(2):
            for a in range(2):
                for b in range(2):
                    c8[x, y, a, b, x, y, a, b] = table[x, y, a, b]
    report = qns_report(QnsCorrelation(d, c8.reshape(16, 16)))
    assert not report.ok
    assert report.b_residual > 0.1
    assert report.psd_defect <= 1e-12 and report.tp_residual <= 1e-12


def test_rank_one_bump_violates_condition_b(rng):
    corr = build_quantum(qr.random_stochastic(rng, 2, 2, 2),
                         qr.random_stochastic(rng, 2, 2, 2),
                         qr.random_state(rng, 4))
    v = np.zeros(16)
    v[int(np.ravel_multi_index((0, 0, 0, 0), (2, 2, 2, 2)))] = 1.0
    v[int(np.ravel_multi_index((1, 0, 0, 0), (2, 2, 2, 2)))] = 1.0
    bumped = QnsCorrelation(corr.dims, corr.choi + 1e-3 * np.outer(v, v))
    report = qns_report(bumped)
    assert not report.ok
    assert report.b_residual >= 5e-4


@pytest.mark.parametrize("report", [cqns_report, ns_report])
def test_classical_reports_recheck_the_witness(report):
    corr = kd2_colouring(2)
    if report is ns_report:
        corr = reduce_ns(corr)
    data = corr.states if report is cqns_report else corr.table
    assert report(corr).witness_residual <= 1e-12
    assert "witness_residual" not in report(corr, check_witness=False).as_dict()
    moved = np.roll(data, 1, axis=0)  # still a correlation, no longer the witness's
    wrong = type(corr)(corr.dims, moved, corr.witness)
    assert report(type(corr)(corr.dims, moved)).ok
    assert not report(wrong).ok and report(wrong).witness_residual > 1e-3


def test_build_from_witness_uses_the_builder_of_each_class(rng):
    e, f = qr.random_stochastic(rng, 2, 2, 2), qr.random_stochastic(rng, 2, 2, 2)
    sigma = qr.random_state(rng, 4)
    chois = [qr.random_channel_choi(rng, 2, 2) for _ in range(2)]
    for corr in (build_local([1.0], chois[:1], chois[1:], D2222), build_quantum(e, f, sigma),
                 build_commuting(with_ancilla_right(e, 2), with_ancilla_left(f, 2),
                                 qr.random_state(rng, 4)),
                 build_tracial(qr.random_tracial_witness(rng, 2, 2))):
        built = build_from_witness(corr.witness, corr.dims)
        assert np.array_equal(built.choi, corr.choi)
        assert type(built.witness) is type(corr.witness)
    with pytest.raises(ValueError, match="needs the correlation dims"):
        build_from_witness(build_local([1.0], chois[:1], chois[1:], D2222).witness)
