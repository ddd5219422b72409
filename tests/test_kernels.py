"""Single-contraction builders and pinchings against their kron and loop forms.

The reference formulas below spell each construction out directly, as a kron
followed by a factor permutation or as nested loops over diagonal blocks;
they serve only as oracles.
"""

import ast
import json
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnskit import games, io, symmetry
from qnskit import rand as qr
from qnskit.algebra import tracial_choi, tracial_states, tracial_table
from qnskit.correlations import (CorrelationDims, CqnsCorrelation,
                                 LocalWitness, NsCorrelation, QnsCorrelation,
                                 QuantumWitness, TracialWitness,
                                 build_commuting, build_local, build_quantum,
                                 build_tracial, compose_correlations,
                                 from_classical, lift_cqns, qns_report,
                                 rebuild_from_witness, reduce_cqns, reduce_ns,
                                 witness_residual)
from qnskit.games import (ConstraintGame, colouring_game, from_rule,
                          perfect_strategy_check)
from qnskit.graphs import (Graph, channel_sharp, graph_subspace, hom_residual,
                           kd2_colouring, kd2_explicit_states, kraus_to_choi,
                           proper_residuals, realization_basis,
                           stahlke_residual, vertex_map_kraus)
from qnskit.linalg import (CheckError, channel_defects, check_channel,
                           check_state, choi_compose, dagger,
                           hermiticity_defect, kron, max_entangled,
                           orthonormal_columns, permute_systems, pinch,
                           psd_defect, state_defect)
from qnskit.stochastic import (StochasticOperatorMatrix, channel_choi,
                               classical_defect, from_povms,
                               semiclassical_defect, tensor, to_classical,
                               to_semiclassical, with_ancilla_left,
                               with_ancilla_right)
from qnskit.symmetry import (build_tracial_cqns, classical_fair_residual,
                             fair_residual, fair_state_residual)

#: Contractions sum in another order than kron-then-permute; entries are O(1)
#: sums of at most a few hundred double-precision products.
TOL_ORDER = 1e-12

dim = st.integers(1, 3)
triple = st.tuples(dim, dim, dim)
seed = st.integers(0, 2**32 - 1)
kernel_settings = settings(max_examples=25, deadline=None)


def _kron_tensor(e, f):
    big = kron(e.mat, f.mat)
    big = permute_systems(big, (*e.dims, *f.dims), [0, 3, 1, 4, 2, 5])
    return StochasticOperatorMatrix(e.dim_x * f.dim_x, e.dim_a * f.dim_a,
                                    e.dim_h * f.dim_h, big)


def _kron_product_choi(ca, cb, d):
    return permute_systems(kron(ca, cb), (d.x, d.a, d.y, d.b), [0, 2, 1, 3])


def _maxdiff(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0))


@kernel_settings
@given(triple, triple, seed)
def test_tensor_and_build_quantum_match_kron(de, df, s):
    rng = np.random.default_rng(s)
    e, f = qr.random_stochastic(rng, *de), qr.random_stochastic(rng, *df)
    sigma = qr.random_state(rng, de[2] * df[2])
    ref = _kron_tensor(e, f)
    assert _maxdiff(tensor(e, f).mat, ref.mat) <= TOL_ORDER
    corr = build_quantum(e, f, sigma)
    assert _maxdiff(corr.choi, channel_choi(ref, sigma)) <= TOL_ORDER


@kernel_settings
@given(triple, triple, seed)
def test_build_commuting_on_lifts_matches_kron(de, df, s):
    rng = np.random.default_rng(s)
    e, f = qr.random_stochastic(rng, *de), qr.random_stochastic(rng, *df)
    sigma = qr.random_state(rng, de[2] * df[2])
    corr = build_commuting(with_ancilla_right(e, df[2]), with_ancilla_left(f, de[2]), sigma)
    assert _maxdiff(corr.choi, channel_choi(_kron_tensor(e, f), sigma)) <= TOL_ORDER


@kernel_settings
@given(triple, dim, seed)
def test_with_ancilla_left_matches_kron(de, k, s):
    e = qr.random_stochastic(np.random.default_rng(s), *de)
    ref = permute_systems(np.kron(e.mat, np.eye(k)), (*e.dims, k), [0, 1, 3, 2])
    assert _maxdiff(with_ancilla_left(e, k).mat, ref) <= TOL_ORDER


@kernel_settings
@given(st.tuples(dim, dim, dim, dim), st.integers(1, 3), seed)
def test_build_local_matches_kron(dims, terms, s):
    rng = np.random.default_rng(s)
    d = CorrelationDims(*dims)
    raw = rng.random(terms) + 0.1
    weights = list(raw / raw.sum())
    alice = [qr.random_channel_choi(rng, d.x, d.a) for _ in range(terms)]
    bob = [qr.random_channel_choi(rng, d.y, d.b) for _ in range(terms)]
    ref = sum(w * _kron_product_choi(a, b, d) for w, a, b in zip(weights, alice, bob))
    assert _maxdiff(build_local(weights, alice, bob, d).choi, ref) <= TOL_ORDER


@kernel_settings
@given(st.integers(1, 3), st.integers(2, 3), seed)
def test_hom_residual_matches_kron(n, m, s):
    rng = np.random.default_rng(s)
    u = graph_subspace(Graph.cycle(n) if n >= 3 else Graph.complete(n))
    v = graph_subspace(Graph.complete(m))
    phi = qr.random_channel_choi(rng, n, m)
    pair = permute_systems(kron(phi, channel_sharp(phi)), (n, m, n, m), [0, 2, 1, 3])
    image = QnsCorrelation(CorrelationDims(n, n, m, m), pair).apply(u.projector())
    ref = abs(float(np.real(np.trace(image @ (np.eye(m * m) - v.projector())))))
    assert abs(hom_residual(phi, u, v) - ref) <= TOL_ORDER


@kernel_settings
@given(triple, triple, st.tuples(dim, dim), seed)
def test_composed_witness_sigma_matches_kron(de, df, out, s):
    rng = np.random.default_rng(s)
    first = build_quantum(qr.random_stochastic(rng, *de), qr.random_stochastic(rng, *df),
                          qr.random_state(rng, de[2] * df[2]))
    he, hf = out[0], out[1]
    second = build_quantum(qr.random_stochastic(rng, de[1], 2, he),
                           qr.random_stochastic(rng, df[1], 2, hf),
                           qr.random_state(rng, he * hf))
    composed = compose_correlations(second, first)
    w1, w2 = first.witness, second.witness
    ref = permute_systems(kron(w2.sigma, w1.sigma), (he, hf, de[2], df[2]), [0, 2, 1, 3])
    assert _maxdiff(composed.witness.sigma, ref) <= TOL_ORDER
    assert witness_residual(composed) <= TOL_ORDER


# ---------------------------------------------------------------------------
# Pinchings


def _loop_pinch_som(e, classical):
    t = e.tensor6()
    out = np.zeros_like(t)
    for x in range(e.dim_x):
        if classical:
            for a in range(e.dim_a):
                out[x, a, :, x, a, :] = t[x, a, :, x, a, :]
        else:
            out[x, :, :, x, :, :] = t[x, :, :, x, :, :]
    return out.reshape(e.mat.shape)


def _loop_pinch_choi(choi, din, dout, classical):
    c4 = choi.reshape(din, dout, din, dout)
    out = np.zeros_like(c4)
    for i in range(din):
        if classical:
            for j in range(dout):
                out[i, j, i, j] = c4[i, j, i, j]
        else:
            out[i, :, i, :] = c4[i, :, i, :]
    return out.reshape(choi.shape)


@kernel_settings
@given(st.lists(dim, min_size=1, max_size=4), st.data(), seed)
def test_pinch_matches_definition(dims, data, s):
    which = data.draw(st.sets(st.integers(0, len(dims) - 1)))
    n = int(np.prod(dims))
    m = qr.complex_gaussian(np.random.default_rng(s), n, n)
    digits = np.array(np.unravel_index(np.arange(n), dims)).T
    keep = np.array([[all(digits[i][k] == digits[j][k] for k in which) for j in range(n)]
                     for i in range(n)])
    assert np.array_equal(pinch(m, dims, sorted(which)), np.where(keep, m, 0))


@kernel_settings
@given(triple, seed)
def test_stochastic_pinchings_match_loops(de, s):
    e = qr.random_stochastic(np.random.default_rng(s), *de)
    for classical, pinched, defect in ((False, to_semiclassical, semiclassical_defect),
                                       (True, to_classical, classical_defect)):
        ref = _loop_pinch_som(e, classical)
        assert np.array_equal(pinched(e).mat, ref)
        assert defect(e) == float(np.max(np.abs(e.mat - ref)))


@kernel_settings
@given(st.tuples(dim, dim, dim, dim), seed)
def test_local_witness_pinching_matches_loops(dims, s):
    rng = np.random.default_rng(s)
    d = CorrelationDims(*dims)
    alice, bob = qr.random_channel_choi(rng, d.x, d.a), qr.random_channel_choi(rng, d.y, d.b)
    corr = build_local([1.0], [alice], [bob], d)
    for reduced, classical in ((reduce_cqns(corr), False), (reduce_ns(corr), True)):
        w = reduced.witness
        assert np.array_equal(w.alice[0], _loop_pinch_choi(alice, d.x, d.a, classical))
        assert np.array_equal(w.bob[0], _loop_pinch_choi(bob, d.y, d.b, classical))
        assert witness_residual(reduced) <= TOL_ORDER


@kernel_settings
@given(st.tuples(dim, dim, dim, dim), seed)
def test_from_classical_and_lift_match_loops(dims, s):
    rng = np.random.default_rng(s)
    d = CorrelationDims(*dims)
    p = NsCorrelation(d, qr.random_ns_table(rng, *dims))
    c8 = np.zeros((d.x, d.y, d.a, d.b) * 2, dtype=complex)
    for x, y, a, b in np.ndindex(d.x, d.y, d.a, d.b):
        c8[x, y, a, b, x, y, a, b] = p.table[x, y, a, b]
    assert np.array_equal(from_classical(p).choi, c8.reshape(d.choi_size, d.choi_size))

    corr = build_quantum(qr.random_stochastic(rng, d.x, d.a, 2),
                         qr.random_stochastic(rng, d.y, d.b, 1), qr.random_state(rng, 2))
    cq = reduce_cqns(corr)
    c8 = np.zeros((d.x, d.y, d.a, d.b) * 2, dtype=complex)
    s6 = cq.states.reshape(d.x, d.y, d.a, d.b, d.a, d.b)
    for x, y in np.ndindex(d.x, d.y):
        c8[x, y, :, :, x, y, :, :] = s6[x, y]
    assert np.array_equal(lift_cqns(cq).choi, c8.reshape(d.choi_size, d.choi_size))


# ---------------------------------------------------------------------------
# Tracial witnesses of classical-input data


def _loop_tracial(e, kernel):
    """The per-block loops the tracial contractions replaced, kept as the oracle."""
    dx, da = e.dim_x, e.dim_a
    shape = {"choi": (dx, dx, da, da) * 2, "states": (dx, dx) + (da,) * 4,
             "table": (dx, dx, da, da)}[kernel]
    out = np.zeros(shape, dtype=complex)
    for w, d, block in zip(e.alg.weights, e.alg.block_dims, e.blocks):
        t = block.tensor6()
        if kernel == "choi":
            out += (w / d) * np.einsum("xahXAk,YBkybh->xyabXYAB", t, t, optimize=True)
        elif kernel == "states":
            diag = np.einsum("xahxAk->xaAhk", t)  # g[x, a, a'] operators
            out += (w / d) * np.einsum("xaAhk,yBbkh->xyabAB", diag, diag, optimize=True)
        else:
            diag = np.einsum("xahxak->xahk", t)  # g[x, a] operators
            out += (w / d) * np.einsum("xahk,ybkh->xyab", diag, diag, optimize=True)
    if kernel == "choi":
        return out.reshape((dx * da) ** 2, (dx * da) ** 2)
    if kernel == "states":
        return out.reshape(dx, dx, da * da, da * da)
    return np.real(out)


@kernel_settings
@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3), st.integers(1, 2),
       st.sampled_from(["full", "semiclassical", "classical"]), seed)
def test_tracial_kernels_match_block_loops(dx, da, blocks, max_dim, kind, s):
    rng = np.random.default_rng(s)
    alg = qr.random_algebra(rng, max_blocks=blocks, max_dim=max_dim)
    m = qr.random_tracial_witness(rng, dx, da, alg, kind=kind)
    for kernel, fn in (("choi", tracial_choi), ("states", tracial_states),
                       ("table", tracial_table)):
        np.testing.assert_array_equal(fn(m), _loop_tracial(m, kernel), err_msg=kernel)


def test_tracial_rebuild_reads_input_blocks_of_tracial_choi(rng):
    for dims in ((2, 3), (3, 2), (2, 2)):
        m = qr.random_tracial_witness(rng, *dims)
        assert not m.is_semiclassical()
        full = QnsCorrelation(CorrelationDims(dims[0], dims[0], dims[1], dims[1]),
                              tracial_choi(m))
        cq = CqnsCorrelation(full.dims, reduce_cqns(full).states, TracialWitness(m))
        ns = NsCorrelation(full.dims, reduce_ns(full).table, TracialWitness(m))
        assert _maxdiff(rebuild_from_witness(cq), cq.states) <= TOL_ORDER
        assert _maxdiff(rebuild_from_witness(ns), ns.table) <= TOL_ORDER


def test_rebuild_keeps_builder_checks(rng):
    e, f = qr.random_stochastic(rng, 2, 2, 2), qr.random_stochastic(rng, 2, 2, 2)
    corr = build_quantum(e, f, qr.random_state(rng, 4))
    bad_state = QnsCorrelation(corr.dims, corr.choi,
                               QuantumWitness("quantum", e, f, 2 * corr.witness.sigma))
    with pytest.raises(ValueError, match="not a state"):
        rebuild_from_witness(bad_state)
    assert not qns_report(bad_state).ok
    local = build_local([1.0], [qr.random_channel_choi(rng, 2, 2)],
                        [qr.random_channel_choi(rng, 2, 2)], corr.dims)
    bad_weights = QnsCorrelation(local.dims, local.choi,
                                 LocalWitness((0.5,), local.witness.alice, local.witness.bob))
    with pytest.raises(ValueError, match="weights"):
        rebuild_from_witness(bad_weights)


# ---------------------------------------------------------------------------
# Stacked residuals: one call over a stack (..., d, d) is the worst block


def _block_loop(fn, blocks, *args) -> float:
    """The oracle: ``fn`` on every block, then the largest value (NaN kept)."""
    return float(np.max([fn(b, *args) for b in blocks], initial=0.0))


def _fails(fn, *args) -> bool:
    try:
        fn(*args)
    except CheckError:
        return True
    return False


def _random_stack(rng, shape, din, dout, kind):
    d = din * dout
    n = int(np.prod(shape, dtype=int))
    if kind == "state":
        blocks = [qr.random_state(rng, d) for _ in range(n)]
    elif kind == "channel":
        blocks = [qr.random_channel_choi(rng, din, dout) for _ in range(n)]
    else:
        blocks = [qr.complex_gaussian(rng, d, d) for _ in range(n)]
        if kind == "hermitian":
            blocks = [(b + b.conj().T) / 2 for b in blocks]
    return np.array(blocks, dtype=complex).reshape(*shape, d, d)


@kernel_settings
@given(st.lists(st.integers(0, 3), max_size=2), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from([None, np.nan, np.inf, -np.inf, complex(0, np.nan)]), seed)
def test_stacked_residuals_match_block_loop(shape, din, dout, bad, s):
    rng = np.random.default_rng(s)
    for kind in ("state", "channel", "hermitian", "any"):
        stack = _random_stack(rng, shape, din, dout, kind)
        _check_stack_against_loop(stack, din, dout)
        if bad is not None and stack.size:
            stack[np.unravel_index(rng.integers(stack.size), stack.shape)] = bad
            _check_stack_against_loop(stack, din, dout)
            assert psd_defect(stack) == state_defect(stack) == np.inf


def _check_stack_against_loop(stack, din, dout):
    d = din * dout
    blocks = stack.reshape(-1, d, d)  # one block for a plain matrix, none for an empty stack
    for fn in (hermiticity_defect, psd_defect, state_defect):
        np.testing.assert_equal(fn(stack), _block_loop(fn, blocks), err_msg=fn.__name__)
    cp, tp = channel_defects(stack, (din, dout))
    np.testing.assert_equal(cp, _block_loop(lambda b: channel_defects(b, (din, dout))[0], blocks))
    np.testing.assert_equal(tp, _block_loop(lambda b: channel_defects(b, (din, dout))[1], blocks))
    assert _fails(check_state, stack) == any(_fails(check_state, b) for b in blocks)
    assert _fails(check_channel, stack, (din, dout)) == \
        any(_fails(check_channel, b, (din, dout)) for b in blocks)


def test_residuals_are_never_looped_over_blocks():
    """Residuals take stacks, so no loop in the package calls one per block."""
    stacked = {"psd_defect", "state_defect", "channel_defects", "check_state", "check_channel"}
    loops = (ast.For, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    for path in sorted(pathlib.Path(qr.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, loops):
                continue
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    func = call.func
                    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                    assert name not in stacked, f"{path.name}:{call.lineno} loops {name}"


# ---------------------------------------------------------------------------
# Memory: no product matrix and no full Choi matrix on the way


def _peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_build_quantum_peak_memory(rng):
    e, f = qr.random_stochastic(rng, 4, 4, 4), qr.random_stochastic(rng, 4, 4, 4)
    sigma = qr.random_state(rng, 16)
    assert _peak_mb(lambda: qns_report(build_quantum(e, f, sigma))) < 32


def test_kd2_witness_residual_peak_memory():
    corr = kd2_colouring(4)
    assert _peak_mb(lambda: witness_residual(corr)) < 32


def test_colouring_game_peak_memory():
    # a dense identity on the 3600 question pairs alone would take 198 MiB
    assert _peak_mb(lambda: colouring_game(Graph.cycle(60), 3)) < 32


# ---------------------------------------------------------------------------
# Graphs, fairness, games and witness composition: the loops they replaced


def _bitwise(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _loop_kd2_witness(d):
    zeta = np.exp(2j * np.pi / d)
    n = d * d
    mat = np.zeros((n * d * d,) * 2, dtype=complex)
    t = mat.reshape(n, d, d, n, d, d)
    for ap in range(d):
        for bp in range(d):
            x = ap * d + bp
            for z in range(d):
                for zp in range(d):
                    op = np.zeros((d, d), dtype=complex)
                    op[(z - ap) % d, (zp - ap) % d] = zeta ** ((zp - z) * bp)
                    t[x, z, :, x, zp, :] = op
    return mat


def _loop_kd2_states(d):
    zeta = np.exp(2j * np.pi / d)
    n = d * d
    states = np.zeros((n, n, d * d, d * d), dtype=complex)
    for ap, bp, app, bpp in np.ndindex(d, d, d, d):
        x, y = ap * d + bp, app * d + bpp
        xi = np.zeros(d * d, dtype=complex)
        for l in range(d):
            xi[l * d + (l - ap + app) % d] = zeta ** ((bpp - bp) * l)
        xi *= zeta ** (bpp * (app - ap)) / np.sqrt(d)
        states[x, y] = np.outer(xi, xi.conj())
    return states


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_kd2_witness_and_states_match_loops(d):
    assert _bitwise(kd2_colouring(d).witness.matrix.blocks[0].mat, _loop_kd2_witness(d))
    assert _bitwise(kd2_explicit_states(d), _loop_kd2_states(d))


def _loop_fair_constraint(dim):
    rows = []
    for z in range(dim):
        for w in range(dim):
            functional = np.zeros((dim, dim, dim, dim), dtype=complex)
            for x in range(dim):
                functional[x, z, x, w] += 1.0
            for y in range(dim):
                functional[w, y, z, y] -= 1.0
            rows.append(functional.reshape(-1))
    return np.array(rows)


def _loop_classical_fair_constraint(dim):
    rows = []
    for z in range(dim):
        functional = np.zeros((dim, dim))
        functional[:, z] += 1.0
        functional[z, :] -= 1.0
        rows.append(functional.reshape(-1))
    return np.array(rows)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
def test_fair_constraints_match_loops(dim):
    # the fair matrix is real now; nullspace takes it as complex either way
    assert np.array_equal(symmetry._fair_constraint_matrix(dim), _loop_fair_constraint(dim))
    assert _bitwise(symmetry._classical_fair_constraint(dim), _loop_classical_fair_constraint(dim))


def _loop_fair_state_residual(rho, dim_x):
    r4 = rho.reshape(dim_x, dim_x, dim_x, dim_x)
    return float(np.max(np.abs(np.einsum("xzxw->zw", r4) - np.einsum("wyzy->zw", r4))))


def _loop_fair_residual(corr):
    d = corr.dims
    if isinstance(corr, QnsCorrelation):
        out = [_loop_fair_state_residual(corr.apply(rho), d.a)
               for rho in symmetry.fair_subspace(d.x).T.reshape(-1, d.in_size, d.in_size)]
        return float(np.max(out, initial=0.0))
    out = []
    for q in symmetry.classical_fair_subspace(d.x).T.reshape(-1, d.x, d.x):
        if isinstance(corr, CqnsCorrelation):
            out.append(_loop_fair_state_residual(np.einsum("xy,xyij->ij", q, corr.states), d.a))
        else:
            image = np.real(np.einsum("xy,xyab->ab", q, corr.table.astype(complex)))
            out.append(float(np.max(np.abs(image.sum(axis=0) - image.sum(axis=1)))))
    return float(np.max(out, initial=0.0))


@kernel_settings
@given(st.integers(1, 3), st.integers(1, 3), st.booleans(), seed)
def test_fair_residual_matches_loop(dx, da, tracial, s):
    rng = np.random.default_rng(s)
    if tracial:  # fair, so every residual is rounding
        corr = build_tracial(qr.random_tracial_witness(rng, dx, da))
    else:
        corr = build_quantum(qr.random_stochastic(rng, dx, da, 2),
                             qr.random_stochastic(rng, dx, da, 1), qr.random_state(rng, 2))
    for c in (corr, reduce_cqns(corr), reduce_ns(corr)):
        assert abs(fair_residual(c) - _loop_fair_residual(c)) <= 1e-15
    states = reduce_cqns(corr).states.reshape(-1, da * da, da * da)
    assert fair_state_residual(states, da) == \
        float(np.max([_loop_fair_state_residual(r, da) for r in states]))
    tables = rng.random((3, dx, dx))
    assert classical_fair_residual(tables) == \
        float(np.max([np.max(np.abs(q.sum(axis=0) - q.sum(axis=1))) for q in tables]))


def _random_graph(rng, n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.5]
    return Graph.from_edges(n, pairs)


def _loop_kraus_to_choi(kraus):
    dout, din = kraus[0].shape
    choi = np.zeros((din * dout, din * dout), dtype=complex)
    for m in kraus:
        v = m.T.reshape(-1)
        choi += np.outer(v, v.conj())
    return choi


def _loop_stahlke_residual(kraus, s_basis, t_basis):
    basis = orthonormal_columns(np.column_stack([t.reshape(-1) for t in t_basis])) \
        if t_basis else None
    out = []
    for mi in kraus:
        for mj in kraus:
            for s in s_basis:
                v = (np.conj(mj) @ s @ mi.T).reshape(-1)
                resid = v if basis is None else v - basis @ (dagger(basis) @ v)
                out.append(float(np.linalg.norm(resid)) / max(1.0, float(np.linalg.norm(v))))
    return float(np.max(out, initial=0.0))


@kernel_settings
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), seed)
def test_graph_and_kraus_constructions_match_loops(din, dout, k, s):
    rng = np.random.default_rng(s)
    kraus = [qr.complex_gaussian(rng, dout, din) for _ in range(k)]
    assert _bitwise(kraus_to_choi(kraus), _loop_kraus_to_choi(kraus))
    real = [m.real.astype(complex) for m in kraus]  # signed zeros in the products
    assert _bitwise(kraus_to_choi(real), _loop_kraus_to_choi(real))

    f = rng.integers(0, dout, din)
    loop = [np.zeros((dout, din), dtype=complex) for _ in range(din)]
    for x in range(din):
        loop[x][f[x], x] = 1.0
    for vm in (vertex_map_kraus(f, din, dout), vertex_map_kraus(lambda x: f[x], din, dout)):
        assert all(_bitwise(a, b) for a, b in zip(vm, loop)) and len(vm) == din
        assert _bitwise(kraus_to_choi(vm), _loop_kraus_to_choi(loop))

    source, target = _random_graph(rng, din), _random_graph(rng, dout)
    s_basis = realization_basis(graph_subspace(source))
    for t_basis in (realization_basis(graph_subspace(target)), [],
                    [qr.complex_gaussian(rng, dout, dout) for _ in range(2)]):
        assert abs(stahlke_residual(kraus, s_basis, t_basis)
                   - _loop_stahlke_residual(kraus, s_basis, t_basis)) <= 1e-15

    vecs = np.zeros((din * din, 2 * len(source.edges)), dtype=complex)
    adj = np.zeros((din, din))
    for col, (x, y) in enumerate(source.ordered_edges()):
        vecs[x * din + y, col] = 1.0
        adj[x, y] = 1.0
    assert _bitwise(graph_subspace(source).basis, vecs)
    assert _bitwise(source.adjacency(), adj)


@kernel_settings
@given(st.integers(1, 4), st.integers(1, 3), seed)
def test_proper_residuals_match_loop(n, a, s):
    rng = np.random.default_rng(s)
    graph = _random_graph(rng, n)
    corr = build_tracial_cqns(qr.random_tracial_witness(rng, n, a, kind="semiclassical"))
    omega = max_entangled(a)
    loop = {}
    for x, y in graph.ordered_edges():
        val = np.trace(corr.states[x, y] @ omega)
        loop[(x, y)] = abs(float(np.real(val))) + abs(float(np.imag(val)))
    out = proper_residuals(corr, graph)
    assert list(out) == list(loop)
    assert all(abs(out[e] - loop[e]) <= 1e-15 for e in loop)


def _games_equal(game, constraints):
    ref = ConstraintGame(game.in_dims, game.out_dims, True, tuple(constraints), game.rule)
    return len(game.constraints) == len(ref.constraints) and all(
        _bitwise(u, ru) and _bitwise(v, rv)
        for (u, v), (ru, rv) in zip(game.constraints, ref.constraints))


@kernel_settings
@given(st.tuples(dim, dim, dim, dim), seed)
def test_from_rule_matches_loop(dims, s):
    table = (np.random.default_rng(s).random(dims) < 0.5).astype(int)
    dx, dy, da, db = dims
    constraints = []
    for x in range(dx):
        for y in range(dy):
            u = np.zeros((dx * dy, 1), dtype=complex)
            u[x * dy + y, 0] = 1.0
            allowed = np.flatnonzero(table[x, y].reshape(-1))
            v = np.zeros((da * db, len(allowed)), dtype=complex)
            for col, idx in enumerate(allowed):
                v[idx, col] = 1.0
            constraints.append((u, v))
    assert _games_equal(from_rule(table), constraints)


@kernel_settings
@given(st.integers(1, 5), st.integers(1, 3), st.booleans(), seed)
def test_colouring_game_and_classical_strategies_match_loops(n, a, synchronous, s):
    rng = np.random.default_rng(s)
    graph = _random_graph(rng, n)
    game = colouring_game(graph, a, synchronous)
    v_edge = games._orthocomplement_of_entangled(a)
    constraints = []
    for x, y in graph.ordered_edges():
        u = np.zeros((n * n, 1), dtype=complex)
        u[x * n + y, 0] = 1.0
        constraints.append((u, v_edge))
    if synchronous:
        v_diag = np.zeros((a * a, a), dtype=complex)
        for b in range(a):
            v_diag[b * a + b, b] = 1.0
        for x in range(n):
            u = np.zeros((n * n, 1), dtype=complex)
            u[x * n + x, 0] = 1.0
            constraints.append((u, v_diag))
    assert _games_equal(game, constraints)

    corr = build_tracial_cqns(qr.random_tracial_witness(rng, n, a, kind="semiclassical"))
    for strategy in (corr, reduce_ns(corr)):
        residuals = perfect_strategy_check(game, strategy).info["residuals"]
        for (u, v), r in zip(game.constraints, residuals):
            pairs = [divmod(i, n) for i in np.flatnonzero(np.sum(np.abs(u) ** 2, axis=1) > 0.5)]
            if isinstance(strategy, CqnsCorrelation):
                image = np.zeros((a * a, a * a), dtype=complex)
                for x, y in pairs:
                    image += strategy.states[x, y]
            else:
                diag = np.zeros(a * a)
                for x, y in pairs:
                    diag += strategy.table[x, y].reshape(-1)
                image = np.diag(diag).astype(complex)
            ref = abs(float(np.real(np.trace(image @ (np.eye(a * a) - v @ dagger(v))))))
            assert abs(r - ref) <= 1e-15


@kernel_settings
@given(st.integers(1, 6), st.lists(st.integers(0, 6), min_size=1, max_size=4), seed)
def test_intersection_matches_loop(dim, ranks, s):
    rng = np.random.default_rng(s)
    subspaces = [orthonormal_columns(qr.complex_gaussian(rng, dim, min(r, dim)))
                 for r in ranks]
    subspaces.append(np.eye(dim, dtype=complex)[:, : dim // 2])
    total = np.zeros((dim, dim), dtype=complex)
    for sub in subspaces:
        total += np.eye(dim) - sub @ dagger(sub)
    w, vecs = np.linalg.eigh((total + dagger(total)) / 2)
    ref = vecs[:, w < 1e-9]
    out = games._intersect(subspaces, dim)
    assert out.shape == ref.shape
    # the sums agree to rounding; an eigenbasis of them moves by that over the spectral gap
    assert _maxdiff(out @ dagger(out), ref @ dagger(ref)) <= TOL_ORDER


@kernel_settings
@given(st.integers(1, 3), st.integers(1, 3), seed)
def test_from_povms_matches_loop(dh, dx, s):
    rng = np.random.default_rng(s)
    povms = [qr.random_pvm(rng, dh, int(rng.integers(1, dh + 1))) for _ in range(dx)]
    povms = [p + [np.zeros((dh, dh))] * (dh - len(p)) for p in povms]  # one outcome count
    da = dh
    t = np.zeros((dx, da, dh, dx, da, dh), dtype=complex)
    for x, family in enumerate(povms):
        for a, op in enumerate(family):
            op = np.asarray(op, dtype=complex)
            t[x, a, :, x, a, :] = (op + dagger(op)) / 2
    assert _bitwise(from_povms(povms).mat, t.reshape((dx * da * dh,) * 2))


@kernel_settings
@given(st.tuples(dim, dim, dim, dim), st.tuples(dim, dim), st.integers(1, 3),
       st.integers(1, 3), seed)
def test_local_composition_matches_pairwise_choi_compose(d1, out, k1, k2, s):
    rng = np.random.default_rng(s)
    d1 = CorrelationDims(*d1)
    d2 = CorrelationDims(d1.a, d1.b, *out)

    def local(d, k):
        raw = rng.random(k) + 0.1
        return build_local(list(raw / raw.sum()),
                           [qr.random_channel_choi(rng, d.x, d.a) for _ in range(k)],
                           [qr.random_channel_choi(rng, d.y, d.b) for _ in range(k)], d)

    first, second = local(d1, k1), local(d2, k2)
    w = compose_correlations(second, first).witness
    w1, w2 = first.witness, second.witness
    weights, alice, bob = [], [], []
    for l1, a1, b1 in zip(w1.weights, w1.alice, w1.bob):
        for l2, a2, b2 in zip(w2.weights, w2.alice, w2.bob):
            weights.append(l1 * l2)
            alice.append(choi_compose(a2, (d2.x, d2.a), a1, (d1.x, d1.a)))
            bob.append(choi_compose(b2, (d2.y, d2.b), b1, (d1.y, d1.b)))
    assert w.weights == tuple(weights) and all(type(x) is float for x in w.weights)
    assert all(_bitwise(a, b) for a, b in zip(w.alice + w.bob, alice + bob))
    assert len(w.alice) == len(w.bob) == k1 * k2


def test_json_encoders_match_entrywise_loop():
    for m in (np.array([[-0.0, 5e-324], [1e308, -1e308]]), np.array([[1 - 2j, -0.0j, -5e-324j]]),
              np.zeros((0, 0)), np.zeros((3, 0))):
        loop = [[float(z.real), float(z.imag)] for z in m.astype(complex).reshape(-1)]
        assert json.dumps(io.matrix_to_json(m)["data"]) == json.dumps(loop)
        assert json.dumps(io.vector_to_json(m)) == json.dumps(loop)


#: Constructions that were loops over entries, basis vectors, question pairs or
#: Kraus pairs; each is now an index assignment or a contraction.
REWRITTEN = {
    "graphs.py": {"Graph.adjacency", "graph_subspace", "stahlke_residual", "vertex_map_kraus",
                  "kraus_to_choi", "proper_residuals", "kd2_colouring", "kd2_explicit_states"},
    "symmetry.py": {"fair_state_residual", "_fair_constraint_matrix",
                    "_classical_fair_constraint", "classical_fair_residual", "fair_residual"},
    "games.py": {"from_rule", "colouring_game", "_apply_strategy", "_intersect"},
    "stochastic.py": {"from_povms"},
    "correlations.py": {"_compose_witness"},
    "io.py": {"matrix_to_json", "vector_to_json"},
}


def _functions(tree):
    """(qualified name, node) of every module-level function and method."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item
        elif isinstance(node, ast.FunctionDef):
            yield node.name, node


def test_no_nested_for_loops_and_none_in_constructions():
    loops = (ast.For, ast.AsyncFor)
    for path in sorted(pathlib.Path(qr.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, loops):
                inner = [n.lineno for n in ast.walk(node) if n is not node and isinstance(n, loops)]
                assert not inner, f"{path.name}:{node.lineno} nests a for loop at {inner}"
        found = set()
        for name, fn in _functions(tree):
            if name in REWRITTEN.get(path.name, ()):
                found.add(name)
                assert not any(isinstance(n, loops) for n in ast.walk(fn)), \
                    f"{path.name}:{name} has a for loop"
        assert found == REWRITTEN.get(path.name, set())

