"""Single-contraction builders and pinchings against their kron and loop forms.

The reference formulas below spell each construction out directly, as a kron
followed by a factor permutation or as nested loops over diagonal blocks;
they serve only as oracles.
"""

import ast
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnskit import rand as qr
from qnskit.algebra import tracial_choi, tracial_states, tracial_table
from qnskit.correlations import (CorrelationDims, CqnsCorrelation,
                                 LocalWitness, NsCorrelation, QnsCorrelation,
                                 QuantumWitness, TracialWitness,
                                 build_commuting, build_local, build_quantum,
                                 compose_correlations, from_classical,
                                 lift_cqns, qns_report, rebuild_from_witness,
                                 reduce_cqns, reduce_ns, witness_residual)
from qnskit.graphs import (Graph, channel_sharp, graph_subspace, hom_residual,
                           kd2_colouring)
from qnskit.linalg import (CheckError, channel_defects, check_channel,
                           check_state, hermiticity_defect, kron,
                           permute_systems, pinch, psd_defect, state_defect)
from qnskit.stochastic import (StochasticOperatorMatrix, channel_choi,
                               classical_defect, semiclassical_defect, tensor,
                               to_classical, to_semiclassical,
                               with_ancilla_left, with_ancilla_right)

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


@pytest.mark.filterwarnings("error::RuntimeWarning")  # inf - inf is NaN, silently
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
