"""Single-contraction builders and pinchings against their kron and loop forms.

The reference formulas below spell each construction out directly, as a kron
followed by a factor permutation or as nested loops over diagonal blocks;
they serve only as oracles.  The theta kernels are checked against the dense
constraint matrices they replaced.
"""

import ast
import collections
import dataclasses
import importlib.util
import inspect
import itertools
import json
import pathlib
import re
import textwrap
import tracemalloc

import numpy as np
import pytest
from conftest import plain
from hypothesis import given, settings
from hypothesis import strategies as st

from qnskit import games, io, stochastic, symmetry, theta
from qnskit import rand as qr
from qnskit.algebra import tracial_choi, tracial_states, tracial_table
from qnskit.cli import run
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
from qnskit.linalg import (CHOLESKY_MARGIN, TOL_ALG, TOL_COMM, CheckError, _margin,
                           _stack, channel_defects, check_channel, check_state,
                           choi_compose, dagger, hermiticity_and_psd_defect,
                           hermiticity_defect, kron, max_entangled, orthonormal_columns,
                           orthonormality_defect, permute_systems, pinch,
                           psd_defect, require, state_defect, worst)
from qnskit.stochastic import (StochasticOperatorMatrix, channel_choi,
                               classical_defect, commutator_bound, from_povms,
                               max_commutator, semiclassical_defect, tensor,
                               to_classical, to_semiclassical, with_ancilla_left,
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
        assert not m.semiclassical_defect() <= TOL_ALG
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
                                 LocalWitness((0.5,), local.witness.alice, local.witness.bob,
                                              local.dims))
    with pytest.raises(ValueError, match="weights"):
        rebuild_from_witness(bad_weights)


# ---------------------------------------------------------------------------
# Readings: a witness's states and table against reducing its whole Choi matrix


def _one_einsum_choi(w):
    """The Choi matrix of ``w`` by the one-einsum formula of its class, kept as the oracle."""
    d = w.dims
    if isinstance(w, LocalWitness):
        a5 = np.array(w.alice).reshape(-1, d.x, d.a, d.x, d.a)
        b5 = np.array(w.bob).reshape(-1, d.y, d.b, d.y, d.b)
        choi = np.einsum("t,txaXA,tybYB->xyabXYAB", list(w.weights), a5, b5, optimize=True)
    elif isinstance(w, TracialWitness):
        choi = sum((wt / dim) * np.einsum("xahXAk,YBkybh->xyabXYAB", b.tensor6(), b.tensor6(),
                                          optimize=True)
                   for wt, dim, b in zip(w.matrix.alg.weights, w.matrix.alg.block_dims,
                                         w.matrix.blocks))
    elif w.kind == "quantum":
        he, hf = w.e.dim_h, w.f.dim_h
        choi = np.einsum("xahXAH,ybkYBK,HKhk->xyabXYAB", w.e.tensor6(), w.f.tensor6(),
                         w.sigma.reshape(he, hf, he, hf), optimize=True)
    else:
        choi = np.einsum("xahXAm,ybmYBk,kh->xyabXYAB", w.e.tensor6(), w.f.tensor6(), w.sigma,
                         optimize=True)
    return choi.reshape(d.choi_size, d.choi_size)


def _random_witness(rng, cls, kind, dx, dy, da, db):
    """A seeded witness of class ``cls`` over (dx, dy, da, db), pinched to ``kind``."""
    which = {"full": (), "semiclassical": 0, "classical": (0, 1)}[kind]
    som = {"full": lambda m: m, "semiclassical": to_semiclassical, "classical": to_classical}[kind]
    if cls == "local":
        terms = int(rng.integers(1, 3))
        weights = rng.random(terms) + 0.1
        alice = [pinch(qr.random_channel_choi(rng, dx, da), (dx, da), which) for _ in weights]
        bob = [pinch(qr.random_channel_choi(rng, dy, db), (dy, db), which) for _ in weights]
        return LocalWitness(weights / weights.sum(), alice, bob, CorrelationDims(dx, dy, da, db))
    if cls == "tracial":
        return TracialWitness(qr.random_tracial_witness(rng, dx, da, kind=kind))
    he, hf = (int(h) for h in rng.integers(1, 3, size=2))
    e, f = som(qr.random_stochastic(rng, dx, da, he)), som(qr.random_stochastic(rng, dy, db, hf))
    if cls == "quantum":
        return QuantumWitness(cls, e, f, qr.random_state(rng, he * hf))
    return QuantumWitness(cls, with_ancilla_right(e, hf), with_ancilla_left(f, he),
                          qr.random_state(rng, he * hf))


@kernel_settings
@given(st.sampled_from(["local", "quantum", "commuting", "tracial"]),
       st.sampled_from(["full", "semiclassical", "classical"]), st.tuples(dim, dim, dim, dim), seed)
def test_witness_readings_match_reducing_the_choi_matrix(cls, kind, dims, s):
    w = _random_witness(np.random.default_rng(s), cls, kind, *dims)
    assert np.array_equal(w.choi, _one_einsum_choi(w))
    full = QnsCorrelation(w.dims, w.choi)
    assert _maxdiff(w.states, reduce_cqns(full).states) <= 1e-14
    assert _maxdiff(w.table, reduce_ns(full).table) <= 1e-14
    assert w.table.dtype == float and not (w.states.flags.writeable or w.table.flags.writeable)


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


def test_combined_hermiticity_and_psd_defect_is_both_residuals(rng):
    stacks = [_random_stack(rng, shape, 2, 2, kind) for shape in ([], [3], [2, 0], [2, 3])
              for kind in ("state", "hermitian", "any")]
    broken = _random_stack(rng, [2, 2], 1, 3, "any")
    for bad in (np.nan, np.inf, complex(0, np.nan)):
        stacks.append(broken.copy())
        stacks[-1][1, 0, 2, 1] = bad
    for stack in stacks:
        np.testing.assert_equal(hermiticity_and_psd_defect(stack),
                                (hermiticity_defect(stack), psd_defect(stack)))


def _psd_oracle(m: np.ndarray) -> tuple[float, float]:
    """``hermiticity_and_psd_defect`` as one batched eigensolve decided it."""
    m = _stack(m)
    herm = hermiticity_defect(m)
    if not np.isfinite(m).all():
        return herm, float("inf")
    lam = np.linalg.eigvalsh((m + dagger(m)) / 2)[..., :1]
    return herm, worst(herm, np.minimum(lam, 0.0))


def _psd_cases(rng, n: int, k: int) -> dict:
    """Named matrices (k = 0) or stacks of k blocks, n x n, on both sides of every
    branch of the PSD decision."""
    shape = (k, n, n) if k else (n, n)
    g = qr.complex_gaussian(rng, *shape)
    pd = g @ dagger(g)
    rank = max(1, n // 3)
    low = g[..., :rank] @ dagger(g[..., :rank])
    w, v = np.linalg.eigh(pd)
    diagonal = np.einsum("...ii->...i", pd)
    margin = CHOLESKY_MARGIN * (n + 1) * np.finfo(float).eps * np.sum(diagonal.real, axis=-1)
    cases = {"pd": pd, "rank-deficient": low, "indefinite": g + dagger(g),
             "non-hermitian": pd + 1e-9 * qr.complex_gaussian(rng, *shape),
             "pd x 1e-300": pd * 1e-300, "pd x 1e300": pd * 1e300,
             "rank-deficient x 1e300": low * 1e300, "subnormal": low * 1e-312,
             "empty": np.zeros((k, 0, 0) if k else (0, 0)),
             # lambda_min = -5e-324 in subnormal steps, which a factorisation passes
             # unless the margin covers its underflow
             "subnormal rank one": np.array([[603, -312 - 536j, 211 - 670j],
                                             [-312 + 536j, 638, 488 + 536j],
                                             [211 + 670j, 488 - 536j, 822]]) * 5e-324}
    for factor in (0.1, 1.0, 3.0, 10.0, 1000.0):
        lam = w - w[..., :1] + factor * np.asarray(margin)[..., None]
        near = (v * lam[..., None, :]) @ dagger(v)
        cases[f"near-singular {factor}"] = near
        cases[f"near-singular {factor} x 1e-300"] = near * 1e-300
    if k > 1:
        cases["one failing block"] = np.concatenate([pd[:-1], low[-1:]])
        cases["one indefinite block"] = np.concatenate([pd[:1], -pd[1:2], pd[2:]])
    spots = tuple(rng.integers(n, size=(2, 2)))
    block = (rng.integers(k),) if k else ()
    for name, bad in (("nan", np.nan), ("inf", np.inf), ("complex nan", complex(0, np.nan))):
        cases[name] = pd.copy()
        cases[name][(*block, *spots[0])] = bad
    cases["1e308 off-diagonal"] = pd.copy()  # m - m* overflows
    cases["1e308 off-diagonal"][(*block, *spots[0])] = 1e308
    cases["1e308 off-diagonal"][(*block, *spots[0][::-1])] = -1e308
    cases["1e308 pair"] = pd.copy()  # m + m* overflows off the diagonal
    cases["1e308 pair"][(*block, *spots[0])] = 1e308
    cases["1e308 pair"][(*block, *spots[0][::-1])] = 1e308
    cases["1e308 diagonal"] = pd.copy()  # m - m* and m + m* overflow
    cases["1e308 diagonal"][(*block, spots[1][0], spots[1][0])] = 1e308 + 1e308j
    return cases


def _psd_outcome(fn, m):
    """The bits of ``fn(m)``, or the error it raises (an eigensolve of an overflowed H)."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return np.array(fn(m)).view(np.int64).tolist()
    except np.linalg.LinAlgError as exc:
        return repr(exc)


def _assert_decides_as_the_oracle(name: str, m: np.ndarray) -> None:
    """``hermiticity_and_psd_defect(m)`` against ``_psd_oracle``: the Hermiticity defect
    bit for bit; the PSD defect never below the oracle's, passing at ``TOL_ALG`` exactly
    when the oracle's does, and bit for bit the oracle's unless every margin is at most
    ``TOL_ALG`` and the up-shifted factorisation certified the stack, when it reads
    exactly ``worst(herm, max margin)``."""
    ours, oracle = hermiticity_and_psd_defect(m), _psd_oracle(m)
    assert _psd_outcome(lambda m: ours[:1], m) == _psd_outcome(lambda m: oracle[:1], m), name
    assert ours[1] >= oracle[1], name
    assert (ours[1] <= TOL_ALG) == (oracle[1] <= TOL_ALG), name
    if _psd_outcome(lambda m: ours, m) == _psd_outcome(lambda m: oracle, m):
        return
    assert np.isfinite(m).all(), name  # non-finite input reads inf, as the oracle does
    h = (m + dagger(m)) / 2
    margin = _margin(h)
    assert (margin <= TOL_ALG).all(), name
    assert ours[1] == worst(ours[0], margin.max()), name


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.sampled_from([0, 1, 3]), seed)
def test_psd_decision_matches_the_eigensolve_oracle_bit_for_bit(n, k, s):
    for name, m in _psd_cases(np.random.default_rng(s), n, k).items():
        ours = _psd_outcome(hermiticity_and_psd_defect, m)
        with np.errstate(over="ignore", invalid="ignore"):
            finite = [np.isfinite(m).all(), np.isfinite(m + dagger(m)).all(),
                      np.isfinite(m - dagger(m)).all()]
        if finite[0] and not finite[1]:  # H overflows: inf, where eigvalsh reads NaN or raises
            assert ours == _psd_outcome(lambda m: (hermiticity_defect(m), np.inf), m), name
        elif all(finite):  # the up-shift may read the margin of any finite stack
            _assert_decides_as_the_oracle(name, m)
        else:  # NaN, inf, or an m - m* that overflows: bit for bit
            assert ours == _psd_outcome(_psd_oracle, m), name


def _psd_of_rank(rng, lead: tuple, n: int, rank: int, trace=1.0, zero_rows=0) -> np.ndarray:
    """A seeded PSD n x n block of ``rank`` and ``trace``, or a stack of shape ``lead``;
    ``zero_rows`` of its rows and columns are zero."""
    g = qr.complex_gaussian(rng, *lead, n, rank)
    g[..., rng.choice(n, zero_rows, replace=False), :] = 0
    m = g @ dagger(g)
    return m * (trace / np.trace(m, axis1=-2, axis2=-1).real[..., None, None])


def _low_rank_cases(rng, n: int, k: int) -> dict:
    """Named n x n matrices (k = 0) or stacks of k blocks: unit-trace PSD blocks of ranks
    1 through n at three scales, a subnormal, a zero-row and a large-trace block,
    indefinite blocks whose negative eigenvalue is spread across the diagonal, and NaN
    and inf entries."""
    lead = (k,) if k else ()

    def psd(rank, trace=1.0, zero_rows=0):
        return _psd_of_rank(rng, lead, n, rank, trace, zero_rows)

    cases = {f"rank {rank} x {scale}": psd(rank) * scale
             for rank in sorted({1, 8, n // 4, n // 2, n - 1, n})
             for scale in (1, 1e-300, 1e300)}
    cases["subnormal rank 8"] = psd(8) * 1e-310
    cases["zero rows"] = psd(8, zero_rows=n // 8)
    # a trace of 2 n^2 puts the margin above TOL_ALG, so the eigensolve decides
    cases["rank n/2, trace 2n^2"] = psd(n // 2, trace=2.0 * n * n)
    base = psd(8)
    v = np.exp(2j * np.pi * rng.random((*lead, n, 1))) / np.sqrt(n)  # |v_i|^2 = 1/n
    margin = _margin((base + dagger(base)) / 2)[..., None, None]
    for depth, name in ((0.1 * margin, "0.1 margin"), (10 * margin, "10 margins"),
                        (1000 * margin, "1000 margins"), (10 * TOL_ALG, "10 tol")):
        cases[f"negative eigenvalue {name} deep"] = base - depth * (v @ dagger(v))
    for name, bad in (("nan", np.nan), ("inf", np.inf)):
        cases[name] = base.copy()
        cases[name][(*(0,) * len(lead), 3, 5)] = bad
    return cases


@settings(max_examples=4, deadline=None)
@given(seed)
def test_up_shifted_certificate_decides_as_the_eigensolve_oracle(s):
    rng = np.random.default_rng(s)
    for n, k in ((9, 0), (16, 0), (81, 0), (128, 0), (256, 0), (16, 3), (128, 2)):
        for name, m in _low_rank_cases(rng, n, k).items():
            _assert_decides_as_the_oracle(f"{name} (n = {n}, k = {k})", m)
    for rank in (1, 144, 288, 575, 576):
        _assert_decides_as_the_oracle(f"rank {rank} (n = 576)", _psd_of_rank(rng, (), 576, rank))


def test_an_overflowing_hermitian_part_reads_inf(tmp_path, capsys):
    for n in range(1, 9):
        assert psd_defect(np.diag([1e308 + 1e308j] + [1] * (n - 1))) == np.inf
    m = np.eye(3)
    m[0, 2] = m[2, 0] = 1e308
    assert hermiticity_and_psd_defect(m) == (0.0, np.inf)
    path = tmp_path / "choi.json"
    path.write_text(json.dumps({"kind": "qns", "dims": {"X": 1, "Y": 1, "A": 1, "B": 1},
                                "choi": {"rows": 1, "cols": 1, "data": [[1e308, 1e308]]}}))
    assert run(["verify", str(path)]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["psd_defect"] == "inf" and err == ""


def test_psd_decision_keeps_its_lapack_call_budget(rng, monkeypatch):
    calls = []

    def recorded(name, fn):
        """``fn`` recording each call as its name and matrix size, and "fails" if it raised."""
        def call(a, *args, **kwargs):
            try:
                out = fn(a, *args, **kwargs)
            except np.linalg.LinAlgError:
                calls.append(f"{name} {a.shape[-1]} fails")
                raise
            calls.append(f"{name} {a.shape[-1]}")
            return out
        return call
    for name in ("cholesky", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recorded(name, getattr(np.linalg, name)))
    g = qr.complex_gaussian(rng, 3, 6, 6)
    pd, low = g @ dagger(g), g[..., :2] @ dagger(g[..., :2])
    broken = pd.copy()
    broken[1, 2, 3] = np.nan
    states = kd2_colouring(3).states  # every block has a zero diagonal entry
    g = qr.complex_gaussian(rng, 256, 256)
    # unit trace, as for the witnesses' Choi matrices: a trace of about 256 r would put
    # the margin of rank 80 and 144 above TOL_ALG, and the block in the eigensolve
    rank = {r: g[:, :r] @ dagger(g[:, :r]) / np.sum(np.abs(g[:, :r]) ** 2) for r in (8, 80, 144)}
    gram = g @ dagger(g)  # a trace of about 65536 puts s near 3e-8, above TOL_ALG
    indefinite = rank[8] - 1e-4 * np.eye(256)  # every diagonal entry stays positive
    # a stack whose every s is at most TOL_ALG takes one factorisation shifted up, any
    # other one shifted down; the eigensolve runs only when that one fails or is skipped
    for stack, budget in ((pd, ["cholesky 6"]), (low, ["cholesky 6"]),
                          (states, ["cholesky 9"]), (broken, []), (gram, ["cholesky 256"]),
                          (rank[8], ["cholesky 256"]), (rank[80], ["cholesky 256"]),
                          (rank[144], ["cholesky 256"]),
                          (rank[80] * 1e4, ["cholesky 256 fails", "eigvalsh 256"]),
                          (indefinite, ["cholesky 256 fails", "eigvalsh 256"]),
                          (g + dagger(g), ["eigvalsh 256"])):
        calls.clear()
        herm, depth = hermiticity_and_psd_defect(stack)
        assert calls == budget, budget
        if stack is gram:  # the down-shift proves it positive definite
            assert depth == herm
            assert _margin(stack).max() > TOL_ALG


def test_orthonormality_defect_takes_stacks(rng):
    bases = [orthonormal_columns(qr.complex_gaussian(rng, 5, 3)) for _ in range(4)]
    bases[2] = 1.5 * bases[2]
    stack = np.stack(bases)
    loop = float(np.max([orthonormality_defect(b) for b in bases]))
    assert orthonormality_defect(stack) == loop
    assert orthonormality_defect(stack[:2], stack[2:]) == loop
    assert orthonormality_defect(stack[:0]) == 0.0
    stack[3, 1, 2] = np.nan
    assert np.isnan(orthonormality_defect(stack))


# ---------------------------------------------------------------------------
# Certificates in stacked passes: each against the per-item form it replaced


def _full_svd_max_commutator(e, f):
    """Every commutator decomposed: the largest operator norm over all block pairs."""
    eb = e.blocks().reshape(-1, e.dim_h, e.dim_h)
    fb = f.blocks().reshape(-1, f.dim_h, f.dim_h)
    comm = np.einsum("imn,jnk->ijmk", eb, fb, optimize=True) \
        - np.einsum("jmn,ink->ijmk", fb, eb, optimize=True)
    return float(np.max(np.linalg.norm(comm, ord=2, axis=(2, 3)))) if comm.size else 0.0


def _rotated(e, w):
    """``e`` with every block conjugated by the unitary ``w`` on H."""
    n = e.dim_x * e.dim_a
    big = np.kron(np.eye(n), w)
    return StochasticOperatorMatrix(*e.dims, big @ e.mat @ dagger(big))


@kernel_settings
@given(triple, triple, seed)
def test_max_commutator_matches_full_svd(de, df, s):
    rng = np.random.default_rng(s)
    e, f = qr.random_stochastic(rng, *de), qr.random_stochastic(rng, *df)
    lifted = (with_ancilla_right(e, df[2]), with_ancilla_left(f, de[2]))
    w = qr.random_unitary(rng, de[2] * df[2])
    pairs = [lifted, tuple(_rotated(m, w) for m in lifted),  # exact, then near commuting
             (e, qr.random_stochastic(rng, df[0], df[1], de[2]))]
    for a, b in pairs:
        assert max_commutator(a, b) == _full_svd_max_commutator(a, b)


def test_max_commutator_on_paulis_and_empty_blocks():
    x = StochasticOperatorMatrix(1, 1, 2, np.array([[0, 1], [1, 0]]))
    z = StochasticOperatorMatrix(1, 1, 2, np.diag([1.0, -1.0]))
    assert max_commutator(x, z) == _full_svd_max_commutator(x, z) == 2.0
    empty = StochasticOperatorMatrix(0, 2, 2, np.zeros((0, 0)))
    assert max_commutator(empty, z) == _full_svd_max_commutator(empty, z) == 0.0
    assert max_commutator(z, empty) == 0.0
    nowhere = StochasticOperatorMatrix(2, 2, 0, np.zeros((0, 0)))  # blocks on C^0
    assert max_commutator(nowhere, nowhere) == commutator_bound(nowhere, nowhere) == 0.0


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
def test_max_commutator_of_a_non_finite_block_fails_the_gate(rng, bad):
    e, f = qr.random_stochastic(rng, 2, 2, 2), qr.random_stochastic(rng, 2, 2, 2)
    mat = e.mat.copy()
    mat[1, 2] = bad
    broken = StochasticOperatorMatrix(*e.dims, mat)
    value = max_commutator(broken, f)
    assert not np.isfinite(value)
    with pytest.raises(CheckError, match="blocks do not commute"):
        require(value, TOL_COMM, "blocks do not commute")


@pytest.mark.parametrize("de, df", [((4, 4, 2), (4, 4, 2)), ((5, 3, 2), (4, 4, 2))])
def test_max_commutator_over_many_tiles_matches_full_svd(de, df):
    # 256 and 225 E blocks against 256 F blocks on C^4: 16 tiles, the last one
    # ragged in the second case
    rng = np.random.default_rng(20)
    e, f = qr.random_stochastic(rng, *de), qr.random_stochastic(rng, *df)
    lifted = (with_ancilla_right(e, df[2]), with_ancilla_left(f, de[2]))
    w = qr.random_unitary(rng, de[2] * df[2])
    pairs = [lifted, tuple(_rotated(m, w) for m in lifted),  # exact, then near commuting
             (lifted[0], qr.random_stochastic(rng, df[0], df[1], de[2] * df[2]))]
    for a, b in pairs:
        assert max_commutator(a, b) == _full_svd_max_commutator(a, b)
    for bad in (np.nan, np.inf):
        for a, b in pairs:
            mat = a.mat.copy()
            mat[-1, -1] = bad  # in the last block of E, so in the last tile
            assert max_commutator(StochasticOperatorMatrix(*a.dims, mat), b) == np.inf


def _lift(rng, dims):
    """The commuting lift (E (x) I, I (x) F) of two seeded matrices with these dims."""
    e, f = qr.random_stochastic(rng, *dims), qr.random_stochastic(rng, *dims)
    return with_ancilla_right(e, dims[2]), with_ancilla_left(f, dims[2])


@pytest.mark.parametrize("dims, kind, limit_mb", [((5, 5, 2), "random F", 8.0),
                                                  ((3, 3, 3), "rotated", 5.0)])
def test_max_commutator_holds_one_tile_at_a_time(dims, kind, limit_mb):
    # non-commuting and near-commuting pairs keep most of their commutators
    # above the pruning bound, so a candidate list across tiles would grow
    # towards the full (|E|, |F|, d, d) stack
    rng = np.random.default_rng(1)
    e, f = _lift(rng, dims)
    if kind == "random F":
        f = qr.random_stochastic(rng, dims[0], dims[1], dims[2] ** 2)
    else:
        w = qr.random_unitary(rng, dims[2] ** 2)
        e, f = _rotated(e, w), _rotated(f, w)
    value = max_commutator(e, f)
    assert 0.0 < value < np.inf
    assert _peak_mb(lambda: max_commutator(e, f)) < limit_mb


def test_max_commutator_of_an_exact_lift_decomposes_nothing(monkeypatch):
    rng = np.random.default_rng(2)
    e, f = _lift(rng, (4, 4, 2))  # 256 E blocks: 16 tiles, every commutator 0.0
    norm, orders = np.linalg.norm, []

    def counting(*args, **kw):
        orders.append(kw.get("ord"))
        return norm(*args, **kw)
    monkeypatch.setattr(np.linalg, "norm", counting)
    assert max_commutator(e, f) == 0.0
    assert orders == []
    w = qr.random_unitary(rng, 4)  # the rotated lift does decompose, through the patch
    assert max_commutator(_rotated(e, w), _rotated(f, w)) > 0.0 and set(orders) == {2}


def _gate(e, f):
    """The commuting gate's verdict on a pair: None when it passes, else its error text."""
    try:
        stochastic._require_commuting(e, f)
    except CheckError as err:
        return str(err)
    return None


def _exact_gate(e, f):
    """The verdict of the gate that ran ``max_commutator`` on every pair."""
    value = max_commutator(e, f)
    return None if value <= TOL_COMM else str(
        CheckError("blocks do not commute: max commutator norm", value, TOL_COMM))


def _commuting_cases(rng, de, df):
    """A commuting lift, its rotation by one unitary, and its E against a random F."""
    e, f = qr.random_stochastic(rng, *de), qr.random_stochastic(rng, *df)
    lifted = (with_ancilla_right(e, df[2]), with_ancilla_left(f, de[2]))
    w = qr.random_unitary(rng, de[2] * df[2])
    return [lifted, tuple(_rotated(m, w) for m in lifted),
            (lifted[0], qr.random_stochastic(rng, df[0], df[1], de[2] * df[2]))]


@kernel_settings
@given(triple, triple, seed)
def test_commutator_bound_covers_max_commutator_and_keeps_the_gate(de, df, s):
    for a, b in _commuting_cases(np.random.default_rng(s), de, df):
        assert commutator_bound(a, b) >= max_commutator(a, b)
        assert _gate(a, b) == _exact_gate(a, b)


@pytest.mark.parametrize("de, df", [((3, 3, 2), (3, 3, 2)), ((5, 3, 2), (4, 4, 2))])
@pytest.mark.parametrize("scale", [1.0, 1e-160, 1e-300, 1e-315])
def test_commutator_bound_on_scaled_and_non_finite_pairs(de, df, scale, monkeypatch):
    # scaled pairs are no stochastic operator matrices; the commutation gate is what is
    # tested, so verification is taken out of it
    monkeypatch.setattr(stochastic, "_require_verified", lambda *es: None)
    rng = np.random.default_rng(22)
    for a, b in _commuting_cases(rng, de, df):
        a, b = (StochasticOperatorMatrix(*m.dims, scale * m.mat) for m in (a, b))
        pairs = [(a, b), (b, a)]
        for bad in (np.nan, np.inf, complex(0, np.nan)):
            mat = a.mat.copy()
            mat[-1, -1] = bad  # in the last block of E, so in the last tile
            pairs.append((StochasticOperatorMatrix(*a.dims, mat), b))
        for x, y in pairs:
            bound = commutator_bound(x, y)
            assert bound >= max_commutator(x, y)
            assert _gate(x, y) == _exact_gate(x, y)
            assert np.isfinite(bound) == (bool(np.isfinite(x.mat).all())
                                          and max_commutator(x, y) <= TOL_COMM)


def test_commutator_bound_on_empty_blocks_and_different_spaces():
    z = StochasticOperatorMatrix(1, 1, 2, np.diag([1.0, -1.0]))
    for empty in (StochasticOperatorMatrix(0, 2, 2, np.zeros((0, 0))),
                  StochasticOperatorMatrix(2, 0, 2, np.zeros((0, 0)))):
        assert commutator_bound(empty, z) == commutator_bound(z, empty) == 0.0
    nowhere = StochasticOperatorMatrix(2, 2, 0, np.zeros((0, 0)))  # blocks on C^0
    assert commutator_bound(nowhere, nowhere) == 0.0
    with pytest.raises(ValueError, match="^operands act on different spaces$"):
        commutator_bound(z, StochasticOperatorMatrix(1, 1, 3, np.eye(3)))
    rng = np.random.default_rng(23)
    with pytest.raises(ValueError, match="^operands act on different spaces$"):
        stochastic._require_commuting(qr.random_stochastic(rng, 4, 4, 2),
                                      qr.random_stochastic(rng, 4, 4, 3))


def _gate_calls(e, f, monkeypatch):
    """``(bound calls, exact calls)`` of the commuting gate on a pair, and its verdict."""
    calls = collections.Counter()
    for name in ("commutator_bound", "max_commutator"):
        monkeypatch.setattr(stochastic, name, _counted(calls, name, getattr(stochastic, name)))
    verdict = _gate(e, f)
    monkeypatch.undo()
    return (calls["commutator_bound"], calls["max_commutator"]), verdict


def test_commuting_gate_proves_a_lift_without_the_exact_kernel(monkeypatch):
    e, f = _lift(np.random.default_rng(2), (4, 4, 2))  # 256 x 256 commutators on C^4
    assert _gate_calls(e, f, monkeypatch) == ((1, 0), None)


def test_commuting_gate_hands_a_high_rank_pair_to_the_exact_kernel(monkeypatch):
    # random blocks span all d^2 matrices on both sides, so the spans cannot commute
    rng = np.random.default_rng(5)
    e, f = qr.random_stochastic(rng, 4, 4, 4), qr.random_stochastic(rng, 4, 4, 4)
    assert _gate_calls(e, f, monkeypatch) == ((1, 1), _exact_gate(e, f))
    assert _exact_gate(e, f) is not None


def test_commutator_bound_holds_one_tile_of_basis_commutators(monkeypatch):
    # (4,4,16)^2: ranks 241 on C^16, so the basis commutators would fill 240 MB at
    # once; the bound forms them 65536 entries (1 MB) at a time and stops at the first
    # tile that takes it above TOL_COMM
    rng = np.random.default_rng(5)
    e, f = qr.random_stochastic(rng, 4, 4, 16), qr.random_stochastic(rng, 4, 4, 16)
    calls, modulus = collections.Counter(), np.abs
    monkeypatch.setattr(np, "abs", _counted(calls, "abs", modulus))
    assert commutator_bound(e, f) == np.inf
    assert calls["abs"] < 16  # the norms and one tile of 241
    monkeypatch.undo()
    assert _peak_mb(lambda: commutator_bound(e, f)) < 16
    # the (2,3,5)^2 lift: 25 basis matrices a side on C^25, four a tile, so a commuting
    # pair sums seven tiles
    e, f = _lift(rng, (2, 3, 5))
    assert max_commutator(e, f) <= commutator_bound(e, f) <= TOL_COMM


def _loop_strategy_residuals(game, strategy):
    """The per-constraint check the batched pass replaced."""
    dout = game.out_dims[0] * game.out_dims[1]
    out = []
    for u, v in game.constraints:
        if isinstance(strategy, QnsCorrelation):
            image = strategy.apply(u @ dagger(u))
        else:
            support = np.flatnonzero(np.sum(np.abs(u) ** 2, axis=1) > 0.5)
            x, y = np.divmod(support, game.in_dims[1])
            if isinstance(strategy, CqnsCorrelation):
                image = strategy.states[x, y].sum(axis=0)
            else:
                image = np.diag(strategy.table[x, y].sum(axis=0).reshape(-1)).astype(complex)
        out.append(abs(float(np.real(np.trace(image @ (np.eye(dout) - v @ dagger(v)))))))
    return out


def _strategies(rng, dx, dy, da, db):
    """A quantum strategy and its classical-input and classical reductions."""
    corr = build_quantum(qr.random_stochastic(rng, dx, da, 2), qr.random_stochastic(rng, dy, db, 2),
                         qr.random_state(rng, 4))
    return corr, reduce_cqns(corr), reduce_ns(corr)


@kernel_settings
@given(st.tuples(dim, dim, dim, dim), st.integers(1, 4), st.integers(1, 3), seed)
def test_batched_game_checks_match_constraint_loop(dims, n, a, s):
    rng = np.random.default_rng(s)
    rule_game = from_rule((rng.random(dims) < 0.5).astype(int))  # V widths differ
    graph = _random_graph(rng, n, 0.7)
    colouring = colouring_game(graph, a, synchronous=True)
    tracial = build_tracial_cqns(qr.random_tracial_witness(rng, n, a, kind="semiclassical"))
    cases = [(rule_game, _strategies(rng, *dims)),
             (colouring, _strategies(rng, n, n, a, a) + (tracial, reduce_ns(tracial)))]
    for game, strategies in cases:
        for strategy in strategies:
            report = perfect_strategy_check(game, strategy)
            loop = _loop_strategy_residuals(game, strategy)
            assert report.info["residuals"] == loop
            assert report.max_residual == float(np.max(loop, initial=0.0))


def test_kd2_game_checks_match_constraint_loop():
    for d in (2, 3):
        corr = kd2_colouring(d)
        game = colouring_game(Graph.complete(d * d), d)
        for strategy in (corr, reduce_ns(corr)):
            assert perfect_strategy_check(game, strategy).info["residuals"] == \
                _loop_strategy_residuals(game, strategy)


def test_game_construction_names_the_first_failing_constraint():
    game = colouring_game(Graph.cycle(4), 2, synchronous=True)  # edges 0-7, diagonals 8-11
    constraints = list(game.constraints)
    u9, v9 = constraints[9]
    constraints[9] = (u9, 2 * v9)
    with pytest.raises(CheckError, match="constraint 9: subspaces must have orthonormal"):
        ConstraintGame(game.in_dims, game.out_dims, True, tuple(constraints))
    u3, v3 = constraints[3]
    constraints[3] = (u3, v3 * np.nan)
    with pytest.raises(CheckError, match="constraint 3: .*residual nan"):
        ConstraintGame(game.in_dims, game.out_dims, True, tuple(constraints))
    constraints = list(game.constraints)
    mixed = np.zeros((16, 1), dtype=complex)
    mixed[[1, 4], 0] = 2 ** -0.5  # orthonormal, but not a standard basis vector
    constraints[10] = (mixed, constraints[10][1])
    with pytest.raises(ValueError, match="constraint 10: input subspace is not spanned"):
        ConstraintGame(game.in_dims, game.out_dims, True, tuple(constraints))
    # a non-classical game takes any orthonormal input subspace
    assert ConstraintGame(game.in_dims, game.out_dims, False, tuple(constraints)).n_constraints \
        == 12


def _einsum_fair_residual(corr):
    """The classical-input contractions as one unoptimised einsum each."""
    d = corr.dims
    qs = symmetry.classical_fair_subspace(d.x).T.reshape(-1, d.x, d.x)
    if isinstance(corr, CqnsCorrelation):
        return fair_state_residual(np.einsum("nxy,xyij->nij", qs, corr.states), d.a)
    return classical_fair_residual(np.real(np.einsum("nxy,xyab->nab", qs, corr.table)))


@kernel_settings
@given(st.integers(1, 4), st.integers(1, 3), st.booleans(), seed)
def test_fair_residual_matches_einsum(dx, da, tracial, s):
    rng = np.random.default_rng(s)
    if tracial:  # fair, so every residual is rounding
        corr = build_tracial(qr.random_tracial_witness(rng, dx, da))
    else:
        corr = build_quantum(qr.random_stochastic(rng, dx, da, 2),
                             qr.random_stochastic(rng, dx, da, 1), qr.random_state(rng, 2))
    for c in (reduce_cqns(corr), reduce_ns(corr)):
        ours, ref = fair_residual(c), _einsum_fair_residual(c)
        assert abs(ours - ref) <= 1e-15
        assert (ours <= TOL_ALG) == (ref <= TOL_ALG)
    kd2 = kd2_colouring(3)
    assert abs(fair_residual(kd2) - _einsum_fair_residual(kd2)) <= 1e-15


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


def test_build_commuting_peak_memory(rng):
    # the commutator gate holds tiles of its (256, 256, 4, 4) stacks, never the 16.8 MB whole
    e, f = qr.random_stochastic(rng, 4, 4, 2), qr.random_stochastic(rng, 4, 4, 2)
    e, f = with_ancilla_right(e, 2), with_ancilla_left(f, 2)
    sigma = qr.random_state(rng, 4)
    assert _peak_mb(lambda: qns_report(build_commuting(e, f, sigma))) < 8


@pytest.mark.parametrize("cls", ["local", "quantum"])
def test_reduced_witness_residual_leaves_the_choi_matrix_unbuilt(cls):
    # E = F = (8, 4, 2): the witness's 1024 x 1024 Choi matrix alone would take 16 MiB
    rng = np.random.default_rng(7)
    if cls == "quantum":
        e, f = qr.random_stochastic(rng, 8, 4, 2), qr.random_stochastic(rng, 8, 4, 2)
        corr = build_quantum(e, f, qr.random_state(rng, 4))
    else:
        corr = build_local([1.0], [qr.random_channel_choi(rng, 8, 4)],
                           [qr.random_channel_choi(rng, 8, 4)], CorrelationDims(8, 8, 4, 4))
    for reduced in (reduce_cqns(corr), reduce_ns(corr)):
        peak = _peak_mb(lambda: witness_residual(reduced))
        assert witness_residual(reduced) <= TOL_ORDER
        assert "choi" not in vars(reduced.witness) and peak < 2


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


def _random_graph(rng, n, p=0.5):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
    return Graph.from_edges(n, pairs)


def _set_edge_pairs(n, edges):
    """The edge gate through a Python set of (min, max) tuples, then sorted."""
    pairs = np.asarray(list(edges) or np.zeros((0, 2), dtype=int))
    if pairs.dtype.kind not in "iu" or pairs.shape[1:] != (2,):
        raise ValueError(f"edges must be pairs of integer vertices, got an array "
                         f"of dtype {pairs.dtype} and shape {pairs.shape}")
    bad = (pairs[:, 0] == pairs[:, 1]) | ((pairs < 0) | (pairs >= n)).any(axis=1)
    if bad.any():
        i, j = pairs[np.argmax(bad)].tolist()
        raise ValueError(f"edge {(i, j)} is a loop or leaves the vertices 0..{n - 1}")
    unique = sorted({(min(i, j), max(i, j)) for i, j in pairs.tolist()})
    return np.array(unique, dtype=int).reshape(-1, 2)


def test_edge_gate_matches_the_set_oracle(rng):
    cases = [(3, []), (0, []), (4, np.zeros((0, 2), dtype=np.int32))]
    for n in (2, 5, 13, 40):
        for p in (0.0, 0.3, 1.0):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p]
            noisy = pairs + [(j, i) for i, j in pairs if rng.random() < 0.5]
            noisy += [noisy[k] for k in rng.integers(0, len(noisy), len(noisy) // 3)]
            noisy = [noisy[k] for k in rng.permutation(len(noisy))]
            cases += [(n, noisy)] + [(n, np.array(noisy, dtype=t).reshape(-1, 2))
                                     for t in (np.int32, np.uint8)]
    graph = _random_graph(rng, 9)
    cases.append((graph.n, graph.edges))
    for n, edges in cases:
        out = theta.edge_pairs(n, edges)
        assert out.dtype == np.int64 and out.flags.c_contiguous and not out.flags.writeable
        assert np.array_equal(out, _set_edge_pairs(n, edges)), (n, edges)
    # both directions of every edge, in the order a sorted list of tuples has
    both = [e for i, j in graph.edges.tolist() for e in ((i, j), (j, i))]
    assert graph.ordered_edges().tolist() == [list(e) for e in sorted(both)]
    assert len(Graph.cycle(100_000).edges) == 100_000  # nothing of size n x n


@pytest.mark.parametrize("edges", [[(1, 1)], [(0, 1), (3, 0)], [(0, -1)], [(0, 1.5)],
                                   [(0, 1, 2)], np.array([0, 1]),
                                   np.array([[0, 1], [2, 2]], dtype=np.uint8)])
def test_edge_gate_refusals_keep_their_messages(edges):
    with pytest.raises(ValueError) as old:
        _set_edge_pairs(3, edges)
    with pytest.raises(ValueError, match=re.escape(str(old.value))):
        theta.edge_pairs(3, edges)


def test_edge_gate_refuses_edge_keys_beyond_int64():
    assert len(theta.edge_pairs(3037000499, [(3037000497, 3037000498)])) == 1
    with pytest.raises(ValueError, match="too many"):
        theta.edge_pairs(2**32, [(0, 1)])
    assert Graph.empty(2**32).edges.shape == (0, 2)


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
    # stahlke_residual takes trace-preserving families: the blocks of an isometry
    # C^din -> C^(k dout), with k raised until there is room for one
    k_tp = max(k, -(-din // dout))
    channel = list(np.linalg.qr(qr.complex_gaussian(rng, k_tp * dout, din))[0]
                   .reshape(k_tp, dout, din))
    for t_basis in (realization_basis(graph_subspace(target)), [],
                    [qr.complex_gaussian(rng, dout, dout) for _ in range(2)]):
        assert abs(stahlke_residual(channel, s_basis, t_basis)
                   - _loop_stahlke_residual(channel, s_basis, t_basis)) <= 1e-15

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
    assert all(type(v) is int for e in out for v in e)
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


def _einsum_choi_compose(choi2, dims2, choi1, dims1):
    """The contraction ``choi_compose`` replaced, one pair of Choi matrices at a time."""
    (d_in, d_mid), d_out = dims1, dims2[1]
    c1 = np.asarray(choi1, dtype=complex).reshape(d_in, d_mid, d_in, d_mid)
    c2 = np.asarray(choi2, dtype=complex).reshape(d_mid, d_out, d_mid, d_out)
    return np.einsum("iajb,akbl->ikjl", c1, c2).reshape(d_in * d_out, d_in * d_out)


@kernel_settings
@given(dim, dim, dim, st.integers(1, 3), st.integers(1, 3), seed)
def test_choi_compose_matches_einsum(d_in, d_mid, d_out, k1, k2, s):
    rng = np.random.default_rng(s)
    dims1, dims2 = (d_in, d_mid), (d_mid, d_out)
    first = np.array([qr.random_channel_choi(rng, *dims1) for _ in range(k1)])
    second = np.array([qr.random_channel_choi(rng, *dims2) for _ in range(k2)])
    stacked = choi_compose(second[None, :], dims2, first[:, None], dims1)
    assert stacked.shape == (k1, k2, d_in * d_out, d_in * d_out)
    for i, j in itertools.product(range(k1), range(k2)):
        oracle = _einsum_choi_compose(second[j], dims2, first[i], dims1)
        tol = 1e-14 * max(1.0, np.max(np.abs(oracle)))
        assert np.max(np.abs(choi_compose(second[j], dims2, first[i], dims1) - oracle)) <= tol
        assert np.max(np.abs(stacked[i, j] - oracle)) <= tol


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
        assert json.dumps(plain(io.matrix_to_json(m)["data"])) == json.dumps(loop)
        assert json.dumps(plain(io.vector_to_json(m))) == json.dumps(loop)


def _sym(a):
    """(A + A^T) / 2 on a stack of blocks; 1 x 1 blocks are returned as they are."""
    return a if a.shape[-1] == 1 else (a + a.swapaxes(-1, -2)) / 2


def _dense_constraints(edges, n):
    """The theta constraints as dense matrices: I, then e_i e_j^T + e_j e_i^T per edge."""
    mats = [np.eye(n)]
    for i, j in zip(*edges):
        a = np.zeros((n, n))
        a[i, j] = a[j, i] = 1.0
        mats.append(a)
    return mats


class _DenseEdgeOperator(theta._EdgeOperator):
    """The edge operator with every constraint spelt out as a dense matrix."""

    def apply(self, w):
        mats = _dense_constraints(self.edges, w.shape[-1])
        return np.array([np.tensordot(a, w[0]) for a in mats])

    def adjoint(self, y):
        n = self.c.shape[-1]
        out = np.zeros((n, n))
        for a, yk in zip(_dense_constraints(self.edges, n), y):
            out += yk * a
        return out[None]

    def schur(self, zinv, x):
        zinv, x = zinv[0], x[0]
        mats = _dense_constraints(self.edges, len(x))
        images = [_sym(zinv @ a @ x) for a in mats]
        return _sym(np.array([[np.tensordot(a, img) for a in mats] for img in images]).T)


def _spd(rng, n):
    g = rng.standard_normal((n, n))
    return g @ g.T / n + np.eye(n)


def _assert_close(fast, dense):
    assert fast.shape == dense.shape
    assert _maxdiff(fast, dense) <= TOL_ORDER * max(1.0, float(np.max(np.abs(dense), initial=0.0)))


@kernel_settings
@given(st.integers(1, 12), st.sampled_from([0.0, 0.5, 1.0]), seed)
def test_theta_kernels_match_dense_constraints(n, p, s):
    rng = np.random.default_rng(s)
    edges = tuple(theta.edge_pairs(n, _random_graph(rng, n, p).edges).T)
    fast, dense = theta._EdgeOperator(n, edges), _DenseEdgeOperator(n, edges)
    w, zinv, x = (_sym(rng.standard_normal((1, n, n))), _spd(rng, n)[None],
                  _spd(rng, n)[None])
    y = rng.standard_normal(fast.m)
    _assert_close(fast.apply(w), dense.apply(w))
    _assert_close(fast.adjoint(y), dense.adjoint(y))
    _assert_close(fast.schur(zinv, x), dense.schur(zinv, x))


@kernel_settings
@given(st.integers(1, 16), seed)
def test_circulant_kernels_match_the_edge_operator_on_expanded_matrices(n, s):
    # row s of the circulant operator is the functional <B_s, X> = n X[0, s] with
    # B_s = c_s sum of A_e over the orbit of edge (0, s): c_s = n / (2 |orbit|), that
    # is 1/2 or, for s = n/2, 1.  M[e, s] = c_s relates all three kernels.
    rng = np.random.default_rng(s)
    shifts = np.flatnonzero(rng.random(n // 2 + 1) < 0.5)
    shifts = shifts[shifts > 0]
    graph = Graph.from_edges(n, [(v, (v + t) % n) for v in range(n) for t in shifts])
    edges = tuple(theta.edge_pairs(n, graph.edges).T)
    assert np.array_equal(theta._shifts(n, edges), shifts)
    circ, edge = theta._CirculantOperator(n, shifts), theta._EdgeOperator(n, edges)
    diff = (edges[1] - edges[0]) % n
    orbit = np.minimum(diff, n - diff)
    cols = np.searchsorted(shifts, orbit)
    m = np.zeros((edge.m, circ.m))
    m[0, 0] = 1.0
    m[1 + np.arange(len(orbit)), 1 + cols] = n / (2 * np.bincount(cols)[cols])
    lam, zinv = rng.random((2, n // 2 + 1)) + 0.1  # the LP's iterates: eigenvalue vectors
    y = rng.standard_normal(circ.m)
    x_full = circ.x_matrix(lam[:, None, None])[None]
    _assert_close(circ.apply(lam), m.T @ edge.apply(x_full))
    _assert_close(circ.x_matrix(circ.adjoint(y)[:, None, None]), edge.adjoint(m @ y)[0])
    _assert_close(circ.schur(zinv, lam),
                  m.T @ edge.schur(circ.x_matrix(zinv[:, None, None])[None], x_full) @ m)
    # the expanded X is the circulant whose spectrum is lambda, each k with multiplicity w_k
    expected = np.sort(np.repeat(lam, circ.w.astype(int)))
    _assert_close(np.linalg.eigvalsh(x_full[0]), expected)


def _repo_module(name, relative):
    """The module at ``relative`` under the repository root, loaded as ``name``."""
    path = pathlib.Path(__file__).resolve().parents[1] / relative
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solve_theta_matches_dense_constraints(rng):
    # the edge operator drives every graph here, circulant ones (K3, K9, E7, C5, C7)
    # included, so the circulant path is never compared with itself
    table = _repo_module("theta_table", "scripts/theta_table.py")
    graphs = [(g.n, g.edges) for _, g in table.catalogue(7)]
    graphs += [(n, _random_graph(rng, n, p).edges) for n, p in
               zip(rng.integers(1, 15, size=50), itertools.cycle([0.2, 0.5, 0.8]))]
    for n, e in graphs:
        edges = tuple(theta.edge_pairs(n, e).T)
        ours = theta._solve(theta._EdgeOperator(n, edges), theta.GAP_TOL, theta.MAX_ITER)
        dense = theta._solve(_DenseEdgeOperator(n, edges), theta.GAP_TOL, theta.MAX_ITER)
        assert ours.iterations == dense.iterations, (n, e)
        assert abs(ours.value - dense.value) <= theta.GAP_TOL, (n, e)


def _lapack_factors(psd, w):
    """Inverse Cholesky factors of the (..., K, s, s) blocks ``psd``, each matrix
    shifted by 1e-14 max(1, sum_k w_k Tr), with one LAPACK call per kernel."""
    jitter = 1e-14 * np.maximum(1.0, np.trace(psd, axis1=-2, axis2=-1) @ w)
    chol = np.linalg.cholesky(psd + jitter[:, None, None, None] * np.eye(psd.shape[-1]))
    return np.linalg.inv(chol)


class _LapackKernels:
    """The loop's kernels through numpy's matmul and LAPACK on the (K, s, s) blocks
    of every block size, 1 x 1 ones included, with X and Z factored again for each
    step length: the solver as it was before its closed forms and shared factors."""

    def _blocks(self, a):
        """An iterate, or a stack of them, as its (..., K, s, s) blocks."""
        return a.reshape(a.shape[:a.ndim - self.c.ndim] + self.shape)

    def inner(self, a, b):
        return float(np.vdot(self.w[:, None, None] * self._blocks(a), self._blocks(b)))

    def mul(self, a, b):
        return (self._blocks(a) @ self._blocks(b)).reshape(a.shape)

    def sym(self, a):
        return _sym(self._blocks(a)).reshape(a.shape)

    def inv(self, a):
        return _sym(np.linalg.inv(self._blocks(a))).reshape(a.shape)

    def min_eig(self, a):
        return np.linalg.eigvalsh(_sym(self._blocks(a)))[..., 0]

    def inv_factors(self, x, z):
        return np.stack([x, z])  # max_steps factors them at each call

    def max_steps(self, psd, dx, dz):
        inv = _lapack_factors(self._blocks(psd), self.w)
        step = self._blocks(np.stack([dx, dz]))
        lam = np.linalg.eigvalsh(_sym(inv @ step @ inv.swapaxes(-1, -2)))[..., 0].min(axis=-1)
        return np.minimum(1.0, -0.98 / np.minimum(lam, -1e-14))


class _LapackEdge(_LapackKernels, theta._EdgeOperator):
    w = np.ones(1)  # the weight of the one block


class _LapackCirculant(_LapackKernels, theta._CirculantOperator):
    pass


def _explicit_zero_solve():
    """`theta._solve` with the predictor's target put back as the zeros_like(X) of
    the full formula (Z^-1 0 and A(0) computed) in place of its None shortcut."""
    source = textwrap.dedent(inspect.getsource(theta._solve))
    assert source.count("direction(None)") == 1
    namespace = dict(vars(theta))
    exec(source.replace("direction(None)", "direction(np.zeros_like(x))"), namespace)
    return namespace["_solve"]


def _lapack_kernels(monkeypatch):
    """Make solve_theta run both operators through `_LapackKernels`, and the
    predictor on an explicit zero target."""
    monkeypatch.setattr(theta, "_EdgeOperator", _LapackEdge)
    monkeypatch.setattr(theta, "_CirculantOperator", _LapackCirculant)
    monkeypatch.setattr(theta, "_solve", _explicit_zero_solve())


def _theta_outcome(n, edges, tol):
    """Every field of the solve (its operator by class) and the expanded
    x_matrix, or the text of its SolverError."""
    try:
        result = theta.solve_theta(n, edges, tol=tol)
    except theta.SolverError as exc:
        return str(exc)
    outcome = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    op = next(c for c in type(result.op).__mro__ if c.__module__ == theta.__name__)
    return {**outcome, "op": op, "x_matrix": result.x_matrix}


def _assert_same_outcome(lean, lapack, graph):
    assert type(lean) is type(lapack), graph
    if isinstance(lean, str):
        assert lean == lapack, graph
        return
    assert lean.keys() == lapack.keys()
    for key, value in lean.items():
        if key in ("blocks", "x_matrix"):
            assert np.array_equal(value, lapack[key]) and value.dtype == lapack[key].dtype, graph
        else:
            assert value == lapack[key] and type(value) is type(lapack[key]), (graph, key)


def _theta_oracle_graphs(rng):
    """(n, edges, tol): the theta table and perfbench catalogues, 150 seeded
    G(n, p), Paley(61), and tolerances tight enough to break some solves down."""
    table = _repo_module("theta_table", "scripts/theta_table.py")
    inputs = _repo_module("perfbench_inputs", "perfbench/inputs.py")
    graphs = [(g.n, g.edges, theta.GAP_TOL) for _, g in table.catalogue(7)]
    named = {g["name"]: g for seed in (1, 2, 3) for g in inputs.theta_catalogue(seed)}
    graphs += [(g["n"], g["edges"], theta.GAP_TOL) for g in named.values()]
    graphs += [(int(n), _random_graph(rng, int(n), p).edges, theta.GAP_TOL) for n, p in
               zip(rng.integers(1, 21, size=150), itertools.cycle([0.2, 0.5, 0.8]))]
    graphs.append((61, inputs.paley_edges(61), theta.GAP_TOL))
    breakdown = [(g["n"], g["edges"]) for g in named.values() if g["n"] <= 17]
    coins = np.random.default_rng(3)  # the G(12, 1/2) of the CLI breakdown test
    breakdown.append((12, [e for e in itertools.combinations(range(12), 2)
                           if coins.random() < 0.5]))
    graphs += [(n, e, tol) for n, e in breakdown for tol in (1e-12, 1e-30)]
    return graphs


def test_lean_theta_is_bit_identical_to_per_call_lapack(rng, monkeypatch):
    # the LP's elementwise kernels on eigenvalue vectors are what matmul and LAPACK
    # compute on 1 x 1 blocks, one factorisation of (X, Z) serves both step
    # lengths, and the predictor's None target is the zero target: every field,
    # and every breakdown, must match the solver that called them on the blocks
    # for each kernel and each step length and solved for Z^-1 0 and A(0)
    graphs = _theta_oracle_graphs(rng)
    assert len(graphs) >= 200
    lean = [_theta_outcome(n, e, tol) for n, e, tol in graphs]
    _lapack_kernels(monkeypatch)
    for (n, e, tol), ours in zip(graphs, lean):
        _assert_same_outcome(ours, _theta_outcome(n, e, tol), (n, len(e), tol))
    assert any(isinstance(o, str) for o in lean)  # the breakdown path ran


def _index_schur(op, zinv, x):
    """The edge Schur matrix through np.ix_ gathers, np.block and a final
    symmetrisation, as it was assembled before its row-then-column gathers."""
    zinv, x = zinv[0], x[0]
    zx = zinv @ x
    row = (zx + zx.T)[op.edges]
    i, j = op.edges
    t1 = zinv[np.ix_(j, i)] * x[np.ix_(i, j)]
    block = t1 + t1.T + zinv[np.ix_(j, j)] * x[np.ix_(i, i)] \
        + zinv[np.ix_(i, i)] * x[np.ix_(j, j)]
    full = np.block([[np.trace(zx), row], [row[:, None], block]])
    return (full + full.T) / 2


def _concatenate_apply(op, w):
    """[Tr W, 2 W[i, j] per edge (i, j)] through a pair gather and np.concatenate."""
    return np.concatenate(([np.trace(w[0])], 2 * w[0][op.edges]))


def _exactly_symmetric(rng, n):
    a = rng.standard_normal((1, n, n))
    return a + a.swapaxes(-1, -2)


def test_edge_kernels_match_their_index_oracles(rng):
    # the gathers reach the same entries and sum them in the same order, so on
    # exactly symmetric Z^-1 and X both kernels equal the oracles bit for bit,
    # and the Schur matrix is its own transpose without a final symmetrisation
    graphs = [(2, [(0, 1)]), (9, [(3, 7)]), (4, [])]
    graphs += [(int(n), _random_graph(rng, int(n), p).edges) for n, p in
               zip(rng.integers(1, 41, size=60), itertools.cycle([0.2, 0.5, 0.8]))]
    graphs.append((40, _random_graph(rng, 40, 0.8).edges))
    for n, e in graphs:
        op = theta._EdgeOperator(n, tuple(theta.edge_pairs(n, e).T))
        zinv, x, w = (_exactly_symmetric(rng, n) for _ in range(3))
        schur = op.schur(zinv, x)
        assert np.array_equal(schur, _index_schur(op, zinv, x)), (n, len(e))
        assert np.array_equal(schur, schur.T), (n, len(e))
        assert np.array_equal(op.apply(w), _concatenate_apply(op, w)), (n, len(e))


def test_theta_solves_equal_the_index_oracle_solver(rng, monkeypatch):
    # every iterate X and Z is exactly symmetric, which makes the symmetrisations
    # the solver leaves out no-ops: with the np.ix_ Schur matrix, the concatenated
    # constraint map and a symmetrisation of every block size put back, every
    # field and every breakdown must be the same
    # (the LP's iterates are vectors of 1 x 1 blocks, symmetric as they stand)
    graphs = _theta_oracle_graphs(rng)
    factors = theta._EdgeOperator.inv_factors

    def symmetric_factors(op, x, z):
        assert np.array_equal(x, x.swapaxes(-1, -2)) and np.array_equal(z, z.swapaxes(-1, -2))
        return factors(op, x, z)

    monkeypatch.setattr(theta._EdgeOperator, "inv_factors", symmetric_factors)
    ours = [_theta_outcome(n, e, tol) for n, e, tol in graphs]
    for outcome in ours:
        if not isinstance(outcome, str):
            blocks = outcome["blocks"]
            assert np.array_equal(blocks, blocks.swapaxes(-1, -2))
    monkeypatch.setattr(theta._EdgeOperator, "schur", _index_schur)
    monkeypatch.setattr(theta._EdgeOperator, "apply", _concatenate_apply)
    monkeypatch.setattr(theta._CirculantOperator, "sym", lambda op, a: (a + a) / 2)
    for (n, e, tol), outcome in zip(graphs, ours):
        _assert_same_outcome(outcome, _theta_outcome(n, e, tol), (n, len(e), tol))
    assert any(isinstance(o, str) for o in ours)  # the breakdown path ran


@pytest.mark.parametrize("values", [
    [[2.0, 0.5], [1e-300, 3e300]], [[5e-324, 1.0], [7.0, 0.25]], [[0.0, 1.0], [2.0, 3.0]],
    [[-1.0, 1.0], [2.0, 3.0]], [[np.nan, 1.0], [2.0, 3.0]], [[np.inf, 1.0], [2.0, 3.0]],
    [[-0.0, 1.0], [2.0, 3.0]], [[-1e-14, 0.25], [2.0, 3.0]], [[2.0, 3.0], [0.25, -1e-14]]])
def test_scalar_block_kernels_match_lapack(values):
    # the LP operator's kernels on its eigenvalue vectors (here X and Z with K = 2)
    # return what LAPACK returns on the (K, 1, 1) blocks and refuse what it refuses:
    # the bare inverse Cholesky factor on each value, and `inv_factors` after the
    # jitter, which is 1e-14 in the last two rows and takes their -1e-14 to +0.0
    op = theta._CirculantOperator(3, np.array([1]))
    a = np.array(values)
    blocks = a[..., None, None]

    def outcome(fn):
        # neither form may flag a division by zero or an invalid operation; a
        # reciprocal that overflows to inf is flagged by numpy, where LAPACK is silent
        try:
            with np.errstate(divide="raise", invalid="raise", over="ignore"):
                return fn()
        except np.linalg.LinAlgError as exc:
            return str(exc)

    pairs = [(lambda: op.inv(a), lambda: np.linalg.inv(blocks)[..., 0, 0]),
             (lambda: op.inv_cholesky(a),
              lambda: np.linalg.inv(np.linalg.cholesky(blocks))[..., 0, 0]),
             (lambda: op.inv_factors(*a), lambda: _lapack_factors(blocks, op.w)[..., 0, 0])]
    for ours, ref in pairs:
        ours, ref = outcome(ours), outcome(ref)
        if isinstance(ref, str):
            assert ours == ref
        else:
            assert np.array_equal(ours, ref, equal_nan=True)
    assert np.array_equal(op.min_eig(a), np.linalg.eigvalsh(blocks)[..., 0], equal_nan=True)
    step = np.array([[-3.0, 0.5], [1e-20, -2.0]])
    with np.errstate(over="ignore", under="ignore"):
        congruence = blocks @ step[..., None, None] @ blocks.swapaxes(-1, -2)
        lam = np.linalg.eigvalsh(congruence)[..., 0].min(axis=-1)
        assert np.array_equal(op.congruence(a, step), congruence[..., 0, 0], equal_nan=True)
        assert np.array_equal(op.max_steps(a, *step),
                              np.minimum(1.0, -0.98 / np.minimum(lam, -1e-14)), equal_nan=True)


def _counted(calls, name, fn):
    """``fn``, counting its calls in ``calls[name]``."""
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return counted


def test_theta_iterations_keep_their_lapack_call_budget(rng, monkeypatch):
    # per iteration that takes a step (all but the last): the LP only solves its
    # Schur system, for the predictor and the corrector; the edge path also
    # inverts Z and the Cholesky factors of (X, Z), factors (X, Z) once and takes
    # one eigensolve per step length, and one more eigensolve for dual_bound.
    # lstsq runs only after solve raises
    calls = collections.Counter()
    for name in dir(np.linalg):
        fn = getattr(np.linalg, name)
        if not name.startswith("_") and callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, _counted(calls, name, fn))

    def check(g, fallback):
        """Solve ``g`` and compare its np.linalg calls with the budget; True on the LP."""
        calls.clear()
        result = theta.solve_theta(g.n, g.edges)
        steps = result.iterations - 1
        expected = {"solve": 2 * steps, **({"lstsq": 2 * steps} if fallback else {})}
        lp = isinstance(result.op, theta._CirculantOperator)
        if not lp:
            expected.update(inv=2 * steps, cholesky=steps, eigvalsh=2 * steps + 1)
        assert dict(calls) == expected, (g.n, len(g.edges), fallback)
        return lp

    graphs = [Graph.cycle(5), Graph.cycle(101), Graph.empty(1), Graph.complete(9),
              Graph.from_edges(13, [(v, (v + s) % 13) for s in (1, 3, 4) for v in range(13)]),
              _random_graph(rng, 10, 0.3), _random_graph(rng, 16), _random_graph(rng, 40, 0.8)]
    assert {check(g, fallback=False) for g in graphs} == {True, False}

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", _counted(calls, "solve", singular))
    assert {check(g, fallback=True) for g in (graphs[0], graphs[5])} == {True, False}


def _dense_shifts(n, edges):
    """Circulance on the n x n adjacency and its cyclic shift."""
    adj = np.zeros((n, n), dtype=bool)
    adj[edges] = adj[edges[::-1]] = True
    if not np.array_equal(adj, np.roll(adj, (1, 1), axis=(0, 1))):
        return None
    return np.flatnonzero(adj[0, :n // 2 + 1])


def _circulance_cases(rng):
    """3000 graphs on n < 30: half circulant, some of those with one edge removed or
    added, the rest G(n, p), and n = 1 and 2, edgeless and complete graphs."""
    cases = [(n, []) for n in range(1, 30)]
    cases += [(n, list(itertools.combinations(range(n), 2))) for n in range(1, 30)]
    while len(cases) < 3000:
        n = int(rng.integers(1, 30))
        if rng.random() < 0.5:
            cases.append((n, _random_graph(rng, n, rng.random()).edges))
            continue
        shifts = np.flatnonzero(rng.random(n // 2 + 1) < rng.random())
        edges = [(v, (v + s) % n) for s in shifts[shifts > 0] for v in range(n)]
        edges = theta.edge_pairs(n, edges).tolist()
        change = rng.random()
        if change < 0.2 and edges:
            edges.pop(int(rng.integers(len(edges))))
        elif change < 0.4 and n > 1:
            edges.append(sorted(rng.choice(n, 2, replace=False).tolist()))
        cases.append((n, edges))
    return cases


def test_circulance_in_edges_matches_the_adjacency_test(rng):
    cases = _circulance_cases(rng)
    found = 0
    for n, e in cases:
        edges = tuple(theta.edge_pairs(n, e).T)
        ours, dense = theta._shifts(n, edges), _dense_shifts(n, edges)
        assert (ours is None) == (dense is None), (n, e)
        if dense is not None:
            found += 1
            assert np.array_equal(ours, dense) and ours.dtype == dense.dtype, (n, e)
    assert len(cases) == 3000 and 1000 <= found <= 2500


def test_circulance_of_a_sparse_cycle_allocates_no_square():
    n = 4001
    edges = tuple(theta.edge_pairs(n, Graph.cycle(n).edges).T)
    tracemalloc.start()
    try:
        shifts = theta._shifts(n, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert shifts.tolist() == [1]
    assert peak < 1 << 20, peak


#: Constructions that were loops over entries, basis vectors, question pairs or
#: Kraus pairs; each is now an index assignment or a contraction.
REWRITTEN = {
    "graphs.py": {"Graph.ordered_edges", "Graph.adjacency", "graph_subspace", "stahlke_residual",
                  "vertex_map_kraus", "kraus_to_choi", "proper_residuals", "kd2_colouring",
                  "kd2_explicit_states"},
    "symmetry.py": {"fair_state_residual", "_fair_constraint_matrix",
                    "_classical_fair_constraint", "classical_fair_residual", "fair_residual"},
    "games.py": {"from_rule", "colouring_game", "_apply_strategy", "_intersect"},
    "stochastic.py": {"from_povms"},
    "correlations.py": {"_compose_witness"},
    "io.py": {"matrix_to_json", "vector_to_json"},
    "theta.py": {"edge_pairs", "_shifts", "_Operator.max_steps", "_EdgeOperator.inv_factors",
                 "_CirculantOperator.inv_factors", "_CirculantOperator.inv_cholesky", "_EdgeOperator.apply",
                 "_EdgeOperator.adjoint", "_EdgeOperator.schur", "_CirculantOperator.apply",
                 "_CirculantOperator.adjoint", "_CirculantOperator.schur",
                 "_CirculantOperator.x_matrix"},
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

