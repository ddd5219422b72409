"""No-signalling correlations: quantum, classical-to-quantum and classical.

A QNS correlation is a channel M_{XY} -> M_{AB} stored through its Choi
matrix (rows (x, y, a, b), columns (x', y', a', b')).  Class membership is
certificate based: constructors attach witnesses which can be re-verified,
while :func:`qns_report` checks the defining no-signalling conditions of the
Choi matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from . import stochastic
from .algebra import (AlgStochasticMatrix, compose_alg, tracial_choi,
                      tracial_states, tracial_table)
from .linalg import (TOL_ALG, NEG_CLAMP, Report, apply_choi, asmatrix,
                     channel_defects, check_channel, check_weights, choi_compose,
                     hermiticity_defect, kron, pinch, state_defect)
from .stochastic import StochasticOperatorMatrix


@dataclass(frozen=True)
class CorrelationDims:
    """Input pair (X, Y) and output pair (A, B) dimensions."""

    x: int
    y: int
    a: int
    b: int

    def __post_init__(self):
        for d in (self.x, self.y, self.a, self.b):
            if int(d) < 1:
                raise ValueError("dimensions must be >= 1")

    @property
    def in_size(self) -> int:
        return self.x * self.y

    @property
    def out_size(self) -> int:
        return self.a * self.b

    @property
    def choi_size(self) -> int:
        return self.in_size * self.out_size


@dataclass(frozen=True)
class LocalWitness:
    """Convex combination of product channels, stored through Choi matrices."""

    weights: tuple[float, ...]
    alice: tuple[np.ndarray, ...]
    bob: tuple[np.ndarray, ...]


@dataclass(frozen=True)
class QuantumWitness:
    """Stochastic operator matrix pair with a shared state.

    ``kind`` is "quantum" for a tensor-product pair on H_A (x) H_B and
    "commuting" for a commuting pair on a single H.
    """

    kind: str
    e: StochasticOperatorMatrix
    f: StochasticOperatorMatrix
    sigma: np.ndarray


@dataclass(frozen=True)
class TracialWitness:
    """Stochastic algebra matrix generating the correlation through its trace."""

    matrix: AlgStochasticMatrix


Witness = Union[LocalWitness, QuantumWitness, TracialWitness]


@dataclass(frozen=True)
class QnsCorrelation:
    dims: CorrelationDims
    choi: np.ndarray
    witness: Witness | None = None

    def __post_init__(self):
        choi = asmatrix(self.choi)
        n = self.dims.choi_size
        if choi.shape != (n, n):
            raise ValueError(f"Choi shape {choi.shape} does not match dims {self.dims}")
        object.__setattr__(self, "choi", choi)

    def choi8(self) -> np.ndarray:
        d = self.dims
        return self.choi.reshape(d.x, d.y, d.a, d.b, d.x, d.y, d.a, d.b)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return apply_choi(self.choi, (self.dims.in_size, self.dims.out_size), rho)


@dataclass(frozen=True)
class CqnsCorrelation:
    """Family of output states indexed by classical input pairs."""

    dims: CorrelationDims
    states: np.ndarray  # shape (x, y, a*b, a*b)
    witness: Witness | None = None

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        d = self.dims
        if states.shape != (d.x, d.y, d.out_size, d.out_size):
            raise ValueError(f"state family shape {states.shape} does not match dims {d}")
        object.__setattr__(self, "states", states)


@dataclass(frozen=True)
class NsCorrelation:
    """Classical no-signalling behaviour p(a, b | x, y)."""

    dims: CorrelationDims
    table: np.ndarray  # shape (x, y, a, b)
    witness: Witness | None = None

    def __post_init__(self):
        d = self.dims
        table = np.asarray(self.table, dtype=float)
        if table.shape != (d.x, d.y, d.a, d.b):
            raise ValueError(f"table shape {table.shape} does not match dims {d}")
        table = np.where((table < 0) & (table > NEG_CLAMP), 0.0, table)
        object.__setattr__(self, "table", table)


def qns_report(corr: QnsCorrelation, tol: float = TOL_ALG,
               check_witness: bool = True) -> Report:
    """Check PSD, trace preservation and both marginal conditions.

    Condition (b): summing the Choi over the A-diagonal must vanish on
    off-diagonal X blocks and be X-independent on diagonal ones.  Condition
    (c) is the mirror statement for B and Y.
    """
    choi, d = corr.choi, corr.dims
    c8 = corr.choi8()
    psd, tp_res = channel_defects(choi, (d.in_size, d.out_size))

    tb = c8.trace(axis1=2, axis2=6)  # sum_a C[x,y,a,b,x',y',a,b'] -> [x,y,b,x',y',b']
    b_res = _marginal_residual(np.transpose(tb, (0, 3, 1, 4, 2, 5)), d.x)
    tc = c8.trace(axis1=3, axis2=7)  # sum_b -> [x,y,a,x',y',a']
    c_res = _marginal_residual(np.transpose(tc, (1, 4, 0, 3, 2, 5)), d.y)

    checks = {"hermiticity": hermiticity_defect(choi), "psd_defect": psd,
              "tp_residual": tp_res, "b_residual": b_res, "c_residual": c_res}
    return _report(checks, tol, corr, check_witness)


def _report(checks: dict, tol: float, corr, check_witness: bool) -> Report:
    """The report of ``checks``, plus the witness re-check when asked and attached.

    A witness whose rebuild raises reads as an infinite residual, and the
    error text goes into ``info["witness_error"]``.
    """
    info = {}
    if check_witness and getattr(corr, "witness", None) is not None:
        try:
            checks["witness_residual"] = witness_residual(corr)
        except (ValueError, TypeError) as exc:
            checks["witness_residual"] = float("inf")
            info["witness_error"] = str(exc)
    return Report(checks, tol, info)


def _spread(t: np.ndarray, axis: int) -> float:
    """Largest deviation of ``t`` from its mean along ``axis`` (0 for a single slice)."""
    return float(np.max(np.abs(t - t.mean(axis=axis, keepdims=True))))


def _marginal_residual(t: np.ndarray, n: int) -> float:
    """t has shape (n, n, ...); off-diagonal slices must vanish and diagonal
    slices must not depend on the index."""
    off = t.copy()
    idx = np.arange(n)
    diag = t[idx, idx]
    off[idx, idx] = 0.0
    off_res = float(np.max(np.abs(off))) if off.size else 0.0
    diag_res = _spread(diag, 0)
    return float(np.max([off_res, diag_res]))


def cqns_report(corr: CqnsCorrelation, tol: float = TOL_ALG,
                check_witness: bool = True) -> Report:
    """Check that every state is a state and that both marginals are no-signalling."""
    d = corr.dims
    s4 = corr.states.reshape(d.x, d.y, d.a, d.b, d.a, d.b)
    tr_a = s4.trace(axis1=2, axis2=4)  # -> [x, y, b, b']
    tr_b = s4.trace(axis1=3, axis2=5)  # -> [x, y, a, a']
    res = float(np.max([_spread(tr_a, 0), _spread(tr_b, 1)]))
    return _report({"state_defect": state_defect(corr.states), "marginal_residual": res},
                   tol, corr, check_witness)


def ns_report(corr: NsCorrelation, tol: float = TOL_ALG,
              check_witness: bool = True) -> Report:
    """Check positivity, normalisation and the no-signalling marginals of a table."""
    t = corr.table
    neg = float(np.clip(-t.min(), 0.0, None))
    norm = float(np.max(np.abs(t.sum(axis=(2, 3)) - 1.0)))
    marg_b = t.sum(axis=2)  # sum over a -> [x, y, b]; must not depend on x
    marg_a = t.sum(axis=3)  # sum over b -> [x, y, a]; must not depend on y
    return _report({"negativity": neg, "normalisation": norm,
                    "ns_residual": float(np.max([_spread(marg_b, 0), _spread(marg_a, 1)]))},
                   tol, corr, check_witness)


# ---------------------------------------------------------------------------
# Constructors


def from_classical(p: NsCorrelation) -> QnsCorrelation:
    """Lift a classical no-signalling table to a diagonal-Choi correlation."""
    ns_report(p, check_witness=False).require("invalid no-signalling table")
    choi = np.diag(p.table.reshape(-1).astype(complex))
    return QnsCorrelation(p.dims, choi, witness=_pinch_witness(p.witness, p.dims, True))


def _pinch_witness(w: Witness | None, d: CorrelationDims, classical: bool) -> Witness | None:
    """Witness of the correlation precomposed with the input pinching.

    With ``classical`` set, the output pinching is applied as well, giving a
    witness of the fully classical reduction.
    """
    if w is None:
        return None
    if isinstance(w, LocalWitness):
        which = (0, 1) if classical else 0
        alice = tuple(pinch(c, (d.x, d.a), which) for c in w.alice)
        bob = tuple(pinch(c, (d.y, d.b), which) for c in w.bob)
        return LocalWitness(w.weights, alice, bob)
    pinch_som = stochastic.to_classical if classical else stochastic.to_semiclassical
    if isinstance(w, QuantumWitness):
        return QuantumWitness(w.kind, pinch_som(w.e), pinch_som(w.f), w.sigma)
    if isinstance(w, TracialWitness):
        m = w.matrix
        blocks = tuple(pinch_som(b) for b in m.blocks)
        return TracialWitness(AlgStochasticMatrix(m.alg, blocks))
    return None


def reduce_cqns(gamma: QnsCorrelation) -> CqnsCorrelation:
    """Restrict to classical inputs: sigma[x, y] = Gamma(e_x e_x* (x) e_y e_y*)."""
    d = gamma.dims
    c8 = gamma.choi8()
    states = np.einsum("xyabxyAB->xyabAB", c8).reshape(d.x, d.y, d.out_size, d.out_size)
    return CqnsCorrelation(d, states, witness=_pinch_witness(gamma.witness, d, False))


def reduce_ns(corr: QnsCorrelation | CqnsCorrelation) -> NsCorrelation:
    """Full classical reduction: pinch outputs and read the diagonal."""
    d = corr.dims
    if isinstance(corr, QnsCorrelation):
        corr = reduce_cqns(corr)
    s4 = corr.states.reshape(d.x, d.y, d.a, d.b, d.a, d.b)
    table = np.real(np.einsum("xyabab->xyab", s4))
    return NsCorrelation(d, table, witness=_pinch_witness(corr.witness, d, True))


def lift_cqns(e: CqnsCorrelation) -> QnsCorrelation:
    """Precompose with the input pinching; the Choi becomes block diagonal."""
    d = e.dims
    c4 = np.zeros((d.in_size, d.out_size, d.in_size, d.out_size), dtype=complex)
    i = np.arange(d.in_size)
    c4[i, :, i, :] = e.states.reshape(d.in_size, d.out_size, d.out_size)
    n = d.choi_size
    return QnsCorrelation(d, c4.reshape(n, n), witness=_pinch_witness(e.witness, d, False))


def build_local(weights: Sequence[float], alice: Sequence[np.ndarray],
                bob: Sequence[np.ndarray], dims: CorrelationDims) -> QnsCorrelation:
    """Convex combination of product channels Phi_i (x) Psi_i."""
    if not len(weights) == len(alice) == len(bob):
        raise ValueError("need one weight per channel pair")
    weights = check_weights(weights)
    d = dims
    alice = _channel_terms("alice", alice, (d.x, d.a))
    bob = _channel_terms("bob", bob, (d.y, d.b))
    # sum_t w_t Phi_t (x) Psi_t in one contraction, rows (x, y, a, b)
    a5 = alice.reshape(-1, d.x, d.a, d.x, d.a)
    b5 = bob.reshape(-1, d.y, d.b, d.y, d.b)
    choi = np.einsum("t,txaXA,tybYB->xyabXYAB", weights, a5, b5, optimize=True)
    choi = choi.reshape(d.choi_size, d.choi_size)
    witness = LocalWitness(tuple(weights), tuple(alice), tuple(bob))
    return QnsCorrelation(d, choi, witness)


def _channel_terms(field: str, terms: Sequence[np.ndarray], dims: tuple[int, int]) -> np.ndarray:
    """The local terms of ``field`` as a stack of channel Choi matrices on ``dims``.

    Shapes are checked term by term first, so a misshapen term is named.
    """
    n = dims[0] * dims[1]
    for i, choi in enumerate(terms):
        if np.shape(choi) != (n, n):
            raise ValueError(f"{field} term {i} has shape {np.shape(choi)}, expected {(n, n)}")
    return check_channel(np.array(terms, dtype=complex), dims)


def build_quantum(e: StochasticOperatorMatrix, f: StochasticOperatorMatrix,
                  sigma: np.ndarray) -> QnsCorrelation:
    """Correlation generated by a tensor pair and a state on H_A (x) H_B."""
    choi = stochastic.tensor_choi(e, f, sigma)
    dims = CorrelationDims(e.dim_x, f.dim_x, e.dim_a, f.dim_a)
    witness = QuantumWitness("quantum", e, f, np.array(sigma))
    return QnsCorrelation(dims, choi, witness)


def build_commuting(e: StochasticOperatorMatrix, f: StochasticOperatorMatrix,
                    sigma: np.ndarray) -> QnsCorrelation:
    """Correlation generated by a commuting pair on a common H."""
    choi = stochastic.commuting_choi(e, f, sigma)
    dims = CorrelationDims(e.dim_x, f.dim_x, e.dim_a, f.dim_a)
    witness = QuantumWitness("commuting", e, f, np.array(sigma))
    return QnsCorrelation(dims, choi, witness)


def build_tracial(e: AlgStochasticMatrix) -> QnsCorrelation:
    """Correlation with Choi entries tau(g[x,x',a,a'] g[y',y,b',b])."""
    choi = tracial_choi(e)
    dims = CorrelationDims(e.dim_x, e.dim_x, e.dim_a, e.dim_a)
    return QnsCorrelation(dims, choi, TracialWitness(e))


# ---------------------------------------------------------------------------
# Witness re-verification


def build_from_witness(w: Witness, dims: CorrelationDims | None = None) -> QnsCorrelation:
    """The correlation ``w`` generates, through the builder of its class.

    Only a local witness needs ``dims``: its Choi matrices alone do not
    split into input and output dimensions.
    """
    if isinstance(w, LocalWitness):
        if dims is None:
            raise ValueError("a local witness needs the correlation dims")
        return build_local(w.weights, w.alice, w.bob, dims)
    if isinstance(w, QuantumWitness):
        build = build_quantum if w.kind == "quantum" else build_commuting
        return build(w.e, w.f, w.sigma)
    if isinstance(w, TracialWitness):
        return build_tracial(w.matrix)
    raise TypeError(f"unknown witness type {type(w)!r}")


def rebuild_from_witness(corr: QnsCorrelation | CqnsCorrelation | NsCorrelation) -> np.ndarray:
    """Recompute the correlation data from its attached witness.

    The witness goes back through its builder, so every check the builder
    makes applies again.  A tracial witness of classical-input data yields
    only the input-diagonal blocks of its Choi matrix.
    """
    w = corr.witness
    if w is None:
        raise ValueError("correlation carries no witness")
    if isinstance(w, TracialWitness) and not isinstance(corr, QnsCorrelation):
        if isinstance(corr, CqnsCorrelation):
            return tracial_states(w.matrix)
        return tracial_table(w.matrix)
    choi = build_from_witness(w, corr.dims).choi
    if isinstance(corr, QnsCorrelation):
        return choi
    lifted = QnsCorrelation(corr.dims, choi)
    if isinstance(corr, CqnsCorrelation):
        return reduce_cqns(lifted).states
    return reduce_ns(lifted).table


def witness_residual(corr) -> float:
    """Max deviation between stored data and the witness reconstruction."""
    data = rebuild_from_witness(corr)
    stored = corr.choi if isinstance(corr, QnsCorrelation) else \
        corr.states if isinstance(corr, CqnsCorrelation) else corr.table
    if data.shape != stored.shape:
        raise ValueError(f"witness rebuilds data of shape {data.shape}, "
                         f"stored data has shape {stored.shape}")
    return float(np.max(np.abs(data - stored)))


# ---------------------------------------------------------------------------
# Composition


def _compose_witness(w2: Witness | None, w1: Witness | None,
                     d1: CorrelationDims, d2: CorrelationDims) -> Witness | None:
    if w1 is None or w2 is None:
        return None
    if isinstance(w1, LocalWitness) and isinstance(w2, LocalWitness):
        # term (s, t) is term t of w2 after term s of w1, s-major
        weights = np.outer(w1.weights, w2.weights).reshape(-1).tolist()
        alice = _compose_terms(w2.alice, w1.alice, d1.x, d1.a, d2.a)
        bob = _compose_terms(w2.bob, w1.bob, d1.y, d1.b, d2.b)
        return LocalWitness(tuple(weights), tuple(alice), tuple(bob))
    if isinstance(w1, QuantumWitness) and isinstance(w2, QuantumWitness) \
            and w1.kind == w2.kind:
        e = stochastic.compose(w2.e, w1.e)
        f = stochastic.compose(w2.f, w1.f)
        if w1.kind == "quantum":
            # sigma2 (x) sigma1 reordered to (H2_A, H1_A, H2_B, H1_B)
            s2 = w2.sigma.reshape(w2.e.dim_h, w2.f.dim_h, w2.e.dim_h, w2.f.dim_h)
            s1 = w1.sigma.reshape(w1.e.dim_h, w1.f.dim_h, w1.e.dim_h, w1.f.dim_h)
            sigma = np.einsum("pqPQ,rsRS->prqsPRQS", s2, s1).reshape(
                e.dim_h * f.dim_h, e.dim_h * f.dim_h)
        else:
            sigma = kron(w2.sigma, w1.sigma)
        return QuantumWitness(w1.kind, e, f, sigma)
    if isinstance(w1, TracialWitness) and isinstance(w2, TracialWitness):
        return TracialWitness(compose_alg(w2.matrix, w1.matrix))
    return None


def _compose_terms(second, first, d_in: int, d_mid: int, d_out: int) -> np.ndarray:
    """``choi_compose(second[t], first[s])`` for every pair (s, t), s-major, in one contraction."""
    c1 = np.asarray(first, dtype=complex).reshape(-1, d_in, d_mid, d_in, d_mid)
    c2 = np.asarray(second, dtype=complex).reshape(-1, d_mid, d_out, d_mid, d_out)
    out = np.einsum("siajb,takbl->stikjl", c1, c2)
    return out.reshape(-1, d_in * d_out, d_in * d_out)


def compose_correlations(gamma2: QnsCorrelation, gamma1: QnsCorrelation) -> QnsCorrelation:
    """Channel composition; witnesses of a common class are composed alongside."""
    d1, d2 = gamma1.dims, gamma2.dims
    if (d1.a, d1.b) != (d2.x, d2.y):
        raise ValueError(f"inner dimensions do not match: {(d1.a, d1.b)} vs {(d2.x, d2.y)}")
    choi = choi_compose(gamma2.choi, (d2.in_size, d2.out_size),
                        gamma1.choi, (d1.in_size, d1.out_size))
    dims = CorrelationDims(d1.x, d1.y, d2.a, d2.b)
    witness = _compose_witness(gamma2.witness, gamma1.witness, d1, d2)
    return QnsCorrelation(dims, choi, witness)


def compose_tables(p2: NsCorrelation, p1: NsCorrelation) -> NsCorrelation:
    """p(z, w | x, y) = sum_{a, b} p2(z, w | a, b) p1(a, b | x, y)."""
    d1, d2 = p1.dims, p2.dims
    if (d1.a, d1.b) != (d2.x, d2.y):
        raise ValueError("inner dimensions do not match")
    table = np.einsum("abzw,xyab->xyzw", p2.table, p1.table)
    return NsCorrelation(CorrelationDims(d1.x, d1.y, d2.a, d2.b), table)


def mix_local(corr1: QnsCorrelation, corr2: QnsCorrelation,
              weight: float = 0.5) -> QnsCorrelation:
    """Convex combination of two locally witnessed correlations."""
    w1, w2 = corr1.witness, corr2.witness
    if not (isinstance(w1, LocalWitness) and isinstance(w2, LocalWitness)):
        raise ValueError("both correlations must carry local witnesses")
    if corr1.dims != corr2.dims:
        raise ValueError("dimension mismatch")
    weights = tuple(weight * w for w in w1.weights) + \
        tuple((1 - weight) * w for w in w2.weights)
    witness = LocalWitness(weights, w1.alice + w2.alice, w1.bob + w2.bob)
    choi = weight * corr1.choi + (1 - weight) * corr2.choi
    return QnsCorrelation(corr1.dims, choi, witness)
