"""No-signalling correlations: quantum, classical-to-quantum and classical.

A QNS correlation is a channel M_{XY} -> M_{AB} stored through its Choi
matrix (rows (x, y, a, b), columns (x', y', a', b')).  Class membership is
certificate based: constructors attach witnesses, each of which carries its
``dims`` and one gated contraction in Choi subscripts.  ``linalg.READINGS`` says
what CQNS data (the reduction E, on classical inputs) and NS data (N, on classical
outputs too) read of a Choi matrix: a witness's read-only ``choi``, ``states`` and
``table`` are readings of its contraction, each made once, the reductions read
the stored data, and a re-check reads the witness as its correlation's type.
:func:`qns_report` checks the defining no-signalling conditions of the Choi matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence, Union

import numpy as np

from . import algebra, stochastic
from .algebra import AlgStochasticMatrix, compose_alg
from .linalg import (TOL_ALG, NEG_CLAMP, READINGS, Report, apply_choi, asmatrix,
                     check_channel, check_weights, choi_compose, dimensions,
                     hermiticity_and_psd_defect, kron, pinch, reading, readonly, state_defect,
                     tp_residual, worst)
from .stochastic import StochasticOperatorMatrix


@dataclass(frozen=True)
class CorrelationDims:
    """Input pair (X, Y) and output pair (A, B) dimensions."""

    x: int
    y: int
    a: int
    b: int

    def __post_init__(self):
        for name, d in zip("xyab", dimensions((self.x, self.y, self.a, self.b))):
            object.__setattr__(self, name, d)

    @property
    def in_size(self) -> int:
        return self.x * self.y

    @property
    def out_size(self) -> int:
        return self.a * self.b

    @property
    def choi_size(self) -> int:
        return self.in_size * self.out_size


class _Witness:
    """Base of the witnesses: ``choi``, ``states`` and ``table`` are the readings of
    ``_read``, each made once and kept read-only; ``_read`` reads the cached gated
    ``_contraction``, a ``(spec, *operands)`` in Choi subscripts (``linalg.READINGS``)."""

    def _read(self, name: str) -> np.ndarray:
        return reading(name, *self._contraction)

    choi = cached_property(lambda self: readonly(self._read("choi")))
    states = cached_property(lambda self: readonly(self._read("states")))
    # the real part of a read-only complex copy is a read-only real view
    table = cached_property(lambda self: np.real(readonly(self._read("table"))))


@dataclass(frozen=True)
class LocalWitness(_Witness):
    """Convex combination of product channels, stored through read-only copies of
    their Choi matrices, one weight per pair.  The counts and the term shapes are
    checked when the witness is made; the weight and channel gates run once, when
    its contraction is first made."""

    weights: tuple[float, ...]
    alice: tuple[np.ndarray, ...]
    bob: tuple[np.ndarray, ...]
    dims: CorrelationDims

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(map(float, self.weights)))
        object.__setattr__(self, "alice", tuple(map(readonly, self.alice)))
        object.__setattr__(self, "bob", tuple(map(readonly, self.bob)))
        if not len(self.weights) == len(self.alice) == len(self.bob):
            raise ValueError(f"need one weight per channel pair, got {len(self.weights)} weights, "
                             f"{len(self.alice)} alice and {len(self.bob)} bob channels")
        d = self.dims
        for field, terms, n in (("alice", self.alice, d.x * d.a), ("bob", self.bob, d.y * d.b)):
            bad = [i for i, choi in enumerate(terms) if choi.shape != (n, n)]
            if bad:
                raise ValueError(f"{field} term {bad[0]} has shape {terms[bad[0]].shape}, "
                                 f"expected {(n, n)}")

    @cached_property
    def _contraction(self) -> tuple:
        """sum_t w_t Phi_t (x) Psi_t, with the weights and the channel stacks gated."""
        d, weights = self.dims, check_weights(self.weights)
        return ("t,txaXA,tybYB", weights, _channel_terms(self.alice, (d.x, d.a)),
                _channel_terms(self.bob, (d.y, d.b)))


@dataclass(frozen=True)
class QuantumWitness(_Witness):
    """Stochastic operator matrix pair with a shared state.

    ``kind`` is "quantum" for a tensor-product pair on H_A (x) H_B and
    "commuting" for a commuting pair on a single H.  ``sigma`` is a read-only
    copy; the gated contraction of ``kind`` comes from ``stochastic``, once.
    """

    kind: str
    e: StochasticOperatorMatrix
    f: StochasticOperatorMatrix
    sigma: np.ndarray

    def __post_init__(self):
        if self.kind not in ("quantum", "commuting"):
            raise ValueError(f"witness kind must be 'quantum' or 'commuting', got {self.kind!r}")
        object.__setattr__(self, "sigma", readonly(self.sigma))

    @property
    def dims(self) -> CorrelationDims:
        return CorrelationDims(self.e.dim_x, self.f.dim_x, self.e.dim_a, self.f.dim_a)

    @cached_property
    def _contraction(self) -> tuple:
        contract = stochastic.tensor_contraction if self.kind == "quantum" \
            else stochastic.commuting_contraction
        return contract(self.e, self.f, self.sigma)


@dataclass(frozen=True)
class TracialWitness(_Witness):
    """Stochastic algebra matrix generating the correlation through its trace; each
    reading is the matching gated ``algebra.tracial_*`` contraction."""

    matrix: AlgStochasticMatrix

    @property
    def dims(self) -> CorrelationDims:
        m = self.matrix
        return CorrelationDims(m.dim_x, m.dim_x, m.dim_a, m.dim_a)

    def _read(self, name: str) -> np.ndarray:
        return getattr(algebra, f"tracial_{name}")(self.matrix)


Witness = Union[LocalWitness, QuantumWitness, TracialWitness]


@dataclass(frozen=True)
class QnsCorrelation:
    """A channel M_{XY} -> M_{AB} through its Choi matrix, kept as a read-only
    copy; one built from a witness shares the witness's matrix."""

    dims: CorrelationDims
    choi: np.ndarray
    witness: Witness | None = None

    def __post_init__(self):
        choi = asmatrix(self.choi)
        n = self.dims.choi_size
        if choi.shape != (n, n):
            raise ValueError(f"Choi shape {choi.shape} does not match dims {self.dims}")
        object.__setattr__(self, "choi", readonly(choi))

    def apply(self, rho: np.ndarray) -> np.ndarray:
        return apply_choi(self.choi, (self.dims.in_size, self.dims.out_size), rho)


@dataclass(frozen=True)
class CqnsCorrelation:
    """Family of output states indexed by classical input pairs, kept as a read-only copy."""

    dims: CorrelationDims
    states: np.ndarray  # shape (x, y, a*b, a*b)
    witness: Witness | None = None

    def __post_init__(self):
        states = np.asarray(self.states, dtype=complex)
        d = self.dims
        if states.shape != (d.x, d.y, d.out_size, d.out_size):
            raise ValueError(f"state family shape {states.shape} does not match dims {d}")
        object.__setattr__(self, "states", readonly(states))


@dataclass(frozen=True)
class NsCorrelation:
    """Classical no-signalling behaviour p(a, b | x, y), kept as a read-only float copy."""

    dims: CorrelationDims
    table: np.ndarray  # shape (x, y, a, b)
    witness: Witness | None = None

    def __post_init__(self):
        d = self.dims
        table = np.asarray(self.table, dtype=float)
        if table.shape != (d.x, d.y, d.a, d.b):
            raise ValueError(f"table shape {table.shape} does not match dims {d}")
        table = np.where((table < 0) & (table > NEG_CLAMP), 0.0, table)
        table.flags.writeable = False
        object.__setattr__(self, "table", table)


#: The reading each correlation type stores, under the reading's name.
_STORED = {QnsCorrelation: "choi", CqnsCorrelation: "states", NsCorrelation: "table"}


def _subscripted(corr) -> tuple[str, np.ndarray]:
    """The subscripts of the reading ``corr`` stores, and its data with one axis for each."""
    d, stored = corr.dims, _STORED[type(corr)]
    letters = "".join(READINGS[stored][0])
    size = dict(zip("xyabXYAB", (d.x, d.y, d.a, d.b) * 2))
    return letters, getattr(corr, stored).reshape([size[s] for s in letters])


def qns_report(corr: QnsCorrelation, tol: float = TOL_ALG,
               check_witness: bool = True) -> Report:
    """Check PSD, trace preservation and both marginal conditions.

    Condition (b): summing the Choi over the A-diagonal must vanish on
    off-diagonal X blocks and be X-independent on diagonal ones.  Condition
    (c) is the mirror statement for B and Y.
    """
    choi, d = corr.choi, corr.dims
    _, c8 = _subscripted(corr)
    herm, psd = hermiticity_and_psd_defect(choi)
    tp_res = tp_residual(choi, (d.in_size, d.out_size))

    tb = c8.trace(axis1=2, axis2=6)  # sum_a C[x,y,a,b,x',y',a,b'] -> [x,y,b,x',y',b']
    b_res = _marginal_residual(np.transpose(tb, (0, 3, 1, 4, 2, 5)), d.x)
    tc = c8.trace(axis1=3, axis2=7)  # sum_b -> [x,y,a,x',y',a']
    c_res = _marginal_residual(np.transpose(tc, (1, 4, 0, 3, 2, 5)), d.y)

    checks = {"hermiticity": herm, "psd_defect": psd,
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


def _spread(t: np.ndarray, axis: int) -> np.ndarray:
    """Deviations of ``t`` from its mean along ``axis`` (zero for a single slice)."""
    return t - t.mean(axis=axis, keepdims=True)


def _marginal_residual(t: np.ndarray, n: int) -> float:
    """t has shape (n, n, ...); off-diagonal slices must vanish and diagonal
    slices must not depend on the index."""
    off = t.copy()
    idx = np.arange(n)
    diag = t[idx, idx]
    off[idx, idx] = 0.0
    return worst(off, _spread(diag, 0))


def cqns_report(corr: CqnsCorrelation, tol: float = TOL_ALG,
                check_witness: bool = True) -> Report:
    """Check that every state is a state and that both marginals are no-signalling."""
    _, s4 = _subscripted(corr)
    tr_a = s4.trace(axis1=2, axis2=4)  # -> [x, y, b, b']
    tr_b = s4.trace(axis1=3, axis2=5)  # -> [x, y, a, a']
    res = worst(_spread(tr_a, 0), _spread(tr_b, 1))
    return _report({"state_defect": state_defect(corr.states), "marginal_residual": res},
                   tol, corr, check_witness)


def ns_report(corr: NsCorrelation, tol: float = TOL_ALG,
              check_witness: bool = True) -> Report:
    """Check positivity, normalisation and the no-signalling marginals of a table."""
    t = corr.table
    neg = worst(np.minimum(t, 0.0))
    norm = worst(t.sum(axis=(2, 3)) - 1.0)
    marg_b = t.sum(axis=2)  # sum over a -> [x, y, b]; must not depend on x
    marg_a = t.sum(axis=3)  # sum over b -> [x, y, a]; must not depend on y
    return _report({"negativity": neg, "normalisation": norm,
                    "ns_residual": worst(_spread(marg_b, 0), _spread(marg_a, 1))},
                   tol, corr, check_witness)


# ---------------------------------------------------------------------------
# Constructors


def from_classical(p: NsCorrelation) -> QnsCorrelation:
    """Lift a classical no-signalling table to a diagonal-Choi correlation."""
    ns_report(p, check_witness=False).require("invalid no-signalling table")
    choi = np.diag(p.table.reshape(-1).astype(complex))
    return QnsCorrelation(p.dims, choi, witness=_pinch_witness(p.witness, True))


def _pinch_witness(w: Witness | None, classical: bool) -> Witness | None:
    """Witness of the correlation precomposed with the input pinching.

    With ``classical`` set, the output pinching is applied as well, giving a
    witness of the fully classical reduction.
    """
    if w is None:
        return None
    if isinstance(w, LocalWitness):
        d, which = w.dims, (0, 1) if classical else 0
        alice = tuple(pinch(c, (d.x, d.a), which) for c in w.alice)
        bob = tuple(pinch(c, (d.y, d.b), which) for c in w.bob)
        return LocalWitness(w.weights, alice, bob, d)
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
    return CqnsCorrelation(gamma.dims, reading("states", *_subscripted(gamma)),
                           witness=_pinch_witness(gamma.witness, False))


def reduce_ns(corr: QnsCorrelation | CqnsCorrelation) -> NsCorrelation:
    """Full classical reduction: pinch outputs and read the diagonal."""
    return NsCorrelation(corr.dims, reading("table", *_subscripted(corr)),
                         witness=_pinch_witness(corr.witness, True))


def lift_cqns(e: CqnsCorrelation) -> QnsCorrelation:
    """Precompose with the input pinching; the Choi becomes block diagonal."""
    d = e.dims
    c4 = np.zeros((d.in_size, d.out_size, d.in_size, d.out_size), dtype=complex)
    i = np.arange(d.in_size)
    c4[i, :, i, :] = e.states.reshape(d.in_size, d.out_size, d.out_size)
    n = d.choi_size
    return QnsCorrelation(d, c4.reshape(n, n), witness=_pinch_witness(e.witness, False))


def build_local(weights: Sequence[float], alice: Sequence[np.ndarray],
                bob: Sequence[np.ndarray], dims: CorrelationDims) -> QnsCorrelation:
    """Convex combination of product channels Phi_i (x) Psi_i."""
    return build_from_witness(LocalWitness(weights, alice, bob, dims))


def _channel_terms(terms: Sequence[np.ndarray], dims: tuple[int, int]) -> np.ndarray:
    """The local terms of a witness, channel Choi matrices on ``dims``, as a stack with
    indices (term, in, out, in', out')."""
    return check_channel(np.array(terms, dtype=complex), dims).reshape(-1, *dims, *dims)


def build_quantum(e: StochasticOperatorMatrix, f: StochasticOperatorMatrix,
                  sigma: np.ndarray) -> QnsCorrelation:
    """Correlation generated by a tensor pair and a state on H_A (x) H_B."""
    return build_from_witness(QuantumWitness("quantum", e, f, sigma))


def build_commuting(e: StochasticOperatorMatrix, f: StochasticOperatorMatrix,
                    sigma: np.ndarray) -> QnsCorrelation:
    """Correlation generated by a commuting pair on a common H."""
    return build_from_witness(QuantumWitness("commuting", e, f, sigma))


def build_tracial(e: AlgStochasticMatrix) -> QnsCorrelation:
    """Correlation with Choi entries tau(g[x,x',a,a'] g[y',y,b',b])."""
    return build_from_witness(TracialWitness(e))


# ---------------------------------------------------------------------------
# Witness re-verification


def build_from_witness(w: Witness) -> QnsCorrelation:
    """The correlation ``w`` generates, sharing the witness's read-only Choi matrix."""
    return QnsCorrelation(w.dims, w.choi, w)


def rebuild_from_witness(corr: QnsCorrelation | CqnsCorrelation | NsCorrelation) -> np.ndarray:
    """Recompute the correlation data from its attached witness: the witness's reading
    of the correlation's type, made through every check of the witness's class once."""
    if corr.witness is None:
        raise ValueError("correlation carries no witness")
    return getattr(corr.witness, _STORED[type(corr)])


def witness_residual(corr) -> float:
    """Max deviation between stored data and the witness reconstruction; a witness
    over other dims, even of data of the same shape, is a ValueError."""
    data = rebuild_from_witness(corr)
    stored = getattr(corr, _STORED[type(corr)])
    if data.shape != stored.shape:
        raise ValueError(f"witness rebuilds data of shape {data.shape}, "
                         f"stored data has shape {stored.shape}")
    if corr.witness.dims != corr.dims:
        raise ValueError(f"witness over {corr.witness.dims}, correlation over {corr.dims}")
    return worst(data - stored)


# ---------------------------------------------------------------------------
# Composition


def _compose_witness(w2: Witness | None, w1: Witness | None) -> Witness | None:
    if w1 is None or w2 is None:
        return None
    if isinstance(w1, LocalWitness) and isinstance(w2, LocalWitness):
        d1, d2 = w1.dims, w2.dims
        # term (s, t) is term t of w2 after term s of w1, s-major
        weights = np.outer(w1.weights, w2.weights).reshape(-1)
        alice = choi_compose(np.array(w2.alice), (d2.x, d2.a), np.array(w1.alice)[:, None],
                             (d1.x, d1.a))
        bob = choi_compose(np.array(w2.bob), (d2.y, d2.b), np.array(w1.bob)[:, None], (d1.y, d1.b))
        return LocalWitness(weights, np.concatenate(alice), np.concatenate(bob),
                            CorrelationDims(d1.x, d1.y, d2.a, d2.b))
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


def compose_correlations(gamma2: QnsCorrelation, gamma1: QnsCorrelation) -> QnsCorrelation:
    """Channel composition; witnesses of a common class are composed alongside."""
    d1, d2 = gamma1.dims, gamma2.dims
    if (d1.a, d1.b) != (d2.x, d2.y):
        raise ValueError(f"inner dimensions do not match: {(d1.a, d1.b)} vs {(d2.x, d2.y)}")
    choi = choi_compose(gamma2.choi, (d2.in_size, d2.out_size),
                        gamma1.choi, (d1.in_size, d1.out_size))
    dims = CorrelationDims(d1.x, d1.y, d2.a, d2.b)
    witness = _compose_witness(gamma2.witness, gamma1.witness)
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
    witness = LocalWitness(weights, w1.alice + w2.alice, w1.bob + w2.bob, corr1.dims)
    choi = weight * corr1.choi + (1 - weight) * corr2.choi
    return QnsCorrelation(corr1.dims, choi, witness)
