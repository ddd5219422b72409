"""Stochastic operator matrices: quantised families of POVMs.

A stochastic operator matrix over (X, A) acting on H is a positive block
matrix E on X (x) A (x) H whose partial trace over A is the identity on
X (x) H.  Blocks are written E[x, x', a, a'] and live on H.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .linalg import (TOL_ALG, TOL_COMM, EIG_CLAMP, PRUNE_MARGIN, Report, _EPS, _TINY,
                     _gamma, asmatrix, check_state, dagger, dimensions,
                     hermiticity_and_psd_defect, hermiticity_defect, partial_trace, pinch,
                     psd_defect, readonly, require, worst)


@dataclass(frozen=True)
class StochasticOperatorMatrix:
    """Positive block matrix on X (x) A (x) H with Tr_A-marginal the identity.

    ``mat`` is a read-only copy, so :func:`verify` measures it once, on first use."""

    dim_x: int
    dim_a: int
    dim_h: int
    mat: np.ndarray

    def __post_init__(self):
        dimensions(self.dims, least=0)
        mat = asmatrix(self.mat)
        size = self.dim_x * self.dim_a * self.dim_h
        if mat.shape != (size, size):
            raise ValueError(f"matrix shape {mat.shape} does not match dims "
                             f"({self.dim_x},{self.dim_a},{self.dim_h})")
        object.__setattr__(self, "mat", readonly(mat))

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.dim_x, self.dim_a, self.dim_h)

    def tensor6(self) -> np.ndarray:
        """View with indices [x, a, h, x', a', h']."""
        dx, da, dh = self.dims
        return self.mat.reshape(dx, da, dh, dx, da, dh)

    def blocks(self) -> np.ndarray:
        """All blocks as an array of shape (dx, dx, da, da, dh, dh)."""
        return np.transpose(self.tensor6(), (0, 3, 1, 4, 2, 5))

    @cached_property
    def residuals(self) -> Mapping[str, float]:
        """Positivity, the Tr_A marginal and the per-x diagonal POVMs, measured once; read-only."""
        marg = partial_trace(self.mat, self.dims, 1)
        # Derived consequence: (E[x, x, a, a])_a is a POVM for every x.
        diag = np.einsum("xahxak->xahk", self.tensor6())
        herm, psd = hermiticity_and_psd_defect(self.mat)
        return MappingProxyType({
            "hermiticity": herm, "psd_defect": psd,
            "marginal_residual": worst(marg - np.eye(len(marg))),
            "povm_defect": psd_defect(diag)})


def verify(e: StochasticOperatorMatrix, tol: float = TOL_ALG) -> Report:
    """Check positivity, the Tr_A marginal, and the per-x diagonal POVMs."""
    return Report(dict(e.residuals), tol)


def _require_verified(*es: StochasticOperatorMatrix):
    for e in es:
        verify(e).require("stochastic operator matrix fails verification")


@dataclass(frozen=True)
class IsometryDilation:
    """Blocks V[a, x] : H -> K with sum_a V[a,x]* V[a,x'] = delta_{x,x'} I."""

    dim_x: int
    dim_a: int
    dim_h: int
    dim_k: int
    blocks: np.ndarray  # shape (da, dx, dk, dh)

    def isometry_defect(self) -> float:
        dx, dh = self.dim_x, self.dim_h
        gram = np.einsum("axki,aykj->xiyj", self.blocks.conj(), self.blocks,
                         optimize=True).reshape(dx * dh, dx * dh)
        return worst(gram - np.eye(dx * dh))

    def reconstruct(self) -> StochasticOperatorMatrix:
        """Rebuild E with blocks V[a,x]* V[a',x']."""
        t = np.einsum("axki,bykj->xaiybj", self.blocks.conj(), self.blocks,
                      optimize=True)
        size = self.dim_x * self.dim_a * self.dim_h
        return StochasticOperatorMatrix(self.dim_x, self.dim_a, self.dim_h,
                                        t.reshape(size, size))


def dilate(e: StochasticOperatorMatrix) -> IsometryDilation:
    """Read an isometry dilation off the Hermitian square root of E.

    K = X (x) A (x) H truncated to the numerical rank of E; the block
    V[a, x] is the (x, a)-column block of the square root.
    """
    _require_verified(e)
    dx, da, dh = e.dims
    w, v = np.linalg.eigh((e.mat + dagger(e.mat)) / 2)
    keep = w > EIG_CLAMP
    root = (np.sqrt(np.maximum(w[keep], 0.0))[:, None]
            * dagger(v)[keep, :])  # shape (dk, dx*da*dh)
    dk = root.shape[0]
    blocks = np.transpose(root.reshape(dk, dx, da, dh), (2, 1, 0, 3))
    return IsometryDilation(dx, da, dh, dk, blocks)


def channel_choi(e: StochasticOperatorMatrix, sigma: np.ndarray) -> np.ndarray:
    """Choi matrix of the channel rho -> slice of E against rho (x) sigma.

    With H trivial and sigma = 1 this returns E itself.
    """
    sigma = _check_sigma(sigma, e.dim_h)
    choi = np.einsum("xahybk,kh->xayb", e.tensor6(), sigma, optimize=True)
    n = e.dim_x * e.dim_a
    return choi.reshape(n, n)


def _check_sigma(sigma: np.ndarray, dim_h: int) -> np.ndarray:
    sigma = check_state(asmatrix(sigma))
    if sigma.shape != (dim_h, dim_h):
        raise ValueError(f"state shape {sigma.shape} does not match dim_h {dim_h}")
    return sigma


def tensor_contraction(e: StochasticOperatorMatrix, f: StochasticOperatorMatrix,
                       sigma: np.ndarray) -> tuple:
    """``(spec, *operands)`` of ``channel_choi(tensor(e, f), sigma)`` in the Choi
    subscripts of ``linalg.READINGS``, gated, without forming E (x) F."""
    _require_verified(e, f)
    he, hf = e.dim_h, f.dim_h
    s4 = _check_sigma(sigma, he * hf).reshape(he, hf, he, hf)
    return "xahXAH,ybkYBK,HKhk", e.tensor6(), f.tensor6(), s4


def commuting_contraction(e: StochasticOperatorMatrix, f: StochasticOperatorMatrix,
                          sigma: np.ndarray) -> tuple:
    """``(spec, *operands)`` of ``channel_choi(commuting_product(e, f), sigma)``, gated,
    without forming the product."""
    _require_commuting(e, f)
    return "xahXAm,ybmYBk,kh", e.tensor6(), f.tensor6(), _check_sigma(sigma, e.dim_h)


def tensor(e: StochasticOperatorMatrix, f: StochasticOperatorMatrix) -> StochasticOperatorMatrix:
    """Tensor product with factors reshuffled to X, Y, A, B, H1, H2 order."""
    _require_verified(e, f)
    g = np.einsum("xahXAH,ybkYBK->xyabhkXYABHK", e.tensor6(), f.tensor6())
    dx, da, dh = e.dim_x * f.dim_x, e.dim_a * f.dim_a, e.dim_h * f.dim_h
    return StochasticOperatorMatrix(dx, da, dh, g.reshape((dx * da * dh,) * 2))


def max_commutator(e: StochasticOperatorMatrix, f: StochasticOperatorMatrix) -> float:
    """Largest operator norm of a commutator between blocks of E and F; inf when a
    commutator is not finite.

    One tile of 16k E blocks (about 1 MB, rounding as one product over E) is held at a
    time; across tiles only the largest Frobenius norm ``top`` and operator norm ``best``
    so far are kept.  As |C|_F / sqrt(d) <= |C|_2 <= |C|_F on H = C^d, decomposing only
    the C with |C|_F >= max(best, top / sqrt(d)), each on its own, gives the exact value.
    """
    if e.dim_h != f.dim_h:
        raise ValueError("operands act on different spaces")
    d = e.dim_h
    if d == 0:  # blocks on C^0: nothing to commute, and reshape(-1, 0, 0) cannot count them
        return 0.0
    eb, fb = (m.blocks().reshape(-1, d, d) for m in (e, f))
    step = 16 * max(1, 2 ** 16 // (16 * max(1, len(fb) * d * d)))
    top = best = 0.0
    for tile in np.split(eb, range(step, len(eb), step)):
        with np.errstate(invalid="ignore"):  # inf * 0 or inf - inf: NaN, which reads as inf
            comm = np.einsum("imn,jnk->ijmk", tile, fb, optimize=True)
            comm -= np.einsum("jmn,ink->ijmk", fb, tile, optimize=True)
        frob = np.sqrt(np.einsum("ijmk,ijmk->ij", comm.real, comm.real)
                       + np.einsum("ijmk,ijmk->ij", comm.imag, comm.imag))
        top = worst(top, frob)
        if not np.isfinite(top):
            return float("inf")
        keep = (frob > 0.0) & (frob >= (1 - PRUNE_MARGIN) * max(best, top / np.sqrt(d)))
        if keep.any():  # no SVD call, not even on an empty stack, for a commuting tile
            best = worst(best, np.linalg.norm(comm[keep], ord=2, axis=(1, 2)))
    return best


def _span(flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(coef, basis, residual)`` with ``flat = coef @ basis + residual`` exactly, for the
    finite (n, d^2) stack ``flat``: the thin SVD cut to its numerical rank r, the
    singular values taken into the r basis rows, and the residual measured against
    ``flat`` (so the cut changes only the cost of the bound, never its soundness)."""
    u, s, vh = np.linalg.svd(flat, full_matrices=False)
    rank = int(np.count_nonzero(s > s[0] * _EPS * max(flat.shape)))
    coef, basis = u[:, :rank], s[:rank, None] * vh[:rank]
    return coef, basis, flat - coef @ basis


@np.errstate(over="ignore", invalid="ignore")  # an overflowed norm reads inf, NaN reads inf
def commutator_bound(e: StochasticOperatorMatrix, f: StochasticOperatorMatrix) -> float:
    """A proven upper bound on the value ``max_commutator(e, f)`` computes, from a few
    commutators of bases of the spans of the blocks, when that bound is within
    ``TOL_COMM``; inf otherwise, and when a block is not finite.

    Write |M|_1 for the sum of the moduli of the entries of M, so that
    ||M||_2 <= |M|_1, |MN|_1 <= |M|_1 |N|_1, and no square is taken that could
    overflow or underflow.  ``_span`` writes E_i = sum_k U_ik B_k + R_i over r_E basis
    matrices B_k and F_j = sum_l W_jl C_l + S_j over r_F matrices C_l, with U, B, W, C
    the stored floats and R, S the exact residuals.  Then, with K_kl = [B_k, C_l],

        [E_i, F_j] = sum_kl U_ik W_jl K_kl + [R_i, F_j] + [E_i - R_i, S_j],
        |[E_i, F_j]|_1 <= max|U| max|W| sum_kl |K_kl|_1
                          + 2 (max|R_i|_1 max|F_j|_1 + (max|E_i|_1 + max|R_i|_1) max|S_j|_1).

    With u = eps/2 and complex inner products of length k off by at most
    2 gamma_{k+2} |x|^T|y| plus 2 k tiny under gradual underflow (Higham, *Accuracy and
    Stability of Numerical Algorithms*, sections 3.1 and 3.6), and a rounded difference
    fl(a - b) = (a - b)(1 + delta), |delta| <= u:

    - the computed K^_kl = fl(fl(B_k C_l) - fl(C_l B_k)) gives
      |K_kl|_1 <= |K^_kl|_1 / (1 - u) + 4 gamma_{d+2} |B_k|_1 |C_l|_1 + 4 d^3 tiny;
    - the computed R^ = fl(E - fl(U B)) gives
      |R_i|_1 <= |R^_i|_1 / (1 - u) + 2 gamma_{r+2} max|U| sum_k |B_k|_1 + 2 r d^2 tiny;
    - ``max_commutator`` computes C^ = fl(fl(E_i F_j) - fl(F_j E_i)), with
      |C^|_1 <= (1 + u)(|[E_i, F_j]|_1 + 4 gamma_{d+2} |E_i|_1 |F_j|_1 + 4 d^3 tiny), and
      its ``np.linalg.norm(ord=2)`` of C^ is at most (1 + p(d) eps) ||C^||_2 (LAPACK
      Users' Guide, section 4.9), taking p(d) <= 5 (d + 1) as at
      ``linalg.hermiticity_and_psd_defect``.

    Every term is a sum of products of non-negative computed numbers, along chains of
    fewer than N + 20 roundings, N = (r_E + 2)(r_F + 2) d^2 (a modulus, one sum of at
    most r_E r_F d^2 terms, in whatever order the tiles below take, and a few
    products), so the computed value is at least 1 - gamma_{N+20} times the exact one.
    It is scaled by 1 + gamma_c, c = 2N + 10 (d + 1) + 64, which covers that, the
    (1 + u) and p(d) factors above and its own rounding.  Each norm and residual that
    enters a product carries n tiny, n = 16 (r_E + 1)(r_F + 1)(d + 1)^3, above every
    underflow term listed and the moduli and products that round to subnormals, so
    that no loss is multiplied up, and 16 tiny covers the last products.

    The K^_kl are formed in tiles of basis matrices B_k within ``max_commutator``'s
    budget of 2^16 entries (one B_k a tile at least: r_F d^2 entries, no more than F's
    block stack), and the partial sum only grows, so the bound is checked against
    ``TOL_COMM`` before each tile: a pair whose bound cannot pass costs little more
    than its two SVDs.
    """
    if e.dim_h != f.dim_h:
        raise ValueError("operands act on different spaces")
    d = e.dim_h
    flats = [m.blocks().reshape((m.dim_x * m.dim_a) ** 2, d * d) for m in (e, f)]
    if min(flat.size for flat in flats) == 0:
        return 0.0
    if not all(np.isfinite(flat).all() for flat in flats):
        return float("inf")
    try:
        spans = [_span(flat) for flat in flats]
    except np.linalg.LinAlgError:  # an SVD that does not converge proves nothing
        return float("inf")
    r_e, r_f = (len(basis) for _, basis, _ in spans)
    dust = 16 * (r_e + 1) * (r_f + 1) * (d + 1) ** 3 * _TINY
    u = _EPS / 2

    def norms(flat, coef, basis, residual):  # max|E_i|_1, max|U|, sum_k |B_k|_1, max|R_i|_1
        top, total = worst(coef), np.abs(basis).sum()
        return (worst(np.abs(flat).sum(axis=1)) + dust, top, total,
                worst(np.abs(residual).sum(axis=1)) / (1 - u)
                + (top * total) * (2 * _gamma(len(basis) + 2)) + dust)
    (size_e, top_e, total_e, rest_e), (size_f, top_f, total_f, rest_f) = (
        norms(flat, *span) for flat, span in zip(flats, spans))
    g = _gamma(d + 2)
    rest = (2 * (rest_e * size_f + (size_e + rest_e) * rest_f)
            + (size_e * size_f) * (4 * g) + dust)
    scale = 1 + _gamma(2 * (r_e + 2) * (r_f + 2) * d * d + 10 * (d + 1) + 64)

    def bound(mass):  # the bound, given the sum of the |K^_kl|_1
        return ((top_e * top_f) * (mass / (1 - u) + (total_e * total_f) * (4 * g) + dust)
                + rest) * scale + 16 * _TINY
    # K^_kl tile by tile, entry (k, m, l, p) of B_k C_l - C_l B_k
    b, c = (basis.reshape(-1, d, d) for _, basis, _ in spans)
    c_rows, c_cols = c.reshape(-1, d), c.swapaxes(0, 1).reshape(d, -1)
    step = max(1, 2 ** 16 // max(1, r_f * d * d))
    mass = 0.0
    for k in range(0, r_e, step):
        if not bound(mass) <= TOL_COMM:
            return float("inf")
        tile = b[k:k + step]
        comm = (tile.reshape(-1, d) @ c_cols).reshape(len(tile), d, r_f, d)
        comm -= (c_rows @ tile.swapaxes(0, 1).reshape(d, -1)).reshape(
            r_f, d, len(tile), d).transpose(2, 1, 0, 3)
        mass += np.abs(comm).sum()
    value = bound(mass)
    return float(value) if value <= TOL_COMM else float("inf")


def _require_commuting(e: StochasticOperatorMatrix, f: StochasticOperatorMatrix):
    """Refuse a pair whose blocks do not commute within ``TOL_COMM``.

    A ``commutator_bound`` within ``TOL_COMM`` passes the pair; ``max_commutator``
    decides every other pair, so each decision and each error text is that of
    ``max_commutator`` alone.
    """
    _require_verified(e, f)
    if commutator_bound(e, f) <= TOL_COMM:
        return
    require(max_commutator(e, f), TOL_COMM, "blocks do not commute: max commutator norm")


def commuting_product(e: StochasticOperatorMatrix,
                      f: StochasticOperatorMatrix) -> StochasticOperatorMatrix:
    """Blockwise product of a commuting pair on a common H."""
    _require_commuting(e, f)
    te, tf = e.tensor6(), f.tensor6()
    g = np.einsum("xahXAm,ybmYBk->xyabhXYABk", te, tf, optimize=True)
    size = e.dim_x * f.dim_x * e.dim_a * f.dim_a * e.dim_h
    return StochasticOperatorMatrix(e.dim_x * f.dim_x, e.dim_a * f.dim_a,
                                    e.dim_h, g.reshape(size, size))


def compose(f: StochasticOperatorMatrix, e: StochasticOperatorMatrix) -> StochasticOperatorMatrix:
    """Composition G[x,x',z,z'] = sum_{a,a'} F[a,a',z,z'] (x) E[x,x',a,a'].

    F is over (A, Z, K), E over (X, A, H); the result is over (X, Z, K (x) H).
    """
    if f.dim_x != e.dim_a:
        raise ValueError(f"inner dimension mismatch: F input {f.dim_x} vs E output {e.dim_a}")
    tf, te = f.tensor6(), e.tensor6()
    g = np.einsum("azkAZK,xahXAH->xzkhXZKH", tf, te, optimize=True)
    dh = f.dim_h * e.dim_h
    size = e.dim_x * f.dim_a * dh
    return StochasticOperatorMatrix(e.dim_x, f.dim_a, dh, g.reshape(size, size))


def with_ancilla_right(e: StochasticOperatorMatrix, dim: int) -> StochasticOperatorMatrix:
    """Extend the workspace on the right: blocks become E[x,x',a,a'] (x) I."""
    return StochasticOperatorMatrix(e.dim_x, e.dim_a, e.dim_h * dim,
                                    np.kron(e.mat, np.eye(dim)))


def with_ancilla_left(e: StochasticOperatorMatrix, dim: int) -> StochasticOperatorMatrix:
    """Extend the workspace on the left: blocks become I (x) E[x,x',a,a']."""
    g = np.einsum("xahXAH,kK->xakhXAKH", e.tensor6(), np.eye(dim))
    dh = dim * e.dim_h
    return StochasticOperatorMatrix(e.dim_x, e.dim_a, dh,
                                    g.reshape((e.dim_x * e.dim_a * dh,) * 2))


def semiclassical_defect(e: StochasticOperatorMatrix) -> float:
    """Largest entry of an off-diagonal input block."""
    return worst(e.mat - to_semiclassical(e).mat)


def classical_defect(e: StochasticOperatorMatrix) -> float:
    """Largest entry outside the (x, x, a, a) diagonal blocks."""
    return worst(e.mat - to_classical(e).mat)


def to_semiclassical(e: StochasticOperatorMatrix) -> StochasticOperatorMatrix:
    """Pinch away the off-diagonal input blocks (idempotent)."""
    return StochasticOperatorMatrix(*e.dims, pinch(e.mat, e.dims, 0))


def to_classical(e: StochasticOperatorMatrix) -> StochasticOperatorMatrix:
    """Pinch inputs and outputs; the result is a classical stochastic matrix."""
    return StochasticOperatorMatrix(*e.dims, pinch(e.mat, e.dims, (0, 1)))


def from_povms(povms: Sequence[Sequence[np.ndarray]]) -> StochasticOperatorMatrix:
    """Classical stochastic operator matrix from one POVM per input symbol."""
    dx = len(povms)
    if dx == 0:
        raise ValueError("need at least one POVM")
    da = len(povms[0])
    if any(len(family) != da for family in povms):
        raise ValueError("all POVMs must have the same number of outcomes")
    ops = np.asarray(povms, dtype=complex)  # [x, a, h, h']
    if ops.ndim != 4 or ops.shape[2] != ops.shape[3]:
        raise ValueError(f"POVM elements must be square matrices of one size, got {ops.shape}")
    dh = ops.shape[2]
    # an overflowed sum or m - m* reads inf, and inf - inf reads NaN: both fail the gates
    with np.errstate(over="ignore", invalid="ignore"):
        total = ops.sum(axis=1) - np.eye(dh)
        bad = ~(np.max(np.abs(ops - dagger(ops)), axis=(2, 3), initial=0.0) <= TOL_ALG)
    require(worst(total), TOL_ALG, "POVM does not sum to the identity within tolerance")
    bx, ba = np.unravel_index(np.argmax(bad), bad.shape)  # the first non-Hermitian element
    require(hermiticity_defect(ops), TOL_ALG, f"POVM element ({bx},{ba}) is not Hermitian")
    t = np.zeros((dx, da, dh, dx, da, dh), dtype=complex)
    x, a = np.indices((dx, da))
    t[x, a, :, x, a, :] = (ops + dagger(ops)) / 2
    return StochasticOperatorMatrix(dx, da, dh, t.reshape((dx * da * dh,) * 2))


def from_choi(choi: np.ndarray, dim_x: int, dim_a: int) -> StochasticOperatorMatrix:
    """Wrap a channel's Choi matrix as a stochastic operator matrix with trivial H."""
    return StochasticOperatorMatrix(dim_x, dim_a, 1, asmatrix(choi))
