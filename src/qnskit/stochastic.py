"""Stochastic operator matrices: quantised families of POVMs.

A stochastic operator matrix over (X, A) acting on H is a positive block
matrix E on X (x) A (x) H whose partial trace over A is the identity on
X (x) H.  Blocks are written E[x, x', a, a'] and live on H.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .linalg import (TOL_ALG, TOL_COMM, EIG_CLAMP, Report, asmatrix, check_state,
                     dagger, hermiticity_defect, partial_trace, pinch, psd_defect,
                     require)


@dataclass(frozen=True)
class StochasticOperatorMatrix:
    """Positive block matrix on X (x) A (x) H with Tr_A-marginal the identity."""

    dim_x: int
    dim_a: int
    dim_h: int
    mat: np.ndarray

    def __post_init__(self):
        mat = asmatrix(self.mat)
        size = self.dim_x * self.dim_a * self.dim_h
        if mat.shape != (size, size):
            raise ValueError(f"matrix shape {mat.shape} does not match dims "
                             f"({self.dim_x},{self.dim_a},{self.dim_h})")
        object.__setattr__(self, "mat", mat)

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


def verify(e: StochasticOperatorMatrix, tol: float = TOL_ALG) -> Report:
    """Check positivity, the Tr_A marginal, and the per-x diagonal POVMs."""
    dx, dh = e.dim_x, e.dim_h
    marg = partial_trace(e.mat, e.dims, 1)
    marg_res = float(np.max(np.abs(marg - np.eye(dx * dh))))
    # Derived consequence: (E[x, x, a, a])_a is a POVM for every x.
    diag = np.einsum("xahxak->xahk", e.tensor6())
    return Report({"hermiticity": hermiticity_defect(e.mat), "psd_defect": psd_defect(e.mat),
                   "marginal_residual": marg_res, "povm_defect": psd_defect(diag)}, tol)


def _require_verified(e: StochasticOperatorMatrix):
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
        return float(np.max(np.abs(gram - np.eye(dx * dh))))

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


def tensor_choi(e: StochasticOperatorMatrix, f: StochasticOperatorMatrix,
                sigma: np.ndarray) -> np.ndarray:
    """``channel_choi(tensor(e, f), sigma)`` without forming E (x) F; rows (x, y, a, b)."""
    _require_verified(e)
    _require_verified(f)
    he, hf = e.dim_h, f.dim_h
    s4 = _check_sigma(sigma, he * hf).reshape(he, hf, he, hf)
    choi = np.einsum("xahXAH,ybkYBK,HKhk->xyabXYAB", e.tensor6(), f.tensor6(), s4,
                     optimize=True)
    n = e.dim_x * f.dim_x * e.dim_a * f.dim_a
    return choi.reshape(n, n)


def commuting_choi(e: StochasticOperatorMatrix, f: StochasticOperatorMatrix,
                   sigma: np.ndarray) -> np.ndarray:
    """``channel_choi(commuting_product(e, f), sigma)`` without forming the product."""
    _require_commuting(e, f)
    sigma = _check_sigma(sigma, e.dim_h)
    choi = np.einsum("xahXAm,ybmYBk,kh->xyabXYAB", e.tensor6(), f.tensor6(), sigma,
                     optimize=True)
    n = e.dim_x * f.dim_x * e.dim_a * f.dim_a
    return choi.reshape(n, n)


def tensor(e: StochasticOperatorMatrix, f: StochasticOperatorMatrix) -> StochasticOperatorMatrix:
    """Tensor product with factors reshuffled to X, Y, A, B, H1, H2 order."""
    _require_verified(e)
    _require_verified(f)
    g = np.einsum("xahXAH,ybkYBK->xyabhkXYABHK", e.tensor6(), f.tensor6())
    dx, da, dh = e.dim_x * f.dim_x, e.dim_a * f.dim_a, e.dim_h * f.dim_h
    return StochasticOperatorMatrix(dx, da, dh, g.reshape((dx * da * dh,) * 2))


def max_commutator(e: StochasticOperatorMatrix, f: StochasticOperatorMatrix) -> float:
    """Largest operator norm of a commutator between blocks of E and F."""
    if e.dim_h != f.dim_h:
        raise ValueError("operands act on different spaces")
    eb = e.blocks().reshape(-1, e.dim_h, e.dim_h)
    fb = f.blocks().reshape(-1, f.dim_h, f.dim_h)
    comm = np.einsum("imn,jnk->ijmk", eb, fb, optimize=True) \
        - np.einsum("jmn,ink->ijmk", fb, eb, optimize=True)
    return float(np.max(np.linalg.norm(comm, ord=2, axis=(2, 3)))) if comm.size else 0.0


def _require_commuting(e: StochasticOperatorMatrix, f: StochasticOperatorMatrix):
    _require_verified(e)
    _require_verified(f)
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
    return float(np.max(np.abs(e.mat - to_semiclassical(e).mat), initial=0.0))


def classical_defect(e: StochasticOperatorMatrix) -> float:
    """Largest entry outside the (x, x, a, a) diagonal blocks."""
    return float(np.max(np.abs(e.mat - to_classical(e).mat), initial=0.0))


def is_semiclassical(e: StochasticOperatorMatrix, tol: float = TOL_ALG) -> bool:
    return semiclassical_defect(e) <= tol


def is_classical(e: StochasticOperatorMatrix, tol: float = TOL_ALG) -> bool:
    return classical_defect(e) <= tol


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
    require(float(np.max(np.abs(ops.sum(axis=1) - np.eye(dh)), initial=0.0)), TOL_ALG,
            "POVM does not sum to the identity within tolerance")
    bad = ~(np.max(np.abs(ops - dagger(ops)), axis=(2, 3), initial=0.0) <= TOL_ALG)
    bx, ba = np.unravel_index(np.argmax(bad), bad.shape)  # the first non-Hermitian element
    require(hermiticity_defect(ops), TOL_ALG, f"POVM element ({bx},{ba}) is not Hermitian")
    t = np.zeros((dx, da, dh, dx, da, dh), dtype=complex)
    x, a = np.indices((dx, da))
    t[x, a, :, x, a, :] = (ops + dagger(ops)) / 2
    return StochasticOperatorMatrix(dx, da, dh, t.reshape((dx * da * dh,) * 2))


def from_choi(choi: np.ndarray, dim_x: int, dim_a: int) -> StochasticOperatorMatrix:
    """Wrap a channel's Choi matrix as a stochastic operator matrix with trivial H."""
    return StochasticOperatorMatrix(dim_x, dim_a, 1, asmatrix(choi))
