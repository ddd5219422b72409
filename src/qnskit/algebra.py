"""Finite-dimensional tracial C*-algebras and algebra-valued stochastic matrices.

An algebra is a direct sum of full matrix blocks with a weighted normalised
trace.  A stochastic algebra matrix over (X, A) stores one stochastic
operator matrix per block; its entries g[x, x', a, a'] are the block tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import TOL_ALG, Report, require
from .stochastic import (StochasticOperatorMatrix, classical_defect,
                         compose as compose_som, semiclassical_defect, verify)


@dataclass(frozen=True)
class TracialAlgebra:
    """Direct sum of matrix blocks with trace tau(+u_i) = sum_i w_i Tr(u_i)/d_i."""

    block_dims: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        dims = tuple(int(d) for d in self.block_dims)
        weights = tuple(float(w) for w in self.weights)
        if len(dims) != len(weights) or not dims:
            raise ValueError("need matching, non-empty block dims and weights")
        if any(d < 1 for d in dims):
            raise ValueError("block dimensions must be >= 1")
        if not all(w > 0 for w in weights):  # NaN fails
            raise ValueError("weights must be positive")
        require(abs(sum(weights) - 1.0), TOL_ALG, f"weights must sum to 1, got {sum(weights)}")
        object.__setattr__(self, "block_dims", dims)
        object.__setattr__(self, "weights", weights)

    @property
    def n_blocks(self) -> int:
        return len(self.block_dims)

    def trace(self, element) -> complex:
        """Evaluate the tracial state on a block tuple."""
        if len(element) != self.n_blocks:
            raise ValueError("element has wrong number of blocks")
        return sum(w * np.trace(np.asarray(u)) / d for w, d, u in
                   zip(self.weights, self.block_dims, element))

    def tensor(self, other: "TracialAlgebra") -> "TracialAlgebra":
        """Tensor-product algebra, blocks ordered (i over self, j over other)."""
        dims = tuple(di * dj for di in self.block_dims for dj in other.block_dims)
        weights = tuple(wi * wj for wi in self.weights for wj in other.weights)
        return TracialAlgebra(dims, weights)


def scalar_algebra() -> TracialAlgebra:
    return TracialAlgebra((1,), (1.0,))


def matrix_algebra(dim: int) -> TracialAlgebra:
    """Full matrix block with normalised trace Tr/dim."""
    return TracialAlgebra((dim,), (1.0,))


def abelian_algebra(weights) -> TracialAlgebra:
    return TracialAlgebra((1,) * len(tuple(weights)), tuple(weights))


@dataclass(frozen=True)
class AlgStochasticMatrix:
    """Stochastic algebra matrix over (X, A): one stochastic operator matrix per algebra block.

    Construction checks only the shapes; the tracial contractions verify the blocks.
    """

    alg: TracialAlgebra
    blocks: tuple[StochasticOperatorMatrix, ...]

    def __post_init__(self):
        blocks = tuple(self.blocks)
        if len(blocks) != self.alg.n_blocks:
            raise ValueError("one stochastic block per algebra block required")
        dx = {b.dim_x for b in blocks}
        da = {b.dim_a for b in blocks}
        if len(dx) != 1 or len(da) != 1:
            raise ValueError("all blocks must share the same (X, A) dimensions")
        for b, d in zip(blocks, self.alg.block_dims):
            if b.dim_h != d:
                raise ValueError(f"block acts on dim {b.dim_h}, algebra block has dim {d}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def dim_x(self) -> int:
        return self.blocks[0].dim_x

    @property
    def dim_a(self) -> int:
        return self.blocks[0].dim_a

    def verification_report(self, tol: float = TOL_ALG) -> Report:
        """The checks of :func:`stochastic.verify`, each maximised over the blocks."""
        reports = [verify(b, tol) for b in self.blocks]
        return Report({name: float(np.max([r.checks[name] for r in reports]))
                       for name in reports[0].checks}, tol)

    def semiclassical_defect(self) -> float:
        return float(np.max([semiclassical_defect(b) for b in self.blocks]))

    def classical_defect(self) -> float:
        return float(np.max([classical_defect(b) for b in self.blocks]))

    def is_semiclassical(self, tol: float = TOL_ALG) -> bool:
        return self.semiclassical_defect() <= tol

    def is_classical(self, tol: float = TOL_ALG) -> bool:
        return self.classical_defect() <= tol


def check_alg_stochastic(e: AlgStochasticMatrix):
    e.verification_report().require("stochastic algebra matrix fails verification")


def _tau(e: AlgStochasticMatrix, spec: str) -> np.ndarray:
    """Verify ``e``, then sum (w_i / d_i) einsum(spec, E_i, E_i) over its blocks.

    ``spec`` contracts two ``tensor6`` views of a block, the trace over H
    included, so each term is the normalised block trace of a product of
    entries; a subscript repeated within an operand takes its diagonal.
    """
    check_alg_stochastic(e)
    return sum((w / d) * np.einsum(spec, b.tensor6(), b.tensor6(), optimize=True)
               for w, d, b in zip(e.alg.weights, e.alg.block_dims, e.blocks))


def tracial_choi(e: AlgStochasticMatrix) -> np.ndarray:
    """Choi matrix with entries tau(g[x,x',a,a'] g[y',y,b',b]).

    Rows are indexed (x, y, a, b), columns (x', y', a', b'); the result is
    the Choi matrix of a quantum no-signalling correlation on (X, X, A, A).
    """
    n = (e.dim_x * e.dim_a) ** 2
    return _tau(e, "xahXAk,YBkybh->xyabXYAB").reshape(n, n)


def tracial_states(e: AlgStochasticMatrix) -> np.ndarray:
    """State family sigma[x, y] with entries tau(g[x,a,a'] g[y,b',b]).

    Reads only the input-diagonal entries, so a semi-classical matrix gives
    the states of its correlation; returns shape (dx, dx, da*da, da*da)
    with sigma[x, y] indexed by rows (a, b) and columns (a', b').
    """
    dx, da = e.dim_x, e.dim_a
    return _tau(e, "xahxAk,yBkybh->xyabAB").reshape(dx, dx, da * da, da * da)


def tracial_table(e: AlgStochasticMatrix) -> np.ndarray:
    """Probability table p(a, b | x, y) = tau(g[x,a] g[y,b]) of a classical matrix."""
    return np.real(_tau(e, "xahxak,ybkybh->xyab"))


def compose_alg(f: AlgStochasticMatrix, e: AlgStochasticMatrix) -> AlgStochasticMatrix:
    """Blockwise composition over the tensor-product algebra.

    f is over (A, Z), e over (X, A); block (i, j) of the result is the
    stochastic composition of f's block i with e's block j.
    """
    if f.dim_x != e.dim_a:
        raise ValueError("inner dimensions do not match")
    alg = f.alg.tensor(e.alg)
    blocks = tuple(compose_som(bf, be) for bf in f.blocks for be in e.blocks)
    return AlgStochasticMatrix(alg, blocks)


def abelian_from_chois(chois, weights, dim_x: int, dim_a: int) -> AlgStochasticMatrix:
    """Abelian witness: block j holds the Choi matrix of the j-th channel."""
    weights = tuple(float(w) for w in weights)
    alg = abelian_algebra(weights)
    blocks = tuple(StochasticOperatorMatrix(dim_x, dim_a, 1, np.asarray(c, dtype=complex))
                   for c in chois)
    return AlgStochasticMatrix(alg, blocks)
