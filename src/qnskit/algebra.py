"""Finite-dimensional tracial C*-algebras and algebra-valued stochastic matrices.

An algebra is a direct sum of full matrix blocks with a weighted normalised
trace.  A stochastic algebra matrix over (X, A) stores one stochastic
operator matrix per block; its entries g[x, x', a, a'] are the block tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import TOL_ALG, Report, dimensions, reading, require, worst
from .stochastic import (StochasticOperatorMatrix, classical_defect,
                         compose as compose_som, semiclassical_defect)


@dataclass(frozen=True)
class TracialAlgebra:
    """Direct sum of matrix blocks with trace tau(+u_i) = sum_i w_i Tr(u_i)/d_i."""

    block_dims: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        dims = dimensions(self.block_dims, "block dimensions")
        weights = tuple(float(w) for w in self.weights)
        if len(dims) != len(weights) or not dims:
            raise ValueError("need matching, non-empty block dims and weights")
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
        return Report({name: worst(*(b.residuals[name] for b in self.blocks))
                       for name in self.blocks[0].residuals}, tol)

    def semiclassical_defect(self) -> float:
        return worst(*map(semiclassical_defect, self.blocks))

    def classical_defect(self) -> float:
        return worst(*map(classical_defect, self.blocks))


def check_alg_stochastic(e: AlgStochasticMatrix):
    e.verification_report().require("stochastic algebra matrix fails verification")


def _tau(e: AlgStochasticMatrix, name: str) -> np.ndarray:
    """Verify ``e``, then sum over its blocks E_i (w_i / d_i) times the reading ``name``
    (``linalg.READINGS``) of two ``tensor6`` views of E_i contracted with the trace over
    H, so each term is the normalised block trace of a product of entries."""
    check_alg_stochastic(e)
    return sum((w / d) * reading(name, "xahXAk,YBkybh", b.tensor6(), b.tensor6())
               for w, d, b in zip(e.alg.weights, e.alg.block_dims, e.blocks))


def tracial_choi(e: AlgStochasticMatrix) -> np.ndarray:
    """Choi matrix with entries tau(g[x,x',a,a'] g[y',y,b',b]) of a quantum no-signalling
    correlation on (X, X, A, A)."""
    return _tau(e, "choi")


def tracial_states(e: AlgStochasticMatrix) -> np.ndarray:
    """State family sigma[x, y] with entries tau(g[x,a,a'] g[y,b',b]), read off the
    input-diagonal entries, so a semi-classical matrix gives its correlation's states."""
    return _tau(e, "states")


def tracial_table(e: AlgStochasticMatrix) -> np.ndarray:
    """Probability table p(a, b | x, y) = tau(g[x,a] g[y,b]) of a classical matrix."""
    return _tau(e, "table")


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
