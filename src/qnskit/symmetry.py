"""Fairness and tracial structure for correlations with X = Y and A = B.

A bipartite state rho on X (x) X is fair when
``sum_x rho[x, x, z, z'] = sum_y rho[z', z, y, y]`` for all z, z' (indices
refer to the expansion rho = sum rho[x, x', y, y'] e_x e_x'* (x) e_y e_y'*).
A correlation is fair when it maps fair states to fair states; the check is
exact, through a basis of the solution space of the linear constraint.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .algebra import AlgStochasticMatrix, abelian_from_chois, compose_alg, tracial_choi
from .correlations import (CqnsCorrelation, NsCorrelation, QnsCorrelation,
                           TracialWitness, build_tracial)
from .linalg import (TOL_ALG, TOL_INPUT, asmatrix, check_channel, check_state,
                     check_weights, nullspace, readonly, require, worst)


# ---------------------------------------------------------------------------
# Fair states


def fair_state_residual(rho: np.ndarray, dim_x: int) -> float:
    """Residual of the fair-state constraint for a matrix on X (x) X, or the
    worst over a stack ``(..., n, n)`` of them."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (dim_x * dim_x,) * 2:
        raise ValueError(f"shape {rho.shape} does not match dim {dim_x}")
    # rho[x, x', y, y'] = r[..., x, y, x', y'] with rows (x, y)
    r = rho.reshape(*rho.shape[:-2], dim_x, dim_x, dim_x, dim_x)
    lhs = np.einsum("...xzxw->...zw", r)     # sum_x rho[x, x, z, z']
    rhs = np.einsum("...wyzy->...zw", r)     # sum_y rho[z', z, y, y]
    return worst(lhs - rhs)


def _fair_constraint_matrix(dim: int) -> np.ndarray:
    """Linear map M_{XX} -> M_X whose kernel spans the fair states.

    Row (z, z') is the functional rho -> sum_x rho[x, x, z, z'] - sum_y rho[z', z, y, y]
    on the entries r[x, y, x', y'] of rho.
    """
    i = np.eye(dim)
    m = np.einsum("xX,yz,Yw->zwxyXY", i, i, i) - np.einsum("xw,Xz,yY->zwxyXY", i, i, i)
    return m.reshape(dim * dim, dim ** 4)


@lru_cache(maxsize=None)
def fair_subspace(dim: int) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of the fair constraint; cached, so read-only."""
    return readonly(nullspace(_fair_constraint_matrix(dim)))


def _classical_fair_constraint(dim: int) -> np.ndarray:
    """Row z is the functional q -> sum_x q[x, z] - sum_y q[z, y]."""
    i = np.eye(dim)
    return (i[:, None, :] - i[:, :, None]).reshape(dim, dim * dim)


@lru_cache(maxsize=None)
def classical_fair_subspace(dim: int) -> np.ndarray:
    return readonly(nullspace(_classical_fair_constraint(dim)))


def classical_fair_residual(q: np.ndarray) -> float:
    """Residual of row sums against column sums for a table on X x X, or the
    worst over a stack ``(..., n, n)`` of them."""
    q = np.asarray(q)
    return worst(q.sum(axis=-2) - q.sum(axis=-1))


def fair_residual(corr: QnsCorrelation | CqnsCorrelation | NsCorrelation) -> float:
    """Largest fairness violation over a spanning set of fair inputs."""
    d = corr.dims
    if d.x != d.y or d.a != d.b:
        raise ValueError("fairness requires X = Y and A = B")
    if isinstance(corr, QnsCorrelation):
        rhos = fair_subspace(d.x).T.reshape(-1, d.in_size, d.in_size)
        return fair_state_residual(corr.apply(rhos), d.a)
    qs = classical_fair_subspace(d.x).T  # one fair table q[x, y] per row
    if isinstance(corr, CqnsCorrelation):
        images = qs @ corr.states.reshape(d.in_size, -1)
        return fair_state_residual(images.reshape(-1, d.out_size, d.out_size), d.a)
    images = np.real(qs @ corr.table.reshape(d.in_size, -1))
    return classical_fair_residual(images.reshape(-1, d.a, d.b))


# ---------------------------------------------------------------------------
# The sharp involution


def channel_sharp(choi: np.ndarray) -> np.ndarray:
    """Choi matrix of omega -> Phi(omega^t)^t; equals the transposed Choi."""
    return asmatrix(choi).T.copy()


# ---------------------------------------------------------------------------
# Tracial constructors


def build_locally_tracial(chois, weights, dims: tuple[int, int]) -> QnsCorrelation:
    """Convex combination sum_j w_j Phi_j (x) Phi_j^sharp as a tracial witness."""
    dim_x, dim_a = dims
    chois = check_channel(chois, (dim_x, dim_a))
    e = abelian_from_chois(chois, weights, dim_x, dim_a)
    return build_tracial(e)


def build_tracial_cqns(e: AlgStochasticMatrix) -> CqnsCorrelation:
    """Classical-to-quantum tracial correlation from a semi-classical matrix."""
    require(e.semiclassical_defect(), TOL_ALG, "matrix must be semi-classical")
    w = TracialWitness(e)
    return CqnsCorrelation(w.dims, w.states, w)


def build_tracial_ns(e: AlgStochasticMatrix) -> NsCorrelation:
    """Classical tracial correlation p(a, b | x, y) = tau(g[x, a] g[y, b])."""
    require(e.classical_defect(), TOL_ALG, "matrix must be classical")
    w = TracialWitness(e)
    return NsCorrelation(w.dims, w.table, w)


# ---------------------------------------------------------------------------
# Reciprocal states


def reciprocal_state(e: AlgStochasticMatrix) -> np.ndarray:
    """State on Z (x) Z with entries tau(g[z, z'] g[u', u]).

    ``e`` must be a positive algebra matrix over a single trivial input,
    i.e. an AlgStochasticMatrix with dim_x = 1 and dim_a = |Z|.
    """
    if e.dim_x != 1:
        raise ValueError("reciprocal states come from matrices over a trivial input")
    return tracial_choi(e)


def reciprocal_from_state(omega: np.ndarray) -> AlgStochasticMatrix:
    """Scalar-algebra witness whose reciprocal state is omega (x) omega^t."""
    omega = check_state(asmatrix(omega))
    return abelian_from_chois([omega], [1.0], 1, omega.shape[0])  # the scalar algebra


def reciprocal_residual(weights, states, target: np.ndarray) -> float:
    """Largest entry of sum_j w_j omega_j (x) omega_j^t - ``target``: zero when the
    claimed decomposition of ``target`` holds."""
    target = asmatrix(target)
    weights = check_weights(weights)
    states = check_state(states, TOL_INPUT)
    if states.ndim != 3 or len(states) != len(weights):
        raise ValueError("need one weight per state")
    n = states.shape[-1]
    if target.shape != (n * n, n * n):
        raise ValueError(f"target of shape {target.shape} does not match states of shape "
                         f"{states.shape[-2:]}: it must be {(n * n, n * n)}")
    total = np.einsum("j,jik,jlm->imkl", weights, states, states).reshape(n * n, n * n)
    return worst(total - target)


def image_reciprocal_witness(corr_witness: AlgStochasticMatrix,
                             rec_witness: AlgStochasticMatrix) -> AlgStochasticMatrix:
    """Witness for the image of a reciprocal state under a tracial correlation.

    Realises h[a, a'] = sum_{x, x'} g[x, x'] (x) g_corr[x, x', a, a'] over the
    tensor-product algebra; the reciprocal state of the result equals the
    image of the input reciprocal state under the tracial correlation.
    """
    if rec_witness.dim_x != 1:
        raise ValueError("second argument must be a reciprocal witness")
    if rec_witness.dim_a != corr_witness.dim_x:
        raise ValueError("dimension mismatch between correlation and reciprocal state")
    return compose_alg(corr_witness, rec_witness)
