"""Seeded random instances: states, channels, projective measurements and witnesses."""

from __future__ import annotations

import numpy as np

from .algebra import AlgStochasticMatrix, TracialAlgebra
from .linalg import dagger, herm_sqrt, partial_trace
from .stochastic import StochasticOperatorMatrix, to_classical, to_semiclassical


def rng_for(seed) -> np.random.Generator:
    return np.random.default_rng(seed)


def complex_gaussian(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_state(rng, dim: int, rank: int | None = None) -> np.ndarray:
    """Full-rank (by default) density matrix."""
    g = complex_gaussian(rng, dim, rank or dim)
    rho = g @ dagger(g)
    return rho / np.trace(rho)


def random_unitary(rng, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(complex_gaussian(rng, dim, dim))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_channel_choi(rng, dim_in: int, dim_out: int, kraus: int = 0) -> np.ndarray:
    """Choi matrix (rows (in, out)) of a random channel."""
    k = kraus or dim_in * dim_out
    g = complex_gaussian(rng, k, dim_out, dim_in)
    choi = np.einsum("kai,kbj->iajb", g, g.conj()).reshape(dim_in * dim_out,
                                                           dim_in * dim_out)
    marg = partial_trace(choi, (dim_in, dim_out), 1)
    fix = np.linalg.inv(herm_sqrt(marg))
    fix = np.kron(fix, np.eye(dim_out))
    return fix @ choi @ dagger(fix)


def random_pvm(rng, dim: int, outcomes: int) -> list[np.ndarray]:
    """Projection-valued measure from a random unitary's column groups."""
    if outcomes > dim:
        raise ValueError("cannot have more projections than dimensions")
    u = random_unitary(rng, dim)
    groups = np.array_split(np.arange(dim), outcomes)
    out = []
    for grp in groups:
        cols = u[:, grp]
        out.append(cols @ dagger(cols))
    return out


def random_stochastic(rng, dim_x: int, dim_a: int, dim_h: int) -> StochasticOperatorMatrix:
    """Random stochastic operator matrix via the isometry picture.

    Draws a Haar-ish isometry from H^X into K^A with K = H^X and reads the
    blocks E[x, x', a, a'] = V[a, x]* V[a', x'] off its block entries.
    """
    size = dim_x * dim_h
    iso, _ = np.linalg.qr(complex_gaussian(rng, dim_a * size, size))
    v = iso.reshape(dim_a, size, dim_x, dim_h)
    t = np.einsum("akxh,bkyj->xahybj", v.conj(), v, optimize=True)
    n = dim_x * dim_a * dim_h
    return StochasticOperatorMatrix(dim_x, dim_a, dim_h, t.reshape(n, n))


def random_semiclassical(rng, dim_x: int, dim_a: int, dim_h: int) -> StochasticOperatorMatrix:
    return to_semiclassical(random_stochastic(rng, dim_x, dim_a, dim_h))


def random_classical(rng, dim_x: int, dim_a: int, dim_h: int) -> StochasticOperatorMatrix:
    return to_classical(random_stochastic(rng, dim_x, dim_a, dim_h))


def random_algebra(rng, max_blocks: int = 2, max_dim: int = 2) -> TracialAlgebra:
    k = int(rng.integers(1, max_blocks + 1))
    dims = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(k))
    raw = rng.random(k) + 0.2
    weights = tuple(float(w) for w in raw / raw.sum())
    return TracialAlgebra(dims, weights)


def random_tracial_witness(rng, dim_x: int, dim_a: int,
                           alg: TracialAlgebra | None = None,
                           kind: str = "full") -> AlgStochasticMatrix:
    """Random stochastic algebra matrix; kind in full/semiclassical/classical."""
    alg = alg or random_algebra(rng)
    maker = {"full": random_stochastic, "semiclassical": random_semiclassical,
             "classical": random_classical}[kind]
    blocks = tuple(maker(rng, dim_x, dim_a, d) for d in alg.block_dims)
    return AlgStochasticMatrix(alg, blocks)


def random_ns_table(rng, dim_x: int, dim_y: int, dim_a: int, dim_b: int) -> np.ndarray:
    """No-signalling behaviour from a random local (shared-randomness) model."""
    terms = int(rng.integers(1, 4))
    weights = rng.random(terms) + 0.1
    weights /= weights.sum()
    table = np.zeros((dim_x, dim_y, dim_a, dim_b))
    for w in weights:
        pa = rng.random((dim_x, dim_a)) + 0.05
        pa /= pa.sum(axis=1, keepdims=True)
        pb = rng.random((dim_y, dim_b)) + 0.05
        pb /= pb.sum(axis=1, keepdims=True)
        table += w * np.einsum("xa,yb->xyab", pa, pb)
    return table
