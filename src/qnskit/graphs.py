"""Classical graphs, their non-commutative counterparts, and quantum colourings.

Symmetric skew subspaces of C^n (x) C^n play the role of graphs: they are
flip invariant and orthogonal to the maximally entangled vector.  Dual
spaces are identified with conjugate coordinates throughout, so operator
realizations send xi (x) eta to eta xi^T.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .algebra import AlgStochasticMatrix, matrix_algebra, scalar_algebra
from .correlations import CqnsCorrelation
from .linalg import (TOL_ALG, TOL_INPUT, check_channel, dagger,
                     max_entangled_vector, orthonormal_columns, permute_systems,
                     require)
from .stochastic import StochasticOperatorMatrix
from .symmetry import build_tracial_cqns, channel_sharp
from .theta import GAP_TOL, solve_theta


@dataclass(frozen=True)
class Graph:
    """Simple graph on vertices 0..n-1; edges stored as sorted pairs."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        cleaned = set()
        for e in self.edges:
            i, j = int(e[0]), int(e[1])
            if i == j:
                raise ValueError(f"loop at vertex {i} not allowed")
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge {e} out of range")
            cleaned.add((min(i, j), max(i, j)))
        object.__setattr__(self, "edges", frozenset(cleaned))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        return cls(n, frozenset(tuple(e) for e in edges))

    @classmethod
    def complete(cls, n: int) -> "Graph":
        return cls.from_edges(n, itertools.combinations(range(n), 2))

    @classmethod
    def empty(cls, n: int) -> "Graph":
        return cls.from_edges(n, [])

    @classmethod
    def cycle(cls, n: int) -> "Graph":
        if n < 3:
            raise ValueError("cycles need at least 3 vertices")
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    def has_edge(self, i: int, j: int) -> bool:
        return (min(i, j), max(i, j)) in self.edges

    def ordered_edges(self) -> list[tuple[int, int]]:
        """All edges as ordered pairs, both directions, sorted."""
        out = []
        for i, j in self.edges:
            out.extend([(i, j), (j, i)])
        return sorted(out)

    def adjacency(self) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        i, j = _edge_index(list(self.edges))
        a[i, j] = a[j, i] = 1.0
        return a


def _edge_index(edges) -> tuple[np.ndarray, np.ndarray]:
    """A list of vertex pairs as two index arrays (empty arrays for no pairs)."""
    return tuple(np.array(edges, dtype=int).reshape(-1, 2).T)


def independence_number(graph: Graph) -> int:
    """Brute-force maximum independent set (exponential; keep n small)."""
    adj = [0] * graph.n
    for i, j in graph.edges:
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    best = 0
    for mask in range(1 << graph.n):
        size = mask.bit_count()
        if size <= best:
            continue
        ok = True
        m = mask
        while m:
            v = (m & -m).bit_length() - 1
            if adj[v] & mask:
                ok = False
                break
            m &= m - 1
        if ok:
            best = size
    return best


@dataclass(frozen=True)
class SkewSymmetricSubspace:
    """Flip-invariant subspace of C^n (x) C^n orthogonal to sum_z e_z (x) e_z."""

    n: int
    basis: np.ndarray  # orthonormal columns, shape (n*n, k)

    def __post_init__(self):
        basis = np.asarray(self.basis, dtype=complex)
        if basis.ndim != 2 or basis.shape[0] != self.n * self.n:
            raise ValueError(f"basis shape {basis.shape} does not match n={self.n}")
        gram = dagger(basis) @ basis
        require(float(np.max(np.abs(gram - np.eye(basis.shape[1])), initial=0.0)), TOL_ALG,
                "basis columns must be orthonormal")
        object.__setattr__(self, "basis", basis)
        require(self.skew_defect(), TOL_ALG, "subspace is not skew")
        require(self.symmetry_defect(), TOL_ALG, "subspace is not flip invariant")

    @classmethod
    def from_vectors(cls, n: int, vectors) -> "SkewSymmetricSubspace":
        """Orthonormalise a spanning family (rows or columns accepted)."""
        arr = np.asarray(list(vectors), dtype=complex)
        if arr.size == 0:
            return cls(n, np.zeros((n * n, 0), dtype=complex))
        if arr.ndim != 2:
            raise ValueError("expected a family of vectors")
        if arr.shape[0] != n * n:
            arr = arr.T
        return cls(n, orthonormal_columns(arr))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ dagger(self.basis)

    def skew_defect(self) -> float:
        if self.dim == 0:
            return 0.0
        rep = max_entangled_vector(self.n)
        return float(np.max(np.abs(dagger(self.basis) @ rep)))

    def symmetry_defect(self) -> float:
        if self.dim == 0:
            return 0.0
        p = self.projector()
        return float(np.max(np.abs(permute_systems(p, (self.n, self.n), (1, 0)) - p)))


def graph_subspace(graph: Graph) -> SkewSymmetricSubspace:
    """span{e_x (x) e_y : x ~ y}, the non-commutative copy of a graph."""
    n = graph.n
    x, y = _edge_index(graph.ordered_edges())
    vecs = np.zeros((n * n, len(x)), dtype=complex)
    vecs[x * n + y, np.arange(len(x))] = 1.0
    return SkewSymmetricSubspace(n, vecs)


def realize_vector(zeta: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """Operator realization sending xi (x) eta to eta xi^T (an m x n matrix)."""
    n, m = int(dims[0]), int(dims[1])
    zeta = np.asarray(zeta, dtype=complex).reshape(n, m)
    return zeta.T.copy()


def realization_basis(space: SkewSymmetricSubspace) -> list[np.ndarray]:
    return [realize_vector(space.basis[:, k], (space.n, space.n))
            for k in range(space.dim)]


def trace_functional(zeta: np.ndarray, n: int) -> complex:
    """Pairing of zeta with the maximally entangled vector: sum_z zeta[(z, z)]."""
    return complex(np.trace(np.asarray(zeta, dtype=complex).reshape(n, n)))


# ---------------------------------------------------------------------------
# Homomorphism checks


def _kraus_stack(kraus) -> np.ndarray:
    """A Kraus family as one array (k, d_out, d_in)."""
    stack = np.asarray(kraus, dtype=complex)
    if stack.ndim != 3 or len(stack) == 0:
        raise ValueError(f"expected a non-empty family of equal-shape matrices, "
                         f"got array of shape {stack.shape}")
    return stack


def kraus_channel_defect(kraus: list[np.ndarray]) -> float:
    """Deviation of sum M_i* M_i from the identity."""
    kraus = _kraus_stack(kraus)
    total = np.einsum("kij,kil->jl", kraus.conj(), kraus)
    return float(np.max(np.abs(total - np.eye(kraus.shape[2]))))


def stahlke_residual(kraus: list[np.ndarray], s_basis: list[np.ndarray],
                     t_basis: list[np.ndarray]) -> float:
    """Containment defect of conj(M_j) S M_i^T inside span(T)."""
    kraus = _kraus_stack(kraus)
    k, dout, din = kraus.shape
    s = np.asarray(s_basis, dtype=complex).reshape(-1, din, din)
    # img[i, j, s] = conj(M_j) S M_i^T, flattened row-major
    img = np.einsum("jpq,sqr,itr->ijspt", kraus.conj(), s, kraus,
                    optimize=True).reshape(k, k, len(s), dout * dout)
    t = orthonormal_columns(np.asarray(t_basis, dtype=complex).reshape(-1, dout * dout).T)
    resid = np.linalg.norm(img - (img @ t.conj()) @ t.T, axis=-1)
    scale = np.maximum(1.0, np.linalg.norm(img, axis=-1))
    return float(np.max(resid / scale, initial=0.0))


def stahlke_check(kraus: list[np.ndarray], s_basis: list[np.ndarray],
                  t_basis: list[np.ndarray], tol: float = TOL_ALG) -> bool:
    """Kraus-level homomorphism check between twisted operator anti-systems."""
    require(kraus_channel_defect(kraus), TOL_ALG, "Kraus family is not trace preserving")
    return stahlke_residual(kraus, s_basis, t_basis) <= tol


def hom_residual(phi_choi: np.ndarray, u: SkewSymmetricSubspace,
                 v: SkewSymmetricSubspace) -> float:
    """Residual of <(Phi (x) Phi^sharp)(P_U), I - P_V>."""
    dim_x, dim_a = u.n, v.n
    choi = check_channel(phi_choi, (dim_x, dim_a))
    phi = choi.reshape(dim_x, dim_a, dim_x, dim_a)
    sharp = channel_sharp(choi).reshape(dim_x, dim_a, dim_x, dim_a)
    p_u = u.projector().reshape(dim_x, dim_x, dim_x, dim_x)
    # (Phi (x) Phi^sharp)(P_U), its Choi matrix never formed
    image = np.einsum("xyXY,xaXA,ybYB->abAB", p_u, phi, sharp,
                      optimize=True).reshape(dim_a * dim_a, dim_a * dim_a)
    comp = np.eye(dim_a * dim_a) - v.projector()
    return abs(float(np.real(np.trace(image @ comp))))


def hom_check(phi_choi: np.ndarray, u: SkewSymmetricSubspace,
              v: SkewSymmetricSubspace, tol: float = TOL_ALG) -> bool:
    return hom_residual(phi_choi, u, v) <= tol


def vertex_map_kraus(f, dim_in: int, dim_out: int) -> list[np.ndarray]:
    """Kraus family of the channel induced by a vertex map: M_x = e_f(x) e_x*."""
    image = [int(f(x)) if callable(f) else int(f[x]) for x in range(dim_in)]
    x = np.arange(dim_in)
    kraus = np.zeros((dim_in, dim_out, dim_in), dtype=complex)
    kraus[x, image, x] = 1.0
    return list(kraus)


def kraus_to_choi(kraus: list[np.ndarray]) -> np.ndarray:
    """Choi matrix (rows (in, out)) of a channel given by Kraus operators."""
    kraus = _kraus_stack(kraus)
    v = np.swapaxes(kraus, 1, 2).reshape(len(kraus), -1)  # v[m, (i, k)] = M_m[k, i]
    n = v.shape[1]
    # sum_m v_m v_m*, accumulated term by term from zero: numpy sums a contiguous
    # axis pairwise, which would make the rounding depend on the dimensions
    terms = np.concatenate([np.zeros((1, n, n)), v[:, :, None] * v.conj()[:, None, :]])
    return np.add.accumulate(terms)[-1]


# ---------------------------------------------------------------------------
# Quantum colourings


def proper_residuals(e: CqnsCorrelation, graph: Graph) -> dict[tuple[int, int], float]:
    """Pairing of each edge state with the maximally entangled matrix."""
    d = e.dims
    if d.x != graph.n or d.y != graph.n or d.a != d.b:
        raise ValueError("correlation dimensions do not match the graph")
    edges = graph.ordered_edges()
    x, y = _edge_index(edges)
    # Tr(sigma Omega) is the sum of the entries sigma[(a, a), (b, b)]
    val = np.einsum("eaabb->e", e.states[x, y].reshape(-1, d.a, d.a, d.a, d.a))
    return dict(zip(edges, (np.abs(val.real) + np.abs(val.imag)).tolist()))


def proper_check(e: CqnsCorrelation, graph: Graph, tol: float = TOL_ALG) -> bool:
    residuals = proper_residuals(e, graph)
    return float(np.max(list(residuals.values()), initial=0.0)) <= tol


def orth_rep_to_colouring(vectors, graph: Graph | None = None) -> CqnsCorrelation:
    """Locally tracial colouring from unit vectors, one per vertex.

    When a graph is passed, vectors on an edge must be orthogonal.
    """
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    if not vecs:
        raise ValueError("need at least one vector")
    k = vecs[0].shape[0]
    for i, v in enumerate(vecs):
        if v.shape[0] != k:
            raise ValueError("all vectors must live in the same space")
        require(abs(np.linalg.norm(v) - 1.0), TOL_INPUT, f"vector {i} is not unit norm")
    if graph is not None:
        if graph.n != len(vecs):
            raise ValueError("need one vector per vertex")
        for x, y in graph.edges:
            require(abs(np.vdot(vecs[x], vecs[y])), TOL_INPUT,
                    f"vectors on edge ({x},{y}) are not orthogonal")
    vecs = np.array(vecs)
    n = len(vecs)
    c4 = np.zeros((n, k, n, k), dtype=complex)
    x = np.arange(n)
    c4[x, :, x, :] = vecs[:, :, None] * vecs.conj()[:, None, :]
    e = AlgStochasticMatrix(scalar_algebra(),
                            (StochasticOperatorMatrix(n, k, 1, c4.reshape(n * k, n * k)),))
    return build_tracial_cqns(e)


def kd2_colouring(d: int) -> CqnsCorrelation:
    """Quantum colouring of the complete graph on d^2 vertices with d colours.

    Inputs are pairs over Z_d, outputs live in C^d; the witness is the
    semi-classical family E[x, z, z'] = zeta^((z'-z) b') |z-a'><z'-a'| over
    the d x d matrix algebra with normalised trace, x = (a', b').
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    zeta = np.exp(2j * np.pi / d)
    n = d * d
    mat = np.zeros((n * d * d,) * 2, dtype=complex)
    t = mat.reshape(n, d, d, n, d, d)  # [x, z, h, x', z', h']
    a, b, z, w = np.indices((d,) * 4)
    t[a * d + b, z, (z - a) % d, a * d + b, w, (w - a) % d] = zeta ** ((w - z) * b)
    witness = AlgStochasticMatrix(matrix_algebra(d),
                                  (StochasticOperatorMatrix(n, d, d, mat),))
    corr = build_tracial_cqns(witness)
    # the normalised-trace pairing of the witness must reproduce the explicit
    # rank-one states entrywise
    require(float(np.max(np.abs(corr.states - kd2_explicit_states(d)))), TOL_ALG,
            "colouring self-check failed")
    return corr


def kd2_explicit_states(d: int) -> np.ndarray:
    """The explicit rank-one state family sigma[x, y] of the d^2 colouring."""
    zeta = np.exp(2j * np.pi / d)
    n = d * d
    # xi[x, y] for x = (a', b'), y = (a'', b''); the two phases stay separate factors
    ap, bp, app, bpp, l = np.indices((d,) * 5)
    xi = np.zeros((d,) * 4 + (d * d,), dtype=complex)
    xi[ap, bp, app, bpp, l * d + (l - ap + app) % d] = zeta ** ((bpp - bp) * l)
    xi *= zeta ** (bpp * (app - ap))[..., :1] / np.sqrt(d)
    xi = xi.reshape(n, n, d * d)
    return xi[..., :, None] * xi.conj()[..., None, :]


def cycle5_umbrella() -> list[np.ndarray]:
    """Orthogonal representation of the 5-cycle in C^3 (adjacent vectors orthogonal)."""
    c = 5 ** -0.25
    vecs = []
    for k in range(5):
        angle = 4 * np.pi * k / 5
        s = np.sqrt(1 - c * c)
        vecs.append(np.array([s * np.cos(angle), s * np.sin(angle), c], dtype=complex))
    return vecs


# ---------------------------------------------------------------------------
# Lovasz theta and the chromatic lower bound


def lovasz_theta(graph: Graph, tol: float = GAP_TOL) -> float:
    """Lovasz number through the dense interior-point solver."""
    return solve_theta(graph.n, sorted(graph.edges), tol=tol).value


def xi_qc_lower_bound(graph: Graph, theta: float | None = None,
                      tol: float = GAP_TOL) -> float:
    """Lower bound sqrt(n / theta(G)) on the commuting quantum chromatic number."""
    if theta is None:
        theta = lovasz_theta(graph, tol)
    if graph.n == 0:
        return 0.0
    return float(np.sqrt(graph.n / theta))
