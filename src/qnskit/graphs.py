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
from .linalg import (TOL_ALG, TOL_INPUT, asmatrix, check_channel, dagger,
                     max_entangled, max_entangled_vector, orthonormal_columns,
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
        for i, j in self.edges:
            a[i, j] = a[j, i] = 1.0
        return a


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


def flip_operator(n: int) -> np.ndarray:
    """Swap of the two tensor factors of C^n (x) C^n."""
    f = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            f[j * n + i, i * n + j] = 1.0
    return f


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
        f = flip_operator(self.n)
        p = self.projector()
        return float(np.max(np.abs(f @ p @ f - p)))

    def contains(self, vec: np.ndarray, tol: float = TOL_ALG) -> bool:
        vec = np.asarray(vec, dtype=complex).reshape(-1)
        resid = vec - self.projector() @ vec
        return float(np.max(np.abs(resid))) <= tol


def graph_subspace(graph: Graph) -> SkewSymmetricSubspace:
    """span{e_x (x) e_y : x ~ y}, the non-commutative copy of a graph."""
    n = graph.n
    vecs = np.zeros((n * n, 2 * len(graph.edges)), dtype=complex)
    for k, (x, y) in enumerate(graph.ordered_edges()):
        vecs[x * n + y, k] = 1.0
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


def _span_projector(mats: list[np.ndarray]) -> np.ndarray:
    if not mats:
        shape = (0, 0)
        return np.zeros(shape)
    cols = np.column_stack([m.reshape(-1) for m in mats])
    basis = orthonormal_columns(cols)
    return basis @ dagger(basis)


def kraus_channel_defect(kraus: list[np.ndarray]) -> float:
    """Deviation of sum M_i* M_i from the identity."""
    kraus = [asmatrix(m) for m in kraus]
    din = kraus[0].shape[1]
    total = sum(dagger(m) @ m for m in kraus)
    return float(np.max(np.abs(total - np.eye(din))))


def stahlke_residual(kraus: list[np.ndarray], s_basis: list[np.ndarray],
                     t_basis: list[np.ndarray]) -> float:
    """Containment defect of conj(M_j) S M_i^T inside span(T)."""
    kraus = [asmatrix(m) for m in kraus]
    proj = _span_projector([asmatrix(t) for t in t_basis]) if t_basis else None
    out = []
    for mi in kraus:
        for mj in kraus:
            for s in s_basis:
                img = np.conj(mj) @ asmatrix(s) @ mi.T
                v = img.reshape(-1)
                scale = max(1.0, float(np.linalg.norm(v)))
                if proj is None or proj.size == 0:
                    resid = float(np.linalg.norm(v))
                else:
                    resid = float(np.linalg.norm(v - proj @ v))
                out.append(resid / scale)
    return float(np.max(out, initial=0.0))


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
    """Kraus family of the channel induced by a vertex map."""
    out = []
    for x in range(dim_in):
        m = np.zeros((dim_out, dim_in), dtype=complex)
        m[int(f[x]) if not callable(f) else int(f(x)), x] = 1.0
        out.append(m)
    return out


def kraus_to_choi(kraus: list[np.ndarray]) -> np.ndarray:
    """Choi matrix (rows (in, out)) of a channel given by Kraus operators."""
    kraus = [asmatrix(m) for m in kraus]
    dout, din = kraus[0].shape
    choi = np.zeros((din * dout, din * dout), dtype=complex)
    for m in kraus:
        v = m.T.reshape(-1)  # v[(i, k)] = M[k, i]
        choi += np.outer(v, v.conj())
    return choi


# ---------------------------------------------------------------------------
# Quantum colourings


def proper_residuals(e: CqnsCorrelation, graph: Graph) -> dict[tuple[int, int], float]:
    """Pairing of each edge state with the maximally entangled matrix."""
    d = e.dims
    if d.x != graph.n or d.y != graph.n or d.a != d.b:
        raise ValueError("correlation dimensions do not match the graph")
    omega = max_entangled(d.a)
    out = {}
    for x, y in graph.ordered_edges():
        val = np.trace(e.states[x, y] @ omega)
        out[(x, y)] = abs(float(np.real(val))) + abs(float(np.imag(val)))
    return out


def proper_check(e: CqnsCorrelation, graph: Graph, tol: float = TOL_ALG) -> bool:
    residuals = proper_residuals(e, graph)
    return float(np.max(list(residuals.values()), initial=0.0)) <= tol


def orth_rep_to_colouring(vectors, graph: Graph | None = None) -> CqnsCorrelation:
    """Locally tracial colouring from unit vectors, one per vertex.

    When a graph is passed, vectors on an edge must be orthogonal.
    """
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
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
    n = len(vecs)
    choi = np.zeros((n * k, n * k), dtype=complex)
    c4 = choi.reshape(n, k, n, k)
    for x, v in enumerate(vecs):
        c4[x, :, x, :] = np.outer(v, v.conj())
    e = AlgStochasticMatrix(scalar_algebra(), (StochasticOperatorMatrix(n, k, 1, choi),))
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
    t = mat.reshape(n, d, d, n, d, d)
    for ap in range(d):
        for bp in range(d):
            x = ap * d + bp
            for z in range(d):
                for zp in range(d):
                    op = np.zeros((d, d), dtype=complex)
                    op[(z - ap) % d, (zp - ap) % d] = zeta ** ((zp - z) * bp)
                    t[x, z, :, x, zp, :] = op
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
    states = np.zeros((n, n, d * d, d * d), dtype=complex)
    for ap, bp in itertools.product(range(d), repeat=2):
        for app, bpp in itertools.product(range(d), repeat=2):
            x, y = ap * d + bp, app * d + bpp
            xi = np.zeros(d * d, dtype=complex)
            for l in range(d):
                xi[l * d + (l - ap + app) % d] = zeta ** ((bpp - bp) * l)
            xi *= zeta ** (bpp * (app - ap)) / np.sqrt(d)
            states[x, y] = np.outer(xi, xi.conj())
    return states


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
