"""Primal-dual interior-point solver for the Lovasz theta SDP.

theta(G) = max <J, X> subject to Tr X = 1, X[x, y] = 0 for edges xy, X psd.

One feasible-start HKM predictor-corrector loop (Helmberg, Rendl, Vanderbei
and Wolkowicz 1996) calls the kernels of a constraint operator, which holds
X, Z and C: <X, Z>, product, symmetrisation, inverse, inverse Cholesky
factors, least eigenvalue and step lengths, besides the constraint map A, its
adjoint and its Schur complement.  There are two:

* The edge operator holds one n x n block; its kernels are LAPACK calls, each
  eigensolve after a symmetrisation.  Its rows are the trace and the edge
  entries (i, j); its Schur matrix is summed in place from the rows of Z^-1
  and X at the edge ends.  Every iterate, and that matrix, is exactly
  symmetric as a sum of exactly symmetric terms, so the loop symmetrises none.
* The circulant operator serves edge sets invariant under v -> v + 1 mod n
  (Paley graphs, cycles, their complements), which have a circulant optimum
  X = (1/n) sum_k lambda_k f_k f_k^*.  Folding lambda_k = lambda_{n-k} leaves
  Delsarte's LP (Schrijver 1979), run on (K,) eigenvalue vectors, K =
  floor(n/2) + 1: the product is elementwise, the symmetrisation the identity,
  and the other kernels the closed forms of LAPACK's on 1 x 1 blocks, bit for
  bit, so its only LAPACK calls are the two Schur solves.

`_shifts` decides circulance on the sorted edge keys in O(|E|).  Each
iteration applies A to X once, inverts Z once and factors X and Z once; the
predictor's zero target costs nothing.  Results are deterministic.  The value
is <J, X> = -<C, X>; `ThetaResult.blocks` is X as a read-only (K, s, s) stack
(for the LP a (K, 1, 1) view), expanded to n x n when `x_matrix` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import dimensions, positive, worst

#: Duality-gap stopping tolerance.
GAP_TOL = 1e-7

#: Feasibility tolerance for the linear constraint residuals.
FEAS_TOL = 1e-8

#: Iteration cap for the interior-point loop.
MAX_ITER = 200


class SolverError(RuntimeError):
    """Interior-point iteration failed to converge within the cap, or broke down."""


@dataclass(frozen=True)
class ThetaResult:
    """A converged solve, with the primal optimum X kept in its operator's blocks."""

    #: <J, X> at the primal optimum X
    value: float
    #: duality gap <X, Z> at the stop
    gap: float
    #: interior-point iterations run
    iterations: int
    #: certified upper bound from the dual slack (weak duality)
    dual_bound: float
    #: the read-only (K, s, s) blocks of X
    blocks: np.ndarray
    #: the constraint operator whose ``x_matrix`` expands ``blocks`` into X
    op: _EdgeOperator | _CirculantOperator

    @cached_property
    def x_matrix(self) -> np.ndarray:
        """The n x n primal optimum X, read-only, expanded on first read."""
        x = self.op.x_matrix(self.blocks)
        x.flags.writeable = False
        return x


def edge_pairs(n: int, edges) -> np.ndarray:
    """The edges of a graph on 0..n-1 as a read-only int64 array of rows (i, j),
    i < j, de-duplicated and in lexicographic order.

    ``edges`` must convert to an integer array of shape (k, 2), and an array is
    taken as it is; an empty list is the edgeless graph.  The first loop or
    out-of-range edge is named.
    """
    pairs = np.asarray(edges if isinstance(edges, np.ndarray)
                       else list(edges) or np.zeros((0, 2), dtype=int))
    if pairs.dtype.kind not in "iu" or pairs.shape[1:] != (2,):
        raise ValueError(f"edges must be pairs of integer vertices, got an array "
                         f"of dtype {pairs.dtype} and shape {pairs.shape}")
    bad = (pairs[:, 0] == pairs[:, 1]) | ((pairs < 0) | (pairs >= n)).any(axis=1)
    if bad.any():
        i, j = pairs[np.argmax(bad)].tolist()
        raise ValueError(f"edge {(i, j)} is a loop or leaves the vertices 0..{n - 1}")
    if len(pairs) and n * (n - 1) > 2**63:  # the keys below must fit in an int64
        raise ValueError(f"{n} vertices are too many for a graph with edges")
    # the key i n + j of edge (i, j), i < j, sorts as the pair does
    i, j = pairs.astype(np.int64).T
    keys = np.sort(np.minimum(i, j) * n + np.maximum(i, j))
    first = np.ones(len(keys), dtype=bool)  # the first key of each run of equal ones
    first[1:] = keys[1:] != keys[:-1]
    out = np.column_stack(np.divmod(keys[first], n))
    out.flags.writeable = False
    return out


class _Operator:
    """The step-length rule, the same on every operator's blocks."""

    def max_steps(self, inv: np.ndarray, dx: np.ndarray, dz: np.ndarray) -> np.ndarray:
        """The largest damped alphas <= 1 keeping X + alpha dX and Z + alpha dZ positive
        definite, from the `inv_factors` L^-1 of X and Z: the least eigenvalue of L^-1 d L^-T."""
        lam = self.min_eig(self.congruence(inv, np.array([dx, dz]))).min(axis=-1)
        return np.minimum(1.0, -0.98 / np.minimum(lam, -1e-14))


class _EdgeOperator(_Operator):
    """One n x n block, iterated as a (1, n, n) stack through LAPACK; the rows are
    Tr X and <A_k, X> = 2 X[i, j] per edge (i, j)."""

    mul = staticmethod(np.matmul)

    def __init__(self, n: int, edges: tuple[np.ndarray, np.ndarray]):
        self.n = n
        self.edges = edges
        self.keys = edges[0] * n + edges[1]  # the flat index of X[i, j] per edge
        self.shape = (1, n, n)
        self.eye = np.eye(n)[None]
        self.c = -np.ones(self.shape)  # minimise <-J, X>, maximising <J, X>
        self.m = 1 + len(edges[0])

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.vdot(a, b))

    def sym(self, a: np.ndarray) -> np.ndarray:
        """(A + A^T) / 2 blockwise."""
        return (a + a.swapaxes(-1, -2)) / 2

    def inv(self, a: np.ndarray) -> np.ndarray:
        return self.sym(np.linalg.inv(a))

    def inv_factors(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Inverses of the Cholesky factors of X and Z, each shifted by a jitter of
        1e-14 max(1, Tr) of its matrix, stacked as (2, 1, n, n)."""
        psd = np.array([x, z])
        jitter = 1e-14 * np.maximum(1.0, np.trace(psd, axis1=-2, axis2=-1)[:, 0])
        return np.linalg.inv(np.linalg.cholesky(psd + jitter[:, None, None, None] * self.eye))

    def congruence(self, f: np.ndarray, a: np.ndarray) -> np.ndarray:
        return f @ a @ f.swapaxes(-1, -2)

    def min_eig(self, a: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(self.sym(a))[..., 0]

    def apply(self, w: np.ndarray) -> np.ndarray:
        """[Tr W, <A_k, W>] for symmetric W, where A_k = e_i e_j^T + e_j e_i^T."""
        out = np.empty(self.m)
        out[0] = np.trace(w[0])
        np.multiply(2, w[0].take(self.keys), out=out[1:])
        return out

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """y_0 I + sum_k y_k A_k."""
        out = y[0] * self.eye[0]
        out[self.edges] = out[self.edges[::-1]] = y[1:]
        return out[None]

    def schur(self, zinv: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The Schur matrix <A_k, Z^-1 A_l X> of the HKM direction; exactly
        symmetric when Z^-1 and X are."""
        zinv, x = zinv[0], x[0]
        zx = zinv @ x
        out = np.empty((self.m, self.m))
        out[0, 0] = np.trace(zx)
        out[0, 1:] = out[1:, 0] = (zx + zx.T)[self.edges]
        # A_k sums e_p e_q^T over both orders (p, q) of edge k, so <A_k, Z^-1 A_l X>
        # sums Z^-1[q, a] X[b, p] over those and the orders (a, b) of edge l; as
        # Z^-1 and X are symmetric, two of the four terms are transposes.  The
        # rows of both at each edge end are gathered once; each term takes its
        # columns from them
        i, j = self.edges
        zi, zj, xi, xj = zinv[i], zinv[j], x[i], x[j]
        block = out[1:, 1:]
        t = zj[:, i]
        t *= xi[:, j]
        np.add(t, t.T, out=block)
        t = zj[:, j]
        t *= xi[:, i]
        block += t
        t = zi[:, i]
        t *= xj[:, j]
        block += t
        return out

    def x_matrix(self, x: np.ndarray) -> np.ndarray:
        return x[0]


class _CirculantOperator(_Operator):
    """Delsarte's LP in the (K,) vector of eigenvalues lambda_k, k = 0..n//2, of
    multiplicity w_k; each kernel is the closed form of LAPACK's on 1 x 1 blocks.

    The rows are the trace sum_k w_k lambda_k and, for each shift s of the
    folded connection set, sum_k w_k lambda_k cos(2 pi k s / n) = n X[0, s].
    """

    mul = staticmethod(np.multiply)
    sym = min_eig = staticmethod(lambda a: a)  # a 1 x 1 block: symmetric, its own eigenvalue

    def __init__(self, n: int, shifts: np.ndarray):
        k = np.arange(n // 2 + 1)
        self.n = n
        self.w = np.where((k == 0) | (2 * k == n), 1.0, 2.0)
        # row d is cos(2 pi k d / n) over the blocks k, for d = 0 (the trace row,
        # as cos 0 = 1) and each shift; k d is reduced mod n in integers first, so
        # the angle stays below 2 pi
        self.rows = np.cos((2 * np.pi / n) * (np.outer(np.r_[0, shifts], k) % n))
        self.m = len(self.rows)
        self.shape = (len(k), 1, 1)
        self.eye = np.ones(len(k))
        self.c = np.zeros(len(k))
        self.c[0] = -n  # <C, X> = -n lambda_0 = -<J, X>

    def inner(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.vdot(self.w * a, b))

    def inv(self, a: np.ndarray) -> np.ndarray:
        """1 / a, refusing a zero as LAPACK's LU refuses a zero pivot."""
        if not a.all():
            raise np.linalg.LinAlgError("Singular matrix")
        return 1 / a

    def inv_factors(self, x: np.ndarray, z: np.ndarray) -> np.ndarray:
        """`inv_cholesky` of X and Z, each shifted by a jitter of 1e-14 max(1, Tr)."""
        psd = np.array([x, z])
        return self.inv_cholesky(psd + (1e-14 * np.maximum(1.0, psd @ self.w))[:, None])

    @staticmethod
    def inv_cholesky(a: np.ndarray) -> np.ndarray:
        """1 / sqrt(a), refusing a <= 0 as numpy's Cholesky does (a NaN passes through)."""
        if (a <= 0).any():
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        return 1 / np.sqrt(a)

    def congruence(self, f: np.ndarray, a: np.ndarray) -> np.ndarray:
        return (f * a) * f

    def apply(self, w: np.ndarray) -> np.ndarray:
        return self.rows @ (self.w * w)

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return y @ self.rows

    def schur(self, zinv: np.ndarray, x: np.ndarray) -> np.ndarray:
        """sum_b w_b a_kb a_lb x_b / z_b for the diagonal X and Z of the LP."""
        return (self.rows * (self.w * zinv * x)) @ self.rows.T

    def x_matrix(self, x: np.ndarray) -> np.ndarray:
        """The n x n circulant with spectrum lambda: entry [u, v] depends on v - u."""
        k, d = np.arange(len(self.w)), np.arange(self.n)
        cos = np.cos((2 * np.pi / self.n) * (np.outer(k, d) % self.n))  # as in the rows
        first = (self.w * x[:, 0, 0]) @ cos / self.n
        return first[(d - d[:, None]) % self.n]


def _shifts(n: int, edges: tuple[np.ndarray, np.ndarray]) -> np.ndarray | None:
    """The connection set {s <= n/2 : 0 ~ s} when v -> v + 1 maps edges to edges.

    ``edges`` are the rows (i, j) of `edge_pairs`, sorted by key i n + j.  The
    shift sends a row with j < n - 1 to key + n + 1 and a row (i, n - 1) to
    (0, i + 1), of key i + 1 < n; so the shifted keys, those rows first, are
    sorted as they come, and the edge set is invariant exactly when they equal
    the keys.  Nothing of size n x n is built.
    """
    i, j = edges
    keys = i * n + j
    wrap = j == n - 1
    if not np.array_equal(np.concatenate((i[wrap] + 1, keys[~wrap] + n + 1)), keys):
        return None
    return j[(i == 0) & (j <= n // 2)]


def _solve(op, tol: float, max_iter: int) -> ThetaResult:
    """The HKM predictor-corrector loop on the iterates of constraint operator ``op``."""
    n = float(op.n)                                # the size of the expanded matrix
    b = np.zeros(op.m)
    b[0] = 1.0

    x = op.eye / n                                 # I / n, strictly feasible primal
    y = np.zeros(op.m)
    y[0] = -(n + 1.0)
    z = op.c - op.adjoint(y)                       # (n+1) I - J, strictly psd

    gap = op.inner(x, z)
    iterations = 0
    try:
        for iterations in range(1, max_iter + 1):
            ax = op.apply(x)
            rp = b - ax
            rd = op.c - z - op.adjoint(y)
            gap = op.inner(x, z)
            if gap < 0:
                # <X, Z> >= 0 on the cone, so these iterates have left it
                raise SolverError(f"iteration {iterations} has a negative duality gap "
                                  f"{gap:.3e}: the iterates left the cone")
            if gap <= tol and worst(rp, rd) <= FEAS_TOL:
                break

            zinv = op.inv(z)
            schur = op.schur(zinv, x)
            rhs_base = rp + ax + op.apply(op.sym(op.mul(op.mul(zinv, rd), x)))

            def direction(target: np.ndarray | None):
                """Solve the reduced system for a complementarity target, or None for 0."""
                if target is None:
                    rhs, dx = rhs_base, 0.0 - x  # not -X: a zero of X stays +0
                else:
                    zt = op.mul(zinv, target)
                    rhs, dx = rhs_base - op.apply(op.sym(zt)), zt - x
                try:
                    dy = np.linalg.solve(schur, rhs)
                except np.linalg.LinAlgError:
                    dy = np.linalg.lstsq(schur, rhs, rcond=None)[0]
                dz = rd - op.adjoint(dy)
                return op.sym(dx - op.mul(op.mul(zinv, dz), x)), dy, dz

            # predictor (affine scaling)
            dx_a, _, dz_a = direction(None)
            inv = op.inv_factors(x, z)  # one factorisation serves both step lengths
            ap, ad = op.max_steps(inv, dx_a, dz_a)
            gap_aff = op.inner(x + ap * dx_a, z + ad * dz_a)
            sigma = min(1.0, max(gap_aff / gap, 0.0) ** 3)

            # corrector
            mu = gap / n
            dx, dy, dz = direction(sigma * mu * op.eye - op.mul(dz_a, dx_a))
            ap, ad = op.max_steps(inv, dx, dz)

            # sums of exactly symmetric blocks, so exactly symmetric themselves
            x = x + ap * dx
            z = z + ad * dz
            y = y + ad * dy
        else:
            raise SolverError(
                f"no convergence within {max_iter} iterations (gap {gap:.3e})")
    except np.linalg.LinAlgError as exc:
        # an iterate that lost definiteness: fail closed, never return it
        raise SolverError(f"iteration {iterations} failed at gap {gap:.3e}: {exc}") from exc

    # Weak duality: Z = C - A*(y) gives <J, X'> = -y_1 - <Z, X'> for every
    # feasible X', hence theta <= -y_1 - min(0, lambda_min(Z)); the blocks of Z
    # hold its spectrum.
    slack = min(0.0, float(np.min(op.min_eig(op.c - op.adjoint(y)))))
    dual_bound = float(-y[0]) - slack
    x.flags.writeable = False
    return ThetaResult(-op.inner(op.c, x), gap, iterations, dual_bound, x.reshape(op.shape), op)


def solve_theta(n: int, edges, tol: float = GAP_TOL,
                max_iter: int = MAX_ITER) -> ThetaResult:
    """Solve the theta SDP for a graph given by vertex count and edge list.

    A graph whose edge set is invariant under v -> v + 1 mod n is solved
    through Delsarte's LP in its DFT eigenvalues; any other in edge coordinates.
    """
    (n,) = dimensions((n,), "vertex count")
    (max_iter,) = dimensions((max_iter,), "iteration cap")
    positive(tol, "tolerance")
    edges = tuple(edge_pairs(n, edges).T)
    shifts = _shifts(n, edges)
    op = _EdgeOperator(n, edges) if shifts is None else _CirculantOperator(n, shifts)
    return _solve(op, tol, max_iter)
