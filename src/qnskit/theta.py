"""Primal-dual interior-point solver for the Lovasz theta SDP.

theta(G) = max <J, X> subject to Tr X = 1, X[x, y] = 0 for edges xy, X psd.

The solver is one feasible-start HKM predictor-corrector loop over a stack of
symmetric blocks with multiplicities: the iterates X and Z are (K, s, s)
arrays, block k counts w_k times, and <X, Z> = sum_k w_k tr(X_k Z_k).  A
constraint operator supplies the blocks, the cost C, and the constraint map
with its adjoint and Schur complement.  There are two:

* The edge operator is one n x n block.  Its constraints are the trace and
  the entries on the edges, held as two index arrays (i, j), and its Schur
  complement is assembled in closed form from those arrays: the rows of
  Z^-1 and X at the edge ends are gathered once, each term takes its columns
  from them, and the terms are summed in place into one m x m array, with no
  (m-1)^2 index arrays.  Every iterate X and Z is a sum of exactly symmetric
  blocks, so it is exactly symmetric itself, and so is that Schur matrix; the
  loop symmetrises none of them, nor any 1 x 1 block.
* The circulant operator serves graphs whose edge set is invariant under
  v -> v + 1 mod n: Paley graphs, cycles and their complements.  The SDP is
  invariant under that shift, so averaging an optimum over it gives a
  circulant optimum X = (1/n) sum_k lambda_k f_k f_k^* with DFT vectors f_k.
  Folding lambda_k = lambda_{n-k} leaves Delsarte's LP in the floor(n/2) + 1
  eigenvalues: 1 x 1 blocks of multiplicity 1 (k = 0 and k = n/2) or 2, the
  trace row, and one row cos(2 pi k s / n) for each s <= n/2 of the
  connection set (Schrijver 1979; the 1 x 1-block case of de Klerk,
  Pasechnik and Schrijver 2007).

`solve_theta` takes the circulant operator exactly when the edge set equals
its own cyclic shift, which `_shifts` decides on the sorted edge keys in
O(|E|) with no n x n array; a relabelled circulant takes the edge operator.
Problem data is real symmetric, so the iteration runs over real symmetric
matrices; results are deterministic.  Each iteration inverts Z once and
factors X and Z once, and both step lengths of the predictor-corrector share
those factors.  On 1 x 1 blocks, the whole circulant path, the inverse, the
Cholesky factor and the eigenvalues are elementwise closed forms, the values
LAPACK computes bit for bit, without one LAPACK call per kernel.

Results are read off the blocks: the value is <J, X> = -<C, X>, and the n x n
X is expanded from the blocks only when `ThetaResult.x_matrix` is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linalg import dimensions, worst

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


def _sym(w: np.ndarray) -> np.ndarray:
    """(W + W^T) / 2 blockwise; 1 x 1 blocks are returned as they are, (a + a) / 2 = a."""
    return w if w.shape[-1] == 1 else (w + w.swapaxes(-1, -2)) / 2


def _inner(w: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """sum_k w_k tr(a_k b_k) for stacks of symmetric blocks."""
    return float(np.vdot(w[:, None, None] * a, b))


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


class _EdgeOperator:
    """One n x n block; the rows are Tr X and <A_k, X> = 2 X[i, j] per edge (i, j)."""

    def __init__(self, n: int, edges: tuple[np.ndarray, np.ndarray]):
        self.edges = edges
        self.keys = edges[0] * n + edges[1]  # the flat index of X[i, j] per edge
        self.w = np.ones(1)
        self.c = -np.ones((1, n, n))  # minimise <-J, X>, maximising <J, X>
        self.m = 1 + len(edges[0])

    def apply(self, w: np.ndarray) -> np.ndarray:
        """[Tr W, <A_k, W>] for symmetric W, where A_k = e_i e_j^T + e_j e_i^T."""
        out = np.empty(self.m)
        out[0] = np.trace(w[0])
        np.multiply(2, w[0].take(self.keys), out=out[1:])
        return out

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        """y_0 I + sum_k y_k A_k."""
        out = y[0] * np.eye(self.c.shape[-1])
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


class _CirculantOperator:
    """Delsarte's LP: 1 x 1 blocks lambda_k, k = 0..n//2, of multiplicity w_k.

    The rows are the trace sum_k w_k lambda_k and, for each shift s of the
    folded connection set, sum_k w_k lambda_k cos(2 pi k s / n) = n X[0, s].
    """

    def __init__(self, n: int, shifts: np.ndarray):
        k = np.arange(n // 2 + 1)
        self.n = n
        self.w = np.where((k == 0) | (2 * k == n), 1.0, 2.0)
        # row d is cos(2 pi k d / n) over the blocks k, for d = 0 (the trace row,
        # as cos 0 = 1) and each shift; k d is reduced mod n in integers first, so
        # the angle stays below 2 pi
        self.rows = np.cos((2 * np.pi / n) * (np.outer(np.r_[0, shifts], k) % n))
        self.m = len(self.rows)
        self.c = np.zeros((len(k), 1, 1))
        self.c[0] = -n  # <C, X> = -n lambda_0 = -<J, X>

    def apply(self, w: np.ndarray) -> np.ndarray:
        return self.rows @ (self.w * w[:, 0, 0])

    def adjoint(self, y: np.ndarray) -> np.ndarray:
        return (y @ self.rows)[:, None, None]

    def schur(self, zinv: np.ndarray, x: np.ndarray) -> np.ndarray:
        """sum_b w_b a_kb a_lb x_b / z_b for the diagonal X and Z of the LP."""
        return (self.rows * (self.w * zinv[:, 0, 0] * x[:, 0, 0])) @ self.rows.T

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


def _blockwise(a: np.ndarray, scalar, lapack):
    """``lapack(a)`` on a stack ``a`` of symmetric blocks, or ``scalar(a)`` when the
    blocks are 1 x 1: the elementwise form of the same values, bit for bit, without
    the per-call cost of numpy's LAPACK wrappers."""
    return scalar(a) if a.shape[-1] == 1 else lapack(a)


def _scalar_inv(a: np.ndarray) -> np.ndarray:
    """1 / a, refusing a zero as LAPACK's LU refuses a zero pivot."""
    if not a.all():
        raise np.linalg.LinAlgError("Singular matrix")
    return 1 / a


def _scalar_inv_cholesky(a: np.ndarray) -> np.ndarray:
    """1 / sqrt(a), refusing a <= 0 as numpy's Cholesky does (a NaN passes through)."""
    if (a <= 0).any():
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    return 1 / np.sqrt(a)


def _inv(a: np.ndarray) -> np.ndarray:
    """The inverse of each symmetric block."""
    return _blockwise(a, _scalar_inv, lambda a: _sym(np.linalg.inv(a)))


def _min_eig(a: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue of each symmetric block."""
    return _blockwise(a, lambda a: a[..., 0, 0], lambda a: np.linalg.eigvalsh(_sym(a))[..., 0])


def _inv_factors(w: np.ndarray, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Inverses of the Cholesky factors of the blocks of X and Z, each shifted by
    a jitter of 1e-14 max(1, Tr) of its matrix, stacked as (2, K, s, s)."""
    psd = np.stack([x, z])
    jitter = 1e-14 * np.maximum(1.0, np.trace(psd, axis1=-2, axis2=-1) @ w)
    return _blockwise(psd + jitter[:, None, None, None] * np.eye(psd.shape[-1]),
                      _scalar_inv_cholesky, lambda a: np.linalg.inv(np.linalg.cholesky(a)))


def _max_steps(inv: np.ndarray, dx: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """The largest damped alphas <= 1 keeping every block of X + alpha dX and of
    Z + alpha dZ positive definite (1 when the step keeps it psd), from the
    `_inv_factors` L^-1 of X and Z: the least eigenvalue of L^-1 d L^-T."""
    step = np.stack([dx, dz])
    lam = _min_eig(_blockwise(inv, lambda f: (f * step) * f,
                              lambda f: f @ step @ f.swapaxes(-1, -2))).min(axis=-1)
    return np.minimum(1.0, -0.98 / np.minimum(lam, -1e-14))


def _solve(op, tol: float, max_iter: int) -> ThetaResult:
    """The HKM predictor-corrector loop on the blocks of constraint operator ``op``."""
    w = op.w
    eye = np.eye(op.c.shape[-1])
    n = float(w.sum()) * len(eye)                  # the size of the expanded matrix
    b = np.zeros(op.m)
    b[0] = 1.0

    x = np.broadcast_to(eye, op.c.shape) / n       # I / n, strictly feasible primal
    y = np.zeros(op.m)
    y[0] = -(n + 1.0)
    z = op.c - op.adjoint(y)                       # (n+1) I - J, strictly psd

    gap = _inner(w, x, z)
    iterations = 0
    try:
        for iterations in range(1, max_iter + 1):
            rp = b - op.apply(x)
            rd = op.c - z - op.adjoint(y)
            gap = _inner(w, x, z)
            if gap < 0:
                # <X, Z> >= 0 on the cone, so these iterates have left it
                raise SolverError(f"iteration {iterations} has a negative duality gap "
                                  f"{gap:.3e}: the iterates left the cone")
            if gap <= tol and worst(rp, rd) <= FEAS_TOL:
                break

            zinv = _inv(z)
            schur = op.schur(zinv, x)

            rhs_base = rp + op.apply(x) + op.apply(_sym(zinv @ rd @ x))

            def direction(target: np.ndarray):
                """Solve the reduced system for complementarity target matrix."""
                rhs = rhs_base - op.apply(_sym(zinv @ target))
                try:
                    dy = np.linalg.solve(schur, rhs)
                except np.linalg.LinAlgError:
                    dy = np.linalg.lstsq(schur, rhs, rcond=None)[0]
                dz = rd - op.adjoint(dy)
                dx = _sym(zinv @ target - x - zinv @ dz @ x)
                return dx, dy, dz

            # predictor (affine scaling)
            dx_a, _, dz_a = direction(np.zeros_like(x))
            inv = _inv_factors(w, x, z)  # one factorisation serves both step lengths
            ap, ad = _max_steps(inv, dx_a, dz_a)
            gap_aff = _inner(w, x + ap * dx_a, z + ad * dz_a)
            sigma = min(1.0, max(gap_aff / gap, 0.0) ** 3)

            # corrector
            mu = gap / n
            target = sigma * mu * eye - dz_a @ dx_a
            dx, dy, dz = direction(target)
            ap, ad = _max_steps(inv, dx, dz)

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
    z_exact = op.c - op.adjoint(y)
    slack = min(0.0, float(np.min(_min_eig(z_exact))))
    dual_bound = float(-y[0]) - slack
    x.flags.writeable = False
    return ThetaResult(-_inner(w, op.c, x), gap, iterations, dual_bound, x, op)


def solve_theta(n: int, edges, tol: float = GAP_TOL,
                max_iter: int = MAX_ITER) -> ThetaResult:
    """Solve the theta SDP for a graph given by vertex count and edge list.

    A graph whose edge set is invariant under v -> v + 1 mod n is solved
    through Delsarte's LP in its DFT eigenvalues; any other in edge coordinates.
    """
    (n,) = dimensions((n,), "vertex count")
    (max_iter,) = dimensions((max_iter,), "iteration cap")
    if isinstance(tol, bool) or not isinstance(tol, (int, float, np.integer, np.floating)) \
            or not 0 < tol < float("inf"):  # NaN fails
        raise ValueError(f"tolerance must be positive and finite, got {tol!r}")
    edges = tuple(edge_pairs(n, edges).T)
    shifts = _shifts(n, edges)
    op = _EdgeOperator(n, edges) if shifts is None else _CirculantOperator(n, shifts)
    return _solve(op, tol, max_iter)
