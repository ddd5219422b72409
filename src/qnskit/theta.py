"""Primal-dual interior-point solver for the Lovasz theta SDP in edge coordinates.

theta(G) = max <J, X> subject to Tr X = 1, X[x, y] = 0 for edges xy, X psd.

The solver is a feasible-start predictor-corrector method.  Its constraints
are the trace and the entries on the edges, held as two index arrays (i, j),
and the Schur complement is assembled in closed form from those arrays.
Problem data is real symmetric, so the iteration runs over real symmetric
matrices; results are deterministic.  A norm-form certificate derived from
the primal optimum cross-validates the value: rescaling X by its diagonal
yields a feasible point of max{||I + S|| : S zero on edges and diagonal,
I + S psd}, whose norm matches theta at the optimum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    value: float
    x_matrix: np.ndarray
    gap: float
    iterations: int
    certificate_norm: float
    #: certified upper bound from the dual slack (weak duality)
    dual_bound: float = float("nan")


def _sym(w: np.ndarray) -> np.ndarray:
    return (w + w.T) / 2


def edge_pairs(n: int, edges) -> np.ndarray:
    """The edges of a graph on 0..n-1 as sorted, de-duplicated rows (i, j), i < j.

    ``edges`` must convert to an integer array of shape (k, 2); an empty list
    is the edgeless graph.  The first loop or out-of-range edge is named.
    """
    pairs = np.asarray(list(edges) or np.zeros((0, 2), dtype=int))
    if pairs.dtype.kind not in "iu" or pairs.shape[1:] != (2,):
        raise ValueError(f"edges must be pairs of integer vertices, got an array "
                         f"of dtype {pairs.dtype} and shape {pairs.shape}")
    bad = (pairs[:, 0] == pairs[:, 1]) | ((pairs < 0) | (pairs >= n)).any(axis=1)
    if bad.any():
        i, j = pairs[np.argmax(bad)].tolist()
        raise ValueError(f"edge {(i, j)} is a loop or leaves the vertices 0..{n - 1}")
    unique = sorted({(min(i, j), max(i, j)) for i, j in pairs.tolist()})
    return np.array(unique, dtype=int).reshape(-1, 2)


def _apply(edges, w: np.ndarray) -> np.ndarray:
    """[Tr W, <A_k, W>] for symmetric W, where A_k = e_i e_j^T + e_j e_i^T."""
    return np.concatenate(([np.trace(w)], 2 * w[edges]))


def _adjoint(edges, y: np.ndarray, n: int) -> np.ndarray:
    """y_0 I + sum_k y_k A_k."""
    out = y[0] * np.eye(n)
    out[edges] = out[edges[::-1]] = y[1:]
    return out


def _schur(edges, zinv: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The Schur matrix <A_k, Z^-1 A_l X> of the HKM direction, symmetrised."""
    zx = zinv @ x
    row = (zx + zx.T)[edges]
    # A_k sums e_p e_q^T over both orders (p, q) of edge k, so <A_k, Z^-1 A_l X>
    # sums Z^-1[q, a] X[b, p] over those and the orders (a, b) of edge l
    ends = (edges, edges[::-1])
    block = sum(zinv[np.ix_(q, a)] * x[np.ix_(p, b)] for p, q in ends for a, b in ends)
    return _sym(np.block([[np.trace(zx), row], [row[:, None], block]]))


def _max_step(psd: np.ndarray, step: np.ndarray) -> float:
    """Largest damped alpha <= 1 keeping psd + alpha * step positive definite."""
    jitter = 1e-14 * max(1.0, float(np.trace(psd)))
    chol = np.linalg.cholesky(psd + jitter * np.eye(psd.shape[0]))
    inv = np.linalg.inv(chol)
    lam = float(np.linalg.eigvalsh(_sym(inv @ step @ inv.T))[0])
    if lam >= -1e-14:
        return 1.0
    return min(1.0, -0.98 / lam)


def solve_theta(n: int, edges, tol: float = GAP_TOL,
                max_iter: int = MAX_ITER) -> ThetaResult:
    """Solve the theta SDP for a graph given by vertex count and edge list."""
    if n < 1:
        raise ValueError("graph must have at least one vertex")
    if not 0 < tol < float("inf"):  # NaN fails
        raise ValueError("tolerance must be positive and finite")
    edges = tuple(edge_pairs(n, edges).T)

    m = 1 + len(edges[0])
    b = np.zeros(m)
    b[0] = 1.0
    c = -np.ones((n, n))  # minimise <-J, X>, maximising <J, X>

    x = np.eye(n) / n                              # strictly feasible primal
    y = np.zeros(m)
    y[0] = -(n + 1.0)
    z = c - _adjoint(edges, y, n)                  # (n+1) I - J, strictly psd

    gap = float(np.tensordot(x, z))
    iterations = 0
    try:
        for iterations in range(1, max_iter + 1):
            rp = b - _apply(edges, x)
            rd = c - z - _adjoint(edges, y, n)
            gap = float(np.tensordot(x, z))
            if gap <= tol and float(np.max(np.abs(rp))) <= FEAS_TOL \
                    and float(np.max(np.abs(rd))) <= FEAS_TOL:
                break

            zinv = _sym(np.linalg.inv(z))
            schur = _schur(edges, zinv, x)

            rhs_base = rp + _apply(edges, x) + _apply(edges, _sym(zinv @ rd @ x))

            def direction(target: np.ndarray):
                """Solve the reduced system for complementarity target matrix."""
                rhs = rhs_base - _apply(edges, _sym(zinv @ target))
                try:
                    dy = np.linalg.solve(schur, rhs)
                except np.linalg.LinAlgError:
                    dy = np.linalg.lstsq(schur, rhs, rcond=None)[0]
                dz = rd - _adjoint(edges, dy, n)
                dx = _sym(zinv @ target - x - zinv @ dz @ x)
                return dx, dy, dz

            # predictor (affine scaling)
            zero = np.zeros((n, n))
            dx_a, _, dz_a = direction(zero)
            ap = _max_step(x, dx_a)
            ad = _max_step(z, dz_a)
            gap_aff = float(np.tensordot(x + ap * dx_a, z + ad * dz_a))
            sigma = min(1.0, max(gap_aff / gap, 0.0) ** 3)

            # corrector
            mu = gap / n
            target = sigma * mu * np.eye(n) - dz_a @ dx_a
            dx, dy, dz = direction(target)
            ap = _max_step(x, dx)
            ad = _max_step(z, dz)

            x = _sym(x + ap * dx)
            z = _sym(z + ad * dz)
            y = y + ad * dy
        else:
            raise SolverError(
                f"no convergence within {max_iter} iterations (gap {gap:.3e})")
    except np.linalg.LinAlgError as exc:
        # an iterate that lost definiteness: fail closed, never return it
        raise SolverError(f"iteration {iterations} failed at gap {gap:.3e}: {exc}") from exc

    value = float(np.sum(x))
    # Weak duality: Z = C - A*(y) gives <J, X'> = -y_1 - <Z, X'> for every
    # feasible X', hence theta <= -y_1 - min(0, lambda_min(Z)).
    z_exact = c - _adjoint(edges, y, n)
    slack = min(0.0, float(np.linalg.eigvalsh(_sym(z_exact))[0]))
    dual_bound = float(-y[0]) - slack
    return ThetaResult(value, x, gap, iterations, _certificate_norm(x), dual_bound)


def _certificate_norm(x: np.ndarray) -> float:
    """Norm of the diagonal-rescaled optimum, feasible for the max-norm form."""
    d = np.diag(x).copy()
    support = d > 1e-8 * max(float(d.max()), 1e-30)
    if not np.any(support):
        return 0.0
    xs = x[np.ix_(support, support)]
    scale = np.sqrt(d[support])
    bmat = xs / np.outer(scale, scale)
    return float(np.linalg.eigvalsh(_sym(bmat))[-1])
