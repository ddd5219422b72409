"""Dense primal-dual interior-point solver for the Lovasz theta SDP.

theta(G) = max <J, X> subject to Tr X = 1, X[x, y] = 0 for edges xy, X psd.

The solver is a feasible-start predictor-corrector method with dense
Schur-complement solves.  Problem data is real symmetric, so the iteration
runs over real symmetric matrices; results are deterministic.  A norm-form
certificate derived from the primal optimum cross-validates the value:
rescaling X by its diagonal yields a feasible point of
max{||I + S|| : S zero on edges and diagonal, I + S psd}, whose norm
matches theta at the optimum.
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
    """Interior-point iteration failed to converge within the cap."""


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


def _constraint_matrices(n: int, edges) -> list[np.ndarray]:
    mats = [np.eye(n)]
    for i, j in edges:
        a = np.zeros((n, n))
        a[i, j] = a[j, i] = 1.0
        mats.append(a)
    return mats


def _apply(mats, w: np.ndarray) -> np.ndarray:
    return np.array([np.tensordot(a, w) for a in mats])


def _adjoint(mats, y: np.ndarray) -> np.ndarray:
    out = np.zeros_like(mats[0])
    for a, yk in zip(mats, y):
        out += yk * a
    return out


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
    edges = [(int(i), int(j)) for i, j in edges]
    for i, j in edges:
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge {(i, j)} is a loop or leaves the vertices 0..{n - 1}")
    edges = sorted({(min(e), max(e)) for e in edges})

    mats = _constraint_matrices(n, edges)
    m = len(mats)
    b = np.zeros(m)
    b[0] = 1.0
    c = -np.ones((n, n))  # minimise <-J, X>, maximising <J, X>

    x = np.eye(n) / n                              # strictly feasible primal
    y = np.zeros(m)
    y[0] = -(n + 1.0)
    z = c - _adjoint(mats, y)                      # (n+1) I - J, strictly psd

    gap = float(np.tensordot(x, z))
    iterations = 0
    for iterations in range(1, max_iter + 1):
        rp = b - _apply(mats, x)
        rd = c - z - _adjoint(mats, y)
        gap = float(np.tensordot(x, z))
        if gap <= tol and float(np.max(np.abs(rp))) <= FEAS_TOL \
                and float(np.max(np.abs(rd))) <= FEAS_TOL:
            break

        zinv = _sym(np.linalg.inv(z))
        images = [_sym(zinv @ a @ x) for a in mats]
        schur = _sym(np.array([_apply(mats, img) for img in images]).T)

        rhs_base = rp + _apply(mats, x) + _apply(mats, _sym(zinv @ rd @ x))

        def direction(target: np.ndarray):
            """Solve the reduced system for complementarity target matrix."""
            rhs = rhs_base - _apply(mats, _sym(zinv @ target))
            try:
                dy = np.linalg.solve(schur, rhs)
            except np.linalg.LinAlgError:
                dy = np.linalg.lstsq(schur, rhs, rcond=None)[0]
            dz = rd - _adjoint(mats, dy)
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

    value = float(np.sum(x))
    # Weak duality: Z = C - A*(y) gives <J, X'> = -y_1 - <Z, X'> for every
    # feasible X', hence theta <= -y_1 - min(0, lambda_min(Z)).
    z_exact = c - _adjoint(mats, y)
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
