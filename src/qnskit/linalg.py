"""Dense complex-matrix kernel for composite quantum systems.

All composite indices are lexicographic with the leftmost tensor factor most
significant.  Choi matrices of a map M_in -> M_out are indexed by rows
(in, out) and columns (in', out'); under this convention the Choi matrix of
the identity channel is the non-normalised maximally entangled matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

# Every tolerance of the package outside the theta solver lives here.  Residual
# functions only measure; a ``Report`` decides whether a check passes, and every
# input gate raises through ``require`` (or ``Report.require``), so the one
# comparison ``residual <= tol`` fails closed on NaN and inf everywhere.

#: Tolerance for algebraic identities on constructed data (double precision,
#: dimensions up to a few hundred); the default of every check and of the CLI
#: ``--tol`` outside ``theta``.
TOL_ALG = 1e-9

#: Eigenvalues with modulus below this are treated as zero.
EIG_CLAMP = 1e-10

#: Operator pairs constructed numerically never commute exactly.
TOL_COMM = 1e-8

#: Negative probability table entries above this threshold are clamped to zero.
NEG_CLAMP = -1e-12

#: Floor for vectors and states that come from outside the program.
TOL_INPUT = 1e-7


class CheckError(ValueError):
    """An input gate failed: its residual is above its tolerance, or not a number."""

    def __init__(self, what: str, residual: float, tol: float):
        super().__init__(f"{what} (residual {residual:.3e}, tol {tol:.3e})")
        self.residual = residual
        self.tol = tol


def require(residual: float, tol: float, what: str) -> None:
    """Raise :class:`CheckError` naming ``what`` unless ``residual <= tol``.

    The comparison is written so that a NaN or infinite residual fails.
    """
    if not residual <= tol:
        raise CheckError(what, float(residual), tol)


@dataclass(frozen=True)
class Report:
    """Named residuals of a certificate's defining conditions.

    A check passes when its residual is at most ``tol``; ``ok`` asks this of
    every check, so a NaN or infinite residual fails.  Check names read as
    attributes (``report.b_residual``); ``info`` carries data that is shown
    but not checked.
    """

    checks: dict[str, float]
    tol: float = TOL_ALG
    info: dict = field(default_factory=dict)

    def __getattr__(self, name: str):
        checks = self.__dict__.get("checks", {})
        if name in checks:
            return checks[name]
        raise AttributeError(f"{type(self).__name__} has no check {name!r}")

    @property
    def ok(self) -> bool:
        return all(r <= self.tol for r in self.checks.values())

    def as_dict(self) -> dict:
        return {**self.info, **self.checks, "pass": self.ok, "tol": self.tol}

    def require(self, what: str) -> None:
        """Raise :class:`CheckError` unless every check passes; the worst residual is shown."""
        require(float(np.max(list(self.checks.values()), initial=0.0)), self.tol,
                f"{what}: {self.checks}")


def asmatrix(m) -> np.ndarray:
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {out.shape}")
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of every block of a stack ``(..., d, d)``."""
    return np.conj(np.swapaxes(m, -1, -2))


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product, left factor most significant."""
    return np.kron(asmatrix(a), asmatrix(b))


def _check_dims(m: np.ndarray, dims: Sequence[int]) -> tuple[int, ...]:
    dims = tuple(int(d) for d in dims)
    size = math.prod(dims)
    if m.shape != (size, size):
        raise ValueError(f"matrix of shape {m.shape} does not match factor dims {dims}")
    return dims


def _factors(which, n: int) -> set[int]:
    out = {int(which)} if np.isscalar(which) else {int(w) for w in which}
    if not out <= set(range(n)):
        raise ValueError(f"factor indices {out} out of range for {n} factors")
    return out


def partial_trace(m: np.ndarray, dims: Sequence[int], which) -> np.ndarray:
    """Trace out the factor(s) ``which``; remaining factor order is preserved."""
    m = asmatrix(m)
    dims = _check_dims(m, dims)
    n = len(dims)
    traced = _factors(which, n)
    t = m.reshape(*dims, *dims)
    keep = [i for i in range(n) if i not in traced]
    for i in sorted(traced, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + (t.ndim // 2))
    size = math.prod(dims[i] for i in keep) if keep else 1
    return t.reshape(size, size)


def permute_systems(m: np.ndarray, dims: Sequence[int], perm: Sequence[int]) -> np.ndarray:
    """Conjugate by the basis permutation sending new factor j to old factor perm[j]."""
    m = asmatrix(m)
    dims = _check_dims(m, dims)
    perm = [int(p) for p in perm]
    if sorted(perm) != list(range(len(dims))):
        raise ValueError(f"{perm} is not a permutation of {len(dims)} factors")
    n = len(dims)
    t = m.reshape(*dims, *dims)
    t = np.transpose(t, perm + [n + p for p in perm])
    return t.reshape(m.shape)


def pinch(m: np.ndarray, dims: Sequence[int], which) -> np.ndarray:
    """Zero the entries whose row and column indices differ on a factor in ``which``."""
    m = asmatrix(m)
    dims = _check_dims(m, dims)
    n = len(dims)
    keep = np.ones((1,) * (2 * n), dtype=bool)
    for i in _factors(which, n):
        shape = [1] * (2 * n)
        shape[i] = shape[n + i] = dims[i]
        keep = keep & np.eye(dims[i], dtype=bool).reshape(shape)
    return np.where(keep, m.reshape(*dims, *dims), 0).reshape(m.shape)


def _stack(m) -> np.ndarray:
    """``m`` as a stack ``(..., d, d)`` of square matrices; a plain matrix is a stack of one."""
    out = np.asarray(m, dtype=complex)
    if out.ndim < 2 or out.shape[-1] != out.shape[-2]:
        raise ValueError(f"expected square matrices, got array of shape {out.shape}")
    return out


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entry of m - m* over every block of a stack ``(..., d, d)``; NaN stays NaN."""
    m = _stack(m)
    with np.errstate(invalid="ignore"):  # inf - inf on a diagonal: NaN, which fails
        diff = m - dagger(m)
    return float(np.max(np.abs(diff), initial=0.0))


def psd_defect(m: np.ndarray) -> float:
    """How far the worst block of a stack ``(..., d, d)`` is from positive semidefinite.

    The larger of the Hermiticity defect and the depth below zero of the
    spectra of the Hermitian parts, all from one batched ``eigvalsh``;
    non-finite input anywhere reads as infinitely far.  Never raises, so
    every check built on it fails closed.
    """
    m = _stack(m)
    if not np.isfinite(m).all():
        return float("inf")
    if m.size == 0:
        return 0.0
    lam = np.linalg.eigvalsh((m + dagger(m)) / 2)[..., 0]
    return max(hermiticity_defect(m), float(-np.min(lam)), 0.0)


def is_psd(m: np.ndarray, tol: float = TOL_ALG) -> bool:
    return psd_defect(m) <= tol


def herm_sqrt(m: np.ndarray) -> np.ndarray:
    """PSD square root of an almost-Hermitian matrix, negative eigenvalues clamped."""
    m = asmatrix(m)
    require(hermiticity_defect(m), TOL_ALG, "matrix is not Hermitian")
    w, v = np.linalg.eigh((m + dagger(m)) / 2)
    w = np.where(w > EIG_CLAMP, w, 0.0)
    return (v * np.sqrt(w)) @ dagger(v)


def max_entangled_vector(dim: int) -> np.ndarray:
    """The vector sum_a e_a (x) e_a in C^dim (x) C^dim."""
    return np.eye(dim, dtype=complex).reshape(dim * dim)


def max_entangled(dim: int) -> np.ndarray:
    """Non-normalised maximally entangled matrix: rank one, trace ``dim``."""
    if dim < 1:
        raise ValueError("dimension must be >= 1")
    v = max_entangled_vector(dim)
    return np.outer(v, v.conj())


def apply_choi(choi: np.ndarray, dims: tuple[int, int], rho: np.ndarray) -> np.ndarray:
    """Apply the map with the given Choi matrix to ``rho``, or to every matrix
    of a stack ``(..., din, din)``.

    ``dims`` is the (input, output) dimension pair; the Choi matrix carries
    composite row index (in, out).
    """
    choi = asmatrix(choi)
    din, dout = int(dims[0]), int(dims[1])
    if choi.shape != (din * dout, din * dout):
        raise ValueError(f"Choi shape {choi.shape} does not match dims {(din, dout)}")
    rho = _stack(rho)
    if rho.shape[-2:] != (din, din):
        raise ValueError(f"input state shape {rho.shape} does not match input dim {din}")
    c4 = choi.reshape(din, dout, din, dout)
    return np.einsum("...ij,ikjl->...kl", rho, c4)


def choi_compose(choi2: np.ndarray, dims2: tuple[int, int],
                 choi1: np.ndarray, dims1: tuple[int, int]) -> np.ndarray:
    """Choi matrix of the composition map2 after map1."""
    d_in, d_mid = int(dims1[0]), int(dims1[1])
    d_mid2, d_out = int(dims2[0]), int(dims2[1])
    if d_mid != d_mid2:
        raise ValueError(f"inner dimensions differ: {d_mid} vs {d_mid2}")
    c1 = asmatrix(choi1).reshape(d_in, d_mid, d_in, d_mid)
    c2 = asmatrix(choi2).reshape(d_mid, d_out, d_mid, d_out)
    out = np.einsum("iajb,akbl->ikjl", c1, c2)
    return out.reshape(d_in * d_out, d_in * d_out)


def channel_defects(choi: np.ndarray, dims: tuple[int, int]) -> tuple[float, float]:
    """(CP defect, trace-preservation residual) of the worst Choi matrix of a stack."""
    choi = _stack(choi)
    din, dout = int(dims[0]), int(dims[1])
    if choi.shape[-2:] != (din * dout, din * dout):
        raise ValueError(f"Choi shape {choi.shape[-2:]} does not match dims {(din, dout)}")
    marg = np.einsum("...iaja->...ij", choi.reshape(*choi.shape[:-2], din, dout, din, dout))
    return psd_defect(choi), float(np.max(np.abs(marg - np.eye(din)), initial=0.0))


def is_channel(choi: np.ndarray, dims: tuple[int, int], tol: float = TOL_ALG) -> bool:
    cp, tp = channel_defects(choi, dims)
    return cp <= tol and tp <= tol


def state_defect(rho: np.ndarray) -> float:
    """Max of PSD defect and |tr - 1| over the blocks of a stack ``(..., d, d)``."""
    rho = _stack(rho)
    trace = np.trace(rho, axis1=-2, axis2=-1)
    # a non-finite trace needs a non-finite entry, so the first term is then inf
    return max(psd_defect(rho), float(np.max(np.abs(trace - 1.0), initial=0.0)))


def check_state(rho: np.ndarray, tol: float = TOL_ALG) -> np.ndarray:
    """``rho`` (a state or a stack of states) unless its worst block is further than ``tol``."""
    rho = _stack(rho)
    require(state_defect(rho), tol, "not a state")
    return rho


def check_channel(choi: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """``choi`` (a Choi matrix or a stack of them) unless one is not a channel."""
    choi = _stack(choi)
    cp, tp = channel_defects(choi, dims)
    require(float(np.max((cp, tp))), TOL_ALG,
            f"not the Choi matrix of a channel (cp {cp:.2e}, tp {tp:.2e})")
    return choi


def check_weights(weights) -> list[float]:
    """``weights`` as floats unless they are not non-negative summing to one."""
    weights = [float(w) for w in weights]
    require(float(np.max([*np.negative(weights), abs(sum(weights) - 1.0)])), TOL_ALG,
            "weights must be non-negative and sum to one")
    return weights


def nullspace(mat: np.ndarray, tol: float = EIG_CLAMP) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel; singular values < tol are zero."""
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return np.eye(mat.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(mat)
    rank = int(np.sum(s >= tol))
    return dagger(vh)[:, rank:]


def orthonormal_columns(vectors: np.ndarray, tol: float = EIG_CLAMP) -> np.ndarray:
    """Orthonormal basis (columns) of the column span of ``vectors``."""
    vectors = np.asarray(vectors, dtype=complex)
    if vectors.ndim != 2 or vectors.shape[1] == 0:
        return vectors.reshape(vectors.shape[0], 0)
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    rank = int(np.sum(s >= tol * max(1.0, s[0] if s.size else 1.0)))
    return u[:, :rank]
