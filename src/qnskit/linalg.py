"""Dense complex-matrix kernel for composite quantum systems.

All composite indices are lexicographic with the leftmost tensor factor most
significant.  Choi matrices of a map M_in -> M_out are indexed by rows
(in, out) and columns (in', out'); under this convention the Choi matrix of
the identity channel is the non-normalised maximally entangled matrix.
"""

from __future__ import annotations

import math
import operator
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

#: Relative slack on the norm bounds by which ``max_commutator`` skips a commutator,
#: so that rounding in either norm cannot skip the one with the largest 2-norm.  The
#: commuting gate runs that exact kernel only where ``stochastic.commutator_bound``
#: cannot pass the pair, so it serves the failing path.
PRUNE_MARGIN = 1e-9

#: Not a tolerance: the margin s by which ``psd_defect`` shifts each n x n block of a
#: Hermitian part H before one Cholesky factorisation,
#: ``CHOLESKY_MARGIN * (n + 1) * (eps * sum|h_ii| + n * tiny)``.  When every block's s is
#: at most ``TOL_ALG``, a factorisation of H + (s/4) I that completes proves that H
#: reaches at most s below zero, and the block reads s; otherwise a factorisation of
#: H - s I that completes proves that ``eigvalsh`` would read no negative eigenvalue,
#: because s lies above the rounding error of both LAPACK calls (both derived at
#: ``hermiticity_and_psd_defect``).
CHOLESKY_MARGIN = 4.0
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).smallest_subnormal)


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


def positive(value, what: str) -> None:
    """Refuse ``value`` unless it is a positive finite real (not a bool, string or NaN)."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)) \
            or not 0 < value < float("inf"):  # NaN fails
        raise ValueError(f"{what} must be positive and finite, got {value!r}")


def worst(*residuals) -> float:
    """Largest absolute entry over ``residuals``, any mix of arrays and numbers.

    Every residual reduction of the package goes through here: empty input
    reads 0.0, and a NaN anywhere reads NaN, so ``worst(...) <= tol`` fails
    closed; inf stays inf.
    """
    out = 0.0
    for r in residuals:
        a = abs(r) if type(r) is float else float(np.abs(r).max(initial=0.0))
        if a > out:
            out = a
        elif a != a:  # NaN
            return a
    return out


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

    def __post_init__(self):
        positive(self.tol, "tolerance")

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
        require(worst(*self.checks.values()), self.tol, f"{what}: {self.checks}")


def asmatrix(m) -> np.ndarray:
    out = np.asarray(m, dtype=complex)
    if out.ndim != 2:
        raise ValueError(f"expected a matrix, got array of shape {out.shape}")
    return out


def readonly(m) -> np.ndarray:
    """A complex copy of ``m`` that refuses writes, for data checked once and then trusted.

    An array this function made (complex, owning its data, refusing writes) is
    returned as it is, so objects built from one another share it uncopied.
    """
    if isinstance(m, np.ndarray) and m.dtype == complex and m.base is None \
            and not m.flags.writeable:
        return m
    out = np.array(m, dtype=complex)
    out.flags.writeable = False
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
    # inf - inf on a diagonal is NaN, which fails; a finite m - m* that overflows reads inf
    with np.errstate(over="ignore", invalid="ignore"):
        diff = m - dagger(m)
    return worst(diff)


def _margin(h: np.ndarray) -> np.ndarray:
    """The margin ``CHOLESKY_MARGIN * (n + 1) * (eps * sum|h_ii| + n * tiny)`` of every
    n x n block of ``h``."""
    n = h.shape[-1]
    with np.errstate(over="ignore"):  # a diagonal summing past the largest float reads inf
        return CHOLESKY_MARGIN * (n + 1) * (
            _EPS * np.sum(np.abs(np.einsum("...ii->...i", h).real), axis=-1) + n * _TINY)


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), u = eps / 2: the relative error of k roundings."""
    return k * _EPS / (2 - k * _EPS)


def _cholesky_completes(h: np.ndarray, shift: np.ndarray) -> bool:
    """True when every block of the Hermitian stack ``h`` plus its ``shift`` times I has a
    Cholesky factor with a finite diagonal.

    ``h`` is shifted in place and restored bit for bit before this returns.
    """
    diagonal = np.einsum("...ii->...i", h)  # a writable view
    saved = diagonal.copy()
    shifted = saved.real + shift[..., None]
    if not (shifted > 0).all():  # a diagonal pivot <= 0 (or NaN) fails the factorisation
        return False
    try:
        diagonal[...] = shifted
        factor = np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        return False
    finally:
        diagonal[...] = saved
    # LAPACK may carry a NaN pivot through instead of failing; a non-finite h gives one
    return bool(np.isfinite(np.einsum("...ii->...i", factor)).all())


def hermiticity_and_psd_defect(m: np.ndarray) -> tuple[float, float]:
    """``(hermiticity_defect(m), psd_defect(m))`` with the Hermiticity defect taken once.

    The PSD defect is ``worst(herm, min(lam, 0))`` for the smallest eigenvalue
    ``lam`` that ``eigvalsh`` computes of each Hermitian part H = (m + m*)/2,
    unless one Cholesky factorisation of every block settles it first.  With u = eps/2,
    d = sum|h_ii| of an n x n block and s = 4 (n + 1)(eps d + n tiny) =
    8 (n + 1) u d + ..., a completed complex Cholesky factor R of A = fl(H + cI), for a
    shift c, has R*R = A + E with |E| <= 2 (n + 1) u |R*||R| plus, under gradual
    underflow, 2 (n + 1) tiny per entry (Demmel; Higham, *Accuracy and Stability of
    Numerical Algorithms*, Thm 10.5 and section 3.6; Rump, BIT 46, 2006), so
    ||E||_2 <= 2 (n + 1)(u tr A + n tiny) to first order.

    1. When every block has s <= ``TOL_ALG``, one factorisation of every block of
       H + tI, t = s/4, is tried.  When it completes, it bounds the depth below zero
       (Rump's certificate): tr A <= d + n t, so
       ||E||_2 <= 2 (n + 1)(u (d + n t) + n tiny) <= s/2 + eps n (n + 1) t to first
       order, and the rounded shift is off by at most u (d + t) on the diagonal.  R*R is
       PSD, so lambda_min(H) >= -(t + s/2 + eps n (n + 1) t + u (d + t)) >= -s, since
       u d <= t / (2 (n + 1)) and eps n (n + 1) <= 1/4 for n < 3 * 10^7.  The value is
       then ``worst(herm, s)``, with no eigensolve: at most ``TOL_ALG`` and at least
       the true depth of lambda_min(H) below zero, where ``eigvalsh`` reads that depth
       only to within p(n) u ||H||_2, so a check at ``TOL_ALG`` decides as on that
       reading.
    2. When some block has s above ``TOL_ALG`` (its trace is above about
       1e-9 / (8 (n + 1) u)), so that the value s could not pass a check at
       ``TOL_ALG``, one factorisation of every block of H - sI is tried instead.  When
       it completes, the value is ``herm`` exactly.  s covers

       - the factorisation: tr A <= d, so ||E||_2 <= 2 (n + 1)(u d + n tiny) <= s/2
         to first order;
       - the rounded shift: at most u (d + s) on the diagonal;
       - the eigensolver: ``eigvalsh`` returns the eigenvalues of H + F with
         ||F||_2 <= p(n) u ||H||_2 (LAPACK Users' Guide, section 4.7), and
         ||H||_2 <= tr H <= d once H is shown PSD.

       Hence the computed smallest eigenvalue is at least (5 (n + 1) - p(n)) u d,
       which is >= 0 for any p(n) <= 5 (n + 1).

    A stack falls back to one batched ``eigvalsh`` of the same H as a whole when the
    one factorisation it tries has a shifted diagonal entry <= 0 or does not factor.
    """
    m = _stack(m)
    # m* in one transposed pass into a C-ordered buffer, so that m - m*, m + m* and the
    # halving below walk matching layouts
    conj = np.conjugate(np.swapaxes(m, -1, -2), out=np.empty(m.shape, complex))
    # inf - inf on a diagonal is NaN, which fails; an overflowed or non-finite H reads inf
    with np.errstate(over="ignore", invalid="ignore"):
        herm = worst(m - conj)
        h = np.add(m, conj, out=conj)  # H takes over the conjugate copy
        halves = h.view(float)  # real halving: complex division is slower
        halves /= 2
    if not np.isfinite(h).all():
        return herm, float("inf")
    margin = _margin(h)
    if (margin <= TOL_ALG).all():
        if _cholesky_completes(h, margin / 4):
            return herm, worst(herm, margin)
    elif _cholesky_completes(h, -margin):
        return herm, herm
    # H formed again: the real halving differs from the complex one in the sign of zero
    # entries, which no factorisation reads but the eigensolve can
    lam = np.linalg.eigvalsh((m + dagger(m)) / 2)[..., :1]
    return herm, worst(herm, np.minimum(lam, 0.0))


def psd_defect(m: np.ndarray) -> float:
    """How far the worst block of a stack ``(..., d, d)`` is from positive semidefinite.

    The larger of the Hermiticity defect and the depth below zero of the spectra
    of the Hermitian parts H.  When every block's margin above rounding is at most
    ``TOL_ALG``, one Cholesky factorisation of H shifted up by a quarter of it proves
    each block to reach at most its margin below zero, and the depth reads the largest
    margin.  Otherwise one factorisation of H shifted down by the margin proves every
    block positive definite, and the depth reads zero.  Anything else reads the
    smallest eigenvalue that one batched ``eigvalsh`` computes.  Non-finite input
    anywhere, or a Hermitian part that overflows, reads as infinitely far.
    Never raises, so every check built on it fails closed.
    """
    return hermiticity_and_psd_defect(m)[1]


def orthonormality_defect(*bases: np.ndarray) -> float:
    """Largest entry of B* B - I over the ``bases``, each a matrix or a stack
    ``(..., n, k)`` of them: zero when every one has orthonormal columns."""
    return worst(*(dagger(b) @ b - np.eye(b.shape[-1]) for b in bases))


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


#: The readings of a correlation in the subscripts of its Choi matrix (rows x, y, a, b;
#: columns X, Y, A, B): name -> (the result's axes, each a group of output subscripts;
#: the column subscripts set to row ones).  QNS data is the whole Choi matrix, CQNS data
#: its states on classical inputs, NS data its real table on classical inputs and outputs.
READINGS = {"choi": (("xyab", "XYAB"), {}),
            "states": (("x", "y", "ab", "AB"), {"X": "x", "Y": "y"}),
            "table": (("x", "y", "a", "b"), {"X": "x", "Y": "y", "A": "a", "B": "b"})}


def reading(name: str, spec: str, *operands) -> np.ndarray:
    """The reading ``name`` (:data:`READINGS`) of ``operands`` contracted by ``spec``, input
    subscripts in Choi letters: the Choi matrix (n, n), states (x, y, ab, ab) or table."""
    axes, fixed = READINGS[name]
    out = "".join(axes)
    # einsum's path planning costs a single operand more than it saves
    t = np.einsum(f"{spec.translate(str.maketrans(fixed))}->{out}", *operands,
                  optimize=len(operands) > 1)
    size = dict(zip(out, t.shape))
    t = t.reshape([math.prod(size[s] for s in axis) for axis in axes])
    return np.real(t) if name == "table" else t


def _choi4(choi: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """A Choi matrix, or a stack ``(..., n, n)`` of them, with indices (..., in, out, in, out)."""
    choi = _stack(choi)
    din, dout = int(dims[0]), int(dims[1])
    if choi.shape[-2:] != (din * dout, din * dout):
        raise ValueError(f"Choi shape {choi.shape[-2:]} does not match dims {(din, dout)}")
    return choi.reshape(*choi.shape[:-2], din, dout, din, dout)


def apply_choi(choi: np.ndarray, dims: tuple[int, int], rho: np.ndarray) -> np.ndarray:
    """Apply the map with the given Choi matrix to ``rho``, or to every matrix
    of a stack ``(..., din, din)``.

    ``dims`` is the (input, output) dimension pair; the Choi matrix carries
    composite row index (in, out).
    """
    c4 = _choi4(asmatrix(choi), dims)
    rho = _stack(rho)
    if rho.shape[-2:] != c4.shape[::2]:
        raise ValueError(f"input state shape {rho.shape} does not match input dim {len(c4)}")
    return np.einsum("...ij,ikjl->...kl", rho, c4)


def choi_compose(choi2: np.ndarray, dims2: tuple[int, int],
                 choi1: np.ndarray, dims1: tuple[int, int]) -> np.ndarray:
    """Choi matrix of map2 after map1, or of each pair of two broadcast stacks ``(..., n, n)``."""
    (d_in, d_mid), (d_mid2, d_out) = map(int, dims1), map(int, dims2)
    if d_mid != d_mid2:
        raise ValueError(f"inner dimensions differ: {d_mid} vs {d_mid2}")
    c1 = _choi4(choi1, dims1).swapaxes(-3, -2)  # (..., i, j, a, b)
    c2 = _choi4(choi2, dims2).swapaxes(-3, -2)  # (..., a, b, k, l)
    out = (c1.reshape(*c1.shape[:-4], d_in ** 2, d_mid ** 2)
           @ c2.reshape(*c2.shape[:-4], d_mid ** 2, d_out ** 2))
    out = out.reshape(*out.shape[:-2], d_in, d_in, d_out, d_out).swapaxes(-3, -2)
    return out.reshape(*out.shape[:-4], d_in * d_out, d_in * d_out)


def tp_residual(choi: np.ndarray, dims: tuple[int, int]) -> float:
    """Largest entry of Tr_out(C) - I over the Choi matrices of a stack: zero when
    every one is trace preserving."""
    return worst(np.einsum("...iaja->...ij", _choi4(choi, dims)) - np.eye(int(dims[0])))


def channel_defects(choi: np.ndarray, dims: tuple[int, int]) -> tuple[float, float]:
    """(CP defect, trace-preservation residual) of the worst Choi matrix of a stack."""
    tp = tp_residual(choi, dims)
    return psd_defect(choi), tp


def state_defect(rho: np.ndarray) -> float:
    """Max of PSD defect and |tr - 1| over the blocks of a stack ``(..., d, d)``."""
    rho = _stack(rho)
    with np.errstate(over="ignore"):  # a trace summing past the largest float reads inf
        trace = np.trace(rho, axis1=-2, axis2=-1)
    # max, not worst: a NaN trace needs a non-finite entry, so the first term is then
    # inf, and non-finite input reads inf here even when the trace is NaN
    return max(psd_defect(rho), worst(trace - 1.0))


def check_state(rho: np.ndarray, tol: float = TOL_ALG) -> np.ndarray:
    """``rho`` (a state or a stack of states) unless its worst block is further than ``tol``."""
    rho = _stack(rho)
    require(state_defect(rho), tol, "not a state")
    return rho


def check_channel(choi: np.ndarray, dims: tuple[int, int]) -> np.ndarray:
    """``choi`` (a Choi matrix or a stack of them) unless one is not a channel."""
    choi = _stack(choi)
    cp, tp = channel_defects(choi, dims)
    require(worst(cp, tp), TOL_ALG,
            f"not the Choi matrix of a channel (cp {cp:.2e}, tp {tp:.2e})")
    return choi


def dimensions(dims, what: str = "dimensions", least: int = 1) -> tuple[int, ...]:
    """``dims`` as ints unless one is not an integer >= ``least``: numpy integers pass,
    and a float, string or bool is refused by value."""
    for d in dims:
        if isinstance(d, bool) or not hasattr(d, "__index__"):
            raise ValueError(f"{what} must be integers, got {d!r}")
    dims = tuple(map(operator.index, dims))
    if any(d < least for d in dims):
        raise ValueError(f"{what} must be >= {least}")
    return dims


def check_weights(weights) -> list[float]:
    """``weights`` as floats unless they are not non-negative summing to one."""
    weights = [float(w) for w in weights]
    require(worst(np.minimum(weights, 0.0), sum(weights) - 1.0), TOL_ALG,
            "weights must be non-negative and sum to one")
    return weights


def nullspace(mat: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel; singular values < EIG_CLAMP are zero."""
    mat = np.asarray(mat, dtype=complex)
    if mat.size == 0:
        return np.eye(mat.shape[1], dtype=complex)
    _, s, vh = np.linalg.svd(mat)
    rank = int(np.sum(s >= EIG_CLAMP))
    return dagger(vh)[:, rank:]


def orthonormal_columns(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis (columns) of the column span of ``vectors``."""
    vectors = np.asarray(vectors, dtype=complex)
    if vectors.ndim != 2 or vectors.shape[1] == 0:
        return vectors.reshape(vectors.shape[0], 0)
    u, s, _ = np.linalg.svd(vectors, full_matrices=False)
    rank = int(np.sum(s >= EIG_CLAMP * max(1.0, s[0] if s.size else 1.0)))
    return u[:, :rank]
