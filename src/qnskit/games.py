"""Non-local games as finite constraint systems on projection lattices.

A game is a list of pairs (U, V): on an input supported in U, a perfect
strategy must produce output supported in V.  A strategy passes when the
residual Tr(Lambda(P_U) (I - P_V)) vanishes for every constraint.  Games
over classical inputs carry input subspaces spanned by standard basis
vectors, so classical and classical-to-quantum strategies can be checked
against them directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .correlations import CqnsCorrelation, NsCorrelation, QnsCorrelation
from .graphs import Graph, SkewSymmetricSubspace
from .linalg import (TOL_ALG, Report, dagger, max_entangled_vector, nullspace,
                     orthonormality_defect, require, worst)


@dataclass(frozen=True)
class RuleFunction:
    """0/1 rule tensor over (x, y, a, b); 1 marks a winning answer pair."""

    table: np.ndarray

    def __post_init__(self):
        table = np.asarray(self.table)
        if table.ndim != 4:
            raise ValueError("rule tensor must have four axes (x, y, a, b)")
        if not np.isin(table, (0, 1)).all():
            raise ValueError("rule entries must be 0 or 1")
        object.__setattr__(self, "table", table.astype(np.int8))

    @property
    def in_dims(self) -> tuple[int, int]:
        return self.table.shape[0], self.table.shape[1]

    @property
    def out_dims(self) -> tuple[int, int]:
        return self.table.shape[2], self.table.shape[3]

    def allows(self, x: int, y: int, a: int, b: int) -> bool:
        return bool(self.table[x, y, a, b])


def compose_rules(outer: RuleFunction, inner: RuleFunction) -> RuleFunction:
    """Relational composition: a win iff some middle answer wins both games."""
    if inner.out_dims != outer.in_dims:
        raise ValueError("inner outputs do not match outer inputs")
    table = np.einsum("xyab,abzw->xyzw", inner.table.astype(int),
                      outer.table.astype(int))
    return RuleFunction((table > 0).astype(np.int8))


@dataclass(frozen=True)
class _Stack:
    """The constraints of a game that share one (U, V) shape, stacked for one pass.

    For a classical-input game ``support`` marks the standard basis vectors
    that span each input subspace."""

    index: np.ndarray        # constraint numbers, ascending
    u: np.ndarray            # (g, din, ku)
    v: np.ndarray            # (g, dout, kv)
    support: np.ndarray | None


@dataclass(frozen=True)
class ConstraintGame:
    """Finite list of (input subspace, output subspace) constraints; each subspace comes
    as orthonormal columns, which construction checks and never recomputes."""

    in_dims: tuple[int, int]
    out_dims: tuple[int, int]
    classical_input: bool
    constraints: tuple[tuple[np.ndarray, np.ndarray], ...]
    rule: RuleFunction | None = None

    def __post_init__(self):
        din = self.in_dims[0] * self.in_dims[1]
        dout = self.out_dims[0] * self.out_dims[1]
        cleaned = tuple((np.asarray(u, dtype=complex).reshape(din, -1),
                         np.asarray(v, dtype=complex).reshape(dout, -1))
                        for u, v in self.constraints)
        object.__setattr__(self, "constraints", cleaned)
        if not all(orthonormality_defect(s.u, s.v) <= TOL_ALG for s in self._stacks):
            # only a game that fails is searched for its first failing constraint
            k = next(k for k, uv in enumerate(cleaned) if not orthonormality_defect(*uv) <= TOL_ALG)
            require(orthonormality_defect(*cleaned[k]), TOL_ALG,
                    f"constraint {k}: subspaces must have orthonormal columns")
        if self.classical_input:
            # each input subspace is spanned by as many standard basis vectors as it has columns
            unspanned = [int(s.index[np.argmax(bad)]) for s in self._stacks
                         if (bad := s.support.sum(axis=1) != s.u.shape[2]).any()]
            if unspanned:
                raise ValueError(f"constraint {min(unspanned)}: input subspace is not "
                                 "spanned by standard basis vectors")

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    @cached_property
    def _stacks(self) -> tuple[_Stack, ...]:
        """The constraints grouped by (U, V) shape; a colouring game has at most two groups."""
        groups: dict[tuple, list[int]] = {}
        for k, (u, v) in enumerate(self.constraints):
            groups.setdefault((u.shape, v.shape), []).append(k)
        stacks = []
        for index in groups.values():
            u = np.stack([self.constraints[k][0] for k in index])
            v = np.stack([self.constraints[k][1] for k in index])
            support = np.sum(np.abs(u) ** 2, axis=2) > 0.5 if self.classical_input else None
            stacks.append(_Stack(np.array(index), u, v, support))
        return tuple(stacks)


def _unit_columns(n: int, rows) -> np.ndarray:
    """The columns e_r, r in ``rows``, of the n x n identity, without forming it."""
    rows = np.asarray(rows, dtype=int).reshape(-1)
    out = np.zeros((n, len(rows)), dtype=complex)
    out[rows, np.arange(len(rows))] = 1.0
    return out


def from_rule(rule: RuleFunction | np.ndarray) -> ConstraintGame:
    """One constraint per question pair; winning answers span the output space."""
    if not isinstance(rule, RuleFunction):
        rule = RuleFunction(np.asarray(rule))
    dx, dy = rule.in_dims
    da, db = rule.out_dims
    wins = rule.table.reshape(dx * dy, da * db)
    constraints = tuple((_unit_columns(dx * dy, k), _unit_columns(da * db, np.flatnonzero(row)))
                        for k, row in enumerate(wins))
    return ConstraintGame((dx, dy), (da, db), True, constraints, rule)


def colouring_game(graph: Graph, a_dim: int, synchronous: bool = False) -> ConstraintGame:
    """One constraint per ordered edge: outputs must avoid the entangled line.

    With ``synchronous=True`` diagonal question pairs additionally demand
    equal answers, matching the classical colouring rules.
    """
    n = graph.n
    v_edge = _orthocomplement_of_entangled(a_dim)
    constraints = [(_unit_columns(n * n, k), v_edge) for k in graph.ordered_edges() @ [n, 1]]
    if synchronous:
        v_diag = _unit_columns(a_dim * a_dim, np.arange(a_dim) * (a_dim + 1))
        constraints += [(_unit_columns(n * n, x * (n + 1)), v_diag) for x in range(n)]
    return ConstraintGame((n, n), (a_dim, a_dim), True, tuple(constraints))


def _orthocomplement_of_entangled(dim: int) -> np.ndarray:
    v = max_entangled_vector(dim).reshape(-1, 1) / np.sqrt(dim)
    return nullspace(dagger(v))


def homomorphism_game(u: SkewSymmetricSubspace, v: SkewSymmetricSubspace) -> ConstraintGame:
    """Single-constraint game sending the source subspace into the target one."""
    return ConstraintGame((u.n, u.n), (v.n, v.n), False,
                          ((u.basis, v.basis),))


def _apply_strategy(strategy, game: ConstraintGame, stack: _Stack) -> np.ndarray:
    """The images Lambda(P_U) of the input subspaces of ``stack``, as a stack (g, dout, dout)."""
    if isinstance(strategy, QnsCorrelation):
        return strategy.apply(stack.u @ dagger(stack.u))
    if not game.classical_input:
        raise ValueError("classical strategies only apply to classical-input games")
    # the (x, y) pairs spanning each input subspace, in ascending order
    rows = np.nonzero(stack.support)[1].reshape(len(stack.index), -1)
    x, y = np.divmod(rows, game.in_dims[1])
    if isinstance(strategy, CqnsCorrelation):
        return strategy.states[x, y].sum(axis=1)
    if isinstance(strategy, NsCorrelation):
        diag = strategy.table[x, y].sum(axis=1).reshape(len(rows), -1)
        images = np.zeros(diag.shape + diag.shape[-1:], dtype=complex)
        i = np.arange(diag.shape[-1])
        images[:, i, i] = diag
        return images
    raise TypeError(f"unsupported strategy type {type(strategy)!r}")


def perfect_strategy_check(game: ConstraintGame, strategy,
                           tol: float = TOL_ALG) -> Report:
    """Per-constraint residuals Tr(Lambda(P_U) (I - P_V)), one batched pass per (U, V) shape."""
    d = strategy.dims
    if (d.x, d.y) != game.in_dims or (d.a, d.b) != game.out_dims:
        raise ValueError(f"strategy dims {(d.x, d.y, d.a, d.b)} do not match game "
                         f"{game.in_dims + game.out_dims}")
    dout = game.out_dims[0] * game.out_dims[1]
    residuals = np.zeros(game.n_constraints)
    for stack in game._stacks:
        images = _apply_strategy(strategy, game, stack)
        comp = np.eye(dout) - stack.v @ dagger(stack.v)
        residuals[stack.index] = np.abs(np.real(np.trace(images @ comp, axis1=1, axis2=2)))
    return Report({"max_residual": worst(residuals)}, tol, {"residuals": residuals.tolist()})


def _subspace_leq(v: np.ndarray, u: np.ndarray) -> bool:
    """Is span(v) contained in span(u)?"""
    return worst(v - u @ (dagger(u) @ v)) <= TOL_ALG


def _intersect(subspaces: list[np.ndarray], dim: int) -> np.ndarray:
    """Orthonormal basis of the intersection; empty list gives the full space."""
    if not subspaces:
        return np.eye(dim, dtype=complex)
    # sum_s (I - P_s) = k I - C C*, with C the columns of every subspace side by side
    cols = np.concatenate(subspaces, axis=1)
    total = len(subspaces) * np.eye(dim) - cols @ dagger(cols)
    w, vecs = np.linalg.eigh((total + dagger(total)) / 2)
    keep = w < TOL_ALG
    return vecs[:, keep]


def compose_games(outer: ConstraintGame, inner: ConstraintGame) -> ConstraintGame:
    """Compose games; rule games compose through their rule tensors.

    For general constraint lists each inner constraint (U, V) is mapped to
    (U, wedge of outer targets whose sources contain V), the join-continuous
    upper bound of the composed game on the listed data.
    """
    if inner.out_dims != outer.in_dims:
        raise ValueError("inner outputs do not match outer inputs")
    if inner.rule is not None and outer.rule is not None:
        return from_rule(compose_rules(outer.rule, inner.rule))
    dout = outer.out_dims[0] * outer.out_dims[1]
    constraints = []
    for u, v in inner.constraints:
        targets = [v2 for u2, v2 in outer.constraints if _subspace_leq(v, u2)]
        constraints.append((u, _intersect(targets, dout)))
    return ConstraintGame(inner.in_dims, outer.out_dims, inner.classical_input,
                          tuple(constraints))
