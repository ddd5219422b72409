"""Seeded inputs for the workloads, generated with numpy alone.

Nothing here imports qnskit, so the same seed gives the same inputs on every
commit of the package under test.  Dimensions and graph sizes are fixed per
workload; the seed only draws the random matrices and the random graphs.
"""

from __future__ import annotations

import itertools
import json
import math
import os

import numpy as np

#: Paley graphs whose theta is sqrt(q).
PALEY_Q = (13, 17, 29)
#: Odd cycles with closed-form theta.
ODD_CYCLES = (5, 7, 9, 11, 13, 15)
#: Odd cycles whose complements are solved too (closed form 1 + 1/cos(pi/n)).
CO_CYCLES = (9, 11, 13, 15)
#: Fixed graphs solved three times per round.  All fixed graphs converge in
#: 7-8 iterations; these mid-sized ones (0.15-0.3 s) form the middle of a
#: round, so the median solve time is taken over many similar solves and
#: does not depend on the seed.
REPEATED = ("Paley(13)", "co-C11", "co-C13")
#: Sizes of the seeded half-density graphs; each is solved with its complement.
#: Their iteration count varies with the seed (9 to 15 at n = 16 to 20) and
#: a solve costs about n^6 per iteration, so they are kept small enough that
#: the seed's share of a round's time stays small.
RANDOM_N = (16, 16)

# Witness configurations carry a count of seeded instances per round.  The
# mid-sized ones (30-45 ms each) come three times, so the median operation
# of a round falls inside one cluster of similar operations rather than on
# the edge between a fast and a slow one.

#: Quantum tensor pairs: (dims of E, dims of F, instances), dims (dim_x, dim_a, dim_h).
QUANTUM_PAIRS = (((2, 2, 2), (2, 2, 2), 1), ((3, 3, 3), (3, 3, 3), 3),
                 ((2, 3, 4), (3, 2, 2), 1), ((4, 4, 2), (4, 4, 2), 1),
                 ((4, 4, 4), (4, 4, 4), 1))
#: Commuting pairs (E (x) I, I (x) F) on H_A (x) H_B, same layout as above.
COMMUTING_PAIRS = (((3, 3, 2), (3, 3, 2), 3), ((2, 3, 3), (3, 2, 2), 1),
                   ((4, 4, 2), (4, 4, 2), 1))
#: Local mixtures: (terms, dim_x, dim_y, dim_a, dim_b, instances).
LOCAL_MIXTURES = ((3, 3, 3, 3, 3, 1), (2, 4, 4, 4, 4, 3))
#: Tracial witnesses: (dim_x, dim_a, algebra block dims, weights, instances).
TRACIAL = ((3, 3, (1, 2), (0.4, 0.6), 1), (4, 4, (2,), (1.0,), 3))
#: kd2 colourings of the complete graph on d^2 vertices: (d, instances).
KD2_D = ((2, 1), (3, 3), (4, 1))

#: CLI witnesses for `build quantum`: name -> (dim_x, dim_a, dim_h) of E and F.
CLI_WITNESSES = {"w3": (3, 3, 3), "w4": (4, 4, 4)}
#: Graph for `qnskit theta` in the CLI loop.
CLI_THETA_Q = 13


# ---------------------------------------------------------------------------
# Graphs


def paley_edges(q: int) -> list[tuple[int, int]]:
    squares = {k * k % q for k in range(1, q)}
    return [(i, j) for i, j in itertools.combinations(range(q), 2)
            if (j - i) % q in squares]


def cycle_edges(n: int) -> list[tuple[int, int]]:
    return sorted((min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n))


def half_graph_pair(rng, n: int):
    """A uniform graph with half of the n(n-1)/2 possible edges, and its complement.

    Fixing the edge count (rather than flipping a coin per pair) keeps the
    number of SDP constraints, and with it the work, the same on every seed.
    """
    pairs = list(itertools.combinations(range(n), 2))
    chosen = set(rng.choice(len(pairs), len(pairs) // 2, replace=False).tolist())
    edges = [p for k, p in enumerate(pairs) if k in chosen]
    complement = [p for k, p in enumerate(pairs) if k not in chosen]
    return edges, complement


def theta_catalogue(seed: int) -> list[dict]:
    """Graphs of the theta workload in solve order; names are unique per graph.

    `complement_of` names a graph solved earlier in the round.
    """
    rng = np.random.default_rng([seed, 1])
    out = [{"name": f"Paley({q})", "n": q, "edges": paley_edges(q),
            "closed_form": math.sqrt(q)} for q in PALEY_Q]
    for n in ODD_CYCLES:
        c = math.cos(math.pi / n)
        out.append({"name": f"C{n}", "n": n, "edges": cycle_edges(n),
                    "closed_form": n * c / (1 + c)})
    for n in CO_CYCLES:
        cycle = set(cycle_edges(n))
        out.append({"name": f"co-C{n}", "n": n,
                    "edges": [p for p in itertools.combinations(range(n), 2) if p not in cycle],
                    "closed_form": 1 + 1 / math.cos(math.pi / n), "complement_of": f"C{n}"})
    for k, n in enumerate(RANDOM_N):
        edges, complement = half_graph_pair(rng, n)
        out.append({"name": f"G({n},1/2)#{k}", "n": n, "edges": edges})
        out.append({"name": f"co-G({n},1/2)#{k}", "n": n, "edges": complement,
                    "complement_of": f"G({n},1/2)#{k}"})
    return [g for g in out for _ in range(3 if g["name"] in REPEATED else 1)]


# ---------------------------------------------------------------------------
# Matrices


def _gaussian(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_state(rng, dim: int) -> np.ndarray:
    g = _gaussian(rng, dim, dim)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_stochastic(rng, dim_x: int, dim_a: int, dim_h: int) -> np.ndarray:
    """Matrix M^* M on X (x) A (x) H, M an isometry column-blocked by (x, h).

    Row k of M, column (x, a, h) holds V[a][k, (x, h)] for an isometry
    V = (V[a])_a from C^{X H} into C^A (x) C^K, so that summing the diagonal
    A blocks gives the identity on X (x) H.
    """
    size = dim_x * dim_h
    q, _ = np.linalg.qr(_gaussian(rng, dim_a * size, size))
    v = q.reshape(dim_a, size, dim_x, dim_h)               # V[a][k, (x, h)]
    m = np.transpose(v, (1, 2, 0, 3)).reshape(size, dim_x * dim_a * dim_h)
    e = m.conj().T @ m
    return (e + e.conj().T) / 2


def random_channel_choi(rng, dim_in: int, dim_out: int, kraus: int = 2) -> np.ndarray:
    """Choi matrix with rows (in, out) of a channel with `kraus` Kraus operators."""
    q, _ = np.linalg.qr(_gaussian(rng, dim_out * kraus, dim_in))
    k = q.reshape(dim_out, kraus, dim_in)                   # K_j[o, i]
    c = np.einsum("oji,pjl->iolp", k, k.conj())
    return c.reshape(dim_in * dim_out, dim_in * dim_out)


def signalling_choi(dx: int, dy: int, da: int, db: int) -> np.ndarray:
    """Classical channel that outputs a = y mod A and b = x mod B.

    Both outputs depend on the other party's input, so the channel breaks
    both marginal conditions whenever the inputs and outputs are nontrivial.
    """
    c = np.zeros((dx, dy, da, db, dx, dy, da, db))
    for x, y in itertools.product(range(dx), range(dy)):
        c[x, y, y % da, x % db, x, y, y % da, x % db] = 1.0
    n = dx * dy * da * db
    return c.reshape(n, n).astype(complex)


# ---------------------------------------------------------------------------
# JSON encoders for the CLI payloads


def matrix_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    flat = m.reshape(-1)
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]),
            "data": np.stack([flat.real, flat.imag], axis=1).tolist()}


def vector_json(v: np.ndarray) -> list:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return np.stack([v.real, v.imag], axis=1).tolist()


def stochastic_json(mat: np.ndarray, dims) -> dict:
    return {"dimX": dims[0], "dimA": dims[1], "dimH": dims[2], "matrix": matrix_json(mat)}


def entangled_complement(d: int) -> np.ndarray:
    """Orthonormal basis (columns) of the complement of sum_a e_a (x) e_a.

    The off-diagonal basis vectors e_a (x) e_b (a != b) together with the
    Fourier vectors sum_a w^{ka} e_a (x) e_a / sqrt(d), k = 1..d-1.
    """
    cols = []
    for a, b in itertools.product(range(d), repeat=2):
        if a != b:
            v = np.zeros(d * d, dtype=complex)
            v[a * d + b] = 1.0
            cols.append(v)
    w = np.exp(2j * np.pi / d)
    for k in range(1, d):
        v = np.zeros(d * d, dtype=complex)
        for a in range(d):
            v[a * d + a] = w ** (k * a) / math.sqrt(d)
        cols.append(v)
    return np.stack(cols, axis=1)


def colouring_game_json(n: int, d: int) -> dict:
    """Colouring game of the complete graph K_n with d colours."""
    v_cols = [vector_json(c) for c in entangled_complement(d).T]
    constraints = []
    for x, y in itertools.permutations(range(n), 2):
        u = np.zeros(n * n)
        u[x * n + y] = 1.0
        constraints.append({"U": [vector_json(u)], "V": v_cols})
    return {"inDims": [n, n], "outDims": [d, d], "classicalInput": True,
            "constraints": constraints}


def cli_witnesses(seed: int) -> dict:
    """The `build quantum` witnesses of the CLI loop: name -> (E, F, sigma, dims)."""
    rng = np.random.default_rng([seed, 3])
    out = {}
    for name, dims in CLI_WITNESSES.items():
        e = random_stochastic(rng, *dims)
        f = random_stochastic(rng, *dims)
        sigma = random_state(rng, dims[2] * dims[2])
        out[name] = (e, f, sigma, dims)
    return out


def write_cli_inputs(workdir: str, seed: int, own_choi) -> None:
    """Write every input file of the CLI loop into `workdir`.

    `own_choi(e, f, sigma, dims)` gives the reference Choi matrix of a
    witness; the signalling perturbation of the dims-3 correlation is made
    from it.
    """
    os.makedirs(workdir, exist_ok=True)

    def dump(name, obj):
        with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)

    witnesses = cli_witnesses(seed)
    for name, (e, f, sigma, dims) in witnesses.items():
        dump(f"{name}.json", {"E": stochastic_json(e, dims), "F": stochastic_json(f, dims),
                              "sigma": matrix_json(sigma)})
    e, f, sigma, dims = witnesses["w3"]
    dx, da = dims[0], dims[1]
    choi = 0.9 * own_choi(e, f, sigma, dims) + 0.1 * signalling_choi(dx, dx, da, da)
    dump("signalling.json", {"kind": "qns", "dims": {"X": dx, "Y": dx, "A": da, "B": da},
                             "choi": matrix_json(choi)})
    # a fixed NS table holding one NaN, which `verify` has to reject; json
    # writes it as a bare NaN token, which Python's decoder accepts
    table = np.full((2, 2, 2, 2), 0.25)
    table[0, 0, 0, 0] = float("nan")
    dump("nan.json", {"kind": "ns", "dims": {"X": 2, "Y": 2, "A": 2, "B": 2},
                      "table": table.tolist()})
    for d in (3, 4):
        dump(f"game{d}.json", colouring_game_json(d * d, d))
    q = CLI_THETA_Q
    dump("graph.json", {"n": q, "edges": [list(e) for e in paley_edges(q)]})
