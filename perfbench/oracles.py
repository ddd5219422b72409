"""Reference values computed apart from qnskit.

Every function here uses numpy (and networkx for graph bounds) on the raw
witness data, so a check compares the package against an independent
computation or against a property the method must have, never against a
stored copy of an earlier output.
"""

from __future__ import annotations

import numpy as np

#: Agreement between the package and an independent contraction.
TOL_MATCH = 1e-9
#: Residual tolerance of the package's own reports (its documented default).
TOL_REPORT = 1e-9
#: Theta: gap tolerance 1e-7 and feasibility 1e-8 bound the distance to optimum.
TOL_THETA = 1e-6
TOL_FEAS = 1e-7


def six(mat: np.ndarray, dims) -> np.ndarray:
    """View [x, a, h, x', a', h'] of a matrix on X (x) A (x) H."""
    dx, da, dh = dims
    return np.asarray(mat).reshape(dx, da, dh, dx, da, dh)


def quantum_choi(e, f, sigma, dims_e, dims_f) -> np.ndarray:
    """Choi[(x,y,a,b),(x',y',a',b')] = Tr[(E[x,x',a,a'] (x) F[y,y',b,b']) sigma]."""
    hk = dims_e[2], dims_f[2]
    s4 = np.asarray(sigma).reshape(hk[0], hk[1], hk[0], hk[1])
    c = np.einsum("xahXAH,ybkYBK,HKhk->xyabXYAB", six(e, dims_e), six(f, dims_f),
                  s4, optimize=True)
    n = dims_e[0] * dims_f[0] * dims_e[1] * dims_f[1]
    return c.reshape(n, n)


def quantum_table(e, f, sigma, dims_e, dims_f) -> np.ndarray:
    """p(a, b | x, y) = Tr[(E_xa (x) F_yb) sigma] from the diagonal blocks."""
    hk = dims_e[2], dims_f[2]
    ea = np.einsum("xahxaH->xahH", six(e, dims_e))
    fb = np.einsum("ybkybK->ybkK", six(f, dims_f))
    s4 = np.asarray(sigma).reshape(hk[0], hk[1], hk[0], hk[1])
    return np.einsum("xahH,ybkK,HKhk->xyab", ea, fb, s4, optimize=True).real


def local_choi(weights, alice, bob, dims) -> np.ndarray:
    """sum_i w_i A_i (x) B_i with the factors reordered to (x, y, a, b)."""
    dx, dy, da, db = dims
    c = sum(w * np.einsum("xaXA,ybYB->xyabXYAB", np.reshape(a, (dx, da, dx, da)),
                          np.reshape(b, (dy, db, dy, db)))
            for w, a, b in zip(weights, alice, bob))
    n = dx * dy * da * db
    return c.reshape(n, n)


def tracial_choi(blocks, block_dims, weights, dx, da) -> np.ndarray:
    """Entries tau(g[x,x',a,a'] g[y',y,b',b]) summed block by block."""
    out = 0
    for mat, d, w in zip(blocks, block_dims, weights):
        g = np.transpose(six(mat, (dx, da, d)), (0, 3, 1, 4, 2, 5))  # [x,x',a,a',h,k]
        # Tr(G1 G2) = sum_{h,k} G1[h,k] G2[k,h]
        out = out + (w / d) * np.einsum("xXaAhk,YyBbkh->xyabXYAB", g, g, optimize=True)
    n = dx * dx * da * da
    return out.reshape(n, n)


def classical_inputs(choi: np.ndarray, dims) -> np.ndarray:
    """States sigma[x, y] = Choi restricted to the input pair (x, y)."""
    dx, dy, da, db = dims
    c8 = choi.reshape(dx, dy, da * db, dx, dy, da * db)
    idx_x, idx_y = np.arange(dx), np.arange(dy)
    return c8[idx_x[:, None], idx_y[None, :], :, idx_x[:, None], idx_y[None, :], :]


def table_of_states(states: np.ndarray, dims) -> np.ndarray:
    dx, dy, da, db = dims
    return np.real(np.diagonal(states, axis1=2, axis2=3)).reshape(dx, dy, da, db)


def lift(states: np.ndarray, dims) -> np.ndarray:
    """Block-diagonal Choi matrix with the state family on the diagonal."""
    dx, dy, da, db = dims
    k = da * db
    c = np.zeros((dx, dy, k, dx, dy, k), dtype=complex)
    for x in range(dx):
        for y in range(dy):
            c[x, y, :, x, y, :] = states[x, y]
    n = dx * dy * k
    return c.reshape(n, n)


def compose(choi2: np.ndarray, dims2, choi1: np.ndarray, dims1) -> np.ndarray:
    """Choi matrix of map2 after map1; dims are (input size, output size)."""
    (din, dmid), (_, dout) = dims1, dims2
    c1 = choi1.reshape(din, dmid, din, dmid)
    c2 = choi2.reshape(dmid, dout, dmid, dout)
    return np.einsum("iajb,akbl->ikjl", c1, c2, optimize=True).reshape(din * dout, din * dout)


def max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


# ---------------------------------------------------------------------------
# Colourings


def colouring_defects(states: np.ndarray, n: int, d: int) -> dict:
    """Rank-one, trace-one and edge-overlap defects of a K_n colouring family.

    On every edge (x != y) the state must have zero overlap with the
    maximally entangled vector sum_a e_a (x) e_a.
    """
    s = np.asarray(states).reshape(n, n, d * d, d * d)
    herm = (s + np.conj(np.swapaxes(s, -1, -2))) / 2
    eig = np.linalg.eigvalsh(herm)                      # ascending, per state
    trace = np.trace(s, axis1=2, axis2=3)
    omega = np.eye(d).reshape(d * d)
    overlap = np.einsum("i,xyij,j->xy", omega, s, omega)
    off = ~np.eye(n, dtype=bool)
    return {"rank_one": float(max(np.max(np.abs(eig[..., :-1])), np.max(np.abs(eig[..., -1] - 1)))),
            "trace_one": float(np.max(np.abs(trace - 1))),
            "edge_overlap": float(np.max(np.abs(overlap[off])))}


# ---------------------------------------------------------------------------
# Theta


def theta_feasibility(x: np.ndarray, edges, value: float) -> float:
    """Worst violation of: X psd, Tr X = 1, X zero on edges, sum(X) = value."""
    x = np.asarray(x, dtype=float)
    idx = np.array(edges, dtype=int).reshape(-1, 2)
    on_edges = float(np.max(np.abs(x[idx[:, 0], idx[:, 1]]))) if len(idx) else 0.0
    psd = max(0.0, -float(np.linalg.eigvalsh((x + x.T) / 2)[0]))
    return max(psd, abs(float(np.trace(x)) - 1.0), on_edges,
               abs(float(np.sum(x)) - value) / max(1.0, abs(value)))


def theta_sandwich(n: int, edges) -> tuple[int, int]:
    """(alpha(G), an upper bound on chi(complement of G)) from networkx.

    alpha(G) is the maximum clique of the complement; any proper colouring
    of the complement bounds its chromatic number from above, and
    alpha(G) <= theta(G) <= chi(complement) holds for every graph.
    """
    import networkx as nx
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    co = nx.complement(g)
    _, alpha = nx.max_weight_clique(co, weight=None)
    colours = nx.greedy_color(co, strategy="largest_first")
    chi_bound = 1 + max(colours.values()) if colours else 0
    return int(alpha), int(chi_bound)


# ---------------------------------------------------------------------------
# CLI payloads


def decode_matrix(obj: dict) -> np.ndarray:
    a = np.asarray(obj["data"], dtype=float).reshape(obj["rows"], obj["cols"], 2)
    return a[..., 0] + 1j * a[..., 1]


def decode_states(obj: dict) -> np.ndarray:
    return np.array([[decode_matrix(m) for m in row] for row in obj["states"]])
