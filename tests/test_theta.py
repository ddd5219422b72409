import itertools
import tracemalloc

import numpy as np
import pytest

from qnskit.graphs import Graph, independence_number, lovasz_theta, xi_qc_lower_bound
from qnskit import theta
from qnskit.linalg import worst
from qnskit.theta import SolverError, solve_theta


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def test_theta_complete_graphs():
    for n in range(1, 11):
        assert lovasz_theta(Graph.complete(n)) == pytest.approx(1.0, abs=1e-6)


def test_theta_edgeless():
    for n in (1, 2, 5, 10):
        assert lovasz_theta(Graph.empty(n)) == pytest.approx(n, abs=1e-6)


def test_theta_c5():
    assert lovasz_theta(Graph.cycle(5)) == pytest.approx(np.sqrt(5), abs=1e-4)


def test_theta_petersen():
    assert lovasz_theta(petersen()) == pytest.approx(4.0, abs=1e-5)


def test_theta_perfect_graphs_match_independence():
    fixtures = [
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),          # path
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),  # 4-cycle
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),          # star
        Graph.from_edges(6, [(0, 1), (2, 3), (4, 5)]),          # perfect matching
    ]
    for g in fixtures:
        assert lovasz_theta(g) == pytest.approx(independence_number(g), abs=1e-6)


def test_theta_sandwich_on_random_graphs(rng):
    for _ in range(8):
        n = int(rng.integers(3, 11))
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                 if rng.random() < 0.4]
        g = Graph.from_edges(n, edges)
        th = lovasz_theta(g)
        assert independence_number(g) - 1e-6 <= th <= n + 1e-6


def test_dual_bound_brackets_value(rng):
    import itertools
    for trial in range(10):
        n = int(rng.integers(2, 10))
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < 0.5]
        result = solve_theta(n, edges)
        assert result.value <= result.dual_bound + 1e-9
        assert result.dual_bound - result.value <= 1e-6
    exact = solve_theta(5, [(i, (i + 1) % 5) for i in range(5)])
    assert exact.value - 1e-7 <= np.sqrt(5) <= exact.dual_bound + 1e-12


def test_theta_result_requires_its_dual_bound():
    # without it, xi_qc_lower_bound would read sqrt(n / nan)
    with pytest.raises(TypeError, match="dual_bound"):
        theta.ThetaResult(1.0, 0.0, 1)


def test_solution_is_feasible():
    g = Graph.cycle(5)
    result = solve_theta(g.n, g.edges)
    x = result.x_matrix
    assert np.trace(x) == pytest.approx(1.0, abs=1e-8)
    for i, j in g.edges:
        assert abs(x[i, j]) <= 1e-8
    assert np.linalg.eigvalsh(x)[0] >= -1e-9


def test_gap_respects_tolerance():
    result = solve_theta(5, [(i, (i + 1) % 5) for i in range(5)], tol=1e-9)
    assert result.gap <= 1e-9
    assert result.value == pytest.approx(np.sqrt(5), abs=1e-7)


def test_solver_is_deterministic():
    edges = [(i, (i + 1) % 7) for i in range(7)]
    first = solve_theta(7, edges)
    second = solve_theta(7, edges)
    assert first.value == second.value
    assert np.array_equal(first.x_matrix, second.x_matrix)


def test_solver_rejects_bad_input():
    with pytest.raises(ValueError):
        solve_theta(0, [])
    with pytest.raises(ValueError):
        solve_theta(3, [], tol=-1.0)
    for max_iter in (0, -1, 2.5):
        with pytest.raises(ValueError, match="iteration cap"):
            solve_theta(5, Graph.cycle(5).edges, max_iter=max_iter)


def test_iteration_cap_raises():
    with pytest.raises(SolverError):
        solve_theta(6, [(0, 1), (2, 3)], max_iter=1)


def test_xi_bounds():
    assert xi_qc_lower_bound(Graph.complete(4)) == pytest.approx(2.0, abs=1e-6)
    assert xi_qc_lower_bound(Graph.empty(7)) == pytest.approx(1.0, abs=1e-6)
    c5 = xi_qc_lower_bound(Graph.cycle(5))
    assert c5 == pytest.approx(5 ** 0.25, abs=1e-4)


def test_xi_bound_of_the_empty_graph_needs_no_solve():
    # solve_theta refuses 0 vertices, so the n = 0 case must return before it
    assert xi_qc_lower_bound(Graph.empty(0)) == 0.0
    assert xi_qc_lower_bound(Graph.empty(0), theta=1.0) == 0.0


def test_runtime_midsize():
    # n = 15 stays well under the time budget
    import time
    n = 15
    edges = list(itertools.combinations(range(n), 2))[::3]
    start = time.time()
    solve_theta(n, edges)
    assert time.time() - start < 10.0


@pytest.mark.parametrize("edge", [(-1, 2), (0, 0), (0, 5), (0, 1, 2), (0, 1.7), ("0", "2")])
def test_solve_theta_rejects_edges_outside_the_graph(edge):
    pair = len(edge) == 2 and all(isinstance(v, int) for v in edge)
    match = rf"edge \({edge[0]}, {edge[1]}\)" if pair else "pairs of integer vertices"
    with pytest.raises(ValueError, match=match):
        solve_theta(5, [edge])


@pytest.mark.parametrize("tol", [1e-12, 1e-14, 1e-30])
def test_tight_tolerance_converges_or_raises_solver_error(tol, rng):
    # near the optimum an iterate can lose definiteness in floating point, or its
    # gap <X, Z> turn negative; the solver must then fail closed, never leak a
    # LinAlgError or return a gap that certifies nothing
    graphs = [(5, Graph.cycle(5).edges), (13, paley(13).edges), (4, Graph.complete(4).edges)]
    for _ in range(20):
        n = int(rng.integers(2, 13))
        graphs.append((n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]))
    for n, edges in graphs:
        try:
            result = solve_theta(n, edges, tol=tol)
        except SolverError:
            continue
        assert 0 <= result.gap <= tol


def paley(q: int) -> Graph:
    squares = {k * k % q for k in range(1, q)}
    return Graph.from_edges(q, [e for e in itertools.combinations(range(q), 2)
                                if (e[1] - e[0]) % q in squares])


def test_theta_paley_61():
    # 915 edges: the dense Schur assembly would take about 915^2 * 61^2 flops an iteration
    g = paley(61)
    assert len(g.edges) == 915
    result = solve_theta(g.n, g.edges)
    assert result.value == pytest.approx(np.sqrt(61), abs=1e-6)
    assert result.value <= result.dual_bound + 1e-9


def _complement(g: Graph) -> Graph:
    adj = g.adjacency()
    return Graph.from_edges(g.n, [e for e in itertools.combinations(range(g.n), 2)
                                  if not adj[e]])


def test_chromatic_bound_divides_by_an_upper_bound_on_theta():
    # closed forms: theta(Paley(q)) = sqrt(q), theta(C_n) = n cos(pi/n) / (1 + cos(pi/n))
    # for odd n, and theta(G) theta(co-G) = n for a vertex-transitive G
    cases = [(paley(13), np.sqrt(13))]
    for n in range(5, 16, 2):
        theta = n * np.cos(np.pi / n) / (1 + np.cos(np.pi / n))
        cases += [(Graph.cycle(n), theta), (_complement(Graph.cycle(n)), n / theta)]
    for g, theta in cases:
        assert xi_qc_lower_bound(g) <= np.sqrt(g.n / theta), (g.n, len(g.edges))


# ---------------------------------------------------------------------------
# circulant graphs: Delsarte's LP in the DFT eigenvalues


def circulant(n: int, shifts) -> Graph:
    return Graph.from_edges(n, [(v, (v + s) % n) for s in shifts for v in range(n)])


def paley_shifts(q: int) -> list[int]:
    return sorted({k * k % q for k in range(1, q)})


def cycle_theta(n: int) -> float:
    return n * np.cos(np.pi / n) / (1 + np.cos(np.pi / n))


class _Recorder(theta._CirculantOperator):
    """The circulant operator, keeping the last y its adjoint saw: the final dual."""

    def adjoint(self, y):
        self.y = y
        return super().adjoint(y)


def _closed_forms():
    cases = [(f"Paley({q})", q, paley_shifts(q), np.sqrt(q)) for q in (61, 101, 1009)]
    for n in [*range(5, 62, 2), 101, 301, 1001]:
        cases.append((f"C{n}", n, [1], cycle_theta(n)))
        cases.append((f"co-C{n}", n, range(2, n // 2 + 1), n / cycle_theta(n)))
    cases += [(f"K{n}", n, range(1, n // 2 + 1), 1.0) for n in (1, 2, 3, 4, 9, 10)]
    cases += [(f"E{n}", n, [], float(n)) for n in (1, 2, 3, 7, 8)]
    return cases


@pytest.mark.parametrize("name, n, shifts, closed", _closed_forms(),
                         ids=[c[0] for c in _closed_forms()])
def test_circulant_path_meets_closed_forms(name, n, shifts, closed):
    # theta(Paley(q)) = sqrt(q), theta(C_n) = n cos(pi/n) / (1 + cos(pi/n)) for odd
    # n, theta(G) theta(co-G) = n for vertex-transitive G, theta(K_n) = 1 and
    # theta(E_n) = n
    g = circulant(n, shifts)
    edges = tuple(theta.edge_pairs(n, g.edges).T)
    assert np.array_equal(theta._shifts(n, edges), sorted(s for s in shifts if s <= n // 2))
    result = solve_theta(n, g.edges)
    assert abs(result.value - closed) <= 1e-6
    assert result.value <= result.dual_bound + 1e-9
    op = _Recorder(n, theta._shifts(n, edges))
    assert theta._solve(op, theta.GAP_TOL, theta.MAX_ITER).value == result.value
    # the expanded primal and dual slack are psd as full n x n matrices
    x, z = result.x_matrix, op.x_matrix((op.c - op.adjoint(op.y))[:, None, None])
    assert np.linalg.eigvalsh(x)[0] >= -theta.FEAS_TOL
    assert np.linalg.eigvalsh(z)[0] >= -theta.FEAS_TOL
    assert abs(np.trace(x) - 1) <= theta.FEAS_TOL
    assert worst(x[tuple(g.edges.T)]) <= theta.FEAS_TOL
    assert abs(np.sum(x) - result.value) <= 1e-12 * max(1.0, result.value)


def _catalogue_circulants(rng):
    """The circulants of the theta catalogues with n <= 61, then 50 seeded random ones."""
    graphs = [circulant(q, paley_shifts(q)) for q in (5, 13, 17, 29, 37, 41, 53, 61)]
    graphs += [Graph.cycle(n) for n in range(5, 16, 2)]
    graphs += [circulant(n, range(2, n // 2 + 1)) for n in range(9, 16, 2)]
    graphs += [Graph.complete(3), Graph.complete(9), Graph.empty(7)]
    for _ in range(50):
        n = int(rng.integers(1, 25))
        shifts = np.flatnonzero(rng.random(n // 2 + 1) < 0.5)
        graphs.append(circulant(n, shifts[shifts > 0].tolist()))
    return graphs


def test_circulant_path_agrees_with_the_edge_path(rng):
    for g in _catalogue_circulants(rng):
        edges = tuple(theta.edge_pairs(g.n, g.edges).T)
        assert theta._shifts(g.n, edges) is not None
        circ = solve_theta(g.n, g.edges)
        edge = theta._solve(theta._EdgeOperator(g.n, edges), theta.GAP_TOL, theta.MAX_ITER)
        assert abs(circ.value - edge.value) <= theta.GAP_TOL, (g.n, g.edges)
        assert abs(circ.dual_bound - edge.dual_bound) <= theta.GAP_TOL, (g.n, g.edges)


def _cosine_table(n):
    """The block weights and the whole (n/2 + 1) x n table cos(2 pi k d / n): the
    eager reference for the circulant operator's rows and its x_matrix."""
    k = np.arange(n // 2 + 1)
    w = np.where((k == 0) | (2 * k == n), 1.0, 2.0)
    return w, np.cos((2 * np.pi / n) * (np.outer(k, np.arange(n)) % n))


def test_circulant_rows_and_x_matrix_match_the_cosine_table(rng):
    # the operator builds only the constrained rows, and x_matrix expands the
    # blocks on first read: both must equal their eager cosine-table forms bit for bit
    for g in _catalogue_circulants(rng):
        n = g.n
        shifts = theta._shifts(n, tuple(theta.edge_pairs(n, g.edges).T))
        w, cos = _cosine_table(n)
        op = theta._CirculantOperator(n, shifts)
        assert np.array_equal(op.rows, np.vstack([np.ones(len(w)), cos[:, shifts].T]))
        result = solve_theta(n, g.edges)
        first = (w * result.blocks[:, 0, 0]) @ cos / n
        d = np.arange(n)
        assert np.array_equal(result.x_matrix, first[(d - d[:, None]) % n]), (n, shifts)
        assert abs(np.sum(result.x_matrix) - result.value) <= 1e-12 * max(1.0, result.value)


def test_theta_results_refuse_writes():
    for g in (Graph.cycle(7), petersen()):  # the circulant and the edge operator
        result = solve_theta(g.n, g.edges)
        assert result.x_matrix is result.x_matrix
        for array in (result.blocks, result.x_matrix):
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0.0


def test_large_cycle_solves_without_square_arrays():
    # the LP has 2001 scalar blocks and 2 rows; nothing of size n x n is built
    # until x_matrix is read
    n = 4001
    edges = Graph.cycle(n).edges
    tracemalloc.start()
    try:
        result = solve_theta(n, edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "x_matrix" not in vars(result)
    assert peak < 5 << 20, peak
    assert abs(result.value - cycle_theta(n)) <= 1e-6


def test_huge_cycle_meets_its_closed_form():
    # the cosine table alone would take about 40 GB at this n; value is not
    # compared with dual_bound here, since FEAS_TOL is absolute while the trace
    # residual enters <J, X> scaled by theta
    n = 100001
    result = solve_theta(n, Graph.cycle(n).edges)
    assert abs(result.dual_bound - cycle_theta(n)) <= 1e-6


def test_relabelled_circulant_takes_the_edge_path():
    # C5 with vertices 1 and 2 swapped is the same graph, but not invariant under v -> v + 1
    relabel = [0, 2, 1, 3, 4]
    edges = [(relabel[i], relabel[j]) for i, j in Graph.cycle(5).edges]
    assert theta._shifts(5, tuple(theta.edge_pairs(5, edges).T)) is None
    assert solve_theta(5, edges).value == pytest.approx(np.sqrt(5), abs=1e-6)
