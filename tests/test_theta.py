import itertools

import numpy as np
import pytest

from qnskit.graphs import Graph, independence_number, lovasz_theta, xi_qc_lower_bound
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


def test_certificate_norm_matches_value(rng):
    for g in (Graph.cycle(5), petersen(), Graph.complete(6), Graph.empty(4)):
        result = solve_theta(g.n, sorted(g.edges))
        assert result.certificate_norm == pytest.approx(result.value, abs=5e-5)


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


def test_solution_is_feasible():
    g = Graph.cycle(5)
    result = solve_theta(g.n, sorted(g.edges))
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


def test_iteration_cap_raises():
    with pytest.raises(SolverError):
        solve_theta(6, [(0, 1), (2, 3)], max_iter=1)


def test_xi_bounds():
    assert xi_qc_lower_bound(Graph.complete(4)) == pytest.approx(2.0, abs=1e-6)
    assert xi_qc_lower_bound(Graph.empty(7)) == pytest.approx(1.0, abs=1e-6)
    c5 = xi_qc_lower_bound(Graph.cycle(5))
    assert c5 == pytest.approx(5 ** 0.25, abs=1e-4)


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
    # near the optimum an iterate can lose definiteness in floating point;
    # the solver must then fail closed, never leak a LinAlgError
    for _ in range(20):
        n = int(rng.integers(2, 13))
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        try:
            result = solve_theta(n, edges, tol=tol)
        except SolverError:
            continue
        assert result.gap <= tol


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
    return Graph.from_edges(g.n, [e for e in itertools.combinations(range(g.n), 2)
                                  if not g.has_edge(*e)])


def test_chromatic_bound_divides_by_an_upper_bound_on_theta():
    # closed forms: theta(Paley(q)) = sqrt(q), theta(C_n) = n cos(pi/n) / (1 + cos(pi/n))
    # for odd n, and theta(G) theta(co-G) = n for a vertex-transitive G
    cases = [(paley(13), np.sqrt(13))]
    for n in range(5, 16, 2):
        theta = n * np.cos(np.pi / n) / (1 + np.cos(np.pi / n))
        cases += [(Graph.cycle(n), theta), (_complement(Graph.cycle(n)), n / theta)]
    for g, theta in cases:
        assert xi_qc_lower_bound(g) <= np.sqrt(g.n / theta), (g.n, len(g.edges))
