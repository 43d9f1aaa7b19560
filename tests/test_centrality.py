"""Centrality measures against closed forms and a second counting route."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings

import isobench.centrality as centrality
from isobench import (
    ConvergenceError,
    Graph,
    GraphBatch,
    betweenness_centrality,
    closeness_centrality,
    complete,
    cycle,
    degree_centrality,
    disjoint_cycles,
    eigenvector_centrality,
    erdos_renyi,
    path,
    star,
)

from helpers import (
    graphs,
    path_counting_betweenness,
    reference_betweenness,
    reference_closeness,
)

# Graphs the random strategy rarely draws: empty, single node, all
# isolated, disconnected with an isolated node, and a long path.
EDGE_CASES = (
    Graph(0),
    Graph(1),
    Graph(4),
    Graph(8, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6))),
    path(11),
)


def with_edge_cases(test):
    for g in EDGE_CASES:
        test = example(g)(test)
    return test


class TestDegree:
    def test_star(self):
        assert degree_centrality(star(5)).tolist() == [4.0, 1.0, 1.0, 1.0, 1.0]

    def test_isolated(self):
        assert degree_centrality(Graph(2)).tolist() == [0.0, 0.0]


class TestCloseness:
    def test_path3_closed_form(self):
        np.testing.assert_allclose(closeness_centrality(path(3)), [2 / 3, 1.0, 2 / 3])

    def test_two_triangles_value(self):
        out = closeness_centrality(disjoint_cycles([3, 3]))
        np.testing.assert_allclose(out, np.full(6, 0.4))

    def test_cycle6_value(self):
        np.testing.assert_allclose(closeness_centrality(cycle(6)), np.full(6, 5 / 9))

    def test_complete_graph_is_one(self):
        np.testing.assert_allclose(closeness_centrality(complete(5)), np.ones(5))

    def test_isolated_nodes_are_zero(self):
        g = Graph(3, ((0, 1),))
        out = closeness_centrality(g)
        assert out[2] == 0.0
        assert out[0] > 0.0

    def test_single_node_is_zero(self):
        assert closeness_centrality(Graph(1)).tolist() == [0.0]

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_n=11))
    @with_edge_cases
    def test_bytes_match_numpy_array_reference(self, g):
        assert closeness_centrality(g).tobytes() == reference_closeness(g).tobytes()

    def test_extra_memory_is_linear_in_n(self):
        # One n x n int64 distance matrix at n = 2000 would need 32 MB.
        g = path(2000)
        tracemalloc.start()
        try:
            out = closeness_centrality(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out[0] == pytest.approx(1 / 1000)
        assert peak < 4 * 2**20

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=8))
    def test_bounded_by_one(self, g):
        out = closeness_centrality(g)
        assert np.all(out >= 0.0) and np.all(out <= 1.0 + 1e-12)


class TestBallGrowth:
    def test_levels_touch_only_growing_graphs(self, monkeypatch):
        # path(60) shares the small graphs' one-word rows and grows for 59
        # levels, path(200) has four words; the small graphs stop after a
        # few levels. Each level counts the bits of the rows it touched.
        touched: list[int] = []
        original = centrality._bit_counts

        def counting(words):
            touched.append(len(words))
            return original(words)

        monkeypatch.setattr(centrality, "_bit_counts", counting)

        def rows_touched(graphs) -> int:
            touched.clear()
            closeness_centrality(GraphBatch(graphs))
            return sum(touched)

        small = [erdos_renyi(8 + seed % 7, 0.3, seed) for seed in range(40)]
        long = [path(60), path(200)]
        alone = rows_touched(small) + sum(rows_touched([g]) for g in long)
        assert rows_touched(small + long) == alone
        # 59 levels that grow and one that finds no growth, 60 rows each.
        assert rows_touched(long[:1]) == 60 * 60


class TestBetweenness:
    def test_path3_closed_form(self):
        np.testing.assert_allclose(betweenness_centrality(path(3)), [0.0, 1.0, 0.0])

    def test_path5_closed_form(self):
        np.testing.assert_allclose(betweenness_centrality(path(5)), [0.0, 3.0, 4.0, 3.0, 0.0])

    def test_path_interior_formula(self):
        # Node i of a path sits between i*(n-1-i) endpoint pairs.
        for n in range(3, 10):
            expected = [i * (n - 1 - i) for i in range(n)]
            np.testing.assert_allclose(betweenness_centrality(path(n)), expected)

    def test_cycle4_shared_shortest_paths(self):
        # Each antipodal pair has two routes, each crossing one midpoint.
        np.testing.assert_allclose(betweenness_centrality(cycle(4)), np.full(4, 0.5))

    def test_star_center_carries_all_pairs(self):
        out = betweenness_centrality(star(5))
        np.testing.assert_allclose(out, [6.0, 0.0, 0.0, 0.0, 0.0])

    def test_complete_graph_is_zero(self):
        np.testing.assert_allclose(betweenness_centrality(complete(4)), np.zeros(4))

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_n=11))
    @with_edge_cases
    def test_bytes_match_numpy_array_reference(self, g):
        assert betweenness_centrality(g).tobytes() == reference_betweenness(g).tobytes()

    @settings(max_examples=50, deadline=None)
    @given(graphs(max_n=8))
    def test_matches_pair_by_pair_counting(self, g):
        fast = betweenness_centrality(g)
        slow = path_counting_betweenness(g)
        np.testing.assert_allclose(fast, slow, atol=1e-9)


class TestEigenvector:
    def test_star4_closed_form(self):
        # Hub at 1/sqrt(2); each leaf at 1/sqrt(2*k) for k leaves.
        out = eigenvector_centrality(star(4))
        np.testing.assert_allclose(out[0], 0.70711, atol=1e-5)
        np.testing.assert_allclose(out[1:], np.full(3, 0.40825), atol=1e-5)

    def test_cycle_is_uniform(self):
        out = eigenvector_centrality(cycle(5))
        np.testing.assert_allclose(out, np.full(5, 1 / np.sqrt(5)), atol=1e-6)

    def test_unit_norm(self):
        out = eigenvector_centrality(path(6))
        np.testing.assert_allclose(np.linalg.norm(out), 1.0, atol=1e-9)

    def test_matches_dense_eigensolver(self):
        for g in [path(7), star(5), complete(4), cycle(9)]:
            a = np.zeros((g.n, g.n))
            for u, v in g.edges:
                a[u, v] = a[v, u] = 1.0
            vals, vecs = np.linalg.eigh(a)
            lead = np.abs(vecs[:, np.argmax(vals)])
            np.testing.assert_allclose(eigenvector_centrality(g), lead, atol=1e-6)

    def test_bipartite_graph_converges(self):
        # The +I shift damps the odd-cycle-free sign flip.
        out = eigenvector_centrality(path(2))
        np.testing.assert_allclose(out, [1 / np.sqrt(2), 1 / np.sqrt(2)], atol=1e-8)

    def test_single_node(self):
        np.testing.assert_allclose(eigenvector_centrality(Graph(1)), [1.0])

    def test_iteration_cap_raises(self):
        with pytest.raises(ConvergenceError):
            eigenvector_centrality(path(30), tol=1e-15, max_iter=3)
