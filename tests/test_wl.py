"""Color refinement oracles: node variant and tuple variants."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import numpy as np

from isobench import (
    ContractError,
    Graph,
    NumericError,
    Permutation,
    ResourceLimitError,
    apply_permutation,
    cycle,
    disjoint_cycles,
    distinguishes,
    erdos_renyi,
    extra_node,
    path,
    rook4x4,
    shrikhande,
    star,
    wl1_signature,
    wlk_signature,
)

from isobench import wl
from isobench.quant import quantize_matrix, quantized_row_bytes

from helpers import edge_pairs, graphs, naive_tuple_refinement_splits, permutations_for


def _graph_and_other(data) -> tuple[Graph, Graph]:
    """A graph of up to 5 nodes, plain or with features, and a second one:
    drawn alone, a relabeled copy, or a relabeled copy with one node
    pair's adjacency flipped."""
    dims = data.draw(st.sampled_from([0, 2]))
    g = data.draw(graphs(min_n=1, max_n=5, feature_dims=dims))
    kind = data.draw(st.sampled_from(["drawn", "relabeled", "toggled"]))
    if kind == "drawn":
        return g, data.draw(graphs(min_n=1, max_n=5, feature_dims=dims))
    h = g
    if kind == "toggled" and g.n > 1:
        u, v = sorted(data.draw(st.lists(st.integers(0, g.n - 1), min_size=2, max_size=2, unique=True)))
        h = Graph(g.n, tuple(set(edge_pairs(g)) ^ {(u, v)}), g.features)
    return g, apply_permutation(h, Permutation(data.draw(permutations_for(g.n))))


class TestWL1:
    def test_path_splits_into_end_and_middle(self):
        sig = wl1_signature(path(3))
        assert len(sig.histogram) == 2
        assert sorted(count for _, count in sig.histogram) == [1, 2]
        assert sig.rounds == 2

    def test_cycle_stays_one_class(self):
        sig = wl1_signature(cycle(6))
        assert len(sig.histogram) == 1
        assert sig.rounds == 1

    def test_each_distinct_payload_is_hashed_once_per_round(self, monkeypatch):
        calls: list[bytes] = []
        original = wl._digest

        def counting(payload):
            calls.append(payload)
            return original(payload)

        monkeypatch.setattr(wl, "_digest", counting)
        sig = wl1_signature(cycle(12))
        # One payload for the initial colors, then one per round.
        assert len(calls) == 1 + sig.rounds
        monkeypatch.undo()
        assert sig == wl1_signature(cycle(12))

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=6, feature_dims=3))
    def test_row_keys_are_each_rows_encoding(self, g):
        rows = quantize_matrix(g.features, 1e-3)
        assert wl._row_keys(g, 1e-3) == [quantized_row_bytes(row) for row in rows]

    def test_histogram_counts_every_node(self):
        assert wl1_signature(star(5)).histogram_size == 5

    def test_empty_graph(self):
        sig = wl1_signature(Graph(0))
        assert sig.histogram == ()
        assert sig.rounds == 0

    def test_cycle6_vs_two_triangles_agree(self):
        a = wl1_signature(cycle(6))
        b = wl1_signature(disjoint_cycles([3, 3]))
        assert a.digest == b.digest
        assert a.histogram == b.histogram

    def test_cycle8_vs_two_squares_agree(self):
        assert wl1_signature(cycle(8)).digest == wl1_signature(disjoint_cycles([4, 4])).digest

    def test_strongly_regular_pair_agrees(self):
        assert wl1_signature(rook4x4()).digest == wl1_signature(shrikhande()).digest

    def test_path_vs_star_differ(self):
        assert wl1_signature(path(4)).digest != wl1_signature(star(3)).digest

    def test_features_enter_the_initial_coloring(self):
        plain = Graph(2, ((0, 1),))
        marked = Graph(2, ((0, 1),), np.array([[1.0], [2.0]]))
        assert wl1_signature(plain).digest != wl1_signature(marked).digest

    def test_eps_controls_feature_sensitivity(self):
        a = Graph(1, (), np.array([[0.1]]))
        b = Graph(1, (), np.array([[0.1 + 1e-9]]))
        assert wl1_signature(a, eps=1e-6).digest == wl1_signature(b, eps=1e-6).digest
        assert wl1_signature(a, eps=1e-12).digest != wl1_signature(b, eps=1e-12).digest

    def test_features_past_the_quantization_grid_are_refused(self):
        # At eps 1e-6 both 1e13 and 2e13 lie past int64 indices; a cast
        # would give them one colour.
        g = Graph(3, ((0, 1), (1, 2)), np.array([[1e13], [1.0], [1.0]]))
        with pytest.raises(NumericError, match="too large to quantize"):
            wl1_signature(g)

    def test_deterministic_across_calls(self):
        g = cycle(7)
        assert wl1_signature(g) == wl1_signature(g)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_invariant_under_relabeling(self, data):
        g = data.draw(graphs(max_n=8, feature_dims=2))
        p = Permutation(data.draw(permutations_for(g.n)))
        assert wl1_signature(g) == wl1_signature(apply_permutation(g, p))

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=8))
    def test_rounds_bounded_by_node_count(self, g):
        assert wl1_signature(g).rounds <= max(g.n, 0)


class TestWLK:
    def test_rejects_bad_k(self):
        with pytest.raises(ContractError):
            wlk_signature(path(3), 1)
        with pytest.raises(ContractError):
            wlk_signature(path(3), 4)

    def test_rejects_empty_graph(self):
        with pytest.raises(ContractError):
            wlk_signature(Graph(0), 2)

    def test_budget_is_enforced(self):
        with pytest.raises(ResourceLimitError):
            wlk_signature(cycle(10), 3, budget=100)

    @pytest.mark.parametrize("budget", [0, -5, True, 2.5, None])
    def test_unusable_budget_is_a_contract_error(self, budget):
        with pytest.raises(ContractError, match="tuple budget must be an integer >= 1"):
            wlk_signature(Graph(3), 2, budget=budget)

    def test_numpy_integer_budget_is_usable(self):
        assert wlk_signature(Graph(3), 2, budget=np.int64(9)).variant == "2-WL"

    @pytest.mark.parametrize("k", [2, 3])
    def test_budget_boundary_is_n_to_the_k(self, k):
        g = cycle(7)
        with pytest.raises(ResourceLimitError, match=f"needs {7**k} tuple-neighbor"):
            wlk_signature(g, k, budget=7**k - 1)
        assert wlk_signature(g, k, budget=7**k).variant == f"{k}-WL"

    def test_triples_on_sixty_nodes_take_under_a_second(self):
        rng = np.random.default_rng(0)
        edges = tuple((u, v) for u in range(60) for v in range(u + 1, 60) if rng.random() < 0.1)
        start = time.perf_counter()
        sig = wlk_signature(Graph(60, edges), 3)
        assert time.perf_counter() - start < 1.0
        assert sig.histogram_size == 60 * 60

    def test_chunked_gather_gives_the_same_signature(self, monkeypatch):
        rng = np.random.default_rng(1)
        edges = tuple((u, v) for u in range(12) for v in range(u + 1, 12) if rng.random() < 0.3)
        graphs_ = [rook4x4(), Graph(12, edges, rng.integers(0, 2, size=(12, 2)).astype(float))]
        whole = [wlk_signature(g, 3) for g in graphs_]
        monkeypatch.setattr(wl, "_CHUNK_CELLS", 1)
        assert [wlk_signature(g, 3) for g in graphs_] == whole

    def test_pinned_triples_digests(self):
        # 3-WL (rounds, digest) values that any change to _fwl2's per-chunk
        # deduplication must keep. G(70, 0.1) takes two chunks; the
        # extra_node image and the featured G(20, 0.2) refine past round 1.
        rng = np.random.default_rng(7)
        g20 = erdos_renyi(20, 0.2, seed=3)
        cases = {
            "rook4x4": rook4x4(),
            "shrikhande": shrikhande(),
            "g20_features": Graph(20, g20.edge_index, rng.integers(0, 3, size=(20, 2)).astype(float)),
            "g70": erdos_renyi(70, 0.1, seed=5),
            "g18_extra_node": extra_node(erdos_renyi(18, 0.2, seed=4)),
        }
        got = {}
        for name, g in cases.items():
            sig = wlk_signature(g, 3)
            got[name] = (sig.rounds, sig.digest)
        assert got == {
            "rook4x4": (1, "4a7b699d83d9b02ce9154ae7e59d5cd4"),
            "shrikhande": (1, "4a7b699d83d9b02ce9154ae7e59d5cd4"),
            "g20_features": (2, "6c5019ebc6953c96659b187a13842159"),
            "g70": (3, "b793ec8bf38cc908edb65b706d6cb52d"),
            "g18_extra_node": (4, "372da7ad7d6578d08c427269b68b493b"),
        }

    def test_histogram_counts_every_tuple(self):
        # (k-1)-FWL colors the (k-1)-tuples: nodes for k = 2, pairs for k = 3.
        assert wlk_signature(path(3), 2).histogram_size == 3
        assert wlk_signature(path(3), 3).histogram_size == 9

    def test_single_node(self):
        assert wlk_signature(Graph(1), 2).histogram_size == 1
        assert wlk_signature(Graph(1), 3).histogram_size == 1

    def test_pairs_variant_misses_cycle6_vs_triangles(self):
        a = wlk_signature(cycle(6), 2)
        b = wlk_signature(disjoint_cycles([3, 3]), 2)
        assert a.digest == b.digest

    def test_triples_variant_splits_cycle6_vs_triangles(self):
        a = wlk_signature(cycle(6), 3)
        b = wlk_signature(disjoint_cycles([3, 3]), 3)
        assert a.digest != b.digest

    def test_triples_variant_misses_strongly_regular_pair(self):
        a = wlk_signature(rook4x4(), 3)
        b = wlk_signature(shrikhande(), 3)
        assert a.digest == b.digest

    def test_features_enter_atomic_types(self):
        plain = Graph(2, ((0, 1),))
        marked = Graph(2, ((0, 1),), np.array([[1.0], [2.0]]))
        assert wlk_signature(plain, 2).digest != wlk_signature(marked, 2).digest

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_invariant_under_relabeling(self, data):
        g = data.draw(graphs(min_n=1, max_n=6, feature_dims=2))
        p = Permutation(data.draw(permutations_for(g.n)))
        assert wlk_signature(g, 2) == wlk_signature(apply_permutation(g, p), 2)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_pairs_verdict_matches_naive_refinement(self, data):
        g, h = _graph_and_other(data)
        split = wlk_signature(g, 2).digest != wlk_signature(h, 2).digest
        assert split == naive_tuple_refinement_splits(g, h, 2)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_triples_verdict_matches_naive_refinement_on_random_graphs(self, data):
        g, h = _graph_and_other(data)
        split = wlk_signature(g, 3).digest != wlk_signature(h, 3).digest
        assert split == naive_tuple_refinement_splits(g, h, 3)

    def test_pairs_verdict_matches_naive_on_hard_pairs(self):
        fixtures = [
            (cycle(6), disjoint_cycles([3, 3])),
            (cycle(8), disjoint_cycles([4, 4])),
            (path(5), star(4)),
            (cycle(5), path(5)),
        ]
        for g, h in fixtures:
            split = wlk_signature(g, 2).digest != wlk_signature(h, 2).digest
            assert split == naive_tuple_refinement_splits(g, h, 2)

    def test_triples_verdict_matches_naive_refinement(self):
        fixtures = [
            (cycle(6), disjoint_cycles([3, 3])),
            (path(4), star(3)),
            (cycle(4), path(4)),
            (rook4x4(), shrikhande()),
        ]
        for g, h in fixtures:
            split = wlk_signature(g, 3).digest != wlk_signature(h, 3).digest
            assert split == naive_tuple_refinement_splits(g, h, 3)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_triples_split_at_least_pairs(self, data):
        g = data.draw(graphs(min_n=1, max_n=5))
        h = data.draw(graphs(min_n=1, max_n=5))
        if wlk_signature(g, 2).digest != wlk_signature(h, 2).digest:
            assert wlk_signature(g, 3).digest != wlk_signature(h, 3).digest

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_pairs_split_matches_node_variant(self, data):
        g = data.draw(graphs(min_n=1, max_n=6))
        h = data.draw(graphs(min_n=1, max_n=6))
        node_split = wl1_signature(g).digest != wl1_signature(h).digest
        pair_split = wlk_signature(g, 2).digest != wlk_signature(h, 2).digest
        assert node_split == pair_split


class TestDistinguishes:
    def test_verdict(self):
        a = wl1_signature(path(4))
        b = wl1_signature(star(3))
        assert distinguishes(a, b)
        assert not distinguishes(a, wl1_signature(path(4)))

    def test_variant_mismatch_fails(self):
        with pytest.raises(ContractError):
            distinguishes(wl1_signature(path(3)), wlk_signature(path(3), 2))

    def test_eps_mismatch_fails(self):
        with pytest.raises(ContractError):
            distinguishes(wl1_signature(path(3), eps=1e-6), wl1_signature(path(3), eps=1e-5))
