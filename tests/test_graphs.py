"""Graph type, file formats, permutations, and exact isomorphism."""

import time
import tracemalloc
from functools import cached_property
from itertools import combinations, islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isobench.wl as wl
import isobench.errors as errors
from isobench import (
    ARCHS,
    ContractError,
    Graph,
    GraphBatch,
    GraphParseError,
    IsobenchError,
    Permutation,
    ResourceLimitError,
    TransformSpec,
    UnsupportedSizeError,
    apply_permutation,
    apply_transform,
    are_isomorphic,
    cycle,
    disjoint_cycles,
    erdos_renyi,
    forward,
    hard_pair_library,
    init_model,
    node_states,
    parse_edge_list,
    parse_graph6,
    path,
    rook4x4,
    shrikhande,
    write_edge_list,
    write_graph6,
)

import isobench.graphs as graphs_module
from isobench.centrality import _words
from isobench.cli import _squares
from isobench.graphs import GRAPH6_MAX_NODES, decode_graph6

from helpers import (
    brute_force_isomorphic,
    edge_pairs,
    graphs,
    permutations_for,
    random_cubic,
    reference_are_isomorphic,
    reference_graph6,
    reference_runs,
)


def _peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestGraphType:
    def test_canonical_edge_storage(self):
        g = Graph(4, ((3, 1), (0, 2), (2, 1)))
        assert g.edge_index.tolist() == [[0, 2], [1, 2], [1, 3]]

    def test_default_features_are_ones(self):
        g = Graph(3, ((0, 1),))
        assert g.features.shape == (3, 1)
        assert np.all(g.features == 1.0)

    def test_features_are_read_only(self):
        g = Graph(2, ((0, 1),))
        with pytest.raises(ValueError):
            g.features[0, 0] = 5.0

    def test_rejects_self_loop(self):
        with pytest.raises(ContractError):
            Graph(2, ((1, 1),))

    def test_rejects_duplicate_edge(self):
        with pytest.raises(ContractError):
            Graph(3, ((0, 1), (1, 0)))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ContractError):
            Graph(2, ((0, 2),))

    def test_rejects_non_finite_features(self):
        with pytest.raises(ContractError):
            Graph(1, (), np.array([[np.inf]]))

    def test_rejects_wrong_feature_shape(self):
        with pytest.raises(ContractError):
            Graph(2, (), np.ones((3, 1)))

    def test_degrees_and_neighbors(self):
        g = Graph(4, ((0, 1), (1, 2), (1, 3)))
        assert list(g.degrees) == [1, 3, 1, 1]
        assert g.neighbors[1] == (0, 2, 3)

    @pytest.mark.parametrize(
        "n, edges, message",
        [
            (3, ((0, 1.7),), "edge (0, 1.7) is not a pair of int node indices"),
            (3, ((0, "2"),), "edge (0, '2') is not a pair of int node indices"),
            (3, ((0, 1, 2),), "edge (0, 1, 2) is not a pair of int node indices"),
            (3, ((0,),), "edge (0,) is not a pair of int node indices"),
            (3, (1,), "edge 1 is not a pair of int node indices"),
            (True, (), "node count must be a non-negative int, got True"),
            (2.0, (), "node count must be a non-negative int, got 2.0"),
            (-1, (), "node count must be a non-negative int, got -1"),
            (2, ((1, 1),), "self-loop at node 1"),
            (2, ((0, 2),), "index 2 out of range for n=2"),
            (2, ((-1, 0),), "index -1 out of range for n=2"),
            (3, ((0, 1), (1, 0)), "duplicate edge (0, 1)"),
        ],
        ids=[
            "float-end", "str-end", "triple", "single", "not-a-pair", "bool-n", "float-n",
            "negative-n", "self-loop", "range", "negative-end", "duplicate",
        ],
    )
    def test_bad_edge_or_count_names_it(self, n, edges, message):
        with pytest.raises(ContractError) as err:
            Graph(n, edges)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "features, message",
        [
            ([["a"], ["b"]], "features must be an array of real numbers, got dtype <U1"),
            ([["1.0"], ["2.0"]], "features must be an array of real numbers, got dtype <U3"),
            ([[1.0], [None]], "features must be an array of real numbers, got dtype object"),
            ([[1.0], [1.0, 2.0]], "features must be an array of real numbers, got ragged rows"),
            ([[1j], [2j]], "features must be an array of real numbers, got dtype complex128"),
        ],
        ids=["letters", "numerals", "none-row", "ragged", "complex"],
    )
    def test_features_must_be_real_numbers(self, features, message):
        with pytest.raises(ContractError) as err:
            Graph(2, features=features)
        assert str(err.value) == message

    def test_integer_and_bool_features_are_real(self):
        g = Graph(2, features=np.array([[3], [-1]], dtype=np.int8))
        assert g.features.dtype == np.float64 and g.features.tolist() == [[3.0], [-1.0]]
        assert Graph(1, features=[[True]]).features.tolist() == [[1.0]]

    def test_numpy_integer_endpoints(self):
        g = Graph(3, [(np.int64(2), np.int32(0)), np.array([1, 2])])
        assert g.edge_index.tolist() == [[0, 2], [1, 2]]
        assert g.edge_index.dtype == np.intp


def assert_one_edge_form(g: Graph) -> None:
    """g's edges are stored once, as a canonical read-only intp array,
    and the constructor agrees with it."""
    index = g.edge_index
    assert index.dtype == np.intp and index.shape == (g.edge_count, 2)
    assert not index.flags.writeable
    u, v = index.T
    assert np.all(u < v) and np.all(u >= 0) and np.all(v < g.n)
    # Strictly increasing u * n + v: lexsorted and unique.
    assert np.all(np.diff(u * g.n + v) > 0)
    assert Graph(g.n, index, g.features) == g


class TestEdgeForm:
    """Every builder stores a graph's edges as one canonical edge_index,
    and the array builders leave the neighbor tuples unbuilt."""

    @given(
        st.data(),
        graphs(feature_dims=2),
        graphs(min_n=1, feature_dims=2),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_builder_gives_the_one_form(self, data, g, h):
        perms = [Permutation(data.draw(permutations_for(x.n))) for x in (g, h)]
        shuffled = [(v, u) for u, v in reversed(g.edge_index.tolist())]
        batch = GraphBatch([g, h])
        built = [
            g,
            Graph(g.n, shuffled, g.features),
            Graph(n=g.n, edges=g.edge_index),
            parse_edge_list(write_edge_list(g)),
            *decode_graph6([write_graph6(g), write_graph6(h)]),
            *batch.relabeled(perms),
            *batch.with_columns(np.arange(batch.n, dtype=np.float64)).graphs,
            g.with_features(np.zeros((g.n, 3))),
        ]
        for out in built:
            assert_one_edge_form(out)
        assert built[1] == g and built[3] == g

    def test_array_builders_build_no_tuples(self):
        gs = decode_graph6([write_graph6(cycle(6)), write_graph6(path(4)), "@"])
        moved = GraphBatch(gs).relabeled([Permutation(tuple(reversed(range(g.n)))) for g in gs])
        wider = GraphBatch(moved).with_columns(np.arange(11.0)).graphs
        for g in gs + moved + list(wider):
            assert "neighbors" not in g.__dict__
        assert moved[0].edge_index.tolist() == [[0, 1], [0, 5], [1, 2], [2, 3], [3, 4], [4, 5]]
        built = moved[0].neighbors
        assert moved[0].with_features(np.ones((6, 1))).neighbors is built


class TestWithFeatures:
    @staticmethod
    def source() -> Graph:
        g = Graph(4, ((2, 3), (0, 1), (1, 2)), np.arange(4.0)[:, None])
        for name in ("neighbors", "degrees", "adjacency_matrix"):
            getattr(g, name)
        return g

    def test_equals_the_constructed_graph(self):
        g = self.source()
        f = np.array([[1.0, -2.0], [0.5, 3.0], [0.0, 1e-9], [7.0, 8.0]])
        out = g.with_features(f)
        assert out == Graph(g.n, g.edge_index, f)
        assert out.edge_index is g.edge_index

    def test_carried_caches_equal_fresh_ones(self):
        g = self.source()
        out = g.with_features(np.ones((4, 3)))
        fresh = Graph(g.n, g.edge_index)
        for name in ("neighbors", "degrees"):
            assert getattr(out, name) is getattr(g, name)
        assert out.neighbors == fresh.neighbors
        np.testing.assert_array_equal(out.degrees, fresh.degrees)
        np.testing.assert_array_equal(out.adjacency_matrix, fresh.adjacency_matrix)
        assert out.degrees.dtype == fresh.degrees.dtype
        assert not out.degrees.flags.writeable
        assert not out.adjacency_matrix.flags.writeable

    def test_structure_caches_name_every_cached_property(self):
        """with_features, with_columns and relabeled hand these caches to
        graphs with the same edges, so each must depend on the edges
        alone. A new cached property of Graph fails here until it is
        listed or found to depend on the features."""
        cached = {name for name, attr in vars(Graph).items() if isinstance(attr, cached_property)}
        assert cached == set(graphs_module._STRUCTURE_CACHES)
        g = self.source()
        other = Graph(g.n, g.edge_index, -np.arange(8.0).reshape(4, 2))
        for name in graphs_module._STRUCTURE_CACHES:
            np.testing.assert_equal(getattr(other, name), getattr(g, name))

    def test_uncomputed_caches_are_computed_on_demand(self):
        g = Graph(3, ((0, 1), (1, 2)))
        out = g.with_features(np.zeros((3, 1)))
        assert out.neighbors == ((1,), (0, 2), (1,))
        assert "neighbors" not in g.__dict__

    def test_features_are_a_read_only_copy(self):
        g = self.source()
        f = np.zeros((4, 2))
        out = g.with_features(f)
        f[0, 0] = 9.0
        assert out.features[0, 0] == 0.0
        assert out.features.dtype == np.float64
        with pytest.raises(ValueError):
            out.features[0, 0] = 5.0

    @pytest.mark.parametrize(
        "features",
        [
            np.array([[np.nan], [0.0], [0.0], [0.0]]),
            np.array([[np.inf], [0.0], [0.0], [0.0]]),
            np.ones((3, 1)),
            np.ones((4, 0)),
            np.ones(4),
        ],
        ids=["nan", "inf", "rows", "no-columns", "one-dimensional"],
    )
    def test_bad_features_raise_the_constructor_message(self, features):
        g = self.source()
        with pytest.raises(ContractError) as expected:
            Graph(g.n, g.edge_index, features)
        with pytest.raises(ContractError) as err:
            g.with_features(features)
        assert str(err.value) == str(expected.value)


class TestBatchRuns:
    """GraphBatch.runs splits a batch at graphs.BATCH_CELLS, and the batch
    kernels that run by it keep their bytes and bound their memory."""

    def test_runs_are_consecutive_and_bounded(self, monkeypatch):
        b = GraphBatch([path(3), path(5), Graph(1), path(4)])

        def sizes(bound: int) -> list[list[int]]:
            monkeypatch.setattr("isobench.graphs.BATCH_CELLS", bound)
            return [[g.n for g in run.graphs] for run in b.runs(lambda rows, *_: rows)]

        assert sizes(8) == [[3, 5], [1, 4]]
        assert sizes(2) == [[3], [5], [1], [4]]
        assert sizes(12) == [[3, 5, 1], [4]]
        monkeypatch.setattr("isobench.graphs.BATCH_CELLS", 13)
        assert list(b.runs(lambda rows, *_: rows)) == [b]
        assert next(b.runs(lambda rows, *_: rows)) is b

    def test_bound_moves_no_byte(self, monkeypatch):
        # At the default bound both kernels split this list into several
        # runs, with G(300, 0.02) and path(700) in different runs.
        small = [erdos_renyi(5 + seed, 0.4, seed) for seed in range(6)]
        gs = small[:3] + [erdos_renyi(300, 0.02, 1), Graph(1), path(700)] + small[3:]
        widths = [g.with_features(np.full((g.n, 1 + i % 2), -0.0)) for i, g in enumerate(gs)]
        specs = [TransformSpec(kind=kind) for kind in ("degree", "closeness", "distance_encoding")]
        specs.append(TransformSpec(kind="distance_encoding", d_max=2))

        def outputs() -> list[bytes | str]:
            out: list[bytes | str] = []
            for s in specs:
                for t in apply_transform(s, GraphBatch(widths + [Graph(0)])):
                    out.append(str(t) if isinstance(t, IsobenchError) else t.features.tobytes())
            for arch in ARCHS:
                m = init_model(arch, 1, 3)
                out.append(forward(m, GraphBatch(gs)).tobytes())
                out.append(node_states(m, GraphBatch(gs)).tobytes())
            return out

        runs = []
        for bound in (0, 2**15, 2**62):
            monkeypatch.setattr("isobench.graphs.BATCH_CELLS", bound)
            runs.append(outputs())
        assert runs[0] == runs[1] == runs[2]

    @staticmethod
    def kernel_cells(monkeypatch) -> dict:
        """Every cells callable the package hands to GraphBatch.runs: each
        architecture's (over inputs of width 3), _words and _squares."""
        found = {"words": _words, "squares": _squares}
        original = GraphBatch.runs
        for arch in ARCHS:

            def recording(b, cells):
                found[arch] = cells
                return original(b, cells)

            with monkeypatch.context() as patch:
                patch.setattr(GraphBatch, "runs", recording)
                forward(init_model(arch, 3, 0), path(2).with_features(np.ones((2, 3))))
        return found

    @staticmethod
    def counted(sizes: list[int], edge_counts: list[int]) -> list[Graph]:
        return [Graph(n, islice(combinations(range(n), 2), m)) for n, m in zip(sizes, edge_counts)]

    def cut_lists(self) -> list[tuple[list[int], list[int]]]:
        """Seeded random node and edge counts, mostly small with some large
        graphs, then a first, a last and every graph over 2**15 cells
        under every kernel, and a batch of one."""
        rng = np.random.default_rng(7)
        out = []
        for k in (2, 9, 60, 400):
            sizes = np.where(rng.random(k) < 0.1, rng.integers(20, 60, k), rng.integers(0, 8, k))
            counts = [int(rng.integers(0, n * (n - 1) // 2 + 1)) for n in sizes.tolist()]
            out.append((sizes.tolist(), counts))
        big, small = (2100, 2099), [(3, 2), (0, 0), (5, 4), (1, 0)] * 30
        for graphs in ([big] + small, small + [big], [big] * 4, [big], [(4, 3)]):
            out.append(tuple(map(list, zip(*graphs))))
        return out

    def test_cuts_match_the_walk_over_graphs(self, monkeypatch):
        cells_of = self.kernel_cells(monkeypatch)
        assert sorted(cells_of) == sorted([*ARCHS, "words", "squares"])
        for sizes, counts in self.cut_lists():
            b = GraphBatch(self.counted(sizes, counts))
            assert b.edge_counts.tolist() == counts
            for bound in (0, 13, 2**15, 2**62):
                monkeypatch.setattr("isobench.graphs.BATCH_CELLS", bound)
                for name, cells in cells_of.items():
                    runs = list(b.runs(cells))
                    stops = np.cumsum([len(run.graphs) for run in runs]).tolist()
                    got = list(zip([0] + stops[:-1], stops))
                    assert got == reference_runs(sizes, counts, cells, bound), (name, bound)
                    for run, (start, stop) in zip(runs, got):
                        assert run.graphs == b.graphs[start:stop]
                        assert run.sizes.tolist() == sizes[start:stop]
                        assert run.edge_counts.tolist() == counts[start:stop]
                    assert (runs == [b]) == (got == [(0, len(sizes))])

    def test_peak_memory_stays_near_one_graph(self):
        gs = [erdos_renyi(1000, 6 / 1000, seed) for seed in range(8)]
        closeness = TransformSpec(kind="closeness")
        eigenvector = TransformSpec(kind="eigenvector")
        pna = init_model("pna", 1, 0)
        # eigenvector runs per graph: each dense adjacency is dropped after
        # its graph, not kept with the graph.
        runs = [
            (gs, lambda b: apply_transform(closeness, b)),
            (gs, lambda b: forward(pna, b)),
            ([erdos_renyi(400, 6 / 400, seed) for seed in range(8)],
             lambda b: apply_transform(eigenvector, b)),
        ]
        for graphs, run in runs:
            one = _peak_mib(lambda: run(GraphBatch(graphs[:1])))
            assert _peak_mib(lambda: run(GraphBatch(graphs))) < 1.5 * one


ERRORS = [
    c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, IsobenchError)
]


class TestBatchEach:
    """GraphBatch.each runs a function on each graph alone: one result per
    graph in order, an IsobenchError in its graph's slot, and any other
    exception raised."""

    def test_results_come_in_graph_order(self):
        gs = [path(3), Graph(0), path(5), Graph(1), path(2)]
        assert GraphBatch(gs).each(lambda g: g.n) == [3, 0, 5, 1, 2]

    @pytest.mark.parametrize("error", ERRORS, ids=lambda c: c.__name__)
    def test_isobench_errors_stay_in_their_slot(self, error):
        def refuse_four(g):
            if g.n == 4:
                raise error(f"refuses n={g.n}")
            return g.n

        out = GraphBatch([path(4), path(3), path(4), path(5), path(4)]).each(refuse_four)
        assert [type(e) if isinstance(e, IsobenchError) else e for e in out] == [
            error, 3, error, 5, error
        ]
        assert [str(out[i]) for i in (0, 2, 4)] == ["refuses n=4"] * 3
        assert len({id(out[i]) for i in (0, 2, 4)}) == 3

    def test_other_exceptions_propagate(self):
        seen = []

        def broken(g):
            seen.append(g.n)
            if g.n == 4:
                raise ValueError("not an isobench error")
            return g.n

        with pytest.raises(ValueError, match="not an isobench error"):
            GraphBatch([path(3), path(4), path(5)]).each(broken)
        assert seen == [3, 4]


class TestGraph6:
    def test_k3_decodes_from_Bw(self):
        g = parse_graph6("Bw")
        assert g.n == 3
        assert g.edge_index.tolist() == [[0, 1], [0, 2], [1, 2]]

    def test_two_isolated_nodes_decode_from_A_question(self):
        g = parse_graph6("A?")
        assert g.n == 2
        assert g.edge_count == 0

    def test_null_graph(self):
        assert parse_graph6("?").n == 0
        assert write_graph6(Graph(0)) == "?"

    def test_k3_encodes_to_Bw(self):
        g = Graph(3, ((0, 1), (0, 2), (1, 2)))
        assert write_graph6(g) == "Bw"

    def test_header_is_stripped(self):
        assert parse_graph6(">>graph6<<Bw").n == 3

    def test_empty_input_fails(self):
        with pytest.raises(GraphParseError):
            parse_graph6("")

    def test_out_of_range_byte_fails_with_offset(self):
        with pytest.raises(GraphParseError) as err:
            parse_graph6("B" + chr(200))
        assert "offset 1" in str(err.value)

    def test_truncated_body_fails(self):
        with pytest.raises(GraphParseError):
            parse_graph6("D")  # n=5 needs 10 bits = 2 bytes

    def test_trailing_data_fails(self):
        with pytest.raises(GraphParseError):
            parse_graph6("Bww")

    def test_nonzero_padding_fails(self):
        # K3 payload with a padding bit set: 0b111001 -> chr(57+63)
        with pytest.raises(GraphParseError):
            parse_graph6("B" + chr(0b111001 + 63))

    def test_long_form_round_trip(self):
        g = Graph(63, ((0, 62),))
        text = write_graph6(g)
        assert text.startswith("~")
        back = parse_graph6(text)
        assert back.n == 63 and back.edge_index.tolist() == [[0, 62]]

    def test_oversized_count_rejected(self):
        with pytest.raises(UnsupportedSizeError):
            write_graph6(Graph(65536))
        with pytest.raises(GraphParseError):
            parse_graph6("~~????")

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=9))
    def test_round_trip_structure(self, g):
        back = parse_graph6(write_graph6(g))
        assert back.n == g.n
        assert np.array_equal(back.edge_index, g.edge_index)

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=8))
    def test_agrees_with_networkx(self, g):
        nx = pytest.importorskip("networkx")
        text = write_graph6(g)
        other = nx.from_graph6_bytes(text.encode())
        assert other.number_of_nodes() == g.n
        assert {tuple(sorted(e)) for e in other.edges()} == set(edge_pairs(g))
        mine = parse_graph6(nx.to_graph6_bytes(other, header=False).decode().strip())
        assert np.array_equal(mine.edge_index, g.edge_index)

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(st.integers(0, 70), st.integers(62, 70)),
        st.sampled_from([0.0, 0.05, 0.3, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_writer_matches_the_pairwise_reference(self, n, p, seed):
        # Up to 70 nodes, half of them drawn near 63, so the long form is
        # covered without networkx.
        g = erdos_renyi(n, p, seed)
        assert write_graph6(g) == reference_graph6(g)

    def test_decode_bound_moves_no_edge(self, monkeypatch):
        """Node counts whose (graphs, n, n) block fits 8 * BATCH_CELLS bytes
        decode in chunks of graphs, n = 512 one graph per chunk; from
        n = 513 on, each graph decodes alone in column slabs. Every side of
        the bound gives the written graphs back, in text order."""
        calls = {"_graph6_block": [], "_graph6_slabs": []}
        for name, seen in calls.items():
            original = getattr(graphs_module, name)

            def counting(codes, starts, n, *rest, seen=seen, original=original):
                seen.append(n)
                return original(codes, starts, n, *rest)

            monkeypatch.setattr(graphs_module, name, counting)
        sizes = [14] * 400 + [0, 1, 2] + [200] * 13 + [512, 513, 513, 600] + [14]
        written = [erdos_renyi(n, 1.0 if n == 600 else 0.05, seed) for seed, n in enumerate(sizes)]
        decoded = decode_graph6([write_graph6(g) for g in written])
        assert [g.n for g in decoded] == sizes
        for g, back in zip(written, decoded):
            assert np.array_equal(back.edge_index, g.edge_index)
            assert back.edge_index.dtype == np.intp and not back.edge_index.flags.writeable
        # many_small's node counts (8..14) each decode in one chunk.
        assert 8 * graphs_module.BATCH_CELLS // 14**2 > 401
        assert calls == {
            "_graph6_block": [0, 1, 2, 14, 200, 200, 200, 512],
            "_graph6_slabs": [513, 513, 600],
        }

    def test_decode_peak_memory_is_bounded(self):
        # The one (graphs, n, n) block took 14.7 MiB for this line, whose
        # text is 0.75 MB.
        text = write_graph6(erdos_renyi(3000, 0.002, 1))
        assert _peak_mib(lambda: decode_graph6([text])) < 4

    @pytest.mark.parametrize(
        "texts,message,offset,line",
        [
            # An earlier header error wins over a later out-of-range byte.
            (["Bw", "D", "B!"], "need 2 edge bytes for n=5, found 0", 1, 12),
            (["", "B!"], "empty graph6 payload", 0, 11),
            # An out-of-range byte wins over a later header error.
            (["Bw", "B!", "D"], "byte 33 outside graph6 range 63..126", 1, 12),
            (["~" + chr(200), "~~"], "byte 200 outside graph6 range 63..126", 1, 11),
            # A header line's offsets count from the payload after ">>graph6<<".
            (["Bw", " >>graph6<<B!\t"], "byte 33 outside graph6 range 63..126", 1, 12),
            ([">>graph6<<Bx"], "non-zero padding bit", 1, 11),
        ],
    )
    def test_first_fault_in_text_order_wins(self, texts, message, offset, line):
        lines = list(range(11, 11 + len(texts)))
        with pytest.raises(GraphParseError) as err:
            decode_graph6(texts, lines)
        assert (err.value.message, err.value.offset, err.value.line) == (message, offset, line)
        with pytest.raises(GraphParseError) as err:
            decode_graph6(texts)
        assert (err.value.message, err.value.offset, err.value.line) == (message, offset, None)


class TestEdgeList:
    def test_round_trip_with_features(self):
        feats = np.array([[0.5, -1.25], [2.0, 3.5], [1e-9, 7.0]])
        g = Graph(3, ((0, 1), (1, 2)), feats)
        back = parse_edge_list(write_edge_list(g))
        assert back == g

    def test_missing_feature_block_defaults_to_ones(self):
        g = parse_edge_list("3 2\n0 1\n")
        assert g.edge_index.tolist() == [[0, 1]]
        assert np.all(g.features == 1.0)
        assert g.d == 2

    def test_out_of_range_index_names_line(self):
        with pytest.raises(GraphParseError) as err:
            parse_edge_list("2 1\n0 2\n")
        assert "index 2 out of range" in str(err.value)
        assert "line 2" in str(err.value)

    def test_wrong_feature_arity_names_line(self):
        with pytest.raises(GraphParseError) as err:
            parse_edge_list("2 2\n0 1\n1.0 2.0\n3.0\n")
        assert "line 4" in str(err.value)

    def test_wrong_feature_row_count_fails(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("3 1\n0 1\n1.0\n2.0\n")

    def test_integer_line_in_short_block_names_both_readings(self):
        for text, found in [("3 1\n0 1\n1\n", "1 row"), ("3 1\n0 1\n0 1 2\n5\n", "2 rows")]:
            with pytest.raises(GraphParseError) as err:
                parse_edge_list(text)
            assert err.value.line == 3
            assert str(err.value).startswith(
                "line 3 is neither an edge 'u v' nor the first of 3 feature rows "
                f"(found {found})"
            )

    def test_integer_feature_rows_still_parse(self):
        g = parse_edge_list("3 1\n0 1\n1\n2\n3\n")
        assert g.edge_index.tolist() == [[0, 1]]
        assert g.features[:, 0].tolist() == [1.0, 2.0, 3.0]

    def test_non_finite_feature_fails(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("1 1\ninf\n")

    def test_non_numeric_feature_names_line(self):
        with pytest.raises(GraphParseError) as err:
            parse_edge_list("2 1\n0 1\n1.0\nx\n")
        assert (err.value.message, err.value.line) == ("feature value is not a real number", 4)

    def test_self_loop_fails(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("2 1\n0 0\n")

    def test_header_must_be_two_ints(self):
        with pytest.raises(GraphParseError):
            parse_edge_list("3\n")
        with pytest.raises(GraphParseError):
            parse_edge_list("a b\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty edge-list text"),
            ("\n  \n", "empty edge-list text"),
            ("-1 1\n", "header requires n >= 0 and d >= 1, got n=-1 d=1"),
            ("3 0\n0 1\n", "header requires n >= 0 and d >= 1, got n=3 d=0"),
        ],
    )
    def test_refused_header_names_line_one(self, text, message):
        with pytest.raises(GraphParseError) as err:
            parse_edge_list(text)
        assert (err.value.message, err.value.line) == (message, 1)

    @settings(max_examples=50, deadline=None)
    @given(graphs(max_n=7, feature_dims=3))
    def test_round_trip_random(self, g):
        assert parse_edge_list(write_edge_list(g)) == g

    @pytest.mark.parametrize(
        "edge,message",
        [
            ((2, 2), "self-loop at node 2"),
            ((0, 5), "index 5 out of range for n=3"),
            ((-1, 1), "index -1 out of range for n=3"),
            ((7, 7), "self-loop at node 7"),
            ((1, 0), "duplicate edge (0, 1)"),
        ],
    )
    def test_graph_and_parser_state_one_edge_rule(self, edge, message):
        with pytest.raises(ContractError) as err:
            Graph(3, ((0, 1), edge))
        assert str(err.value) == message
        with pytest.raises(GraphParseError) as err:
            parse_edge_list("3 1\n0 1\n%d %d\n" % edge)
        assert (err.value.message, err.value.line) == (message, 3)

    # (n, d, EDGE_LIST_MAX_CELLS or None for the real one, refused): the
    # cell rule runs under a small patched limit, not on 128 MB of features.
    SIZES = [
        (GRAPH6_MAX_NODES, 1, None, False),
        (GRAPH6_MAX_NODES + 1, 1, None, True),
        (3, 2, 6, False),
        (3, 3, 6, True),
        (0, 7, 6, False),
    ]

    @pytest.mark.parametrize("n, d, cells, refused", SIZES)
    def test_writer_refuses_exactly_what_the_reader_refuses(self, monkeypatch, n, d, cells, refused):
        if cells is not None:
            monkeypatch.setattr(graphs_module, "EDGE_LIST_MAX_CELLS", cells)
        g = Graph(n, ((0, 1),) if n > 1 else (), np.full((n, d), -0.0))
        if not refused:
            assert parse_edge_list(write_edge_list(g)) == g
            return
        with pytest.raises(GraphParseError) as read:
            parse_edge_list(f"{n} {d}\n")
        with pytest.raises(UnsupportedSizeError) as written:
            write_edge_list(g)
        assert str(written.value) == f"edge-list output: {read.value.message}"


class TestPermutation:
    def test_rejects_non_bijection(self):
        with pytest.raises(ContractError):
            Permutation((0, 0, 1))

    @pytest.mark.parametrize("mapping", [(True, False), (0.0, 1.0), (1, "0"), (0, None)])
    def test_rejects_entries_that_are_not_integers(self, mapping):
        with pytest.raises(ContractError, match="^permutation entry must be an integer, got "):
            Permutation(mapping)

    def test_numpy_integers_become_ints(self):
        p = Permutation(tuple(np.array([1, 0], dtype=np.int64)))
        assert p.mapping == (1, 0) and all(type(x) is int for x in p.mapping)

    def test_inverse(self):
        p = Permutation((2, 0, 1))
        assert p.inverse().mapping == (1, 2, 0)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_apply_then_invert_is_identity(self, data):
        g = data.draw(graphs(max_n=7, feature_dims=2))
        p = Permutation(data.draw(permutations_for(g.n)))
        assert apply_permutation(apply_permutation(g, p), p.inverse()) == g

    def test_features_travel_with_nodes(self):
        g = Graph(3, ((0, 1),), np.array([[1.0], [2.0], [3.0]]))
        p = Permutation((2, 0, 1))  # node 0 becomes node 2
        out = apply_permutation(g, p)
        assert out.features[2, 0] == 1.0
        assert out.edge_index.tolist() == [[0, 2]]

    def test_length_mismatch_fails(self):
        with pytest.raises(ContractError, match="^permutation length 3 does not match n=2$"):
            apply_permutation(Graph(2), Permutation((0, 1, 2)))
        # The first graph whose permutation has the wrong length names the error.
        perms = [Permutation((1, 0)), Permutation((1, 0)), Permutation((0, 1, 2))]
        with pytest.raises(ContractError, match="^permutation length 2 does not match n=3$"):
            GraphBatch([path(2), path(3), path(4)]).relabeled(perms)

    def test_batch_needs_one_permutation_per_graph(self):
        with pytest.raises(ContractError, match="^1 permutations for 2 graphs$"):
            GraphBatch([path(3), path(2)]).relabeled([Permutation((2, 0, 1))])


class TestAreIsomorphic:
    def test_relabeled_graph_matches_with_witness(self):
        g = Graph(4, ((0, 1), (1, 2), (2, 3)))
        h = apply_permutation(g, Permutation((3, 1, 0, 2)))
        verdict = are_isomorphic(g, h)
        assert verdict.isomorphic
        assert verdict.witness is not None
        assert apply_permutation(g, verdict.witness) == h

    def test_witness_maps_edges_exactly(self):
        g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4)))
        p = Permutation((4, 2, 0, 3, 1))
        h = apply_permutation(g, p)
        verdict = are_isomorphic(g, h)
        assert verdict.isomorphic
        assert np.array_equal(apply_permutation(g, verdict.witness).edge_index, h.edge_index)

    def test_cycle_vs_two_triangles(self):
        assert not are_isomorphic(cycle(6), disjoint_cycles([3, 3])).isomorphic

    def test_features_matter(self):
        a = Graph(2, ((0, 1),), np.array([[1.0], [1.0]]))
        b = Graph(2, ((0, 1),), np.array([[1.0], [2.0]]))
        assert not are_isomorphic(a, b).isomorphic
        assert are_isomorphic(a, b, structure_only=True).isomorphic

    def test_feature_tolerance_uses_quantization(self):
        a = Graph(1, (), np.array([[0.5]]))
        b = Graph(1, (), np.array([[0.5 + 4e-7]]))
        assert are_isomorphic(a, b).isomorphic
        assert not are_isomorphic(b, Graph(1, (), np.array([[0.5 + 2e-6]]))).isomorphic

    def test_width_mismatch_is_contract_error(self):
        a = Graph(1, (), np.ones((1, 1)))
        b = Graph(1, (), np.ones((1, 2)))
        with pytest.raises(ContractError):
            are_isomorphic(a, b)
        assert are_isomorphic(a, b, structure_only=True).isomorphic

    def test_size_bound_is_enforced(self):
        g = Graph(65)
        with pytest.raises(ResourceLimitError):
            are_isomorphic(g, g)
        assert are_isomorphic(g, g, max_nodes=65).isomorphic
        assert are_isomorphic(g, g, max_nodes=np.int64(65)).isomorphic
        assert are_isomorphic(Graph(0), Graph(0), max_nodes=0).isomorphic
        with pytest.raises(ResourceLimitError, match="up to 0 nodes"):
            are_isomorphic(Graph(1), Graph(1), max_nodes=0)

    @pytest.mark.parametrize("bad", [None, True, 2.5, "64"])
    def test_max_nodes_must_be_an_integer(self, bad):
        # Checked first, so not even a pair of unequal sizes gets past it.
        with pytest.raises(ContractError, match=f"^max_nodes must be an integer, got {bad!r}$"):
            are_isomorphic(Graph(2), Graph(3), max_nodes=bad)

    def test_max_nodes_must_not_be_negative(self):
        with pytest.raises(ContractError, match="^max_nodes must be >= 0, got -1$"):
            are_isomorphic(Graph(2), Graph(2), max_nodes=-1)

    def test_different_sizes_not_isomorphic(self):
        assert not are_isomorphic(Graph(2), Graph(3)).isomorphic

    def test_empty_graphs_match(self):
        verdict = are_isomorphic(Graph(0), Graph(0))
        assert verdict.isomorphic and verdict.witness.mapping == ()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_brute_force(self, data):
        g = data.draw(graphs(max_n=5, feature_dims=2))
        h = data.draw(graphs(max_n=5, feature_dims=2))
        expected = brute_force_isomorphic(g, h) if g.d == h.d else None
        if expected is None:
            return
        verdict = are_isomorphic(g, h)
        assert verdict.isomorphic == expected
        if verdict.isomorphic:
            mapped = apply_permutation(g, verdict.witness)
            assert np.array_equal(mapped.edge_index, h.edge_index)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_symmetry(self, data):
        g = data.draw(graphs(max_n=5))
        h = data.draw(graphs(max_n=5))
        assert are_isomorphic(g, h).isomorphic == are_isomorphic(h, g).isomorphic


    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 9), st.integers(0, 2**32), st.data())
    def test_different_degree_sequences_agree_with_networkx(self, n, seed, data):
        nx = pytest.importorskip("networkx")
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = data.draw(st.integers(1, len(pairs) - 1))
        rng = np.random.default_rng(seed)
        g, h = (
            Graph(n, tuple(pairs[i] for i in rng.choice(len(pairs), m, replace=False)))
            for _ in range(2)
        )
        if sorted(g.degrees) == sorted(h.degrees):
            return
        expected = nx.is_isomorphic(nx.Graph(edge_pairs(g)), nx.Graph(edge_pairs(h)))
        assert are_isomorphic(g, h).isomorphic == expected
        assert not expected

    def test_degree_reject_runs_no_refinement(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("refined")

        monkeypatch.setattr(wl, "_refine", refuse)
        star_like = Graph(4, ((0, 1), (0, 2), (0, 3)))
        assert not are_isomorphic(star_like, path(4)).isomorphic
        assert not are_isomorphic(star_like, path(4), structure_only=True).isomorphic

    # Witnesses found before the degree check existed, for relabelings by
    # Permutation.random(n, default_rng(seed)).
    PINNED_WITNESSES = [
        ("er", 7, 1, (4, 0, 1, 5, 2, 6, 3)),
        ("cubic", 12, 12, (1, 4, 6, 8, 10, 5, 7, 3, 0, 11, 2, 9)),
        ("rook", 16, 0, (0, 2, 13, 14, 4, 11, 8, 12, 5, 10, 15, 9, 7, 3, 1, 6)),
    ]

    @pytest.mark.parametrize("kind,n,seed,witness", PINNED_WITNESSES)
    def test_witnesses_are_unchanged(self, kind, n, seed, witness):
        build = {"er": lambda: erdos_renyi(n, 0.4, seed), "cubic": lambda: random_cubic(n, seed)}
        g = build.get(kind, rook4x4)()
        h = apply_permutation(g, Permutation.random(n, np.random.default_rng(seed)))
        assert are_isomorphic(g, h).witness.mapping == witness


def disjoint_union(a: Graph, b: Graph) -> Graph:
    return Graph(a.n + b.n, np.concatenate([a.edge_index, b.edge_index + a.n]))


def circulant(n: int, jumps: tuple[int, ...]) -> Graph:
    """C_n(jumps): v ~ v + j (mod n) for each jump j. CSL graphs are C41(1, R)."""
    edges = {tuple(sorted((v, (v + j) % n))) for v in range(n) for j in jumps}
    return Graph(n, tuple(sorted(edges)))


def relabeled(g: Graph, seed: int) -> Graph:
    return apply_permutation(g, Permutation.random(g.n, np.random.default_rng(seed)))


def cubic_case(n: int, seed: int):
    g = random_cubic(n, seed=seed)
    return g, (random_cubic(n, seed=seed + 1), relabeled(g, seed)), False


def vf2_cases() -> list:
    """(g, partners, structure_only): pairs that unequal distance profiles
    decide (the random cubic and CSL pairs, C6 vs 2C3, C8 vs 2C4) and
    pairs that pass them to the search (every relabeling, rook4x4 vs
    Shrikhande)."""
    cases = [pytest.param(*cubic_case(n, n), id=str(n)) for n in (12, 16, 22, 30)]
    cases += [
        pytest.param(*cubic_case(n, seed), id=f"cubic{n}-{seed}")
        for n in (12, 14, 16)
        for seed in (101, 202, 303)
    ]
    csl = {r: circulant(41, (1, r)) for r in (2, 3, 4, 5)}
    cases += [
        pytest.param(g, (*(h for s, h in csl.items() if s != r), relabeled(g, r)), False, id=f"csl41-{r}")
        for r, g in csl.items()
    ]
    c6, c8 = cycle(6), cycle(8)
    two_c3, two_c4 = disjoint_cycles([3, 3]), disjoint_cycles([4, 4])
    c6_isolated, two_c3_isolated = Graph(8, c6.edge_index), Graph(8, two_c3.edge_index)
    rook = rook4x4()
    cases += [
        pytest.param(c6, (two_c3, relabeled(c6, 1)), False, id="c6-2c3"),
        pytest.param(two_c3, (c6, relabeled(two_c3, 1)), False, id="2c3-c6"),
        pytest.param(c8, (two_c4, relabeled(c8, 1)), False, id="c8-2c4"),
        pytest.param(c6_isolated, (two_c3_isolated, relabeled(c6_isolated, 1)), False, id="isolated"),
        pytest.param(rook, (shrikhande(), relabeled(rook, 1)), False, id="rook-shrikhande"),
        pytest.param(Graph(1), (Graph(1),), False, id="n1"),
        pytest.param(Graph(2), (Graph(2), Graph(2, ((0, 1),))), False, id="n2-empty"),
        pytest.param(Graph(2, ((0, 1),)), (relabeled(Graph(2, ((0, 1),)), 1),), False, id="n2-edge"),
    ]
    rng = np.random.default_rng(7)
    g = random_cubic(12, seed=7)
    partners = (random_cubic(12, seed=8), relabeled(g, 7))
    cases.append(
        pytest.param(
            Graph(12, g.edge_index, rng.random((12, 2))),
            tuple(Graph(12, h.edge_index, rng.random((12, 3))) for h in partners),
            True,
            id="structure-only",
        )
    )
    return cases


def nx_graph(nx, g: Graph):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(edge_pairs(g))
    return out


def er_pairs():
    """Seeded G(n, p) pairs with n <= 12: each graph against a relabeling
    and against an independent draw."""
    for n in range(4, 13):
        for seed in range(8):
            p = 0.3 + 0.05 * (seed % 4)
            g = erdos_renyi(n, p, seed)
            yield g, relabeled(g, seed)
            yield g, erdos_renyi(n, p, seed + 1000)


def cubic_pairs():
    for n in range(8, 17, 2):
        for seed in range(6):
            g = random_cubic(n, seed)
            yield g, relabeled(g, seed)
            yield g, random_cubic(n, seed + 100)


def union_pairs():
    """Two-part unions of rook4x4, Shrikhande and cycles, against a
    relabeled union of the parts swapped and against unions that change
    one part. 2 x rook4x4 vs rook4x4 + Shrikhande and its kin are left
    out: the unpruned search refuses them."""
    parts = [rook4x4(), shrikhande(), cycle(16), disjoint_cycles([8, 8])]
    for i, a in enumerate(parts):
        for j, b in enumerate(parts):
            yield disjoint_union(a, b), relabeled(disjoint_union(b, a), i + j)
            for c in parts[2:]:
                yield disjoint_union(a, b), disjoint_union(a, c)


def csl_pairs():
    """CSL graphs C41(1, R), built from their formula: each against a
    relabeling and against the next one."""
    skips = (2, 3, 4, 5, 6, 9, 11, 12, 13, 16)
    for r, s in zip(skips, skips[1:] + skips[:1]):
        g = circulant(41, (1, r))
        yield g, relabeled(g, r)
        yield g, circulant(41, (1, s))


REFERENCE_FAMILIES = {"er": er_pairs, "cubic": cubic_pairs, "unions": union_pairs, "csl": csl_pairs}


class TestIsomorphismSearch:
    """Individualisation-refinement against networkx's VF2, and its budget."""

    @pytest.mark.parametrize("g,partners,structure_only", vf2_cases())
    def test_random_cubic_pairs_agree_with_vf2(self, g, partners, structure_only):
        nx = pytest.importorskip("networkx")
        for h in partners:
            expected = nx.is_isomorphic(nx_graph(nx, g), nx_graph(nx, h))
            start = time.perf_counter()
            verdict = are_isomorphic(g, h, structure_only=structure_only)
            assert time.perf_counter() - start < 1.0
            assert verdict.isomorphic == expected
            if expected:
                m = verdict.witness.mapping
                h_edges = set(edge_pairs(h))
                assert all((min(m[u], m[v]), max(m[u], m[v])) in h_edges for u, v in edge_pairs(g))

    def test_distance_profiles_decide_a_cubic_pair_without_search(self):
        # The search took 12 steps here before distance profiles were compared.
        g, h = random_cubic(12, seed=12), random_cubic(12, seed=13)
        assert not wl.distinguishes(wl.wl1_signature(g), wl.wl1_signature(h))
        assert are_isomorphic(g, h) == wl.IsoVerdict(False, None, 0)

    def test_strongly_regular_pair_is_searched_in_pinned_steps(self):
        # Same SRG parameters: every node has 6 nodes at distance 1 and 9
        # at distance 2, so the profiles agree and the search decides.
        # Without orbit pruning it took 112 steps; the 15 include those
        # that found Shrikhande's automorphisms.
        verdict = are_isomorphic(rook4x4(), shrikhande())
        assert (verdict.isomorphic, verdict.steps) == (False, 15)
        assert reference_are_isomorphic(rook4x4(), shrikhande()).steps == 112

    @pytest.fixture
    def searches(self, monkeypatch):
        """The searches that are_isomorphic runs, in order."""
        made = []

        class Recorded(wl._Search):
            def __init__(self, *args):
                super().__init__(*args)
                made.append(self)

        monkeypatch.setattr(wl, "_Search", Recorded)
        return made

    def test_generators_are_automorphisms_of_the_second_graph(self, searches):
        h = shrikhande()
        assert not are_isomorphic(rook4x4(), h).isomorphic
        (search,) = searches
        for s in search.generators:
            assert np.array_equal(apply_permutation(h, Permutation(s)).edge_index, h.edge_index)
        # Shrikhande's graph is vertex-transitive: the generators carry
        # node 0 onto every node.
        assert search._orbits([0], ()) == set(range(16))

    def test_a_first_path_that_succeeds_finds_no_automorphisms(self, searches):
        g = circulant(41, (1, 2))
        verdict = are_isomorphic(g, relabeled(g, 2))
        assert verdict.isomorphic and verdict.steps == 2
        (search,) = searches
        assert search.generators is None

    def test_leaf_check_refuses_a_map_that_moves_an_edge(self, monkeypatch):
        # Refinement that tells every node apart by its index makes the
        # identity the only leaf, so the edge check alone decides: it
        # refuses rook4x4 -> Shrikhande and accepts rook4x4 -> itself.
        monkeypatch.setattr(wl, "_refine", lambda g, colors: ([bytes([v]) for v in range(g.n)], 1))
        assert are_isomorphic(rook4x4(), shrikhande()) == wl.IsoVerdict(False, None, 0)
        verdict = are_isomorphic(rook4x4(), rook4x4())
        assert verdict.isomorphic and verdict.witness.mapping == tuple(range(16))

    def test_unequal_profiles_need_no_search_budget(self, monkeypatch):
        monkeypatch.setattr(wl, "ISO_SEARCH_BUDGET", 0)
        assert not are_isomorphic(random_cubic(12, seed=12), random_cubic(12, seed=13)).isomorphic
        with pytest.raises(ResourceLimitError):
            are_isomorphic(rook4x4(), shrikhande())

    def test_refinement_split_computes_no_distance_profiles(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("distance profiles computed")

        monkeypatch.setattr(wl, "ball_growth", refuse)
        # Equal degree sequences; the degree-3 node has two degree-1
        # neighbours in h and one in g, so 1-WL splits them.
        g = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5)))
        h = Graph(6, ((0, 1), (1, 2), (2, 3), (3, 4), (1, 5)))
        assert sorted(g.degrees) == sorted(h.degrees)
        assert are_isomorphic(g, h) == wl.IsoVerdict(False, None, 0)

    def test_srg_union_pair_is_decided(self):
        # 2 x rook4x4 vs rook4x4 + Shrikhande: 1-WL-equal and with equal
        # distance profiles, and not isomorphic, since their components
        # differ. The unpruned search exceeds the budget on it.
        g = disjoint_union(rook4x4(), rook4x4())
        h = disjoint_union(rook4x4(), shrikhande())
        start = time.perf_counter()
        verdict = are_isomorphic(g, h)
        assert time.perf_counter() - start < 1.0
        assert not verdict.isomorphic and verdict.steps <= wl.ISO_SEARCH_BUDGET
        with pytest.raises(ResourceLimitError):
            reference_are_isomorphic(g, h)

    def test_budget_counts_automorphism_steps(self, monkeypatch):
        g = disjoint_union(rook4x4(), rook4x4())
        h = disjoint_union(rook4x4(), shrikhande())
        steps = are_isomorphic(g, h).steps
        monkeypatch.setattr(wl, "ISO_SEARCH_BUDGET", steps)
        assert not are_isomorphic(g, h).isomorphic
        monkeypatch.setattr(wl, "ISO_SEARCH_BUDGET", steps - 1)
        with pytest.raises(ResourceLimitError, match=f"budget of {steps - 1} "):
            are_isomorphic(g, h)

    def test_known_inputs_need_under_a_tenth_of_the_budget(self, monkeypatch):
        monkeypatch.setattr(wl, "ISO_SEARCH_BUDGET", wl.ISO_SEARCH_BUDGET // 10)
        hard_pair_library()
        assert not are_isomorphic(rook4x4(), shrikhande()).isomorphic
        for n in (12, 16, 22, 30):
            g = random_cubic(n, seed=n)
            assert not are_isomorphic(g, random_cubic(n, seed=n + 1)).isomorphic

    @pytest.mark.parametrize("family", sorted(REFERENCE_FAMILIES))
    def test_verdicts_and_witnesses_match_the_unpruned_search(self, family):
        searched = 0
        for g, h in REFERENCE_FAMILIES[family]():
            expected = reference_are_isomorphic(g, h)
            verdict = are_isomorphic(g, h)
            assert verdict.isomorphic == expected.isomorphic
            if expected.witness is None:
                assert verdict.witness is None
            else:
                assert bytes(verdict.witness.mapping) == bytes(expected.witness.mapping)
            searched += expected.steps > 0
        assert searched

    def test_pairs_the_unpruned_search_refuses_agree_with_vf2(self, monkeypatch):
        nx = pytest.importorskip("networkx")
        # At this budget the unpruned search refuses every pair below;
        # the pruned one needs at most 41 steps on each.
        monkeypatch.setattr(wl, "ISO_SEARCH_BUDGET", 100)
        rook, shrik = rook4x4(), shrikhande()
        pairs = [
            (rook, shrik),
            (shrik, rook),
            (disjoint_union(rook, cycle(3)), disjoint_union(shrik, cycle(3))),
            (disjoint_union(rook, cycle(8)), disjoint_union(shrik, cycle(8))),
            (disjoint_union(cycle(5), shrik), disjoint_union(cycle(5), rook)),
        ]
        for g, h in pairs:
            with pytest.raises(ResourceLimitError):
                reference_are_isomorphic(g, h)
            expected = nx.is_isomorphic(nx_graph(nx, g), nx_graph(nx, h))
            assert are_isomorphic(g, h).isomorphic == expected
