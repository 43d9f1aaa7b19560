"""Untrained message-passing encoders: determinism and architecture traits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isobench import (
    ARCHS,
    ContractError,
    Graph,
    GraphBatch,
    Permutation,
    TransformSpec,
    apply_permutation,
    apply_transform,
    cycle,
    disjoint_cycles,
    erdos_renyi,
    forward,
    init_model,
    node_states,
    path,
    star,
)
from isobench.models import _fold

from helpers import graphs, permutations_for, reference_forward


class TestInit:
    def test_rejects_unknown_arch(self):
        with pytest.raises(ContractError):
            init_model("gcn", 1, 0)

    def test_rejects_bad_width(self):
        with pytest.raises(ContractError):
            init_model("gin", 0, 0)

    @pytest.mark.parametrize(
        "width, seed, message",
        [
            (1.5, 0, "input_dim must be an integer, got 1.5"),
            (True, 0, "input_dim must be an integer, got True"),
            (2, 1.5, "seed must be an integer, got 1.5"),
            (2, None, "seed must be an integer, got None"),
        ],
    )
    def test_rejects_badly_typed_numbers(self, width, seed, message):
        with pytest.raises(ContractError) as err:
            init_model("gin", width, seed)
        assert str(err.value) == message

    def test_takes_numpy_integers(self):
        a, b = init_model("pna", np.int64(3), np.uint8(7)), init_model("pna", 3, 7)
        assert all(np.array_equal(x.w1, y.w1) for x, y in zip(a.weights, b.weights))

    def test_same_seed_same_weights(self):
        a = init_model("gin", 3, 7)
        b = init_model("gin", 3, 7)
        for ma, mb in zip(a.weights, b.weights):
            assert np.array_equal(ma.w1, mb.w1)
            assert np.array_equal(ma.b2, mb.b2)
        assert a.epsilons == b.epsilons

    def test_different_seed_different_weights(self):
        a = init_model("pna", 2, 1)
        b = init_model("pna", 2, 2)
        assert not np.array_equal(a.weights[0].w1, b.weights[0].w1)

    def test_layer_counts(self):
        assert len(init_model("gin", 1, 0).weights) == 4
        assert len(init_model("pna", 1, 0).weights) == 4
        assert len(init_model("ds", 1, 0).weights) == 2

    def test_gin_epsilons_in_range(self):
        eps = init_model("gin", 1, 5).epsilons
        assert len(eps) == 4
        assert all(0.0 <= e <= 0.1 for e in eps)
        assert init_model("pna", 1, 5).epsilons == ()

    def test_uniform_bound_scales_with_fan(self):
        m = init_model("gin", 1, 3)
        first = m.weights[0]
        assert np.abs(first.w1).max() <= math.sqrt(6.0 / (1 + 16))
        assert np.abs(first.w2).max() <= math.sqrt(6.0 / (16 + 16))

    def test_pna_first_layer_width(self):
        m = init_model("pna", 2, 0)
        assert m.weights[0].w1.shape == (2 * 16, 16)

    def test_weights_are_frozen(self):
        m = init_model("ds", 1, 0)
        with pytest.raises(ValueError):
            m.weights[0].w1[0, 0] = 1.0


class TestForward:
    def test_output_shape(self):
        g = path(4)
        for arch in ("gin", "pna", "ds"):
            e = forward(init_model(arch, 1, 0), g)
            assert e.shape == (16,)
            assert np.all(np.isfinite(e))

    def test_repeat_runs_are_bit_identical(self):
        g = cycle(5)
        for arch in ("gin", "pna", "ds"):
            m = init_model(arch, 1, 9)
            assert np.array_equal(forward(m, g), forward(m, g))

    def test_width_mismatch_rejected(self):
        m = init_model("gin", 2, 0)
        with pytest.raises(ContractError):
            forward(m, path(3))

    def test_empty_graph_rejected(self):
        with pytest.raises(ContractError):
            forward(init_model("ds", 1, 0), Graph(0))

    def test_gin_single_node_composition(self):
        g = Graph(1, (), np.array([[0.5]]))
        m = init_model("gin", 1, 11)
        h = g.features
        for layer, eps in zip(m.weights, m.epsilons):
            agg = (1.0 + eps) * h
            h = np.tanh(np.tanh(agg @ layer.w1 + layer.b1) @ layer.w2 + layer.b2)
        assert np.array_equal(forward(m, g), h[0])

    def test_gin_cannot_split_regular_pair(self):
        m = init_model("gin", 1, 4)
        a = forward(m, cycle(6))
        b = forward(m, disjoint_cycles([3, 3]))
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_ds_ignores_topology(self):
        m = init_model("ds", 1, 2)
        a = forward(m, Graph(4, ((0, 1), (2, 3))))
        b = forward(m, Graph(4, ()))
        assert np.array_equal(a, b)

    def test_ds_output_depends_on_features(self):
        m = init_model("ds", 1, 2)
        a = forward(m, Graph(2, (), np.array([[1.0], [2.0]])))
        b = forward(m, Graph(2, (), np.array([[1.0], [3.0]])))
        assert not np.array_equal(a, b)

    def test_pna_separates_degrees(self):
        m = init_model("pna", 1, 3)
        states = node_states(m, path(3))
        assert not np.allclose(states[0], states[1])
        np.testing.assert_allclose(states[0], states[2])

    def test_pna_isolated_node_runs(self):
        m = init_model("pna", 1, 3)
        e = forward(m, Graph(3, ((0, 1),)))
        assert np.all(np.isfinite(e))

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_relabeling_moves_embeddings_by_rounding_only(self, data):
        g = data.draw(graphs(min_n=1, max_n=7))
        g = apply_transform(TransformSpec(kind="degree"), g)
        p = Permutation(data.draw(permutations_for(g.n)))
        h = apply_permutation(g, p)
        for arch in ("gin", "pna", "ds"):
            m = init_model(arch, g.d, 5)
            np.testing.assert_allclose(forward(m, g), forward(m, h), atol=1e-9)

    def test_readout_is_order_sensitive_at_machine_scale(self):
        # Reassociation can perturb the sum, but never past 1e-9.
        g = apply_transform(TransformSpec(kind="closeness"), path(6))
        p = Permutation((5, 3, 1, 0, 2, 4))
        m = init_model("ds", g.d, 8)
        a = forward(m, g)
        b = forward(m, apply_permutation(g, p))
        np.testing.assert_allclose(a, b, atol=1e-9)



FEATURES = st.sampled_from([-0.0, 0.0]) | st.floats(
    -4.0, 4.0, allow_nan=False, allow_infinity=False, width=32
)
# Signed zeros and magnitudes far enough apart that any change in the
# order of a sum changes its bits.
SUMMANDS = st.sampled_from([-0.0, 0.0, 1e16, -1e16, 1.0, -2.5, 3.0e-8]) | FEATURES


@st.composite
def graph_lists(draw, max_n: int = 20):
    """2..8 graphs of one feature width, at least two of them with one node.

    Edges are sparse, so isolated nodes are common; features hold -0.0.
    Some graphs end in a hub joined to every other node, so the batch's
    top-degree node often has a run of lone degree slots to fold.
    """
    d = draw(st.integers(1, 3))
    sizes = draw(st.permutations(draw(st.lists(st.integers(1, max_n), max_size=6)) + [1, 1]))
    out = []
    for n in sizes:
        hub = n > 1 and draw(st.booleans())
        core = n - 1 if hub else n
        pairs = [(u, v) for u in range(core) for v in range(u + 1, core)]
        edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n, unique=True)) if pairs else []
        if hub:
            edges += [(v, core) for v in range(core)]
        feats = draw(st.lists(FEATURES, min_size=n * d, max_size=n * d))
        out.append(Graph(n, tuple(edges), np.asarray(feats, dtype=np.float64).reshape(n, d)))
    return out


class TestGraphBatch:
    @settings(max_examples=40, deadline=None)
    @given(graph_lists(), st.sampled_from(ARCHS), st.integers(0, 3))
    def test_rows_have_the_bytes_of_single_graph_passes(self, gs, arch, seed):
        m = init_model(arch, gs[0].d, seed)
        rows = forward(m, GraphBatch(gs))
        assert rows.shape == (len(gs), 16)
        assert not rows.flags.writeable
        for g, row in zip(gs, rows):
            alone = forward(m, g)
            assert row.tobytes() == alone.tobytes() == reference_forward(m, g).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_graph_sums_add_rows_in_node_order_from_plus_zero(self, data):
        sizes = data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=5))
        batch = GraphBatch([Graph(n) for n in sizes])
        width = data.draw(st.integers(1, 3))
        values = np.asarray(
            data.draw(st.lists(SUMMANDS, min_size=batch.n * width, max_size=batch.n * width)),
            dtype=np.float64,
        ).reshape(batch.n, width)
        expected = []
        start = 0
        for n in sizes:
            total = np.zeros(width)
            for row in values[start : start + n]:
                total = total + row
            expected.append(total)
            start += n
        assert batch.graph_sums(values).tobytes() == np.array(expected).tobytes()

    def test_all_negative_zero_graph_sums_to_plus_zero(self):
        batch = GraphBatch([Graph(1), Graph(2)])
        sums = batch.graph_sums(np.full((3, 2), -0.0))
        assert not np.any(np.signbit(sums))

    def test_union_counts_nodes_in_list_order(self):
        batch = GraphBatch([path(3), Graph(1), cycle(4)])
        assert batch.n == 8
        assert batch.offsets.tolist() == [0, 3, 4]
        assert batch.node_graph.tolist() == [0, 0, 0, 1, 2, 2, 2, 2]

    def test_single_graph_gives_a_read_only_vector(self):
        e = forward(init_model("pna", 1, 0), path(3))
        assert e.shape == (16,)
        assert not e.flags.writeable

    def test_empty_batch_rejected(self):
        with pytest.raises(ContractError, match="at least one graph"):
            GraphBatch([])

    @pytest.mark.parametrize(
        "bad, message",
        [(Graph(0), "forward pass needs at least one node"),
         (Graph(2, (), np.ones((2, 2))), "model expects 1 feature columns, graph has 2")],
    )
    def test_batch_refuses_what_a_single_pass_refuses(self, bad, message):
        m = init_model("gin", 1, 0)
        for x in (bad, GraphBatch([path(3), bad])):
            with pytest.raises(ContractError, match=message):
                forward(m, x)

    def test_first_refused_graph_names_the_error(self):
        m = init_model("gin", 1, 0)
        wide = Graph(2, (), np.ones((2, 2)))
        with pytest.raises(ContractError, match="model expects 1 feature columns, graph has 2"):
            forward(m, GraphBatch([path(3), wide, Graph(0)]))
        with pytest.raises(ContractError, match="forward pass needs at least one node"):
            forward(m, GraphBatch([path(3), Graph(0), wide]))


def with_hub(g: Graph) -> Graph:
    return apply_transform(TransformSpec(kind="virtual_node"), g)


def signed_zero_star() -> Graph:
    """A 13-node star whose leaves mix +0.0 and -0.0 in both columns."""
    g = star(13)
    feats = np.array([[(-0.0, 0.0)[v % 2], (-0.0, 0.0)[v % 3 == 0]] for v in range(13)])
    return Graph(13, g.edge_index, feats)


def lone_slot_hub() -> Graph:
    """Node 0 has degree 5 and node 6 degree 4, so only slot 4 holds one node."""
    return Graph(7, tuple((0, v) for v in range(1, 6)) + tuple((v, 6) for v in range(1, 5)))


class TestHubFold:
    """A top-degree node's run of lone slots is folded with the loop's bits."""

    @pytest.mark.parametrize(
        "g",
        [
            star(12),
            with_hub(cycle(8)),
            with_hub(erdos_renyi(80, 6 / 80, 80)),
            with_hub(erdos_renyi(120, 6 / 120, 120)),
            signed_zero_star(),
        ],
        ids=["star", "wheel", "virtual_node_80", "virtual_node_120", "signed_zeros"],
    )
    @pytest.mark.parametrize("arch", ["gin", "pna"])
    def test_folded_hub_keeps_reference_bytes(self, g, arch):
        _, _, slots, tail = GraphBatch([g]).slots
        assert tail.size >= 2
        assert sum(count for count, _ in slots) + tail.size == 2 * g.edge_count
        m = init_model(arch, g.d, 3)
        assert forward(m, g).tobytes() == reference_forward(m, g).tobytes()

    @pytest.mark.parametrize(
        "gs",
        [[star(10), star(10)], [lone_slot_hub()]],
        ids=["tied_hubs", "one_lone_slot"],
    )
    @pytest.mark.parametrize("arch", ["gin", "pna"])
    def test_no_fold_without_a_run_of_two_lone_slots(self, gs, arch):
        batch = GraphBatch(gs)
        assert batch.slots[3].size == 0
        m = init_model(arch, 1, 3)
        for g, row in zip(gs, forward(m, batch)):
            assert row.tobytes() == reference_forward(m, g).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([np.add, np.maximum, np.minimum]),
        st.lists(st.lists(SUMMANDS, min_size=3, max_size=3), min_size=2, max_size=12),
    )
    def test_fold_applies_the_loop_steps_in_order(self, op, rows):
        rows = np.array(rows, dtype=np.float64)
        expected = rows[0]
        for row in rows[1:]:
            expected = op(expected, row)
        assert _fold(op, rows[0], rows[1:]).tobytes() == expected.tobytes()
