"""Untrained message-passing encoders: determinism and architecture traits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isobench import (
    ContractError,
    Graph,
    Permutation,
    TransformSpec,
    apply_permutation,
    apply_transform,
    cycle,
    disjoint_cycles,
    forward,
    init_model,
    node_states,
    path,
)

from helpers import graphs, permutations_for


class TestInit:
    def test_rejects_unknown_arch(self):
        with pytest.raises(ContractError):
            init_model("gcn", 1, 0)

    def test_rejects_bad_width(self):
        with pytest.raises(ContractError):
            init_model("gin", 0, 0)

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

