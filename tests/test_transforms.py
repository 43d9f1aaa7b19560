"""Feature and structure transforms: values, size laws, relabeling behavior."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isobench import (
    ContractError,
    ConvergenceError,
    Graph,
    GraphBatch,
    IsobenchError,
    KINDS,
    Permutation,
    ResourceLimitError,
    TransformSpec,
    all_method_specs,
    apply_permutation,
    apply_transform,
    are_isomorphic,
    cycle,
    disjoint_cycles,
    distance_encoding,
    erdos_renyi,
    parse_transform_token,
    path,
    quantize_matrix,
    simple_spectrum,
    subgraph_extraction,
    wl1_signature,
)
from isobench.graphs import GRAPH6_MAX_NODES
from isobench.spectral import JACOBI_MAX_NODES

from helpers import (
    edge_pairs,
    graphs,
    permutations_for,
    reference_betweenness,
    reference_closeness,
    reference_distance_columns,
    reference_extra_node,
    reference_subgraph_columns,
    reference_virtual_node,
)


def spec(kind: str, **kw) -> TransformSpec:
    return TransformSpec(kind=kind, **kw)


class TestSpecAndTokens:
    def test_defaults(self):
        s = spec("graph_encoding")
        assert (s.k, s.radius, s.d_max, s.sign_mode) == (4, 2, 8, "raw")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ContractError):
            spec("laplacian")

    def test_rejects_bad_parameters(self):
        # Each bad value sits on a kind that reads its field, so only the
        # range check can refuse it.
        big = GRAPH6_MAX_NODES + 1
        for kind, kw, message in [
            ("graph_encoding", {"k": 0}, "k must lie in"),
            ("graph_encoding", {"k": big}, "k must lie in"),
            ("graph_encoding", {"sign_mode": "abs"}, "unknown sign mode"),
            ("subgraph_extraction", {"radius": 0}, "radius must be >= 1"),
            ("distance_encoding", {"d_max": 0}, "d_max must lie in"),
            ("distance_encoding", {"d_max": big}, "d_max must lie in"),
            ("eigenvector", {"power_tol": 0.0}, "power_tol must be finite and positive"),
            ("eigenvector", {"power_tol": float("nan")}, "power_tol must be finite and positive"),
            ("eigenvector", {"power_tol": float("inf")}, "power_tol must be finite and positive"),
            ("eigenvector", {"power_max_iter": 0}, "power_max_iter must be >= 1"),
        ]:
            with pytest.raises(ContractError, match=message):
                spec(kind, **kw)
        assert spec("graph_encoding", k=big - 1).k == GRAPH6_MAX_NODES
        assert spec("distance_encoding", d_max=big - 1).d_max == GRAPH6_MAX_NODES

    @pytest.mark.parametrize(
        "kind, field, bad, good",
        [
            ("graph_encoding", "k", [2.5, True, "3", None], np.int64(3)),
            ("subgraph_extraction", "radius", [1.5, True, np.float64(3.0)], np.int32(3)),
            ("distance_encoding", "d_max", [3.5, False, 4.0], np.uint8(4)),
            ("eigenvector", "power_max_iter", [2.5, True, "20"], np.int64(20)),
        ],
    )
    def test_integer_fields_refuse_bools_and_non_integers(self, kind, field, bad, good):
        # Without the type check, a float reached a kernel and died there
        # with a bare TypeError; numpy integers stay accepted.
        for value in bad:
            with pytest.raises(ContractError, match=f"^{field} must be an integer, got "):
                spec(kind, **{field: value})
        assert getattr(spec(kind, **{field: good}), field) == good

    def test_power_tol_refuses_bools_and_non_reals(self):
        for value in ["1e-8", True, None, 1e-8j]:
            with pytest.raises(ContractError, match="^power_tol must be a real number, got "):
                spec("eigenvector", power_tol=value)
        assert spec("eigenvector", power_tol=np.float32(1e-3)).power_tol == np.float32(1e-3)
        assert spec("eigenvector", power_tol=1).power_tol == 1

    def test_plain_token(self):
        assert parse_transform_token("closeness").kind == "closeness"

    def test_token_with_options(self):
        s = parse_transform_token("graph_encoding:k=6,sign=first_nonzero_positive")
        assert s.k == 6 and s.sign_mode == "first_nonzero_positive"

    def test_numeric_options(self):
        assert parse_transform_token("subgraph_extraction:radius=3").radius == 3
        assert parse_transform_token("distance_encoding:d_max=4").d_max == 4

    def test_token_errors_name_the_problem(self):
        with pytest.raises(ContractError, match="valid kinds"):
            parse_transform_token("bogus")
        with pytest.raises(ContractError, match="valid options"):
            parse_transform_token("degree:nope=1")
        with pytest.raises(ContractError, match="bad value"):
            parse_transform_token("graph_encoding:k=abc")
        with pytest.raises(ContractError, match="bad transform option"):
            parse_transform_token("degree:k")

    # The TransformSpec fields each kind reads; the other kinds read none.
    READS = {
        "graph_encoding": ("k", "sign_mode"),
        "subgraph_extraction": ("radius",),
        "distance_encoding": ("d_max",),
        "eigenvector": ("power_tol", "power_max_iter"),
    }
    NON_DEFAULTS = {
        "k": 3, "radius": 3, "d_max": 3, "sign_mode": "first_nonzero_positive",
        "power_tol": 1e-9, "power_max_iter": 7,
    }
    # Each token option at its field's default value.
    DEFAULT_TOKENS = {
        "k": "4", "radius": "2", "d_max": "8", "sign": "raw", "sign_mode": "raw",
        "power_tol": "1e-08", "power_max_iter": "1000",
    }

    @pytest.mark.parametrize("kind", KINDS)
    def test_spec_refuses_a_field_its_kind_does_not_read(self, kind):
        reads = self.READS.get(kind, ())
        for field, value in self.NON_DEFAULTS.items():
            if field in reads:
                assert getattr(spec(kind, **{field: value}), field) == value
                continue
            with pytest.raises(ContractError) as err:
                spec(kind, **{field: value})
            assert f"transform {kind} takes no option {field!r}; its options: " in str(err.value)
            # An explicit default cannot be told from an omitted one.
            default = TransformSpec.__dataclass_fields__[field].default
            assert spec(kind, **{field: default}) == spec(kind)

    @pytest.mark.parametrize("kind", KINDS)
    def test_token_refuses_an_option_its_kind_does_not_read(self, kind):
        reads = self.READS.get(kind, ())
        for key, value in self.DEFAULT_TOKENS.items():
            token = f"{kind}:{key}={value}"
            if ("sign_mode" if key == "sign" else key) in reads:
                assert parse_transform_token(token) == spec(kind)
                continue
            with pytest.raises(ContractError, match=f"transform {kind} takes no option {key!r}"):
                parse_transform_token(token)

    def test_foreign_option_texts_list_the_kind_options(self):
        cases = {
            "degree:k=5": "transform degree takes no option 'k'; its options: none",
            "closeness:radius=9": "transform closeness takes no option 'radius'; its options: none",
            "graph_encoding:radius=2": (
                "transform graph_encoding takes no option 'radius'; its options: k, sign, sign_mode"
            ),
            "eigenvector:sign=raw": (
                "transform eigenvector takes no option 'sign'; "
                "its options: power_max_iter, power_tol"
            ),
        }
        for token, message in cases.items():
            with pytest.raises(ContractError) as err:
                parse_transform_token(token)
            assert str(err.value) == message
        with pytest.raises(ContractError) as err:
            spec("subgraph_extraction", d_max=3)
        assert str(err.value) == (
            "transform subgraph_extraction takes no option 'd_max'; its options: radius"
        )
        with pytest.raises(ContractError, match="unknown transform option 'nope'"):
            parse_transform_token("graph_encoding:nope=1")

    def test_all_method_specs_covers_every_kind(self):
        specs = all_method_specs()
        assert tuple(s.kind for s in specs) == KINDS
        fnp = all_method_specs("first_nonzero_positive")
        modes = {s.kind: s.sign_mode for s in fnp}
        assert modes["graph_encoding"] == "first_nonzero_positive"

    @pytest.mark.parametrize(
        "kind, name",
        [
            ("closeness", "closeness_centrality"),
            ("betweenness", "betweenness_centrality"),
            ("eigenvector", "eigenvector_centrality"),
            ("graph_encoding", "laplacian_encoding_columns"),
        ],
    )
    def test_registry_calls_module_globals(self, monkeypatch, kind, name):
        # benchmarks/tracing.py times these layers by patching the names
        # on the transforms module, so every call must go through them.
        import isobench.transforms as transforms

        original = getattr(transforms, name)
        calls = []

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(transforms, name, counted)
        apply_transform(spec(kind), cycle(5))
        assert calls == [name]


class TestStructuralTransforms:
    def test_base_is_identity(self):
        g = cycle(5)
        assert apply_transform(spec("base"), g) is g

    def test_virtual_node_wiring(self):
        g = apply_transform(spec("virtual_node"), path(3))
        assert g.n == 4
        assert set(edge_pairs(g)) == {(0, 1), (1, 2), (0, 3), (1, 3), (2, 3)}
        assert np.all(g.features[3] == 1.0)

    def test_virtual_node_keeps_features(self):
        base = Graph(2, ((0, 1),), np.array([[5.0], [7.0]]))
        out = apply_transform(spec("virtual_node"), base)
        assert out.features[:2].tolist() == [[5.0], [7.0]]

    def test_extra_node_turns_triangle_into_hexagon(self):
        out = apply_transform(spec("extra_node"), cycle(3))
        assert are_isomorphic(out, cycle(6), structure_only=True).isomorphic

    def test_extra_node_on_edgeless_graph(self):
        out = apply_transform(spec("extra_node"), Graph(3))
        assert out.n == 3 and out.edge_count == 0

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_n=8))
    def test_size_laws(self, g):
        vn = apply_transform(spec("virtual_node"), g)
        assert vn.n == g.n + 1
        assert vn.edge_count == g.edge_count + g.n
        en = apply_transform(spec("extra_node"), g)
        assert en.n == g.n + g.edge_count
        assert en.edge_count == 2 * g.edge_count

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_n=7))
    def test_extra_node_degrees(self, g):
        en = apply_transform(spec("extra_node"), g)
        assert all(en.degrees[v] == g.degrees[v] for v in range(g.n))
        assert all(en.degrees[v] == 2 for v in range(g.n, en.n))


STRUCTURAL_REFERENCES = (
    ("virtual_node", reference_virtual_node),
    ("extra_node", reference_extra_node),
)


class TestStructuralImages:
    """virtual_node and extra_node build their images from edge arrays;
    the bytes are those of the tuple-built references."""

    @pytest.mark.parametrize("kind, reference", STRUCTURAL_REFERENCES)
    @settings(max_examples=40, deadline=None)
    @given(st.lists(graphs(max_n=9, feature_dims=3), min_size=1, max_size=5))
    @example(
        [
            Graph(0),
            Graph(0, features=np.ones((0, 3))),
            Graph(1, features=[[-0.0]]),
            Graph(5, features=np.full((5, 3), -0.0)),
            cycle(4).with_features([[-0.0, 1.5], [2.0, -0.0], [0.0, 3.0], [-1.0, -0.0]]),
            path(3).with_features(np.full((3, 3), -0.0)),
        ]
    )
    def test_images_match_the_reference(self, kind, reference, gs):
        s = spec(kind)
        batch = apply_transform(s, GraphBatch(gs))
        assert len(batch) == len(gs)
        for g, t in zip(gs, batch):
            expected = reference(g)
            for image in (t, apply_transform(s, g)):
                assert image.n == expected.n
                assert image.edge_index.dtype == expected.edge_index.dtype == np.intp
                assert image.edge_index.tobytes() == expected.edge_index.tobytes()
                assert not image.edge_index.flags.writeable
                assert image.features.shape == expected.features.shape
                assert image.features.tobytes() == expected.features.tobytes()
                assert not image.features.flags.writeable


class TestFeatureTransforms:
    def test_centrality_appends_one_column(self):
        g = apply_transform(spec("degree"), path(4))
        assert g.d == 2
        assert g.features[:, 0].tolist() == [1.0] * 4
        assert g.features[:, 1].tolist() == [1.0, 2.0, 2.0, 1.0]

    def test_structure_is_untouched(self):
        g = cycle(5)
        out = apply_transform(spec("betweenness"), g)
        assert out.n == g.n and np.array_equal(out.edge_index, g.edge_index)

    def test_eigenvector_needs_a_higher_cap_on_path_50(self):
        # Power iteration on I + A mixes slowly on long paths: at the default
        # cap of 1000 steps, paths of 48 to 300 nodes are refused, so their
        # pairs are excluded from the eigenvector column.
        with pytest.raises(ConvergenceError, match="after 1000 steps"):
            apply_transform(spec("eigenvector"), path(50))
        g = apply_transform(spec("eigenvector", power_max_iter=20000), path(50))
        # The principal eigenvector of a path is sin(pi * i / (n + 1)).
        exact = np.sin(np.pi * np.arange(1, 51) / 51)
        np.testing.assert_allclose(g.features[:, -1], exact / np.linalg.norm(exact), atol=1e-5)

    def test_distance_encoding_cycle6(self):
        g = apply_transform(spec("distance_encoding"), cycle(6))
        assert g.d == 1 + 9
        expected = [2.0, 2.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        for v in range(6):
            assert g.features[v, 1:].tolist() == expected

    def test_distance_encoding_ignores_unreachable(self):
        g = apply_transform(spec("distance_encoding"), disjoint_cycles([3, 3]))
        for v in range(6):
            assert g.features[v, 1:].tolist() == [2.0] + [0.0] * 8

    def test_distance_encoding_overflow_column(self):
        g = apply_transform(spec("distance_encoding", d_max=2), path(5))
        # Node 0 sees distances 1..4: one each at 1 and 2, two beyond.
        assert g.features[0, 1:].tolist() == [1.0, 1.0, 2.0]

    def test_distance_encoding_rejects_negative_d_max(self):
        with pytest.raises(ContractError, match="d_max must be >= 0, got -1"):
            distance_encoding(path(5), -1)

    def test_subgraph_extraction_cycle6(self):
        g = apply_transform(spec("subgraph_extraction"), cycle(6))
        for v in range(6):
            assert g.features[v, 1:].tolist() == [5.0, 4.0]

    def test_subgraph_extraction_triangles(self):
        g = apply_transform(spec("subgraph_extraction"), disjoint_cycles([3, 3]))
        for v in range(6):
            assert g.features[v, 1:].tolist() == [3.0, 3.0]

    def test_subgraph_extraction_isolated_node(self):
        g = apply_transform(spec("subgraph_extraction"), Graph(1))
        assert g.features[0, 1:].tolist() == [1.0, 0.0]

    def test_subgraph_extraction_columns(self):
        assert subgraph_extraction(path(3), 0).tolist() == [[1.0, 0.0]] * 3
        assert subgraph_extraction(Graph(0), 2).shape == (0, 2)
        with pytest.raises(ContractError, match="radius must be >= 0, got -1"):
            subgraph_extraction(path(3), -1)

    def test_graph_encoding_appends_k_columns(self):
        g = apply_transform(spec("graph_encoding", k=3), cycle(6))
        assert g.d == 4

    def test_graph_encoding_pads_small_graphs(self):
        g = apply_transform(spec("graph_encoding", k=5), path(3))
        assert g.d == 6
        np.testing.assert_allclose(g.features[:, 3:], np.zeros((3, 3)))

    def test_graph_encoding_k2_values(self):
        s = spec("graph_encoding", k=1, sign_mode="first_nonzero_positive")
        g = apply_transform(s, Graph(2, ((0, 1),)))
        np.testing.assert_allclose(
            g.features[:, 1], [1 / np.sqrt(2), -1 / np.sqrt(2)], atol=1e-9
        )

    def test_empty_graph_rejected_where_meaningless(self):
        for kind in ["degree", "distance_encoding", "graph_encoding", "subgraph_extraction"]:
            with pytest.raises(ContractError):
                apply_transform(spec(kind), Graph(0))


class TestDistanceTransformsMatchNumpyArrayReference:
    """Feature bytes equal those of the per-source numpy-array code."""

    @staticmethod
    def check(s: TransformSpec, g: Graph, cols: np.ndarray):
        out = apply_transform(s, g)
        assert np.array_equal(out.edge_index, g.edge_index)
        assert out.features.tobytes() == np.hstack([g.features, cols]).tobytes()

    @pytest.mark.parametrize("d_max", [1, 3, 8])
    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=1, max_n=11, feature_dims=2))
    @example(Graph(1))
    @example(Graph(5))
    @example(Graph(8, ((0, 1), (1, 2), (3, 4), (4, 5), (5, 6))))
    @example(path(12))
    def test_distance_encoding(self, d_max, g):
        self.check(spec("distance_encoding", d_max=d_max), g, reference_distance_columns(g, d_max))

    # 12 and 10**9 lie past the diameter of every graph drawn here.
    @pytest.mark.parametrize("radius", [1, 2, 4, 12, 1000000000])
    @settings(max_examples=60, deadline=None)
    @given(graphs(min_n=1, max_n=11, feature_dims=2))
    @example(Graph(1))
    @example(Graph(5))
    @example(Graph(8, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6))))
    @example(path(12))
    def test_subgraph_extraction(self, radius, g):
        self.check(
            spec("subgraph_extraction", radius=radius), g, reference_subgraph_columns(g, radius)
        )

    @pytest.mark.parametrize("kind", ["distance_encoding", "subgraph_extraction"])
    def test_empty_graph_is_refused(self, kind):
        with pytest.raises(ContractError, match="needs at least one node"):
            apply_transform(spec(kind), Graph(0))


# Graphs of one, two and three 64-source blocks, a long path, and the
# empty, single-node, edgeless and disconnected cases.
BATCH_MEMBERS = (
    erdos_renyi(64, 0.08, seed=1),
    erdos_renyi(65, 0.06, seed=2),
    erdos_renyi(130, 0.02, seed=3),
    path(150),
    Graph(0),
    Graph(1),
    Graph(7),
    Graph(9, ((0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6))),
)


@st.composite
def batch_lists(draw, members=BATCH_MEMBERS):
    """Graph lists that mix members with small random graphs, each given
    features of width 1 or 2 that may hold -0.0."""
    picks = draw(
        st.lists(st.one_of(st.sampled_from(members), graphs(max_n=9)), min_size=1, max_size=6)
    )
    out = []
    for g in picks:
        d = draw(st.integers(1, 2))
        fill = draw(st.sampled_from([1.0, -0.0, 0.25]))
        out.append(g.with_features(np.full((g.n, d), fill)))
    return out


def _reference_columns(s: TransformSpec, g: Graph) -> np.ndarray:
    if s.kind == "degree":
        return np.array([float(len(g.neighbors[v])) for v in range(g.n)])[:, None]
    if s.kind == "closeness":
        return reference_closeness(g)[:, None]
    return reference_distance_columns(g, s.d_max)


class TestBatch:
    """A batch's rows are the bytes of the per-graph references and of
    transforming each graph alone."""

    @pytest.mark.parametrize(
        "s",
        [spec("degree"), spec("closeness")]
        + [spec("distance_encoding", d_max=d) for d in (1, 2, 8)],
        ids=lambda s: f"{s.kind}-{s.d_max}" if s.kind == "distance_encoding" else s.kind,
    )
    @settings(max_examples=25, deadline=None)
    @given(batch_lists())
    @example(
        [g.with_features(np.full((g.n, 1 + i % 2), (-0.0, 0.5)[i % 2]))
         for i, g in enumerate(BATCH_MEMBERS)]
        + [cycle(5), path(3).with_features(np.full((3, 2), -0.0))]
    )
    def test_rows_match_references_and_single_graphs(self, s, gs):
        out = apply_transform(s, GraphBatch(gs))
        assert len(out) == len(gs)
        for g, t in zip(gs, out):
            if g.n == 0:
                with pytest.raises(ContractError) as alone:
                    apply_transform(s, g)
                assert type(t) is ContractError and str(t) == str(alone.value)
                continue
            expected = np.hstack([g.features, _reference_columns(s, g)])
            assert np.array_equal(t.edge_index, g.edge_index)
            assert t.features.tobytes() == expected.tobytes()
            assert t.features.tobytes() == apply_transform(s, g).features.tobytes()
            assert not t.features.flags.writeable

    # The per-graph column kinds, each with its reference columns if one
    # exists. They run each graph alone, so the 130- and 150-node members,
    # there for the union kernels' multi-block sources, only add Jacobi
    # time (about a second each).
    EACH_KINDS = (
        (spec("betweenness"), lambda g: reference_betweenness(g)[:, None]),
        (spec("eigenvector"), None),
        (spec("graph_encoding"), None),
        (spec("graph_encoding", sign_mode="first_nonzero_positive"), None),
        (spec("subgraph_extraction"), lambda g: reference_subgraph_columns(g, 2)),
    )
    SMALL_MEMBERS = tuple(g for g in BATCH_MEMBERS if g.n <= 65)

    @pytest.mark.parametrize(
        "s, reference",
        EACH_KINDS,
        ids=[s.kind if s.kind != "graph_encoding" else s.sign_mode for s, _ in EACH_KINDS],
    )
    @settings(max_examples=10, deadline=None)
    @given(batch_lists(SMALL_MEMBERS))
    @example(
        [g.with_features(np.full((g.n, 1 + i % 2), (-0.0, 0.5)[i % 2]))
         for i, g in enumerate(SMALL_MEMBERS)]
        + [cycle(5), path(3).with_features(np.full((3, 2), -0.0))]
    )
    def test_per_graph_rows_match_single_graphs(self, s, reference, gs):
        out = apply_transform(s, GraphBatch(gs))
        assert len(out) == len(gs)
        for g, t in zip(gs, out):
            try:
                alone = apply_transform(s, g)
            except IsobenchError as exc:
                assert type(t) is type(exc) and str(t) == str(exc)
                continue
            assert np.array_equal(t.edge_index, g.edge_index)
            assert t.features.tobytes() == alone.features.tobytes()
            if reference is not None:
                expected = np.hstack([g.features, reference(g)])
                assert t.features.tobytes() == expected.tobytes()
            assert not t.features.flags.writeable
        assert all(isinstance(t, ContractError) for g, t in zip(gs, out) if g.n == 0)

    def test_graph_encoding_refuses_over_the_jacobi_cap_in_its_own_slot(self):
        s = spec("graph_encoding")
        gs = [path(3), path(JACOBI_MAX_NODES + 1), Graph(0), cycle(4)]
        out = apply_transform(s, GraphBatch(gs))
        assert isinstance(out[1], ResourceLimitError)
        assert str(out[1]) == (
            f"Jacobi eigensolver is capped at JACOBI_MAX_NODES = {JACOBI_MAX_NODES} rows, "
            f"got {JACOBI_MAX_NODES + 1}"
        )
        assert type(out[2]) is ContractError
        assert str(out[2]) == "graph encoding needs at least one node"
        for i in (0, 3):
            assert out[i].features.tobytes() == apply_transform(s, gs[i]).features.tobytes()

    def test_other_kinds_refuse_per_graph(self):
        bad = spec("eigenvector", power_tol=1e-15, power_max_iter=2)
        out = apply_transform(bad, GraphBatch([Graph(1), path(6)]))
        assert out[0] == apply_transform(bad, Graph(1))
        assert isinstance(out[1], ConvergenceError)


class TestRelabelingBehavior:
    EXACT_KINDS = ("degree", "closeness", "distance_encoding", "subgraph_extraction")

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_integer_valued_transforms_commute_exactly(self, data):
        g = data.draw(graphs(min_n=1, max_n=7))
        p = Permutation(data.draw(permutations_for(g.n)))
        for kind in self.EXACT_KINDS:
            s = spec(kind)
            left = apply_transform(s, apply_permutation(g, p))
            right = apply_permutation(apply_transform(s, g), p)
            assert left == right, kind

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_relabeling_preserves_refinement_class(self, data):
        g = data.draw(graphs(min_n=1, max_n=7))
        p = Permutation(data.draw(permutations_for(g.n)))
        h = apply_permutation(g, p)
        for kind in KINDS:
            if kind == "graph_encoding":
                continue
            s = spec(kind)
            try:
                a = apply_transform(s, g)
                b = apply_transform(s, h)
            except ConvergenceError:
                assume(False)
            assert wl1_signature(a) == wl1_signature(b), kind

    def test_sign_fixed_encoding_is_stable_on_simple_spectra(self):
        for n in (4, 5, 6, 7):
            g = path(n)
            assert simple_spectrum(g, gap=1e-8)
            s = spec("graph_encoding", sign_mode="first_nonzero_positive")
            for mapping in [tuple(reversed(range(n))), tuple((i + 1) % n for i in range(n))]:
                h = apply_permutation(g, Permutation(mapping))
                assert wl1_signature(apply_transform(s, g)) == wl1_signature(
                    apply_transform(s, h)
                )

    def test_raw_encoding_breaks_under_relabeling(self):
        # Raw eigenvector signs depend on node order, so some relabeling
        # changes the quantized feature grid of at least one seed.
        s = spec("graph_encoding")
        hits = 0
        for seed in range(8):
            g = erdos_renyi(12, 0.4, seed=seed)
            rng = np.random.default_rng(seed + 1000)
            p = Permutation(tuple(int(x) for x in rng.permutation(12)))
            a = apply_transform(s, g)
            b = apply_transform(s, apply_permutation(g, p))
            back = apply_permutation(b, p.inverse())
            if not np.array_equal(
                quantize_matrix(a.features, 1e-6), quantize_matrix(back.features, 1e-6)
            ):
                hits += 1
        assert hits > 0
