"""Pair evaluation: clustering, confusion counts, rendering."""

import dataclasses
import json
import math
import re
import time
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isobench import (
    ContractError,
    CorpusIntegrityError,
    Graph,
    GraphBatch,
    LabeledPair,
    PairDataset,
    Permutation,
    REPORT_FORMATS,
    ReportRow,
    ResourceLimitError,
    TransformSpec,
    apply_permutation,
    augment_with_iso_pairs,
    cluster_embeddings,
    complete,
    cycle,
    disjoint_cycles,
    ecc,
    evaluate_grid,
    evaluate_pairs,
    hard_pair_library,
    make_pair_dataset,
    path,
    report_table,
    sort_rows,
    star,
    verify_pair_labels,
    write_graph6,
)
import isobench.evaluate as evaluate
import isobench.models as models
from isobench.cli import _build_parser
from isobench.corpus import load_dataset, pairs_from_graphs

from helpers import (
    canonical_key,
    graphs,
    random_cubic,
    reference_cluster,
    reference_evaluate_pairs,
)


def base_spec() -> TransformSpec:
    return TransformSpec(kind="base")


def augment_library() -> PairDataset:
    """The hard-pair library with four relabeled controls of its graphs."""
    library = hard_pair_library()
    return PairDataset(library.pairs + augment_with_iso_pairs(library.graphs, 4, 0).pairs)


def toy_pairs() -> list[LabeledPair]:
    iso = LabeledPair(path(4), apply_permutation(path(4), Permutation((2, 0, 3, 1))), True)
    non = LabeledPair(cycle(6), disjoint_cycles([3, 3]), False)
    easy = LabeledPair(path(3), star(4), False)
    return [iso, non, easy]


class TestClustering:
    def test_exact_duplicates_share_a_class(self):
        labels = cluster_embeddings(np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 0.0]]), 1e-5)
        assert labels[0] == labels[1] != labels[2]

    def test_chain_merges_transitively(self):
        eps = 1e-3
        rows = np.array([[0.0], [0.0009], [0.0018]])
        assert len(set(cluster_embeddings(rows, eps))) == 1

    def test_gap_splits(self):
        labels = cluster_embeddings(np.array([[0.0], [0.002]]), 1e-3)
        assert labels[0] != labels[1]

    def test_max_norm_metric(self):
        rows = np.array([[0.0, 0.0], [0.0005, 0.002]])
        assert len(set(cluster_embeddings(rows, 1e-3))) == 2
        assert len(set(cluster_embeddings(rows, 2e-3))) == 1

    def test_labels_follow_first_appearance(self):
        labels = cluster_embeddings(np.array([[5.0], [1.0], [5.0], [2.0]]), 1e-9)
        assert labels == [0, 1, 0, 2]

    def test_empty_input(self):
        assert cluster_embeddings(np.zeros((0, 3)), 1e-5) == []

    def test_sweep_spans_only_a_window_of_coordinate_zero(self):
        # Chains along coordinate 0 and rows that agree there but not in
        # coordinate 1, at a size where a missed comparison would show.
        rng = np.random.Generator(np.random.PCG64(5))
        steps = rng.choice([0.4e-5, 0.9e-5, 1.1e-5, 3e-5], size=(1000, 1))
        col = np.cumsum(steps, axis=0)
        rows = np.hstack([col, rng.integers(0, 3, size=(1000, 1)) * 0.8e-5])
        rows = rows[rng.permutation(1000)]
        labels = cluster_embeddings(rows, 1e-5)
        assert labels == reference_cluster(rows, 1e-5)
        assert 1 < ecc(labels) < 1000

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_all_pairs_reference(self, data):
        eps = data.draw(st.sampled_from([0.25, 1e-5, 0.0]))
        m = data.draw(st.integers(0, 30))
        d = data.draw(st.integers(1, 3))
        value = st.one_of(
            # Multiples of eps put rows exactly eps apart (exactly so for 0.25).
            st.integers(-4, 4).map(lambda k: k * eps),
            st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]),
            st.floats(-1.0, 1.0),
        )
        cells = data.draw(st.lists(value, min_size=m * d, max_size=m * d))
        rows = np.array(cells, dtype=np.float64).reshape(m, d)
        assert cluster_embeddings(rows, eps) == reference_cluster(rows, eps)

    def test_non_finite_rows_join_no_other_row(self):
        inf, nan = math.inf, math.nan
        rows = np.array(
            [[nan, 0.0], [nan, 0.0], [inf, 0.0], [inf, 1e-6], [0.0, -inf], [1e-6, -inf], [0.0, 0.0]]
        )
        assert cluster_embeddings(rows, 1e-5) == list(range(7))

    def test_equal_infinities_cluster_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cluster_embeddings(np.array([[math.inf, 0.0], [math.inf, 1.0]]), 1e-5) == [0, 1]

    @pytest.mark.parametrize("eps", [1e-5, 0.0])
    def test_large_mixed_input_matches_reference(self, eps):
        # 1190 rows: a window of 300 rows that link in part, a chain with
        # windows of one to three rows, ties on coordinate 0, groups of 60
        # rows equal as floats (signed zeros included), and rows holding
        # infinities or NaN, alone and in groups of 50.
        rng = np.random.Generator(np.random.PCG64(11))
        e = 1e-5
        wide = np.hstack([rng.uniform(0.0, 2 * e, (300, 1)), rng.uniform(0.0, 30 * e, (300, 2))])
        steps = rng.choice([0.4 * e, 0.9 * e, 1.1 * e, 3 * e], size=(300, 1))
        chain = np.hstack([1.0 + np.cumsum(steps, axis=0), rng.integers(0, 3, (300, 2)) * 0.8 * e])
        ties = np.hstack(
            [3.0 + rng.integers(0, 2, (200, 1)) * e, rng.integers(0, 10, (200, 2)) * e]
        )
        equal = np.array([[2.0, 0.0, -0.0], [2.0, -0.0, 0.0], [5.0, 1.0, 1.0], [5.0, 1.0, 1.0 + e]])
        groups = equal[rng.integers(0, 4, 240)]
        inf, nan = math.inf, math.nan
        special = np.array(
            [[inf, 1.0, 0.0], [-inf, 0.0, -0.0], [0.0, inf, -inf], [nan, 0.0, 0.0], [0.0, nan, 1.0]]
        )
        odd = np.vstack([special[rng.integers(0, 5, 100)], np.repeat(special[:1], 50, axis=0)])
        rows = np.vstack([wide, chain, ties, groups, odd])[rng.permutation(1190)]
        labels = cluster_embeddings(rows, eps)
        # The reference subtracts infinities from each other without numpy's errstate.
        with np.errstate(invalid="ignore"):
            assert labels == reference_cluster(rows, eps)
        assert 100 < ecc(labels) < 1190

    @pytest.mark.parametrize("linked", [True, False])
    def test_one_window_of_3000_rows(self, linked):
        # All coordinates 0 lie within eps of each other, so every row's
        # window holds every later row: 4.5 M pairs to consider. Linked, all
        # of them join; apart, none does.
        eps = 1e-5
        rng = np.random.Generator(np.random.PCG64(3))
        rows = rng.uniform(0.0, eps, size=(3000, 16))
        if not linked:
            rows[:, 1:] += rng.permutation(3000)[:, None] * 1e-3
        tracemalloc.start()
        try:
            start = time.perf_counter()
            labels = cluster_embeddings(rows, eps)
            seconds = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert labels == ([0] * 3000 if linked else list(range(3000)))
        assert peak <= 4 * 2**20
        if linked:
            assert seconds < 5.0

    @pytest.mark.parametrize("shape", [(3,), (1, 2, 2), ()])
    def test_rows_must_form_a_matrix(self, shape):
        with pytest.raises(ContractError, match=re.escape(f"got shape {shape}")):
            cluster_embeddings(np.ones(shape), 1e-5)

    @pytest.mark.parametrize("eps", [-1.0, math.nan, math.inf])
    def test_tolerance_must_be_finite_and_non_negative(self, eps):
        message = re.escape(f"cluster tolerance must be finite and >= 0, got {eps}")
        with pytest.raises(ContractError, match=message):
            cluster_embeddings(np.zeros((2, 1)), eps)
        with pytest.raises(ContractError, match=message):
            evaluate_pairs(make_pair_dataset(toy_pairs()), base_spec(), "gin", cluster_eps=eps)

    def test_zero_width_rows_share_one_class(self):
        assert cluster_embeddings(np.zeros((3, 0)), 1e-5) == [0, 0, 0]

    def test_ecc_counts_classes(self):
        assert ecc([0, 1, 0, 2]) == 3
        assert ecc([]) == 0


class TestDatasets:
    def test_verification_confirms_small_pairs(self):
        ds = make_pair_dataset(toy_pairs())
        assert all(p.verified for p in ds.pairs)
        assert ds.unverified_count == 0

    def test_wrong_label_is_rejected(self):
        lie = LabeledPair(path(3), path(3), False)
        with pytest.raises(CorpusIntegrityError):
            verify_pair_labels([lie])

    def test_wrong_iso_label_is_rejected(self):
        lie = LabeledPair(path(3), star(4), True)
        with pytest.raises(CorpusIntegrityError):
            verify_pair_labels([lie])

    def test_wl1_equal_iso_label_is_rejected(self):
        # Counts, degrees and 1-WL all agree on two random cubic graphs.
        lie = LabeledPair(random_cubic(12, 12), random_cubic(12, 13), True, "cubic")
        with pytest.raises(CorpusIntegrityError) as err:
            verify_pair_labels([lie])
        assert str(err.value) == "pair 'cubic' labeled isomorphic=True but the exact test says False"

    def test_width_mismatch_is_refused_before_distance_profiles(self):
        # Same node and edge counts and unequal distance profiles: the
        # width refusal still comes first.
        left = Graph(6, cycle(6).edge_index, np.ones((6, 1)))
        right = Graph(6, disjoint_cycles([3, 3]).edge_index, np.ones((6, 2)))
        with pytest.raises(ContractError, match=r"feature widths differ \(1 vs 2\)"):
            verify_pair_labels([LabeledPair(left, right, False)])

    def test_big_pairs_stay_unverified(self):
        big = LabeledPair(cycle(20), cycle(20), True)
        ds = make_pair_dataset([big])
        assert ds.unverified_count == 1

    def test_graphs_property_flattens_pairs(self):
        ds = make_pair_dataset(toy_pairs())
        assert len(ds.graphs) == 6

    def test_augmentation_is_reproducible(self):
        graphs = [path(4), cycle(5), star(4), complete(4)]
        a = augment_with_iso_pairs(graphs, 3, seed=11)
        b = augment_with_iso_pairs(graphs, 3, seed=11)
        assert len(a.pairs) == 3
        for pa, pb in zip(a.pairs, b.pairs):
            assert pa.left == pb.left and pa.right == pb.right
            assert pa.isomorphic and pa.origin == "augmented"

    def test_augmentation_seed_changes_output(self):
        graphs = [path(4), cycle(5), star(4), complete(4)]
        a = augment_with_iso_pairs(graphs, 4, seed=1)
        b = augment_with_iso_pairs(graphs, 4, seed=2)
        assert any(
            pa.left != pb.left or pa.right != pb.right for pa, pb in zip(a.pairs, b.pairs)
        )

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(graphs(min_n=1, max_n=7, feature_dims=3), min_size=1, max_size=8),
        st.integers(0, 2**32),
        st.data(),
    )
    def test_augmentation_matches_per_graph_relabeling(self, drawn, seed, data):
        # A 1-node graph with d > 1 features is always among the candidates,
        # and the drawn graphs mix feature widths 1..3.
        pool = drawn + [Graph(1, (), np.array([[2.5, -1.0]]))]
        count = data.draw(st.integers(0, len(pool)))
        ds = augment_with_iso_pairs(pool, count, seed)
        rng = np.random.Generator(np.random.PCG64(seed))
        chosen = [pool[int(i)] for i in rng.choice(len(pool), size=count, replace=False)]
        expected = [apply_permutation(g, Permutation.random(g.n, rng)) for g in chosen]
        assert [p.left for p in ds.pairs] == chosen
        for pair, g, h in zip(ds.pairs, chosen, expected):
            assert pair.right.edge_index.tolist() == h.edge_index.tolist()
            assert pair.right.features.shape == h.features.shape
            assert pair.right.features.tobytes() == h.features.tobytes()
            assert pair.left is g
        # The reference itself against the plain per-edge, per-row definition.
        rng = np.random.Generator(np.random.PCG64(seed))
        rng.choice(len(pool), size=count, replace=False)
        for g, h in zip(chosen, expected):
            m = Permutation.random(g.n, rng).mapping
            expected = sorted([min(m[u], m[v]), max(m[u], m[v])] for u, v in g.edge_index.tolist())
            assert h.edge_index.tolist() == expected
            for v in range(g.n):
                assert h.features[m[v]].tobytes() == g.features[v].tobytes()

    def test_augmentation_bounds(self):
        with pytest.raises(ContractError):
            augment_with_iso_pairs([path(3)], 2, seed=0)
        with pytest.raises(ContractError):
            augment_with_iso_pairs([path(3)], -1, seed=0)
        with pytest.raises(ContractError):
            augment_with_iso_pairs([Graph(0)], 1, seed=0)

    @pytest.mark.parametrize(
        "count, seed, message",
        [
            (1.5, 0, "count must be an integer, got 1.5"),
            (True, 0, "count must be an integer, got True"),
            (1, 1.5, "seed must be an integer, got 1.5"),
            (1, "0", "seed must be an integer, got '0'"),
        ],
    )
    def test_augmentation_numbers_must_be_integers(self, count, seed, message):
        with pytest.raises(ContractError) as err:
            augment_with_iso_pairs([path(3)], count, seed)
        assert str(err.value) == message

    def test_augmentation_takes_numpy_integers(self):
        a = augment_with_iso_pairs([path(3), star(4)], np.int64(1), np.int32(5))
        b = augment_with_iso_pairs([path(3), star(4)], 1, 5)
        assert [(p.left, p.right) for p in a.pairs] == [(p.left, p.right) for p in b.pairs]


class TestEvaluatePairs:
    def test_exact_refinement_on_library(self):
        ds = hard_pair_library()
        row = evaluate_pairs(ds, base_spec(), "wl1")
        assert (row.ecc, row.fn, row.fp) == (4, 3, 0)
        assert row.pairs == 4 and row.excluded == 0

    def test_closeness_recovers_cycle_pairs(self):
        # Component size changes per-node closeness, so only the strongly
        # regular pair survives.
        ds = hard_pair_library()
        row = evaluate_pairs(ds, TransformSpec(kind="closeness"), "wl1")
        assert row.fn == 1 and row.fp == 0

    def test_triple_refinement_recovers_cycles(self):
        ds = hard_pair_library()
        row = evaluate_pairs(ds, base_spec(), "wl3")
        assert row.fn == 1 and row.fp == 0

    def test_perfect_oracle_embedder(self):
        ds = make_pair_dataset(toy_pairs())
        row = evaluate_pairs(ds, base_spec(), lambda g: canonical_key(g))
        assert row.fn == 0 and row.fp == 0

    def test_constant_embedder_merges_everything(self):
        ds = make_pair_dataset(toy_pairs())
        row = evaluate_pairs(ds, base_spec(), lambda g: b"x")
        assert row.ecc == 1
        assert row.fp == 0
        assert row.fn == 2  # both non-isomorphic pairs collapse

    def test_vector_embedder_uses_clustering(self):
        ds = make_pair_dataset(toy_pairs())
        row = evaluate_pairs(ds, base_spec(), lambda g: np.array([float(g.n)]))
        # path4 pair same size; C6 vs 2C3 same size; path3 vs star4 differ.
        assert row.fn == 1 and row.fp == 0

    def test_vectors_of_different_lengths_cluster_by_length(self):
        """Sorted degree sequences differ in length across the library's
        pairs; as float vectors they give the rows of the same sequences
        as bytes, whose classes are exact."""

        def degree_vector(g):
            return np.sort(g.degrees).astype(np.float64)

        def degree_bytes(g):
            return np.sort(g.degrees).astype(np.int64).tobytes()

        ds = augment_library()
        specs = [base_spec(), TransformSpec(kind="virtual_node"), TransformSpec(kind="extra_node")]
        vector = evaluate_grid(ds, specs, [degree_vector], by_origin=True)
        exact = evaluate_grid(ds, specs, [degree_bytes], by_origin=True)
        assert len({len(degree_vector(g)) for g in ds.graphs}) > 2
        assert [dataclasses.replace(r, seconds=0.0, embedder="") for r in vector] == [
            dataclasses.replace(r, seconds=0.0, embedder="") for r in exact
        ]
        assert sum(r.fn for r in vector) > 0 and all(r.excluded == 0 for r in vector)

    def test_model_embedder_runs(self):
        ds = make_pair_dataset(toy_pairs())
        row = evaluate_pairs(ds, TransformSpec(kind="degree"), "gin", model_seed=3)
        assert row.pairs == 3 and row.fp == 0

    def test_unknown_embedder_rejected(self):
        ds = make_pair_dataset(toy_pairs())
        with pytest.raises(ContractError):
            evaluate_pairs(ds, base_spec(), "wl9")

    def test_unknown_embedder_is_refused_before_any_transform(self, monkeypatch):
        def no_transform(spec, g):
            raise AssertionError("transformed before the embedder was checked")

        monkeypatch.setattr(evaluate, "apply_transform", no_transform)
        ds = make_pair_dataset(toy_pairs())
        with pytest.raises(ContractError, match="unknown embedder 'wl9'; valid: wl1, wl2"):
            evaluate_pairs(ds, base_spec(), "wl9")

    def test_failing_transform_excludes_but_keeps_count(self):
        spec = TransformSpec(kind="eigenvector", power_tol=1e-15, power_max_iter=2)
        ds = make_pair_dataset(toy_pairs())
        row = evaluate_pairs(ds, spec, "wl1")
        assert row.excluded > 0
        assert row.pairs + row.excluded == 3
        assert row.notes

    def test_origin_filter(self):
        pairs = [
            LabeledPair(path(3), path(3), True, origin="a"),
            LabeledPair(cycle(6), disjoint_cycles([3, 3]), False, origin="b"),
        ]
        ds = make_pair_dataset(pairs)
        row = evaluate_pairs(ds, base_spec(), "wl1", origin="b")
        assert row.pairs == 1 and row.origin == "b"


class TestGridAndRendering:
    def two_rows(self):
        ds = make_pair_dataset(toy_pairs())
        specs = [TransformSpec(kind="degree"), base_spec()]
        return evaluate_grid(ds, specs, ["wl1"])

    def test_grid_covers_product(self):
        rows = self.two_rows()
        assert {(r.method, r.embedder) for r in rows} == {("degree", "wl1"), ("base", "wl1")}

    def test_kwl_budget_excludes_pairs_over_n_to_the_k(self):
        # wl2 refines n nodes with n**2 operations per round, wl3 n**2
        # pairs with n**3; wl1 takes no budget.
        rows = evaluate_grid(
            hard_pair_library(), [base_spec()], ["wl1", "wl2", "wl3"], kwl_budget=100
        )
        assert [(r.embedder, r.pairs, r.excluded) for r in rows] == [
            ("wl1", 4, 0), ("wl2", 3, 1), ("wl3", 1, 3)
        ]
        wl2, wl3 = rows[1].notes, rows[2].notes
        assert [note.split(":")[0] for note in wl2] == ["pair 2 (rook4x4_vs_shrikhande)"]
        assert [note.split(":")[0] for note in wl3] == [
            "pair 0 (c6_vs_2c3)", "pair 1 (c8_vs_2c4)", "pair 2 (rook4x4_vs_shrikhande)"
        ]
        assert "needs 256 tuple-neighbor operations per round" in wl2[0]
        assert all(note.endswith("budget is 100") for note in wl2 + wl3)

    @pytest.mark.parametrize("embedders", [["wl1", "wl2"], ["wl2", "wl1"]])
    def test_wl2_keeps_its_budget_when_it_shares_wl1_refinements(self, embedders):
        rows = evaluate_grid(hard_pair_library(), [base_spec()], embedders, kwl_budget=100)
        by_name = {r.embedder: r for r in rows}
        assert (by_name["wl1"].pairs, by_name["wl1"].excluded, by_name["wl1"].notes) == (4, 0, ())
        assert (by_name["wl2"].pairs, by_name["wl2"].excluded) == (3, 1)
        assert by_name["wl2"].notes == (
            "pair 2 (rook4x4_vs_shrikhande): tuple refinement needs 256 "
            "tuple-neighbor operations per round, budget is 100",
        )

    @pytest.mark.parametrize("embedders", [["wl1", "wl2"], ["wl2", "wl1"]])
    def test_wl2_refuses_empty_graphs_that_wl1_refines(self, embedders):
        ds = PairDataset((LabeledPair(Graph(0), Graph(0), True),))
        by_name = {r.embedder: r for r in evaluate_grid(ds, [base_spec()], embedders)}
        assert (by_name["wl1"].pairs, by_name["wl1"].excluded) == (1, 0)
        assert by_name["wl2"].notes == (
            "pair 0 (unlabeled): tuple refinement needs at least one node",
        )

    @pytest.mark.parametrize("budget", [0, -5, True, 2.5, "100"])
    def test_unusable_kwl_budget_is_refused_before_any_pair(self, monkeypatch, budget):
        def never(spec, x):
            raise AssertionError("no transform may run")

        monkeypatch.setattr(evaluate, "apply_transform", never)
        ds = make_pair_dataset(toy_pairs())
        with pytest.raises(ContractError, match="tuple budget must be an integer >= 1"):
            evaluate_pairs(ds, base_spec(), "wl2", kwl_budget=budget)
        with pytest.raises(ContractError, match="tuple budget must be an integer >= 1"):
            evaluate_grid(ds, [base_spec()], ["wl1"], kwl_budget=budget)

    @pytest.mark.parametrize(
        "options, message",
        [
            ({"cluster_eps": "x"}, "cluster_eps must be a real number, got 'x'"),
            ({"cluster_eps": True}, "cluster_eps must be a real number, got True"),
            ({"quant_eps": "x"}, "quant_eps must be a real number, got 'x'"),
            ({"quant_eps": False}, "quant_eps must be a real number, got False"),
            ({"model_seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"model_seed": True}, "seed must be an integer, got True"),
        ],
    )
    def test_badly_typed_numbers_are_refused(self, options, message):
        ds = make_pair_dataset(toy_pairs())
        with pytest.raises(ContractError) as err:
            evaluate_grid(ds, [base_spec()], ["gin"], **options)
        assert str(err.value) == message

    def test_numpy_numbers_are_numbers(self):
        ds = make_pair_dataset(toy_pairs())
        numpy = evaluate_grid(
            ds, [base_spec()], ["gin", "wl1"],
            cluster_eps=np.float32(1e-5), quant_eps=np.float64(1e-6), model_seed=np.int64(2),
        )
        plain = evaluate_grid(
            ds, [base_spec()], ["gin", "wl1"], cluster_eps=float(np.float32(1e-5)), model_seed=2
        )
        assert [dataclasses.replace(r, seconds=0.0) for r in numpy] == [
            dataclasses.replace(r, seconds=0.0) for r in plain
        ]

    def test_grid_by_origin(self):
        pairs = [
            LabeledPair(path(3), path(3), True, origin="a"),
            LabeledPair(path(4), path(4), True, origin="b"),
        ]
        ds = make_pair_dataset(pairs)
        rows = evaluate_grid(ds, [base_spec()], ["wl1"], by_origin=True)
        assert [r.origin for r in rows] == ["a", "b"]

    def test_sorting_follows_canonical_order(self):
        rows = sort_rows(self.two_rows())
        assert [r.method for r in rows] == ["base", "degree"]

    def test_csv_shape(self):
        text = report_table(self.two_rows(), "csv", meta={"tool": "demo"})
        lines = text.strip().split("\n")
        assert lines[0] == "# tool=demo"
        assert lines[1] == "method,embedder,ecc,fn,fp,pairs,excluded,seconds"
        assert len(lines) == 4
        assert lines[2].startswith("Base,wl1,")
        assert lines[2].endswith(",0.000")

    def test_csv_timing_flag(self):
        text = report_table(self.two_rows(), "csv", timing=True)
        last = text.strip().split("\n")[-1]
        assert not last.endswith(",0.000") or float(last.rsplit(",", 1)[1]) == 0.0

    def test_markdown_shape(self):
        text = report_table(self.two_rows(), "md")
        lines = text.strip().split("\n")
        assert lines[0].startswith("| method")
        assert set(lines[1]) <= {"|", "-"}
        assert len(lines) == 4

    def test_jsonl_parses(self):
        text = report_table(self.two_rows(), "jsonl", meta={"eps": 1e-5})
        lines = text.strip().split("\n")
        head = json.loads(lines[0])
        assert head["meta"]["eps"] == 1e-5
        body = [json.loads(line) for line in lines[1:]]
        assert [row["method"] for row in body] == ["Base", "Degree"]
        assert all(row["seconds"] == 0.0 for row in body)

    def test_origin_column_appears_when_present(self):
        pairs = [LabeledPair(path(3), path(3), True, origin="a")]
        ds = make_pair_dataset(pairs)
        rows = evaluate_grid(ds, [base_spec()], ["wl1"], by_origin=True)
        text = report_table(rows, "csv")
        assert text.splitlines()[0] == "method,embedder,origin,ecc,fn,fp,pairs,excluded,seconds"

    def test_report_table_dispatch(self):
        with pytest.raises(ContractError, match="csv, md, jsonl"):
            report_table(self.two_rows(), "yaml")
        parser = _build_parser()
        commands = next(a for a in parser._actions if a.dest == "command")
        emit = next(a for a in commands.choices["evaluate"]._actions if a.dest == "emit")
        assert tuple(emit.choices) == tuple(REPORT_FORMATS)


def picky(g: Graph) -> bytes:
    """Exact embedder that refuses three-node graphs."""
    if g.n == 3:
        raise ResourceLimitError("picky embedder refuses n=3")
    return canonical_key(g)


def two_width_pairs(with_empty: bool) -> PairDataset:
    """Origin a has one feature column and origin b two. The augmented
    origin pairs a graph object of b, then one of a, with relabeled
    copies, so its model input width is b's."""
    a1, a2 = path(4), star(4)
    b1 = Graph(4, ((0, 1), (1, 2), (2, 3)), np.array([[1.0, 0.0], [0.0, 1.0]] * 2))
    b2 = Graph(3, ((0, 1), (1, 2)), np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 2.0]]))
    pairs = [LabeledPair(a1, a2, False, "a")]
    if with_empty:
        pairs.append(LabeledPair(Graph(0), path(3), False, "a"))
    pairs += [
        LabeledPair(b1, b2, False, "b"),
        LabeledPair(b1, apply_permutation(b1, Permutation((3, 1, 0, 2))), True, "augmented"),
        LabeledPair(a1, apply_permutation(a1, Permutation((2, 0, 3, 1))), True, "augmented"),
        LabeledPair(b2, a2, False, "b"),
    ]
    return PairDataset(tuple(pairs))


def record_transforms(monkeypatch) -> list[tuple[str, list[int]]]:
    """Patch evaluate.apply_transform to record each call's kind and the
    node counts of its batch, in the list returned."""
    calls: list[tuple[str, list[int]]] = []
    apply = evaluate.apply_transform

    def recording(spec, b):
        calls.append((spec.kind, b.sizes.tolist()))
        return apply(spec, b)

    monkeypatch.setattr(evaluate, "apply_transform", recording)
    return calls


class TestGridSharing:
    """A grid transforms each input graph once per spec and embeds each
    result once per (spec, embedder); rows equal cells run one by one."""

    SPECS = (base_spec(), TransformSpec(kind="closeness"), TransformSpec(kind="virtual_node"))

    @pytest.mark.parametrize("with_empty", [False, True])
    @pytest.mark.parametrize("by_origin", [False, True])
    def test_each_graph_is_transformed_and_embedded_once(self, monkeypatch, by_origin, with_empty):
        """Failed partners included: closeness refuses Graph(0), a left
        graph, and picky refuses three-node graphs, yet every other graph
        of their pairs is still computed, and only once."""
        applied: Counter = Counter()
        original = evaluate.apply_transform

        def counting_apply(spec, x):
            # Each graph of a batch call counts as one transform.
            for g in x.graphs if isinstance(x, GraphBatch) else (x,):
                applied[(spec.kind, id(g))] += 1
            return original(spec, x)

        def counting_embedder(inner):
            calls: Counter = Counter()
            seen: list[Graph] = []  # keeps ids unique for the whole grid

            def embed(g):
                seen.append(g)
                calls[id(g)] += 1
                return inner(g)

            return embed, calls

        monkeypatch.setattr(evaluate, "apply_transform", counting_apply)
        ds = two_width_pairs(with_empty)
        first, first_calls = counting_embedder(canonical_key)
        second, second_calls = counting_embedder(picky)
        evaluate_grid(ds, self.SPECS, [first, "wl1", second], by_origin=by_origin)

        objects = {id(g) for g in ds.graphs}
        assert len(objects) == (8 if with_empty else 6) < len(ds.graphs)
        assert applied == Counter({(s.kind, o): 1 for s in self.SPECS for o in objects})
        # Under closeness the pair (Graph(0), path(3)) is excluded before
        # embedding, so its two graphs are embedded under the other specs only.
        embedded = len(self.SPECS) * len(objects) - (2 if with_empty else 0)
        for calls in (first_calls, second_calls):
            assert sum(calls.values()) == embedded
            assert set(calls.values()) == {1}

    @pytest.mark.parametrize("by_origin", [False, True])
    def test_grid_rows_equal_cells_run_alone(self, by_origin):
        ds = two_width_pairs(with_empty=True)
        embedders = ["wl1", "gin", picky]
        grid = evaluate_grid(ds, self.SPECS, embedders, model_seed=2, by_origin=by_origin)
        origins = ["a", "b", "augmented"] if by_origin else [None]
        alone = [
            evaluate_pairs(ds, spec, embedder, model_seed=2, origin=origin)
            for spec in self.SPECS
            for embedder in embedders
            for origin in origins
        ]
        assert [dataclasses.replace(r, seconds=0.0) for r in grid] == [
            dataclasses.replace(r, seconds=0.0) for r in alone
        ]
        notes = "\n".join(note for r in grid for note in r.notes)
        assert "centrality augmentation needs at least one node" in notes
        assert "picky embedder refuses n=3" in notes
        assert "model expects" in notes

    @pytest.mark.parametrize("arch", models.ARCHS)
    def test_model_notes_name_each_pairs_own_fault(self, arch):
        """One base cell's batch holds an empty graph and graphs of the
        wrong width, the empty one first and then second; each pair is
        noted by its own graph's fault."""
        empty = "forward pass needs at least one node"
        width = "model expects 1 feature columns, graph has 2"
        ds = two_width_pairs(with_empty=True)
        row = evaluate_pairs(ds, base_spec(), arch)
        assert row.notes == (
            f"pair 1 (a): {empty}",
            f"pair 2 (b): {width}",
            f"pair 3 (augmented): {width}",
            f"pair 5 (b): {width}",
        )
        swapped = PairDataset((ds.pairs[0], ds.pairs[2], ds.pairs[1]) + ds.pairs[3:])
        row = evaluate_pairs(swapped, base_spec(), arch)
        assert row.notes == (
            f"pair 1 (b): {width}",
            f"pair 2 (a): {empty}",
            f"pair 3 (augmented): {width}",
            f"pair 5 (b): {width}",
        )

    @pytest.mark.parametrize("arch", models.ARCHS)
    def test_model_cell_over_accepted_graphs_checks_none_alone(self, monkeypatch, arch):
        """check_graph runs only on graphs the model refuses: never when
        every graph of a grid passes, and once for the one empty graph."""
        checked: list[Graph] = []
        original = models.check_graph

        def counting(m, g):
            checked.append(g)
            return original(m, g)

        monkeypatch.setattr(models, "check_graph", counting)
        monkeypatch.setattr(evaluate, "check_graph", counting)
        fine = PairDataset((LabeledPair(path(4), star(4), False), LabeledPair(cycle(5), path(5), False)))
        rows = evaluate_grid(fine, self.SPECS, [arch], by_origin=True)
        assert checked == [] and [r.excluded for r in rows] == [0, 0, 0]
        empty = PairDataset(fine.pairs + (LabeledPair(Graph(0), path(3), False),))
        evaluate_grid(empty, self.SPECS, [arch])
        assert [g.n for g in checked] == [0]

    @pytest.mark.parametrize("embedders", [["wl1", "wl2"], ["wl2", "wl1", "wl2"]])
    def test_wl1_and_wl2_refine_each_graph_once_per_spec(self, monkeypatch, embedders):
        """wl2 reads wl1's refinement and never calls wlk_signature; its
        rows still equal the cells run alone, refusals included."""
        refined: list[Graph] = []  # keeps ids unique for the whole grid
        original = evaluate.wl1_signature

        def counting(g, eps):
            refined.append(g)
            return original(g, eps)

        def never(*args):
            raise AssertionError("wl2 must not refine tuples")

        ds = two_width_pairs(with_empty=True)
        alone = [
            evaluate_pairs(ds, spec, embedder, kwl_budget=9)
            for spec in self.SPECS
            for embedder in embedders
        ]
        monkeypatch.setattr(evaluate, "wl1_signature", counting)
        monkeypatch.setattr(evaluate, "wlk_signature", never)
        grid = evaluate_grid(ds, self.SPECS, embedders, kwl_budget=9)

        assert [dataclasses.replace(r, seconds=0.0) for r in grid] == [
            dataclasses.replace(r, seconds=0.0) for r in alone
        ]
        # Closeness refuses Graph(0), so its pair's graphs are never
        # embedded there; every other transformed graph is refined once.
        objects = len({id(g) for g in ds.graphs})
        assert len(refined) == len({id(g) for g in refined}) == len(self.SPECS) * objects - 2
        notes = "\n".join(note for r in grid if r.embedder == "wl2" for note in r.notes)
        assert "tuple refinement needs at least one node" in notes
        assert "needs 16 tuple-neighbor operations per round, budget is 9" in notes

    @pytest.mark.parametrize("by_origin", [False, True])
    @pytest.mark.parametrize("arch", models.ARCHS)
    def test_model_cell_makes_one_forward_call(self, monkeypatch, arch, by_origin):
        """Graphs the model refuses come first, in the middle and last of
        each cell's batch; each cell still makes one forward call, over
        the graphs that pass, and a cell with none makes no call."""
        batches: list[list[Graph]] = []
        original = evaluate.forward

        def recording(params, b):
            batches.append(list(b.graphs))
            return original(params, b)

        monkeypatch.setattr(evaluate, "forward", recording)
        fit = [path(3), path(4), cycle(5)]
        ds = PairDataset(
            (
                LabeledPair(Graph(0), fit[0], False),
                LabeledPair(path(4).with_features(np.ones((4, 2))), fit[1], False),
                LabeledPair(fit[2], path(5).with_features(np.ones((5, 2))), False),
            )
        )
        rows = evaluate_grid(ds, self.SPECS, [arch], by_origin=by_origin)
        # base refuses the first, third and last graph. Closeness refuses
        # Graph(0) before embedding, and its first survivor sets width 3,
        # so the model refuses the middle two. virtual_node: third and last.
        assert [[g.n for g in b] for b in batches] == [[3, 4, 5], [4, 5], [1, 4, 5, 6]]
        assert [id(g) for g in batches[0]] == [id(g) for g in fit]
        assert [r.excluded for r in rows] == [3, 3, 2]

        batches.clear()
        empty = PairDataset((LabeledPair(Graph(0), Graph(0), True),))
        row = evaluate_pairs(empty, base_spec(), arch)
        assert batches == [] and row.excluded == 1

    def test_custom_embedders_sharing_a_name_keep_their_own_results(self):
        """Two custom embedders named alike, one an unhashable callable
        instance, each keep their own embeddings in a spec's memo."""

        @dataclasses.dataclass
        class Scaled:
            scale: float

            def __call__(self, g):
                return np.array([self.scale * g.n, float(g.edge_count)])

        scaled = Scaled(2.0)
        scaled.__name__ = "same"
        with pytest.raises(TypeError, match="unhashable"):
            hash(scaled)

        def same(g):
            return np.sort(g.features.sum(axis=1)).tobytes()

        ds = augment_library()
        embedders = [scaled, same, "wl1"]
        for by_origin in (False, True):
            grid = evaluate_grid(ds, self.SPECS, embedders, by_origin=by_origin)
            origins = list(dict.fromkeys(p.origin for p in ds.pairs)) if by_origin else [None]
            cells = [(s, e, o) for s in self.SPECS for e in embedders for o in origins]
            alone = [evaluate_pairs(ds, s, e, origin=o) for s, e, o in cells]
            reference = [reference_evaluate_pairs(ds, s, e, origin=o) for s, e, o in cells]
            grid = [dataclasses.replace(r, seconds=0.0) for r in grid]
            assert grid == [dataclasses.replace(r, seconds=0.0) for r in alone] == reference
            # The two share a name but not their rows: a memo keyed by
            # name would give the second the first one's classes.
            by_cell = {(r.method, r.origin): [] for r in grid}
            for r in grid:
                by_cell[(r.method, r.origin)].append(r)
            assert any(rs[0].embedder == rs[1].embedder == "same" and rs[0] != rs[1]
                       for rs in by_cell.values())

    def test_left_error_is_noted_before_right(self):
        def refuse(g):
            raise ResourceLimitError(f"refuses n={g.n}")

        three, four = path(3), path(4)
        ds = PairDataset(
            (
                LabeledPair(three, four, False),
                LabeledPair(four, three, False),
                LabeledPair(four, Graph(0), False),
            )
        )
        row = evaluate_pairs(ds, TransformSpec(kind="closeness"), refuse)
        assert row.notes == (
            "pair 2 (unlabeled): centrality augmentation needs at least one node",
            "pair 0 (unlabeled): refuses n=3",
            "pair 1 (unlabeled): refuses n=4",
        )


class TestImageBatches:
    """A column transform's images go to the model cells as one batch
    made from arrays; no Graph object is built for them."""

    COLUMN_SPECS = tuple(
        TransformSpec(kind=kind) for kind in ("degree", "closeness", "distance_encoding")
    )

    @staticmethod
    def small_pairs(tmp_path) -> PairDataset:
        """A graph6 file of small G(n, 0.3) pairs, loaded and augmented as
        `isobench evaluate --augment` does."""
        rng = np.random.default_rng(11)
        lines = []
        for i in range(80):
            n = 8 + i % 7
            upper = np.triu(rng.random((n, n)) < 0.3, 1)
            lines.append(write_graph6(Graph(n, zip(*np.nonzero(upper)))))
        path = tmp_path / "small.g6"
        path.write_text("\n".join(lines) + "\n")
        ds = pairs_from_graphs(load_dataset(str(path)), "small", isomorphic=False)
        return PairDataset(ds.pairs + augment_with_iso_pairs(ds.graphs, 8, 0).pairs)

    def test_model_cells_over_column_images_build_no_graph(self, monkeypatch, tmp_path):
        ds = self.small_pairs(tmp_path)
        built: Counter = Counter()
        trusted = Graph._trusted.__func__
        init = Graph.__init__

        def counting_trusted(cls, *args, **kwargs):
            built["_trusted"] += 1
            return trusted(cls, *args, **kwargs)

        def counting_init(self, *args, **kwargs):
            built["__init__"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(Graph, "_trusted", classmethod(counting_trusted))
        monkeypatch.setattr(Graph, "__init__", counting_init)
        rows = evaluate_grid(ds, self.COLUMN_SPECS, list(models.ARCHS))
        assert built == Counter()
        assert len(rows) == 9 and all(r.pairs == len(ds.pairs) for r in rows)
        # The counters see graphs that are read: wl1 reads each image.
        evaluate_grid(ds, self.COLUMN_SPECS[:1], ["wl1"])
        assert built == Counter({"_trusted": len({id(g) for g in ds.graphs})})
        monkeypatch.undo()
        alone = [
            evaluate_pairs(ds, spec, arch) for spec in self.COLUMN_SPECS for arch in models.ARCHS
        ]
        assert [dataclasses.replace(r, seconds=0.0) for r in rows] == [
            dataclasses.replace(r, seconds=0.0) for r in alone
        ]

    @pytest.mark.parametrize("by_origin", [False, True])
    def test_two_width_rows_match_the_per_pair_reference(self, monkeypatch, by_origin):
        """Over widths 1 and 2, an empty graph and runs cut at 40 cells,
        the grid's array-made images give the rows that the per-pair
        reference computes from Graph objects, notes included."""
        monkeypatch.setattr("isobench.graphs.BATCH_CELLS", 40)
        ds = two_width_pairs(with_empty=True)
        embedders = [*models.ARCHS, "wl1"]
        origins = ["a", "b", "augmented"] if by_origin else [None]
        grid = evaluate_grid(ds, self.COLUMN_SPECS, embedders, model_seed=3, by_origin=by_origin)
        reference = [
            reference_evaluate_pairs(ds, spec, e, model_seed=3, origin=o)
            for spec in self.COLUMN_SPECS
            for e in embedders
            for o in origins
        ]
        assert [dataclasses.replace(r, seconds=0.0) for r in grid] == reference
        assert any("model expects" in note for r in grid for note in r.notes)

    @pytest.mark.parametrize("arch", models.ARCHS)
    def test_embed_batch_gathers_images_stored_by_two_cells(self, monkeypatch, arch):
        """By origin, closeness refuses a's empty graph, so a's other
        graph is transformed but not embedded there; b's cell embeds it
        with b's own graphs, all taken from the one image batch of the
        spec's one transform call, which a's cell made."""
        x, y = path(4), star(5)
        ds = PairDataset(
            (
                LabeledPair(Graph(0), x, False, "a"),
                LabeledPair(x, y, False, "b"),
                LabeledPair(cycle(5), star(6), False, "b"),
            )
        )
        spec = TransformSpec(kind="closeness")
        calls = record_transforms(monkeypatch)
        grid = evaluate_grid(ds, [spec], [arch, "wl1"], by_origin=True)
        assert calls == [("closeness", [0, 4, 5, 5, 6])]
        reference = [
            reference_evaluate_pairs(ds, spec, e, origin=o) for e in (arch, "wl1") for o in "ab"
        ]
        assert [dataclasses.replace(r, seconds=0.0) for r in grid] == reference
        assert [r.pairs for r in grid] == [0, 2, 0, 2]


    def test_by_origin_grid_transforms_once_per_spec(self, monkeypatch):
        """Each spec's first cell, that of origin a, transforms every
        graph of the dataset in one call, b's and c's included."""
        shared, hub = path(4), star(6)
        ds = PairDataset(
            (
                LabeledPair(path(3), shared, False, "a"),
                LabeledPair(shared, cycle(5), False, "b"),
                LabeledPair(Graph(0), hub, False, "c"),
                LabeledPair(hub, star(6), True, "c"),
            )
        )
        calls = record_transforms(monkeypatch)
        grid = evaluate_grid(ds, self.COLUMN_SPECS, ["gin", "wl1"], by_origin=True)
        sizes = [3, 4, 5, 0, 6, 6]
        assert calls == [(s.kind, sizes) for s in self.COLUMN_SPECS]
        reference = [
            reference_evaluate_pairs(ds, s, e, origin=o)
            for s in self.COLUMN_SPECS
            for e in ("gin", "wl1")
            for o in "abc"
        ]
        assert [dataclasses.replace(r, seconds=0.0) for r in grid] == reference

    def test_origin_cell_alone_transforms_only_its_graphs(self, monkeypatch):
        """evaluate_pairs with an origin and no memo indexes that origin's
        pairs only, so its one transform call holds only their graphs."""
        shared, mine = path(4), cycle(5)
        ds = PairDataset(
            (
                LabeledPair(path(3), shared, False, "a"),
                LabeledPair(shared, mine, False, "b"),
                LabeledPair(star(6), path(7), False, "c"),
            )
        )
        seen: list[tuple[Graph, ...]] = []
        apply = evaluate.apply_transform

        def recording(spec, b):
            seen.append(b.graphs)
            return apply(spec, b)

        monkeypatch.setattr(evaluate, "apply_transform", recording)
        row = evaluate_pairs(ds, TransformSpec(kind="degree"), "wl1", origin="b")
        assert [[id(g) for g in b] for b in seen] == [[id(shared), id(mine)]]
        assert dataclasses.replace(row, seconds=0.0) == reference_evaluate_pairs(
            ds, TransformSpec(kind="degree"), "wl1", origin="b"
        )
        seen.clear()
        missing = evaluate_pairs(ds, TransformSpec(kind="degree"), "wl1", origin="d")
        assert seen == [] and (missing.pairs, missing.excluded) == (0, 0)


class TestModelBatches:
    """Model embedders embed a cell's graphs in runs bounded by
    graphs.BATCH_CELLS; the bound moves no row and no note."""

    SPECS = (base_spec(), TransformSpec(kind="degree"), TransformSpec(kind="virtual_node"))
    BIG = 2100  # nodes: over the default bound for every architecture

    def dataset(self) -> PairDataset:
        big = path(self.BIG)
        relabeled = apply_permutation(big, Permutation.random(self.BIG, np.random.default_rng(0)))
        return PairDataset(
            two_width_pairs(with_empty=True).pairs
            + (
                LabeledPair(Graph(1), big, False, "a"),
                LabeledPair(big, relabeled, True, "a"),
                LabeledPair(Graph(1), Graph(1), True, "a"),
            )
        )

    @pytest.mark.parametrize("by_origin", [False, True])
    def test_bound_moves_no_row_or_note(self, monkeypatch, by_origin):
        ds = self.dataset()
        batches: list[tuple[int, ...]] = []

        # Each run of a forward pass computes its states once.
        for arch, (widths, states) in list(models._ARCHS.items()):

            def recording(params, run, states=states):
                batches.append(tuple(g.n for g in run.graphs))
                return states(params, run)

            monkeypatch.setitem(models._ARCHS, arch, (widths, recording))

        def grid(cells: int):
            monkeypatch.setattr("isobench.graphs.BATCH_CELLS", cells)
            batches.clear()
            rows = evaluate_grid(
                ds, self.SPECS, ["gin", "pna", "ds"], model_seed=2, by_origin=by_origin
            )
            return [dataclasses.replace(r, seconds=0.0) for r in rows], list(batches)

        one_each, singles = grid(0)
        default, bounded = grid(2**15)
        unbounded, whole = grid(2**62)
        assert one_each == default == unbounded
        assert {len(b) for b in singles} == {1}
        assert all(len(b) == 1 for b in bounded if max(b) >= self.BIG)
        assert len(bounded) < len(singles) and len(whole) < len(bounded)
        notes = [note for r in default for note in r.notes]
        assert any("forward pass needs at least one node" in note for note in notes)
        assert any("feature columns, graph has" in note for note in notes)


def picky_vector(g: Graph) -> np.ndarray:
    """Clustered embedder that refuses three-node graphs."""
    if g.n == 3:
        raise ResourceLimitError("picky_vector refuses n=3")
    return np.array([float(g.n), float(g.edge_count), float(g.features.sum())])


@st.composite
def pair_datasets(draw) -> PairDataset:
    """Pairs over a few graph objects, so that one object sits in several
    pairs and on both sides of one; some have no nodes or two feature
    columns, which transforms and models refuse."""
    drawn_graph = st.one_of(graphs(max_n=5), graphs(max_n=5, feature_dims=2))
    pool = draw(st.lists(drawn_graph, min_size=1, max_size=4))
    drawn = draw(
        st.lists(
            st.tuples(
                st.sampled_from(pool), st.sampled_from(pool), st.booleans(), st.sampled_from("abc")
            ),
            max_size=6,
        )
    )
    return PairDataset(tuple(LabeledPair(*t) for t in drawn))


class TestArrayCells:
    """A cell scored from index arrays equals the per-pair walk of
    helpers.reference_evaluate_pairs, notes and their order included."""

    SPECS = (
        base_spec(),
        TransformSpec(kind="closeness"),
        TransformSpec(kind="virtual_node"),
        TransformSpec(kind="eigenvector", power_tol=1e-15, power_max_iter=2),
    )
    EMBEDDERS = ("wl1", "wl2", "wl3", "gin", "ds", canonical_key, picky, picky_vector)
    BUDGET = 60  # wl2 and wl3 refuse the larger graphs

    def expected(self, ds: PairDataset, origins: list) -> list[ReportRow]:
        return [
            reference_evaluate_pairs(ds, spec, embedder, kwl_budget=self.BUDGET, origin=origin)
            for spec in self.SPECS
            for embedder in self.EMBEDDERS
            for origin in origins
        ]

    def cells_match(self, ds: PairDataset, origins: list) -> list[ReportRow]:
        """Assert each cell run alone equals the reference; return its rows."""
        expected = self.expected(ds, origins)
        alone = [
            evaluate_pairs(ds, spec, embedder, kwl_budget=self.BUDGET, origin=origin)
            for spec in self.SPECS
            for embedder in self.EMBEDDERS
            for origin in origins
        ]
        assert [dataclasses.replace(r, seconds=0.0) for r in alone] == expected
        return expected

    def grid_matches(self, ds: PairDataset, by_origin: bool) -> None:
        origins = list(dict.fromkeys(p.origin for p in ds.pairs)) if by_origin else [None]
        grid = evaluate_grid(
            ds, self.SPECS, self.EMBEDDERS, kwl_budget=self.BUDGET, by_origin=by_origin
        )
        assert [dataclasses.replace(r, seconds=0.0) for r in grid] == self.expected(ds, origins)

    @settings(max_examples=40, deadline=None)
    @given(ds=pair_datasets(), by_origin=st.booleans())
    def test_matches_per_pair_reference(self, ds, by_origin):
        self.cells_match(ds, list(dict.fromkeys(p.origin for p in ds.pairs)) + [None])
        self.grid_matches(ds, by_origin)

    def test_every_exclusion_case_matches(self):
        shared, three, empty = path(4), path(3), Graph(0)
        ds = PairDataset(
            (
                LabeledPair(shared, cycle(4), False, "a"),
                LabeledPair(star(4), shared, False, "a"),
                LabeledPair(shared, shared, True, "a"),
                # Closeness refuses a graph with no nodes; picky three nodes.
                LabeledPair(empty, shared, False, "b"),
                LabeledPair(cycle(5), empty, False, "b"),
                LabeledPair(empty, Graph(0), True, "b"),
                LabeledPair(three, cycle(5), False, "c"),
                LabeledPair(cycle(4), three, False, "c"),
                LabeledPair(three, three, True, "c"),
            )
        )
        rows = self.cells_match(ds, [None, "a", "b", "c", "missing"])
        self.grid_matches(ds, by_origin=False)
        self.grid_matches(ds, by_origin=True)
        by_cell = {(r.method, r.embedder, r.origin): r for r in rows}
        assert by_cell["closeness", "picky", None].notes == (
            "pair 3 (b): centrality augmentation needs at least one node",
            "pair 4 (b): centrality augmentation needs at least one node",
            "pair 5 (b): centrality augmentation needs at least one node",
            "pair 6 (c): picky embedder refuses n=3",
            "pair 7 (c): picky embedder refuses n=3",
            "pair 8 (c): picky embedder refuses n=3",
        )
        none_left = by_cell["closeness", "picky", "b"]
        assert (none_left.ecc, none_left.pairs, none_left.excluded) == (0, 0, 3)
        assert by_cell["closeness", "picky_vector", "c"].notes[0] == (
            "pair 0 (c): picky_vector refuses n=3"
        )
        missing = by_cell["base", "gin", "missing"]
        assert (missing.ecc, missing.pairs, missing.excluded, missing.notes) == (0, 0, 0, ())

    def test_passes_take_graphs_in_first_seen_order(self, monkeypatch):
        """A graph first seen in an excluded pair, or in another origin's
        pair, joins a cell's batch where that cell first sees it."""
        batches: list[tuple[str, list[int]]] = []
        apply, embed = evaluate.apply_transform, evaluate.forward

        def recording_apply(spec, b):
            batches.append(("transform", [g.n for g in b.graphs]))
            return apply(spec, b)

        def recording_forward(params, b):
            batches.append(("forward", [g.n for g in b.graphs]))
            return embed(params, b)

        monkeypatch.setattr(evaluate, "apply_transform", recording_apply)
        monkeypatch.setattr(evaluate, "forward", recording_forward)
        four, five = path(4), star(5)
        ds = PairDataset(
            (
                LabeledPair(four, Graph(0), False, "x"),
                LabeledPair(five, four, False, "y"),
            )
        )
        evaluate_pairs(ds, TransformSpec(kind="closeness"), "gin", origin="y")
        evaluate_pairs(ds, TransformSpec(kind="closeness"), "gin")
        assert batches == [
            ("transform", [5, 4]),
            ("forward", [5, 4]),
            ("transform", [4, 0, 5]),
            ("forward", [5, 4]),
        ]

    def test_empty_dataset_matches(self):
        rows = self.cells_match(PairDataset(()), [None, "a"])
        self.grid_matches(PairDataset(()), by_origin=False)
        assert {(r.ecc, r.fn, r.fp, r.pairs, r.excluded, r.notes) for r in rows} == {
            (0, 0, 0, 0, 0, ())
        }
