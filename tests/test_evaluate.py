"""Pair evaluation: clustering, confusion counts, rendering."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isobench import (
    ContractError,
    CorpusIntegrityError,
    Graph,
    LabeledPair,
    Permutation,
    REPORT_FORMATS,
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
)
from isobench.cli import _build_parser

from helpers import canonical_key


def base_spec() -> TransformSpec:
    return TransformSpec(kind="base")


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

    def test_augmentation_bounds(self):
        with pytest.raises(ContractError):
            augment_with_iso_pairs([path(3)], 2, seed=0)
        with pytest.raises(ContractError):
            augment_with_iso_pairs([path(3)], -1, seed=0)
        with pytest.raises(ContractError):
            augment_with_iso_pairs([Graph(0)], 1, seed=0)


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

    def test_model_embedder_runs(self):
        ds = make_pair_dataset(toy_pairs())
        row = evaluate_pairs(ds, TransformSpec(kind="degree"), "gin", model_seed=3)
        assert row.pairs == 3 and row.fp == 0

    def test_unknown_embedder_rejected(self):
        ds = make_pair_dataset(toy_pairs())
        with pytest.raises(ContractError):
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
