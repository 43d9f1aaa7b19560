"""Graph constructors, the hard-pair library, and dataset files."""

import itertools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isobench import (
    ContractError,
    CorpusIntegrityError,
    Graph,
    GraphParseError,
    PairingWarning,
    are_isomorphic,
    complete,
    cycle,
    disjoint_cycles,
    erdos_renyi,
    hard_pair_library,
    load_dataset,
    pairs_from_graphs,
    path,
    rook4x4,
    shrikhande,
    srg_parameters,
    star,
    wl1_signature,
    write_edge_list,
    write_graph6,
)

from isobench import corpus
from isobench.cli import EXIT_INTERNAL, main

from helpers import edge_pairs, random_cubic, reference_srg_parameters


def has_k4(g: Graph) -> bool:
    nodes = range(g.n)
    edges = set(edge_pairs(g))
    return any(
        all(pair in edges for pair in itertools.combinations(quad, 2))
        for quad in itertools.combinations(nodes, 4)
    )


class TestFamilies:
    def test_cycle(self):
        g = cycle(5)
        assert g.n == 5 and g.edge_count == 5
        assert all(d == 2 for d in g.degrees)

    def test_path_star_complete(self):
        assert path(6).edge_count == 5
        assert star(6).degrees[0] == 5
        assert complete(5).edge_count == 10

    def test_disjoint_cycles(self):
        g = disjoint_cycles([3, 4, 5])
        assert g.n == 12 and g.edge_count == 12

    def test_size_guards(self):
        with pytest.raises(ContractError):
            cycle(2)
        with pytest.raises(ContractError):
            disjoint_cycles([])
        with pytest.raises(ContractError):
            disjoint_cycles([2])

    def test_random_graph_is_reproducible(self):
        a = erdos_renyi(12, 0.4, seed=5)
        b = erdos_renyi(12, 0.4, seed=5)
        assert a == b
        assert a != erdos_renyi(12, 0.4, seed=6)

    def test_random_graph_extremes(self):
        assert erdos_renyi(6, 0.0, seed=0).edge_count == 0
        assert erdos_renyi(6, 1.0, seed=0).edge_count == 15

    def test_random_graph_guards(self):
        with pytest.raises(ContractError):
            erdos_renyi(3, 1.5, seed=0)
        with pytest.raises(ContractError):
            erdos_renyi(-1, 0.5, seed=0)


class TestStronglyRegularPair:
    def test_both_have_srg_parameters(self):
        assert srg_parameters(rook4x4()) == (16, 6, 2, 2)
        assert srg_parameters(shrikhande()) == (16, 6, 2, 2)

    def test_non_srg_is_rejected(self):
        with pytest.raises(CorpusIntegrityError):
            srg_parameters(path(5))

    @pytest.mark.parametrize(
        "g, message",
        [
            (cycle(6), "not strongly regular: lambda set [0], mu set [0, 1]"),
            (complete(4), "not strongly regular: lambda set [2], mu set []"),
            (Graph(1), "not strongly regular: lambda set [], mu set []"),
            (Graph(3), "not strongly regular: lambda set [], mu set [0]"),
            (path(5), "not regular: degrees [1, 2]"),
        ],
    )
    def test_rejection_texts(self, g, message):
        with pytest.raises(CorpusIntegrityError) as info:
            srg_parameters(g)
        assert str(info.value) == message

    def test_pentagon_parameters(self):
        assert srg_parameters(cycle(5)) == (5, 2, 0, 1)

    @pytest.mark.parametrize(
        "g",
        [cycle(n) for n in (3, 4, 5, 7)]
        + [complete(n) for n in (2, 5)]
        + [disjoint_cycles([3, 3]), disjoint_cycles([4, 5]), Graph(0), Graph(2)]
        + [random_cubic(n, seed=n) for n in (8, 10, 16)]
        + [rook4x4(), shrikhande()],
    )
    def test_matches_the_pair_walk(self, g):
        expected = reference_srg_parameters(g)
        if isinstance(expected, str):
            with pytest.raises(CorpusIntegrityError) as info:
                srg_parameters(g)
            assert str(info.value) == expected
        else:
            assert srg_parameters(g) == expected

    def test_clique_structure_separates_them(self):
        assert has_k4(rook4x4())
        assert not has_k4(shrikhande())

    def test_same_refinement_class(self):
        assert wl1_signature(rook4x4()).digest == wl1_signature(shrikhande()).digest


class TestLibrary:
    def test_library_order(self):
        assert [p.origin for p in hard_pair_library().pairs] == [
            "c6_vs_2c3",
            "c8_vs_2c4",
            "rook4x4_vs_shrikhande",
            "k4_vs_relabeled_k4",
        ]

    def test_library_labels(self):
        ds = hard_pair_library()
        assert [p.isomorphic for p in ds.pairs] == [False, False, False, True]
        assert all(p.verified for p in ds.pairs)

    def test_library_pairs_check_out(self):
        ds = hard_pair_library()
        for pair in ds.pairs[:3]:
            assert not are_isomorphic(pair.left, pair.right).isomorphic
        last = ds.pairs[3]
        assert are_isomorphic(last.left, last.right).isomorphic

    def test_failed_expectation_raises(self, monkeypatch):
        monkeypatch.setitem(corpus.EXPECTATIONS, "wl1_equal", lambda left, right: False)
        with pytest.raises(CorpusIntegrityError) as err:
            hard_pair_library()
        assert str(err.value) == "pair 'c6_vs_2c3' failed expectation 'wl1_equal'"

    def test_failed_expectation_is_cli_integrity_error(self, monkeypatch, capsys):
        monkeypatch.setitem(corpus.EXPECTATIONS, "wl3_equal", lambda left, right: False)
        assert main(["wl", "--input", "hard_pairs"]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "isobench: integrity error: "
            "pair 'rook4x4_vs_shrikhande' failed expectation 'wl3_equal'\n"
        )


class TestDatasetFiles:
    def test_graph6_file_round_trip(self, tmp_path):
        graphs = [cycle(6), disjoint_cycles([3, 3]), path(4), star(4)]
        file = tmp_path / "pairs.g6"
        file.write_text("".join(write_graph6(g) + "\n" for g in graphs))
        back = load_dataset(str(file))
        assert [edge_pairs(g) for g in back] == [edge_pairs(g) for g in graphs]

    def test_edge_list_file_round_trip(self, tmp_path):
        a = Graph(3, ((0, 1), (1, 2)), np.array([[0.5], [1.5], [-2.0]]))
        b = Graph(2, ((0, 1),))
        file = tmp_path / "pairs.el"
        file.write_text(write_edge_list(a) + "\n" + write_edge_list(b))
        back = load_dataset(str(file))
        assert back[0] == a and back[1] == b

    def test_format_inference_and_override(self, tmp_path):
        file = tmp_path / "data.weird"
        file.write_text("Bw\nBw\n")
        with pytest.raises(ContractError):
            load_dataset(str(file))
        assert len(load_dataset(str(file), fmt="graph6")) == 2
        with pytest.raises(ContractError):
            load_dataset(str(file), fmt="adjacency")

    def test_parse_error_names_file_and_line(self, tmp_path):
        file = tmp_path / "bad.g6"
        file.write_text("Bw\nB\n")
        with pytest.raises(GraphParseError) as err:
            load_dataset(str(file))
        assert f"{file}:2:" in str(err.value)

    def test_edge_list_error_points_into_block(self, tmp_path):
        file = tmp_path / "bad.el"
        file.write_text("2 1\n0 1\n\n2 1\n0 5\n")
        with pytest.raises(GraphParseError) as err:
            load_dataset(str(file))
        assert f"{file}:5:" in str(err.value)

    def test_odd_count_warns(self, tmp_path):
        file = tmp_path / "odd.g6"
        file.write_text("Bw\nBw\nBw\n")
        with pytest.warns(PairingWarning):
            load_dataset(str(file))

    def test_pairs_from_graphs_folds_consecutively(self):
        ds = pairs_from_graphs([cycle(6), disjoint_cycles([3, 3])], "demo")
        assert len(ds.pairs) == 1
        assert ds.pairs[0].origin == "demo"
        assert not ds.pairs[0].isomorphic

    def test_pairs_from_graphs_catches_wrong_default_label(self):
        with pytest.raises(CorpusIntegrityError):
            pairs_from_graphs([path(3), path(3)], "demo")


@st.composite
def graph6_lines(draw):
    """(graph, its file line): n = 0, 1, 2, 62, 63 (long form) or small,
    random edges, a header on some lines and surrounding whitespace on some."""
    n = draw(st.one_of(st.sampled_from([0, 1, 2, 62, 63]), st.integers(0, 12)))
    p = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = rng.random(len(pairs)) < p
    g = Graph(n, tuple(pair for pair, k in zip(pairs, keep) if k))
    line = draw(st.sampled_from(["", ">>graph6<<"])) + write_graph6(g)
    return g, draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " "]))


class TestGraph6Files:
    """load_dataset decodes a whole graph6 file in one pass."""

    @pytest.mark.filterwarnings("ignore::isobench.PairingWarning")
    @settings(max_examples=60, deadline=None)
    @given(st.lists(graph6_lines(), min_size=1, max_size=12), st.data())
    def test_mixed_sizes_round_trip(self, drawn, data):
        lines = []
        for _, line in drawn:
            lines += [""] * data.draw(st.integers(0, 2)) + [line]
        with tempfile.TemporaryDirectory() as tmp:
            file = os.path.join(tmp, "mixed.g6")
            with open(file, "w") as fh:
                fh.write("\n".join(lines) + "\n")
            back = load_dataset(file)
        graphs = [g for g, _ in drawn]
        assert back == graphs
        assert [edge_pairs(g) for g in back] == [edge_pairs(g) for g in graphs]
        assert all(g.features.tobytes() == np.ones((g.n, 1)).tobytes() for g in back)

    @pytest.mark.filterwarnings("ignore::isobench.PairingWarning")
    @settings(max_examples=30, deadline=None)
    @given(st.lists(graph6_lines(), min_size=1, max_size=8))
    def test_agrees_with_networkx(self, drawn):
        nx = pytest.importorskip("networkx")
        with tempfile.TemporaryDirectory() as tmp:
            file = os.path.join(tmp, "mixed.g6")
            with open(file, "w") as fh:
                fh.write("".join(write_graph6(g) + "\n" for g, _ in drawn))
            back = load_dataset(file)
        for g, mine in zip((g for g, _ in drawn), back):
            other = nx.from_graph6_bytes(write_graph6(g).encode())
            assert mine.n == other.number_of_nodes()
            assert set(edge_pairs(mine)) == {tuple(sorted(e)) for e in other.edges()}

    # (bad line, message, byte offset), as parse_graph6 reports each alone.
    BAD_LINES = [
        (">>graph6<<", "empty graph6 payload", 0),
        ("B!", "byte 33 outside graph6 range 63..126", 1),
        ("D", "need 2 edge bytes for n=5, found 0", 1),
        ("Bww", "trailing data after edge bits", 2),
        ("B" + chr(0b111001 + 63), "non-zero padding bit", 1),
        ("~~????", "8-byte node counts exceed the supported 65535", 0),
        ("~??", "truncated long-form node count", 3),
        ("~O??", "node count 65536 exceeds the supported 65535", 0),
    ]

    @pytest.mark.parametrize("bad,message,offset", BAD_LINES)
    def test_first_bad_line_after_good_lines(self, tmp_path, bad, message, offset):
        # Good lines of several sizes, a blank line and a header come
        # first; a later bad line must not win.
        file = tmp_path / "bad.g6"
        good = ["Bw", "", ">>graph6<<A_", write_graph6(path(63)), "?"]
        file.write_text("\n".join(good + [bad, "Bw", "D"]) + "\n")
        with pytest.raises(GraphParseError) as err:
            load_dataset(str(file))
        lineno = len(good) + 1
        assert str(err.value) == f"{file}:{lineno}: {message} (byte offset {offset}) (line {lineno})"
        assert err.value.line == lineno
        assert err.value.__cause__.offset == offset

    @pytest.mark.parametrize(
        "bad,message,offset,lineno",
        [
            # A header error on line 2 wins over an out-of-range byte on line 3.
            (["D", "B!"], "need 2 edge bytes for n=5, found 0", 1, 2),
            # An out-of-range byte on line 2 wins over a header error on line 3.
            (["B!", "D"], "byte 33 outside graph6 range 63..126", 1, 2),
            # Offsets count from the payload after the ">>graph6<<" header.
            (["", ">>graph6<<B!"], "byte 33 outside graph6 range 63..126", 1, 3),
        ],
    )
    def test_faults_are_ordered_by_line(self, tmp_path, bad, message, offset, lineno):
        file = tmp_path / "bad.g6"
        file.write_text("\n".join(["Bw"] + bad) + "\n")
        with pytest.raises(GraphParseError) as err:
            load_dataset(str(file))
        assert str(err.value) == f"{file}:{lineno}: {message} (byte offset {offset}) (line {lineno})"
        assert err.value.__cause__.offset == offset
