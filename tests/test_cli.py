"""Command-line interface: subcommands, exit codes, report stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import isobench
import isobench.cli as cli
import isobench.graphs as graphs_module
from isobench import (
    Graph,
    TransformSpec,
    apply_transform,
    cycle,
    hard_pair_library,
    load_dataset,
    path,
    star,
    write_edge_list,
    write_graph6,
)
from isobench.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluate:
    def test_library_run(self, capsys):
        code, out, err = run(capsys, "evaluate", "--input", "hard_pairs")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        meta = [line for line in lines if line.startswith("# ")]
        assert any(line.startswith("# tool=isobench") for line in meta)
        assert "# pairs=4" in meta
        assert "method,embedder,ecc,fn,fp,pairs,excluded,seconds" in lines
        assert lines[-1] == "Base,wl1,4,3,0,4,0,0.000"

    def test_output_is_byte_identical_across_runs(self, capsys):
        argv = (
            "evaluate", "--input", "hard_pairs",
            "--transform", "base", "--transform", "closeness",
            "--embedder", "wl1", "--embedder", "gin",
        )
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2

    def test_markdown_emit(self, capsys):
        code, out, _ = run(capsys, "evaluate", "--input", "hard_pairs", "--emit", "md")
        assert code == EXIT_OK
        assert out.lstrip().startswith("- tool:")
        assert "| Base" in out

    def test_jsonl_emit(self, capsys):
        code, out, _ = run(capsys, "evaluate", "--input", "hard_pairs", "--emit", "jsonl")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert json.loads(lines[0])["meta"]["pairs"] == 4
        row = json.loads(lines[1])
        assert row["method"] == "Base" and row["seconds"] == 0.0

    def test_by_origin_rows(self, capsys):
        code, out, _ = run(capsys, "evaluate", "--input", "hard_pairs", "--by-origin")
        assert code == EXIT_OK
        header = [l for l in out.split("\n") if l.startswith("method,")][0]
        assert header.split(",")[2] == "origin"
        assert sum(1 for l in out.strip().split("\n") if l.startswith("Base,")) == 4

    def test_augment_adds_isomorphic_pairs(self, capsys):
        code, out, _ = run(
            capsys, "evaluate", "--input", "hard_pairs", "--augment", "3",
        )
        assert code == EXIT_OK
        assert "# pairs=7" in out
        row = [l for l in out.strip().split("\n") if l.startswith("Base,")][0]
        assert row == "Base,wl1,4,3,0,7,0,0.000"

    def test_multiple_inputs_become_origins(self, capsys, tmp_path):
        a = tmp_path / "a.g6"
        a.write_text("Bw\nBw\n")
        b = tmp_path / "b.g6"
        b.write_text("Cr\nCr\n")
        code, out, _ = run(
            capsys, "evaluate", "--input", str(a), "--input", str(b), "--by-origin",
        )
        assert code == EXIT_DATA  # identical graphs contradict the default label

    @staticmethod
    def pair_file(file: Path) -> str:
        file.parent.mkdir(exist_ok=True)
        file.write_text(write_graph6(cycle(6)) + "\n" + write_graph6(path(6)) + "\n")
        return str(file)

    def test_inputs_sharing_a_name_are_refused_by_origin(self, capsys, tmp_path):
        a = self.pair_file(tmp_path / "d1" / "x.g6")
        b = self.pair_file(tmp_path / "d2" / "x.g6")
        code, out, err = run(capsys, "evaluate", "--input", a, "--input", b, "--by-origin")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == f"isobench: usage error: --by-origin: inputs {a} and {b} both give origin 'x'\n"
        code, out, _ = run(capsys, "evaluate", "--input", a, "--input", b)
        assert code == EXIT_OK
        assert out.endswith("Base,wl1,2,0,0,2,0,0.000\n")

    def test_augmented_file_is_refused_with_augment_by_origin(self, capsys, tmp_path):
        a = self.pair_file(tmp_path / "augmented.g6")
        code, _, err = run(capsys, "evaluate", "--input", a, "--augment", "1", "--by-origin")
        assert code == EXIT_USAGE
        assert err == (
            f"isobench: usage error: --by-origin: inputs {a} and --augment "
            "both give origin 'augmented'\n"
        )
        code, out, _ = run(capsys, "evaluate", "--input", a, "--by-origin")
        assert code == EXIT_OK
        assert out.endswith("Base,wl1,augmented,2,0,0,1,0,0.000\n")

    def test_out_file(self, capsys, tmp_path):
        out_file = tmp_path / "report.csv"
        code, out, _ = run(
            capsys, "evaluate", "--input", "hard_pairs", "--out", str(out_file),
        )
        assert code == EXIT_OK
        assert out == ""
        assert out_file.read_text().endswith("Base,wl1,4,3,0,4,0,0.000\n")
        umask = os.umask(0)
        os.umask(umask)
        assert out_file.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_failed_out_write_keeps_old_file(self, capsys, tmp_path, monkeypatch):
        out_file = tmp_path / "report.csv"
        out_file.write_text("old report\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr("isobench.cli.os.replace", refuse)
        code, _, err = run(
            capsys, "evaluate", "--input", "hard_pairs", "--out", str(out_file),
        )
        assert code == EXIT_DATA
        assert "rename refused" in err
        assert out_file.read_text() == "old report\n"
        assert not list(tmp_path.glob(".isobench-*.tmp"))

    def test_missing_file_is_data_error(self, capsys):
        code, _, err = run(capsys, "evaluate", "--input", "no/such/file.g6")
        assert code == EXIT_DATA
        assert "data error" in err

    def test_bad_embedder_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "evaluate", "--input", "hard_pairs", "--embedder", "gcn",
        )
        assert code == EXIT_USAGE
        assert "usage error" in err

    def test_bad_transform_token_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "evaluate", "--input", "hard_pairs", "--transform", "bogus",
        )
        assert code == EXIT_USAGE

    def test_missing_subcommand_is_usage_error(self, capsys):
        code, _, err = run(capsys)
        assert code == EXIT_USAGE


class TestTransform:
    @pytest.mark.filterwarnings("ignore::isobench.PairingWarning")
    def test_writes_edge_lists_and_reports_deltas(self, capsys, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text("Bw\n")
        dst = tmp_path / "out.el"
        code, out, _ = run(
            capsys, "transform", "--input", str(src),
            "--transform", "virtual_node", "--out", str(dst),
        )
        assert code == EXIT_OK
        assert out.strip() == "graph 0: nodes 3 -> 4 (+1), edges 3 -> 6 (+3)"
        loaded = load_dataset(str(dst), fmt="edge_list")
        assert loaded[0].n == 4 and loaded[0].edge_count == 6

    def test_feature_transform_round_trips(self, capsys, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text("Bw\nA?\n")
        dst = tmp_path / "out.el"
        code, out, _ = run(
            capsys, "transform", "--input", str(src),
            "--transform", "degree", "--out", str(dst),
        )
        assert code == EXIT_OK
        loaded = load_dataset(str(dst), fmt="edge_list")
        assert loaded[0].features[:, 1].tolist() == [2.0, 2.0, 2.0]
        assert loaded[1].features[:, 1].tolist() == [0.0, 0.0]

    def test_failure_leaves_no_output(self, capsys, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text("?\n")  # the empty graph rejects degree augmentation
        dst = tmp_path / "out.el"
        code, _, err = run(
            capsys, "transform", "--input", str(src),
            "--transform", "degree", "--out", str(dst),
        )
        assert code == EXIT_DATA
        assert err == (
            f"isobench: data error: {src}: graph 0: "
            "centrality augmentation needs at least one node\n"
        )
        assert not dst.exists()
        assert not list(tmp_path.glob(".isobench-*"))

    def test_library_input(self, capsys, tmp_path):
        dst = tmp_path / "out.el"
        code, out, _ = run(
            capsys, "transform", "--input", "hard_pairs", "--transform", "degree", "--out", str(dst),
        )
        assert code == EXIT_OK
        graphs = hard_pair_library().graphs
        assert len(out.splitlines()) == len(graphs) == 8
        assert out.splitlines()[0] == "graph 0: nodes 6 -> 6 (+0), edges 6 -> 6 (+0)"
        spec = TransformSpec(kind="degree")
        assert dst.read_text() == "".join(write_edge_list(apply_transform(spec, g)) + "\n" for g in graphs)

    def test_graph_encoding_over_the_jacobi_cap_is_data_error(self, capsys, tmp_path):
        src = tmp_path / "long.g6"
        src.write_text(write_graph6(path(257)) + "\n")
        dst = tmp_path / "out.el"
        code, out, err = run(
            capsys, "transform", "--input", str(src),
            "--transform", "graph_encoding", "--out", str(dst),
        )
        assert code == EXIT_DATA
        assert err.startswith(f"isobench: data error: {src}: graph 0: ")
        assert "capped at JACOBI_MAX_NODES = 256 rows, got 257" in err
        assert out == ""
        assert not dst.exists()

    @pytest.mark.parametrize(
        "transform, cells, message",
        [
            ("virtual_node", None, "header node count 65536 exceeds the supported 65535"),
            ("extra_node", 7, "header declares 4 x 2 feature cells, more than the supported 7"),
        ],
    )
    def test_image_the_reader_refuses_is_data_error(
        self, capsys, tmp_path, monkeypatch, transform, cells, message
    ):
        # Graph 0 is written to the temporary file before graph 1's image,
        # over the edge-list limits that parse_edge_list checks, is refused.
        if cells is None:
            big = "65535 1\n0 1\n"
        else:
            monkeypatch.setattr(graphs_module, "EDGE_LIST_MAX_CELLS", cells)
            big = "3 2\n0 1\n"
        src = tmp_path / "in.el"
        src.write_text("2 1\n0 1\n\n" + big)
        dst = tmp_path / "out.el"
        dst.write_text("old\n")
        code, out, err = run(
            capsys, "transform", "--input", str(src),
            "--transform", transform, "--out", str(dst),
        )
        assert code == EXIT_DATA
        assert err == f"isobench: data error: {src}: graph 1: edge-list output: {message}\n"
        assert out.startswith("graph 0: ") and "graph 1" not in out
        assert dst.read_text() == "old\n"
        assert not list(tmp_path.glob(".isobench-*"))

    def _counting(self, monkeypatch):
        """Patch cli.apply_transform to record the graphs of each call."""
        seen = []
        real = cli.apply_transform

        def counting(spec, x):
            seen.append(len(x.graphs))
            return real(spec, x)

        monkeypatch.setattr(cli, "apply_transform", counting)
        return seen

    def test_refusal_stops_before_later_runs(self, capsys, tmp_path, monkeypatch):
        src = tmp_path / "long.g6"
        src.write_text("".join(write_graph6(g) + "\n" for g in (path(257), cycle(200), cycle(200))))
        seen = self._counting(monkeypatch)
        dst = tmp_path / "out.el"
        code, out, err = run(
            capsys, "transform", "--input", str(src),
            "--transform", "graph_encoding", "--out", str(dst),
        )
        assert code == EXIT_DATA
        assert err.startswith(f"isobench: data error: {src}: graph 0: ")
        assert "capped at JACOBI_MAX_NODES = 256 rows, got 257" in err
        assert out == ""
        assert not dst.exists()
        # Only path(257)'s run was transformed.
        assert seen == [1]

    @pytest.mark.filterwarnings("ignore::isobench.PairingWarning")
    def test_runs_give_the_bytes_of_one_graph_at_a_time(self, capsys, tmp_path, monkeypatch):
        # cycle(190) is over the run bound, so it runs alone between the
        # small graphs; the output is that of each graph transformed alone.
        graphs = [path(n) for n in range(1, 120)] + [cycle(190)] + [cycle(n) for n in range(3, 40)]
        src = tmp_path / "many.g6"
        src.write_text("".join(write_graph6(g) + "\n" for g in graphs))
        dst = tmp_path / "out.el"
        seen = self._counting(monkeypatch)
        code, out, _ = run(
            capsys, "transform", "--input", str(src), "--transform", "closeness", "--out", str(dst),
        )
        assert code == EXIT_OK
        assert len(seen) > 2 and sum(seen) == len(graphs)
        spec = TransformSpec(kind="closeness")
        alone = [apply_transform(spec, g) for g in graphs]
        assert dst.read_text() == "".join(write_edge_list(t) + "\n" for t in alone)
        assert out.splitlines()[-1] == f"graph {len(graphs) - 1}: nodes 39 -> 39 (+0), edges 39 -> 39 (+0)"


class TestOversizedHeader:
    # n * d * 8 bytes exceeds 2**60, so a parser that allocates first fails
    # at allocation without touching memory.
    HEADERS = ["200000000000000000 1", "3 100000000000000000"]

    @pytest.mark.parametrize("header", HEADERS)
    def test_transform_is_data_error(self, capsys, tmp_path, header):
        src = tmp_path / "big.el"
        src.write_text(f"{header}\n0 1\n")
        dst = tmp_path / "out.el"
        code, _, err = run(
            capsys, "transform", "--input", str(src),
            "--transform", "base", "--out", str(dst),
        )
        assert code == EXIT_DATA
        assert "line 1" in err
        assert not dst.exists()

    @pytest.mark.parametrize("header", HEADERS)
    def test_evaluate_is_data_error(self, capsys, tmp_path, header):
        src = tmp_path / "big.el"
        src.write_text(f"{header}\n0 1\n")
        code, out, err = run(capsys, "evaluate", "--input", str(src))
        assert code == EXIT_DATA
        assert "line 1" in err
        assert out == ""


class TestTruncatedInput:
    CASES = {
        "header_only.g6": (
            ">>graph6<<\n",
            EXIT_DATA,
            "isobench: data error: {path}:1: empty graph6 payload (byte offset 0) (line 1)\n",
        ),
        "short_edges.g6": (
            "Ew\n",
            EXIT_DATA,
            "isobench: data error: {path}:1: need 3 edge bytes for n=6, found 1 "
            "(byte offset 2) (line 1)\n",
        ),
        "short_features.el": (
            "3 2\n0 1\n1 2\n1.0 2.0\n3.0 4.0\n",
            EXIT_DATA,
            "isobench: data error: {path}:4: feature block must hold exactly 3 rows, "
            "found 2 (line 4)\n",
        ),
        "lone_u.el": (
            "3 1\n0 1\n1\n",
            EXIT_DATA,
            "isobench: data error: {path}:3: line 3 is neither an edge 'u v' nor the first "
            "of 3 feature rows (found 1 row) (line 3)\n",
        ),
        "empty.el": ("", EXIT_DATA, "isobench: data error: no graphs in {path}\n"),
        # A triangle and a path, then two labelings of one path.
        "iso2.g6": (
            "Bw\nBg\nBg\nBW\n",
            EXIT_DATA,
            "isobench: data error: {path}: pair 1 ('iso2') labeled isomorphic=False "
            "but the exact test says True\n",
        ),
        "empty.g6": ("\n", EXIT_DATA, "isobench: data error: no graphs in {path}\n"),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_evaluate_exit_code_and_message(self, capsys, tmp_path, name):
        text, expected_code, expected_err = self.CASES[name]
        src = tmp_path / name
        src.write_text(text)
        code, out, err = run(capsys, "evaluate", "--input", str(src))
        assert code == expected_code
        assert err == expected_err.format(path=src)
        assert out == ""


class TestNonAsciiInput:
    """A byte outside ASCII is a data error that names the file, the line
    (numbered as the parsers number lines) and the byte."""

    CASES = {
        "cr_lines.g6": (b"Bw\rA?\r\n\n\xff\n", 4, 0xFF),
        "first.g6": (b"\xffBw\n", 1, 0xFF),
        "feature.el": (b"3 1\n0 1\n1 2\n1.0\n2.\xc30\n3.0\n", 5, 0xC3),
        "second_block.el": (b"2 1\n0 1\n1.0\n1.0\n\n2 1\xff\n", 6, 0xFF),
    }

    @pytest.mark.parametrize("command", ["evaluate", "transform"])
    @pytest.mark.parametrize("name", CASES)
    def test_exit_code_and_message(self, capsys, tmp_path, name, command):
        data, line, byte = self.CASES[name]
        src = tmp_path / name
        src.write_bytes(data)
        dst = tmp_path / "out.el"
        extra = ["--transform", "base", "--out", str(dst)] if command == "transform" else []
        code, out, err = run(capsys, command, "--input", str(src), *extra)
        assert code == EXIT_DATA
        where = f"{src}:{line}: non-ASCII byte 0x{byte:02X} (line {line})"
        assert err == f"isobench: data error: {where}\n"
        assert out == ""
        assert not dst.exists()


class TestHugeFeatures:
    """Features past the int64 quantization grid are refused, not merged:
    at eps 1e-6, 1e13 and 2e13 would both cast to one index."""

    MESSAGE = (
        "feature magnitude 10000000000000.0 is too large to quantize at "
        "granularity 1e-06: |value / eps| must round below 2**63"
    )

    @staticmethod
    def write_pair(tmp_path, n: int):
        def block(big: float) -> str:
            edges = [f"{i} {i + 1}" for i in range(n - 1)]
            return "\n".join([f"{n} 1", *edges, repr(big)] + ["1.0"] * (n - 1))

        src = tmp_path / f"huge{n}.el"
        src.write_text(block(1e13) + "\n\n" + block(2e13) + "\n")
        return src

    def test_verified_pair_is_data_error(self, capsys, tmp_path):
        src = self.write_pair(tmp_path, 3)
        code, out, err = run(capsys, "evaluate", "--input", str(src))
        assert code == EXIT_DATA
        assert out == ""
        assert err == f"isobench: data error: {src}: {self.MESSAGE}\n"

    def test_unverified_pair_is_excluded_with_a_note(self, capsys, tmp_path):
        src = self.write_pair(tmp_path, 17)
        code, out, err = run(capsys, "evaluate", "--input", str(src))
        assert code == EXIT_OK
        assert "# unverified_pairs=1" in out
        assert out.strip().split("\n")[-1] == "Base,wl1,0,0,0,0,1,0.000"
        assert err == f"note [base/wl1]: pair 0 (huge17): {self.MESSAGE}\n"


class TestFeatureWidths:
    """A pair whose feature widths differ cannot have its label verified:
    that is bad data in the named file, not a bad option."""

    @pytest.mark.parametrize("command", ["evaluate", "wl"])
    def test_is_data_error_naming_the_file(self, capsys, tmp_path, command):
        ok = tmp_path / "ok.el"
        ok.write_text("3 1\n0 1\n1 2\n\n3 1\n0 1\n")
        bad = tmp_path / "bad.el"
        bad.write_text("2 1\n0 1\n1.0\n2.0\n\n2 2\n0 1\n1.0 0.0\n2.0 0.0\n")
        inputs = ["--input", str(ok), "--input", str(bad)] if command == "evaluate" else ["--input", str(bad)]
        code, out, err = run(capsys, command, *inputs)
        assert code == EXIT_DATA
        assert out == ""
        assert err == f"isobench: data error: {bad}: feature widths differ (1 vs 2)\n"


def test_python_m_isobench_matches_main(capsys):
    argv = ["evaluate", "--input", "hard_pairs"]
    code, out, _ = run(capsys, *argv)
    src = str(Path(isobench.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-m", "isobench", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert code == EXIT_OK
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, "")


def test_model_reports_do_not_depend_on_blas_threads():
    # Batched forward passes rely on a matrix product's rows not depending
    # on how its rows are split, between batches or between BLAS threads.
    argv = ["evaluate", "--input", "hard_pairs", "--augment", "4"]
    for kind in isobench.KINDS:
        argv += ["--transform", kind]
    for arch in isobench.ARCHS:
        argv += ["--embedder", arch]
    src = str(Path(isobench.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH")]
    outs = []
    for threads in ("1", "2"):
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join(p for p in paths if p),
            OPENBLAS_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "isobench", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].count("\n") > len(isobench.KINDS) * len(isobench.ARCHS)


class TestWL:
    def test_library_verdicts(self, capsys):
        code, out, _ = run(capsys, "wl", "--input", "hard_pairs")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0].startswith("pair 0 [c6_vs_2c3]: not distinguished")
        assert lines[-1] == "distinguished 0/4"

    def test_triples_split_cycle_pairs(self, capsys):
        code, out, _ = run(capsys, "wl", "--input", "hard_pairs", "--k", "3")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert "pair 0 [c6_vs_2c3]: distinguished" in lines[0]
        assert lines[-1] == "distinguished 2/4"

    def test_transform_applies_before_refinement(self, capsys):
        code, out, _ = run(
            capsys, "wl", "--input", "hard_pairs", "--transform", "closeness",
        )
        assert code == EXIT_OK
        assert out.strip().split("\n")[-1] == "distinguished 2/4"

    def test_refused_pair_is_left_out(self, capsys, tmp_path):
        # Pair 0 holds the empty graph, which degree refuses.
        src = tmp_path / "pairs.g6"
        src.write_text("".join(write_graph6(g) + "\n" for g in (Graph(0), Graph(1), path(4), star(4))))
        code, out, _ = run(capsys, "wl", "--input", str(src), "--transform", "degree")
        assert code == EXIT_OK
        assert out.splitlines() == [
            "pair 0 [pairs]: error: centrality augmentation needs at least one node",
            "pair 1 [pairs]: distinguished (rounds 1/1)",
            "distinguished 1/1",
        ]

    def test_bad_k_is_usage_error(self, capsys):
        code, _, err = run(capsys, "wl", "--input", "hard_pairs", "--k", "5")
        assert code == EXIT_USAGE


class TestForeignTransformOption:
    """An option the transform kind does not read is a usage error, before any pair runs."""

    MESSAGE = "isobench: usage error: transform degree takes no option 'k'; its options: none\n"

    def test_evaluate(self, capsys):
        code, out, err = run(
            capsys, "evaluate", "--input", "hard_pairs", "--transform", "degree",
            "--transform", "degree:k=5", "--transform", "closeness:radius=9",
        )
        assert (code, out, err) == (EXIT_USAGE, "", self.MESSAGE)

    def test_wl(self, capsys):
        code, out, err = run(capsys, "wl", "--input", "hard_pairs", "--transform", "degree:k=4")
        assert (code, out, err) == (EXIT_USAGE, "", self.MESSAGE)

    def test_transform(self, capsys, tmp_path):
        out_file = tmp_path / "out.el"
        code, out, err = run(
            capsys, "transform", "--input", "hard_pairs", "--transform", "degree:k=5",
            "--out", str(out_file),
        )
        assert (code, out, err) == (EXIT_USAGE, "", self.MESSAGE)
        assert not out_file.exists()


class TestOutOfRangeTransformToken:
    @pytest.mark.parametrize(
        "token",
        [
            "graph_encoding:k=1152921504606846976",
            "distance_encoding:d_max=1152921504606846976",
            "eigenvector:power_tol=nan",
        ],
    )
    def test_evaluate_is_usage_error(self, capsys, token):
        code, _, err = run(capsys, "evaluate", "--input", "hard_pairs", "--transform", token)
        assert code == EXIT_USAGE
        assert "usage error" in err
        assert "Traceback" not in err


class TestBadNumbers:
    """Unusable eps values and negative seeds are refused once, before any pair runs."""

    def assert_refused(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err.count("isobench: usage error:") == 1
        assert "note [" not in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["0", "nan", "-1", "inf"])
    def test_evaluate_quant_eps(self, capsys, value):
        self.assert_refused(capsys, "evaluate", "--input", "hard_pairs", "--quant-eps", value)

    @pytest.mark.parametrize("value", ["0", "nan", "-1", "inf"])
    def test_wl_eps(self, capsys, value):
        self.assert_refused(capsys, "wl", "--input", "hard_pairs", "--eps", value)

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_evaluate_cluster_eps(self, capsys, value):
        self.assert_refused(
            capsys, "evaluate", "--input", "hard_pairs", "--embedder", "gin", "--eps", value,
        )

    def test_zero_cluster_eps_runs(self, capsys):
        code, out, _ = run(
            capsys, "evaluate", "--input", "hard_pairs", "--embedder", "gin", "--eps", "0",
        )
        assert code == EXIT_OK
        assert "Base,gin,4,3,0,4,0," in out

    def test_negative_data_seed(self, capsys):
        self.assert_refused(
            capsys, "evaluate", "--input", "hard_pairs", "--augment", "2", "--seed-data", "-1",
        )

    def test_negative_model_seed(self, capsys):
        """Refused whether or not a model cell would run."""
        for embedder in ((), ("--embedder", "gin")):
            self.assert_refused(
                capsys, "evaluate", "--input", "hard_pairs", *embedder, "--seed-model", "-1",
            )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("evaluate", "--transform", "bogus"), "bad transform token 'bogus'"),
            (("evaluate", "--transform", "degree:k=2"), "transform degree takes no option 'k'"),
            (("evaluate", "--eps", "-1"), "cluster tolerance must be finite and >= 0, got -1.0"),
            (("evaluate", "--quant-eps", "0"), "quantization granularity must be positive"),
            (("evaluate", "--augment", "-1"), "--augment must be >= 0, got -1"),
            (("evaluate", "--augment", "2", "--seed-data", "-1"), "--seed-data must be >= 0"),
            (("wl", "--transform", "bogus"), "bad transform token 'bogus'"),
            (("wl", "--eps", "0"), "quantization granularity must be positive"),
            (("evaluate", "--seed-model", "-1"), "model seed must be >= 0, got -1"),
        ],
    )
    def test_options_are_checked_before_any_input_is_read(self, capsys, tmp_path, argv, message):
        """A missing input file would be a data error; a bad option is
        refused first, by its own message."""
        command, *options = argv
        code, out, err = run(capsys, command, "--input", str(tmp_path / "missing.el"), *options)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith(f"isobench: usage error: {message}") and err.count("\n") == 1

    def test_seed_data_is_free_without_augmenting(self, capsys):
        code, _, _ = run(capsys, "evaluate", "--input", "hard_pairs", "--seed-data", "-1")
        assert code == EXIT_OK
