"""Command-line entry points.

Three subcommands:

transform   read graphs, apply one transform, write edge-list blocks
wl          run refinement on consecutive pairs, print verdicts
evaluate    run a (transform x embedder) grid and emit a report

Exit codes: 0 success, 1 configuration or usage error, 2 data error,
3 internal invariant violation. Reports embed their configuration in a
metadata block and are byte-identical across runs for the same
configuration; pass --timing to record real wall times instead of the
deterministic 0.000 placeholder.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import secrets
import sys
import warnings

from . import __version__
from .corpus import PairingWarning, hard_pair_library, load_dataset, pairs_from_graphs
from .errors import ContractError, CorpusIntegrityError, IsobenchError
from .evaluate import (
    DEFAULT_CLUSTER_EPS,
    EMBEDDERS,
    PairDataset,
    REPORT_FORMATS,
    WL_SIGNATURES,
    augment_with_iso_pairs,
    check_cluster_eps,
    evaluate_grid,
    report_table,
)
from .graphs import GraphBatch, write_edge_list
from .models import check_model_seed
from .quant import check_quant_eps
from .transforms import TransformSpec, apply_transform, parse_transform_token
from .wl import DEFAULT_EPS, DEFAULT_TUPLE_BUDGET

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

LIBRARY_INPUT = "hard_pairs"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="isobench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, multiple_inputs=False):
        if multiple_inputs:
            p.add_argument(
                "--input",
                action="append",
                required=True,
                help=f"path to a graph file, or '{LIBRARY_INPUT}' for the bundled pairs; "
                "repeat to tag several files as separate origins",
            )
        else:
            p.add_argument(
                "--input",
                required=True,
                help=f"path to a graph file, or '{LIBRARY_INPUT}' for the bundled pairs",
            )
        p.add_argument(
            "--format",
            default="auto",
            choices=("auto", "graph6", "edge_list"),
            help="input file format (default: infer from the extension)",
        )

    pt = sub.add_parser("transform", help="apply one transform and write edge lists")
    add_io(pt)
    pt.add_argument("--transform", required=True, help="transform token, e.g. degree or graph_encoding:k=4,sign=raw")
    pt.add_argument("--out", required=True, help="output file (edge-list blocks)")

    pw = sub.add_parser("wl", help="refinement verdicts on consecutive pairs")
    add_io(pw)
    pw.add_argument("--k", type=int, default=1, choices=[int(name[2:]) for name in WL_SIGNATURES], help="refinement arity")
    pw.add_argument("--eps", type=float, default=DEFAULT_EPS, help="feature quantization granularity")
    pw.add_argument("--transform", action="append", default=[], help="transform token applied before refinement; repeatable")

    pe = sub.add_parser("evaluate", help="run a transform x embedder grid")
    add_io(pe, multiple_inputs=True)
    pe.add_argument("--transform", action="append", default=[], help="transform token; repeatable (default: base)")
    pe.add_argument("--embedder", action="append", default=[], choices=EMBEDDERS, help="embedder name; repeatable (default: wl1)")
    pe.add_argument("--eps", type=float, default=DEFAULT_CLUSTER_EPS, help="model clustering tolerance")
    pe.add_argument("--quant-eps", type=float, default=DEFAULT_EPS, help="feature quantization granularity")
    pe.add_argument("--seed-data", type=int, default=0, help="seed for augmentation sampling")
    pe.add_argument("--seed-model", type=int, default=0, help="seed for model weights")
    pe.add_argument("--augment", type=int, default=0, help="number of relabeled isomorphic pairs to add")
    pe.add_argument("--emit", default="csv", choices=tuple(REPORT_FORMATS), help="report format")
    pe.add_argument("--out", default=None, help="write the report here instead of stdout")
    pe.add_argument("--by-origin", action="store_true", help="one row per input origin; no two inputs may share one")
    pe.add_argument("--timing", action="store_true", help="emit measured wall time (breaks byte-identical output)")
    return parser


def _load_graphs(path: str, fmt: str):
    if path == LIBRARY_INPUT:
        return list(hard_pair_library().graphs)
    # Graphs are processed one by one here, so pairing does not apply.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PairingWarning)
        return load_dataset(path, fmt)


def _load_pairs(path: str, fmt: str) -> PairDataset:
    if path == LIBRARY_INPUT:
        return hard_pair_library()
    graphs = load_dataset(path, fmt)
    origin = os.path.splitext(os.path.basename(path))[0]
    try:
        return pairs_from_graphs(graphs, origin, isomorphic=False)
    except IsobenchError as exc:
        # Trouble verifying a user file's labels is bad input, not a
        # broken build or a bad option.
        raise IsobenchError(f"{path}: {exc}") from exc


@contextlib.contextmanager
def _atomic_output(path: str):
    """Yield a text file that replaces `path` only once the block succeeds.

    The file is written beside `path` and renamed over it at the end; on
    any failure the temporary file is removed and `path` is untouched.
    """
    out_dir = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(out_dir, f".isobench-{secrets.token_hex(8)}.tmp")
    # Exclusive like mkstemp, but created 0o666 so the umask applies as
    # it does for a plain open().
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as fh:
            yield fh
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _squares(rows, edges, graphs, largest):
    """GraphBatch.runs cells: rows * largest bounds the cells of one n x n
    matrix per graph of a run, the largest array a transform builds.
    Elementwise over int arrays."""
    return rows * largest


def _cmd_transform(args) -> int:
    spec = parse_transform_token(args.transform)
    graphs = _load_graphs(args.input, args.format)
    index = 0
    with _atomic_output(args.out) as fh:
        # Run by run, so a refused graph stops the command before later runs.
        for run in GraphBatch(graphs).runs(_squares):
            for g, t in zip(run.graphs, apply_transform(spec, run)):
                try:
                    if isinstance(t, IsobenchError):
                        raise t
                    text = write_edge_list(t)
                except IsobenchError as exc:
                    # A graph the transform refuses, or whose image the edge-list
                    # format cannot hold, is bad input, not a bad option.
                    raise IsobenchError(f"{args.input}: graph {index}: {exc}") from exc
                fh.write(text)
                fh.write("\n")
                print(
                    f"graph {index}: nodes {g.n} -> {t.n} ({t.n - g.n:+d}), "
                    f"edges {g.edge_count} -> {t.edge_count} ({t.edge_count - g.edge_count:+d})"
                )
                index += 1
    return EXIT_OK


def _cmd_wl(args) -> int:
    check_quant_eps(args.eps)
    specs = [parse_transform_token(t) for t in args.transform]
    ds = _load_pairs(args.input, args.format)
    signature = WL_SIGNATURES[f"wl{args.k}"]
    distinguished = 0
    evaluated = 0
    for index, pair in enumerate(ds.pairs):
        try:
            left, right = pair.left, pair.right
            for spec in specs:
                left = apply_transform(spec, left)
                right = apply_transform(spec, right)
            sig_l = signature(left, args.eps, DEFAULT_TUPLE_BUDGET)
            sig_r = signature(right, args.eps, DEFAULT_TUPLE_BUDGET)
        except IsobenchError as exc:
            print(f"pair {index} [{pair.origin}]: error: {exc}")
            continue
        evaluated += 1
        split = sig_l.digest != sig_r.digest
        distinguished += int(split)
        verdict = "distinguished" if split else "not distinguished"
        print(
            f"pair {index} [{pair.origin}]: {verdict} "
            f"(rounds {sig_l.rounds}/{sig_r.rounds})"
        )
    print(f"distinguished {distinguished}/{evaluated}")
    return EXIT_OK


def _refuse_shared_origins(args, datasets: list[PairDataset]) -> None:
    """Refuse two inputs, --augment among them, whose by-origin rows would merge."""
    sources = [(path, {p.origin for p in ds.pairs}) for path, ds in zip(args.input, datasets)]
    sources += [("--augment", {"augmented"})] * bool(args.augment)
    for i, (source, origins) in enumerate(sources):
        for earlier, seen in sources[:i]:
            if shared := origins & seen:
                raise ContractError(
                    f"--by-origin: inputs {earlier} and {source} both give origin {min(shared)!r}"
                )


def _cmd_evaluate(args) -> int:
    # Every option is checked before any input is read.
    tokens = args.transform or ["base"]
    specs = [parse_transform_token(t) for t in tokens]
    check_quant_eps(args.quant_eps)
    check_cluster_eps(args.eps)
    check_model_seed(args.seed_model)
    if args.augment < 0:
        raise ContractError(f"--augment must be >= 0, got {args.augment}")
    if args.augment and args.seed_data < 0:
        raise ContractError(f"--seed-data must be >= 0 to augment, got {args.seed_data}")
    datasets = [_load_pairs(path, args.format) for path in args.input]
    if args.by_origin:
        _refuse_shared_origins(args, datasets)
    merged = PairDataset(tuple(p for ds in datasets for p in ds.pairs), args.seed_data)
    if args.augment:
        extra = augment_with_iso_pairs(merged.graphs, args.augment, args.seed_data)
        merged = PairDataset(merged.pairs + extra.pairs, args.seed_data)
    embedders = args.embedder or ["wl1"]
    rows = evaluate_grid(
        merged,
        specs,
        embedders,
        cluster_eps=args.eps,
        quant_eps=args.quant_eps,
        model_seed=args.seed_model,
        by_origin=args.by_origin,
    )
    for row in rows:
        for note in row.notes:
            print(f"note [{row.method}/{row.embedder}]: {note}", file=sys.stderr)
    meta = {
        "tool": f"isobench {__version__}",
        "input": ",".join(args.input),
        "format": args.format,
        "transforms": ",".join(tokens),
        "embedders": ",".join(embedders),
        "eps": args.eps,
        "quant_eps": args.quant_eps,
        "seed_data": args.seed_data,
        "seed_model": args.seed_model,
        "augment": args.augment,
        "pairs": len(merged.pairs),
        "unverified_pairs": merged.unverified_count,
    }
    text = report_table(rows, args.emit, meta, timing=args.timing)
    if args.out:
        with _atomic_output(args.out) as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"isobench: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "transform":
            return _cmd_transform(args)
        if args.command == "wl":
            return _cmd_wl(args)
        return _cmd_evaluate(args)
    except ContractError as exc:
        print(f"isobench: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CorpusIntegrityError as exc:
        print(f"isobench: integrity error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (IsobenchError, OSError) as exc:
        print(f"isobench: data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except AssertionError as exc:
        print(f"isobench: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
