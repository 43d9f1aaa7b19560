"""Pair-corpus evaluation of embedder expressivity.

Each labeled pair holds two graphs and the ground truth of whether they
are isomorphic. A run transforms every graph, embeds it, groups the
embeddings into equivalence classes, and calls a pair "isomorphic" when
both members land in the same class. Three numbers summarize a run:

ecc  the number of equivalence classes over all evaluated graphs
fp   isomorphic pairs that were split (the embedder invented a
     difference that is not there)
fn   non-isomorphic pairs that were merged (a real difference was
     missed)

Refinement signatures give exact classes by digest equality. Model
embeddings are clustered by single linkage: two embeddings join the
same class when some chain of embeddings connects them with max-norm
steps of at most eps. Pairs whose transform or embedding raises are
excluded and counted, never silently dropped.

A cell runs in three steps. It transforms every distinct input graph
of its pairs, embeds every distinct transformed graph of the pairs whose
two transforms succeeded, and scores the pairs. Both passes take graphs
in first-seen order, left before right, pair by pair, and compute a
graph whatever its partner's fate: a failed left graph no longer saves
its partner's work. A pair is excluded by its left graph's error, else
its right graph's, transform notes before embed notes. The result type
decides the classes for every embedder: bytes give exact classes by
equality, anything else is clustered.

A grid computes each thing once: it transforms every distinct input
graph object once per spec and embeds each result once per (spec,
embedder, model input width), then clusters per cell, because a cell's
classes depend on which pairs it holds. So a custom embedder must be
pure: a graph that several cells share is embedded for the first of
them only. A cell's seconds cover only the work that cell triggered
first, so a grid's rows still sum to its wall time.

Each pass of a cell is one batch call over the distinct graphs its memo
lacks, with GraphBatch.each's per-graph results: the result or the
IsobenchError that the graph alone raises. A model embedder checks each
graph alone, then embeds those that pass in one forward call.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import ContractError, IsobenchError
from .graphs import Graph, GraphBatch, Permutation
from .models import ARCHS, check_graph, forward, init_model
from .quant import check_quant_eps
from .transforms import KINDS, TRANSFORMS, TransformSpec, apply_transform
from .wl import DEFAULT_EPS, DEFAULT_TUPLE_BUDGET, are_isomorphic, wl1_signature, wlk_signature

# wl embedder name -> signature(g, quant_eps, kwl_budget). The lambdas look
# the signature functions up as module globals at call time, so patching
# evaluate.wl1_signature or evaluate.wlk_signature sees every call.
WL_SIGNATURES = {
    "wl1": lambda g, eps, budget: wl1_signature(g, eps),
    "wl2": lambda g, eps, budget: wlk_signature(g, 2, eps, budget),
    "wl3": lambda g, eps, budget: wlk_signature(g, 3, eps, budget),
}
EMBEDDERS = (*WL_SIGNATURES, *ARCHS)

DEFAULT_CLUSTER_EPS = 1e-5
VERIFY_MAX_NODES = 16


@dataclass(frozen=True)
class LabeledPair:
    left: Graph
    right: Graph
    isomorphic: bool
    origin: str = "unlabeled"
    verified: bool = False


@dataclass(frozen=True)
class PairDataset:
    pairs: tuple[LabeledPair, ...]
    seed: int | None = None

    @property
    def graphs(self) -> tuple[Graph, ...]:
        out = []
        for pair in self.pairs:
            out.append(pair.left)
            out.append(pair.right)
        return tuple(out)

    @property
    def unverified_count(self) -> int:
        return sum(1 for p in self.pairs if not p.verified)


def verify_pair_labels(pairs: Sequence[LabeledPair]) -> tuple[LabeledPair, ...]:
    """Re-check ground truth exactly for pairs small enough to afford it.

    Pairs with more than VERIFY_MAX_NODES nodes keep their label and stay
    flagged unverified. A verified contradiction raises.
    """
    from .errors import CorpusIntegrityError

    out = []
    for pair in pairs:
        if max(pair.left.n, pair.right.n) <= VERIFY_MAX_NODES:
            verdict = are_isomorphic(pair.left, pair.right)
            if verdict.isomorphic != pair.isomorphic:
                raise CorpusIntegrityError(
                    f"pair {pair.origin!r} labeled isomorphic={pair.isomorphic} "
                    f"but the exact test says {verdict.isomorphic}"
                )
            out.append(
                LabeledPair(pair.left, pair.right, pair.isomorphic, pair.origin, True)
            )
        else:
            out.append(pair)
    return tuple(out)


def make_pair_dataset(pairs: Sequence[LabeledPair], seed: int | None = None) -> PairDataset:
    return PairDataset(verify_pair_labels(pairs), seed)


def augment_with_iso_pairs(
    graphs: Sequence[Graph], count: int, seed: int
) -> PairDataset:
    """Pair `count` sampled graphs with relabeled copies of themselves.

    Sampling is without replacement from a generator seeded with `seed`,
    so the same call always yields the same pairs: the sample, then one
    permutation per sampled graph, in order. The sampled graphs are
    relabeled as one GraphBatch. Ground truth is true by construction.
    """
    if count < 0:
        raise ContractError(f"count must be >= 0, got {count}")
    if seed < 0:
        raise ContractError(f"augmentation seed must be >= 0, got {seed}")
    if count > len(graphs):
        raise ContractError(f"cannot sample {count} graphs from {len(graphs)}")
    for i, g in enumerate(graphs):
        if g.n < 1:
            raise ContractError(f"graph {i} is empty; augmentation needs nonempty graphs")
    rng = np.random.Generator(np.random.PCG64(seed))
    chosen = [graphs[int(i)] for i in rng.choice(len(graphs), size=count, replace=False)]
    perms = [Permutation.random(g.n, rng) for g in chosen]
    relabeled = GraphBatch(chosen).relabeled(perms) if chosen else []
    pairs = [LabeledPair(g, h, True, "augmented", True) for g, h in zip(chosen, relabeled)]
    return PairDataset(tuple(pairs), seed)


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def cluster_embeddings(vectors: np.ndarray, eps: float) -> list[int]:
    """Single-linkage classes under the max-norm metric at tolerance eps.

    Bit-identical rows are pre-grouped; that is only an accelerator,
    membership still comes from the eps linkage. Two rows can join only
    if their coordinates 0 differ by at most eps, so with the distinct
    rows sorted by coordinate 0 each is compared only with the later
    rows whose coordinate 0 is within 2 * eps of its own, a bound that
    float rounding cannot cross. The join test is max|a - b| <= eps on
    whole rows, which a row holding NaN or an infinity never passes
    against a different row.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    m = vectors.shape[0]
    if m == 0:
        return []
    uniq, inverse = np.unique(vectors, axis=0, return_inverse=True)
    u = uniq.shape[0]
    uf = _UnionFind(u)
    # u > 1 implies at least one column to sort by.
    if u > 1:
        order = np.argsort(uniq[:, 0], kind="stable")
        rows = uniq[order]
        col = rows[:, 0]
        ends = np.searchsorted(col, col + 2 * eps, side="right")
        # inf - inf is NaN, which never joins; numpy's warning about it is noise.
        with np.errstate(invalid="ignore"):
            for p in np.nonzero(ends > np.arange(1, u + 1))[0]:
                dist = np.max(np.abs(rows[p + 1 : ends[p]] - rows[p]), axis=1)
                for q in np.nonzero(dist <= eps)[0]:
                    uf.union(int(order[p]), int(order[p + 1 + q]))
    labels = []
    relabel: dict[int, int] = {}
    for row in range(m):
        root = uf.find(int(inverse[row]))
        labels.append(relabel.setdefault(root, len(relabel)))
    return labels


def ecc(class_labels: Sequence[int]) -> int:
    """Count of distinct equivalence classes."""
    return len(set(class_labels))


@dataclass(frozen=True)
class ReportRow:
    method: str
    embedder: str
    ecc: int
    fn: int
    fp: int
    pairs: int
    excluded: int
    seconds: float
    origin: str | None = None
    notes: tuple[str, ...] = field(default=())

    @property
    def method_label(self) -> str:
        entry = TRANSFORMS.get(self.method)
        return entry[0] if entry else self.method


GraphEmbedder = Callable[[Graph], "bytes | np.ndarray"]


@dataclass
class _Memo:
    """Per-graph results that the cells of one grid share.

    `transformed` maps id(input graph) to its transform under one spec;
    `embedded` maps (id(transformed graph), model input width or 0) to
    its embedding under one embedder. A value is the result or the
    IsobenchError the call raised. A cell adds every distinct graph of
    its pairs that a map lacks, failed partners included: a failed left
    graph no longer saves its partner's work. Keys are object ids, which
    stay valid because the dataset and `transformed` keep every keyed
    graph alive.
    """

    transformed: dict[int, object] = field(default_factory=dict)
    embedded: dict[tuple[int, int], object] = field(default_factory=dict)


def _fill(cache: dict, keyed: Iterable[tuple], run: Callable[[GraphBatch], list]) -> None:
    """Give cache an entry for each key of the (key, graph) items that it
    lacks, from one run(GraphBatch) call over those graphs in first-seen order."""
    fresh: dict = {}
    for key, g in keyed:
        if key not in cache:
            fresh.setdefault(key, g)
    if fresh:
        cache.update(zip(fresh, run(GraphBatch(list(fresh.values()))), strict=True))


def _sift(rows: Iterable[tuple], notes: list[str]) -> list[tuple]:
    """The (index, pair, left, right) rows whose two values are results.

    A row that holds an IsobenchError is noted by its left value's error,
    else its right one's, and dropped.
    """
    kept = []
    for index, pair, left, right in rows:
        error = left if isinstance(left, IsobenchError) else right
        if isinstance(error, IsobenchError):
            notes.append(f"pair {index} ({pair.origin}): {error}")
        else:
            kept.append((index, pair, left, right))
    return kept


def evaluate_pairs(
    ds: PairDataset,
    spec: TransformSpec,
    embedder: str | GraphEmbedder,
    *,
    cluster_eps: float = DEFAULT_CLUSTER_EPS,
    quant_eps: float = DEFAULT_EPS,
    model_seed: int = 0,
    kwl_budget: int = DEFAULT_TUPLE_BUDGET,
    origin: str | None = None,
    memo: _Memo | None = None,
) -> ReportRow:
    """Run one (transform, embedder) cell over the dataset.

    A custom callable embedder may return either a bytes key (classes by
    exact equality) or a float vector (classes by eps clustering).
    `memo` holds the transforms and embeddings that evaluate_grid shares
    between the cells of one spec and embedder; without it the cell
    computes everything itself. A quant_eps that is not finite and > 0,
    a cluster_eps that is not finite and >= 0, or an unknown embedder
    name raises ContractError before any pair runs.
    """
    check_quant_eps(quant_eps)
    if not (np.isfinite(cluster_eps) and cluster_eps >= 0.0):
        raise ContractError(f"cluster tolerance must be finite and >= 0, got {cluster_eps}")
    if not callable(embedder) and embedder not in EMBEDDERS:
        raise ContractError(f"unknown embedder {str(embedder)!r}; valid: {', '.join(EMBEDDERS)}")
    start = time.perf_counter()
    memo = _Memo() if memo is None else memo
    pairs = ds.pairs if origin is None else tuple(p for p in ds.pairs if p.origin == origin)

    transformed = memo.transformed
    # Positional, through this module's global: benchmarks/tracing.py
    # patches evaluate.apply_transform and keys the batch by its n,
    # edges and features.
    _fill(
        transformed,
        ((id(g), g) for p in pairs for g in (p.left, p.right)),
        lambda b: apply_transform(spec, b),
    )
    notes: list[str] = []
    survivors = _sift(
        ((i, p, transformed[id(p.left)], transformed[id(p.right)]) for i, p in enumerate(pairs)),
        notes,
    )

    embed_dim = survivors[0][2].d if survivors else 1
    params = init_model(embedder, embed_dim, model_seed) if embedder in ARCHS else None
    # A model's weights depend on its input width; other embedders do not.
    width = 0 if params is None else embed_dim
    if params is not None:

        def embed(b: GraphBatch) -> list:
            out = b.each(lambda g: check_graph(params, g))
            fit = [g for g, e in zip(b.graphs, out) if not isinstance(e, IsobenchError)]
            if fit:
                # Positional, through this module's global: benchmarks/tracing.py
                # patches evaluate.forward and counts the batch's n node rows.
                rows = iter(forward(params, GraphBatch(fit)))
                out = [e if isinstance(e, IsobenchError) else next(rows) for e in out]
            return out

    elif callable(embedder):
        embed = lambda b: b.each(embedder)
    else:
        signature = WL_SIGNATURES[embedder]
        embed = lambda b: b.each(
            lambda g: bytes.fromhex(signature(g, quant_eps, kwl_budget).digest)
        )
    embedded = memo.embedded
    _fill(embedded, (((id(g), width), g) for row in survivors for g in row[2:]), embed)
    included = _sift(
        ((i, p, embedded[id(a), width], embedded[id(b), width]) for i, p, a, b in survivors),
        notes,
    )

    values = [e for _, _, left, right in included for e in (left, right)]
    if values and isinstance(values[0], (bytes, bytearray)):
        table: dict[bytes, int] = {}
        labels = [table.setdefault(bytes(e), len(table)) for e in values]
    elif values:
        labels = cluster_embeddings(np.stack([np.asarray(e) for e in values]), cluster_eps)
    else:
        labels = []

    fp = fn = 0
    for slot, (_, pair, _, _) in enumerate(included):
        same = labels[2 * slot] == labels[2 * slot + 1]
        if pair.isomorphic and not same:
            fp += 1
        if not pair.isomorphic and same:
            fn += 1
    seconds = time.perf_counter() - start
    name = embedder if isinstance(embedder, str) else getattr(embedder, "__name__", "custom")
    return ReportRow(
        method=spec.kind,
        embedder=name,
        ecc=ecc(labels),
        fn=fn,
        fp=fp,
        pairs=len(included),
        excluded=len(pairs) - len(included),
        seconds=seconds,
        origin=origin,
        notes=tuple(notes),
    )


def evaluate_grid(
    ds: PairDataset,
    specs: Sequence[TransformSpec],
    embedders: Sequence[str | GraphEmbedder],
    *,
    cluster_eps: float = DEFAULT_CLUSTER_EPS,
    quant_eps: float = DEFAULT_EPS,
    model_seed: int = 0,
    kwl_budget: int = DEFAULT_TUPLE_BUDGET,
    by_origin: bool = False,
) -> list[ReportRow]:
    """One row per (spec, embedder, origin) cell, in that nesting order.

    Equal to calling evaluate_pairs once per cell, `seconds` aside: the
    cells of one spec share its transforms, and the cells of one (spec,
    embedder) share its embeddings.
    """
    origins: list[str | None] = [None]
    if by_origin:
        seen: list[str] = []
        for pair in ds.pairs:
            if pair.origin not in seen:
                seen.append(pair.origin)
        origins = list(seen)
    rows = []
    for spec in specs:
        transformed: dict[int, object] = {}
        for embedder in embedders:
            memo = _Memo(transformed)
            for origin in origins:
                rows.append(
                    evaluate_pairs(
                        ds,
                        spec,
                        embedder,
                        cluster_eps=cluster_eps,
                        quant_eps=quant_eps,
                        model_seed=model_seed,
                        kwl_budget=kwl_budget,
                        origin=origin,
                        memo=memo,
                    )
                )
    return rows


# ---------------------------------------------------------------------------
# rendering

_METHOD_ORDER = {kind: i for i, kind in enumerate(KINDS)}
_EMBEDDER_ORDER = {name: i for i, name in enumerate(EMBEDDERS)}


def sort_rows(rows: Sequence[ReportRow]) -> list[ReportRow]:
    return sorted(
        rows,
        key=lambda r: (
            _METHOD_ORDER.get(r.method, len(_METHOD_ORDER)),
            _EMBEDDER_ORDER.get(r.embedder, len(_EMBEDDER_ORDER)),
            r.origin or "",
        ),
    )


_COLUMNS = ("method", "embedder", "origin", "ecc", "fn", "fp", "pairs", "excluded", "seconds")


def _report_cells(
    rows: Sequence[ReportRow], timing: bool
) -> tuple[list[str], list[list[object]]]:
    """Header and typed cells in sorted row order.

    The origin column appears only when some row has an origin; seconds
    is the 0.0 placeholder unless timing is set.
    """
    rows = sort_rows(rows)
    with_origin = any(r.origin is not None for r in rows)
    header = [c for c in _COLUMNS if with_origin or c != "origin"]
    body = []
    for r in rows:
        cells = {
            "method": r.method_label,
            "embedder": r.embedder,
            "origin": r.origin or "all",
            "ecc": r.ecc,
            "fn": r.fn,
            "fp": r.fp,
            "pairs": r.pairs,
            "excluded": r.excluded,
            "seconds": round(r.seconds, 3) if timing else 0.0,
        }
        body.append([cells[c] for c in header])
    return header, body


def _text(cell: object) -> str:
    return f"{cell:.3f}" if isinstance(cell, float) else str(cell)


def _csv(header: list[str], body: list[list[object]], meta: dict | None) -> list[str]:
    lines = [f"# {key}={value}" for key, value in (meta or {}).items()]
    lines.append(",".join(header))
    return lines + [",".join(map(_text, cells)) for cells in body]


def _markdown(header: list[str], body: list[list[object]], meta: dict | None) -> list[str]:
    lines = [f"- {key}: {value}" for key, value in (meta or {}).items()]
    if meta:
        lines.append("")
    table = [header] + [list(map(_text, cells)) for cells in body]
    widths = [max(len(r[c]) for r in table) for c in range(len(header))]
    rows = ["| " + " | ".join(c.ljust(w) for c, w in zip(r, widths)) + " |" for r in table]
    rule = "|" + "|".join("-" * (w + 2) for w in widths) + "|"
    return lines + rows[:1] + [rule] + rows[1:]


def _jsonl(header: list[str], body: list[list[object]], meta: dict | None) -> list[str]:
    lines = [json.dumps({"meta": meta}, sort_keys=True)] if meta else []
    return lines + [json.dumps(dict(zip(header, cells)), sort_keys=True) for cells in body]


# format name -> layout of (header, cells, meta) as report lines
REPORT_FORMATS = {"csv": _csv, "md": _markdown, "jsonl": _jsonl}


def report_table(
    rows: Sequence[ReportRow],
    fmt: str = "csv",
    meta: dict[str, object] | None = None,
    timing: bool = False,
) -> str:
    layout = REPORT_FORMATS.get(fmt)
    if layout is None:
        raise ContractError(
            f"unknown report format {fmt!r}; valid: {', '.join(REPORT_FORMATS)}"
        )
    header, body = _report_cells(rows, timing)
    return "\n".join(layout(header, body, meta)) + "\n"
