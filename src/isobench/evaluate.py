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
same class when some chain of embeddings connects them whose every step
is a pair equal as floats or at max-norm distance of at most eps.
cluster_embeddings finds the classes in whole-array passes, with no
Python loop over rows or pairs: a sort groups equal rows, a sweep
compares each row only with the rows whose coordinate 0 lies within
2 * eps of its own, and the linked pairs merge by hooking roots and
pointer jumping. Pairs whose transform or embedding raises are excluded
and counted, never silently dropped.

A dataset is indexed once: its distinct input graph objects in
first-seen order, left before right, pair by pair, and each pair's two
positions among them, with its ground truth, as arrays. Every result is
then kept by position: a spec's transforms in a list aligned with the
index, a model's embeddings as the rows of one float array, and each
pass's failures as a boolean mask.

A cell selects its pair rows, all of them or one origin's, and runs in
three steps. It transforms every distinct input graph of its pairs,
embeds every distinct transformed graph of the pairs whose two
transforms succeeded, and scores the pairs. Both passes take graphs in
first-seen order and compute a graph whatever its partner's fate: a
failed left graph does not spare its partner's transform or embedding.
Each pass is one batch call over the graphs it lacks, with
GraphBatch.each's per-graph results: the result or the IsobenchError
that the graph alone raises. A model embedder finds the graphs it
refuses by one comparison of the batch's node-count and width arrays,
then embeds the rest in one forward call. The failure masks,
gathered at the pairs' positions, exclude pairs; only the excluded
pairs are visited one by one, to note each by its left graph's error,
else its right one's, transform notes before embed notes. The
survivors' embeddings are gathered at once, and the result type decides
the classes for every embedder: bytes give exact classes by equality,
anything else is clustered, the vectors of each length apart. fn, fp
and ecc are counted over label arrays.

A grid computes each thing once. One memo per spec (_Memo), dropped
before the next spec, keys each per-graph pass: the spec's transforms,
each distinct input graph object's once, and each embedder's
embeddings, each transformed graph's once per model input width.
Clustering runs per cell, because a cell's classes depend on which pairs
it holds. So a custom embedder must be pure: a graph that several cells
share is embedded for the first of them only. A wl2 digest is the wl1
digest, so wl2 checks each graph against its tuple budget, as
wlk_signature does, then reads the wl1 pass, refining only the graphs it
lacks. A cell's seconds cover only the work that cell triggered first,
so a grid's rows still sum to its wall time.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, IsobenchError
from .graphs import Graph, GraphBatch, Permutation
from .models import ARCHS, ModelParams, _refused, check_graph, forward, init_model
from .quant import check_quant_eps
from .transforms import KINDS, TRANSFORMS, TransformSpec, apply_transform
from .wl import (
    DEFAULT_EPS,
    DEFAULT_TUPLE_BUDGET,
    are_isomorphic,
    check_kwl_budget,
    check_tuple_refinement,
    wl1_signature,
    wlk_signature,
)

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


def check_cluster_eps(eps: float) -> None:
    """Raise ContractError unless eps is a usable tolerance: finite and >= 0."""
    if not (np.isfinite(eps) and eps >= 0.0):
        raise ContractError(f"cluster tolerance must be finite and >= 0, got {eps}")


def cluster_embeddings(vectors: np.ndarray, eps: float) -> list[int]:
    """Single-linkage classes under the max-norm metric at tolerance eps.

    Labels number the classes in order of first appearance. Three
    whole-array passes compute them:

    1. Rows equal as floats are pre-grouped by a stable lexsort over the
       columns and an adjacent != test, which is np.unique(axis=0)'s
       equality: -0.0 equals +0.0, equal infinities group together and a
       row holding NaN equals no row. Grouping only saves work for finite
       rows; for rows holding an infinity it is what puts equal rows in
       one class, since inf - inf is NaN.
    2. The lexsort leaves the distinct rows sorted by coordinate 0, and
       two rows can join only if their coordinates 0 differ by at most
       eps. So each row is compared only with the later rows whose
       coordinate 0 is within 2 * eps of its own, a bound that float
       rounding cannot cross: step k compares every row whose window
       reaches k places with the row k places later, skipping pairs
       already in one class. The join test is max|a - b| <= eps, which a
       row holding NaN or an infinity never passes against another row.
    3. Each step's joined pairs are merged by hooking the larger of their
       two roots under the smaller (np.minimum.at) and pointer jumping
       until every root is its class's first-seen distinct row.

    With u distinct d-wide rows, no step holds more than O(u * d) cells
    beyond the input and its sorted copy. A ContractError is raised for
    input that is not 2-D and for an eps that is not finite and >= 0.
    """
    check_cluster_eps(eps)
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ContractError(f"embeddings must be a 2-D array of rows, got shape {vectors.shape}")
    m, d = vectors.shape
    if d == 0:
        return [0] * m
    order = np.lexsort(vectors.T[::-1])
    rows = vectors[order]
    new = np.ones(m, dtype=bool)
    np.any(rows[1:] != rows[:-1], axis=1, out=new[1:])
    starts = np.flatnonzero(new)
    uniq = rows[starts]
    del rows
    u = len(starts)
    # Distinct rows in sorted order -> rank of their first appearance.
    first = np.zeros(m, dtype=np.intp)
    first[order[starts]] = 1
    seen = (np.cumsum(first) - 1)[order[starts]]
    root = np.arange(u)
    col = uniq[:, 0]
    # inf - inf is NaN and an overflowing difference is inf, neither of
    # which joins; numpy's warnings about them are noise.
    with np.errstate(invalid="ignore", over="ignore"):
        reach = np.searchsorted(col, col + 2 * eps, side="right") - np.arange(1, u + 1)
        live = np.flatnonzero(reach)
        for k in range(1, int(reach.max(initial=0)) + 1):
            live = live[reach[live] >= k]
            apart = live[root[seen[live]] != root[seen[live + k]]]
            diff = uniq[apart + k]
            diff -= uniq[apart]
            near = apart[np.max(np.abs(diff, out=diff), axis=1) <= eps]
            _merge(root, seen[near], seen[near + k])
    label = np.cumsum(root == np.arange(u)) - 1
    inverse = np.empty(m, dtype=np.intp)
    inverse[order] = seen[np.cumsum(new) - 1]
    return label[root][inverse].tolist()


def _merge(root: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Join the classes of each pair (a[i], b[i]) in root, in place.

    root maps each item to its class's smallest item on entry and on exit.
    Each round hooks the larger root of every pair still apart under the
    smallest root it is paired with, then jumps pointers until each item
    points at a root again.
    """
    while a.size:
        ra, rb = root[a], root[b]
        apart = ra != rb
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(root, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = root[root]
            if np.array_equal(jumped, root):
                break
            root[:] = jumped


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


@dataclass(frozen=True, eq=False)
class _Index:
    """A dataset's pairs as arrays over its distinct input graphs.

    graphs holds each distinct input graph object once, in first-seen
    order, left before right, pair by pair; slots[i] holds the positions
    of pair i's left and right graph in it. every is every pair row, and
    by_origin maps each origin, in first-seen order, to its pair rows.
    """

    pairs: tuple[LabeledPair, ...]
    graphs: tuple[Graph, ...]
    slots: np.ndarray
    isomorphic: np.ndarray
    every: np.ndarray
    by_origin: dict[str, np.ndarray]

    @classmethod
    def of(cls, ds: PairDataset) -> _Index:
        position: dict[int, int] = {}
        graphs: list[Graph] = []
        slots: list[int] = []
        by_origin: dict[str, list[int]] = {}
        for i, pair in enumerate(ds.pairs):
            for g in (pair.left, pair.right):
                slot = position.setdefault(id(g), len(graphs))
                if slot == len(graphs):
                    graphs.append(g)
                slots.append(slot)
            by_origin.setdefault(pair.origin, []).append(i)
        return cls(
            ds.pairs,
            tuple(graphs),
            np.array(slots, dtype=np.intp).reshape(-1, 2),
            np.array([p.isomorphic for p in ds.pairs], dtype=bool),
            np.arange(len(ds.pairs)),
            {o: np.array(r, dtype=np.intp) for o, r in by_origin.items()},
        )

    def cell(self, origin: str | None) -> tuple[np.ndarray, np.ndarray]:
        """The pair rows of a cell and their slots: every pair's, or one origin's."""
        if origin is None:
            return self.every, self.slots
        rows = self.by_origin.get(origin, self.every[:0])
        return rows, self.slots[rows]


class _Results:
    """One pass's results over an index's graphs, by position.

    values[p] is graph p's result or the IsobenchError that it raised;
    done[p] marks a computed graph and failed[p] an error. A model pass
    writes its embeddings into the rows of vectors instead and keeps
    None in values. lacking counts the graphs not done, failures the
    errors.
    """

    def __init__(self, size: int):
        self.values: list = [None] * size
        self.done = np.zeros(size, dtype=bool)
        self.failed = np.zeros(size, dtype=bool)
        self.vectors: np.ndarray | None = None
        self.lacking = size
        self.failures = 0

    def need(self, slots: np.ndarray) -> list[int]:
        """The distinct positions of slots, read row by row, that are not
        done, in first-seen order."""
        if not self.lacking:
            return []
        flat = slots.ravel()
        flat = flat[~self.done[flat]]
        # A stable sort puts each position's first appearance first.
        order = np.argsort(flat, kind="stable")
        first = np.ones(flat.size, dtype=bool)
        np.not_equal(flat[order[1:]], flat[order[:-1]], out=first[1:])
        return flat[np.sort(order[first])].tolist()

    def store(self, need: list[int], results: list) -> None:
        """Record results[j], a result or an IsobenchError, for position need[j]."""
        values = self.values
        failed = []
        for p, r in zip(need, results, strict=True):
            values[p] = r
            if isinstance(r, IsobenchError):
                failed.append(p)
        self.done[need] = True
        self.failed[failed] = True
        self.lacking -= len(need)
        self.failures += len(failed)


@dataclass
class _Memo:
    """A dataset's index and the per-graph passes that the cells of one
    spec share, each a _Results over the index's graphs.

    The spec keys its transforms, and (embedder, width) an embedder's
    embeddings: embedder is a built-in name or a custom callable's id(),
    so an unhashable callable keys a pass and two that share a name keep
    their own, and width is a model's input width, or 0. A cell computes
    every distinct graph of its pairs that a pass lacks, failed partners
    included.
    """

    index: _Index
    passes: dict[object, _Results] = field(default_factory=dict)

    def results(self, key: object) -> _Results:
        """The pass under key, empty on first use."""
        out = self.passes.get(key)
        if out is None:
            out = self.passes[key] = _Results(len(self.index.graphs))
        return out


def _wl_digest(embedder: str, eps: float, budget: int) -> Callable[[Graph], bytes]:
    """A graph's digest under a WL embedder, as bytes."""
    signature = WL_SIGNATURES[embedder]
    return lambda g: bytes.fromhex(signature(g, eps, budget).digest)


def _embed_model(params: ModelParams, b: GraphBatch, need: list[int], embedded: _Results) -> None:
    """Embed the graphs of b that the model accepts in one forward call,
    writing each one's row into embedded.vectors at its position; each
    other graph gets the error check_graph raises for it. One mask over the
    batch's count arrays finds them, so check_graph runs only on refused
    graphs."""
    graphs = b.graphs
    refused = _refused(params, b)
    out: list = [None] * len(graphs)
    if refused.any():
        bad = np.flatnonzero(refused).tolist()
        errors = GraphBatch([graphs[j] for j in bad]).each(lambda g: check_graph(params, g))
        for j, e in zip(bad, errors):
            out[j] = e
        fit = np.flatnonzero(~refused).tolist()
        b = GraphBatch([graphs[j] for j in fit]) if fit else None
    if b is not None:
        # Positional, through this module's global: benchmarks/tracing.py
        # patches evaluate.forward and counts the batch's n node rows.
        rows = forward(params, b)
        if embedded.vectors is None:
            embedded.vectors = np.empty((len(embedded.values), rows.shape[1]))
        embedded.vectors[np.asarray(need)[~refused]] = rows
    embedded.store(need, out)


def _exclude(
    results: _Results,
    slots: np.ndarray,
    kept: np.ndarray,
    rows: np.ndarray,
    index: _Index,
    notes: list[str],
) -> np.ndarray:
    """The cell pairs of kept, indices into slots, whose two graphs have
    results. A dropped pair is noted by its left graph's error, else its
    right one's."""
    if not results.failures:
        return kept
    bad = results.failed[slots[kept]]
    dropped = bad[:, 0] | bad[:, 1]
    for j in np.flatnonzero(dropped).tolist():
        i = int(kept[j])
        error = results.values[slots[i, 0] if bad[j, 0] else slots[i, 1]]
        notes.append(f"pair {i} ({index.pairs[rows[i]].origin}): {error}")
    return kept[~dropped]


def _vector_keys(values: list, eps: float) -> list[tuple]:
    """Each vector's class key: its shape and its cluster_embeddings label
    among the vectors of that shape. Vectors of different lengths never lie
    within eps of each other, so the vectors of each length cluster alone."""
    vectors = [np.asarray(e) for e in values]
    by_shape: dict[tuple, list[int]] = {}
    for i, v in enumerate(vectors):
        by_shape.setdefault(v.shape, []).append(i)
    keys: list = [None] * len(vectors)
    for shape, members in by_shape.items():
        stacked = np.stack([vectors[i] for i in members])
        for i, label in zip(members, cluster_embeddings(stacked, eps)):
            keys[i] = (shape, label)
    return keys


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
    exact equality) or a float vector (classes by eps clustering, each
    length apart). `memo` holds the dataset's index and the transforms
    and embeddings that evaluate_grid shares between the cells of one
    spec; without it the cell indexes the dataset and computes everything
    itself. A quant_eps that is not finite and > 0, a cluster_eps that is
    not finite and >= 0, a kwl_budget that is not an integer >= 1, or an
    unknown embedder name raises ContractError before any pair runs.
    """
    check_quant_eps(quant_eps)
    check_cluster_eps(cluster_eps)
    check_kwl_budget(kwl_budget)
    if not callable(embedder) and embedder not in EMBEDDERS:
        raise ContractError(f"unknown embedder {str(embedder)!r}; valid: {', '.join(EMBEDDERS)}")
    start = time.perf_counter()
    memo = _Memo(_Index.of(ds)) if memo is None else memo
    index = memo.index
    rows, slots = index.cell(origin)

    transformed = memo.results(spec)
    need = transformed.need(slots)
    if need:
        # Positional, through this module's global: benchmarks/tracing.py
        # patches evaluate.apply_transform and keys the batch by its n,
        # edges and features.
        batch = GraphBatch([index.graphs[p] for p in need])
        transformed.store(need, apply_transform(spec, batch))
    notes: list[str] = []
    kept = _exclude(transformed, slots, np.arange(len(rows)), rows, index, notes)

    survivors = slots[kept]
    embed_dim = transformed.values[survivors[0, 0]].d if len(survivors) else 1
    params = init_model(embedder, embed_dim, model_seed) if embedder in ARCHS else None
    # A model's weights depend on its input width; other embedders do not.
    key = embedder if isinstance(embedder, str) else id(embedder)
    embedded = memo.results((key, 0 if params is None else embed_dim))
    need = embedded.need(survivors)
    if need:
        graphs = GraphBatch([transformed.values[p] for p in need])
        if params is not None:
            _embed_model(params, graphs, need, embedded)
        elif embedder == "wl2":
            # The tuple guards run first, so a refused graph stays refused
            # whichever cell ran first; the rest read the wl1 pass.
            guards = graphs.each(lambda g: check_tuple_refinement(g, 2, kwl_budget))
            wl1 = memo.results(("wl1", 0))
            fresh = wl1.need(np.array([p for p, e in zip(need, guards) if e is None], np.intp))
            if fresh:
                fit = GraphBatch([transformed.values[p] for p in fresh])
                wl1.store(fresh, fit.each(_wl_digest("wl1", quant_eps, kwl_budget)))
            embedded.store(need, [wl1.values[p] if e is None else e for p, e in zip(need, guards)])
        else:
            embed = embedder if callable(embedder) else _wl_digest(embedder, quant_eps, kwl_budget)
            embedded.store(need, graphs.each(embed))
    kept = _exclude(embedded, slots, kept, rows, index, notes)

    # Left and right graph of each included pair, pair by pair.
    ends = slots[kept].ravel()
    if params is not None:
        labels = cluster_embeddings(embedded.vectors[ends], cluster_eps) if ends.size else []
    else:
        values = [embedded.values[p] for p in ends.tolist()]
        if values and isinstance(values[0], (bytes, bytearray)):
            keys: list = [bytes(e) for e in values]
        else:
            keys = _vector_keys(values, cluster_eps)
        table: dict = {}
        labels = [table.setdefault(key, len(table)) for key in keys]
    labels = np.array(labels, dtype=np.intp)
    same = labels[0::2] == labels[1::2]
    isomorphic = index.isomorphic[rows[kept]]
    seconds = time.perf_counter() - start
    name = embedder if isinstance(embedder, str) else getattr(embedder, "__name__", "custom")
    return ReportRow(
        method=spec.kind,
        embedder=name,
        ecc=int(np.count_nonzero(np.bincount(labels))),
        fn=int(np.count_nonzero(same & ~isomorphic)),
        fp=int(np.count_nonzero(isomorphic & ~same)),
        pairs=len(kept),
        excluded=len(rows) - len(kept),
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
    dataset is indexed once, the cells of one spec share its transforms
    and its 1-WL digests, and the cells of one (spec, embedder) share its
    embeddings.
    """
    index = _Index.of(ds)
    origins: list[str | None] = list(index.by_origin) if by_origin else [None]
    rows = []
    for spec in specs:
        memo = _Memo(index)  # dropped with the spec's results
        for embedder in embedders:
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
