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
first-seen order, left before right, pair by pair, as one GraphBatch,
and each pair's two positions among them, with its ground truth, as
arrays.

A grid computes each per-graph pass once per spec, as one batch call
with GraphBatch.each's per-graph results: the result or the
IsobenchError that the graph alone raises. One memo per spec (_Memo),
dropped before the next spec, keeps the passes. The transform pass
transforms the whole indexed batch in one call and keeps each
position's error, the images as one batch and each position's row in
it; so a column transform's images reach a model as the batch
with_columns made, and no Graph object is built for them. Each embed
pass, one per (embedder, model input width), embeds every image, in
image order, that of a graph whose partner failed included, and keeps
its results by image row. A model embedder finds the images it refuses
by one comparison of the batch's node-count and width arrays, then
embeds the rest in one forward call. A wl2 digest is the wl1 digest,
so wl2 checks each image against its tuple budget, as wlk_signature
does, and reads the spec's one 1-WL digest table for the rest; the
table refines each image on first ask, and wl1 asks for every image.
A custom embedder must be pure, and return all bytes or all 1-D real
vectors.

A cell selects its pair rows, all of them or one origin's, and only
gathers. The transform failures at its pairs' positions exclude pairs;
its first surviving pair's image width picks a model's pass, and that
pass's failures at the survivors' image rows exclude more. Only the
excluded pairs are visited one by one, to note each by its left
graph's error, else its right one's, transform notes before embed
notes. The survivors' results are gathered at once: bytes give exact
classes by equality, vectors are clustered, each length apart, per
cell, since a cell's classes depend on which pairs it holds. fn, fp
and ecc are counted over label arrays. A cell's seconds cover only the
passes it computed first, so a grid's rows still sum to its wall time:
a by-origin grid charges each pass to the first cell that needs it.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, IsobenchError, check_number
from .graphs import Graph, GraphBatch, Permutation
from .models import (
    ARCHS,
    ModelParams,
    _refused,
    check_graph,
    check_model_seed,
    forward,
    init_model,
)
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
    flagged unverified. A verified contradiction raises, naming the pair's
    position in pairs (from 0) and its origin.
    """
    from .errors import CorpusIntegrityError

    out = []
    for i, pair in enumerate(pairs):
        if max(pair.left.n, pair.right.n) <= VERIFY_MAX_NODES:
            verdict = are_isomorphic(pair.left, pair.right)
            if verdict.isomorphic != pair.isomorphic:
                raise CorpusIntegrityError(
                    f"pair {i} ({pair.origin!r}) labeled isomorphic={pair.isomorphic} "
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
    check_number("count", count, numbers.Integral)
    check_number("seed", seed, numbers.Integral)
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
    """Raise ContractError unless eps is a usable tolerance: a real number,
    finite and >= 0."""
    check_number("cluster_eps", eps, numbers.Real)
    if not 0.0 <= eps < math.inf:
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

    batch holds each distinct input graph object once, in first-seen
    order, left before right, pair by pair, as one GraphBatch (None when
    there is none); slots[i] holds the positions of pair i's left and
    right graph in it. every is every pair row, and
    by_origin maps each origin, in first-seen order, to its pair rows.
    """

    pairs: tuple[LabeledPair, ...]
    batch: GraphBatch | None
    slots: np.ndarray
    isomorphic: np.ndarray
    every: np.ndarray
    by_origin: dict[str, np.ndarray]

    @classmethod
    def of(cls, ds: PairDataset, origin: str | None = None) -> _Index:
        """The index of the dataset's pairs, or of one origin's pairs only."""
        pairs = ds.pairs if origin is None else tuple(p for p in ds.pairs if p.origin == origin)
        position: dict[int, int] = {}
        graphs: list[Graph] = []
        slots: list[int] = []
        by_origin: dict[str, list[int]] = {}
        for i, pair in enumerate(pairs):
            for g in (pair.left, pair.right):
                slot = position.setdefault(id(g), len(graphs))
                if slot == len(graphs):
                    graphs.append(g)
                slots.append(slot)
            by_origin.setdefault(pair.origin, []).append(i)
        return cls(
            pairs,
            GraphBatch(graphs) if graphs else None,
            np.array(slots, dtype=np.intp).reshape(-1, 2),
            np.array([p.isomorphic for p in pairs], dtype=bool),
            np.arange(len(pairs)),
            {o: np.array(r, dtype=np.intp) for o, r in by_origin.items()},
        )

    def cell(self, origin: str | None) -> tuple[np.ndarray, np.ndarray]:
        """The pair rows of a cell and their slots: every pair's, or one origin's."""
        if origin is None:
            return self.every, self.slots
        rows = self.by_origin.get(origin, self.every[:0])
        return rows, self.slots[rows]


@dataclass(frozen=True, eq=False)
class _Pass:
    """One per-graph pass's results, in graph order.

    values[i] is graph i's result or the IsobenchError that it raised,
    and failed[i] marks an error. A transform pass keeps its images as
    the one GraphBatch images, and a model pass its embeddings as the
    rows of vectors, for the graphs without an error only, in order:
    graph i's is row row[i], and values holds None for it.
    """

    values: list
    failed: np.ndarray
    images: GraphBatch | None = None
    vectors: np.ndarray | None = None

    @classmethod
    def of(cls, values: list, images: GraphBatch | None = None) -> _Pass:
        """The pass of per-graph results, each a result or an IsobenchError."""
        return cls(values, np.array([isinstance(v, IsobenchError) for v in values], bool), images)

    @cached_property
    def failures(self) -> bool:
        return bool(self.failed.any())

    @cached_property
    def row(self) -> np.ndarray:
        return np.cumsum(~self.failed) - 1


@dataclass
class _Memo:
    """A dataset's index and the passes that the cells of one spec share.

    passes keys the spec's transform pass by the spec, and each embed
    pass by (embedder, width): embedder is a built-in name or a custom
    callable's id(), so an unhashable callable keys a pass and two that
    share a name keep their own, and width is a model's input width, or
    0. wl1 maps image rows to their 1-WL digests, filled on first ask.
    """

    index: _Index
    passes: dict[object, _Pass] = field(default_factory=dict)
    wl1: dict[int, object] = field(default_factory=dict)

    def get(self, key: object, compute: Callable[[], _Pass]) -> _Pass:
        """The pass under key, computed on first use."""
        out = self.passes.get(key)
        if out is None:
            out = self.passes[key] = compute()
        return out


def _transform(spec: TransformSpec, batch: GraphBatch | None) -> _Pass:
    """The transform pass over an index's batch, in one call."""
    if batch is None:
        return _Pass.of([])
    # Positional, through this module's global: benchmarks/tracing.py
    # patches evaluate.apply_transform and keys the batch by its n,
    # edges and features.
    out = apply_transform(spec, batch)
    return _Pass.of(out.errors, out.images)


def _wl_digest(embedder: str, eps: float, budget: int) -> Callable[[Graph], bytes]:
    """A graph's digest under a WL embedder, as bytes."""
    signature = WL_SIGNATURES[embedder]
    return lambda g: bytes.fromhex(signature(g, eps, budget).digest)


def _embed_wl1(memo: _Memo, images: GraphBatch, wl2: bool, eps: float, budget: int) -> _Pass:
    """Each image's 1-WL digest, from the memo's table, which refines only
    the images it lacks. For wl2 the tuple guards run first, as in
    wlk_signature, and an image they refuse keeps its error unrefined."""
    size = len(images.sizes)
    guards = images.each(lambda g: check_tuple_refinement(g, 2, budget)) if wl2 else [None] * size
    fresh = [i for i, e in enumerate(guards) if e is None and i not in memo.wl1]
    if fresh:
        memo.wl1.update(zip(fresh, images.take(fresh).each(_wl_digest("wl1", eps, budget))))
    return _Pass.of([memo.wl1[i] if e is None else e for i, e in enumerate(guards)])


def _embed_model(params: ModelParams, images: GraphBatch) -> _Pass:
    """Embed the images the model accepts in one forward call; each other
    image gets the error check_graph raises for it. One mask over the
    batch's count arrays finds them, so check_graph runs only on refused
    images."""
    refused = _refused(params, images)
    values: list = [None] * len(refused)
    if refused.any():
        bad = np.flatnonzero(refused)
        for j, e in zip(bad.tolist(), images.take(bad).each(lambda g: check_graph(params, g))):
            values[j] = e
        images = None if refused.all() else images.take(np.flatnonzero(~refused))
    # Positional, through this module's global: benchmarks/tracing.py
    # patches evaluate.forward and counts the batch's n node rows.
    return _Pass(values, refused, vectors=None if images is None else forward(params, images))


def _embed_custom(name: str, embed: GraphEmbedder, images: GraphBatch) -> _Pass:
    """embed over each image; a ContractError naming the embedder unless
    its results are all bytes or all 1-D real vectors."""
    values = images.each(embed)
    kinds = set()
    for v in values:
        if isinstance(v, (bytes, bytearray)):
            kinds.add(bytes)
        elif not isinstance(v, IsobenchError):
            try:
                a = np.asarray(v)
            except ValueError:  # a ragged sequence
                a = np.asarray(v, dtype=object)
            if a.ndim != 1 or a.dtype.kind not in "biuf":
                raise ContractError(
                    f"embedder {name!r} returned an array of dtype {a.dtype} and shape "
                    f"{a.shape}, not bytes or a 1-D real vector"
                )
            kinds.add(np.ndarray)
    if len(kinds) > 1:
        raise ContractError(f"embedder {name!r} returned bytes for some graphs, vectors for others")
    return _Pass.of(values)


def _exclude(
    done: _Pass,
    kept: np.ndarray,
    at: np.ndarray,
    rows: np.ndarray,
    index: _Index,
    notes: list[str],
) -> tuple[np.ndarray, np.ndarray]:
    """The cell pairs of kept, indices into rows, whose two graphs, at at's
    rows of done, have results, with those rows. A dropped pair is noted by
    its left graph's error, else its right one's."""
    if not done.failures:
        return kept, at
    bad = done.failed[at]
    dropped = bad[:, 0] | bad[:, 1]
    for j in np.flatnonzero(dropped).tolist():
        i = int(kept[j])
        error = done.values[at[j, 0] if bad[j, 0] else at[j, 1]]
        notes.append(f"pair {i} ({index.pairs[rows[i]].origin}): {error}")
    return kept[~dropped], at[~dropped]


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


def _labels(done: _Pass, ends: np.ndarray, eps: float) -> list[int]:
    """The class label of each result at rows ends of done: vectors are
    clustered, and bytes grouped by equality."""
    if not ends.size:
        return []
    if done.vectors is not None:
        return cluster_embeddings(done.vectors[done.row[ends]], eps)
    values = [done.values[p] for p in ends.tolist()]
    if isinstance(values[0], (bytes, bytearray)):
        keys: list = [bytes(e) for e in values]
    else:
        keys = _vector_keys(values, eps)
    table: dict = {}
    return [table.setdefault(key, len(table)) for key in keys]


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

    A custom callable embedder returns either bytes keys (classes by
    exact equality) or 1-D real vectors (classes by eps clustering, each
    length apart) for all graphs. `memo` holds the dataset's index and
    the passes that evaluate_grid shares between the cells of one spec;
    without it the cell indexes its own pairs and computes everything
    itself. A quant_eps that is not finite and > 0, a cluster_eps that
    is not finite and >= 0, a kwl_budget that is not an integer >= 1, a
    model_seed that is not an integer >= 0, or an unknown embedder name
    raises ContractError before any pair runs.
    """
    check_quant_eps(quant_eps)
    check_cluster_eps(cluster_eps)
    check_kwl_budget(kwl_budget)
    check_model_seed(model_seed)
    if not callable(embedder) and embedder not in EMBEDDERS:
        raise ContractError(f"unknown embedder {str(embedder)!r}; valid: {', '.join(EMBEDDERS)}")
    start = time.perf_counter()
    memo = _Memo(_Index.of(ds, origin)) if memo is None else memo
    index = memo.index
    rows, at = index.cell(origin)
    name = embedder if isinstance(embedder, str) else getattr(embedder, "__name__", "custom")

    transformed = memo.get(spec, lambda: _transform(spec, index.batch))
    notes: list[str] = []
    kept, at = _exclude(transformed, np.arange(len(rows)), at, rows, index, notes)
    labels: list = []
    if len(kept):
        images, at = transformed.images, transformed.row[at]
        # A model's weights depend on its input width; other embedders do not.
        model = embedder in ARCHS
        width = int(images.widths[at[0, 0]]) if model else 0

        def embed() -> _Pass:
            if model:
                return _embed_model(init_model(embedder, width, model_seed), images)
            if callable(embedder):
                return _embed_custom(name, embedder, images)
            if embedder == "wl3":
                return _Pass.of(images.each(_wl_digest("wl3", quant_eps, kwl_budget)))
            return _embed_wl1(memo, images, embedder == "wl2", quant_eps, kwl_budget)

        key = embedder if isinstance(embedder, str) else id(embedder)
        embedded = memo.get((key, width), embed)
        kept, at = _exclude(embedded, kept, at, rows, index, notes)
        # Left and right graph of each included pair, pair by pair.
        labels = _labels(embedded, at.ravel(), cluster_eps)
    labels = np.array(labels, dtype=np.intp)
    same = labels[0::2] == labels[1::2]
    isomorphic = index.isomorphic[rows[kept]]
    seconds = time.perf_counter() - start
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
    dataset is indexed once, each spec transforms the indexed graphs in
    one call, and each (embedder, model width) embeds the spec's images
    in one pass that the spec's cells share.
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
