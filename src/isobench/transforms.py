"""Structure- and feature-level graph transformations.

Every transformation maps a graph to a graph and, except for the raw
spectral encoding, commutes with node relabeling: transforming a
permuted graph equals permuting the transformed graph (extended to any
freshly added nodes). Newly created nodes always receive all-ones
feature rows so they blend with the uninformative baseline features.

kinds
    base                  identity
    virtual_node          one extra node adjacent to every existing node
    degree                append degree as a feature column
    closeness             append composite closeness
    betweenness           append shortest-path betweenness
    eigenvector           append principal adjacency eigenvector
    distance_encoding     append per-distance neighborhood counts
    graph_encoding        append k spectral coordinates per node
    subgraph_extraction   append ego-graph node and edge counts
    extra_node            subdivide every edge with a fresh node

TRANSFORMS is the one table of kinds. Each row names the TransformSpec
fields its kind reads, and a spec or token that sets another is refused.
Each column kind is a kernel and the text that refuses an empty graph.
A batch transform gives a Transformed: each graph's error or None, and
the images of the graphs without an error as one GraphBatch. The union
kernels of degree, closeness and distance_encoding (the last two from
centrality.ball_growth's breadth-first levels) run through _columns over
a whole GraphBatch, and their images are the batch that
GraphBatch.with_columns makes from arrays: the graphs of one feature
width share one read-only feature block, and no Graph object is built
until one is read. The per-graph kernels of the other four
(betweenness, eigenvector, graph_encoding, subgraph_extraction) run
through _each_columns on each graph alone. The two structural kinds,
virtual_node and extra_node, also run per graph, through GraphBatch.each:
each appends the new rows to the graph's edge_index, which
graphs._canonical_rows puts in canonical order, and the new nodes'
all-ones rows to the features in one read-only block; the checking Graph
constructor is not run. apply_transform runs a Graph as a batch of one;
either way each graph gets the bytes of its transform alone.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable

import numpy as np

from .centrality import (
    ball_growth,
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    eigenvector_centrality,
)
from .errors import ContractError, IsobenchError, check_number
from .graphs import GRAPH6_MAX_NODES, Graph, GraphBatch, _canonical_rows, as_batch
from .spectral import SIGN_MODES, laplacian_encoding_columns


@dataclass(frozen=True)
class TransformSpec:
    """One transformation with its parameters.

    k            spectral coordinates per node (graph_encoding)
    radius       ego-graph radius (subgraph_extraction)
    d_max        largest exact distance counted (distance_encoding);
                 one overflow column follows
    sign_mode    spectral sign convention (graph_encoding)
    power_tol    eigenvector iteration convergence threshold
    power_max_iter  eigenvector iteration cap

    k, radius, d_max and power_max_iter are integers, and power_tol a real
    number; a bool is neither. k and d_max are at most GRAPH6_MAX_NODES;
    no graph has more nodes.
    Fields that the kind's TRANSFORMS row does not name keep their defaults.
    """

    kind: str
    k: int = 4
    radius: int = 2
    d_max: int = 8
    sign_mode: str = "raw"
    power_tol: float = 1e-8
    power_max_iter: int = 1000

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ContractError(
                f"unknown transform kind {self.kind!r}; valid kinds: {', '.join(KINDS)}"
            )
        for name, number in _NUMBER_FIELDS:
            check_number(name, getattr(self, name), number)
        if not 1 <= self.k <= GRAPH6_MAX_NODES:
            raise ContractError(f"k must lie in 1..{GRAPH6_MAX_NODES}, got {self.k}")
        if self.radius < 1:
            raise ContractError(f"radius must be >= 1, got {self.radius}")
        if not 1 <= self.d_max <= GRAPH6_MAX_NODES:
            raise ContractError(f"d_max must lie in 1..{GRAPH6_MAX_NODES}, got {self.d_max}")
        if self.sign_mode not in SIGN_MODES:
            raise ContractError(
                f"unknown sign mode {self.sign_mode!r}; valid modes: {', '.join(SIGN_MODES)}"
            )
        if not 0 < self.power_tol < math.inf:
            raise ContractError(f"power_tol must be finite and positive, got {self.power_tol}")
        if self.power_max_iter < 1:
            raise ContractError(f"power_max_iter must be >= 1, got {self.power_max_iter}")
        for f in fields(self)[1:]:
            if getattr(self, f.name) != f.default and f.name not in TRANSFORMS[self.kind][1]:
                raise _foreign(self.kind, f.name)


# TransformSpec's numeric fields and their number types.
_NUMBER_FIELDS = (
    ("k", numbers.Integral),
    ("radius", numbers.Integral),
    ("d_max", numbers.Integral),
    ("power_max_iter", numbers.Integral),
    ("power_tol", numbers.Real),
)

# Token option -> (TransformSpec field, cast): every field but kind, cast
# with the type of its default, and "sign" for sign_mode.
_TOKEN_KEYS = {
    f.name: (f.name, type(f.default)) for f in fields(TransformSpec) if f.name != "kind"
}
_TOKEN_KEYS["sign"] = _TOKEN_KEYS["sign_mode"]


def _foreign(kind: str, name: str) -> ContractError:
    """The error for option or field `name`, which `kind` does not read."""
    own = ", ".join(k for k, (f, _) in sorted(_TOKEN_KEYS.items()) if f in TRANSFORMS[kind][1])
    return ContractError(f"transform {kind} takes no option {name!r}; its options: {own or 'none'}")


def parse_transform_token(token: str) -> TransformSpec:
    """Parse "kind" or "kind:key=value,key=value" into a TransformSpec."""
    token = token.strip()
    kind, _, rest = token.partition(":")
    if kind not in KINDS:
        raise ContractError(
            f"bad transform token {token!r}; valid kinds: {', '.join(KINDS)}"
        )
    overrides = {}
    if rest:
        for item in rest.split(","):
            key, sep, value = item.partition("=")
            if not sep or not key or not value:
                raise ContractError(f"bad transform option {item!r} in {token!r}")
            if key not in _TOKEN_KEYS:
                raise ContractError(
                    f"unknown transform option {key!r}; valid options: "
                    f"{', '.join(sorted(set(_TOKEN_KEYS)))}"
                )
            field, cast = _TOKEN_KEYS[key]
            if field not in TRANSFORMS[kind][1]:
                raise _foreign(kind, key)
            try:
                overrides[field] = cast(value)
            except ValueError:
                raise ContractError(f"bad value {value!r} for option {key!r}") from None
    return TransformSpec(kind=kind, **overrides)


def virtual_node(g: Graph) -> Graph:
    """Add node n adjacent to every existing node, features all ones.

    The hub is the last node and its all-ones feature row the last row.
    The edge rows are g's plus (v, n) for every node v, lexsorted, so
    node v's hub row follows its rows (v, w) with w < n.
    """
    nodes = np.arange(g.n, dtype=np.intp)
    hub = np.stack((nodes, np.full_like(nodes, g.n)), axis=1)
    return _grown(g, np.concatenate([g.edge_index, hub]), 1)


def extra_node(g: Graph) -> Graph:
    """Subdivide every edge; fresh nodes follow canonical edge order.

    Edge i (u, v) of g's edge_index becomes node n + i, with an all-ones
    feature row after g's rows, and the rows (u, n + i) and (v, n + i).
    The rows are lexsorted, so each old node's rows come in the order of
    its edges, and no row joins two fresh nodes.
    """
    mid = np.arange(g.n, g.n + g.edge_count, dtype=np.intp)
    return _grown(g, np.stack((g.edge_index.ravel(), np.repeat(mid, 2)), axis=1), g.edge_count)


def _grown(g: Graph, rows: np.ndarray, added: int) -> Graph:
    """g grown by `added` nodes with all-ones feature rows; its edges are
    `rows`, each u < v, in any order. They are valid by construction, so
    the image is built without the checking constructor."""
    feats = np.vstack([g.features, np.ones((added, g.d))])
    feats.setflags(write=False)
    return Graph._trusted(g.n + added, _canonical_rows(rows), feats)


_CENTRALITY_REFUSAL = "centrality augmentation needs at least one node"


def distance_encoding(x: Graph | GraphBatch, d_max: int = 8) -> np.ndarray:
    """Counts of nodes at each distance 1..d_max, then beyond d_max.

    One (nodes, d_max + 1) row block for a graph's nodes or a batch's
    union nodes, from ball_growth: the overflow column is the rest of
    each node's reach. Distances lie in 1..n-1, so only the levels up to
    the largest n - 1 are counted.
    """
    if d_max < 0:
        raise ContractError(f"d_max must be >= 0, got {d_max}")
    b = as_batch(x)
    reach, _, shells = ball_growth(b, max(0, min(d_max, int(b.sizes.max()) - 1)))
    cols = np.zeros((b.n, d_max + 1), dtype=np.float64)
    cols[:, : shells.shape[1]] = shells
    cols[:, d_max] = reach - 1 - shells.sum(axis=1)
    return cols


def subgraph_extraction(g: Graph, radius: int) -> np.ndarray:
    """Each node's ego-graph node and edge counts within radius, as an
    (n, 2) column block. Each node's breadth-first search stops at the
    radius, and a node at the radius counts only its edges into the ball."""
    if radius < 0:
        raise ContractError(f"radius must be >= 0, got {radius}")
    neighbors, degree = g.neighbors, g.degrees.tolist()
    ball_of = [-1] * g.n
    rows = []
    for v in range(g.n):
        ball_of[v] = v
        ball, ends, start = [v], 0, 0
        for _ in range(radius):
            shell, start = ball[start:], len(ball)
            if not shell:
                break
            for u in shell:
                ends += degree[u]
                for w in neighbors[u]:
                    if ball_of[w] != v:
                        ball_of[w] = v
                        ball.append(w)
        for u in ball[start:]:
            ends += [ball_of[w] for w in neighbors[u]].count(v)
        rows.append((len(ball), ends // 2))
    return np.array(rows, dtype=np.float64).reshape(g.n, 2)


class Transformed(Sequence):
    """The transforms of a batch's graphs, one entry per graph, in order:
    the image, or the IsobenchError that transforming the graph alone
    raises.

    errors holds each graph's error or None, and images the images of the
    graphs without one, in order, as a GraphBatch (None when every graph
    failed). An entry read by position is a Graph, built on first read
    for images made from arrays.
    """

    def __init__(self, images: GraphBatch | None, errors: list[IsobenchError | None]):
        self.images = images
        self.errors = errors

    @classmethod
    def of(cls, results: list) -> Transformed:
        """The entries of a list of per-graph results, as GraphBatch.each gives."""
        errors = [r if isinstance(r, IsobenchError) else None for r in results]
        images = [r for r, e in zip(results, errors) if e is None]
        return cls(GraphBatch(images) if images else None, errors)

    @cached_property
    def _entries(self) -> list:
        images = iter(self.images.graphs if self.images is not None else ())
        return [next(images) if e is None else e for e in self.errors]

    def __len__(self) -> int:
        return len(self.errors)

    def __getitem__(self, i):
        return self._entries[i]


def _columns(
    kernel: Callable[[GraphBatch, TransformSpec], np.ndarray], refusal: str
) -> Callable[[GraphBatch, TransformSpec], Transformed]:
    """The batch transform that appends kernel(b, spec), one value or row
    per union node, to each graph's features in one GraphBatch.with_columns
    batch; an empty graph gets ContractError(refusal) and no image."""

    def run(b: GraphBatch, spec: TransformSpec) -> Transformed:
        out = b.with_columns(kernel(b, spec))
        empty = (b.sizes < 1).tolist()
        kept = [i for i, e in enumerate(empty) if not e]
        errors = [ContractError(refusal) if e else None for e in empty]
        return Transformed(out.take(kept) if kept else None, errors)

    return run


def _each_columns(
    kernel: Callable[[Graph, TransformSpec], np.ndarray], refusal: str
) -> Callable[[GraphBatch, TransformSpec], Transformed]:
    """The batch transform that appends kernel(g, spec), one value or row
    per node, to the features of each graph alone through GraphBatch.each;
    an empty graph gets ContractError(refusal) before the kernel runs."""

    def append(g: Graph, spec: TransformSpec) -> Graph:
        if g.n < 1:
            raise ContractError(refusal)
        return g.with_features(np.hstack([g.features, kernel(g, spec).reshape(g.n, -1)]))

    return lambda b, spec: Transformed.of(b.each(lambda g: append(g, spec)))


# kind -> (report label, the TransformSpec fields it reads, batch
# transform); the order is the reporting order. A batch transform maps a
# GraphBatch to its Transformed entries: per graph, the transformed graph,
# or the IsobenchError that transforming the graph alone raises. The
# lambdas look the kernels up in this module's globals at call time, so a
# wrapper patched onto this module sees every call.
TRANSFORMS: dict[
    str, tuple[str, tuple[str, ...], Callable[[GraphBatch, TransformSpec], Transformed]]
] = {
    "base": ("Base", (), lambda b, spec: Transformed(b, [None] * len(b.sizes))),
    "virtual_node": ("Virtual Node", (), lambda b, spec: Transformed.of(b.each(virtual_node))),
    "degree": ("Degree", (), _columns(lambda b, spec: degree_centrality(b), _CENTRALITY_REFUSAL)),
    "closeness": (
        "Closeness", (),
        _columns(lambda b, spec: closeness_centrality(b), _CENTRALITY_REFUSAL),
    ),
    "betweenness": (
        "Betweenness", (),
        _each_columns(lambda g, spec: betweenness_centrality(g), _CENTRALITY_REFUSAL),
    ),
    "eigenvector": (
        "Eigenvector", ("power_tol", "power_max_iter"),
        _each_columns(
            lambda g, spec: eigenvector_centrality(g, spec.power_tol, spec.power_max_iter),
            _CENTRALITY_REFUSAL,
        ),
    ),
    "distance_encoding": (
        "Distance Encoding", ("d_max",),
        _columns(
            lambda b, spec: distance_encoding(b, spec.d_max),
            "distance encoding needs at least one node",
        ),
    ),
    "graph_encoding": (
        "Graph Encoding", ("k", "sign_mode"),
        _each_columns(
            lambda g, spec: laplacian_encoding_columns(g, spec.k, spec.sign_mode),
            "graph encoding needs at least one node",
        ),
    ),
    "subgraph_extraction": (
        "Subgraph Extraction", ("radius",),
        _each_columns(
            lambda g, spec: subgraph_extraction(g, spec.radius),
            "subgraph extraction needs at least one node",
        ),
    ),
    "extra_node": ("Extra Node", (), lambda b, spec: Transformed.of(b.each(extra_node))),
}

KINDS = tuple(TRANSFORMS)


def apply_transform(spec: TransformSpec, x: Graph | GraphBatch) -> Graph | Transformed:
    """The graph x transformed by spec, or the transform of each graph of a batch.

    A GraphBatch gives its Transformed entries, one per graph, in order:
    the transformed graph, or the IsobenchError that apply_transform on
    that graph alone raises. A Graph runs as a batch of one and gives the
    transformed graph or raises. degree, closeness and distance_encoding
    compute their columns over the batch's disjoint union at once, and
    their images are one batch made from arrays; the other kinds run each
    graph alone through GraphBatch.each.
    """
    out = TRANSFORMS[spec.kind][2](as_batch(x), spec)
    if isinstance(x, GraphBatch):
        return out
    if out.errors[0] is not None:
        raise out.errors[0]
    return out[0]


def all_method_specs(sign_mode: str = "raw") -> tuple[TransformSpec, ...]:
    """One spec per kind, in canonical reporting order."""
    return tuple(
        TransformSpec(kind=kind, sign_mode=sign_mode) if kind == "graph_encoding"
        else TransformSpec(kind=kind)
        for kind in TRANSFORMS
    )
