"""Finite labeled graphs, node permutations, and their file formats.

A Graph is an immutable simple undirected graph on nodes 0..n-1 with a
dense float feature matrix of shape (n, d). Its edges have one form,
the canonical (edge_count, 2) intp array edge_index, whose row order
_canonical_rows states. Two serializations are supported:

graph6
    The compact 6-bit printable encoding. A length prefix N(n) is one
    byte chr(n + 63) for n <= 62, otherwise '~' followed by three bytes
    holding n in 18 bits big-endian (accepted up to n = 65535). The
    upper triangle of the adjacency matrix then follows column by
    column: cell (u, v) with u < v is bit v(v-1)/2 + u (_graph6_bit), and
    the bits are packed six per byte, most significant first, zero
    padded, each byte offset by 63. The reader checks each payload's
    prefix and body size in turn (_graph6_layout) and unpacks the bodies
    of one node count together; the writer sets the bits of the edges
    by position in one array pass. Features are not representable;
    parsing yields the all-ones n x 1 matrix.

edge list
    Line one is "n d", with n at most 65535 and n * d at most 2**24
    (EDGE_LIST_MAX_CELLS). Each following line with exactly two integer
    tokens is an edge "u v". The first line that does not look like an
    edge starts the feature block, which must then hold exactly n rows
    of d finite decimal reals. Written files always include the feature
    block, and feature values are printed with a decimal point so they
    can never be mistaken for edges. The writer refuses a graph over the
    two size limits, as the reader refuses its header
    (_edge_list_size_fault).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ContractError, GraphParseError, IsobenchError, UnsupportedSizeError

GRAPH6_HEADER = ">>graph6<<"
GRAPH6_MAX_NODES = 65535
# Largest n * d an edge-list header may declare: 2**24 float64 cells are
# 128 MiB, checked before the feature matrix is allocated.
EDGE_LIST_MAX_CELLS = 2**24
# Largest array, in 8-byte cells, of a batch kernel's run (GraphBatch.runs,
# which cuts the runs from cumulative sums of a batch's count arrays): it
# keeps a batch's peak memory near that of one call per graph.
BATCH_CELLS = 2**15


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple graph with node features.

    Graph(n, edges=(), features=None) takes the edges as pairs of node
    indices in any order. They are stored once, as edge_index: a
    read-only (edge_count, 2) intp array with u < v in each row and the
    rows sorted lexicographically. features is a read-only float64 array
    of shape (n, d) with d >= 1; it defaults to all ones. neighbors and
    degrees are computed from edge_index on first use and cached;
    adjacency_matrix builds the dense n x n matrix on each use.
    """

    n: int
    edge_index: np.ndarray
    features: np.ndarray

    def __init__(self, n: int, edges=(), features=None):
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise ContractError(f"node count must be a non-negative int, got {n!r}")
        seen: set[tuple[int, int]] = set()
        for edge in edges:
            try:
                u, v = map(operator.index, edge)
            except (TypeError, ValueError):
                raise ContractError(f"edge {edge!r} is not a pair of int node indices") from None
            seen.add(_edge_key(n, u, v, seen))
        if features is None:
            features = np.ones((n, 1), dtype=np.float64)
        features = _checked_features(n, features)
        self.__dict__.update(n=n, edge_index=_edge_array(seen), features=features)

    @classmethod
    def _trusted(
        cls,
        n: int,
        edge_index: np.ndarray,
        features: np.ndarray,
        caches: dict | None = None,
    ) -> Graph:
        """A Graph built without the constructor's checks.

        edge_index must be canonical and read-only, as _canonical_rows gives,
        and features a read-only float64 (n, d >= 1) matrix of finite
        values, as _checked_features gives. caches is another graph's
        __dict__ with this n and these edges: its structure properties
        already computed are kept, since they depend only on n and the
        edges, and their arrays are read-only.
        """
        out = object.__new__(cls)
        fields = out.__dict__
        fields.update(n=n, edge_index=edge_index, features=features)
        if caches:
            for name in _STRUCTURE_CACHES:
                if name in caches:
                    fields[name] = caches[name]
        return out

    def with_features(self, features) -> "Graph":
        """This graph's nodes and edges with a new feature matrix.

        features passes the constructor's shape and finiteness checks
        and is stored as a read-only copy. The edge array is shared, and
        so are the cached structure properties this graph has computed
        (neighbors, degrees); adjacency_matrix is not cached.
        """
        return self._trusted(
            self.n, self.edge_index, _checked_features(self.n, features), self.__dict__
        )

    @property
    def d(self) -> int:
        return int(self.features.shape[1])

    @property
    def edge_count(self) -> int:
        return len(self.edge_index)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists in ascending node order."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edge_index.tolist():
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.edge_index.ravel(), minlength=self.n)
        deg.setflags(write=False)
        return deg

    @property
    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.float64)
        u, v = self.edge_index.T
        a[u, v] = 1.0
        a[v, u] = 1.0
        a.setflags(write=False)
        return a

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and bool(np.array_equal(self.edge_index, other.edge_index))
            and self.features.shape == other.features.shape
            and bool(np.array_equal(self.features, other.features))
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count}, d={self.d})"


_STRUCTURE_CACHES = ("neighbors", "degrees")


def _edge_key(n: int, u: int, v: int, seen: set[tuple[int, int]]) -> tuple[int, int]:
    """The key (min, max) of edge u v, which must join two distinct nodes
    of 0..n-1 and not be in seen; ContractError names the first rule broken."""
    if u == v:
        raise ContractError(f"self-loop at node {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ContractError(f"index {u if not 0 <= u < n else v} out of range for n={n}")
    key = (min(u, v), max(u, v))
    if key in seen:
        raise ContractError(f"duplicate edge {key}")
    return key


def _edge_array(keys: set[tuple[int, int]]) -> np.ndarray:
    """The canonical edge array of a set of edge keys."""
    index = np.fromiter(chain.from_iterable(keys), np.intp, 2 * len(keys))
    return _canonical_rows(index.reshape(-1, 2))


def _canonical_rows(rows: np.ndarray) -> np.ndarray:
    """rows, (m, 2) intp with u < v in each, lexsorted and read-only: the canonical order."""
    rows = rows[np.lexsort((rows[:, 1], rows[:, 0]))]
    rows.setflags(write=False)
    return rows


def _checked_features(n: int, features) -> np.ndarray:
    """A read-only float64 copy of an (n, d >= 1) matrix of finite values."""
    feats = np.array(features, dtype=np.float64, copy=True)
    if feats.ndim != 2 or feats.shape[0] != n or feats.shape[1] < 1:
        raise ContractError(f"features must have shape ({n}, d>=1), got {feats.shape}")
    if feats.size and not np.all(np.isfinite(feats)):
        raise ContractError("features must be finite")
    feats.setflags(write=False)
    return feats


def _counts(values: list[int]) -> np.ndarray:
    """values as a read-only intp array: a batch's runs share its count arrays."""
    out = np.array(values, dtype=np.intp)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class GraphBatch:
    """The disjoint union of graphs, in list order.

    Node v of graph i is union node offsets[i] + v, and n is the union's
    node count. edges is the union's edge array: a read-only (edges, 2)
    intp array holding each graph's edge_index in turn, shifted by its
    offset. sizes, edge_counts and widths hold each graph's node count,
    edge count and feature width; each is built by one walk over the
    graphs, and runs, checks and width groups read them, not the graphs.
    models.forward embeds the graphs of a batch at once, and
    transforms.apply_transform transforms them, in runs where needed.
    """

    graphs: tuple[Graph, ...]

    def __post_init__(self):
        object.__setattr__(self, "graphs", tuple(self.graphs))
        if not self.graphs:
            raise ContractError("a graph batch needs at least one graph")

    @cached_property
    def sizes(self) -> np.ndarray:
        """Each graph's node count."""
        return _counts([g.n for g in self.graphs])

    @cached_property
    def edge_counts(self) -> np.ndarray:
        """Each graph's edge count."""
        return _counts([len(g.edge_index) for g in self.graphs])

    @cached_property
    def widths(self) -> np.ndarray:
        """Each graph's feature width d."""
        return _counts([g.features.shape[1] for g in self.graphs])

    @cached_property
    def offsets(self) -> np.ndarray:
        return np.cumsum(self.sizes) - self.sizes

    @cached_property
    def n(self) -> int:
        return int(self.sizes.sum())

    @cached_property
    def node_graph(self) -> np.ndarray:
        """The graph index of each union node."""
        return np.repeat(np.arange(len(self.graphs)), self.sizes)

    @cached_property
    def edges(self) -> np.ndarray:
        index = np.concatenate([g.edge_index for g in self.graphs])
        index += np.repeat(self.offsets, self.edge_counts)[:, None]
        index.setflags(write=False)
        return index

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.edges.ravel(), minlength=self.n)
        deg.setflags(write=False)
        return deg

    @cached_property
    def features(self) -> np.ndarray:
        return np.concatenate([g.features for g in self.graphs])

    @cached_property
    def lone(self) -> np.ndarray:
        """The rows of 1-node graphs."""
        return self.offsets[self.sizes == 1]

    def graph_sums(self, values: np.ndarray) -> np.ndarray:
        """Row i: +0.0 plus the rows of graph i, added in ascending node order.

        Each graph's rows fill one row of a zero-padded (graphs, 1 + max
        n, width) block after a leading zero, and np.add.accumulate sums
        each along axis 1 one element after another. The running sum
        starts at +0.0 and so is never -0.0, so the trailing +0.0 pads
        leave it unchanged.
        """
        graph = self.node_graph
        position = np.arange(self.n) - self.offsets[graph]
        block = np.zeros((len(self.graphs), 1 + int(self.sizes.max()), values.shape[1]))
        block[graph, 1 + position] = values
        return np.add.accumulate(block, axis=1, out=block)[:, -1].copy()

    @cached_property
    def slots(self) -> tuple[np.ndarray, np.ndarray, list[tuple[int, np.ndarray]], np.ndarray]:
        """Union degrees, nodes by descending degree, the degree slots and a hub's tail.

        Slot j is (count_j, nbrs): the count_j nodes of degree > j lead
        the order, and nbrs holds the j-th smallest neighbour of each of
        them in that order. Adding slot 0, 1, ... in turn adds each
        node's neighbours in the order a per-node loop adds them.

        Counts never grow with j, so the slots whose count is 1 form a
        final run, and they all belong to row 0 of the order, the one
        node of top degree. When that run is two or more slots long and
        starts after slot 0, it is left out of the slots and the tail
        holds its neighbours in slot order, for models._fold to add in
        one step; otherwise the tail is empty.
        """
        ends = self.edges
        node = np.concatenate([ends[:, 0], ends[:, 1]])
        nbr = np.concatenate([ends[:, 1], ends[:, 0]])
        deg = self.degrees
        by_node = np.lexsort((nbr, node))
        node, nbr = node[by_node], nbr[by_node]
        rank = np.arange(node.size) - (np.cumsum(deg) - deg)[node]
        order = np.argsort(-deg, kind="stable")
        row = np.empty(self.n, dtype=np.intp)
        row[order] = np.arange(self.n)
        nbr = nbr[np.lexsort((row[node], rank))]
        slot_counts = np.bincount(rank).tolist()
        run = slot_counts.count(1)
        if run < 2 or run == len(slot_counts):
            run = 0
        slots = []
        start = 0
        for count in slot_counts[: len(slot_counts) - run]:
            slots.append((count, nbr[start : start + count]))
            start += count
        return deg, order, slots, nbr[start:]

    def each(self, fn: Callable[[Graph], object]) -> list:
        """fn(g) for each graph alone, in order, or the IsobenchError it raised;
        any other exception propagates. Every batch call keeps this contract."""
        out = []
        for g in self.graphs:
            try:
                out.append(fn(g))
            except IsobenchError as exc:
                out.append(exc)
        return out

    def runs(self, cells: Callable[..., int | np.ndarray]) -> Iterator[GraphBatch]:
        """Consecutive runs of the graphs, each within BATCH_CELLS.

        cells(rows, edges, graphs, largest) is the 8-byte cells of a
        kernel's largest array for a run of that many nodes, edges and
        graphs, the largest with `largest` nodes. It is called with int
        arrays as well as ints, so it must be elementwise over them, and
        it must be non-decreasing in every argument. A batch that fits is
        its one run, checked by one call on the batch's totals. Otherwise,
        from a run's first graph on, one call over cumulative sums gives
        the cells of the run ended at each later graph, and the first over
        the bound is the cut; a graph over the bound runs alone. The sums
        span a window: the whole batch for the first run, then twice the
        last run, doubled while it holds no cut, so cutting takes time
        linear in the graphs. Each run shares slices of this batch's count
        arrays.
        """
        sizes, counts = self.sizes, self.edge_counts
        total = len(sizes)
        if cells(self.n, int(counts.sum()), total, int(sizes.max())) <= BATCH_CELLS:
            yield self
            return
        rows = np.concatenate(([0], np.cumsum(sizes)))
        edges = np.concatenate(([0], np.cumsum(counts)))
        start, window = 0, total
        while start < total:
            stop = min(start + window, total)
            over = cells(
                rows[start + 1 : stop + 1] - rows[start],
                edges[start + 1 : stop + 1] - edges[start],
                np.arange(1, stop - start + 1),
                np.maximum.accumulate(sizes[start:stop]),
            ) > BATCH_CELLS
            first = int(over.argmax())
            if not over[first] and stop < total:
                window *= 2
                continue
            cut = start + max(first, 1) if over[first] else stop
            yield self._part(start, cut)
            start, window = cut, 2 * (cut - start)

    def _part(self, start: int, stop: int) -> GraphBatch:
        """Graphs start..stop-1 as a batch holding slices of the count
        arrays this batch has built; all of them are this batch."""
        if stop - start == len(self.graphs):
            return self
        part = GraphBatch(self.graphs[start:stop])
        for name in ("sizes", "edge_counts", "widths"):
            if name in self.__dict__:
                part.__dict__[name] = self.__dict__[name][start:stop]
        return part

    def _width_groups(self) -> Iterator[tuple[int, list[int], np.ndarray]]:
        """(d, members, rows) per feature width d, ascending: the graphs of
        that width and their union nodes, in order."""
        widths = self.widths
        for d in sorted(set(widths.tolist())):
            members = widths == d
            yield d, np.flatnonzero(members).tolist(), np.flatnonzero(members[self.node_graph])

    def _split(self, members: list[int], block: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """(i, graph i's row slice of block) for each member, read-only;
        block holds the members' rows in order."""
        block.setflags(write=False)
        stops = np.cumsum(self.sizes[members]).tolist()
        for i, start, stop in zip(members, [0] + stops, stops):
            yield i, block[start:stop]

    def with_columns(self, cols: np.ndarray) -> list[Graph]:
        """Each graph with its nodes' rows of cols appended to its features.

        cols holds a row, or a value, per union node. The graphs of one
        feature width share one read-only block, checked for finiteness
        once, and each graph's features are its row slice of that block.
        """
        cols = cols[:, None] if cols.ndim == 1 else cols
        out = [None] * len(self.graphs)
        for d, members, rows in self._width_groups():
            block = np.empty((rows.size, d + cols.shape[1]), dtype=np.float64)
            np.concatenate([self.graphs[i].features for i in members], out=block[:, :d])
            block[:, d:] = cols[rows]
            if not np.all(np.isfinite(block)):
                raise ContractError("features must be finite")
            for i, feats in self._split(members, block):
                g = self.graphs[i]
                out[i] = Graph._trusted(g.n, g.edge_index, feats, g.__dict__)
        return out

    def relabeled(self, perms: Sequence[Permutation]) -> list[Graph]:
        """Each graph relabeled by its permutation p: node v becomes p(v),
        and its feature row moves with it.

        The union image of every node maps the union edges at once. Each
        row's two ends are sorted and the rows lexsorted; a graph's nodes
        form one union range, so its rows stay together in graph order and
        come out canonical. The features of each width move as one block.
        """
        if len(perms) != len(self.graphs):
            raise ContractError(f"{len(perms)} permutations for {len(self.graphs)} graphs")
        for n, p in zip(self.sizes.tolist(), perms):
            if len(p) != n:
                raise ContractError(f"permutation length {len(p)} does not match n={n}")
        shift = self.offsets[self.node_graph]
        image = np.fromiter(chain.from_iterable(p.mapping for p in perms), np.intp, self.n)
        image += shift
        ends = np.sort(image[self.edges], axis=1)
        ends = ends[np.lexsort((ends[:, 1], ends[:, 0]))]
        ends -= shift[ends[:, 0]][:, None]
        ends.setflags(write=False)
        features = [None] * len(self.graphs)
        for _, members, rows in self._width_groups():
            block = np.concatenate([self.graphs[i].features for i in members])
            at = np.empty(self.n, dtype=np.intp)
            at[rows] = np.arange(rows.size)
            moved = np.empty_like(block)
            moved[at[image[rows]]] = block
            for i, feats in self._split(members, moved):
                features[i] = feats
        parts = np.split(ends, np.cumsum(self.edge_counts)[:-1])
        return [Graph._trusted(g.n, e, f) for g, e, f in zip(self.graphs, parts, features)]


def as_batch(x: Graph | GraphBatch) -> GraphBatch:
    """x if it is a GraphBatch, else the batch of x alone."""
    return x if isinstance(x, GraphBatch) else GraphBatch((x,))


@dataclass(frozen=True)
class Permutation:
    """A bijection of 0..n-1, stored as the image tuple."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(n)):
            raise ContractError("mapping is not a bijection of 0..n-1")
        object.__setattr__(self, "mapping", tuple(map(int, self.mapping)))

    def __len__(self) -> int:
        return len(self.mapping)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for src, dst in enumerate(self.mapping):
            inv[dst] = src
        return Permutation(tuple(inv))

    @staticmethod
    def random(n: int, rng: np.random.Generator) -> "Permutation":
        return Permutation(tuple(rng.permutation(n).tolist()))


def apply_permutation(g: Graph, p: Permutation) -> Graph:
    """Relabel nodes of g by p: node v becomes p(v), features move with it."""
    return GraphBatch((g,)).relabeled((p,))[0]


# ---------------------------------------------------------------------------
# graph6


# Any character outside graph6's byte range 63..126, '?' to '~'.
_GRAPH6_BAD_BYTE = re.compile(r"[^?-~]")


def _strip_graph6_header(text: str) -> str:
    text = text.strip()
    if text.startswith(GRAPH6_HEADER):
        text = text[len(GRAPH6_HEADER):]
    return text


def _graph6_bit(u, v):
    """The bit of cell (u, v), u < v, in a graph6 body: the cells run column
    by column, so _graph6_bit(0, n) is the n(n-1)/2 bits of n nodes. u and
    v are ints or intp arrays."""
    return v * (v - 1) // 2 + u


def _graph6_prefix(n: int) -> str:
    """N(n): chr(n + 63) for n <= 62, else '~' and n in three 6-bit bytes."""
    if n <= 62:
        return chr(n + 63)
    return "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))


def _graph6_layout(payload: str, bad: int | None) -> tuple[int, int, int]:
    """(n, body, need) of one stripped graph6 payload: its node count, the
    offset of its edge bytes and their number.

    bad is the offset of the payload's first byte outside 63..126, or
    None when it has none. GraphParseError names the first fault, with
    its byte offset, checked in this order: empty payload, byte out of
    range, 8-byte node count, truncated long-form count, node count over
    65535, too few edge bytes, trailing bytes, and non-zero padding.
    """
    size = len(payload)
    if size == 0:
        raise GraphParseError("empty graph6 payload", offset=0)
    if bad is not None:
        raise GraphParseError(f"byte {ord(payload[bad])} outside graph6 range 63..126", offset=bad)
    if payload[0] != "~":
        n, body = ord(payload[0]) - 63, 1
    elif payload[1:2] == "~":
        raise GraphParseError("8-byte node counts exceed the supported 65535", offset=0)
    elif size < 4:
        raise GraphParseError("truncated long-form node count", offset=size)
    else:
        high, mid, low = (ord(c) - 63 for c in payload[1:4])
        n, body = (high << 12) | (mid << 6) | low, 4
        if n > GRAPH6_MAX_NODES:
            raise GraphParseError(f"node count {n} exceeds the supported 65535", offset=0)
    bits = _graph6_bit(0, n)
    need = (bits + 5) // 6
    found = size - body
    if found < need:
        raise GraphParseError(f"need {need} edge bytes for n={n}, found {found}", offset=size)
    if found > need:
        raise GraphParseError("trailing data after edge bits", offset=body + need)
    if need and (ord(payload[-1]) - 63) & ((1 << (6 * need - bits)) - 1):
        raise GraphParseError("non-zero padding bit", offset=size - 1)
    return n, body, need


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string. Features default to the all-ones column."""
    return decode_graph6([text])[0]


def decode_graph6(texts: Sequence[str], lines: Sequence[int] | None = None) -> list[Graph]:
    """Decode each text as one graph6 graph, in one pass over all of them.

    Each text is stripped and loses a leading ">>graph6<<" as in
    parse_graph6. One search over all texts finds the first byte outside
    63..126; then each text's prefix and body size are checked in turn
    (_graph6_layout), and only the text holding that byte sees it. The
    first bad text raises the GraphParseError that parse_graph6 raises
    for it alone, with line set to lines[i] when lines is given. The
    texts of one node count n decode together, in chunks whose boolean
    (graphs, n, n) block holds at most 8 * BATCH_CELLS bytes
    (_graph6_block); a graph whose n x n block alone is larger decodes in
    column slabs of at most that many bits (_graph6_slabs).
    """
    payloads = [_strip_graph6_header(t) for t in texts]
    joined = "".join(payloads)
    found = _GRAPH6_BAD_BYTE.search(joined)
    bad = found.start() if found else len(joined)
    layouts = []
    start = 0
    for i, payload in enumerate(payloads):
        stop = start + len(payload)
        try:
            n, body, need = _graph6_layout(payload, bad - start if start <= bad < stop else None)
        except GraphParseError as exc:
            line = None if lines is None else lines[i]
            raise GraphParseError(exc.message, offset=exc.offset, line=line) from None
        layouts.append((n, start + body, need))
        start = stop
    # Every byte is now known to lie in 63..126.
    codes = np.frombuffer(joined.encode("ascii"), dtype=np.uint8) - 63
    layout = np.fromiter(chain.from_iterable(layouts), np.intp, 3 * len(layouts)).reshape(-1, 3)

    out: list[Graph] = [None] * len(payloads)
    # Not np.unique, whose first call imports numpy.ma.
    for count in sorted(set(layout[:, 0].tolist())):
        members = np.flatnonzero(layout[:, 0] == count)
        need = int(layout[members[0], 2])
        # Graphs per chunk whose (graphs, n, n) block fits 8 * BATCH_CELLS
        # bytes; with none, each graph decodes alone in column slabs.
        per = 8 * BATCH_CELLS // max(count * count, 1)
        starts = layout[members, 1]
        if per:
            edges = chain.from_iterable(
                _graph6_block(codes, starts[i : i + per], count, need)
                for i in range(0, len(starts), per)
            )
        else:
            edges = (_graph6_slabs(codes, start, count) for start in starts.tolist())
        ones = np.ones((count, 1))
        ones.setflags(write=False)
        for i, index in zip(members.tolist(), edges):
            out[i] = Graph._trusted(count, index, ones)
    return out


def _graph6_block(codes: np.ndarray, starts: np.ndarray, n: int, need: int) -> list[np.ndarray]:
    """The canonical edge arrays of the n-node graph6 bodies of need bytes
    at offsets starts of codes, decoded together.

    np.unpackbits gives their bits, which fill the upper triangles of one
    boolean (graphs, n, n) block column by column, one slice of
    _graph6_bit positions per column, and np.nonzero reads each graph's
    edges from it already sorted.
    """
    packed = codes[starts[:, None] + np.arange(need)]
    bits = np.unpackbits(packed[:, :, None], axis=2)[:, :, 2:].reshape(len(starts), -1)
    upper = np.zeros((len(starts), n, n), dtype=bool)
    for v in range(1, n):
        upper[:, :v, v] = bits[:, _graph6_bit(0, v) : _graph6_bit(0, v + 1)]
    graph, u, v = np.nonzero(upper)
    index = np.stack((u, v), axis=1)
    index.setflags(write=False)
    return np.split(index, np.cumsum(np.bincount(graph, minlength=len(starts))[:-1]))


def _graph6_slabs(codes: np.ndarray, start: int, n: int) -> np.ndarray:
    """The canonical edge array of one n-node graph6 body at offset start
    of codes, decoded in slabs of consecutive columns.

    Each slab spans at most 8 * BATCH_CELLS bits and unpacks only the body
    bytes that hold them. Its set bits give their columns v by a search
    over the columns' first bits, and rows u as offsets from them; the
    rows, found column by column, are then put in canonical order.
    """
    first = _graph6_bit(0, np.arange(n + 1))
    parts = []
    lo = 0
    while lo < n:
        # No column reaches the bound: column v holds v < 65536 bits.
        hi = int(np.searchsorted(first, first[lo] + 8 * BATCH_CELLS, side="right")) - 1
        b0, b1 = int(first[lo]), int(first[hi])
        body = codes[start + b0 // 6 : start + (b1 + 5) // 6]
        bits = np.unpackbits(body[:, None], axis=1)[:, 2:].ravel()[b0 % 6 : b0 % 6 + b1 - b0]
        pos = b0 + np.flatnonzero(bits)
        v = np.searchsorted(first, pos, side="right") - 1
        parts.append(np.stack((pos - first[v], v), axis=1))
        lo = hi
    return _canonical_rows(np.concatenate(parts))


def write_graph6(g: Graph) -> str:
    """Encode structure only; features are dropped by the format.

    Each edge sets its bit (_graph6_bit) in the zeroed body in one array
    pass, so the time grows with the output, not with the node pairs.
    """
    n = g.n
    if n > GRAPH6_MAX_NODES:
        raise UnsupportedSizeError(f"graph6 output is limited to 65535 nodes, got {n}")
    body = np.zeros((_graph6_bit(0, n) + 5) // 6, dtype=np.uint8)
    bit = _graph6_bit(g.edge_index[:, 0], g.edge_index[:, 1])
    np.bitwise_or.at(body, bit // 6, (32 >> (bit % 6)).astype(np.uint8))
    body += 63
    return _graph6_prefix(n) + body.tobytes().decode("ascii")


# ---------------------------------------------------------------------------
# edge list


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _looks_like_edge(tokens: list[str]) -> bool:
    return len(tokens) == 2 and _is_int(tokens[0]) and _is_int(tokens[1])


def _edge_list_size_fault(n: int, d: int) -> str | None:
    """Why an edge-list header "n d" is over the format's size limits, or
    None: n at most GRAPH6_MAX_NODES and n * d at most EDGE_LIST_MAX_CELLS.
    The reader refuses such a header and the writer such a graph."""
    if n > GRAPH6_MAX_NODES:
        return f"header node count {n} exceeds the supported {GRAPH6_MAX_NODES}"
    if n * d > EDGE_LIST_MAX_CELLS:
        return (
            f"header declares {n} x {d} feature cells, more than the supported "
            f"{EDGE_LIST_MAX_CELLS}"
        )
    return None


def parse_edge_list(text: str) -> Graph:
    """Parse one edge-list block. Errors carry 1-based line numbers."""
    lines = [(i + 1, ln.strip()) for i, ln in enumerate(text.splitlines())]
    lines = [(no, ln) for no, ln in lines if ln]
    if not lines:
        raise GraphParseError("empty edge-list text", line=1)
    head_no, head = lines[0]
    head_tokens = head.split()
    if len(head_tokens) != 2:
        raise GraphParseError("header must be 'n d'", line=head_no)
    try:
        n, d = int(head_tokens[0]), int(head_tokens[1])
    except ValueError:
        raise GraphParseError("header must hold two integers 'n d'", line=head_no) from None
    if n < 0 or d < 1:
        raise GraphParseError(f"header requires n >= 0 and d >= 1, got n={n} d={d}", line=head_no)
    fault = _edge_list_size_fault(n, d)
    if fault:
        raise GraphParseError(fault, line=head_no)
    body = lines[1:]
    split = 0
    while split < len(body) and _looks_like_edge(body[split][1].split()):
        split += 1
    seen: set[tuple[int, int]] = set()
    for no, ln in body[:split]:
        u, v = (int(t) for t in ln.split())
        try:
            seen.add(_edge_key(n, u, v, seen))
        except ContractError as exc:
            raise GraphParseError(str(exc), line=no) from None
    edges = _edge_array(seen)
    feature_lines = body[split:]
    if not feature_lines:
        ones = np.ones((n, d), dtype=np.float64)
        ones.setflags(write=False)
        return Graph._trusted(n, edges, ones)
    if len(feature_lines) != n:
        no, first = feature_lines[0]
        found = len(feature_lines)
        if all(_is_int(t) for t in first.split()):
            # Integers alone may be a broken edge line as well as a feature row.
            raise GraphParseError(
                f"line {no} is neither an edge 'u v' nor the first of {n} feature rows "
                f"(found {found} row{'' if found == 1 else 's'})",
                line=no,
            )
        raise GraphParseError(
            f"feature block must hold exactly {n} rows, found {found}", line=no
        )
    rows = np.empty((n, d), dtype=np.float64)
    for r, (no, ln) in enumerate(feature_lines):
        tokens = ln.split()
        if len(tokens) != d:
            raise GraphParseError(f"expected {d} feature values, found {len(tokens)}", line=no)
        try:
            vals = [float(t) for t in tokens]
        except ValueError:
            raise GraphParseError("feature value is not a real number", line=no) from None
        if not all(np.isfinite(vals)):
            raise GraphParseError("feature value is not finite", line=no)
        rows[r] = vals
    rows.setflags(write=False)
    # The line loop has checked every edge and feature value.
    return Graph._trusted(n, edges, rows)


def write_edge_list(g: Graph) -> str:
    """Canonical edge-list text: sorted edges, then all n feature rows.

    A graph whose header parse_edge_list would refuse raises
    UnsupportedSizeError with the reader's message.
    """
    fault = _edge_list_size_fault(g.n, g.d)
    if fault:
        raise UnsupportedSizeError(f"edge-list output: {fault}")
    lines = [f"{g.n} {g.d}"]
    for u, v in g.edge_index.tolist():
        lines.append(f"{u} {v}")
    for row in g.features:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"
