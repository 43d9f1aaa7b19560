"""Finite labeled graphs, node permutations, and their file formats.

A Graph is an immutable simple undirected graph on nodes 0..n-1 with a
dense float feature matrix of shape (n, d). Two serializations are
supported:

graph6
    The compact 6-bit printable encoding. A length prefix N(n) is one
    byte chr(n + 63) for n <= 62, otherwise '~' followed by three bytes
    holding n in 18 bits big-endian (accepted up to n = 65535). The
    upper triangle of the adjacency matrix is then emitted column by
    column, cell (i, j) with i < j ordered by (j, i), packed six bits
    per byte most significant bit first, zero padded, each byte offset
    by 63. Features are not representable; parsing yields the all-ones
    n x 1 matrix.

edge list
    Line one is "n d", with n at most 65535 and n * d at most 2**24
    (EDGE_LIST_MAX_CELLS). Each following line with exactly two integer
    tokens is an edge "u v". The first line that does not look like an
    edge starts the feature block, which must then hold exactly n rows
    of d finite decimal reals. Written files always include the feature
    block, and feature values are printed with a decimal point so they
    can never be mistaken for edges.
"""

from __future__ import annotations

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
# Largest array, in 8-byte cells, of a batch kernel's run (GraphBatch.runs):
# it keeps a batch's peak memory near that of one call per graph.
BATCH_CELLS = 2**15


@dataclass(frozen=True, eq=False)
class Graph:
    """Immutable simple graph with node features.

    edges are stored canonically: each pair as (u, v) with u < v, the
    whole tuple sorted lexicographically. features is a read-only
    float64 array of shape (n, d) with d >= 1; it defaults to all ones.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()
    features: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise ContractError(f"node count must be a non-negative int, got {self.n!r}")
        seen = set()
        canon = []
        for pair in self.edges:
            u, v = pair
            u, v = int(u), int(v)
            if u == v:
                raise ContractError(f"self-loop at node {u} is not allowed")
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ContractError(f"edge {pair!r} out of range for n={self.n}")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise ContractError(f"duplicate edge {key!r}")
            seen.add(key)
            canon.append(key)
        object.__setattr__(self, "edges", tuple(sorted(canon)))
        feats = self.features
        if feats is None:
            feats = np.ones((self.n, 1), dtype=np.float64)
        object.__setattr__(self, "features", _checked_features(self.n, feats))

    @classmethod
    def _trusted(
        cls,
        n: int,
        edges: tuple[tuple[int, int], ...],
        features: np.ndarray,
        caches: dict | None = None,
    ) -> Graph:
        """A Graph built without the constructor's checks.

        edges must be canonical by construction and features a read-only
        float64 (n, d >= 1) matrix of finite values, as _checked_features
        gives. caches holds structure properties already computed for this n and
        these edges: another graph's __dict__, or an edge_index built
        alongside edges. Its entries that name one are kept; they depend
        only on n and edges, and their arrays are read-only.
        """
        out = object.__new__(cls)
        fields = out.__dict__
        fields.update(n=n, edges=edges, features=features)
        if caches:
            fields.update((name, caches[name]) for name in _STRUCTURE_CACHES if name in caches)
        return out

    def with_features(self, features) -> "Graph":
        """This graph's nodes and edges with a new feature matrix.

        features passes the constructor's shape and finiteness checks
        and is stored as a read-only copy. The edges are taken as they
        are, since they are already canonical, and the cached structure
        properties this graph has computed (neighbors, degrees, edge_set,
        edge_index, adjacency_matrix) are shared with the result.
        """
        return self._trusted(self.n, self.edges, _checked_features(self.n, features), self.__dict__)

    @property
    def d(self) -> int:
        return int(self.features.shape[1])

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor lists in ascending node order."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def edge_index(self) -> np.ndarray:
        """The edges as a read-only (edge_count, 2) intp array, in order."""
        index = np.fromiter(chain.from_iterable(self.edges), np.intp, 2 * len(self.edges))
        index = index.reshape(-1, 2)
        index.setflags(write=False)
        return index

    @cached_property
    def degrees(self) -> np.ndarray:
        deg = np.bincount(self.edge_index.ravel(), minlength=self.n)
        deg.setflags(write=False)
        return deg

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    @cached_property
    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.n, self.n), dtype=np.float64)
        u, v = self.edge_index.T
        a[u, v] = 1.0
        a[v, u] = 1.0
        a.setflags(write=False)
        return a

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edge_set

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.edges == other.edges
            and self.features.shape == other.features.shape
            and bool(np.array_equal(self.features, other.features))
        )

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)}, d={self.d})"


_STRUCTURE_CACHES = ("neighbors", "edge_index", "degrees", "edge_set", "adjacency_matrix")


def _checked_features(n: int, features) -> np.ndarray:
    """A read-only float64 copy of an (n, d >= 1) matrix of finite values."""
    feats = np.array(features, dtype=np.float64, copy=True)
    if feats.ndim != 2 or feats.shape[0] != n or feats.shape[1] < 1:
        raise ContractError(f"features must have shape ({n}, d>=1), got {feats.shape}")
    if feats.size and not np.all(np.isfinite(feats)):
        raise ContractError("features must be finite")
    feats.setflags(write=False)
    return feats


@dataclass(frozen=True, eq=False)
class GraphBatch:
    """The disjoint union of graphs, in list order.

    Node v of graph i is union node offsets[i] + v, and n is the union's
    node count. edges is the union's edge array: a read-only (edges, 2)
    intp array holding each graph's edge_index in turn, shifted by its
    offset. models.forward embeds the graphs of a batch at once, and
    transforms.apply_transform transforms them, in runs where needed.
    """

    graphs: tuple[Graph, ...]

    def __post_init__(self):
        object.__setattr__(self, "graphs", tuple(self.graphs))
        if not self.graphs:
            raise ContractError("a graph batch needs at least one graph")

    @cached_property
    def sizes(self) -> np.ndarray:
        return np.array([g.n for g in self.graphs], dtype=np.intp)

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
        counts = [len(g.edges) for g in self.graphs]
        index = np.concatenate([g.edge_index for g in self.graphs])
        index += np.repeat(self.offsets, counts)[:, None]
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

    def runs(self, cells: Callable[[int, int, int, int], int]) -> Iterator[GraphBatch]:
        """Consecutive runs of the graphs, each within BATCH_CELLS.

        cells(rows, edges, graphs, largest) is the 8-byte cells of a
        kernel's largest array for a run of that many nodes, edges and
        graphs, the largest with `largest` nodes. A graph over the bound
        runs alone, and a batch that fits is its one run.
        """
        start = rows = edges = largest = 0
        for i, g in enumerate(self.graphs):
            grown = (rows + g.n, edges + len(g.edges), i + 1 - start, max(largest, g.n))
            if i > start and cells(*grown) > BATCH_CELLS:
                yield GraphBatch(self.graphs[start:i])
                start, grown = i, (g.n, len(g.edges), 1, g.n)
            rows, edges, _, largest = grown
        yield self if start == 0 else GraphBatch(self.graphs[start:])

    def _width_groups(self) -> Iterator[tuple[list[int], np.ndarray]]:
        """(members, rows) per feature width, ascending: the graphs of that
        width and their union nodes, in order."""
        widths = np.array([g.d for g in self.graphs])
        for d in sorted(set(widths.tolist())):
            yield np.flatnonzero(widths == d).tolist(), np.flatnonzero((widths == d)[self.node_graph])

    def _split(self, members: list[int], block: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """(i, graph i's row slice of block) for each member, read-only;
        block holds the members' rows in order."""
        block.setflags(write=False)
        start = 0
        for i in members:
            stop = start + self.graphs[i].n
            yield i, block[start:stop]
            start = stop

    def with_columns(self, cols: np.ndarray) -> list[Graph]:
        """Each graph with its nodes' rows of cols appended to its features.

        cols holds a row, or a value, per union node. The graphs of one
        feature width share one read-only block, checked for finiteness
        once, and each graph's features are its row slice of that block.
        """
        cols = cols[:, None] if cols.ndim == 1 else cols
        out = [None] * len(self.graphs)
        for members, rows in self._width_groups():
            d = self.graphs[members[0]].d
            block = np.empty((rows.size, d + cols.shape[1]), dtype=np.float64)
            np.concatenate([self.graphs[i].features for i in members], out=block[:, :d])
            block[:, d:] = cols[rows]
            if not np.all(np.isfinite(block)):
                raise ContractError("features must be finite")
            for i, feats in self._split(members, block):
                g = self.graphs[i]
                out[i] = Graph._trusted(g.n, g.edges, feats, g.__dict__)
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
        for g, p in zip(self.graphs, perms):
            if len(p) != g.n:
                raise ContractError(f"permutation length {len(p)} does not match n={g.n}")
        shift = self.offsets[self.node_graph]
        image = np.fromiter(chain.from_iterable(p.mapping for p in perms), np.intp, self.n)
        image += shift
        ends = np.sort(image[self.edges], axis=1)
        ends = ends[np.lexsort((ends[:, 1], ends[:, 0]))]
        ends -= shift[ends[:, 0]][:, None]
        ends.setflags(write=False)
        pairs = list(zip(*ends.T.tolist()))
        features = [None] * len(self.graphs)
        for members, rows in self._width_groups():
            block = np.concatenate([self.graphs[i].features for i in members])
            at = np.empty(self.n, dtype=np.intp)
            at[rows] = np.arange(rows.size)
            moved = np.empty_like(block)
            moved[at[image[rows]]] = block
            for i, feats in self._split(members, moved):
                features[i] = feats
        out = []
        start = 0
        for g, feats in zip(self.graphs, features):
            stop = start + len(g.edges)
            out.append(
                Graph._trusted(g.n, tuple(pairs[start:stop]), feats, {"edge_index": ends[start:stop]})
            )
            start = stop
        return out


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

    def __call__(self, v: int) -> int:
        return self.mapping[v]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.mapping)
        for src, dst in enumerate(self.mapping):
            inv[dst] = src
        return Permutation(tuple(inv))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(n)))

    @staticmethod
    def random(n: int, rng: np.random.Generator) -> "Permutation":
        return Permutation(tuple(rng.permutation(n).tolist()))


def apply_permutation(g: Graph, p: Permutation) -> Graph:
    """Relabel nodes of g by p: node v becomes p(v), features move with it."""
    return GraphBatch((g,)).relabeled((p,))[0]


# ---------------------------------------------------------------------------
# graph6


def _strip_graph6_header(text: str) -> str:
    text = text.strip()
    if text.startswith(GRAPH6_HEADER):
        text = text[len(GRAPH6_HEADER):]
    return text


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 string. Features default to the all-ones column."""
    return decode_graph6([text])[0]


def decode_graph6(texts: Sequence[str], lines: Sequence[int] | None = None) -> list[Graph]:
    """Decode each text as one graph6 graph, in one pass over all of them.

    Each text is stripped and loses a leading ">>graph6<<" as in
    parse_graph6. The byte range is checked over all texts at once, then
    the length prefixes and body sizes of every text. The first bad text
    raises the GraphParseError that parse_graph6 raises for it alone,
    with line set to lines[i] when lines is given. The texts of one node
    count n decode together: np.unpackbits gives their bits, which fill
    the upper triangles of one boolean (graphs, n, n) block column by
    column, one byte per node pair, and np.nonzero reads each graph's
    edges from it already sorted.
    """
    payloads = [_strip_graph6_header(t) for t in texts]
    m = len(payloads)
    joined = "".join(payloads)
    # One code point per character; four trailing zeros let every
    # payload's prefix be read in place.
    codes = np.frombuffer((joined + "\0\0\0\0").encode("utf-32-le"), dtype=np.uint32)
    size = np.fromiter(map(len, payloads), np.int64, m)
    start = np.cumsum(size) - size

    bad = np.flatnonzero((codes[: len(joined)] < 63) | (codes[: len(joined)] > 126))
    owner = np.searchsorted(start, bad, side="right") - 1
    first_bad = size.copy()
    np.minimum.at(first_bad, owner, bad - start[owner])

    def at(k: int) -> np.ndarray:
        """Byte k of each payload as an int, or -1 past its end."""
        return np.where(size > k, codes[start + k].astype(np.int64), -1)

    c0, c1, c2, c3 = at(0), at(1), at(2), at(3)
    long = c0 == 126
    error = np.zeros(m, dtype=np.int8)

    def flag(code: int, mask: np.ndarray) -> None:
        error[(error == 0) & mask] = code

    flag(1, size == 0)
    flag(2, first_bad < size)
    flag(3, long & (c1 == 126))
    flag(4, long & (size < 4))
    n = big = np.where(long, ((c1 - 63) << 12) | ((c2 - 63) << 6) | (c3 - 63), c0 - 63)
    flag(5, n > GRAPH6_MAX_NODES)
    # A payload that has failed a check counts as the null graph from here on.
    n = np.where(error == 0, n, 0)
    body = np.where(long, 4, 1)
    bits = n * (n - 1) // 2
    need = (bits + 5) // 6
    found = size - body
    flag(6, found < need)
    flag(7, found > need)
    last = np.where(error == 0, start + body + need - 1, 0)
    padding = (codes[last].astype(np.int64) - 63) & ((1 << (6 * need - bits)) - 1)
    flag(8, (need > 0) & (padding != 0))

    failed = np.flatnonzero(error)
    if failed.size:
        i = int(failed[0])
        message, offset = {
            1: lambda: ("empty graph6 payload", 0),
            2: lambda: (
                f"byte {int(codes[start[i] + first_bad[i]])} outside graph6 range 63..126",
                first_bad[i],
            ),
            3: lambda: ("8-byte node counts exceed the supported 65535", 0),
            4: lambda: ("truncated long-form node count", size[i]),
            5: lambda: (f"node count {big[i]} exceeds the supported 65535", 0),
            6: lambda: (f"need {need[i]} edge bytes for n={n[i]}, found {found[i]}", size[i]),
            7: lambda: ("trailing data after edge bits", body[i] + need[i]),
            8: lambda: ("non-zero padding bit", body[i] + need[i] - 1),
        }[int(error[i])]()
        raise GraphParseError(
            message, offset=int(offset), line=None if lines is None else lines[i]
        )

    out: list[Graph] = [None] * m
    for count in np.unique(n).tolist():
        members = np.flatnonzero(n == count)
        width = int(need[members[0]])
        at_body = (start[members] + body[members])[:, None] + np.arange(width)
        packed = (codes[at_body] - 63).astype(np.uint8)
        unpacked = np.unpackbits(packed[:, :, None], axis=2)[:, :, 2:]
        bits = unpacked.reshape(len(members), -1)
        # Column v of the upper triangle is graph6's run of v bits for v,
        # so np.nonzero reads each graph's edges in sorted (u, v) order.
        upper = np.zeros((len(members), count, count), dtype=bool)
        for v in range(1, count):
            upper[:, :v, v] = bits[:, v * (v - 1) // 2 : v * (v + 1) // 2]
        graph, u, v = np.nonzero(upper)
        index = np.stack((u, v), axis=1)
        index.setflags(write=False)
        pairs = list(zip(*index.T.tolist()))
        ones = np.ones((count, 1))
        ones.setflags(write=False)
        stops = np.cumsum(np.bincount(graph, minlength=len(members))).tolist()
        begin = 0
        for i, stop in zip(members.tolist(), stops):
            out[i] = Graph._trusted(
                count, tuple(pairs[begin:stop]), ones, {"edge_index": index[begin:stop]}
            )
            begin = stop
    return out


def write_graph6(g: Graph) -> str:
    """Encode structure only; features are dropped by the format."""
    n = g.n
    if n > GRAPH6_MAX_NODES:
        raise UnsupportedSizeError(f"graph6 output is limited to 65535 nodes, got {n}")
    if n <= 62:
        prefix = chr(n + 63)
    else:
        prefix = "~" + chr(((n >> 12) & 63) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    edge_set = g.edge_set
    bits_needed = n * (n - 1) // 2
    out = []
    acc = 0
    filled = 0
    for v in range(1, n):
        for u in range(v):
            acc = (acc << 1) | (1 if (u, v) in edge_set else 0)
            filled += 1
            if filled == 6:
                out.append(chr(acc + 63))
                acc, filled = 0, 0
    if filled:
        acc <<= 6 - filled
        out.append(chr(acc + 63))
    assert len(out) == (bits_needed + 5) // 6
    return prefix + "".join(out)


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
    if n > GRAPH6_MAX_NODES:
        raise GraphParseError(
            f"header node count {n} exceeds the supported {GRAPH6_MAX_NODES}", line=head_no
        )
    if n * d > EDGE_LIST_MAX_CELLS:
        raise GraphParseError(
            f"header declares {n} x {d} feature cells, more than the supported "
            f"{EDGE_LIST_MAX_CELLS}",
            line=head_no,
        )
    body = lines[1:]
    split = 0
    while split < len(body) and _looks_like_edge(body[split][1].split()):
        split += 1
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for no, ln in body[:split]:
        u, v = (int(t) for t in ln.split())
        if u == v:
            raise GraphParseError(f"self-loop at node {u}", line=no)
        if not (0 <= u < n and 0 <= v < n):
            bad = u if not 0 <= u < n else v
            raise GraphParseError(f"index {bad} out of range for n={n}", line=no)
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphParseError(f"duplicate edge {key}", line=no)
        seen.add(key)
        edges.append(key)
    edges.sort()
    feature_lines = body[split:]
    if not feature_lines:
        ones = np.ones((n, d), dtype=np.float64)
        ones.setflags(write=False)
        return Graph._trusted(n, tuple(edges), ones)
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
    return Graph._trusted(n, tuple(edges), rows)


def write_edge_list(g: Graph) -> str:
    """Canonical edge-list text: sorted edges, then all n feature rows."""
    lines = [f"{g.n} {g.d}"]
    for u, v in g.edges:
        lines.append(f"{u} {v}")
    for row in g.features:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"
