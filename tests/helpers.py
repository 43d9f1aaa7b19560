"""Independent reference implementations and shared test strategies.

Everything here is written as plainly as possible, without reusing the
package's internals, so that agreement between a test and the library
means two separate routes reached the same answer. The one exception is
reference_are_isomorphic, the isomorphism search before orbit pruning,
which shares the package's refinement so that it checks the pruning.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque

import numpy as np
from hypothesis import strategies as st

import isobench.wl as wl
from isobench import ContractError, Graph, GraphBatch, NumericError, UnsupportedSizeError
from isobench.centrality import ball_growth
from isobench.errors import IsobenchError, ResourceLimitError
from isobench.evaluate import ReportRow, cluster_embeddings
from isobench.graphs import GRAPH6_MAX_NODES, Permutation, apply_permutation
from isobench.models import ARCHS, check_graph, forward, init_model
from isobench.quant import quantize_matrix
from isobench.transforms import apply_transform
from isobench.wl import (
    DEFAULT_EPS,
    DEFAULT_TUPLE_BUDGET,
    IsoVerdict,
    check_tuple_refinement,
    wl1_signature,
    wlk_signature,
)


# ---------------------------------------------------------------------------
# hypothesis strategies


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8, feature_dims: int = 0):
    """Random small graphs; feature_dims > 0 draws non-trivial features."""
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = tuple(p for p, keep in zip(pairs, mask) if keep)
    if feature_dims:
        d = draw(st.integers(1, feature_dims))
        vals = draw(
            st.lists(
                st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False, width=32),
                min_size=n * d,
                max_size=n * d,
            )
        )
        feats = np.asarray(vals, dtype=np.float64).reshape(n, d)
        return Graph(n, edges, feats)
    return Graph(n, edges)


@st.composite
def permutations_for(draw, n: int):
    return tuple(draw(st.permutations(range(n)))) if n else ()


def random_cubic(n: int, seed: int) -> Graph:
    """Uniform simple 3-regular graph: the pairing model with rejection."""
    rng = np.random.Generator(np.random.PCG64(seed))
    while True:
        stubs = rng.permutation(np.repeat(np.arange(n), 3)).reshape(-1, 2)
        edges = {(int(min(a, b)), int(max(a, b))) for a, b in stubs}
        if len(edges) == len(stubs) and all(u != v for u, v in edges):
            return Graph(n, tuple(edges))


# ---------------------------------------------------------------------------
# brute-force isomorphism for tiny graphs


def edge_pairs(g: Graph) -> list[tuple[int, int]]:
    """The rows of g.edge_index as (u, v) int pairs, in order."""
    return [(u, v) for u, v in g.edge_index.tolist()]


def brute_force_isomorphic(g: Graph, h: Graph, eps: float = 1e-6) -> bool:
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if g.d != h.d:
        return False
    qg = quantize_matrix(g.features, eps)
    qh = quantize_matrix(h.features, eps)
    h_edges = set(edge_pairs(h))
    for perm in itertools.permutations(range(g.n)):
        if all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in h_edges for u, v in edge_pairs(g)
        ) and all(tuple(qg[v]) == tuple(qh[perm[v]]) for v in range(g.n)):
            return True
    return False


# ---------------------------------------------------------------------------
# the isomorphism search without orbit pruning


def reference_are_isomorphic(
    g: Graph,
    h: Graph,
    *,
    structure_only: bool = False,
    max_nodes: int = 64,
) -> IsoVerdict:
    """wl.are_isomorphic as it was before orbit pruning, kept verbatim.

    It shares the package's refinement, so agreement checks the pruning
    only: the pruned search must give the same verdict and the same
    witness whenever this one decides. Its steps count only the
    individualise-and-refine steps of the search of g against h.
    """
    if g.n != h.n:
        return IsoVerdict(False)
    if max(g.n, h.n) > max_nodes:
        raise ResourceLimitError(
            f"isomorphism search supports up to {max_nodes} nodes, got {g.n}"
        )
    if g.edge_count != h.edge_count:
        return IsoVerdict(False)
    n = g.n
    if n == 0:
        return IsoVerdict(True, Permutation(()))
    if not structure_only and g.d != h.d:
        raise ContractError(f"feature widths differ ({g.d} vs {h.d})")
    # An isomorphism preserves degrees: differing sequences need no refinement.
    if not np.array_equal(np.sort(g.degrees), np.sort(h.degrees)):
        return IsoVerdict(False)
    if structure_only:
        init_g = init_h = [wl._digest(wl._INIT)] * n
    else:
        init_g, init_h = wl._initial_colors(g, DEFAULT_EPS), wl._initial_colors(h, DEFAULT_EPS)
    colors_g, colors_h = wl._refine(g, init_g)[0], wl._refine(h, init_h)[0]
    if Counter(colors_g) != Counter(colors_h):
        return IsoVerdict(False)
    # An isomorphism preserves distances, which 1-WL does not see.
    profiles = ball_growth(GraphBatch((g, h)), n - 1)[2].reshape(2, n, n - 1).tolist()
    if sorted(profiles[0]) != sorted(profiles[1]):
        return IsoVerdict(False)
    steps = 0

    def branches(colors_g, colors_h):
        nonlocal steps
        sizes = Counter(colors_g)
        v = next(v for v in range(n) if sizes[colors_g[v]] > 1)
        child_g = wl._refine(g, wl._individualise(colors_g, v))[0]
        want = Counter(child_g)
        for w in range(n):
            if colors_h[w] != colors_g[v]:
                continue
            steps += 1
            if steps > wl.ISO_SEARCH_BUDGET:
                raise ResourceLimitError(
                    f"isomorphism search exceeded its budget of {wl.ISO_SEARCH_BUDGET} "
                    "individualise-and-refine steps"
                )
            child_h = wl._refine(h, wl._individualise(colors_h, w))[0]
            if Counter(child_h) == want:
                yield child_g, child_h

    # A stack of branch iterators, not recursion: the depth (< n) never
    # meets Python's recursion limit, whatever max_nodes allows.
    stack = [iter([(colors_g, colors_h)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
        elif len(set(node[0])) < n:
            stack.append(branches(*node))
        else:
            colors_g, colors_h = node
            at = {c: w for w, c in enumerate(colors_h)}
            witness = Permutation(tuple(at[c] for c in colors_g))
            if np.array_equal(apply_permutation(g, witness).edge_index, h.edge_index):
                return IsoVerdict(True, witness, steps)
    return IsoVerdict(False, steps=steps)


# ---------------------------------------------------------------------------
# betweenness by explicit path counting (not dependency accumulation)


def path_counting_betweenness(g: Graph) -> np.ndarray:
    def bfs(source):
        dist = {source: 0}
        order = [source]
        queue = deque([source])
        while queue:
            v = queue.popleft()
            for u in g.neighbors[v]:
                if u not in dist:
                    dist[u] = dist[v] + 1
                    order.append(u)
                    queue.append(u)
        counts = {v: 0 for v in dist}
        counts[source] = 1
        for v in order:
            for u in g.neighbors[v]:
                if dist.get(u, -1) == dist[v] + 1:
                    counts[u] += counts[v]
        return dist, counts

    per_source = [bfs(s) for s in range(g.n)]
    score = np.zeros(g.n, dtype=np.float64)
    for s in range(g.n):
        dist_s, sigma_s = per_source[s]
        for t in range(s + 1, g.n):
            if t not in dist_s:
                continue
            dist_t, sigma_t = per_source[t]
            total = sigma_s[t]
            for v in range(g.n):
                if v in (s, t) or v not in dist_s or v not in dist_t:
                    continue
                if dist_s[v] + dist_t[v] == dist_s[t]:
                    score[v] += sigma_s[v] * sigma_t[v] / total
    return score


# ---------------------------------------------------------------------------
# per-source shortest-path measures on numpy arrays (the earlier package
# code, kept as byte-level references for the list-based versions)


def _bfs_distances(g: Graph, source: int) -> np.ndarray:
    dist = np.full(g.n, -1, dtype=np.int64)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in g.neighbors[v]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def reference_closeness(g: Graph) -> np.ndarray:
    out = np.zeros(g.n, dtype=np.float64)
    if g.n <= 1:
        return out
    for v in range(g.n):
        dist = _bfs_distances(g, v)
        reachable = dist >= 0
        r = int(reachable.sum())
        total = int(dist[reachable].sum())
        if r <= 1 or total == 0:
            continue
        out[v] = ((r - 1) / (g.n - 1)) * ((r - 1) / total)
    return out


def reference_betweenness(g: Graph) -> np.ndarray:
    score = np.zeros(g.n, dtype=np.float64)
    for s in range(g.n):
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(g.n)]
        sigma = np.zeros(g.n, dtype=np.float64)
        sigma[s] = 1.0
        dist = np.full(g.n, -1, dtype=np.int64)
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for u in g.neighbors[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
                if dist[u] == dist[v] + 1:
                    sigma[u] += sigma[v]
                    preds[u].append(v)
        delta = np.zeros(g.n, dtype=np.float64)
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != s:
                score[w] += delta[w]
    return score / 2.0


def reference_distance_columns(g: Graph, d_max: int) -> np.ndarray:
    """The columns distance_encoding appends."""
    cols = np.zeros((g.n, d_max + 1), dtype=np.float64)
    for v in range(g.n):
        dist = _bfs_distances(g, v)
        for u in range(g.n):
            d = dist[u]
            if d < 1:
                continue
            if d <= d_max:
                cols[v, d - 1] += 1.0
            else:
                cols[v, d_max] += 1.0
    return cols


def reference_subgraph_columns(g: Graph, radius: int) -> np.ndarray:
    """The columns subgraph_extraction appends."""
    cols = np.zeros((g.n, 2), dtype=np.float64)
    for v in range(g.n):
        dist = _bfs_distances(g, v)
        inside = {u for u in range(g.n) if 0 <= dist[u] <= radius}
        edge_total = sum(1 for u, w in edge_pairs(g) if u in inside and w in inside)
        cols[v, 0] = float(len(inside))
        cols[v, 1] = float(edge_total)
    return cols


# ---------------------------------------------------------------------------
# strongly regular parameters by a walk over the node pairs


def reference_srg_parameters(g: Graph) -> tuple[int, int, int, int] | str:
    """(n, degree, lambda, mu) as srg_parameters gives it, else its error text."""
    degs = set(int(x) for x in g.degrees)
    if len(degs) != 1:
        return f"not regular: degrees {sorted(degs)}"
    edges = set(edge_pairs(g))
    nbrs = [set(a) for a in g.neighbors]
    lams, mus = set(), set()
    for u in range(g.n):
        for v in range(u + 1, g.n):
            (lams if (u, v) in edges else mus).add(len(nbrs[u] & nbrs[v]))
    if len(lams) != 1 or len(mus) != 1:
        return f"not strongly regular: lambda set {sorted(lams)}, mu set {sorted(mus)}"
    return g.n, degs.pop(), lams.pop(), mus.pop()


# ---------------------------------------------------------------------------
# naive tuple refinement (shared color table over both graphs)


def naive_tuple_refinement_splits(g: Graph, h: Graph, k: int, eps: float = 1e-6) -> bool:
    """True when k-tuple refinement separates the two graphs."""

    def atomic(graph: Graph):
        q = quantize_matrix(graph.features, eps)
        edges = set(edge_pairs(graph))
        out = {}
        for tup in itertools.product(range(graph.n), repeat=k):
            eq = tuple(a == b for a in tup for b in tup)
            adj = tuple(
                (min(a, b), max(a, b)) in edges for a in tup for b in tup if a != b
            )
            feats = tuple(tuple(int(x) for x in q[v]) for v in tup)
            out[tup] = (eq, adj, feats)
        return out

    def intern(raw_g, raw_h):
        table: dict = {}
        cg = {t: table.setdefault(v, len(table)) for t, v in raw_g.items()}
        ch = {t: table.setdefault(v, len(table)) for t, v in raw_h.items()}
        return cg, ch, len(table)

    def refine(graph: Graph, colors):
        new = {}
        for tup in colors:
            subs = []
            for i in range(k):
                sub = tuple(
                    sorted(colors[tup[:i] + (u,) + tup[i + 1 :]] for u in range(graph.n))
                )
                subs.append(sub)
            new[tup] = (colors[tup], tuple(subs))
        return new

    cg, ch, classes = intern(atomic(g), atomic(h))
    for _ in range(g.n**k + h.n**k):
        cg, ch, new_classes = intern(refine(g, cg), refine(h, ch))
        if new_classes == classes:
            break
        classes = new_classes
    return Counter(cg.values()) != Counter(ch.values())


# ---------------------------------------------------------------------------
# canonical form for tiny graphs (exact isomorphism-class key)


def canonical_key(g: Graph) -> bytes:
    """Lexicographically smallest adjacency encoding over all relabelings."""
    best = None
    edge_set = set(edge_pairs(g))
    for perm in itertools.permutations(range(g.n)):
        bits = tuple(
            1 if (min(perm[u], perm[v]), max(perm[u], perm[v])) in edge_set else 0
            for u in range(g.n)
            for v in range(u + 1, g.n)
        )
        if best is None or bits < best:
            best = bits
    return bytes([g.n]) + bytes(best or ())


# ---------------------------------------------------------------------------
# graph6 by a walk over the node pairs (reference for the array writer)


def reference_graph6(g: Graph) -> str:
    """graph6 text of g, built one node pair at a time, column by column."""
    n = g.n
    if n > GRAPH6_MAX_NODES:
        raise UnsupportedSizeError(f"graph6 output is limited to 65535 nodes, got {n}")
    if n <= 62:
        prefix = chr(n + 63)
    else:
        prefix = "~" + chr(((n >> 12) & 63) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    edge_set = set(edge_pairs(g))
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
# structural images from edge tuples through the checking constructor
# (reference for the array-built virtual_node and extra_node)


def reference_virtual_node(g: Graph) -> Graph:
    """g plus node n joined to every node, with an all-ones feature row."""
    hub = g.n
    edges = edge_pairs(g) + [(v, hub) for v in range(g.n)]
    feats = np.vstack([g.features, np.ones((1, g.d))])
    return Graph(g.n + 1, edges, feats)


def reference_extra_node(g: Graph) -> Graph:
    """g with edge i, in canonical order, subdivided by node n + i."""
    edges = []
    for i, (u, v) in enumerate(edge_pairs(g)):
        mid = g.n + i
        edges.append((u, mid))
        edges.append((mid, v))
    feats = np.vstack([g.features, np.ones((g.edge_count, g.d))])
    return Graph(g.n + g.edge_count, tuple(edges), feats)


# ---------------------------------------------------------------------------
# per-node message passing (reference for the vectorised models)


def _reference_mlp(params, x: np.ndarray) -> np.ndarray:
    return np.tanh(np.tanh(x @ params.w1 + params.b1) @ params.w2 + params.b2)


def _reference_gin_states(m, g: Graph) -> np.ndarray:
    h = g.features
    for layer, eps in zip(m.weights, m.epsilons):
        agg = np.empty((g.n, h.shape[1]), dtype=np.float64)
        for v in range(g.n):
            acc = (1.0 + eps) * h[v]
            for u in g.neighbors[v]:
                acc = acc + h[u]
            agg[v] = acc
        h = _reference_mlp(layer, agg)
    return h


def _reference_pna_states(m, g: Graph) -> np.ndarray:
    h = g.features
    deg = g.degrees
    log_deg = np.zeros(g.n, dtype=np.float64)
    for v in range(g.n):
        log_deg[v] = math.log1p(float(deg[v]))
    delta = 0.0
    for v in range(g.n):
        delta += log_deg[v]
    delta /= g.n
    for layer in m.weights:
        width = h.shape[1]
        block = np.zeros((g.n, width * 16), dtype=np.float64)
        for v in range(g.n):
            own = h[v]
            if deg[v] == 0:
                aggs = np.zeros((5, width), dtype=np.float64)
                scalers = (1.0, 1.0, 1.0)
            else:
                total = np.zeros(width, dtype=np.float64)
                for u in g.neighbors[v]:
                    total = total + h[u]
                mean = total / deg[v]
                stacked = h[list(g.neighbors[v])]
                high = np.max(stacked, axis=0)
                low = np.min(stacked, axis=0)
                var = np.zeros(width, dtype=np.float64)
                for u in g.neighbors[v]:
                    diff = h[u] - mean
                    var = var + diff * diff
                std = np.sqrt(var / deg[v])
                aggs = np.stack([mean, total, high, low, std])
                scalers = (1.0, log_deg[v] / delta, delta / log_deg[v])
            parts = [own]
            for s in scalers:
                for a in range(5):
                    parts.append(aggs[a] * s)
            block[v] = np.concatenate(parts)
        h = _reference_mlp(layer, block)
    return h


def reference_forward(m, g: Graph) -> np.ndarray:
    """Embedding from per-node loops that add neighbours in ascending index.

    Mirrors isobench.models.forward operation for operation, one node at
    a time: each neighbour sum starts from the node's own term (gin) or
    from zero (pna) and adds neighbours in ascending order; the readout
    adds node states to a zero vector in ascending order.
    """
    if m.arch == "gin":
        states = _reference_gin_states(m, g)
    elif m.arch == "pna":
        states = _reference_pna_states(m, g)
    else:
        states = _reference_mlp(m.weights[0], g.features)
    readout = np.zeros(states.shape[1], dtype=np.float64)
    for v in range(g.n):
        readout = readout + states[v]
    if m.arch == "ds":
        readout = _reference_mlp(m.weights[1], readout[None, :])[0]
    return readout


# ---------------------------------------------------------------------------
# single linkage over every pair of rows (reference for cluster_embeddings)


def reference_cluster(vectors, eps: float) -> list[int]:
    """Single-linkage labels from comparing every pair of distinct rows.

    Rows are grouped by np.unique(axis=0), whose float equality
    isobench.evaluate.cluster_embeddings keeps; each distinct row is then
    compared with every later one by max|a - b| <= eps, and labels number
    the classes in order of first appearance. O(m^2) in the number of
    distinct rows.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    if vectors.shape[0] == 0:
        return []
    uniq, inverse = np.unique(vectors, axis=0, return_inverse=True)
    parent = list(range(len(uniq)))

    def root(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for i in range(len(uniq) - 1):
        dist = np.max(np.abs(uniq[i + 1 :] - uniq[i]), axis=1)
        for j in np.nonzero(dist <= eps)[0]:
            a, b = root(i), root(i + 1 + int(j))
            parent[max(a, b)] = min(a, b)
    relabel: dict[int, int] = {}
    return [relabel.setdefault(root(int(r)), len(relabel)) for r in inverse]


# ---------------------------------------------------------------------------
# batch runs by a walk over the graphs (the earlier package code, kept as a
# reference for GraphBatch.runs' cumulative sums)


def reference_runs(sizes, edge_counts, cells, bound: int) -> list[tuple[int, int]]:
    """(start, stop) of each run of graphs with these node and edge counts.

    A graph joins the open run while cells(rows, edges, graphs, largest),
    called with ints for the run grown by it, stays within bound; otherwise
    it opens the next run. A run's first graph always joins, so a graph
    over the bound runs alone.
    """
    cuts = []
    start = rows = edges = largest = 0
    for i, (n, m) in enumerate(zip(sizes, edge_counts)):
        grown = (rows + n, edges + m, i + 1 - start, max(largest, n))
        if i > start and cells(*grown) > bound:
            cuts.append((start, i))
            start, grown = i, (n, m, 1, n)
        rows, edges, _, largest = grown
    cuts.append((start, len(sizes)))
    return cuts


# ---------------------------------------------------------------------------
# one cell by a walk over its pairs (the earlier package code, kept as a
# reference for evaluate_pairs' index arrays)


def _fill(cache: dict, keyed, run) -> None:
    """Give cache an entry for each key of the (key, graph) items that it
    lacks, from one run(GraphBatch) call over those graphs in first-seen order."""
    fresh: dict = {}
    for key, g in keyed:
        if key not in cache:
            fresh.setdefault(key, g)
    if fresh:
        cache.update(zip(fresh, run(GraphBatch(list(fresh.values()))), strict=True))


def _sift(rows, notes: list[str]) -> list[tuple]:
    """The (index, pair, left, right) rows whose two values are results; a
    row holding an IsobenchError is noted by its left value's error, else
    its right one's, and dropped."""
    kept = []
    for index, pair, left, right in rows:
        error = left if isinstance(left, IsobenchError) else right
        if isinstance(error, IsobenchError):
            notes.append(f"pair {index} ({pair.origin}): {error}")
        else:
            kept.append((index, pair, left, right))
    return kept


def reference_evaluate_pairs(
    ds,
    spec,
    embedder,
    *,
    cluster_eps: float = 1e-5,
    quant_eps: float = DEFAULT_EPS,
    model_seed: int = 0,
    kwl_budget: int = DEFAULT_TUPLE_BUDGET,
    origin: str | None = None,
) -> ReportRow:
    """One cell, with `seconds` 0.0: per-pair generators over id-keyed dicts.

    Each distinct input graph is transformed, and each distinct
    transformed graph of the pairs whose two transforms succeeded is
    embedded, in first-seen order, left before right, pair by pair. A
    pair is excluded by its left graph's error, else its right one's,
    transform notes before embed notes.
    """
    pairs = ds.pairs if origin is None else tuple(p for p in ds.pairs if p.origin == origin)
    transformed: dict = {}
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
    if params is not None:

        def embed(b):
            out = b.each(lambda g: check_graph(params, g))
            fit = [g for g, e in zip(b.graphs, out) if not isinstance(e, IsobenchError)]
            if fit:
                rows = iter(forward(params, GraphBatch(fit)))
                out = [e if isinstance(e, IsobenchError) else next(rows) for e in out]
            return out

    elif callable(embedder):
        embed = lambda b: b.each(embedder)
    elif embedder == "wl1":
        embed = lambda b: b.each(lambda g: bytes.fromhex(wl1_signature(g, quant_eps).digest))
    elif embedder == "wl2":
        # A wl2 digest is the wl1 digest of a graph that passes the tuple guards.
        def embed(b):
            out = b.each(lambda g: check_tuple_refinement(g, 2, kwl_budget))
            digest = lambda g: bytes.fromhex(wl1_signature(g, quant_eps).digest)
            return [
                e if isinstance(e, IsobenchError) else digest(g) for g, e in zip(b.graphs, out)
            ]

    else:
        embed = lambda b: b.each(
            lambda g: bytes.fromhex(wlk_signature(g, 3, quant_eps, kwl_budget).digest)
        )
    embedded: dict = {}
    _fill(embedded, ((id(g), g) for row in survivors for g in row[2:]), embed)
    included = _sift(
        ((i, p, embedded[id(a)], embedded[id(b)]) for i, p, a, b in survivors), notes
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
        fp += pair.isomorphic and not same
        fn += not pair.isomorphic and same
    name = embedder if isinstance(embedder, str) else getattr(embedder, "__name__", "custom")
    return ReportRow(
        method=spec.kind,
        embedder=name,
        ecc=len(set(labels)),
        fn=fn,
        fp=fp,
        pairs=len(included),
        excluded=len(pairs) - len(included),
        seconds=0.0,
        origin=origin,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# cyclic Jacobi with separate column and row updates (the earlier package
# code, kept as a byte-level reference for the row-pair update)


def _reference_max_offdiag(a: np.ndarray) -> float:
    if a.shape[0] < 2:
        return 0.0
    mask = ~np.eye(a.shape[0], dtype=bool)
    return float(np.max(np.abs(a[mask])))


def reference_jacobi_eigh(
    a: np.ndarray, tol: float = 1e-10, max_sweeps: int = 100
) -> tuple[np.ndarray, np.ndarray]:
    a = np.array(a, dtype=np.float64, copy=True)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ContractError(f"expected a square matrix, got shape {a.shape}")
    if n and not np.allclose(a, a.T, atol=1e-12):
        raise ContractError("matrix is not symmetric")
    vecs = np.eye(n, dtype=np.float64)
    converged = n < 2
    for _ in range(max_sweeps):
        if _reference_max_offdiag(a) <= tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if abs(apq) <= 1e-300:
                    continue
                theta = float((a[q, q] - a[p, p]) / (2.0 * apq))
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                vcol_p = vecs[:, p].copy()
                vcol_q = vecs[:, q].copy()
                vecs[:, p] = c * vcol_p - s * vcol_q
                vecs[:, q] = s * vcol_p + c * vcol_q
    else:
        converged = _reference_max_offdiag(a) <= tol
    if not converged:
        raise NumericError(
            f"Jacobi sweeps left off-diagonal mass {_reference_max_offdiag(a):.3e} above {tol}"
        )
    values = np.diag(a).copy()
    order = np.argsort(values, kind="stable")
    return values[order], vecs[:, order]
