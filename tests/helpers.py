"""Independent reference implementations and shared test strategies.

Everything here is written as plainly as possible, without reusing the
package's internals, so that agreement between a test and the library
means two separate routes reached the same answer.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque

import numpy as np
from hypothesis import strategies as st

from isobench import ContractError, Graph, NumericError, UnsupportedSizeError
from isobench.graphs import GRAPH6_MAX_NODES
from isobench.quant import quantize_matrix


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
