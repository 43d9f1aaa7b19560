"""Node centrality measures used as structural feature augmentations.

Conventions are pinned so that downstream quantized comparisons are
reproducible:

degree       raw neighbor count.
closeness    composite closeness for possibly disconnected graphs:
             ((r - 1) / (n - 1)) * ((r - 1) / total_distance), where r
             counts nodes reachable from v including v itself and
             total_distance sums finite shortest-path lengths from v.
             Isolated nodes (and the n = 1 graph) score 0.
betweenness  shortest-path betweenness, unnormalized, endpoints
             excluded, each unordered pair counted once.
eigenvector  principal adjacency eigenvector. Iterates x <- x + A x
             with Euclidean renormalization from the all-ones start;
             the added identity shift keeps bipartite spectra from
             oscillating while leaving eigenvectors unchanged.
             Converged when successive iterates differ by less than
             tol in max norm, otherwise a ConvergenceError reports the
             final iterate gap.

Closeness, distance_encoding and the distance profiles of
wl.are_isomorphic read breadth-first levels that ball_growth computes
for every graph of a batch at once. Each node holds
one bit per source of its own graph, 64 sources to a uint64 word (a
multi-source BFS: Then et al., "The More the Merrier", VLDB 2014), and
one level ORs each node's words with its neighbours' words, so after
level L a node's words hold the sources within L hops. The set bits per
level give exact integers: how many nodes lie at each distance, and from
those r and the total distance. A node of an n-node graph keeps
ceil(n / 64) words, so a graph takes about n^2 / 8 bytes of words, and
a level touches only the graphs whose balls grew at the level before.
A batch runs in GraphBatch.runs, so it needs the memory of its largest run.

Betweenness runs one breadth-first search per source node on plain
Python lists, since indexing a numpy array element by element makes a
numpy scalar per read, and reduces each distance row at once: O(n) memory.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import ContractError, ConvergenceError
from .graphs import Graph, GraphBatch, as_batch

_M1, _M2, _M4, _H01 = (
    np.uint64(c)
    for c in (0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F, 0x0101010101010101)
)


def degree_centrality(x: Graph | GraphBatch) -> np.ndarray:
    """Neighbor counts of a graph's nodes, or of a batch's union nodes."""
    return x.degrees.astype(np.float64)


def _bit_counts(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a (rows, w) uint64 array, as int64.

    The SWAR popcount: 2-, 4- and 8-bit partial counts, then the byte
    counts summed into the top byte by one multiply.
    """
    c = words - ((words >> np.uint64(1)) & _M1)
    c = (c & _M2) + ((c >> np.uint64(2)) & _M2)
    c = (c + (c >> np.uint64(4))) & _M4
    return ((c * _H01) >> np.uint64(56)).sum(axis=1, dtype=np.int64)


def _words(rows, edges, graphs, largest):
    """ball_growth's 8-byte cells for GraphBatch.runs: per node and per edge
    end, up to ceil(largest / 64) words of sources. Elementwise over int
    arrays."""
    return (rows + 2 * edges) * -(-largest // 64)


def ball_growth(b: GraphBatch, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Breadth-first levels from every node of every graph of b at once.

    Returns, per union node v, three integer arrays: reach, the number
    of nodes v reaches, v included; total, the sum of their distances
    from v; and shells, a (b.n, depth) array whose column L - 1 counts
    the nodes at distance exactly L.

    The graphs of one word count w = ceil(n / 64) run together. Source s
    of a graph is bit s % 64 of word s // 64 of each of its nodes; level
    L ORs every node's words with those of its neighbours (a CSR gather
    and np.bitwise_or.reduceat), and the growth of each node's set-bit
    count is its number of nodes at distance L. A graph whose balls did
    not grow at a level is finished and leaves the arrays. A batch over
    graphs.BATCH_CELLS words runs one of its runs after another.
    """
    parts = [_ball_growth_run(run, depth) for run in b.runs(_words)]
    if len(parts) == 1:
        return parts[0]
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def _ball_growth_run(b: GraphBatch, depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ball_growth on one run of GraphBatch.runs(_words)."""
    reach = np.ones(b.n, dtype=np.int64)
    total = np.zeros(b.n, dtype=np.int64)
    shells = np.zeros((b.n, depth), dtype=np.int64)
    node_graph = b.node_graph
    words_of = (b.sizes + 63) // 64
    u, v = b.edges[:, 0], b.edges[:, 1]
    # Only nodes with a neighbour can reach another node.
    linked = b.degrees > 0
    for w in sorted(set(words_of[b.sizes > 1].tolist())):
        # The rows: the linked nodes of the graphs with w words, in order.
        member = linked & (words_of == w)[node_graph]
        rows = np.flatnonzero(member)
        row_of = np.cumsum(member) - 1
        inside = member[u]
        source = row_of[np.concatenate([u[inside], v[inside]])]
        nbr = row_of[np.concatenate([v[inside], u[inside]])]
        nbr = nbr[np.argsort(source, kind="stable")]
        counts = np.bincount(source, minlength=rows.size)
        graph = node_graph[rows]
        position = rows - b.offsets[graph]
        words = np.zeros((rows.size, w), dtype=np.uint64)
        words[np.arange(rows.size), position // 64] = np.left_shift(
            np.uint64(1), (position % 64).astype(np.uint64)
        )
        size = np.ones(rows.size, dtype=np.int64)
        level = 0
        while rows.size:
            level += 1
            # Every row has a neighbour, so its run of nbr starts here.
            starts = np.cumsum(counts) - counts
            words |= np.bitwise_or.reduceat(words[nbr], starts, axis=0)
            grown = _bit_counts(words)
            added = grown - size
            size = grown
            reach[rows] = size
            total[rows] += level * added
            if level <= depth:
                shells[rows, level - 1] = added
            growing = np.zeros(len(b.sizes), dtype=bool)
            growing[graph[added > 0]] = True
            keep = growing[graph]
            if keep.all():
                continue
            # Drop the finished graphs' rows and their neighbour entries,
            # renumbering the rows that stay.
            nbr = (np.cumsum(keep) - 1)[nbr[np.repeat(keep, counts)]]
            rows, graph, counts = rows[keep], graph[keep], counts[keep]
            words, size = words[keep], size[keep]
    return reach, total, shells


def closeness_centrality(x: Graph | GraphBatch) -> np.ndarray:
    """Composite closeness of a graph's nodes, or of a batch's union nodes.

    From ball_growth's integers r and total, the float expression
    ((r - 1) / (n - 1)) * ((r - 1) / total) of the module docstring;
    nodes with r = 1 score 0.
    """
    b = as_batch(x)
    reach, total, _ = ball_growth(b, 0)
    out = np.zeros(b.n, dtype=np.float64)
    scored = reach > 1
    others = reach[scored] - 1
    out[scored] = (others / (b.sizes[b.node_graph[scored]] - 1)) * (others / total[scored])
    return out


def betweenness_centrality(g: Graph) -> np.ndarray:
    """Brandes accumulation; the final halving makes pairs unordered."""
    n = g.n
    neighbors = g.neighbors
    score = [0.0] * n
    for s in range(n):
        stack: list[int] = []
        preds: list[list[int]] = [[] for _ in range(n)]
        sigma = [0.0] * n
        sigma[s] = 1.0
        dist = [-1] * n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            stack.append(v)
            step = dist[v] + 1
            for u in neighbors[v]:
                if dist[u] < 0:
                    dist[u] = step
                    queue.append(u)
                if dist[u] == step:
                    sigma[u] += sigma[v]
                    preds[u].append(v)
        delta = [0.0] * n
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != s:
                score[w] += delta[w]
    return np.array(score, dtype=np.float64) / 2.0


def eigenvector_centrality(
    g: Graph, tol: float = 1e-8, max_iter: int = 1000
) -> np.ndarray:
    if g.n < 1:
        raise ContractError("eigenvector centrality needs at least one node")
    a = g.adjacency_matrix
    x = np.ones(g.n, dtype=np.float64)
    x /= np.linalg.norm(x)
    gap = np.inf
    for _ in range(max_iter):
        y = x + a @ x
        y /= np.linalg.norm(y)
        gap = float(np.max(np.abs(y - x)))
        x = y
        if gap < tol:
            return x
    raise ConvergenceError(
        f"eigenvector iteration still moving by {gap:.3e} after {max_iter} steps"
    )
