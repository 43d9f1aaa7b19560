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

Closeness, betweenness and the distance-based transforms run one
breadth-first search per source node on plain Python lists, since
indexing a numpy array element by element makes a numpy scalar per
read. Each caller reduces a distance row as soon as it gets it, so the
extra memory is O(n); no n x n distance matrix is ever built.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .errors import ContractError, ConvergenceError
from .graphs import Graph


def bfs_distances(neighbors: tuple[tuple[int, ...], ...], source: int) -> list[int]:
    """Hop distances from source as a plain list; -1 marks unreachable nodes."""
    dist = [-1] * len(neighbors)
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        step = dist[v] + 1
        for u in neighbors[v]:
            if dist[u] < 0:
                dist[u] = step
                queue.append(u)
    return dist


def degree_centrality(g: Graph) -> np.ndarray:
    return g.degrees.astype(np.float64)


def closeness_centrality(g: Graph) -> np.ndarray:
    n = g.n
    out = np.zeros(n, dtype=np.float64)
    if n <= 1:
        return out
    neighbors = g.neighbors
    for v in range(n):
        dist = bfs_distances(neighbors, v)
        missing = dist.count(-1)
        r = n - missing
        total = sum(dist) + missing
        if r <= 1 or total == 0:
            continue
        out[v] = ((r - 1) / (n - 1)) * ((r - 1) / total)
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
