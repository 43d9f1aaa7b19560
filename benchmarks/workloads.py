"""Seeded inputs and grid settings of the benchmark workloads.

Every workload is one graph file, drawn here from a numpy PCG64 generator
seeded with the run's seed, plus the `isobench evaluate` settings it is run
with. This module never imports isobench: the program sees only the file.

The sizes are chosen so that one pass takes a few seconds on one core. A
run then fits several fresh-process passes, and reports their medians.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

Edges = list[tuple[int, int]]
GraphSpec = tuple[int, Edges]

ALL_TRANSFORMS = (
    "base",
    "virtual_node",
    "degree",
    "closeness",
    "betweenness",
    "eigenvector",
    "distance_encoding",
    "graph_encoding:sign=first_nonzero_positive",
    "subgraph_extraction",
    "extra_node",
)


def _gnp_edges(rng: np.random.Generator, n: int, p: float) -> Edges:
    """G(n, p): one uniform draw per node pair, in (u, v) row-major order."""
    us, vs = np.triu_indices(n, 1)
    keep = rng.random(us.size) < p
    return list(zip(us[keep].tolist(), vs[keep].tolist()))


def _gnm_edges(rng: np.random.Generator, n: int, p: float) -> Edges:
    """G(n, M) with M = round(p * n(n-1)/2), the mean edge count of G(n, p).

    A fixed edge count keeps the work of a pass the same for every seed.
    """
    us, vs = np.triu_indices(n, 1)
    pick = np.sort(rng.choice(us.size, size=round(p * us.size), replace=False))
    return list(zip(us[pick].tolist(), vs[pick].tolist()))


def _degree_sequence(n: int, edges: Edges) -> list[int]:
    ends = np.array(edges, dtype=np.int64).reshape(-1)
    return sorted(np.bincount(ends, minlength=n).tolist())


def _degrees_differ(n: int, left: Edges, right: Edges) -> bool:
    return _degree_sequence(n, left) != _degree_sequence(n, right)


def _not_isomorphic(n: int, left: Edges, right: Edges) -> bool:
    if _degrees_differ(n, left, right):
        return True
    import networkx as nx

    def build(edges: Edges) -> "nx.Graph":
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(edges)
        return g

    return not nx.is_isomorphic(build(left), build(right))


def _random_pairs(
    rng: np.random.Generator,
    sizes: tuple[int, ...],
    draw: Callable[[np.random.Generator, int], Edges],
    differ: Callable[[int, Edges, Edges], bool],
) -> list[GraphSpec]:
    """One pair of same-size random graphs per entry of `sizes`. The right
    side is redrawn until `differ` proves the pair non-isomorphic, so the
    non-isomorphic label every pair gets holds."""
    graphs: list[GraphSpec] = []
    for n in sizes:
        left = draw(rng, n)
        right = draw(rng, n)
        while not differ(n, left, right):
            right = draw(rng, n)
        graphs += [(n, left), (n, right)]
    return graphs


def _random_cubic(rng: np.random.Generator, n: int) -> Edges:
    """Uniform simple 3-regular graph by the pairing model with rejection."""
    while True:
        stubs = rng.permutation(np.repeat(np.arange(n), 3)).reshape(-1, 2)
        edges = sorted((int(min(a, b)), int(max(a, b))) for a, b in stubs)
        if all(u != v for u, v in edges) and len(set(edges)) == len(edges):
            return edges


def edge_list_text(graphs: list[GraphSpec]) -> str:
    """Edge-list blocks with an explicit all-ones feature column."""
    blocks = []
    for n, edges in graphs:
        lines = [f"{n} 1"] + [f"{u} {v}" for u, v in edges] + ["1.0"] * n
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


def graph6_text(graphs: list[GraphSpec]) -> str:
    """One graph6 line per graph (n <= 62): upper triangle by columns."""
    lines = []
    for n, edges in graphs:
        bits = [0] * (n * (n - 1) // 2)
        for u, v in edges:
            bits[v * (v - 1) // 2 + u] = 1
        bits += [0] * (-len(bits) % 6)
        body = "".join(
            chr(63 + int("".join(map(str, bits[i : i + 6])), 2))
            for i in range(0, len(bits), 6)
        )
        lines.append(chr(63 + n) + body)
    return "\n".join(lines) + "\n"


# `isobench evaluate` samples its relabeled controls with --seed-data. It
# stays at the CLI default, so the controls copy the same positions of the
# input for every run seed, and every seed does the same amount of work.
SEED_DATA = 0


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a generated file and the grid run over it.

    A pass runs what `isobench evaluate --input hard_pairs` (if `library`)
    `--input <file> --augment <augment>` with the given transform and
    embedder tokens would run, at the CLI's default seeds and tolerances.
    """

    name: str
    why: str
    input_file: str
    library: bool
    augment: int
    transforms: tuple[str, ...]
    embedders: tuple[str, ...]
    draw: Callable[[np.random.Generator], list[GraphSpec]]

    def settings(self) -> dict:
        return {
            "workload": self.name,
            "input_file": self.input_file,
            "library": self.library,
            "augment": self.augment,
            "seed_data": SEED_DATA,
            "transforms": list(self.transforms),
            "embedders": list(self.embedders),
        }

    def generate(self, seed: int) -> tuple[str, str]:
        """(file text, input digest) for one seed. The digest covers the
        text and every setting the pass runs with."""
        graphs = self.draw(np.random.Generator(np.random.PCG64(seed)))
        text = graph6_text(graphs) if self.input_file.endswith(".g6") else edge_list_text(graphs)
        h = hashlib.blake2b(digest_size=16)
        h.update(json.dumps(self.settings(), sort_keys=True).encode())
        h.update(text.encode("ascii"))
        return text, h.hexdigest()


GRID_ER_SIZES = (15, 20)
MODELS_LARGE_SIZES = (80, 120)
MANY_SMALL_SIZES = tuple(8 + i % 7 for i in range(1200))
# Random 3-regular pairs of one size are 1-WL-equal, so the exact label
# check has to search them.
CUBIC_SIZES = (12,) * 16

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid_er",
            why="the paper's grid, scaled down: hard pairs, G(n,0.2)-sized pairs and "
            "controls under all 10 transforms x wl1/wl2/gin/pna/ds; 2-WL and Jacobi dominate",
            input_file="er_pairs.el",
            library=True,
            augment=len(GRID_ER_SIZES),
            transforms=ALL_TRANSFORMS,
            embedders=("wl1", "wl2", "gin", "pna", "ds"),
            draw=lambda rng: _random_pairs(
                rng, GRID_ER_SIZES, lambda r, n: _gnm_edges(r, n, 0.2), _degrees_differ
            ),
        ),
        Workload(
            name="models_large",
            why="sparse G(n,6/n)-sized pairs with n=80..120 under 5 cheap transforms x "
            "gin/pna/ds; message passing is almost all the time, no k-WL or Jacobi",
            input_file="sparse_pairs.el",
            library=False,
            augment=len(MODELS_LARGE_SIZES),
            transforms=("base", "virtual_node", "degree", "eigenvector", "extra_node"),
            embedders=("gin", "pna", "ds"),
            draw=lambda rng: _random_pairs(
                rng, MODELS_LARGE_SIZES, lambda r, n: _gnm_edges(r, n, 6.0 / n), _degrees_differ
            ),
        ),
        Workload(
            name="many_small",
            why="a graph6 file of 1200 small G(n,0.3) pairs and 16 1-WL-equal cubic pairs, "
            "degree/closeness x ds; clustering and label verification dominate",
            input_file="small_pairs.g6",
            library=False,
            augment=len(MANY_SMALL_SIZES),
            transforms=("degree", "closeness"),
            embedders=("ds",),
            draw=lambda rng: _random_pairs(
                rng, MANY_SMALL_SIZES, lambda r, n: _gnp_edges(r, n, 0.3), _not_isomorphic
            )
            + _random_pairs(rng, CUBIC_SIZES, _random_cubic, _not_isomorphic),
        ),
    )
}
