"""Graph constructors, the bundled hard-pair library, and dataset loading.

The hard-pair library holds the desk cases this package is organized
around: same-size pairs that node color refinement cannot separate,
one strongly regular pair that even 3-tuple refinement cannot separate,
and one genuinely isomorphic control pair. It is one table of
(name, left graph, right graph, expectations) rows in library order.
Every expectation names a check in EXPECTATIONS and is re-verified each
time the library is built; a failed expectation raises
CorpusIntegrityError rather than returning questionable data.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .errors import ContractError, CorpusIntegrityError, GraphParseError
from .evaluate import LabeledPair, PairDataset, make_pair_dataset
from .graphs import (
    Graph,
    Permutation,
    apply_permutation,
    decode_graph6,
    parse_edge_list,
    parse_graph6,  # unused here; benchmarks/tracing.py patches corpus.parse_graph6
)
from .wl import are_isomorphic, wl1_signature, wlk_signature

# Fixed edge list of the 16-node, 6-regular strongly regular graph with
# lambda = mu = 2 that is NOT the 4x4 rook's graph. Embedded as literal
# data; srg_parameters() re-derives (16, 6, 2, 2) from it at build time.
SHRIKHANDE_EDGES: tuple[tuple[int, int], ...] = (
    (0, 1), (0, 3), (0, 4), (0, 5), (0, 12), (0, 15),
    (1, 2), (1, 5), (1, 6), (1, 12), (1, 13),
    (2, 3), (2, 6), (2, 7), (2, 13), (2, 14),
    (3, 4), (3, 7), (3, 14), (3, 15),
    (4, 5), (4, 7), (4, 8), (4, 9),
    (5, 6), (5, 9), (5, 10),
    (6, 7), (6, 10), (6, 11),
    (7, 8), (7, 11),
    (8, 9), (8, 11), (8, 12), (8, 13),
    (9, 10), (9, 13), (9, 14),
    (10, 11), (10, 14), (10, 15),
    (11, 12), (11, 15),
    (12, 13), (12, 15),
    (13, 14),
    (14, 15),
)

def cycle(n: int) -> Graph:
    if n < 3:
        raise ContractError(f"a cycle needs n >= 3, got {n}")
    return Graph(n, tuple((v, (v + 1) % n) for v in range(n)))


def path(n: int) -> Graph:
    if n < 1:
        raise ContractError(f"a path needs n >= 1, got {n}")
    return Graph(n, tuple((v, v + 1) for v in range(n - 1)))


def star(n: int) -> Graph:
    """Center node 0 with n - 1 leaves."""
    if n < 1:
        raise ContractError(f"a star needs n >= 1, got {n}")
    return Graph(n, tuple((0, v) for v in range(1, n)))


def complete(n: int) -> Graph:
    if n < 1:
        raise ContractError(f"a complete graph needs n >= 1, got {n}")
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def disjoint_cycles(sizes: Sequence[int]) -> Graph:
    if not sizes:
        raise ContractError("need at least one cycle size")
    edges = []
    offset = 0
    for size in sizes:
        if size < 3:
            raise ContractError(f"cycle sizes must be >= 3, got {size}")
        edges.extend((offset + v, offset + (v + 1) % size) for v in range(size))
        offset += size
    return Graph(offset, tuple(edges))


def erdos_renyi(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with each pair decided in canonical (u, v) order."""
    if n < 0:
        raise ContractError(f"n must be >= 0, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ContractError(f"p must lie in [0, 1], got {p}")
    rng = np.random.Generator(np.random.PCG64(seed))
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, tuple(edges))


def rook4x4() -> Graph:
    """Line graph of K_{4,4}: cells of a 4x4 grid, same row or column."""
    edges = [
        (a, b)
        for a in range(16)
        for b in range(a + 1, 16)
        if a // 4 == b // 4 or a % 4 == b % 4
    ]
    return Graph(16, tuple(edges))


def srg_parameters(g: Graph) -> tuple[int, int, int, int]:
    """(n, degree, lambda, mu) of a strongly regular graph, else error."""
    degs = set(int(x) for x in g.degrees)
    if len(degs) != 1:
        raise CorpusIntegrityError(f"not regular: degrees {sorted(degs)}")
    k = degs.pop()
    lams, mus = set(), set()
    nbrs = [set(a) for a in g.neighbors]
    for u in range(g.n):
        for v in range(u + 1, g.n):
            common = len(nbrs[u] & nbrs[v])
            (lams if g.has_edge(u, v) else mus).add(common)
    if len(lams) != 1 or len(mus) != 1:
        raise CorpusIntegrityError(
            f"not strongly regular: lambda set {sorted(lams)}, mu set {sorted(mus)}"
        )
    return g.n, k, lams.pop(), mus.pop()


def shrikhande() -> Graph:
    g = Graph(16, SHRIKHANDE_EDGES)
    params = srg_parameters(g)
    if params != (16, 6, 2, 2):
        raise CorpusIntegrityError(f"embedded edge list has SRG parameters {params}")
    return g


# ---------------------------------------------------------------------------
# hard-pair library


# {expect: check(left, right)}
EXPECTATIONS = {
    "isomorphic": lambda left, right: are_isomorphic(left, right).isomorphic,
    "non_isomorphic": lambda left, right: not are_isomorphic(left, right).isomorphic,
    "wl1_equal": lambda left, right: wl1_signature(left).digest == wl1_signature(right).digest,
    "wl3_equal": lambda left, right: wlk_signature(left, 3).digest == wlk_signature(right, 3).digest,
}


def _hard_pairs() -> tuple[tuple[str, Graph, Graph, tuple[str, ...]], ...]:
    """(name, left, right, expectations) of each bundled pair, in library order."""
    return (
        ("c6_vs_2c3", cycle(6), disjoint_cycles([3, 3]), ("non_isomorphic", "wl1_equal")),
        ("c8_vs_2c4", cycle(8), disjoint_cycles([4, 4]), ("non_isomorphic", "wl1_equal")),
        (
            "rook4x4_vs_shrikhande",
            rook4x4(),
            shrikhande(),
            ("non_isomorphic", "wl1_equal", "wl3_equal"),
        ),
        (
            "k4_vs_relabeled_k4",
            complete(4),
            apply_permutation(complete(4), Permutation((2, 0, 3, 1))),
            ("isomorphic",),
        ),
    )


def hard_pair_library() -> PairDataset:
    """The bundled pairs, with expectations re-checked on every build."""
    pairs = []
    for name, left, right, expects in _hard_pairs():
        for expect in expects:
            if not EXPECTATIONS[expect](left, right):
                raise CorpusIntegrityError(f"pair {name!r} failed expectation {expect!r}")
        pairs.append(LabeledPair(left, right, "isomorphic" in expects, name, True))
    return PairDataset(tuple(pairs), None)


# ---------------------------------------------------------------------------
# dataset files


class PairingWarning(UserWarning):
    """A loaded file holds an odd number of graphs."""


def load_dataset(path: str, fmt: str = "auto") -> list[Graph]:
    """Read an ordered list of graphs from a file.

    graph6 files hold one graph per line, blank lines aside, and decode
    in one pass (graphs.decode_graph6); the first bad line's error names
    the file and line. Edge-list files hold blocks separated by blank
    lines. Consecutive graphs (0, 1), (2, 3), ... are meant to form
    pairs, and an odd count triggers PairingWarning. A file that holds
    no graph raises GraphParseError.
    """
    if fmt == "auto":
        lowered = path.lower()
        if lowered.endswith((".g6", ".graph6")):
            fmt = "graph6"
        elif lowered.endswith((".el", ".edgelist", ".txt")):
            fmt = "edge_list"
        else:
            raise ContractError(
                f"cannot infer format from {path!r}; pass graph6 or edge_list"
            )
    if fmt not in ("graph6", "edge_list"):
        raise ContractError(f"unknown format {fmt!r}; valid: graph6, edge_list")
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("ascii")
    except UnicodeDecodeError as exc:
        # Lines are numbered as str.splitlines numbers them below.
        at = len((raw[: exc.start].decode("ascii") + "?").splitlines())
        raise GraphParseError(
            f"{path}:{at}: non-ASCII byte 0x{raw[exc.start]:02X}", line=at
        ) from None
    graphs: list[Graph] = []
    if fmt == "graph6":
        numbered = [(no, line) for no, line in enumerate(text.splitlines(), start=1) if line.strip()]
        try:
            graphs = decode_graph6([line for _, line in numbered], [no for no, _ in numbered])
        except GraphParseError as exc:
            raise GraphParseError(f"{path}:{exc.line}: {exc}", line=exc.line) from exc
    else:
        block: list[str] = []
        block_start = 1
        for lineno, line in enumerate(text.splitlines() + [""], start=1):
            if line.strip():
                if not block:
                    block_start = lineno
                block.append(line)
                continue
            if block:
                try:
                    graphs.append(parse_edge_list("\n".join(block)))
                except GraphParseError as exc:
                    at = block_start + (exc.line - 1 if exc.line else 0)
                    raise GraphParseError(f"{path}:{at}: {exc.message}", line=at) from exc
                block = []
    if not graphs:
        raise GraphParseError(f"no graphs in {path}")
    if len(graphs) % 2 == 1:
        warnings.warn(
            f"{path} holds {len(graphs)} graphs; the last one cannot be paired",
            PairingWarning,
            stacklevel=2,
        )
    return graphs


def pairs_from_graphs(
    graphs: Sequence[Graph],
    origin: str,
    isomorphic: bool = False,
) -> PairDataset:
    """Fold an ordered graph list into consecutive labeled pairs."""
    pairs = [
        LabeledPair(graphs[i], graphs[i + 1], isomorphic, origin, False)
        for i in range(0, len(graphs) - 1, 2)
    ]
    return make_pair_dataset(pairs)
