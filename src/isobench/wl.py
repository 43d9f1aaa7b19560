"""Exact color refinement over nodes and node pairs, and exact isomorphism.

Node refinement (1-WL) replaces each color by a digest of the pair (own
color, sorted multiset of neighbor colors) and stops once the induced
node partition repeats. Each round hashes each distinct (color,
neighbor multiset) payload once, so the nodes of a regular or symmetric
graph share a few BLAKE2b calls.

The oblivious k-WL verdicts for k in {2, 3} come from folklore
refinement: oblivious (k+1)-WL separates exactly the graphs that
folklore k-WL separates (Cai, Fuerer & Immerman 1992; Morris et al.
2019, arXiv:1810.02244). So 2-WL is node refinement again, and a grid
with both wl1 and wl2 columns refines each graph once for both; 3-WL is
2-FWL on ordered pairs: a pair starts from its equality and adjacency
flags and the two quantized feature rows, and each round adds the
sorted multiset over w of (color of (u, w), color of (w, v)).

All colors are 128-bit BLAKE2b digests with fixed constants, so the same
graph yields the same signature on every platform and in every process.
The signature of a graph is the multiset of final colors of its nodes
(1-WL, 2-WL) or its ordered pairs (3-WL); two graphs are distinguished
exactly when those multisets differ.

Exact isomorphism runs necessary checks from cheapest to dearest, each
preserved by every isomorphism: node and edge counts, sorted degree
sequences, 1-WL color histograms, then sorted per-node distance
profiles, which 1-WL cannot see (a 6-cycle against two triangles) but
folklore 2-WL can (Zhang et al. 2023, "Rethinking the Expressive Power
of GNNs via Graph Biconnectivity"). Only a pair that passes them all is
searched. The search reuses node refinement (McKay & Piperno 2014,
"Practical graph isomorphism, II"): it individualises one node, giving
it a color no refinement round produces, refines again, and repeats
until every class is a single node. Each candidate node of the second
graph costs one individualise-and-refine step; a search that needs more
than ISO_SEARCH_BUDGET steps raises ResourceLimitError instead of
running on.
"""

from __future__ import annotations

import hashlib
import numbers
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .centrality import ball_growth
from .errors import ContractError, ResourceLimitError
from .graphs import Graph, GraphBatch, Permutation, apply_permutation
from .quant import quantize_matrix, quantized_row_bytes

_PERSON = b"isobench.wl"
_INIT, _REFINE, _HIST = b"\x00", b"\x01", b"\x03"
# Marks an individualised node; only the isomorphism search uses it, so
# it never reaches a signature.
_INDIVIDUAL = b"\x04"

DEFAULT_EPS = 1e-6
DEFAULT_TUPLE_BUDGET = 20_000_000
ISO_SEARCH_BUDGET = 5_000
# 2-FWL gathers at most this many (u, v, w) cells at once, 2 MB of int64,
# so its peak memory grows as n**2, not n**3.
_CHUNK_CELLS = 1 << 18

ColorKey = bytes  # 16-byte digest


# The keyed state every digest starts from; _digest updates a copy.
_HASHER = hashlib.blake2b(digest_size=16, person=_PERSON)


def _digest(payload: bytes) -> ColorKey:
    h = _HASHER.copy()
    h.update(payload)
    return h.digest()


def _digests(payloads: list[bytes]) -> list[ColorKey]:
    """_digest of each payload, hashing each distinct payload once."""
    named = {p: _digest(p) for p in set(payloads)}
    return list(map(named.__getitem__, payloads))


@dataclass(frozen=True)
class WLSignature:
    """Stable refinement outcome for one graph.

    histogram maps each final color (hex) to its multiplicity; digest is
    a pure function of the histogram. rounds counts refinement passes
    until the partition repeated.
    """

    variant: str
    eps: float
    rounds: int
    histogram: tuple[tuple[str, int], ...]
    digest: str

    @property
    def histogram_size(self) -> int:
        return sum(count for _, count in self.histogram)


def _finish(variant: str, eps: float, rounds: int, colors: list[ColorKey]) -> WLSignature:
    counts = Counter(colors)
    histogram = tuple(sorted((c.hex(), k) for c, k in counts.items()))
    acc = hashlib.blake2b(_HIST, digest_size=16, person=_PERSON)
    for hexcolor, count in histogram:
        acc.update(bytes.fromhex(hexcolor))
        acc.update(count.to_bytes(8, "little"))
    return WLSignature(variant, eps, rounds, histogram, acc.hexdigest())


def _row_keys(g: Graph, eps: float) -> list[bytes]:
    """quantized_row_bytes of each quantized feature row, as slices of the
    whole matrix's encoding, which holds the rows' encodings end to end."""
    buffer = quantized_row_bytes(quantize_matrix(g.features, eps))
    width = 8 * g.d
    return [buffer[start : start + width] for start in range(0, len(buffer), width)]


def _initial_colors(g: Graph, eps: float) -> list[ColorKey]:
    return _digests([_INIT + key for key in _row_keys(g, eps)])


def _refine(g: Graph, colors: list[ColorKey]) -> tuple[list[ColorKey], int]:
    """Refine node colors until the induced partition repeats.

    Returns the stable colors and the number of rounds run. Each round
    adds at least one class or stops, so n rounds always suffice. Nodes
    with equal (color, neighbor multiset) payloads share one digest
    call, which gives each node the color its own call would.
    """
    classes = len(set(colors))
    rounds = 0
    neighbors = g.neighbors
    for _ in range(g.n):
        new = _digests(
            [
                _REFINE + colors[v] + b"".join(sorted(map(colors.__getitem__, neighbors[v])))
                for v in range(g.n)
            ]
        )
        rounds += 1
        new_classes = len(set(new))
        colors = new
        if new_classes == classes:
            break
        classes = new_classes
    return colors, rounds


def wl1_signature(g: Graph, eps: float = DEFAULT_EPS) -> WLSignature:
    """Node color refinement seeded by quantized feature rows."""
    colors, rounds = _refine(g, _initial_colors(g, eps))
    return _finish("1-WL", eps, rounds, colors)


def _ranked(digests: list[ColorKey], inverse: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort distinct digests into an (m, 16) uint8 table; rank each pair in it.

    inverse maps each pair to its entry of digests. Ranks order exactly as
    the digest bytes do, so sorting by rank is sorting by digest.
    """
    # Void items sort by their bytes, axis=0's order for uint8 rows, far cheaper.
    keys = np.frombuffer(b"".join(digests), dtype=np.dtype((np.void, 16)))
    table, rank = np.unique(keys, return_inverse=True)
    return table.view(np.uint8).reshape(-1, 16), rank[inverse]


def _fwl2(g: Graph, eps: float) -> tuple[list[ColorKey], int]:
    """2-FWL on the n**2 ordered pairs; returns their stable colors and the rounds run.

    c(u, v) starts as the digest of (u == v, u ~ v, quantized rows of u
    and v) and each round becomes the digest of c(u, v) followed by the
    sorted multiset over w of (c(u, w), c(w, v)).
    """
    n = g.n
    row_keys = _row_keys(g, eps)
    adjacent = g.adjacency_matrix.astype(np.uint8).tolist()
    digests = [
        _digest(_INIT + bytes((u == v, adjacent[u][v])) + row_keys[u] + row_keys[v])
        for u in range(n)
        for v in range(n)
    ]
    table, ranks = _ranked(digests, np.arange(n * n))
    classes = len(table)
    # Rows of u in [start, start + chunk) at a time. Up to n = 64 that is
    # one chunk; above, a row repeated in two chunks is hashed in each.
    chunk = max(1, _CHUNK_CELLS // (n * n))
    rounds = 0
    for _ in range(n * n):
        m = len(table)
        c = ranks.reshape(n, n)
        # Key of (c(u,w), c(w,v)): sorting keys sorts the pairs by digest.
        # Keys stay below m**2 <= n**4, inside int64 for every n < 55,000.
        left, right = c * m, c.T
        digests, parts = [], []
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            multiset = np.sort(left[start:stop, None, :] + right[None, :, :], axis=2)
            keyed = np.ascontiguousarray(
                np.concatenate((c[start:stop].reshape(-1, 1), multiset.reshape(-1, n)), axis=1)
            )
            # One opaque item per row: its sort compares bytes, far cheaper
            # than axis=0's structured argsort. The distinct rows come out in
            # another order, which is harmless because _ranked re-sorts by digest.
            rows = keyed.view(np.dtype((np.void, keyed.itemsize * keyed.shape[1])))
            _, first, inverse = np.unique(rows.reshape(-1), return_index=True, return_inverse=True)
            distinct = keyed[first]
            # Per distinct row, the ranks to hash: own, then both of each pair.
            payload = np.empty((len(distinct), 2 * n + 1), dtype=np.int64)
            payload[:, 0] = distinct[:, 0]
            payload[:, 1::2], payload[:, 2::2] = np.divmod(distinct[:, 1:], m)
            parts.append(inverse.reshape(-1) + len(digests))
            digests.extend(_digest(_REFINE + table[row].tobytes()) for row in payload)
        table, ranks = _ranked(digests, np.concatenate(parts))
        rounds += 1
        new_classes = len(table)
        if new_classes == classes:
            break
        classes = new_classes
    keys = [row.tobytes() for row in table]
    return [keys[i] for i in ranks.tolist()], rounds


def check_kwl_budget(budget: int) -> None:
    """Raise ContractError unless budget is a usable tuple budget: an integer >= 1."""
    if isinstance(budget, bool) or not isinstance(budget, numbers.Integral) or budget < 1:
        raise ContractError(f"tuple budget must be an integer >= 1, got {budget!r}")


def check_tuple_refinement(g: Graph, k: int, budget: int) -> None:
    """Raise unless k-tuple refinement of g fits: ContractError for a graph
    with no node, ResourceLimitError when a round's n**k tuple-neighbor
    operations exceed budget."""
    if g.n < 1:
        raise ContractError("tuple refinement needs at least one node")
    ops_per_round = g.n**k
    if ops_per_round > budget:
        raise ResourceLimitError(
            f"tuple refinement needs {ops_per_round} tuple-neighbor operations per round, "
            f"budget is {budget}"
        )


def wlk_signature(
    g: Graph,
    k: int,
    eps: float = DEFAULT_EPS,
    budget: int = DEFAULT_TUPLE_BUDGET,
) -> WLSignature:
    """Oblivious k-WL verdict for k in {2, 3}, computed as (k-1)-FWL.

    Oblivious (k+1)-WL and folklore k-WL separate exactly the same
    vertex-colored graphs (Cai, Fuerer & Immerman 1992), so k = 2 runs
    wl1_signature's node refinement and k = 3 runs 2-FWL on ordered
    pairs. The histogram counts the colored (k-1)-tuples: n nodes for
    k = 2, n**2 pairs for k = 3. A round substitutes each of n nodes
    into each (k-1)-tuple, n**k operations; the call is refused up
    front when that exceeds the budget (check_tuple_refinement). A
    budget that is not an integer >= 1 raises ContractError.
    """
    if k not in (2, 3):
        raise ContractError(f"tuple refinement supports k in {{2, 3}}, got {k}")
    check_kwl_budget(budget)
    check_tuple_refinement(g, k, budget)
    if k == 2:
        colors, rounds = _refine(g, _initial_colors(g, eps))
    else:
        colors, rounds = _fwl2(g, eps)
    return _finish(f"{k}-WL", eps, rounds, colors)


def distinguishes(a: WLSignature, b: WLSignature) -> bool:
    """True when the two signatures certify non-isomorphism."""
    if a.variant != b.variant:
        raise ContractError(f"variant mismatch: {a.variant} vs {b.variant}")
    if a.eps != b.eps:
        raise ContractError(f"granularity mismatch: {a.eps} vs {b.eps}")
    return a.digest != b.digest


# ---------------------------------------------------------------------------
# exact isomorphism


@dataclass(frozen=True)
class IsoVerdict:
    """Result of an exact isomorphism test, with a witness when positive.

    steps counts the individualise-and-refine steps the search took: 0
    when a necessary check decided the pair before any search.
    """

    isomorphic: bool
    witness: Permutation | None = None
    steps: int = 0


def _individualise(colors: list[ColorKey], v: int) -> list[ColorKey]:
    out = list(colors)
    out[v] = _digest(_INDIVIDUAL + colors[v])
    return out


def are_isomorphic(
    g: Graph,
    h: Graph,
    *,
    structure_only: bool = False,
    max_nodes: int = 64,
) -> IsoVerdict:
    """Exact isomorphism by individualisation and refinement.

    Necessary checks come first, in this order, and each one that fails
    proves non-isomorphism with steps 0: node counts, edge counts, sorted
    degree sequences (no refinement yet), then 1-WL color histograms and
    then distance profiles. For the histograms both graphs start from
    wl1_signature's initial colors at DEFAULT_EPS (one constant color
    when structure_only is set) and are refined. A node's distance
    profile counts the nodes at each distance 1..n-1 from it
    (centrality.ball_growth, one call for both graphs); the pair fails
    when the sorted profiles differ. It goes after refinement because it
    costs several refinements and refinement alone already splits most
    pairs. The search comes last. Target cell: the class of the
    lowest-index node v of g in a class of more than one node. v is
    individualised and g refined, then each w of h with v's color, in
    ascending index, is individualised and h refined, and the search
    descends where the histograms agree. Witness: once every class is a
    single node, the color-matching map, if g relabeled by it has h's
    edge_index; the first such leaf in this order, so the same on every
    run. More than ISO_SEARCH_BUDGET steps raise ResourceLimitError.
    A pair that a check decides never reaches the search, so one with
    unequal profiles is decided however large its search tree.
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
        init_g = init_h = [_digest(_INIT)] * n
    else:
        init_g, init_h = _initial_colors(g, DEFAULT_EPS), _initial_colors(h, DEFAULT_EPS)
    colors_g, colors_h = _refine(g, init_g)[0], _refine(h, init_h)[0]
    if Counter(colors_g) != Counter(colors_h):
        return IsoVerdict(False)
    # An isomorphism preserves distances, which 1-WL does not see.
    profiles = ball_growth(GraphBatch((g, h)), n - 1)[2].reshape(2, n, n - 1).tolist()
    if sorted(profiles[0]) != sorted(profiles[1]):
        return IsoVerdict(False)
    steps = 0

    def branches(colors_g: list[ColorKey], colors_h: list[ColorKey]):
        nonlocal steps
        sizes = Counter(colors_g)
        v = next(v for v in range(n) if sizes[colors_g[v]] > 1)
        child_g = _refine(g, _individualise(colors_g, v))[0]
        want = Counter(child_g)
        for w in range(n):
            if colors_h[w] != colors_g[v]:
                continue
            steps += 1
            if steps > ISO_SEARCH_BUDGET:
                raise ResourceLimitError(
                    f"isomorphism search exceeded its budget of {ISO_SEARCH_BUDGET} "
                    "individualise-and-refine steps"
                )
            child_h = _refine(h, _individualise(colors_h, w))[0]
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
