"""Untrained graph embedders with bit-reproducible forward passes.

Three architectures, all built from 2-layer perceptrons with tanh after
each linear map, all 16 wide, all read out by coordinate-wise summation
of node states:

gin  four rounds of h_v <- MLP((1 + eps_l) * h_v + sum of neighbor
     states), one learned-shape eps per round drawn from [0, 0.1].
pna  four rounds; each node concatenates its own state with five
     neighbor aggregates (mean, sum, max, min, population std), each
     under three degree scalers (identity, amplification
     log(1+deg)/delta, attenuation delta/log(1+deg), where delta is the
     graph mean of log(1+deg)), and feeds the block through the round's
     MLP. Isolated nodes contribute zero aggregates under identity
     scalers.
ds   a topology-blind set model: MLP2 applied to the sum over nodes of
     MLP1 of the raw features.

Weights are Glorot-uniform from a seeded generator; regenerating with
the same seed reproduces them bit for bit. Every sum over neighbors or
nodes accumulates in ascending node index. That order is part of the
contract: it keeps a single graph's embedding exactly reproducible
while letting float reassociation under node relabeling stay visible
instead of being canonicalized away.

The passes are whole-matrix numpy operations that keep that order
exactly. Neighbor sums run over degree slots: slot j adds, for every
node of degree > j at once, its j-th smallest neighbor, so each node
sees the same additions in the same order as a per-node loop (nodes
without a j-th neighbor are left out rather than padded with zeros,
which would turn -0.0 into +0.0). The readout is a sequential
np.add.accumulate over a zero row and the node states, never the
pairwise np.sum, whose different association changes the bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .graphs import Graph

ARCHS = ("gin", "pna", "ds")

HIDDEN_DIM = 16
OUTPUT_DIM = 16
NUM_LAYERS = 4
EPSILON_HIGH = 0.1

AGGREGATOR_COUNT = 5  # mean, sum, max, min, std
SCALER_COUNT = 3  # identity, amplification, attenuation

Embedding = np.ndarray


@dataclass(frozen=True)
class MLPParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass(frozen=True)
class ModelParams:
    """Frozen weights for one architecture and input width."""

    arch: str
    layers: int
    input_dim: int
    hidden_dim: int
    output_dim: int
    weights: tuple[MLPParams, ...]
    epsilons: tuple[float, ...]
    seed: int


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _draw_mlp(rng: np.random.Generator, dims: tuple[int, int, int]) -> MLPParams:
    fan_in, hidden, out = dims
    parts = []
    for fi, fo in ((fan_in, hidden), (hidden, out)):
        a = math.sqrt(6.0 / (fi + fo))
        parts.append(_freeze(rng.uniform(-a, a, size=(fi, fo))))
        parts.append(_freeze(rng.uniform(-a, a, size=fo)))
    return MLPParams(*parts)


def _layer_input_dims(arch: str, input_dim: int) -> list[int]:
    if arch == "gin":
        return [input_dim] + [HIDDEN_DIM] * (NUM_LAYERS - 1)
    if arch == "pna":
        block = 1 + AGGREGATOR_COUNT * SCALER_COUNT
        return [input_dim * block] + [HIDDEN_DIM * block] * (NUM_LAYERS - 1)
    return [input_dim, HIDDEN_DIM]  # ds: MLP1 then MLP2


def init_model(arch: str, input_dim: int, seed: int) -> ModelParams:
    """Draw all weights for one architecture from a seeded generator.

    Draw order is fixed: for each MLP in layer order, w1, b1, w2, b2;
    for gin the per-round eps values follow last.
    """
    if arch not in ARCHS:
        raise ContractError(f"unknown architecture {arch!r}; valid: {', '.join(ARCHS)}")
    if input_dim < 1:
        raise ContractError(f"input width must be >= 1, got {input_dim}")
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = tuple(
        _draw_mlp(rng, (dim_in, HIDDEN_DIM, HIDDEN_DIM))
        for dim_in in _layer_input_dims(arch, input_dim)
    )
    epsilons: tuple[float, ...] = ()
    if arch == "gin":
        epsilons = tuple(float(x) for x in rng.uniform(0.0, EPSILON_HIGH, size=NUM_LAYERS))
    return ModelParams(
        arch=arch,
        layers=NUM_LAYERS,
        input_dim=input_dim,
        hidden_dim=HIDDEN_DIM,
        output_dim=OUTPUT_DIM,
        weights=weights,
        epsilons=epsilons,
        seed=seed,
    )


def _mlp(params: MLPParams, x: np.ndarray) -> np.ndarray:
    return np.tanh(np.tanh(x @ params.w1 + params.b1) @ params.w2 + params.b2)


def _neighbour_slots(g: Graph) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """Nodes by descending degree, and per degree slot j their j-th neighbours.

    Row r of the neighbour table holds the neighbours of node order[r] in
    ascending index. The nodes with a j-th neighbour are the first
    count_j rows, so slot j is (count_j, table[:count_j, j]), and adding
    slot 0, 1, ... in turn adds each node's neighbours in the order a
    per-node loop adds them.
    """
    deg = g.degrees
    order = np.argsort(-deg, kind="stable")
    table = np.zeros((g.n, int(deg.max())), dtype=np.intp)
    for row, v in enumerate(order):
        table[row, : deg[v]] = g.neighbors[v]
    slots = []
    for j in range(table.shape[1]):
        count = int(np.count_nonzero(deg > j))
        slots.append((count, table[:count, j]))
    return order, slots


def _gin_states(m: ModelParams, g: Graph) -> np.ndarray:
    h = g.features
    order, slots = _neighbour_slots(g)
    for layer, eps in zip(m.weights, m.epsilons):
        acc = (1.0 + eps) * h[order]
        # Only the rows that have a j-th neighbour: adding a zero instead
        # would turn a -0.0 sum into +0.0.
        for count, nbrs in slots:
            acc[:count] += h[nbrs]
        agg = np.empty_like(acc)
        agg[order] = acc
        h = _mlp(layer, agg)
    return h


def _pna_states(m: ModelParams, g: Graph) -> np.ndarray:
    h = g.features
    deg = g.degrees
    log_deg = np.zeros(g.n, dtype=np.float64)
    for v in range(g.n):
        log_deg[v] = math.log1p(float(deg[v]))
    delta = 0.0
    for v in range(g.n):
        delta += log_deg[v]
    delta /= g.n
    order, slots = _neighbour_slots(g)
    linked = deg > 0
    n_linked = int(np.count_nonzero(linked))  # nodes with neighbours lead the order
    linked_deg = deg[order[:n_linked], None]
    amplification = np.ones(g.n, dtype=np.float64)
    amplification[linked] = log_deg[linked] / delta
    attenuation = np.ones(g.n, dtype=np.float64)
    attenuation[linked] = delta / log_deg[linked]
    parts_per_node = 1 + AGGREGATOR_COUNT * SCALER_COUNT
    for layer in m.weights:
        width = h.shape[1]
        # Rows in descending-degree order; isolated nodes keep zeros.
        aggs = np.zeros((AGGREGATOR_COUNT, g.n, width), dtype=np.float64)
        mean, total, high, low, std = aggs
        for j, (count, nbrs) in enumerate(slots):
            nbr_states = h[nbrs]
            total[:count] += nbr_states
            if j == 0:
                high[:count] = nbr_states
                low[:count] = nbr_states
            else:
                np.maximum(high[:count], nbr_states, out=high[:count])
                np.minimum(low[:count], nbr_states, out=low[:count])
        mean[:n_linked] = total[:n_linked] / linked_deg
        # std holds the sum of squared deviations until the square root.
        for count, nbrs in slots:
            diff = h[nbrs] - mean[:count]
            std[:count] += diff * diff
        std[:n_linked] = np.sqrt(std[:n_linked] / linked_deg)
        # Rows in node order: parts[:, 0] is the own state and
        # parts[:, 1 + 5 * s + a] is aggregate a under scaler s.
        block = np.empty((g.n, parts_per_node * width), dtype=np.float64)
        parts = block.reshape(g.n, parts_per_node, width)
        parts[:, 0] = h
        identity = parts[:, 1 : 1 + AGGREGATOR_COUNT]
        identity[order] = aggs.transpose(1, 0, 2)
        for s, scale in enumerate((amplification, attenuation), start=1):
            lo = 1 + AGGREGATOR_COUNT * s
            np.multiply(identity, scale[:, None, None], out=parts[:, lo : lo + AGGREGATOR_COUNT])
        h = _mlp(layer, block)
    return h


def _ds_states(m: ModelParams, g: Graph) -> np.ndarray:
    return _mlp(m.weights[0], g.features)


def node_states(m: ModelParams, g: Graph) -> np.ndarray:
    """Final per-node states before readout (for ds: the MLP1 outputs)."""
    if g.n < 1:
        raise ContractError("forward pass needs at least one node")
    if g.d != m.input_dim:
        raise ContractError(f"model expects {m.input_dim} feature columns, graph has {g.d}")
    if m.arch == "gin":
        return _gin_states(m, g)
    if m.arch == "pna":
        return _pna_states(m, g)
    return _ds_states(m, g)


def forward(m: ModelParams, g: Graph) -> Embedding:
    """Whole-graph embedding: ascending-index sum readout over node states."""
    states = node_states(m, g)
    # np.add.accumulate adds row after row by definition; np.sum would
    # sum pairwise and change the bits.
    rows = np.concatenate([np.zeros((1, states.shape[1]), dtype=np.float64), states])
    readout = np.add.accumulate(rows, axis=0)[-1]
    if m.arch == "ds":
        readout = _mlp(m.weights[1], readout[None, :])[0]
    out = readout.copy()
    out.setflags(write=False)
    return out

