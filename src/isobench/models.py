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

Each architecture is one row of the _ARCHS table: the input widths of
its MLPs for a given input width, and its node-state function; ARCHS
is the table's keys. ModelParams holds the architecture, the input
width, the MLP weights and gin's eps values.

Weights are Glorot-uniform from a seeded generator; regenerating with
the same seed reproduces them bit for bit. Every sum over neighbors or
nodes accumulates in ascending node index. That order is part of the
contract: it keeps a single graph's embedding exactly reproducible
while letting float reassociation under node relabeling stay visible
instead of being canonicalized away.

The passes are whole-matrix numpy operations that keep that order
exactly. forward takes a Graph or a graphs.GraphBatch, the disjoint
union of several graphs, run by its GraphBatch.runs; a Graph runs as a
batch of one. A batch is checked at once, by comparing its node-count
and width arrays with what the model accepts; only a refused batch goes
to check_graph, on its first refused graph, for that graph's error. Row
i of a batch's result has the bytes of forward on graph i alone. That
holds because every operation is row by row, with four rules:

- Neighbor sums run over degree slots of the union: slot j adds, for
  every node of degree > j at once, its j-th smallest neighbor, so each
  node sees the same additions in the same order as a per-node loop
  (nodes without a j-th neighbor are left out rather than padded with
  zeros, which would turn -0.0 into +0.0). pna's delta is each graph's
  own.
- A hub's lone slots fold into one step. Slot counts never grow, so the
  slots that hold one node form a final run, and that node is the top-
  degree node, row 0 of the order (a virtual node's run covers most of
  its neighbours). When the run is two or more slots long and starts
  after slot 0, the slot loops stop where it begins, and row 0's
  partial sum, max, min and squared-deviation sum, stacked over its
  remaining neighbours' states, go through op.accumulate along the
  stack: the same binary operations on the same operands in the same
  order as the loop, so the same bits. A run of one slot is already one
  step, and tied top-degree nodes have no run.
- One-row kernel: numpy multiplies a 1-row matrix by BLAS gemv and a
  larger one by gemm, whose bits differ, while a gemm row does not
  depend on how many rows the product has. So the rows of 1-node graphs
  and ds's readout rows, one per graph, take the broadcast
  (rows, 1, k) @ w form, which runs gemv row by row; the rest stack.
- The readout sums each graph's states in one zero-padded (1 + max n,
  graphs, width) block, position-major, with np.add.accumulate along
  the position axis: sequential, from a leading +0.0, like a per-node
  loop. The running sum is never -0.0, so the trailing +0.0 pads leave
  it unchanged. The pairwise np.sum, or np.add.reduceat, would change
  the bits.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ContractError, check_number
from .graphs import Graph, GraphBatch, as_batch

HIDDEN_DIM = 16
NUM_LAYERS = 4
EPSILON_HIGH = 0.1

AGGREGATOR_COUNT = 5  # mean, sum, max, min, std
SCALER_COUNT = 3  # identity, amplification, attenuation
_PNA_PARTS = 1 + AGGREGATOR_COUNT * SCALER_COUNT  # own state, then each aggregate per scaler

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
    input_dim: int
    weights: tuple[MLPParams, ...]
    epsilons: tuple[float, ...]


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


def init_model(arch: str, input_dim: int, seed: int) -> ModelParams:
    """Draw all weights for one architecture from a seeded generator.

    Draw order is fixed: for each MLP in layer order, w1, b1, w2, b2;
    for gin the per-round eps values follow last.
    """
    if arch not in ARCHS:
        raise ContractError(f"unknown architecture {arch!r}; valid: {', '.join(ARCHS)}")
    check_number("input_dim", input_dim, numbers.Integral)
    check_number("seed", seed, numbers.Integral)
    if input_dim < 1:
        raise ContractError(f"input width must be >= 1, got {input_dim}")
    if seed < 0:
        raise ContractError(f"model seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    weights = tuple(
        _draw_mlp(rng, (dim_in, HIDDEN_DIM, HIDDEN_DIM))
        for dim_in in _ARCHS[arch][0](input_dim)
    )
    epsilons: tuple[float, ...] = ()
    if arch == "gin":
        epsilons = tuple(float(x) for x in rng.uniform(0.0, EPSILON_HIGH, size=NUM_LAYERS))
    return ModelParams(arch, input_dim, weights, epsilons)


def _mlp(params: MLPParams, x: np.ndarray) -> np.ndarray:
    return np.tanh(np.tanh(x @ params.w1 + params.b1) @ params.w2 + params.b2)


def _mlp_rows(params: MLPParams, x: np.ndarray, lone: np.ndarray) -> np.ndarray:
    """_mlp over the rows of x; rows `lone`, the rows of 1-node graphs,
    again in the broadcast (rows, 1, k) form that runs the one-row
    kernel (see the module docstring)."""
    h = _mlp(params, x)
    if lone.size:
        h[lone] = _mlp(params, x[lone, None, :])[:, 0]
    return h


def _fold(op: np.ufunc, head: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """op(...op(op(head, rows[0]), rows[1])..., rows[-1]), one row at a time.

    The slot loop's steps for a tail, in its order and with its operand
    order, so the result has the loop's bits: ufunc.accumulate is
    sequential along the axis, unlike ufunc.reduce, which sums pairwise.
    """
    stack = np.concatenate([head[None], rows])
    return op.accumulate(stack, axis=0, out=stack)[-1]


def _gin_states(m: ModelParams, b: GraphBatch) -> np.ndarray:
    h = b.features
    _, order, slots, tail = b.slots
    for layer, eps in zip(m.weights, m.epsilons):
        acc = (1.0 + eps) * h[order]
        # Only the rows that have a j-th neighbour: adding a zero instead
        # would turn a -0.0 sum into +0.0.
        for count, nbrs in slots:
            acc[:count] += h[nbrs]
        if tail.size:
            acc[0] = _fold(np.add, acc[0], h[tail])
        agg = np.empty_like(acc)
        agg[order] = acc
        h = _mlp_rows(layer, agg, b.lone)
    return h


def _pna_states(m: ModelParams, b: GraphBatch) -> np.ndarray:
    h = b.features
    deg, order, slots, tail = b.slots
    log_deg = np.array([math.log1p(k) for k in range(int(deg.max()) + 1)])[deg]
    # Each node's own graph's mean of log(1 + deg), summed in node order.
    delta = (b.graph_sums(log_deg[:, None])[:, 0] / b.sizes)[b.node_graph]
    linked = deg > 0
    n_linked = int(np.count_nonzero(linked))  # nodes with neighbours lead the order
    linked_deg = deg[order[:n_linked], None]
    amplification = np.ones(b.n, dtype=np.float64)
    amplification[linked] = log_deg[linked] / delta[linked]
    attenuation = np.ones(b.n, dtype=np.float64)
    attenuation[linked] = delta[linked] / log_deg[linked]
    for layer in m.weights:
        width = h.shape[1]
        # Rows in descending-degree order; isolated nodes keep zeros.
        aggs = np.zeros((AGGREGATOR_COUNT, b.n, width), dtype=np.float64)
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
        if tail.size:
            rest = h[tail]
            total[0] = _fold(np.add, total[0], rest)
            high[0] = _fold(np.maximum, high[0], rest)
            low[0] = _fold(np.minimum, low[0], rest)
        mean[:n_linked] = total[:n_linked] / linked_deg
        # std holds the sum of squared deviations until the square root.
        for count, nbrs in slots:
            diff = h[nbrs] - mean[:count]
            std[:count] += diff * diff
        if tail.size:
            diff = rest - mean[0]
            std[0] = _fold(np.add, std[0], diff * diff)
        std[:n_linked] = np.sqrt(std[:n_linked] / linked_deg)
        # Rows in node order: parts[:, 0] is the own state and
        # parts[:, 1 + 5 * s + a] is aggregate a under scaler s.
        block = np.empty((b.n, _PNA_PARTS * width), dtype=np.float64)
        parts = block.reshape(b.n, _PNA_PARTS, width)
        parts[:, 0] = h
        identity = parts[:, 1 : 1 + AGGREGATOR_COUNT]
        identity[order] = aggs.transpose(1, 0, 2)
        for s, scale in enumerate((amplification, attenuation), start=1):
            lo = 1 + AGGREGATOR_COUNT * s
            np.multiply(identity, scale[:, None, None], out=parts[:, lo : lo + AGGREGATOR_COUNT])
        h = _mlp_rows(layer, block, b.lone)
    return h


def _ds_states(m: ModelParams, b: GraphBatch) -> np.ndarray:
    return _mlp_rows(m.weights[0], b.features, b.lone)


# arch -> (its MLP input widths, in draw order, for input width d; its
# final node states). The order is the reporting order.
_ARCHS: dict[str, tuple[Callable[[int], list[int]], Callable[..., np.ndarray]]] = {
    "gin": (lambda d: [d] + [HIDDEN_DIM] * (NUM_LAYERS - 1), _gin_states),
    "pna": (lambda d: [d * _PNA_PARTS] + [HIDDEN_DIM * _PNA_PARTS] * (NUM_LAYERS - 1), _pna_states),
    "ds": (lambda d: [d, HIDDEN_DIM], _ds_states),  # MLP1, then MLP2 on the readout
}

ARCHS = tuple(_ARCHS)


def check_graph(m: ModelParams, g: Graph) -> None:
    """Raise the ContractError that a forward pass over g would raise."""
    if g.n < 1:
        raise ContractError("forward pass needs at least one node")
    if g.d != m.input_dim:
        raise ContractError(f"model expects {m.input_dim} feature columns, graph has {g.d}")


def _refused(m: ModelParams, b: GraphBatch) -> np.ndarray:
    """Per graph of b: whether check_graph raises for it, from b's count arrays."""
    return (b.sizes < 1) | (b.widths != m.input_dim)


def _as_batch(m: ModelParams, x: Graph | GraphBatch) -> GraphBatch:
    """x as a batch, checked at once; a batch with a refused graph raises
    check_graph's error for the first one."""
    b = as_batch(x)
    refused = _refused(m, b)
    if refused.any():
        check_graph(m, b.take([int(refused.argmax())]).graphs[0])
    return b


def _by_runs(
    m: ModelParams, x: Graph | GraphBatch, finish: Callable[[GraphBatch, np.ndarray], np.ndarray]
) -> np.ndarray:
    """finish(run, final node states) over each GraphBatch.runs of x, stacked.

    A run's largest array is per node the widest layer input, per graph
    the readout block. Runs also set how far a hub's fold reaches: only
    slots beyond a run's second-highest degree hold the hub alone.
    """
    width = max(layer.w1.shape[0] for layer in m.weights)

    def cells(rows, edges, graphs, largest):
        return np.maximum(rows * width, graphs * (1 + largest) * HIDDEN_DIM)

    runs = _as_batch(m, x).runs(cells)
    return np.concatenate([finish(run, _ARCHS[m.arch][1](m, run)) for run in runs])


def node_states(m: ModelParams, x: Graph | GraphBatch) -> np.ndarray:
    """Final per-node states before readout (for ds: the MLP1 outputs).

    For a batch, the rows of the union's nodes.
    """
    return _by_runs(m, x, lambda run, h: h)


def forward(m: ModelParams, x: Graph | GraphBatch) -> Embedding:
    """Whole-graph embeddings: an ascending-index sum readout of node states.

    A Graph gives a read-only vector of HIDDEN_DIM entries. A GraphBatch
    gives a read-only (graphs, HIDDEN_DIM) matrix whose row i has the
    bytes of forward(m, graphs[i]); a Graph runs as a batch of one. Rows
    of 1-node graphs and ds's readout rows take the one-row kernel, and
    the readout is GraphBatch.graph_sums, sequential over a padded block
    (see the module docstring).
    """
    readout = _by_runs(m, x, GraphBatch.graph_sums)
    if m.arch == "ds":
        # One row per graph, so each takes the one-row kernel.
        readout = _mlp(m.weights[1], readout[:, None, :])[:, 0]
    readout.setflags(write=False)
    return readout if isinstance(x, GraphBatch) else readout[0]
