"""Per-layer spans and counts, recorded from outside the package.

Each traced function is replaced on the module that calls it, because
`from .x import f` copies the binding into the caller: patching the
defining module alone would miss those calls. A name missing from its
calling module is an error, so a rename inside the package breaks the
trace loudly instead of reporting zeros.

Spans stay in memory as (name, start, end, parent) and are written out
once, when the pass ends. A layer's self time is the length of its spans
minus the part covered by their child spans.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import Counter, defaultdict
from typing import Callable

import isobench.corpus as corpus
import isobench.evaluate as evaluate
import isobench.spectral as spectral
import isobench.transforms as transforms


class TraceError(RuntimeError):
    """A traced name is missing from the module that calls it."""


# Call counts: metric name -> the span names it counts.
CALLS = {
    "evaluate.cells": ("evaluate.cell",),
    "evaluate.cluster_calls": ("evaluate.cluster",),
    "transforms.apply_calls": tuple(f"transforms.{kind}" for kind in transforms.KINDS),
    "spectral.jacobi_calls": ("spectral.jacobi",),
    "wl.wl1_calls": ("wl.wl1",),
    "wl.wlk_calls": ("wl.wlk",),
    "models.forward_calls": ("models.gin", "models.pna", "models.ds"),
    "models.init_calls": ("models.init",),
    "graphs.iso_calls": ("graphs.iso",),
}

# Work counted by the observers in install().
WORK = (
    "evaluate.cluster_rows",
    "transforms.apply_distinct",
    "spectral.jacobi_distinct",
    "spectral.jacobi_n3",
    "wl.wlk_rounds",
    "wl.wlk_tuple_ops",
    "models.node_rows",
)

# Layer self times: metric name -> the span names it sums.
SELF_TIMES = {
    "evaluate.cluster_s": ("evaluate.cluster",),
    "evaluate.render_s": ("evaluate.render",),
    "evaluate.self_s": ("evaluate.grid", "evaluate.cell"),
    "evaluate.augment_s": ("evaluate.augment",),
    **{f"transforms.{kind}_s": (f"transforms.{kind}",) for kind in transforms.KINDS},
    "centrality.closeness_s": ("centrality.closeness",),
    "centrality.betweenness_s": ("centrality.betweenness",),
    "centrality.eigenvector_s": ("centrality.eigenvector",),
    "spectral.encoding_s": ("spectral.encoding",),
    "spectral.jacobi_s": ("spectral.jacobi",),
    "wl.wl1_s": ("wl.wl1",),
    "wl.wlk_s": ("wl.wlk",),
    "models.gin_s": ("models.gin",),
    "models.pna_s": ("models.pna",),
    "models.ds_s": ("models.ds",),
    "graphs.iso_s": ("graphs.iso",),
    "graphs.parse_graph6_s": ("graphs.parse_graph6",),
    "graphs.parse_edge_list_s": ("graphs.parse_edge_list",),
    "corpus.library_s": ("corpus.library",),
    "corpus.load_s": ("corpus.load",),
    "corpus.pairs_s": ("corpus.pairs",),
}

# Inclusive times: metric name -> span name.
INCLUSIVE_TIMES = {
    "corpus.verify_s": "corpus.verify",
}


def _graph_key(g) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((g.n, g.edges, g.features.shape)).encode())
    h.update(g.features.tobytes())
    return h.digest()


class Tracer:
    """Spans, work counts and raised exceptions of one pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self._open: list[int] = []
        self.work: Counter[str] = Counter()
        self.raised: Counter[tuple[str, str]] = Counter()
        self._seen: defaultdict[str, set] = defaultdict(set)

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn inside a span named `name`."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent))
        self._open.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.raised[(name, type(exc).__name__)] += 1
            raise
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = (name, start, end, parent)

    def distinct(self, counter: str, key) -> None:
        """Count `key` under `counter` the first time it is seen."""
        if key not in self._seen[counter]:
            self._seen[counter].add(key)
            self.work[counter] += 1

    def patch(self, module, attr: str, name, observe=None) -> None:
        """Trace `module.attr` as the module's own code looks it up.

        `name` is a span name or a function of the call's arguments.
        `observe(result, *args, **kwargs)` counts work after a call returns.
        """
        original = getattr(module, attr, None)
        if not callable(original):
            raise TraceError(f"{module.__name__}.{attr} is not there to trace")

        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            result = self.call(label, original, *args, **kwargs)
            if observe is not None:
                # In a span of its own, so no layer's self time holds it.
                self.call("trace.observe", observe, result, *args, **kwargs)
            return result

        setattr(module, attr, traced)

    def metrics(self) -> dict[str, float]:
        own: defaultdict[str, float] = defaultdict(float)
        total: defaultdict[str, float] = defaultdict(float)
        calls: Counter[str] = Counter()
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        out = {m: float(sum(calls[n] for n in names)) for m, names in CALLS.items()}
        out.update((m, float(self.work[m])) for m in WORK)
        out["wl.wlk_refused"] = float(self.raised[("wl.wlk", "ResourceLimitError")])
        apply_calls = out["transforms.apply_calls"]
        out["transforms.reuse_ratio"] = (
            out["transforms.apply_distinct"] / apply_calls if apply_calls else 0.0
        )
        out.update((m, sum(own[n] for n in names)) for m, names in SELF_TIMES.items())
        out.update((m, total[n]) for m, n in INCLUSIVE_TIMES.items())
        return out

    def write(self, path: str, pass_id: str) -> None:
        """Append this pass's spans to a JSON-lines file."""
        with open(path, "a") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([pass_id, name, start, end, parent]) + "\n")


def install(tracer: Tracer) -> None:
    """Patch every traced call site. Raises TraceError if one is missing."""
    work = tracer.work

    def on_apply(result, spec, g):
        tracer.distinct("transforms.apply_distinct", (spec, _graph_key(g)))

    def on_jacobi(result, a, *args, **kwargs):
        work["spectral.jacobi_n3"] += len(a) ** 3
        tracer.distinct("spectral.jacobi_distinct", hashlib.blake2b(a.tobytes()).digest())

    def on_wlk(sig, g, k, *args, **kwargs):
        work["wl.wlk_rounds"] += sig.rounds
        work["wl.wlk_tuple_ops"] += g.n**k * k * g.n * sig.rounds

    def on_forward(result, params, g):
        work["models.node_rows"] += g.n

    def on_cluster(result, vectors, eps):
        work["evaluate.cluster_rows"] += len(vectors)

    patches = [
        # calls the pass itself makes into the package
        (corpus, "hard_pair_library", "corpus.library", None),
        (corpus, "load_dataset", "corpus.load", None),
        (corpus, "pairs_from_graphs", "corpus.pairs", None),
        (evaluate, "augment_with_iso_pairs", "evaluate.augment", None),
        (evaluate, "evaluate_grid", "evaluate.grid", None),
        (evaluate, "report_table", "evaluate.render", None),
        # calls between the package's modules
        (corpus, "parse_graph6", "graphs.parse_graph6", None),
        (corpus, "parse_edge_list", "graphs.parse_edge_list", None),
        (corpus, "are_isomorphic", "graphs.iso", None),
        (evaluate, "verify_pair_labels", "corpus.verify", None),
        (evaluate, "are_isomorphic", "graphs.iso", None),
        (evaluate, "evaluate_pairs", "evaluate.cell", None),
        (evaluate, "apply_transform", lambda spec, g: f"transforms.{spec.kind}", on_apply),
        (evaluate, "cluster_embeddings", "evaluate.cluster", on_cluster),
        (evaluate, "wl1_signature", "wl.wl1", None),
        (evaluate, "wlk_signature", "wl.wlk", on_wlk),
        (evaluate, "init_model", "models.init", None),
        (evaluate, "forward", lambda params, g: f"models.{params.arch}", on_forward),
        (transforms, "closeness_centrality", "centrality.closeness", None),
        (transforms, "betweenness_centrality", "centrality.betweenness", None),
        (transforms, "eigenvector_centrality", "centrality.eigenvector", None),
        (transforms, "laplacian_encoding_columns", "spectral.encoding", None),
        (spectral, "jacobi_eigh", "spectral.jacobi", on_jacobi),
    ]
    for module, attr, name, observe in patches:
        tracer.patch(module, attr, name, observe)
