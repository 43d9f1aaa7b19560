"""Pinned model embeddings: every forward pass must keep its exact bits.

Each digest is BLAKE2b over the raw float64 bytes of `forward` for one
(transform, architecture) cell, taken over a fixed corpus in a fixed
order with model seed 0. The corpus holds both sides of every hard pair,
seeded G(n, p) graphs with isolated nodes and two or three feature
columns (signed zeros included), and a seeded relabeled copy of each.

The digests are pinned on this platform only: x86-64 Linux, CPython
3.11, numpy 2.4 with its bundled OpenBLAS 0.3. Another BLAS or libm may
round matrix products, tanh or log1p differently, and then the digests
move while the oracle test below still holds.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isobench import (
    Graph,
    Permutation,
    TransformSpec,
    all_method_specs,
    apply_permutation,
    apply_transform,
    erdos_renyi,
    forward,
    hard_pair_library,
    init_model,
)

from helpers import graphs, reference_forward

ARCHS = ("gin", "pna", "ds")
SPECS = all_method_specs("raw") + (
    TransformSpec(kind="graph_encoding", sign_mode="first_nonzero_positive"),
)


def _with_features(g: Graph, d: int, seed: int) -> Graph:
    rng = np.random.Generator(np.random.PCG64(seed))
    feats = np.round(rng.uniform(-2.0, 2.0, size=(g.n, d)), 1)
    feats[feats == 0.0] = -0.0
    feats[::4, 0] = -0.0
    return Graph(g.n, g.edges, feats)


def _corpus() -> list[Graph]:
    out = []
    for pair in hard_pair_library().pairs:
        out += [pair.left, pair.right]
    out += [
        erdos_renyi(12, 0.12, 1),
        erdos_renyi(9, 0.3, 2),
        _with_features(erdos_renyi(14, 0.1, 3), 2, 3),
        _with_features(erdos_renyi(11, 0.25, 4), 3, 4),
        _with_features(Graph(5, ((0, 1), (1, 2))), 2, 5),
        Graph(1),
    ]
    rng = np.random.Generator(np.random.PCG64(7))
    out += [apply_permutation(g, Permutation.random(g.n, rng)) for g in out]
    return out


CORPUS = _corpus()

GOLDEN = {
    "base": {"gin": "dd7d271887a4e449234184e433e0f27e", "pna": "300daad12fc0de6471b53a89de6392df", "ds": "fe183d815644ab34bc4f6481dd016606"},
    "virtual_node": {"gin": "7aabc067a8916a848792d505b0a6aa90", "pna": "9e5af93cb97607d416e94694cc3be139", "ds": "0fa0a6cb22c0bb11e73594d5157b7b6f"},
    "degree": {"gin": "9a2f31c3657cc27981240f416123c50c", "pna": "1a70d3f34c1e85b36d4c6dcedc966caf", "ds": "6481c3383bdfc425dd31d7f2df6e28ad"},
    "closeness": {"gin": "fc30331e93a93e849100ed558282027b", "pna": "3a61c8274e768cc8e2c15fc9333f6c57", "ds": "40f1623916287e9626e04b71d4f0dd20"},
    "betweenness": {"gin": "505f48486e7b2599065a26c96cad04e3", "pna": "60007bc1ec2b9ea8c682f31078696edc", "ds": "dff053b3ca7fbf08345fc96ef769095e"},
    "eigenvector": {"gin": "4fb23317bca13652e02b1c9253fae2d4", "pna": "5aae0aedbd77cdf30813183083ef5ab3", "ds": "6e9a04bf2d5417875aadc505780de22c"},
    "distance_encoding": {"gin": "1e30541d623c9ef8dbc638b116d2543f", "pna": "517d9b75aea565678947db5d8b750ccb", "ds": "847ffe1e9a06510510b8fe4f57ecfcdc"},
    "graph_encoding:raw": {"gin": "9fa20689d6fd196cc1ada36542b2fd1f", "pna": "c5571eaad17471ffbe3e44742dec45ee", "ds": "1bd1006212e4ff29ac5b99fd122554f2"},
    "subgraph_extraction": {"gin": "77d95988919b131de0a8e94e508a7684", "pna": "cd0f470da67305ebdbaff068cdb5715c", "ds": "b4e1dbba24bed73d8890343d52c8fcfe"},
    "extra_node": {"gin": "aea3536468d819db10f8026561616e3e", "pna": "496ce83c5f3ca5ea1bd3806d1b830ade", "ds": "86d4c3560ebc5f75f6a9737c19dddcc2"},
    "graph_encoding:first_nonzero_positive": {"gin": "fa17fe95721e2bc641866dee250b4267", "pna": "541fb957e2d3423345233f7373646416", "ds": "adf18c04e17c96ccac641866edd664f6"},
}


def _digests(spec) -> dict[str, str]:
    hashes = {arch: hashlib.blake2b(digest_size=16) for arch in ARCHS}
    for g in CORPUS:
        t = apply_transform(spec, g)
        for arch in ARCHS:
            e = forward(init_model(arch, t.d, 0), t)
            hashes[arch].update(np.ascontiguousarray(e, dtype=np.float64).tobytes())
    return {arch: h.hexdigest() for arch, h in hashes.items()}


def _label(spec) -> str:
    return f"{spec.kind}:{spec.sign_mode}" if spec.kind == "graph_encoding" else spec.kind


def test_corpus_has_isolated_nodes_and_wide_features():
    assert any(g.d > 1 and np.any(g.degrees == 0) for g in CORPUS)
    assert any(np.any(np.signbit(g.features) & (g.features == 0.0)) for g in CORPUS)


@pytest.mark.parametrize("spec", SPECS, ids=_label)
def test_embeddings_match_pinned_digests(spec):
    assert _digests(spec) == GOLDEN[_label(spec)]


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=12, feature_dims=3), st.sampled_from(ARCHS), st.integers(0, 3))
def test_forward_matches_per_node_reference_bytes(g, arch, seed):
    m = init_model(arch, g.d, seed)
    assert forward(m, g).tobytes() == reference_forward(m, g).tobytes()
