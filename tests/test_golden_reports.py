"""Pinned report bytes and refinement digests over a fixed corpus.

The corpus is the bundled hard-pair library plus three relabeled
isomorphic controls drawn with `augment_with_iso_pairs(..., 3, seed=0)`.
Every transform kind (graph_encoding in both sign modes) is crossed with
the wl1, gin and ds embedders, and the rendered report is hashed with
BLAKE2b in each output format, with `timing=False` so the seconds column
is the 0.000 placeholder. One grid carries a metadata block, the other
is split by origin and carries none. A second table pins, per
transform, one digest over the wl1 and wl2 signature digests of every
transformed graph in corpus order.

The digests are pinned on this platform only: x86-64 Linux, CPython
3.11, numpy 2.4 with its bundled OpenBLAS 0.3. Model cells depend on
floating-point rounding there, so another BLAS or libm may move a
report digest without any change to the package.
"""

import hashlib

import pytest

from isobench import (
    PairDataset,
    TransformSpec,
    all_method_specs,
    apply_transform,
    augment_with_iso_pairs,
    evaluate_grid,
    hard_pair_library,
    report_table,
    wl1_signature,
    wlk_signature,
)

EMBEDDERS = ("wl1", "gin", "ds")
SPECS = all_method_specs("raw") + (
    TransformSpec(kind="graph_encoding", sign_mode="first_nonzero_positive"),
)
META = {"tool": "golden", "eps": 1e-5}

REPORT_GOLDEN = {
    ("all", "csv"): "f19b2a3c73999d9a40091970c56a7ddf",
    ("all", "md"): "35a7754027669bb84049861000c9a4de",
    ("all", "jsonl"): "9cda2a89688d39f39ecdf362a8481072",
    ("by_origin", "csv"): "5b97abda32a0f22390a673178bab5fcb",
    ("by_origin", "md"): "d3354bcb2c344cda4846d8524a355b09",
    ("by_origin", "jsonl"): "9cc164829c9b99987ef56879ff539844",
}

WL_GOLDEN = {
    "base": "b2ce0fb006e058c240ce1f27e298695d",
    "virtual_node": "d5dffaf429b933210a42f27e12e1fe9f",
    "degree": "9a4ed9aa542d5991d0523d08189534ac",
    "closeness": "e7702c972d8335315046661f9e493a33",
    "betweenness": "b5ff6c1e85a3b57a81028d9ebb5f48ec",
    "eigenvector": "34420dcfe91535832932fdeda2dffe5c",
    "distance_encoding": "ba12b7df4e3c81f1192d097dafe620f8",
    "graph_encoding:raw": "1acdd1636ff8d9238d99c6afdcc1c09a",
    "subgraph_extraction": "08015d479b527648134773bb1d8f858b",
    "extra_node": "9394e5ff0f5b6c3634debddc2541252b",
    "graph_encoding:first_nonzero_positive": "e392336afc2913560ed8293b1539bd49",
}


def _label(spec) -> str:
    return f"{spec.kind}:{spec.sign_mode}" if spec.kind == "graph_encoding" else spec.kind


@pytest.fixture(scope="module")
def corpus() -> PairDataset:
    lib = hard_pair_library()
    extra = augment_with_iso_pairs(lib.graphs, 3, seed=0)
    return PairDataset(lib.pairs + extra.pairs, 0)


@pytest.fixture(scope="module")
def reports(corpus) -> dict[tuple[str, str], str]:
    grid = evaluate_grid(corpus, SPECS, EMBEDDERS)
    by_origin = evaluate_grid(corpus, SPECS, EMBEDDERS, by_origin=True)
    out = {}
    for fmt in ("csv", "md", "jsonl"):
        out[("all", fmt)] = report_table(grid, fmt, META, timing=False)
        out[("by_origin", fmt)] = report_table(by_origin, fmt, timing=False)
    return out


@pytest.mark.parametrize("key", sorted(REPORT_GOLDEN), ids="/".join)
def test_report_matches_pinned_digest(reports, key):
    digest = hashlib.blake2b(reports[key].encode(), digest_size=16).hexdigest()
    assert digest == REPORT_GOLDEN[key]


@pytest.mark.parametrize("spec", SPECS, ids=_label)
def test_wl_signatures_match_pinned_digest(corpus, spec):
    h = hashlib.blake2b(digest_size=16)
    for g in corpus.graphs:
        t = apply_transform(spec, g)
        h.update(bytes.fromhex(wl1_signature(t).digest))
        h.update(bytes.fromhex(wlk_signature(t, 2).digest))
    assert h.hexdigest() == WL_GOLDEN[_label(spec)]
