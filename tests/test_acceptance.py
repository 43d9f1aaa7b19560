"""End-to-end acceptance gate.

Each test prints one verdict line on the unbuffered terminal stream so
the PASS/FAIL record survives pytest's output capture, then asserts it.
Tolerances are stated inline; everything else is exact.
"""

import sys
import time
from contextlib import redirect_stdout
from io import StringIO

import numpy as np
import pytest

from isobench import (
    LabeledPair,
    Permutation,
    TransformSpec,
    all_method_specs,
    apply_permutation,
    apply_transform,
    are_isomorphic,
    betweenness_centrality,
    closeness_centrality,
    cluster_embeddings,
    complete,
    cycle,
    disjoint_cycles,
    eigenvector_centrality,
    erdos_renyi,
    evaluate_pairs,
    forward,
    hard_pair_library,
    init_model,
    make_pair_dataset,
    parse_graph6,
    path,
    quantize_matrix,
    rook4x4,
    shrikhande,
    simple_spectrum,
    star,
    wl1_signature,
    wlk_signature,
    write_graph6,
)
from isobench.cli import main as cli_main

from helpers import canonical_key

_SESSION_T0 = time.perf_counter()

_CAPMAN = None


@pytest.fixture(autouse=True, scope="module")
def _capture_manager(request):
    # File-descriptor capture would swallow the verdict lines; keep a
    # handle so _report can print through a capture-disabled window.
    global _CAPMAN
    _CAPMAN = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    if _CAPMAN is not None:
        with _CAPMAN.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def relabel_trials():
    """200 seeded graphs with a random relabeling each.

    Sizes 10..20, edge density alternating between sparse and dense, and
    a flag marking graphs whose normalized-Laplacian eigenvalue gaps all
    exceed 1e-6 (the domain where the sign-fixed spectral encoding
    promises relabeling consistency).
    """
    out = []
    for trial in range(200):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(10, 21))
        p = 0.2 if trial % 2 == 0 else 0.5
        g = erdos_renyi(n, p, seed=trial)
        perm = Permutation(tuple(int(x) for x in rng.permutation(n)))
        out.append((g, apply_permutation(g, perm), simple_spectrum(g, gap=1e-6)))
    return out


def test_01_isomorphism_preservation(relabel_trials):
    specs = [s for s in all_method_specs() if s.kind != "graph_encoding"]
    fnp = TransformSpec(kind="graph_encoding", sign_mode="first_nonzero_positive")
    t0 = time.perf_counter()
    failures = []
    subset = 0
    for trial, (g, h, simple) in enumerate(relabel_trials):
        for spec in specs:
            tg, th = apply_transform(spec, g), apply_transform(spec, h)
            if wl1_signature(tg).digest != wl1_signature(th).digest:
                failures.append((trial, spec.kind, "wl1"))
            if not are_isomorphic(tg, th, max_nodes=300).isomorphic:
                failures.append((trial, spec.kind, "iso"))
        if simple:
            subset += 1
            tg, th = apply_transform(fnp, g), apply_transform(fnp, h)
            if wl1_signature(tg).digest != wl1_signature(th).digest:
                failures.append((trial, "graph_encoding", "wl1"))
            if not are_isomorphic(tg, th, max_nodes=300).isomorphic:
                failures.append((trial, "graph_encoding", "iso"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _report(
        1,
        "isomorphism_preservation",
        ok,
        f"200 trials x {len(specs)} transforms, sign-fixed spectral on "
        f"{subset} simple-spectrum graphs, {len(failures)} failures, {elapsed:.1f}s",
    )


def test_02_spectral_sign_ambiguity(relabel_trials):
    def row_multiset(g):
        return tuple(sorted(map(tuple, quantize_matrix(g.features, 1e-6))))

    raw = TransformSpec(kind="graph_encoding", sign_mode="raw")
    fnp = TransformSpec(kind="graph_encoding", sign_mode="first_nonzero_positive")
    raw_mismatches = 0
    subset = 0
    fnp_all = 0
    fnp_mismatches = 0
    for g, h, simple in relabel_trials:
        if row_multiset(apply_transform(raw, g)) != row_multiset(apply_transform(raw, h)):
            raw_mismatches += 1
        broke = row_multiset(apply_transform(fnp, g)) != row_multiset(apply_transform(fnp, h))
        fnp_all += broke
        if simple:
            subset += 1
            fnp_mismatches += broke
    ok = raw_mismatches >= 1 and fnp_mismatches == 0
    _report(
        2,
        "spectral_sign_ambiguity",
        ok,
        f"raw mismatches {raw_mismatches}/200, sign-fixed mismatches {fnp_all}/200, "
        f"{fnp_mismatches}/{subset} on simple spectra",
    )


def test_03_wl1_hardness_baseline():
    checks = []
    for a, b in [(cycle(6), disjoint_cycles([3, 3])), (rook4x4(), shrikhande())]:
        same_wl = wl1_signature(a).digest == wl1_signature(b).digest
        noniso = not are_isomorphic(a, b).isomorphic
        checks.append(same_wl and noniso)
    ok = all(checks)
    _report(3, "wl1_hardness_baseline", ok, "2 pairs: wl1-equal yet non-isomorphic")


def test_04_feature_augmentation_helps():
    a, b = cycle(6), disjoint_cycles([3, 3])
    verdicts = {}
    for kind in [
        "closeness",
        "distance_encoding",
        "subgraph_extraction",
        "degree",
        "virtual_node",
        "extra_node",
    ]:
        spec = TransformSpec(kind=kind)
        verdicts[kind] = (
            wl1_signature(apply_transform(spec, a)).digest
            != wl1_signature(apply_transform(spec, b)).digest
        )
    ok = (
        verdicts["closeness"]
        and verdicts["distance_encoding"]
        and verdicts["subgraph_extraction"]
        and not verdicts["degree"]
        and not verdicts["virtual_node"]
        and not verdicts["extra_node"]
    )
    detail = ", ".join(f"{k}={'split' if v else 'same'}" for k, v in verdicts.items())
    _report(4, "feature_augmentation_helps", ok, detail)


def test_05_hard_regular_pair_resists():
    a, b = rook4x4(), shrikhande()
    still_equal = []
    for kind in ["degree", "closeness", "distance_encoding"]:
        spec = TransformSpec(kind=kind)
        still_equal.append(
            wl1_signature(apply_transform(spec, a)).digest
            == wl1_signature(apply_transform(spec, b)).digest
        )
    wl3_equal = wlk_signature(a, 3).digest == wlk_signature(b, 3).digest
    ok = all(still_equal) and wl3_equal
    _report(
        5,
        "hard_regular_pair_resists",
        ok,
        f"3 transforms leave wl1 blind, 3-WL blind={wl3_equal}",
    )


def test_06_model_splits_within_wl1():
    lib = hard_pair_library()
    specs = list(all_method_specs("raw"))
    specs += [s for s in all_method_specs("first_nonzero_positive") if s.kind == "graph_encoding"]
    violations = []
    model_splits = 0
    for spec in specs:
        for pair in lib.pairs:
            tg = apply_transform(spec, pair.left)
            th = apply_transform(spec, pair.right)
            wl_split = wl1_signature(tg).digest != wl1_signature(th).digest
            for seed in range(5):
                m = init_model("gin", tg.d, seed)
                labels = cluster_embeddings(
                    np.stack([forward(m, tg), forward(m, th)]), 1e-5
                )
                if labels[0] != labels[1]:
                    model_splits += 1
                    if not wl_split:
                        violations.append((spec.kind, pair.origin, seed))
    ok = not violations
    _report(
        6,
        "model_splits_within_wl1",
        ok,
        f"{len(specs)} transforms x {len(lib.pairs)} pairs x 5 seeds, "
        f"{model_splits} model splits, {len(violations)} violations",
    )


def test_07_metric_arithmetic():
    pairs = []
    rng = np.random.default_rng(7)
    for i in range(10):
        g = erdos_renyi(5 + i % 3, 0.5, seed=100 + i)
        p = Permutation.random(g.n, rng)
        pairs.append(LabeledPair(g, apply_permutation(g, p), True, "synthetic", False))
    for a, b in [
        (cycle(4), path(4)),
        (cycle(5), path(5)),
        (cycle(6), path(6)),
        (cycle(7), path(7)),
        (star(4), complete(4)),
        (star(5), complete(5)),
        (star(6), complete(6)),
        (star(7), complete(7)),
        (disjoint_cycles([3, 3]), cycle(6)),
        (disjoint_cycles([3, 4]), star(7)),
    ]:
        pairs.append(LabeledPair(a, b, False, "synthetic", False))
    ds = make_pair_dataset(pairs)
    class_count = len({canonical_key(g) for g in ds.graphs})

    base = TransformSpec(kind="base")
    oracle = evaluate_pairs(ds, base, lambda g: canonical_key(g))
    const = evaluate_pairs(ds, base, lambda g: b"x")
    ok = (
        oracle.ecc == class_count
        and (oracle.fp, oracle.fn) == (0, 0)
        and const.ecc == 1
        and (const.fp, const.fn) == (0, 10)
    )
    _report(
        7,
        "metric_arithmetic",
        ok,
        f"oracle ecc={oracle.ecc} (classes={class_count}) fp={oracle.fp} fn={oracle.fn}; "
        f"constant ecc={const.ecc} fp={const.fp} fn={const.fn}",
    )


def test_08_closed_form_numerics():
    betw_ok = all(
        np.allclose(
            betweenness_centrality(path(n)),
            [i * (n - 1 - i) for i in range(n)],
            atol=1e-9,
        )
        for n in range(3, 10)
    )
    eig = eigenvector_centrality(star(4))
    eig_ok = np.allclose(
        eig, [1 / np.sqrt(2), 1 / np.sqrt(6), 1 / np.sqrt(6), 1 / np.sqrt(6)], atol=1e-6
    )
    close_ok = np.allclose(
        closeness_centrality(disjoint_cycles([3, 3])), 0.4, atol=1e-4
    ) and np.allclose(closeness_centrality(cycle(6)), 0.5556, atol=1e-4)
    ok = betw_ok and eig_ok and close_ok
    _report(
        8,
        "closed_form_numerics",
        ok,
        f"path betweenness n=3..9 ok={betw_ok}, hub-and-spokes eigenvector "
        f"ok={eig_ok}, cycle closeness ok={close_ok}",
    )


def test_09_size_laws():
    vn = TransformSpec(kind="virtual_node")
    en = TransformSpec(kind="extra_node")
    rng = np.random.default_rng(0)
    bad = 0
    for i in range(1000):
        n = int(rng.integers(1, 26))
        p = float(rng.uniform(0.0, 1.0))
        g = erdos_renyi(n, p, seed=i)
        m = len(g.edges)
        tg = apply_transform(vn, g)
        if tg.n != n + 1 or len(tg.edges) != m + n:
            bad += 1
        tg = apply_transform(en, g)
        if tg.n != n + m or len(tg.edges) != 2 * m:
            bad += 1
    ok = bad == 0
    _report(9, "size_laws", ok, f"1000 graphs, {bad} deviations")


def test_10_determinism_and_format():
    argv = [
        "evaluate",
        "--input",
        "hard_pairs",
        "--transform",
        "base",
        "--transform",
        "degree",
        "--transform",
        "graph_encoding:k=4,sign=first_nonzero_positive",
        "--embedder",
        "wl1",
        "--embedder",
        "gin",
        "--augment",
        "2",
        "--seed-data",
        "5",
        "--seed-model",
        "3",
    ]
    outputs = []
    codes = []
    for _ in range(2):
        buf = StringIO()
        with redirect_stdout(buf):
            codes.append(cli_main(list(argv)))
        outputs.append(buf.getvalue())
    repeat_ok = codes == [0, 0] and outputs[0] == outputs[1] and outputs[0]

    corpus = list(hard_pair_library().graphs)
    rng = np.random.default_rng(42)
    for i in range(60):
        n = int(rng.integers(0, 41))
        corpus.append(erdos_renyi(n, float(rng.uniform(0, 1)), seed=1000 + i))
    round_trip_ok = all(parse_graph6(write_graph6(g)) == g for g in corpus)
    k3_ok = write_graph6(complete(3)) == "Bw" and parse_graph6("Bw") == complete(3)

    elapsed = time.perf_counter() - _SESSION_T0
    time_ok = elapsed < 300.0
    ok = bool(repeat_ok) and round_trip_ok and k3_ok and time_ok
    _report(
        10,
        "determinism_and_format",
        ok,
        f"repeat identical={bool(repeat_ok)}, {len(corpus)} round-trips ok="
        f"{round_trip_ok}, K3<->Bw ok={k3_ok}, module elapsed {elapsed:.1f}s",
    )
