#!/usr/bin/env python3
"""Relabeling-consistency study over seeded random graphs.

For each transform, applies it to a graph and to a randomly relabeled
copy, then checks whether the two results still look identical: equal
1-WL digests for every transform, and equal quantized feature row
multisets for the spectral encoding, whose eigenvector signs are the one
place consistency can break. Reported per transform as a failure rate;
the spectral encoding is also broken out on the subset of graphs whose
Laplacian spectrum has no near-degenerate eigenvalue pairs, where the
sign-fixed mode is expected to be perfectly stable.
"""

import argparse
import sys

import numpy as np

from isobench import (
    Permutation,
    TransformSpec,
    all_method_specs,
    apply_permutation,
    apply_transform,
    erdos_renyi,
    quantize_matrix,
    simple_spectrum,
    wl1_signature,
)


def row_multiset(g, eps: float):
    return tuple(sorted(map(tuple, quantize_matrix(g.features, eps))))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=200, help="graph/permutation draws")
    ap.add_argument("--n-min", type=int, default=10)
    ap.add_argument("--n-max", type=int, default=20)
    ap.add_argument("--quant-eps", type=float, default=1e-6)
    args = ap.parse_args(argv)

    specs = [s for s in all_method_specs() if s.kind != "graph_encoding"]
    raw = TransformSpec(kind="graph_encoding", sign_mode="raw")
    fnp = TransformSpec(kind="graph_encoding", sign_mode="first_nonzero_positive")

    wl_breaks = {s.kind: 0 for s in specs}
    feature_breaks = {"graph_encoding (raw)": 0, "graph_encoding (sign-fixed)": 0}
    subset_breaks = 0
    subset_size = 0
    for trial in range(args.trials):
        rng = np.random.default_rng(trial)
        n = int(rng.integers(args.n_min, args.n_max + 1))
        p = 0.2 if trial % 2 == 0 else 0.5
        g = erdos_renyi(n, p, seed=trial)
        h = apply_permutation(g, Permutation(tuple(int(x) for x in rng.permutation(n))))

        for spec in specs:
            a, b = apply_transform(spec, g), apply_transform(spec, h)
            if wl1_signature(a).digest != wl1_signature(b).digest:
                wl_breaks[spec.kind] += 1
        for label, spec in [
            ("graph_encoding (raw)", raw),
            ("graph_encoding (sign-fixed)", fnp),
        ]:
            a, b = apply_transform(spec, g), apply_transform(spec, h)
            broke = row_multiset(a, args.quant_eps) != row_multiset(b, args.quant_eps)
            if broke:
                feature_breaks[label] += 1
            if label.endswith("(sign-fixed)") and simple_spectrum(g):
                subset_size += 1
                if broke:
                    subset_breaks += 1

    width = max(len(k) for k in list(wl_breaks) + list(feature_breaks)) + 2
    print(f"{'transform':<{width}}broken / {args.trials}  check")
    for kind, count in wl_breaks.items():
        print(f"{kind:<{width}}{count:>6} / {args.trials}  wl1 digest")
    for label, count in feature_breaks.items():
        print(f"{label:<{width}}{count:>6} / {args.trials}  feature rows")
    print(
        f"{'  on simple spectra':<{width}}{subset_breaks:>6} / {subset_size}  feature rows"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
