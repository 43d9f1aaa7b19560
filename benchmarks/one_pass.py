"""One benchmark pass, run in a fresh process by run.py.

    python3 one_pass.py <workload> <input file> [<trace file>]

Builds the workload's PairDataset the way `isobench evaluate` does before
its first cell (set-up), then runs `evaluate_grid` + `report_table` (the
grid), and prints one JSON object with both times, the peak resident
memory, the CSV report and the time of a fixed calibration loop run
before set-up and after the grid. Given a trace file, it traces the
package's layers, appends the spans there and adds the per-layer metrics.

Every package call goes through a module attribute, so the tracer's
patches see the calls this file makes too.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import numpy as np

import isobench
import isobench.corpus as corpus
import isobench.evaluate as evaluate
import isobench.transforms as transforms

from workloads import SEED_DATA, WORKLOADS

LIBRARY_INPUT = "hard_pairs"


def calibrate() -> float:
    """Seconds a fixed loop that uses no isobench code takes right now.

    It does Python hashing and dictionary work, numpy calls on tiny arrays,
    and row differences over a 4096 x 16 array, in time shares of about
    1:1:3. On recorded passes of all three workloads, that mix gave the
    steadiest ratio of grid time to calibration time. Its time follows the
    speed of a shared machine, and no change to the package can move it.
    It must never change, because run.py scales the reported times by it.
    """
    start = time.perf_counter()
    counts: dict[bytes, int] = {}
    for i in range(20000):
        key = hashlib.blake2b(i.to_bytes(4, "little"), digest_size=16).digest()[:1]
        counts[key] = counts.get(key, 0) + 1
    x = np.linspace(-1.0, 1.0, 16)
    w = np.full((16, 16), 1.0 / 16)
    for _ in range(6000):
        x = np.tanh(x @ w + 0.1)
    rows = np.linspace(0.0, 1.0, 4096 * 16).reshape(4096, 16)
    for i in range(0, 4096, 16):
        np.max(np.abs(rows[i + 1 :] - rows[i]), axis=1)
    return time.perf_counter() - start


def set_up(w, path: str):
    """The dataset and transform specs, as the evaluate subcommand builds them."""
    pairs = list(corpus.hard_pair_library().pairs) if w.library else []
    graphs = corpus.load_dataset(path)
    origin = os.path.splitext(os.path.basename(path))[0]
    pairs += corpus.pairs_from_graphs(graphs, origin, isomorphic=False).pairs
    ds = evaluate.PairDataset(tuple(pairs), SEED_DATA)
    if w.augment:
        extra = evaluate.augment_with_iso_pairs(ds.graphs, w.augment, SEED_DATA)
        ds = evaluate.PairDataset(ds.pairs + extra.pairs, SEED_DATA)
    specs = [transforms.parse_transform_token(t) for t in w.transforms]
    return ds, specs


def run_grid(w, ds, specs) -> tuple[str, list[str]]:
    rows = evaluate.evaluate_grid(ds, specs, list(w.embedders))
    inputs = ([LIBRARY_INPUT] if w.library else []) + [w.input_file]
    meta = {
        "tool": f"isobench {isobench.__version__}",
        "input": ",".join(inputs),
        "format": "auto",
        "transforms": ",".join(w.transforms),
        "embedders": ",".join(w.embedders),
        "eps": evaluate.DEFAULT_CLUSTER_EPS,
        "quant_eps": evaluate.DEFAULT_EPS,
        "seed_data": SEED_DATA,
        "seed_model": 0,
        "augment": w.augment,
        "pairs": len(ds.pairs),
        "unverified_pairs": ds.unverified_count,
    }
    report = evaluate.report_table(rows, "csv", meta)
    notes = [f"{r.method}/{r.embedder}: {note}" for r in rows for note in r.notes]
    return report, notes


def main(argv: list[str]) -> int:
    name, path = argv[0], argv[1]
    trace_file = argv[2] if len(argv) > 2 else None
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(isobench.__file__).resolve().parents:
        raise RuntimeError(f"isobench imported from {isobench.__file__}, not from {src}")
    w = WORKLOADS[name]

    tracer = None
    if trace_file:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    calibration_s = calibrate()
    start = time.perf_counter()
    ds, specs = set_up(w, path)
    setup_s = time.perf_counter() - start
    start = time.perf_counter()
    report, notes = run_grid(w, ds, specs)
    grid_s = time.perf_counter() - start
    calibration_s = (calibration_s + calibrate()) / 2

    out = {
        "setup_s": setup_s,
        "grid_s": grid_s,
        "calibration_s": calibration_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "iso_pairs": sum(1 for p in ds.pairs if p.isomorphic),
        "noniso_pairs": sum(1 for p in ds.pairs if not p.isomorphic),
        "report": report,
        "notes": notes,
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        tracer.write(trace_file, f"{name}-{os.getpid()}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
