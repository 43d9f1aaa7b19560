"""isobench benchmark: one workload, timed over fresh-process passes.

    python3 benchmarks/run.py --workload grid_er --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --pin

A run draws the workload's inputs from --seed and then starts passes
(benchmarks/one_pass.py) one after another, each in a new process, until
--seconds have gone by. It prints the medians over the passes:

  --trace 0  grid_s, setup_s, peak_rss_mb (the end-to-end metrics)
  --trace 1  the per-layer metrics of tracing.py, from traced passes that
             alternate with untraced ones; trace.overhead_s is the
             difference of their grid_s medians

Times are scaled to a machine of fixed speed (see CALIBRATION_S).

The last line of stdout is one JSON object: correct, attempted, failed
(pair evaluations tried and excluded because a transform or embedder
raised) and metrics. The lines above it give the Python and numpy
versions and nproc, each failed check and excluded pair, and each metric
by name and unit with its per-pass quartiles.

Correctness:
  * every run first runs one pass on the pinned reference seed and
    compares each (transform, embedder) cell with reference.json;
  * inputs of a seed with a pinned digest must match it;
  * every pass of a run must render the same report bytes, traced or not;
  * every cell must obey the invariants in cell_invariants().

--pin rewrites reference.json from the current code, for a change that
moves report cells on purpose; the diff then shows which cells moved.
"""

from __future__ import annotations

import os

# Before numpy is imported here or in a pass, which inherits the variables.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
REFERENCE = HERE / "reference.json"
BENCHMARK = ROOT / "BENCHMARK.json"

REFERENCE_SEED = 0
# Not used while the benchmark or a change is developed: a claimed gain is
# confirmed on this seed too (its inputs digest is pinned).
HELD_OUT_SEED = 90001

MIN_PASSES = 3
# Times are reported in seconds of a machine on which one_pass.calibrate()
# takes this long: each is scaled by CALIBRATION_S over the run's median
# calibration time. A shared machine's speed drifts by tens of percent
# within minutes, and the scaling removes most of that from the medians.
CALIBRATION_S = 0.1
RUN_LIMIT_S = 170.0

# Transforms whose appended features are exact functions of the graph
# (integers or ratios of integers), so relabeling cannot move them.
EXACT_FEATURE_KINDS = (
    "Base", "Virtual Node", "Degree", "Closeness", "Distance Encoding",
    "Subgraph Extraction", "Extra Node",
)


class RunError(Exception):
    """The run cannot produce a result."""


def parse_cells(report: str) -> dict[str, list[int]]:
    """"Method/embedder" -> [ecc, fn, fp, pairs, excluded] from a CSV report."""
    lines = [ln for ln in report.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    if header[:7] != ["method", "embedder", "ecc", "fn", "fp", "pairs", "excluded"]:
        raise RunError(f"unexpected report header {lines[0]!r}")
    cells = {}
    for line in lines[1:]:
        row = line.split(",")
        cells[f"{row[0]}/{row[1]}"] = [int(x) for x in row[2:7]]
    return cells


def cell_invariants(cells: dict[str, list[int]], iso: int, noniso: int) -> list[str]:
    """Rules every report must obey, whatever the seed.

    Oblivious 2-WL separates exactly the graphs 1-WL separates, so the
    wl1 and wl2 rows of a transform agree. An exact invariant never splits
    an isomorphic pair when the transform's features are exact.
    """
    wrong = []
    for name, (ecc, fn, fp, pairs, excluded) in cells.items():
        if pairs + excluded != iso + noniso:
            wrong.append(f"{name}: pairs + excluded = {pairs + excluded}, dataset has {iso + noniso}")
        if not 1 <= ecc <= 2 * pairs or fn > noniso or fp > iso:
            wrong.append(f"{name}: ecc={ecc} fn={fn} fp={fp} out of range for {pairs} pairs")
        method, embedder = name.split("/")
        if embedder == "wl2" and f"{method}/wl1" in cells:
            if cells[f"{method}/wl1"][:3] != [ecc, fn, fp]:
                wrong.append(f"{name}: ecc, fn, fp differ from {method}/wl1")
        if embedder in ("wl1", "wl2") and method in EXACT_FEATURE_KINDS and fp:
            wrong.append(f"{name}: exact invariant split {fp} isomorphic pairs")
    return wrong


def compare_cells(pinned: dict, cells: dict) -> list[str]:
    wrong = []
    for name in sorted(set(pinned) | set(cells)):
        if pinned.get(name) != cells.get(name):
            wrong.append(
                f"{name}: ecc,fn,fp,pairs,excluded = {cells.get(name)}, pinned {pinned.get(name)}"
            )
    return wrong


class Run:
    """Passes of one workload inside one run directory."""

    def __init__(self, workload: str, deadline: float):
        self.w = WORKLOADS[workload]
        self.deadline = deadline
        self.dir = WORK_DIR / f"{workload}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def write_inputs(self, seed: int, pinned: dict) -> Path:
        text, digest = self.w.generate(seed)
        expected = pinned.get("inputs", {}).get(str(seed))
        if expected is not None and expected != digest:
            raise RunError(
                f"{self.w.name} inputs for seed {seed} have digest {digest}, pinned {expected}"
            )
        path = self.dir / f"s{seed}" / self.w.input_file
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="ascii")
        return path

    def run_pass(self, path: Path, trace_file: Path | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "one_pass.py"), self.w.name, str(path)]
        if trace_file is not None:
            cmd.append(str(trace_file))
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RunError(f"no time left for a pass within {RUN_LIMIT_S:.0f} s")
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            raise RunError(f"a pass did not finish within {timeout:.0f} s") from None
        if proc.returncode != 0:
            raise RunError(f"pass exited with {proc.returncode}:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.splitlines()[-1])


def pin() -> None:
    """Rewrite reference.json from one pass per workload on the pinned seed."""
    out = {"reference_seed": REFERENCE_SEED, "held_out_seed": HELD_OUT_SEED, "workloads": {}}
    for name, w in WORKLOADS.items():
        run = Run(name, time.monotonic() + RUN_LIMIT_S)
        try:
            result = run.run_pass(run.write_inputs(REFERENCE_SEED, {}))
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)
        cells = parse_cells(result["report"])
        broken = cell_invariants(cells, result["iso_pairs"], result["noniso_pairs"])
        if broken:
            raise RunError("cannot pin a report that breaks invariants:\n" + "\n".join(broken))
        out["workloads"][name] = {
            "inputs": {str(s): w.generate(s)[1] for s in (REFERENCE_SEED, HELD_OUT_SEED)},
            "cells": cells,
        }
    text = json.dumps(out, indent=1, sort_keys=True)
    # One line per cell, so a diff of the file names the cells that moved.
    text = re.sub(r"\[\s*([^\[\]]*?)\s*\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    REFERENCE.write_text(text + "\n")
    print(f"wrote {REFERENCE.relative_to(ROOT)}")


def measure(args) -> dict:
    start = time.monotonic()
    run = Run(args.workload, start + RUN_LIMIT_S)
    pinned = json.loads(REFERENCE.read_text())["workloads"][args.workload]
    declared = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    wrong: list[str] = []
    samples: list[str] = []

    path = run.write_inputs(args.seed, pinned)
    if args.seed != REFERENCE_SEED:
        ref = run.run_pass(run.write_inputs(REFERENCE_SEED, pinned))
        wrong += [f"reference seed {REFERENCE_SEED}: {m}"
                  for m in compare_cells(pinned["cells"], parse_cells(ref["report"]))]

    trace_file = None
    if args.trace:
        trace_file = WORK_DIR / f"trace-{args.workload}-s{args.seed}-{os.getpid()}.jsonl"
        trace_file.unlink(missing_ok=True)
    passes: list[dict] = []
    traced: list[dict] = []
    while True:
        timed = passes + traced
        spent = time.monotonic() - start
        per_pass = statistics.median(p["wall_s"] for p in timed) if timed else 0.0
        if len(timed) >= MIN_PASSES * (2 if args.trace else 1) and spent + per_pass > args.seconds:
            break
        use_trace = args.trace and len(traced) < len(passes)
        t0 = time.monotonic()
        result = run.run_pass(path, trace_file if use_trace else None)
        result["wall_s"] = time.monotonic() - t0
        (traced if use_trace else passes).append(result)

    first = passes[0]
    cells = parse_cells(first["report"])
    if args.seed == REFERENCE_SEED:
        wrong += compare_cells(pinned["cells"], cells)
    wrong += cell_invariants(cells, first["iso_pairs"], first["noniso_pairs"])
    for i, p in enumerate(passes + traced):
        if p["report"] != first["report"]:
            kind = "traced pass" if i >= len(passes) else "pass"
            wrong.append(f"{kind} {i}: report bytes differ from the first pass")
    notes = sorted({n for p in passes for n in p["notes"]})

    def median(key: str, group: list[dict]) -> float:
        return statistics.median(p[key] for p in group)

    scale = CALIBRATION_S / median("calibration_s", passes + traced)
    samples.append(f"calibration_s: median {median('calibration_s', passes + traced):.6g} s, "
                   f"times scaled by {scale:.6g}")
    if args.trace:
        values = {}
        for key in traced[0]["layers"]:
            seen = [p["layers"][key] for p in traced]
            if units.get(key) == "s":
                values[key] = statistics.median(seen) * scale
            else:
                if len(set(seen)) != 1:
                    wrong.append(f"layer count {key} differs between traced passes: {seen}")
                values[key] = seen[0]
        values["trace.overhead_s"] = (median("grid_s", traced) - median("grid_s", passes)) * scale
    else:
        values = {}
        for key, unit in units.items():
            seen = [p[key] for p in passes]
            values[key] = statistics.median(seen) * (scale if unit == "s" else 1.0)
            quartiles = ", ".join(f"{q:.6g}" for q in statistics.quantiles(seen, n=4))
            samples.append(f"{key}: unscaled min {min(seen):.6g}, quartiles {quartiles} "
                           f"of {len(seen)} passes")
    if set(values) != set(units):
        raise RunError(
            f"metrics {sorted(set(values) ^ set(units))} are not both measured and in BENCHMARK.json"
        )

    runs = len(passes) + len(traced)
    return {
        "wrong": wrong,
        "notes": notes,
        "passes": len(passes),
        "traced": len(traced),
        "attempted": runs * sum(c[3] + c[4] for c in cells.values()),
        "failed": runs * sum(c[4] for c in cells.values()),
        "metrics": {key: (values[key], unit) for key, unit in units.items()},
        "trace_file": trace_file,
        "samples": samples,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite reference.json and exit")
    args = parser.parse_args(argv)
    if not (SRC / "isobench" / "__init__.py").is_file():
        print(f"run.py: no isobench package under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None and not args.pin:
        parser.error("--workload is required")

    # A terminated run still stops its pass and removes its directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    WORK_DIR.mkdir(exist_ok=True)
    try:
        if args.pin:
            pin()
            return 0
        out = measure(args)
    except RunError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_DIR / f"{args.workload}-{os.getpid()}", ignore_errors=True)

    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "passes": out["passes"],
        "traced_passes": out["traced"],
    }
    print("env " + json.dumps(env, sort_keys=True))
    for line in out["wrong"]:
        print(f"wrong {args.workload}: {line}")
    for note in out["notes"]:
        print(f"excluded {args.workload}: {note}")
    print(f"{args.workload} wrong_cells = {len(out['wrong'])} count")
    print(f"{args.workload} excluded_frac = {out['failed'] / out['attempted']:.6g} ratio")
    if out["trace_file"] is not None:
        print(f"spans written to {out['trace_file'].relative_to(ROOT)}")
    for line in out["samples"]:
        print(f"{args.workload} {line}")
    for name, (value, unit) in out["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    result = {
        "correct": not out["wrong"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in out["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
