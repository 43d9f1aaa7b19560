"""Package surface."""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import isobench

ROOT = Path(__file__).resolve().parents[1]


def test_all_names_resolve_and_none_is_a_module():
    assert isobench.__all__
    for name in isobench.__all__:
        assert not isinstance(getattr(isobench, name), types.ModuleType), name


def test_benchmark_tracer_finds_every_name_it_patches():
    # benchmarks/tracing.py raises TraceError when a call site it wraps is
    # renamed or removed; a fresh process keeps its patches out of this one.
    paths = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.Tracer())"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")


# Installs the tracer, runs a small grid and prints the tracer's metrics.
_TRACED_GRID = """
import json
import isobench.evaluate as evaluate
import tracing
from isobench import TransformSpec, hard_pair_library
tracer = tracing.Tracer()
tracing.install(tracer)
specs = [TransformSpec(kind=kind) for kind in ("base", "degree", "graph_encoding")]
evaluate.evaluate_grid(hard_pair_library(), specs, ["wl1", "wl2", "gin"])
print(json.dumps(tracer.metrics()))
"""


def test_benchmark_tracer_counts_the_calls_a_grid_makes():
    # A patched name that the package stops calling resolves all the same,
    # but reads zero here.
    paths = [str(ROOT / "src"), str(ROOT / "benchmarks")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_GRID],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout)
    assert metrics["evaluate.cells"] == 9
    for name in ("wl.wl1_calls", "models.forward_calls", "transforms.apply_calls"):
        assert metrics[name] > 0, name
    assert metrics["spectral.jacobi_calls"] > 0


# Records the modules loaded before isobench, writes a graph6 file, runs
# every transform kind under every embedder through the CLI over it and
# the hard pairs, and prints the exit code, the distributions of the
# top-level modules that run loaded and whether it loaded numpy.ma.
_DEPENDENCY_PROBE = """
import sys
before = set(sys.modules)
import contextlib, io, json, os, tempfile
from importlib.metadata import packages_distributions
from isobench import cli, cycle, disjoint_cycles, path, star, write_graph6
from isobench.evaluate import EMBEDDERS
from isobench.transforms import KINDS
with tempfile.TemporaryDirectory() as tmp:
    g6 = os.path.join(tmp, "pairs.g6")
    with open(g6, "w") as fh:
        for g in (cycle(6), disjoint_cycles([3, 3]), path(5), star(5)):
            fh.write(write_graph6(g) + "\\n")
    argv = ["evaluate", "--input", g6, "--input", "hard_pairs", "--augment", "2"]
    argv += [a for kind in KINDS for a in ("--transform", kind)]
    argv += [a for name in EMBEDDERS for a in ("--embedder", name)]
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
dists = packages_distributions()
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps([code, sorted({d for name in loaded for d in dists.get(name, ())})]))
print(json.dumps("numpy.ma" in sys.modules))
"""


@pytest.fixture(scope="module")
def probe_lines() -> list[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _DEPENDENCY_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_numpy_is_the_only_runtime_dependency(probe_lines):
    assert probe_lines[0] == '[0, ["numpy"]]'


def test_a_grid_never_imports_numpy_ma(probe_lines):
    # numpy.ma costs a fresh process about 13 ms and 1.3 MB on its first
    # import, which a plain np.unique(x) triggers.
    assert probe_lines[1] == "false"
