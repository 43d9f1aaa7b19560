"""Package surface."""

import os
import subprocess
import sys
import types
from pathlib import Path

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


# Records the modules loaded before isobench, runs every transform kind
# under every embedder through the CLI, and prints the exit code and the
# distributions of the top-level modules that run loaded.
_DEPENDENCY_PROBE = """
import sys
before = set(sys.modules)
import contextlib, io, json
from importlib.metadata import packages_distributions
from isobench import cli
from isobench.evaluate import EMBEDDERS
from isobench.transforms import KINDS
argv = ["evaluate", "--input", "hard_pairs", "--augment", "2"]
argv += [a for kind in KINDS for a in ("--transform", kind)]
argv += [a for name in EMBEDDERS for a in ("--embedder", name)]
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv)
dists = packages_distributions()
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
print(json.dumps([code, sorted({d for name in loaded for d in dists.get(name, ())})]))
"""


def test_numpy_is_the_only_runtime_dependency():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _DEPENDENCY_PROBE],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == '[0, ["numpy"]]'
