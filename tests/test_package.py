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
