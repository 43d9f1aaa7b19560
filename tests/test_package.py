"""Package surface and the study script that consumes it."""

import importlib.util
import types
from pathlib import Path

import isobench

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_all_names_resolve_and_none_is_a_module():
    assert isobench.__all__
    for name in isobench.__all__:
        assert not isinstance(getattr(isobench, name), types.ModuleType), name


def test_permutation_consistency_script_runs(capsys):
    path = SCRIPTS / "run_permutation_consistency.py"
    spec = importlib.util.spec_from_file_location("run_permutation_consistency", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["--trials", "2"]) == 0
    assert capsys.readouterr().out
