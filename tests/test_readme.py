"""The README's examples, run as written."""

import re
import shlex
from pathlib import Path

from isobench import cycle, write_edge_list
from isobench.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def transcripts(text: str) -> list[tuple[list[str], list[str]]]:
    """(argv, stdout lines) of each sh block that starts with `$ isobench`.

    A command continues over lines ending in a backslash; the lines after
    it are its output, less the `#` lines that stand for header comments.
    """
    out = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        if not block.startswith("$ isobench "):
            continue
        lines = block.splitlines()
        command = lines.pop(0)
        while command.endswith("\\"):
            command = command[:-1] + lines.pop(0)
        argv = shlex.split(command)[2:]
        out.append((argv, [line for line in lines if not line.startswith("#")]))
    return out


def test_readme_examples_print_what_it_shows(capsys, tmp_path, monkeypatch):
    text = README.read_text()
    runs = transcripts(text)
    assert [argv[0] for argv, _ in runs] == ["wl", "wl", "evaluate", "transform"]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graphs.el").write_text("\n".join(write_edge_list(cycle(6)) for _ in range(2)))
    for argv, expected in runs:
        code = main(argv)
        lines = capsys.readouterr().out.splitlines()
        assert code == EXIT_OK, argv
        assert [line for line in lines if not line.startswith("#")] == expected, argv

    (api,) = re.findall(r"## Python API\n\n```python\n(.*?)```", text, re.S)
    exec(compile(api, str(README), "exec"), {})


def test_readme_experiment_grid_runs(capsys):
    # Its output is not shown, so the transcripts above do not run it.
    (block,) = re.findall(r"## Experiment grid\n.*?```sh\n(.*?)```", README.read_text(), re.S)
    argv = shlex.split(block.replace("\\\n", " "))
    assert argv[:2] == ["isobench", "evaluate"] and "md" in argv
    assert main(argv[1:]) == EXIT_OK
    table = [line for line in capsys.readouterr().out.splitlines() if line.startswith("|")]
    # A header and a rule, then one row per cell: 10 transforms x 5 embedders.
    assert len(table) - 2 == 50
