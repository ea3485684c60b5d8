"""README examples run as written.

Every ``dlcost`` line of the CLI block runs in one scratch directory,
the ``synth`` line first since the others read the trace it writes, and
the Library snippet runs as a script, so the README cannot go on naming
a removed flag, field or function.
"""

import re
import shlex
from pathlib import Path

import pytest

from dlcost.cli import EX_OK, run

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, lang: str = "") -> str:
    """The first fenced block of language ``lang`` after ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"^```{lang}\n(.*?)^```$", section, re.M | re.S).group(1)


CLI_LINES = [shlex.split(line) for line in fenced_block("## CLI").splitlines()
             if line.startswith("dlcost ")]
SYNTH_LINES = [argv for argv in CLI_LINES if argv[1] == "synth"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("readme")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(path)
        for argv in SYNTH_LINES:
            assert run(argv[1:]) == EX_OK, " ".join(argv)
    return path


def test_the_cli_block_covers_every_subcommand():
    commands = {argv[1] for argv in CLI_LINES}
    assert commands == {"breakdown", "project", "sweep", "aggregate", "sensitivity", "synth",
                        "validate", "corpus"}


@pytest.mark.parametrize("argv", [argv for argv in CLI_LINES if argv not in SYNTH_LINES],
                         ids=" ".join)
def test_cli_line_exits_zero(argv, workdir, monkeypatch, capsysbinary):
    monkeypatch.chdir(workdir)
    assert run(argv[1:]) == EX_OK
    assert capsysbinary.readouterr().err == b""


def test_library_snippet_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(fenced_block("## Library", "python"), "README.md", "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 6
    assert run(["synth", "--size", "1000", "--seed", "7", "--out", "synth.jsonl"]) == EX_OK
    assert (tmp_path / "jobs.jsonl").read_bytes() == (tmp_path / "synth.jsonl").read_bytes()
