"""README's Library example runs as written and gives the values its
comments state, and each line of its command-line block exits 0."""

import re
from pathlib import Path

from projtoric import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {}
    exec(block, scope)
    assert scope["M"].shape == (5, 21)
    assert (scope["k"], scope["lam"], scope["d_lo"], scope["d"]) == (5, 5, 8, 8)


def test_command_line_block_runs(monkeypatch, capsys):
    section = README.read_text().split("\n## Command line\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = [line.split() for line in block.splitlines() if line.startswith("projtoric ")]
    assert len(lines) == 6
    monkeypatch.chdir(README.parent)
    for argv in lines:
        assert cli.entry(argv[1:]) == 0, " ".join(argv)
        assert capsys.readouterr().out
