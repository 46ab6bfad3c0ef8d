"""Every ``$ nilorbit ...`` example in README's text blocks, run through
``cli.main`` in-process from a temporary directory (so the atlas example's
``--out out/`` lands there), must print exactly the output shown under it."""
import re
import shlex
from pathlib import Path

import pytest

from nilorbit.cli import main
from nilorbit.ff_oracle import _BUDGET_ENV

README = Path(__file__).resolve().parents[1] / "README.md"


def examples():
    """(command, expected stdout) for each example: the output runs from the
    line after the command to the next blank line or the block's end."""
    out = []
    for block in re.findall(r"```text\n(.*?)```", README.read_text(), re.S):
        for chunk in re.split(r"\n\s*\n", block):
            lines = chunk.strip("\n").split("\n")
            if lines[0].startswith("$ nilorbit "):
                out.append((lines[0][2:], "".join(line + "\n" for line in lines[1:])))
    return out


def test_readme_has_every_example():
    assert len(examples()) == 8


@pytest.mark.parametrize("command, expected", examples(), ids=[c for c, _ in examples()])
def test_example(command, expected, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv(_BUDGET_ENV, raising=False)
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == expected
