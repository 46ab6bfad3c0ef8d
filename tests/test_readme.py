"""Every ``$ nilorbit ...`` example in README's text blocks, run through
``cli.main`` in-process from a temporary directory (so the atlas example's
``--out out/`` lands there), must print exactly the output shown under it,
and every function README's prose names must exist in the package."""
import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import nilorbit
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


def test_prose_names_resolve():
    """Every backticked snake_case identifier in README's prose, and each
    of rref, rank and nullspace, is an attribute of a nilorbit module, so a
    removed helper cannot linger in the docs."""
    prose = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    named = {
        token
        for token in re.findall(r"`([^`\n]+)`", prose)
        if re.fullmatch(r"_?[a-z][a-z0-9]*(_[a-z0-9]+)+", token)
        or token in ("rref", "rank", "nullspace")
    }
    modules = [nilorbit] + [
        importlib.import_module(f"nilorbit.{info.name}")
        for info in pkgutil.iter_modules(nilorbit.__path__)
    ]
    assert {"first_row_nodes", "rref"} <= named
    assert sorted(name for name in named if not any(hasattr(m, name) for m in modules)) == []
