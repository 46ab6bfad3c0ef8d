"""How numpy is bound: ``nilorbit._linalg`` binds it lazily, so
``import nilorbit`` and the commands that count no flag never load it, and
the oracle loads it at its first array.  ``conftest.py`` imports numpy
before nilorbit, so the lazy route is reached only in a fresh interpreter;
each test here starts one with this checkout's nilorbit first on the path."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nilorbit
from nilorbit import _linalg, ff_oracle
from nilorbit.cli import main

SRC = Path(nilorbit.__file__).resolve().parent.parent

# Prints the numpy submodules loaded so far, as a JSON list.
LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('numpy.'))))"

COMBINATORIAL = [
    "validate --family B 3,1,1",
    "collapse --family C 6,5,1",
    "blocks --family B 5,3,1",
    "special --family D 3,3,1,1",
    "richardson --family B 2,2,1",
    "min-richardson --family C 2,2,1,1",
    "polarizations --family B 3,1,1",
    "dual --family B 3,1,1",
    "seesaw --family B 5,3,3,1,1",
]


def fresh(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter with ``sys`` and ``json`` imported;
    fail on a nonzero exit."""
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return out


def test_import_loads_no_numpy_submodule():
    out = fresh("import nilorbit\n" + LOADED)
    assert json.loads(out.stdout) == []


def test_combinatorial_commands_load_no_numpy_submodule():
    """One interpreter runs the nine commands in turn and lists the numpy
    submodules loaded after each, so the first command to load one is named."""
    out = fresh(
        "import contextlib, io\n"
        "from nilorbit import cli\n"
        f"for command in {COMBINATORIAL!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cli.main(command.split())\n"
        "    loaded = sorted(m for m in sys.modules if m.startswith('numpy.'))\n"
        "    print(json.dumps([command, code, loaded]))\n"
    )
    assert [json.loads(line) for line in out.stdout.splitlines()] == [
        [command, 0, []] for command in COMBINATORIAL
    ]


def test_fiber_loads_numpy_and_prints_the_in_process_output(capsys):
    """The oracle's first array loads numpy; the count it then makes prints
    what the run in this process, with numpy loaded first, prints."""
    argv = ["fiber", "--family", "B", "2,2,1"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    out = fresh(
        "from nilorbit import _linalg, cli\n"
        f"code = cli.main({argv!r})\n"
        "print(type(_linalg.np).__name__, _linalg.np is sys.modules['numpy'],\n"
        "      any(m.startswith('numpy.') for m in sys.modules), file=sys.stderr)\n"
        "sys.exit(code)"
    )
    assert out.stdout == expected
    assert out.stderr == "module True True\n"


def test_numpy_imported_first_is_used_as_it_is():
    assert _linalg.np is sys.modules["numpy"]
    assert ff_oracle.np is sys.modules["numpy"]
    out = fresh(
        "import types, numpy\n"
        "from nilorbit import _linalg, ff_oracle\n"
        "print(_linalg.np is ff_oracle.np is numpy is sys.modules['numpy'],\n"
        "      type(numpy) is types.ModuleType)"
    )
    assert out.stdout == "True True\n"


HIDE_NUMPY = {
    # A finder at the head of sys.meta_path refuses numpy.
    "hidden": (
        "class Hide:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'numpy':\n"
        "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)\n"
        "sys.meta_path.insert(0, Hide())\n"
    ),
    # No entry of sys.path holds numpy, so no finder finds it.
    "absent": (
        "import os\n"
        "sys.path[:] = [p for p in sys.path if not os.path.isdir(os.path.join(p or '.', 'numpy'))]\n"
    ),
}


@pytest.mark.parametrize("hide", HIDE_NUMPY.values(), ids=HIDE_NUMPY.keys())
def test_missing_numpy_fails_the_import(hide):
    """Without numpy, ``import nilorbit`` itself raises ModuleNotFoundError
    naming numpy, and leaves neither the package nor the oracle imported."""
    out = fresh(
        hide
        + "try:\n"
        "    import nilorbit\n"
        "except ModuleNotFoundError as exc:\n"
        "    print(exc.name, {'nilorbit', 'nilorbit._linalg', 'nilorbit.ff_oracle'} & set(sys.modules))\n"
    )
    assert out.stdout == "numpy set()\n"
