"""Shared test plumbing: collects acceptance verdict lines and prints them
in the terminal summary, where capture can't swallow them, and runs code
snippets in a ``python -O`` child."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nilorbit

_ACCEPTANCE_LINES: list[str] = []


def acceptance_line(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def run_optimized():
    """Run a snippet under ``python -O`` with this checkout's nilorbit first
    on the path, fail on a nonzero exit, and return its stripped stdout.
    The snippet exits early if assertions are still on."""
    src = Path(nilorbit.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))

    def run(code: str) -> str:
        code = "if __debug__:\n    raise SystemExit('assertions are on')\n" + code
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert out.returncode == 0, out.stderr
        return out.stdout.strip()

    return run
