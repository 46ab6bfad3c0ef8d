"""Shared test plumbing: collects acceptance verdict lines and prints them
in the terminal summary, where capture can't swallow them, runs code
snippets in a ``python -O`` child, and holds the brute-force reference
routes and subspace helpers that several test files check the package
against."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nilorbit
from nilorbit import dominance_leq, enumerate_valid, is_valid
from nilorbit._linalg import nullspace
from nilorbit.levi import _polarization_table

# The least prime above 2^32: int64 products of two residues wrap.
BIG_PRIME = 4_294_967_311

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


def minimal_richardson_bruteforce(p, family):
    """Reference computation: filter every valid partition for the
    Richardson property (by Levi induction, not the package's witness-scan
    verdict) and dominance over ``p``, then keep the minimal elements.
    Exponential in spirit; for cross-checking only."""
    above = [
        r
        for r in enumerate_valid(p.n, family)
        if dominance_leq(p, r) and is_richardson_via_induction(r, family)
    ]
    return [
        r
        for r in above
        if not any(s != r and dominance_leq(s, r) for s in above)
    ]


def is_richardson_via_induction(p, family):
    """Richardson test by brute enumeration of every Levi type; the slow
    reference the witness-scan verdict is checked against."""
    if not is_valid(p, family):
        raise ValueError(f"{p} is not valid for family {family.value}")
    return p.parts in _polarization_table(p.n, family)


def contains(span, vectors, p):
    """True iff every row of ``vectors`` lies in the row space of ``span``
    mod p.  Multiplies in int64, so it needs n (p - 1)^2 < 2^63."""
    if vectors.shape[0] == 0:
        return True
    return bool(np.all((vectors @ nullspace(span, p).T) % p == 0))
