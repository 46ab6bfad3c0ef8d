"""Shared test plumbing: collects acceptance verdict lines and prints them
in the terminal summary, where capture can't swallow them, with one line
of the package's code-line counts (not a gate), runs code
snippets in a ``python -O`` child, counts the oracle's eliminations by call
site, and holds the brute-force reference routes (the dominance order
among them; validity, the reason a partition is invalid, the collapse and
the valid partitions by their definitions; the from-scratch block grammar;
and the witness scan with a search back), the segmentation's
partition and block count, and subspace helpers that several test files
check the package against."""
import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest

import nilorbit
from nilorbit import Family, Partition, _linalg, decompose, enumerate_valid, is_valid, partitions_of
from nilorbit._linalg import nullspace
from nilorbit.blocks import BlockDecomposition
from nilorbit.levi import _polarization_table
from nilorbit.minimal import IndexEntry, IndexSet

# The least prime above 2^32: int64 products of two residues wrap.
BIG_PRIME = 4_294_967_311

_ACCEPTANCE_LINES: list[str] = []


def acceptance_line(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)
    print(line, file=sys.__stdout__, flush=True)


_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text: str) -> int:
    """The code lines of a Python source: lines that hold a token, other
    than a comment, and lie in no docstring of a module, class or function."""
    docstrings = set()
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def source_line(src: Path) -> str:
    """One line naming the code lines (code_lines) of the package's modules
    in ``src``, in total and per module."""
    counts = {path.name: code_lines(path.read_text()) for path in sorted(src.glob("*.py"))}
    per_module = ", ".join(f"{name} {n}" for name, n in counts.items())
    return f"SOURCE: {sum(counts.values())} code lines in src/nilorbit ({per_module})"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
    terminalreporter.write_line(source_line(Path(nilorbit.__file__).resolve().parent))


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


ELIMINATION_SITES = ("root window", "level windows", "batch rref", "state nullspace", "G_a ranks")


def count_eliminations(monkeypatch):
    """Count every elimination (a call of _linalg's row reduction, behind
    rref, nullspace and det) from here on, by the oracle's call site that
    makes it, in a dict that the calls update: the window of level 1 below
    a root (root window) and of a later level (level windows) in
    fiber_point_count, _last_row_batches' rref of the start and the window
    (batch rref), and the elimination reading's nullspace of E g (state
    nullspace) and rref of each G_a (G_a ranks, made by its pivots on
    demand), whether _state_count or a sibling's start asks for it.  A
    call from anywhere else counts under its caller's name: a det under
    the function that takes it (the elimination reading's disc, or det_g
    of a given form), and the batches that _siblings reads from the signed
    maps would show under theirs."""
    counts = dict.fromkeys(ELIMINATION_SITES, 0)
    reduce = _linalg._reduce

    def counted(mat, p):
        routine = sys._getframe(1)  # rref, nullspace or det
        caller = routine.f_back
        while caller.f_code.co_name.startswith("<"):  # a comprehension's frame, before Python 3.12
            caller = caller.f_back
        site = caller.f_code.co_name
        if site == "count":
            site = "level windows" if caller.f_locals["t"] else "root window"
        elif site == "_last_row_batches":
            site = "batch rref"
        elif site in ("_elimination_reading", "pivots"):  # pivots: the reading's rref of a G_a
            site = "state nullspace" if routine.f_code.co_name == "nullspace" else "G_a ranks"
        counts[site] = counts.get(site, 0) + 1
        return reduce(mat, p)

    monkeypatch.setattr(_linalg, "_reduce", counted)
    return counts


def dominance_leq(a, b):
    """Dominance order: every prefix sum of ``a`` is at most that of ``b``.

    Partitions of different totals are incomparable by fiat and rejected.
    """
    if a.n != b.n:
        raise ValueError(f"cannot compare partitions of different totals ({a.n} vs {b.n})")
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a.parts[i] if i < len(a.parts) else 0
        sb += b.parts[i] if i < len(b.parts) else 0
        if sa > sb:
            return False
    return True


def reference_is_valid(p, family):
    """Validity the direct way: the total's parity, then a ``count`` of
    every distinct value held to even multiplicity."""
    if p.n % 2 != family.size_parity:
        return False
    return all(
        p.parts.count(v) % 2 == 0 for v in set(p.parts) if family.needs_even_multiplicity(v)
    )


def reference_invalid_reason(p, family):
    """Why ``p`` is not valid, the direct way, or None when it is: the
    total's parity, then the largest value held to even multiplicity that
    a ``count`` finds with odd multiplicity."""
    if p.n % 2 != family.size_parity:
        return f"total {p.n} has the wrong parity for family {family.value}"
    for v in sorted(set(p.parts), reverse=True):
        if family.needs_even_multiplicity(v) and p.parts.count(v) % 2 != 0:
            return f"part {v} must occur an even number of times in family {family.value}"
    return None


def reference_collapse(p, family):
    """The collapse by its defining rule, rescanning every value after each
    move: while some value held to even multiplicity has odd multiplicity,
    lower the last copy of the largest such value q by one and raise the
    first later part below q - 1 (or append a 1), then re-sort."""
    if p.n % 2 != family.size_parity:
        raise ValueError(f"total {p.n} has the wrong parity for family {family.value}")
    parts = list(p.parts)
    while True:
        bad = [v for v in set(parts)
               if family.needs_even_multiplicity(v) and parts.count(v) % 2 != 0]
        if not bad:
            return Partition(parts)
        q = max(bad)
        i = max(k for k, v in enumerate(parts) if v == q)
        parts[i] -= 1
        j = next((k for k in range(i + 1, len(parts)) if parts[k] < q - 1), None)
        if j is None:
            parts.append(1)
        else:
            parts[j] += 1
        parts = sorted((v for v in parts if v > 0), reverse=True)


def reference_enumerate_valid(n, family):
    """The family's valid partitions of ``n``, filtered out of all of them."""
    return [p for p in partitions_of(n) if reference_is_valid(p, family)]


def partition_of(d):
    """The partition that the segmentation ``d`` cuts: its blocks' parts,
    concatenated in order, so that ``partition_of(decompose(p, fam)) == p``."""
    return Partition(x for blk in d.blocks for x in blk.parts)


def n_blocks(p, family):
    """The number of blocks in the segmentation of ``p``; the witness scan's
    virtual block is the one past them."""
    return len(decompose(p, family).blocks)


def reference_index_set(p: Partition, d: BlockDecomposition) -> IndexSet:
    """The witness scan of ``minimal._index_set`` by a second route, its
    reference: a dict from position to block, read through two closures,
    and for each candidate witness a search back over every position since
    the last acceptance for an equal odd separator pair.

    It scans for witnesses in the zero-padded part sequence x of ``p``, on
    its segmentation ``d``.

    A witness at position l is an equal even pair ``x[2l] == x[2l+1]``
    (``x[2l-1] == x[2l]`` in family D).  After the first, a witness is
    accepted only if it lies in a strictly later block and an equal odd
    separator pair occurs strictly between it and the previous acceptance.
    Padding past the parts belongs to the final block in family B and to the
    virtual block past the end otherwise; an omitted C2 closing boundary
    still owns one slot of its block.
    """
    family = d.family
    blocks = d.blocks
    m = len(blocks)
    owner: dict[int, int] = {}
    pos = 1
    for bi, blk in enumerate(blocks):
        span = len(blk.parts)
        if blk.kind == "C2" and span % 2:
            span += 1
        for _ in range(span):
            owner[pos] = bi
            pos += 1
    parts = p.parts

    def val(i: int) -> int:
        return parts[i - 1] if 1 <= i <= len(parts) else 0

    def block_of(i: int) -> int:
        if i in owner:
            return owner[i]
        return m - 1 if family is Family.B else m

    woff = -1 if family is Family.D else 0
    raw_entries: list[tuple[int, int]] = []
    last_l = 0
    for l in range(1, len(parts) // 2 + 3):
        i1 = 2 * l + woff
        if val(i1) != val(i1 + 1) or val(i1) % 2 != 0:
            continue
        b = block_of(i1)
        if not raw_entries:
            ok = True
        else:
            ok = b > raw_entries[-1][0] and any(
                val(2 * lp + 1 + woff) == val(2 * lp + 2 + woff)
                and val(2 * lp + 1 + woff) % 2 == 1
                for lp in range(last_l + 1, l)
            )
        if ok:
            raw_entries.append((b, l))
            last_l = l
        if b >= m or (family is Family.B and val(i1) == 0):
            break
    return IndexSet(tuple(IndexEntry(b + 1 if m else None, l) for b, l in raw_entries))


def _equal_pairs(seq):
    return len(seq) % 2 == 0 and all(
        seq[i] == seq[i + 1] for i in range(0, len(seq), 2)
    )


def segment_kinds(seg, fam, final):
    """Every block kind the contiguous segment could legally carry, read
    from scratch off the block grammar; ``final`` allows the kinds that
    only end a partition."""
    kinds = []
    if len(seg) == 2 and seg[0] == seg[1]:
        kinds.append(f"{fam.value}1" if seg[0] % 2 else f"{fam.value}1*")
    if fam in (Family.B, Family.D):
        if (
            len(seg) >= 2
            and len(seg) % 2 == 0
            and seg[0] % 2 == 1
            and seg[-1] % 2 == 1
            and all(x % 2 == 0 for x in seg[1:-1])
            and _equal_pairs(seg[1:-1])
            and (len(seg) > 2 or seg[0] > seg[-1])
        ):
            kinds.append(f"{fam.value}2")
        if (
            fam is Family.B
            and final
            and len(seg) % 2 == 1
            and seg[0] % 2 == 1
            and all(x % 2 == 0 for x in seg[1:])
            and _equal_pairs(seg[1:])
        ):
            kinds.append("B3")
    else:
        if (
            len(seg) >= 2
            and len(seg) % 2 == 0
            and seg[0] % 2 == 0
            and seg[-1] % 2 == 0
            and all(x % 2 == 1 for x in seg[1:-1])
            and _equal_pairs(seg[1:-1])
            and (len(seg) > 2 or seg[0] > seg[-1])
        ):
            kinds.append("C2")
        if (
            final
            and len(seg) % 2 == 1
            and seg[0] % 2 == 0
            and all(x % 2 == 1 for x in seg[1:])
            and _equal_pairs(seg[1:])
        ):
            kinds.append("C2")  # omitted closing boundary
    return kinds


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
