"""Partitions labeling nilpotent orbits in the odd/even orthogonal and
symplectic Lie algebras, with the combinatorial operations everything else is
built on: validity, transpose, collapse, enumeration, and the
orbit dimension formula.

Conventions used throughout the package:

* Partitions are stored as non-increasing tuples of positive integers.
* Family ``B`` means so(2n+1) (total size odd), ``C`` means sp(2n), ``D``
  means so(2n).  For B and D every even part must occur an even number of
  times; for C every odd part must.
"""
from __future__ import annotations

import enum
import functools
import itertools
import operator
import re
from dataclasses import dataclass
from typing import Iterable, Iterator


class Family(enum.Enum):
    """Classical family of the ambient Lie algebra."""

    B = "B"
    C = "C"
    D = "D"

    @classmethod
    def from_letter(cls, letter: str) -> "Family":
        try:
            return cls(letter.upper())
        except ValueError:
            raise ValueError(f"unknown family {letter!r}, expected B, C or D") from None

    @property
    def epsilon(self) -> int:
        """Sign of the preserved bilinear form: +1 orthogonal, -1 symplectic."""
        return -1 if self is Family.C else 1

    @property
    def size_parity(self) -> int:
        """Parity of the dimension of the natural representation."""
        return 1 if self is Family.B else 0

    @property
    def held_parity(self) -> int:
        """Parity of the parts held to even multiplicity: even (0) for B
        and D, odd (1) for C."""
        return 1 if self is Family.C else 0

    def needs_even_multiplicity(self, part: int) -> bool:
        """Whether a part of this value is forced to even multiplicity."""
        return part % 2 == self.held_parity


def _integers(values: Iterable[int], name: str) -> tuple[int, ...]:
    """``values`` as a tuple of ints, each taken through ``operator.index``,
    so that integer types such as numpy's pass and a float or a string
    raises ``ValueError`` naming it instead of being truncated or parsed.
    A tuple or list is converted once; any other iterable is made a tuple
    first, so that a failure can still name the culprit."""
    if not isinstance(values, (tuple, list)):
        values = tuple(values)
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        bad = next(x for x in values if not hasattr(type(x), "__index__"))
        raise ValueError(f"{name} {bad!r} is not an integer") from None


@dataclass(frozen=True, order=True)
class Partition:
    """A non-increasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        # One walk, for order.  Parts that never increase are positive when
        # the last one is; parts that increase are walked again for their
        # least, so that positivity is still reported first.
        ps = _integers(parts, "part")
        increases = any(map(operator.lt, ps, itertools.islice(ps, 1, None)))
        if ps and (min(ps) if increases else ps[-1]) <= 0:
            raise ValueError(f"parts must be positive, got {ps}")
        if increases:
            raise ValueError(f"parts must be non-increasing, got {ps}")
        object.__setattr__(self, "parts", ps)

    @property
    def n(self) -> int:
        """Total size (sum of parts)."""
        return sum(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def literal(self) -> str:
        """Comma-separated form used on the command line, e.g. ``5,4,4,1``."""
        return ",".join(str(x) for x in self.parts)

    def __str__(self) -> str:
        return "[" + self.literal() + "]"


_INTEGER = re.compile(r"[ \t]*-?[0-9]+[ \t]*")


def parse_integer(token: str) -> int:
    """The integer of one token of a literal: ASCII digits with an optional
    leading minus, and blanks around them.  Anything else is a ValueError,
    though ``int`` takes some of it (``1_0``, ``+3``, non-ASCII digits)."""
    if not _INTEGER.fullmatch(token):
        raise ValueError(f"malformed integer {token!r}")
    return int(token)


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition literal such as ``5,4,4,1``, each
    part a token of parse_integer.

    The empty string parses to the empty partition.
    """
    text = text.strip()
    if not text:
        return Partition(())
    try:
        parts = tuple(parse_integer(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"malformed partition literal {text!r}") from None
    return Partition(parts)


def invalid_reason(p: Partition, family: Family) -> str | None:
    """Why ``p`` labels no nilpotent orbit of the given family, or None
    when it labels one.

    Checks the total-size parity (odd for B, even for C and D), then walks
    the runs of equal parts once, from the largest: a run of the parity
    held to even multiplicity (even parts for B and D, odd for C) must have
    even length, and the first that does not is named.
    """
    if p.n % 2 != family.size_parity:
        return f"total {p.n} has the wrong parity for family {family.value}"
    held = family.held_parity
    value = run = 0
    for x in (*p.parts, 0):  # the 0 closes the last run
        if x != value:
            if run % 2 and value % 2 == held:
                return f"part {value} must occur an even number of times in family {family.value}"
            value, run = x, 0
        run += 1
    return None


def is_valid(p: Partition, family: Family) -> bool:
    """Whether ``p`` labels a nilpotent orbit of the given family: it has
    no invalid_reason."""
    return invalid_reason(p, family) is None


def transpose(p: Partition) -> Partition:
    if not p.parts:
        return p
    return Partition(tuple(sum(1 for x in p.parts if x >= j) for j in range(1, p.parts[0] + 1)))


def collapse(p: Partition, family: Family) -> Partition:
    """Largest family-valid partition dominated by ``p``.

    Its rule: while some value of the parity held to even multiplicity
    (even for B and D, odd for C) has odd multiplicity, take the largest
    such value q, lower its last copy to q - 1, and raise the first later
    part below q - 1 by one, or append a 1 when there is none.

    One pass over the runs of equal parts, from the top, makes the same
    moves.  A move keeps the parts non-increasing and changes only parts
    below q, so no value above q turns bad, and the largest bad value is
    the next bad run the pass meets.  The lowered part joins the run of
    q - 1, whose parity is not held, and the raised part and the run it
    left lie further on, so the pass goes on with the next part.  No bad
    value is 1: for C an even total has an even number of bad values.
    """
    if p.n % 2 != family.size_parity:
        raise ValueError(
            f"total {p.n} has the wrong parity for family {family.value}"
        )
    held = family.held_parity
    parts = list(p.parts)
    i = 0
    while i < len(parts):
        q, j = parts[i], i + 1
        while j < len(parts) and parts[j] == q:
            j += 1
        if q % 2 == held and (j - i) % 2:
            parts[j - 1] = q - 1
            k = j
            while k < len(parts) and parts[k] == q - 1:
                k += 1
            if k < len(parts):
                parts[k] += 1
            else:
                parts.append(1)
        i = j
    return Partition(parts)


@functools.lru_cache(maxsize=None)
def _generate(n: int, family: Family | None) -> tuple[Partition, ...]:
    """The partitions of ``n`` in decreasing lexicographic order; with a
    family, only its valid ones, generated directly."""
    held = None if family is None else family.held_parity
    out: list[Partition] = []

    def rec(remaining: int, top: int, acc: tuple[int, ...]) -> None:
        # Complete ``acc`` by parts of value at most ``top`` summing to
        # ``remaining``: each value v > 1 from the largest down, with its
        # multiplicity from the largest down (only even ones when v has the
        # held parity), and last 1s for the whole remainder.  So no branch
        # is a dead end: for C every choice takes an even amount, and the
        # remainder left to the 1s is even.
        for v in range(min(top, remaining), 1, -1):
            step = 2 if v % 2 == held else 1
            for m in range(remaining // v // step * step, 0, -step):
                rec(remaining - m * v, v - 1, acc + (v,) * m)
        out.append(Partition(acc + (1,) * remaining))

    rec(n, n, ())
    return tuple(out)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of ``n`` in decreasing lexicographic order, as a fresh
    list; the partitions themselves are built once per ``n``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return list(_generate(n, None))


def enumerate_valid(n: int, family: Family) -> list[Partition]:
    """All family-valid partitions of ``n``, in decreasing lexicographic
    order, as a fresh list.

    They are generated directly, not filtered out of ``partitions_of``:
    a value of the parity held to even multiplicity only ever gets an even
    one.  Built once per ``(n, family)``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n % 2 != family.size_parity:
        raise ValueError(f"total {n} has the wrong parity for family {family.value}")
    return list(_generate(n, family))


def orbit_dim(p: Partition, family: Family) -> int:
    """Dimension of the nilpotent orbit labeled by a valid partition.

    With ``s`` the sum of squared transpose parts and ``r`` the number of odd
    parts, the dimension is (N^2 - N - s + r)/2 in the orthogonal families
    and (N^2 + N - s - r)/2 in the symplectic one.
    """
    if not is_valid(p, family):
        raise ValueError(f"{p} is not valid for family {family.value}")
    n = p.n
    s = sum(x * x for x in transpose(p).parts)
    r = sum(1 for x in p.parts if x % 2 == 1)
    if family is Family.C:
        return (n * n + n - s - r) // 2
    return (n * n - n - s + r) // 2
