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

    def needs_even_multiplicity(self, part: int) -> bool:
        """Whether a part of this value is forced to even multiplicity."""
        if self is Family.C:
            return part % 2 == 1
        return part % 2 == 0


@dataclass(frozen=True, order=True)
class Partition:
    """A non-increasing tuple of positive integers."""

    parts: tuple[int, ...]

    def __init__(self, parts: Iterable[int]):
        ps = tuple(int(x) for x in parts)
        if any(x <= 0 for x in ps):
            raise ValueError(f"parts must be positive, got {ps}")
        if any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
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


def parse_partition(text: str) -> Partition:
    """Parse a comma-separated partition literal such as ``5,4,4,1``.

    The empty string parses to the empty partition.
    """
    text = text.strip()
    if not text:
        return Partition(())
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"malformed partition literal {text!r}") from None
    return Partition(parts)


def is_valid(p: Partition, family: Family) -> bool:
    """Whether ``p`` labels a nilpotent orbit of the given family.

    Checks the total-size parity (odd for B, even for C and D) and the even
    multiplicity constraint on the relevant parity of parts.
    """
    if p.n % 2 != family.size_parity:
        return False
    for v in set(p.parts):
        if family.needs_even_multiplicity(v) and p.parts.count(v) % 2 != 0:
            return False
    return True


def transpose(p: Partition) -> Partition:
    if not p.parts:
        return p
    return Partition(tuple(sum(1 for x in p.parts if x >= j) for j in range(1, p.parts[0] + 1)))


def collapse(p: Partition, family: Family) -> Partition:
    """Largest family-valid partition dominated by ``p``.

    Repeatedly finds the largest part value of the constrained parity with
    odd multiplicity, decrements its last copy, and increments the first
    later part that can absorb the unit (appending a trailing 1 when none
    can).  Terminates because each step strictly lowers the dominance order.
    """
    if p.n % 2 != family.size_parity:
        raise ValueError(
            f"total {p.n} has the wrong parity for family {family.value}"
        )
    parts = list(p.parts)
    while True:
        bad = [
            v
            for v in set(parts)
            if family.needs_even_multiplicity(v) and parts.count(v) % 2 != 0
        ]
        if not bad:
            break
        q = max(bad)
        i = max(k for k, v in enumerate(parts) if v == q)
        parts[i] -= 1
        j = next((k for k in range(i + 1, len(parts)) if parts[k] < q - 1), None)
        if j is None:
            parts.append(1)
        else:
            parts[j] += 1
        parts = [v for v in parts if v > 0]
        parts.sort(reverse=True)
    return Partition(tuple(parts))


@functools.lru_cache(maxsize=None)
def _partitions_of(n: int) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, cap: int, acc: tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(acc)
            return
        for v in range(min(cap, remaining), 0, -1):
            rec(remaining - v, v, acc + (v,))

    rec(n, n, ())
    return tuple(out)


def partitions_of(n: int) -> list[Partition]:
    """All partitions of ``n`` in decreasing lexicographic order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return [Partition(t) for t in _partitions_of(n)]


def enumerate_valid(n: int, family: Family) -> list[Partition]:
    """All family-valid partitions of ``n``, in decreasing lexicographic order."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n % 2 != family.size_parity:
        raise ValueError(f"total {n} has the wrong parity for family {family.value}")
    return [p for p in partitions_of(n) if is_valid(p, family)]


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
