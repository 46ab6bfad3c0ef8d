"""Levi subalgebra types, orbit induction from their zero orbits, and the
resulting Richardson orbits and polarizations.

A Levi type in this package is a multiset of general-linear block sizes
``ps`` together with the rank-``q`` natural piece of the same family as the
ambient algebra, written ``p1,...,pk;q`` on the command line (``;q`` when
there are no general-linear blocks).  The ambient size is ``2*sum(ps) + q``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import InvariantError
from .partitions import Family, Partition, _integers, collapse, parse_integer, partitions_of


@dataclass(frozen=True)
class LeviType:
    """An admissible Levi type: ``q`` has the family's parity (odd for B,
    even for C and D) and the orthogonal families exclude ``q == 2``."""

    ps: tuple[int, ...]
    q: int
    family: Family

    def __init__(self, ps, q: int, family: Family):
        ps = tuple(sorted(_integers(ps, "general-linear block size")))
        (q,) = _integers((q,), "q")
        object.__setattr__(self, "ps", ps)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "family", family)
        if any(x <= 0 for x in ps):
            raise ValueError(f"general-linear block sizes must be positive, got {ps}")
        if q < 0:
            raise ValueError(f"q must be non-negative, got {q}")
        if q % 2 != family.size_parity:
            raise ValueError(f"q={q} has the wrong parity for family {family.value}")
        if family is not Family.C and q == 2:
            raise ValueError(f"q=2 is not admissible in family {family.value}")

    @property
    def n(self) -> int:
        """Size of the ambient natural representation."""
        return 2 * sum(self.ps) + self.q

    def literal(self) -> str:
        return ",".join(str(x) for x in self.ps) + ";" + str(self.q)

    def __str__(self) -> str:
        return "(" + self.literal() + ")"

    @classmethod
    def from_text(cls, text: str, family: Family) -> "LeviType":
        """Parse a literal such as ``2,5;7`` or ``;4``, each number a token of
        parse_integer."""
        head, sep, tail = text.strip().partition(";")
        if not sep:
            raise ValueError(f"malformed Levi literal {text!r}, expected 'p1,..,pk;q'")
        try:
            ps = tuple(parse_integer(t) for t in head.split(",")) if head else ()
            q = parse_integer(tail)
        except ValueError:
            raise ValueError(f"malformed Levi literal {text!r}") from None
        return cls(ps, q, family)


def induced_shape(levi: LeviType) -> Partition:
    """Raw column-count multiset obtained by inducing from the Levi's zero
    orbit, before the validity collapse: entry ``j`` counts each
    general-linear block of size at least ``j`` twice, plus one while
    ``j <= q``, so the odd entries are exactly the first ``q``."""
    top = max([levi.q] + list(levi.ps), default=0)
    raw = [2 * sum(1 for x in levi.ps if x >= j) + (j <= levi.q) for j in range(1, top + 1)]
    for j, d in enumerate(raw):
        if (d % 2 == 1) != (j < levi.q):
            raise InvariantError(f"raw parity pattern broken for {levi}")
    return Partition(tuple(raw))


def richardson_orbit_of(levi: LeviType) -> Partition:
    """The orbit induced from the zero orbit of the Levi."""
    return collapse(induced_shape(levi), levi.family)


def enumerate_levis(n: int, family: Family) -> list[LeviType]:
    """All admissible Levi types of ambient size ``n``, ordered by ``q`` and
    then by block multiset."""
    if n % 2 != family.size_parity:
        raise ValueError(f"total {n} has the wrong parity for family {family.value}")
    out: list[LeviType] = []
    for q in range(family.size_parity, n + 1, 2):
        if family is not Family.C and q == 2:
            continue
        for ps in partitions_of((n - q) // 2):
            out.append(LeviType(ps.parts, q, family))
    out.sort(key=lambda L: (L.q, L.ps))
    return out


@functools.lru_cache(maxsize=None)
def _polarization_table(n: int, family: Family) -> dict[tuple[int, ...], list[LeviType]]:
    """Richardson orbit parts -> every Levi type inducing it, in
    ``enumerate_levis`` order; built once per (n, family)."""
    table: dict[tuple[int, ...], list[LeviType]] = {}
    for L in enumerate_levis(n, family):
        table.setdefault(richardson_orbit_of(L).parts, []).append(L)
    return table


def polarizations(p: Partition, family: Family) -> list[LeviType]:
    """Every Levi type inducing exactly the orbit ``p``, in
    ``enumerate_levis`` order, as a fresh list.

    Raises ``ValueError`` when there is none, i.e. when ``p`` is not a
    Richardson orbit.
    """
    levis = _polarization_table(p.n, family).get(p.parts)
    if levis is None:
        raise ValueError(f"{p} is not a Richardson orbit in family {family.value}")
    return list(levis)


def langlands_dual_levi(levi: LeviType) -> LeviType:
    """Levi type with the same general-linear blocks on the dual side:
    B maps to C with ``q - 1``, C maps to B with ``q + 1``."""
    if levi.family is Family.B:
        return LeviType(levi.ps, levi.q - 1, Family.C)
    if levi.family is Family.C:
        return LeviType(levi.ps, levi.q + 1, Family.B)
    raise ValueError("the even orthogonal family is not self-dual under this correspondence")
