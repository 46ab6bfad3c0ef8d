"""Segmentation of a valid partition into boundary/pair blocks, the three
modification variants of each block, the specialness criterion read off the
segmentation, and the reassembly of modified blocks that the witness scan
in ``minimal`` collapses into minimal Richardson orbits.

A block is a contiguous slice of the partition's parts.  Each family has a
boundary parity, odd for B and D and even for C; the other parity is the
pair parity.  Block kinds, per family letter X in {B, C, D}:

* ``X1``   -- an equal pair of odd parts ``[a, a]``.
* ``X1*``  -- an equal pair of even parts ``[b, b]``.
* ``X2``   -- a boundary part, then equal pairs of the pair parity, then a
  closing boundary part.  For B and D the boundaries are odd and the middle
  pairs even: ``[a1, b1, b1, ..., a2]``.  For C the boundaries are even and
  the middle pairs odd: ``[b1, a1, a1, ..., b2]``, where the closing
  boundary ``b2`` may be 0, in which case it is omitted from the parts and
  the block has odd length.
* ``B3``   -- family B only, as the final block: one odd part followed by
  even pairs, ``[a, b1, b1, ...]``, with no closing boundary.

Every valid partition splits uniquely into a left-to-right sequence of such
blocks, which ``decompose`` computes greedily in one scan.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError
from .partitions import Family, Partition, is_valid

_PAIR_KINDS = frozenset({"B1", "B1*", "C1", "C1*", "D1", "D1*"})
_KINDS = _PAIR_KINDS | {"B2", "B3", "C2", "D2"}
_PARITY = ("even", "odd")


def _boundary_parity(family: Family) -> int:
    """Parity of the boundary parts: odd for B and D, even for C."""
    return 0 if family is Family.C else 1


@dataclass(frozen=True)
class Block:
    """One segment of a partition: its kind and ``parts``, the block's own
    slice of the partition.

    A pair kind (X1, X1*) is two equal parts.  A boundary kind (X2, B3) is
    a head boundary, then its middle pairs, then a closing boundary exactly
    when its length is even: B2 and D2 always have one, B3 never does, and
    C2 omits it when it is 0.
    """

    kind: str
    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        kind, ps = self.kind, self.parts
        if kind not in _KINDS:
            raise ValueError(f"unknown block kind {kind!r}")
        if not ps or ps[-1] <= 0 or any(ps[i] < ps[i + 1] for i in range(len(ps) - 1)):
            raise ValueError(f"{kind} parts must be positive and non-increasing, got {ps}")
        if kind in _PAIR_KINDS:
            odd = len(kind) == 2
            if len(ps) != 2 or ps[0] != ps[1] or ps[0] % 2 != odd:
                raise ValueError(f"{kind} block must be an equal {_PARITY[odd]} pair, got {ps}")
            return
        bound = _boundary_parity(self.family)
        head, mid, tail = self._split()
        if head % 2 != bound or (tail and tail % 2 != bound):
            raise ValueError(f"{kind} boundaries must be {_PARITY[bound]}, got {ps}")
        if any(x % 2 == bound for x in mid) or mid[::2] != mid[1::2]:
            raise ValueError(f"{kind} middle must be equal {_PARITY[1 - bound]} pairs, got {ps}")
        if kind == "B3" and tail:
            raise ValueError(f"B3 block has no closing boundary, got {ps}")
        if kind in ("B2", "D2") and not tail:
            raise ValueError(f"{kind} block needs a closing boundary, got {ps}")
        if head == tail and not mid:
            raise ValueError(f"{kind} boundaries without pairs must decrease, got {ps}")

    def _split(self) -> tuple[int, tuple[int, ...], int]:
        """A boundary kind's head, middle pairs and closing boundary, the
        last 0 when the block has an odd length and so none."""
        ps = self.parts
        closed = len(ps) % 2 == 0
        return ps[0], ps[1 : len(ps) - closed], ps[-1] if closed else 0

    @property
    def family(self) -> Family:
        return Family(self.kind[0])

    @property
    def k(self) -> int:
        """Number of repeated interior pairs."""
        return 0 if self.kind in _PAIR_KINDS else (len(self.parts) - 1) // 2

    def render(self) -> str:
        """Human form, e.g. ``B2[3 |2,2| 1]``, ``C2[4 |3,3|]``, ``B3[1]``."""
        if self.kind in _PAIR_KINDS:
            return f"{self.kind}[{self.parts[0]},{self.parts[1]}]"
        head, mid, tail = self._split()
        body = str(head)
        if mid:
            body += " |" + ",".join(str(x) for x in mid) + "|"
        if tail:
            body += f" {tail}"
        return f"{self.kind}[{body}]"

    def modifications(self) -> ModifiedBlocks:
        """The block's variants, read off its head, middle pairs and
        closing boundary (0 when omitted)."""
        kind, ps = self.kind, self.parts
        if kind in _PAIR_KINDS:
            v = ps[0]
            split = _desc([v + 1, v - 1])
            if len(kind) == 2:  # X1
                return ModifiedBlocks(self, None, split, ps)
            # X1*: only B raises the pair, by one unit.
            return ModifiedBlocks(self, (v + 1, v) if kind == "B1*" else ps, ps, split)
        head, mid, tail = self._split()
        pairs = list(mid)
        if kind == "B3":
            return ModifiedBlocks(self, ps, _desc([head - 1] + pairs), None)
        split = _desc([head] + [x for v in mid[::2] for x in (v + 1, v - 1)] + [tail])
        if kind == "C2":
            raised = [head + 1] + pairs + [tail - 1]
            if raised[-1] < 0:
                # Closing boundary was 0: the unit borrowed there has to come out
                # of the previous entry instead.
                raised.pop()
                raised[-1] -= 1
            circ = _desc(raised)
            return ModifiedBlocks(self, circ, split, circ)
        if kind == "B2":
            circ = _desc([head] + pairs + [tail + 1])
            return ModifiedBlocks(self, circ, _desc([head - 1] + pairs + [tail + 1]), split)
        # D2
        prime = _desc([head + 1] + pairs + [tail - 1])
        if mid:
            circ = _desc([head, mid[0] + 1] + pairs[1:] + [tail - 1])
            return ModifiedBlocks(self, circ, prime, split)
        return ModifiedBlocks(self, None, prime, split)


@dataclass(frozen=True)
class ModifiedBlocks:
    """The up-to-three modification variants of a block.

    ``circ`` raises the block (absent for X1, and for D2 without middle
    pairs, and always identity on B3); ``prime`` lowers it; ``double_prime``
    splits every interior pair (absent for B3).  Variants whose construction
    is undefined for the kind are ``None``.
    """

    source: Block
    circ: tuple[int, ...] | None
    prime: tuple[int, ...]
    double_prime: tuple[int, ...] | None


def _desc(values: list[int]) -> tuple[int, ...]:
    return tuple(sorted((v for v in values if v > 0), reverse=True))


@dataclass(frozen=True)
class BlockDecomposition:
    """Ordered segmentation of a valid partition into blocks."""

    blocks: tuple[Block, ...]
    family: Family

    def __post_init__(self) -> None:
        for i, blk in enumerate(self.blocks):
            if blk.family is not self.family:
                raise ValueError(f"block {blk.kind} does not belong to family {self.family.value}")
            last = i == len(self.blocks) - 1
            if blk.kind == "B3" and not last:
                raise ValueError("B3 block must be final")
            if blk.kind == "C2" and len(blk.parts) % 2 and not last:
                raise ValueError("odd-length C2 block must be final")
        flat = [x for blk in self.blocks for x in blk.parts]
        if any(flat[i] < flat[i + 1] for i in range(len(flat) - 1)):
            raise ValueError("block boundaries must be non-increasing across the segmentation")

    def render(self) -> str:
        return " ".join(blk.render() for blk in self.blocks)


def decompose(p: Partition, family: Family) -> BlockDecomposition:
    """Unique segmentation of a valid partition into blocks.

    The scan is greedy and never backtracks: an equal pair opens and closes
    a pair block, and a part of the family's boundary parity that is not
    paired opens a boundary block.  That block absorbs equal pairs of the
    other parity until the closing boundary, or until the end of the
    partition for the final-block kinds B3 and C2.
    """
    if not is_valid(p, family):
        raise ValueError(f"{p} is not valid for family {family.value}")
    f = family.value
    bound = _boundary_parity(family)
    parts = p.parts
    n = len(parts)
    blocks: list[Block] = []
    i = 0
    while i < n:
        v = parts[i]
        if parts[i : i + 2] == (v, v):
            kind, j = f + ("1" if v % 2 else "1*"), i + 2
        elif v % 2 != bound:
            raise InvariantError(f"unpaired part {v} in {p}")
        else:
            j = i + 1
            while j + 1 < n and parts[j] % 2 != bound and parts[j] == parts[j + 1]:
                j += 2
            if j < n and parts[j] % 2 == bound:
                kind, j = f + "2", j + 1
            elif j == n and family is not Family.D:
                kind = "B3" if family is Family.B else "C2"
            else:
                raise InvariantError(f"boundary {v} is never closed in {p}")
        blocks.append(Block(kind, parts[i:j]))
        i = j
    return BlockDecomposition(tuple(blocks), family)


def _special(d: BlockDecomposition) -> bool:
    """A segmentation is special when it avoids the obstructing kinds: B1*
    in family B, boundary blocks with interior pairs in C and D.  (The
    equivalent transpose criterion is checked against it in the tests.)"""
    if d.family is Family.B:
        return all(blk.kind != "B1*" for blk in d.blocks)
    return all(not (blk.kind.endswith("2") and blk.k >= 1) for blk in d.blocks)


def _reassembly(mods: list[ModifiedBlocks], h: int) -> tuple[int, ...]:
    """Split every block before ``h``, raise block ``h`` and lower every
    block after it; ``h`` past the last block splits them all."""
    merged = [x for mb in mods[:h] for x in mb.double_prime]
    if h < len(mods):
        if mods[h].circ is None:
            raise InvariantError(f"block {mods[h].source.kind} has no raising variant")
        merged += mods[h].circ
    merged += [x for mb in mods[h + 1 :] for x in mb.prime]
    return _desc(merged)
