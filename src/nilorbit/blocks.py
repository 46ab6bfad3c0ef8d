"""Segmentation of a valid partition into boundary/pair blocks, the three
modification variants of each block, the specialness criterion read off the
segmentation, and the reassembly of modified blocks that the witness scan
in ``minimal`` collapses into minimal Richardson orbits.

Block kinds, per family letter X in {B, C, D}:

* ``X1``   -- an equal pair of odd parts ``[a, a]``.
* ``X1*``  -- an equal pair of even parts ``[b, b]``.
* ``X2``   -- boundary parts enclosing repeated pairs.  For B and D the
  boundaries are odd and the middle pairs even: ``[a1, b1, b1, ..., a2]``.
  For C the boundaries are even and the middle pairs odd:
  ``[b1, a1, a1, ..., b2]``, where the closing boundary ``b2`` may be 0, in
  which case it is omitted from the parts and the block has odd length.
* ``B3``   -- family B only, as the final block: one odd part followed by
  even pairs, ``[a, b1, b1, ...]``.

Every valid partition splits uniquely into a left-to-right sequence of such
blocks; ``decompose`` computes the segmentation greedily and
``BlockDecomposition.partition`` inverts it.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvariantError
from .partitions import Family, Partition, is_valid

_PAIR_KINDS = ("B1", "C1", "D1")
_STAR_KINDS = ("B1*", "C1*", "D1*")
_SPAN_KINDS = ("B2", "C2", "D2", "B3")


@dataclass(frozen=True)
class Block:
    """One segment of a partition.

    ``alphas`` holds the odd values and ``betas`` the even values appearing
    in the block, each repeated value stored once:

    * X1: ``alphas = (a, a)``, betas empty.
    * X1*: ``betas = (b,)`` for the pair ``[b, b]``.
    * B2/D2: ``alphas = (a1, a2)`` boundaries, ``betas`` the middle pair values.
    * C2: ``betas = (b1, b2)`` boundaries (``(b1,)`` when the closing boundary
      is the omitted 0), ``alphas`` the middle pair values.
    * B3: ``alphas = (a,)``, ``betas`` the trailing pair values.
    """

    kind: str
    alphas: tuple[int, ...] = ()
    betas: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        a, b = self.alphas, self.betas
        if any(x % 2 == 0 or x <= 0 for x in a):
            raise ValueError(f"alphas must be positive odd values, got {a}")
        if any(x % 2 == 1 or x <= 0 for x in b):
            raise ValueError(f"betas must be positive even values, got {b}")
        k = self.kind
        if k in _PAIR_KINDS:
            if len(a) != 2 or a[0] != a[1] or b:
                raise ValueError(f"{k} block must be an equal odd pair, got {a}, {b}")
        elif k in _STAR_KINDS:
            if len(b) != 1 or a:
                raise ValueError(f"{k} block must be a single even pair value, got {a}, {b}")
        elif k in ("B2", "D2"):
            if len(a) != 2:
                raise ValueError(f"{k} block needs two odd boundaries, got {a}")
            if any(b[i] < b[i + 1] for i in range(len(b) - 1)):
                raise ValueError(f"{k} middle pairs must be non-increasing, got {b}")
            if b and not (a[0] > b[0] and b[-1] > a[1]):
                raise ValueError(f"{k} boundaries must enclose the pairs: {a}, {b}")
            if not b and a[0] <= a[1]:
                raise ValueError(f"{k} boundaries must decrease, got {a}")
        elif k == "C2":
            if not 1 <= len(b) <= 2:
                raise ValueError(f"C2 needs one or two even boundaries, got {b}")
            if any(a[i] < a[i + 1] for i in range(len(a) - 1)):
                raise ValueError(f"C2 middle pairs must be non-increasing, got {a}")
            if a and b[0] <= a[0]:
                raise ValueError(f"C2 opening boundary must dominate the pairs: {a}, {b}")
            if len(b) == 2:
                if a and a[-1] <= b[1]:
                    raise ValueError(f"C2 pairs must dominate the closing boundary: {a}, {b}")
                if not a and b[0] <= b[1]:
                    raise ValueError(f"C2 boundaries must decrease, got {b}")
        elif k == "B3":
            if len(a) != 1:
                raise ValueError(f"B3 needs a single odd boundary, got {a}")
            if any(b[i] < b[i + 1] for i in range(len(b) - 1)):
                raise ValueError(f"B3 pairs must be non-increasing, got {b}")
            if b and a[0] <= b[0]:
                raise ValueError(f"B3 boundary must dominate the pairs: {a}, {b}")
        else:
            raise ValueError(f"unknown block kind {k!r}")

    @property
    def family(self) -> Family:
        return Family(self.kind[0])

    @property
    def k(self) -> int:
        """Number of repeated interior pairs."""
        if self.kind in ("B2", "D2", "B3"):
            return len(self.betas)
        if self.kind == "C2":
            return len(self.alphas)
        return 0

    def parts(self) -> tuple[int, ...]:
        k = self.kind
        if k in _PAIR_KINDS:
            return self.alphas
        if k in _STAR_KINDS:
            return (self.betas[0], self.betas[0])
        if k in ("B2", "D2"):
            mid = tuple(x for b in self.betas for x in (b, b))
            return (self.alphas[0],) + mid + (self.alphas[1],)
        if k == "C2":
            mid = tuple(x for a in self.alphas for x in (a, a))
            tail = (self.betas[1],) if len(self.betas) == 2 else ()
            return (self.betas[0],) + mid + tail
        mid = tuple(x for b in self.betas for x in (b, b))
        return (self.alphas[0],) + mid

    @property
    def size(self) -> int:
        return sum(self.parts())

    def render(self) -> str:
        """Human form, e.g. ``B2[3 |2,2| 1]``, ``C2[4 |3,3|]``, ``B3[1]``."""
        ps = self.parts()
        if self.kind in _PAIR_KINDS or self.kind in _STAR_KINDS:
            return f"{self.kind}[{ps[0]},{ps[1]}]"
        head, mid, tail = ps[0], ps[1:], ()
        if self.kind in ("B2", "D2") or (self.kind == "C2" and len(self.betas) == 2):
            mid, tail = ps[1:-1], (ps[-1],)
        body = str(head)
        if mid:
            body += " |" + ",".join(str(x) for x in mid) + "|"
        if tail:
            body += f" {tail[0]}"
        return f"{self.kind}[{body}]"

    def modifications(self) -> "ModifiedBlocks":
        return _modify(self)


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

    def variant(self, name: str) -> tuple[int, ...]:
        value = {"circ": self.circ, "prime": self.prime, "double_prime": self.double_prime}[name]
        if value is None:
            raise LookupError(f"variant {name!r} is undefined for kind {self.source.kind}")
        return value


def _split_pairs(values: tuple[int, ...]) -> list[int]:
    out: list[int] = []
    for v in values:
        out += [v + 1, v - 1]
    return out


def _desc(values: list[int]) -> tuple[int, ...]:
    return tuple(sorted((v for v in values if v > 0), reverse=True))


def _modify(blk: Block) -> ModifiedBlocks:
    k = blk.kind
    if k in _PAIR_KINDS:
        a = blk.alphas[0]
        return ModifiedBlocks(blk, None, _desc([a + 1, a - 1]), (a, a))
    if k == "B1*":
        b = blk.betas[0]
        return ModifiedBlocks(blk, (b + 1, b), (b, b), _desc([b + 1, b - 1]))
    if k in ("C1*", "D1*"):
        b = blk.betas[0]
        return ModifiedBlocks(blk, (b, b), (b, b), _desc([b + 1, b - 1]))
    if k in ("B2", "D2"):
        a1, a2 = blk.alphas
        pairs = [x for b in blk.betas for x in (b, b)]
        dp = _desc([a1] + _split_pairs(blk.betas) + [a2])
        if k == "B2":
            circ = _desc([a1] + pairs + [a2 + 1])
            prime = _desc([a1 - 1] + pairs + [a2 + 1])
            return ModifiedBlocks(blk, circ, prime, dp)
        prime = _desc([a1 + 1] + pairs + [a2 - 1])
        if blk.betas:
            b1, rest = blk.betas[0], blk.betas[1:]
            circ = _desc([a1, b1 + 1, b1] + [x for b in rest for x in (b, b)] + [a2 - 1])
            return ModifiedBlocks(blk, circ, prime, dp)
        return ModifiedBlocks(blk, None, prime, dp)
    if k == "C2":
        b1 = blk.betas[0]
        b2 = blk.betas[1] if len(blk.betas) == 2 else 0
        pairs = [x for a in blk.alphas for x in (a, a)]
        prime = _desc([b1] + _split_pairs(blk.alphas) + [b2])
        raised = [b1 + 1] + pairs + [b2 - 1]
        if raised[-1] < 0:
            # Closing boundary was 0: the unit borrowed there has to come out
            # of the previous entry instead.
            raised.pop()
            raised[-1] -= 1
        circ = _desc(raised)
        return ModifiedBlocks(blk, circ, prime, circ)
    # B3
    a = blk.alphas[0]
    pairs = [x for b in blk.betas for x in (b, b)]
    return ModifiedBlocks(blk, blk.parts(), _desc([a - 1] + pairs), None)


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
            if blk.kind == "C2" and len(blk.betas) == 1 and not last:
                raise ValueError("odd-length C2 block must be final")
        flat = [x for blk in self.blocks for x in blk.parts()]
        if any(flat[i] < flat[i + 1] for i in range(len(flat) - 1)):
            raise ValueError("block boundaries must be non-increasing across the segmentation")

    def partition(self) -> Partition:
        return Partition(tuple(x for blk in self.blocks for x in blk.parts()))

    def render(self) -> str:
        return " ".join(blk.render() for blk in self.blocks)


def decompose(p: Partition, family: Family) -> BlockDecomposition:
    """Unique segmentation of a valid partition into blocks.

    The scan is greedy and never backtracks: an equal pair of the family's
    self-paired parity opens and closes a pair block, anything else opens a
    boundary block that absorbs repeated pairs until the closing boundary
    (or the end of the partition, for the final-block kinds).
    """
    if not is_valid(p, family):
        raise ValueError(f"{p} is not valid for family {family.value}")
    f = family.value
    parts = p.parts
    blocks: list[Block] = []
    i = 0
    while i < len(parts):
        v = parts[i]
        if family is Family.C:
            if v % 2 == 1:
                if i + 1 >= len(parts) or parts[i + 1] != v:
                    raise InvariantError(f"unpaired odd part {v} in {p}")
                blocks.append(Block("C1", alphas=(v, v)))
                i += 2
                continue
            if i + 1 < len(parts) and parts[i + 1] == v:
                blocks.append(Block("C1*", betas=(v,)))
                i += 2
                continue
            b1 = v
            j = i + 1
            mids: list[int] = []
            while j + 1 < len(parts) and parts[j] % 2 == 1 and parts[j] == parts[j + 1]:
                mids.append(parts[j])
                j += 2
            if j < len(parts):
                if parts[j] % 2 == 1:
                    raise InvariantError(f"unpaired odd part {parts[j]} in {p}")
                blocks.append(Block("C2", alphas=tuple(mids), betas=(b1, parts[j])))
                i = j + 1
            else:
                blocks.append(Block("C2", alphas=tuple(mids), betas=(b1,)))
                i = j
            continue
        if v % 2 == 0:
            if i + 1 >= len(parts) or parts[i + 1] != v:
                raise InvariantError(f"unpaired even part {v} in {p}")
            blocks.append(Block(f + "1*", betas=(v,)))
            i += 2
            continue
        if i + 1 < len(parts) and parts[i + 1] == v:
            blocks.append(Block(f + "1", alphas=(v, v)))
            i += 2
            continue
        a1 = v
        j = i + 1
        mids = []
        while j + 1 < len(parts) and parts[j] % 2 == 0 and parts[j] == parts[j + 1]:
            mids.append(parts[j])
            j += 2
        if j < len(parts) and parts[j] % 2 == 1:
            blocks.append(Block(f + "2", alphas=(a1, parts[j]), betas=tuple(mids)))
            i = j + 1
        else:
            if family is not Family.B or j < len(parts):
                raise InvariantError(f"stranded odd boundary {a1} in {p}")
            blocks.append(Block("B3", alphas=(a1,), betas=tuple(mids)))
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
