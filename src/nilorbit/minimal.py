"""Minimal Richardson orbits above a given orbit in the dominance order.

The construction scans the zero-padded part sequence for *witness* pairs of
equal even entries (at even/odd position pairs fixed per family), attributes
each accepted witness to the block containing it, and reassembles the
partition with the witnessed block raised, earlier blocks split, and later
blocks lowered.  Collapsing each reassembly yields exactly the minimal
Richardson orbits dominating the input.  The scan runs once per orbit, in
``spaltenstein.orbit_analysis``, whose readers hand its results out.
"""
from __future__ import annotations

from dataclasses import dataclass

from .blocks import BlockDecomposition, _reassembly, decompose
from .partitions import Family, Partition, collapse


@dataclass(frozen=True)
class IndexEntry:
    """One accepted witness: 1-based block index (``n_blocks + 1`` denotes
    the virtual block past the end; None when the partition is empty and
    has no blocks) and the 1-based witness position l."""

    block: int | None
    witness: int


@dataclass(frozen=True)
class IndexSet:
    """All accepted witnesses for a partition, in scan order."""

    entries: tuple[IndexEntry, ...]
    n_blocks: int

    def __post_init__(self) -> None:
        bs = [e.block for e in self.entries]
        ls = [e.witness for e in self.entries]
        if any(bs[i] >= bs[i + 1] for i in range(len(bs) - 1)):
            raise ValueError("witness blocks must strictly increase")
        if any(ls[i] >= ls[i + 1] for i in range(len(ls) - 1)):
            raise ValueError("witness positions must strictly increase")


def index_set(p: Partition, family: Family) -> IndexSet:
    """Scan for witnesses in the zero-padded part sequence.

    A witness at position l is an equal even pair ``d[2l] == d[2l+1]``
    (``d[2l-1] == d[2l]`` in family D).  After the first, a witness is
    accepted only if it lies in a strictly later block and an equal odd
    separator pair occurs strictly between it and the previous acceptance.
    Padding past the parts belongs to the final block in family B and to the
    virtual block past the end otherwise; an omitted C2 closing boundary
    still owns one slot of its block.
    """
    return _index_set(p, decompose(p, family))


def _index_set(p: Partition, d: BlockDecomposition) -> IndexSet:
    family = d.family
    blocks = d.blocks
    m = len(blocks)
    owner: dict[int, int] = {}
    pos = 1
    for bi, blk in enumerate(blocks):
        span = len(blk.parts())
        if blk.kind == "C2" and len(blk.betas) == 1:
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
    return IndexSet(tuple(IndexEntry(b + 1 if m else None, l) for b, l in raw_entries), m)


def _witnessed(p: Partition, d: BlockDecomposition) -> tuple[tuple[Partition, IndexEntry], ...]:
    """The witness scan on the segmentation ``d`` of ``p``: a witness in
    block h is reassembled with the blocks before h split, block h raised
    and the blocks after it lowered; the virtual block splits them all.
    Collapsing each reassembly gives a minimal Richardson orbit."""
    mods = [blk.modifications() for blk in d.blocks]
    out: list[tuple[Partition, IndexEntry]] = []
    seen: set[tuple[int, ...]] = set()
    for entry in _index_set(p, d).entries:
        h = len(mods) if entry.block is None else entry.block - 1
        r = collapse(Partition(_reassembly(mods, h)), d.family)
        if r.parts not in seen:
            seen.add(r.parts)
            out.append((r, entry))
    return tuple(out)
