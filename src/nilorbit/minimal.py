"""Minimal Richardson orbits above a given orbit in the dominance order.

The construction scans the zero-padded part sequence for *witness* pairs of
equal even entries (at even/odd position pairs fixed per family), attributes
each accepted witness to the block containing it, and reassembles the
partition with the witnessed block raised, earlier blocks split, and later
blocks lowered.  Collapsing each reassembly yields exactly the minimal
Richardson orbits dominating the input.  The scan is one forward pass over
the padded parts, with one flag for the separator that must come between
two accepted witnesses (``_index_set``).  It runs once per orbit, in
``spaltenstein.orbit_analysis``, whose readers hand its results out.
"""
from __future__ import annotations

from dataclasses import dataclass

from .blocks import BlockDecomposition, _reassembly
from .partitions import Family, Partition, collapse


@dataclass(frozen=True)
class IndexEntry:
    """One accepted witness: 1-based block index (one past the last block
    denotes the virtual block past the end; None when the partition is
    empty and has no blocks) and the 1-based witness position l."""

    block: int | None
    witness: int


@dataclass(frozen=True)
class IndexSet:
    """All accepted witnesses for a partition, in scan order."""

    entries: tuple[IndexEntry, ...]

    def __post_init__(self) -> None:
        bs = [e.block for e in self.entries]
        ls = [e.witness for e in self.entries]
        if any(bs[i] >= bs[i + 1] for i in range(len(bs) - 1)):
            raise ValueError("witness blocks must strictly increase")
        if any(ls[i] >= ls[i + 1] for i in range(len(ls) - 1)):
            raise ValueError("witness positions must strictly increase")


def _index_set(p: Partition, d: BlockDecomposition) -> IndexSet:
    """Scan for witnesses in the zero-padded part sequence x of ``p``, on
    its segmentation ``d``, in one forward pass.

    A witness at position l is an equal even pair ``x[2l] == x[2l+1]``
    (``x[2l-1] == x[2l]`` in family D).  After the first, a witness is
    accepted only if it lies in a strictly later block and an equal odd
    separator pair occurs strictly between it and the previous acceptance.
    Padding past the parts belongs to the final block in family B and to the
    virtual block past the end otherwise; an omitted C2 closing boundary
    still owns one slot of its block.  The scan stops at the first witness
    in the virtual block, or at a zero witness in family B.

    The pass reads each position's block off a list laid out from the block
    lengths, and one ``separated`` flag stands in for a search back: the
    equal odd pair ``x[2l+1] == x[2l+2]`` (one place earlier in family D)
    after each position l sets it, and an acceptance clears it.  An
    accepted witness needs no guard against serving as its own separator:
    the pair after it begins with its second entry, which is even.
    """
    m = len(d.blocks)
    woff = -1 if d.family is Family.D else 0
    x = (0,) + p.parts + (0,) * 6  # x[i]: the part at 1-based i, through the last read, len + 6
    owner = [m]  # owner[i] is the 0-based block of position i
    for bi, blk in enumerate(d.blocks):
        owner += [bi] * (len(blk.parts) + (blk.kind == "C2" and len(blk.parts) % 2))
    owner += [m - 1 if d.family is Family.B else m] * (len(x) - len(owner))
    raw_entries: list[tuple[int, int]] = []
    separated = False
    for l in range(1, len(p.parts) // 2 + 3):
        i = 2 * l + woff
        if x[i] == x[i + 1] and x[i] % 2 == 0:
            b = owner[i]
            if not raw_entries or (b > raw_entries[-1][0] and separated):
                raw_entries.append((b, l))
                separated = False
            if b >= m or (d.family is Family.B and x[i] == 0):
                break
        separated = separated or (x[i + 1] == x[i + 2] and x[i + 1] % 2 == 1)
    return IndexSet(tuple(IndexEntry(b + 1 if m else None, l) for b, l in raw_entries))


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
