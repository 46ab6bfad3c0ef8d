"""Duality between special orbits of the odd orthogonal and symplectic
families: the blockwise dual map and its inverse, and the dual pair over a
special B orbit, built once per orbit, whose pairings of Langlands-dual
fibers carry the two theorem checks (component-count seesaw and
per-component E-polynomial equality).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from .blocks import _desc
from .errors import InvariantError, VerificationError
from .levi import langlands_dual_levi
from .partitions import Family, Partition, collapse, is_valid, orbit_dim
from .spaltenstein import (
    FibrationDescriptor,
    canonical_quotient_order,
    component_count,
    e_polynomial,
    is_special,
    orbit_analysis,
    per_component,
)


def springer_dual(p: Partition) -> Partition:
    """Dual of a special odd orthogonal orbit: an equal-size symplectic
    special orbit.  Pair blocks pass through unchanged; boundary blocks are
    replaced by their lowering variants; the result is re-sorted with zeros
    dropped.
    """
    if not is_valid(p, Family.B):
        raise ValueError(f"{p} is not valid for family B")
    analysis = orbit_analysis(p, Family.B)
    if not analysis.special:
        raise ValueError(f"{p} is not special in family B")
    merged: list[int] = []
    for blk in analysis.decomposition.blocks:
        if blk.kind == "B1":
            merged += blk.parts
        else:
            merged += blk.modifications().prime
    out = Partition(_desc(merged))
    if not is_special(out, Family.C):
        raise InvariantError(f"dual {out} of {p} is not special in family C")
    return out


def springer_dual_inverse(p: Partition) -> Partition:
    """The unique special odd orthogonal orbit mapping onto a special
    symplectic one: raise the first part and collapse.  A round trip that
    does not come back to ``p`` is a verification failure and raises
    VerificationError.
    """
    if not is_valid(p, Family.C):
        raise ValueError(f"{p} is not valid for family C")
    if not is_special(p, Family.C):
        raise ValueError(f"{p} is not special in family C")
    bumped = Partition(((p.parts[0] + 1,) if p.parts else (1,)) + p.parts[1:])
    out = collapse(bumped, Family.B)
    if not (is_special(out, Family.B) and springer_dual(out) == p):
        raise VerificationError(
            f"raising the first part of {p} and collapsing gives {out}, "
            f"which is not a special orbit dual to {p}"
        )
    return out


@dataclass(frozen=True)
class DualPair:
    """A special B orbit, its dual C orbit, the order #A-bar of the B orbit's
    canonical quotient, and one pairing per minimal Richardson pair and
    Langlands-dual polarization pair: the descriptors of the two dual
    fibers, B side first, in the B orbit's (witness, polarization) order."""

    b_orbit: Partition
    c_orbit: Partition
    a_bar: int
    pairings: tuple[tuple[FibrationDescriptor, FibrationDescriptor], ...]

    @functools.cached_property
    def _records(self) -> tuple[dict, ...]:
        """The pairing records, walked once per pair."""
        return tuple(_walk_pairings(self))


@functools.lru_cache(maxsize=None)
def dual_pair(b: Partition) -> DualPair:
    """The verified dual pair over the special B orbit ``b``, built once per
    orbit from the cached analyses of both orbits.

    Checks, raising VerificationError with the offending data on failure: the
    dual is dimension-preserving; minimal Richardson orbits commute with
    the dual map; and the polarizations of each minimal pair correspond
    bijectively under the Levi duality.
    """
    c = springer_dual(b)
    if orbit_dim(b, Family.B) != orbit_dim(c, Family.C):
        raise VerificationError(
            f"dual pair ({b}, {c}) is not dimension-preserving: "
            f"{orbit_dim(b, Family.B)} vs {orbit_dim(c, Family.C)}"
        )
    an_b, an_c = orbit_analysis(b, Family.B), orbit_analysis(c, Family.C)
    mapped = {r: springer_dual(r) for r in an_b.minimal}
    if sorted(x.parts for x in mapped.values()) != sorted(x.parts for x in an_c.minimal):
        raise VerificationError(
            f"minimal Richardson orbits do not commute with the dual on {b}: "
            f"{[str(x) for x in mapped.values()]} vs {[str(x) for x in an_c.minimal]}"
        )
    unpaired = {(d.min_richardson, d.levi): d for d in an_c.descriptors}
    pairings = []
    for d_b in an_b.descriptors:
        r_c, levi_c = mapped[d_b.min_richardson], langlands_dual_levi(d_b.levi)
        d_c = unpaired.pop((r_c, levi_c), None)
        if d_c is None:
            raise VerificationError(f"dual Levi {levi_c} of {d_b.levi} does not polarize {r_c}")
        pairings.append((d_b, d_c))
    if unpaired:
        raise VerificationError(
            f"polarizations of ({b}, {c}) do not correspond: "
            f"{[f'{r} via {levi}' for r, levi in unpaired]} have no B-side partner"
        )
    return DualPair(b, c, canonical_quotient_order(b), tuple(pairings))


def pairing_records(dp: DualPair) -> list[dict]:
    """One fresh record per pairing of ``dp`` with both theorem verdicts:
    ``verdict`` compares the product of the two fiber component counts with
    #A-bar (the seesaw), and ``e_equal`` requires the per-component
    E-polynomials of the two fibers to agree, with both divisions exact.
    The pairings are walked once per pair, and each call copies the record
    dicts; their list and dict values are shared and must not be changed
    in place."""
    return [dict(rec) for rec in dp._records]


def _walk_pairings(dp: DualPair) -> list[dict]:
    records = []
    for d_b, d_c in dp.pairings:
        comp_b, comp_c = component_count(d_b), component_count(d_c)
        e_b, e_c = e_polynomial(d_b), e_polynomial(d_c)
        per_b, per_c = per_component(d_b), per_component(d_c)
        if per_c is None:  # both divisions must be exact
            per_b = None
        records.append({
            "b_orbit": list(dp.b_orbit.parts),
            "c_orbit": list(dp.c_orbit.parts),
            "min_pair": [list(d_b.min_richardson.parts), list(d_c.min_richardson.parts)],
            "levi_pair": [d_b.levi.literal(), d_c.levi.literal()],
            "descriptor_b": d_b.as_dict(),
            "descriptor_c": d_c.as_dict(),
            "components": [comp_b, comp_c],
            "product": comp_b * comp_c,
            "a_bar": dp.a_bar,
            "verdict": "pass" if comp_b * comp_c == dp.a_bar else "fail",
            "e_poly": [list(e_b.coeffs), list(e_c.coeffs)],
            "per_component": None if per_b is None else list(per_b.coeffs),
            "e_equal": "pass" if per_b is not None and per_b == per_c else "fail",
        })
    return records
