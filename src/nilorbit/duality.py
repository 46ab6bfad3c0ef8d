"""Duality between special orbits of the odd orthogonal and symplectic
families: the blockwise dual map and its inverse, dual pairs of minimal
Richardson orbits with Langlands-dual polarizations, and the two theorem
checks (component-count seesaw and per-component E-polynomial equality).
"""
from __future__ import annotations

from dataclasses import dataclass

from .blocks import canonical_quotient_order, is_special
from .errors import InvariantError
from .levi import LeviType, langlands_dual_levi, polarizations
from .partitions import Family, Partition, collapse, enumerate_valid, is_valid, orbit_dim
from .spaltenstein import component_count, descriptor, e_polynomial, orbit_analysis


def springer_dual(p: Partition) -> Partition:
    """Dual of a special odd orthogonal orbit: an equal-size symplectic
    special orbit.  Pair blocks pass through unchanged; boundary blocks are
    replaced by their lowering variants; the result is re-sorted with zeros
    dropped.  A one-step cross-check (decrement the last part, then
    symplectic collapse) is asserted on every call.
    """
    if not is_valid(p, Family.B):
        raise ValueError(f"{p} is not valid for family B")
    analysis = orbit_analysis(p, Family.B)
    if not analysis.special:
        raise ValueError(f"{p} is not special in family B")
    merged: list[int] = []
    for blk in analysis.decomposition.blocks:
        if blk.kind == "B1":
            merged += blk.parts()
        else:
            merged += blk.modifications().prime
    out = Partition(tuple(sorted((x for x in merged if x > 0), reverse=True)))
    lowered = p.parts[:-1] + ((p.parts[-1] - 1,) if p.parts[-1] > 1 else ())
    alt = collapse(Partition(lowered), Family.C)
    if out != alt:
        raise InvariantError(f"blockwise dual of {p} disagrees with collapse route: {out} vs {alt}")
    if not is_special(out, Family.C):
        raise InvariantError(f"dual {out} of {p} is not special in family C")
    return out


def springer_dual_inverse(p: Partition) -> Partition:
    """The unique special odd orthogonal orbit mapping onto a special
    symplectic one: raise the first part and collapse.  If the round trip
    ever failed, an exhaustive search would arbitrate; a disagreement there
    is a hard error.
    """
    if not is_valid(p, Family.C):
        raise ValueError(f"{p} is not valid for family C")
    if not is_special(p, Family.C):
        raise ValueError(f"{p} is not special in family C")
    bumped = Partition(((p.parts[0] + 1,) if p.parts else (1,)) + p.parts[1:])
    out = collapse(bumped, Family.B)
    if is_special(out, Family.B) and springer_dual(out) == p:
        return out
    matches = [
        b
        for b in enumerate_valid(p.n + 1, Family.B)
        if is_special(b, Family.B) and springer_dual(b) == p
    ]
    if len(matches) != 1:
        raise RuntimeError(f"no unique special preimage of {p}: {matches}")
    return matches[0]


@dataclass(frozen=True)
class DualPair:
    """A special orbit pair with its matched minimal Richardson orbits and,
    per minimal pair, the Langlands-dual polarization pairs."""

    b_orbit: Partition
    c_orbit: Partition
    min_richardson_pairs: tuple[tuple[Partition, Partition], ...]
    polarization_pairs: tuple[tuple[tuple[LeviType, LeviType], ...], ...]


def dual_pair(b: Partition) -> DualPair:
    """Assemble and verify the full dual pair over a special B orbit.

    Checks, raising RuntimeError with the offending data on failure: the
    dual is dimension-preserving; minimal Richardson orbits commute with
    the dual map; and the polarization sets of each minimal pair correspond
    bijectively under the Levi duality.
    """
    c = springer_dual(b)
    if orbit_dim(b, Family.B) != orbit_dim(c, Family.C):
        raise RuntimeError(
            f"dual pair ({b}, {c}) is not dimension-preserving: "
            f"{orbit_dim(b, Family.B)} vs {orbit_dim(c, Family.C)}"
        )
    min_b = orbit_analysis(b, Family.B).minimal
    min_c = orbit_analysis(c, Family.C).minimal
    mapped = [springer_dual(r) for r in min_b]
    if sorted(x.parts for x in mapped) != sorted(x.parts for x in min_c):
        raise RuntimeError(
            f"minimal Richardson orbits do not commute with the dual on {b}: "
            f"{[str(x) for x in mapped]} vs {[str(x) for x in min_c]}"
        )
    min_pairs = tuple(zip(min_b, mapped))
    all_levi_pairs = []
    for r_b, r_c in min_pairs:
        pols_b = polarizations(r_b, Family.B)
        pols_c = polarizations(r_c, Family.C)
        pairs = []
        for levi_b in pols_b:
            levi_c = langlands_dual_levi(levi_b)
            if levi_c not in pols_c:
                raise RuntimeError(
                    f"dual Levi {levi_c} of {levi_b} does not polarize {r_c}"
                )
            pairs.append((levi_b, levi_c))
        if len(pols_c) != len(pairs):
            raise RuntimeError(
                f"polarization sets of ({r_b}, {r_c}) do not correspond: "
                f"{len(pairs)} vs {len(pols_c)}"
            )
        all_levi_pairs.append(tuple(pairs))
    return DualPair(b, c, min_pairs, tuple(all_levi_pairs))


@dataclass(frozen=True)
class Report:
    """Outcome of one verification sweep: per-case records and a verdict."""

    records: tuple[dict, ...]
    check: str

    @property
    def ok(self) -> bool:
        return all(rec["verdict"] == "pass" for rec in self.records)


def _paired_descriptors(dp: DualPair):
    for (r_b, r_c), levi_pairs in zip(dp.min_richardson_pairs, dp.polarization_pairs):
        for levi_b, levi_c in levi_pairs:
            d_b = descriptor(dp.b_orbit, Family.B, r_b, levi_b)
            d_c = descriptor(dp.c_orbit, Family.C, r_c, levi_c)
            yield r_b, r_c, levi_b, levi_c, d_b, d_c


def _base_record(dp: DualPair, r_b, r_c, levi_b, levi_c, d_b, d_c) -> dict:
    return {
        "b_orbit": list(dp.b_orbit.parts),
        "c_orbit": list(dp.c_orbit.parts),
        "min_pair": [list(r_b.parts), list(r_c.parts)],
        "levi_pair": [levi_b.literal(), levi_c.literal()],
        "descriptor_b": d_b.as_dict(),
        "descriptor_c": d_c.as_dict(),
    }


def seesaw_check(dp: DualPair) -> Report:
    """Product of the two fiber component counts against the canonical
    quotient order of the B-side orbit, for every minimal pair and every
    dual polarization pair."""
    a_bar = canonical_quotient_order(dp.b_orbit)
    records = []
    for r_b, r_c, levi_b, levi_c, d_b, d_c in _paired_descriptors(dp):
        comp_b, comp_c = component_count(d_b), component_count(d_c)
        rec = _base_record(dp, r_b, r_c, levi_b, levi_c, d_b, d_c)
        rec.update(
            components=[comp_b, comp_c],
            product=comp_b * comp_c,
            a_bar=a_bar,
            verdict="pass" if comp_b * comp_c == a_bar else "fail",
        )
        records.append(rec)
    return Report(tuple(records), "seesaw")


def epoly_equality_check(dp: DualPair) -> Report:
    """Per-component E-polynomials of the two dual fibers must agree, with
    both divisions exact in integer polynomials."""
    records = []
    for r_b, r_c, levi_b, levi_c, d_b, d_c in _paired_descriptors(dp):
        e_b, e_c = e_polynomial(d_b), e_polynomial(d_c)
        comp_b, comp_c = component_count(d_b), component_count(d_c)
        rec = _base_record(dp, r_b, r_c, levi_b, levi_c, d_b, d_c)
        rec.update(
            e_poly=[list(e_b.coeffs), list(e_c.coeffs)],
            components=[comp_b, comp_c],
        )
        try:
            per_b = e_b.exact_div(comp_b)
            per_c = e_c.exact_div(comp_c)
            rec["per_component"] = list(per_b.coeffs)
            rec["verdict"] = "pass" if per_b == per_c else "fail"
        except ValueError:
            rec["per_component"] = None
            rec["verdict"] = "fail"
        records.append(rec)
    return Report(tuple(records), "epoly")
