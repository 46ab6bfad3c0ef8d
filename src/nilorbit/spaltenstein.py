"""Fibration descriptors for the reduced fibers of generalized Springer maps:
the tower of maximal orthogonal Grassmannian steps, the Lagrangian factors,
and the dimension / component count / E-polynomial read off them.

A descriptor is attached to a triple (orbit ``p``, minimal Richardson orbit
``R`` over it, polarization ``L`` of ``R``).  The split index of ``L`` cuts
the zero-padded part sequence of ``p`` into a head and a tail; the values of
``p`` wholly inside the relevant segment are *distinguished* and their
multiplicities drive the two factor families.

The module also holds ``orbit_analysis``, everything the package derives
from one orbit on its own, cached per (partition, family), and the public
readers of it: ``is_special``, ``is_richardson``,
``canonical_quotient_order``, ``minimal_richardson_witnessed``,
``minimal_richardson_orbits`` and ``pseudo_polarizations``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from .blocks import BlockDecomposition, _special, decompose
from .errors import InvariantError
from .levi import LeviType, polarizations
from .minimal import IndexEntry, _witnessed
from .partitions import Family, Partition


@dataclass(frozen=True)
class EPolynomial:
    """Integer polynomial in q with ascending coefficients."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs):
        cs = list(int(c) for c in coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def one(cls) -> "EPolynomial":
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __mul__(self, other: "EPolynomial") -> "EPolynomial":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return EPolynomial(out)

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def exact_div(self, k: int) -> "EPolynomial":
        """Divide by a positive integer; raises if any coefficient resists."""
        if k <= 0:
            raise ValueError(f"divisor must be positive, got {k}")
        if any(c % k for c in self.coeffs):
            raise ValueError(f"{self} is not divisible by {k}")
        return EPolynomial(tuple(c // k for c in self.coeffs))

    def __str__(self) -> str:
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                q = "q" if i == 1 else f"q^{i}"
                terms.append(q if c == 1 else f"{c}{q}")
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class GrassStep:
    """One Grassmannian factor: isotropic ``m``-planes in an ``n``-space.

    ``OG`` steps are maximal orthogonal (n = 2m or 2m+1); ``IG`` steps are
    Lagrangian (n = 2m).
    """

    kind: str
    m: int
    n: int

    def __post_init__(self) -> None:
        if self.kind not in ("OG", "IG"):
            raise ValueError(f"unknown step kind {self.kind!r}")
        if self.m < 0 or self.n < 0:
            raise ValueError("step parameters must be non-negative")
        if self.kind == "OG" and self.n not in (2 * self.m, 2 * self.m + 1):
            raise ValueError(f"OG step must be maximal, got OG({self.m},{self.n})")
        if self.kind == "IG" and self.n != 2 * self.m:
            raise ValueError(f"IG step must be Lagrangian, got IG({self.m},{self.n})")

    @property
    def dimension(self) -> int:
        if self.kind == "OG" and self.n == 2 * self.m:
            return self.m * (self.m - 1) // 2
        return self.m * (self.m + 1) // 2

    @property
    def is_split_even(self) -> bool:
        """An OG(m, 2m) step with m >= 1: two connected components."""
        return self.kind == "OG" and self.n == 2 * self.m and self.m >= 1

    def e_polynomial(self) -> EPolynomial:
        poly = EPolynomial.one()
        if self.kind == "IG" or self.n == 2 * self.m + 1:
            for j in range(1, self.m + 1):
                poly = poly * EPolynomial((1,) + (0,) * (j - 1) + (1,))
        else:
            for j in range(1, self.m):
                poly = poly * EPolynomial((1,) + (0,) * (j - 1) + (1,))
            if self.m >= 1:
                poly = poly * EPolynomial((2,))
        return poly

    def __str__(self) -> str:
        return f"{self.kind}({self.m},{self.n})"


def split_index(levi: LeviType) -> int:
    """The l with 2l+1 (odd orthogonal) or 2l (otherwise) leading odd
    entries in the Levi's raw induced shape; equals (q-1)/2 resp. q/2."""
    if levi.family is Family.B:
        return (levi.q - 1) // 2
    return levi.q // 2


def distinguished_values(
    p: Partition, family: Family, l: int
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Distinguished odd and even values of ``p`` for head length 2l+1
    (family B) or 2l (C and D), as (value, multiplicity) lists in decreasing
    value order.

    A value is distinguished only when every occurrence sits wholly in its
    segment: odd values must lie entirely in the tail, even values entirely
    in the head.  Values straddling the boundary are discarded.
    """
    head_len = 2 * l + 1 if family is Family.B else 2 * l
    odd: list[tuple[int, int]] = []
    even: list[tuple[int, int]] = []
    for v in sorted(set(p.parts), reverse=True):
        first = p.parts.index(v) + 1
        mult = p.parts.count(v)
        if v % 2 == 1 and first > head_len:
            odd.append((v, mult))
        if v % 2 == 0 and first + mult - 1 <= head_len:
            even.append((v, mult))
    ig_side = odd if family is Family.C else even
    for v, mult in ig_side:
        if mult % 2 != 0:
            raise InvariantError(f"Lagrangian-side value {v} of {p} has odd multiplicity {mult}")
    return odd, even


def og_tower(ns: list[int]) -> list[GrassStep]:
    """Tower of maximal orthogonal steps from a multiplicity sequence.

    With prefix sums S_j, step j is OG(floor(S_j/2) - floor(S_{j-1}/2),
    S_j - 2*floor(S_{j-1}/2)); steps with m = 0 are kept and contribute a
    point.  Maximality holds for every parity combination and is asserted.
    """
    steps: list[GrassStep] = []
    prev = 0
    for n in ns:
        if n <= 0:
            raise ValueError(f"multiplicities must be positive, got {n}")
        cur = prev + n
        steps.append(GrassStep("OG", cur // 2 - prev // 2, cur - 2 * (prev // 2)))
        prev = cur
    return steps


def ig_factors(ns: list[int]) -> list[GrassStep]:
    """Independent Lagrangian factors IG(n/2, n), one per multiplicity."""
    for n in ns:
        if n % 2 != 0:
            raise ValueError(f"Lagrangian factors need even multiplicities, got {n}")
    return [GrassStep("IG", n // 2, n) for n in ns]


@dataclass(frozen=True)
class FibrationDescriptor:
    """Shape of one reduced fiber: an orthogonal tower, Lagrangian factors,
    and the (orbit, minimal Richardson, Levi, split index) context."""

    og_tower: tuple[GrassStep, ...]
    ig_factors: tuple[GrassStep, ...]
    orbit: Partition
    family: Family
    min_richardson: Partition
    levi: LeviType
    split: int

    @property
    def dimension(self) -> int:
        return sum(s.dimension for s in self.og_tower) + sum(
            s.dimension for s in self.ig_factors
        )

    @functools.cached_property
    def _e_polynomial(self) -> EPolynomial:
        poly = EPolynomial.one()
        for step in self.og_tower:
            if step.kind != "OG":
                raise ValueError("tower steps must be orthogonal")
            poly = poly * step.e_polynomial()
        for step in self.ig_factors:
            poly = poly * step.e_polynomial()
        if poly.degree != self.dimension:
            raise InvariantError(f"degree {poly.degree} != dimension {self.dimension}")
        return poly

    def as_dict(self) -> dict:
        return {
            "og_tower": [{"m": s.m, "N": s.n} for s in self.og_tower],
            "ig_factors": [{"m": s.m, "N": s.n} for s in self.ig_factors],
            "dim": self.dimension,
            "components": component_count(self),
            "e_poly": list(e_polynomial(self).coeffs),
        }


def descriptor(
    p: Partition, family: Family, r: Partition, levi: LeviType
) -> FibrationDescriptor:
    """Fibration descriptor of the fiber over ``p`` of the map attached to
    ``levi``, a polarization of the minimal Richardson orbit ``r``, read
    from the cached orbit analysis of ``p``.

    Raises ``ValueError`` unless r is a minimal Richardson orbit over ``p``
    and ``levi`` polarizes r.
    """
    analysis = orbit_analysis(p, family)
    if r not in analysis.minimal:
        raise ValueError(f"{r} is not a minimal Richardson orbit over {p}")
    for d in analysis.descriptors:
        if d.min_richardson == r and d.levi == levi:
            return d
    raise ValueError(f"{levi} is not a polarization of {r}")


def _descriptor(p: Partition, family: Family, r: Partition, levi: LeviType) -> FibrationDescriptor:
    """The descriptor of a pseudo-polarization (r, levi) of ``p``, which the
    caller guarantees it is."""
    l = split_index(levi)
    odd, even = distinguished_values(p, family, l)
    og_vals, ig_vals = (even, odd) if family is Family.C else (odd, even)
    # Tower order is family-dependent: for B and D the flag conditions run
    # over suffix ranges of the tail values, so the tower peels off the
    # smallest value first; for C the head values enter largest-first.
    og_mults = [m for _, m in og_vals]
    if family is not Family.C:
        og_mults.reverse()
    return FibrationDescriptor(
        og_tower=tuple(og_tower(og_mults)),
        ig_factors=tuple(ig_factors([m for _, m in ig_vals])),
        orbit=p,
        family=family,
        min_richardson=r,
        levi=levi,
        split=l,
    )


@dataclass(frozen=True)
class OrbitAnalysis:
    """What the package derives from one orbit on its own, computed once by
    ``orbit_analysis``: the block segmentation, the special verdict, the
    witnessed minimal Richardson orbits, and one descriptor per
    pseudo-polarization, in (witness order, polarization order).  The orbit
    is Richardson exactly when it is its own minimal Richardson orbit, so
    that verdict is read off the witness scan.  The descriptors are built
    on first use, since only they need the polarization table of the
    orbit's size.  Every field is immutable, so one cached value can serve
    every caller."""

    partition: Partition
    family: Family
    decomposition: BlockDecomposition
    special: bool
    witnessed: tuple[tuple[Partition, IndexEntry], ...]

    @functools.cached_property
    def descriptors(self) -> tuple[FibrationDescriptor, ...]:
        return tuple(
            _descriptor(self.partition, self.family, r, levi)
            for r in self.minimal
            for levi in polarizations(r, self.family)
        )

    @property
    def minimal(self) -> tuple[Partition, ...]:
        """The minimal Richardson orbits over the orbit, in witness order."""
        return tuple(r for r, _ in self.witnessed)

    @property
    def richardson(self) -> bool:
        """Whether the orbit is induced from the zero orbit of some Levi."""
        return self.partition in self.minimal

    @property
    def pseudo_polarizations(self) -> tuple[tuple[Partition, LeviType], ...]:
        return tuple((d.min_richardson, d.levi) for d in self.descriptors)


@functools.lru_cache(maxsize=None)
def orbit_analysis(p: Partition, family: Family) -> OrbitAnalysis:
    """The analysis of the orbit ``p``, built once per (partition, family);
    a ``ValueError`` when ``p`` is not valid.  The cache keeps one small
    entry per orbit asked about for the life of the process, as an atlas
    sweep keeps one record per orbit."""
    d = decompose(p, family)
    return OrbitAnalysis(p, family, d, _special(d), _witnessed(p, d))


def is_special(p: Partition, family: Family) -> bool:
    """Whether the orbit is special, read from its cached orbit analysis
    (see ``blocks._special``).  Raises ``ValueError`` when ``p`` is not
    valid."""
    return orbit_analysis(p, family).special


def is_richardson(p: Partition, family: Family) -> bool:
    """Whether the orbit is induced from the zero orbit of some Levi, read
    from its cached orbit analysis: it is its own minimal Richardson orbit.
    Raises ``ValueError`` when ``p`` is not valid."""
    return orbit_analysis(p, family).richardson


def canonical_quotient_order(p: Partition) -> int:
    """Order of the canonical component quotient of a special orbit in the
    odd orthogonal family: 2 to the number of boundary blocks with two odd
    boundaries.  Raises ``ValueError`` unless ``p`` is special in B."""
    analysis = orbit_analysis(p, Family.B)
    if not analysis.special:
        raise ValueError(f"{p} is not special in family B")
    return 2 ** sum(1 for blk in analysis.decomposition.blocks if blk.kind == "B2")


def minimal_richardson_witnessed(
    p: Partition, family: Family
) -> list[tuple[Partition, IndexEntry]]:
    """Minimal Richardson orbits paired with the witness that produced each
    (first witness wins when two produce the same orbit), as a fresh list
    read from the cached orbit analysis (see ``minimal._witnessed``)."""
    return list(orbit_analysis(p, family).witnessed)


def minimal_richardson_orbits(p: Partition, family: Family) -> list[Partition]:
    """The minimal Richardson orbits dominating ``p``, in witness order, as
    a fresh list read from the cached orbit analysis."""
    return list(orbit_analysis(p, family).minimal)


def pseudo_polarizations(p: Partition, family: Family) -> list[tuple[Partition, LeviType]]:
    """Every (R, L) with R a minimal Richardson orbit over ``p`` and L a
    polarization of R, in (witness order, polarization order), as a fresh
    list read from the cached orbit analysis."""
    return list(orbit_analysis(p, family).pseudo_polarizations)


def e_polynomial(d: FibrationDescriptor) -> EPolynomial:
    """Product of the step E-polynomials; degree equals the fiber dimension.
    Built on first use and kept on the (immutable) descriptor, so each
    descriptor of an OrbitAnalysis computes it once."""
    return d._e_polynomial


def component_count(d: FibrationDescriptor) -> int:
    """2 to the number of even-split orthogonal steps; Lagrangian factors
    are connected and never contribute."""
    return 2 ** sum(1 for s in d.og_tower if s.is_split_even)
