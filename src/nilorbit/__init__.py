"""Combinatorics of nilpotent orbits in the classical Lie algebras of types
B, C and D: partition arithmetic, block decompositions, Richardson orbits and
their polarizations, minimal Richardson orbits, fibration descriptors for the
fibers of generalized Springer maps, finite-field verification, and the
duality between the odd orthogonal and symplectic families.
"""

from .blocks import Block, BlockDecomposition, ModifiedBlocks, decompose
from .duality import (
    DualPair,
    dual_pair,
    pairing_records,
    springer_dual,
    springer_dual_inverse,
)
from .errors import VerificationError
from .ff_oracle import (
    DEFAULT_BUDGET,
    FlagCount,
    InvariantError,
    JordanRealization,
    fiber_point_count,
    realize,
    resolve_budget,
)
from .levi import (
    LeviType,
    enumerate_levis,
    induced_shape,
    langlands_dual_levi,
    polarizations,
    richardson_orbit_of,
)
from .minimal import IndexEntry, IndexSet
from .partitions import (
    Family,
    Partition,
    collapse,
    enumerate_valid,
    invalid_reason,
    is_valid,
    orbit_dim,
    parse_partition,
    partitions_of,
    transpose,
)
from .spaltenstein import (
    EPolynomial,
    FibrationDescriptor,
    GrassStep,
    OrbitAnalysis,
    canonical_quotient_order,
    component_count,
    descriptor,
    distinguished_values,
    e_polynomial,
    ig_factors,
    is_richardson,
    is_special,
    minimal_richardson_orbits,
    minimal_richardson_witnessed,
    og_tower,
    orbit_analysis,
    pseudo_polarizations,
    split_index,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "BlockDecomposition",
    "DEFAULT_BUDGET",
    "DualPair",
    "EPolynomial",
    "Family",
    "FibrationDescriptor",
    "FlagCount",
    "GrassStep",
    "IndexEntry",
    "IndexSet",
    "InvariantError",
    "JordanRealization",
    "LeviType",
    "ModifiedBlocks",
    "OrbitAnalysis",
    "Partition",
    "VerificationError",
    "canonical_quotient_order",
    "collapse",
    "component_count",
    "decompose",
    "descriptor",
    "distinguished_values",
    "dual_pair",
    "e_polynomial",
    "enumerate_levis",
    "enumerate_valid",
    "fiber_point_count",
    "ig_factors",
    "induced_shape",
    "invalid_reason",
    "is_richardson",
    "is_special",
    "is_valid",
    "langlands_dual_levi",
    "minimal_richardson_orbits",
    "minimal_richardson_witnessed",
    "og_tower",
    "orbit_analysis",
    "orbit_dim",
    "pairing_records",
    "parse_partition",
    "partitions_of",
    "polarizations",
    "pseudo_polarizations",
    "realize",
    "resolve_budget",
    "richardson_orbit_of",
    "split_index",
    "springer_dual",
    "springer_dual_inverse",
    "transpose",
]
