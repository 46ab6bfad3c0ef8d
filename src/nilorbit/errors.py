"""The exception every module raises when an internal invariant breaks."""


class InvariantError(Exception):
    """A computation broke an invariant it is built to satisfy: a Jordan
    realization's form (symmetry, nondegeneracy, e-invariance, the sl2
    triple, Jordan ranks, splitness), a Levi's raw parity pattern, a block
    segmentation or its reassembly, a witnessed block's raising variant, a
    distinguished value's multiplicity, a descriptor's degree, the agreement
    of two routes (the specialness criteria, the Springer dual) or the
    specialness of a dual, or an invalid-input reason for a valid partition.
    Raised instead of ``assert`` so the checks hold under ``python -O``.
    This is an internal bug, unlike the RuntimeError that ``dual_pair`` and
    ``springer_dual_inverse`` raise when a verification fails."""
