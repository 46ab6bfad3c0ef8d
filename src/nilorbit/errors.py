"""The two exceptions that separate an internal bug from a failed check."""


class InvariantError(Exception):
    """A computation broke an invariant it is built to satisfy: a Jordan
    realization's form (symmetry, nondegeneracy, e-invariance, Jordan ranks,
    splitness), a Levi's raw parity pattern, a block segmentation, a
    witnessed block's raising variant, a distinguished value's multiplicity,
    a descriptor's degree, the specialness of a dual, or an invalid-input
    reason for a valid partition.  Raised instead of
    ``assert`` so the checks hold under ``python -O``.  This is an internal
    bug, unlike a ``VerificationError``."""


class VerificationError(RuntimeError):
    """A verified identity failed on real data: ``dual_pair`` found a dual
    pair that is not dimension-preserving, minimal Richardson orbits that do
    not commute with the dual, or polarizations that do not correspond, or
    ``springer_dual_inverse`` found a round trip that does not come back.
    The CLI reports it on one line with exit code 1."""
