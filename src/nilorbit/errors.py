"""The exception every module raises when an internal invariant breaks."""


class InvariantError(Exception):
    """A computation broke an invariant it is built to satisfy: a Jordan
    realization's form (symmetry, nondegeneracy, e-invariance, the sl2
    triple, Jordan ranks, splitness), a Levi's raw parity pattern, a
    descriptor's degree, or the agreement of the two Springer-dual routes.
    Raised instead of ``assert`` so the checks hold under ``python -O``.
    This is an internal bug, unlike the RuntimeError that ``dual_pair``
    raises when a verification fails."""
