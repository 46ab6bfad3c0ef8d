"""Workload definitions shared by the harness (run.py) and its child (passes.py).

Every budget is written out here and passed to nilorbit explicitly, so a
changed default inside the program cannot silently change a workload.
``tiny`` is a seconds-long version of each workload for the smoke tests.
"""

# nilorbit's modules; each is one layer, named without the leading underscore.
MODULES = (
    "partitions", "blocks", "levi", "minimal", "spaltenstein",
    "duality", "ff_oracle", "_linalg", "cli",
)
LAYERS = tuple(m.lstrip("_") for m in MODULES)

WORKLOADS = {
    # The user's verification run: ff_oracle and linalg do almost all the
    # work, and a third of the checks burn the whole 5,000-node cap.
    "atlas-oracle": {
        "kind": "atlas",
        "families": "BCD",
        "rank": {"full": 5, "tiny": 3},
        "ceiling": None,
        "primes": "3,5",
        "budget": 5000,
    },
    # The oracle only builds realizations (budget 0 skips every count);
    # the time goes to Levi polarizations and per-orbit combinatorics.
    "atlas-combinatorial": {
        "kind": "atlas",
        "families": "BCD",
        "rank": {"full": 10, "tiny": 3},
        "ceiling": 10,
        "primes": "3,5",
        "budget": 0,
    },
    # Every pseudo-polarization in the criterion-5 range, all run to
    # completion: a cheap-node regime (D, p=5) and a costly-node one (C).
    "fiber-deep": {
        "kind": "fiber",
        "top": {"full": {"B": 9, "C": 8, "D": 8}, "tiny": {"B": 5, "C": 4, "D": 4}},
        "primes": (3, 5),
        "budget": 1_000_000,
    },
}

# Oracle anchor for the traced run: (family, orbit, Levi literal, prime).
ANCHOR = {
    "full": ("B", "4,4,4,4,3,3,1", "5,6;1", 3),
    "tiny": ("B", "2,2,1", "1;3", 3),
}
ANCHOR_BUDGET = 1_000_000
