"""Finite-field checks.

The Grassmannian step counts are cross-checked against a brute force that
shares nothing with the package: it builds its own bilinear forms and its
own reduced-echelon subspace enumerator.  The oracle's pruned enumerator is
checked against the same enumerator plus an isotropy filter, its
batched leaf test against a per-leaf containment check, its forced
subspaces against a test-side count that enumerates without them and
against the former route by matrix powers and rref, and its children's
windows against a fresh nullspace of each child; the package's row
reduction only builds the inputs and the canonical bases compared.
"""
import functools
import itertools
import sys
from dataclasses import replace

import numpy as np
import pytest
from conftest import BIG_PRIME, contains

import nilorbit
from nilorbit import (
    DEFAULT_BUDGET,
    Family,
    FlagCount,
    GrassStep,
    InvariantError,
    LeviType,
    descriptor,
    e_polynomial,
    enumerate_levis,
    enumerate_valid,
    fiber_point_count,
    first_row_nodes,
    minimal_richardson_orbits,
    parse_partition,
    polarizations,
    pseudo_polarizations,
    realize,
    resolve_budget,
)
from nilorbit import ff_oracle
from nilorbit._linalg import nullspace, rank, rref
from nilorbit.ff_oracle import (
    BudgetExceeded,
    _child_windows,
    _closing_mask,
    _is_odd_prime,
    _last_row_batches,
    _cut,
    _floors,
    _forced_subspaces,
    _quotient_alive,
    _quotient_cut,
    _quotient_slack,
    _validate,
)


def P(text):
    return parse_partition(text)


def L(text, fam=Family.B):
    return LeviType.from_text(text, fam)


# --- independent brute force ------------------------------------------------


def rref_subspaces(n, m, p):
    """Every m-dimensional subspace of F_p^n, as a reduced-echelon basis."""
    for pivots in itertools.combinations(range(n), m):
        free = [
            (r, c)
            for r in range(m)
            for c in range(pivots[r] + 1, n)
            if c not in pivots
        ]
        for values in itertools.product(range(p), repeat=len(free)):
            mat = np.zeros((m, n), dtype=np.int64)
            for r, c in zip(range(m), pivots):
                mat[r, c] = 1
            for (r, c), v in zip(free, values):
                mat[r, c] = v
            yield mat


def brute_isotropic_count(form, m, p):
    n = form.shape[0]
    total = 0
    for mat in rref_subspaces(n, m, p):
        if not np.any(mat @ form @ mat.T % p):
            total += 1
    return total


def split_symmetric_form(n):
    return np.flipud(np.eye(n, dtype=np.int64))


def symplectic_form(n):
    form = np.flipud(np.eye(n, dtype=np.int64))
    form[n // 2 :] *= -1
    return form


BRUTE_STEPS = [
    GrassStep("OG", 0, 0),
    GrassStep("OG", 0, 1),
    GrassStep("OG", 1, 2),
    GrassStep("OG", 1, 3),
    GrassStep("OG", 2, 4),
    GrassStep("OG", 2, 5),
    GrassStep("OG", 3, 6),
    GrassStep("IG", 1, 2),
    GrassStep("IG", 2, 4),
    GrassStep("IG", 3, 6),
]


class TestGrassmannianCounts:
    @pytest.mark.parametrize("step", BRUTE_STEPS, ids=str)
    def test_against_bruteforce_p3(self, step):
        form = (
            split_symmetric_form(step.n)
            if step.kind == "OG"
            else symplectic_form(step.n)
        )
        assert step.e_polynomial()(3) == brute_isotropic_count(form, step.m, 3)

    @pytest.mark.parametrize("step", BRUTE_STEPS[:6] + BRUTE_STEPS[7:9], ids=str)
    def test_against_bruteforce_p5(self, step):
        form = (
            split_symmetric_form(step.n)
            if step.kind == "OG"
            else symplectic_form(step.n)
        )
        assert step.e_polynomial()(5) == brute_isotropic_count(form, step.m, 5)


def _trial_division(n):
    return n >= 3 and n % 2 == 1 and all(n % d for d in range(3, int(n**0.5) + 1, 2))


class TestPrimality:
    def test_matches_trial_division_below_1e5(self):
        assert [n for n in range(10**5) if _is_odd_prime(n)] == [
            n for n in range(10**5) if _trial_division(n)
        ]

    @pytest.mark.parametrize(
        "n",
        [
            2047,  # strong pseudoprime to base 2
            3215031751,  # strong pseudoprime to bases 2, 3, 5, 7
            3825123056546413051,  # strong pseudoprime to bases 2 through 23
            318665857834031151167461,  # strong pseudoprime to bases 2 through 37
        ],
    )
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not _is_odd_prime(n)

    def test_known_primes_and_their_products(self):
        primes = (3, 41, 43, 2**31 - 1, 2**61 - 1)
        assert all(_is_odd_prime(q) for q in primes)
        assert not any(
            _is_odd_prime(a * b) for a, b in itertools.combinations(primes, 2) if a * b < 2**80
        )

    def test_beyond_the_exact_range_is_refused(self):
        with pytest.raises(ValueError, match="cannot certify"):
            _is_odd_prime(2**127 - 1)


class TestRealize:
    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            realize(P("2,1"), Family.B, 3)
        with pytest.raises(ValueError):
            realize(P("3,1,1"), Family.B, 9)
        with pytest.raises(ValueError):
            realize(P("3,1,1"), Family.B, 2)
        with pytest.raises(ValueError, match="too large"):
            realize(P("3,1,1"), Family.B, 2**31 - 1)  # prime, but 5*(p-1)^2 >= 2^63

    def test_sweep_validates_internally(self):
        for fam, n in ((Family.B, 7), (Family.C, 6), (Family.D, 6)):
            for p in enumerate_valid(n, fam):
                for modulus in (3, 5):
                    assert realize(p, fam, modulus).dim == p.n

    def test_nilpotency_and_rank_pattern(self):
        p = P("3,3,2,1,1")
        real = realize(p, Family.C, 5)
        e = real.e
        for k in range(1, 4):
            assert _rank(e, k, 5) == sum(max(x - k, 0) for x in p.parts)
        assert not np.any(_pow(e, 3, 5))


def _block_symmetry(parts):
    """S x(i, j) = c_j x(i, pi(j)) on realize's Jordan basis, where pi
    reverses each run of equal parts and c_j = j + 1, a unit while p
    exceeds the number of blocks.  It permutes equal blocks and rescales
    blocks, so it commutes with e."""
    starts = list(itertools.accumulate((0,) + parts[:-1]))
    S = np.zeros((sum(parts), sum(parts)), dtype=np.int64)
    for j, d in enumerate(parts):
        run = [k for k, x in enumerate(parts) if x == d]
        image = run[len(run) - 1 - run.index(j)]
        for i in range(d):
            S[starts[image] + i, starts[j] + i] = j + 1
    return S


def _pow(e, k, p):
    out = np.eye(e.shape[0], dtype=np.int64)
    for _ in range(k):
        out = out @ e % p
    return out


def _rank(e, k, p):
    mat = _pow(e, k, p) % p
    # row reduce over F_p
    mat = mat.copy()
    rank = 0
    rows, cols = mat.shape
    for c in range(cols):
        piv = next((r for r in range(rank, rows) if mat[r, c] % p), None)
        if piv is None:
            continue
        mat[[rank, piv]] = mat[[piv, rank]]
        mat[rank] = mat[rank] * pow(int(mat[rank, c]), -1, p) % p
        for r in range(rows):
            if r != rank and mat[r, c] % p:
                mat[r] = (mat[r] - mat[r, c] * mat[rank]) % p
        rank += 1
    return rank


def reference_forced_subspaces(e, s, k, p):
    """The former route to the forced subspaces: row bases of L_i =
    im e^(s-i), i = 1..k, by rref of the transposed matrix powers, and
    whether e^s = 0 mod p."""
    power = _pow(e, s - k, p)
    bases = []
    for _ in range(k):
        bases.append(rref(power.T, p)[0])
        power = power @ e % p
    return bases[::-1], not np.any(power)


class TestForcedSubspaces:
    def test_heights_match_matrix_powers(self):
        # Every realization of B N <= 9 and C/D N <= 8 at p = 3 and 5, and
        # its e (a 0/1 matrix, the same at every p) at BIG_PRIME, where
        # realize refuses the modulus; k up to n // 2 general-linear blocks
        # and s = 2k or 2k + 1, as fiber_point_count takes them.
        compared = 0
        for fam, top in ((Family.B, 9), (Family.C, 8), (Family.D, 8)):
            for n in range(2 - fam.size_parity, top + 1, 2):
                for orbit in enumerate_valid(n, fam):
                    heights = [d - i for d in orbit.parts for i in range(1, d + 1)]
                    e = realize(orbit, fam, 3).e
                    assert np.array_equal(realize(orbit, fam, 5).e, e)
                    for q in (3, 5, BIG_PRIME):
                        for k in range(1, n // 2 + 1):
                            for s in (2 * k, 2 * k + 1):
                                got, nilpotent = _forced_subspaces(heights, s, k)
                                want, want_nilpotent = reference_forced_subspaces(e, s, k, q)
                                assert nilpotent == want_nilpotent, (orbit, s, k, q)
                                assert len(got) == k
                                for L, ref in zip(got, want):
                                    assert L.dtype == np.int64 and L.shape == ref.shape
                                    assert np.array_equal(L, ref), (orbit, s, k, q)
                                compared += 1
        assert compared == 1410


class TestFiberCounts:
    @pytest.mark.parametrize(
        "orbit,levi,expected3,expected5",
        [
            ("2,2,1", "1;3", 4, 6),
            ("3,1,1", "2;1", 2, 2),
            ("2,2,2,2,1", "4;1", 1, 1),
        ],
    )
    def test_spots(self, orbit, levi, expected3, expected5):
        for modulus, expected in ((3, expected3), (5, expected5)):
            real = realize(P(orbit), Family.B, modulus)
            res = fiber_point_count(real, L(levi))
            assert res.count == expected
            assert res.skipped is None

    def test_counts_match_e_polynomials(self):
        for fam, n in ((Family.B, 7), (Family.C, 6), (Family.D, 6)):
            for p in enumerate_valid(n, fam):
                for r in minimal_richardson_orbits(p, fam):
                    for levi in polarizations(r, fam):
                        expected = e_polynomial(descriptor(p, fam, r, levi))
                        for modulus in (3, 5):
                            real = realize(p, fam, modulus)
                            res = fiber_point_count(real, levi)
                            assert res.count == expected(modulus), (p, levi, modulus)

    def test_conventions_agree(self):
        # g' = S^T g S is another e-invariant split form when S commutes
        # with e, and S maps the flags counted for g onto those for g'.
        for p, fam in ((P("2,2,1"), Family.B), (P("2,1,1"), Family.C), (P("2,2,1,1"), Family.D)):
            real = realize(p, fam, 5)
            S = _block_symmetry(p.parts)
            assert np.array_equal(S @ real.e % 5, real.e @ S % 5)
            other = replace(real, gram=S.T @ real.gram % 5 @ S % 5)
            assert np.any(other.gram != real.gram)
            _validate(other)
            for r in minimal_richardson_orbits(p, fam):
                for levi in polarizations(r, fam):
                    counts = {fiber_point_count(form, levi).count for form in (real, other)}
                    assert len(counts) == 1

    def test_empty_levi_detects_zero(self):
        real = realize(P("1,1,1,1,1"), Family.B, 3)
        assert fiber_point_count(real, L(";5")).count == 1
        real = realize(P("3,1,1"), Family.B, 3)
        assert fiber_point_count(real, L(";5")).count == 0

    def test_mismatched_levi_rejected(self):
        real = realize(P("2,2,1"), Family.B, 3)
        with pytest.raises(ValueError):
            fiber_point_count(real, L("1;2", Family.C))
        with pytest.raises(ValueError):
            fiber_point_count(real, L("1;1"))


class TestBudget:
    def test_resolve_precedence(self, monkeypatch):
        monkeypatch.delenv("NILORBIT_ORACLE_BUDGET", raising=False)
        assert resolve_budget() == DEFAULT_BUDGET
        monkeypatch.setenv("NILORBIT_ORACLE_BUDGET", "123")
        assert resolve_budget() == 123
        assert resolve_budget(77) == 77

    def test_default_comes_last(self, monkeypatch):
        monkeypatch.delenv("NILORBIT_ORACLE_BUDGET", raising=False)
        assert resolve_budget(None, 5000) == 5000
        monkeypatch.setenv("NILORBIT_ORACLE_BUDGET", "123")
        assert resolve_budget(None, 5000) == 123
        assert resolve_budget(77, 5000) == 77

    @pytest.mark.parametrize("text", ["abc", "-1", "1.5"])
    def test_bad_environment_value_names_the_variable(self, monkeypatch, text):
        monkeypatch.setenv("NILORBIT_ORACLE_BUDGET", text)
        with pytest.raises(ValueError, match="NILORBIT_ORACLE_BUDGET"):
            resolve_budget()

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            resolve_budget(-1)
        with pytest.raises(ValueError):
            fiber_point_count(realize(P("2,2,1"), Family.B, 3), L("1;3"), budget=-1)

    def test_exhaustion_is_an_explicit_skip(self):
        real = realize(P("2,2,1"), Family.B, 3)
        res = fiber_point_count(real, L("1;3"), budget=1)
        assert res == FlagCount(None, 3, L("1;3"), res.nodes, skipped="budget")
        assert res.count is None
        assert res.nodes >= 1


# --- the pruned enumerator against the brute force ---------------------------


def _canon(mat, p):
    return tuple(map(tuple, rref(mat, p)[0].tolist()))


def _random_isotropic(form, k, p, rng):
    """A k-dimensional isotropic subspace of a random shape, grown one random
    vector at a time."""
    n = form.shape[0]
    E = np.zeros((0, n), dtype=np.int64)
    while E.shape[0] < k:
        x = rng.integers(0, p, size=(1, n))
        cand = np.vstack([E, x])
        if rank(cand, p) > E.shape[0] and not np.any(cand @ form % p @ x.T % p):
            E = cand
    return E


def extensions(*args):
    """Every F of _last_row_batches(*args), as F1 plus one surviving row."""
    return [np.vstack([F1, w]) for F1, X in _last_row_batches(*args) for w in X]


def closing_batches(E, W, target, g, eg, p, counter, cap):
    """(F1, X, closes) per batch of _last_row_batches, with closes[j] True
    iff F = F1 + <X[j]> satisfies e(F^perp) <= F.  Per state F1, Q is a
    basis of F1^perp; F^perp is ker(Q g X[j]) in Q coordinates, where
    _closing_mask decides whether <e u, v> vanishes."""
    state = None
    for F1, X in _last_row_batches(E, W, target, g, p, counter, cap):
        if F1 is not state:
            state = F1
            Q = nullspace(F1 @ g % p, p)
            M = Q @ eg % p @ Q.T % p
            G = Q @ g % p
        yield F1, X, _closing_mask(X @ G.T % p, M, p)


FORMS = {
    Family.B: split_symmetric_form,
    Family.C: symplectic_form,
    Family.D: split_symmetric_form,
}

# (family, n, dim E, target); W is E^perp, of dimension at most 4, so the
# brute force over every target-dimensional subspace of W stays small.
EXTENSION_CASES = [
    (Family.B, 3, 0, 1),
    (Family.B, 5, 1, 2),
    (Family.B, 5, 1, 3),
    (Family.C, 4, 0, 1),
    (Family.C, 4, 0, 2),
    (Family.C, 4, 1, 2),
    (Family.C, 6, 2, 3),
    (Family.D, 4, 0, 2),
    (Family.D, 4, 1, 2),
    (Family.D, 6, 2, 3),
]


class TestIsotropicExtensions:
    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize(
        "fam,n,k,target", EXTENSION_CASES, ids=lambda c: str(getattr(c, "value", c))
    )
    def test_matches_bruteforce(self, fam, n, k, target, p):
        form = FORMS[fam](n) % p
        rng = np.random.default_rng(1000 * n + 10 * k + p)
        E = _random_isotropic(form, k, p, rng)
        W = nullspace(E @ form % p, p)
        expected = set()
        for coeff in rref_subspaces(W.shape[0], target, p):
            F = coeff @ W % p
            if rank(np.vstack([F, E]), p) == target and not np.any(F @ form % p @ F.T % p):
                expected.add(_canon(F, p))
        counter = [0]
        got = extensions(E, W, target, form, p, counter, DEFAULT_BUDGET)
        assert all(np.array_equal(F[:k], E) for F in got)
        canon = [_canon(F, p) for F in got]
        assert len(canon) == len(set(canon))  # each subspace exactly once
        assert set(canon) == expected
        assert counter[0] >= len(got)


def _closes(F, e, g, p):
    """Per-leaf reference: e(F^perp) <= F by row-space containment."""
    perp = nullspace(F @ g % p, p)
    return contains(F, perp @ e.T % p, p)


# (orbit, family) pairs whose realizations feed the leaf-test checks.
CLOSES_CASES = [
    ("2,2,1", Family.B), ("3,1,1", Family.B), ("2,1,1", Family.C),
    ("2,2", Family.C), ("2,2,1,1", Family.D), ("3,3", Family.D),
]


class TestCloses:
    @pytest.mark.parametrize("orbit,fam", CLOSES_CASES)
    def test_matches_containment(self, orbit, fam):
        outcomes = set()
        for p in (3, 5, 7):
            real = realize(P(orbit), fam, p)
            e, g = real.e, real.gram
            eg = e.T @ g % p
            rng = np.random.default_rng(p)
            witt = real.dim // 2
            # Random isotropic E != 0 with W = E^perp, every target above
            # dim E (last levels adding one row and several); random
            # subspaces rarely close, and the maximal isotropic subspaces of
            # ker e, reached from E = 0, supply closing cases.
            states = [
                (_random_isotropic(g, k, p, rng), None, target)
                for k in range(1, witt)
                for _ in range(2)
                for target in range(k + 1, witt + 1)
            ]
            states.append((np.zeros((0, real.dim), dtype=np.int64), nullspace(e, p), witt))
            for E, W, target in states:
                W = nullspace(E @ g % p, p) if W is None else W
                for F1, X, closes in closing_batches(E, W, target, g, eg, p, [0], DEFAULT_BUDGET):
                    assert closes.shape == (X.shape[0],)
                    for w, got in zip(X, closes):
                        want = _closes(np.vstack([F1, w]), e, g, p)
                        assert got == want, (orbit, p, F1, w)
                        outcomes.add(want)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("orbit,fam", CLOSES_CASES + [("1,1,1,1,1", Family.B)])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_levi_without_gl_parts(self, orbit, fam, p):
        # the only flag is E = 0, whose perp is the whole space
        real = realize(P(orbit), fam, p)
        zero = np.zeros((0, real.dim), dtype=np.int64)
        res = fiber_point_count(real, LeviType((), real.dim, fam))
        assert (res.count, res.nodes) == (int(_closes(zero, real.e, real.gram, p)), 0)

    def test_mask_is_sliced_consistently(self):
        # 300 rows span three slices; each row decided alone must agree.
        # M = u u^T vanishes on ker(a) x ker(a) exactly when a is a multiple
        # of u, as every third row is.
        p = 5
        rng = np.random.default_rng(7)
        u = np.array([1, 2, 0, 4, 3, 1])
        M = np.outer(u, u) % p
        A = rng.integers(0, p, size=(300, 6))
        A[:, 0] = rng.integers(1, p, size=300)  # no zero rows
        A[::3] = rng.integers(1, p, size=(100, 1)) * u % p
        batched = _closing_mask(A, M, p)
        single = np.array([_closing_mask(A[j : j + 1], M, p)[0] for j in range(300)])
        assert np.array_equal(batched, single)
        assert batched.any() and not batched.all()

    def test_zero_row_is_an_invariant_error(self):
        A = np.array([[1, 2, 0], [0, 0, 0]], dtype=np.int64)
        with pytest.raises(InvariantError):
            _closing_mask(A, np.zeros((3, 3), dtype=np.int64), 3)

    def test_anchor(self):
        real = realize(P("4,4,4,4,3,3,1"), Family.B, 3)
        res = fiber_point_count(real, L("5,6;1"))
        assert (res.count, res.nodes) == (4, 2055)


class TestNodeBudget:
    def test_cap_is_exact(self):
        real = realize(P("4,4,2,2,1"), Family.B, 3)
        levi = L("2,4;1")
        full = fiber_point_count(real, levi)
        assert full.count is not None and full.nodes <= DEFAULT_BUDGET
        at_cap = fiber_point_count(real, levi, budget=full.nodes)
        assert (at_cap.count, at_cap.nodes) == (full.count, full.nodes)
        below = fiber_point_count(real, levi, budget=full.nodes - 1)
        assert below.count is None and below.skipped == "budget"
        assert below.nodes == full.nodes

    # The full count takes 102 nodes; caps below 6 skip on the first row.
    @pytest.mark.parametrize("cap", [0, 1, 5, 30])
    def test_skip_reports_cap_plus_one(self, cap):
        real, levi = realize(P("3,3,1,1"), Family.D, 5), L("1,3;0", Family.D)
        assert first_row_nodes(real.partition, levi, 5) == 6
        assert fiber_point_count(real, levi).nodes == 102
        res = fiber_point_count(real, levi, budget=cap)
        assert res.count is None and res.skipped == "budget"
        assert res.nodes == cap + 1

    def test_batch_charged_before_evaluation(self):
        # E = 0, W = F_3^3: the first pivot's batch holds 9 rows.
        form = split_symmetric_form(3)
        W = np.eye(3, dtype=np.int64)
        counter = [0]
        with pytest.raises(BudgetExceeded):
            next(_last_row_batches(W[:0], W, 1, form, 3, counter, 8))
        assert counter == [9]

    @pytest.mark.parametrize("q", [3, 5])
    def test_first_row_precharge_is_exact(self, monkeypatch, q):
        # Every pseudo-polarization at B N <= 7 and C/D N <= 6, among them
        # cuts such as B 2,2,1 via (1;3); C 4,2,2,1,1 via (1,4;0), whose
        # L_1 = im e^3 decides the first level; and C 3,3,1,1 via (2,2;0),
        # whose first row the a = 1 floor trims from 13 candidates to 4 at
        # p=3 (31 to 6 at p=5).  first_row_nodes
        # is exactly what the first level's first row charges, unless one
        # node decides the first level.  With T the unbudgeted node total
        # and R the first row's candidates, R <= T, and each budget b
        # around R and T gives a skip with b + 1 nodes exactly when T > b,
        # and the unbudgeted result otherwise.
        first_rows = spy_first_rows(monkeypatch)
        cases = [
            (fam, orbit, levi)
            for fam, top in ((Family.B, 7), (Family.C, 6), (Family.D, 6))
            for n in range(2 - fam.size_parity, top + 1, 2)
            for orbit in enumerate_valid(n, fam)
            for _, levi in pseudo_polarizations(orbit, fam)
        ] + [
            (Family.C, P("4,2,2,1,1"), L("1,4;0", Family.C)),
            (Family.C, P("3,3,1,1"), L("2,2;0", Family.C)),
        ]
        for fam, orbit, levi in cases:
            real = realize(orbit, fam, q)
            first_rows.clear()
            full = fiber_point_count(real, levi, budget=10**12)
            T, R = full.nodes, first_row_nodes(orbit, levi, q)
            assert full.count is not None and R <= T, (orbit, levi)
            s = 2 * len(levi.ps) + (levi.q > 0)
            one_node = bool(levi.ps) and (
                max(orbit.parts) > s or levi.ps[0] <= sum(max(x - s + 1, 0) for x in orbit.parts)
            )
            assert sum(first_rows) == (0 if one_node else R), (orbit, levi)
            for b in {0, R - 1, R, T - 1, T} - {-1}:
                res = fiber_point_count(real, levi, budget=b)
                if T > b:
                    assert res == FlagCount(None, q, levi, b + 1, "budget")
                else:
                    assert res == full

    def test_first_row_skip_needs_no_elimination(self, monkeypatch):
        real = realize(P("3,1,1"), Family.B, 1_000_003)

        def refuse(*args):
            raise AssertionError("eliminated before a pre-charged skip")

        for name in ("nullspace", "rank", "rref"):
            monkeypatch.setattr(nilorbit.ff_oracle, name, refuse)
        for levi, first in ((L("2;1"), 1_000_004), (L("1,1;1"), 1_000_007_000_013)):
            assert first_row_nodes(real.partition, levi, 1_000_003) == first
            res = fiber_point_count(real, levi, budget=first - 1)
            assert res == FlagCount(None, 1_000_003, levi, first, "budget")

    def test_totals_repeat(self):
        orbit = P("4,4,2,2,1")
        levis = [levi for _, levi in pseudo_polarizations(orbit, Family.B)]
        runs = [
            [fiber_point_count(realize(orbit, Family.B, 3), levi).nodes for levi in levis]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


def spy_first_rows(monkeypatch):
    """Record every charge made for a candidate first row of the first flag
    level: by an ``extend`` frame choosing its first row, below the level-0
    ``recurse`` frame."""
    sizes = []
    charge = ff_oracle._charge

    def spy(counter, size, cap):
        frame = sys._getframe(1)
        if frame.f_code.co_name == "extend" and frame.f_locals["chosen"] == 0:
            while frame.f_code.co_name != "recurse":
                frame = frame.f_back
            if frame.f_locals["t"] == 0:
                sizes.append(size)
        charge(counter, size, cap)

    monkeypatch.setattr(ff_oracle, "_charge", spy)
    return sizes


# --- the forced subspaces against the un-hoisted enumeration -----------------


def unhoisted_count(real, levi, cap, start=None, t=0, flags=None):
    """(count, nodes) of the flag enumeration without the forced subspaces
    and the floor table: level i starts from E_{i-1} alone, inside
    E_{i-1}^perp intersected with e^{-1}(E_{i-1}); (None, cap + 1) past the
    cap.  With ``start``, the rows of a level space E_t, only the flags
    through it.  With a list ``flags``, each counted flag is appended to it
    as the list of its level spaces below ``start``."""
    p, e, g = real.modulus, real.e, real.gram
    dims = list(itertools.accumulate(levi.ps))
    counter = [0]
    eg = e.T @ g % p

    def recurse(E, t, chain):
        if E.shape[0] == 0:
            window = nullspace(e, p)
        else:
            window = nullspace(np.vstack([E @ g % p, nullspace(E, p) @ e % p]), p)
        if t == len(dims) - 1:
            total = 0
            for F1, X, closes in closing_batches(E, window, dims[t], g, eg, p, counter, cap):
                total += int(np.count_nonzero(closes))
                if flags is not None:
                    flags.extend(chain + [np.vstack([F1, x])] for x in X[closes])
            return total
        return sum(
            recurse(F, t + 1, chain + [F])
            for F in extensions(E, window, dims[t], g, p, counter, cap)
        )

    if not dims:
        return int(not np.any(e % p)), 0
    try:
        if start is None:
            start = np.zeros((0, real.dim), dtype=np.int64)
        return recurse(start, t, []), counter[0]
    except BudgetExceeded:
        return None, counter[0]


@functools.lru_cache(maxsize=None)
def swept_reference(fam, orbit, levi, q, cap):
    """unhoisted_count(realize(orbit, fam, q), levi, cap) with the flags it
    counts: (count, nodes, flags).  The sweeps of every Levi share it."""
    flags = []
    count, nodes = unhoisted_count(realize(orbit, fam, q), levi, cap, flags=flags)
    return count, nodes, flags


class TestHoist:
    # Every Levi, not only pseudo-polarizations, so that empty fibers and
    # Levis with e^s != 0 (s = 2k + [q > 0]) are covered.  Counts are compared wherever the
    # reference finishes within the cap; the full flag varieties of the zero
    # orbits are far beyond it.
    CAP = 2000

    # (prime, top N for B/C/D, checks the reference finishes, of which
    # count 0, of which have e^s != 0)
    @pytest.mark.parametrize(
        "q,tops,coverage",
        [(3, (7, 6, 6), (164, 63, 30)), (5, (7, 6, 6), (145, 63, 30)), (7, (5, 4, 4), (46, 15, 5))],
    )
    def test_matches_unhoisted_reference(self, q, tops, coverage):
        compared = zeros = not_nilpotent = 0
        totals = [0, 0]
        for fam, top in zip((Family.B, Family.C, Family.D), tops):
            for n in range(2 - fam.size_parity, top + 1, 2):
                for orbit in enumerate_valid(n, fam):
                    real = realize(orbit, fam, q)
                    for levi in enumerate_levis(n, fam):
                        want, ref_nodes, _ = swept_reference(fam, orbit, levi, q, self.CAP)
                        got = fiber_point_count(real, levi, budget=self.CAP)
                        if want is None:
                            continue
                        case = (orbit, levi, q)
                        assert (got.count, got.skipped) == (want, None), case
                        s = 2 * len(levi.ps) + (levi.q > 0)
                        big_part = bool(levi.ps) and max(orbit.parts) > s
                        # A check whose reference tests no row (d > c) costs
                        # one node when e^s != 0 rejects L_1.
                        assert got.nodes <= ref_nodes or (ref_nodes, got.nodes, big_part) == (
                            0, 1, True
                        ), case
                        totals[0] += ref_nodes
                        totals[1] += got.nodes
                        compared += 1
                        zeros += want == 0
                        not_nilpotent += big_part
        assert totals[1] <= totals[0]
        assert (compared, zeros, not_nilpotent) == coverage

    @pytest.mark.parametrize(
        "fam,orbit,levi,k",
        [
            (Family.B, "3,1,1", "1;3", 1),
            (Family.B, "5,1,1", "1,1;3", 2),
            (Family.C, "6", "1,1,1;0", 3),
            (Family.D, "5,1,1,1", "1,1;4", 2),
        ],
    )
    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_a_filled_level_costs_one_node(self, fam, orbit, levi, k, q):
        # E_i = E_{i-1} + L_i at every level: one flag, k nodes.
        res = fiber_point_count(realize(P(orbit), fam, q), L(levi, fam))
        assert (res.count, res.nodes) == (1, k)

    def test_e_power_decides_at_one_node(self):
        # B 5 via (1;3): e^3 != 0, so L_1 = im e^2 leaves ker e.
        real = realize(P("5"), Family.B, 3)
        assert first_row_nodes(real.partition, L("1;3"), 3) == 1
        assert fiber_point_count(real, L("1;3")) == FlagCount(0, 3, L("1;3"), 1)

    # Checks where the a = 1 floor prunes ("a": fewer nodes than with no
    # floor on dim(E cap im e)) and where a level decides its children's
    # last level in its own batches ("b": _closing_mask called by a settle
    # whose run is not empty), each against the un-hoisted reference.  The
    # paths are pinned with the floor table's cut off, since it prunes
    # first, and with the forced subspaces L_i = im e^(2k+1-i) of q > 0,
    # which every flag contains: for q = 0 the larger im e^(2k-i) decides
    # the C cases before any floor applies.  With both on, the count is the
    # same and takes at most as many nodes as the reference.
    LOOKAHEAD = [
        ("a", Family.B, "3,3,1", "1,2;1"),
        ("a", Family.B, "4,4,1", "1,3;1"),  # count 0
        ("a", Family.C, "4,2,1,1", "2,2;0"),
        ("a", Family.C, "4,4", "1,3;0"),  # no first row can reach level 2
        ("a", Family.D, "3,3,1,1", "1,3;0"),
        ("b", Family.B, "5,2,2", "1,1,1;3"),
        ("b", Family.C, "4,2,1,1", "1,1;4"),
        ("b", Family.C, "4,2", "1,1;2"),
        ("b", Family.C, "6,2", "1,1,1;2"),
    ]
    # "b" checks that the a = 1 floor prunes too: its column of the table
    # is stronger there than the look-ahead bound it replaced.
    ALSO_PRUNED = {("5,2,2", "1,1,1;3"), ("4,2,1,1", "1,1;4")}

    @pytest.mark.parametrize("path,fam,orbit,levi", LOOKAHEAD)
    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_lookahead_matches_unhoisted_reference(self, monkeypatch, path, fam, orbit, levi, q):
        pruned = path == "a" or (orbit, levi) in self.ALSO_PRUNED
        real, levi = realize(P(orbit), fam, q), L(levi, fam)
        want, ref_nodes = unhoisted_count(real, levi, DEFAULT_BUDGET)
        full = fiber_point_count(real, levi)
        runs = []
        mask, forced = ff_oracle._closing_mask, ff_oracle._forced_subspaces

        def spy(*args):
            frame = sys._getframe(1)
            assert frame.f_code.co_name == "settle"
            runs.append(frame.f_locals["end"] - frame.f_locals["t"])
            return mask(*args)

        monkeypatch.setattr(ff_oracle, "_closing_mask", spy)
        monkeypatch.setattr(ff_oracle, "_cut", lambda floor, d: 0)
        monkeypatch.setattr(ff_oracle, "_forced_subspaces", lambda heights, s, k: forced(heights, 2 * k + 1, k))
        got = fiber_point_count(real, levi)
        assert (got.count, got.skipped) == (full.count, full.skipped) == (want, None)
        assert max(full.nodes, got.nodes) <= ref_nodes
        batches = ff_oracle._last_row_batches  # the same, with no floor
        monkeypatch.setattr(ff_oracle, "_last_row_batches", lambda *args: batches(*args[:7]))
        unpruned = fiber_point_count(real, levi)
        assert (unpruned.count, unpruned.skipped) == (want, None)
        if pruned:
            assert got.nodes < unpruned.nodes
        else:
            assert got.nodes == unpruned.nodes
        if path == "b":
            assert max(runs) > 0

    # Runs of two or more fillable levels, each against the un-hoisted
    # reference: "c", settle decides children by _closing_mask two or more
    # levels below the level that made them; "s", every child of the run
    # falls short of its first level and recurses, and the last level is
    # closed after an empty run; "m", a child falls short in the middle of
    # a run and its level is enumerated.  The references for C 6,1,1,1,1 and
    # D 7,3,1,1 take 5 s and 0.5 s at p=5, so they run at p=3 only.  The
    # paths are pinned with the floor table off (no row in it), as it cuts
    # the windows before the runs see them and drops the children of the
    # count-0 cases, and with the forced subspaces of q > 0, as the larger
    # ones of q = 0 fill every level of C 6 via (1,1,1;0).  With both on,
    # the count is the same and takes at most as many nodes.
    CHAINS = [
        ("c", Family.C, "6,1,1,1,1", "1,1,1;4", (3,)),
        ("c", Family.D, "7,3,1,1", "1,1,1,1;4", (3,)),
        ("c", Family.D, "7,5", "1,1,1,1;4", (3, 5, 7)),  # count 0
        ("s", Family.C, "6", "1,1,1;0", (3, 5, 7)),
        ("m", Family.B, "6,6,5", "1,2,3;5", (3, 5)),  # count 0
    ]

    @pytest.mark.parametrize(
        "path,fam,orbit,levi,q",
        [case[:4] + (q,) for case in CHAINS for q in case[4]],
    )
    def test_chains_match_unhoisted_reference(self, monkeypatch, path, fam, orbit, levi, q):
        real, levi = realize(P(orbit), fam, q), L(levi, fam)
        want, ref_nodes = unhoisted_count(real, levi, DEFAULT_BUDGET)
        mask, charge, forced = ff_oracle._closing_mask, ff_oracle._charge, ff_oracle._forced_subspaces
        decided, closed, enumerated = [], [], []

        def sent(frame):
            """(t, end, level) when ``frame`` runs below a child that a
            settle, deciding the run t..end-1 of one or more levels, sent to
            recurse into ``level``; None otherwise."""
            while frame.f_code.co_name != "recurse":
                frame = frame.f_back
            # recurse <- descend's generator expression <- descend <- settle
            chain = [frame.f_back, frame.f_back.f_back, frame.f_back.f_back.f_back]
            assert [f.f_code.co_name for f in chain] == ["<genexpr>", "descend", "settle"]
            run = chain[-1]
            t, end = run.f_locals["t"], run.f_locals["end"]
            return (t, end, frame.f_locals["t"]) if end > t else None

        def spy_mask(*args):
            frame = sys._getframe(1)  # the settle closing its children
            run = frame.f_locals["end"] - frame.f_locals["t"]
            if run:
                decided.append(run)
            else:
                closed.append(sent(frame))
            return mask(*args)

        def spy_charge(*args):
            frame = sys._getframe(1)
            if frame.f_code.co_name == "extend":
                enumerated.append(sent(frame))
            return charge(*args)

        pruned = fiber_point_count(real, levi)
        monkeypatch.setattr(ff_oracle, "_closing_mask", spy_mask)
        monkeypatch.setattr(ff_oracle, "_charge", spy_charge)
        monkeypatch.setattr(ff_oracle, "_floors", lambda p, levi, t: [])
        monkeypatch.setattr(ff_oracle, "_forced_subspaces", lambda heights, s, k: forced(heights, 2 * k + 1, k))
        got = fiber_point_count(real, levi)
        assert (got.count, got.skipped) == (pruned.count, pruned.skipped) == (want, None)
        assert pruned.nodes <= got.nodes <= ref_nodes
        if path == "c":
            assert max(decided) >= 2
        elif path == "s":
            assert not decided and closed
            assert all(run is not None and run[0] == run[2] for run in closed)
        else:
            assert any(run is not None and run[0] < run[2] < run[1] for run in enumerated)

    # A broken form (not e-invariant) makes the forced subspaces violate
    # what e-invariance guarantees: gram index 0 is x(1,0), the span of
    # im e^2 for B 3,1,1; for C 4,2 via (1,1;2), index 4 is x(1,1), a first
    # row in ker e that the broken form no longer makes orthogonal to
    # L_2 = im e^3.  The floor table cuts E_1 to im e^3 there (and E_1 of
    # C 6,2 to im e^5), so the whole window is checked before the cut.
    CORRUPT = (
        "from nilorbit import (Family, InvariantError, LeviType, fiber_point_count,\n"
        "                      parse_partition, realize)\n"
        "def raises(orbit, fam, levi, entries):\n"
        "    real = realize(parse_partition(orbit), fam, 3)\n"
        "    for i, j in entries:\n"
        "        real.gram[i, j] = 1\n"
        "    try:\n"
        "        fiber_point_count(real, LeviType.from_text(levi, fam))\n"
        "    except InvariantError as exc:\n"
        "        return str(exc).split(' (')[0]\n"
        "print(raises('3,1,1', Family.B, '1;3', [(0, 0)]))\n"
        "print(raises('4,2', Family.C, '1,1;2', [(0, 4), (4, 0)]))\n"
        "print(raises('6,2', Family.C, '1,1,1;2', [(0, 2), (1, 6)]))\n"
    )

    def test_forced_subspace_invariants_raise(self):
        real = realize(P("3,1,1"), Family.B, 3)
        real.gram[0, 0] = 1
        with pytest.raises(InvariantError, match="not isotropic"):
            fiber_point_count(real, L("1;3"))
        real = realize(P("4,2"), Family.C, 3)
        real.gram[0, 4] = real.gram[4, 0] = 1
        with pytest.raises(InvariantError, match="not orthogonal"):
            fiber_point_count(real, L("1,1;2", Family.C))

    def test_batched_last_level_keeps_the_orthogonality_check(self, monkeypatch):
        # C 4,2 via (1,1;2) decides its last level in its first level's
        # batches; the broken form of the test above makes E_1 = <x(1,1)>
        # meet L_2 = im e^3 there.  The cut to im e^3 never enumerates that
        # E_1, so recurse checks the window; with the cut off, the run does.
        real = realize(P("4,2"), Family.C, 3)
        real.gram[0, 4] = real.gram[4, 0] = 1
        with pytest.raises(InvariantError, match="E_1 is not orthogonal to L_2") as info:
            fiber_point_count(real, L("1,1;2", Family.C))
        assert (info.traceback[-1].name, info.traceback[-1].locals["t"]) == ("recurse", 0)
        monkeypatch.setattr(ff_oracle, "_cut", lambda floor, d: 0)
        with pytest.raises(InvariantError, match="E_1 is not orthogonal to L_2") as info:
            fiber_point_count(real, L("1,1;2", Family.C))
        raised = info.traceback[-1]  # the run of level 1 alone, the last level
        assert (raised.name, raised.locals["t"], raised.locals["end"]) == ("settle", 1, 2)

    def test_mid_run_level_keeps_the_orthogonality_check(self, monkeypatch):
        # C 6,2 via (1,1,1;2): level 1 decides its children's run of levels
        # 2 and 3.  Gram index 6 is x(1,1) and index 1 is x(2,0), in L_3 =
        # im e^4, so gram[1, 6] makes E_2 meet L_3.  gram[0, 2] breaks the
        # form's symmetry in the row of x(1,0), which spans L_2, so the run
        # no longer finds the child x(1,0) inside F1 + L_2: no child falls
        # short and recurses, and the batch reaches level 3, where the run
        # itself must raise.  The cut to im e^5 keeps x(1,1) out of E_1, so
        # recurse checks the window first; with the cut off, the run does.
        real = realize(P("6,2"), Family.C, 3)
        real.gram[0, 2] = real.gram[1, 6] = 1
        with pytest.raises(InvariantError, match="E_2 is not orthogonal to L_3") as info:
            fiber_point_count(real, L("1,1,1;2", Family.C))
        assert (info.traceback[-1].name, info.traceback[-1].locals["t"]) == ("recurse", 0)
        monkeypatch.setattr(ff_oracle, "_cut", lambda floor, d: 0)
        with pytest.raises(InvariantError, match="E_2 is not orthogonal to L_3") as info:
            fiber_point_count(real, L("1,1,1;2", Family.C))
        raised = info.traceback[-1]
        assert raised.name == "settle"
        assert raised.locals["i"] > raised.locals["t"]

    def test_forced_subspace_invariants_raise_under_optimize(self, run_optimized):
        assert run_optimized(self.CORRUPT).splitlines() == [
            "im e^a is not isotropic",
            "E_1 is not orthogonal to L_2",
            "E_2 is not orthogonal to L_3",
        ]


def _states(real, levi, cap):
    """Every (t, E, L, W) of the forced-subspace enumeration without the
    floor table: E = E_t of a partial flag (E_0 = 0), L = im e^(2k-t) (the
    forced subspace for q > 0, which every flag contains for any q) and
    the window W = (E + L)^perp cap e^{-1}(E) of level t + 1, built for
    each E on its own by two eliminations.  Raises BudgetExceeded once the
    enumeration has tested ``cap`` rows."""
    p, e, g = real.modulus, real.e, real.gram
    dims = list(itertools.accumulate(levi.ps))
    k = len(dims)
    if not k or np.any(_pow(e, 2 * k + 1, p)):
        return
    forced = [rref(_pow(e, 2 * k - t, p).T, p)[0] for t in range(k)]
    level, counter = [np.zeros((0, real.dim), dtype=np.int64)], [0]
    for t in range(k):
        children = []
        for E in level:
            L = forced[t]
            start = np.vstack([E, L])
            W = nullspace(np.vstack([start @ g % p, nullspace(E, p) @ e % p]), p)
            yield t, E, L, W
            if rank(start, p) <= dims[t] <= W.shape[0]:
                children += extensions(start, W, dims[t], g, p, counter, cap)
        level = children


def _swept_states(q):
    """(real, levi, states) for every Levi of B N <= 7 and C/D N <= 6 at
    p = q whose _states finish within 2,000 tested rows."""
    for fam, top in ((Family.B, 7), (Family.C, 6), (Family.D, 6)):
        for n in range(2 - fam.size_parity, top + 1, 2):
            for orbit in enumerate_valid(n, fam):
                real = realize(orbit, fam, q)
                for levi in enumerate_levis(n, fam):
                    try:
                        reached = list(_states(real, levi, 2000))
                    except BudgetExceeded:
                        continue
                    yield real, levi, reached


class TestLookAhead:
    @pytest.mark.parametrize("q", [3, 5])
    def test_window_lemma_on_every_state(self, q):
        # dim W = n - dim(E + L + e(E^perp)), since e^{-1}(E) = (e(E^perp))^perp;
        # dim e(E^perp) = rank e - dim(E cap im e); so dim W <= c - dim E
        # + 2 dim(E cap im e), a bound the floor table's a = 1 column meets
        # or beats.  And W, built here by a nullspace of E for each E, is
        # the window that _child_windows builds from one basis of ann(B)
        # for E = B + <x>: with x the last row of E (c = Y x != 0), with x
        # in B = E (c = 0), and at the root, where E = 0 is the child x = 0
        # of B = 0.
        states = 0
        p = q
        for real, levi, reached in _swept_states(q):
            e, g, n = real.e, real.gram, real.dim
            rank_e, c = rank(e, p), len(real.partition.parts)
            for t, E, L, W in reached:
                splits = [(E[:-1], E[-1:]), (E, E[-1:])] if E.shape[0] else [(E, np.zeros((1, n), dtype=np.int64))]
                for B, X in splits:
                    Y = nullspace(B, p)
                    windows = _child_windows(B @ g % p, Y, Y @ e % p, L @ g % p, X, g, p)
                    assert len(windows) == 1 and np.array_equal(windows[0], W), (real.partition, levi, B)
                e_perp = nullspace(E @ g % p, p) @ e.T % p
                d = E.shape[0]
                meet = d + rank_e - rank(np.vstack([E, e.T]), p)
                case = (real.partition, levi, t, E)
                assert W.shape[0] == n - rank(np.vstack([E, L, e_perp]), p), case
                assert rank(e_perp, p) == rank_e - meet, case
                assert W.shape[0] <= c - d + 2 * meet, case
                states += 1
        assert states > 1000

    # (flags counted, levels with a cut that hold them)
    @pytest.mark.parametrize("q,flags", [(3, (4388, 60)), (5, (3651, 60))])
    def test_counted_flags_lie_in_the_cut_windows(self, monkeypatch, q, flags):
        # Every flag that the un-hoisted reference counts (it knows neither
        # the forced subspaces nor the floor table), for every Levi of B
        # N <= 7 and C/D N <= 6 whose reference finishes within TestHoist's
        # cap, contains the forced subspaces that fiber_point_count builds,
        # and each level space E_t meets every floor of row t of the table:
        # dim(E_t cap im e^a) = dim E_t - rank(E_t at heights < a) >= m_a.
        # So E_t lies in its window cut to im e^a at _cut's a.
        p = q
        built = []
        forced_subspaces = ff_oracle._forced_subspaces

        def spy(*args):
            built.append(forced_subspaces(*args))
            return built[-1]

        monkeypatch.setattr(ff_oracle, "_forced_subspaces", spy)
        seen = cut = 0
        for fam, top in ((Family.B, 7), (Family.C, 6), (Family.D, 6)):
            for n in range(2 - fam.size_parity, top + 1, 2):
                for orbit in enumerate_valid(n, fam):
                    real = realize(orbit, fam, q)
                    heights = np.array([d - j for d in orbit.parts for j in range(1, d + 1)])
                    for levi in enumerate_levis(n, fam):
                        count, _, counted = swept_reference(fam, orbit, levi, q, TestHoist.CAP)
                        if not levi.ps or count is None:
                            continue
                        built.clear()
                        got = fiber_point_count(real, levi, budget=10**6)
                        assert got.count == len(counted), (orbit, levi)
                        if not counted:
                            continue
                        forced, nilpotent = built[-1]
                        assert nilpotent, (orbit, levi)
                        dims = list(itertools.accumulate(levi.ps))
                        for t, d in enumerate(dims):
                            floor = _floors(orbit, levi, t)
                            a = _cut(floor, d)
                            assert a is not None, (orbit, levi, t)
                            cut += bool(a)
                            for flag in counted:
                                E = flag[t]
                                case = (orbit, levi, t, E)
                                assert rank(E, p) == d, case
                                assert contains(E, forced[t], p), case
                                assert not E[:, heights < a].any(), case
                                for b, m in enumerate(floor, 1):
                                    assert d - rank(E[:, heights < b], p) >= m, case
                        seen += len(counted)
        assert (seen, cut) == flags

    # States E = E_t, t >= 1, of the sweep that the quotient bound drops.
    @pytest.mark.parametrize("q,drops", [(3, 42), (5, 100)])
    def test_quotient_bound_on_every_state(self, q, drops):
        # On E^perp/E, rank e'^a = rank(E + e^a(E^perp)) - dim E exactly, and
        # the bound's side rank e^a - 2 dim(E cap im e^a) may not exceed it.
        # The flags below E lower the chain of steps p_{t+1}, .., q, .., p_{t+1}
        # of E^perp/E, so none exist when that side exceeds N' - (the a
        # largest steps).  _quotient_cut and _quotient_alive must drop E,
        # split as B + <x> with x in B or not, exactly then, and the
        # un-hoisted reference must count no flag below a dropped E.
        p = q
        dropped = 0
        for real, levi, reached in _swept_states(q):
            e, g, n = real.e, real.gram, real.dim
            heights = [d - j for d in real.partition.parts for j in range(1, d + 1)]
            order = sorted(range(n), key=heights.__getitem__)
            powers = [_pow(e, a, p) for a in range(1, max(real.partition.parts))]
            for t, E, _, _ in reached:
                if t == 0:
                    continue
                d = rank(E, p)
                steps = sorted(levi.ps[t:] * 2 + (levi.q,), reverse=True)
                perp = nullspace(E @ g % p, p)
                dead = False
                for a, power in enumerate(powers, 1):
                    rank_a = rank(power, p)
                    meet = d + rank_a - rank(np.vstack([E, power.T]), p)
                    exact = rank(np.vstack([E, perp @ power.T % p]), p) - d
                    assert rank_a - 2 * meet <= exact, (real.partition, levi, E, a)
                    dead |= rank_a - 2 * meet > n - 2 * d - sum(steps[:a])
                spare = [s // 2 for s in _quotient_slack(real.partition, levi, t)]
                for B in (E[:-1], E):
                    cut = _quotient_cut(B, order, [heights[j] for j in order], spare, p)
                    assert _quotient_alive(cut, E[-1:], p)[0] != dead, (real.partition, levi, B)
                if dead:
                    below, _ = unhoisted_count(real, levi, DEFAULT_BUDGET, E, t)
                    assert below == 0, (real.partition, levi, E)
                    dropped += 1
        assert dropped == drops


class TestInvariantError:
    CORRUPT = (
        "from nilorbit import Family, InvariantError, parse_partition, realize\n"
        "from nilorbit.ff_oracle import _validate\n"
        "real = realize(parse_partition('3,1,1'), Family.B, 3)\n"
        "real.gram[0, 0] = (real.gram[0, 0] + 1) % 3\n"
        "try:\n"
        "    _validate(real)\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )

    def test_is_not_a_verification_failure(self):
        assert not issubclass(InvariantError, RuntimeError)

    @pytest.mark.parametrize("corrupt", ["asymmetric", "degenerate"])
    def test_corrupt_gram_raises(self, corrupt):
        real = realize(P("3,1,1"), Family.B, 3)
        if corrupt == "asymmetric":
            real.gram[0, 0] = (real.gram[0, 0] + 1) % 3
        else:
            real.gram[0] = 0
            real.gram[:, 0] = 0
        with pytest.raises(InvariantError):
            _validate(real)

    def test_corrupt_gram_raises_under_optimize(self, run_optimized):
        assert run_optimized(self.CORRUPT) == "raised"

    # Mutants of e for B 3,2,2 (x(i,j) at index 0-2, 3-4, 5-6; e[a, b] = 1
    # maps x(i,j) at b to x(i-1,j) at a): an entry 2, a second 1 in column
    # 2, which already holds e[1, 2], and the e of 1^7, which is 0 and so
    # e-invariant for any form, with the message each must raise.
    E_MUTANTS = (
        "from nilorbit import Family, InvariantError, parse_partition, realize\n"
        "from nilorbit.ff_oracle import _validate\n"
        "def mutant(kind):\n"
        "    real = realize(parse_partition('3,2,2'), Family.B, 3)\n"
        "    if kind == 'two':\n"
        "        real.e[0, 1] = 2\n"
        "    elif kind == 'column':\n"
        "        real.e[4, 2] = 1\n"
        "    else:\n"
        "        real.e = realize(parse_partition('1,1,1,1,1,1,1'), Family.B, 3).e\n"
        "    return real\n"
        "def raised(kind):\n"
        "    try:\n"
        "        _validate(mutant(kind))\n"
        "    except InvariantError as exc:\n"
        "        return str(exc).split(' (')[0]\n"
    )
    E_RAISED = {
        "two": "e is not a 0/1 partial permutation",
        "column": "e is not a 0/1 partial permutation",
        "partition": "rank of e^1 is not 4",
    }

    @pytest.mark.parametrize("kind", list(E_RAISED))
    def test_corrupt_e_raises(self, kind):
        scope = {}
        exec(self.E_MUTANTS, scope)
        assert scope["raised"](kind) == self.E_RAISED[kind]

    def test_corrupt_e_raises_under_optimize(self, run_optimized):
        script = self.E_MUTANTS + "".join(f"print(raised({kind!r}))\n" for kind in self.E_RAISED)
        assert run_optimized(script).splitlines() == list(self.E_RAISED.values())

    def test_split_check_reads_the_determinant(self):
        # D 1,1,1,1 at p = 5, where e = 0 and any nondegenerate symmetric
        # form is e-invariant.  This Gram matrix is not monomial; its
        # determinant is 4, a square, as is (-1)^(4/2), so the form is
        # split.  diag(1, 1, 1, 2) has determinant 2, a non-square.
        real = realize(P("1,1,1,1"), Family.D, 5)
        gram = np.array([[3, 4, 2, 3], [4, 0, 4, 3], [2, 4, 1, 3], [3, 3, 3, 1]], dtype=np.int64)
        _validate(replace(real, gram=gram))
        with pytest.raises(InvariantError, match="even orthogonal form is not split"):
            _validate(replace(real, gram=np.diag([1, 1, 1, 2]).astype(np.int64)))

    def test_exported_from_package_and_oracle(self):
        assert nilorbit.InvariantError is nilorbit.ff_oracle.InvariantError is InvariantError
