"""Finite-field checks.

The Grassmannian step counts are cross-checked against a brute force that
shares nothing with the package: it builds its own bilinear forms and its
own reduced-echelon subspace enumerator.  The oracle's pruned enumerator is
checked against the same enumerator plus an isotropy filter, its
batched leaf test against a per-leaf containment check, its starts (each
state's forced subspace) against a test-side count that enumerates
without them and against a route by matrix powers and rref, and its
children's windows against a fresh nullspace of each child; the package's row
reduction only builds the inputs and the canonical bases compared.
"""
import functools
import gc
import inspect
import itertools
import math
import sys
import types
from dataclasses import replace

import numpy as np
import pytest
from conftest import BIG_PRIME, contains, count_eliminations

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
    minimal_richardson_orbits,
    parse_partition,
    polarizations,
    pseudo_polarizations,
    realize,
    resolve_budget,
)
from nilorbit import _linalg, ff_oracle
from nilorbit._linalg import det, nullspace, rref
from nilorbit.ff_oracle import (
    BudgetExceeded,
    _chains,
    _heights,
    _is_odd_prime,
    _last_row_batches,
    _check_model,
    _cut,
    _model,
    _peel,
    _validate,
)


def P(text):
    return parse_partition(text)


def L(text, fam=Family.B):
    return LeviType.from_text(text, fam)


def with_gram(real, entries):
    """A copy of the realization ``real`` with the Gram entries
    ``{(i, j): value}`` set: realizations are immutable."""
    gram = real.gram.copy()
    for (i, j), value in entries.items():
        gram[i, j] = value
    return replace(real, form=gram)


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


def brute_one_level_count(real, r):
    """The r-dimensional E with e(E) = 0, E isotropic and e(E^perp) <= E:
    every r-dimensional subspace of ker e, spanned by the coordinates whose
    column of the Jordan matrix e is zero, tested one at a time."""
    p, e, g = real.modulus, real.e, real.gram
    kernel = np.eye(real.dim, dtype=np.int64)[~e.any(axis=0)]
    total = 0
    for mat in rref_subspaces(kernel.shape[0], r, p):
        E = mat @ kernel
        if not np.any(E @ g @ E.T % p):
            perp = nullspace(E @ g % p, p)
            total += contains(E, perp @ e.T % p, p)
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


def leibniz_det(rows):
    """The determinant of a small integer matrix, summed over the
    permutations with no zero factor, which are chosen row by row."""
    n, total = len(rows), 0

    def permutations(perm):
        if len(perm) == n:
            yield perm
            return
        for j in range(n):
            if j not in perm and rows[len(perm)][j]:
                yield from permutations(perm + (j,))

    for perm in permutations(()):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * math.prod(rows[i][perm[i]] for i in range(n))
    return total


class TestModel:
    def test_one_model_per_orbit(self):
        # realize builds no model; the first array read of each prime's
        # realization reduces the one cached model, and each realization
        # still gets fresh arrays, which are read-only.
        _model.cache_clear()
        reals = [realize(P("4,4,2,2,1"), Family.B, q) for q in (3, 5, 7)]
        assert _model.cache_info()[:2] == (0, 0)
        assert len({id(a) for real in reals for a in (real.e, real.gram)}) == 6
        assert _model.cache_info().misses == 1
        model = _model(P("4,4,2,2,1"), Family.B)
        for real in reals:
            q = real.modulus
            assert all(real.e[key] == v for key, v in model.e.items())
            assert all(real.gram[key] == v % q for key, v in model.gram.items())
            assert np.count_nonzero(real.e) == len(model.e)
            assert np.count_nonzero(real.gram) == len(model.gram)
            with pytest.raises(ValueError, match="read-only"):
                real.gram[0, 0] = 1
            with pytest.raises(AttributeError):
                real.gram = real.gram.copy()

    def test_a_given_form_is_the_gram(self):
        # replace(real, form=...) keeps the form as gram, read-only, beside
        # the model's e, and reading them runs no _validate: this form is
        # not symmetric, which _validate would refuse.
        real = realize(P("3,1,1"), Family.B, 3)
        form = np.triu(np.ones((5, 5), dtype=np.int64))
        other = replace(real, form=form)
        assert other.gram is form and not form.flags.writeable
        assert np.array_equal(other.e, real.e) and not other.e.flags.writeable
        with pytest.raises(InvariantError, match="form symmetry broken"):
            _validate(other)

    def test_model_det_is_exact(self):
        # The model's det over Z, read off its signed permutation, against
        # the Leibniz sum on every orbit with N <= 9, where a realization
        # reads det g mod q from it, and where the chain rule's disc(0) is
        # that det.
        for fam, top in ((Family.B, 9), (Family.C, 8), (Family.D, 8)):
            for n in range(2 - fam.size_parity, top + 1, 2):
                for orbit in enumerate_valid(n, fam):
                    model = _model(orbit, fam)
                    rows = [[model.gram.get((i, j), 0) for j in range(n)] for i in range(n)]
                    assert model.det == leibniz_det(rows) in (1, -1), (fam, orbit)
                    assert ff_oracle._root_disc(orbit, fam, 0) == model.det
                    for q in (3, 5, 7):
                        real = realize(orbit, fam, q)
                        assert real.det_g == det(real.gram, q), (fam, orbit, q)

    def test_discriminants_read_once_per_orbit(self, monkeypatch):
        # B 3,1,1 via (2;1) peels to the lines of V_1 = <x(1,1), x(1,2)>,
        # whose split type reads disc(0) disc(2): the chain rule gives both
        # from the partition, once per orbit for every prime, with no
        # elimination and no array.  disc(0) is det g, and g e^2 is 1 at
        # (2, 2) and 0 elsewhere, so disc(2) is 1.
        levi = L("2;1")
        reduce, calls = _linalg._reduce, []
        monkeypatch.setattr(_linalg, "_reduce", lambda mat, p: calls.append(1) or reduce(mat, p))
        ff_oracle._root_disc.cache_clear()
        for q in (3, 5, 3):
            real = realize(P("3,1,1"), Family.B, q)
            assert fiber_point_count(real, levi) == FlagCount(2, q, levi, 1)
            assert "e" not in vars(real) and "gram" not in vars(real)
        assert calls == []
        assert ff_oracle._root_disc.cache_info()[:2] == (4, 2)
        real = realize(P("3,1,1"), Family.B, 3)
        assert [ff_oracle._root_disc(P("3,1,1"), Family.B, a) for a in (0, 2)] == [
            _model(P("3,1,1"), Family.B).det, 1
        ]
        assert (real.gram @ real.e @ real.e % 3).tolist() == [
            [0] * 5, [0] * 5, [0, 0, 1, 0, 0], [0] * 5, [0] * 5
        ]

    def test_prime_checks_raise(self):
        # What _validate checks depends on the prime: symmetry of the
        # reduced form (here a changed entry at x(1,0), x(2,0)), its
        # nondegeneracy, and for D its split type.
        real = realize(P("3,1,1"), Family.B, 3)
        with pytest.raises(InvariantError, match="form symmetry broken .*p=3"):
            _validate(with_gram(real, {(0, 1): 1}))
        for q in (3, 5, 7):
            _validate(realize(P("3,1,1"), Family.B, q))

    # Each check of _check_model: the condition a mutant replaces by True,
    # the entries that corrupt B 3,1,1's model (x(1,0), x(2,0), x(3,0) at
    # 0-2, x(1,1) at 3, x(1,2) at 4; a 0 takes an entry of e out) and the
    # message the check raises for it.  With the check skipped the
    # corruption passes, or raises another message.
    MODEL_CHECKS = {
        "symmetry": (
            "all(g.get((j, i), 0) == eps * v for (i, j), v in g.items())",
            {"gram": {(0, 1): 1}},
            "form symmetry broken",
        ),
        "partial permutation": (
            "set(e.values()) <= {0, 1} and all(len(set(x)) == len(ones) for x in lines)",
            {"e": {(0, 2): 1}},
            "e is not a 0/1 partial permutation",
        ),
        "e-invariance": ("not any(invariance.values())", {"gram": {(0, 3): 1, (3, 0): 1}},
                         "form is not e-invariant"),
        "signed permutation": (
            "set(g.values()) <= {1, -1} and len(g) == n and all(len(set(x)) == n for x in zip(*g))",
            {"gram": {(3, 4): 1, (4, 3): 1}},
            "g is not a signed permutation",
        ),
        "ranks": ("len(image) == expected", {"e": {(0, 1): 0, (1, 2): 0}}, "rank of e^1 is not 2"),
    }

    @staticmethod
    def raised(check, model):
        try:
            check(model)
        except InvariantError as exc:
            return str(exc).split(" (")[0]
        return None

    def test_model_checks_raise_under_optimize(self, run_optimized):
        script = (
            "from dataclasses import replace\n"
            "from nilorbit import Family, InvariantError, parse_partition\n"
            "from nilorbit.ff_oracle import _check_model, _model\n"
            "model = _model(parse_partition('3,1,1'), Family.B)\n"
            f"for corruption in {[c for _, c, _ in self.MODEL_CHECKS.values()]}:\n"
            "    try:\n"
            "        _check_model(replace(model, **{k: {**getattr(model, k), **v} for k, v in corruption.items()}))\n"
            "    except InvariantError as exc:\n"
            "        print(str(exc).split(' (')[0])\n"
        )
        assert run_optimized(script).splitlines() == [m for _, _, m in self.MODEL_CHECKS.values()]

    @pytest.mark.parametrize("check", list(MODEL_CHECKS))
    def test_skipping_a_model_check_fails(self, monkeypatch, check):
        condition, corruption, message = self.MODEL_CHECKS[check]
        model = _model(P("3,1,1"), Family.B)
        corrupt = replace(model, **{k: {**getattr(model, k), **v} for k, v in corruption.items()})
        assert self.raised(_check_model, model) is None
        assert self.raised(_check_model, corrupt) == message
        mutant = mutant_oracle(monkeypatch, condition, "True")
        assert self.raised(mutant._check_model, corrupt) != message


def criterion_5_checks():
    """(family, orbit, levi, q) of criterion 5's 180 checks: every
    pseudo-polarization of B N <= 9 and C/D N <= 8, at p = 3 and 5."""
    for fam, top in ((Family.B, 9), (Family.C, 8), (Family.D, 8)):
        for n in range(2 - fam.size_parity, top + 1, 2):
            for orbit in enumerate_valid(n, fam):
                for _, levi in pseudo_polarizations(orbit, fam):
                    for q in (3, 5):
                        yield fam, orbit, levi, q


class TestMemo:
    # ff_oracle's caches, each keyed on its pure arguments alone
    CACHES = ("_is_valid", "_chains", "_model", "_signed_map", "_root_disc", "_peel", "_flag_sum")

    def test_caches_change_no_count(self):
        # Criterion 5's checks twice from empty caches, and once more from
        # the caches the second run filled: the same counts and nodes each
        # time, and the same cache traffic from empty caches.
        def run():
            checks = [fiber_point_count(realize(orbit, fam, q), levi)
                      for fam, orbit, levi, q in criterion_5_checks()]
            return checks, [getattr(ff_oracle, name).cache_info() for name in self.CACHES]

        def cleared_run():
            for name in self.CACHES:
                getattr(ff_oracle, name).cache_clear()
            return run()

        first, traffic = cleared_run()
        assert (len(first), sum(fc.nodes for fc in first)) == (180, 260)
        assert all(fc.count is not None for fc in first)
        assert cleared_run() == (first, traffic)
        again, _ = run()
        assert again == first


class TestOnDemand:
    def test_a_check_builds_only_what_it_reads(self, monkeypatch):
        # Criterion 5's checks, every pseudo-polarization at B N <= 9 and
        # C/D N <= 8 at p = 3 and 5, each on a fresh realization: one that
        # the root decides (its peel does) builds no model, no array and
        # no elimination, and its realization keeps no array; one that it
        # leaves reduces the orbit's model into arrays once, and reads its
        # first window from the Jordan chains with no elimination.
        calls = {"model": 0, "reduce": 0}

        def counted(name, function):
            def spy(*args):
                calls[name] += 1
                return function(*args)
            return spy

        monkeypatch.setattr(ff_oracle, "_model", counted("model", _model))
        monkeypatch.setattr(ff_oracle.JordanModel, "reduce",
                            counted("reduce", ff_oracle.JordanModel.reduce))
        eliminations = count_eliminations(monkeypatch)
        decided = left = 0
        for fam, orbit, levi, q in criterion_5_checks():
            before, spent = dict(calls), sum(eliminations.values())
            real = realize(orbit, fam, q)
            assert fiber_point_count(real, levi).count is not None
            built = "e" in vars(real)
            if _peel(orbit.parts, levi.ps, levi.q) is not None:
                made = sum(eliminations.values()) - spent
                assert (calls, built, made) == (before, False, 0), (fam, orbit, levi, q)
                decided += 1
            else:
                assert (calls["reduce"] - before["reduce"], built) == (1, True)
                left += 1
        assert (decided, left) == (146, 34)
        assert eliminations["root window"] == 0

    @pytest.mark.parametrize("p", [3, 5])
    def test_a_given_form_is_never_read_by_the_chain_rule(self, monkeypatch, p):
        # B 3,1,1 via (2;1) is decided at the root.  With a non-square unit
        # on x(1,2), V_1 is non-split and has no isotropic line: the count
        # takes the given form's discriminants by elimination, never from
        # the chain rule, which holds only for realize's own forms, and so
        # does every count of the non-split sweep.
        real = realize(P("3,1,1"), Family.B, p)
        other = with_gram(real, {(4, 4): real.gram[4, 4] * 2 % p})

        def refuse(*args):
            raise AssertionError(f"the chain rule read a given form: {args}")

        reduce, calls = _linalg._reduce, []
        monkeypatch.setattr(ff_oracle, "_root_disc", refuse)
        monkeypatch.setattr(_linalg, "_reduce", lambda mat, q: calls.append(1) or reduce(mat, q))
        assert fiber_point_count(other, L("2;1")) == FlagCount(0, p, L("2;1"), 1)
        assert calls
        if p == 3:
            assert non_split_sweep(ff_oracle, 3, (9, 8, 8)) == (243, [])
        monkeypatch.undo()
        assert fiber_point_count(realize(P("3,1,1"), Family.B, p), L("2;1")).count == 2


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
    """The forced subspaces by matrix powers: row bases of L_i =
    im e^(s-i), i = 1..k, by rref of the transposed matrix powers."""
    power = _pow(e, s - k, p)
    bases = []
    for _ in range(k):
        bases.append(rref(power.T, p)[0])
        power = power @ e % p
    return bases[::-1]


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
            other = replace(real, form=S.T @ real.gram % 5 @ S % 5)
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

    @pytest.mark.parametrize("count, nodes", [(1, True), (True, 1), (None, False), (1.0, 1),
                                              (1, 1.0), (1, None), (np.int64(1), 1)])
    def test_a_count_is_an_int_and_not_a_bool(self, count, nodes):
        # Else FlagCount(1, 3, L, True) == FlagCount(1, 3, L, 1).
        with pytest.raises(ValueError, match="^FlagCount (count|nodes) .* is not an int$"):
            FlagCount(count, 3, L("2;1"), nodes)
        assert FlagCount(None, 3, L("2;1"), 2, "budget").nodes == 2


class TestBudget:
    def test_resolve_precedence(self):
        assert resolve_budget() == DEFAULT_BUDGET
        assert resolve_budget(77) == 77
        assert resolve_budget(0) == 0

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            resolve_budget(-1)
        with pytest.raises(ValueError):
            fiber_point_count(realize(P("2,2,1"), Family.B, 3), L("1;3"), budget=-1)

    def test_exhaustion_is_an_explicit_skip(self):
        # A two-level Levi, which the peel leaves to the enumeration.
        real = realize(P("4,4,2,2,1"), Family.B, 3)
        res = fiber_point_count(real, L("2,4;1"), budget=1)
        assert res == FlagCount(None, 3, L("2,4;1"), res.nodes, skipped="budget")
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
        if len(rref(cand, p)[1]) > E.shape[0] and not np.any(cand @ form % p @ x.T % p):
            E = cand
    return E


def extensions(*args):
    """Every F of _last_row_batches(*args), as F1 plus one surviving row."""
    return [np.vstack([F1, w]) for F1, X in _last_row_batches(*args) for w in X]


def closing_mask(A, M, p):
    """Per row a of A: does M vanish on ker(a) x ker(a)?  With a pivot i
    (a_i != 0), ker(a) is spanned by a_i e_j - a_j e_i, so it does iff
        a_i^2 M - a_i (M[:, i] (x) a) - a_i (a (x) M[i, :]) + M_ii (a (x) a)
    vanishes mod p, that is a_i D - a (x) D[i, :] for D = a_i M - M[:, i] (x) a.
    Every product has factors below p, so n (p - 1)^2 < 2^63 bounds them."""
    nonzero = A != 0
    assert nonzero.any(axis=1).all(), "a last row lies in the span it extends"
    r = np.arange(A.shape[0])
    i = nonzero.argmax(axis=1)
    ai = A[r, i][:, None, None]
    D = (ai * M % p - M[:, i].T[:, :, None] * A[:, None, :] % p) % p
    T = ai * D % p - A[:, :, None] * D[r, i][:, None, :] % p
    return ~np.any(T % p, axis=(1, 2))


def closing_batches(E, W, target, g, eg, p, counter, cap):
    """(F1, X, closes) per batch of _last_row_batches, with closes[j] True
    iff F = F1 + <X[j]> satisfies e(F^perp) <= F.  Per state F1, Q is a
    basis of F1^perp; F^perp is ker(Q g X[j]) in Q coordinates, where
    closing_mask decides whether <e u, v> vanishes."""
    state = None
    for F1, X in _last_row_batches(E, W, target, g, p, counter, cap):
        if F1 is not state:
            state = F1
            Q = nullspace(F1 @ g % p, p)
            M = Q @ eg % p @ Q.T % p
            G = Q @ g % p
        yield F1, X, closing_mask(X @ G.T % p, M, p)


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
            if len(rref(np.vstack([F, E]), p)[1]) == target and not np.any(F @ form % p @ F.T % p):
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


# (orbit, family) pairs whose realizations feed the leaf-test checks of
# the reference's closing test (closing_mask).
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

    # (states E = E_t of the sweep, of which the package counts on E^perp/E,
    # of which count 0)
    @pytest.mark.parametrize("q,states", [(3, (1531, 1384, 59)), (5, (1469, 1358, 127))])
    def test_quotient_count_on_every_state(self, q, states):
        # The package never closes a flag: it counts every state E = E_t,
        # the root E_0 = 0 among them, on E^perp/E (_state_count), and
        # enumerates the next level only where the peel does not decide
        # that count, never at E_{k-1}.  On every state of the enumeration
        # without the floor table (_states), t = 0, .., k - 1, for every
        # Levi of B N <= 7 and C/D N <= 6 whose states finish within 2,000
        # rows, that count equals the flags through E that the un-hoisted
        # reference closes one by one.
        *counts, wrong = state_sweep(ff_oracle, q)
        assert wrong == []
        assert tuple(counts) == states

    # Each mutant misreads e' on some states and miscounts them at p = 3:
    # s' = 2 + [q > 0] at every level, the reading that holds at the last
    # one only, and a part above s let through, whose chain the ranks of
    # G_1, .., G_{s-1} then misread, misread its Jordan type; the
    # elimination reading's disc(0) without (-1)^d, the hyperbolic planes
    # of E + E*, misreads a split type.  (old, new, states miscounted)
    STATE_MUTANTS = {
        "s' at every level": ("s = 2 * len(steps) + (q > 0)\n    if", "s = 2 + (q > 0)\n    if", 37),
        "G_s test dropped": ("if rank(s):", "if False:", 14),
        "(-1)^d dropped": ("return (-1) ** d * real.det_g", "return real.det_g", 93),
    }

    @pytest.mark.parametrize("mutant", list(STATE_MUTANTS))
    def test_state_count_mutants_fail(self, monkeypatch, mutant):
        old, new, miscounted = self.STATE_MUTANTS[mutant]
        *_, wrong = state_sweep(mutant_oracle(monkeypatch, old, new), 3)
        assert len(wrong) == miscounted > 0

    def test_anchor(self):
        real = realize(P("4,4,4,4,3,3,1"), Family.B, 3)
        res = fiber_point_count(real, L("5,6;1"))
        assert (res.count, res.nodes) == (4, 545)


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

    # B 3,2,2 via (1,2;1), a two-level Levi: the full count takes 62
    # nodes, and caps below 25 skip on the first row's first pivot column.
    @pytest.mark.parametrize("cap", [0, 1, 5, 30])
    def test_skip_reports_cap_plus_one(self, cap):
        real, levi = realize(P("3,2,2"), Family.B, 5), L("1,2;1")
        assert fiber_point_count(real, levi).nodes == 62
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

    # Checks whose node total exceeds this are checked only at budgets 0,
    # 1 and SWEEP_CAP, where they skip: C 2,1,1,1,1 via (1,1,1;0) alone
    # takes 49,453 nodes and 2 s at p=5.
    SWEEP_CAP = 2000
    # q: (checks, peeled, enumerations over SWEEP_CAP)
    SWEEP = {3: (145, 103, 4), 5: (145, 103, 12)}

    @pytest.mark.parametrize("q", list(SWEEP))
    def test_node_rule_at_every_budget(self, q):
        # Every Levi with a general-linear block of every orbit at B N <= 7
        # and C/D N <= 6, among them B 3,3,1 via (3;1), where the peel finds
        # a negative q and the enumeration charges no row.  A check the
        # peel decides costs exactly one node: it skips at budget 0 and
        # finishes at budget 1.  The enumeration's rule is checked on every
        # check, where the peel decides it through the enumeration with only
        # the last level counted on its quotient (last_level_only): with T the
        # node total, each budget b >= 1 in {1, T - 1, T} (and 0, through
        # fiber_point_count) gives a skip with b + 1 nodes exactly when
        # T > b, and the result at SWEEP_CAP otherwise.
        checks = peeled = over = 0
        for fam, top in ((Family.B, 7), (Family.C, 6), (Family.D, 6)):
            for n in range(2 - fam.size_parity, top + 1, 2):
                for orbit in enumerate_valid(n, fam):
                    real = realize(orbit, fam, q)
                    for levi in enumerate_levis(n, fam):
                        if not levi.ps:
                            continue
                        count = functools.partial(fiber_point_count, real, levi)
                        if ff_oracle._peel(orbit.parts, levi.ps, levi.q) is not None:
                            full = count(self.SWEEP_CAP)
                            assert (full.nodes, full.skipped) == (1, None), (orbit, levi)
                            assert count(0) == FlagCount(None, q, levi, 1, "budget")
                            assert count(1) == full, (orbit, levi)
                            count = functools.partial(enumerate_levels, real, levi)
                            peeled += 1
                        full = count(self.SWEEP_CAP)
                        T = full.nodes
                        assert T >= 1, (orbit, levi)
                        budgets = {0, 1, T - 1, T}
                        if full.count is None:
                            assert T == self.SWEEP_CAP + 1, (orbit, levi)
                            budgets, over = {0, 1}, over + 1
                        if count.func is enumerate_levels:
                            budgets.discard(0)  # a cap >= 1; 0 is the precharged skip above
                        for b in budgets:
                            res = count(b)
                            if T > b:
                                assert res == FlagCount(None, q, levi, b + 1, "budget"), (orbit, levi, b)
                            else:
                                assert res == full, (orbit, levi, b)
                        checks += 1
        assert (checks, peeled, over) == self.SWEEP[q]
        real = realize(P("3,3,1"), Family.B, q)
        res = fiber_point_count(real, L("3;1"))
        assert res == fiber_point_count(real, L("3;1"), 1) == FlagCount(0, q, L("3;1"), 1)

    def test_first_row_over_the_cap_skips_on_one_charge(self, monkeypatch):
        # B 3,3,1 via (1,2;1) and (1,1;3), two-level Levis, at p =
        # 1,000,003: the first row's first pivot column alone has p
        # candidates, more than the cap, so the one charge for that column
        # skips before any row is generated.
        charges = []
        charge = ff_oracle._charge

        def spy(counter, size, cap):
            charges.append(size)
            charge(counter, size, cap)

        monkeypatch.setattr(ff_oracle, "_charge", spy)
        real = realize(P("3,3,1"), Family.B, 1_000_003)
        for levi in (L("1,2;1"), L("1,1;3")):
            charges.clear()
            res = fiber_point_count(real, levi, 10**6)
            assert res == FlagCount(None, 1_000_003, levi, 10**6 + 1, "budget")
            assert charges == [1_000_003], levi

    @pytest.mark.parametrize("cap", [DEFAULT_BUDGET, 3])
    def test_enumeration_leaves_no_reference_cycle(self, cap):
        # B 4,4,2,2,1 via (1,4;3) is enumerated (8 nodes), and skips at cap
        # 3.  Neither run leaves garbage for the cyclic collector: the
        # recursive closures are freed when the check returns.
        real, levi = realize(P("4,4,2,2,1"), Family.B, 3), L("1,4;3")
        assert _peel(real.partition.parts, levi.ps, levi.q) is None
        gc.collect()
        gc.disable()
        try:
            res = fiber_point_count(real, levi, cap)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert (res.count, res.nodes) == ((4, 8) if cap > 8 else (None, cap + 1))

    def test_totals_repeat(self):
        orbit = P("4,4,2,2,1")
        levis = [levi for _, levi in pseudo_polarizations(orbit, Family.B)]
        runs = [
            [fiber_point_count(realize(orbit, Family.B, 3), levi).nodes for levi in levis]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


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


def reference_start(real, levi, E, t):
    """The start of level t + 1 below the state E = E_t (rows spanning it;
    None for E_0 = 0, as fiber_point_count passes the root), by matrix powers and
    rref: with s = 2(k - t) + [q > 0], the forced subspace E + e^(s-1)(E^perp)
    in reduced form and its dimension, or None where e^s(E^perp) leaves E
    (a part of e' on E^perp/E above s), below which no flag goes and the
    start need not even be isotropic."""
    p, e, g = real.modulus, real.e, real.gram
    if E is None:
        E = np.zeros((0, real.dim), dtype=np.int64)
    s = 2 * (len(levi.ps) - t) + (levi.q > 0)
    perp = nullspace(E @ g % p, p)
    if not contains(E, perp @ _pow(e, s, p).T % p, p):
        return None
    start = rref(np.vstack([E, perp @ _pow(e, s - 1, p).T % p]), p)[0]
    return start, start.shape[0]


def last_level_only(monkeypatch):
    """Let fiber_point_count count only the states E_{k-1} on their quotient, and
    the states below which e' has a part above s (a count of 0, where
    reference_start has no start), and start every other level from
    reference_start, so that every level before the last is filled or
    enumerated and the tests of its fill, cut and window paths reach the
    levels they pin.  _state_count sees every state, those that a batch
    read (_siblings) too: their rows are the first rows of the start that
    their reading builds.  A start must begin with the rows of its state,
    where fiber_point_count reads them, so reference_start's rows follow E's."""
    count = ff_oracle._state_count

    def state_count(real, levi, E, t, reading=None):
        if t == len(levi.ps) - 1:
            return count(real, levi, E, t, reading)
        if E is None and t:
            E = reading[2]()[0][: sum(levi.ps[:t])]
        start = reference_start(real, levi, E, t)
        if start is None:
            return count(real, levi, E, t, reading)
        return start if E is None else (np.vstack([E, start[0]]), start[1])

    monkeypatch.setattr(ff_oracle, "_state_count", state_count)


def watch_states(monkeypatch, seen):
    """Call seen(real, levi, t, value) with each state's value: _state_count
    sees every state, whether its batch read it (_siblings) or not."""
    count = ff_oracle._state_count

    def spy_count(real, levi, E, t, reading=None):
        value = count(real, levi, E, t, reading)
        seen(real, levi, t, value)
        return value

    monkeypatch.setattr(ff_oracle, "_state_count", spy_count)


def enumerate_levels(real, levi, cap):
    """fiber_point_count under last_level_only: the route of a check whose levels
    before the last are all enumerated, even where the peel decides it."""
    with pytest.MonkeyPatch.context() as patch:
        last_level_only(patch)
        return fiber_point_count(real, levi, cap)


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

    # prime: (checks, nodes, skips) of fiber_point_count at CAP on every
    # Levi of the sweep, pseudo-polarization or not
    SWEPT = {3: (181, 6901, 1), 5: (181, 20111, 4), 7: (51, 314, 0)}

    # (prime, top N for B/C/D, checks the reference finishes, of which
    # count 0, of which have e^s != 0)
    @pytest.mark.parametrize(
        "q,tops,coverage",
        [(3, (7, 6, 6), (164, 63, 30)), (5, (7, 6, 6), (145, 63, 30)), (7, (5, 4, 4), (46, 15, 5))],
    )
    def test_matches_unhoisted_reference(self, q, tops, coverage):
        compared = zeros = not_nilpotent = 0
        totals, swept = [0, 0], [0, 0, 0]
        for fam, top in zip((Family.B, Family.C, Family.D), tops):
            for n in range(2 - fam.size_parity, top + 1, 2):
                for orbit in enumerate_valid(n, fam):
                    real = realize(orbit, fam, q)
                    for levi in enumerate_levis(n, fam):
                        want, ref_nodes, _ = swept_reference(fam, orbit, levi, q, self.CAP)
                        got = fiber_point_count(real, levi, budget=self.CAP)
                        swept[0] += 1
                        swept[1] += got.nodes
                        swept[2] += got.skipped is not None
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
        assert tuple(swept) == self.SWEPT[q]

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
    def test_a_filled_level_costs_one_node(self, monkeypatch, fam, orbit, levi, k, q):
        # Every level filled by its start: one flag, k nodes, when only
        # the last level is counted on its quotient.  The root's peel
        # decides each of them at one node.
        real, levi = realize(P(orbit), fam, q), L(levi, fam)
        assert fiber_point_count(real, levi, DEFAULT_BUDGET) == FlagCount(1, q, levi, 1)
        last_level_only(monkeypatch)
        res = fiber_point_count(real, levi, DEFAULT_BUDGET)
        assert (res.count, res.nodes) == (1, k)

    FILL = "_charge(counter, 1, cap)\n            return count(start, t + 1)"

    @pytest.mark.parametrize("q", [3, 5])
    def test_the_atlas_fill_costs_one_node(self, monkeypatch, q):
        # B 7,3,1 via (1,2,2;1) holds the atlas's only fills at rank 5: the
        # root leaves a start that fills level 1, at one node of the
        # check's three.  A mutant that charges a fill nothing fails.
        levi = L("1,2,2;1")
        want = FlagCount(2, q, levi, 3)
        assert fiber_point_count(realize(P("7,3,1"), Family.B, q), levi) == want
        mutant = mutant_oracle(monkeypatch, self.FILL, self.FILL.replace("1", "0", 1))
        got = mutant.fiber_point_count(mutant.realize(P("7,3,1"), Family.B, q), levi)
        assert (got.count, got.nodes, got.skipped) == (2, 2, None)

    def test_e_power_decides_at_one_node(self):
        # B 5 via (1;3): e^3 != 0, so L_1 = im e^2 leaves ker e.
        real = realize(P("5"), Family.B, 3)
        assert fiber_point_count(real, L("1;3")) == FlagCount(0, 3, L("1;3"), 1)

    # Checks where a floor on dim(E cap im e) alone would prune ("a": the
    # enumeration keeps no such floor, so with the cut off it generates
    # every row that one would exclude) and where the children of a level
    # have their last level counted on the quotient ("b": _state_count
    # counts it with no row of it generated), each against the un-hoisted
    # reference.  The paths are pinned with only the last level counted on
    # the quotient (last_level_only) and with the cut off, since it prunes
    # first.  With all on, the count is the same and takes at most as many
    # nodes as the reference.
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

    @pytest.mark.parametrize("path,fam,orbit,levi", LOOKAHEAD)
    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_lookahead_matches_unhoisted_reference(self, monkeypatch, path, fam, orbit, levi, q):
        real, levi = realize(P(orbit), fam, q), L(levi, fam)
        want, ref_nodes = unhoisted_count(real, levi, DEFAULT_BUDGET)
        full = fiber_point_count(real, levi, DEFAULT_BUDGET)
        counted, targets = [], []
        last_level_only(monkeypatch)
        batches = ff_oracle._last_row_batches

        def spy_batches(*args):
            targets.append(args[2])
            return batches(*args)

        watch_states(monkeypatch, lambda real, levi, t, value: counted.append(value))
        monkeypatch.setattr(ff_oracle, "_last_row_batches", spy_batches)
        monkeypatch.setattr(ff_oracle, "_cut", lambda p, levi, t: 0)
        got = fiber_point_count(real, levi, DEFAULT_BUDGET)
        assert (got.count, got.skipped) == (full.count, full.skipped) == (want, None)
        assert max(full.nodes, got.nodes) <= ref_nodes
        assert targets and sum(levi.ps) not in targets
        if path == "b":
            assert any(not isinstance(value, tuple) for value in counted)

    # Levels decided before the last one, each against the un-hoisted
    # reference.  A start of dimension dim E_{t+1} is E_{t+1}, at one node,
    # and a shorter one is enumerated; a state below which e' has a part
    # above s_t counts 0 on its quotient, with no start.  The paths are read
    # from the calls the enumeration makes: "c", a level where some starts
    # fill and others fall short and are enumerated, or states before the
    # last level counted 0 on their quotients; "s", every level before the
    # last filled by its start, none enumerated; "m", states of a middle
    # level (0 < t < k - 1) counted 0 on their quotients.  The references
    # for C 6,1,1,1,1 and D 7,3,1,1 take 5 s and 0.5 s at p=5, so they run
    # at p=3 only.  The paths are pinned with the cut off, as it cuts the
    # windows before the fills see them, and with only the last level
    # counted on the quotient (last_level_only), as the quotient count
    # decides some levels before the fills see them.  With
    # all on, the count is the same and takes at most as many nodes.
    CHAINS = [
        ("c", Family.C, "6,1,1,1,1", "1,1,1;4", (3,)),
        ("c", Family.D, "7,3,1,1", "1,1,1,1;4", (3,)),
        ("c", Family.D, "7,5", "1,1,1,1;4", (3, 5, 7)),  # count 0
        ("s", Family.C, "6", "1,1,1;0", (3, 5, 7)),
        ("c", Family.B, "6,6,5", "1,2,3;5", (3, 5)),  # count 0
        ("m", Family.B, "8,8,7", "1,2,3,3;5", (3, 5)),  # count 0
    ]

    @pytest.mark.parametrize(
        "path,fam,orbit,levi,q",
        [case[:4] + (q,) for case in CHAINS for q in case[4]],
    )
    def test_chains_match_unhoisted_reference(self, monkeypatch, path, fam, orbit, levi, q):
        real, levi = realize(P(orbit), fam, q), L(levi, fam)
        want, ref_nodes = unhoisted_count(real, levi, DEFAULT_BUDGET)
        pruned = fiber_point_count(real, levi, DEFAULT_BUDGET)
        last_level_only(monkeypatch)
        batches = ff_oracle._last_row_batches
        dims = list(itertools.accumulate(levi.ps))
        fills, zeros, enumerated = [0] * len(dims), [0] * len(dims), [0] * len(dims)  # per level

        def seen(real, levi, t, value):
            if isinstance(value, tuple):
                fills[t] += value[1] == dims[t]
            elif t < len(dims) - 1:
                zeros[t] += 1

        def spy_batches(E, W, target, *rest):
            enumerated[dims.index(target)] += 1
            return batches(E, W, target, *rest)

        watch_states(monkeypatch, seen)
        monkeypatch.setattr(ff_oracle, "_last_row_batches", spy_batches)
        monkeypatch.setattr(ff_oracle, "_cut", lambda p, levi, t: 0)
        got = fiber_point_count(real, levi, DEFAULT_BUDGET)
        assert (got.count, got.skipped) == (pruned.count, pruned.skipped) == (want, None)
        assert pruned.nodes <= got.nodes <= ref_nodes
        if path == "c":
            assert any(zeros) or any(filled and calls for filled, calls in zip(fills, enumerated))
        elif path == "s":
            assert all(fills[:-1]) and not any(enumerated)
        else:
            assert any(zeros[1:-1])

    # Forms that are not invariant forms of e, none of which the root's
    # peel decides: B 4,4,1 via (1,3;1) with gram[0, 0] = 1 is symmetric
    # but not e-invariant; C 4,2 via (1,1;2) with gram[0, 4] = gram[4, 0] =
    # 1 and C 6,2 via (1,1,1;2) with MID_RUN are not alternating either.
    # The enumeration's starts are isotropic, and orthogonal to their
    # windows, only for an e-invariant form, so _levels checks g^T = eps g
    # and e^T g + g e = 0 before the first level is enumerated, and each
    # raises there, with no node spent, also with the cut off.
    MID_RUN = {(1, 6): 1, (6, 1): 2, (6, 6): 1, (6, 0): 2}
    CORRUPTED = (
        ("4,4,1", Family.B, "1,3;1", {(0, 0): 1}, "e^T g + g e != 0 mod 3"),
        ("4,2", Family.C, "1,1;2", {(0, 4): 1, (4, 0): 1}, "g^T != eps g mod 3"),
        ("6,2", Family.C, "1,1,1;2", MID_RUN, "g^T != eps g mod 3"),
    )
    CORRUPT = (
        "import re\n"
        "from dataclasses import replace\n"
        "from nilorbit import Family, InvariantError, LeviType, parse_partition, realize\n"
        "from nilorbit import ff_oracle\n"
        "def raises(orbit, fam, levi, entries):\n"
        "    real = realize(parse_partition(orbit), fam, 3)\n"
        "    gram = real.gram.copy()\n"
        "    for (i, j), value in entries.items():\n"
        "        gram[i, j] = value\n"
        "    real = replace(real, form=gram)\n"
        "    try:\n"
        "        ff_oracle.fiber_point_count(real, LeviType.from_text(levi, fam), 10**6)\n"
        "    except InvariantError as exc:\n"
        "        return re.sub(r' \\(.*\\)', '', str(exc))\n"
        "print(raises('4,4,1', Family.B, '1,3;1', {(0, 0): 1}))\n"
        "for _ in range(2):\n"
        "    print(raises('4,2', Family.C, '1,1;2', {(0, 4): 1, (4, 0): 1}))\n"
        f"    print(raises('6,2', Family.C, '1,1,1;2', {MID_RUN}))\n"
        "    ff_oracle._cut = lambda p, levi, t: 0\n"
    )

    def corrupted(self):
        """(realization, Levi, failed clause) for each form of CORRUPTED."""
        for orbit, fam, levi, entries, clause in self.CORRUPTED:
            yield with_gram(realize(P(orbit), fam, 3), entries), L(levi, fam), clause

    @staticmethod
    def raised_after(real, levi):
        """The message of the InvariantError that fiber_point_count raises, and
        what the enumeration did before it: ("enumerate", t) for each level
        t enumerated, ("yield", rows) for each batch of children it
        yields, ("state", t, count) for each state E_t counted on its
        quotient, ("start", t, dim) for each state whose quotient leaves it
        a start, and ("charge", nodes) for each charge."""
        dims, log = list(itertools.accumulate(levi.ps)), []
        charge, batches = ff_oracle._charge, ff_oracle._last_row_batches

        def spy_charge(counter, size, cap):
            log.append(("charge", int(size)))
            charge(counter, size, cap)

        def spy_batches(E, W, target, *rest):
            log.append(("enumerate", dims.index(target)))
            for F1, X in batches(E, W, target, *rest):
                log.append(("yield", X.shape[0]))
                yield F1, X

        def seen(real, levi, t, value):
            log.append(("start", t, value[1]) if isinstance(value, tuple) else ("state", t, value))

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ff_oracle, "_charge", spy_charge)
            patch.setattr(ff_oracle, "_last_row_batches", spy_batches)
            watch_states(patch, seen)
            with pytest.raises(InvariantError) as info:
                fiber_point_count(real, levi, DEFAULT_BUDGET)
        return str(info.value).split(" (")[0], str(info.value).rsplit("): ", 1)[1], log

    def test_forced_subspace_invariants_raise(self):
        for real, levi, clause in self.corrupted():
            with pytest.raises(InvariantError, match=r"^the form is not e-invariant \(") as info:
                fiber_point_count(real, levi)
            assert str(info.value).endswith(f"): {clause}"), levi

    def test_last_level_keeps_the_orthogonality_check(self, monkeypatch):
        # C 4,2 via (1,1;2): the root leaves a start, and the check raises
        # before level 1 is enumerated, with the cut on or off.
        real = with_gram(realize(P("4,2"), Family.C, 3), {(0, 4): 1, (4, 0): 1})
        levi = L("1,1;2", Family.C)
        want = ("the form is not e-invariant", "g^T != eps g mod 3", [("start", 0, 0)])
        assert self.raised_after(real, levi) == want
        monkeypatch.setattr(ff_oracle, "_cut", lambda p, levi, t: 0)
        assert self.raised_after(real, levi) == want

    def test_decided_level_keeps_the_orthogonality_check(self, monkeypatch):
        # C 6,2 via (1,1,1;2) with MID_RUN: the root leaves a start, and
        # the check raises before level 1 is enumerated, also with the cut
        # off and every level before the last enumerated (last_level_only).
        real = with_gram(realize(P("6,2"), Family.C, 3), self.MID_RUN)
        levi = L("1,1,1;2", Family.C)
        want = ("the form is not e-invariant", "g^T != eps g mod 3", [("start", 0, 0)])
        assert self.raised_after(real, levi) == want
        monkeypatch.setattr(ff_oracle, "_cut", lambda p, levi, t: 0)
        last_level_only(monkeypatch)
        assert self.raised_after(real, levi) == want

    def test_forced_subspace_invariants_raise_under_optimize(self, run_optimized):
        assert run_optimized(self.CORRUPT).splitlines() == [
            "the form is not e-invariant: e^T g + g e != 0 mod 3",
            "the form is not e-invariant: g^T != eps g mod 3",
            "the form is not e-invariant: g^T != eps g mod 3",
            "the form is not e-invariant: g^T != eps g mod 3",
            "the form is not e-invariant: g^T != eps g mod 3",
        ]

    def test_dropped_form_check_lets_the_corrupted_forms_through(self, monkeypatch):
        # With the check of _levels dropped, no other check of the
        # enumeration catches these forms: each count returns 0, a wrong
        # answer for a form that is no invariant form at all.
        mutant = mutant_oracle(monkeypatch, "if (residue % p).any():", "if False:")
        for real, levi, _ in self.corrupted():
            assert mutant.fiber_point_count(real, levi).count == 0, levi


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
            if len(rref(start, p)[1]) <= dims[t] <= W.shape[0]:
                children += extensions(start, W, dims[t], g, p, counter, cap)
        level = children


@functools.lru_cache(maxsize=None)
def _swept_states(q):
    """(real, levi, states) for every Levi of B N <= 7 and C/D N <= 6 at
    p = q whose _states finish within 2,000 tested rows.  The sweeps over
    every state share it."""
    swept = []
    for fam, top in ((Family.B, 7), (Family.C, 6), (Family.D, 6)):
        for n in range(2 - fam.size_parity, top + 1, 2):
            for orbit in enumerate_valid(n, fam):
                real = realize(orbit, fam, q)
                for levi in enumerate_levis(n, fam):
                    try:
                        swept.append((real, levi, list(_states(real, levi, 2000))))
                    except BudgetExceeded:
                        continue
    return swept


@functools.lru_cache(maxsize=None)
def state_reference(q, i, j):
    """The flags through the j-th state of the i-th check of
    _swept_states(q), by the un-hoisted reference."""
    real, levi, reached = _swept_states(q)[i]
    t, E, _, _ = reached[j]
    return unhoisted_count(real, levi, DEFAULT_BUDGET, E, t)[0]


def state_sweep(oracle, q):
    """(states, decided, zeros, wrong) of ``oracle``'s _state_count on
    every state E_t of _swept_states(q): decided counts the states it
    counts, zeros those whose count is 0, and wrong lists each count that
    differs from the reference (state_reference) and each state E_{k-1}
    that it leaves undecided (returning a start)."""
    states = decided = zeros = 0
    wrong = []
    for i, (real, levi, reached) in enumerate(_swept_states(q)):
        for j, (t, E, _, _) in enumerate(reached):
            states += 1
            got = oracle._state_count(real, levi, E, t)
            case = (real.family.value, real.partition.literal(), levi.literal(), t)
            if isinstance(got, tuple):
                if t == len(levi.ps) - 1:
                    wrong.append((case, "undecided"))
                continue
            want = state_reference(q, i, j)
            decided += 1
            zeros += want == 0
            if got != want:
                wrong.append((case, got, want))
    return states, decided, zeros, wrong


# Three-level checks at rank 5 whose enumeration reaches states past the
# root that _state_count leaves with a start larger than E itself, which
# no check of _swept_states does: (family, orbit, Levi).
GROWN = (
    (Family.C, "6,2,2", "1,2,2;0"),
    (Family.C, "6,2,1,1", "1,2,2;0"),
    (Family.C, "4,4,2", "1,2,2;0"),
    (Family.B, "5,5,1", "1,2,2;1"),
)


@functools.lru_cache(maxsize=None)
def _start_states(q):
    """_swept_states(q) and the GROWN checks at p = q, with their states."""
    grown = []
    for fam, orbit, levi in GROWN:
        real, levi = realize(P(orbit), fam, q), L(levi, fam)
        grown.append((real, levi, list(_states(real, levi, 2000))))
    return _swept_states(q) + grown


def start_sweep(oracle, q):
    """(starts, grown, flags, wrong) of ``oracle``'s _state_count on every
    state E = E_t of _start_states(q) that it leaves undecided: starts
    counts the starts it hands back, grown those past the root larger than
    E, flags the checks of a counted flag of swept_reference through E
    against its start, and wrong lists each
    start that is not a subspace of the dimension handed back, does not
    contain E + L_{t+1} (L_{t+1} = im e^(s-t-1), s = 2k + [q > 0], from
    reference_forced_subspaces), is not isotropic, or leaves the window W =
    E^perp cap e^{-1}(E); each W that differs from (E + L_{t+1})^perp cap
    e^{-1}(E); and each counted flag through E whose E_{t+1} does not
    contain the start."""
    starts = grown = flags = 0
    wrong = []
    for real, levi, reached in _start_states(q):
        p, e, g, k = q, real.e, real.gram, len(levi.ps)
        forced = reference_forced_subspaces(e, 2 * k + (levi.q > 0), k, p)
        count, _, counted = swept_reference(real.family, real.partition, levi, q, TestHoist.CAP)
        for t, E, _, _ in reached:
            got = oracle._state_count(real, levi, E, t)
            if not isinstance(got, tuple):
                continue
            start, size = got
            starts += 1
            grown += t > 0 and size > len(rref(E, p)[1])
            case = (real.family.value, real.partition.literal(), levi.literal(), t, E.tolist())
            window_rows = E @ g % p, nullspace(E, p) @ e % p  # W = E^perp cap e^{-1}(E)
            W = nullspace(np.vstack(window_rows), p)
            if (len(rref(start, p)[1]) != size or not contains(start, np.vstack([E, forced[t]]), p)
                    or np.any(start @ g % p @ start.T % p) or not contains(W, start, p)):
                wrong.append((case, "start"))
            if _canon(W, p) != _canon(nullspace(np.vstack([forced[t] @ g % p, *window_rows]), p), p):
                wrong.append((case, "window"))
            through = [flag for flag in counted if not t or _canon(flag[t - 1], p) == _canon(E, p)]
            flags += len(through)
            wrong += [(case, "flag") for flag in through if not contains(flag[t], start, p)]
    return starts, grown, flags, wrong


class TestStart:
    # prime: (undecided states, of which past the root with a start larger
    # than E, counted flags through them)
    SWEPT = {3: (161, 6, 3813), 5: (129, 10, 3255)}

    @pytest.mark.parametrize("q", list(SWEPT))
    def test_start_on_every_state(self, q):
        # On every state E = E_t of the sweep and of GROWN that _state_count leaves
        # undecided, the start it hands back, E + e^(s_t - 1)(E^perp), has
        # the dimension it states, contains E + L_{t+1}, is isotropic and
        # lies in the level's window E^perp cap e^{-1}(E), which is (E +
        # L_{t+1})^perp cap e^{-1}(E) with no L rows; and every flag that
        # the un-hoisted reference counts through E contains it.
        *counts, wrong = start_sweep(ff_oracle, q)
        assert wrong == []
        assert tuple(counts) == self.SWEPT[q]

    # Starts from e^(s_t - 2)(E^perp) in place of e^(s_t - 1)(E^perp), at
    # the root and past it: (old, new)
    START_MUTANTS = {
        "root": ("if h >= s - 1]", "if h >= s - 2]"),
        "past the root": ("for _ in range(s - 1):\n            top", "for _ in range(s - 2):\n            top"),
    }

    @pytest.mark.parametrize("mutant", list(START_MUTANTS))
    def test_a_start_one_power_lower_fails(self, monkeypatch, mutant):
        *_, wrong = start_sweep(mutant_oracle(monkeypatch, *self.START_MUTANTS[mutant]), 3)
        assert wrong


def floor_row(p, levi, t):
    """Row t of the floor table: m_a = d - floor(slack_a / 2) for a = 1 ..
    max(p) - 1, the least dim(E_{t+1} cap im e^a) of any counted flag
    (fiber_point_count), with d = dim E_{t+1} = p_1 + ... + p_{t+1} and slack_a =
    dim ker e^a - S_a: dim ker e^a = sum of min(d_j, a) over the parts d_j,
    and S_a the sum of the a largest steps of the chain p_{t+2}, ..., p_k,
    q, p_k, ..., p_{t+2} left below E_{t+1}."""
    d = sum(levi.ps[: t + 1])
    chain = sorted(levi.ps[t + 1 :] * 2 + (levi.q,), reverse=True)
    return [d - (sum(min(x, a) for x in p.parts) - sum(chain[:a])) // 2 for a in range(1, p.parts[0])]


def floor_cut(floor, d):
    """The cut that a row of the floor table gives a flag space of
    dimension d: the largest a whose floor is d, which puts the whole space
    in im e^a (0 for none), or None when some floor exceeds d, so that no
    flag exists."""
    top = max(floor, default=0)
    if top > d:
        return None
    return len(floor) - floor[::-1].index(d) if top == d else 0


def cut_sweep(oracle):
    """(levels, wrong): ``oracle``'s _cut against the floor table's cut on
    every level t < k of every Levi of every B/C/D orbit with N <= 14;
    wrong lists each level where they differ."""
    levels, wrong = 0, []
    for fam in (Family.B, Family.C, Family.D):
        for n in range(2 - fam.size_parity, 15, 2):
            for orbit in enumerate_valid(n, fam):
                for levi in enumerate_levis(n, fam):
                    for t in range(len(levi.ps)):
                        levels += 1
                        want = floor_cut(floor_row(orbit, levi, t), sum(levi.ps[: t + 1]))
                        if oracle._cut(orbit, levi, t) != want:
                            wrong.append((fam, orbit, levi, t))
    return levels, wrong


class TestCut:
    LEVELS = 23238  # (orbit, Levi, level) triples of cut_sweep

    def test_cut_is_the_floor_table_cut(self):
        # The floor m_a = d - floor(slack_a / 2) equals d exactly when 0 <=
        # slack_a <= 1 and exceeds it exactly when slack_a < 0, so the
        # inequality that _cut reads is the floor table's cut, for any d.
        levels, wrong = cut_sweep(ff_oracle)
        assert wrong == []
        assert levels == self.LEVELS

    def test_a_wider_slack_fails(self, monkeypatch):
        # slack_a = 2 leaves a floor d - 1: E_{t+1} need not lie in im e^a.
        _, wrong = cut_sweep(mutant_oracle(monkeypatch, "if kernel - top <= 1:", "if kernel - top <= 2:"))
        assert wrong


class TestLookAhead:
    # prime: windows the enumeration passes to _last_row_batches
    PASSED = {3: 157, 5: 114}

    @pytest.mark.parametrize("q", list(PASSED))
    def test_window_lemma_on_every_state(self, monkeypatch, q):
        # dim W = n - dim(E + L + e(E^perp)), since e^{-1}(E) = (e(E^perp))^perp;
        # dim e(E^perp) = rank e - dim(E cap im e); so dim W <= c - dim E
        # + 2 dim(E cap im e), a bound the floor table's a = 1 column meets
        # or beats.  And every window that the enumeration, with every level
        # before the last filled or enumerated from reference_start
        # (last_level_only), passes to _last_row_batches at level t is W cut
        # to im e^a at the level's cut a, for the one state E whose start
        # it is handed.
        states = compared = 0
        p = q
        batches = ff_oracle._last_row_batches
        last_level_only(monkeypatch)
        for real, levi, reached in _swept_states(q):
            e, g, n = real.e, real.gram, real.dim
            rank_e, c = len(rref(e, p)[1]), len(real.partition.parts)
            dims = list(itertools.accumulate(levi.ps))
            heights = np.array(_heights(real.partition, real.family))
            cut = {}
            for t, E, L, W in reached:
                e_perp = nullspace(E @ g % p, p) @ e.T % p
                d = E.shape[0]
                meet = d + rank_e - len(rref(np.vstack([E, e.T]), p)[1])
                case = (real.partition, levi, t, E)
                assert W.shape[0] == n - len(rref(np.vstack([E, L, e_perp]), p)[1]), case
                assert len(rref(e_perp, p)[1]) == rank_e - meet, case
                assert W.shape[0] <= c - d + 2 * meet, case
                states += 1
                a = _cut(real.partition, levi, t)
                start = reference_start(real, levi, E, t)
                if a is not None and start is not None:
                    W = nullspace(W[:, heights < a].T, p) @ W % p
                    cut.setdefault((t, _canon(start[0], p)), []).append(_canon(W, p))
            if not levi.ps:
                continue
            calls = []

            def spy(E, W, target, *rest):
                calls.append(((dims.index(target), _canon(E, p)), _canon(W, p)))
                return batches(E, W, target, *rest)

            monkeypatch.setattr(ff_oracle, "_last_row_batches", spy)
            fiber_point_count(real, levi, DEFAULT_BUDGET)
            for start, W in calls:
                assert cut.get(start) == [W], (real.partition, levi, start)
            compared += len(calls)
        assert states > 1000
        assert compared == self.PASSED[q]

    # (flags counted, levels with a cut that hold them)
    @pytest.mark.parametrize("q,flags", [(3, (4388, 60)), (5, (3651, 60))])
    def test_counted_flags_lie_in_the_cut_windows(self, q, flags):
        # Every flag that the un-hoisted reference counts (it knows neither
        # the forced subspaces nor the floor table), for every Levi of B
        # N <= 7 and C/D N <= 6 whose reference finishes within TestHoist's
        # cap, has no part above s = 2k + [q > 0], contains the forced
        # subspaces L_i, and each level space E_t
        # meets every floor of row t of the table: dim(E_t cap im e^a) =
        # dim E_t - rank(E_t at heights < a) >= m_a.  So E_t lies in its
        # window cut to im e^a at _cut's a.
        p = q
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
                        got = fiber_point_count(real, levi, 10**6)
                        assert got.count == len(counted), (orbit, levi)
                        if not counted:
                            continue
                        k = len(levi.ps)
                        assert max(orbit.parts) <= 2 * k + (levi.q > 0), (orbit, levi)
                        forced = reference_forced_subspaces(real.e, 2 * k + (levi.q > 0), k, p)
                        dims = list(itertools.accumulate(levi.ps))
                        for t, d in enumerate(dims):
                            floor = floor_row(orbit, levi, t)
                            a = _cut(orbit, levi, t)
                            assert a is not None, (orbit, levi, t)
                            cut += bool(a)
                            for flag in counted:
                                E = flag[t]
                                case = (orbit, levi, t, E)
                                assert len(rref(E, p)[1]) == d, case
                                assert contains(E, forced[t], p), case
                                assert not E[:, heights < a].any(), case
                                for b, m in enumerate(floor, 1):
                                    assert d - len(rref(E[:, heights < b], p)[1]) >= m, case
                        seen += len(counted)
        assert (seen, cut) == flags

    def test_the_cut_holds_every_enumerated_pseudo_polarization_level(self):
        # The enumeration keeps no floor on dim(E_t cap im e) below a cut,
        # because on what the atlas and fiber check it never needs one: for
        # every B/C/D pseudo-polarization at ranks <= 12 that the peel leaves
        # to fiber_point_count, every level t < k - 1 has a cut a >= 1, so its
        # window already lies in im e.  (Level k - 1 is counted on the
        # quotient.)  This reads only partitions and Levis.
        checks = levels = 0
        for fam in (Family.B, Family.C, Family.D):
            for rank_ in range(1, 13):
                for orbit in enumerate_valid(2 * rank_ + (fam is Family.B), fam):
                    for _, levi in pseudo_polarizations(orbit, fam):
                        if _peel(orbit.parts, levi.ps, levi.q) is not None:
                            continue
                        for t in range(len(levi.ps) - 1):
                            a = _cut(orbit, levi, t)
                            assert a is not None and a >= 1, (fam, orbit, levi, t)
                            levels += 1
                        checks += 1
        assert (checks, levels) == (2665, 7097)

    # States E = E_t, t >= 1, of the sweep that the quotient bound rules out.
    @pytest.mark.parametrize("q,drops", [(3, 42), (5, 100)])
    def test_quotient_bound_on_every_state(self, q, drops):
        # On E^perp/E, rank e'^a = rank(E + e^a(E^perp)) - dim E exactly, and
        # the bound's side rank e^a - 2 dim(E cap im e^a) may not exceed it.
        # The flags below E lower the chain of steps p_{t+1}, .., q, .., p_{t+1}
        # of E^perp/E, so none exist when that side exceeds N' - (the a
        # largest steps): the un-hoisted reference must count no flag below
        # such an E.  The floor table rests on this bound: E fails it exactly
        # when dim(E cap im e^a) falls below a floor of its row (floor_row).
        p = q
        dropped = 0
        for real, levi, reached in _swept_states(q):
            e, g, n = real.e, real.gram, real.dim
            powers = [_pow(e, a, p) for a in range(1, max(real.partition.parts))]
            for t, E, _, _ in reached:
                if t == 0:
                    continue
                d = len(rref(E, p)[1])
                steps = sorted(levi.ps[t:] * 2 + (levi.q,), reverse=True)
                perp = nullspace(E @ g % p, p)
                dead = below_floor = False
                for (a, power), floor in zip(enumerate(powers, 1), floor_row(real.partition, levi, t - 1), strict=True):
                    rank_a = len(rref(power, p)[1])
                    meet = d + rank_a - len(rref(np.vstack([E, power.T]), p)[1])
                    exact = len(rref(np.vstack([E, perp @ power.T % p]), p)[1]) - d
                    assert rank_a - 2 * meet <= exact, (real.partition, levi, E, a)
                    dead |= rank_a - 2 * meet > n - 2 * d - sum(steps[:a])
                    below_floor |= meet < floor
                assert below_floor == dead, (real.partition, levi, E)
                if dead:
                    below, _ = unhoisted_count(real, levi, DEFAULT_BUDGET, E, t)
                    assert below == 0, (real.partition, levi, E)
                    dropped += 1
        assert dropped == drops


def reference_root_window(real, a):
    """The window of level 1 below the root E = 0, cut to im e^a, by the
    elimination route of every later level: ker e as the nullspace of
    [E g; ann(E) e], then one nullspace of its columns at heights < a."""
    p, e, g = real.modulus, real.e, real.gram
    E = np.zeros((0, real.dim), dtype=np.int64)
    window = nullspace(np.vstack([E @ g % p, nullspace(E, p) @ e % p]), p)
    heights = np.array(_heights(real.partition, real.family))
    if a:
        window = nullspace(window[:, heights < a].T, p) @ window % p
    return window


def root_window_sweep(oracle, q):
    """(compared, wrong): ``oracle``'s _root_window against
    reference_root_window on every B/C/D orbit with N <= 13, at every cut
    a < max part, at p = q; wrong lists each window whose shape, dtype or
    bytes differ."""
    compared, wrong = 0, []
    for fam in (Family.B, Family.C, Family.D):
        for n in range(2 - fam.size_parity, 14, 2):
            for orbit in enumerate_valid(n, fam):
                real = realize(orbit, fam, q)
                for a in range(orbit.parts[0]):
                    got, want = oracle._root_window(orbit, fam, a), reference_root_window(real, a)
                    compared += 1
                    if (got.shape, got.dtype, got.tobytes()) != (want.shape, want.dtype, want.tobytes()):
                        wrong.append((fam.value, orbit.literal(), a))
    return compared, wrong


class TestRootWindow:
    # windows compared at each prime
    COMPARED = 1009

    @pytest.mark.parametrize("q", [3, 7])
    def test_root_window_is_the_eliminated_one(self, q):
        # Below a modelled root, fiber_point_count reads the first level's window
        # ker e cap im e^a from the Jordan chains (_root_window): the
        # identity rows at x(1,j) for the chains with d_j > a.  Byte for
        # byte, that is the window that three nullspaces build for every
        # other state.
        compared, wrong = root_window_sweep(ff_oracle, q)
        assert wrong == []
        assert compared == self.COMPARED

    def test_a_window_with_the_chains_of_length_a_fails(self, monkeypatch):
        # x(1,j) lies in im e^a exactly when d_j > a: 240 of the windows
        # at p = 3 have a chain of length a.
        mutant = mutant_oracle(monkeypatch, "if d > a]", "if d >= a]")
        compared, wrong = root_window_sweep(mutant, 3)
        assert (compared, len(wrong)) == (self.COMPARED, 240)


# --- the peel and its closed form against the enumeration ---------------------


PEEL_CAP = 100_000
# Checks whose reference needs more: the flag-by-flag enumeration tests
# 2,624,816 rows for B 3,1^6 via (2;5) and 102,941 for D 3,1^5 via (2;4).
PEEL_CAPS = {("B", "3,1,1,1,1,1,1", "2;5", 5): 3_000_000, ("D", "3,1,1,1,1,1", "2;4", 5): 200_000}


@functools.lru_cache(maxsize=None)
def enumerated_reference(fam, orbit, levi, q):
    """(count, nodes) of the flag-by-flag reference (unhoisted_count) under
    PEEL_CAP, or under the cap PEEL_CAPS gives the check; count None past
    it.  A counted flag is a tested row, so the nodes are at least the
    count."""
    cap = PEEL_CAPS.get((fam.value, orbit.literal(), levi.literal(), q), PEEL_CAP)
    count, nodes = unhoisted_count(realize(orbit, fam, q), levi, cap)
    assert count is None or nodes >= count, (orbit, levi, q)
    return count, nodes


def peel_sweep(oracle, q, tops):
    """Run ``oracle``'s fiber_point_count on every check that its _peel
    decides, over every Levi (enumerate_levis) of B, C and D up to the
    sizes ``tops`` at p = q.  Returns (decided, compared, wrong): compared
    counts the checks whose count equals the enumeration's, where that
    finishes under PEEL_CAP (it cannot where the count exceeds the cap);
    with no general-linear block the one flag is E = 0, counted iff e = 0.
    wrong lists every other count, every decided check that costs more
    than one node, and every shape (m_1, steps, m_2) left to the closed
    form where the peel should have gone on: the parts 2 and 1 left span
    2 m_2 + m_1 = 2 r + q' dimensions, r = sum(steps), and parts 2 are
    taken off while they equal s' = 2 len(steps) + [q' > 0]."""
    decided = compared = 0
    wrong = []
    for fam, top in zip((Family.B, Family.C, Family.D), tops):
        for n in range(2 - fam.size_parity, top + 1, 2):
            for orbit in enumerate_valid(n, fam):
                real = realize(orbit, fam, q)
                for levi in enumerate_levis(n, fam):
                    shape = oracle._peel(orbit.parts, levi.ps, levi.q)
                    if shape is None:
                        continue
                    decided += 1
                    case = (fam.value, orbit.literal(), levi.literal(), q)
                    if shape:
                        ones, steps, twos = shape
                        left = 2 * twos + ones - 2 * sum(steps)
                        if left < 0 or twos and 2 * len(steps) + (left > 0) == 2:
                            wrong.append((case, shape))
                    got = oracle.fiber_point_count(real, levi, budget=PEEL_CAP)
                    if got.nodes > 1 or got.count is None:
                        wrong.append((case, got))
                        continue
                    if not levi.ps:
                        want = int(not real.e.any())
                    elif got.count > PEEL_CAP:
                        continue
                    else:
                        want, _ = enumerated_reference(fam, orbit, levi, q)
                        if want is None:
                            continue
                    if got.count == want:
                        compared += 1
                    else:
                        wrong.append((case, got.count, want))
    return decided, compared, wrong


def mutant_oracle(monkeypatch, old, new):
    """A copy of ff_oracle with the one occurrence of ``old`` in its source
    replaced by ``new``."""
    source = inspect.getsource(ff_oracle)
    assert source.count(old) == 1, old
    name = "nilorbit._ff_oracle_mutant"
    module = types.ModuleType(name)
    module.__package__ = "nilorbit"
    monkeypatch.setitem(sys.modules, name, module)  # dataclasses look it up
    exec(compile(source.replace(old, new), ff_oracle.__file__, "exec"), module.__dict__)
    return module


class TestPeel:
    # (prime, top N for B/C/D, checks the peel decides, of which equal to
    # the flag-by-flag reference or, with no general-linear block, to
    # [e = 0]).  At p = 3 and 5, 30 and 49 decided checks are not compared:
    # the reference does not finish under the cap.
    SWEEPS = [(3, (9, 8, 8), (391, 361)), (5, (9, 8, 8), (391, 342)), (7, (7, 6, 6), (139, 124))]

    @pytest.mark.parametrize("q,tops,coverage", SWEEPS)
    def test_closed_form_matches_enumeration(self, q, tops, coverage):
        decided, compared, wrong = peel_sweep(ff_oracle, q, tops)
        assert wrong == []
        assert (decided, compared) == coverage

    # (prime, top N for B/C/D, one-level checks left with parts 2, of which
    # the flag-by-flag reference finishes under ONE_LEVEL_CAP).  The four
    # it does not finish, all at p = 5, count more than 3,900 flags, among
    # them C 2,1^6 via (3;2) with 101,556.
    ONE_LEVEL_CAP = 10**6
    ONE_LEVEL = [(3, (9, 8, 8), (43, 43)), (5, (9, 8, 8), (43, 39)), (7, (7, 6, 6), (15, 15))]

    @pytest.mark.parametrize("q,tops,coverage", ONE_LEVEL)
    def test_one_level_closed_form_matches_enumeration(self, q, tops, coverage):
        # Every Levi whose peel leaves one level over chains of lengths 2
        # and 1, where the sum over f = dim(E cap e(V_2)) counts the flags,
        # against the enumeration at a larger cap than peel_sweep's.
        decided = compared = 0
        for fam, top in zip((Family.B, Family.C, Family.D), tops):
            for n in range(2 - fam.size_parity, top + 1, 2):
                for orbit in enumerate_valid(n, fam):
                    real = realize(orbit, fam, q)
                    for levi in enumerate_levis(n, fam):
                        shape = ff_oracle._peel(orbit.parts, levi.ps, levi.q)
                        if not isinstance(shape, tuple) or not shape[2]:
                            continue
                        decided += 1
                        got = fiber_point_count(real, levi)
                        assert (got.nodes, got.skipped) == (1, None), (orbit, levi)
                        want, _ = unhoisted_count(real, levi, self.ONE_LEVEL_CAP)
                        if want is not None:
                            assert got.count == want, (fam, orbit, levi, q)
                            compared += 1
        assert (decided, compared) == coverage

    # Each mutant changes a count, makes the peel decide fewer checks or
    # hands the closed form a shape the peel should have gone on from: a
    # zero step kept as a level, or q left unlowered, raises s, so the
    # peel stops early, and the enumeration costs more than the one node
    # of a peeled check or a part 2 is left equal to s' (peel_sweep's
    # shape test; the sum over f itself reads no q).  The last three break
    # the sum over f: its coisotropic range, its p^((r - f)(m_2 - f))
    # maps and b's kind (alternating for B and D, symmetric for C).
    # realize's forms are split, so the mutants of the split reading run
    # on TestDiscriminants' non-split sweep instead.
    MUTANTS = {
        "split swapped": ("sign = 1 if split else -1", "sign = -1 if split else 1"),
        "zero step kept": ("steps = tuple(x for x in steps if x)", "steps = tuple(steps)"),
        "q not lowered": ("q - m if q else 0", "q"),
        "multinomial dropped": (
            "return total * (_gl_factorial(r, p) // math.prod(_gl_factorial(x, p) for x in steps))",
            "return total",
        ),
        "coisotropic flipped": (
            "range((twos + 1) // 2, min(twos, r) + 1)",
            "range(0, min(twos // 2, r) + 1)",
        ),
        "maps dropped": ("* p ** ((r - f) * (twos - f))", ""),
        "b's kind swapped": ("p, not symplectic, split)", "p, symplectic, split)"),
    }

    @pytest.mark.parametrize("mutant", list(MUTANTS))
    def test_mutants_fail(self, monkeypatch, mutant):
        q, tops, coverage = 3, (7, 6, 6), (139, 137)
        assert peel_sweep(ff_oracle, q, tops) == coverage + ([],)
        oracle = mutant_oracle(monkeypatch, *self.MUTANTS[mutant])
        # A fresh module: its closed forms are cached apart from ff_oracle's.
        assert oracle._peel.cache_info().currsize == oracle._flag_sum.cache_info().currsize == 0
        assert peel_sweep(oracle, q, tops) != coverage + ([],)

    # The brute force over F_5^6 takes 40 s for D, so n = 6 runs at p = 3.
    ZERO_ORBITS = [
        (fam, n, p)
        for fam, sizes in ((Family.B, (3, 5)), (Family.C, (2, 4, 6)), (Family.D, (4, 6)))
        for n in sizes
        for p in (3, 5)
        if n < 6 or p == 3
    ]

    @pytest.mark.parametrize("fam,n,p", ZERO_ORBITS)
    def test_zero_orbit_matches_brute_force(self, fam, n, p):
        # e = 0: the isotropic r-subspaces of the whole space, by the
        # test's own enumerator, for every Levi with one block.
        real = realize(P(",".join(["1"] * n)), fam, p)
        for r in range(1, n // 2 + 1):
            if fam is not Family.C and n - 2 * r == 2:
                continue  # no such Levi; TestDiscriminants counts lines of a non-split 4-space
            res = fiber_point_count(real, LeviType((r,), n - 2 * r, fam))
            assert (res.count, res.nodes) == (brute_isotropic_count(real.gram, r, p), 1), (fam, n, r)

    @pytest.mark.parametrize("p", [3, 5])
    def test_closed_form_of_each_form_matches_brute_force(self, p):
        # fiber_point_count on e = 0 over V_1 = F_p^m, for split and
        # non-split symmetric forms and symplectic ones, at every Levi with
        # a general-linear block: the isotropic r-subspaces, r = sum(ps),
        # by the brute force, times the flags of F_p^r with those steps.
        # realize's Gram on 1^m is diagonal for B and D, and 2, a
        # non-square mod 3 and 5, times one unit makes the even form
        # non-split.
        def factorial(t):  # [t]_p! up to (p - 1)^t
            return math.prod(p**j - 1 for j in range(1, t + 1))

        for fam, m in [(Family.D, 2), (Family.D, 4), (Family.B, 3), (Family.C, 4)]:
            real = realize(P(",".join(["1"] * m)), fam, p)
            forms = [real.gram]
            if fam is Family.D:
                assert np.count_nonzero(real.gram) == m == np.count_nonzero(np.diag(real.gram))
                other = real.gram.copy()
                other[0, 0] = other[0, 0] * 2 % p
                forms.append(other)
            for gram in forms:
                for levi in enumerate_levis(m, fam):
                    if levi.ps:
                        got = fiber_point_count(replace(real, form=gram), levi)
                        r = sum(levi.ps)
                        flags = factorial(r) // math.prod(factorial(x) for x in levi.ps)
                        want = brute_isotropic_count(gram, r, p) * flags
                        assert (got.count, got.nodes) == (want, 1), (fam, m, levi, gram)

    @pytest.mark.parametrize("p", [3, 5])
    def test_non_split_branch(self, p):
        # realize's V_1 is always split.  In B 3,1,1, V_1 is spanned by
        # x(1,1) and x(1,2) (indices 3 and 4); a non-square unit on x(1,2)
        # keeps the form valid and e-invariant and makes V_1 non-split.
        # The peel takes off the part 3, then counts isotropic lines of V_1
        # for (2;1): none; (1;3) merges its one level away.
        real = realize(P("3,1,1"), Family.B, p)
        real = with_gram(real, {(4, 4): real.gram[4, 4] * 2 % p})
        _validate(real)
        for levi, want in (("2;1", 0), ("1;3", 1)):
            got = fiber_point_count(real, L(levi))
            assert (got.count, got.nodes) == (want, 1)

    @pytest.mark.parametrize("p", [3, 5])
    def test_non_split_b(self, p):
        # In C 2,2,1,1 (x(1,j), x(2,j) at 2j and 2j + 1 for the parts 2) b
        # is diag(-u_0, -u_1) on e(V_2) = <x(1,0), x(1,1)>, split as
        # realize builds it.  A non-square unit on the first chain keeps
        # the form e-invariant and makes b non-split: (1;4) then has no
        # flag, and (2;2) only E = e(V_2).  Both counts agree with the
        # test's own enumeration, for either b.
        real = realize(P("2,2,1,1"), Family.C, p)
        other = with_gram(real, {(i, j): real.gram[i, j] * 2 % p for i, j in ((0, 1), (1, 0))})
        _validate(other)
        for form, wants in ((real, (2, 2 * p * (p + 1) + 1)), (other, (0, 1))):
            for r, want in zip((1, 2), wants):
                levi = LeviType((r,), 6 - 2 * r, Family.C)
                got = fiber_point_count(form, levi)
                assert (got.count, got.nodes) == (want, 1), (r, form.gram)
                assert brute_one_level_count(form, r) == want

    def test_peeled_checks_cost_at_most_one_node(self, monkeypatch):
        # Every pseudo-polarization at B N <= 7 and C/D N <= 6: a check the
        # peel decides costs one node, or none with no general-linear block
        # (the zero orbit's); at budget b it skips with b + 1 nodes exactly
        # when that exceeds b.  At budget 0 the peel is never consulted for
        # a Levi with a general-linear block.
        peeled = 0
        for fam, top in ((Family.B, 7), (Family.C, 6), (Family.D, 6)):
            for n in range(2 - fam.size_parity, top + 1, 2):
                for orbit in enumerate_valid(n, fam):
                    for _, levi in pseudo_polarizations(orbit, fam):
                        if ff_oracle._peel(orbit.parts, levi.ps, levi.q) is None:
                            continue
                        for q in (3, 5):
                            real = realize(orbit, fam, q)
                            cost = 1 if levi.ps else 0
                            for b in (0, 1, DEFAULT_BUDGET):
                                res = fiber_point_count(real, levi, budget=b)
                                if cost > b:
                                    assert res == FlagCount(None, q, levi, b + 1, "budget")
                                else:
                                    assert (res.nodes, res.skipped) == (cost, None)
                            peeled += 1
        assert peeled == 78

        def refuse(*args):
            raise AssertionError("the peel was consulted at budget 0")

        monkeypatch.setattr(ff_oracle, "_peel", refuse)
        real = realize(P("3,1,1"), Family.B, 3)
        for levi in (L("2;1"), L("1;3")):
            assert fiber_point_count(real, levi, budget=0) == FlagCount(None, 3, levi, 1, "budget")

    # The closed forms read the split types from the discriminants of the
    # forms <x, e^a y>, which need no basis in which the Jordan chains are
    # orthogonal, only a nondegenerate e-invariant form and an e of the
    # realization's Jordan type.  realize's integer model passes
    # _check_model, and each realization _validate; the one that guards
    # each property rejects each corruption below.
    COUPLED = (
        "from dataclasses import replace\n"
        "from nilorbit import Family, InvariantError, parse_partition\n"
        "from nilorbit.ff_oracle import _check_model, _model\n"
        "model = _model(parse_partition('3,1,1'), Family.B)\n"
        "try:\n"
        "    _check_model(replace(model, gram={**model.gram, (0, 3): 1, (3, 0): 1}))\n"
        "except InvariantError as exc:\n"
        "    print(str(exc).split(' (')[0])\n"
    )

    def test_coupled_gram_raises(self):
        # gram[0, 3] pairs x(1,0), on the chain of length 3 that the peel
        # takes off, with x(1,1), on a chain of length 1.  e-invariance is
        # an identity over Z, so the model's check raises.
        model = _model(P("3,1,1"), Family.B)
        with pytest.raises(InvariantError, match="form is not e-invariant"):
            _check_model(replace(model, gram={**model.gram, (0, 3): 1, (3, 0): 1}))

    def test_coupled_gram_raises_under_optimize(self, run_optimized):
        assert run_optimized(self.COUPLED) == "form is not e-invariant"

    # B 2,2,1: x(1,j), x(2,j) at 2j and 2j + 1 for the parts 2, which
    # realize pairs with each other, so b = <x(2,i), e x(2,j)> is
    # alternating on e(V_2) = <x(1,0), x(1,1)>.  With the pairing of x(2,i)
    # and x(1,j) taken out of g, b is 0 and g degenerate; with x(2,0) sent
    # to x(1,1) by e, b has a nonzero diagonal entry and e two 1s in row 2.
    # Degeneracy depends on the prime, so a realization's check raises;
    # the shape of e does not, so the model's check raises.
    BROKEN_B = (
        "from dataclasses import replace\n"
        "from nilorbit import Family, InvariantError, parse_partition, realize\n"
        "from nilorbit.ff_oracle import _check_model, _model, _validate\n"
        "def broken(kind):\n"
        "    orbit = parse_partition('2,2,1')\n"
        "    try:\n"
        "        if kind == 'degenerate b':\n"
        "            real = realize(orbit, Family.B, 3)\n"
        "            gram = real.gram.copy()\n"
        "            gram[[1, 2, 3, 0], [2, 1, 0, 3]] = 0\n"
        "            _validate(replace(real, form=gram))\n"
        "        else:\n"
        "            model = _model(orbit, Family.B)\n"
        "            _check_model(replace(model, e={**model.e, (0, 1): 0, (2, 1): 1}))\n"
        "    except InvariantError as exc:\n"
        "        return str(exc).split(' (')[0]\n"
    )
    BROKEN_B_RAISED = {
        "degenerate b": "form is degenerate",
        "corrupted e": "e is not a 0/1 partial permutation",
    }

    @pytest.mark.parametrize("kind", list(BROKEN_B_RAISED))
    def test_broken_b_raises(self, kind):
        scope = {}
        exec(self.BROKEN_B, scope)
        assert scope["broken"](kind) == self.BROKEN_B_RAISED[kind]

    def test_broken_b_raises_under_optimize(self, run_optimized):
        script = self.BROKEN_B + "".join(f"print(broken({kind!r}))\n" for kind in self.BROKEN_B_RAISED)
        assert run_optimized(script).splitlines() == list(self.BROKEN_B_RAISED.values())


def non_split(real):
    """``real`` with the Gram block of its last self-paired Jordan chain
    multiplied by the least non-square c mod p, or None when it has no
    such chain.  Scaling a chain that pairs with itself alone keeps the
    form e-invariant and multiplies its unit by c: for a chain of length 1
    (B, D) or 2 (C), that makes V_1 or b non-split when it was split.  For
    D, whose form must stay split, the first self-paired chain is scaled
    too: they have odd lengths j, so det g changes by c^j per chain, and
    D has an even number of them."""
    p, fam = real.modulus, real.family
    c = next(x for x in range(2, p) if pow(x, (p - 1) // 2, p) == p - 1)
    chains = [(s, d) for j, (s, d, b, _) in enumerate(_chains(real.partition, fam)) if b == j]
    if not chains:
        return None
    chains = [chains[0], chains[-1]] if fam is Family.D else chains[-1:]
    gram = real.gram.copy()
    for s, d in chains:
        block = np.ix_(range(s, s + d), range(s, s + d))
        gram[block] = gram[block] * c % p
    scaled = replace(real, form=gram)
    _validate(scaled)
    return scaled


def non_split_sweep(oracle, q, tops):
    """Run ``oracle``'s fiber_point_count on non_split(realize(...)) at
    every Levi with a general-linear block that _peel decides, over B, C
    and D up to the sizes ``tops`` at p = q, against the flag-by-flag
    reference (unhoisted_count) where it finishes under NON_SPLIT_CAP.
    Returns (compared, wrong), wrong listing every count that differs."""
    compared, wrong = 0, []
    for fam, top in zip((Family.B, Family.C, Family.D), tops):
        for n in range(2 - fam.size_parity, top + 1, 2):
            for orbit in enumerate_valid(n, fam):
                real = non_split(realize(orbit, fam, q))
                if real is None:
                    continue
                for levi in enumerate_levis(n, fam):
                    if not levi.ps or oracle._peel(orbit.parts, levi.ps, levi.q) is None:
                        continue
                    want, _ = unhoisted_count(real, levi, NON_SPLIT_CAP)
                    if want is None:
                        continue
                    got = oracle.fiber_point_count(real, levi).count
                    compared += 1
                    if got != want:
                        wrong.append((fam.value, orbit.literal(), levi.literal(), q, got, want))
    return compared, wrong


NON_SPLIT_CAP = 2000


def chain_rule_sweep(oracle, p):
    """(cases, wrong) over every orbit with N <= 13 (B) or 12 (C, D) and
    every a below its largest part: wrong lists each case where ``oracle``'s
    _root_disc and the det of the nondegenerate part of realize's g e^a
    differ modulo squares mod p.  That det is taken by elimination, of the
    principal block of g e^a on the pivot columns of its rref, which is
    nonsingular."""
    cases, wrong = 0, []
    for fam, top in ((Family.B, 13), (Family.C, 12), (Family.D, 12)):
        for n in range(2 - fam.size_parity, top + 1, 2):
            for orbit in enumerate_valid(n, fam):
                real = realize(orbit, fam, p)
                power = np.eye(n, dtype=np.int64)
                for a in range(orbit.parts[0]):
                    G = real.gram @ power % p
                    pivots = rref(G, p)[1]
                    got = det(G[np.ix_(pivots, pivots)], p)
                    want = oracle._root_disc(orbit, fam, a)
                    if not got or pow(got * want % p, (p - 1) // 2, p) != 1:
                        wrong.append((fam.value, orbit.literal(), a))
                    power = power @ real.e
                    cases += 1
    return cases, wrong


class TestDiscriminants:
    @pytest.mark.parametrize("p", [3, 7])
    def test_chain_rule(self, p):
        # The lemma behind _shape_count, as the root reads it for realize's
        # forms (_root_disc), on every orbit with N <= 13 and every a below
        # the largest part: the det of the nondegenerate part of <x, e^a y>
        # is, modulo squares, the product over the self-paired chains of
        # length j > a, with unit u, of (-1)^(a(j-a)) u^(j-a), and over the
        # pairs of chains of length j > a of eps^(j-a) (-1)^((j-a)(a+1)).
        # Here it is compared with that det taken from the matrix g e^a by
        # elimination.  At p = 3 and 7, -1 is not a square, so a wrong
        # sign, or a wrong power of a unit -1, for any chain length fails.
        assert chain_rule_sweep(ff_oracle, p) == (1009, [])

    # Each mutant of _root_disc drops one factor of the rule: the sign of
    # a self-paired chain, the power of its unit, or the sign of a pair.
    # (old, new, mismatches at p = 3 of the 1,009 cases)
    CHAIN_MUTANTS = {
        "a chain's sign dropped": (
            "disc *= (-1) ** (a * (d - a)) * u ** (d - a)", "disc *= u ** (d - a)", 127
        ),
        "a unit's power dropped": (
            "disc *= (-1) ** (a * (d - a)) * u ** (d - a)", "disc *= (-1) ** (a * (d - a)) * u", 79
        ),
        "a pair's sign dropped": (
            "(family.epsilon * (-1) ** (a + 1)) **", "family.epsilon **", 59
        ),
    }

    @pytest.mark.parametrize("mutant", list(CHAIN_MUTANTS))
    def test_chain_rule_mutants_fail(self, monkeypatch, mutant):
        old, new, mismatches = self.CHAIN_MUTANTS[mutant]
        cases, wrong = chain_rule_sweep(mutant_oracle(monkeypatch, old, new), 3)
        assert (cases, len(wrong)) == (1009, mismatches)

    # (prime, top N for B/C/D, checks compared).  D runs to N = 10 at
    # p = 3 for D 3,3,1^4 via (3;4), the lines of a non-split V_1 of
    # dimension 4, which no Levi of D 1^4 counts.
    SWEEPS = [(3, (9, 8, 10), 328), (5, (9, 8, 8), 214), (7, (7, 6, 6), 68)]

    @pytest.mark.parametrize("q,tops,compared", SWEEPS)
    def test_non_split_units_match_enumeration(self, q, tops, compared):
        assert non_split_sweep(ff_oracle, q, tops) == (compared, [])

    # Each mutant misreads a split type that realize's forms never show:
    # b's det (C) read as V_1's, disc(0) disc(2), and the root's disc(0)
    # dropped (det g, at E_0 = 0 of a form given to the realization), which
    # leaves the units of the chains of length 1 out of V_1's det (B, D).
    # (old, new, mismatches at p = 3, N <= 9/8/8)
    MUTANTS = {
        "b's split from V_1": (
            "d = disc(1) if symplectic else disc(0) * disc(2)", "d = disc(0) * disc(2)", 2
        ),
        "root's disc(0) dropped": (
            "return (-1) ** d * real.det_g", "return (-1) ** d * (real.det_g if d else 1)", 9
        ),
    }

    @pytest.mark.parametrize("mutant", list(MUTANTS))
    def test_mutants_fail(self, monkeypatch, mutant):
        old, new, mismatches = self.MUTANTS[mutant]
        compared, wrong = non_split_sweep(mutant_oracle(monkeypatch, old, new), 3, (9, 8, 8))
        assert (compared, len(wrong)) == (243, mismatches)


@functools.lru_cache(maxsize=None)
def pseudo_polarization_checks(top_rank):
    """(family, orbit, Levi, p, expected count) for every pseudo-polarization
    of B, C and D at ranks <= top_rank and p = 3, 5, the expected count
    read from the descriptor's E-polynomial."""
    checks = []
    for fam in (Family.B, Family.C, Family.D):
        for rank_ in range(1, top_rank + 1):
            n = 2 * rank_ + fam.size_parity
            for orbit in enumerate_valid(n, fam):
                for r, levi in pseudo_polarizations(orbit, fam):
                    poly = e_polynomial(descriptor(orbit, fam, r, levi))
                    checks += [(fam, orbit, levi, q, poly(q)) for q in (3, 5)]
    return checks


def pseudo_polarization_sweep(oracle, top_rank=6):
    """The checks of pseudo_polarization_checks(top_rank) whose count by
    ``oracle`` at the 5,000-node budget differs from the descriptor's, with
    the number of checks."""
    wrong, realizations = [], {}
    checks = pseudo_polarization_checks(top_rank)
    for fam, orbit, levi, q, want in checks:
        key = (fam, orbit, q)
        if key not in realizations:
            realizations[key] = oracle.realize(orbit, fam, q)
        got = oracle.fiber_point_count(realizations[key], levi, budget=5000)
        if got.count != want:
            wrong.append((fam.value, orbit.literal(), levi.literal(), q, got.count, want))
    return len(checks), wrong


def g0_reference(real, levi, E):
    """The rank test that _state_count's check replaces: E^perp/E
    carries a nondegenerate form iff rank G_0 = 2 p_k + q, for G_0 = Q g Q^T
    on a basis Q of E^perp."""
    p, g = real.modulus, real.gram
    Q = nullspace(E @ g % p, p)
    return len(rref(Q @ g % p @ Q.T % p, p)[1]) == 2 * levi.ps[-1] + levi.q


def quotient_check(real, levi, E):
    """Whether _state_count passes the state E = E_{k-1}, rather than
    raising."""
    try:
        ff_oracle._state_count(real, levi, E, len(levi.ps) - 1)
    except InvariantError:
        return False
    return True


def anisotropic_row(real):
    """A row x with <x, x> != 0, a Jordan basis vector or the sum of two;
    None for an alternating form."""
    eye = np.eye(real.dim, dtype=np.int64)
    pairs = itertools.combinations(eye, 2)
    for x in itertools.chain(eye, (a + b for a, b in pairs)):
        if x @ real.gram @ x % real.modulus:
            return x
    return None


class TestQuotient:
    # (prime, top N for B/C/D): 513 one-level Levis in all.
    ONE_LEVEL = [(3, (9, 8, 8)), (5, (9, 8, 8)), (7, (7, 6, 6))]

    def test_one_level_enumeration_is_the_closed_form(self):
        # At k = 1 the root is the only state, and the peel always decides
        # it: fiber_point_count counts every one-level check at its root,
        # at one node, so it finishes at a budget of 1.  The Jordan type read from the ranks of the G_a is
        # checked against the flags themselves at every state E != 0
        # (test_quotient_count_on_every_state).
        checks = 0
        for q, tops in self.ONE_LEVEL:
            for fam, top in zip((Family.B, Family.C, Family.D), tops):
                for n in range(2 - fam.size_parity, top + 1, 2):
                    for orbit in enumerate_valid(n, fam):
                        real = realize(orbit, fam, q)
                        for levi in enumerate_levis(n, fam):
                            if len(levi.ps) != 1:
                                continue
                            want = fiber_point_count(real, levi)
                            got = fiber_point_count(real, levi, 1)
                            assert got == replace(want, nodes=1), (fam, orbit, levi, q)
                            checks += 1
        assert checks == 513

    def test_pseudo_polarizations_match_descriptors(self):
        checks, wrong = pseudo_polarization_sweep(ff_oracle)
        assert (checks, wrong) == (626, [])

    # Each mutant breaks one invariant of the discriminant rule or of the
    # quotient count and changes counts of the pseudo-polarization sweep
    # at ranks <= 6: the batch reading's disc(0) without (-1)^d, the
    # hyperbolic planes of E + E* (the elimination reading's is
    # STATE_MUTANTS'); V_1's det without disc(2), the units of the chains
    # of length 3 (and 5, at the root); C's split of b without
    # (-1)^(m_2/2); and a part above s' let through, which the ranks of G_1
    # and G_2 then misread as parts 3, 2 and 1.  The second and third
    # reach the root's closed forms too.  (old, new, mismatches)
    QUOTIENT_MUTANTS = {
        "(-1)^d dropped": ("[(-1) ** d * real.det_g]", "[real.det_g]", 13),
        "disc(b_3) dropped": ("disc(0) * disc(2)", "disc(0)", 7),
        "C's (-1)^(m_2/2) dropped": (
            "d = disc(1) if symplectic", "d = (-1) ** (m // 2) * disc(1) if symplectic", 19
        ),
        "G_s' test skipped": ("if rank(s):", "if False:", 52),
    }

    @pytest.mark.parametrize("mutant", list(QUOTIENT_MUTANTS))
    def test_mutants_fail(self, monkeypatch, mutant):
        old, new, mismatches = self.QUOTIENT_MUTANTS[mutant]
        checks, wrong = pseudo_polarization_sweep(mutant_oracle(monkeypatch, old, new))
        assert (checks, len(wrong)) == (626, mismatches)

    # B 3,3,1 via (1,2;1), with the row and column of x(1,2), the chain of
    # length 1, taken out of g: no state's quotient carries a
    # nondegenerate form.
    DEGENERATE = (
        "from dataclasses import replace\n"
        "from nilorbit import Family, InvariantError, LeviType, parse_partition, realize\n"
        "from nilorbit import fiber_point_count\n"
        "real = realize(parse_partition('3,3,1'), Family.B, 3)\n"
        "gram = real.gram.copy()\n"
        "gram[6] = gram[:, 6] = 0\n"
        "real = replace(real, form=gram)\n"
        "try:\n"
        "    fiber_point_count(real, LeviType.from_text('1,2;1', Family.B))\n"
        "except InvariantError as exc:\n"
        "    print(str(exc).split(' (')[0])\n"
    )

    def test_degenerate_quotient_raises(self):
        real = realize(P("3,3,1"), Family.B, 3)
        gram = real.gram.copy()
        gram[6] = gram[:, 6] = 0
        real = replace(real, form=gram)
        with pytest.raises(InvariantError, match="the form is degenerate on E\\^perp/E"):
            fiber_point_count(real, L("1,2;1"))
        # The same clause at a state with two levels below it: (1,1,1;1)
        # is not decided at the root, so its first state E_1 is checked.
        with pytest.raises(InvariantError, match="the form is degenerate on E\\^perp/E.*: det g = 0 mod 3"):
            fiber_point_count(real, L("1,1,1;1"))
        # A state that is not isotropic: E^perp/E is then no quotient.
        real = realize(P("3,3,1"), Family.B, 3)
        E = np.eye(7, dtype=np.int64)[[6]]  # x(1,2), with <x, x> != 0
        with pytest.raises(InvariantError, match="the form is degenerate on E\\^perp/E"):
            ff_oracle._state_count(real, L("1,2;1"), E, 1)

    def test_degenerate_quotient_raises_under_optimize(self, run_optimized):
        assert run_optimized(self.DEGENERATE) == "the form is degenerate on E^perp/E"

    # (prime, states E = E_{k-1}, and per corner case built from a state
    # E_{k-1} != 0, which has a quotient to check: how many it makes, how
    # many the rank of G_0 finds degenerate, and how many the package's
    # check does).  The rank of G_0 lets through an appended
    # x that pairs with E, as E + <x> then has rank d + 1 and a radical of
    # dimension d - 1, and some states on the degenerate g; det g and
    # rank E stop both.
    NONDEGENERACY = [
        (3, 1343, {
            "dependent row": (1289, 0, 0),
            "anisotropic row": (575, 326, 575),
            "anisotropic last row": (575, 575, 575),
            "degenerate g": (1289, 769, 1289),
        }),
        (5, 1300, {
            "dependent row": (1254, 0, 0),
            "anisotropic row": (311, 216, 311),
            "anisotropic last row": (311, 311, 311),
            "degenerate g": (1254, 866, 1254),
        }),
    ]

    @pytest.mark.parametrize("q,states,corners", NONDEGENERACY)
    def test_nondegeneracy_check_matches_rank_of_g0(self, q, states, corners):
        # _state_count reads that E^perp/E carries a nondegenerate form
        # from det g, rank E and E g E^T.  On every state E = E_{k-1} of
        # the sweep the enumeration builds (_swept_states) it agrees with
        # the rank of G_0 = Q g Q^T, Q a basis of E^perp, which must be
        # 2 p_k + q: both pass.  On corner cases built from each state E !=
        # 0 (its rows in reduced form) it raises wherever that rank does: E
        # with a dependent row appended, which is the same subspace; E
        # with a row x, <x, x> != 0, appended or in place of its last row
        # (not for C, whose form is alternating); and E on g with the row
        # and column of the last Jordan vector taken out (replace).
        seen, tally = 0, {case: [0, 0, 0] for case in corners}
        for real, levi, reached in _swept_states(q):
            x = anisotropic_row(real)
            gram = real.gram.copy()
            gram[-1] = gram[:, -1] = 0
            flat = replace(real, form=gram)
            for t, E, _, _ in reached:
                if t != len(levi.ps) - 1:
                    continue
                E = rref(E, q)[0]
                assert g0_reference(real, levi, E) and quotient_check(real, levi, E), (real, levi, E)
                seen += 1
                if not t:  # E_0 = 0: the root reads real's partition, and realize checked g
                    continue
                built = {
                    "dependent row": (real, np.vstack([E, E.sum(axis=0) % q])),
                    "degenerate g": (flat, E),
                }
                if x is not None:
                    built["anisotropic row"] = (real, np.vstack([E, x]))
                    if E.shape[0]:
                        built["anisotropic last row"] = (real, np.vstack([E[:-1], x]))
                for case, (r, F) in built.items():
                    want, got = g0_reference(r, levi, F), quotient_check(r, levi, F)
                    assert got <= want, (case, real, levi, F)
                    tally[case] = [a + b for a, b in zip(tally[case], (1, not want, not got))]
        assert seen == states
        assert {case: tuple(v) for case, v in tally.items()} == corners

    # The corrupt inputs of that check, each of which one clause alone
    # stops, and the failure it names: B 3,3,1 via (1,2;1) at p = 3, so
    # d = 1, on the state <x(1,0)> (index 0) with the row and column of
    # x(1,2), the chain of length 1 (index 6), taken out of g; on E = 0,
    # one row short; and on E = <x(1,2)>, where <x, x> = 1.
    CORRUPT = (
        "from dataclasses import replace\n"
        "import numpy as np\n"
        "from nilorbit import Family, InvariantError, LeviType, ff_oracle, parse_partition, realize\n"
        "real = realize(parse_partition('3,3,1'), Family.B, 3)\n"
        "gram = real.gram.copy()\n"
        "gram[6] = gram[:, 6] = 0\n"
        "STATES = {\n"
        "    'degenerate g': (replace(real, form=gram), [0]),\n"
        "    'E one row short': (real, []),\n"
        "    'E not isotropic': (real, [6]),\n"
        "}\n"
        "def raised(oracle, kind):\n"
        "    r, rows = STATES[kind]\n"
        "    E = np.eye(7, dtype=np.int64)[rows]\n"
        "    try:\n"
        "        oracle._state_count(r, LeviType.from_text('1,2;1', Family.B), E, 1)\n"
        "    except InvariantError as exc:\n"
        "        return str(exc)\n"
    )
    CORRUPT_RAISED = {
        "degenerate g": "det g = 0 mod 3",
        "E one row short": "rank E = 0, expected 1",
        "E not isotropic": "<E_0, E_0> = 1 mod 3, expected 0",
    }
    # (the clause, and its mutant: the clause dropped) by the input it stops
    CLAUSES = {
        "degenerate g": ("if not real.det_g:", "if False:"),
        "E one row short": ("elif r != d:", "elif False:"),
        "E not isotropic": ("elif pairing.any():", "elif False:"),
    }

    @pytest.mark.parametrize("kind", list(CORRUPT_RAISED))
    def test_corrupt_state_names_its_clause(self, kind):
        scope = {}
        exec(self.CORRUPT, scope)
        message = scope["raised"](ff_oracle, kind)
        assert message.split(" (")[0] == "the form is degenerate on E^perp/E"
        assert message.rsplit(": ", 1)[1] == self.CORRUPT_RAISED[kind]

    def test_corrupt_states_raise_under_optimize(self, run_optimized):
        script = self.CORRUPT + "".join(
            f"print(raised(ff_oracle, {kind!r}).rsplit(': ', 1)[1])\n" for kind in self.CORRUPT_RAISED
        )
        assert run_optimized(script).splitlines() == list(self.CORRUPT_RAISED.values())

    @pytest.mark.parametrize("kind", list(CLAUSES))
    def test_dropped_clause_lets_its_input_through(self, monkeypatch, kind):
        # Each clause is needed: without it, its corrupt input reaches the
        # count, and the other two inputs still raise.
        scope = {}
        exec(self.CORRUPT, scope)
        mutant = mutant_oracle(monkeypatch, *self.CLAUSES[kind])
        through = [other for other in self.CORRUPT_RAISED if scope["raised"](mutant, other) is None]
        assert through == [kind]


@functools.lru_cache(maxsize=None)
def coordinate_batches():
    """(real, levi, F1, X, t) for every batch of siblings that fiber_point_count
    hands _siblings on a realization that realize built, with F1 Jordan
    coordinates (rows with one nonzero entry each), over every
    pseudo-polarization at ranks <= 8 (criterion 5's among them) at p = 3,
    5 and 7 and the atlas's 5,000-node budget."""
    batches, siblings = [], ff_oracle._siblings

    def spy(real, levi, F1, X, t):
        if real.form is None and (np.count_nonzero(F1, axis=1) == 1).all():
            batches.append((real, levi, F1, X, t))
        return siblings(real, levi, F1, X, t)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ff_oracle, "_siblings", spy)
        for fam in (Family.B, Family.C, Family.D):
            for rank_ in range(1, 9):
                n = 2 * rank_ + fam.size_parity
                for orbit in enumerate_valid(n, fam):
                    levis = [levi for _, levi in pseudo_polarizations(orbit, fam)]
                    for q in (3, 5, 7) if levis else ():
                        real = realize(orbit, fam, q)
                        for levi in levis:
                            fiber_point_count(real, levi, budget=5000)
    return batches


def sibling_sweep(oracle):
    """(read, wrong) of ``oracle``'s _siblings on every batch of
    coordinate_batches(), each reading counted by ``oracle``'s
    _state_count, against ff_oracle's _state_count by elimination on each
    sibling E = F1 + <x>: read counts the siblings it reads with one level
    left ("last"), before it ("inner"), and those it leaves ("left");
    wrong lists each value that differs, and each sibling that it
    leaves."""
    read, wrong = {"last": 0, "inner": 0, "left": 0}, []
    for real, levi, F1, X, t in coordinate_batches():
        last = t == len(levi.ps) - 1
        for x, reading in zip(X, oracle._siblings(real, levi, F1, X, t)):
            want = ff_oracle._state_count(real, levi, np.vstack([F1, x]), t)
            case = (real.family.value, real.partition.literal(), levi.literal(), real.modulus, t, x.tolist())
            if reading is None:
                read["left"] += 1
                wrong.append((case, "left"))
                continue
            read["last" if last else "inner"] += 1
            value = oracle._state_count(real, levi, None, t, reading)
            if isinstance(want, tuple):
                same = isinstance(value, tuple) and value[1] == want[1] and np.array_equal(value[0], want[0])
            else:
                same = value == want
            if not same:
                wrong.append((case, value, want))
    return read, wrong


def sibling_branches():
    """How the bordered-rank rule reads G_a (0 < a <= s) on the siblings
    of coordinate_batches() with one level left, each computed here from
    the arrays by elimination: phi = x g on F1^perp outside the row space
    of G_a on F1^perp ("outside"), or phi = y G_a with c = y G_a y^T != 0
    ("c != 0") or = 0 ("c = 0"), per (sibling, a); and the siblings on
    whose E^perp G_s != 0 ("G_s != 0")."""
    tally = dict.fromkeys(("outside", "c != 0", "c = 0", "G_s != 0"), 0)
    for real, levi, F1, X, t in coordinate_batches():
        if t != len(levi.ps) - 1:
            continue
        p, g, e = real.modulus, real.gram, real.e
        s = 2 + (levi.q > 0)
        perp = ~(F1 @ g % p).any(axis=0)  # F1^perp: the coordinates no row of F1 pairs with
        power = np.eye(real.dim, dtype=np.int64)
        forms = []
        for _ in range(s):
            power = power @ e % p
            forms.append((g @ power % p)[np.ix_(perp, perp)])
        for x in X:
            phi = (x @ g % p)[perp]
            for B in forms:
                if len(rref(np.vstack([B, phi]), p)[1]) > len(rref(B, p)[1]):
                    tally["outside"] += 1
                    continue
                # y B = phi: a kernel vector (y, -1) of [B^T | phi^T]
                kernel = nullspace(np.hstack([B.T, phi[:, None]]), p)
                y = next(v for v in kernel if v[-1])
                y = y[:-1] * pow(-int(y[-1]), -1, p) % p
                tally["c != 0" if y @ B @ y % p else "c = 0"] += 1
            E = np.vstack([F1, x])
            Q = nullspace(E @ g % p, p)
            tally["G_s != 0"] += bool((Q @ g @ power % p @ Q.T % p).any())
    return tally


class TestSiblings:
    # Siblings of coordinate_batches() read at once: (with one level left,
    # before it, left to the elimination reading)
    READ = {"last": 3003, "inner": 1554, "left": 0}

    def test_batch_equals_state_count(self):
        # Every batch whose shared rows F1 are Jordan coordinates reads
        # every sibling, and _state_count turns each reading into the count,
        # or the start, that it finds for the sibling by elimination.
        read, wrong = sibling_sweep(ff_oracle)
        assert wrong == []
        assert read == self.READ

    def test_every_branch_is_reached(self):
        # The rule's three readings of G_a on E^perp = ker phi, and the
        # count 0 of a part above s, each on siblings with one level left.
        assert sibling_branches() == {"outside": 390, "c != 0": 1517, "c = 0": 6286, "G_s != 0": 914}

    def test_a_split_reading_changes_counts(self, monkeypatch):
        # The discriminants the batches read decide the split type of V_1
        # or b, and so the count, of some siblings: with every symmetric
        # form read as split, and then as non-split, their counts differ.
        values = []
        for split in (True, False):
            monkeypatch.setattr(ff_oracle, "_is_square", lambda x, p, split=split: split)
            values.append([
                ff_oracle._state_count(real, levi, None, t, reading)
                for real, levi, F1, X, t in coordinate_batches()
                for reading in ff_oracle._siblings(real, levi, F1, X, t)
            ])
        counts = [(a, b) for a, b in zip(*values) if isinstance(a, int) and isinstance(b, int)]
        assert (len(counts), sum(a != b for a, b in counts)) == (3795, 479)

    # Each mutant misreads siblings: c = 0 read as c != 0 (rank h_a - 1),
    # the discriminant left as the one of G_a on F1^perp, which misreads a
    # split type, and the G_s = 0 test of _state_count dropped, which
    # reads a part above s as parts at most s.  (old, new, siblings wrong)
    MUTANTS = {
        "c = 0 read as c != 0": ("ranks.append(h - 2 + bool(c))", "ranks.append(h - 1)", 2800),
        "disc unadjusted": ("discs.append(disc * (c or -1))", "discs.append(disc)", 266),
        "G_s test dropped": ("if rank(s):", "if False:", 1196),
    }

    @pytest.mark.parametrize("mutant", list(MUTANTS))
    def test_mutants_fail(self, monkeypatch, mutant):
        old, new, miscounted = self.MUTANTS[mutant]
        _, wrong = sibling_sweep(mutant_oracle(monkeypatch, old, new))
        assert len(wrong) == miscounted > 0

    def test_the_batches_make_no_elimination(self, monkeypatch):
        # Reading every batch of coordinate_batches() calls no row
        # reduction at all.
        eliminations = count_eliminations(monkeypatch)
        for real, levi, F1, X, t in coordinate_batches():
            ff_oracle._siblings(real, levi, F1, X, t)
        assert sum(eliminations.values()) == 0

    @staticmethod
    def batch_starts(monkeypatch, oracle):
        """(grown, eliminations by site, dets) for each start that a batch
        reading of ``oracle`` builds over the rank-8 atlas's checks of B, C
        and D (every pseudo-polarization at p = 3 and 5, at the atlas's
        5,000-node budget): grown when the start is larger than E."""
        eliminations, dets, starts = count_eliminations(monkeypatch), [0], []
        det, siblings = oracle.det, oracle._siblings

        def counted_det(*args):
            dets[0] += 1
            return det(*args)

        def watched(start, d):
            def spy():
                before, made = dict(eliminations), dets[0]
                out = start()
                sites = {site: n - before.get(site, 0) for site, n in eliminations.items()}
                starts.append((out[1] > d, {site: n for site, n in sites.items() if n}, dets[0] - made))
                return out
            return spy

        def spy_siblings(real, levi, F1, X, t):
            readings = siblings(real, levi, F1, X, t)
            return [r and (r[0], r[1], watched(r[2], F1.shape[0] + 1)) for r in readings]

        monkeypatch.setattr(oracle, "det", counted_det)
        monkeypatch.setattr(oracle, "_siblings", spy_siblings)
        for fam in (Family.B, Family.C, Family.D):
            for orbit in enumerate_valid(16 + fam.size_parity, fam):
                for _, levi in pseudo_polarizations(orbit, fam):
                    for q in (3, 5):
                        oracle.fiber_point_count(oracle.realize(orbit, fam, q), levi, 5000)
        return starts

    def test_a_grown_start_pays_only_for_itself(self, monkeypatch):
        # A sibling that the peel leaves builds its start only then.  Where
        # G_{s-1} = 0 it is E itself, with no elimination; where the start
        # is larger than E, it takes one nullspace of E g and one rref of
        # G_{s-1}, and no det: no G_a but G_{s-1} is read again.
        starts = self.batch_starts(monkeypatch, ff_oracle)
        grown = [(sites, dets) for big, sites, dets in starts if big]
        assert grown == [({"state nullspace": 1, "G_a ranks": 1}, 0)] * 24
        assert all((sites, dets) == ({}, 0) for big, sites, dets in starts if not big)

    def test_a_start_that_rereads_every_g_a_fails(self, monkeypatch):
        # The grown start read by _state_count by elimination, which ranks
        # every G_a, as before the batch readings carried their start.
        old = "return _elimination_reading(real, levi, E, d, s)[2]() if grown else (E, d)"
        mutant = mutant_oracle(monkeypatch, old, "return _state_count(real, levi, E, t) if grown else (E, d)")
        grown = [sites for big, sites, _ in self.batch_starts(monkeypatch, mutant) if big]
        assert len(grown) == 24 and all(sites["G_a ranks"] > 1 for sites in grown)

    # Crafted batches for B 3,3,1 via (1,1,1;1) at p = 3, of its states
    # E_2 of dimension d = 2 (t = 2): F1 rows, X rows, and whether det g
    # reads 0.  The coordinates x(1,0) = 0 and x(1,1) = 3 are isotropic and
    # orthogonal; g pairs 0 with 2, 1 with itself, 3 with 5, 4 with itself
    # and the chain of length 1, 6, with itself, with <x, x> = 1.
    CRAFTED = (
        "import numpy as np\n"
        "from nilorbit import Family, InvariantError, LeviType, ff_oracle, parse_partition, realize\n"
        "def unit(*cs):\n"
        "    row = np.zeros(7, dtype=np.int64)\n"
        "    row[list(cs)] = 1\n"
        "    return row\n"
        "BATCHES = {\n"
        "    'valid': ([unit(0)], [unit(3)], False),\n"
        "    'det g = 0': ([unit(0)], [unit(3)], True),\n"
        "    'F1 not d - 1 distinct coordinates': ([unit(0), unit(3)], [unit(1, 4)], False),\n"
        "    'x not isotropic': ([unit(0)], [unit(6)], False),\n"
        "    'x not orthogonal to F1': ([unit(0)], [unit(2)], False),\n"
        "    'x in F1': ([unit(0)], [2 * unit(0)], False),\n"
        "}\n"
        "def read(oracle, kind):\n"
        "    F1, X, degenerate = BATCHES[kind]\n"
        "    F1, X = np.array(F1), np.array(X)\n"
        "    real = realize(parse_partition('3,3,1'), Family.B, 3)\n"
        "    if degenerate:  # the arrays are built and checked, then det g reads 0\n"
        "        real.gram\n"
        "        vars(real)['det_g'] = 0\n"
        "    levi = LeviType.from_text('1,1,1;1', Family.B)\n"
        "    try:\n"
        "        values = [\n"
        "            oracle._state_count(real, levi, np.vstack([F1, x]), 2, reading)\n"
        "            for x, reading in zip(X, oracle._siblings(real, levi, F1, X, 2))\n"
        "        ]\n"
        "    except InvariantError as exc:\n"
        "        return str(exc)\n"
        "    return values\n"
    )
    CRAFTED_RAISED = {
        "det g = 0": "det g = 0 mod 3",
        "F1 not d - 1 distinct coordinates": "rank E = 3, expected 2",
        "x not isotropic": "<E_1, E_1> = 1 mod 3, expected 0",
        "x not orthogonal to F1": "<E_0, E_1> = 1 mod 3, expected 0",
        "x in F1": "rank E = 1, expected 2",
    }
    # (the batch's clause, and its mutant: the clause dropped) by the
    # crafted batches that it alone stops
    CLAUSES = {
        "det g": ("not real.det_g or ", "", ["det g = 0"]),
        "F1 coordinates": ("len(paired) != d - 1 or ", "", ["F1 not d - 1 distinct coordinates"]),
        "E isotropic": (
            "any(x[j] for j in paired) or sum(f * xi for f, xi in zip(phi, x)) % p or ", "",
            ["x not isotropic", "x not orthogonal to F1"],
        ),
        "x outside F1": (" or not any(phi)", "", ["x in F1"]),
    }

    def crafted(self):
        scope = {}
        exec(self.CRAFTED, scope)
        return scope["read"]

    def test_crafted_batches_raise(self):
        # A crafted batch that fails one clause is left to the elimination
        # reading, whose check raises naming the clause; the valid one is
        # read at once, with the count that elimination finds.
        read = self.crafted()
        real, levi = realize(P("3,3,1"), Family.B, 3), L("1,1,1;1")
        E = np.eye(7, dtype=np.int64)[[0, 3]]
        assert read(ff_oracle, "valid") == [ff_oracle._state_count(real, levi, E, 2)]
        assert ff_oracle._siblings(real, levi, E[:1], E[1:], 2)[0] is not None  # read at once
        for kind, clause in self.CRAFTED_RAISED.items():
            message = read(ff_oracle, kind)
            assert message.split(" (")[0] == "the form is degenerate on E^perp/E", kind
            assert message.rsplit(": ", 1)[1] == clause, kind

    def test_crafted_batches_raise_under_optimize(self, run_optimized):
        script = self.CRAFTED + "".join(
            f"print(read(ff_oracle, {kind!r}).rsplit(': ', 1)[1])\n" for kind in self.CRAFTED_RAISED
        )
        assert run_optimized(script).splitlines() == list(self.CRAFTED_RAISED.values())

    @pytest.mark.parametrize("clause", list(CLAUSES))
    def test_dropped_clause_lets_its_batches_through(self, monkeypatch, clause):
        # Each clause is needed: without it, the batches it stops are read
        # at once, with no error, and the others still raise.
        read = self.crafted()
        old, new, stopped = self.CLAUSES[clause]
        mutant = mutant_oracle(monkeypatch, old, new)
        through = [kind for kind in self.CRAFTED_RAISED if not isinstance(read(mutant, kind), str)]
        assert through == stopped


class TestInvariantError:
    # B 3,1,1 with 1 added to the Gram entry at x(1,0), x(1,0), which is 0.
    CORRUPT = (
        "from dataclasses import replace\n"
        "from nilorbit import Family, InvariantError, parse_partition\n"
        "from nilorbit.ff_oracle import _check_model, _model\n"
        "model = _model(parse_partition('3,1,1'), Family.B)\n"
        "try:\n"
        "    _check_model(replace(model, gram={**model.gram, (0, 0): 1}))\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )

    def test_is_not_a_verification_failure(self):
        assert not issubclass(InvariantError, RuntimeError)

    @pytest.mark.parametrize("corrupt", ["asymmetric", "degenerate"])
    def test_corrupt_gram_raises(self, corrupt):
        # A changed diagonal entry keeps B's form symmetric, but not
        # e-invariant, which the model's check over Z sees.  A zero row and
        # column make the form degenerate, which a realization's check sees.
        if corrupt == "asymmetric":
            model = _model(P("3,1,1"), Family.B)
            with pytest.raises(InvariantError, match="form is not e-invariant"):
                _check_model(replace(model, gram={**model.gram, (0, 0): 1}))
        else:
            real = realize(P("3,1,1"), Family.B, 3)
            gram = real.gram.copy()
            gram[0] = gram[:, 0] = 0
            with pytest.raises(InvariantError, match="form is degenerate"):
                _validate(replace(real, form=gram))

    def test_corrupt_gram_raises_under_optimize(self, run_optimized):
        assert run_optimized(self.CORRUPT) == "raised"

    # Mutants of e in the integer model of B 3,2,2 (x(i,j) at index 0-2,
    # 3-4, 5-6; an entry (a, b) = 1 maps x(i,j) at b to x(i-1,j) at a): an
    # entry 2, a second 1 in column 2, which already holds (1, 2), and no
    # entry at all, the e of 1^7, which is e-invariant for any form, with
    # the message each must raise.  None depends on a prime, so the
    # model's check raises.
    E_MUTANTS = (
        "from dataclasses import replace\n"
        "from nilorbit import Family, InvariantError, parse_partition\n"
        "from nilorbit.ff_oracle import _check_model, _model\n"
        "def mutant(kind):\n"
        "    model = _model(parse_partition('3,2,2'), Family.B)\n"
        "    e = {'two': {**model.e, (0, 1): 2}, 'column': {**model.e, (4, 2): 1}}.get(kind, {})\n"
        "    return replace(model, e=e)\n"
        "def raised(kind):\n"
        "    try:\n"
        "        _check_model(mutant(kind))\n"
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
        _validate(replace(real, form=gram))
        with pytest.raises(InvariantError, match="even orthogonal form is not split"):
            _validate(replace(real, form=np.diag([1, 1, 1, 2]).astype(np.int64)))

    def test_exported_from_package_and_oracle(self):
        assert nilorbit.InvariantError is nilorbit.ff_oracle.InvariantError is InvariantError
