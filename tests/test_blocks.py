import pytest
from conftest import is_richardson_via_induction

from nilorbit import (
    Block,
    Family,
    canonical_quotient_order,
    decompose,
    enumerate_valid,
    is_richardson,
    is_special,
    parse_partition,
    transpose,
)
from nilorbit.levi import _polarization_table


def special_by_transpose(p, fam):
    """Specialness read off the transpose: even multiplicities on the
    constrained parity, even parts for the odd orthogonal family and odd
    parts for the symplectic and even orthogonal families."""
    t = transpose(p)
    rule = Family.B if fam is Family.B else Family.C
    return all(t.parts.count(v) % 2 == 0 for v in set(t.parts) if rule.needs_even_multiplicity(v))


def P(text):
    return parse_partition(text)


def kinds(p, fam):
    return [blk.kind for blk in decompose(p, fam).blocks]


class TestDecompose:
    def test_family_b_spots(self):
        assert decompose(P("3,2,2,1,1"), Family.B).render() == "B2[3 |2,2| 1] B3[1]"
        assert decompose(P("4,4,3,2,2,1,1"), Family.B).render() == (
            "B1*[4,4] B2[3 |2,2| 1] B3[1]"
        )
        assert kinds(P("5"), Family.B) == ["B3"]
        assert kinds(P("3,3,1"), Family.B) == ["B1", "B3"]
        assert kinds(P("2,2,1"), Family.B) == ["B1*", "B3"]
        assert kinds(P("3,1,1"), Family.B) == ["B2", "B3"]
        assert kinds(P("1,1,1,1,1"), Family.B) == ["B1", "B1", "B3"]

    def test_family_c_spots(self):
        assert decompose(P("2,1,1"), Family.C).render() == "C2[2 |1,1|]"
        assert kinds(P("4,4,3,3"), Family.C) == ["C1*", "C1"]
        assert kinds(P("6,4"), Family.C) == ["C2"]
        assert kinds(P("4"), Family.C) == ["C2"]
        assert decompose(P("4,3,3,2"), Family.C).render() == "C2[4 |3,3| 2]"

    def test_family_d_spots(self):
        assert decompose(P("3,1"), Family.D).render() == "D2[3 1]"
        assert kinds(P("2,2"), Family.D) == ["D1*"]
        assert kinds(P("3,3"), Family.D) == ["D1"]
        assert decompose(P("5,2,2,1"), Family.D).render() == "D2[5 |2,2| 1]"

    def test_round_trip(self):
        for fam, n in ((Family.B, 11), (Family.C, 10), (Family.D, 10)):
            for p in enumerate_valid(n, fam):
                assert decompose(p, fam).partition() == p

    def test_greedy_absorbs_all_middles(self):
        d = decompose(P("3,2,2,2,2,1"), Family.D)
        assert d.render() == "D2[3 |2,2,2,2| 1]"
        assert d.blocks[0].k == 2

    def test_invalid_input_rejected(self):
        with pytest.raises(ValueError):
            decompose(P("4,3,3,1"), Family.B)

    def test_block_positions_enforced(self):
        # a trailing-kind block anywhere but last is malformed by construction
        with pytest.raises(ValueError):
            Block("B3", alphas=(3, 1))


class TestModifications:
    def test_odd_pair(self):
        mods = Block("B1", alphas=(3, 3)).modifications()
        assert mods.circ is None
        assert mods.prime == (4, 2)
        assert mods.double_prime == (3, 3)

    def test_even_pair_family_b(self):
        mods = Block("B1*", betas=(2,)).modifications()
        assert mods.circ == (3, 2)
        assert mods.prime == (2, 2)
        assert mods.double_prime == (3, 1)

    def test_even_pair_families_c_d(self):
        for kind in ("C1*", "D1*"):
            mods = Block(kind, betas=(4,)).modifications()
            assert mods.circ == (4, 4)
            assert mods.prime == (4, 4)
            assert mods.double_prime == (5, 3)

    def test_b2(self):
        mods = Block("B2", alphas=(3, 1), betas=(2,)).modifications()
        assert mods.circ == (3, 2, 2, 2)
        assert mods.prime == (2, 2, 2, 2)
        assert mods.double_prime == (3, 3, 1, 1)

    def test_b2_without_middles(self):
        mods = Block("B2", alphas=(3, 1)).modifications()
        assert mods.circ == (3, 2)
        assert mods.prime == (2, 2)
        assert mods.double_prime == (3, 1)

    def test_b3(self):
        mods = Block("B3", alphas=(3,), betas=(2,)).modifications()
        assert mods.circ == (3, 2, 2)
        assert mods.prime == (2, 2, 2)
        assert mods.double_prime is None
        bare = Block("B3", alphas=(1,)).modifications()
        assert bare.circ == (1,)
        assert bare.prime == ()

    def test_c2_closed(self):
        mods = Block("C2", alphas=(3,), betas=(4, 2)).modifications()
        assert mods.prime == (4, 4, 2, 2)
        assert mods.circ == (5, 3, 3, 1)
        assert mods.double_prime == mods.circ

    def test_c2_open_boundary_cascade(self):
        # the raise would borrow from a zero closing boundary, so the unit
        # comes out of the last positive entry instead
        mods = Block("C2", alphas=(1,), betas=(2,)).modifications()
        assert mods.circ == (3, 1)
        assert mods.double_prime == (3, 1)
        assert mods.prime == (2, 2)
        bare = Block("C2", betas=(2,)).modifications()
        assert bare.circ == (2,)
        assert bare.prime == (2,)
        assert bare.double_prime == (2,)

    def test_d2(self):
        mods = Block("D2", alphas=(5, 1), betas=(2,)).modifications()
        assert mods.circ == (5, 3, 2)
        assert mods.prime == (6, 2, 2)
        assert mods.double_prime == (5, 3, 1, 1)
        no_mid = Block("D2", alphas=(3, 1)).modifications()
        assert no_mid.circ is None
        assert no_mid.prime == (4,)

    def test_sizes_are_conserved_or_shifted_by_one(self):
        """prime lowers boundary kinds by one unit in B, raises by one in C;
        the pair kinds conserve size in every variant."""
        for fam, n in ((Family.B, 9), (Family.C, 8), (Family.D, 8)):
            for p in enumerate_valid(n, fam):
                for blk in decompose(p, fam).blocks:
                    mods = blk.modifications()
                    assert sum(mods.prime) in (blk.size - 1, blk.size, blk.size + 1)
                    if mods.double_prime is not None:
                        assert sum(mods.double_prime) == blk.size
                    if mods.circ is not None:
                        assert sum(mods.circ) in (blk.size, blk.size + 1, blk.size - 1)

    def test_variant_lookup(self):
        mods = Block("B1", alphas=(3, 3)).modifications()
        assert mods.variant("prime") == (4, 2)
        with pytest.raises(LookupError):
            mods.variant("circ")


class TestSpecial:
    def test_family_b(self):
        assert is_special(P("5"), Family.B)
        assert is_special(P("3,1,1"), Family.B)
        assert not is_special(P("2,2,1"), Family.B)
        assert is_special(P("1,1,1,1,1"), Family.B)

    def test_family_c(self):
        assert is_special(P("4"), Family.C)
        assert is_special(P("2,2"), Family.C)
        assert not is_special(P("2,1,1"), Family.C)

    def test_family_d(self):
        # so_4 decomposes into two rank-one pieces, so every orbit is special
        assert is_special(P("3,1"), Family.D)
        assert is_special(P("2,2"), Family.D)
        assert is_special(P("1,1,1,1"), Family.D)
        assert not is_special(P("5,2,2,1"), Family.D)

    def test_criteria_cross_check_runs_clean(self):
        # is_special reads the segmentation; the transpose criterion must
        # agree with it on every orbit
        for fam, sizes in (
            (Family.B, (1, 3, 5, 7, 9, 11)),
            (Family.C, (2, 4, 6, 8, 10)),
            (Family.D, (2, 4, 6, 8, 10)),
        ):
            for n in sizes:
                for p in enumerate_valid(n, fam):
                    assert is_special(p, fam) == special_by_transpose(p, fam), (fam, p)

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            is_special(P("3,1"), Family.B)


class TestRichardson:
    def test_so5_set(self):
        expect = {(5,), (3, 1, 1), (1, 1, 1, 1, 1)}
        got = {p.parts for p in enumerate_valid(5, Family.B) if is_richardson(p, Family.B)}
        assert got == expect

    def test_agrees_with_induction_small(self):
        for fam, n in ((Family.B, 9), (Family.C, 8), (Family.D, 8)):
            for p in enumerate_valid(n, fam):
                assert is_richardson(p, fam) == is_richardson_via_induction(p, fam)

    def test_richardson_implies_special(self):
        for fam, n in ((Family.B, 11), (Family.C, 10), (Family.D, 10)):
            for p in enumerate_valid(n, fam):
                if is_richardson(p, fam):
                    assert is_special(p, fam)

    def test_verdict_builds_no_polarization_table(self):
        # The verdict comes from the witness scan; B 81's polarization
        # table alone would mean inducing 215,308 Levis.
        before = _polarization_table.cache_info()
        assert is_richardson(P("81"), Family.B)
        after = _polarization_table.cache_info()
        assert (after.misses, after.currsize) == (before.misses, before.currsize)


class TestCanonicalQuotient:
    def test_spots(self):
        assert canonical_quotient_order(P("3,1,1")) == 2
        assert canonical_quotient_order(P("5")) == 1
        assert canonical_quotient_order(P("1,1,1,1,1")) == 1
        assert canonical_quotient_order(P("3,1,1,1,1,1,1")) == 2

    def test_requires_special_b(self):
        with pytest.raises(ValueError):
            canonical_quotient_order(P("2,2,1"))
