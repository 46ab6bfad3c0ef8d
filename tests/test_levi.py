import numpy as np
import pytest
from conftest import is_richardson_via_induction

from nilorbit import (
    Family,
    LeviType,
    Partition,
    enumerate_levis,
    enumerate_valid,
    induced_shape,
    langlands_dual_levi,
    parse_partition,
    polarizations,
    richardson_orbit_of,
)


def P(text):
    return parse_partition(text)


def L(text, fam):
    return LeviType.from_text(text, fam)


def levi_of_raw_shape(raw, family):
    """Reference inverse of ``induced_shape``: the Levi type whose raw
    induced shape is ``raw``, or None when ``raw`` is not such a shape.  The
    odd entries must form a prefix whose length is an admissible ``q`` for
    the family."""
    q = 0
    seen_even = False
    for x in raw.parts:
        if x % 2 == 1:
            if seen_even:
                return None
            q += 1
        else:
            seen_even = True
    if q % 2 != family.size_parity:
        return None
    if family is not Family.C and q == 2:
        return None
    cols = [(x - 1) // 2 if j < q else x // 2 for j, x in enumerate(raw.parts)]
    if any(cols[i] < cols[i + 1] for i in range(len(cols) - 1)):
        return None
    ps = tuple(sum(1 for c in cols if c >= j) for j in range(1, max(cols, default=0) + 1))
    return LeviType(ps, q, family)


def brute_polarizations(p, fam):
    """Reference for the polarization table: filter every Levi type."""
    return [levi for levi in enumerate_levis(p.n, fam) if richardson_orbit_of(levi) == p]


class TestLeviType:
    def test_blocks_are_sorted_ascending(self):
        assert LeviType((3, 1, 2), 1, Family.B).ps == (1, 2, 3)

    def test_ambient_size(self):
        assert L("2,5;7", Family.B).n == 21
        assert L(";4", Family.C).n == 4

    def test_literal_round_trip(self):
        for text, fam in (("2,5;7", Family.B), (";5", Family.B), ("1,1;0", Family.C)):
            assert L(text, fam).literal() == text
        assert str(L("2;1", Family.B)) == "(2;1)"

    def test_parity_enforced(self):
        with pytest.raises(ValueError):
            LeviType((1,), 2, Family.B)
        with pytest.raises(ValueError):
            LeviType((1,), 1, Family.C)
        with pytest.raises(ValueError):
            LeviType((1,), 1, Family.D)

    def test_q2_admissibility(self):
        LeviType((1,), 2, Family.C)
        with pytest.raises(ValueError):
            LeviType((1,), 2, Family.D)

    def test_positive_blocks(self):
        with pytest.raises(ValueError):
            LeviType((0,), 1, Family.B)
        with pytest.raises(ValueError):
            LeviType((), -1, Family.B)

    def test_integral_blocks_and_q(self):
        # Nothing is truncated: a float block size or q is named in the
        # error, and integer types such as numpy's pass.
        with pytest.raises(ValueError, match="^general-linear block size 1.9 is not an integer$"):
            LeviType((1.9,), 1, Family.B)
        with pytest.raises(ValueError, match="^q 1.0 is not an integer$"):
            LeviType((1,), 1.0, Family.B)
        levi = LeviType(np.array([2, 1]), np.int64(3), Family.B)
        assert levi == L("1,2;3", Family.B) and type(levi.q) is int

    def test_malformed_text(self):
        with pytest.raises(ValueError):
            LeviType.from_text("2,1", Family.B)
        with pytest.raises(ValueError):
            LeviType.from_text("a;1", Family.B)


class TestInducedShape:
    def test_spots(self):
        shape = induced_shape(L("2;1", Family.B))
        assert type(shape) is Partition and shape == P("3,2")
        assert induced_shape(L("1;3", Family.B)) == P("3,1,1")
        assert induced_shape(L("2;5", Family.B)) == P("3,3,1,1,1")
        assert induced_shape(L("1,1;1", Family.B)) == P("5")
        assert induced_shape(L("2;0", Family.C)) == P("2,2")
        assert induced_shape(L("1;2", Family.C)) == P("3,1")
        assert induced_shape(L(";5", Family.B)) == P("1,1,1,1,1")

    def test_odd_entries_form_the_head(self):
        for fam, n in ((Family.B, 11), (Family.C, 10), (Family.D, 10)):
            for levi in enumerate_levis(n, fam):
                raw = induced_shape(levi)
                odd_positions = [i for i, x in enumerate(raw.parts) if x % 2 == 1]
                assert odd_positions == list(range(levi.q))

    def test_total_is_ambient_size(self):
        for levi in enumerate_levis(9, Family.B):
            assert induced_shape(levi).n == 9


class TestRichardsonOrbits:
    def test_spots(self):
        assert richardson_orbit_of(L("2;1", Family.B)) == P("3,1,1")
        assert richardson_orbit_of(L("1;3", Family.B)) == P("3,1,1")
        assert richardson_orbit_of(L("1,1;1", Family.B)) == P("5")
        assert richardson_orbit_of(L("2;0", Family.C)) == P("2,2")
        assert richardson_orbit_of(L("1;2", Family.C)) == P("2,2")
        assert richardson_orbit_of(L("4;1", Family.B)) == P("3,2,2,1,1")

    def test_enumerate_levis_so5(self):
        levis = enumerate_levis(5, Family.B)
        assert [x.literal() for x in levis] == ["1,1;1", "2;1", "1;3", ";5"]

    def test_enumerate_rejects_wrong_parity(self):
        with pytest.raises(ValueError):
            enumerate_levis(6, Family.B)

    def test_induction_table_so5(self):
        rich = {
            p.literal()
            for p in (P("5"), P("3,1,1"), P("1,1,1,1,1"))
        }
        for p in (P("5"), P("3,1,1"), P("2,2,1"), P("1,1,1,1,1")):
            assert is_richardson_via_induction(p, Family.B) == (p.literal() in rich)


class TestPolarizations:
    def test_spots(self):
        assert [x.literal() for x in polarizations(P("5"), Family.B)] == ["1,1;1"]
        assert [x.literal() for x in polarizations(P("3,1,1"), Family.B)] == ["2;1", "1;3"]
        assert [x.literal() for x in polarizations(P("2,2"), Family.C)] == ["2;0", "1;2"]
        assert [x.literal() for x in polarizations(P("3,2,2,1,1"), Family.B)] == ["4;1"]

    def test_non_richardson_rejected(self):
        with pytest.raises(ValueError):
            polarizations(P("2,2,1"), Family.B)

    def test_every_polarization_induces_the_orbit(self):
        for fam, n in ((Family.B, 9), (Family.C, 8), (Family.D, 8)):
            for levi in enumerate_levis(n, fam):
                r = richardson_orbit_of(levi)
                assert levi in polarizations(r, fam)

    def test_table_matches_brute_filter_in_order(self):
        for fam, top in ((Family.B, 9), (Family.C, 8), (Family.D, 8)):
            for n in range(2 - fam.size_parity, top + 1, 2):
                for p in enumerate_valid(n, fam):
                    brute = brute_polarizations(p, fam)
                    if brute:
                        assert polarizations(p, fam) == brute
                    else:
                        with pytest.raises(ValueError):
                            polarizations(p, fam)
                    assert is_richardson_via_induction(p, fam) == bool(brute)

    def test_caller_cannot_corrupt_the_table(self):
        first = polarizations(P("3,1,1"), Family.B)
        first.reverse()
        first.append(L("1,1;1", Family.B))
        assert [x.literal() for x in polarizations(P("3,1,1"), Family.B)] == ["2;1", "1;3"]


class TestRawShapeInversion:
    def test_round_trip(self):
        for fam, n in ((Family.B, 9), (Family.C, 8), (Family.D, 8)):
            for levi in enumerate_levis(n, fam):
                assert levi_of_raw_shape(induced_shape(levi), fam) == levi

    def test_rejects_non_raw_shapes(self):
        assert levi_of_raw_shape(P("2,1"), Family.B) is None  # odd after even
        assert levi_of_raw_shape(P("3,2,1"), Family.B) is None
        assert levi_of_raw_shape(P("5,1"), Family.B) is None  # forces q = 2
        assert levi_of_raw_shape(P("1,1"), Family.D) is None  # q = 2 inadmissible


class TestLanglandsDual:
    def test_spots(self):
        assert langlands_dual_levi(L("2;1", Family.B)).literal() == "2;0"
        assert langlands_dual_levi(L("1;3", Family.B)).literal() == "1;2"
        assert langlands_dual_levi(L("2;0", Family.C)).literal() == "2;1"

    def test_families_swap_and_blocks_survive(self):
        for levi in enumerate_levis(9, Family.B):
            dual = langlands_dual_levi(levi)
            assert dual.family is Family.C
            assert dual.ps == levi.ps
            assert dual.q == levi.q - 1
            assert langlands_dual_levi(dual) == levi

    def test_family_d_rejected(self):
        with pytest.raises(ValueError):
            langlands_dual_levi(L("1;0", Family.D))


class TestInvariantError:
    def test_broken_parity_pattern_raises_under_optimize(self, run_optimized):
        # A q that is not an integer slips past the constructor's checks and
        # breaks the raw shape's parity pattern at j = 1.
        code = (
            "from nilorbit import Family, InvariantError, LeviType, induced_shape\n"
            "levi = object.__new__(LeviType)\n"
            "for name, value in (('ps', (2,)), ('q', 1.5), ('family', Family.B)):\n"
            "    object.__setattr__(levi, name, value)\n"
            "try:\n"
            "    induced_shape(levi)\n"
            "except InvariantError:\n"
            "    print('raised')\n"
        )
        assert run_optimized(code) == "raised"
