import pytest
from conftest import dominance_leq, is_richardson_via_induction, minimal_richardson_bruteforce

from nilorbit import (
    Block,
    Family,
    IndexEntry,
    IndexSet,
    LeviType,
    decompose,
    enumerate_valid,
    minimal_richardson_orbits,
    minimal_richardson_witnessed,
    parse_partition,
    pseudo_polarizations,
)
from nilorbit.minimal import _index_set


def P(text):
    return parse_partition(text)


def index_set(p, fam):
    """The witness scan on the segmentation of ``p``."""
    return _index_set(p, decompose(p, fam))


class TestModifyBlock:
    def test_delegates_to_block(self):
        blk = Block("B1", alphas=(3, 3))
        mods = blk.modifications()
        assert mods.circ is None
        assert mods.prime == (4, 2)
        assert mods.double_prime == (3, 3)


class TestIndexSet:
    def test_spots(self):
        idx = index_set(P("2,2,1"), Family.B)
        assert idx.entries == (IndexEntry(block=2, witness=2),)
        assert idx.n_blocks == 2

        idx = index_set(P("4,4,4,4,3,3,1"), Family.B)
        assert idx.entries == (IndexEntry(1, 1), IndexEntry(4, 4))
        assert idx.n_blocks == 4

        idx = index_set(P("5"), Family.B)
        assert idx.entries == (IndexEntry(1, 1),)

    def test_padding_slot_of_open_ended_block(self):
        idx = index_set(P("2,1,1"), Family.C)
        assert idx.entries == (IndexEntry(1, 2),)
        assert idx.n_blocks == 1

    def test_virtual_block(self):
        idx = index_set(P("1,1"), Family.D)
        assert idx.entries == (IndexEntry(2, 2),)
        assert idx.n_blocks == 1

    @pytest.mark.parametrize("fam", [Family.C, Family.D])
    def test_empty_partition_names_no_block(self, fam):
        # The zero orbit of rank 0 has no blocks, so its witness has none.
        idx = index_set(P(""), fam)
        assert (idx.entries, idx.n_blocks) == ((IndexEntry(None, 1),), 0)
        assert minimal_richardson_witnessed(P(""), fam) == [
            (P(""), IndexEntry(None, 1))
        ]

    def test_richardson_input_witnesses_its_own_blocks(self):
        idx = index_set(P("3,1,1"), Family.B)
        assert len(idx.entries) == 1

    def test_monotonicity_enforced(self):
        with pytest.raises(ValueError):
            IndexSet((IndexEntry(2, 1), IndexEntry(1, 2)), 3)
        with pytest.raises(ValueError):
            IndexSet((IndexEntry(1, 2), IndexEntry(2, 2)), 3)


class TestMinimalRichardson:
    def test_spots(self):
        assert minimal_richardson_orbits(P("2,2,1"), Family.B) == [P("3,1,1")]
        assert minimal_richardson_orbits(P("4,4,4,4,3,3,1"), Family.B) == [
            P("5,4,4,4,4,1,1"),
            P("5,5,3,3,3,3,1"),
        ]
        assert minimal_richardson_orbits(P("2,2,2,2,1"), Family.B) == [P("3,2,2,1,1")]

    def test_witnessed_variant(self):
        witnessed = minimal_richardson_witnessed(P("2,2,1"), Family.B)
        assert witnessed == [(P("3,1,1"), IndexEntry(2, 2))]

    def test_results_dominate_and_are_richardson(self):
        for fam, n in ((Family.B, 11), (Family.C, 10), (Family.D, 10)):
            for p in enumerate_valid(n, fam):
                for r in minimal_richardson_orbits(p, fam):
                    assert dominance_leq(p, r)
                    assert is_richardson_via_induction(r, fam)

    def test_results_pairwise_incomparable(self):
        for fam, n in ((Family.B, 11), (Family.C, 10), (Family.D, 10)):
            for p in enumerate_valid(n, fam):
                orbits = minimal_richardson_orbits(p, fam)
                for i, a in enumerate(orbits):
                    for b in orbits[i + 1 :]:
                        assert not dominance_leq(a, b)
                        assert not dominance_leq(b, a)

    def test_fixed_point_exactly_on_richardson_orbits(self):
        for fam, n in ((Family.B, 9), (Family.C, 8), (Family.D, 8)):
            for p in enumerate_valid(n, fam):
                orbits = minimal_richardson_orbits(p, fam)
                if is_richardson_via_induction(p, fam):
                    assert orbits == [p]
                else:
                    assert p not in orbits

    def test_matches_bruteforce(self):
        for fam, n in ((Family.B, 9), (Family.C, 8), (Family.D, 8)):
            for p in enumerate_valid(n, fam):
                got = {r.parts for r in minimal_richardson_orbits(p, fam)}
                want = {r.parts for r in minimal_richardson_bruteforce(p, fam)}
                assert got == want, f"{p} ({fam.value})"


class TestPseudoPolarizations:
    def test_spots(self):
        got = pseudo_polarizations(P("2,2,1"), Family.B)
        assert got == [
            (P("3,1,1"), LeviType.from_text("2;1", Family.B)),
            (P("3,1,1"), LeviType.from_text("1;3", Family.B)),
        ]
        got = pseudo_polarizations(P("2,2,2,2,1"), Family.B)
        assert got == [(P("3,2,2,1,1"), LeviType.from_text("4;1", Family.B))]

    def test_every_minimal_orbit_is_covered(self):
        for p in enumerate_valid(9, Family.B):
            orbits = {r.parts for r, _ in pseudo_polarizations(p, Family.B)}
            assert orbits == {
                r.parts for r in minimal_richardson_orbits(p, Family.B)
            }


class TestCachedAnalysis:
    """The minimal orbits and pseudo-polarizations come from one cached
    analysis per orbit; every caller gets its own list."""

    def test_callers_cannot_corrupt_the_analysis(self):
        p = P("3,2,2,1,1,1,1")
        low, high = P("3,2,2,2,2"), P("3,3,1,1,1,1,1")
        expected = {
            minimal_richardson_witnessed: [(low, IndexEntry(1, 1)), (high, IndexEntry(3, 4))],
            minimal_richardson_orbits: [low, high],
            pseudo_polarizations: [
                (low, LeviType.from_text("5;1", Family.B)),
                (high, LeviType.from_text("2;7", Family.B)),
            ],
        }
        for fn, want in expected.items():
            first = fn(p, Family.B)
            assert first == want
            first.reverse()
            first.append(first[0])
            assert fn(p, Family.B) == want
