import inspect
import sys
import types

import numpy as np
import pytest
from conftest import (
    dominance_leq,
    reference_collapse,
    reference_enumerate_valid,
    reference_invalid_reason,
    reference_is_valid,
)

from nilorbit import (
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
from nilorbit import partitions


def P(text: str) -> Partition:
    return parse_partition(text)


class TestPartitionType:
    def test_parse_and_literal_round_trip(self):
        for text in ("5", "4,3,3,1", "2,2,1", "1,1,1,1,1"):
            assert parse_partition(text).literal() == text

    def test_str_form(self):
        assert str(P("5,4,4,1")) == "[5,4,4,1]"

    def test_empty(self):
        assert parse_partition("").parts == ()
        assert parse_partition("").n == 0

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 3))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((3, 0))
        with pytest.raises(ValueError):
            Partition((3, -1))

    def test_rejects_non_integral_parts(self):
        # Nothing is truncated or parsed: a float, a string or None is
        # named in the error.
        for parts, bad in (((2.5, 1), "2.5"), (("3", "1"), "'3'"), ((3, None), "None")):
            with pytest.raises(ValueError, match=f"^part {bad} is not an integer$"):
                Partition(parts)

    def test_accepts_integer_types(self):
        p = Partition(np.array([3, 1, 1]))
        assert p == P("3,1,1") and {type(x) for x in p} == {int}
        assert Partition(x for x in (2, 2)) == P("2,2")

    def test_rejects_malformed_text(self):
        with pytest.raises(ValueError):
            parse_partition("3,x")

    def test_container_protocol(self):
        p = P("4,3,3,1")
        assert len(p) == 4
        assert list(p) == [4, 3, 3, 1]
        assert p[0] == 4 and p[-1] == 1
        assert p.n == 11


class TestValidity:
    def test_family_b(self):
        assert is_valid(P("5"), Family.B)
        assert is_valid(P("3,1,1"), Family.B)
        assert is_valid(P("2,2,1"), Family.B)
        # even part with odd multiplicity
        assert not is_valid(P("4,3,3,1"), Family.B)
        # wrong total parity
        assert not is_valid(P("3,1"), Family.B)

    def test_family_c(self):
        assert is_valid(P("4"), Family.C)
        assert is_valid(P("2,1,1"), Family.C)
        assert not is_valid(P("3,1"), Family.C)
        assert not is_valid(P("3"), Family.C)

    def test_family_d(self):
        assert is_valid(P("3,1"), Family.D)
        assert is_valid(P("2,2"), Family.D)
        assert not is_valid(P("2,1,1"), Family.D)
        assert not is_valid(P("3"), Family.D)

    def test_counts_at_rank_two(self):
        assert len(enumerate_valid(5, Family.B)) == 4
        assert len(enumerate_valid(4, Family.C)) == 4
        assert len(enumerate_valid(4, Family.D)) == 3

    def test_enumerate_rejects_wrong_parity(self):
        with pytest.raises(ValueError):
            enumerate_valid(4, Family.B)
        with pytest.raises(ValueError):
            enumerate_valid(5, Family.C)

    def test_family_from_letter(self):
        assert Family.from_letter("b") is Family.B
        with pytest.raises(ValueError):
            Family.from_letter("E")


class TestTranspose:
    def test_spots(self):
        assert transpose(P("4,3,3,1")) == P("4,3,3,1")
        assert transpose(P("3,1,1")) == P("3,1,1")
        assert transpose(P("2,2,1")) == P("3,2")
        assert transpose(P("5")) == P("1,1,1,1,1")
        assert transpose(P("")) == P("")

    def test_involution(self):
        for n in range(11):
            for p in partitions_of(n):
                assert transpose(transpose(p)) == p


class TestDominance:
    def test_chain(self):
        assert dominance_leq(P("1,1,1,1,1"), P("2,2,1"))
        assert dominance_leq(P("2,2,1"), P("3,1,1"))
        assert dominance_leq(P("3,1,1"), P("5"))
        assert not dominance_leq(P("3,1,1"), P("2,2,1"))

    def test_reflexive_and_antisymmetric(self):
        ps = partitions_of(8)
        for a in ps:
            assert dominance_leq(a, a)
        for a in ps:
            for b in ps:
                if dominance_leq(a, b) and dominance_leq(b, a):
                    assert a == b

    def test_incomparable_totals_rejected(self):
        with pytest.raises(ValueError):
            dominance_leq(P("3"), P("2,2"))


class TestCollapse:
    def test_spots(self):
        assert collapse(P("4,3,3,1"), Family.B) == P("3,3,3,1,1")
        assert collapse(P("3,2"), Family.B) == P("3,1,1")
        assert collapse(P("6,5,1"), Family.C) == P("6,4,2")
        assert collapse(P("3,1"), Family.C) == P("2,2")
        assert collapse(P("4"), Family.D) == P("3,1")
        assert collapse(P("5,4,4,4,4,2"), Family.B) == P("5,4,4,4,4,1,1")

    def test_identity_on_valid(self):
        for fam, n in ((Family.B, 9), (Family.C, 8), (Family.D, 8)):
            for p in enumerate_valid(n, fam):
                assert collapse(p, fam) == p

    def test_result_is_valid_and_dominated(self):
        for fam, n in ((Family.B, 9), (Family.C, 10), (Family.D, 10)):
            for p in partitions_of(n):
                c = collapse(p, fam)
                assert is_valid(c, fam)
                assert dominance_leq(c, p)

    def test_maximality_small(self):
        """The collapse dominates every valid partition below the input, at
        every size up to 14."""
        for fam in Family:
            for n in range(fam.size_parity, 15, 2):
                valid = enumerate_valid(n, fam)
                for p in partitions_of(n):
                    c = collapse(p, fam)
                    for v in valid:
                        if dominance_leq(v, p):
                            assert dominance_leq(v, c), (fam, p, v)

    def test_wrong_parity_rejected(self):
        with pytest.raises(ValueError):
            collapse(P("3,1"), Family.B)


class TestReferenceRoutes:
    """The one-pass validity check, its reason and the collapse and the
    direct enumeration equal the routes by definition (``conftest``), over
    every partition."""

    def test_is_valid_and_collapse(self):
        for n in range(25):
            for p in partitions_of(n):
                for fam in Family:
                    assert is_valid(p, fam) == reference_is_valid(p, fam), (p, fam)
                    if n % 2 == fam.size_parity:
                        assert collapse(p, fam) == reference_collapse(p, fam), (p, fam)

    @staticmethod
    def reason_mismatches(reason):
        """The (partition, family) pairs with N <= 20 on which ``reason``
        differs from the reference invalid-input reason."""
        return [
            (p, fam)
            for n in range(21)
            for p in partitions_of(n)
            for fam in Family
            if reason(p, fam) != reference_invalid_reason(p, fam)
        ]

    def test_invalid_reason(self):
        # One rule behind is_valid and `nilorbit validate`: the total's
        # parity, then the first bad run from the largest part down.
        assert self.reason_mismatches(invalid_reason) == []
        assert invalid_reason(P("4,4,2,1"), Family.B) == "part 2 must occur an even number of times in family B"
        assert invalid_reason(P("3,1,1"), Family.B) is None

    def test_smallest_bad_part_mutant_fails(self, monkeypatch):
        # A walk from the smallest part names the smallest bad value, which
        # differs on every partition with two bad values, such as B 4,2,1.
        source = inspect.getsource(partitions)
        old, new = "for x in (*p.parts, 0):", "for x in (*p.parts[::-1], 0):"
        assert source.count(old) == 1
        name = "nilorbit._partitions_mutant"
        mutant = types.ModuleType(name)
        monkeypatch.setitem(sys.modules, name, mutant)  # dataclasses look it up
        exec(compile(source.replace(old, new), partitions.__file__, "exec"), mutant.__dict__)
        wrong = self.reason_mismatches(mutant.invalid_reason)
        assert (P("4,2,1"), Family.B) in wrong

    def test_enumerate_valid_is_the_filtered_partitions(self):
        for fam in Family:
            for n in range(fam.size_parity, 31, 2):
                assert enumerate_valid(n, fam) == reference_enumerate_valid(n, fam), (fam, n)

    def test_partitions_of_lists_each_partition_once(self):
        # Each sums to n, in strictly decreasing lexicographic order, and
        # there are p(n) of them, counted by the coin-change recurrence.
        counts = [1] + [0] * 30
        for k in range(1, 31):
            for n in range(k, 31):
                counts[n] += counts[n - k]
        for n in range(31):
            ps = [p.parts for p in partitions_of(n)]
            assert all(sum(t) == n for t in ps)
            assert all(a > b for a, b in zip(ps, ps[1:]))
            assert len(ps) == counts[n]

    def test_lists_are_fresh(self):
        for build in (lambda: partitions_of(6), lambda: enumerate_valid(6, Family.C)):
            first = build()
            first.clear()
            assert build()


class TestOrbitDim:
    def test_spots(self):
        assert orbit_dim(P("5"), Family.B) == 8
        assert orbit_dim(P("3,1,1"), Family.B) == 6
        assert orbit_dim(P("2,2,1"), Family.B) == 4
        assert orbit_dim(P("1,1,1,1,1"), Family.B) == 0
        assert orbit_dim(P("2,2"), Family.C) == 6
        assert orbit_dim(P("4"), Family.C) == 8
        assert orbit_dim(P("3,1"), Family.D) == 4
        assert orbit_dim(P("2,2"), Family.D) == 2

    def test_bare_partition_needs_family(self):
        with pytest.raises(TypeError):
            orbit_dim(P("5"))

    def test_invalid_partition_rejected(self):
        with pytest.raises(ValueError):
            orbit_dim(P("3,1"), Family.B)
