import dataclasses

import pytest

import nilorbit.duality as duality
from nilorbit import (
    Family,
    LeviType,
    Partition,
    VerificationError,
    collapse,
    dual_pair,
    enumerate_valid,
    is_special,
    minimal_richardson_orbits,
    orbit_analysis,
    orbit_dim,
    pairing_records,
    parse_partition,
    springer_dual,
    springer_dual_inverse,
)
from nilorbit.cli import main


def P(text):
    return parse_partition(text)


def special_orbits(n, fam):
    return [p for p in enumerate_valid(n, fam) if is_special(p, fam)]


class TestSpringerDual:
    def test_spots(self):
        assert springer_dual(P("3,1,1")) == P("2,2")
        assert springer_dual(P("3,3,1,1,1")) == P("3,3,1,1")
        assert springer_dual(P("1,1,1,1,1")) == P("1,1,1,1")
        for n in range(1, 7):
            regular = P(str(2 * n + 1))
            assert springer_dual(regular) == P(str(2 * n))

    def test_rejects_non_special(self):
        with pytest.raises(ValueError):
            springer_dual(P("2,2,1"))

    def test_rejects_other_families(self):
        with pytest.raises(ValueError):
            springer_dual(P("2,2"))  # even total: not an odd orthogonal orbit

    def test_image_is_exactly_the_special_symplectic_set(self):
        for n in (5, 7, 9, 11):
            image = {springer_dual(b).parts for b in special_orbits(n, Family.B)}
            want = {c.parts for c in special_orbits(n - 1, Family.C)}
            assert image == want

    def test_dimension_preserving(self):
        for b in special_orbits(11, Family.B):
            assert orbit_dim(b, Family.B) == orbit_dim(springer_dual(b), Family.C)

    def test_agrees_with_lowering_the_last_part_and_collapsing(self):
        # The second route: lower the last part by one, then collapse in C.
        for n in (1, 3, 5, 7, 9, 11, 13):
            for b in special_orbits(n, Family.B):
                lowered = b.parts[:-1] + ((b.parts[-1] - 1,) if b.parts[-1] > 1 else ())
                assert springer_dual(b) == collapse(Partition(lowered), Family.C), b


class TestSpringerDualInverse:
    def test_spots(self):
        assert springer_dual_inverse(P("2,2")) == P("3,1,1")
        assert springer_dual_inverse(P("3,3,1,1")) == P("3,3,1,1,1")
        assert springer_dual_inverse(P("1,1,1,1")) == P("1,1,1,1,1")

    def test_rejects_non_special(self):
        with pytest.raises(ValueError):
            springer_dual_inverse(P("2,1,1"))

    def test_round_trips(self):
        for n in (4, 6, 8, 10):
            for c in special_orbits(n, Family.C):
                b = springer_dual_inverse(c)
                assert is_special(b, Family.B)
                assert springer_dual(b) == c
        for n in (5, 7, 9):
            for b in special_orbits(n, Family.B):
                assert springer_dual_inverse(springer_dual(b)) == b


def min_pairs(dp):
    """The distinct (B, C) minimal Richardson pairs of ``dp``, in order."""
    return list(dict.fromkeys((d_b.min_richardson, d_c.min_richardson) for d_b, d_c in dp.pairings))


class TestDualPair:
    def test_structure(self):
        dp = dual_pair(P("3,1,1"))
        assert dp.b_orbit == P("3,1,1")
        assert dp.c_orbit == P("2,2")
        assert dp.a_bar == 2
        assert min_pairs(dp) == [(P("3,1,1"), P("2,2"))]
        assert [(d_b.levi, d_c.levi) for d_b, d_c in dp.pairings] == [
            (LeviType.from_text("2;1", Family.B), LeviType.from_text("2;0", Family.C)),
            (LeviType.from_text("1;3", Family.B), LeviType.from_text("1;2", Family.C)),
        ]

    def test_descriptors_come_from_the_cached_analyses(self):
        dp = dual_pair(P("3,2,2,1,1,1,1"))
        assert dual_pair(P("3,2,2,1,1,1,1")) is dp
        b_side = orbit_analysis(dp.b_orbit, Family.B).descriptors
        assert all(d_b is d for (d_b, _), d in zip(dp.pairings, b_side, strict=True))
        c_side = orbit_analysis(dp.c_orbit, Family.C).descriptors
        assert all(any(d_c is d for d in c_side) for _, d_c in dp.pairings)
        assert len(dp.pairings) == len(c_side)

    def test_non_richardson_orbit_still_pairs(self):
        dp = dual_pair(P("3,2,2,1,1,1,1"))
        assert dp.c_orbit == P("2,2,2,2,1,1")
        assert [str(rb) for rb, _ in min_pairs(dp)] == [
            "[3,2,2,2,2]",
            "[3,3,1,1,1,1,1]",
        ]
        assert [str(rc) for _, rc in min_pairs(dp)] == [
            "[2,2,2,2,2]",
            "[3,3,1,1,1,1]",
        ]

    def test_minimal_orbits_commute_with_dual(self):
        for b in special_orbits(11, Family.B):
            dp = dual_pair(b)
            c = dp.c_orbit
            assert sorted(rc.parts for _, rc in min_pairs(dp)) == sorted(
                r.parts for r in minimal_richardson_orbits(c, Family.C)
            )


class TestDualPairChecks:
    """Each check in ``dual_pair`` still raises on data that breaks it; the
    cache is cleared first so the check runs, and a raise is never cached."""

    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        dual_pair.cache_clear()
        yield
        dual_pair.cache_clear()

    def test_dual_levi_that_does_not_polarize(self, monkeypatch):
        monkeypatch.setattr(duality, "langlands_dual_levi", lambda L: LeviType((), 4, Family.C))
        with pytest.raises(VerificationError, match="does not polarize"):
            dual_pair(P("3,1,1"))

    def test_c_side_polarization_without_partner(self, monkeypatch):
        real = duality.orbit_analysis

        def drop_last_b_descriptor(p, family):
            an = real(p, family)
            if family is Family.B:
                an = dataclasses.replace(an)
                an.__dict__["descriptors"] = real(p, family).descriptors[:-1]
            return an

        monkeypatch.setattr(duality, "orbit_analysis", drop_last_b_descriptor)
        with pytest.raises(VerificationError, match="do not correspond"):
            dual_pair(P("3,1,1"))

    def test_one_build_per_special_b_orbit_across_b_and_c_atlas(
        self, capsys, tmp_path, monkeypatch
    ):
        walks = []
        walk = duality._walk_pairings
        monkeypatch.setattr(duality, "_walk_pairings", lambda dp: walks.append(dp) or walk(dp))
        for fam in "BC":
            argv = ["atlas", "--family", fam, "--rank", "10", "--ceiling", "10",
                    "--oracle-budget", "0", "--out", str(tmp_path)]
            assert main(argv) == 0
        capsys.readouterr()
        n_special = len(special_orbits(21, Family.B))
        assert n_special == len(special_orbits(20, Family.C)) == 131
        info = dual_pair.cache_info()
        assert (info.misses, info.hits, info.currsize) == (n_special, n_special, n_special)
        assert len(walks) == len(set(map(id, walks))) == n_special


class TestTheoremChecks:
    def test_seesaw_spot(self):
        records = pairing_records(dual_pair(P("3,1,1")))
        assert len(records) == 2
        for rec in records:
            assert rec["a_bar"] == 2
            assert rec["product"] == 2
            assert rec["verdict"] == "pass"
        assert {tuple(rec["components"]) for rec in records} == {(2, 1), (1, 2)}

    def test_epoly_spot(self):
        records = pairing_records(dual_pair(P("3,1,1")))
        for rec in records:
            assert rec["e_equal"] == "pass"
            assert rec["per_component"] == [1]
        assert {tuple(map(tuple, rec["e_poly"])) for rec in records} == {
            ((2,), (1,)),
            ((1,), (2,)),
        }

    def test_record_fields(self):
        rec = pairing_records(dual_pair(P("3,1,1")))[0]
        assert list(rec) == [
            "b_orbit", "c_orbit", "min_pair", "levi_pair", "descriptor_b", "descriptor_c",
            "components", "product", "a_bar", "verdict", "e_poly", "per_component", "e_equal",
        ]
        assert rec["b_orbit"] == [3, 1, 1]
        assert rec["c_orbit"] == [2, 2]
        assert rec["min_pair"] == [[3, 1, 1], [2, 2]]
        assert rec["levi_pair"] == ["2;1", "2;0"]
        assert rec["descriptor_b"]["components"] * rec["descriptor_c"]["components"] == 2

    def test_records_are_fresh(self):
        dp = dual_pair(P("3,1,1"))
        pairing_records(dp)[0]["verdict"] = "changed"
        assert pairing_records(dp)[0]["verdict"] == "pass"

    def test_sweep(self):
        for b in special_orbits(9, Family.B):
            records = pairing_records(dual_pair(b))
            assert all(rec["verdict"] == "pass" for rec in records), b
            assert all(rec["e_equal"] == "pass" for rec in records), b
