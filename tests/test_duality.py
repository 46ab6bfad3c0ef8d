import pytest

from nilorbit import (
    Family,
    LeviType,
    dual_pair,
    enumerate_valid,
    epoly_equality_check,
    is_special,
    minimal_richardson_orbits,
    orbit_dim,
    parse_partition,
    seesaw_check,
    springer_dual,
    springer_dual_inverse,
)


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


class TestDualPair:
    def test_structure(self):
        dp = dual_pair(P("3,1,1"))
        assert dp.b_orbit == P("3,1,1")
        assert dp.c_orbit == P("2,2")
        assert dp.min_richardson_pairs == ((P("3,1,1"), P("2,2")),)
        assert dp.polarization_pairs == (
            (
                (LeviType.from_text("2;1", Family.B), LeviType.from_text("2;0", Family.C)),
                (LeviType.from_text("1;3", Family.B), LeviType.from_text("1;2", Family.C)),
            ),
        )

    def test_non_richardson_orbit_still_pairs(self):
        dp = dual_pair(P("3,2,2,1,1,1,1"))
        assert dp.c_orbit == P("2,2,2,2,1,1")
        assert [str(rb) for rb, _ in dp.min_richardson_pairs] == [
            "[3,2,2,2,2]",
            "[3,3,1,1,1,1,1]",
        ]
        assert [str(rc) for _, rc in dp.min_richardson_pairs] == [
            "[2,2,2,2,2]",
            "[3,3,1,1,1,1]",
        ]

    def test_minimal_orbits_commute_with_dual(self):
        for b in special_orbits(11, Family.B):
            dp = dual_pair(b)
            c = dp.c_orbit
            assert sorted(rc.parts for _, rc in dp.min_richardson_pairs) == sorted(
                r.parts for r in minimal_richardson_orbits(c, Family.C)
            )


class TestTheoremChecks:
    def test_seesaw_spot(self):
        report = seesaw_check(dual_pair(P("3,1,1")))
        assert report.check == "seesaw"
        assert report.ok
        assert len(report.records) == 2
        for rec in report.records:
            assert rec["a_bar"] == 2
            assert rec["product"] == 2
            assert rec["verdict"] == "pass"
        assert {tuple(rec["components"]) for rec in report.records} == {(2, 1), (1, 2)}

    def test_epoly_spot(self):
        report = epoly_equality_check(dual_pair(P("3,1,1")))
        assert report.check == "epoly"
        assert report.ok
        for rec in report.records:
            assert rec["per_component"] == [1]
        assert {tuple(map(tuple, rec["e_poly"])) for rec in report.records} == {
            ((2,), (1,)),
            ((1,), (2,)),
        }

    def test_record_fields(self):
        rec = seesaw_check(dual_pair(P("3,1,1"))).records[0]
        assert rec["b_orbit"] == [3, 1, 1]
        assert rec["c_orbit"] == [2, 2]
        assert rec["min_pair"] == [[3, 1, 1], [2, 2]]
        assert rec["levi_pair"] == ["2;1", "2;0"]
        assert rec["descriptor_b"]["components"] * rec["descriptor_c"]["components"] == 2

    def test_sweep(self):
        for b in special_orbits(9, Family.B):
            dp = dual_pair(b)
            assert seesaw_check(dp).ok, b
            assert epoly_equality_check(dp).ok, b


class TestInvariantError:
    def test_disagreeing_routes_raise_under_optimize(self, run_optimized):
        # Without the collapse, the second route returns 3,1 instead of 2,2.
        code = (
            "import nilorbit.duality as duality\n"
            "from nilorbit import InvariantError, parse_partition\n"
            "duality.collapse = lambda p, family: p\n"
            "try:\n"
            "    duality.springer_dual(parse_partition('3,1,1'))\n"
            "except InvariantError:\n"
            "    print('raised')\n"
        )
        assert run_optimized(code) == "raised"
