import numpy as np
import pytest

from nilorbit import (
    Block,
    EPolynomial,
    Family,
    GrassStep,
    InvariantError,
    LeviType,
    component_count,
    decompose,
    descriptor,
    distinguished_values,
    e_polynomial,
    enumerate_valid,
    ig_factors,
    minimal_richardson_orbits,
    og_tower,
    orbit_dim,
    parse_partition,
    polarizations,
    pseudo_polarizations,
    split_index,
)
from nilorbit import blocks, spaltenstein
from nilorbit.duality import dual_pair, pairing_records


def P(text):
    return parse_partition(text)


def L(text, fam=Family.B):
    return LeviType.from_text(text, fam)


class TestEPolynomial:
    def test_product(self):
        a = EPolynomial((1, 2, 3))
        b = EPolynomial((1, 1))
        assert (a * b).coeffs == (1, 3, 5, 3)

    def test_evaluation(self):
        assert EPolynomial((1, 0, 1))(3) == 10
        assert EPolynomial.one()(17) == 1

    def test_degree_and_normalization(self):
        assert EPolynomial((1, 0, 1)).degree == 2
        assert EPolynomial((1, 0, 0)).coeffs == (1,)
        assert EPolynomial(()).coeffs == (0,)

    def test_exact_div(self):
        assert EPolynomial((2, 4)).exact_div(2).coeffs == (1, 2)
        with pytest.raises(ValueError):
            EPolynomial((1, 2)).exact_div(2)
        with pytest.raises(ValueError):
            EPolynomial((2,)).exact_div(0)

    def test_str(self):
        assert str(EPolynomial((1, 1))) == "q + 1"
        assert str(EPolynomial((2,))) == "2"
        assert str(EPolynomial((0,))) == "0"
        assert str(EPolynomial((1, 0, 3))) == "3q^2 + 1"

    @pytest.mark.parametrize("bad", [2.7, "4"])
    def test_coefficients_are_integers(self, bad):
        # A float is not truncated and a string is not parsed: either is
        # a ValueError that names it.
        with pytest.raises(ValueError, match=f"^coefficient {bad!r} is not an integer$"):
            EPolynomial([1, bad])

    def test_numpy_integer_coefficients_become_ints(self):
        poly = EPolynomial([np.int64(2), np.int32(4)])
        assert poly.coeffs == (2, 4) and all(type(c) is int for c in poly.coeffs)
        assert str(poly) == "4q + 2"


class TestGrassStep:
    def test_validation(self):
        with pytest.raises(ValueError):
            GrassStep("OG", 1, 4)
        with pytest.raises(ValueError):
            GrassStep("IG", 1, 3)
        with pytest.raises(ValueError):
            GrassStep("SG", 1, 2)
        with pytest.raises(ValueError):
            GrassStep("OG", -1, -2)

    @pytest.mark.parametrize("m,n,bad", [(1.5, 3, 1.5), (1, "3", "3")])
    def test_parameters_are_integers(self, m, n, bad):
        with pytest.raises(ValueError, match=f"^step parameter {bad!r} is not an integer$"):
            GrassStep("OG", m, n)

    def test_numpy_integer_parameters_become_ints(self):
        step = GrassStep("OG", np.int64(1), np.int64(3))
        assert step == GrassStep("OG", 1, 3) and type(step.m) is type(step.n) is int
        assert step.dimension == 1

    def test_dimension(self):
        assert GrassStep("OG", 2, 4).dimension == 1
        assert GrassStep("OG", 2, 5).dimension == 3
        assert GrassStep("IG", 2, 4).dimension == 3
        assert GrassStep("OG", 0, 1).dimension == 0

    def test_split_even_detection(self):
        assert GrassStep("OG", 2, 4).is_split_even
        assert not GrassStep("OG", 2, 5).is_split_even
        assert not GrassStep("OG", 0, 0).is_split_even
        assert not GrassStep("IG", 2, 4).is_split_even

    def test_e_polynomials(self):
        assert GrassStep("OG", 1, 2).e_polynomial().coeffs == (2,)
        assert GrassStep("OG", 1, 3).e_polynomial().coeffs == (1, 1)
        assert GrassStep("OG", 2, 4).e_polynomial().coeffs == (2, 2)
        assert GrassStep("IG", 2, 4).e_polynomial()(3) == 40
        assert GrassStep("OG", 0, 1).e_polynomial().coeffs == (1,)

    def test_point_count_matches_dimension(self):
        for step in (GrassStep("OG", 3, 7), GrassStep("OG", 3, 6), GrassStep("IG", 3, 6)):
            assert step.e_polynomial().degree == step.dimension


class TestSplitIndex:
    def test_spots(self):
        assert split_index(L("2;1")) == 0
        assert split_index(L("1;3")) == 1
        assert split_index(L("2;5")) == 2
        assert split_index(L("2;0", Family.C)) == 0
        assert split_index(L("1;2", Family.C)) == 1
        assert split_index(L("1;0", Family.D)) == 0


class TestDistinguishedValues:
    def test_head_and_tail_split(self):
        odd, even = distinguished_values(P("2,2,1"), Family.B, 0)
        assert odd == [(1, 1)]
        assert even == []

        odd, even = distinguished_values(P("2,2,1"), Family.B, 1)
        assert odd == []
        assert even == [(2, 2)]

    def test_straddling_values_are_discarded(self):
        # head length 1: the 3 sits in the head (wrong side for an odd
        # value) and the 2,2 pair runs past the boundary; both are dropped
        odd, even = distinguished_values(P("3,2,2,1,1"), Family.B, 0)
        assert odd == [(1, 2)]
        assert even == []

        odd, even = distinguished_values(P("3,3,1,1,1"), Family.B, 0)
        assert odd == [(1, 3)]
        assert even == []

    def test_lagrangian_side_multiplicity_checked(self):
        with pytest.raises(InvariantError):
            distinguished_values(P("2,1,1"), Family.D, 1)


class TestStepBuilders:
    def test_og_tower(self):
        assert og_tower([1]) == [GrassStep("OG", 0, 1)]
        assert og_tower([2]) == [GrassStep("OG", 1, 2)]
        assert og_tower([1, 2]) == [GrassStep("OG", 0, 1), GrassStep("OG", 1, 3)]
        assert og_tower([2, 1]) == [GrassStep("OG", 1, 2), GrassStep("OG", 0, 1)]
        assert og_tower([3, 4]) == [GrassStep("OG", 1, 3), GrassStep("OG", 2, 5)]
        with pytest.raises(ValueError):
            og_tower([0])

    def test_ig_factors(self):
        assert ig_factors([2, 4]) == [GrassStep("IG", 1, 2), GrassStep("IG", 2, 4)]
        with pytest.raises(ValueError):
            ig_factors([3])


class TestDescriptor:
    def test_preconditions(self):
        with pytest.raises(ValueError, match="not a minimal Richardson orbit"):
            descriptor(P("2,2,1"), Family.B, P("5"), L("1,1;1"))
        with pytest.raises(ValueError, match="not a polarization"):
            descriptor(P("2,2,1"), Family.B, P("3,1,1"), L("1,1;1"))
        with pytest.raises(ValueError, match="not a polarization"):
            descriptor(P("2,2,1"), Family.B, P("3,1,1"), LeviType.from_text("1;2", Family.C))
        with pytest.raises(ValueError, match="not valid"):
            descriptor(P("2,2"), Family.B, P("3,1"), L("1;3"))

    def test_spots(self):
        d = descriptor(P("2,2,1"), Family.B, P("3,1,1"), L("1;3"))
        assert d.og_tower == ()
        assert d.ig_factors == (GrassStep("IG", 1, 2),)
        assert d.dimension == 1
        assert component_count(d) == 1
        assert e_polynomial(d).coeffs == (1, 1)

        d = descriptor(P("3,1,1"), Family.B, P("3,1,1"), L("2;1"))
        assert d.og_tower == (GrassStep("OG", 1, 2),)
        assert d.ig_factors == ()
        assert d.dimension == 0
        assert component_count(d) == 2
        assert e_polynomial(d).coeffs == (2,)

    def test_tall_orbit(self):
        p = P("4,4,4,4,3,3,1")
        d = descriptor(p, Family.B, P("5,5,3,3,3,3,1"), L("2,6;7"))
        assert d.split == 3
        assert d.og_tower == ()
        assert d.ig_factors == (GrassStep("IG", 2, 4),)
        assert d.dimension == 3
        assert 2 * d.dimension == orbit_dim(d.min_richardson, Family.B) - orbit_dim(p, Family.B)

        d = descriptor(p, Family.B, P("5,4,4,4,4,1,1"), L("5,6;1"))
        assert d.og_tower == (GrassStep("OG", 0, 1), GrassStep("OG", 1, 3))
        assert d.dimension == 1
        assert component_count(d) == 1
        assert e_polynomial(d).coeffs == (1, 1)

    def test_as_dict(self):
        d = descriptor(P("2,2,1"), Family.B, P("3,1,1"), L("2;1"))
        assert d.as_dict() == {
            "og_tower": [{"m": 0, "N": 1}],
            "ig_factors": [],
            "dim": 0,
            "components": 1,
            "e_poly": [1],
        }

    def test_e_polynomial_is_built_once_per_descriptor(self):
        p = P("3,3,2,2,1")
        for r, levi in pseudo_polarizations(p, Family.B):
            d = descriptor(p, Family.B, r, levi)
            assert e_polynomial(d) is e_polynomial(descriptor(p, Family.B, r, levi))
            assert d.as_dict()["e_poly"] == list(e_polynomial(d).coeffs)

    def test_degree_matches_dimension_everywhere(self):
        for fam, n in ((Family.B, 9), (Family.C, 8), (Family.D, 8)):
            for p in enumerate_valid(n, fam):
                for r in minimal_richardson_orbits(p, fam):
                    for levi in polarizations(r, fam):
                        d = descriptor(p, fam, r, levi)
                        assert e_polynomial(d).degree == d.dimension
                        assert component_count(d) >= 1


class TestInvariantError:
    def test_degree_mismatch_raises_under_optimize(self, run_optimized):
        # A Lagrangian factor that claims one dimension more than its
        # E-polynomial's degree.
        code = (
            "import dataclasses\n"
            "from nilorbit import (Family, GrassStep, InvariantError, descriptor,\n"
            "                      e_polynomial, parse_partition, pseudo_polarizations)\n"
            "class Bent(GrassStep):\n"
            "    @property\n"
            "    def dimension(self):\n"
            "        return super().dimension + 1\n"
            "p = parse_partition('3,1,1')\n"
            "r, levi = pseudo_polarizations(p, Family.B)[0]\n"
            "d = dataclasses.replace(descriptor(p, Family.B, r, levi),\n"
            "                        ig_factors=(Bent('IG', 1, 2),))\n"
            "try:\n"
            "    e_polynomial(d)\n"
            "except InvariantError:\n"
            "    print('raised')\n"
        )
        assert run_optimized(code) == "raised"


class TestTables:
    # The block table and the tower table, and the per-orbit caches built
    # from them, which must be emptied with them.
    TABLES = ((blocks, "_block"), (Block, "modifications"),
              (spaltenstein, "_tower"), (spaltenstein, "_tower_of"))
    PER_ORBIT = (spaltenstein.orbit_analysis, dual_pair)

    @staticmethod
    def sweep():
        """What the tables serve, for every orbit of B, C and D at ranks
        <= 8: segmentation, modifications, descriptors with their as_dict
        and E-polynomials, and the pairing records of each special B
        orbit."""
        out = []
        for fam in Family:
            for rank in range(1, 9):
                for p in enumerate_valid(2 * rank + fam.size_parity, fam):
                    an = spaltenstein.orbit_analysis(p, fam)
                    ds = an.descriptors
                    out.append((
                        an.decomposition, [blk.modifications() for blk in an.decomposition.blocks],
                        ds, [d.as_dict() for d in ds], [e_polynomial(d) for d in ds],
                        pairing_records(dual_pair(p)) if fam is Family.B and an.special else None,
                    ))
        return out

    def cleared(self):
        for cache in self.PER_ORBIT + tuple(getattr(home, name) for home, name in self.TABLES):
            cache.cache_clear()

    def test_tables_change_nothing(self, monkeypatch):
        # The sweep without the tables (each table's function unwrapped),
        # then twice from empty tables and once warm: the same results each
        # time, and the same table traffic from empty tables.
        self.cleared()
        with monkeypatch.context() as m:
            for home, name in self.TABLES:
                m.setattr(home, name, getattr(home, name).__wrapped__)
            bare = self.sweep()
        self.cleared()

        def traffic():
            return [getattr(home, name).cache_info() for home, name in self.TABLES]

        first = self.sweep(), traffic()
        self.cleared()
        assert (self.sweep(), traffic()) == first
        assert first[0] == bare
        assert self.sweep() == bare
        blocks_used = sum(len(d.blocks) for d, *_ in bare)
        assert traffic()[0].currsize < blocks_used // 4

    def test_orbits_share_blocks(self):
        # 3,3,1 and 3,3,1,1,1 share B1[3,3] and B3[1], and their variants.
        short, long = decompose(P("3,3,1"), Family.B).blocks, decompose(P("3,3,1,1,1"), Family.B).blocks
        assert short[0] is long[0] and short[-1] is long[-1]
        assert short[0].modifications() is long[0].modifications()

    def test_descriptors_share_towers(self):
        # Every descriptor of one tower, across orbits, reads one
        # E-polynomial object; the rank-8 sweep has far fewer towers than
        # descriptors.
        seen, descriptors = {}, 0
        for fam in Family:
            for p in enumerate_valid(16 + fam.size_parity, fam):
                for r, levi in pseudo_polarizations(p, fam):
                    d = descriptor(p, fam, r, levi)
                    poly = seen.setdefault((d.og_tower, d.ig_factors), e_polynomial(d))
                    assert e_polynomial(d) is poly, (fam, p, r, levi)
                    descriptors += 1
        assert len(seen) < descriptors // 4

    @pytest.mark.parametrize("kind, parts", [("B1", (3, 2)), ("B2", (3, 3)), ("C2", (3,)),
                                             ("X1", (1, 1))])
    def test_a_bad_block_raises_each_time(self, kind, parts):
        for build in (Block, blocks._block, blocks._block):
            with pytest.raises(ValueError):
                build(kind, parts)

    @pytest.mark.parametrize("og, ig", [((0,), ()), ((), (3,)), ((2, -1), (2,))])
    def test_bad_multiplicities_raise_each_time(self, og, ig):
        for _ in range(2):
            with pytest.raises(ValueError):
                spaltenstein._tower_of(og, ig)

    def test_a_bad_tower_raises_each_time(self):
        tower = spaltenstein._tower((GrassStep("IG", 1, 2),), ())
        for _ in range(2):
            with pytest.raises(ValueError, match="^tower steps must be orthogonal$"):
                tower.e_polynomial
