import random
from fractions import Fraction
from math import floor

import pytest

from chtoucakit.errors import (
    NoDominantChain,
    NotAChain,
    NotConvexEnough,
)
from chtoucakit.hn_truncation import (
    Polygon,
    SplitResult,
    SubobjectLattice,
    SubobjectRecord,
    deg_alpha,
    hn_polygon,
    is_mu_convex,
    is_truncation_parameter,
    polygon_leq,
    polygon_of_filtration,
    split_truncation,
)


def simple_lattice(r, middles, order=None):
    records = [SubobjectRecord("0", 0, 0, 0), SubobjectRecord("E", r, 0, 0)]
    records += [SubobjectRecord(mid_id, rank, d0, d1) for mid_id, rank, d0, d1 in middles]
    return SubobjectLattice.build(r, records, order or [])


class TestDegAlpha:
    def test_endpoints(self):
        rec = SubobjectRecord("F", 1, 2, 4)
        assert deg_alpha(rec, 0) == 2
        assert deg_alpha(rec, 1) == 4
        assert deg_alpha(rec, Fraction(1, 2)) == 3


class TestPolygonOfFiltration:
    def test_trivial_chain_zero(self):
        lat = simple_lattice(2, [])
        p = polygon_of_filtration(lat, ["0", "E"], 0)
        assert p.values == (Fraction(0),) * 3

    def test_displayed_formula(self):
        lat = simple_lattice(2, [("F", 1, 5, 5)])
        p = polygon_of_filtration(lat, ["0", "F", "E"], Fraction(1, 2))
        assert p.values == (Fraction(0), Fraction(5), Fraction(0))

    def test_interpolation(self):
        records = [
            SubobjectRecord("0", 0, 0, 0),
            SubobjectRecord("F", 2, 4, 4),
            SubobjectRecord("E", 3, 3, 3),
        ]
        lat = SubobjectLattice.build(3, records, [("0", "F"), ("F", "E")])
        p = polygon_of_filtration(lat, ["0", "F", "E"], 0)
        assert p.values == (Fraction(0), Fraction(1), Fraction(2), Fraction(0))

    def test_not_a_chain(self):
        lat = simple_lattice(3, [("A", 1, 1, 1), ("B", 2, 1, 1)])
        with pytest.raises(NotAChain):
            polygon_of_filtration(lat, ["0", "B", "A", "E"], 0)


class TestHnPolygon:
    def test_trivial(self):
        lat = simple_lattice(2, [])
        polygon, chain = hn_polygon(lat, 0)
        assert polygon.values == (Fraction(0),) * 3
        assert chain == ("0", "E")

    def test_positive_middle_selected(self):
        lat = simple_lattice(2, [("F", 1, 5, 5)])
        polygon, chain = hn_polygon(lat, 0)
        assert chain == ("0", "F", "E")
        assert polygon.values[1] == 5

    def test_negative_middle_skipped(self):
        lat = simple_lattice(2, [("F", 1, -5, -5)])
        polygon, chain = hn_polygon(lat, 0)
        assert chain == ("0", "E")
        assert polygon.values == (Fraction(0),) * 3

    def test_crossing_raises(self):
        lat = simple_lattice(3, [("A", 1, 3, 3), ("B", 2, 4, 4)])
        with pytest.raises(NoDominantChain):
            hn_polygon(lat, 0)

    def test_equal_slope_tie_raises(self):
        # two incomparable middles with identical polygons: two distinct
        # coarsest achievers
        lat = simple_lattice(2, [("A", 1, 5, 5), ("B", 1, 5, 5)])
        with pytest.raises(NoDominantChain):
            hn_polygon(lat, 0)

    def test_dominates_all_chains(self):
        from chtoucakit.hn_truncation import _all_chains

        rng = random.Random(13)
        for _ in range(40):
            r = rng.randint(2, 4)
            mids = []
            ranks = sorted(rng.sample(range(1, r), rng.randint(0, r - 1)))
            for i, rank in enumerate(ranks):
                mids.append((f"m{i}", rank, rng.randint(-6, 6), rng.randint(-6, 6)))
            order = [(f"m{i}", f"m{j}") for i in range(len(ranks)) for j in range(i + 1, len(ranks))]
            lat = simple_lattice(r, mids, order)
            polygon, chain = hn_polygon(lat, Fraction(1, 3))
            for other in _all_chains(lat):
                assert polygon_leq(polygon_of_filtration(lat, other, Fraction(1, 3)), polygon)


class TestPolygonLeq:
    def test_reflexive_antisymmetric_transitive(self):
        a = Polygon.from_values([0, 1, 0])
        b = Polygon.from_values([0, 2, 0])
        c = Polygon.from_values([0, 3, 0])
        assert polygon_leq(a, a)
        assert polygon_leq(a, b) and polygon_leq(b, c) and polygon_leq(a, c)
        assert not (polygon_leq(a, b) and polygon_leq(b, a))

    def test_zero_below_truncation_parameters(self):
        zero = Polygon.from_values([0, 0, 0])
        assert polygon_leq(zero, Polygon.from_values([0, 5, 0]))

    def test_counterexample(self):
        assert not polygon_leq(Polygon.from_values([0, 5, 0]), Polygon.from_values([0, 4, 0]))


class TestMuConvex:
    def test_quadratic_profile(self):
        for r in (2, 3, 4, 5):
            vals = [Fraction(rho * (r - rho)) for rho in range(r + 1)]
            p = Polygon.from_values(vals)
            assert is_mu_convex(p, 2)
            assert not is_mu_convex(p, Fraction(5, 2))

    def test_zero_polygon(self):
        p = Polygon.from_values([0, 0, 0])
        assert is_mu_convex(p, 0)
        assert not is_mu_convex(p, Fraction(1, 100))

    def test_spec_example(self):
        p = Polygon.from_values([0, 4, 4, 0])
        assert is_mu_convex(p, 4)
        assert not is_mu_convex(p, Fraction(41, 10))


class TestSplitTruncation:
    def test_single_block(self):
        p = Polygon.from_values([0, 4, 4, 0])
        res = split_truncation(p, 7, [])
        assert res.d_parts == (7,)
        assert res.p_parts[0].r == 3

    def test_hand_example_r3(self):
        p = Polygon.from_values([0, 4, 4, 0])
        res = split_truncation(p, 0, [1])
        assert res.d_parts == (4, -5)
        assert sum(res.d_parts) == 0 - 2 + 1
        assert res.p_parts[1].values == (Fraction(0), Fraction(3, 2), Fraction(0))

    def test_hand_example_r4(self):
        p = Polygon.from_values([0, 3, 4, 3, 0])
        res = split_truncation(p, 2, [2])
        assert res.d_parts == (5, -4)
        assert sum(res.d_parts) == 2 - 2 + 1

    def test_not_convex_enough(self):
        p = Polygon.from_values([0, 1, 1, 0])  # drops of 1 only
        with pytest.raises(NotConvexEnough):
            split_truncation(p, 0, [1])

    # inputs whose parts fall below mu - 2 at the left end of their
    # second block, found by seeded sweeps (values, d, cuts, d_parts,
    # second part)
    BELOW_MU_MINUS_TWO = [
        (["0", "21/2", "29/2", "10", "0"], -3, [2], (13, -17), ["0", "3/2", "0"]),
        (["0", "124/7", "405/14", "239/7", "244/7", "200/7", "249/14", "0"], 4, [2],
         (30, -27), ["0", "47/5", "84/5", "81/5", "58/5", "0"]),
    ]

    def test_parts_are_floor_mu_minus_two_convex(self):
        rng = random.Random(28)
        below = 0
        for _ in range(2000):
            r = rng.randint(2, 8)
            drops = [rng.randint(2, 6) + Fraction(rng.randint(0, 8), rng.choice((1, 2, 3)))
                     for _ in range(r - 1)]
            p = _polygon_with_drops(drops)
            mu = min(drops)
            cuts = sorted(rng.sample(range(1, r), rng.randint(0, r - 1)))
            for part in split_truncation(p, rng.randint(-20, 20), cuts).p_parts:
                assert is_mu_convex(part, floor(mu) - 2)
                assert is_mu_convex(part, mu - 2) or mu.denominator > 1
                below += not is_mu_convex(part, mu - 2)
        assert below > 0
        for values, d, cuts, d_parts, second in self.BELOW_MU_MINUS_TWO:
            p = Polygon.from_values([Fraction(v) for v in values])
            mu = min(p.second_drop(rho) for rho in range(1, p.r))
            res = split_truncation(p, d, cuts)
            assert res.d_parts == d_parts
            assert res.p_parts[1].values == tuple(Fraction(v) for v in second)
            assert is_mu_convex(res.p_parts[1], floor(mu) - 2)
            assert not is_mu_convex(res.p_parts[1], mu - 2)

    def test_blocks_by_base_match_per_block_oracle(self):
        rng = random.Random(2028)
        for _ in range(500):
            r = rng.randint(2, 8)
            drops = [rng.randint(2, 6) + Fraction(rng.randint(0, 8), rng.choice((1, 2, 3)))
                     for _ in range(r - 1)]
            p = _polygon_with_drops(drops)
            d = rng.randint(-20, 20)
            cuts = sorted(rng.sample(range(1, r), rng.randint(0, r - 1)))
            assert split_truncation(p, d, cuts) == oracle_split_truncation(p, d, cuts)

    def test_degree_identity_random(self):
        rng = random.Random(14)
        for _ in range(200):
            r = rng.randint(2, 8)
            drops = [Fraction(2) + Fraction(rng.randint(0, 6)) for _ in range(r - 1)]
            raw = [Fraction(0)]
            acc = Fraction(0)
            for d in drops:
                acc += d
                raw.append(acc)
            shift = Fraction(sum(raw[rho] for rho in range(r)), r)
            vals = [Fraction(0)]
            for rho in range(r):
                vals.append(vals[-1] + shift - raw[rho])
            p = Polygon(r, tuple(vals))
            assert is_truncation_parameter(p)
            d = rng.randint(-20, 20)
            cuts = sorted(rng.sample(range(1, r), rng.randint(0, r - 1)))
            res = split_truncation(p, d, cuts)
            assert sum(res.d_parts) == d - (len(cuts) + 1) + 1
            for part in res.p_parts:
                assert is_truncation_parameter(part)


def _polygon_with_drops(drops):
    """The truncation parameter of length len(drops) + 1 whose second
    drops are ``drops``."""
    raw = [Fraction(0)]
    for d in drops:
        raw.append(raw[-1] + d)
    r = len(drops) + 1
    shift = Fraction(sum(raw), r)
    vals = [Fraction(0)]
    for rho in range(r):
        vals.append(vals[-1] + shift - raw[rho])
    return Polygon(r, tuple(vals))


def oracle_split_truncation(p, d, cuts):
    """The former body of `split_truncation` on valid input: d_1 and
    each later d_sigma from its own formula, and each part's values case
    by case."""
    r = p.r
    bounds = [0] + sorted(set(cuts)) + [r]
    s = len(bounds) - 1
    ptilde = [floor(p.values[rho] + Fraction(rho * d, r)) for rho in range(r + 1)]
    d_parts = [ptilde[bounds[1]]]
    for sigma in range(2, s + 1):
        d_parts.append(ptilde[bounds[sigma]] - ptilde[bounds[sigma - 1]] - 1)
    p_parts = []
    for sigma in range(1, s + 1):
        lo, hi = bounds[sigma - 1], bounds[sigma]
        m = hi - lo
        vals = []
        for rho in range(m + 1):
            if rho == 0 or rho == m:
                vals.append(Fraction(0))
            elif sigma == 1:
                vals.append(ptilde[rho] - Fraction(rho * d_parts[0], m))
            else:
                vals.append(ptilde[lo + rho] - ptilde[lo] - 1 - Fraction(rho * d_parts[sigma - 1], m))
        p_parts.append(Polygon(m, tuple(vals)))
    return SplitResult(tuple(d_parts), tuple(p_parts))
