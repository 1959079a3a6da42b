import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chtoucakit.errors import InvalidData, NonIntegralExponent
from chtoucakit.l_functions import (
    PlaceData,
    SatakeParams,
    check_bounds,
    is_rank_splittable,
    local_factor,
    partial_l,
    place_pair_stats,
    power_sum,
    spectral_term,
    star_convolve,
)
from chtoucakit.fields import QQ

from test_qlinalg import oracle_q_det


class TestLocalFactor:
    def test_geometric_series(self):
        pd = PlaceData(1, SatakeParams.from_coeffs([1, -1]))
        assert local_factor(pd, 3).coeffs == (Fraction(1),) * 4

    def test_degree_substitution(self):
        pd = PlaceData(2, SatakeParams.from_coeffs([1, -3]))
        s = local_factor(pd, 5)
        assert s.coeffs == (1, 0, 3, 0, 9, 0)

    def test_two_roots(self):
        pd = PlaceData(1, SatakeParams.from_roots([2, 3]))
        s = local_factor(pd, 2)
        assert s.coeffs == (1, 5, 19)

    def test_complete_homogeneous_coefficients(self):
        """The T^{deg k} coefficient is the complete homogeneous
        symmetric function h_k of the roots."""
        from itertools import combinations_with_replacement

        rng = random.Random(3)
        for _ in range(20):
            r = rng.randint(1, 3)
            roots = [Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(r)]
            if any(z == 0 for z in roots):
                continue
            deg = rng.randint(1, 2)
            pd = PlaceData(deg, SatakeParams.from_roots(roots))
            series = local_factor(pd, 4 * deg)
            for k in range(5):
                hk = Fraction(0)
                for combo in combinations_with_replacement(roots, k):
                    term = Fraction(1)
                    for z in combo:
                        term *= z
                    hk += term
                assert series.coeffs[k * deg] == hk
                for off in range(1, deg):
                    if k * deg + off <= series.order:
                        assert series.coeffs[k * deg + off] == 0


class TestPartialL:
    def test_empty_product(self):
        assert partial_l([], 3).coeffs == (1, 0, 0, 0)

    def test_single_place(self):
        pd = PlaceData(1, SatakeParams.from_roots([2]))
        assert partial_l([pd], 4).coeffs == local_factor(pd, 4).coeffs

    def test_matches_series_multiplication(self):
        p1 = PlaceData(1, SatakeParams.from_roots([2]))
        p2 = PlaceData(2, SatakeParams.from_roots([3]))
        direct = local_factor(p1, 6).mul(local_factor(p2, 6))
        assert partial_l([p1, p2], 6).coeffs == direct.coeffs

    def test_permutation_invariance(self):
        places = [
            PlaceData(1, SatakeParams.from_roots([2])),
            PlaceData(2, SatakeParams.from_roots([3])),
            PlaceData(1, SatakeParams.from_roots([Fraction(1, 2), 5])),
        ]
        base = partial_l(places, 5).coeffs
        assert partial_l(places[::-1], 5).coeffs == base
        assert partial_l([places[1], places[0], places[2]], 5).coeffs == base


class TestStarConvolve:
    def test_root_product(self):
        a = SatakeParams.from_roots([2])
        b = SatakeParams.from_roots([3])
        assert star_convolve(a, b).coeffs == (1, -6)

    def test_unit_replication(self):
        unit2 = SatakeParams.from_roots([1, 1])
        b = SatakeParams.from_roots([2, 5])
        assert star_convolve(unit2, b).coeffs == SatakeParams.from_roots([2, 5, 2, 5]).coeffs

    def test_unit_element(self):
        b = SatakeParams.from_roots([2, -3, Fraction(1, 2)])
        assert star_convolve(SatakeParams.from_roots([1]), b).coeffs == b.coeffs

    def test_commutative_associative_degree(self):
        rng = random.Random(5)
        for _ in range(15):
            mk = lambda: SatakeParams.from_roots(
                [Fraction(rng.randint(1, 5), rng.choice([1, 2])) for _ in range(rng.randint(1, 2))]
            )
            a, b, c = mk(), mk(), mk()
            assert star_convolve(a, b).coeffs == star_convolve(b, a).coeffs
            lhs = star_convolve(star_convolve(a, b), c)
            rhs = star_convolve(a, star_convolve(b, c))
            assert lhs.coeffs == rhs.coeffs
            assert lhs.degree == a.degree * b.degree * c.degree

    def test_float_oracle(self):
        rng = random.Random(6)
        for _ in range(40):
            da, db = rng.randint(1, 3), rng.randint(1, 3)
            ca = [Fraction(1)] + [Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(da)]
            cb = [Fraction(1)] + [Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(db)]
            if ca[-1] == 0:
                ca[-1] = Fraction(1)
            if cb[-1] == 0:
                cb[-1] = Fraction(1)
            a, b = SatakeParams(tuple(ca)), SatakeParams(tuple(cb))
            c = star_convolve(a, b)
            prod = np.poly1d([1.0])
            for x in a.float_roots():
                for y in b.float_roots():
                    prod = prod * np.poly1d([-(x * y), 1.0])
            ref = list(prod.coefficients[::-1]) + [0.0] * (c.degree + 1)
            assert max(abs(complex(g) - ref[k]) for k, g in enumerate(c.coeffs)) < 1e-9


class TestPowerSums:
    def test_ramanujan_shape(self):
        p = SatakeParams.from_roots([1, 1, 1])
        for nu in (1, 2, 5, -3):
            assert power_sum(p, nu) == 3

    def test_examples(self):
        p = SatakeParams.from_roots([2, 3])
        assert power_sum(p, 2) == 13
        assert power_sum(p, -1) == Fraction(5, 6)

    def test_zero_nu_rejected(self):
        with pytest.raises(InvalidData):
            power_sum(SatakeParams.from_roots([2]), 0)

    def test_float_agreement(self):
        rng = random.Random(7)
        for _ in range(30):
            deg = rng.randint(1, 5)
            coeffs = [Fraction(1)] + [
                Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(deg)
            ]
            if coeffs[-1] == 0:
                coeffs[-1] = Fraction(1)
            p = SatakeParams(tuple(coeffs))
            roots = p.float_roots()
            for nu in (1, 2, 3):
                ref = sum(z**nu for z in roots)
                assert abs(complex(power_sum(p, nu)) - ref) < 1e-9

    def test_star_multiplicativity(self):
        a = SatakeParams.from_roots([2, Fraction(1, 3)])
        b = SatakeParams.from_roots([5, 7, Fraction(-1, 2)])
        c = star_convolve(a, b)
        for nu in (-3, -2, -1, 1, 2, 3):
            assert power_sum(c, nu) == power_sum(a, nu) * power_sum(b, nu)


class TestPlacePairs:
    @pytest.mark.parametrize("a,b,d,m", [(4, 6, 2, 12), (1, 9, 1, 9), (5, 5, 5, 5)])
    def test_examples(self, a, b, d, m):
        assert place_pair_stats(a, b) == (d, m)


class TestSpectralTerm:
    def test_unit_inputs(self):
        one = SatakeParams.from_roots([1])
        assert spectral_term(1, 1, 3, 2, one, 1, one, 1, 9) == 1

    def test_worked_example(self):
        v = spectral_term(
            1,
            2,
            1,
            1,
            SatakeParams.from_roots([2, Fraction(1, 2)]),
            1,
            SatakeParams.from_roots([3, Fraction(1, 3)]),
            1,
            4,
        )
        assert v == Fraction(100, 3)

    def test_nonintegral_exponent(self):
        one = SatakeParams.from_roots([1])
        with pytest.raises(NonIntegralExponent):
            spectral_term(1, 2, 3, 1, one, 2, one, 1, 4)

    @pytest.mark.parametrize("deg_inf,deg_o", [(0, 1), (1, 0), (-1, 1), (-3, -3), (0, 0)])
    def test_place_degrees_below_one_rejected(self, deg_inf, deg_o):
        # deg(xi) n = 3 is divisible by -1 and -3: checked before divisibility
        one = SatakeParams.from_roots([1])
        with pytest.raises(InvalidData, match="^place degrees must be positive$"):
            spectral_term(1, 2, 3, 1, one, deg_inf, one, deg_o, 4)


class TestBounds:
    def test_rp_unit_circle(self):
        assert check_bounds(PlaceData(1, SatakeParams.from_coeffs([1, 0, 1])), 4, "RP", 1e-9)

    def test_js_boundary_strict(self):
        assert not check_bounds(PlaceData(1, SatakeParams.from_roots([2])), 4, "JS", 1e-9)

    def test_js_interior(self):
        assert check_bounds(
            PlaceData(1, SatakeParams.from_coeffs([1, Fraction(-19, 10)])), 4, "JS", 1e-9
        )

    def test_rp_rejects_off_circle(self):
        assert not check_bounds(PlaceData(1, SatakeParams.from_roots([Fraction(1, 2)])), 4, "RP", 1e-9)


class TestRankSplittable:
    def test_constructed_tables(self):
        c1 = {"x": SatakeParams.from_roots([2]), "y": SatakeParams.from_roots([3, 5])}
        c2 = {"u": SatakeParams.from_roots([7]), "v": SatakeParams.from_roots([Fraction(1, 2)])}
        table = {(x, y): star_convolve(c1[x], c2[y]) for x in c1 for y in c2}
        assert is_rank_splittable(table, c1, c2)

    def test_perturbation_detected(self):
        c1 = {"x": SatakeParams.from_roots([2])}
        c2 = {"u": SatakeParams.from_roots([7])}
        table = {("x", "u"): SatakeParams.from_roots([15])}
        assert not is_rank_splittable(table, c1, c2)

    def test_single_pair(self):
        c1 = {"x": SatakeParams.from_roots([2])}
        c2 = {"u": SatakeParams.from_roots([7])}
        table = {("x", "u"): SatakeParams.from_roots([14])}
        assert is_rank_splittable(table, c1, c2)


# ---------------------------------------------------------------------------
# oracles: the root pairing and the power sums that the Newton-identity
# helpers replaced


def oracle_sylvester_resultant(p, q):
    m = len(p) - 1
    n = len(q) - 1
    if m == 0:
        return p[0] ** n
    if n == 0:
        return q[0] ** m
    size = m + n
    rows = []
    for i in range(n):
        row = [Fraction(0)] * size
        for k, c in enumerate(reversed(p)):
            row[i + k] = c
        rows.append(row)
    for i in range(m):
        row = [Fraction(0)] * size
        for k, c in enumerate(reversed(q)):
            row[i + k] = c
        rows.append(row)
    return oracle_q_det(rows)


def oracle_star_convolve(a, b):
    """z-resultant of the reversal of A with B(zT) at deg+1 points, then
    Lagrange interpolation."""
    ra, rb = a.degree, b.degree
    if ra == 0 or rb == 0:
        return b if ra == 0 else a
    deg_c = ra * rb
    arev = list(reversed(a.coeffs))
    samples = []
    for t in range(deg_c + 1):
        t = Fraction(t)
        bzt = [b.coeffs[k] * t**k for k in range(rb + 1)]
        while len(bzt) > 1 and bzt[-1] == 0:
            bzt.pop()
        samples.append((t, oracle_sylvester_resultant(arev, bzt)))
    coeffs = [Fraction(0)] * (deg_c + 1)
    for i, (xi, yi) in enumerate(samples):
        denom = Fraction(1)
        num = [Fraction(1)]
        for j, (xj, _) in enumerate(samples):
            if j == i:
                continue
            denom *= xi - xj
            shifted = [Fraction(0)] + num
            num = [
                shifted[k] - (xj * shifted[k + 1] if k + 1 < len(shifted) else 0)
                for k in range(len(shifted))
            ]
        for k, c in enumerate(num):
            coeffs[k] += yi / denom * c
    assert coeffs[0] == 1
    return SatakeParams(tuple(coeffs))


def oracle_power_sum(p, nu):
    r = p.degree
    if r == 0:
        return Fraction(0)
    if nu < 0:
        lead = p.coeffs[-1]
        return oracle_power_sum(SatakeParams(tuple(c / lead for c in reversed(p.coeffs))), -nu)
    es = [(-1) ** k * p.coeffs[k] for k in range(r + 1)]
    ps = []
    for k in range(1, nu + 1):
        acc = Fraction(0)
        for i in range(1, min(k, r) + 1):
            term = es[i] * k if k == i else es[i] * ps[k - i - 1]
            acc += (-1) ** (i - 1) * term
        ps.append(acc)
    return ps[nu - 1]


RATIONALS = st.builds(Fraction, st.integers(-7, 7), st.sampled_from([1, 2, 3, 5, 7]))
NONZERO = RATIONALS.filter(lambda x: x != 0)


@st.composite
def satake_params(draw, min_degree=1, max_degree=5):
    deg = draw(st.integers(min_degree, max_degree))
    if deg == 0:
        return SatakeParams((Fraction(1),))
    middle = draw(st.lists(RATIONALS, min_size=deg - 1, max_size=deg - 1))
    return SatakeParams(tuple([Fraction(1)] + middle + [draw(NONZERO)]))


@settings(max_examples=50, deadline=None)
@given(a=satake_params(), b=satake_params())
def test_star_convolve_matches_sylvester_lagrange(a, b):
    assert star_convolve(a, b).coeffs == oracle_star_convolve(a, b).coeffs


@settings(max_examples=50, deadline=None)
@given(p=satake_params(min_degree=0), nu=st.integers(1, 8), sign=st.sampled_from([1, -1]))
def test_power_sum_matches_newton_loop(p, nu, sign):
    assert power_sum(p, sign * nu) == oracle_power_sum(p, sign * nu)


def oracle_local_factor(pd, order):
    """`local_factor`'s recurrence over every k <= m, as it stood before
    the loop stopped at deg * degree, past which denom[k] is zero."""
    denom = [Fraction(0)] * (order + 1)
    for k, c in enumerate(pd.params.coeffs):
        if k * pd.deg <= order:
            denom[k * pd.deg] = c
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    for m in range(1, order + 1):
        acc = Fraction(0)
        for k in range(1, m + 1):
            if denom[k]:
                acc += denom[k] * out[m - k]
        out[m] = -acc
    return tuple(out)


def test_local_factor_matches_the_unbounded_recurrence():
    rng = random.Random(34)
    for _ in range(60):
        deg = rng.randint(1, 4)
        degree = rng.randint(0, 4)
        coeffs = [1] + [Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])) for _ in range(degree)]
        if degree and coeffs[-1] == 0:
            coeffs[-1] = Fraction(1)
        pd = PlaceData(deg, SatakeParams.from_coeffs(coeffs))
        # orders below, at and past deg * degree
        for order in (0, rng.randint(0, deg * degree), deg * degree, deg * degree + rng.randint(1, 12)):
            assert local_factor(pd, order).coeffs == oracle_local_factor(pd, order)


def test_rp_bounds_answer_for_a_q_past_the_float_range():
    """RP mode never reads q, so a q that no float holds, a `TooLarge`
    in JS mode, still gets an answer."""
    small = PlaceData(1, SatakeParams.from_coeffs(["1", "1/2"]))
    assert check_bounds(small, 10**400, "RP", 1e-9) is False
