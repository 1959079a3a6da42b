import random
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chtoucakit import complete_homs as ch, fields, qlinalg
from chtoucakit.errors import InvalidData, NotOnStratum, Singular, ZeroLambda, ZeroMu
from chtoucakit.fields import GF, QQ, fmat_eq, fmat_identity, fmat_mul, scaled, unscaled
from chtoucakit.qlinalg import inverse as fmat_inverse
from chtoucakit.complete_homs import (
    CompleteHom,
    StratumData,
    build_stratum_point,
    complete_from_open,
    composition_from_subset,
    compounds,
    exterior_power,
    wedge_subsets,
    lang_isogeny,
    satisfies_open_relations,
    stratum_data,
    stratum_of,
    subset_from_composition,
    torus_action,
)
from chtoucakit.graph_gluing import family_from_stratum
from chtoucakit.jsonio import dumps_canonical, hom_to_json, stratum_to_json
from test_qlinalg import GENERIC_QQ


def rand_scalar(field, rng):
    if field is QQ:
        return Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3]))
    return rng.randrange(field.order)


def rand_nonzero(field, rng):
    while True:
        x = rand_scalar(field, rng)
        if not field.is_zero(x):
            return x


def rand_invertible(field, rng, n):
    while True:
        m = [[rand_scalar(field, rng) for _ in range(n)] for _ in range(n)]
        if fmat_inverse(field, m) is not None:
            return m


def rand_stratum_data(field, rng, r, cuts=None):
    if cuts is None:
        cuts = tuple(sorted(rng.sample(range(1, r), rng.randint(0, r - 1))))
    bounds = [0] + list(cuts) + [r]
    g1 = rand_invertible(field, rng, r)
    g2 = rand_invertible(field, rng, r)
    vfilt = tuple(tuple(tuple(g1[i]) for i in range(cut, r)) for cut in cuts)
    wfilt = tuple(tuple(tuple(g2[i]) for i in range(0, cut)) for cut in cuts)
    v = tuple(
        tuple(tuple(row) for row in rand_invertible(field, rng, bounds[t + 1] - bounds[t]))
        for t in range(len(bounds) - 1)
    )
    scales = tuple(rand_nonzero(field, rng) for _ in range(len(bounds) - 1))
    free = tuple(
        sorted((rho, rand_nonzero(field, rng)) for rho in range(1, r) if rho not in cuts)
    )
    return StratumData(field, r, cuts, vfilt, wfilt, v, scales, free)


class TestExteriorPower:
    def test_identity(self):
        i3 = fmat_identity(QQ, 3)
        assert exterior_power(QQ, i3, 2) == i3

    def test_diagonal(self):
        d = [[Fraction(v if i == j else 0) for j, v in enumerate((1, 2, 3))] for i in range(3)]
        w2 = exterior_power(QQ, d, 2)
        assert [w2[i][i] for i in range(3)] == [Fraction(2), Fraction(3), Fraction(6)]

    def test_top_power_is_determinant(self):
        rng = random.Random(1)
        for _ in range(20):
            m = [[rand_scalar(QQ, rng) for _ in range(3)] for _ in range(3)]
            from chtoucakit.qlinalg import det as fmat_det

            assert exterior_power(QQ, m, 3) == [[fmat_det(QQ, m)]]

    def test_cauchy_binet_over_gf5(self):
        field = GF(5, 1)
        rng = random.Random(2)
        for _ in range(25):
            a = rand_invertible(field, rng, 3)
            b = rand_invertible(field, rng, 3)
            lhs = exterior_power(field, fmat_mul(field, a, b), 2)
            rhs = fmat_mul(field, exterior_power(field, a, 2), exterior_power(field, b, 2))
            assert fmat_eq(field, lhs, rhs)


class TestOpenLocus:
    def test_u2_is_det_over_lambda(self):
        h = complete_from_open(QQ, fmat_identity(QQ, 2), (Fraction(5),))
        assert h.u[1] == [[Fraction(1, 5)]]

    def test_unit_lambda(self):
        h = complete_from_open(QQ, fmat_identity(QQ, 2), (Fraction(1),))
        assert h.u[1] == [[Fraction(1)]]

    def test_diag_minors(self):
        d = [[Fraction(v if i == j else 0) for j, v in enumerate((1, 2, 3))] for i in range(3)]
        h = complete_from_open(QQ, d, (Fraction(1), Fraction(1)))
        assert [h.u[1][i][i] for i in range(3)] == [Fraction(2), Fraction(3), Fraction(6)]
        assert h.u[2] == [[Fraction(6)]]

    def test_relations_hold(self):
        rng = random.Random(3)
        for field in (QQ, GF(5, 1)):
            for _ in range(10):
                u1 = rand_invertible(field, rng, 3)
                lams = (rand_nonzero(field, rng), rand_nonzero(field, rng))
                assert satisfies_open_relations(complete_from_open(field, u1, lams))

    def test_singular_rejected(self):
        with pytest.raises(Singular):
            complete_from_open(QQ, [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]], (Fraction(1),))

    def test_zero_lambda_rejected(self):
        with pytest.raises(ZeroLambda):
            complete_from_open(QQ, fmat_identity(QQ, 2), (Fraction(0),))


def test_stratum_of_open_is_empty():
    h = complete_from_open(QQ, fmat_identity(QQ, 2), (Fraction(3),))
    assert stratum_of(h) == ()


def test_stratum_of_via_build():
    """lambda = (0, x, 0) shapes come out as the cut set {1, 3}."""
    rng = random.Random(5)
    seen = set()
    for _ in range(40):
        d = rand_stratum_data(QQ, rng, 4)
        h = build_stratum_point(d)
        assert stratum_of(h) == d.cuts
        seen.add(d.cuts)
    assert (1, 3) in seen or len(seen) >= 4


class TestTorusAction:
    def test_identity_action(self):
        h = complete_from_open(QQ, fmat_identity(QQ, 2), (Fraction(5),))
        acted = torus_action(h, (Fraction(1),))
        assert acted.eq(h)

    def test_r2_scaling(self):
        h = complete_from_open(QQ, fmat_identity(QQ, 2), (Fraction(5),))
        acted = torus_action(h, (Fraction(3),))
        assert acted.u[1] == [[Fraction(1, 15)]]
        assert acted.lams == (Fraction(15),)

    def test_group_law(self):
        rng = random.Random(7)
        for field in (QQ, GF(5, 1)):
            for _ in range(10):
                d = rand_stratum_data(field, rng, 3)
                h = build_stratum_point(d)
                mu1 = tuple(rand_nonzero(field, rng) for _ in range(2))
                mu2 = tuple(rand_nonzero(field, rng) for _ in range(2))
                lhs = torus_action(torus_action(h, mu1), mu2)
                rhs = torus_action(h, tuple(field.mul(a, b) for a, b in zip(mu1, mu2)))
                assert lhs.eq(rhs)

    def test_preserves_relations_and_stratum(self):
        rng = random.Random(8)
        h = complete_from_open(QQ, rand_invertible(QQ, rng, 3), (Fraction(2), Fraction(3)))
        acted = torus_action(h, (Fraction(5), Fraction(7)))
        assert satisfies_open_relations(acted)
        assert stratum_of(acted) == stratum_of(h)

    def test_zero_mu_rejected(self):
        h = complete_from_open(QQ, fmat_identity(QQ, 2), (Fraction(5),))
        with pytest.raises(ZeroMu):
            torus_action(h, (Fraction(0),))


class TestCompositions:
    def test_bijection_counts(self):
        from itertools import combinations

        for r in range(1, 9):
            subsets = []
            for k in range(r):
                subsets.extend(combinations(range(1, r), k))
            comps = {composition_from_subset(r, s) for s in subsets}
            assert len(comps) == 2 ** (r - 1)
            for s in subsets:
                assert subset_from_composition(composition_from_subset(r, s)) == tuple(sorted(s))


class TestStratumRoundTrip:
    def test_spec_elementary_example(self):
        one, zero = Fraction(1), Fraction(0)
        d = StratumData(
            QQ,
            2,
            (1,),
            vfilt=(((one, zero),),),
            wfilt=(((one, zero),),),
            v=(((one,),), ((one,),)),
            scales=(one, one),
            free_lams=(),
        )
        h = build_stratum_point(d)
        assert h.u[0] == [[zero, one], [zero, zero]]
        assert h.u[1] in ([[one]], [[-one]])
        rec = stratum_data(h)
        assert rec.eq(d.normalized())

    @pytest.mark.parametrize("field", [QQ, GF(5, 1)])
    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_random_round_trips(self, field, r):
        rng = random.Random(100 * r + (0 if field is QQ else 1))
        for _ in range(15):
            d = rand_stratum_data(field, rng, r)
            h = build_stratum_point(d)
            rec = stratum_data(h)
            assert rec.eq(d.normalized())
            assert build_stratum_point(rec).eq(h)

    def test_open_stratum_reduces_to_complete_from_open(self):
        rng = random.Random(11)
        u1 = rand_invertible(QQ, rng, 3)
        lams = (Fraction(2), Fraction(-3))
        d = StratumData(
            QQ,
            3,
            (),
            vfilt=(),
            wfilt=(),
            v=(tuple(tuple(row) for row in u1),),
            scales=(Fraction(1),),
            free_lams=((1, lams[0]), (2, lams[1])),
        )
        assert build_stratum_point(d).eq(complete_from_open(QQ, u1, lams))

    def test_corrupted_input_rejected(self):
        rng = random.Random(12)
        field = GF(5, 1)
        while True:
            d = rand_stratum_data(field, rng, 3)
            if d.cuts:
                break
        h = build_stratum_point(d)
        u = list(h.u)
        u[1] = rand_invertible(field, rng, 3)
        with pytest.raises(NotOnStratum):
            stratum_data(CompleteHom(field, 3, tuple(u), h.lams))


class TestLang:
    def test_rational_entries_fixed(self):
        field = GF(2, 2)
        g = [[field.one(), field.zero()], [field.one(), field.one()]]
        assert fmat_eq(field, lang_isogeny(g, 2, field), fmat_identity(field, 2))

    def test_f4_generator(self):
        field = GF(2, 2)
        omega = 2
        out = lang_isogeny([[omega]], 2, field)
        # tau(w)^{-1} w = w^{1-2} = w^2
        assert out[0][0] == field.mul(omega, omega)

    def test_fixed_points_characterization(self):
        field = GF(2, 2)
        fixed = []
        for i in range(1, 4):
            g = [[i]]
            if fmat_eq(field, lang_isogeny(g, 2, field), fmat_identity(field, 1)):
                fixed.append(i)
        assert fixed == [1]

    def test_singular_rejected(self):
        field = GF(2, 2)
        with pytest.raises(Singular):
            lang_isogeny([[field.zero()]], 2, field)


# ---------------------------------------------------------------------------
# the compound table against the per-minor determinants it replaced


def oracle_exterior_power(field, a, rho):
    """One qlinalg.det per rho x rho minor: the former exterior_power."""
    subs = wedge_subsets(len(a), rho)
    return [
        [qlinalg.det(field, [[a[i][j] for j in cols] for i in rows]) for cols in subs]
        for rows in subs
    ]


DIFF_FIELDS = [QQ, GF(5, 1), GF(2, 2), GF(3, 2)]


def field_element(field):
    if field is QQ:
        return st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3]))
    return st.integers(0, field.order - 1)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compounds_match_per_minor_determinants(data):
    field = data.draw(st.sampled_from(DIFF_FIELDS))
    r = data.draw(st.integers(1, 5))
    a = data.draw(st.lists(st.lists(field_element(field), min_size=r, max_size=r), min_size=r, max_size=r))
    if r > 1 and data.draw(st.booleans()):
        # a repeated row makes the matrix singular and every full-rank minor vanish
        a[r - 1] = list(a[0])
    table = compounds(field, a, r)
    assert len(table) == r
    for rho in range(1, r + 1):
        expected = oracle_exterior_power(field, a, rho)
        assert fmat_eq(field, table[rho - 1], expected)
        assert fmat_eq(field, exterior_power(field, a, rho), expected)


# ---------------------------------------------------------------------------
# adapted bases and nesting checks: one reduction per flag against the
# greedy per-row completion and the per-row nesting loops they replaced,
# kept here as the test oracles


def oracle_complete_rows(field, have: list, pool: list, target_rank: int):
    """Extend `have` with rows from `pool` (scanned in order) until the
    collection has the target rank: one full rank per candidate row."""
    out = list(have)
    for row in pool:
        if len(out) == target_rank:
            break
        if qlinalg.rank(field, out + [row]) == len(out) + 1:
            out.append(row)
    if len(out) != target_rank:
        raise InvalidData("cannot complete basis: containment violated")
    return out


def field_adapted_bases(field, r, vfilt, wfilt):
    """The adapted bases (A, B) of `ch._validate_stratum_data` for members
    given as matrices of field elements, as matrices of field elements:
    `ch._flag_blocks` on the members' canonical bases, one flag per side."""
    def adapted(members):
        spaces = [qlinalg.scaled_row_basis(field, scaled(field, m)[0]) for m in members]
        flag = ch._flag_blocks(field, r, spaces)
        if flag is None:
            raise InvalidData("cannot complete basis: containment violated")
        return flag

    v_blocks, a_e = adapted(vfilt[::-1])
    w_blocks, b_e = adapted(wfilt)
    return unscaled(field, ch._columns(v_blocks[::-1], a_e)), unscaled(field, ch._columns(w_blocks, b_e))


def oracle_adapted_bases(field, r, cuts, vfilt, wfilt):
    """The adapted bases by greedy completion, block by block."""
    s = len(cuts) + 1
    std = fmat_identity(field, r)
    v_spaces = [std] + [qlinalg.row_basis(field, [list(row) for row in m]) for m in vfilt] + [[]]
    collected: list = []
    v_blocks: list = [None] * s
    for sigma in range(s, 0, -1):
        new = oracle_complete_rows(field, collected, v_spaces[sigma - 1], len(v_spaces[sigma - 1]))
        v_blocks[sigma - 1] = new[len(collected):]
        collected = new
    a_cols = [row for block in v_blocks for row in block]
    w_spaces = [[]] + [qlinalg.row_basis(field, [list(row) for row in m]) for m in wfilt] + [std]
    collected = []
    w_blocks: list = [None] * s
    for sigma in range(1, s + 1):
        new = oracle_complete_rows(field, collected, w_spaces[sigma], len(w_spaces[sigma]))
        w_blocks[sigma - 1] = new[len(collected):]
        collected = new
    b_cols = [row for block in w_blocks for row in block]
    a = [[a_cols[j][i] for j in range(r)] for i in range(r)]
    b = [[b_cols[j][i] for j in range(r)] for i in range(r)]
    return a, b


def oracle_nested(field, chain) -> bool:
    """The per-row nesting loop: every row of chain[t] lies in the span of
    chain[t + 1], one rank and one row basis per row."""
    for small, big in zip(chain, chain[1:]):
        big = [list(row) for row in big]
        for row in small:
            if qlinalg.rank(field, big + [list(row)]) != len(qlinalg.row_basis(field, big)):
                return False
    return True


ORACLE_FIELDS = [QQ, GF(2, 1), GF(2, 2), GF(5, 1), GF(3, 2)]


def outcome(call):
    try:
        return call()
    except InvalidData as e:
        return type(e), str(e)


def redundant_span(field, rng, rows):
    """Spanning rows of span(rows): an invertible recombination of them,
    a few redundant combinations, shuffled."""
    k = len(rows)
    if not k:
        return ()
    mix = fmat_mul(field, rand_invertible(field, rng, k), [list(row) for row in rows])
    extra = fmat_mul(
        field, [[rand_scalar(field, rng) for _ in range(k)] for _ in range(rng.randint(0, 2))], mix
    )
    out = mix + extra
    rng.shuffle(out)
    return tuple(tuple(row) for row in out)


def rand_flags(field, rng, r):
    """Cuts and a nested flag pair whose members carry redundant rows."""
    cuts = tuple(sorted(rng.sample(range(1, r), rng.randint(0, r - 1))))
    g1 = rand_invertible(field, rng, r)
    g2 = rand_invertible(field, rng, r)
    vfilt = tuple(redundant_span(field, rng, g1[cut:]) for cut in cuts)
    wfilt = tuple(redundant_span(field, rng, g2[:cut]) for cut in cuts)
    return cuts, vfilt, wfilt


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_adapted_bases_match_greedy_oracle_on_redundant_flags(data):
    field = data.draw(st.sampled_from(ORACLE_FIELDS))
    r = data.draw(st.integers(1, 5))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    cuts, vfilt, wfilt = rand_flags(field, rng, r)
    if len(cuts) > 1 and data.draw(st.booleans()):
        # a flag listed in the wrong order is not nested: both reject it
        if data.draw(st.booleans()):
            vfilt = vfilt[::-1]
        else:
            wfilt = wfilt[::-1]
    new = outcome(lambda: field_adapted_bases(field, r, vfilt, wfilt))
    assert new == outcome(lambda: oracle_adapted_bases(field, r, cuts, vfilt, wfilt))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_adapted_bases_match_greedy_oracle_on_recovered_flags(data):
    field = data.draw(st.sampled_from(ORACLE_FIELDS))
    r = data.draw(st.integers(1, 4))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    rec = stratum_data(build_stratum_point(rand_stratum_data(field, rng, r)))
    new = field_adapted_bases(field, r, rec.vfilt, rec.wfilt)
    assert new == oracle_adapted_bases(field, r, rec.cuts, rec.vfilt, rec.wfilt)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_nesting_check_matches_per_row_oracle(data):
    field = data.draw(st.sampled_from(ORACLE_FIELDS))
    r = data.draw(st.integers(2, 5))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    _, vfilt, wfilt = rand_flags(field, rng, r)
    chain = list(data.draw(st.sampled_from([vfilt[::-1], wfilt])))
    if chain and data.draw(st.booleans()):
        # swap one member for another space of the same dimension
        t = rng.randrange(len(chain))
        dim = qlinalg.rank(field, [list(row) for row in chain[t]])
        chain[t] = redundant_span(field, rng, rand_invertible(field, rng, r)[:dim])
    spaces = [qlinalg.scaled_row_basis(field, scaled(field, m)[0]) for m in chain]
    assert (ch._flag_blocks(field, r, spaces) is None) == (not oracle_nested(field, chain))


@contextmanager
def counting_stratum_work():
    """Count calls of the stratum helpers and of the two elimination loops."""
    counts = Counter()

    def spy(module, name):
        real = getattr(module, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return real(*args, **kwargs)

        return mock.patch.object(module, name, call)

    names = ("_flag_blocks", "_validate_stratum_data", "build_stratum_point", "_stratum_point")
    with ExitStack() as stack:
        for name in names:
            stack.enter_context(spy(ch, name))
        for name in ("_eliminate", "_forward", "_bareiss"):
            stack.enter_context(spy(qlinalg, name))
        yield counts


def test_stratum_data_validates_once_and_reduces_each_flag_once():
    # over GF(p^k) a reduction is one field-generic `_forward`, over Q one
    # integer `_bareiss`
    for field, reduction, other in ((GF(5, 1), "_forward", "_bareiss"),
                                    (QQ, "_bareiss", "_forward")):
        rng = random.Random(41)
        while True:
            d = rand_stratum_data(field, rng, 4)
            if len(d.cuts) == 2:
                break
        h = build_stratum_point(d)
        with counting_stratum_work() as counts:
            rec = stratum_data(h)
        assert rec.eq(d.normalized())
        # one flag reduction per side, which also decides the nesting
        assert counts["_flag_blocks"] == 2
        assert counts["_stratum_point"] == 1
        assert counts["_validate_stratum_data"] == counts["build_stratum_point"] == 0
        # per cut 5 reductions recover V^t and W_t; then the 2 flags, B^-1,
        # the 3 graded-map determinants and A^-1 of the rebuild
        assert counts["_eliminate"] == 5 * 2 + 2 + 1 + 3 + 1
        with counting_stratum_work() as counts:
            field_adapted_bases(rec.field, 4, rec.vfilt, rec.wfilt)
        # one canonical basis per member and one reduction per side
        assert counts[reduction] == 2 * len(rec.cuts) + 2
        assert counts[other] == 0


@pytest.mark.parametrize("field", [QQ, GF(5, 1)], ids=["Q", "GF5"])
def test_deepest_stratum_round_trip_eliminates_a_pinned_number_of_times(field):
    """r = 4, cuts (1, 2, 3).  Building the point reduces each of the 6
    filtration members once, each flag once, takes the 4 graded-map
    determinants and A^-1: 13 eliminations.  Recovering it takes 5 per
    cut for V^t and W_t, the 2 flags, B^-1, the 4 block determinants and
    A^-1 of the rebuild: 23.  A second rank or row reduction of a member
    shows here."""
    d = rand_stratum_data(field, random.Random(43), 4, (1, 2, 3))
    with counting_stratum_work() as counts:
        h = build_stratum_point(d)
    assert counts["_eliminate"] == 6 + 2 + 4 + 1
    with counting_stratum_work() as counts:
        rec = stratum_data(h)
    assert counts["_eliminate"] == 5 * 3 + 2 + 1 + 4 + 1
    assert rec.eq(d.normalized())


@contextmanager
def counting_clears_and_fractions():
    """Count the calls to `fields._clear_denominators` and `fields._over`."""
    counts = Counter()

    def spy(name):
        real = getattr(fields, name)

        def call(*args):
            counts[name] += 1
            return real(*args)

        return mock.patch.object(fields, name, call)

    with spy("_clear_denominators"), spy("_over"):
        yield counts


def test_rational_round_trip_clears_and_forms_fractions_a_pinned_number_of_times():
    """One Q round trip (r = 4, cuts (1, 3)) clears denominators once per
    input matrix (4 filtration members, 3 graded maps, 4 u_rho) and forms
    Fractions once per output matrix (4 u_rho, then 2 + 2 members and 3
    graded maps): a fall-back to clearing and rebuilding at every step
    shows here without any timing."""
    d = rand_stratum_data(QQ, random.Random(42), 4, (1, 3))
    with counting_clears_and_fractions() as counts:
        h = build_stratum_point(d)
        assert counts == {"_clear_denominators": 7, "_over": 4}
        rec = stratum_data(h)
    assert counts == {"_clear_denominators": 11, "_over": 11}
    assert rec.eq(d.normalized())


@pytest.mark.parametrize("cuts", [(1,), (2,)])
def test_rational_family_clears_and_forms_fractions_a_pinned_number_of_times(cuts):
    """One Q glued-graph family (r = 3, one cut) clears denominators once
    per input matrix (1 + 1 members, 2 graded maps) and once per pavé's
    rank check, and forms Fractions for the adapted bases A and B and
    for each block's images: the graph rows are built from the scaled
    true graded maps, not from Fractions cleared again."""
    d = rand_stratum_data(QQ, random.Random(42), 3, cuts)
    with counting_clears_and_fractions() as counts:
        family_from_stratum(d)
    assert counts == {"_clear_denominators": 6, "_over": 4}


@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_rational_round_trips_match_generic_loops(r):
    """On every cut set, the integer path over Q and the field-generic
    loops run on Q give the same point and the same recovered data, byte
    for byte on the wire."""
    rng = random.Random(7000 + r)
    for k in range(r):
        for cuts in combinations(range(1, r), k):
            d = rand_stratum_data(QQ, rng, r, cuts)
            h = build_stratum_point(d)
            oracle = build_stratum_point(replace(d, field=GENERIC_QQ))
            assert dumps_canonical(hom_to_json(h)) == dumps_canonical(
                hom_to_json(replace(oracle, field=QQ))
            )
            rec = stratum_data(h)
            rec_oracle = stratum_data(oracle)
            assert dumps_canonical(stratum_to_json(rec)) == dumps_canonical(
                stratum_to_json(replace(rec_oracle, field=QQ))
            )


# the nesting errors, pinned on members that carry redundant rows


def flag_data(field, vfilt, wfilt):
    """r = 3, cuts {1, 2}, identity graded maps; entries given as ints."""
    def space(rows):
        return tuple(tuple(field.parse(str(x)) for x in row) for row in rows)

    one = field.one()
    return StratumData(
        field, 3, (1, 2), tuple(map(space, vfilt)), tuple(map(space, wfilt)),
        (((one,),),) * 3, (one,) * 3, (),
    )


NESTED_V = ([[1, 0, 0], [0, 1, 0], [1, 1, 0]], [[0, 1, 0], [0, 2, 0]])
NESTED_W = ([[1, 0, 0], [2, 0, 0]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]])


@pytest.mark.parametrize("field", [QQ, GF(5, 1), GF(3, 2)], ids=["Q", "GF5", "GF9"])
@pytest.mark.parametrize("build", [build_stratum_point, family_from_stratum])
def test_filtrations_that_are_not_nested_are_rejected(field, build):
    build(flag_data(field, NESTED_V, NESTED_W))
    v_not_decreasing = (NESTED_V[0], [[0, 0, 1], [0, 0, 2]])
    with pytest.raises(InvalidData, match="^V filtration is not decreasing$"):
        build(flag_data(field, v_not_decreasing, NESTED_W))
    w_not_increasing = ([[0, 0, 1], [0, 0, 2]], NESTED_W[1])
    with pytest.raises(InvalidData, match="^W filtration is not increasing$"):
        build(flag_data(field, NESTED_V, w_not_increasing))


@pytest.mark.parametrize("field", [GF(2, 2), GF(3, 2)], ids=["GF4", "GF9"])
def test_lang_rejects_singular_matrices(field):
    rng = random.Random(field.order)
    for _ in range(20):
        x, y, c = (rand_scalar(field, rng) for _ in range(3))
        g = [[x, y], [field.mul(c, x), field.mul(c, y)]]
        with pytest.raises(Singular, match="^matrix must be invertible$"):
            lang_isogeny(g, field.p, field)


@pytest.mark.parametrize("g", [[[1, 2, 3]], [[1], [2]]], ids=["1x3", "2x1"])
def test_lang_rejects_non_square_matrices_before_any_inverse(g):
    field = GF(5, 1)
    with mock.patch.object(qlinalg, "inverse", side_effect=AssertionError("inverse taken")):
        with pytest.raises(InvalidData, match="^matrix must be square$"):
            lang_isogeny(g, 5, field)


def test_filtration_rows_must_have_length_r():
    one, zero = Fraction(1), Fraction(0)
    d = StratumData(
        QQ,
        2,
        (1,),
        vfilt=(((zero, one, one),),),
        wfilt=(((one, zero, zero),),),
        v=(((one,),), ((one,),)),
        scales=(one, one),
        free_lams=(),
    )
    with pytest.raises(InvalidData, match="^filtration rows must have length r = 2$"):
        build_stratum_point(d)
    with pytest.raises(InvalidData, match="^filtration rows must have length r = 2$"):
        family_from_stratum(d)


# ---------------------------------------------------------------------------
# the torus action through one inverted lambda monomial, against the
# per-factor inverses it replaced


def oracle_torus_action(h, mus):
    field = h.field
    new_u = [h.u[0]]
    for rho in range(2, h.r + 1):
        scale = field.one()
        for j in range(1, rho):
            inv = field.inv(mus[j - 1])
            for _ in range(rho - j):
                scale = field.mul(scale, inv)
        new_u.append([[field.mul(scale, x) for x in row] for row in h.u[rho - 1]])
    new_lams = tuple(field.mul(m, l) for m, l in zip(mus, h.lams))
    return CompleteHom(field, h.r, tuple(new_u), new_lams)


@pytest.mark.parametrize("field", [QQ, GF(5, 1), GF(3, 2)], ids=["QQ", "GF5", "GF9"])
def test_torus_action_matches_per_factor_oracle(field):
    rng = random.Random(31)
    for r in (1, 2, 3, 4):
        for _ in range(6):
            h = build_stratum_point(rand_stratum_data(field, rng, r))
            mus = tuple(rand_nonzero(field, rng) for _ in range(r - 1))
            got, want = torus_action(h, mus), oracle_torus_action(h, mus)
            assert (got.u, got.lams) == (want.u, want.lams)


# ---------------------------------------------------------------------------
# stratum points from the nonzero block of g_rho, against the product with
# the full C(r, rho)-square g_rho that it replaced


def oracle_stratum_u(d):
    """u_rho = wedge^rho(B) g_rho wedge^rho(A^-1), with g_rho built whole:
    the lead times the minors of graded map sigma on the wedge coordinates
    that use blocks 1..sigma-1, zero elsewhere, scaled by the inverse
    lambda monomial."""
    field, r = d.field, d.r
    a, b = field_adapted_bases(field, r, d.vfilt, d.wfilt)
    bounds = [0] + list(d.cuts) + [r]
    s = len(d.cuts) + 1
    free = dict(d.free_lams)
    free_or_one = tuple(free.get(rho, field.one()) for rho in range(1, r))
    v_wedges = []
    for sigma in range(1, s + 1):
        sc = d.scales[sigma - 1]
        m = [[field.mul(sc, x) for x in row] for row in d.v[sigma - 1]]
        v_wedges.append(compounds(field, m, len(m)))
    wb = compounds(field, b, r)
    wa = compounds(field, fmat_inverse(field, a), r)
    us = []
    for rho in range(1, r + 1):
        sigma = next(t for t in range(1, s + 1) if bounds[t - 1] < rho <= bounds[t])
        lead = field.one()
        for block in v_wedges[: sigma - 1]:
            lead = field.mul(lead, block[-1][0][0])
        size = len(wb[rho - 1])
        index = {sub: i for i, sub in enumerate(wedge_subsets(r, rho))}
        base_block = tuple(range(bounds[sigma - 1]))
        lo, hi = bounds[sigma - 1], bounds[sigma]
        kk = rho - lo
        minors = v_wedges[sigma - 1][kk - 1]
        g = [[field.zero()] * size for _ in range(size)]
        for j, kin in enumerate(combinations(range(lo, hi), kk)):
            col = index[base_block + kin]
            for i, kout in enumerate(combinations(range(lo, hi), kk)):
                g[index[base_block + kout]][col] = field.mul(lead, minors[i][j])
        scale = field.inv(ch.lambda_monomial(field, free_or_one, rho))
        g = [[field.mul(scale, x) for x in row] for row in g]
        us.append(fmat_mul(field, fmat_mul(field, wb[rho - 1], g), wa[rho - 1]))
    return tuple(us)


@pytest.mark.parametrize("field", [QQ, GF(5, 1), GF(2, 2), GF(3, 2)],
                         ids=["QQ", "GF5", "GF4", "GF9"])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_stratum_point_matches_full_product_oracle(field, r):
    rng = random.Random(9100 + r)
    for k in range(r):
        for cuts in combinations(range(1, r), k):
            d = rand_stratum_data(field, rng, r, cuts)
            assert build_stratum_point(d).u == oracle_stratum_u(d), cuts


# ---------------------------------------------------------------------------
# W_t as the annihilator of the wedge kernel of the transpose, against the
# span of interior products that it replaced


def oracle_support_span(field, u_rho, r, rho):
    """Smallest subspace U with image(u_rho) inside wedge^rho U, via
    interior products of the image generators by all (rho-1)-covectors.

    The contraction of w by e*_L is sum_i (-1)^{#{l in L : l > i}}
    w_{L u {i}} e_i; for decomposable w it lands in the spanning
    subspace, so the union of contractions spans exactly U."""
    subs = wedge_subsets(r, rho)
    index = {sub: i for i, sub in enumerate(subs)}
    vectors = []
    for c in range(len(u_rho[0])):
        col = [u_rho[t][c] for t in range(len(u_rho))]
        if all(field.is_zero(x) for x in col):
            continue
        for l_sub in wedge_subsets(r, rho - 1):
            vec = [field.zero()] * r
            for i in range(r):
                if i in l_sub:
                    continue
                coeff = col[index[tuple(sorted(l_sub + (i,)))]]
                if sum(1 for l in l_sub if l > i) % 2:
                    coeff = field.neg(coeff)
                vec[i] = coeff
            if any(not field.is_zero(x) for x in vec):
                vectors.append(vec)
    return qlinalg.row_basis(field, vectors)


def sparse_square(field, rng, size, density):
    return [
        [rand_nonzero(field, rng) if rng.random() < density else field.zero()
         for _ in range(size)]
        for _ in range(size)
    ]


@pytest.mark.parametrize("field", [QQ, GF(5, 1), GF(2, 2), GF(3, 2)],
                         ids=["QQ", "GF5", "GF4", "GF9"])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_support_matches_contraction_oracle(field, r):
    """Every u_rho of a stratum point on every cut set, the zero matrix
    and sparse random matrices, at every rho."""
    rng = random.Random(9300 + r)
    points = [
        build_stratum_point(rand_stratum_data(field, rng, r, cuts))
        for k in range(r)
        for cuts in combinations(range(1, r), k)
    ]
    for rho in range(1, r + 1):
        size = len(wedge_subsets(r, rho))
        mats = [h.u[rho - 1] for h in points] + [[[field.zero()] * size] * size]
        mats += [sparse_square(field, rng, size, density)
                 for density in (0.02, 0.05, 0.1, 0.3) for _ in range(4)]
        for u in mats:
            got = unscaled(field, ch._support(field, scaled(field, u)[0], r, rho))
            assert got == oracle_support_span(field, u, r, rho)


# ---------------------------------------------------------------------------
# recovered graded maps normalized by StratumData.normalized, against the
# per-block loop that it replaced


def oracle_normalize(field, true_maps):
    """Each true graded map divided by its first nonzero entry (row-major),
    which is its scale."""
    v_hat, scales = [], []
    for tilde in true_maps:
        first = next(x for row in tilde for x in row if not field.is_zero(x))
        inv_first = field.inv(first)
        v_hat.append(tuple(tuple(field.mul(inv_first, x) for x in row) for row in tilde))
        scales.append(first)
    return tuple(v_hat), tuple(scales)


@pytest.mark.parametrize("field", [QQ, GF(5, 1)], ids=["QQ", "GF5"])
def test_recovered_graded_maps_match_per_block_normalization(field):
    from chtoucakit.acceptance import _rand_stratum_data

    rng = random.Random(9400)
    for r in (2, 3, 4, 5):
        for _ in range(12):
            d = _rand_stratum_data(field, rng, r)
            true_maps = [[[field.mul(sc, x) for x in row] for row in m]
                         for m, sc in zip(d.v, d.scales)]
            rec = stratum_data(build_stratum_point(d))
            assert (rec.v, rec.scales) == oracle_normalize(field, true_maps), d.cuts


# ---------------------------------------------------------------------------
# the stratum code on scaled matrices (N, d), against the Fraction path it
# replaced: every intermediate matrix a matrix of field elements, compounds
# and products cleared of denominators on entry and made Fractions on exit


def oracle_compounds(field, a, top):
    """The compound table with one `Fraction` per entry of every level."""
    if field is not QQ:
        return compounds(field, a, top)
    n, d = fields._clear_denominators(a)
    return [fields._over(level, d**rho)
            for rho, level in enumerate(compounds(fields.ZZ, n, top), start=1)]


def oracle_stratum_point(d, a, b):
    """The point of the stratum data d from the adapted bases (A, B) of
    its filtrations, every matrix a matrix of field elements."""
    field = d.field
    r = d.r
    cuts = list(d.cuts)
    bounds = [0] + cuts + [r]
    s = len(cuts) + 1
    free = dict(d.free_lams)
    free_or_one = tuple(free.get(rho, field.one()) for rho in range(1, r))
    a_inv = qlinalg.inverse(field, a)
    v_wedges = []
    for sigma in range(1, s + 1):
        sc = d.scales[sigma - 1]
        m = [[field.mul(sc, x) for x in row] for row in d.v[sigma - 1]]
        v_wedges.append(oracle_compounds(field, m, len(m)))
    wb = oracle_compounds(field, b, r)
    wa = oracle_compounds(field, a_inv, r)
    us = []
    for rho in range(1, r + 1):
        sigma = next(t for t in range(1, s + 1) if bounds[t - 1] < rho <= bounds[t])
        c = field.inv(ch.lambda_monomial(field, free_or_one, rho))
        for block in v_wedges[: sigma - 1]:
            c = field.mul(c, block[-1][0][0])
        index = {sub: i for i, sub in enumerate(wedge_subsets(r, rho))}
        base_block = tuple(range(bounds[sigma - 1]))
        lo, hi = bounds[sigma - 1], bounds[sigma]
        kk = rho - lo
        cols = [index[base_block + k] for k in combinations(range(lo, hi), kk)]
        g = [[field.mul(c, x) for x in row] for row in v_wedges[sigma - 1][kk - 1]]
        left = [[row[j] for j in cols] for row in wb[rho - 1]]
        right = [wa[rho - 1][j] for j in cols]
        us.append(fmat_mul(field, fmat_mul(field, left, g), right))
    lams = tuple(field.zero() if rho in set(cuts) else free[rho] for rho in range(1, r))
    return ch.CompleteHom(field, r, tuple(us), lams)


def oracle_build_stratum_point(d):
    ch._validate_stratum_data(d)
    a, b = oracle_adapted_bases(d.field, d.r, d.cuts, d.vfilt, d.wfilt)
    return oracle_stratum_point(d, a, b)


def oracle_kernel_of_wedge_map(field, u_rho, r, rho):
    index = {sub: i for i, sub in enumerate(wedge_subsets(r, rho))}
    rows = []
    for k_sub in wedge_subsets(r, rho - 1):
        cols = []
        for i in range(r):
            if i in k_sub:
                cols.append([field.zero()] * len(u_rho))
                continue
            col = index[tuple(sorted(k_sub + (i,)))]
            vec = [row[col] for row in u_rho]
            if sum(1 for x in k_sub if x < i) % 2:
                vec = [field.neg(x) for x in vec]
            cols.append(vec)
        rows.extend(zip(*cols))
    return qlinalg.kernel(field, rows, r)


def oracle_support(field, u_rho, r, rho):
    annihilator = oracle_kernel_of_wedge_map(field, [list(col) for col in zip(*u_rho)], r, rho)
    return qlinalg.row_basis(field, qlinalg.kernel(field, annihilator, r))


def oracle_stratum_data(h):
    """`stratum_data` with every matrix a matrix of field elements."""
    field = h.field
    r = h.r
    cuts = stratum_of(h)
    bounds = [0] + list(cuts) + [r]
    s = len(cuts) + 1
    vfilt, wfilt = [], []
    for t, rho in enumerate(cuts):
        ker = oracle_kernel_of_wedge_map(field, h.u[rho - 1], r, rho)
        if len(ker) != r - rho:
            raise NotOnStratum(
                f"recovered V^{t+1} has dimension {len(ker)}, expected {r - rho}"
            )
        vfilt.append(tuple(tuple(row) for row in qlinalg.row_basis(field, ker)))
        span = oracle_support(field, h.u[rho - 1], r, rho)
        if len(span) != rho:
            raise NotOnStratum(
                f"recovered W_{t+1} has dimension {len(span)}, expected {rho}"
            )
        wfilt.append(tuple(tuple(row) for row in span))
    if not oracle_nested(field, vfilt[::-1]):
        raise NotOnStratum("recovered V filtration is not nested")
    if not oracle_nested(field, wfilt):
        raise NotOnStratum("recovered W filtration is not nested")
    free = {rho: h.lams[rho - 1] for rho in range(1, r) if rho not in set(cuts)}
    a, b = oracle_adapted_bases(field, r, cuts, vfilt, wfilt)
    b_inv = qlinalg.inverse(field, b)
    top = bounds[s - 1] + 1
    wb = oracle_compounds(field, b_inv, top)
    wa = oracle_compounds(field, a, top)
    free_or_one = tuple(free.get(rho, field.one()) for rho in range(1, r))
    graded = []
    true_dets = []
    for sigma in range(1, s + 1):
        rho = bounds[sigma - 1] + 1
        index = {sub: i for i, sub in enumerate(wedge_subsets(r, rho))}
        lo, hi = bounds[sigma - 1], bounds[sigma]
        base_block = tuple(range(lo))
        block = [index[base_block + (t,)] for t in range(lo, hi)]
        left = fmat_mul(field, [wb[rho - 1][i] for i in block], h.u[rho - 1])
        phi = fmat_mul(field, left, [[row[j] for j in block] for row in wa[rho - 1]])
        mono = ch.lambda_monomial(field, free_or_one, rho)
        lead = field.one()
        for dete in true_dets:
            lead = field.mul(lead, dete)
        denom = field.mul(field.inv(mono), lead)
        if field.is_zero(denom):
            raise NotOnStratum("degenerate scaling while extracting graded maps")
        inv_denom = field.inv(denom)
        tilde = [[field.mul(inv_denom, x) for x in row] for row in phi]
        if ch._first_nonzero(field, tilde) is None:
            raise NotOnStratum(f"graded map {sigma} vanishes")
        block_det = qlinalg.det(field, tilde)
        if field.is_zero(block_det):
            raise NotOnStratum(f"graded map {sigma} is singular")
        graded.append(tilde)
        true_dets.append(block_det)
    data = ch.StratumData(
        field, r, tuple(cuts), tuple(vfilt), tuple(wfilt), tuple(graded),
        (field.one(),) * s, tuple(sorted(free.items())),
    ).normalized()
    if not oracle_stratum_point(data, a, b).eq(h):
        raise NotOnStratum("point does not satisfy the stratum relations")
    return data


def recovered(h):
    """stratum_data(h) and the oracle's, each as the data or the error."""
    def run(call):
        try:
            return call(h)
        except NotOnStratum as e:
            return str(e)
    return run(stratum_data), run(oracle_stratum_data)


def perturbed(h, rng):
    """h with one entry of one u_rho moved by one, or None if that
    leaves u_rho zero."""
    field = h.field
    rho = rng.randrange(h.r)
    u = [list(row) for row in h.u[rho]]
    i, j = rng.randrange(len(u)), rng.randrange(len(u))
    u[i][j] = field.add(u[i][j], field.one())
    if all(field.is_zero(x) for row in u for x in row):
        return None
    return ch.CompleteHom(field, h.r, h.u[:rho] + (u,) + h.u[rho + 1:], h.lams)


@pytest.mark.parametrize("field", [QQ, GF(5, 1), GF(2, 2), GF(3, 2)],
                         ids=["QQ", "GF5", "GF4", "GF9"])
@pytest.mark.parametrize("r", [2, 3, 4, 5])
def test_scaled_stratum_code_matches_fraction_oracle(field, r):
    """On seeded data for every cut set: the same point, the same
    recovered data and the same wire bytes; on the point with one entry
    perturbed, the same data or the same NotOnStratum message."""
    from chtoucakit.acceptance import _rand_stratum_data

    rng = random.Random(9500 + r)
    seen = set()
    while len(seen) < 2 ** (r - 1):
        d = _rand_stratum_data(field, rng, r)
        seen.add(d.cuts)
        h = build_stratum_point(d)
        oracle = oracle_build_stratum_point(d)
        assert h == oracle
        assert dumps_canonical(hom_to_json(h)) == dumps_canonical(hom_to_json(oracle))
        rec, rec_oracle = recovered(h)
        assert rec == rec_oracle == oracle_stratum_data(oracle)
        assert dumps_canonical(stratum_to_json(rec)) == dumps_canonical(
            stratum_to_json(rec_oracle))
        bad = perturbed(h, rng)
        if bad is not None:
            got, want = recovered(bad)
            assert got == want, d.cuts


def test_perturbed_points_reach_each_not_on_stratum_check():
    """A perturbation sweep like the one above meets the dimension, the
    nesting, the singular-map and the rebuild errors, and the two
    implementations agree on each."""
    from chtoucakit.acceptance import _rand_stratum_data

    messages = set()
    for field in (QQ, GF(5, 1), GF(2, 2), GF(3, 2)):
        rng = random.Random(9600)
        for r in (2, 3, 4, 5):
            for _ in range(40):
                bad = perturbed(build_stratum_point(_rand_stratum_data(field, rng, r)), rng)
                if bad is not None:
                    got, want = recovered(bad)
                    assert got == want
                    if isinstance(got, str):
                        messages.add(got)
    for start in ("recovered V^", "recovered V filtration", "recovered W filtration",
                  "graded map", "point does not satisfy"):
        assert any(m.startswith(start) for m in messages), start
