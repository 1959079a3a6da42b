import random
import sys
import time
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, product
from math import comb, lcm
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chtoucakit import pavings as pv
from chtoucakit import fans, qlinalg, ratlp, zlattice
from chtoucakit.errors import (
    EmptyInterior,
    InvalidData,
    NotAdmissible,
    NotAPave,
    NotAPaving,
    TooLarge,
    WrongDimension,
)
from chtoucakit.fans import Cone
from chtoucakit.fields import QQ
from chtoucakit.graph_gluing import shared_walls
from chtoucakit.pavings import (
    enumerate_admissible_pavings,
    interior_walls,
    is_admissible,
    is_q_admissible,
    pave_edge_count,
    pave_from_points,
    paving_from_point_sets,
    refines,
    regular_subdivision,
    sigma_cone,
    trivial_paving,
)
from chtoucakit.ratlp import max_slack
from chtoucakit.simplex_core import (
    LatticeFunction,
    enumerate_lattice_points,
    point_key,
    quotient_lattice,
)
from test_simplex_core import coords_to_normal_form, nf_to_coords, oracle_basis


def heights(r, n, mapping):
    return LatticeFunction.from_map(r, n, mapping)


class TestPaveFromPoints:
    def test_whole_simplex(self):
        p = pave_from_points(2, 1, enumerate_lattice_points(2, 1))
        d = p.profile.as_dict()
        assert d[(0,)] == 0 and d[(1,)] == 0

    def test_unit_segment(self):
        p = pave_from_points(2, 1, [(2, 0), (1, 1)])
        d = p.profile.as_dict()
        assert d[(0,)] == 1 and d[(1,)] == 0
        assert p.points == ((2, 0), (1, 1))

    def test_gap_reconstruction_fails(self):
        with pytest.raises(NotAPave):
            pave_from_points(2, 1, [(2, 0), (0, 2)])

    def test_round_trip_from_subdivision_cells(self):
        rng = random.Random(4)
        pts = enumerate_lattice_points(2, 2)
        for _ in range(40):
            h = LatticeFunction(
                2, 2, tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 3)) for _ in pts)
            )
            try:
                paving = regular_subdivision(h)
            except NotAPaving:
                continue
            for pave in paving.paves:
                again = pave_from_points(2, 2, pave.points)
                assert again.points == pave.points


class TestRegularSubdivision:
    def test_affine_heights_trivial(self):
        h = heights(2, 1, {(2, 0): 0, (1, 1): 0, (0, 2): 0})
        assert regular_subdivision(h).key() == trivial_paving(2, 1).key()

    def test_peak_above_chord_trivial(self):
        h = heights(2, 1, {(2, 0): 0, (1, 1): 1, (0, 2): 0})
        assert regular_subdivision(h).key() == trivial_paving(2, 1).key()

    def test_dip_breaks_interval(self):
        h = heights(2, 1, {(2, 0): 0, (1, 1): -1, (0, 2): 0})
        paving = regular_subdivision(h)
        assert [p.points for p in paving.paves] == [
            ((1, 1), (0, 2)),
            ((2, 0), (1, 1)),
        ]

    def test_degenerate_cell_raises(self):
        # low corner triangle on S^{2,2} whose affinity domain picks up a
        # midpoint: the domain is not an integer pavé
        vals = {p: Fraction(1) for p in enumerate_lattice_points(2, 2)}
        vals[(2, 0, 0)] = Fraction(0)
        vals[(0, 2, 0)] = Fraction(0)
        vals[(1, 0, 1)] = Fraction(0)
        with pytest.raises(NotAPaving):
            regular_subdivision(LatticeFunction.from_map(2, 2, vals))


class TestAdmissibility:
    def test_trivial_always_admissible(self):
        for (r, n) in ((2, 1), (3, 1), (2, 2)):
            res = is_admissible(trivial_paving(r, n))
            assert res.admissible

    def test_finest_triangle_paving_admissible(self):
        paving = min(
            enumerate_admissible_pavings(2, 2), key=lambda p: -len(p.paves)
        )
        assert len(paving.paves) == 4
        assert is_admissible(paving).admissible

    def test_interval_paving_admissible(self):
        paving = paving_from_point_sets(
            3, 1, [[(3, 0), (2, 1)], [(2, 1), (1, 2)], [(1, 2), (0, 3)]]
        )
        assert is_admissible(paving).admissible

    def test_witness_regenerates_paving(self):
        for p in enumerate_admissible_pavings(2, 2):
            res = is_admissible(p)
            assert regular_subdivision(res.witness).key() == p.key()


class TestSigmaCone:
    def test_trivial_is_zero_cone(self):
        c = sigma_cone(trivial_paving(2, 1))
        assert c == Cone.zero(1)

    def test_two_interval_ray(self):
        paving = paving_from_point_sets(2, 1, [[(2, 0), (1, 1)], [(1, 1), (0, 2)]])
        c = sigma_cone(paving)
        assert len(c.rays) == 1 and not c.lin
        ql = quotient_lattice(2, 1)
        nf = coords_to_normal_form(ql, c.rays[0])
        # classes with normal form (0, c, 0), c < 0
        assert nf[0] < 0

    def test_three_interval_cone_dimension(self):
        paving = paving_from_point_sets(
            3, 1, [[(3, 0), (2, 1)], [(2, 1), (1, 2)], [(1, 2), (0, 3)]]
        )
        c = sigma_cone(paving)
        assert zlattice.int_rank(c.generators()) == 2  # one dimension per interior wall

    def test_relative_interior_point_is_witness(self):
        paving = paving_from_point_sets(2, 1, [[(2, 0), (1, 1)], [(1, 1), (0, 2)]])
        c = sigma_cone(paving)
        # the sum of the rays lies in the relative interior
        w = tuple(map(sum, zip(*c.rays)))
        ql = quotient_lattice(2, 1)
        nf = coords_to_normal_form(ql, [Fraction(x) for x in w])
        vals = {(2, 0): Fraction(0), (0, 2): Fraction(0), (1, 1): nf[0]}
        h = LatticeFunction.from_map(2, 1, vals)
        assert regular_subdivision(h).key() == paving.key()


class TestRefines:
    def test_everything_refines_trivial(self):
        for p in enumerate_admissible_pavings(3, 1):
            assert refines(p, trivial_paving(3, 1))

    def test_reflexive(self):
        p = paving_from_point_sets(2, 1, [[(2, 0), (1, 1)], [(1, 1), (0, 2)]])
        assert refines(p, p)

    def test_intervals_strict(self):
        fine = paving_from_point_sets(
            3, 1, [[(3, 0), (2, 1)], [(2, 1), (1, 2)], [(1, 2), (0, 3)]]
        )
        coarse = paving_from_point_sets(3, 1, [[(3, 0), (2, 1), (1, 2)], [(1, 2), (0, 3)]])
        assert refines(fine, coarse)
        assert not refines(coarse, fine)

    def test_wrong_simplex(self):
        with pytest.raises(WrongDimension):
            refines(trivial_paving(2, 1), trivial_paving(3, 1))


class TestEnumeration:
    @pytest.mark.parametrize("r,count", [(2, 2), (3, 4), (4, 8)])
    def test_interval_counts(self, r, count):
        pavings = enumerate_admissible_pavings(r, 1)
        assert len(pavings) == count
        for p in pavings:
            assert is_admissible(p).admissible

    def test_single_point_configurations(self):
        assert len(enumerate_admissible_pavings(1, 3)) == 1
        assert len(enumerate_admissible_pavings(1, 1)) == 1
        assert len(enumerate_admissible_pavings(3, 0)) == 1

    def test_cap(self):
        for r, n in ((5, 2), (15, 1), (16, 1), (2, 3)):
            with pytest.raises(TooLarge):
                enumerate_admissible_pavings(r, n)

    def test_2_2_sampling_closure(self):
        keys = {p.key() for p in enumerate_admissible_pavings(2, 2)}
        rng = random.Random(8)
        pts = enumerate_lattice_points(2, 2)
        hits = set()
        produced = 0
        attempts = 0
        while produced < 150 and attempts < 2000:
            attempts += 1
            h = LatticeFunction(
                2, 2, tuple(Fraction(rng.randint(-15, 15), rng.randint(1, 2)) for _ in pts)
            )
            try:
                paving = regular_subdivision(h)
            except NotAPaving:
                continue
            produced += 1
            assert paving.key() in keys
            hits.add(paving.key())
        assert produced == 150
        assert len(hits) >= 4  # sampling reaches several distinct pavings

    def test_candidate_paves_are_saturated(self):
        for pave in oracle_candidate_paves(2, 2):
            assert pave_from_points(2, 2, pave.points).points == pave.points


class TestHexagons:
    def test_edge_counts(self):
        for r in (2, 3):
            for paving in enumerate_admissible_pavings(r, 2):
                for pave in paving.paves:
                    assert pave_edge_count(pave) <= 6

    def test_full_triangle_has_three_edges(self):
        p = pave_from_points(3, 2, enumerate_lattice_points(3, 2))
        assert pave_edge_count(p) == 3


def integral(row):
    """row times the lcm of its denominators: an integer row of the same
    sign as row at every point."""
    m = lcm(*(Fraction(v).denominator for v in row))
    return [int(v * m) for v in row]


class TestQAdmissibility:
    def test_trivial_q_admissible(self):
        for q in (2, 3, 5):
            assert is_q_admissible(trivial_paving(2, 2), q)

    def test_wrong_dimension(self):
        with pytest.raises(WrongDimension):
            is_q_admissible(trivial_paving(2, 1), 2)

    def test_q_below_two_is_invalid_data(self):
        for q in (1, 0, -3):
            with pytest.raises(InvalidData, match="q must be at least 2"):
                is_q_admissible(trivial_paving(2, 2), q)

    def test_lp_matches_cone_subspace_oracle(self):
        """Independent oracle: the secondary cone's rows in the coordinates
        of a basis of the twisted-height subspace, and an LP for a point
        strictly inside them."""
        from chtoucakit.simplex_core import affine_normal_form

        r, n = 2, 2
        ql = quotient_lattice(r, n)
        pts = enumerate_lattice_points(r, n)
        for q in (2, 3):
            tau_basis = []
            for f in [p for p in pts if p[0] != 0]:
                vals = {}
                for p in pts:
                    if p[0] != 0:
                        vals[p] = Fraction(1 if p == f else 0)
                    elif p[1] != 0:
                        vals[p] = Fraction(q if (p[1], 0, p[2]) == f else 0)
                    else:
                        vals[p] = Fraction(0)
                nf = affine_normal_form(LatticeFunction.from_map(r, n, vals))
                row = [nf.value_at(pt) for pt in ql.points]
                tau_basis.append(nf_to_coords(ql, row))
            for paving in enumerate_admissible_pavings(r, n):
                cone = sigma_cone(paving)
                strict = [
                    [
                        sum(Fraction(rr[i]) * tau_basis[t][i] for i in range(ql.rank))
                        for t in range(len(tau_basis))
                    ]
                    for rr in cone.ineqs
                ]
                eqs = [
                    [
                        sum(Fraction(e[i]) * tau_basis[t][i] for i in range(ql.rank))
                        for t in range(len(tau_basis))
                    ]
                    for e in cone.eqs
                ]
                if not strict:
                    oracle = True
                else:
                    d, _ = max_slack(
                        [integral(row) for row in strict],
                        [integral(row) for row in eqs],
                        nvars=len(tau_basis),
                    )
                    oracle = d > 0
                assert is_q_admissible(paving, q) == oracle

    def test_ray_paving_misses_tau_subspace(self):
        """Some paving's secondary cone is a pointed ray not meeting the
        twisted subspace, and it is not q-admissible."""
        found = False
        for paving in enumerate_admissible_pavings(2, 2):
            cone = sigma_cone(paving)
            if len(cone.rays) == 1 and not cone.lin and not is_q_admissible(paving, 2):
                found = True
        assert found

    def test_grid_witnesses_imply_lp(self):
        """Any twisted grid height inducing the paving certifies
        q-admissibility (one-sided brute-force cross-check)."""
        r, n, q = 2, 2, 2
        pts = enumerate_lattice_points(r, n)
        free_pts = [p for p in pts if p[0] != 0]
        keys = {p.key(): p for p in enumerate_admissible_pavings(r, n)}
        from itertools import product

        grid = [Fraction(v, 2) for v in range(-4, 5)]
        witnessed = set()
        for combo in product(grid, repeat=len(free_pts)):
            vals = {}
            assign = dict(zip(free_pts, combo))
            for p in pts:
                if p[0] != 0:
                    vals[p] = assign[p]
                elif p[1] != 0:
                    vals[p] = q * assign[(p[1], 0, p[2])]
                else:
                    vals[p] = Fraction(0)
            try:
                paving = regular_subdivision(LatticeFunction.from_map(r, n, vals))
            except NotAPaving:
                continue
            witnessed.add(paving.key())
        assert witnessed  # the grid certainly hits the trivial paving
        for key in witnessed:
            assert is_q_admissible(keys[key], q)


def test_interior_walls_of_finest_2_2():
    finest = max(enumerate_admissible_pavings(2, 2), key=lambda p: len(p.paves))
    walls = interior_walls(finest)
    assert len(walls) == 3  # the central triangle touches the three corners


# ---------------------------------------------------------------------------
# the rank test for pavé interiors, the integer secondary-cone rows and the
# integer wall ranks against the rational code they replaced, kept here as
# test-only oracles


def oracle_pave_from_points(r, n, points):
    """pave_from_points deciding the interior by the exact slack LP."""
    pts = sorted({tuple(int(x) for x in p) for p in points}, key=point_key)
    if not pts:
        raise NotAPave("empty point set")
    all_pts = enumerate_lattice_points(r, n)
    subsets = pv._subsets(n)
    d = {J: min(sum(p[j] for j in J) for p in pts) for J in subsets}
    for j1 in subsets:
        for j2 in subsets:
            union = tuple(sorted(set(j1) | set(j2)))
            inter = tuple(sorted(set(j1) & set(j2)))
            if d[j1] + d[j2] > d[union] + d[inter]:
                raise NotAPave(f"profile not supermodular at {j1}, {j2}")
    proper = pv._proper_nonempty_subsets(n)
    induced = [
        p for p in all_pts if all(sum(p[j] for j in J) >= d[J] for J in proper)
    ]
    if induced != pts:
        extra = [p for p in induced if p not in set(pts)]
        raise NotAPave(f"reconstruction mismatch: region also contains {extra[:3]}")
    # homogenized in t: sum_J x - d_J t > 0 and t > 0 on sum x = r t
    rows = [[1 if j in J else 0 for j in range(n + 1)] + [-d[J]] for J in proper]
    rows.append([0] * (n + 1) + [1])
    delta, _ = max_slack(rows, [[1] * (n + 1) + [-r]], nvars=n + 2)
    if delta <= 0:
        raise EmptyInterior(f"pave has empty interior (slack {delta})")
    return tuple(pts), tuple(sorted(d.items()))


def oracle_scan_pave_from_points(r, n, points):
    """pave_from_points summing every J over every point afresh, the
    loops that the per-configuration tables replaced."""
    pts = sorted({tuple(int(x) for x in p) for p in points}, key=point_key)
    if not pts:
        raise NotAPave("empty point set")
    all_pts = enumerate_lattice_points(r, n)
    universe = set(all_pts)
    for p in pts:
        if p not in universe:
            raise NotAPave(f"{p} is not a lattice point of the simplex")
    subsets = pv._subsets(n)
    d = {J: min(sum(p[j] for j in J) for p in pts) for J in subsets}
    if d[()] != 0 or d[tuple(range(n + 1))] != r:
        raise NotAPave("profile endpoints wrong")
    oracle_check_supermodular(d, n)
    proper = pv._proper_nonempty_subsets(n)
    given = set(pts)
    extra = [
        p for p in all_pts
        if p not in given and all(sum(p[j] for j in J) >= d[J] for J in proper)
    ]
    if extra:
        raise NotAPave(f"reconstruction mismatch: region also contains {extra[:3]}")
    if zlattice.int_rank(pts) != n + 1:
        raise EmptyInterior("pave has empty interior (slack 0)")
    return tuple(pts), tuple(sorted(d.items()))


def oracle_check_supermodular(d, n):
    """The scan over all pairs of subsets that the local exchange test
    replaced."""
    subsets = pv._subsets(n)
    for j1 in subsets:
        for j2 in subsets:
            union = tuple(sorted(set(j1) | set(j2)))
            inter = tuple(sorted(set(j1) & set(j2)))
            if d[j1] + d[j2] > d[union] + d[inter]:
                raise NotAPave(f"profile not supermodular at {j1}, {j2}")


@st.composite
def profiles(draw):
    """Profiles over the subsets of {0,...,n}: uniform ones (nearly never
    supermodular), supermodular ones (a convex function of |J| plus a
    modular part) and those with one entry moved by 1."""
    n = draw(st.integers(0, 5))
    subsets = pv._subsets(n)
    kind = draw(st.sampled_from(("uniform", "supermodular", "perturbed")))
    small = st.integers(-3, 3)
    if kind == "uniform":
        return n, {J: draw(small) for J in subsets}
    steps = sorted(draw(st.lists(small, min_size=n + 1, max_size=n + 1)))
    g = [sum(steps[:k]) for k in range(n + 2)]
    w = draw(st.lists(small, min_size=n + 1, max_size=n + 1))
    d = {J: g[len(J)] + sum(w[j] for j in J) for J in subsets}
    if kind == "perturbed":
        d[draw(st.sampled_from(subsets))] += draw(st.sampled_from((-1, 1)))
    return n, d


def _supermodular_outcome(check, d, n):
    try:
        check(d, n)
    except NotAPave as e:
        return str(e)
    return None


def table_check_supermodular(d, n):
    """`_check_supermodular` on a profile given as a dict, with the subset
    order and exchange quadruples of the pavé tables (those of (1, n))."""
    subsets, _, quads = pv._pave_table(1, n)
    pv._check_supermodular([d[J] for J in subsets], n, subsets, quads)


@settings(max_examples=400, deadline=None)
@given(profiles())
def test_local_exchange_matches_all_pairs(case):
    n, d = case
    new = _supermodular_outcome(table_check_supermodular, d, n)
    assert new == _supermodular_outcome(oracle_check_supermodular, d, n)


def test_local_exchange_sees_both_verdicts():
    # d(0) + d(1) = 2 exceeds d(01) + d() = 1; every pavé's profile passes
    assert _supermodular_outcome(table_check_supermodular, {(): 0, (0,): 1, (1,): 1, (0, 1): 1}, 1)
    for pave in oracle_candidate_paves(3, 2):
        assert _supermodular_outcome(table_check_supermodular, pave.profile.as_dict(), 2) is None


def test_paving_beyond_n_2_compares_point_sets():
    assert len(trivial_paving(2, 3).paves) == 1
    corner = pave_from_points(2, 3, [(2, 0, 0, 0), (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1)])
    with pytest.raises(NotAPaving, match="only the trivial paving"):
        pv.paving_from_paves(2, 3, [corner])


def test_pave_table_stops_at_the_largest_the_enumeration_cap_admits():
    cap = pv.ENUMERATION_POINT_CAP
    sizes = {(r, n): comb(r + n, n) << (n + 1)
             for n in range(cap) for r in range(1, cap + 1) if comb(r + n, n) <= cap}
    assert max(sizes, key=sizes.get) == (1, cap - 1)
    subsets, sums, _ = pv._pave_table(1, cap - 1)
    assert len(subsets) * len(sums) == sizes[1, cap - 1] == 491_520
    assert len(enumerate_admissible_pavings(1, cap - 1)) == 1
    assert len(trivial_paving(3, 3).paves) == 1
    # just past the bound: with r one less each table fits
    for r, n in ((2, 12), (3, 10), (350, 2), (122_880, 1)):
        assert comb(r + n, n) << (n + 1) > sizes[1, cap - 1] >= comb(r + n - 1, n) << (n + 1)
        with pytest.raises(TooLarge, match="pavé table"):
            pv._pave_table(r, n)
    start = time.perf_counter()
    with pytest.raises(TooLarge, match="pavé table"):
        trivial_paving(2, 14)
    # building that table took 3 s and 127 MiB before the bound
    assert time.perf_counter() - start < 1


def _interior_outcome(build, r, n, pts):
    """(points, profile) of the pavé, or (error type, message)."""
    try:
        return build(r, n, pts)
    except (NotAPave, EmptyInterior) as e:
        return type(e), str(e)


def _built(r, n, pts):
    pave = pave_from_points(r, n, pts)
    return pave.points, pave.profile.d


def _same_interior_outcome(r, n, pts):
    """Compare both builds; returns the error type, or "pave"."""
    new = _interior_outcome(_built, r, n, pts)
    assert new == _interior_outcome(oracle_pave_from_points, r, n, pts), (r, n, pts)
    return new[0] if isinstance(new[0], type) else "pave"


def _saturation(r, n, pts):
    """Every lattice point of the region cut out by the profile of pts:
    it reconstructs, so it reaches the interior test whenever the
    profile is supermodular."""
    proper = pv._proper_nonempty_subsets(n)
    d = {J: min(sum(p[j] for j in J) for p in pts) for J in proper}
    return [
        p
        for p in enumerate_lattice_points(r, n)
        if all(sum(p[j] for j in J) >= d[J] for J in proper)
    ]


INTERIOR_CONFIGS = ((3, 2), (2, 3), (4, 1), (1, 4))


@st.composite
def point_subsets(draw):
    r, n = draw(st.sampled_from(INTERIOR_CONFIGS))
    pts = enumerate_lattice_points(r, n)
    keep = draw(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)))
    return r, n, [p for p, k in zip(pts, keep) if k]


@settings(max_examples=300, deadline=None)
@given(point_subsets())
def test_interior_by_rank_matches_slack_lp(case):
    r, n, pts = case
    _same_interior_outcome(r, n, pts)
    if pts:
        _same_interior_outcome(r, n, _saturation(r, n, pts))


@pytest.mark.parametrize("r,n", [(1, 1), (2, 1), (5, 1), (4, 1), (1, 4), (2, 2)])
def test_interior_by_rank_matches_slack_lp_exhaustively(r, n):
    pts = enumerate_lattice_points(r, n)
    seen = set()
    for mask in range(1, 1 << len(pts)):
        sub = [p for i, p in enumerate(pts) if mask >> i & 1]
        seen.add(_same_interior_outcome(r, n, sub))
    assert "pave" in seen
    if r > 1:
        assert EmptyInterior in seen


def _same_table_outcome(r, n, pts):
    """Compare the table-driven build with the scanning oracle; returns
    the outcome."""
    new = _interior_outcome(_built, r, n, pts)
    assert new == _interior_outcome(oracle_scan_pave_from_points, r, n, pts), (r, n, pts)
    return new


TABLE_CONFIGS = ((1, 0), (3, 0), (1, 1), (4, 1), (2, 2), (3, 2), (2, 3), (1, 3))


@st.composite
def pave_inputs(draw):
    """Point sets: random subsets of the lattice points for n = 0..3,
    with at times a point off the simplex, a collinear (rank-deficient)
    set, or the union of two pavés of (3, 2) from its exact covers."""
    kind = draw(st.sampled_from(("subset", "off", "line", "union")))
    if kind == "union":
        paves = exact_cover_paves(3, 2)
        a, b = draw(st.sampled_from(paves)), draw(st.sampled_from(paves))
        return 3, 2, list(a.points) + list(b.points)
    r, n = draw(st.sampled_from(TABLE_CONFIGS))
    pts = enumerate_lattice_points(r, n)
    if kind == "line":
        i, c = draw(st.integers(0, n)), draw(st.integers(0, r))
        return r, n, [p for p in pts if p[i] == c]
    keep = draw(st.lists(st.booleans(), min_size=len(pts), max_size=len(pts)))
    sub = [p for p, k in zip(pts, keep) if k]
    if kind == "off":
        bad = draw(st.sampled_from((
            (r + 1,) + (0,) * n,
            (r + 1, -1) + (0,) * (n - 1) if n else (r - 1,),
            (0,) * (n + 2),
            (r,) + (0,) * (n + 1),
        )))
        sub.insert(draw(st.integers(0, len(sub))), bad)
    return r, n, sub


@cache
def exact_cover_paves(r, n):
    """Every pavé that occurs in an exact cover of the unit cells."""
    return sorted({pave for cover in oracle_exact_covers(r, n) for pave in cover.paves},
                  key=lambda p: p.key())


@settings(max_examples=500, deadline=None)
@given(pave_inputs())
def test_pave_tables_match_scanning_oracle(case):
    _same_table_outcome(*case)


def _outcome_kind(out):
    return out[1].split(" at ")[0].split(":")[0] if isinstance(out[0], type) else "pave"


def test_pave_tables_match_scanning_oracle_on_exact_cover_paves_and_all_of_2_3():
    # for n <= 2 every profile of lattice points is supermodular, so the
    # other verdict needs n = 3
    paves = exact_cover_paves(3, 2)
    assert len(paves) > 20
    for pave in paves:
        assert _same_table_outcome(3, 2, pave.points) == (pave.points, pave.profile.d)
    kinds = {_outcome_kind(_same_table_outcome(3, 2, a.points + b.points))
             for a, b in combinations(paves, 2)}
    assert kinds == {"pave", "reconstruction mismatch"}
    pts = enumerate_lattice_points(2, 3)
    kinds = {
        _outcome_kind(_same_table_outcome(2, 3, [p for i, p in enumerate(pts) if mask >> i & 1]))
        for mask in range(1 << len(pts))
    }
    assert kinds == {
        "pave", "empty point set", "profile not supermodular", "reconstruction mismatch",
        "pave has empty interior (slack 0)",
    }
    out = _same_table_outcome(3, 2, [(3, 0, 0), (2, 1, 1)])
    assert out == (NotAPave, "(2, 1, 1) is not a lattice point of the simplex")


def oracle_clear_denominators(v):
    """Scale a rational vector to a primitive integer vector (same sign)."""
    scale = lcm(*(Fraction(x).denominator for x in v))
    return zlattice.primitive_ray([int(Fraction(x) * scale) for x in v])


def oracle_sigma_rows(paving):
    """The secondary-cone rows through a rational inverse of each pavé's
    affine basis, rewritten in the quotient-lattice basis over Q: the
    inequality rows keyed by (pavé index, lattice point outside the
    pavé), and the equality rows."""
    r, n = paving.r, paving.n
    lattice = quotient_lattice(r, n)
    nonv_index = {p: i for i, p in enumerate(lattice.points)}
    eq_rows, ineq_rows = [], {}
    for k, pave in enumerate(paving.paves):
        basis = []
        for p in pave.points:
            if qlinalg.rank(QQ, [[Fraction(x) for x in b] for b in basis + [p]]) == len(basis) + 1:
                basis.append(p)
            if len(basis) == n + 1:
                break
        m_inv = qlinalg.inverse(QQ, [[Fraction(x) for x in b] for b in basis])
        for x in enumerate_lattice_points(r, n):
            if x in basis:
                continue
            lam = [sum(c * v for c, v in zip(col, x)) for col in zip(*m_inv)]
            row = [Fraction(0)] * lattice.rank
            for p, c in [(x, Fraction(1))] + [(b, -l) for b, l in zip(basis, lam)]:
                if p in nonv_index:
                    row[nonv_index[p]] += c
            if x in pave.point_set():
                if any(row):
                    eq_rows.append(row)
            else:
                ineq_rows[k, x] = row

    basis = oracle_basis(lattice)

    def coord_row(row):
        return oracle_clear_denominators(
            [sum(row[j] * b[j] for j in range(lattice.rank)) for b in basis]
        )

    return {key: coord_row(row) for key, row in ineq_rows.items()}, [
        coord_row(row) for row in eq_rows
    ]


def oracle_interior_walls(paving):
    out = []
    paves = paving.paves
    for k in range(len(paves)):
        set_k = paves[k].point_set()
        for l in range(k + 1, len(paves)):
            shared = [p for p in paves[l].points if p in set_k]
            if not shared:
                continue
            if qlinalg.rank(QQ, [[Fraction(x) for x in p] for p in shared]) != paving.n:
                continue
            witness = next(p for p in paves[l].points if p not in set(shared))
            out.append((k, l, tuple(shared), witness))
    return out


def oracle_shared_walls(paving):
    n = paving.n
    walls = []
    for first in range(len(paving.paves)):
        for second in range(first + 1, len(paving.paves)):
            p_first = paving.paves[first]
            p_second = paving.paves[second]
            for blocks in pv._proper_nonempty_subsets(n):
                dmin = min(sum(p[j] for j in blocks) for p in p_first.points)
                dmax = max(sum(p[j] for j in blocks) for p in p_second.points)
                if dmin != dmax:
                    continue
                shared = [
                    p
                    for p in p_first.points
                    if p in set(p_second.points) and sum(p[j] for j in blocks) == dmin
                ]
                if not shared:
                    continue
                if qlinalg.rank(QQ, [[Fraction(x) for x in p] for p in shared]) == n:
                    walls.append((first, second, blocks, dmin))
    return walls


def fields_of(c):
    return (c.rank, c.lin, c.rays, c.eqs, c.ineqs)


@pytest.mark.parametrize("r,n", [(2, 2), (3, 1), (4, 1), (5, 1), (3, 2)])
def test_secondary_cone_rows_and_walls_match_rational_oracle(r, n):
    """From cold caches, the configuration's one `from_hrep` takes the
    oracle's row of cell k at the witness of each wall (k, l) of the
    unit-cell triangulation, and no equality row; every paving's cone is
    the cone of all the oracle's rows for that paving."""
    real = Cone.from_hrep
    calls = []

    def spy(rank, ineqs, eqs=()):
        calls.append((list(ineqs), list(eqs)))
        return real(rank, ineqs, eqs)

    pavings = enumerate_admissible_pavings(r, n)
    # the enumeration caches the unit-cell cone; rebuild it under the spy
    pv.clear_caches()
    try:
        with mock.patch.object(Cone, "from_hrep", spy):
            cones = [sigma_cone(paving) for paving in pavings]
        finest = paving_from_point_sets(r, n, pv.unit_cells(r, n))
        ineq_rows, eq_rows = oracle_sigma_rows(finest)
        ((folds, eqs),) = calls
        assert eqs == eq_rows == []
        assert folds == [ineq_rows[k, witness] for k, _, _, witness in interior_walls(finest)]
        for paving, cone in zip(pavings, cones):
            ineq_rows, eq_rows = oracle_sigma_rows(paving)
            want = real(cone.rank, list(ineq_rows.values()), eq_rows)
            assert fields_of(cone) == fields_of(want), paving.key()
            assert interior_walls(paving) == oracle_interior_walls(paving)
            assert shared_walls(paving) == oracle_shared_walls(paving)
    finally:
        pv.clear_caches()


# ---------------------------------------------------------------------------
# the secondary cone as a face of the unit-cell cone against the two
# constructions it replaced, kept here as test oracles: one double
# description per paving of its equality rows and wall folds, and before
# that the admissibility LP, then one row per pavé and lattice point
# outside it


def _affine_basis(pave):
    """The first n+1 affinely independent lattice points of the pavé."""
    basis = []
    for p in pave.points:
        trial = basis + [p]
        if zlattice.int_rank(trial) == len(trial):
            basis.append(p)
        if len(basis) == pave.n + 1:
            return basis
    raise AssertionError("pave is not full-dimensional")


def oracle_wall_sigma_cone(paving):
    """One `from_hrep` per paving: every pavé's affine support is
    eliminated through an affine basis of its lattice points (one
    equality row per other point of the pavé), and each wall (k, l) of
    `interior_walls` gives the fold row of pavé k's basis at the wall's
    witness; admissible exactly when every fold row is positive on the
    sum of the cone's rays."""
    r, n = paving.r, paving.n
    lattice = quotient_lattice(r, n)
    bases = [_affine_basis(pave) for pave in paving.paves]
    eq_rows = []
    for pave, basis in zip(paving.paves, bases):
        pset = pave.point_set()
        for x in enumerate_lattice_points(r, n):
            if x in pset and x not in basis:
                row = pv._dependency_row(lattice, basis, x)
                if any(row):
                    eq_rows.append(row)
    folds = [
        pv._dependency_row(lattice, bases[k], witness)
        for k, _, _, witness in interior_walls(paving)
    ]
    cone = Cone.from_hrep(lattice.rank, folds, eq_rows)
    x = [sum(col) for col in zip(*cone.rays)] or [0] * cone.rank
    if not all(sum(a * b for a, b in zip(row, x)) > 0 for row in folds):
        raise NotAdmissible("paving has empty secondary cone")
    return cone


def oracle_sigma_cone(paving):
    if not is_admissible(paving).admissible:
        raise NotAdmissible("paving has empty secondary cone")
    r, n = paving.r, paving.n
    pts = enumerate_lattice_points(r, n)
    lattice = quotient_lattice(r, n)
    eq_rows = []
    ineq_rows = []
    for pave in paving.paves:
        basis = _affine_basis(pave)
        pset = pave.point_set()
        for x in pts:
            if x in basis:
                continue
            row = pv._dependency_row(lattice, basis, x)
            if x in pset:
                if any(row):
                    eq_rows.append(row)
            else:
                ineq_rows.append(row)
    return Cone.from_hrep(lattice.rank, ineq_rows, eq_rows)


def _cone_outcome(build, paving):
    """The cone's four fields, or (error type, message)."""
    try:
        return fields_of(build(paving))
    except NotAdmissible as e:
        return type(e), str(e)


COVER_CONFIGS = [(r, 1) for r in range(2, 7)] + [(2, 2), (3, 2)]


@pytest.mark.parametrize("r,n", COVER_CONFIGS)
def test_sigma_cone_matches_lp_oracle_on_every_exact_cover(r, n):
    pv.clear_caches()
    rejected = set()
    for paving in oracle_exact_covers(r, n):
        new = _cone_outcome(sigma_cone, paving)
        assert new == _cone_outcome(oracle_sigma_cone, paving), paving.key()
        assert new == _cone_outcome(oracle_wall_sigma_cone, paving), paving.key()
        rejected.add(new[0] is NotAdmissible)
    # (3, 2) has non-admissible covers; every other configuration has none
    assert rejected == ({False, True} if (r, n) == (3, 2) else {False})


@st.composite
def cover_samples(draw):
    """A configuration, a drawn subset of its exact covers in drawn order,
    and whether each cover's admissibility LP has run beforehand."""
    r, n = draw(st.sampled_from(COVER_CONFIGS))
    covers = oracle_exact_covers(r, n)
    picks = draw(st.lists(st.integers(0, len(covers) - 1), min_size=1, max_size=12, unique=True))
    warm = draw(st.lists(st.booleans(), min_size=len(picks), max_size=len(picks)))
    return [covers[i] for i in picks], warm


@settings(max_examples=60, deadline=None)
@given(cover_samples())
def test_sigma_cone_matches_lp_oracle_on_drawn_covers(sample):
    covers, warm = sample
    pv.clear_caches()
    try:
        for paving, lp_first in zip(covers, warm):
            if lp_first:
                is_admissible(paving)
            new = _cone_outcome(sigma_cone, paving)
            assert new == _cone_outcome(oracle_sigma_cone, paving)
            assert new == _cone_outcome(oracle_wall_sigma_cone, paving)
    finally:
        pv.clear_caches()


WALL_ORACLE_CONFIGS = (
    [(r, 1) for r in range(1, 12)] + [(2, 2), (3, 2), (1, 2), (2, 0), (3, 0)]
)


@pytest.mark.parametrize("r,n", WALL_ORACLE_CONFIGS)
def test_sigma_cone_matches_wall_oracle_on_every_enumerated_paving(r, n):
    pv.clear_caches()
    try:
        for paving in enumerate_admissible_pavings(r, n):
            new = _cone_outcome(sigma_cone, paving)
            assert new == _cone_outcome(oracle_wall_sigma_cone, paving), paving.key()
    finally:
        pv.clear_caches()


def test_sigma_cone_of_the_one_pave_paving_of_2_3_is_the_zero_cone():
    # n = 3 has no unit cells; a one-pavé paving needs none
    paving = trivial_paving(2, 3)
    assert fields_of(sigma_cone(paving)) == fields_of(oracle_wall_sigma_cone(paving))
    assert sigma_cone(paving) == Cone.zero(quotient_lattice(2, 3).rank)


def test_one_from_hrep_per_configuration():
    """From cold caches, the (3, 2) enumeration, the cones of its 176
    pavings and the cones of all 320 exact covers take one `from_hrep`
    in all: that of the unit-cell cone."""
    covers = oracle_exact_covers(3, 2)
    real = Cone.from_hrep
    calls = []

    def spy(rank, ineqs, eqs=()):
        calls.append(rank)
        return real(rank, ineqs, eqs)

    pv.clear_caches()
    try:
        with mock.patch.object(Cone, "from_hrep", spy):
            pavings = enumerate_admissible_pavings(3, 2)
            cones = [sigma_cone(p) for p in pavings]
            outcomes = [_cone_outcome(sigma_cone, p) for p in covers]
    finally:
        pv.clear_caches()
    assert calls == [quotient_lattice(3, 2).rank]
    assert len(cones) == 176 and len(outcomes) == 320
    assert sum(o[0] is NotAdmissible for o in outcomes) == 144


def test_sigma_cone_and_enumeration_run_no_lp():
    pv.clear_caches()
    try:
        with mock.patch.object(ratlp, "_simplex", side_effect=AssertionError("LP run")):
            pavings = enumerate_admissible_pavings(3, 2)
            outcomes = [_cone_outcome(sigma_cone, p) for p in oracle_exact_covers(3, 2)]
    finally:
        pv.clear_caches()
    assert len(pavings) == 176
    assert sum(o[0] is NotAdmissible for o in outcomes) == len(outcomes) - 176 == 144


# ---------------------------------------------------------------------------
# regular subdivisions from the lifted lower hull against the interpolation
# loop they replaced, kept here as the test oracle


def oracle_regular_subdivision(h):
    """Every affinely independent (n+1)-point interpolation of h over Q
    that is a minorant of h is a support; a support's cell is the set of
    lattice points where it attains the envelope of all supports."""
    r, n = h.r, h.n
    pts = list(enumerate_lattice_points(r, n))
    supports = {}
    full_rank = list(range(n + 1))
    for sub in combinations(range(len(pts)), n + 1):
        # one reduction of [points | heights]: the points are affinely
        # independent exactly when the pivots are 0..n, and the last
        # column then holds the interpolating coefficients
        aug = [[Fraction(x) for x in pts[i]] + [h.values[i]] for i in sub]
        red, pivots = qlinalg.rref(QQ, aug)
        if pivots != full_rank:
            continue
        c = [row[n + 1] for row in red]
        vals = [sum((cj * xj for cj, xj in zip(c, p)), Fraction(0)) for p in pts]
        if any(v > hv for v, hv in zip(vals, h.values)):
            continue  # not a minorant
        touch = frozenset(i for i, (v, hv) in enumerate(zip(vals, h.values)) if v == hv)
        supports[touch] = tuple(vals)
    if not supports:
        raise NotAPaving("no full-dimensional affine support found")
    env = [max(vals[i] for vals in supports.values()) for i in range(len(pts))]
    cells = sorted(
        {tuple(i for i in range(len(pts)) if vals[i] == env[i]) for vals in supports.values()}
    )
    try:
        paves = [pave_from_points(r, n, [pts[i] for i in c]) for c in cells]
        return pv.paving_from_paves(r, n, paves)
    except NotAPave as e:
        raise NotAPaving(f"degenerate heights: {e}") from e


def _subdivision_outcome(subdivide, h):
    """The paving's key, or (error type, message)."""
    try:
        return subdivide(h).key()
    except (NotAPaving, TooLarge) as e:
        return type(e), str(e)


def _same_subdivision(h):
    new = _subdivision_outcome(regular_subdivision, h)
    assert new == _subdivision_outcome(oracle_regular_subdivision, h), (h.r, h.n, h.values)
    return new


@pytest.mark.parametrize("r,n", [(2, 2), (2, 1), (3, 1), (4, 1)])
def test_lower_hull_matches_interpolation_on_all_small_heights(r, n):
    pts = enumerate_lattice_points(r, n)
    outcomes = [
        _same_subdivision(LatticeFunction(r, n, tuple(Fraction(v) for v in vals)))
        for vals in product((0, 1, 2), repeat=len(pts))
    ]
    pavings = {o for o in outcomes if not isinstance(o[0], type)}
    assert trivial_paving(r, n).key() in pavings and len(pavings) >= 2
    if n == 2:
        assert any(o[0] is NotAPaving for o in outcomes)


SUBDIVISION_CONFIGS = ((3, 2), (2, 2), (2, 3), (5, 1), (1, 0), (4, 0))


@st.composite
def rational_heights(draw):
    r, n = draw(st.sampled_from(SUBDIVISION_CONFIGS))
    size = len(enumerate_lattice_points(r, n))
    nums = draw(st.lists(st.integers(-40, 40), min_size=size, max_size=size))
    dens = draw(st.lists(st.integers(1, 6), min_size=size, max_size=size))
    return LatticeFunction(r, n, tuple(Fraction(a, b) for a, b in zip(nums, dens)))


@settings(max_examples=200, deadline=None)
@given(rational_heights())
def test_lower_hull_matches_interpolation_on_rational_heights(h):
    _same_subdivision(h)


@pytest.mark.parametrize("r,n", [(2, 2), (3, 1), (4, 1), (3, 2)])
def test_lower_hull_regenerates_every_admissible_paving(r, n):
    for paving in enumerate_admissible_pavings(r, n):
        witness = is_admissible(paving).witness
        assert _same_subdivision(witness) == paving.key()


def bent_height(rng, r, n):
    """A sum of max(0, k - x_i) with random nonnegative weights, convex
    and bent only along the lines x_i = k that bound the unit cells, plus
    a random affine function: its regular subdivision is a paving."""
    bends = [(i, k, Fraction(rng.choice((0, 0, 1, 2, 3)), rng.choice((1, 2))))
             for i in range(n + 1) for k in range(1, r)]
    affine = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n + 1)]
    return LatticeFunction(r, n, tuple(
        sum(c * max(0, k - p[i]) for i, k, c in bends) + sum(a * x for a, x in zip(affine, p))
        for p in enumerate_lattice_points(r, n)
    ))


def subdivision_sweep(seed):
    """Seeded heights of the sizes the subdivision benchmark draws: bent
    ones and uniform rationals (mostly degenerate for n = 2) on (3, 2)
    and (2, 2), and one uniform height on (r, 1) for r = 3..6."""
    rng = random.Random(seed)
    out = []
    for (r, n), bent, uniform in [((3, 2), 16, 24), ((2, 2), 8, 4)] + [
        ((r, 1), 0, 1) for r in range(3, 7)
    ]:
        out += [bent_height(rng, r, n) for _ in range(bent)]
        out += [
            LatticeFunction(r, n, tuple(
                Fraction(rng.randint(-40, 40), rng.choice((1, 2, 3, 4)))
                for _ in enumerate_lattice_points(r, n)
            ))
            for _ in range(uniform)
        ]
    return out


def test_double_description_takes_no_rank_and_pave_tables_miss_once_per_configuration():
    """Work counts of the enumeration of (3, 2) and a seeded subdivision
    sweep: one double description for the unit-cell cone and one per
    height, none of which takes an integer rank, and one pavé table per
    configuration, read by every other pavé built."""
    callers = Counter()
    builds = []
    dd_calls = []
    real_rank, real_build, real_dd = zlattice.int_rank, pv.pave_from_points, fans.double_description

    def rank_spy(rows):
        callers[sys._getframe(1).f_code.co_name] += 1
        return real_rank(rows)

    def build_spy(r, n, points):
        builds.append((r, n))
        return real_build(r, n, points)

    def dd_spy(rows, dim):
        dd_calls.append(dim)
        return real_dd(rows, dim)

    heights = subdivision_sweep(101)
    pv.clear_caches()
    try:
        with mock.patch.object(zlattice, "int_rank", rank_spy), mock.patch.object(
            pv, "pave_from_points", build_spy
        ), mock.patch.object(pv, "double_description", dd_spy), mock.patch.object(
            fans, "double_description", dd_spy
        ):
            assert len(enumerate_admissible_pavings(3, 2)) == 176
            for h in heights:
                try:
                    regular_subdivision(h)
                except NotAPaving:
                    pass
        info = pv._pave_table.cache_info()
    finally:
        pv.clear_caches()
    assert len(dd_calls) == 1 + len(heights)
    assert callers["double_description"] == 0
    assert callers["pave_from_points"] > 0
    assert info.misses == len(set(builds)) == 6
    assert info.hits == len(builds) - info.misses


@cache
def admissible_keys(r, n):
    """The keys of `enumerate_admissible_pavings(r, n)`, enumerated once."""
    return frozenset(p.key() for p in enumerate_admissible_pavings(r, n))


def test_regular_subdivisions_of_4_2_lie_in_the_enumeration():
    """Seeded heights on (4, 2): sums of max(0, k - x_i) with random
    nonnegative weights, convex and bent only along the lines x_i = k
    that bound the unit cells, plus a random affine function, so none is
    degenerate; and uniform heights, most of which are."""
    r, n = 4, 2
    keys = admissible_keys(r, n)
    assert len(keys) == 12800
    pts = enumerate_lattice_points(r, n)
    rng = random.Random(42)
    seen = set()
    for _ in range(200):
        h = bent_height(rng, r, n)
        key = regular_subdivision(h).key()
        assert key in keys, h.values
        seen.add(key)
    assert len(seen) > 100
    uniform = 0
    for _ in range(500):
        h = LatticeFunction(r, n, tuple(
            Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3, 4))) for _ in pts
        ))
        try:
            key = regular_subdivision(h).key()
        except NotAPaving:
            continue
        assert key in keys, h.values
        uniform += 1
    assert uniform > 0


def test_faces_are_coarsenings_on_4_2():
    """Criterion 3's face <=> coarsening test on (4, 2), where all 12,800
    squared pairs are out of reach: for seeded pavings p, every coarser
    paving q and as many others, q's cone is a face of p's exactly when
    p refines q."""
    pavings = enumerate_admissible_pavings(4, 2)
    rng = random.Random(24)
    for p in rng.sample(pavings, 6):
        coarser, others = [], []
        for q in pavings:
            (coarser if refines(p, q) else others).append(q)
        others = rng.sample(others, len(coarser))
        cone = sigma_cone(p)
        assert all(fans.is_face(sigma_cone(q), cone) for q in coarser)
        assert not any(fans.is_face(sigma_cone(q), cone) for q in others)


def test_lower_hull_matches_interpolation_on_large_denominators():
    rng = random.Random(11)
    big = (10**12 + 39, 2**61 - 1, 3**40, 10**30 + 57)
    for r, n in ((3, 2), (2, 2), (4, 1)):
        pts = enumerate_lattice_points(r, n)
        for _ in range(20):
            vals = tuple(Fraction(rng.randint(-10**15, 10**15), rng.choice(big)) for _ in pts)
            _same_subdivision(LatticeFunction(r, n, vals))


def test_affine_heights_give_the_trivial_paving():
    rng = random.Random(12)
    for r, n in ((3, 2), (2, 2), (2, 3), (5, 1), (3, 0)):
        pts = enumerate_lattice_points(r, n)
        for _ in range(10):
            c = [Fraction(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(n + 1)]
            h = LatticeFunction(r, n, tuple(sum(a * x for a, x in zip(c, p)) for p in pts))
            assert _same_subdivision(h) == trivial_paving(r, n).key()


def test_lower_hull_is_one_double_description_per_height():
    calls = []
    real = fans.double_description

    def spy(rows, dim):
        calls.append(dim)
        return real(rows, dim)

    h = heights(3, 1, {(3, 0): 0, (2, 1): -1, (1, 2): -1, (0, 3): 0})
    with mock.patch.object(pv, "double_description", spy), mock.patch.object(
        qlinalg, "rref", side_effect=AssertionError("rref called")
    ):
        paving = regular_subdivision(h)
    assert calls == [3]
    assert [p.points for p in paving.paves] == [
        ((1, 2), (0, 3)),
        ((2, 1), (1, 2)),
        ((3, 0), (2, 1)),
    ]


def test_caches_are_bounded():
    # every configuration 1 <= n <= 2 under the point cap fits in the
    # per-configuration caches
    configs = [(r, n) for n in (1, 2) for r in range(1, pv.ENUMERATION_POINT_CAP)
               if comb(r + n, n) <= pv.ENUMERATION_POINT_CAP]
    assert len(configs) == 18 and len(configs) <= pv.CONFIG_CACHE_SIZE
    for cached in (pv.unit_cells, pv._unit_cone, pv._pave_table, pv._twisted_cone):
        assert cached.cache_info().maxsize == pv.CONFIG_CACHE_SIZE
    assert is_admissible.cache_info().maxsize == pv.CACHE_SIZE


def test_clear_caches_empties_the_configuration_caches():
    caches = [
        f for f in vars(pv).values()
        if hasattr(f, "cache_info") and f.__module__ == pv.__name__
    ]
    assert {f.__name__ for f in caches} == {
        "unit_cells", "_unit_cone", "_pave_table", "is_admissible", "_twisted_cone"
    }
    # the enumeration runs no admissibility LP; one runs here
    enumerate_admissible_pavings(2, 2)
    is_admissible(trivial_paving(2, 2))
    is_q_admissible(trivial_paving(2, 2), 2)
    assert all(f.cache_info().currsize > 0 for f in caches)
    pv.clear_caches()
    assert all(f.cache_info().currsize == 0 for f in caches)


# ---------------------------------------------------------------------------
# the enumeration by the faces of the unit-cell secondary cone against the
# exhaustive search it replaced (candidate pavés over all 2^|S| point sets,
# exact covers of the unit cells, the admissibility LP as the filter), kept
# here as the test oracle


@cache
def oracle_candidate_paves(r, n):
    """All integer pavés of the simplex, canonically ordered."""
    pts = enumerate_lattice_points(r, n)
    found = {}
    for size in range(n + 1, len(pts) + 1):
        for sub in combinations(pts, size):
            try:
                pave = pave_from_points(r, n, sub)
            except (NotAPave, EmptyInterior):
                continue
            found[pave.key()] = pave
    return tuple(found[k] for k in sorted(found))


@cache
def oracle_exact_covers(r, n):
    """Every exact cover of the unit cells by candidate pavés, as pavings
    in backtracking order (r >= 2, n <= 2)."""
    paves = oracle_candidate_paves(r, n)
    masks = [p.cell_mask for p in paves]
    ncells = len(pv.unit_cells(r, n))
    full = (1 << ncells) - 1
    cell_to_paves = [[i for i, m in enumerate(masks) if m >> c & 1] for c in range(ncells)]
    covers = []

    def backtrack(acc_mask, chosen):
        if acc_mask == full:
            covers.append(chosen)
            return
        lowest = 0
        while acc_mask & (1 << lowest):
            lowest += 1
        for i in cell_to_paves[lowest]:
            if not (masks[i] & acc_mask):
                backtrack(acc_mask | masks[i], chosen + (i,))

    backtrack(0, ())
    return tuple(pv.paving_from_paves(r, n, [paves[i] for i in c]) for c in covers)


@cache
def oracle_enumerate_admissible_pavings(r, n):
    """The exact covers that pass the admissibility LP, canonically sorted."""
    if comb(r + n, n) > pv.ENUMERATION_POINT_CAP:
        raise TooLarge(f"|S^{{{r},{n}}}| exceeds the enumeration cap")
    if r == 1 or n == 0:
        return (trivial_paving(r, n),)
    if n > pv.ENUMERATION_N_CAP:
        raise TooLarge("enumeration capped at n <= 2 for r >= 2")
    out = [p for p in oracle_exact_covers(r, n) if is_admissible(p).admissible]
    out.sort(key=lambda p: (len(p.paves), p.key()))
    return tuple(out)


ORACLE_CONFIGS = (
    [(r, 1) for r in range(1, 12)]
    + [(2, 2), (3, 2)]
    + [(1, n) for n in range(5)]
    + [(r, 0) for r in range(1, 6)]
)


@pytest.mark.parametrize("r,n", ORACLE_CONFIGS)
def test_enumeration_matches_exhaustive_oracle(r, n):
    assert enumerate_admissible_pavings(r, n) == oracle_enumerate_admissible_pavings(r, n)


def test_enumeration_reads_one_cone_with_no_lp():
    """(3, 2): no admissibility LP, one secondary cone (of the unit-cell
    triangulation), and a pavé built once per distinct cell group."""
    pv.clear_caches()
    lps, builds = [], []
    real_lp, real_build = pv.max_slack, pv.pave_from_points

    def lp_spy(*args, **kwargs):
        lps.append(1)
        return real_lp(*args, **kwargs)

    def build_spy(*args):
        builds.append(frozenset(args[2]))
        return real_build(*args)

    try:
        with mock.patch.object(pv, "max_slack", lp_spy), mock.patch.object(
            pv, "pave_from_points", build_spy
        ):
            pavings = enumerate_admissible_pavings(3, 2)
    finally:
        pv.clear_caches()
    assert len(pavings) == 176
    assert not lps
    assert len(builds) == len(set(builds)) < 100
    distinct = {pave for paving in pavings for pave in paving.paves}
    assert len(builds) == len(distinct)


# ---------------------------------------------------------------------------
# q-admissibility from the secondary cone and the twisted subspace against
# the LP it replaced, kept here as the test oracle


def oracle_lp_is_q_admissible(paving, q):
    """The admissibility LP over per-pavé affine coefficients, extended by
    n+1 global affine coefficients a and the rows
    (h+a)(0,i1,i2) = q (h+a)(i1,0,i2); strictly feasible or not."""
    if not is_admissible(paving).admissible:
        return False
    n = paving.n
    owner = pv._cell_assignment(paving)
    base = len(paving.paves) * (n + 1)
    nvars = base + n + 1

    def cell_row(k, x):
        row = [0] * nvars
        row[k * (n + 1):(k + 1) * (n + 1)] = x
        return row

    def h_plus_a_row(x, scale):
        row = [0] * nvars
        for j in range(n + 1):
            row[owner[x] * (n + 1) + j] += scale * x[j]
            row[base + j] += scale * x[j]
        return row

    eq_rows, folds = [], []
    for k, l, shared, witness in interior_walls(paving):
        for x in shared:
            row = [a - b for a, b in zip(cell_row(k, x), cell_row(l, x))]
            if any(row):
                eq_rows.append(row)
        folds.append([a - b for a, b in zip(cell_row(l, witness), cell_row(k, witness))])
    for p in enumerate_lattice_points(paving.r, n):
        if p[0] == 0:
            twin = (p[1], 0, p[2])
            eq_rows.append([a - b for a, b in zip(h_plus_a_row(p, 1), h_plus_a_row(twin, q))])
    delta, _ = max_slack(folds, eq_rows, nvars=nvars)
    return delta > 0


@pytest.mark.parametrize("r", [2, 3])
def test_q_admissibility_matches_lp_oracle_on_every_exact_cover(r):
    seen = set()
    for paving in oracle_exact_covers(r, 2):
        for q in (2, 3, 4):
            got = is_q_admissible(paving, q)
            assert got == oracle_lp_is_q_admissible(paving, q), (paving.key(), q)
            seen.add((got, is_admissible(paving).admissible))
    # (3, 2) has non-admissible covers, which are never q-admissible
    assert seen == ({(True, True), (False, True), (False, False)} if r == 3
                    else {(True, True), (False, True)})


def oracle_intersection_is_q_admissible(paving, q):
    """The former `is_q_admissible`: the paving's secondary cone is
    intersected with the twisted subspace on every call, two double
    descriptions each."""
    try:
        cone = sigma_cone(paving)
    except NotAdmissible:
        return False
    return fans.relint_meets(cone, Cone.from_hrep(cone.rank, (), pv._twisted_rows(paving.r, q)))


@pytest.mark.parametrize("r", [2, 3])
def test_q_admissibility_matches_intersection_oracle_on_every_exact_cover(r):
    covers = oracle_exact_covers(r, 2)
    for q in (2, 3, 5):
        got = [is_q_admissible(p, q) for p in covers]
        assert got == [oracle_intersection_is_q_admissible(p, q) for p in covers], q
        assert True in got and False in got


def test_q_admissibility_runs_one_double_description_per_q():
    pavings = enumerate_admissible_pavings(3, 2)
    real_dd = fans.double_description
    calls = []

    def dd(rows, dim):
        calls.append(dim)
        return real_dd(rows, dim)

    pv.clear_caches()
    try:
        with mock.patch.object(fans, "double_description", dd):
            # the unit-cell cone, then C cap L once per q
            assert sum(is_q_admissible(p, 2) for p in pavings) == 56
            assert len(calls) == 2
            assert sum(is_q_admissible(p, 3) for p in pavings) == 56
            assert len(calls) == 3
    finally:
        pv.clear_caches()


# ---------------------------------------------------------------------------
# unit-cell masks by set inclusion, against the inequality test they replaced


def oracle_cell_mask(pave):
    """The cells all of whose vertices satisfy sum_{j in J} x_j >= d_J
    for every proper nonempty J."""
    d = pave.profile.as_dict()
    inequalities = [(J, d[J]) for J in pv._proper_nonempty_subsets(pave.n)]

    def contains(x):
        return all(sum(x[j] for j in J) >= dJ for J, dJ in inequalities)

    mask = 0
    for idx, cell in enumerate(pv.unit_cells(pave.r, pave.n)):
        if all(contains(v) for v in cell):
            mask |= 1 << idx
    return mask


@pytest.mark.parametrize("r,n", [(2, 2), (3, 2)] + [(r, 1) for r in range(1, 12)])
def test_cell_mask_matches_inequality_oracle(r, n):
    paves = {pave for paving in enumerate_admissible_pavings(r, n) for pave in paving.paves}
    if n == 2:
        paves.update(oracle_candidate_paves(r, n))
    for pave in paves:
        assert pave.cell_mask == oracle_cell_mask(pave), pave.points


# ---------------------------------------------------------------------------
# edge counts from the profile, against the convex hull they replaced


def oracle_hull_edge_count(pave):
    """Vertices of the monotone-chain hull of the pavé's points in the
    (x_1, x_2) chart."""
    pts = sorted({(p[1], p[2]) for p in pave.points})
    if len(pts) < 3:
        return len(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(points):
        out = []
        for p in points:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return len(chain(pts)[:-1] + chain(pts[::-1])[:-1])


def paves_from_every_profile(r):
    """Every pavé of the n = 2 simplex of size r: each is cut out by
    lo_i <= x_i <= hi_i, so every integer choice of the six bounds is
    tried, and the point sets that are pavés are kept."""
    points = enumerate_lattice_points(r, 2)
    bounds = [(lo, hi) for lo in range(r + 1) for hi in range(lo, r + 1)]
    seen, paves = set(), []
    for box in product(bounds, repeat=3):
        pts = tuple(p for p in points if all(lo <= x <= hi for x, (lo, hi) in zip(p, box)))
        if pts in seen:
            continue
        seen.add(pts)
        try:
            paves.append(pave_from_points(r, 2, pts))
        except (NotAPave, EmptyInterior):
            pass
    return paves


def test_edge_count_matches_hull_oracle_on_every_pave():
    total = 0
    for r in range(1, 7):
        for pave in paves_from_every_profile(r):
            assert pave_edge_count(pave) == oracle_hull_edge_count(pave), pave.points
            total += 1
    assert total == 1493
