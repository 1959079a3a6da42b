import functools
import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import lcm
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chtoucakit import fans, jsonio, ratlp, zlattice
from chtoucakit import pavings as pv
from chtoucakit.errors import NotAPaving, TooLarge
from chtoucakit.fields import QQ
from chtoucakit.simplex_core import LatticeFunction
from chtoucakit.fans import (
    Cone,
    Fan,
    dual_cone,
    is_face,
    monoid_generators,
    orthant_fan,
    proper_faces,
    tau_points,
    tau_sequence_check,
    torus_sequence_check,
    verify_fan,
)
from test_pavings import subdivision_sweep
from test_zlattice import snf_diagonal


def test_zero_cone_and_full_dual():
    z = Cone.zero(2)
    assert z.rays == () and z.lin == ()
    d = dual_cone(z)
    assert d.lin == ((1, 0), (0, 1))
    assert d.rays == ()


def test_orthant_self_dual():
    orth = Cone.from_generators(2, [(1, 0), (0, 1)])
    assert dual_cone(orth) == orth
    assert sorted(orth.rays) == [(0, 1), (1, 0)]


def test_dual_of_skew_ray():
    ray = Cone.from_generators(2, [(1, 2)])
    d = dual_cone(ray)
    assert d.ineqs == ((1, 2),)
    assert d.lin == ((2, -1),)


def test_double_dual_identity():
    rng = random.Random(3)
    for _ in range(40):
        dim = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(0, 4))]
        c = Cone.from_generators(dim, gens)
        assert dual_cone(dual_cone(c)) == c


def test_vrep_hrep_round_trip():
    rng = random.Random(9)
    for _ in range(40):
        dim = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(1, 4))]
        c = Cone.from_generators(dim, gens)
        again = Cone.from_hrep(dim, c.ineqs, c.eqs)
        assert again == c


def test_face_examples():
    orth = Cone.from_generators(2, [(1, 0), (0, 1)])
    assert is_face(Cone.zero(2), orth)
    assert is_face(Cone.from_generators(2, [(1, 0)]), orth)
    assert not is_face(Cone.from_generators(2, [(1, 1)]), orth)
    assert is_face(orth, orth)


def test_proper_faces_of_orthant():
    orth = Cone.from_generators(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    faces = proper_faces(orth)
    assert len(faces) == 7  # 3 facets, 3 rays, apex


def test_orthant_fan_passes():
    rep = verify_fan(orthant_fan(2))
    assert rep.ok
    rep3 = verify_fan(orthant_fan(3))
    assert rep3.ok


def test_fan_missing_face_fails():
    # orthant with one boundary ray omitted
    cones = (
        Cone.zero(2),
        Cone.from_generators(2, [(1, 0)]),
        Cone.from_generators(2, [(1, 0), (0, 1)]),
    )
    rep = verify_fan(Fan(2, cones))
    assert not rep.ok
    assert any(f[0] == "face_missing" for f in rep.failures)


def test_overlapping_cones_fail():
    cones = (
        Cone.zero(2),
        Cone.from_generators(2, [(1, 0)]),
        Cone.from_generators(2, [(0, 1)]),
        Cone.from_generators(2, [(1, 1)]),
        Cone.from_generators(2, [(1, 0), (0, 1)]),
        Cone.from_generators(2, [(1, 1), (0, 1)]),
    )
    rep = verify_fan(Fan(2, cones))
    assert not rep.ok


def test_monoid_orthant():
    gens = monoid_generators(Cone.from_generators(2, [(1, 0), (0, 1)]))
    assert gens == [(0, 1), (1, 0)]


def test_monoid_half_plane():
    # dual of the diagonal ray is a half-plane whose monoid needs the
    # boundary units plus one interior generator
    gens = monoid_generators(Cone.from_generators(2, [(1, 1)]))
    assert gens == [(-1, 1), (0, 1), (1, -1)]


def test_monoid_singular_cone_needs_extra_generator():
    gens = monoid_generators(Cone.from_generators(2, [(1, 0), (1, 2)]))
    assert len(gens) > 2
    assert gens == [(0, 1), (1, 0), (2, -1)]


def test_monoid_rank_cap():
    with pytest.raises(TooLarge):
        monoid_generators(Cone.zero(5))


@pytest.mark.parametrize(
    "r,n,dim",
    [(2, 1, 1), (3, 1, 2), (4, 1, 3), (1, 3, 0), (2, 2, 3)],
)
def test_torus_sequence(r, n, dim):
    rep = torus_sequence_check(r, n)
    assert rep.ok, rep.checks
    assert rep.dim_torus == dim


@pytest.mark.parametrize("r,q,size", [(1, 2, 1), (2, 2, 3), (3, 3, 6)])
def test_tau_sequence(r, q, size):
    rep = tau_sequence_check(r, q)
    assert rep.ok, rep.checks
    assert len(tau_points(r)) == size
    assert rep.dim_torus == size - 1


# ---------------------------------------------------------------------------
# differential tests: the incidence-mask double description, the face
# lattice read off ray-facet incidence and the DD-free face test against
# the code they replaced, kept here as test-only oracles


def oracle_clear_denominators(v):
    """Scale a rational vector to a primitive integer vector (same sign)."""
    scale = lcm(*(Fraction(x).denominator for x in v))
    return zlattice.primitive_ray([int(Fraction(x) * scale) for x in v])


def oracle_reduce_mod_lineality(ray, lin_rows):
    if not lin_rows:
        return zlattice.primitive_ray(ray)
    v = [Fraction(x) for x in ray]
    for b in lin_rows:
        piv = next(j for j, x in enumerate(b) if x != 0)
        if v[piv] != 0:
            c = v[piv] / b[piv]
            v = [x - c * Fraction(y) for x, y in zip(v, b)]
    return oracle_clear_denominators(v)


def oracle_double_description(rows, dim):
    """Double description recomputing every ray's tight set at every row,
    with the rank test and the reduction mod lineality over Q (the
    saturation step is the package's, checked on its own below)."""
    lin = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays = []
    processed = []

    def zset(r):
        return frozenset(j for j, a in enumerate(processed) if fans._dot(a, r) == 0)

    for a in rows:
        if all(x == 0 for x in a):
            continue
        cut = next((l for l in lin if fans._dot(a, l) != 0), None)
        if cut is not None:
            if fans._dot(a, cut) < 0:
                cut = tuple(-x for x in cut)
            al = fans._dot(a, cut)
            new_lin = []
            for l in lin:
                if l is cut or l == cut or l == tuple(-x for x in cut):
                    continue
                adj = tuple(al * x - fans._dot(a, l) * y for x, y in zip(l, cut))
                if any(adj):
                    new_lin.append(zlattice.primitive(adj))
            lin = new_lin
            new_rays = [zlattice.primitive_ray(cut)]
            for r in rays:
                adj = tuple(al * x - fans._dot(a, r) * y for x, y in zip(r, cut))
                if any(adj):
                    new_rays.append(zlattice.primitive_ray(adj))
            rays = list(dict.fromkeys(new_rays))
        else:
            plus = [r for r in rays if fans._dot(a, r) > 0]
            zero = [r for r in rays if fans._dot(a, r) == 0]
            minus = [r for r in rays if fans._dot(a, r) < 0]
            if minus:
                lin_dim = len(lin)
                zsets = {r: zset(r) for r in rays}
                new_rays = plus + zero
                for rp in plus:
                    for rm in minus:
                        common = zsets[rp] & zsets[rm]
                        tight_rows = [processed[j] for j in common]
                        k_dim = dim - zlattice.int_rank(tight_rows) if tight_rows else dim
                        if k_dim != lin_dim + 2:
                            continue
                        combo = tuple(
                            fans._dot(a, rp) * x - fans._dot(a, rm) * y for x, y in zip(rm, rp)
                        )
                        if any(combo):
                            new_rays.append(zlattice.primitive_ray(combo))
                rays = list(dict.fromkeys(new_rays))
        processed.append(tuple(a))

    lin = fans._saturate(lin, dim)
    canon = []
    for r in rays:
        red = oracle_reduce_mod_lineality(r, lin)
        if any(red):
            canon.append(red)
    return lin, sorted(dict.fromkeys(canon))


def oracle_rank_double_description(rows, dim):
    """Double description with the tight-row masks of the package's, but
    the algebraic adjacency test: the common tight rows of a pair have
    rank dim - dim(lineality) - 2."""
    lin = list(fans._unit_rows(dim))
    rays = {}
    processed = []
    for a in rows:
        if not any(a):
            continue
        bit = 1 << len(processed)
        lin_dots = [fans._dot(a, l) for l in lin]
        k = next((i for i, d in enumerate(lin_dots) if d != 0), None)
        if k is not None:
            cut, al = lin[k], lin_dots[k]
            if al < 0:
                cut, al = tuple(-x for x in cut), -al
            new_lin = []
            for l, d in zip(lin, lin_dots):
                adj = tuple(al * x - d * y for x, y in zip(l, cut))
                if any(adj):
                    new_lin.append(zlattice.primitive(adj))
            lin = new_lin
            new_rays = {zlattice.primitive_ray(cut): bit - 1}
            for r, mask in rays.items():
                d = fans._dot(a, r)
                adj = tuple(al * x - d * y for x, y in zip(r, cut))
                if any(adj):
                    new_rays[zlattice.primitive_ray(adj)] = mask | bit
        else:
            sides = [(r, mask, fans._dot(a, r)) for r, mask in rays.items()]
            new_rays = {r: mask | bit if d == 0 else mask for r, mask, d in sides if d >= 0}
            need = dim - len(lin) - 2
            for rp, mp, dp in (s for s in sides if s[2] > 0):
                for rm, mm, dm in (s for s in sides if s[2] < 0):
                    common = mp & mm
                    if common.bit_count() < need:
                        continue
                    tight = [row for j, row in enumerate(processed) if common >> j & 1]
                    if zlattice.int_rank(tight) != need:
                        continue
                    combo = tuple(dp * x - dm * y for x, y in zip(rm, rp))
                    new_rays.setdefault(zlattice.primitive_ray(combo), common | bit)
        rays = new_rays
        processed.append(tuple(a))
    lin = fans._saturate(lin, dim)
    canon = [red for red in (fans._reduce_mod_lineality(r, lin) for r in rays) if any(red)]
    return lin, sorted(dict.fromkeys(canon))


def oracle_canonical(rank, lin, rays):
    gens = list(rays) + [v for b in lin for v in (b, tuple(-x for x in b))]
    eqs, ineqs = oracle_double_description(gens, rank)
    return Cone(rank, tuple(map(tuple, lin)), tuple(map(tuple, rays)),
                tuple(map(tuple, eqs)), tuple(map(tuple, ineqs)))


def oracle_from_hrep(rank, ineqs, eqs=()):
    rows = [tuple(r) for r in ineqs]
    for e in eqs:
        rows += [tuple(e), tuple(-x for x in e)]
    return oracle_canonical(rank, *oracle_double_description(rows, rank))


def oracle_proper_faces(c):
    """Every facet of every face reached, rebuilt by double description."""
    out = set()
    frontier = [c]
    while frontier:
        cur = frontier.pop()
        for i in range(len(cur.ineqs)):
            f = oracle_from_hrep(
                cur.rank,
                [r for j, r in enumerate(cur.ineqs) if j != i],
                list(cur.eqs) + [cur.ineqs[i]],
            )
            if f != cur and f not in out:
                out.add(f)
                frontier.append(f)
    return out


def oracle_dd_canonical(rank, lin, rays):
    """The cone with this lineality and these rays, its H-description from
    a second double description of its generators."""
    gens = list(rays) + [v for b in lin for v in (b, tuple(-x for x in b))]
    eqs, ineqs = fans.double_description(gens, rank)
    return Cone(rank, tuple(map(tuple, lin)), tuple(map(tuple, rays)),
                tuple(map(tuple, eqs)), tuple(map(tuple, ineqs)))


def oracle_dd_from_hrep(rank, ineqs, eqs=()):
    """Two double descriptions: the rows' generators, then theirs."""
    rows = [tuple(r) for r in ineqs]
    for e in eqs:
        rows += [tuple(e), tuple(-x for x in e)]
    return oracle_dd_canonical(rank, *fans.double_description(rows, rank))


def oracle_dd_from_generators(rank, gens):
    """Two double descriptions: the dual's generators, then theirs."""
    gens = [tuple(g) for g in gens if any(g)]
    lin_d, rays_d = fans.double_description(gens, rank)
    dual_gens = list(rays_d) + [v for b in lin_d for v in (b, tuple(-x for x in b))]
    lin, rays = fans.double_description(dual_gens, rank)
    return Cone(rank, tuple(lin), tuple(rays), tuple(lin_d), tuple(rays_d))


def oracle_dd_dual_cone(c):
    return oracle_dd_from_hrep(c.rank, c.generators())


def oracle_dd_proper_faces(c):
    """Each face of the incidence lattice rebuilt from c.lin and its rays
    by a double description of its generators."""
    full = (1 << len(c.rays)) - 1
    return {
        oracle_dd_canonical(c.rank, c.lin, [r for i, r in enumerate(c.rays) if m >> i & 1])
        for m in fans.face_masks(c, fans._incidence(c.ineqs, c.rays))
        if m != full
    }


def oracle_is_face(t, c):
    """t equals the cone cut out of c by the facets tight on t."""
    if t.rank != c.rank or not c.contains_cone(t):
        return False
    tgens = t.generators() or [tuple(0 for _ in range(c.rank))]
    tight = [row for row in c.ineqs if all(fans._dot(row, g) == 0 for g in tgens)]
    smallest = oracle_from_hrep(
        c.rank, [row for row in c.ineqs if row not in tight], list(c.eqs) + tight
    )
    return smallest == t


def fields_of(c):
    return (c.rank, c.lin, c.rays, c.eqs, c.ineqs)


def assert_saturated(basis, rank):
    """An integer basis spans a saturated lattice iff its elementary
    divisors are all 1."""
    if basis:
        assert snf_diagonal([list(b) for b in basis], rank) == [1] * len(basis)


@st.composite
def hrep_rows(draw, max_dim=4):
    """Rows over Z^dim with duplicated, opposite and zero rows mixed in."""
    dim = draw(st.integers(1, max_dim))
    vec = st.tuples(*[st.integers(-3, 3)] * dim)
    rows = draw(st.lists(vec, max_size=6))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=2))
        rows += [tuple(-x for x in r) for r in draw(st.lists(st.sampled_from(rows), max_size=2))]
    rows += [tuple([0] * dim)] * draw(st.integers(0, 1))
    return dim, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(hrep_rows())
def test_saturate_is_hnf_of_saturated_span(case):
    # these four properties determine Z^dim intersect span(vectors)
    dim, vectors = case
    basis = fans._saturate(vectors, dim)
    assert [list(b) for b in basis] == zlattice.hnf([list(b) for b in basis])
    assert_saturated(basis, dim)
    assert len(basis) == zlattice.int_rank(vectors) == zlattice.int_rank(list(vectors) + basis)
    assert zlattice.hnf([list(b) for b in basis] + [list(v) for v in vectors]) == [
        list(b) for b in basis
    ]


@settings(max_examples=300, deadline=None)
@given(hrep_rows())
def test_double_description_matches_oracle(case):
    dim, rows = case
    lin, rays = fans.double_description(rows, dim)
    assert (lin, rays) == oracle_double_description(rows, dim)
    assert_saturated(lin, dim)
    c = Cone.from_hrep(dim, rows)
    assert fields_of(c) == fields_of(oracle_from_hrep(dim, rows))
    assert_saturated(c.eqs, dim)
    assert fields_of(dual_cone(c)) == fields_of(oracle_from_hrep(dim, c.generators()))


@settings(max_examples=150, deadline=None)
@given(hrep_rows(), st.data())
def test_faces_match_oracle(case, data):
    dim, rows = case
    c = Cone.from_hrep(dim, rows)
    faces = proper_faces(c)
    want = oracle_proper_faces(c)
    assert sorted(map(fields_of, faces)) == sorted(map(fields_of, want))
    vec = st.tuples(*[st.integers(-2, 2)] * dim)
    others = [
        Cone.from_generators(dim, data.draw(st.lists(vec, max_size=3))),
        Cone.from_generators(dim, data.draw(st.lists(st.sampled_from(c.generators()), max_size=3))
                             if c.generators() else []),
        Cone.zero(dim),
        c,
    ]
    for t in list(want) + others:
        assert is_face(t, c) == oracle_is_face(t, c)
    assert all(is_face(f, c) for f in faces)


@st.composite
def cones_with_lineality(draw, max_dim=5):
    """Cones generated by rays and at least one two-sided line."""
    dim = draw(st.integers(2, max_dim))
    vec = st.tuples(*[st.integers(-2, 2)] * dim)
    rays = draw(st.lists(vec, max_size=6))
    lines = draw(st.lists(vec.filter(any), min_size=1, max_size=2))
    return Cone.from_generators(dim, rays + lines + [tuple(-x for x in v) for v in lines])


@st.composite
def zero_one_rows(draw):
    """0/1 rows in dimension 4 to 6: cones far from general position,
    where rays that are not adjacent often share enough tight rows to
    pass the count test."""
    dim = draw(st.integers(4, 6))
    vec = st.tuples(*[st.integers(0, 1)] * dim)
    return dim, draw(st.lists(vec, min_size=dim, max_size=dim + 6))


@settings(max_examples=500, deadline=None)
@given(st.one_of(
    hrep_rows(),
    zero_one_rows(),
    cones_with_lineality().map(lambda c: (c.rank, c.generators())),
))
def test_combinatorial_adjacency_matches_rank_oracle(case):
    dim, rows = case
    assert fans.double_description(rows, dim) == oracle_rank_double_description(rows, dim)


def assert_faces_match_dd_oracle(c):
    with mock.patch.object(fans, "double_description", side_effect=AssertionError("DD")):
        faces = proper_faces(c)
    assert sorted(map(fields_of, faces)) == sorted(map(fields_of, oracle_dd_proper_faces(c)))


@settings(max_examples=200, deadline=None)
@given(st.one_of(hrep_rows().map(lambda case: Cone.from_hrep(*case)), cones_with_lineality()))
def test_faces_from_incidence_match_dd_oracle(c):
    assert_faces_match_dd_oracle(c)


@pytest.mark.parametrize("r,n", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2)])
def test_faces_of_secondary_cones_match_dd_oracle(r, n):
    cones = [pv.sigma_cone(p) for p in pv.enumerate_admissible_pavings(r, n)]
    for c in cones:
        assert_faces_match_dd_oracle(c)
    if n == 1:
        # the finest interval paving's cone is simplicial: 2^(r-1) - 1 proper faces
        assert len(proper_faces(cones[-1])) == 2 ** (r - 1) - 1


def oracle_face(c, m):
    """The face of c with ray mask m, the tight-ray sets of its facets
    taken by dot products of c's facet rows with the face's own rays."""
    lin_gens = [v for b in c.lin for v in (b, tuple(-x for x in b))]
    rays = tuple(r for i, r in enumerate(c.rays) if m >> i & 1)
    eqs = tuple(tuple(e) for e in zlattice.int_kernel(list(rays) + lin_gens, c.rank))
    ineqs = fans._maximal_reduced(
        c.ineqs, fans._incidence(c.ineqs, rays), (1 << len(rays)) - 1, eqs
    )
    return Cone(c.rank, c.lin, rays, eqs, ineqs)


def assert_every_face_matches_oracle_face(c):
    facets = fans._incidence(c.ineqs, c.rays)
    masks = fans.face_masks(c, facets)
    for m in masks:
        assert fields_of(fans.face(c, m, facets)) == fields_of(oracle_face(c, m))
    return len(masks)


@settings(max_examples=100, deadline=None)
@given(cones_with_lineality())
def test_face_by_bit_ands_matches_dot_product_oracle_with_lineality(c):
    assert_every_face_matches_oracle_face(c)


@pytest.mark.parametrize("r,faces", [(2, 8), (3, 176), (4, 12800)])
def test_face_by_bit_ands_matches_dot_product_oracle_on_unit_cell_cones(r, faces):
    # every face of the cone of the unit-cell triangulation T of (r, 2),
    # one per admissible paving
    assert assert_every_face_matches_oracle_face(pv.sigma_cone(pv.paving_from_point_sets(
        r, 2, pv.unit_cells(r, 2)))) == faces


def _sigma_dd_inputs(r, n):
    """Every double-description input met while building the secondary
    cones of (r, n), their faces and their duals, from cold caches."""
    calls = []
    real = fans.double_description

    def record(rows, dim):
        calls.append((list(rows), dim))
        return real(rows, dim)

    pv.clear_caches()
    with mock.patch.object(fans, "double_description", record):
        cones = [pv.sigma_cone(p) for p in pv.enumerate_admissible_pavings(r, n)]
        duals = [dual_cone(c) for c in cones]
    pv.clear_caches()
    return cones, duals, calls


@pytest.mark.parametrize("r,n", [(2, 2), (3, 1), (4, 1), (5, 1)])
def test_secondary_cones_match_oracle(r, n):
    cones, duals, calls = _sigma_dd_inputs(r, n)
    assert calls
    for rows, dim in calls:
        assert fans.double_description(rows, dim) == oracle_double_description(rows, dim)
    for c, d in zip(cones, duals):
        assert fields_of(d) == fields_of(oracle_from_hrep(c.rank, c.generators()))
        assert_saturated(c.eqs, c.rank)
        assert_saturated(d.lin, d.rank)
        faces = proper_faces(c)
        want = oracle_proper_faces(c)
        assert sorted(map(fields_of, faces)) == sorted(map(fields_of, want))
        for t in cones + list(want):
            assert is_face(t, c) == oracle_is_face(t, c)


@pytest.mark.parametrize("r,n", [(2, 2), (3, 1), (4, 1), (5, 1), (3, 2)])
def test_combinatorial_adjacency_matches_rank_oracle_on_secondary_cones(r, n):
    _, _, calls = _sigma_dd_inputs(r, n)
    assert calls
    for rows, dim in calls:
        assert fans.double_description(rows, dim) == oracle_rank_double_description(rows, dim)


def test_combinatorial_adjacency_matches_rank_oracle_on_lifted_heights():
    # the lower hulls of a seeded regular-subdivision sweep
    calls = []
    real = fans.double_description

    def record(rows, dim):
        calls.append((list(rows), dim))
        return real(rows, dim)

    heights = subdivision_sweep(101)
    with mock.patch.object(pv, "double_description", record):
        for h in heights:
            try:
                pv.regular_subdivision(h)
            except NotAPaving:
                pass
    assert len(calls) == len(heights)
    for rows, dim in calls:
        assert fans.double_description(rows, dim) == oracle_rank_double_description(rows, dim)


def test_proper_faces_share_lineality():
    # the half-space x0 >= 0 in Z^3: one facet, one face (its boundary plane)
    c = Cone.from_hrep(3, [(1, 0, 0)])
    (face,) = proper_faces(c)
    assert face.lin == ((0, 1, 0), (0, 0, 1)) and face.rays == ()
    assert fields_of(face) == fields_of(oracle_from_hrep(3, [], [(1, 0, 0)]))
    assert proper_faces(Cone.full(2)) == set()


def test_monoid_units_generate_saturated_lattice():
    # the dual of the ray (2, 1, 1) is a half-space whose unit lattice is
    # {y : 2 y0 + y1 + y2 = 0}, with basis (1, 0, -2), (0, 1, -1); a basis
    # of index 2 would leave (0, 1, -1) out of the monoid's generators
    gens = monoid_generators(Cone.from_generators(3, [(2, 1, 1)]))
    assert (0, 1, -1) in gens and (0, -1, 1) in gens
    assert dual_cone(Cone.from_generators(3, [(2, 1, 1)])).lin == ((1, 0, -2), (0, 1, -1))


def test_internal_checks_run_under_python_O():
    # with the checks' inputs broken on purpose, both internal invariants
    # must still raise InternalError when asserts are stripped
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "from chtoucakit import fans, pavings\n"
        "from chtoucakit.errors import InternalError\n"
        "def report(call):\n"
        "    try:\n"
        "        call()\n"
        "    except InternalError:\n"
        "        print('InternalError')\n"
        "singular = fans.Cone.from_generators(2, [(1, 0), (1, 2)])\n"
        "paving = pavings.enumerate_admissible_pavings(2, 2)[-1]\n"
        # the enumeration caches the unit-cell cone; rebuild it
        "pavings.clear_caches()\n"
        # an elimination whose determinant is off by a factor 2 puts the
        # parallelepiped points off the lattice of the dual
        "bareiss = fans.zlattice._bareiss\n"
        "def doubled(m, ncols, reduced=False):\n"
        "    pivots, det = bareiss(m, ncols, reduced)\n"
        "    return pivots, 2 * det\n"
        "fans.zlattice._bareiss = doubled\n"
        "report(lambda: fans.monoid_generators(singular))\n"
        "fans.zlattice._bareiss = bareiss\n"
        "dd = fans.double_description\n"
        "def negated(rows, dim):\n"
        "    lin, rays = dd(rows, dim)\n"
        "    return lin, [tuple(-x for x in rays[0])] + rays[1:]\n"
        "fans.double_description = negated\n"
        "report(lambda: pavings.sigma_cone(paving))\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["InternalError", "InternalError"]


# ---------------------------------------------------------------------------
# one double description per cone, duals by swapping, and verify_fan
# without the all-pairs loop, against the code they replaced


def oracle_lp_relint_meets(c1, c2):
    """Do the relative interiors intersect?  Exact LP: some point is
    strictly positive on the facet rows of both cones and zero on their
    equalities."""
    strict = [list(r) for r in c1.ineqs] + [list(r) for r in c2.ineqs]
    eqs = [list(e) for e in c1.eqs] + [list(e) for e in c2.eqs]
    if not strict:
        # both are linear spaces, whose relative interiors contain 0
        return True
    d, _ = ratlp.max_slack(strict, eqs, nvars=c1.rank)
    return d > 0


def oracle_verify_fan(fan):
    """The fan axioms with every pair of members intersected, and the
    relative interiors compared by LP."""
    failures = []
    cones = list(fan.cones)
    members = set(cones)
    if Cone.zero(fan.rank) not in members:
        failures.append(("missing_zero_cone",))
    for idx, c in enumerate(cones):
        for f in proper_faces(c):
            if f not in members:
                failures.append(("face_missing", idx, f.rays))
                break
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            c1, c2 = cones[i], cones[j]
            if c1 == c2:
                failures.append(("duplicate_cone", i, j))
                continue
            inter = c1.intersect(c2)
            if inter not in members:
                failures.append(("intersection_not_member", i, j))
                continue
            if not (is_face(inter, c1) and is_face(inter, c2)):
                failures.append(("intersection_not_common_face", i, j))
            if oracle_lp_relint_meets(c1, c2):
                failures.append(("relative_interiors_meet", i, j))
    return fans.FanReport(not failures, fan.rank, len(cones), failures)


@contextmanager
def counting_work():
    """Count the double descriptions run by `fans` and the simplex runs
    (two per LP) of any module."""
    counts = Counter()
    real_dd, real_lp = fans.double_description, ratlp._simplex

    def dd(rows, dim):
        counts["dd"] += 1
        return real_dd(rows, dim)

    def lp(*args, **kwargs):
        counts["lp"] += 1
        return real_lp(*args, **kwargs)

    with mock.patch.object(fans, "double_description", dd), mock.patch.object(
        ratlp, "_simplex", lp
    ):
        yield counts


@functools.lru_cache(maxsize=None)
def secondary_fan(r, n):
    return pv.paving_fan(pv.enumerate_admissible_pavings(r, n))


SMALL_FANS = [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2)]


def invalid_fans():
    orthant = Cone.from_generators(2, [(1, 0), (0, 1)])
    ray = Cone.from_generators(2, [(1, 0)])
    return [
        Fan(2, (Cone.zero(2), ray, orthant)),
        Fan(2, (Cone.zero(2), ray, Cone.from_generators(2, [(0, 1)]),
                Cone.from_generators(2, [(1, 1)]), orthant,
                Cone.from_generators(2, [(1, 1), (0, 1)]))),
        Fan(2, (ray, orthant, ray)),
        Fan(2, orthant_fan(2).cones + (Cone.full(2),)),
        Fan(3, orthant_fan(3).cones[1:] + orthant_fan(3).cones[:2]),
    ]


@pytest.mark.parametrize("r,n", SMALL_FANS)
def test_verify_fan_matches_all_pairs_oracle(r, n):
    fan = secondary_fan(r, n)
    report = verify_fan(fan)
    assert report.ok
    assert report == oracle_verify_fan(fan)


def test_verify_fan_matches_oracle_on_invalid_fans():
    for fan in invalid_fans() + [orthant_fan(2), orthant_fan(3)]:
        assert verify_fan(fan) == oracle_verify_fan(fan)
    assert not any(verify_fan(fan).ok for fan in invalid_fans())


def quadrant_fans():
    """The four quadrants of the plane with their faces, a complete fan
    with four maximal cones, and the same fan with a cone overlapping two
    quadrants added with its rays: every face is present, and the only
    violations are between maximal cones."""
    quads = [Cone.from_generators(2, [(a, 0), (0, b)]) for a in (1, -1) for b in (1, -1)]
    rays = [Cone.from_generators(2, [v]) for v in ((1, 0), (-1, 0), (0, 1), (0, -1))]
    quadrants = Fan(2, (Cone.zero(2), *rays, *quads))
    extra = [Cone.from_generators(2, [(1, 1), (-1, 1)]), Cone.from_generators(2, [(1, 1)]),
             Cone.from_generators(2, [(-1, 1)])]
    return quadrants, Fan(2, quadrants.cones + tuple(extra))


def test_verify_fan_matches_oracle_on_fans_with_several_maximal_cones():
    quadrants, overlapping = quadrant_fans()
    assert verify_fan(quadrants) == oracle_verify_fan(quadrants)
    assert verify_fan(quadrants).ok
    report = verify_fan(overlapping)
    assert report == oracle_verify_fan(overlapping)
    assert not report.ok
    assert "relative_interiors_meet" in {f[0] for f in report.failures}


@st.composite
def corrupted_fans(draw):
    """A secondary fan with faces dropped, cones duplicated or
    overlapping cones added, in any order."""
    r, n = draw(st.sampled_from(SMALL_FANS))
    fan = secondary_fan(r, n)
    cones = list(fan.cones)
    rays = sorted({g for c in cones for g in c.generators()})
    for kind in draw(st.lists(st.sampled_from(["drop", "duplicate", "overlap"]),
                              min_size=1, max_size=3)):
        k = draw(st.integers(0, len(cones) - 1))
        if kind == "drop":
            del cones[k]
        elif kind == "duplicate":
            cones.insert(draw(st.integers(0, len(cones))), cones[k])
        else:
            gens = draw(st.lists(st.sampled_from(rays), min_size=1, max_size=3)) if rays else []
            extra = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * fan.rank), max_size=1))
            cones.insert(k, Cone.from_generators(fan.rank, gens + extra))
        if not cones:
            cones = [Cone.zero(fan.rank)]
    return Fan(fan.rank, tuple(cones))


@settings(max_examples=60, deadline=None)
@given(corrupted_fans())
def test_verify_fan_matches_oracle_on_corrupted_fans(fan):
    assert verify_fan(fan) == oracle_verify_fan(fan) == oracle_marked_verify_fan(fan)


@settings(max_examples=200, deadline=None)
@given(hrep_rows(), st.data())
def test_constructors_and_dual_match_two_pass_oracle(case, data):
    dim, rows = case
    k = data.draw(st.integers(0, len(rows)))
    c = Cone.from_hrep(dim, rows[k:], rows[:k])
    assert fields_of(c) == fields_of(oracle_dd_from_hrep(dim, rows[k:], rows[:k]))
    gens = data.draw(st.permutations(c.generators() + rows))
    assert fields_of(Cone.from_generators(dim, gens)) == fields_of(
        oracle_dd_from_generators(dim, gens)
    )
    assert fields_of(dual_cone(c)) == fields_of(oracle_dd_dual_cone(c))


@settings(max_examples=100, deadline=None)
@given(cones_with_lineality())
def test_constructors_and_dual_with_lineality_match_two_pass_oracle(c):
    gens = c.generators()
    assert fields_of(c) == fields_of(oracle_dd_from_generators(c.rank, gens))
    assert fields_of(Cone.from_hrep(c.rank, c.ineqs, c.eqs)) == fields_of(c)
    assert fields_of(oracle_dd_from_hrep(c.rank, c.ineqs, c.eqs)) == fields_of(c)
    d = dual_cone(c)
    assert fields_of(d) == fields_of(oracle_dd_dual_cone(c))
    assert fields_of(dual_cone(d)) == fields_of(c)


def test_secondary_cones_of_3_2_match_two_pass_oracle():
    real = Cone.from_hrep
    calls = []

    def spy(rank, ineqs, eqs=()):
        cone = real(rank, ineqs, eqs)
        calls.append((rank, list(ineqs), list(eqs), cone))
        return cone

    pavings = pv.enumerate_admissible_pavings(3, 2)
    pv.clear_caches()
    try:
        with mock.patch.object(Cone, "from_hrep", spy):
            cones = [pv.sigma_cone(p) for p in pavings]
    finally:
        pv.clear_caches()
    # one cone per configuration; every other cone is a face of it
    ((rank, ineqs, eqs, cone),) = calls
    assert len(cones) == 176 and cone in cones
    assert fields_of(cone) == fields_of(oracle_dd_from_hrep(rank, ineqs, eqs))
    for c in cones:
        assert fields_of(c) == fields_of(oracle_dd_from_hrep(c.rank, c.ineqs, c.eqs))
        assert fields_of(Cone.from_generators(c.rank, c.generators())) == fields_of(c)
        assert fields_of(dual_cone(c)) == fields_of(oracle_dd_dual_cone(c))


@settings(max_examples=100, deadline=None)
@given(hrep_rows())
def test_constructors_run_one_double_description_and_duals_none(case):
    dim, rows = case
    with counting_work() as counts:
        c = Cone.from_hrep(dim, rows)
    assert counts == {"dd": 1}
    with counting_work() as counts:
        Cone.from_generators(dim, rows)
    assert counts == {"dd": 1}
    with counting_work() as counts:
        dual_cone(dual_cone(c))
    assert counts == {}


def test_verify_fan_of_3_2_runs_no_double_description_and_no_lp():
    fan = secondary_fan(3, 2)
    with counting_work() as counts:
        report = verify_fan(fan)
    assert report.ok and report.n_cones == 176
    # the zero cone is built without one, so no double description runs
    assert counts == {}


@contextmanager
def counting_face_reads():
    """Count the calls to `fans.face_masks` and `fans.proper_faces`."""
    counts = Counter()

    def spy(name):
        real = getattr(fans, name)

        def call(*args):
            counts[name] += 1
            return real(*args)

        return mock.patch.object(fans, name, call)

    with spy("face_masks"), spy("proper_faces"):
        yield counts


def test_verify_fan_reads_faces_once_per_maximal_member():
    # (3, 2): every member is a face of the cone of the unit-cell
    # triangulation, the one maximal member; the quadrants have four
    fan = secondary_fan(3, 2)
    top = max(fan.cones, key=lambda c: len(c.rays))
    assert all(is_face(c, top) for c in fan.cones)
    with counting_face_reads() as counts:
        assert verify_fan(fan).ok
    assert counts == {"face_masks": 1}
    with counting_face_reads() as counts:
        assert verify_fan(quadrant_fans()[0]).ok
    assert counts == {"face_masks": 4}


def oracle_pair_violations(c1, c2, index):
    """The axioms two distinct members break, after intersecting them."""
    inter = c1.intersect(c2)
    if inter not in index:
        return ["intersection_not_member"]
    out = []
    if not (is_face(inter, c1) and is_face(inter, c2)):
        out.append("intersection_not_common_face")
    if fans.relint_meets(c1, c2, inter):
        out.append("relative_interiors_meet")
    return out


def oracle_marked_verify_fan(fan):
    """The former second path of `verify_fan`: every member's
    `proper_faces`, and every pair intersected unless both are faces of
    one member whose faces are all present (marked[i] >> j & 1)."""
    cones = list(fan.cones)
    index = {}
    for idx, c in enumerate(cones):
        index[c] = index.get(c, 0) | 1 << idx
    failures = []
    if Cone.zero(fan.rank) not in index:
        failures.append(("missing_zero_cone",))
    marked = [0] * len(cones)
    for idx, c in enumerate(cones):
        faces = proper_faces(c)
        missing = next((f for f in faces if f not in index), None)
        if missing is not None:
            failures.append(("face_missing", idx, missing.rays))
            continue
        group = index[c]
        for f in faces:
            group |= index[f]
        for i in range(len(cones)):
            if group >> i & 1:
                marked[i] |= group
    for i in range(len(cones)):
        for j in range(i + 1, len(cones)):
            c1, c2 = cones[i], cones[j]
            if c1 == c2:
                failures.append(("duplicate_cone", i, j))
            elif not marked[i] >> j & 1:
                failures.extend((kind, i, j) for kind in oracle_pair_violations(c1, c2, index))
    return fans.FanReport(not failures, fan.rank, len(cones), failures)


def corrupted_3_2_fans():
    """The (3, 2) secondary fan without its maximal cone sigma(T) and one
    more member, so that faces of different maximal members miss a face;
    and with a member repeated and a cone over three of its rays added."""
    fan = secondary_fan(3, 2)
    top = max(fan.cones, key=lambda c: len(c.rays))
    rays = sorted({r for c in fan.cones for r in c.rays})
    rng = random.Random(0)
    cones = [c for c in fan.cones if c != top]
    del cones[rng.randrange(len(cones))]
    out = [Fan(fan.rank, tuple(cones))]
    # sigma(T) has 8 rays in rank 7, so most sets of three span a face;
    # this seed draws one that does not
    rng = random.Random(4)
    cones = list(fan.cones)
    cones.insert(rng.randrange(len(cones)), cones[rng.randrange(len(cones))])
    cones.insert(rng.randrange(len(cones)), Cone.from_generators(fan.rank, rng.sample(rays, 3)))
    return out + [Fan(fan.rank, tuple(cones))]


def test_verify_fan_matches_marked_oracle_on_corrupted_3_2_fans():
    kinds = set()
    for fan in corrupted_3_2_fans():
        report = verify_fan(fan)
        assert report == oracle_marked_verify_fan(fan)
        kinds |= {f[0] for f in report.failures}
    assert kinds == {"face_missing", "duplicate_cone", "intersection_not_member",
                     "intersection_not_common_face", "relative_interiors_meet"}


def test_verify_fan_matches_marked_oracle_on_small_invalid_fans():
    # each also without its first member, the zero cone, so that faces
    # of overlapping maximal cones miss a face
    for fan in invalid_fans() + list(quadrant_fans()):
        assert verify_fan(fan) == oracle_marked_verify_fan(fan)
        if fan.cones[0] == Cone.zero(fan.rank):
            fan = Fan(fan.rank, fan.cones[1:])
            assert verify_fan(fan) == oracle_marked_verify_fan(fan)


def random_face_collections(seed, count):
    """Cones spanned by vectors with entries in {-1, 0, 1} (lines among
    them), each with most of its faces, some members repeated, shuffled:
    overlapping maximal members, missing faces and repeats."""
    rng = random.Random(seed)
    for _ in range(count):
        dim = rng.randint(1, 3)
        pool = [v for v in itertools.product((-1, 0, 1), repeat=dim) if any(v)]
        cones = []
        for _ in range(rng.randint(1, 3)):
            c = Cone.from_generators(dim, rng.sample(pool, rng.randint(1, min(4, len(pool)))))
            cones += [c] + [f for f in sorted(proper_faces(c), key=fields_of) if rng.random() < 0.8]
        for _ in range(rng.randint(0, 2)):
            cones.insert(rng.randrange(len(cones) + 1), rng.choice(cones))
        rng.shuffle(cones)
        yield Fan(dim, tuple(cones))


def test_verify_fan_matches_marked_oracle_on_random_face_collections():
    kinds = Counter()
    for fan in random_face_collections(7, 150):
        report = verify_fan(fan)
        assert report == oracle_marked_verify_fan(fan)
        kinds.update({f[0] for f in report.failures})
    assert set(kinds) == {"missing_zero_cone", "face_missing", "duplicate_cone",
                          "intersection_not_member", "intersection_not_common_face",
                          "relative_interiors_meet"}


def test_verify_fan_of_3_2_with_a_face_dropped_runs_no_double_description():
    fan = secondary_fan(3, 2)
    top = max(fan.cones, key=lambda c: len(c.rays))
    k = next(i for i, c in enumerate(fan.cones) if c != top and len(c.rays) == 2)
    with counting_work() as counts:
        report = verify_fan(Fan(fan.rank, fan.cones[:k] + fan.cones[k + 1:]))
    assert counts == {}
    assert {f[0] for f in report.failures} == {"face_missing", "intersection_not_member"}


def test_fan_report_cap_counts_every_entry(monkeypatch):
    # the entries come from the zero cone, missing faces, repeats and pairs
    cases = [(fan, verify_fan(fan).failures) for fan in invalid_fans() + [
        quadrant_fans()[1], Fan(2, (Cone.zero(2), Cone.zero(2)))]]
    for fan, failures in cases:
        monkeypatch.setattr(fans, "FAN_REPORT_CAP", len(failures))
        assert verify_fan(fan).failures == failures
        monkeypatch.setattr(fans, "FAN_REPORT_CAP", len(failures) - 1)
        with pytest.raises(TooLarge):
            verify_fan(fan)


def test_verify_fan_of_4_2_with_a_member_dropped_stops_at_the_cap(tmp_path):
    # without its second member, a ray, the report would hold 6,399
    # missing faces and 2,027,038 pairs; without the zero cone, nearly
    # every pair.  The command line runs the first case meanwhile.
    pavings = pv.enumerate_admissible_pavings(4, 2)
    path = tmp_path / "pavings.json"
    path.write_text(json.dumps({"r": 4, "n": 2, "pavings": [
        jsonio.paving_to_json(p)["paves"] for p in pavings[:1] + pavings[2:]]}))
    args, env = cli_args_and_env(["fans", "verify", str(path)])
    with subprocess.Popen(args, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as cli:
        try:
            fan = pv.paving_fan(pavings)
            assert fan.cones[0] == Cone.zero(fan.rank) and len(fan.cones[1].rays) == 1
            for k in (0, 1):
                with pytest.raises(TooLarge):
                    verify_fan(Fan(fan.rank, fan.cones[:k] + fan.cones[k + 1:]))
            out, err = cli.communicate(timeout=60)
        finally:
            cli.kill()
    assert cli.returncode == 1 and out == ""
    assert json.loads(err)["error"]["type"] == "TooLarge"


# ---------------------------------------------------------------------------
# relative interiors compared through the sum of the rays of the
# intersection, against the LP it replaced


@st.composite
def cone_pairs(draw, max_dim=4):
    """Two cones of one rank that overlap: generated from a shared pool of
    vectors, or the second one through a point of the first.  The pair
    may share a line of lineality, and each cone may be replaced by one
    of its proper faces (two faces of different maximal cones)."""
    dim = draw(st.integers(1, max_dim))
    vec = st.tuples(*[st.integers(-2, 2)] * dim).filter(any)
    pool = draw(st.lists(vec, min_size=2, max_size=6, unique=True))
    lines = draw(st.lists(vec, max_size=1))
    faces = draw(st.booleans())

    def cone(gens):
        c = Cone.from_generators(dim, gens + lines + [tuple(-x for x in v) for v in lines])
        proper = sorted(proper_faces(c), key=fields_of)
        return draw(st.sampled_from(proper)) if faces and proper else c

    gens = draw(st.lists(st.sampled_from(pool), min_size=2, max_size=4, unique=True))
    if draw(st.booleans()):
        # through the sum of the first cone's generators, which lies in
        # its relative interior when the first cone is not replaced
        other = [tuple(map(sum, zip(*gens)))] + draw(
            st.lists(st.sampled_from(gens + [draw(vec)]), max_size=3, unique=True)
        )
    else:
        other = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
    return cone(gens), cone(other)


@settings(max_examples=300, deadline=None)
@given(cone_pairs())
def test_relint_meets_matches_lp_oracle(pair):
    c1, c2 = pair
    assert fans.relint_meets(c1, c2) == oracle_lp_relint_meets(c1, c2)
    assert fans.relint_meets(c2, c1) == fans.relint_meets(c1, c2)


@pytest.mark.parametrize("r,n", SMALL_FANS)
def test_relint_meets_matches_lp_oracle_on_secondary_fans(r, n):
    cones = secondary_fan(r, n).cones
    for i, c1 in enumerate(cones):
        for c2 in cones[i:]:
            assert fans.relint_meets(c1, c2) == oracle_lp_relint_meets(c1, c2) == (c1 == c2)


def test_relint_meets_across_two_maximal_cones():
    # the quadrant and the half-plane x1 >= 0 overlap; the quadrant and the
    # opposite quadrant meet only in their common ray
    quadrant = Cone.from_generators(2, [(1, 0), (0, 1)])
    half = Cone.from_hrep(2, [(0, 1)])
    opposite = Cone.from_generators(2, [(-1, 0), (0, 1)])
    assert fans.relint_meets(quadrant, half) and oracle_lp_relint_meets(quadrant, half)
    assert not fans.relint_meets(quadrant, opposite)
    assert not oracle_lp_relint_meets(quadrant, opposite)
    assert fans.relint_meets(Cone.full(2), Cone.zero(2))


def test_verify_fan_and_q_admissibility_run_no_lp():
    dd_calls = []
    for fan in invalid_fans():
        with counting_work() as counts:
            report = verify_fan(fan)
        assert not report.ok and "lp" not in counts
        dd_calls.append(counts["dd"])
    # only pairs of two maximal members, and pairs that no two maximal
    # members meeting properly cover, are intersected, one double
    # description each: the second fan's two overlapping cones, each with
    # a face the other lacks (2 x 2 pairs), and the orthant's four faces
    # against the plane
    assert dd_calls == [0, 4, 0, 4, 0]
    with counting_work() as counts:
        answers = {pv.is_q_admissible(p, q) for p in pv.enumerate_admissible_pavings(2, 2)
                   for q in (2, 3)}
    assert answers == {True, False} and "lp" not in counts


# ---------------------------------------------------------------------------
# the generator constructor as the dual of the row constructor, and the
# torus checks through the integer normal form, against the code they
# replaced, kept here as test-only oracles


def oracle_from_generators(rank, gens):
    """The former second body of `Cone.from_generators`: one double
    description of the generators gives the H-description, the lineality
    is its integer kernel, and the rays are the generators with maximal
    tight-facet sets."""
    gens = list(dict.fromkeys(tuple(int(x) for x in g) for g in gens if any(g)))
    eqs, ineqs = fans.double_description(gens, rank)
    lin = zlattice.int_kernel(list(ineqs) + eqs, rank)
    rays = fans._maximal_reduced(
        gens, fans._incidence(gens, ineqs), (1 << len(ineqs)) - 1, lin
    )
    return Cone(rank, tuple(lin), rays, tuple(eqs), tuple(ineqs))


def assert_from_generators_matches_oracle(rank, gens):
    assert fields_of(Cone.from_generators(rank, gens)) == fields_of(
        oracle_from_generators(rank, gens)
    )


def test_from_generators_matches_mirrored_oracle_on_random_sets():
    rng = random.Random(17)
    for _ in range(600):
        rank = rng.randint(1, 4)
        gens = [tuple(rng.randint(-3, 3) for _ in range(rank)) for _ in range(rng.randint(0, 6))]
        # zero and repeated vectors
        gens += [tuple([0] * rank)] * rng.randint(0, 1)
        gens += rng.choices(gens, k=rng.randint(0, 2)) if gens else []
        rng.shuffle(gens)
        assert_from_generators_matches_oracle(rank, gens)


@settings(max_examples=200, deadline=None)
@given(st.one_of(hrep_rows().map(lambda case: Cone.from_hrep(*case)), cones_with_lineality()),
       st.data())
def test_from_generators_matches_mirrored_oracle_on_hypothesis_cones(c, data):
    assert_from_generators_matches_oracle(c.rank, c.generators())
    assert_from_generators_matches_oracle(c.rank, c.ineqs)
    gens = data.draw(st.permutations(c.generators() + list(c.ineqs)))
    assert_from_generators_matches_oracle(c.rank, gens)


@pytest.mark.parametrize("r,n", [(2, 1), (3, 1), (4, 1), (5, 1), (2, 2), (3, 2)])
def test_from_generators_matches_mirrored_oracle_on_secondary_cones(r, n):
    for p in pv.enumerate_admissible_pavings(r, n):
        c = pv.sigma_cone(p)
        assert_from_generators_matches_oracle(c.rank, c.generators())
        assert_from_generators_matches_oracle(c.rank, c.ineqs)


def oracle_image_is_affine(r, n):
    """Every column of G = ((p; -1))_p has a Fraction normal form of zero."""
    from test_simplex_core import oracle_affine_normal_form

    g_rows = [list(p) + [-1] for p in fans.enumerate_lattice_points(r, n)]
    return all(
        not any(oracle_affine_normal_form(
            LatticeFunction(r, n, tuple(Fraction(row[j]) for row in g_rows))
        ).values)
        for j in range(n + 2)
    )


def oracle_embedding_descends(r, q):
    """The particular solution of G v = E w over Q (free variable zero)
    is integral."""
    from test_simplex_core import oracle_solve

    s_tau = tau_points(r)
    w = [p[0] + q * p[1] for p in s_tau]
    index_tau = {p: i for i, p in enumerate(s_tau)}
    ew = []
    pts = fans.enumerate_lattice_points(r, 2)
    for p in pts:
        if p[0] != 0:
            ew.append(w[index_tau[p]])
        elif p[1] != 0:
            ew.append(q * w[index_tau[(p[1], 0, p[2])]])
        else:
            ew.append(0)
    g_rows = [[Fraction(x) for x in list(p) + [-1]] for p in pts]
    sol = oracle_solve(QQ, g_rows, [Fraction(v) for v in ew])
    return sol is not None and all(x.denominator == 1 for x in sol)


# every (r, n) with at most 12 lattice points, r <= 12
TORUS_CONFIGS = [
    (r, n) for n in range(12) for r in range(1, 13)
    if len(fans.enumerate_lattice_points(r, n)) <= 12
]


@pytest.mark.parametrize("r,n", TORUS_CONFIGS)
def test_torus_image_is_affine_matches_fraction_oracle(r, n):
    checks = dict(torus_sequence_check(r, n).checks)
    assert checks["image_is_affine"] == oracle_image_is_affine(r, n)


@pytest.mark.parametrize("r,n", TORUS_CONFIGS)
def test_torus_image_saturated_matches_smith_form_oracle(r, n):
    g_rows = [list(p) + [-1] for p in fans.enumerate_lattice_points(r, n)]
    checks = dict(torus_sequence_check(r, n).checks)
    assert checks["image_saturated"] == (set(snf_diagonal(g_rows)) <= {1})


def test_saturation_by_hnf_matches_smith_form_oracle():
    """A lattice is saturated exactly when its HNF is that of its
    saturation, exactly when its elementary divisors are all 1."""
    rng = random.Random(18)
    seen = set()
    for _ in range(2000):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        rows[0] = [rng.randint(1, 3) * x for x in rows[0]]
        saturated = fans._is_saturated(rows, ncols)
        assert saturated == (set(snf_diagonal(rows, ncols)) <= {1}), rows
        seen.add(saturated)
    assert seen == {True, False}


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_tau_embedding_descends_matches_rational_solve_oracle(r):
    for q in range(-3, 30):
        descends = dict(tau_sequence_check(r, q).checks)["embedding_descends"]
        assert descends == oracle_embedding_descends(r, q), q


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_descent_rule_matches_rational_solve_on_any_exponents(r):
    """E w is p_0 + q p_1 at every point, so the sweep above always reads
    True; the rule itself (zero scaled normal form, r dividing the vertex
    values) is compared with the rational solve on arbitrary vectors."""
    from test_simplex_core import oracle_solve

    pts = fans.enumerate_lattice_points(r, 2)
    g_rows = [[Fraction(x) for x in list(p) + [-1]] for p in pts]
    rng = random.Random(r)
    seen = set()
    for t in range(300):
        if t % 2:
            u, z = [rng.randint(-6, 6) for _ in range(3)], rng.randint(-6, 6)
            ew = [sum(a * x for a, x in zip(u, p)) - z for p in pts]
        else:
            ew = [rng.randint(-6, 6) for _ in pts]
        rule = not any(fans.scaled_normal_form(r, 2, ew)) and all(
            ew[fans.point_index(r, 2, v)] % r == 0 for v in fans.vertices(r, 2)
        )
        sol = oracle_solve(QQ, g_rows, [Fraction(v) for v in ew])
        assert rule == (sol is not None and all(x.denominator == 1 for x in sol))
        seen.add(rule)
    # at r = 1 every point is a vertex, so every vector descends
    assert seen == ({True} if r == 1 else {True, False})


def test_fans_imports_neither_fractions_nor_qlinalg():
    import ast

    tree = ast.parse(Path(fans.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported |= {a.name for a in node.names}
    assert "fractions" not in imported
    assert "qlinalg" not in imported and "chtoucakit.qlinalg" not in imported


# ---------------------------------------------------------------------------
# dual-monoid generators from fundamental parallelepipeds, against the box
# search and its depth-first decomposition test that they replaced


def oracle_decomposes(py, h, parts):
    """Is the projected vector ``py`` of height ``h`` a nonneg-integer
    combination of the projected generators ``parts`` ((projection,
    height) pairs)?  Height strictly decreases along the search, so it
    terminates."""
    memo = set()

    def rec(v, hv):
        if all(x == 0 for x in v):
            return True
        if (v, hv) in memo:
            return False
        memo.add((v, hv))
        return any(
            rec(tuple(a - b for a, b in zip(v, s)), hv - hs) for s, hs in parts if hs <= hv
        )

    return rec(py, h)


def oracle_box_monoid(c, bound):
    """Generators of Z^rank cap dual(c) by the bounded search: every
    nonzero point of [-bound, bound]^rank in the dual, in the order
    (height, |y|_1, y), is kept unless its class modulo the units
    decomposes over the kept ones; then every point of the box is
    checked to decompose over the result."""
    gens_c = c.generators()
    dual = dual_cone(c)

    def height(y):
        return sum(fans._dot(g, y) for g in gens_c)

    # the quotient map kills the units, the lineality of the dual
    proj_rows = zlattice.int_kernel([list(b) for b in dual.lin], c.rank)

    def project(y):
        return tuple(fans._dot(w, y) for w in proj_rows)

    box = itertools.product(range(-bound, bound + 1), repeat=c.rank)
    candidates = sorted(
        (y for y in box if any(y) and dual.contains_vector(y)),
        key=lambda y: (height(y), sum(map(abs, y)), y),
    )
    chosen, chosen_proj = [], []
    for y in candidates:
        py, h = project(y), height(y)
        if h > 0 and not oracle_decomposes(py, h, chosen_proj):
            chosen.append(y)
            chosen_proj.append((py, h))
    units = [v for b in dual.lin for v in (b, tuple(-x for x in b))]
    result = sorted(dict.fromkeys(units + chosen))
    res_proj = [(project(s), height(s)) for s in result if height(s) > 0]
    for y in candidates:
        if height(y) > 0:
            assert oracle_decomposes(project(y), height(y), res_proj), y
    return result


def monoid_sweep_cones():
    """Every paving cone of (2,1), (3,1), (4,1) and (2,2), the zero and
    full cones of rank <= 4, and seeded random cones of rank <= 3, cut
    out by rows (often with lineality) or spanned by generators."""
    cones = [
        pv.sigma_cone(p)
        for r, n in [(2, 1), (3, 1), (4, 1), (2, 2)]
        for p in pv.enumerate_admissible_pavings(r, n)
    ]
    cones += [make(k) for k in range(1, 5) for make in (Cone.zero, Cone.full)]
    rng = random.Random(25)
    for _ in range(80):
        rank = rng.randint(1, 3)
        rows = [tuple(rng.randint(-2, 2) for _ in range(rank)) for _ in range(rng.randint(1, 4))]
        make = Cone.from_hrep if rng.random() < 0.3 else Cone.from_generators
        cones.append(make(rank, rows))
    return cones


def test_monoid_matches_box_search_oracle():
    cones = monoid_sweep_cones()
    # the sweep has cones with lineality and duals with units
    assert any(c.lin for c in cones) and any(c.eqs for c in cones)
    for c in cones:
        gens = monoid_generators(c)
        bound = max([1] + [abs(x) for g in gens for x in g])
        assert gens == oracle_box_monoid(c, bound), (c.rank, c.rays, c.lin)


def test_monoid_finds_the_dual_ray_outside_the_old_default_box():
    c = Cone.from_generators(3, [(-3, -3, 1), (0, -1, 1), (1, 0, -3)])
    dual = dual_cone(c)
    assert (9, -8, 3) in dual.rays and not dual.lin
    gens = monoid_generators(c)
    assert (9, -8, 3) in gens
    # the box search at its old default bound 8 left it out
    assert (9, -8, 3) not in oracle_box_monoid(c, 8)
    # the dual is pointed, so every member is irreducible: none
    # decomposes over the others
    height = {g: sum(fans._dot(r, g) for r in c.rays) for g in gens}
    for g in gens:
        assert not oracle_decomposes(g, height[g], [(h, height[h]) for h in gens if h != g]), g


def cli_args_and_env(argv):
    """The command line on the sources of this checkout."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return [sys.executable, "-m", "chtoucakit.cli", *argv], env


def run_cli_subprocess(argv, timeout):
    args, env = cli_args_and_env(argv)
    return subprocess.run(args, env=env, capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("r", [4, 5])
def test_fans_monoid_on_the_finest_cones_finishes(tmp_path, r):
    # both cones are unimodular, so the Hilbert basis is the dual's rays
    finest = pv.enumerate_admissible_pavings(r, 1)[-1]
    assert len(finest.paves) == r
    cone = pv.sigma_cone(finest)
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rank": cone.rank, "rays": [list(x) for x in cone.rays]}))
    out = run_cli_subprocess(["fans", "monoid", "--cone", str(path)], timeout=30)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["generators"] == [list(g) for g in dual_cone(cone).rays]


def test_monoid_point_cap_raises_before_enumerating(tmp_path):
    # |det| = 10^7 parallelepiped points
    path = tmp_path / "cone.json"
    path.write_text(json.dumps({"rank": 2, "rays": [[1, 0], [1, 10**7]]}))
    out = run_cli_subprocess(["fans", "monoid", "--cone", str(path)], timeout=30)
    assert out.returncode == 1 and out.stdout == ""
    assert json.loads(out.stderr)["error"]["type"] == "TooLarge"
    # about 1,000 parallelepiped points, but classes modulo the units
    # whose least members lie among (2 |y|_1 + 1)^2 members each
    b1, b2 = (0, 0, 1, 0), (0, 0, 0, 1)
    c = Cone.from_generators(4, [b2, tuple(1000 * x - y for x, y in zip(b1, b2))])
    assert dual_cone(c).lin == ((1, 0, 0, 0), (0, 1, 0, 0))
    with pytest.raises(TooLarge):
        monoid_generators(c)


def test_monoid_point_cap_counts_parallelepiped_points(monkeypatch):
    c = Cone.from_generators(2, [(1, 0), (1, 2)])  # |det| = 2
    assert monoid_generators(c) == [(0, 1), (1, 0), (2, -1)]
    monkeypatch.setattr(fans, "MONOID_POINT_CAP", 1)
    with pytest.raises(TooLarge):
        monoid_generators(c)


def test_verify_fan_builds_no_face_cones():
    fan = secondary_fan(3, 2)
    with mock.patch.object(fans, "face", wraps=fans.face) as face:
        assert verify_fan(fan).ok
    assert face.call_count == 0


def test_torus_sequence_reads_the_enumeration_point_cap():
    assert fans.ENUMERATION_POINT_CAP == pv.ENUMERATION_POINT_CAP == 15
    rep = torus_sequence_check(4, 2)  # 15 lattice points
    assert rep.ok and rep.dim_torus == 12
    with pytest.raises(TooLarge):
        torus_sequence_check(15, 1)  # 16 lattice points
