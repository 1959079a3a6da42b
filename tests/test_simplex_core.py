import random
from fractions import Fraction
from math import comb

import pytest

from chtoucakit import qlinalg, zlattice
from chtoucakit.fields import QQ
from chtoucakit.simplex_core import (
    CONFIG_CACHE_SIZE,
    LatticeFunction,
    affine_normal_form,
    enumerate_lattice_points,
    is_affine,
    nonvertex_points,
    quotient_lattice,
    scaled_normal_form,
    vertices,
)


def test_single_point():
    assert enumerate_lattice_points(1, 0) == ((1,),)


def test_lex_order_2_2():
    pts = enumerate_lattice_points(2, 2)
    assert pts == ((2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2))


def test_lattice_point_cache_is_bounded():
    for r in range(1, CONFIG_CACHE_SIZE + 20):
        enumerate_lattice_points(r, 0)
    assert enumerate_lattice_points.cache_info().currsize == CONFIG_CACHE_SIZE
    assert enumerate_lattice_points(2, 2)[0] == (2, 0, 0)


def test_two_part_compositions():
    assert enumerate_lattice_points(3, 1) == ((3, 0), (2, 1), (1, 2), (0, 3))


@pytest.mark.parametrize("r", range(1, 7))
@pytest.mark.parametrize("n", range(0, 5))
def test_counts(r, n):
    assert len(enumerate_lattice_points(r, n)) == comb(r + n, n)


def test_constant_is_affine():
    f = LatticeFunction(2, 1, (Fraction(7),) * 3)
    nf = affine_normal_form(f)
    assert all(v == 0 for v in nf.values)


def test_coordinate_function_is_affine():
    f = LatticeFunction.from_map(2, 1, {(2, 0): 2, (1, 1): 1, (0, 2): 0})
    assert is_affine(f)


def test_tent_normal_form():
    # interpolation at the vertices is zero, so the tent is its own normal form
    f = LatticeFunction.from_map(2, 1, {(2, 0): 0, (1, 1): 1, (0, 2): 0})
    nf = affine_normal_form(f)
    assert nf.values == (Fraction(0), Fraction(1), Fraction(0))
    assert not is_affine(f)


def test_product_function_not_affine():
    pts = enumerate_lattice_points(2, 2)
    f = LatticeFunction(2, 2, tuple(Fraction(p[0] * p[1]) for p in pts))
    nf = affine_normal_form(f)
    assert nf.value_at((1, 1, 0)) != 0
    assert not is_affine(f)


def test_affine_3i1_minus_2():
    pts = enumerate_lattice_points(3, 2)
    f = LatticeFunction(3, 2, tuple(Fraction(3 * p[1] - 2) for p in pts))
    assert is_affine(f)


def test_normal_form_idempotent_linear():
    import random

    rng = random.Random(0)
    pts = enumerate_lattice_points(3, 1)
    for _ in range(30):
        vals1 = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in pts)
        vals2 = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in pts)
        f1, f2 = LatticeFunction(3, 1, vals1), LatticeFunction(3, 1, vals2)
        nf1 = affine_normal_form(f1)
        again = affine_normal_form(nf1)
        assert again.values == nf1.values
        nf2 = affine_normal_form(f2)
        fsum = LatticeFunction(3, 1, tuple(a + b for a, b in zip(vals1, vals2)))
        nfs = affine_normal_form(fsum)
        assert nfs.values == tuple(a + b for a, b in zip(nf1.values, nf2.values))


@pytest.mark.parametrize("r,n", [(2, 1), (3, 1), (4, 1), (2, 2), (3, 2)])
def test_quotient_rank(r, n):
    ql = quotient_lattice(r, n)
    assert ql.rank == comb(r + n, n) - (n + 1)
    assert ql.rank == len(nonvertex_points(r, n))
    assert len(vertices(r, n)) == n + 1


@pytest.mark.parametrize("r,n", [(2, 1), (3, 1), (4, 1), (1, 2), (2, 2), (1, 4)])
def test_normal_form_kernel_is_affine_of_dim_n_plus_1(r, n):
    """Rank computation on small domains: the kernel of the normal-form
    map is exactly the affine functions, of dimension n+1."""
    from chtoucakit import qlinalg
    from chtoucakit.fields import QQ

    pts = enumerate_lattice_points(r, n)
    cols = []
    for k in range(len(pts)):
        f = LatticeFunction(r, n, tuple(Fraction(1 if i == k else 0) for i in range(len(pts))))
        cols.append(list(affine_normal_form(f).values))
    # matrix of the normal-form map in the delta basis (columns = images)
    mat = [[cols[j][i] for j in range(len(pts))] for i in range(len(pts))]
    kernel_dim = len(pts) - qlinalg.rank(QQ, mat)
    assert kernel_dim == n + 1
    # and every affine function lies in the kernel
    for coeffs in ([1] * (n + 1), list(range(1, n + 2))):
        f = LatticeFunction(
            r, n, tuple(Fraction(sum(c * x for c, x in zip(coeffs, p)) + 3) for p in pts)
        )
        assert is_affine(f)


def oracle_solve(field, a, b):
    """One solution of A x = b, or None if the system is inconsistent:
    the reduced augmented matrix, free variables set to zero."""
    if not a:
        return []
    ncols = len(a[0])
    red = [list(row) + [bb] for row, bb in zip(a, b)]
    pivots, _ = qlinalg._forward(field, red, ncols)
    qlinalg._back_substitute(field, red, pivots)
    if any(not field.is_zero(row[ncols]) for row in red[len(pivots):]):
        return None
    x = [field.zero()] * ncols
    for i, c in enumerate(pivots):
        x[c] = red[i][ncols]
    return x


def oracle_basis(ql):
    """The quotient lattice's Z-basis in normal-form coordinates: hnf / r."""
    return [[Fraction(x, ql.r) for x in row] for row in ql.hnf]


def nf_to_coords(ql, values):
    """Basis coordinates w of normal-form values: w * basis = values."""
    basis = oracle_basis(ql)
    transposed = [[row[j] for row in basis] for j in range(ql.rank)]
    return oracle_solve(QQ, transposed, list(values))


def coords_to_normal_form(ql, w):
    """Normal-form values (at the non-vertex points) of basis coordinates."""
    basis = oracle_basis(ql)
    return tuple(
        sum((Fraction(wi) * row[j] for wi, row in zip(w, basis)), Fraction(0))
        for j in range(ql.rank)
    )


def test_class_coordinates_round_trip():
    ql = quotient_lattice(3, 1)
    pts = enumerate_lattice_points(3, 1)
    for k in range(len(pts)):
        f = LatticeFunction(3, 1, tuple(Fraction(1 if i == k else 0) for i in range(len(pts))))
        nf = affine_normal_form(f)
        w = nf_to_coords(ql, [nf.value_at(p) for p in ql.points])
        assert all(x.denominator == 1 for x in w)  # an integer class
        nf_back = coords_to_normal_form(ql, w)
        assert tuple(nf_back) == tuple(nf.value_at(p) for p in ql.points)


# ---------------------------------------------------------------------------
# the integer normal-form formula against the Fraction interpolation and
# the per-point quotient lattice it replaced, kept here as test oracles


def oracle_affine_normal_form(f):
    """Subtract the affine function a(x) = sum c_j x_j with r c_k =
    f(r e_k), the interpolant at the vertices, in Fractions."""
    c = [Fraction(0)] * (f.n + 1)
    for v in vertices(f.r, f.n):
        k = v.index(f.r)
        c[k] = f.value_at(v) / f.r
    pts = enumerate_lattice_points(f.r, f.n)
    vals = tuple(
        fv - sum((cj * Fraction(xj) for cj, xj in zip(c, p)), Fraction(0))
        for fv, p in zip(f.values, pts)
    )
    return LatticeFunction(f.r, f.n, vals)


def oracle_quotient_hnf(r, n):
    """The Hermite form of r times the Fraction normal form of each point
    indicator, read at the non-vertex points."""
    pts = enumerate_lattice_points(r, n)
    nonv = nonvertex_points(r, n)
    gens = []
    for k in range(len(pts)):
        f = LatticeFunction(r, n, tuple(Fraction(1 if i == k else 0) for i in range(len(pts))))
        nf = oracle_affine_normal_form(f)
        gens.append([int(nf.value_at(p) * r) for p in nonv])
    return tuple(map(tuple, zlattice.hnf(gens)))


# every (r, n) with r <= 40 and at most 40 lattice points
SMALL_CONFIGS = [
    (r, n) for n in range(40) for r in range(1, 41) if comb(r + n, n) <= 40
]


@pytest.mark.parametrize("r,n", SMALL_CONFIGS)
def test_quotient_lattice_matches_fraction_oracle(r, n):
    ql = quotient_lattice(r, n)
    assert ql.hnf == oracle_quotient_hnf(r, n)
    assert ql.points == nonvertex_points(r, n)


@pytest.mark.parametrize("r,n", [(1, 1), (2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (2, 3), (1, 4)])
def test_normal_form_matches_fraction_oracle(r, n):
    rng = random.Random(r * 10 + n)
    pts = enumerate_lattice_points(r, n)
    affine_seen = set()
    for t in range(40):
        if t % 2:
            c = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n + 2)]
            vals = tuple(sum(a * x for a, x in zip(c, p)) + c[-1] for p in pts)
        else:
            vals = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in pts)
        f = LatticeFunction(r, n, vals)
        nf = affine_normal_form(f)
        want = oracle_affine_normal_form(f)
        assert nf == want
        assert all(type(v) is Fraction for v in nf.values)
        assert is_affine(f) == (not any(want.values))
        affine_seen.add(is_affine(f))
        ints = [int(v * 4 * 3 * 2) for v in vals]
        want_ints = oracle_affine_normal_form(LatticeFunction(r, n, tuple(map(Fraction, ints))))
        scaled = scaled_normal_form(r, n, ints)
        assert all(type(v) is int for v in scaled)
        assert list(scaled) == [v * r for v in want_ints.values]
    # every point is a vertex when r = 1, so every function is affine there
    assert affine_seen == ({True} if r == 1 else {True, False})
