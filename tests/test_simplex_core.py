from fractions import Fraction
from math import comb

import pytest

from chtoucakit import qlinalg
from chtoucakit.fields import QQ
from chtoucakit.simplex_core import (
    CONFIG_CACHE_SIZE,
    LatticeFunction,
    affine_normal_form,
    enumerate_lattice_points,
    is_affine,
    nonvertex_points,
    quotient_lattice,
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
    nf = affine_normal_form(f).normal_form
    assert all(v == 0 for v in nf.values)


def test_coordinate_function_is_affine():
    f = LatticeFunction.from_map(2, 1, {(2, 0): 2, (1, 1): 1, (0, 2): 0})
    assert is_affine(f)


def test_tent_normal_form():
    # interpolation at the vertices is zero, so the tent is its own normal form
    f = LatticeFunction.from_map(2, 1, {(2, 0): 0, (1, 1): 1, (0, 2): 0})
    nf = affine_normal_form(f).normal_form
    assert nf.values == (Fraction(0), Fraction(1), Fraction(0))
    assert not is_affine(f)


def test_product_function_not_affine():
    pts = enumerate_lattice_points(2, 2)
    f = LatticeFunction(2, 2, tuple(Fraction(p[0] * p[1]) for p in pts))
    nf = affine_normal_form(f).normal_form
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
        nf1 = affine_normal_form(f1).normal_form
        again = affine_normal_form(nf1).normal_form
        assert again.values == nf1.values
        nf2 = affine_normal_form(f2).normal_form
        fsum = LatticeFunction(3, 1, tuple(a + b for a, b in zip(vals1, vals2)))
        nfs = affine_normal_form(fsum).normal_form
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
        cols.append(list(affine_normal_form(f).normal_form.values))
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


def nf_to_coords(ql, values):
    """Basis coordinates w of normal-form values: w * basis = values."""
    transposed = [[row[j] for row in ql.basis] for j in range(ql.rank)]
    return qlinalg.solve(QQ, transposed, list(values))


def coords_to_normal_form(ql, w):
    """Normal-form values (at the non-vertex points) of basis coordinates."""
    return tuple(
        sum((Fraction(wi) * row[j] for wi, row in zip(w, ql.basis)), Fraction(0))
        for j in range(ql.rank)
    )


def test_class_coordinates_round_trip():
    ql = quotient_lattice(3, 1)
    pts = enumerate_lattice_points(3, 1)
    for k in range(len(pts)):
        f = LatticeFunction(3, 1, tuple(Fraction(1 if i == k else 0) for i in range(len(pts))))
        qc = affine_normal_form(f)
        w = nf_to_coords(ql, [qc.normal_form.value_at(p) for p in ql.points])
        assert all(x.denominator == 1 for x in w)  # an integer class
        nf_back = coords_to_normal_form(ql, w)
        assert tuple(nf_back) == tuple(qc.normal_form.value_at(p) for p in ql.points)
