"""Lattice points of the dilated simplex, the affine-function subspace,
and canonical representatives in the quotient of functions mod affine.

Points of the simplex are tuples (i_0, ..., i_n) of nonnegative integers
summing to r, ordered lexicographically everywhere.  A function on the
lattice points is reduced to a normal form by subtracting the unique
affine function agreeing with it at the n+1 vertices r*e_k; the normal
form therefore vanishes at the vertices and is supported on the
non-vertex points.  Everything here reads it through one formula,
r*nf(p) = r*f(p) - sum_k f(r*e_k)*p_k (`scaled_normal_form`), which stays
integral for integer f.

The quotient lattice (integer functions modulo integer affine functions)
is carried around as an explicit basis, computed once per (r, n) by
Hermite reduction of the scaled images of the standard basis vectors.
Working in that basis keeps every downstream cone description integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from . import zlattice
from .errors import InternalError, InvalidData

Point = tuple[int, ...]

# |S^{r,n}| bound for the enumerations over point sets: it bounds the
# output of `pavings.enumerate_admissible_pavings` (8,192 pavings for
# (14, 1), 12,800 for (4, 2)) and the rows of `fans.torus_sequence_check`
ENUMERATION_POINT_CAP = 15

# bounded caches: per (r, n), far above the configurations any capped
# enumeration or check visits, and per (r, n, point) for point_index
CONFIG_CACHE_SIZE = 256
POINT_CACHE_SIZE = 4096


def point_key(p: Point):
    """Sort key realizing the lexicographic convention used throughout:
    points with larger leading coordinates come first, so the vertex
    r*e_0 leads and r*e_n trails (matching compositions of r)."""
    return tuple(-c for c in p)


def check_simplex(r: int, n: int) -> None:
    """Raise InvalidData unless r >= 1 and n >= 0."""
    if r < 1 or n < 0:
        raise InvalidData("need r >= 1 and n >= 0")


@lru_cache(maxsize=CONFIG_CACHE_SIZE)
def enumerate_lattice_points(r: int, n: int) -> tuple[Point, ...]:
    """All (i_0,...,i_n) with nonnegative integer entries summing to r,
    in lexicographic order (see point_key)."""
    check_simplex(r, n)

    def rec(budget: int, slots: int):
        if slots == 1:
            yield (budget,)
            return
        for first in range(budget, -1, -1):
            for rest in rec(budget - first, slots - 1):
                yield (first,) + rest

    pts = tuple(rec(r, n + 1))
    if len(pts) != comb(r + n, n):
        raise InternalError(f"{len(pts)} lattice points, expected C({r + n}, {n})")
    return pts


def vertices(r: int, n: int) -> tuple[Point, ...]:
    """The n+1 simplex vertices r*e_k, in lexicographic order."""
    verts = []
    for k in range(n + 1):
        v = [0] * (n + 1)
        v[k] = r
        verts.append(tuple(v))
    return tuple(sorted(verts, key=point_key))


def nonvertex_points(r: int, n: int) -> tuple[Point, ...]:
    vs = set(vertices(r, n))
    return tuple(p for p in enumerate_lattice_points(r, n) if p not in vs)


@dataclass(frozen=True)
class LatticeFunction:
    """A rational-valued function on all lattice points of the simplex."""

    r: int
    n: int
    values: tuple[Fraction, ...]  # aligned with enumerate_lattice_points(r, n)

    def __post_init__(self):
        if len(self.values) != comb(self.r + self.n, self.n):
            raise ValueError("function must be total on the lattice points")

    @staticmethod
    def from_map(r: int, n: int, mapping) -> "LatticeFunction":
        pts = enumerate_lattice_points(r, n)
        missing = [p for p in pts if p not in mapping]
        if missing:
            raise ValueError(f"missing values at {missing[:3]}")
        return LatticeFunction(r, n, tuple(Fraction(mapping[p]) for p in pts))

    def value_at(self, p: Point) -> Fraction:
        return self.values[point_index(self.r, self.n, p)]


@lru_cache(maxsize=POINT_CACHE_SIZE)
def point_index(r: int, n: int, p: Point) -> int:
    pts = enumerate_lattice_points(r, n)
    try:
        return pts.index(p)
    except ValueError:
        raise KeyError(f"{p} is not a lattice point of the (r={r}, n={n}) simplex")


def scaled_normal_form(r: int, n: int, values) -> tuple:
    """r times the affine normal form of the function with these values
    (aligned with enumerate_lattice_points(r, n)):

        r * nf(p) = r * f(p) - sum_k f(r * e_k) * p_k.

    The subtracted function is linear and equals r * f at every vertex
    r * e_k (no constant term is needed, as sum p = r on the simplex), so
    the result vanishes at the vertices, is zero exactly when f is
    affine, and is an integer vector when f is."""
    at_vertex = [
        values[point_index(r, n, tuple(r if j == k else 0 for j in range(n + 1)))]
        for k in range(n + 1)
    ]
    return tuple(
        r * v - sum(c * x for c, x in zip(at_vertex, p))
        for v, p in zip(values, enumerate_lattice_points(r, n))
    )


def affine_normal_form(f: LatticeFunction) -> LatticeFunction:
    """The canonical representative of f modulo affine functions: the
    one vanishing at every vertex.  Idempotent and linear, with kernel
    exactly the affine functions."""
    return LatticeFunction(
        f.r, f.n, tuple(Fraction(v, f.r) for v in scaled_normal_form(f.r, f.n, f.values))
    )


def is_affine(f: LatticeFunction) -> bool:
    return not any(scaled_normal_form(f.r, f.n, f.values))


@dataclass(frozen=True)
class QuotientLattice:
    """The lattice of integer-function classes modulo affine functions.

    ``hnf`` rows are r times a Z-basis in normal-form coordinates (values
    at the non-vertex points, lex order): the Hermite form of the scaled
    normal forms of the point indicators.  The normal form of an integer
    function is generally non-integral (denominators divide r), which is
    why an explicit basis is carried instead of using raw normal-form
    values as coordinates; the scaling moves integer functionals on
    normal-form values to basis coordinates without a fraction.
    """

    r: int
    n: int
    rank: int
    points: tuple[Point, ...]  # the non-vertex points, coordinate order
    hnf: tuple[tuple[int, ...], ...]

    def nf_row_to_coord_row(self, row) -> tuple[int, ...]:
        """Rewrite an integer linear functional on normal-form values as
        the primitive integer functional on basis coordinates with the
        same sign (the basis is hnf / r, and r > 0)."""
        return zlattice.primitive_ray(
            [sum(h * a for h, a in zip(hrow, row)) for hrow in self.hnf]
        )


@lru_cache(maxsize=CONFIG_CACHE_SIZE)
def quotient_lattice(r: int, n: int) -> QuotientLattice:
    pts = enumerate_lattice_points(r, n)
    nonv = nonvertex_points(r, n)
    nonv_idx = [point_index(r, n, p) for p in nonv]
    # scaled normal forms of the standard basis of Z^{S}, in Z^d
    gens = []
    for k in range(len(pts)):
        nf = scaled_normal_form(r, n, [1 if i == k else 0 for i in range(len(pts))])
        gens.append([nf[i] for i in nonv_idx])
    h = zlattice.hnf(gens)
    if len(h) != len(nonv):
        raise InternalError(f"quotient lattice rank {len(h)}, expected {len(nonv)}")
    return QuotientLattice(r, n, len(nonv), nonv, tuple(map(tuple, h)))
