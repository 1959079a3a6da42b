"""Integer lattice utilities: gcd reduction, the Hermite normal form,
and fraction-free integer kernels and ranks.  Lattice points of
the simplex are integer vectors, so pavé interiors, walls and the affine
dependencies behind secondary cones are computed here.

Everything works on plain lists of Python ints; sizes here are tiny
(ranks at most ~12), so the classic O(n^3) algorithms with exact integer
arithmetic are more than enough.
"""

from __future__ import annotations

from math import gcd


def vec_gcd(v) -> int:
    g = 0
    for a in v:
        g = gcd(g, abs(int(a)))
    return g


def primitive_ray(v) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries, keeping the
    direction.  The zero vector maps to itself."""
    g = vec_gcd(v)
    if g == 0:
        return tuple(int(a) for a in v)
    return tuple(int(a) // g for a in v)


def primitive(v) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries; sign-normalize
    so the first nonzero entry is positive.  The zero vector maps to itself."""
    w = primitive_ray(v)
    for a in w:
        if a != 0:
            if a < 0:
                w = tuple(-x for x in w)
            break
    return w


def hnf(rows: list[list[int]]) -> list[list[int]]:
    """Row Hermite normal form of the lattice spanned by ``rows``.

    Returns a list of nonzero rows in row-echelon shape: pivots strictly
    to the right as you go down, pivot entries positive, entries above a
    pivot reduced into [0, pivot).
    """
    m = [list(map(int, r)) for r in rows]
    if not m:
        return []
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        # eliminate below row r in column c by gcd steps
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            while m[i][c] != 0:
                q = m[r][c] // m[i][c]
                m[r] = [a - q * b for a, b in zip(m[r], m[i])]
                m[r], m[i] = m[i], m[r]
        if m[r][c] < 0:
            m[r] = [-a for a in m[r]]
        for i in range(r):
            q = m[i][c] // m[r][c]
            if q:
                m[i] = [a - q * b for a, b in zip(m[i], m[r])]
        r += 1
    return [row for row in m[:r]]


def int_kernel(rows: list[list[int]], ncols: int) -> list[tuple[int, ...]]:
    """HNF basis of the integer kernel {x in Z^ncols : M x = 0}.

    The Hermite reduction of [M^T | I] is a unimodular row operation, so
    the identity halves of its rows whose M^T half vanishes form a basis
    of the kernel lattice itself (which is saturated), already in HNF.
    Clearing the denominators of a rational kernel basis would instead
    give a sublattice of finite index in general."""
    m = len(rows)
    aug = [
        [int(r[j]) for r in rows] + [1 if k == j else 0 for k in range(ncols)]
        for j in range(ncols)
    ]
    return [tuple(row[m:]) for row in hnf(aug) if not any(row[:m])]


def int_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free (Bareiss) elimination.

    After k pivots every entry of the rows below is a (k+1)-minor of the
    input, so the division by the previous pivot is exact and no
    fraction is ever formed."""
    m = [[int(a) for a in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        p = prow[c]
        tail = prow[c + 1:]
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[c]
            row[c + 1:] = [(p * x - f * y) // prev for x, y in zip(row[c + 1:], tail)]
        prev = p
        r += 1
    return r
