"""Integer lattice utilities: gcd reduction, the Hermite normal form,
the integer kernel, and fraction-free (Bareiss) elimination with the
integer rank it gives; `qlinalg` runs the same elimination for every
matrix over Q.  Lattice points of the simplex are integer vectors, so
pavé interiors, walls and the affine dependencies behind secondary cones
are computed here.  A vector's gcd is one call of `math.gcd`, in C.

Everything works on plain lists of Python ints; sizes here are tiny
(ranks at most ~12), so the classic O(n^3) algorithms with exact integer
arithmetic are more than enough.
"""

from __future__ import annotations

from math import gcd


def vec_gcd(v) -> int:
    return gcd(*map(int, v))


def primitive_ray(v) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries, keeping the
    direction.  The zero vector maps to itself."""
    v = tuple(map(int, v))
    g = gcd(*v)
    return tuple(a // g for a in v) if g > 1 else v


def primitive(v) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries; sign-normalize
    so the first nonzero entry is positive.  The zero vector maps to itself."""
    w = primitive_ray(v)
    return tuple(-x for x in w) if next((a for a in w if a), 0) < 0 else w


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


def _bareiss(m, ncols, reduced=False):
    """Fraction-free elimination of the integer matrix ``m`` in place over
    its first ``ncols`` columns (Bareiss, Math. Comp. 22, 1968); columns
    past ``ncols`` follow along.

    Each pivot p replaces every row below it by (p·row − f·pivot row) /
    prev, where f is the row's entry in the pivot column and prev the
    pivot before (1 at the start).  Every entry is then a minor of the
    input, so the division is exact.  With ``reduced`` the rows above the
    pivot are replaced the same way (fraction-free Gauss-Jordan), so every
    pivot row ends with the last pivot in its pivot column and zeros in
    the others: the reduced form is each pivot row divided by the last
    pivot.  Returns the pivot columns, the last pivot and the sign of the
    row permutation; a square ``m`` of full rank has determinant sign ×
    last pivot."""
    nrows = len(m)
    pivots = []
    prev = 1
    sign = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for piv in range(r, nrows):
            if m[piv][c]:
                break
        else:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            sign = -sign
        prow = m[r]
        p = prow[c]
        tail = c + 1
        ptail = prow[tail:]
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[c]
            row[c] = 0
            row[tail:] = [(p * x - f * y) // prev for x, y in zip(row[tail:], ptail)]
        if reduced:
            # the pivot row is zero left of c, so whole rows combine
            for i in range(r):
                row = m[i]
                f = row[c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, prow)]
        pivots.append(c)
        prev = p
        r += 1
    return pivots, prev, sign


def int_rank(rows) -> int:
    """Rank of an integer matrix: the number of pivots of `_bareiss`, the
    fraction-free pass that every elimination over Q in `qlinalg` runs
    too."""
    m = [[int(a) for a in r] for r in rows]
    return len(_bareiss(m, len(m[0]) if m else 0)[0])
