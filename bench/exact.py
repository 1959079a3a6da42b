"""Exact arithmetic written apart from chtoucakit, for the benchmark's
oracles: rational elimination, small finite fields on integer indices,
Newton identities, truncated power series and planar lower hulls.

Nothing here imports chtoucakit, so a fault in the program cannot leak
into the computations its answers are checked against.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


# ---------------------------------------------------------------------------
# fields: Q on Fractions, GF(p^k) on integer indices sum c_i p^i


class RationalOps:
    """The rationals, with wire strings "p" or "p/q"."""

    is_q = True
    zero = Fraction(0)
    one = Fraction(1)

    def parse(self, s):
        return Fraction(s)

    def fmt(self, x) -> str:
        x = Fraction(x)
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def descriptor(self):
        return {"Q": True}


def smallest_irreducible(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over F_p
    (coefficients ascending), by testing that it has no factor of degree
    <= k/2 through brute-force polynomial division."""
    if k == 1:
        return (0, 1)
    for lower in product(range(p), repeat=k):
        f = list(lower) + [1]
        if all(_poly_rem(f, list(g) + [1], p) for d in range(1, k // 2 + 1)
               for g in product(range(p), repeat=d)):
            return tuple(f)
    raise ValueError("no irreducible polynomial")


def _poly_rem(f, g, p) -> bool:
    """Is the remainder of f modulo the monic g nonzero?"""
    rem = list(f)
    dg = len(g) - 1
    for top in range(len(rem) - 1, dg - 1, -1):
        c = rem[top]
        if c:
            for j in range(dg + 1):
                rem[top - dg + j] = (rem[top - dg + j] - c * g[j]) % p
    return any(rem[:dg])


class FiniteOps:
    """GF(p^k) on integer indices with full addition and multiplication
    tables built from polynomial arithmetic modulo `modulus`."""

    is_q = False

    def __init__(self, p: int, k: int, modulus=None):
        self.p, self.k = p, k
        self.modulus = tuple(modulus) if modulus else smallest_irreducible(p, k)
        self.q = p**k
        q = self.q
        digits = [self._digits(i) for i in range(q)]
        self._add = [[self._index([(x + y) % p for x, y in zip(digits[a], digits[b])])
                      for b in range(q)] for a in range(q)]
        self._neg = [self._index([(-x) % p for x in digits[a]]) for a in range(q)]
        self._mul = [[self._index(self._polymul(digits[a], digits[b]))
                      for b in range(q)] for a in range(q)]
        self._inv = [0] * q
        for a in range(1, q):
            self._inv[a] = next(b for b in range(1, q) if self._mul[a][b] == 1)
        self.zero, self.one = 0, 1

    def _digits(self, idx):
        out = []
        for _ in range(self.k):
            out.append(idx % self.p)
            idx //= self.p
        return out

    def _index(self, digits) -> int:
        idx = 0
        for c in reversed(digits):
            idx = idx * self.p + c
        return idx

    def _polymul(self, a, b):
        p, k, m = self.p, self.k, self.modulus
        prod = [0] * (2 * k - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for d in range(len(prod) - 1, k - 1, -1):
            c = prod[d]
            if c:
                for j in range(k + 1):
                    prod[d - k + j] = (prod[d - k + j] - c * m[j]) % p
        return prod[:k]

    def parse(self, s):
        v = int(s)
        if not 0 <= v < self.q:
            raise ValueError(f"index {v} outside GF({self.q})")
        return v

    def fmt(self, x) -> str:
        return str(x)

    def add(self, a, b):
        return self._add[a][b]

    def sub(self, a, b):
        return self._add[a][self._neg[b]]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._inv[a]

    def power(self, a, e: int):
        out = 1
        for _ in range(e):
            out = self._mul[out][a]
        return out

    def descriptor(self):
        return {"GF": [self.p, self.k], "modulus_poly": list(self.modulus)}


# ---------------------------------------------------------------------------
# matrices over a field object (RationalOps or FiniteOps)


def rref(f, rows):
    """Reduced row echelon form (nonzero rows only) and pivot columns."""
    m = [list(r) for r in rows]
    pivots = []
    if not m:
        return m, pivots
    r = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(r, len(m)) if m[i][c] != f.zero), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = f.inv(m[r][c])
        m[r] = [f.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != f.zero:
                g = m[i][c]
                m[i] = [f.sub(x, f.mul(g, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m[:r], pivots


def rank(f, rows) -> int:
    return len(rref(f, rows)[1])


def det(f, a):
    m = [list(r) for r in a]
    n = len(m)
    out = f.one
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != f.zero), None)
        if piv is None:
            return f.zero
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = f.neg(out)
        out = f.mul(out, m[c][c])
        inv = f.inv(m[c][c])
        for i in range(c + 1, n):
            if m[i][c] != f.zero:
                g = f.mul(m[i][c], inv)
                m[i] = [f.sub(x, f.mul(g, y)) for x, y in zip(m[i], m[c])]
    return out


def matmul(f, a, b):
    out = []
    for row in a:
        acc = [f.zero] * len(b[0])
        for t, c in enumerate(row):
            if c != f.zero:
                acc = [f.add(x, f.mul(c, y)) for x, y in zip(acc, b[t])]
        out.append(acc)
    return out


def identity(f, n):
    return [[f.one if i == j else f.zero for j in range(n)] for i in range(n)]


def kernel(rows, ncols):
    """Basis of {x : rows . x = 0} over Q."""
    f = RationalOps()
    red, pivots = rref(f, rows) if rows else ([], [])
    out = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -red[i][free]
        out.append(v)
    return out


def primitive_int(v) -> tuple[int, ...]:
    """Primitive integer vector in the direction of a rational one."""
    from math import gcd, lcm

    v = [Fraction(x) for x in v]
    den = 1
    for x in v:
        den = lcm(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(x // g for x in ints) if g else tuple(ints)


# ---------------------------------------------------------------------------
# eigenvalue polynomials prod (1 - z_i T): Newton identities and series


def power_sums(coeffs, count: int) -> list[Fraction]:
    """p_1..p_count of the z_i of prod (1 - z_i T) = sum coeffs[k] T^k.

    With e_k = (-1)^k coeffs[k]: p_k = sum_{i<k} (-1)^(i-1) e_i p_{k-i}
    + (-1)^(k-1) k e_k."""
    r = len(coeffs) - 1
    e = [Fraction((-1) ** k) * Fraction(c) for k, c in enumerate(coeffs)]
    ps = [Fraction(0)]
    for k in range(1, count + 1):
        acc = Fraction(0)
        for i in range(1, min(k, r) + 1):
            sign = 1 if i % 2 else -1
            acc += sign * e[i] * (ps[k - i] if k > i else k)
        ps.append(acc)
    return ps[1:]


def coeffs_from_power_sums(ps, degree: int) -> list[Fraction]:
    """Invert Newton's identities: k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i,
    returned as the ascending coefficients of prod (1 - z_i T)."""
    e = [Fraction(1)]
    for k in range(1, degree + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            sign = 1 if i % 2 else -1
            acc += sign * e[k - i] * ps[i - 1]
        e.append(acc / k)
    return [Fraction((-1) ** k) * x for k, x in enumerate(e)]


def series_inverse(poly, order: int) -> list[Fraction]:
    """Coefficients of 1/poly to T^order (poly[0] must be 1)."""
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1) / poly[0]
    for m in range(1, order + 1):
        acc = sum((Fraction(poly[k]) * out[m - k] for k in range(1, min(m, len(poly) - 1) + 1)),
                  Fraction(0))
        out[m] = -acc / poly[0]
    return out


def series_mul(a, b, order: int) -> list[Fraction]:
    return [sum((a[i] * b[m - i] for i in range(m + 1)), Fraction(0)) for m in range(order + 1)]


# ---------------------------------------------------------------------------
# planar geometry on exact values


def convex_hull(points):
    """Vertices of the convex hull of planar points, collinear points
    dropped, counter-clockwise (Andrew's monotone chain)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = chain(pts), chain(list(reversed(pts)))
    return lower[:-1] + upper[:-1]


def lower_hull_breaks(values) -> list[int]:
    """Abscissae of the strict corners of the lower hull of the points
    (k, values[k]), endpoints included."""
    out: list[int] = []
    for k, v in enumerate(values):
        while len(out) >= 2:
            i, j = out[-2], out[-1]
            # drop j unless it lies strictly below the chord from i to k
            if (values[j] - values[i]) * (k - i) >= (v - values[i]) * (j - i):
                out.pop()
            else:
                break
        out.append(k)
    return out


def lower_facets(points3):
    """Lower facets of lifted planar points (x, y, z) with rational z:
    the distinct sets of points on a plane that no point lies below,
    over every non-collinear triple."""
    from math import lcm

    den = 1
    for _, _, z in points3:
        den = lcm(den, Fraction(z).denominator)
    pts = [(x, y, int(Fraction(z) * den)) for x, y, z in points3]
    facets = set()
    count = len(pts)
    for a in range(count):
        pa = pts[a]
        for b in range(a + 1, count):
            u = [pts[b][t] - pa[t] for t in range(3)]
            for c in range(b + 1, count):
                v = [pts[c][t] - pa[t] for t in range(3)]
                nx = u[1] * v[2] - u[2] * v[1]
                ny = u[2] * v[0] - u[0] * v[2]
                nz = u[0] * v[1] - u[1] * v[0]
                if nz == 0:
                    continue  # collinear in the plane
                if nz < 0:
                    nx, ny, nz = -nx, -ny, -nz
                side = [(p[0] - pa[0]) * nx + (p[1] - pa[1]) * ny + (p[2] - pa[2]) * nz
                        for p in pts]
                if min(side) < 0:
                    continue
                facets.add(frozenset(i for i, s in enumerate(side) if s == 0))
    return facets
