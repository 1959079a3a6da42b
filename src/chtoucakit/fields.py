"""Exact scalar fields (Q and small GF(p^k)) and the few dense matrix
helpers that need no elimination (identity, product, equality); every
elimination routine lives in `qlinalg`, generic over these field objects.

GF(p^k) elements are coefficient tuples of length k (little-endian) over
a monic irreducible modulus of degree k, by default the lexicographically
smallest one over F_p.  Serialization uses the integer index sum c_i p^i.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product


class RationalField:
    name = "Q"

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / a

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == 0

    def coerce(self, x):
        return Fraction(x)

    def format(self, a) -> str:
        a = Fraction(a)
        return str(a.numerator) if a.denominator == 1 else f"{a.numerator}/{a.denominator}"

    def parse(self, s: str) -> Fraction:
        return Fraction(s)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


QQ = RationalField()


def _poly_mul_mod(a, b, modulus, p):
    k = len(modulus) - 1
    prod_coeffs = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod_coeffs[i + j] = (prod_coeffs[i + j] + ai * bj) % p
    # reduce modulo the monic modulus
    for d in range(len(prod_coeffs) - 1, k - 1, -1):
        c = prod_coeffs[d]
        if c:
            for j in range(k + 1):
                prod_coeffs[d - k + j] = (prod_coeffs[d - k + j] - c * modulus[j]) % p
    out = prod_coeffs[:k]
    out += [0] * (k - len(out))
    return tuple(out)


def _poly_is_irreducible(coeffs, p):
    """Trial division by all monic polynomials of degree <= deg/2."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for lower in product(range(p), repeat=d):
            divisor = list(lower) + [1]
            # long division of coeffs by divisor over F_p
            rem = list(coeffs)
            for top in range(deg, d - 1, -1):
                c = rem[top]
                if c:
                    for j in range(d + 1):
                        rem[top - d + j] = (rem[top - d + j] - c * divisor[j]) % p
            if all(x == 0 for x in rem[:d]):
                return False
    return True


@lru_cache(maxsize=None)
def default_modulus(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over F_p."""
    if k == 1:
        return (0, 1)
    for lower in product(range(p), repeat=k):
        coeffs = tuple(lower) + (1,)
        if _poly_is_irreducible(coeffs, p):
            return coeffs
    raise AssertionError("no irreducible polynomial found")


@dataclass(frozen=True)
class GF:
    """The field with p^k elements, p prime, k >= 1."""

    p: int
    k: int
    modulus: tuple[int, ...] = None  # monic, length k+1

    def __post_init__(self):
        if self.p < 2 or any(self.p % d == 0 for d in range(2, self.p)):
            raise ValueError("p must be prime")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.modulus is None:
            object.__setattr__(self, "modulus", default_modulus(self.p, self.k))
        if len(self.modulus) != self.k + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not _poly_is_irreducible(tuple(c % self.p for c in self.modulus), self.p):
            raise ValueError("modulus must be irreducible over F_p")

    @property
    def name(self):
        return f"GF({self.p}^{self.k})"

    @property
    def order(self):
        return self.p**self.k

    def zero(self):
        return (0,) * self.k

    def one(self):
        return (1,) + (0,) * (self.k - 1)

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def mul(self, a, b):
        return _poly_mul_mod(a, b, self.modulus, self.p)

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of 0")
        return self.pow(a, self.order - 2)

    def pow(self, a, e: int):
        if self.is_zero(a):
            return self.zero() if e > 0 else self.one()
        e %= self.order - 1
        result = self.one()
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a, q: int):
        """a -> a^q; q must be a power of p."""
        return self.pow(a, q)

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return all(x == 0 for x in a)

    def coerce(self, x):
        if isinstance(x, tuple):
            return tuple(v % self.p for v in x)
        return self.from_index(int(x) % self.order)

    def from_index(self, idx: int):
        out = []
        for _ in range(self.k):
            out.append(idx % self.p)
            idx //= self.p
        return tuple(out)

    def to_index(self, a) -> int:
        idx = 0
        for c in reversed(a):
            idx = idx * self.p + c
        return idx

    def elements(self):
        for idx in range(self.order):
            yield self.from_index(idx)

    def format(self, a) -> str:
        return str(self.to_index(a))

    def parse(self, s: str):
        return self.from_index(int(s))


# ---------------------------------------------------------------------------
# generic matrices: lists of lists of field elements


def fmat_identity(field, n):
    return [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]


def fmat_zero(field, nrows, ncols):
    return [[field.zero() for _ in range(ncols)] for _ in range(nrows)]


def fmat_mul(field, a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = fmat_zero(field, n, m)
    for i in range(n):
        for t in range(k):
            c = a[i][t]
            if not field.is_zero(c):
                for j in range(m):
                    out[i][j] = field.add(out[i][j], field.mul(c, b[t][j]))
    return out


def fmat_eq(field, a, b):
    if len(a) != len(b):
        return False
    return all(
        len(ra) == len(rb) and all(field.eq(x, y) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )
