"""Exact scalar fields (Q and small GF(p^k)) and the few dense matrix
helpers that need no elimination (identity, product, equality); the
elimination routines live in `qlinalg`.

A matrix M is carried in scaled form (N, d), M = N/d: over Q, N is an
integer matrix and d >= 1 has no factor common to all of N's entries,
so the pair is unique; over GF(p^k), N = M and d = 1.  Each matrix loop
has one body, run on N in `ring(field)`: `ZZ` over Q, else the field.

A GF(p^k) element is a plain int, its index sum c_i p^i in range(p^k),
also its wire format; c_i are its little-endian coefficients modulo a
monic irreducible of degree k, by default the lexicographically smallest
one over F_p.  Arithmetic is lookup in log/antilog tables of a primitive
element, with Zech logarithms for addition (Lidl-Niederreiter, Finite
Fields, ch. 9); fields above FIELD_ORDER_CAP elements raise TooLarge.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from types import SimpleNamespace

from .errors import InternalError, TooLarge

FIELD_ORDER_CAP = 2**16  # largest q = p^k accepted; bounds the tables of GF


_ZERO, _ONE = Fraction(0), Fraction(1)  # immutable, so one of each is shared


class RationalField:
    name = "Q"

    def zero(self):
        return _ZERO

    def one(self):
        return _ONE

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
        return Fraction(a.denominator, a.numerator)  # exact for an int too

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == 0

    def format(self, a) -> str:
        """An int or Fraction as "n" or "n/d"."""
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

# the integers, as the ring operations of the matrix loops over Q
# (`scaled_mul`, `complete_homs.scaled_compounds`); builtins, so a step
# costs no Python call
ZZ = SimpleNamespace(
    zero=int, add=operator.add, sub=operator.sub, mul=operator.mul, is_zero=operator.not_
)


def _clear_denominators(rows):
    """(N, d) with N an integer matrix and d >= 1 the lcm of the
    denominators of the entries of the rational matrix ``rows`` (ints or
    Fractions), so that ``rows`` = N / d."""
    d = math.lcm(*[x.denominator for row in rows for x in row])
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


def _over(rows, d):
    """The rational matrix ``rows`` / d of an integer matrix, every entry
    a Fraction."""
    return [[Fraction(x, d) for x in row] for row in rows]


def _reduced(n, d):
    """The scaled form (N, d) of the matrix ``n`` / d (d a nonzero int):
    divided by the gcd of d and the entries, with d made positive."""
    if d == 1:
        return n, d
    g = math.gcd(d, *[math.gcd(*row) for row in n])
    if d < 0:
        g = -g
    if g == 1:
        return n, d
    return [[x // g for x in row] for row in n], d // g


def ring(field):
    """The ring in which the matrix loops run on the numerators N of
    scaled matrices: `ZZ` over Q, the field itself over GF(p^k)."""
    return ZZ if isinstance(field, RationalField) else field


def scaled(field, rows):
    """The scaled form (N, d) of a matrix: over Q, N and d of
    `_clear_denominators`; over GF(p^k), the matrix itself over 1."""
    if isinstance(field, RationalField):
        return _clear_denominators(rows)
    return rows, 1


def unscaled(field, m):
    """The matrix of field elements of a scaled matrix (N, d)."""
    return _over(*m) if isinstance(field, RationalField) else m[0]


def scaled_times(field, c, m):
    """The scaled matrix c (N, d) of a field element c: over Q, c = a/b
    gives (a N, b d)."""
    n, d = m
    if isinstance(field, RationalField):
        a = c.numerator
        return _reduced([[a * x for x in row] for row in n], c.denominator * d)
    return [[field.mul(c, x) for x in row] for row in n], d


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


@lru_cache(maxsize=64)  # above the 32 fields whose tables are kept
def default_modulus(p: int, k: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree k over F_p."""
    if k == 1:
        return (0, 1)
    for lower in product(range(p), repeat=k):
        coeffs = tuple(lower) + (1,)
        if _poly_is_irreducible(coeffs, p):
            return coeffs
    raise InternalError("no irreducible polynomial found")


@lru_cache(maxsize=32)
def _tables(p: int, k: int, modulus: tuple[int, ...]):
    """exp (g^0, ..., g^(q-2), twice, so a sum of two logs needs no
    reduction), log and zech[i] = log(1 + g^i) (None where 1 + g^i = 0)
    of the first primitive element g of GF(p^k) by index."""
    q = p**k
    one = (1,) + (0,) * (k - 1)
    for g in range(1, q):
        g_coeffs = tuple(g // p**i % p for i in range(k))
        exp, x = [], one
        while True:
            exp.append(sum(c * p**i for i, c in enumerate(x)))
            x = _poly_mul_mod(x, g_coeffs, modulus, p)
            if x == one:
                break
        if len(exp) == q - 1:
            break
    log = [None] * q
    for i, a in enumerate(exp):
        log[a] = i
    # adding 1 adds 1 to the lowest base-p digit of the index
    zech = [log[a + 1 - p if a % p == p - 1 else a + 1] for a in exp]
    return tuple(exp + exp), tuple(log), tuple(zech)


@dataclass(frozen=True)
class GF:
    """The field with q = p^k <= FIELD_ORDER_CAP elements, p prime, k >= 1.

    An element is its index in range(q).  Every operation is a lookup in
    the tables of `_tables`; they are not dataclass fields, so a field
    equals and hashes as its (p, k, modulus).
    """

    p: int
    k: int
    modulus: tuple[int, ...] = None  # monic, length k+1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        # p^k >= 2^k, so a huge k is over the cap before any power is taken
        if self.p ** min(self.k, FIELD_ORDER_CAP.bit_length()) > FIELD_ORDER_CAP:
            raise TooLarge(f"GF({self.p}^{self.k}) has more than {FIELD_ORDER_CAP} elements")
        if self.p < 2 or any(self.p % d == 0 for d in range(2, math.isqrt(self.p) + 1)):
            raise ValueError("p must be prime")
        if self.modulus is None:
            object.__setattr__(self, "modulus", default_modulus(self.p, self.k))
        if len(self.modulus) != self.k + 1 or self.modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree k")
        if not _poly_is_irreducible(tuple(c % self.p for c in self.modulus), self.p):
            raise ValueError("modulus must be irreducible over F_p")
        for name, table in zip(("_exp", "_log", "_zech"), _tables(self.p, self.k, self.modulus)):
            object.__setattr__(self, name, table)

    @property
    def name(self):
        return f"GF({self.p}^{self.k})"

    @property
    def order(self):
        return self.p**self.k

    def zero(self):
        return 0

    def one(self):
        return 1

    def add(self, a, b):
        if not a:
            return b
        if not b:
            return a
        la = self._log[a]
        # a negative difference indexes zech from the end: modulo q - 1
        z = self._zech[self._log[b] - la]
        return 0 if z is None else self._exp[la + z]

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def neg(self, a):
        return self.mul(a, self.p - 1)  # p - 1 is the index of -1

    def mul(self, a, b):
        return self._exp[self._log[a] + self._log[b]] if a and b else 0

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[len(self._zech) - self._log[a]]

    def pow(self, a, e: int):
        if not a:
            return 0 if e > 0 else 1
        return self._exp[self._log[a] * e % len(self._zech)]

    def frobenius(self, a, q: int):
        """a -> a^q; q must be a power of p."""
        return self.pow(a, q)

    def eq(self, a, b):
        return a == b

    def is_zero(self, a):
        return a == 0

    def format(self, a) -> str:
        return str(a)

    def parse(self, s: str) -> int:
        a = int(s)
        if not 0 <= a < self.order:
            raise ValueError(f"{a} is not an element index of {self.name}")
        return a


# ---------------------------------------------------------------------------
# generic matrices: lists of lists of field elements


def fmat_identity(field, n):
    return [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]


def fmat_zero(field, nrows, ncols):
    return [[field.zero() for _ in range(ncols)] for _ in range(nrows)]


def scaled_mul(field, a, b):
    """The product of two scaled matrices, (N_a N_b, d_a d_b), the
    numerators multiplied in `ring`."""
    (na, da), (nb, db) = a, b
    ops = ring(field)
    n, k = len(na), len(nb)
    m = len(nb[0]) if nb else 0
    out = fmat_zero(ops, n, m)
    for i in range(n):
        for t in range(k):
            c = na[i][t]
            if not ops.is_zero(c):
                for j in range(m):
                    out[i][j] = ops.add(out[i][j], ops.mul(c, nb[t][j]))
    return _reduced(out, da * db)


def fmat_mul(field, a, b):
    """The product a b, by `scaled_mul`."""
    return unscaled(field, scaled_mul(field, scaled(field, a), scaled(field, b)))


def fmat_eq(field, a, b):
    if len(a) != len(b):
        return False
    return all(
        len(ra) == len(rb) and all(field.eq(x, y) for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )
