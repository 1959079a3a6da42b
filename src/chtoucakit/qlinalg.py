"""Dense exact linear algebra over a field object from `fields` (QQ or
GF(p^k)): the package's elimination routines.

Every routine takes the field as its first argument and matrices as
lists of rows of field elements, and runs one of two loops:

- over GF(p^k), the field-generic `_forward` brings a copy of the matrix
  to row-echelon form with unit pivots, and `_back_substitute` clears the
  entries above the pivots when a reduced form is needed;
- over QQ, `zlattice._bareiss` (whose pivots also give
  `zlattice.int_rank`) eliminates the integer matrix N of the scaled
  form (N, d) of `fields` without fractions.

Each routine has a scaled form (`scaled_rref`, ...) that takes N and d
(N alone where d cannot move the answer) and returns matrices as pairs
(N, d), so chained calls over Q clear no denominator and form no
`Fraction`; the plain routine wraps it, clearing its input once and
forming one `Fraction` per output entry.

`rank` and `det` stop after the forward pass.  The reduced row-echelon
form, the rank, the determinant and the inverse are unique, and the
kernel basis is read off the reduced form, so both loops give the same
answers; the generic loop run on QQ is the test oracle of the integer one.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import RationalField, _reduced, fmat_identity, scaled, unscaled
from .zlattice import _bareiss


def _forward(field, m, ncols):
    """Forward elimination of ``m`` in place over its first ``ncols``
    columns; row operations act on whole rows, so columns past ``ncols``
    (an augmented right-hand side) follow along.

    Leaves ``m`` in row-echelon form with unit pivots and its zero rows
    (within the first ``ncols`` columns) last.  Returns the pivot columns
    and the product of the pivots met, negated once per row swap: the
    determinant when ``m`` is square of full rank."""
    zero, one = field.zero(), field.one()
    is_zero, sub, mul, inv = field.is_zero, field.sub, field.mul, field.inv
    nrows = len(m)
    pivots = []
    scale = one
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = r
        while piv < nrows and is_zero(m[piv][c]):
            piv += 1
        if piv == nrows:
            continue
        if piv != r:
            m[r], m[piv] = m[piv], m[r]
            scale = field.neg(scale)
        prow = m[r]
        p = prow[c]
        scale = mul(scale, p)
        prow[c] = one
        tail = c + 1
        if tail < len(prow):  # a pivot in the last column needs no inverse
            p_inv = inv(p)
            prow[tail:] = [mul(p_inv, x) for x in prow[tail:]]
        ptail = prow[tail:]
        for i in range(r + 1, nrows):
            row = m[i]
            f = row[c]
            if not is_zero(f):
                row[c] = zero
                row[tail:] = [sub(x, mul(f, y)) for x, y in zip(row[tail:], ptail)]
        pivots.append(c)
        r += 1
    return pivots, scale


def _back_substitute(field, m, pivots):
    """Clear the entries above the unit pivots of a forward-eliminated
    ``m``, last pivot first, which gives the reduced row-echelon form."""
    zero = field.zero()
    is_zero, sub, mul = field.is_zero, field.sub, field.mul
    for k in range(len(pivots) - 1, 0, -1):
        c = pivots[k]
        tail = c + 1
        ptail = m[k][tail:]
        for i in range(k):
            row = m[i]
            f = row[c]
            if not is_zero(f):
                row[c] = zero
                row[tail:] = [sub(x, mul(f, y)) for x, y in zip(row[tail:], ptail)]


def _reduce(field, rows, ncols):
    """Reduced row-echelon form over the first ``ncols`` columns of a
    copy of ``rows``: (matrix, pivot columns)."""
    m = [list(r) for r in rows]
    pivots, _ = _forward(field, m, ncols)
    _back_substitute(field, m, pivots)
    return m, pivots


def scaled_rref(field, n):
    """`rref` of the scaled matrix (N, d) from its rows N, which fix it
    whatever d is: ((R, e), pivot columns) with R/e the reduced form."""
    ncols = len(n[0]) if n else 0
    if isinstance(field, RationalField):
        m = [list(row) for row in n]
        pivots, p, _ = _bareiss(m, ncols, reduced=True)
        k = len(pivots)
        return _reduced(m[:k] + [[0] * ncols for _ in m[k:]], p), pivots
    red, pivots = _reduce(field, n, ncols)
    return (red, 1), pivots


def rref(field, rows):
    """Reduced row-echelon form; returns (matrix, pivot columns).  The
    matrix keeps all rows, its zero rows last."""
    m, pivots = scaled_rref(field, scaled(field, rows)[0])
    return unscaled(field, m), pivots


def scaled_rank(field, n) -> int:
    """Rank of a scaled matrix (N, d), which is the rank of N."""
    m = [list(row) for row in n]
    ncols = len(n[0]) if n else 0
    if isinstance(field, RationalField):
        return len(_bareiss(m, ncols)[0])
    return len(_forward(field, m, ncols)[0])


def rank(field, rows) -> int:
    return scaled_rank(field, scaled(field, rows)[0])


def scaled_row_basis(field, n):
    """`row_basis` of the scaled matrix with rows N, scaled."""
    (m, e), pivots = scaled_rref(field, n)
    return m[: len(pivots)], e


def row_basis(field, rows):
    """Canonical basis of the row space: the nonzero rows of the rref."""
    return unscaled(field, scaled_row_basis(field, scaled(field, rows)[0]))


def scaled_kernel(field, n, ncols: int):
    """`kernel` of the scaled matrix with rows N, scaled: the reduced
    rows are R/e, so vector fc is e at fc and minus R's entry at each
    pivot column, over e (e = 1 over GF(p^k))."""
    (m, e), pivots = scaled_rref(field, n)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols  # 0 is the zero of Z and of GF(p^k)
        v[fc] = e
        for pc, row in zip(pivots, m):
            v[pc] = field.neg(row[fc])
        basis.append(v)
    return _reduced(basis, e)


def kernel(field, rows, ncols: int):
    """Basis of {x : M x = 0}, one vector per non-pivot column fc: 1 at
    fc, and at each pivot column minus the reduced row's entry at fc."""
    return unscaled(field, scaled_kernel(field, scaled(field, rows)[0], ncols))


def scaled_inverse(field, n, d):
    """Inverse of the square scaled matrix (N, d), scaled, or None if it
    is singular."""
    k = len(n)
    if isinstance(field, RationalField):
        # [N | d I] has the reduced form [I | (N / d)^(-1)]
        m = [list(row) + [d if j == i else 0 for j in range(k)] for i, row in enumerate(n)]
        pivots, p, _ = _bareiss(m, k, reduced=True)
        if len(pivots) != k:
            return None
        return _reduced([row[k:] for row in m], p)
    ident = fmat_identity(field, k)
    red, pivots = _reduce(field, [list(row) + ident[i] for i, row in enumerate(n)], k)
    if len(pivots) != k:
        return None
    return [row[k:] for row in red], 1


def inverse(field, a):
    """Inverse of a square matrix, or None if it is singular."""
    inv = scaled_inverse(field, *scaled(field, a))
    return None if inv is None else unscaled(field, inv)


def scaled_det(field, n, d):
    """Determinant of the square scaled matrix (N, d), a field element:
    over Q, det(N) / d^n."""
    m = [list(row) for row in n]
    if isinstance(field, RationalField):
        pivots, p, sign = _bareiss(m, len(m))
        return Fraction(sign * p, d ** len(m)) if len(pivots) == len(m) else field.zero()
    pivots, scale = _forward(field, m, len(m))
    return scale if len(pivots) == len(m) else field.zero()


def det(field, a):
    return scaled_det(field, *scaled(field, a))
