"""Dense exact linear algebra over a field object from `fields` (QQ or
GF(p^k)): the package's elimination routines.

Every routine takes the field as its first argument and matrices as
lists of rows of field elements, and runs one of two loops:

- over GF(p^k), the field-generic `_forward` brings a copy of the matrix
  to row-echelon form with unit pivots, and `_back_substitute` clears the
  entries above the pivots when a reduced form is needed;
- over QQ, the matrix is cleared of denominators once, and
  `zlattice._bareiss` (whose pivots also give `zlattice.int_rank`)
  eliminates the integer matrix without fractions; a `Fraction` is
  formed only for an output entry.

`rank` and `det` stop after the forward pass.  The reduced row-echelon
form, the rank, the determinant and the inverse are unique, and the
kernel basis is read off the reduced form, so both loops give the same
answers; the generic loop run on QQ is the test oracle of the integer one.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import RationalField, _clear_denominators, _over, fmat_identity
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


def _q_reduce(rows, ncols):
    """The integer matrix of ``rows`` after `_bareiss` with ``reduced``,
    its pivot columns and its last pivot."""
    m, _ = _clear_denominators(rows)
    pivots, p, _ = _bareiss(m, ncols, reduced=True)
    return m, pivots, p


def rref(field, rows):
    """Reduced row-echelon form; returns (matrix, pivot columns).  The
    matrix keeps all rows, its zero rows last."""
    ncols = len(rows[0]) if rows else 0
    if isinstance(field, RationalField):
        m, pivots, p = _q_reduce(rows, ncols)
        k = len(pivots)
        zero = Fraction(0)
        return _over(m[:k], p) + [[zero] * len(row) for row in m[k:]], pivots
    return _reduce(field, rows, ncols)


def rank(field, rows) -> int:
    ncols = len(rows[0]) if rows else 0
    if isinstance(field, RationalField):
        return len(_bareiss(_clear_denominators(rows)[0], ncols)[0])
    m = [list(r) for r in rows]
    return len(_forward(field, m, ncols)[0])


def row_basis(field, rows):
    """Canonical basis of the row space: the nonzero rows of the rref."""
    ncols = len(rows[0]) if rows else 0
    if isinstance(field, RationalField):
        m, pivots, p = _q_reduce(rows, ncols)
        return _over(m[: len(pivots)], p)
    red, pivots = _reduce(field, rows, ncols)
    return red[: len(pivots)]


def kernel(field, rows, ncols: int):
    """Basis of {x : M x = 0}, one vector per non-pivot column fc: 1 at
    fc, and at each pivot column minus the reduced row's entry at fc."""
    if isinstance(field, RationalField):
        m, pivots, p = _q_reduce(rows, ncols)
        zero, one = Fraction(0), Fraction(1)

        def minus_column(fc):
            return [Fraction(-row[fc], p) for row in m[: len(pivots)]]
    else:
        red, pivots = _reduce(field, rows, ncols)
        zero, one = field.zero(), field.one()

        def minus_column(fc):
            return [field.neg(row[fc]) for row in red[: len(pivots)]]
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[fc] = one
        for pc, x in zip(pivots, minus_column(fc)):
            v[pc] = x
        basis.append(v)
    return basis


def inverse(field, a):
    """Inverse of a square matrix, or None if it is singular."""
    n = len(a)
    if isinstance(field, RationalField):
        # [N | d I] has the reduced form [I | (N / d)^(-1)]
        m, d = _clear_denominators(a)
        for i, row in enumerate(m):
            row.extend(d if j == i else 0 for j in range(n))
        pivots, p, _ = _bareiss(m, n, reduced=True)
        if len(pivots) != n:
            return None
        return _over([row[n:] for row in m], p)
    ident = fmat_identity(field, n)
    red, pivots = _reduce(field, [list(row) + ident[i] for i, row in enumerate(a)], n)
    if len(pivots) != n:
        return None
    return [row[n:] for row in red]


def det(field, a):
    if isinstance(field, RationalField):
        # det(N / d) = det(N) / d^n
        m, d = _clear_denominators(a)
        pivots, p, sign = _bareiss(m, len(m))
        return Fraction(sign * p, d ** len(m)) if len(pivots) == len(m) else Fraction(0)
    m = [list(r) for r in a]
    pivots, scale = _forward(field, m, len(m))
    return scale if len(pivots) == len(m) else field.zero()
