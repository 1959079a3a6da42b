"""Dense exact linear algebra over a field object from `fields` (QQ or
GF(p^k)): the package's elimination routines.

Every routine takes the field as its first argument and matrices as
lists of rows of field elements.  Each has a scaled form (`scaled_rref`,
...) that takes the numerators N of the scaled form (N, d) of `fields`
(and d where it moves the answer) and returns matrices as pairs (N, d),
so chained calls over Q clear no denominator and form no `Fraction`;
the plain routine wraps it, clearing its input once and forming one
`Fraction` per output entry.

The scaled forms have one body each, on one elimination, `_eliminate`,
the only place besides `scaled_det` that chooses between the fields:

- over QQ, `zlattice._bareiss` (whose pivots also give
  `zlattice.int_rank`) eliminates N without fractions;
- over GF(p^k), the field-generic `_forward` brings N to row-echelon
  form with unit pivots, and `_back_substitute` clears the entries above
  the pivots when a reduced form is needed.

`rank` and `det` stop after the forward pass.  The reduced row-echelon
form, the rank, the determinant and the inverse are unique, and the
kernel basis is read off the reduced form, so both loops give the same
answers; the generic loop run on QQ is the test oracle of the integer one.
"""

from __future__ import annotations

from fractions import Fraction

from .fields import RationalField, _reduced, scaled, unscaled
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


def _eliminate(field, m, ncols, reduced=False):
    """Eliminate the numerators ``m`` of a scaled matrix in place over
    their first ``ncols`` columns, columns past ``ncols`` following along:
    over Q by `zlattice._bareiss`, over GF(p^k) by `_forward`, then
    `_back_substitute` with ``reduced``.

    Returns the pivot columns, the denominator e of the reduced form
    (with ``reduced``, its pivot rows are the first rows of ``m`` over
    e; e = 1 over GF(p^k)) and the determinant of the first ``ncols``
    columns when they are square of full rank."""
    if isinstance(field, RationalField):
        pivots, p, sign = _bareiss(m, ncols, reduced)
        return pivots, p, sign * p
    pivots, scale = _forward(field, m, ncols)
    if reduced:
        _back_substitute(field, m, pivots)
    return pivots, 1, scale


def scaled_rref(field, n):
    """`rref` of the scaled matrix (N, d) from its rows N, which fix it
    whatever d is: ((R, e), pivot columns) with R/e the reduced form."""
    m = [list(row) for row in n]
    pivots, e, _ = _eliminate(field, m, len(n[0]) if n else 0, reduced=True)
    return _reduced(m, e), pivots


def rref(field, rows):
    """Reduced row-echelon form; returns (matrix, pivot columns).  The
    matrix keeps all rows, its zero rows last."""
    m, pivots = scaled_rref(field, scaled(field, rows)[0])
    return unscaled(field, m), pivots


def scaled_rank(field, n) -> int:
    """Rank of a scaled matrix (N, d), which is the rank of N."""
    return len(_eliminate(field, [list(row) for row in n], len(n[0]) if n else 0)[0])


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
    is singular: [N | d I] has the reduced form [I | (N / d)^(-1)]."""
    k = len(n)
    # d = 1 over GF(p^k), and 0 is the zero of Z and of GF(p^k)
    m = [list(row) + [d if j == i else 0 for j in range(k)] for i, row in enumerate(n)]
    pivots, e, _ = _eliminate(field, m, k, reduced=True)
    if len(pivots) != k:
        return None
    return _reduced([row[k:] for row in m], e)


def inverse(field, a):
    """Inverse of a square matrix, or None if it is singular."""
    inv = scaled_inverse(field, *scaled(field, a))
    return None if inv is None else unscaled(field, inv)


def scaled_det(field, n, d):
    """Determinant of the square scaled matrix (N, d), a field element:
    over Q, det(N) / d^n."""
    k = len(n)
    pivots, _, det_n = _eliminate(field, [list(row) for row in n], k)
    if len(pivots) != k:
        return field.zero()
    return Fraction(det_n, d**k) if isinstance(field, RationalField) else det_n


def det(field, a):
    return scaled_det(field, *scaled(field, a))
