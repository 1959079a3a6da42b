"""Dense exact linear algebra over a field object from `fields` (QQ or
GF(p^k)): the package's elimination routines.

Every routine takes the field as its first argument and the numerators
N of a scaled matrix (N, d) of `fields` (and d where it moves the
answer), and returns matrices as pairs (N, d), so chained calls over Q
clear no denominator and form no `Fraction`.  A caller holding a matrix
of field elements passes `scaled(field, m)` and reads an answer with
`unscaled`.

The routines have one body each, on one elimination, `_eliminate`, the
only place that chooses between the fields:

- over QQ, `zlattice._bareiss` (whose pivots also give
  `zlattice.int_rank`) eliminates N without fractions;
- over GF(p^k), the field-generic `_forward` brings N to row-echelon
  form with unit pivots, and `_back_substitute` clears the entries above
  the pivots when a reduced form is needed.

`scaled_rank` stops after the forward pass.  The reduced row-echelon
form, the rank and the inverse are unique, and the kernel basis is read
off the reduced form, so both loops give the same answers; the generic
loop run on QQ is the test oracle of the integer one.  No determinant is
taken here: `complete_homs.scaled_compounds` ends in it.
"""

from __future__ import annotations

from .fields import RationalField, _reduced
from .zlattice import _bareiss


def _forward(field, m, ncols):
    """Forward elimination of ``m`` in place over its first ``ncols``
    columns; row operations act on whole rows, so columns past ``ncols``
    (an augmented right-hand side) follow along.

    Leaves ``m`` in row-echelon form with unit pivots and its zero rows
    (within the first ``ncols`` columns) last.  Returns the pivot
    columns."""
    zero, one = field.zero(), field.one()
    is_zero, sub, mul, inv = field.is_zero, field.sub, field.mul, field.inv
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = r
        while piv < nrows and is_zero(m[piv][c]):
            piv += 1
        if piv == nrows:
            continue
        m[r], m[piv] = m[piv], m[r]
        prow = m[r]
        p = prow[c]
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
    return pivots


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

    Returns the pivot columns and the denominator e of the reduced form
    (with ``reduced``, its pivot rows are the first rows of ``m`` over
    e; e = 1 over GF(p^k))."""
    if isinstance(field, RationalField):
        return _bareiss(m, ncols, reduced)
    pivots = _forward(field, m, ncols)
    if reduced:
        _back_substitute(field, m, pivots)
    return pivots, 1


def scaled_rref(field, n):
    """The reduced row-echelon form of the scaled matrix (N, d) from its
    rows N, which fix it whatever d is: ((R, e), pivot columns) with R/e
    the reduced form, its zero rows last."""
    m = [list(row) for row in n]
    pivots, e = _eliminate(field, m, len(n[0]) if n else 0, reduced=True)
    return _reduced(m, e), pivots


def scaled_rank(field, n) -> int:
    """Rank of a scaled matrix (N, d), which is the rank of N."""
    return len(_eliminate(field, [list(row) for row in n], len(n[0]) if n else 0)[0])


def scaled_row_basis(field, n):
    """Canonical basis of the row space of the scaled matrix with rows N:
    the nonzero rows of its reduced form, scaled."""
    (m, e), pivots = scaled_rref(field, n)
    return m[: len(pivots)], e


def scaled_kernel(field, n, ncols: int):
    """Basis of {x : N x = 0}, scaled, one vector per non-pivot column fc:
    the reduced rows are R/e, so vector fc is e at fc and minus R's entry
    at each pivot column, over e (e = 1 over GF(p^k))."""
    (m, e), pivots = scaled_rref(field, n)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [0] * ncols  # 0 is the zero of Z and of GF(p^k)
        v[fc] = e
        for pc, row in zip(pivots, m):
            v[pc] = field.neg(row[fc])
        basis.append(v)
    return _reduced(basis, e)


def scaled_inverse(field, n, d):
    """Inverse of the square scaled matrix (N, d), scaled, or None if it
    is singular: [N | d I] has the reduced form [I | (N / d)^(-1)]."""
    k = len(n)
    # d = 1 over GF(p^k), and 0 is the zero of Z and of GF(p^k)
    m = [list(row) + [d if j == i else 0 for j in range(k)] for i, row in enumerate(n)]
    pivots, e = _eliminate(field, m, k, reduced=True)
    if len(pivots) != k:
        return None
    return _reduced([row[k:] for row in m], e)
