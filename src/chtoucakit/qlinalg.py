"""Dense exact linear algebra over a field object from `fields` (QQ or
GF(p^k)): the package's one Gaussian-elimination kernel.

Every routine takes the field as its first argument and matrices as
lists of rows of field elements.  All of them run on the same loop:
`_forward` brings a copy of the matrix to row-echelon form with unit
pivots, and `_back_substitute` clears the entries above the pivots when
a reduced form is needed.  `rank` and `det` stop after the forward pass.
"""

from __future__ import annotations

from .fields import fmat_identity


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


def rref(field, rows):
    """Reduced row-echelon form; returns (matrix, pivot columns).  The
    matrix keeps all rows, its zero rows last."""
    return _reduce(field, rows, len(rows[0]) if rows else 0)


def rank(field, rows) -> int:
    m = [list(r) for r in rows]
    return len(_forward(field, m, len(m[0]) if m else 0)[0])


def row_basis(field, rows):
    """Canonical basis of the row space: the nonzero rows of the rref."""
    red, pivots = _reduce(field, rows, len(rows[0]) if rows else 0)
    return red[: len(pivots)]


def kernel(field, rows, ncols: int):
    """Basis of {x : M x = 0}, one vector per non-pivot column."""
    red, pivots = _reduce(field, rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [field.zero()] * ncols
        v[fc] = field.one()
        for i, pc in enumerate(pivots):
            v[pc] = field.neg(red[i][fc])
        basis.append(v)
    return basis


def inverse(field, a):
    """Inverse of a square matrix, or None if it is singular."""
    n = len(a)
    ident = fmat_identity(field, n)
    red, pivots = _reduce(field, [list(row) + ident[i] for i, row in enumerate(a)], n)
    if len(pivots) != n:
        return None
    return [row[n:] for row in red]


def det(field, a):
    m = [list(r) for r in a]
    pivots, scale = _forward(field, m, len(m))
    return scale if len(pivots) == len(m) else field.zero()
