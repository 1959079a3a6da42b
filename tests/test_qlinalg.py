"""Property tests of the field-generic elimination kernel in `qlinalg`.

The kernel replaced a Fraction-only Gauss-Jordan elimination and a
field-generic copy of it; both are kept below as test-only oracles and
the kernel must match them entry for entry.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chtoucakit import qlinalg
from chtoucakit.fields import GF, QQ, fmat_identity, fmat_mul

FIELDS = [QQ, GF(5, 1), GF(2, 2), GF(3, 2)]
FIELD_IDS = ["QQ", "GF5", "GF4", "GF9"]


# ---------------------------------------------------------------------------
# oracles: the eliminations the kernel replaced


def oracle_q_rref(rows):
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def oracle_q_det(a):
    m = [list(r) for r in a]
    n = len(m)
    sign = 1
    result = Fraction(1)
    for c in range(n):
        piv = None
        for i in range(c, n):
            if m[i][c] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign = -sign
        result *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return result * sign


def oracle_fmat_rref(field, rows):
    m = [list(r) for r in rows]
    if not m:
        return m, []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(m)):
            if not field.is_zero(m[i][c]):
                piv = i
                break
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = field.inv(m[r][c])
        m[r] = [field.mul(inv, x) for x in m[r]]
        for i in range(len(m)):
            if i != r and not field.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def oracle_fmat_det(field, a):
    m = [list(r) for r in a]
    n = len(m)
    sign_flip = False
    result = field.one()
    for c in range(n):
        piv = None
        for i in range(c, n):
            if not field.is_zero(m[i][c]):
                piv = i
                break
        if piv is None:
            return field.zero()
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            sign_flip = not sign_flip
        result = field.mul(result, m[c][c])
        inv = field.inv(m[c][c])
        for i in range(c + 1, n):
            if not field.is_zero(m[i][c]):
                f = field.mul(m[i][c], inv)
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[c])]
    return field.neg(result) if sign_flip else result


# ---------------------------------------------------------------------------
# strategies


def scalars(field):
    if field is QQ:
        # small numerators and denominators, zero-heavy so that rank
        # deficiency and pivot gaps are common
        return st.one_of(
            st.just(Fraction(0)),
            st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
        )
    return st.one_of(st.just(field.zero()), st.integers(0, field.order - 1))


@st.composite
def matrices(draw, field, nrows=None, ncols=None):
    nrows = draw(st.integers(0, 5)) if nrows is None else nrows
    ncols = draw(st.integers(1, 5)) if ncols is None else ncols
    return [[draw(scalars(field)) for _ in range(ncols)] for _ in range(nrows)]


def field_cases(test):
    return pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)(test)


def apply(field, a, x):
    """The vector A x."""
    out = []
    for row in a:
        s = field.zero()
        for c, y in zip(row, x):
            s = field.add(s, field.mul(c, y))
        out.append(s)
    return out


# ---------------------------------------------------------------------------
# properties


@field_cases
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rref_matches_oracles(field, data):
    a = data.draw(matrices(field))
    red, pivots = qlinalg.rref(field, a)
    assert (red, pivots) == oracle_fmat_rref(field, a)
    if field is QQ:
        assert (red, pivots) == oracle_q_rref(a)


@field_cases
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rref_idempotent_with_pivots(field, data):
    a = data.draw(matrices(field))
    red, pivots = qlinalg.rref(field, a)
    assert qlinalg.rref(field, red) == (red, pivots)
    for i, c in enumerate(pivots):
        assert red[i][c] == field.one()
        assert all(field.is_zero(red[j][c]) for j in range(len(red)) if j != i)
        assert all(field.is_zero(x) for x in red[i][:c])
    assert all(field.is_zero(x) for row in red[len(pivots):] for x in row)
    assert qlinalg.row_basis(field, a) == red[: len(pivots)]


@field_cases
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_rank_nullity(field, data):
    a = data.draw(matrices(field))
    ncols = len(a[0]) if a else data.draw(st.integers(1, 4))
    ker = qlinalg.kernel(field, a, ncols)
    if a:
        assert qlinalg.rank(field, a) == ncols - len(ker)
    assert qlinalg.rank(field, ker) == len(ker)
    for v in ker:
        assert all(field.is_zero(y) for y in apply(field, a, v))


@field_cases
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_det_matches_oracles_and_is_multiplicative(field, data):
    n = data.draw(st.integers(1, 4))
    a = data.draw(matrices(field, n, n))
    b = data.draw(matrices(field, n, n))
    det_a = qlinalg.det(field, a)
    assert det_a == oracle_fmat_det(field, a)
    if field is QQ:
        assert det_a == oracle_q_det(a)
    det_ab = qlinalg.det(field, fmat_mul(field, a, b))
    assert det_ab == field.mul(det_a, qlinalg.det(field, b))
    assert field.is_zero(det_a) == (qlinalg.rank(field, a) < n)


@field_cases
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_inverse(field, data):
    n = data.draw(st.integers(0, 5))
    a = data.draw(matrices(field, n, n))
    inv = qlinalg.inverse(field, a)
    if qlinalg.rank(field, a) < n:
        assert inv is None
    else:
        assert fmat_mul(field, a, inv) == fmat_identity(field, n)
        assert fmat_mul(field, inv, a) == fmat_identity(field, n)


def test_empty_and_degenerate_shapes():
    assert qlinalg.rref(QQ, []) == ([], [])
    assert qlinalg.rank(QQ, []) == 0
    assert qlinalg.det(QQ, []) == Fraction(1)
    assert qlinalg.inverse(QQ, []) == []
    assert qlinalg.kernel(GF(2, 2), [], 2) == fmat_identity(GF(2, 2), 2)
