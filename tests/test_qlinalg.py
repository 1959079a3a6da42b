"""Property tests of the elimination routines in `qlinalg`.

The field-generic loop replaced a Fraction-only Gauss-Jordan elimination
and a field-generic copy of it; both are kept below as test-only oracles
and every routine must match them entry for entry.  Over Q the routines,
`fmat_mul` and `compounds` run on integer matrices instead; that path
must match the field-generic loops run on Q (`GENERIC_QQ`) entry for
entry, and do no Fraction arithmetic at all.
"""

import random
from collections import Counter
from contextlib import ExitStack, contextmanager
from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chtoucakit import qlinalg
from chtoucakit.complete_homs import compounds
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


# ---------------------------------------------------------------------------
# Q as integers: the integer path against the field-generic loops on Q

# QQ's arithmetic under a type that is not a RationalField, so every
# routine given it runs its field-generic loop: the oracle of the integer path
GENERIC_QQ = SimpleNamespace(**{
    name: getattr(QQ, name)
    for name in ("name", "zero", "one", "add", "sub", "mul", "neg", "inv", "eq", "is_zero")
})

BIG = 2**64


def q_entries():
    """Zero-heavy rationals: ints and Fractions, small ones and ones whose
    numerator and denominator pass 2^64."""
    return st.one_of(
        st.sampled_from([0, Fraction(0)]),
        st.integers(-4, 4),
        st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
        st.builds(Fraction, st.integers(-BIG**2, BIG**2), st.integers(BIG + 1, BIG**2)),
    )


@st.composite
def q_matrices(draw, nrows=None, ncols=None):
    """Rows that are fresh, zero, or combinations of two earlier rows, so
    that rank deficiency is common."""
    nrows = draw(st.integers(0, 5)) if nrows is None else nrows
    ncols = draw(st.integers(1, 5)) if ncols is None else ncols
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["fresh", "zero", "combination"]))
        if kind == "zero":
            rows.append([draw(st.sampled_from([0, Fraction(0)])) for _ in range(ncols)])
        elif kind == "combination" and rows:
            x, y = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(q_entries()), draw(q_entries())
            rows.append([a * u + b * v for u, v in zip(x, y)])
        else:
            rows.append([draw(q_entries()) for _ in range(ncols)])
    return rows


def all_fractions(value):
    """Whether every scalar in a nest of lists and tuples is a Fraction."""
    if isinstance(value, (list, tuple)):
        return all(map(all_fractions, value))
    return type(value) is Fraction


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rational_path_matches_generic_loop(data):
    a = data.draw(q_matrices())
    ncols = len(a[0]) if a else data.draw(st.integers(1, 4))
    red = qlinalg.rref(QQ, a)
    assert red == qlinalg.rref(GENERIC_QQ, a) and all_fractions(red[0])
    assert qlinalg.rank(QQ, a) == qlinalg.rank(GENERIC_QQ, a)
    for routine in (qlinalg.row_basis, lambda f, m: qlinalg.kernel(f, m, ncols)):
        out = routine(QQ, a)
        assert out == routine(GENERIC_QQ, a) and all_fractions(out)
    b = data.draw(q_matrices(nrows=ncols))
    out = fmat_mul(QQ, a, b)
    assert out == fmat_mul(GENERIC_QQ, a, b) and all_fractions(out)
    n = data.draw(st.integers(0, 5))
    sq = data.draw(q_matrices(nrows=n, ncols=n)) if n else []
    d = qlinalg.det(QQ, sq)
    assert d == qlinalg.det(GENERIC_QQ, sq) and type(d) is Fraction
    inv = qlinalg.inverse(QQ, sq)
    oracle = qlinalg.inverse(GENERIC_QQ, sq)
    assert (inv is None) == (oracle is None) and inv == oracle
    assert inv is None or all_fractions(inv)
    table = compounds(QQ, sq, n)
    assert table == compounds(GENERIC_QQ, sq, n) and all_fractions(table)


def as_fractions(m):
    return [[Fraction(x) for x in row] for row in m]


def test_int_entries_give_exact_fractions():
    assert QQ.inv(3) == Fraction(1, 3) and type(QQ.inv(3)) is Fraction
    assert QQ.inv(Fraction(-2, 3)) == Fraction(-3, 2)
    d = qlinalg.det(QQ, [[2, 1], [1, 3]])
    assert d == 5 and type(d) is Fraction
    inv = qlinalg.inverse(QQ, [[2, 0], [0, 3]])
    assert inv == [[Fraction(1, 2), 0], [0, Fraction(1, 3)]] and all_fractions(inv)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_int_and_mixed_entries_match_their_fraction_copies(data):
    ints = st.integers(-4, 4)
    entries = data.draw(st.sampled_from([ints, st.one_of(ints, q_entries())]))
    n = data.draw(st.integers(1, 4))
    a = [[data.draw(entries) for _ in range(n)] for _ in range(n)]
    f = as_fractions(a)
    routines = (
        lambda field, m: qlinalg.rref(field, m)[0],
        qlinalg.row_basis, qlinalg.det, qlinalg.inverse,
        lambda field, m: qlinalg.kernel(field, m, n),
        lambda field, m: fmat_mul(field, m, m),
        lambda field, m: compounds(field, m, n),
    )
    for routine in routines:
        out = routine(QQ, a)
        assert out == routine(QQ, f) and (out is None or all_fractions(out))
    assert qlinalg.rank(QQ, a) == qlinalg.rank(QQ, f)
    assert qlinalg.rref(QQ, a)[1] == qlinalg.rref(QQ, f)[1]


# Fraction's arithmetic operators; constructing a Fraction is not among them
FRACTION_ARITHMETIC = (
    "__mul__", "__rmul__", "__add__", "__radd__",
    "__sub__", "__rsub__", "__truediv__", "__rtruediv__",
)


@contextmanager
def counting_fraction_arithmetic():
    counts = Counter()

    def counted(name):
        real = getattr(Fraction, name)

        def call(self, other):
            counts[name] += 1
            return real(self, other)

        return call

    with ExitStack() as stack:
        for name in FRACTION_ARITHMETIC:
            stack.enter_context(mock.patch.object(Fraction, name, counted(name)))
        yield counts


def run_rational_routines(field, a):
    compounds(field, a, len(a))
    fmat_mul(field, a, a)
    qlinalg.rref(field, a)
    qlinalg.rank(field, a)
    qlinalg.row_basis(field, a)
    qlinalg.kernel(field, a, len(a[0]))
    qlinalg.inverse(field, a)
    qlinalg.det(field, a)


def test_rational_routines_do_no_fraction_arithmetic():
    rng = random.Random(5)
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(5)] for _ in range(5)]
    singular = a[:4] + [[x + y for x, y in zip(a[0], a[1])]]
    with counting_fraction_arithmetic() as counts:
        run_rational_routines(QQ, a)
        run_rational_routines(QQ, singular)
    assert counts == Counter()
    # the counters do see the generic loops' arithmetic
    with counting_fraction_arithmetic() as counts:
        run_rational_routines(GENERIC_QQ, a)
    assert set(counts) >= {"__mul__", "__sub__", "__add__"}
