import ast
import random
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chtoucakit import fields, qlinalg
from chtoucakit.complete_homs import scaled_compounds
from chtoucakit.errors import TooLarge
from chtoucakit.fields import (
    FIELD_ORDER_CAP,
    GF,
    QQ,
    _poly_mul_mod,
    default_modulus,
    fmat_identity,
    fmat_mul,
)
from chtoucakit.jsonio import field_from_json
from test_qlinalg import (
    GENERIC_QQ,
    compounds,
    det as fmat_det,
    inverse as fmat_inverse,
    kernel as fmat_kernel,
    oracle_fmat_rref,
    oracle_q_det,
    q_matrices,
    row_basis,
    rref,
)
from test_simplex_core import oracle_solve as fmat_solve


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 2), (5, 1), (7, 2), (2, 4), (3, 3)])
def test_field_axioms_sampled(p, k):
    field = GF(p, k)
    rng = random.Random(p * 100 + k)
    elements = range(field.order)
    assert len(elements) == p**k
    for _ in range(60):
        a, b, c = (rng.choice(elements) for _ in range(3))
        assert field.add(a, b) == field.add(b, a)
        assert field.mul(a, b) == field.mul(b, a)
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        if not field.is_zero(a):
            assert field.mul(a, field.inv(a)) == field.one()


def test_modulus_is_irreducible_f4():
    assert default_modulus(2, 2) == (1, 1, 1)  # t^2 + t + 1


def test_frobenius_fixed_field():
    field = GF(2, 2)
    fixed = [x for x in range(field.order) if field.frobenius(x, 2) == x]
    assert len(fixed) == 2  # the prime field


def element(field, x):
    """The integer x as an element: a Fraction, or an index reduced mod q."""
    return Fraction(x) if field is QQ else x % field.order


@pytest.mark.parametrize("field", [QQ, GF(5, 1), GF(2, 2)])
def test_matrix_inverse_round_trip(field):
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = None
        while m is None:
            cand = [
                [
                    element(field, rng.randint(0, 6)) if field is not QQ else element(field, rng.randint(-6, 6))
                    for _ in range(n)
                ]
                for _ in range(n)
            ]
            if fmat_inverse(field, cand) is not None:
                m = cand
        inv = fmat_inverse(field, m)
        prod = fmat_mul(field, m, inv)
        assert prod == fmat_identity(field, n)


def test_kernel_dimension():
    field = GF(5, 1)
    rows = [[1, 2, 3]]
    k = fmat_kernel(field, rows, 3)
    assert len(k) == 2
    for v in k:
        s = field.zero()
        for c, x in zip(rows[0], v):
            s = field.add(s, field.mul(c, x))
        assert field.is_zero(s)


def test_solve_consistency():
    """A consistent system over GF(7) is solved from the reduced
    augmented matrix of the one elimination kernel."""
    field = GF(7, 1)
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 3)
        a = [[rng.randint(0, 6) for _ in range(n)] for _ in range(n)]
        x = [rng.randint(0, 6) for _ in range(n)]

        def apply(vec):
            out = []
            for i in range(n):
                acc = field.zero()
                for j in range(n):
                    acc = field.add(acc, field.mul(a[i][j], vec[j]))
                out.append(acc)
            return out

        b = apply(x)
        sol = fmat_solve(field, a, b)
        assert sol is not None
        assert apply(sol) == b


def test_det_multiplicative():
    field = GF(5, 1)
    rng = random.Random(29)
    for _ in range(20):
        a = [[rng.randint(0, 4) for _ in range(3)] for _ in range(3)]
        b = [[rng.randint(0, 4) for _ in range(3)] for _ in range(3)]
        lhs = fmat_det(field, fmat_mul(field, a, b))
        rhs = field.mul(fmat_det(field, a), fmat_det(field, b))
        assert lhs == rhs


@pytest.mark.parametrize("p,k,modulus", [(2, 2, (1, 0, 1)), (3, 2, (2, 0, 1)), (2, 4, (1, 0, 1, 0, 1))])
def test_reducible_modulus_rejected(p, k, modulus):
    # t^2 + 1 = (t + 1)^2 over F_2, t^2 + 2 = (t + 1)(t + 2) over F_3,
    # t^4 + t^2 + 1 = (t^2 + t + 1)^2 over F_2: quotient rings with zero divisors
    with pytest.raises(ValueError):
        GF(p, k, modulus)
    with pytest.raises(ValueError):
        field_from_json({"GF": [p, k], "modulus_poly": list(modulus)})


def test_irreducible_modulus_accepted():
    field = field_from_json({"GF": [3, 2], "modulus_poly": [2, 2, 1]})  # t^2 + 2t + 2
    assert field.modulus == (2, 2, 1)
    for a in range(field.order):
        if not field.is_zero(a):
            assert field.mul(a, field.inv(a)) == field.one()


# ---------------------------------------------------------------------------
# the table arithmetic against the coefficient-tuple field it replaced


class TupleGF:
    """GF(p^k) on little-endian coefficient tuples: every product is a
    polynomial product modulo the modulus, inverses and powers by
    square-and-multiply (the former `fields.GF`)."""

    def __init__(self, p, k, modulus):
        self.p, self.k, self.modulus, self.order = p, k, modulus, p**k

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
        if a == self.zero():
            raise ZeroDivisionError("inverse of 0")
        return self.pow(a, self.order - 2)

    def pow(self, a, e):
        if a == self.zero():
            return self.zero() if e > 0 else self.one()
        e %= self.order - 1
        result, base = self.one(), a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a, q):
        return self.pow(a, q)

    def from_index(self, idx):
        return tuple(idx // self.p**i % self.p for i in range(self.k))

    def to_index(self, a):
        return sum(c * self.p**i for i, c in enumerate(a))


ORACLE_FIELDS = [
    (2, 1, None), (3, 1, None), (2, 2, None), (5, 1, None), (7, 1, None), (2, 3, None),
    (2, 4, None), (3, 3, None),
    (3, 2, None),  # t^2 + 1: t has order 4, so the first primitive element is 1 + t
    (3, 2, (2, 2, 1)), (2, 3, (1, 1, 0, 1)),  # non-default moduli
]


@pytest.mark.parametrize("p,k,modulus", ORACLE_FIELDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_tables_match_tuple_arithmetic(p, k, modulus, data):
    field = GF(p, k, modulus)
    oracle = TupleGF(p, k, field.modulus)
    index = st.integers(0, field.order - 1)
    a, b = data.draw(index), data.draw(index)
    e = data.draw(st.integers(-2 * field.order, 2 * field.order))
    ta, tb = oracle.from_index(a), oracle.from_index(b)
    assert field.add(a, b) == oracle.to_index(oracle.add(ta, tb))
    assert field.sub(a, b) == oracle.to_index(oracle.sub(ta, tb))
    assert field.neg(a) == oracle.to_index(oracle.neg(ta))
    assert field.mul(a, b) == oracle.to_index(oracle.mul(ta, tb))
    assert field.pow(a, e) == oracle.to_index(oracle.pow(ta, e))
    for j in range(1, k + 1):
        assert field.frobenius(a, p**j) == oracle.to_index(oracle.frobenius(ta, p**j))
    if a:
        assert field.inv(a) == oracle.to_index(oracle.inv(ta))
    else:
        with pytest.raises(ZeroDivisionError):
            field.inv(a)


def test_field_above_cap_builds_no_table():
    with mock.patch.object(fields, "_tables", side_effect=AssertionError("table built")):
        for p, k in ((2, 17), (257, 2), (65537, 1), (3, 10**12)):
            with pytest.raises(TooLarge):
                GF(p, k)
    with mock.patch.object(fields, "_tables", return_value=((), (), ())) as tables:
        GF(2, 16)  # exactly FIELD_ORDER_CAP elements
    assert 2**16 == FIELD_ORDER_CAP and tables.call_count == 1


# ---------------------------------------------------------------------------
# Q scalars: printing and the shared zero and one


@pytest.mark.parametrize("value,text", [
    (0, "0"), (Fraction(0), "0"), (1, "1"), (Fraction(1), "1"),
    (-3, "-3"), (Fraction(-3), "-3"), (Fraction(7, 2), "7/2"), (Fraction(-1, 3), "-1/3"),
])
def test_rational_format_reads_numerator_and_denominator(value, text):
    with mock.patch.object(fields, "Fraction", side_effect=AssertionError("Fraction built")):
        assert QQ.format(value) == text


def test_rational_zero_and_one_are_shared_constants():
    assert QQ.zero() is QQ.zero() and QQ.one() is QQ.one()
    assert (QQ.zero(), QQ.one()) == (0, 1)
    assert type(QQ.zero()) is type(QQ.one()) is Fraction


# ---------------------------------------------------------------------------
# the scaled form (N, d) against the field-generic loops run on Fractions


def canonical(m):
    """The scaled form of a Fraction matrix: N and d with no common factor."""
    return fields.scaled(QQ, m)


def check_scaled_routines(a, b):
    """Every scaled routine on a (and the product a b) gives the generic
    loops' matrix, in canonical scaled form."""
    sa, sb = fields.scaled(QQ, a), fields.scaled(QQ, b)
    ncols = len(a[0]) if a else 2
    assert fields.scaled_mul(QQ, sa, sb) == canonical(fmat_mul(GENERIC_QQ, a, b))
    c = Fraction(-6, 35)
    times = [[GENERIC_QQ.mul(c, x) for x in row] for row in a]
    assert fields.scaled_times(QQ, c, sa) == canonical(times)
    red, pivots = rref(GENERIC_QQ, a)
    assert qlinalg.scaled_rref(QQ, sa[0]) == (canonical(red), pivots)
    assert qlinalg.scaled_rank(QQ, sa[0]) == len(pivots)
    assert qlinalg.scaled_row_basis(QQ, sa[0]) == canonical(row_basis(GENERIC_QQ, a))
    assert qlinalg.scaled_kernel(QQ, sa[0], ncols) == canonical(
        fmat_kernel(GENERIC_QQ, a, ncols))
    if len(a) == ncols or not a:
        inv = fmat_inverse(GENERIC_QQ, a)
        assert qlinalg.scaled_inverse(QQ, *sa) == (None if inv is None else canonical(inv))
        n = len(a)
        table = scaled_compounds(QQ, sa, n)
        assert table == [canonical(level) for level in compounds(GENERIC_QQ, a, n)]
        # the last level is the determinant
        assert not a or fields.unscaled(QQ, table[-1]) == [[oracle_q_det(a)]]
    for m, sm in ((a, sa), (b, sb)):
        assert fields.unscaled(QQ, sm) == [[Fraction(x) for x in row] for row in m]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_scaled_routines_match_fraction_loops(data):
    a = data.draw(q_matrices())
    ncols = len(a[0]) if a else 2
    b = data.draw(q_matrices(nrows=ncols))
    check_scaled_routines(a, b)


@pytest.mark.parametrize("a,b", [
    ([[0, 0], [0, 0]], [[Fraction(1, 2), 0], [0, 3]]),
    ([[Fraction(0)] * 3], [[1, 2], [3, 4], [5, Fraction(-6, 7)]]),
    ([], [[1, 2], [3, 4]]),
], ids=["zero-square", "zero-row", "empty"])
def test_scaled_routines_on_zero_and_empty_matrices(a, b):
    check_scaled_routines(a, b)
    assert fields.scaled(QQ, [[0, Fraction(0)]]) == ([[0, 0]], 1)
    assert fields.scaled(QQ, []) == ([], 1)


def test_scaled_form_over_a_finite_field_is_the_matrix_over_one():
    field = GF(3, 2)
    rng = random.Random(3)
    a = [[rng.randrange(9) for _ in range(3)] for _ in range(3)]
    assert fields.scaled(field, a) == (a, 1) and fields.unscaled(field, (a, 1)) is a
    assert fields.scaled_mul(field, (a, 1), (a, 1)) == (fmat_mul(field, a, a), 1)
    red, pivots = oracle_fmat_rref(field, a)
    assert qlinalg.scaled_row_basis(field, a) == (red[: len(pivots)], 1)


def test_ring_is_zz_over_q_and_the_field_itself_otherwise():
    assert fields.ring(QQ) is fields.ZZ
    assert fields.ring(GF(3, 2)) == GF(3, 2)
    assert fields.ring(GENERIC_QQ) is GENERIC_QQ


# ---------------------------------------------------------------------------
# one body per matrix kernel: the choice between Q and GF(p^k) is made in
# these functions only, and every matrix loop reads it from them
RATIONAL_FIELD_TESTS = {
    "fields.RationalField.__eq__",
    "fields.ring",
    "fields.scaled",
    "fields.unscaled",
    "fields.scaled_times",
    "qlinalg._eliminate",
    "jsonio.field_to_json",
}


def rational_field_tests(tree, module):
    """The qualified names of the functions of a module's AST that call
    isinstance(..., RationalField) or isinstance(..., type(QQ))."""
    found = set()

    def is_test(node):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            return False
        kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else [node.args[1]]
        return any(
            "RationalField" in ast.unparse(kind) or ast.unparse(kind) == "type(QQ)"
            for kind in kinds
        )

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and any(
                    is_test(n) for n in ast.walk(child)
                ):
                    found.add(name)
                visit(child, name)
            else:
                visit(child, prefix)

    visit(tree, module)
    return found


def test_rational_field_is_tested_only_where_the_matrix_path_is_chosen():
    src = Path(fields.__file__).parent
    found = set()
    for path in sorted(src.glob("*.py")):
        found |= rational_field_tests(ast.parse(path.read_text()), path.stem)
    assert found == RATIONAL_FIELD_TESTS
