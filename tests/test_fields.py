import random
from itertools import product

import pytest

from chtoucakit.fields import (
    GF,
    QQ,
    default_modulus,
    fmat_identity,
    fmat_mul,
)
from chtoucakit.jsonio import field_from_json
from chtoucakit.qlinalg import (
    det as fmat_det,
    inverse as fmat_inverse,
    kernel as fmat_kernel,
    solve as fmat_solve,
)


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 2), (5, 1), (7, 2), (2, 4), (3, 3)])
def test_field_axioms_sampled(p, k):
    field = GF(p, k)
    rng = random.Random(p * 100 + k)
    elements = list(field.elements())
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
    fixed = [x for x in field.elements() if field.frobenius(x, 2) == x]
    assert len(fixed) == 2  # the prime field


def test_index_round_trip():
    field = GF(3, 2)
    for idx in range(field.order):
        assert field.to_index(field.from_index(idx)) == idx


@pytest.mark.parametrize("field", [QQ, GF(5, 1), GF(2, 2)])
def test_matrix_inverse_round_trip(field):
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = None
        while m is None:
            cand = [
                [
                    field.coerce(rng.randint(0, 6)) if field is not QQ else field.coerce(rng.randint(-6, 6))
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
    rows = [[field.coerce(1), field.coerce(2), field.coerce(3)]]
    k = fmat_kernel(field, rows, 3)
    assert len(k) == 2
    for v in k:
        s = field.zero()
        for c, x in zip(rows[0], v):
            s = field.add(s, field.mul(c, x))
        assert field.is_zero(s)


def test_solve_consistency():
    field = GF(7, 1)
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(1, 3)
        a = [[field.coerce(rng.randint(0, 6)) for _ in range(n)] for _ in range(n)]
        x = [field.coerce(rng.randint(0, 6)) for _ in range(n)]

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
        a = [[field.coerce(rng.randint(0, 4)) for _ in range(3)] for _ in range(3)]
        b = [[field.coerce(rng.randint(0, 4)) for _ in range(3)] for _ in range(3)]
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
    for a in field.elements():
        if not field.is_zero(a):
            assert field.mul(a, field.inv(a)) == field.one()
