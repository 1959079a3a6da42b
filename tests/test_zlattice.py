import random
from fractions import Fraction

from chtoucakit import qlinalg
from chtoucakit.fields import QQ
from chtoucakit.zlattice import (
    clear_denominators,
    hnf,
    int_kernel,
    int_rank,
    primitive,
    primitive_ray,
    snf_diagonal,
    vec_gcd,
)


def test_primitive_vs_ray():
    assert primitive((-2, 4)) == (1, -2)
    assert primitive_ray((-2, 4)) == (-1, 2)
    assert primitive((0, 0)) == (0, 0)


def test_clear_denominators():
    assert clear_denominators([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)


def test_hnf_shape():
    h = hnf([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    # pivots positive, echelon, above-pivot entries reduced
    assert all(any(x != 0 for x in row) for row in h)
    prev = -1
    for row in h:
        piv = next(i for i, x in enumerate(row) if x != 0)
        assert piv > prev and row[piv] > 0
        prev = piv


def test_hnf_preserves_lattice_membership():
    rng = random.Random(0)
    for _ in range(30):
        rows = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        h = hnf([list(r) for r in rows])
        # every original row reduces to zero against the HNF basis
        for row in rows:
            v = list(row)
            for b in h:
                piv = next(i for i, x in enumerate(b) if x != 0)
                if v[piv] % b[piv] == 0:
                    q = v[piv] // b[piv]
                    v = [a - q * c for a, c in zip(v, b)]
            assert all(x == 0 for x in v), (rows, h)


def test_snf_known_values():
    assert snf_diagonal([[2, 0], [0, 2]]) == [2, 2]
    assert snf_diagonal([[2, 4], [6, 8]]) == [2, 4]
    assert snf_diagonal([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == [1, 3]


def test_snf_random_invariants():
    rng = random.Random(1)
    for _ in range(120):
        nr, nc = rng.randint(1, 4), rng.randint(1, 4)
        m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        divs = snf_diagonal([list(r) for r in m])
        rank = qlinalg.rank(QQ, [[Fraction(x) for x in row] for row in m])
        assert len(divs) == rank
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0
        if divs:
            g = 0
            for row in m:
                for x in row:
                    g = vec_gcd([g, x])
            assert divs[0] == g  # first divisor is the entry gcd


def test_int_kernel_saturated():
    k = int_kernel([[1, 1, 1]], 3)
    assert len(k) == 2
    # (1, -1, 0) and (0, 1, -1) span; membership check
    for v in [(1, -1, 0), (0, 1, -1), (5, -2, -3)]:
        reduced = list(v)
        for b in k:
            piv = next(i for i, x in enumerate(b) if x != 0)
            q = reduced[piv] // b[piv]
            reduced = [a - q * c for a, c in zip(reduced, b)]
        assert all(x == 0 for x in reduced)


def test_int_rank():
    assert int_rank([[1, 2], [2, 4]]) == 1
    assert int_rank([[1, 0], [0, 1]]) == 2
