import random
from fractions import Fraction
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from chtoucakit.fields import QQ
from chtoucakit.zlattice import (
    hnf,
    int_kernel,
    int_rank,
    primitive,
    primitive_ray,
    vec_gcd,
)
from test_qlinalg import GENERIC_QQ, kernel, rank


def test_primitive_vs_ray():
    assert primitive((-2, 4)) == (1, -2)
    assert primitive_ray((-2, 4)) == (-1, 2)
    assert primitive((0, 0)) == (0, 0)


# the gcd loops that the variadic math.gcd replaced, kept here as oracles


def oracle_vec_gcd(v) -> int:
    g = 0
    for a in v:
        g = gcd(g, abs(int(a)))
    return g


def oracle_primitive_ray(v) -> tuple[int, ...]:
    g = oracle_vec_gcd(v)
    if g == 0:
        return tuple(int(a) for a in v)
    return tuple(int(a) // g for a in v)


def oracle_primitive(v) -> tuple[int, ...]:
    w = oracle_primitive_ray(v)
    for a in w:
        if a != 0:
            if a < 0:
                w = tuple(-x for x in w)
            break
    return w


def assert_gcd_helpers_match_loops(v):
    assert vec_gcd(v) == oracle_vec_gcd(v)
    assert primitive_ray(v) == oracle_primitive_ray(v)
    assert primitive(v) == oracle_primitive(v)
    # integral Fractions come back as ints, as the loops made them
    assert type(vec_gcd(v)) is int
    assert all(type(a) is int for a in primitive_ray(v) + primitive(v))


def test_gcd_helpers_on_edge_cases():
    for v in ([], (), [0], (0, 0, 0), [-6], (-4, 6, -10), [Fraction(-4), Fraction(6)],
              [Fraction(0), Fraction(0)], (2**70, -(2**71)), [1, -1], [-3, 0, 0]):
        assert_gcd_helpers_match_loops(v)
    assert vec_gcd([]) == 0 and primitive_ray([]) == primitive([]) == ()
    assert primitive_ray([Fraction(-4), Fraction(6), 0]) == (-2, 3, 0)
    assert primitive([Fraction(-4), Fraction(6), 0]) == (2, -3, 0)


integral = st.one_of(
    st.integers(-30, 30),
    st.integers(-(2**80), 2**80),
    st.integers(-30, 30).map(Fraction),
)


@settings(max_examples=400, deadline=None)
@given(st.lists(integral, max_size=6), st.sampled_from((1, 2, 6, -4, 0)))
def test_gcd_helpers_match_loops(v, scale):
    # scaling by a common factor makes gcds above 1, and by 0 the zero vector
    assert_gcd_helpers_match_loops(v)
    assert_gcd_helpers_match_loops([a * scale for a in v])


def clear_denominators(row) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector (same sign),
    for the rational oracles below."""
    fracs = [Fraction(x) for x in row]
    lcm = 1
    for f in fracs:
        d = f.denominator
        lcm = lcm * d // gcd(lcm, d)
    ints = [int(f * lcm) for f in fracs]
    g = vec_gcd(ints)
    if g > 1:
        ints = [a // g for a in ints]
    return tuple(ints)


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


# the Smith normal form, which the saturation test of
# `fans.torus_sequence_check` replaced, kept here as the test oracle


def snf_diagonal(rows: list[list[int]], ncols: int | None = None) -> list[int]:
    """Diagonal entries (elementary divisors) of the Smith normal form.

    Minimum-pivot strategy: bring the entry of smallest absolute value
    to the corner; while it fails to divide some entry in its row or
    column, one division step strictly shrinks the minimum, so the
    reduction terminates; then eliminate exactly and recurse."""
    m = [list(map(int, r)) for r in rows]
    if not m:
        return []
    if ncols is None:
        ncols = len(m[0])
    nrows = len(m)
    divisors = []
    top = 0
    while top < min(nrows, ncols):
        # locate the minimal-magnitude nonzero entry of the submatrix
        piv = None
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                v = abs(m[i][j])
                if v and (best is None or v < best):
                    best = v
                    piv = (i, j)
        if piv is None:
            break
        i, j = piv
        m[top], m[i] = m[i], m[top]
        if j != top:
            for row in m:
                row[top], row[j] = row[j], row[top]
        p = m[top][top]
        # a nonexact division anywhere in the pivot row/column produces
        # a strictly smaller nonzero remainder; restart on it
        dirty = False
        for i in range(top + 1, nrows):
            if m[i][top] % p != 0:
                q = m[i][top] // p
                m[i] = [a - q * b for a, b in zip(m[i], m[top])]
                dirty = True
                break
        if not dirty:
            for j in range(top + 1, ncols):
                if m[top][j] % p != 0:
                    q = m[top][j] // p
                    for row in m:
                        row[j] -= q * row[top]
                    dirty = True
                    break
        if dirty:
            continue
        # exact elimination of the pivot row and column
        for i in range(top + 1, nrows):
            if m[i][top]:
                q = m[i][top] // p
                m[i] = [a - q * b for a, b in zip(m[i], m[top])]
        for j in range(top + 1, ncols):
            if m[top][j]:
                q = m[top][j] // p
                for row in m:
                    row[j] -= q * row[top]
        # enforce divisibility of the remaining block
        d = abs(p)
        offender = None
        for i in range(top + 1, nrows):
            for j in range(top + 1, ncols):
                if m[i][j] % d != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            m[top] = [a + b for a, b in zip(m[top], m[offender])]
            continue
        divisors.append(d)
        top += 1
    return divisors


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
        assert len(divs) == rank(QQ, [[Fraction(x) for x in row] for row in m])
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


# ---------------------------------------------------------------------------
# the fraction-free kernel and rank against the rational computations they
# replaced, kept here as test-only oracles


def oracle_int_kernel(rows, ncols):
    """HNF of the cleared-denominator rational kernel: spans the right
    space but can be a sublattice of finite index in the kernel."""
    ker = kernel(QQ, [[Fraction(a) for a in r] for r in rows], ncols)
    return [tuple(r) for r in hnf([list(clear_denominators(v)) for v in ker])]


def in_lattice(v, basis):
    """Is v an integer combination of an HNF basis?"""
    v = list(v)
    for b in basis:
        piv = next(i for i, x in enumerate(b) if x != 0)
        if v[piv] % b[piv]:
            return False
        q = v[piv] // b[piv]
        v = [a - q * c for a, c in zip(v, b)]
    return not any(v)


matrices = st.integers(1, 5).flatmap(
    lambda ncols: st.tuples(
        st.lists(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols), max_size=5),
        st.just(ncols),
    )
)


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_int_kernel_is_saturated_kernel(case):
    rows, ncols = case
    k = int_kernel(rows, ncols)
    assert all(sum(a * x for a, x in zip(r, v)) == 0 for r in rows for v in k)
    assert len(k) == ncols - int_rank(rows)
    if k:
        assert snf_diagonal([list(v) for v in k], ncols) == [1] * len(k)
        assert [list(v) for v in k] == hnf([list(v) for v in k])
    old = oracle_int_kernel(rows, ncols)
    assert all(in_lattice(v, k) for v in old)
    if not old or snf_diagonal([list(v) for v in old], ncols) == [1] * len(old):
        assert k == old


@settings(max_examples=300, deadline=None)
@given(matrices)
def test_int_rank_matches_rational_rank(case):
    # the rank over Q runs int_rank's own pass, so the oracle is the
    # field-generic loop run on Q
    rows, _ = case
    assert int_rank(rows) == rank(GENERIC_QQ, [[Fraction(a) for a in r] for r in rows])


def test_int_kernel_of_unsaturated_denominators():
    # clearing the denominators of the rational kernel gives (1,0,-2),
    # (0,2,-2), of index 2; the kernel lattice also holds (0,1,-1)
    assert oracle_int_kernel([[2, 1, 1]], 3) == [(1, 0, -2), (0, 2, -2)]
    assert int_kernel([[2, 1, 1]], 3) == [(1, 0, -2), (0, 1, -1)]
    assert int_kernel([], 2) == [(1, 0), (0, 1)]
