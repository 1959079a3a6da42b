import random
from fractions import Fraction
from unittest import mock

import pytest

from chtoucakit.errors import InvalidData
from chtoucakit.fields import GF, QQ, fmat_identity, unscaled
from chtoucakit.graph_gluing import (
    GluedGraphFamily,
    _wall_side,
    check_dimension_condition,
    check_gluing_condition,
    family_from_stratum,
    graph_family,
    shared_walls,
)
from chtoucakit import qlinalg, zlattice
from chtoucakit.pavings import (
    _proper_nonempty_subsets,
    enumerate_admissible_pavings,
    paving_from_point_sets,
    trivial_paving,
)
from chtoucakit.acceptance import _rand_stratum_data
from chtoucakit.complete_homs import StratumData

from test_complete_homs import (
    counting_clears_and_fractions,
    field_adapted_bases,
    rand_scalar,
    rand_stratum_data,
)
from test_qlinalg import inverse as fmat_inverse, kernel as fmat_kernel, row_basis


class TestDimensionCondition:
    def test_graph_of_isomorphism_passes(self):
        field = GF(3, 1)
        g0 = fmat_identity(field, 2)
        g1 = [[2, 1], [field.zero(), field.one()]]
        fam = graph_family(field, trivial_paving(2, 1), [g0, g1])
        assert check_dimension_condition(fam).ok

    def test_factor_subspace_fails(self):
        field = GF(3, 1)
        rows = tuple(
            tuple(fmat_identity(field, 2)[i] + [field.zero()] * 2) for i in range(2)
        )
        fam = GluedGraphFamily(field, trivial_paving(2, 1), (rows,))
        rep = check_dimension_condition(fam)
        assert not rep.ok
        assert any(v[1] == (0,) and v[2] == 2 and v[3] == 0 for v in rep.violations)

    def test_rank_validation(self):
        field = GF(3, 1)
        rows = ((field.one(), field.zero(), field.zero(), field.zero()),) * 2
        with pytest.raises(InvalidData):
            GluedGraphFamily(field, trivial_paving(2, 1), (rows,))


class TestSharedWalls:
    def test_trivial_paving_no_walls(self):
        assert shared_walls(trivial_paving(3, 1)) == []

    def test_interval_wall(self):
        paving = paving_from_point_sets(2, 1, [[(2, 0), (1, 1)], [(1, 1), (0, 2)]])
        walls = shared_walls(paving)
        assert walls == [(0, 1, (1,), 1)]

    def test_finest_2_2_wall_count(self):
        from chtoucakit.pavings import enumerate_admissible_pavings

        finest = max(enumerate_admissible_pavings(2, 2), key=lambda p: len(p.paves))
        walls = shared_walls(finest)
        # three interior unit edges (the central triangle's sides)
        assert len(walls) == 3


class TestGluingCondition:
    def test_stratum_families_glue(self):
        rng = random.Random(21)
        for field in (QQ, GF(5, 1)):
            for r in (2, 3):
                for _ in range(5):
                    d = rand_stratum_data(field, rng, r)
                    fam = family_from_stratum(d)
                    assert check_dimension_condition(fam).ok, (field.name, r, d.cuts)
                    assert check_gluing_condition(fam).ok, (field.name, r, d.cuts)

    def test_corrupted_family_fails(self):
        field = GF(5, 1)
        one, zero = field.one(), field.zero()
        d = StratumData(
            field,
            2,
            (1,),
            vfilt=(((one, zero),),),
            wfilt=(((one, zero),),),
            v=(((one,),), ((one,),)),
            scales=(one, one),
            free_lams=(),
        )
        fam = family_from_stratum(d)
        w_bad = list(fam.w)
        w_bad[-1] = tuple(
            tuple(one if i == j else zero for j in range(4)) for i in range(2)
        )
        bad = GluedGraphFamily(field, fam.paving, tuple(w_bad))
        assert not (check_dimension_condition(bad).ok and check_gluing_condition(bad).ok)

    def test_diagonal_change_of_basis_invariance(self):
        """Simultaneous GL(V) change of basis preserves both checks."""
        rng = random.Random(22)
        field = GF(5, 1)
        for _ in range(5):
            d = rand_stratum_data(field, rng, 3)
            fam = family_from_stratum(d)
            g = None
            while g is None or fmat_inverse(field, g) is None:
                g = [[rng.randrange(field.order) for _ in range(3)] for _ in range(3)]
            new_w = []
            for m in fam.w:
                rows = []
                for row in m:
                    out = []
                    for block in range(2):
                        seg = row[3 * block : 3 * block + 3]
                        for j in range(3):
                            acc = field.zero()
                            for t in range(3):
                                acc = field.add(acc, field.mul(seg[t], g[t][j]))
                            out.append(acc)
                    rows.append(tuple(out))
                new_w.append(tuple(rows))
            moved = GluedGraphFamily(field, fam.paving, tuple(new_w))
            assert check_dimension_condition(moved).ok
            assert check_gluing_condition(moved).ok


class TestExhaustiveRankOne:
    @pytest.mark.parametrize("q", [2, 3])
    def test_trivial_paving_characterization(self, q):
        field = GF(q, 1)
        triv = trivial_paving(1, 1)
        passing = []
        for a in range(q):
            for b in range(q):
                if a == b == 0:
                    continue
                fam = GluedGraphFamily(field, triv, (((a, b),),))
                if check_dimension_condition(fam).ok and check_gluing_condition(fam).ok:
                    passing.append((a, b))
                    assert a != 0 and b != 0
        # each line counted (q-1) times by scaling; graphs of GL_1 = q-1 lines
        assert len(passing) == (q - 1) ** 2


# ---------------------------------------------------------------------------
# walls read off `interior_walls` against the hyperplane search they
# replaced, kept here as the test oracle


def oracle_shared_walls(paving):
    """Every pair of pavés and every proper J with min over the first =
    max over the second of sum_J x, kept when the shared points on that
    hyperplane span an (n-1)-dimensional wall."""
    n = paving.n
    walls = []
    for first in range(len(paving.paves)):
        for second in range(first + 1, len(paving.paves)):
            p_first = paving.paves[first]
            p_second = paving.paves[second]
            second_set = set(p_second.points)
            for blocks in _proper_nonempty_subsets(n):
                dmin = min(sum(p[j] for j in blocks) for p in p_first.points)
                dmax = max(sum(p[j] for j in blocks) for p in p_second.points)
                if dmin != dmax:
                    continue
                shared = [
                    p
                    for p in p_first.points
                    if p in second_set and sum(p[j] for j in blocks) == dmin
                ]
                if shared and zlattice.int_rank(shared) == n:
                    walls.append((first, second, blocks, dmin))
    return walls


@pytest.mark.parametrize(
    "r,n", [(2, 1), (3, 1), (4, 1), (5, 1), (6, 1), (11, 1), (2, 2), (3, 2), (2, 0), (3, 0)]
)
def test_shared_walls_match_hyperplane_oracle_on_enumerated_pavings(r, n):
    pavings = enumerate_admissible_pavings(r, n)
    assert pavings
    for paving in pavings:
        assert shared_walls(paving) == oracle_shared_walls(paving)


def test_shared_walls_match_hyperplane_oracle_on_stratum_families():
    rng = random.Random(23)
    for field in (QQ, GF(5, 1)):
        for r in (2, 3, 4, 5):
            for _ in range(6):
                paving = family_from_stratum(rand_stratum_data(field, rng, r)).paving
                assert shared_walls(paving) == oracle_shared_walls(paving)


# ---------------------------------------------------------------------------
# W cap V^J and the projection off V^J from one reduction, the dimension
# count from one rank, and the products through `fmat_mul`, against the
# per-entry loops and the separate dimension count that they replaced


def oracle_dim_intersection(field, w_rows, r, n, blocks):
    """dim(W cap V^J): vectors of W supported on the J-blocks."""
    jset = {j * r + i for j in blocks for i in range(r)}
    other = [c for c in range(r * (n + 1)) if c not in jset]
    if not other:
        return len(w_rows)
    constraint = [[row[c] for row in w_rows] for c in other]
    return len(fmat_kernel(field, constraint, len(w_rows)))


def oracle_intersection_in_coords(field, w_rows, r, n, blocks):
    """W cap V^J in V^J coordinates, each combination summed entry by entry."""
    jcols = [j * r + i for j in blocks for i in range(r)]
    other = [c for c in range(r * (n + 1)) if c not in set(jcols)]
    if other:
        combos = fmat_kernel(field, [[row[c] for row in w_rows] for c in other], len(w_rows))
    else:
        combos = fmat_identity(field, len(w_rows))
    vecs = []
    for c in combos:
        vec = []
        for col in jcols:
            s = field.zero()
            for coeff, row in zip(c, w_rows):
                s = field.add(s, field.mul(coeff, row[col]))
            vec.append(s)
        vecs.append(vec)
    return row_basis(field, vecs)


def oracle_dimension_violations(fam):
    """The violations of the dimension condition with d_J recomputed as a
    minimum over the pavé's points."""
    r, n = fam.paving.r, fam.paving.n
    violations = []
    for idx, pave in enumerate(fam.paving.paves):
        w_rows = [list(row) for row in fam.w[idx]]
        for blocks in _proper_nonempty_subsets(n) + [tuple(range(n + 1)), ()]:
            expected = min(sum(p[j] for j in blocks) for p in pave.points)
            got = oracle_dim_intersection(fam.field, w_rows, r, n, blocks)
            if got != expected:
                violations.append((idx, blocks, got, expected))
    return violations


def oracle_family_w(d):
    """The subspace of each pavé [r_{s-1}, r_s] of `family_from_stratum`,
    keyed by its point set, with each graph row summed entry by entry."""
    field, r = d.field, d.r
    a, b = field_adapted_bases(field, r, d.vfilt, d.wfilt)
    a_cols = [list(col) for col in zip(*a)]
    b_cols = [list(col) for col in zip(*b)]
    bounds = [0] + list(d.cuts) + [r]
    out = {}
    for sigma in range(1, len(bounds)):
        lo, hi = bounds[sigma - 1], bounds[sigma]
        rows = [a_cols[j] + [field.zero()] * r for j in range(hi, r)]
        rows += [[field.zero()] * r + b_cols[j] for j in range(lo)]
        sc, vmat = d.scales[sigma - 1], d.v[sigma - 1]
        for t in range(hi - lo):
            img = [field.zero()] * r
            for tp in range(hi - lo):
                coeff = field.mul(sc, vmat[tp][t])
                for i in range(r):
                    img[i] = field.add(img[i], field.mul(coeff, b_cols[lo + tp][i]))
            rows.append(a_cols[lo + t] + img)
        out[frozenset((r - x, x) for x in range(lo, hi + 1))] = tuple(map(tuple, rows))
    return out


def criterion_12_families():
    """The stratum families of acceptance criterion 12, drawn the same way,
    each also with its last pavé overwritten by the first-factor copy of V
    and with a random pavé given a random rank-r subspace."""
    rng = random.Random(20240 + 12)
    out = []
    for field in (QQ, GF(5, 1), GF(2, 1)):
        for r in (2, 3):
            for _ in range(10):
                d = _rand_stratum_data(field, rng, r)
                fam = family_from_stratum(d)
                first_copy = [row + [field.zero()] * r for row in fmat_identity(field, r)]
                while True:
                    m = [[rand_scalar(field, rng) for _ in range(2 * r)] for _ in range(r)]
                    if len(row_basis(field, m)) == r:
                        break
                bad = []
                for idx, rows in ((-1, first_copy), (rng.randrange(len(fam.w)), m)):
                    w_bad = list(fam.w)
                    w_bad[idx] = tuple(map(tuple, rows))
                    bad.append(GluedGraphFamily(field, fam.paving, tuple(w_bad)))
                out.append((d, fam, bad))
    return out


def test_family_rows_match_per_entry_products():
    for d, fam, _ in criterion_12_families():
        got = {frozenset(p.points): w for p, w in zip(fam.paving.paves, fam.w)}
        assert got == oracle_family_w(d), (d.field.name, d.cuts)


def test_intersections_match_separate_count_and_per_entry_products():
    bad_seen = 0
    for _, fam, bad in criterion_12_families():
        for f in (fam, *bad):
            field, r, n = f.field, f.paving.r, f.paving.n
            violations = check_dimension_condition(f).violations
            assert violations == oracle_dimension_violations(f)
            bad_seen += bool(violations)
            for w, n_rows in zip(f.w, f.numerators):
                w_rows = [list(row) for row in w]
                for blocks in _proper_nonempty_subsets(n) + [tuple(range(n + 1)), ()]:
                    projection, intersection = _wall_side(field, n_rows, r, n, blocks)
                    got = unscaled(field, intersection)
                    assert got == oracle_intersection_in_coords(field, w_rows, r, n, blocks)
                    off = [c for c in range(r * (n + 1)) if c // r not in blocks]
                    assert unscaled(field, projection) == row_basis(
                        field, [[row[c] for c in off] for row in w_rows])
    assert bad_seen > 0


def test_checks_clear_each_pave_once():
    """One Q family (r = 4, cuts (1, 2, 3), 4 pavés) clears each pavé's
    matrix once, for the rank check that builds it; the dimension and
    gluing checks then clear nothing and form no Fraction, however many
    subsets J and wall sides they visit."""
    d = rand_stratum_data(QQ, random.Random(42), 4, (1, 2, 3))
    fam = family_from_stratum(d)
    with counting_clears_and_fractions() as counts:
        GluedGraphFamily(fam.field, fam.paving, fam.w)
    assert counts == {"_clear_denominators": 4}
    with counting_clears_and_fractions() as counts:
        assert check_dimension_condition(fam).ok and check_gluing_condition(fam).ok
    assert counts == {}


@pytest.mark.parametrize("field", [QQ, GF(5, 1)], ids=["Q", "GF5"])
def test_checks_make_one_reduction_per_question(field):
    """r = 4, cuts (1, 2, 3): 4 pavés, 2 proper nonempty subsets J and 3
    walls.  The dimension condition takes one rank (no back substitution)
    per pavé and J: 8, J empty and J all blocks having fixed answers; the
    gluing condition one reduction per wall side: 6."""
    fam = family_from_stratum(rand_stratum_data(field, random.Random(43), 4, (1, 2, 3)))
    real = qlinalg._eliminate
    calls = []

    def spy(field, m, ncols, reduced=False):
        calls.append(reduced)
        return real(field, m, ncols, reduced)

    with mock.patch.object(qlinalg, "_eliminate", spy):
        assert check_dimension_condition(fam).ok
        assert calls == [False] * 8
        calls.clear()
        assert check_gluing_condition(fam).ok
        assert calls == [True] * 6
