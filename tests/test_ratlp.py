"""Tests of the exact LP in `ratlp`.

The solver pivots on integer rows; the Fraction tableau it replaced is
kept below as a test-only oracle, instrumented to log its pivots, and
the two must agree on status, value, point and the pivot sequence.
"""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from chtoucakit import pavings, ratlp
from chtoucakit.errors import InternalError
from chtoucakit.ratlp import INFEASIBLE, OPTIMAL, UNBOUNDED, LPResult, max_slack, solve_lp
from test_pavings import oracle_exact_covers


def test_bounded_max():
    res = solve_lp([1, 1], [[1, 0], [0, 1]], [2, 3], maximize=True)
    assert res.status == OPTIMAL
    assert res.value == 5


def test_equality_constraints():
    res = solve_lp([1, 0], None, None, [[1, 1], [1, -1]], [4, 0], maximize=True)
    assert res.status == OPTIMAL
    assert res.x == [Fraction(2), Fraction(2)]


def test_infeasible():
    res = solve_lp([1], [[1], [-1]], [1, -3])
    assert res.status == INFEASIBLE


def test_unbounded():
    res = solve_lp([1], [[-1]], [0], maximize=True)
    assert res.status == UNBOUNDED


def test_free_variables_negative_solution():
    # min x st x >= -7 hits the negative orthant
    res = solve_lp([1], [[-1]], [7])
    assert res.status == OPTIMAL
    assert res.value == -7


def test_max_slack_strict_feasible():
    d, x = max_slack([[1, 0], [0, 1], [-1, -1]], [0, 0, -4])
    assert d > 0
    assert x[0] > 0 and x[1] > 0 and x[0] + x[1] < 4


def test_max_slack_tight_system():
    # x >= 0 and -x >= 0 forces x = 0: no strict solution
    d, _ = max_slack([[1], [-1]], [0, 0])
    assert d == 0


def test_max_slack_no_rows_hits_cap():
    d, _ = max_slack([], [])
    assert d == 1


def test_random_against_vertex_enumeration():
    """2-variable LPs checked against brute-force vertex enumeration."""
    rng = random.Random(42)
    for _ in range(60):
        m = rng.randint(2, 5)
        rows = [[Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4))] for _ in range(m)]
        rhs = [Fraction(rng.randint(-6, 6)) for _ in range(m)]
        # keep feasible region bounded by a box
        rows += [[1, 0], [-1, 0], [0, 1], [0, -1]]
        rhs += [10, 10, 10, 10]
        c = [Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3))]
        res = solve_lp(c, rows, rhs, maximize=True)
        # brute force: all intersection points of constraint pairs
        best = None
        k = len(rows)
        for i in range(k):
            for j in range(i + 1, k):
                det = rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0]
                if det == 0:
                    continue
                x = (rhs[i] * rows[j][1] - rows[i][1] * rhs[j]) / det
                y = (rows[i][0] * rhs[j] - rhs[i] * rows[j][0]) / det
                if all(rows[t][0] * x + rows[t][1] * y <= rhs[t] for t in range(k)):
                    val = c[0] * x + c[1] * y
                    if best is None or val > best:
                        best = val
        if best is None:
            assert res.status == INFEASIBLE
        else:
            assert res.status == OPTIMAL
            assert res.value == best


# ---------------------------------------------------------------------------
# oracle: the Fraction-tableau simplex the integer rows replaced, logging
# every (row, entering column) pivot in ``pivots``


def oracle_simplex(tableau, basis, ncols, pivots):
    m = len(tableau) - 1
    while True:
        obj = tableau[-1]
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter == -1:
            return OPTIMAL
        leave = -1
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave == -1:
            return UNBOUNDED
        pivots.append((leave, enter))
        piv = tableau[leave][enter]
        inv = 1 / piv
        tableau[leave] = [v * inv for v in tableau[leave]]
        prow = tableau[leave]
        for i in range(m + 1):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [v - f * p for v, p in zip(tableau[i], prow)]
        basis[leave] = enter


def oracle_solve_lp(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, maximize=False, pivots=None):
    if pivots is None:
        pivots = []
    c = [Fraction(v) for v in c]
    n = len(c)
    if maximize:
        c = [-v for v in c]
    rows = []
    rhs = []
    nslack = len(a_ub) if a_ub else 0
    if a_ub:
        for k, row in enumerate(a_ub):
            rows.append([Fraction(v) for v in row])
            rhs.append(Fraction(b_ub[k]))
    if a_eq:
        for k, row in enumerate(a_eq):
            rows.append([Fraction(v) for v in row])
            rhs.append(Fraction(b_eq[k]))
    m = len(rows)
    ncols = 2 * n + nslack + m
    tableau = []
    for i in range(m):
        row = [Fraction(0)] * (ncols + 1)
        sign = 1 if rhs[i] >= 0 else -1
        for j in range(n):
            row[j] = sign * rows[i][j]
            row[n + j] = -sign * rows[i][j]
        if i < nslack:
            row[2 * n + i] = Fraction(sign)
        row[2 * n + nslack + i] = Fraction(1)
        row[-1] = sign * rhs[i]
        tableau.append(row)
    basis = [2 * n + nslack + i for i in range(m)]
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(2 * n + nslack, ncols):
        obj[j] = Fraction(1)
    tableau.append(obj)
    for i in range(m):
        tableau[-1] = [v - w for v, w in zip(tableau[-1], tableau[i])]
    status = oracle_simplex(tableau, basis, ncols, pivots)
    assert status == OPTIMAL
    if -tableau[-1][-1] != 0:
        return LPResult(INFEASIBLE)
    for i in range(m):
        if basis[i] >= 2 * n + nslack:
            pivot_col = -1
            for j in range(2 * n + nslack):
                if tableau[i][j] != 0:
                    pivot_col = j
                    break
            if pivot_col == -1:
                continue
            pivots.append((i, pivot_col))
            piv = tableau[i][pivot_col]
            inv = 1 / piv
            tableau[i] = [v * inv for v in tableau[i]]
            for k in range(len(tableau)):
                if k != i and tableau[k][pivot_col] != 0:
                    f = tableau[k][pivot_col]
                    tableau[k] = [v - f * p for v, p in zip(tableau[k], tableau[i])]
            basis[i] = pivot_col
    tableau.pop()
    obj = [Fraction(0)] * (ncols + 1)
    for j in range(n):
        obj[j] = c[j]
        obj[n + j] = -c[j]
    tableau.append(obj)
    for i in range(m):
        bj = basis[i]
        if tableau[-1][bj] != 0:
            f = tableau[-1][bj]
            tableau[-1] = [v - f * p for v, p in zip(tableau[-1], tableau[i])]
    status = oracle_simplex(tableau, basis, 2 * n + nslack, pivots)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] += tableau[i][-1]
        elif basis[i] < 2 * n:
            x[basis[i] - n] -= tableau[i][-1]
    value = -tableau[-1][-1]
    if maximize:
        value = -value
    return LPResult(OPTIMAL, value, x)


def solve_logged(*args, **kwargs):
    """ratlp.solve_lp and the (row, entering column) of each pivot it made."""
    with mock.patch.object(ratlp, "_pivot", wraps=ratlp._pivot) as pivot:
        res = solve_lp(*args, **kwargs)
    return res, [call.args[2:] for call in pivot.call_args_list]


# ---------------------------------------------------------------------------
# differential tests against the oracle

COEF = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)
NONZERO = COEF.map(lambda v: v or 1)


def _dot(row, x):
    return sum((Fraction(a) * b for a, b in zip(row, x)), Fraction(0))


@st.composite
def lps(draw):
    """(kind, c, a_ub, b_ub, a_eq, b_eq, maximize).  For kind "optimal",
    "infeasible" or "unbounded" the LP is built to have that status; for
    "free" every entry is random."""
    kind = draw(st.sampled_from(["free", "optimal", "infeasible", "unbounded"]))
    system = draw(st.sampled_from(["ineq", "eq", "mixed"]))
    n = draw(st.integers(1, 4 if kind == "unbounded" else 5))
    n_ub = 0 if system == "eq" else draw(st.integers(1, 4))
    n_eq = 0 if system == "ineq" else draw(st.integers(1, 3))
    row = st.lists(COEF, min_size=n, max_size=n)
    a_ub = draw(st.lists(row, min_size=n_ub, max_size=n_ub))
    a_eq = draw(st.lists(row, min_size=n_eq, max_size=n_eq))
    if a_eq and draw(st.booleans()):
        # a duplicated (rescaled) equality row leaves a redundant row
        k = draw(st.integers(0, len(a_eq) - 1))
        s = draw(NONZERO)
        a_eq.append([s * v for v in a_eq[k]])
    if kind == "free":
        b_ub = draw(st.lists(COEF, min_size=len(a_ub), max_size=len(a_ub)))
        b_eq = draw(st.lists(COEF, min_size=len(a_eq), max_size=len(a_eq)))
    else:
        x0 = draw(st.lists(COEF, min_size=n, max_size=n))
        b_ub = [_dot(r, x0) + abs(draw(COEF)) for r in a_ub]
        b_eq = [_dot(r, x0) for r in a_eq]
    c = draw(st.lists(COEF, min_size=n, max_size=n))
    if kind == "optimal":
        if a_ub:
            # a box around the feasible point x0 bounds the region
            for j in range(n):
                unit = [int(i == j) for i in range(n)]
                a_ub += [unit, [-v for v in unit]]
                width = abs(draw(COEF))
                b_ub += [x0[j] + width, width - x0[j]]
        else:
            # c in the row space of the equalities: constant on the region
            y = draw(st.lists(COEF, min_size=len(a_eq), max_size=len(a_eq)))
            c = [sum((Fraction(yk) * r[j] for yk, r in zip(y, a_eq)), Fraction(0)) for j in range(n)]
    elif kind == "infeasible":
        k = draw(st.integers(0, n_ub + n_eq - 1))
        r, b = (a_ub[k], b_ub[k]) if k < n_ub else (a_eq[k - n_ub], b_eq[k - n_ub])
        if system == "eq":
            a_eq.append(list(r))
            b_eq.append(b + 1)
        else:
            # r.x <= b and r.x >= b + 1
            a_ub += [list(r), [-v for v in r]]
            b_ub += [b, -b - 1]
    elif kind == "unbounded":
        # a free variable in no constraint, with a nonzero cost
        for r in a_ub + a_eq:
            r.append(0)
        c.append(draw(NONZERO))
    maximize = draw(st.booleans())
    return kind, c, a_ub or None, b_ub or None, a_eq or None, b_eq or None, maximize


@settings(max_examples=300, deadline=None)
@given(lp=lps())
def test_integer_rows_match_fraction_oracle(lp):
    kind, c, a_ub, b_ub, a_eq, b_eq, maximize = lp
    res, pivots = solve_logged(c, a_ub, b_ub, a_eq, b_eq, maximize=maximize)
    expected_pivots = []
    expected = oracle_solve_lp(c, a_ub, b_ub, a_eq, b_eq, maximize, expected_pivots)
    event(res.status)
    if kind != "free":
        assert res.status == kind
    assert (res.status, res.value, res.x) == (expected.status, expected.value, expected.x)
    assert pivots == expected_pivots
    if res.status == OPTIMAL:
        assert all(isinstance(v, Fraction) for v in res.x)
        assert all(_dot(r, res.x) <= b for r, b in zip(a_ub or [], b_ub or []))
        assert all(_dot(r, res.x) == b for r, b in zip(a_eq or [], b_eq or []))
        assert _dot(c, res.x) == res.value


def _admissibility_cases():
    """Every exact cover that the exhaustive enumeration oracle sends to
    the admissibility LP for (2,2), (3,1) and (4,1), plus the trivial and
    finest (3,2) pavings."""
    cases = []
    for r, n in ((2, 2), (3, 1), (4, 1)):
        cases += oracle_exact_covers(r, n)
    cases.append(pavings.trivial_paving(3, 2))
    cases.append(pavings.paving_from_point_sets(3, 2, pavings.unit_cells(3, 2)))
    return cases


def test_admissibility_lp_matches_fraction_oracle():
    cases = _admissibility_cases()
    assert len(cases) > 10
    for paving in cases:
        delta, sol = pavings._admissibility_lp(paving)
        with mock.patch.object(ratlp, "solve_lp", oracle_solve_lp):
            expected_delta, expected_sol = pavings._admissibility_lp(paving)
        assert (delta, sol) == (expected_delta, expected_sol)


# ---------------------------------------------------------------------------
# checks that do not depend on assert


def test_row_length_mismatch_raises():
    with pytest.raises(ValueError, match="row length"):
        solve_lp([1, 1], [[1]], [1])
    with pytest.raises(ValueError, match="row length"):
        solve_lp([1], None, None, [[1, 2]], [0])


def test_row_length_checked_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "from chtoucakit.ratlp import solve_lp\n"
        "try:\n"
        "    solve_lp([1, 1], [[1]], [1])\n"
        "except Exception as e:\n"
        "    print(type(e).__name__)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "ValueError"


def test_max_slack_non_optimal_is_internal_error():
    with mock.patch.object(ratlp, "solve_lp", return_value=LPResult(UNBOUNDED)):
        with pytest.raises(InternalError):
            max_slack([[1]], [0])
