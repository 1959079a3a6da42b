"""Tests of the exact slack LP in `ratlp`.

The solver pivots on integer rows; the general Fraction-tableau LP it
replaced is kept below as a test-only oracle, instrumented to log its
pivots, and `max_slack` must agree with it on value, point and the pivot
sequence.
"""

import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from chtoucakit import pavings, ratlp
from chtoucakit.errors import InternalError
from chtoucakit.ratlp import SLACK_CAP, max_slack
from test_pavings import oracle_exact_covers


def _dot(row, x):
    return sum((Fraction(a) * b for a, b in zip(row, x)), Fraction(0))


def test_bounded_max():
    # the slack of a strictly solvable system grows with x; the cap bounds it
    d, x = max_slack([[1, 0], [0, 1], [1, 1]], [], nvars=2)
    assert d == SLACK_CAP
    assert all(_dot(r, x) >= d for r in ([1, 0], [0, 1], [1, 1]))


def test_equality_constraints():
    d, x = max_slack([[1, 0]], [[1, -1]], nvars=2)
    assert d == SLACK_CAP
    assert x[0] == x[1] >= 1


def test_free_variables_negative_solution():
    # -x >= d puts the optimum in the negative orthant
    d, x = max_slack([[-1]], [], nvars=1)
    assert (d, x) == (1, [Fraction(-1)])


def test_max_slack_strict_feasible():
    # x > 0, y > 0 and x + y < 4t, homogeneous in (x, y, t)
    rows = [[1, 0, 0], [0, 1, 0], [-1, -1, 4]]
    d, x = max_slack(rows, [], nvars=3)
    assert d > 0
    assert x[0] > 0 and x[1] > 0 and x[0] + x[1] < 4 * x[2]


def test_max_slack_tight_system():
    # x >= 0 and -x >= 0 forces x = 0: no strict solution
    d, _ = max_slack([[1], [-1]], [], nvars=1)
    assert d == 0


def test_max_slack_no_rows_hits_cap():
    assert max_slack([], [], nvars=0) == (1, [])
    assert max_slack([], [[1, 2]], nvars=2) == (1, [0, 0])


# ---------------------------------------------------------------------------
# oracle: the general Fraction-tableau LP the integer rows replaced, logging
# every (row, entering column) pivot in ``pivots``

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    value: Fraction | None = None
    x: list[Fraction] | None = None


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


def oracle_max_slack(rows, eq_rows, nvars, pivots=None):
    """max_slack as the general LP it was built on: maximize d subject to
    -row.x + d <= 0, d <= SLACK_CAP and eq_row.x = 0 over (x, d)."""
    a_ub = [[-v for v in row] + [1] for row in rows] + [[0] * nvars + [1]]
    b_ub = [0] * len(rows) + [SLACK_CAP]
    a_eq = [[*row, 0] for row in eq_rows] or None
    b_eq = [0] * len(eq_rows) or None
    res = oracle_solve_lp([0] * nvars + [1], a_ub, b_ub, a_eq, b_eq, True, pivots)
    assert res.status == OPTIMAL
    return res.value, res.x[:nvars]


def max_slack_logged(rows, eq_rows, nvars):
    """ratlp.max_slack and the (row, entering column) of each pivot it made."""
    with mock.patch.object(ratlp, "_pivot", wraps=ratlp._pivot) as pivot:
        res = max_slack(rows, eq_rows, nvars=nvars)
    return res, [call.args[2:] for call in pivot.call_args_list]


# ---------------------------------------------------------------------------
# differential tests against the oracle


@st.composite
def slack_systems(draw):
    """(rows, eq_rows, nvars) over small integers.  A "solvable" system
    is built positive on a point x0 that its equalities vanish on; a
    duplicated (rescaled) equality row leaves a redundant row."""
    nvars = draw(st.integers(0, 5))
    row = st.lists(st.integers(-4, 4), min_size=nvars, max_size=nvars)
    rows = draw(st.lists(row, max_size=5))
    eq_rows = draw(st.lists(row, max_size=3))
    if nvars and draw(st.booleans()):
        x0 = draw(row.filter(any))
        norm = sum(v * v for v in x0)
        eq_rows = [[norm * e - int(_dot(eq, x0)) * v for e, v in zip(eq, x0)] for eq in eq_rows]
        rows = [[-v for v in r] if _dot(r, x0) < 0 else r for r in rows if _dot(r, x0)]
    if eq_rows and draw(st.booleans()):
        k = draw(st.integers(0, len(eq_rows) - 1))
        s = draw(st.integers(-3, 3).filter(bool))
        eq_rows.append([s * v for v in eq_rows[k]])
    return rows, eq_rows, nvars


@settings(max_examples=300, deadline=None)
@given(system=slack_systems())
def test_integer_rows_match_fraction_oracle(system):
    rows, eq_rows, nvars = system
    (d, x), pivots = max_slack_logged(rows, eq_rows, nvars)
    expected_pivots = []
    assert (d, x) == oracle_max_slack(rows, eq_rows, nvars, expected_pivots)
    assert pivots == expected_pivots
    event("strictly solvable" if d > 0 else "not strictly solvable")
    assert isinstance(d, Fraction) and 0 <= d <= SLACK_CAP
    assert all(isinstance(v, Fraction) for v in x)
    assert all(_dot(r, x) >= d for r in rows)
    assert all(_dot(e, x) == 0 for e in eq_rows)


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
        with mock.patch.object(pavings, "max_slack", side_effect=max_slack) as lp:
            answer = pavings._admissibility_lp(paving)
        (rows, eq_rows), kwargs = lp.call_args
        result, pivots = max_slack_logged(rows, eq_rows, kwargs["nvars"])
        expected_pivots = []
        expected = oracle_max_slack(rows, eq_rows, kwargs["nvars"], expected_pivots)
        assert answer == result == expected
        assert pivots == expected_pivots


# ---------------------------------------------------------------------------
# outcomes the slack LP cannot reach are InternalErrors, with or without
# assert; each case patches `_simplex`, which every LP runs

REAL_SIMPLEX = ratlp._simplex


def _phase_1_unbounded(rows, dens, basis, ncols):
    return False


def _phase_1_stops_at_once(rows, dens, basis, ncols):
    # the artificials still carry d <= SLACK_CAP's right-hand side
    return True


def _phase_2_unbounded(rows, dens, basis, ncols):
    # phase 1 prices every column, phase 2 only the real ones
    return ncols == len(rows[-1]) - 1 and REAL_SIMPLEX(rows, dens, basis, ncols)


IMPOSSIBLE = (_phase_1_unbounded, _phase_1_stops_at_once, _phase_2_unbounded)


def test_max_slack_non_optimal_is_internal_error():
    for simplex in IMPOSSIBLE:
        with mock.patch.object(ratlp, "_simplex", simplex):
            with pytest.raises(InternalError):
                max_slack([[1]], [], nvars=1)


def test_impossible_outcomes_raise_under_python_O():
    src = str(Path(__file__).resolve().parents[1] / "src")
    tests = str(Path(__file__).resolve().parent)
    path = [src, tests, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (
        "from chtoucakit import ratlp\n"
        "from chtoucakit.errors import InternalError\n"
        "import test_ratlp as t\n"
        "for simplex in t.IMPOSSIBLE:\n"
        "    ratlp._simplex = simplex\n"
        "    try:\n"
        "        ratlp.max_slack([[1]], [], nvars=1)\n"
        "    except InternalError:\n"
        "        print('InternalError')\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["InternalError"] * 3
