"""Exact slack LP via two-phase primal simplex.

`max_slack` maximizes the common slack d of a homogeneous system of
strict inequalities, which is what the admissibility test downstream
relies on: the system is solvable exactly when d > 0.  The variables
are free rationals; the LP is put in standard form (x = x+ - x-, slack
variables, phase-1 artificials) and pivoted with Bland's rule, so it
terminates on every input and needs no tolerance knobs.

The tableau holds each row as a list of Python ints over one positive
int denominator, divided by the gcd of its entries and denominator after
every row operation (integer rows in the sense of Edmonds, J. Res. NBS
71B, 1967, and Azulay & Pique, ACM TOMS 27, 2001).  Every comparison is
made exactly on the numerators, so the pivots are the same Bland pivots
that a Fraction tableau takes; ``Fraction`` appears only in the returned
point and value.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InternalError


def _eliminate(rows, dens, t, r, e, support) -> None:
    """rows[t] -= rows[t][e] * rows[r], where row r has a unit pivot in
    column e and is nonzero only on the columns in ``support``."""
    row = rows[t]
    f = row[e]
    prow = rows[r]
    p = dens[r]
    d = dens[t]
    # (row*p - f*prow) / (d*p), with p and f divided by their gcd first
    g = gcd(f, p)
    if g != 1:
        f //= g
        p //= g
    if p != 1:
        row = [v * p for v in row]
        d *= p
    for j in support:
        row[j] -= f * prow[j]
    g = gcd(*row, d)
    if g != 1:
        row = [v // g for v in row]
        d //= g
    rows[t] = row
    dens[t] = d


def _pivot(rows, dens, r: int, e: int) -> None:
    """Scale row r to a unit pivot in column e, then clear column e from
    every other row, the objective row (the last one) included."""
    prow = rows[r]
    p = prow[e]
    if p < 0:
        prow = [-v for v in prow]
        p = -p
    g = gcd(*prow)
    if g != 1:
        prow = [v // g for v in prow]
        p //= g
    rows[r] = prow
    dens[r] = p
    support = [j for j, v in enumerate(prow) if v]
    for i in range(len(rows)):
        if i != r and rows[i][e]:
            _eliminate(rows, dens, i, r, e, support)


def _simplex(rows, dens, basis: list[int], ncols: int) -> bool:
    """Run primal simplex on a tableau in canonical form; True at an
    optimum, False if the objective is unbounded below.

    rows[i] = numerators of a row of length ncols+1 (last entry = rhs)
    over dens[i] > 0; rows[-1] = objective row (minimization, last entry
    = -objective value).  Bland's rule: entering = smallest-index column
    with negative reduced cost, leaving = smallest-index basic variable
    among the minimum ratios.
    """
    m = len(rows) - 1
    while True:
        obj = rows[-1]
        enter = -1
        for j in range(ncols):
            if obj[j] < 0:
                enter = j
                break
        if enter == -1:
            return True
        leave = -1
        best_b = best_a = 0
        for i in range(m):
            row = rows[i]
            a = row[enter]
            if a > 0:
                # b/a against best_b/best_a, both denominators positive
                b = row[-1]
                if leave == -1:
                    leave, best_b, best_a = i, b, a
                else:
                    lhs = b * best_a
                    rhs = best_b * a
                    if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                        leave, best_b, best_a = i, b, a
        if leave == -1:
            return False
        _pivot(rows, dens, leave, enter)
        basis[leave] = enter


def _price_out(rows, dens, basis: list[int]) -> None:
    """Clear the basic columns from the objective row (the last one)."""
    obj = len(rows) - 1
    for i, bj in enumerate(basis):
        if rows[obj][bj]:
            _eliminate(rows, dens, obj, i, bj, [j for j, v in enumerate(rows[i]) if v])


SLACK_CAP = 1  # keeps the slack of `max_slack` bounded


def max_slack(rows, eq_rows, nvars: int) -> tuple[Fraction, list[Fraction]]:
    """Maximize d <= SLACK_CAP subject to rows.x >= d and eq_rows.x = 0,
    over integer rows of length ``nvars``.

    Returns (d*, x*) where x* achieves the optimum; the system of strict
    inequalities rows.x > 0 is solvable on eq_rows.x = 0 iff d* > 0.
    With no rows at all the answer is (SLACK_CAP, trivial point).
    """
    # variables x (nvars) then d, each split as x+ - x-; the inequalities
    # are -row.x + d <= 0 and d <= SLACK_CAP, each with its slack column
    n = nvars + 1
    ineqs = [[-v for v in row] + [1] for row in rows]
    ineqs.append([0] * nvars + [1])
    constraints = [*ineqs, *([*row, 0] for row in eq_rows)]
    nslack = len(ineqs)
    m = len(constraints)

    # standard-form columns: x+ (n), x- (n), slacks (nslack), artificials (m);
    # every right-hand side is 0 but SLACK_CAP, so no row changes sign
    nreal = 2 * n + nslack
    ncols = nreal + m
    tableau: list[list[int]] = []
    for i, a in enumerate(constraints):
        row = [*a, *(-v for v in a)] + [0] * (ncols - 2 * n + 1)
        if i < nslack:
            row[2 * n + i] = 1
        row[nreal + i] = 1
        tableau.append(row)
    tableau[nslack - 1][-1] = SLACK_CAP
    dens = [1] * m
    basis = [nreal + i for i in range(m)]

    # phase 1: minimize sum of artificials; x = 0, d = 0 is feasible
    tableau.append([0] * nreal + [1] * m + [0])
    dens.append(1)
    _price_out(tableau, dens, basis)
    if not _simplex(tableau, dens, basis, ncols) or tableau[-1][-1] != 0:
        raise InternalError("phase 1 of the slack LP did not reach its feasible point x = 0, d = 0")

    # drive leftover artificials out of the basis (degenerate rows)
    for i in range(m):
        if basis[i] >= nreal:
            row = tableau[i]
            pivot_col = next((j for j in range(nreal) if row[j]), -1)
            if pivot_col == -1:
                continue  # redundant constraint row
            _pivot(tableau, dens, i, pivot_col)
            basis[i] = pivot_col

    # phase 2: minimize -d over x+, x-; artificials never re-enter
    obj = [0] * (ncols + 1)
    obj[nvars] = -1
    obj[n + nvars] = 1
    tableau[-1] = obj
    dens[-1] = 1
    _price_out(tableau, dens, basis)
    if not _simplex(tableau, dens, basis, nreal):
        raise InternalError(f"the slack LP ended unbounded; d <= {SLACK_CAP} bounds it")
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] += Fraction(tableau[i][-1], dens[i])
        elif basis[i] < 2 * n:
            x[basis[i] - n] -= Fraction(tableau[i][-1], dens[i])
    return Fraction(tableau[-1][-1], dens[-1]), x[:nvars]
