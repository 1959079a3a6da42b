"""Exact rational linear programming via two-phase primal simplex.

Variables are free rationals; the solver converts to standard form
internally (x = x+ - x-, slack variables, phase-1 artificials) and
pivots with Bland's rule, so it terminates on every input and needs no
tolerance knobs.  Feasibility answers are exact booleans, which is what
the admissibility test downstream relies on.

The tableau holds each row as a list of Python ints over one positive
int denominator, divided by the gcd of its entries and denominator after
every row operation (integer rows in the sense of Edmonds, J. Res. NBS
71B, 1967, and Azulay & Pique, ACM TOMS 27, 2001).  Every comparison is
made exactly on the numerators, so the pivots are the same Bland pivots
that a Fraction tableau takes; ``Fraction`` appears only in the inputs
and in the returned point and value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import InternalError

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: str
    value: Fraction | None = None
    x: list[Fraction] | None = None


def _rational(v):
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _int_row(values) -> tuple[list[int], int]:
    """Integer numerators over the least common denominator of ``values``."""
    qs = [_rational(v) for v in values]
    den = 1
    # pairwise: lcm(*generator) raised the peak RSS of `pavings enum
    # --r 3 --n 2` by about 0.7 MiB (CPython 3.11)
    for q in qs:
        den = lcm(den, q.denominator)
    return [q.numerator * (den // q.denominator) for q in qs], den


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


def _simplex(rows, dens, basis: list[int], ncols: int) -> str:
    """Run primal simplex on a tableau in canonical form.

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
            return OPTIMAL
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
            return UNBOUNDED
        _pivot(rows, dens, leave, enter)
        basis[leave] = enter


def _price_out(rows, dens, basis: list[int]) -> None:
    """Clear the basic columns from the objective row (the last one)."""
    obj = len(rows) - 1
    for i, bj in enumerate(basis):
        if rows[obj][bj]:
            _eliminate(rows, dens, obj, i, bj, [j for j, v in enumerate(rows[i]) if v])


def solve_lp(
    c,
    a_ub=None,
    b_ub=None,
    a_eq=None,
    b_eq=None,
    maximize: bool = False,
) -> LPResult:
    """Optimize c.x subject to a_ub.x <= b_ub and a_eq.x = b_eq, x free.

    Returns an LPResult whose ``x`` is an optimal point when status is
    "optimal".  For "unbounded" no point is returned.
    """
    n = len(c)
    constraints = []
    for a, b in ((a_ub, b_ub), (a_eq, b_eq)):
        for k, row in enumerate(a or ()):
            if len(row) != n:
                raise ValueError(f"row length {len(row)} does not match {n} variables")
            constraints.append(_int_row([*row, b[k]]))
    nslack = len(a_ub) if a_ub else 0
    m = len(constraints)

    # standard-form columns: x+ (n), x- (n), slacks (nslack), artificials (m)
    nreal = 2 * n + nslack
    ncols = nreal + m
    rows: list[list[int]] = []
    dens: list[int] = []
    for i, (nums, den) in enumerate(constraints):
        sign = 1 if nums[-1] >= 0 else -1
        row = [0] * (ncols + 1)
        for j in range(n):
            row[j] = sign * nums[j]
            row[n + j] = -sign * nums[j]
        if i < nslack:
            row[2 * n + i] = sign * den
        row[nreal + i] = den
        row[-1] = sign * nums[-1]
        rows.append(row)
        dens.append(den)
    basis = [nreal + i for i in range(m)]

    # phase 1: minimize sum of artificials
    obj = [0] * (ncols + 1)
    for j in range(nreal, ncols):
        obj[j] = 1
    rows.append(obj)
    dens.append(1)
    _price_out(rows, dens, basis)
    status = _simplex(rows, dens, basis, ncols)
    if status != OPTIMAL:
        raise InternalError(f"phase 1 ended {status}; its objective is bounded below by 0")
    if rows[-1][-1] != 0:
        return LPResult(INFEASIBLE)

    # drive leftover artificials out of the basis (degenerate rows)
    for i in range(m):
        if basis[i] >= nreal:
            row = rows[i]
            pivot_col = next((j for j in range(nreal) if row[j]), -1)
            if pivot_col == -1:
                continue  # redundant constraint row
            _pivot(rows, dens, i, pivot_col)
            basis[i] = pivot_col

    # phase 2: original objective over x+, x-; artificials never re-enter
    cnums, cden = _int_row(c)
    if maximize:
        cnums = [-v for v in cnums]
    obj = [0] * (ncols + 1)
    for j in range(n):
        obj[j] = cnums[j]
        obj[n + j] = -cnums[j]
    rows[-1] = obj
    dens[-1] = cden
    _price_out(rows, dens, basis)
    status = _simplex(rows, dens, basis, nreal)
    if status == UNBOUNDED:
        return LPResult(UNBOUNDED)
    x = [Fraction(0)] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] += Fraction(rows[i][-1], dens[i])
        elif basis[i] < 2 * n:
            x[basis[i] - n] -= Fraction(rows[i][-1], dens[i])
    value = Fraction(-rows[-1][-1], dens[-1])
    if maximize:
        value = -value
    return LPResult(OPTIMAL, value, x)


SLACK_CAP = 1  # keeps the slack of `max_slack` bounded


def max_slack(
    strict_rows,
    strict_rhs,
    a_eq=None,
    b_eq=None,
    nvars: int | None = None,
) -> tuple[Fraction, list[Fraction] | None]:
    """Maximize d subject to strict_rows.x >= strict_rhs + d (and
    equalities), capping d <= SLACK_CAP so the LP stays bounded.

    Returns (d*, x*) where x* achieves the optimum; the system of strict
    inequalities strict_rows.x > strict_rhs is solvable iff d* > 0.
    With no strict rows at all the answer is (SLACK_CAP, trivial point).
    """
    if nvars is None:
        nvars = max((len(r) for r in [*strict_rows, *(a_eq or ())]), default=0)
    # variables: x (nvars) then d
    a_ub = []
    b_ub = []
    for row, b in zip(strict_rows, strict_rhs):
        r = [-_rational(v) for v in row] + [0] * (nvars - len(row))
        r.append(1)  # -row.x + d <= -b
        a_ub.append(r)
        b_ub.append(-_rational(b))
    a_ub.append([0] * nvars + [1])
    b_ub.append(SLACK_CAP)
    eqs = None
    if a_eq:
        eqs = [list(row) + [0] * (nvars - len(row) + 1) for row in a_eq]
    obj = [0] * nvars + [1]
    res = solve_lp(obj, a_ub, b_ub, eqs, b_eq, maximize=True)
    if res.status == INFEASIBLE:
        return Fraction(-1), None
    if res.status != OPTIMAL:
        raise InternalError(f"capped slack LP ended {res.status}")
    return res.value, res.x[:nvars]
