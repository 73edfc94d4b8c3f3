"""Exact two-phase simplex over the rationals with Bland's rule.

Solves ``min c.x  s.t.  A x = b, x >= 0`` in standard form.  Bland's rule
(smallest eligible index, smallest-index tie break in the ratio test)
makes the method cycling-free.  The tableau is fraction-free: each row, the
cost row included, is a primitive integer vector and a positive multiple
of its exact row, and each pivot is ``linalg._eliminate``.  Signs and
cross-multiplied ratios do not depend on a row's scale, so the pivots are
the exact ones.  A solve returns only its optimal basis: the basis
inverse, read off the artificial columns, and the dual ``c_B B^-1``, each
as integers over one denominator, and the tight columns, those whose
entry in the final cost row, a positive multiple of the reduced costs, is
0.  By complementary slackness they are the columns an optimal solution
may use.  The caller reads the basic solution and the value off the
basis, and can reuse it for another right-hand side and certify it there.
Every number a solve builds is an ``int``.
"""

from math import gcd, lcm
from typing import NamedTuple

from .errors import BudgetExceeded
from .linalg import _eliminate, clear_denominators, primitive, vneg

INFEASIBLE = object()
UNBOUNDED = object()

DEFAULT_PIVOT_CAP = 100_000


class Basis(NamedTuple):
    """Final basis of an optimal solve, in integers.

    ``rows`` are the constraint rows kept after redundant ones are dropped
    (ascending) and ``cols`` the basic columns, one per kept row.  B^-1 for
    ``B = A[rows][:, cols]`` is ``inverse_num / inverse_den``: the basic
    solution for a right-hand side ``b`` is ``x[cols[i]] = inverse_num[i] .
    b[rows] / inverse_den``.  The dual ``y = c_B B^-1``, zero on the dropped
    rows, is ``dual_num / dual_den``, one entry per constraint row.  Each
    denominator is the least common one, so the fields are unique.
    ``tight`` holds the columns j, ascending, whose reduced cost ``c_j - y .
    A_j`` is 0: every basic column and any other column tight at the dual.
    """

    rows: tuple
    cols: tuple
    inverse_num: tuple
    inverse_den: int
    dual_num: tuple
    dual_den: int
    tight: tuple


def _pivot(tableau, basis, row, col):
    # negating a pivot row with a negative entry keeps every row, the cost
    # row last among them, a positive multiple of its exact row
    pivot_row = tableau[row]
    if pivot_row[col] < 0:
        pivot_row = tableau[row] = vneg(pivot_row)
    for i, r in enumerate(tableau):
        if i != row and r[col]:
            tableau[i] = _eliminate(r, pivot_row, pivot_row[col], r[col])
    basis[row] = col


def _run(tableau, basis, allowed, cap):
    """Bland iterations until optimal; returns remaining pivot budget."""
    while True:
        cost = tableau[-1]
        entering = next((j for j in allowed if cost[j] < 0), None)
        if entering is None:
            return cap
        leaving = None
        for i in range(len(basis)):
            row = tableau[i]
            if row[entering] > 0:
                if leaving is not None:
                    # row[-1] / row[entering] against the best ratio so far
                    best = tableau[leaving]
                    lhs, rhs = row[-1] * best[entering], best[-1] * row[entering]
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[leaving]):
                        continue
                leaving = i
        if leaving is None:
            return UNBOUNDED
        if cap <= 0:
            raise BudgetExceeded("simplex pivot budget exhausted")
        cap -= 1
        _pivot(tableau, basis, leaving, entering)


def _cost_row(costs, tableau, basis):
    """A positive multiple of the reduced costs, the negated objective last:
    each basic column is cleared with its row, whose basic entry is > 0."""
    row = costs
    for i, col in enumerate(basis):
        row = _eliminate(row, tableau[i], tableau[i][col], row[col])
    return row


def solve_min(A, b, c):
    """Minimize ``c.x`` over ``{A x = b, x >= 0}``.

    Entries are ``int``s or exact rationals; a float raises TypeError.
    Returns the ``Basis`` of a basic optimal solution, ``INFEASIBLE``, or
    ``UNBOUNDED``.  The solution is ``B^-1 b`` on the basic columns and zero
    elsewhere, and the value is ``dual . b``.  Raises BudgetExceeded when
    the Bland iterations of the two phases together need more than
    ``DEFAULT_PIVOT_CAP`` pivots.
    """
    m = len(A)
    n = len(c)
    signs = [-1 if bi < 0 else 1 for bi in b]
    # phase 1: artificials form the starting basis, rows with b < 0 negated
    tableau = [
        primitive([s * v for v in A[i]] + [int(i == k) for k in range(m)] + [s * b[i]])
        for i, s in enumerate(signs)
    ]
    basis = [n + i for i in range(m)]
    tableau.append(_cost_row([0] * n + [1] * m + [0], tableau, basis))
    cap = _run(tableau, basis, range(n + m), DEFAULT_PIVOT_CAP)
    if cap is UNBOUNDED:  # cannot happen: phase-1 objective is bounded below
        raise AssertionError("phase 1 unbounded")
    if tableau.pop()[-1] < 0:  # the negated phase-1 objective
        return INFEASIBLE
    # drive remaining artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] >= n:
            col = next((j for j in range(n) if tableau[i][j] != 0), None)
            if col is None:
                continue  # redundant constraint row
            _pivot(tableau, basis, i, col)
        keep.append(i)
    # a row whose artificial stays basic is redundant; the other rows'
    # artificial columns hold B^-1, and pivots keep them up to date
    redundant = {basis[i] - n for i in range(m) if basis[i] >= n}
    kept_rows = [k for k in range(m) if k not in redundant]
    cols = [*range(n), *(n + k for k in kept_rows), -1]
    tableau = [primitive([tableau[i][j] for j in cols]) for i in keep]
    basis = [basis[i] for i in keep]
    costs, cost_den = clear_denominators(c)
    tableau.append(_cost_row(list(costs) + [0] * (len(kept_rows) + 1), tableau, basis))
    cap = _run(tableau, basis, range(n), cap)
    if cap is UNBOUNDED:
        return UNBOUNDED
    # row i is row[bv] times its exact row, whose artificial entries are
    # B^-1 with the column of each negated row negated back
    den = lcm(*(row[bv] for row, bv in zip(tableau, basis)))
    inverse = [
        [row[n + j] * signs[k] * (den // row[bv]) for j, k in enumerate(kept_rows)]
        for row, bv in zip(tableau, basis)
    ]
    inverse_num, inverse_den = _lowest_terms(inverse, den)
    dual = [0] * m
    for j, k in enumerate(kept_rows):
        dual[k] = sum(costs[col] * row[j] for col, row in zip(basis, inverse_num))
    (dual_num,), dual_den = _lowest_terms([dual], inverse_den * cost_den)
    reduced = tableau[-1]
    tight = tuple([j for j in range(n) if not reduced[j]])
    return Basis(tuple(kept_rows), tuple(basis), inverse_num, inverse_den, dual_num, dual_den,
                 tight)


def _lowest_terms(rows, den):
    """``rows / den`` as integer rows over the least common denominator."""
    g = gcd(den, *(v for row in rows for v in row))
    return tuple(tuple(v // g for v in row) for row in rows), den // g
