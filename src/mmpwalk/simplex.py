"""Exact two-phase simplex over the rationals with Bland's rule.

Solves ``min c.x  s.t.  A x = b, x >= 0`` in standard form.  Bland's rule
(smallest eligible index, smallest-index tie break in the ratio test)
makes the method cycling-free, and all pivots are Fraction-exact.  A solve
returns an optimal basic solution together with its final basis and the
basis inverse, read off the artificial columns of the tableau, so a caller
can reuse the basis for another right-hand side and certify it there.
"""

from fractions import Fraction
from typing import NamedTuple

from .errors import BudgetExceeded

INFEASIBLE = object()
UNBOUNDED = object()

DEFAULT_PIVOT_CAP = 100_000


class Basis(NamedTuple):
    """Final basis of an optimal solve.

    ``rows`` are the constraint rows kept after redundant ones are dropped
    (ascending), ``cols`` the basic columns, one per kept row, and
    ``inverse`` is B^-1 for ``B = A[rows][:, cols]``: the basic solution for
    a right-hand side ``b`` is ``x[cols[i]] = inverse[i] . b[rows]``.
    """

    rows: tuple
    cols: tuple
    inverse: tuple


def _pivot(tableau, basis, row, col):
    # zero entries are skipped: the tableau is sparse, and a Fraction
    # operation costs far more than the test
    pv = tableau[row][col]
    pivot_row = [v / pv if v else v for v in tableau[row]]
    tableau[row] = pivot_row
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            f = r[col]
            tableau[i] = [a - f * b if b else a for a, b in zip(r, pivot_row)]
    basis[row] = col


def _run(tableau, basis, costs, allowed, cap):
    """Bland iterations until optimal; returns remaining pivot budget."""
    m = len(tableau)
    while True:
        duals = [(i, costs[basis[i]]) for i in range(m) if costs[basis[i]]]
        entering = None
        for j in allowed:
            if j in basis:
                continue
            reduced = costs[j] - sum(d * tableau[i][j] for i, d in duals)
            if reduced < 0:
                entering = j
                break
        if entering is None:
            return cap
        leaving = None
        best = None
        for i in range(m):
            coeff = tableau[i][entering]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving is None:
            return UNBOUNDED
        if cap <= 0:
            raise BudgetExceeded("simplex pivot budget exhausted")
        cap -= 1
        _pivot(tableau, basis, leaving, entering)


def solve_min(A, b, c, pivot_cap=DEFAULT_PIVOT_CAP):
    """Minimize ``c.x`` over ``{A x = b, x >= 0}``.

    Returns ``(value, x, basis)`` with a basic optimal solution ``x`` and its
    ``Basis``, ``INFEASIBLE``, or ``UNBOUNDED``.  Raises BudgetExceeded when
    the pivot cap runs out.
    """
    m = len(A)
    n = len(c)
    rows = []
    rhs = []
    signs = []
    for i in range(m):
        row = [Fraction(x) for x in A[i]]
        bi = Fraction(b[i])
        signs.append(-1 if bi < 0 else 1)
        if bi < 0:
            row = [-x for x in row]
            bi = -bi
        rows.append(row)
        rhs.append(bi)
    # phase 1: artificials form the starting basis
    tableau = []
    for i in range(m):
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tableau.append(rows[i] + art + [rhs[i]])
    basis = [n + i for i in range(m)]
    costs1 = [Fraction(0)] * n + [Fraction(1)] * m
    cap = _run(tableau, basis, costs1, range(n + m), pivot_cap)
    if cap is UNBOUNDED:  # cannot happen: phase-1 objective is bounded below
        raise AssertionError("phase 1 unbounded")
    objective = sum(costs1[basis[i]] * tableau[i][-1] for i in range(m))
    if objective > 0:
        return INFEASIBLE
    # drive remaining artificials out of the basis; drop redundant rows
    keep = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        col = next((j for j in range(n) if tableau[i][j] != 0), None)
        if col is None:
            continue  # redundant constraint row
        _pivot(tableau, basis, i, col)
        keep.append(i)
    # a row whose artificial stays basic is redundant; the other rows'
    # artificial columns hold B^-1, and pivots keep them up to date
    redundant = {basis[i] - n for i in range(m) if basis[i] >= n}
    kept_rows = [k for k in range(m) if k not in redundant]
    tableau = [tableau[i][:n] + [tableau[i][n + k] for k in kept_rows] + [tableau[i][-1]]
               for i in keep]
    basis = [basis[i] for i in keep]
    costs2 = [Fraction(x) for x in c]
    cap = _run(tableau, basis, costs2, range(n), cap)
    if cap is UNBOUNDED:
        return UNBOUNDED
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        x[bv] = tableau[i][-1]
    value = sum(costs2[j] * x[j] for j in range(n))
    inverse = tuple(
        tuple(row[n + j] * signs[k] for j, k in enumerate(kept_rows)) for row in tableau
    )
    return value, tuple(x), Basis(tuple(kept_rows), tuple(basis), inverse)
