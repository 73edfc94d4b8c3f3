"""Exact two-phase simplex."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmpwalk import random_instance, simplex
from mmpwalk.errors import BudgetExceeded
from mmpwalk.simplex import DEFAULT_PIVOT_CAP, INFEASIBLE, UNBOUNDED, solve_min

from corpus import corpus_spec


def F(x):
    return Fraction(x)


def _solution(A, b, c, basis):
    """The value and the basic solution read off a returned ``Basis``:
    ``x[cols[i]] = inverse_num[i] . b[rows] / inverse_den``, zero off the
    basic columns, and the value ``c . x``."""
    x = [Fraction(0)] * len(c)
    for col, row in zip(basis.cols, basis.inverse_num):
        x[col] = sum(Fraction(v) * b[k] for v, k in zip(row, basis.rows)) / basis.inverse_den
    return sum(cj * xj for cj, xj in zip(c, x)), tuple(x)


def _solve(A, b, c, **kwargs):
    """``(value, x, basis)`` for an LP that has an optimum."""
    basis = solve_min(A, b, c, **kwargs)
    return (*_solution(A, b, c, basis), basis)


def test_solve_returns_only_a_basis():
    result = solve_min([[1, 1]], [3], [1, 2])
    assert type(result) is simplex.Basis


def test_equality_lp_basic():
    # min x + 2y  s.t.  x + y = 3, x, y >= 0
    value, x, _ = _solve([[F(1), F(1)]], [F(3)], [F(1), F(2)])
    assert value == 3
    assert x == (F(3), F(0))


def test_degenerate_alternative_optima_value_unique():
    # min x + y  s.t.  x + y = 5: any feasible point is optimal
    value, x, _ = _solve([[F(1), F(1)]], [F(5)], [F(1), F(1)])
    assert value == 5
    assert sum(x) == 5 and all(v >= 0 for v in x)


def test_infeasible():
    # x + y = -1 with x, y >= 0
    assert solve_min([[F(1), F(1)]], [F(-1)], [F(1), F(1)]) is INFEASIBLE


def test_unbounded():
    # min -x  s.t.  x - y = 0: x can grow without bound
    assert solve_min([[F(1), F(-1)]], [F(0)], [F(-1), F(0)]) is UNBOUNDED


def test_fractional_vertex_exact():
    # min y1  s.t.  2a + b = 1, a + 2b = 1 (representing (1,1) over (2,1),(1,2))
    value, x, _ = _solve(
        [[F(2), F(1)], [F(1), F(2)]], [F(1), F(1)], [F(1), F(0)]
    )
    assert value == Fraction(1, 3)
    assert x == (Fraction(1, 3), Fraction(1, 3))


def test_redundant_row_handled():
    # second row is twice the first
    value, x, basis = _solve(
        [[F(1), F(1)], [F(2), F(2)]], [F(4), F(8)], [F(3), F(1)]
    )
    assert value == 4
    assert x == (F(0), F(4))
    assert basis.rows == (0,)


def test_negative_rhs_normalized():
    # -x - y = -3 is the same constraint as x + y = 3
    value, _, _ = _solve([[F(-1), F(-1)]], [F(-3)], [F(2), F(5)])
    assert value == 6


def test_pivot_cap_raises():
    with pytest.raises(BudgetExceeded):
        solve_min([[F(1), F(1)]], [F(3)], [F(1), F(2)], pivot_cap=0)


def test_solve_on_int_data_builds_no_fraction(monkeypatch):
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    lps = [
        ([[1, 1]], [3], [1, 2]),
        ([[1, 1], [2, 2]], [4, 8], [3, 1]),
        ([[-1, -1]], [-3], [2, 5]),
        ([[2, 1], [1, 2]], [1, 1], [1, 0]),
        ([[1, 1, 0], [0, 1, 1]], [2, 1], [3, 2, 6]),
    ]
    for A, b, c in lps:
        assert type(solve_min(A, b, c)) is simplex.Basis
    assert made == []


def test_larger_system_exact_rationals():
    # min a/2 + b/3 + c  s.t.  a + b = 2, b + c = 1
    value, x, _ = _solve(
        [[F(1), F(1), F(0)], [F(0), F(1), F(1)]],
        [F(2), F(1)],
        [Fraction(1, 2), Fraction(1, 3), F(1)],
    )
    # best: b = 1 (cost 1/3), a = 1 (cost 1/2), c = 0
    assert value == Fraction(5, 6)
    assert x == (F(1), F(1), F(0))


@pytest.mark.parametrize(
    "A, b, c",
    [
        ([[F(1), F(1)], [F(2), F(2)]], [F(4), F(8)], [F(3), F(1)]),
        ([[F(-1), F(-1)]], [F(-3)], [F(2), F(5)]),
        ([[F(2), F(1)], [F(1), F(2)]], [F(1), F(1)], [F(1), F(0)]),
        (
            [[F(1), F(1), F(0)], [F(0), F(1), F(1)]],
            [F(2), F(1)],
            [Fraction(1, 2), Fraction(1, 3), F(1)],
        ),
    ],
)
def test_basis_inverse_reproduces_solution(A, b, c):
    basis = solve_min(A, b, c)
    assert len(basis.rows) == len(basis.cols) == len(basis.inverse_num)
    _assert_integer_fields(basis)
    expected_value, expected_x, _ = _reference_solve_min(A, b, c)
    assert _solution(A, b, c, basis) == (expected_value, expected_x)
    assert all(expected_x[j] == 0 for j in range(len(c)) if j not in basis.cols)
    inverse = [[Fraction(v, basis.inverse_den) for v in row] for row in basis.inverse_num]
    # B^-1 B = I for B = A[rows][:, cols]
    product = [
        [sum(v * A[k][col] for v, k in zip(row, basis.rows)) for col in basis.cols]
        for row in inverse
    ]
    size = len(basis.cols)
    assert product == [[int(i == j) for j in range(size)] for i in range(size)]
    # y = c_B B^-1, zero on the dropped rows
    dual = [Fraction(0)] * len(b)
    for j, k in enumerate(basis.rows):
        dual[k] = sum(c[col] * row[j] for col, row in zip(basis.cols, inverse))
    assert [Fraction(v, basis.dual_den) for v in basis.dual_num] == dual


def _assert_integer_fields(basis):
    """Every ``Basis`` field holds ints, each pair over its least common
    denominator."""
    rows, cols, inverse_num, inverse_den, dual_num, dual_den = basis
    flat = [*rows, *cols, *(v for row in inverse_num for v in row), *dual_num]
    assert all(type(v) is int for v in flat + [inverse_den, dual_den])
    assert inverse_den > 0 and dual_den > 0
    assert gcd(inverse_den, *(v for row in inverse_num for v in row)) == 1
    assert gcd(dual_den, *dual_num) == 1


# The Fraction Gauss-Jordan solver that the fraction-free tableau replaced,
# kept as a reference: the integer tableau must take the same pivots and
# return the same results.


def _reference_pivot(tableau, basis, row, col):
    pv = tableau[row][col]
    pivot_row = [v / pv if v else v for v in tableau[row]]
    tableau[row] = pivot_row
    for i, r in enumerate(tableau):
        if i != row and r[col] != 0:
            f = r[col]
            tableau[i] = [a - f * b if b else a for a, b in zip(r, pivot_row)]
    basis[row] = col


def _reference_run(tableau, basis, costs, allowed, cap, pivots):
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
        pivots.append((leaving, entering))
        _reference_pivot(tableau, basis, leaving, entering)


def _reference_solve_min(A, b, c, pivot_cap=DEFAULT_PIVOT_CAP, pivots=None):
    """The replaced solver; appends each pivot (row, column) to ``pivots``.
    Returns ``(value, x, (rows, cols, inverse))`` with B^-1 in ``Fraction``s."""
    pivots = [] if pivots is None else pivots
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
    tableau = []
    for i in range(m):
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        tableau.append(rows[i] + art + [rhs[i]])
    basis = [n + i for i in range(m)]
    costs1 = [Fraction(0)] * n + [Fraction(1)] * m
    cap = _reference_run(tableau, basis, costs1, range(n + m), pivot_cap, pivots)
    objective = sum(costs1[basis[i]] * tableau[i][-1] for i in range(m))
    if objective > 0:
        return INFEASIBLE
    keep = []
    for i in range(m):
        if basis[i] < n:
            keep.append(i)
            continue
        col = next((j for j in range(n) if tableau[i][j] != 0), None)
        if col is None:
            continue
        pivots.append((i, col))
        _reference_pivot(tableau, basis, i, col)
        keep.append(i)
    redundant = {basis[i] - n for i in range(m) if basis[i] >= n}
    kept_rows = [k for k in range(m) if k not in redundant]
    tableau = [tableau[i][:n] + [tableau[i][n + k] for k in kept_rows] + [tableau[i][-1]]
               for i in keep]
    basis = [basis[i] for i in keep]
    costs2 = [Fraction(x) for x in c]
    cap = _reference_run(tableau, basis, costs2, range(n), cap, pivots)
    if cap is UNBOUNDED:
        return UNBOUNDED
    x = [Fraction(0)] * n
    for i, bv in enumerate(basis):
        x[bv] = tableau[i][-1]
    value = sum(costs2[j] * x[j] for j in range(n))
    inverse = tuple(
        tuple(row[n + j] * signs[k] for j, k in enumerate(kept_rows)) for row in tableau
    )
    return value, tuple(x), (tuple(kept_rows), tuple(basis), inverse)


def _solve_checking_ints(A, b, c, pivot_cap=DEFAULT_PIVOT_CAP):
    """``solve_min`` with ``simplex._pivot`` wrapped: every tableau entry
    must be an ``int`` before and after each pivot.  Returns the result, or
    the raised BudgetExceeded, and the pivots (row, column) taken."""
    pivots = []
    original = simplex._pivot

    def pivot(tableau, basis, row, col):
        assert all(type(v) is int for r in tableau for v in r)
        pivots.append((row, col))
        original(tableau, basis, row, col)
        assert all(type(v) is int for r in tableau for v in r)

    simplex._pivot = pivot
    try:
        result = solve_min(A, b, c, pivot_cap)
    except BudgetExceeded as exc:
        result = exc
    finally:
        simplex._pivot = original
    return result, pivots


def _assert_matches_reference(A, b, c, pivot_cap=DEFAULT_PIVOT_CAP):
    """Same basis, B^-1 and pivot sequence as the replaced solver, the same
    value and ``x`` (and types) read off the basis, and the dual ``c_B
    B^-1`` computed from its B^-1; returns the result."""
    expected_pivots = []
    try:
        expected = _reference_solve_min(A, b, c, pivot_cap, expected_pivots)
    except BudgetExceeded as exc:
        expected = exc
    result, pivots = _solve_checking_ints(A, b, c, pivot_cap)
    assert pivots == expected_pivots
    if isinstance(expected, BudgetExceeded):
        assert isinstance(result, BudgetExceeded)
    elif expected in (INFEASIBLE, UNBOUNDED):
        assert result is expected
    else:
        basis = result
        value, x = _solution(A, b, c, basis)
        expected_value, expected_x, (rows, cols, inverse) = expected
        assert (value, x) == (expected_value, expected_x)
        assert (basis.rows, basis.cols) == (rows, cols)
        assert type(value) is type(expected_value)
        assert all(type(v) is Fraction for v in x)
        _assert_integer_fields(basis)
        assert tuple(
            tuple(Fraction(v, basis.inverse_den) for v in row) for row in basis.inverse_num
        ) == inverse
        dual = [Fraction(0)] * len(b)
        for j, k in enumerate(rows):
            dual[k] = sum(Fraction(c[col]) * row[j] for col, row in zip(cols, inverse))
        assert [Fraction(v, basis.dual_den) for v in basis.dual_num] == dual
    return result


@st.composite
def _lps(draw):
    """Small LPs with negative right-hand sides, dependent rows (redundant
    or inconsistent), zeros that make degenerate ratio ties, ``Fraction``
    rows and costs, and sometimes a small pivot cap."""
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    A = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(m)]
    # zero about half the time: degenerate ties, artificials left basic at 0
    b = draw(st.lists(st.just(0) | st.integers(-4, 4), min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, len(A) - 1)), draw(st.integers(0, len(A) - 1))
        p, q = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        A.append([p * u + q * v for u, v in zip(A[i], A[j])])
        b.append(p * b[i] + q * b[j] + draw(st.sampled_from([0, 0, 0, 1])))
    for i in range(len(A)):
        den = draw(st.integers(1, 3))
        A[i] = [Fraction(v, den) for v in A[i]]
        b[i] = Fraction(b[i], den)
    c = draw(st.lists(st.fractions(-3, 3, max_denominator=4), min_size=n, max_size=n))
    cap = draw(st.sampled_from([DEFAULT_PIVOT_CAP] * 4 + [0, 1, 2]))
    return A, b, c, cap


@given(_lps())
@settings(max_examples=250, derandomize=True, deadline=None)
def test_matches_fraction_reference(lp):
    _assert_matches_reference(*lp)


def test_reference_cases_cover_every_outcome():
    # the fixed cases above, each outcome at least once
    outcomes = [
        _assert_matches_reference([[1, 1]], [-1], [1, 1]),
        _assert_matches_reference([[1, -1]], [0], [-1, 0]),
        _assert_matches_reference([[F(1), F(1)], [F(2), F(2)]], [F(4), F(8)], [F(3), F(1)]),
        _assert_matches_reference([[1, 1]], [3], [1, 2], pivot_cap=0),
    ]
    assert outcomes[0] is INFEASIBLE and outcomes[1] is UNBOUNDED
    redundant = [[F(1), F(1)], [F(2), F(2)]], [F(4), F(8)], [F(3), F(1)]
    assert _solution(*redundant, outcomes[2])[0] == 4
    assert isinstance(outcomes[3], BudgetExceeded)


def _corpus_lps(seed):
    """The order LPs of a corpus instance, with and without its unit-vector
    generators: sums of two generator degrees, their thirds and the unit
    vectors (outside the support of some unit-free data) as right-hand
    sides, once per valuation."""
    datum = random_instance(corpus_spec(seed))
    n = datum.r + 1
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    full = list(datum.generators)
    for generators in (full, [g for g in full if tuple(g.multidegree) not in units]):
        degrees = [tuple(g.multidegree) for g in generators]
        points = [tuple(u + v for u, v in zip(d, e)) for d in degrees for e in degrees]
        points += [tuple(Fraction(v, 3) for v in p) for p in points[::3]] + units
        A = [[d[row] for d in degrees] for row in range(n)]
        for valuation in datum.valuations:
            c = [g.mults[valuation] for g in generators]
            for x in points:
                yield A, list(x), c


@pytest.mark.parametrize("seed", range(1, 21))
def test_corpus_lps_match_fraction_reference(seed):
    optimal = 0
    for lp in _corpus_lps(seed):
        result = _assert_matches_reference(*lp)
        if result not in (INFEASIBLE, UNBOUNDED):
            _assert_basis_certifies(*lp, result)
            optimal += 1
    assert optimal


def _assert_basis_certifies(A, b, c, basis):
    """The returned ``Basis`` proves its solution optimal by itself: the
    solution read off it is feasible (``A x = b``, ``x >= 0``), and the dual
    y, zero on the dropped rows, is feasible (``y . A_j <= c_j`` for every
    column j) with ``y . b`` the value."""
    value, x = _solution(A, b, c, basis)
    assert all(v >= 0 for v in x)
    assert all(sum(a * v for a, v in zip(row, x)) == bk for row, bk in zip(A, b))
    y = [Fraction(v, basis.dual_den) for v in basis.dual_num]
    assert len(y) == len(b)
    assert all(y[k] == 0 for k in range(len(b)) if k not in basis.rows)
    for j, cost in enumerate(c):
        assert sum(y[k] * A[k][j] for k in range(len(b))) <= cost
    assert sum(yk * bk for yk, bk in zip(y, b)) == value


@given(_lps())
@settings(max_examples=250, derandomize=True, deadline=None)
def test_basis_certifies_its_solution(lp):
    A, b, c, cap = lp
    try:
        result = solve_min(A, b, c, cap)
    except BudgetExceeded:
        return
    if result not in (INFEASIBLE, UNBOUNDED):
        _assert_basis_certifies(A, b, c, result)

