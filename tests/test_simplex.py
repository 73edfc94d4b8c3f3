"""Exact two-phase simplex."""

from fractions import Fraction

import pytest

from mmpwalk.errors import BudgetExceeded
from mmpwalk.simplex import INFEASIBLE, UNBOUNDED, solve_min


def F(x):
    return Fraction(x)


def test_equality_lp_basic():
    # min x + 2y  s.t.  x + y = 3, x, y >= 0
    value, x, _ = solve_min([[F(1), F(1)]], [F(3)], [F(1), F(2)])
    assert value == 3
    assert x == (F(3), F(0))


def test_degenerate_alternative_optima_value_unique():
    # min x + y  s.t.  x + y = 5: any feasible point is optimal
    value, x, _ = solve_min([[F(1), F(1)]], [F(5)], [F(1), F(1)])
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
    value, x, _ = solve_min(
        [[F(2), F(1)], [F(1), F(2)]], [F(1), F(1)], [F(1), F(0)]
    )
    assert value == Fraction(1, 3)
    assert x == (Fraction(1, 3), Fraction(1, 3))


def test_redundant_row_handled():
    # second row is twice the first
    value, x, basis = solve_min(
        [[F(1), F(1)], [F(2), F(2)]], [F(4), F(8)], [F(3), F(1)]
    )
    assert value == 4
    assert x == (F(0), F(4))
    assert basis.rows == (0,)


def test_negative_rhs_normalized():
    # -x - y = -3 is the same constraint as x + y = 3
    value, _, _ = solve_min([[F(-1), F(-1)]], [F(-3)], [F(2), F(5)])
    assert value == 6


def test_pivot_cap_raises():
    with pytest.raises(BudgetExceeded):
        solve_min([[F(1), F(1)]], [F(3)], [F(1), F(2)], pivot_cap=0)


def test_larger_system_exact_rationals():
    # min a/2 + b/3 + c  s.t.  a + b = 2, b + c = 1
    value, x, _ = solve_min(
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
    _, x, basis = solve_min(A, b, c)
    assert len(basis.rows) == len(basis.cols) == len(basis.inverse)
    for col, row in zip(basis.cols, basis.inverse):
        assert x[col] == sum(v * b[k] for v, k in zip(row, basis.rows))
    assert all(x[j] == 0 for j in range(len(c)) if j not in basis.cols)
    # B^-1 B = I for B = A[rows][:, cols]
    product = [
        [sum(v * A[k][col] for v, k in zip(row, basis.rows)) for col in basis.cols]
        for row in basis.inverse
    ]
    size = len(basis.cols)
    assert product == [[int(i == j) for j in range(size)] for i in range(size)]
