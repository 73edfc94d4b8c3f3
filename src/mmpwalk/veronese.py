"""Degree-semigroup computations: Veronese degrees and grid additivity.

``veronese_degree`` works purely at the level of degrees: a candidate d
passes when every representation of d*m over the input degrees splits into
m representations of d.  The integer decomposition property proves one
multiple of the lcm for every m; each smaller multiple is checked
exhaustively for all m up to a bound, and the least that passes (a bounded
verification), else the proved one, is returned.

``grid_additivity_check`` cross-checks the chamber fan: on every cell the
order functions are linear, so the order of a nonnegative integer
combination of the cell's monoid generators must equal the matching
combination of the generators' orders.  Any failure points at a bug in the
fan construction, not at the input.
"""

import itertools
from dataclasses import dataclass, field
from math import comb, gcd, lcm
from operator import mul

from .errors import BudgetExceeded
from .linalg import row_reduce
from .orders import _check_level, order_function

DEFAULT_SPLIT_BUDGET = 200_000
DEFAULT_LATTICE_BUDGET = 20_000
MAX_MONOID_GENERATORS = 8


@dataclass(frozen=True)
class VeroneseResult:
    d: int
    verified_up_to: int
    certified: str = "bounded verification"


def _representations(degrees, total, limit=None):
    """The nonnegative integer vectors a with sum(a_i * degrees_i) == total,
    in lexicographic order; only the first ``limit`` of them when given.

    The last two coefficients are read off, not searched: with g and h the
    last two degrees and c = gcd(g, h), ``a * g + b * h == remaining`` has
    solutions exactly when c divides ``remaining``, and then the a's are the
    least solution of ``a * g == remaining (mod h)`` in steps of h / c.
    """
    out = []
    if len(degrees) == 1:
        q, r = divmod(total, degrees[0])
        return [(q,)] if r == 0 else []
    g, h = degrees[-2:]
    c = gcd(g, h)
    step = h // c
    inverse = pow(g // c, -1, step)
    second_last = len(degrees) - 2

    def recurse(i, remaining, prefix):
        if i == second_last:
            if remaining % c:
                return
            for a in range(remaining // c * inverse % step, remaining // g + 1, step):
                if len(out) == limit:
                    return
                out.append(tuple(prefix + [a, (remaining - a * g) // h]))
            return
        for a in range(remaining // degrees[i] + 1):
            if len(out) == limit:
                return
            recurse(i + 1, remaining - a * degrees[i], prefix + [a])

    recurse(0, total, [])
    return out


def _charge(counter):
    """Spend one split node of ``counter[0]``; BudgetExceeded when none is left."""
    counter[0] -= 1
    if counter[0] <= 0:
        raise BudgetExceeded("splitting enumeration budget exhausted")


def _splits(rep, parts, m, memo, counter):
    """Whether ``rep`` of d*m splits into m representations of d, given
    ``parts``, the list of all representations of d.  The call costs one
    split node, and so does every part it scans, so the budget bounds the
    work however many parts d has."""
    _charge(counter)
    if m == 1:
        return True
    key = (rep, m)
    if key in memo:
        return memo[key]
    result = False
    for sub in parts:
        _charge(counter)
        if all(s <= a for s, a in zip(sub, rep)):
            rest = tuple(a - s for a, s in zip(rep, sub))
            if _splits(rest, parts, m - 1, memo, counter):
                result = True
                break
    memo[key] = result
    return result


def veronese_degree(degrees, m_max, split_budget=DEFAULT_SPLIT_BUDGET):
    """Smallest multiple d of L = lcm(degrees) whose representations of d*m
    all split into m representations of d, for every m <= m_max.

    The representations of c*L*m are the lattice points of m*(c*P), P the
    lattice simplex {a >= 0 : sum(a_i * g_i) = L} of dimension s - 1 for s
    degrees.  c*P has the integer decomposition property for c >= s - 2
    (Bruns-Gubeladze-Trung), so c* = max(1, s - 2) is "proved" for every m
    with no search.  Each c < c* is searched for all m <= m_max ("bounded
    verification"), and BudgetExceeded ends the call when the splitting
    enumeration blows up.  The representations of each candidate d are
    listed once and shared by every split.  A split call and every part it
    scans cost one split node each, so ``split_budget`` bounds the work.
    Every listed representation costs at least one node, so each list for
    d*m stops at the nodes left (``counter[0]``) and runs out exactly where
    the whole list would; the parts stop at ``split_budget`` and serve as
    the list for m = 1.  A degree or an ``m_max`` that is not an ``int``
    (a bool, too) raises TypeError, and one ``<= 0`` ValueError.
    """
    _check_level(m_max, "m_max")
    degrees = sorted(degrees)
    if any(type(g) is not int for g in degrees):
        raise TypeError(f"degrees must be ints, got {degrees!r}")
    if not degrees or any(g <= 0 for g in degrees):
        raise ValueError("degrees must be positive integers")
    base = lcm(*degrees)
    proved = max(1, len(degrees) - 2)
    for mult in range(1, proved):
        d = mult * base
        parts = _representations(degrees, d, split_budget)
        counter = [split_budget]
        memo = {}
        good = True
        for m in range(1, m_max + 1):
            reps = parts if m == 1 else _representations(degrees, d * m, counter[0])
            for rep in reps:
                if not _splits(rep, parts, m, memo, counter):
                    good = False
                    break
            if not good:
                break
        if good:
            return VeroneseResult(d=d, verified_up_to=m_max)
    return VeroneseResult(d=proved * base, verified_up_to=m_max, certified="proved")


@dataclass(slots=True)
class AdditivityCheck:
    """One grid point of ``grid_additivity_check``: its exponent vector,
    the point, and the two sides of additivity there as integers over
    positive denominators, the order at the point ``lhs_num / lhs_den`` and
    the exponents times the generators' orders ``rhs_num / rhs_den``.
    ``ok`` compares the sides cross-multiplied."""

    exponents: tuple
    point: tuple
    lhs_num: int
    lhs_den: int
    rhs_num: int
    rhs_den: int

    @property
    def ok(self):
        return self.lhs_num * self.rhs_den == self.rhs_num * self.lhs_den


@dataclass
class CellReport:
    cell_index: int
    valuation: str
    generators: tuple
    checks: list = field(default_factory=list)
    skipped: str = None
    truncated: bool = False

    @property
    def failures(self):
        return [c for c in self.checks if not c.ok]


@dataclass
class GridReport:
    entries: list = field(default_factory=list)

    @property
    def failures(self):
        return [c for e in self.entries for c in e.failures]

    def ok(self):
        return not self.failures


def _subgroup(generators, modulus):
    """The subgroup of (Z/modulus)^k generated by ``generators``, as a set of
    tuples with entries in [0, modulus): each generator in turn adds cosets
    of the group so far, until a multiple of it falls back into the group."""
    group = {(0,) * len(generators[0])}
    for g in generators:
        cosets = list(group)
        shift = g
        while shift not in group:
            group.update(tuple((a + s) % modulus for a, s in zip(h, shift)) for h in cosets)
            shift = tuple((a + s) % modulus for a, s in zip(shift, g))
    return group


def _parallelepiped_points(basis, cell, budget):
    """Nonzero lattice points of the half-open parallelepiped of a ray basis,
    restricted to the cell, in lexicographic order.

    With B the k x n basis matrix and S its pivot columns, the minor B_S is
    nonsingular, and a point t B with t in [0, 1)^k has integer S-coordinates
    exactly when t lies in the group generated by the rows of B_S^-1 modulo
    Z^k, which has |det B_S| elements.  Reducing [B | I] gives B_S^-1 with
    integer rows over their pivots, so the group is enumerated in integers
    over the lcm of the pivots, and a point is kept when all n of its
    coordinates are integers (for k < n, not only those in S).

    Cells live in the nonnegative orthant, so the points lie in the box
    [0, sum of basis vectors].  Its volume bounds |det B_S|, and a box over
    ``budget`` raises BudgetExceeded before any enumeration.
    """
    n = len(basis[0])
    hi = [sum(b[j] for b in basis) for j in range(n)]
    volume = 1
    for h in hi:
        volume *= h + 1
    if volume > budget:
        raise BudgetExceeded(f"parallelepiped box has {volume} lattice points")
    k = len(basis)
    # row i of row_reduce([B | I]) is c_i times (row i of the RREF of B | row i
    # of B_S^-1), with c_i > 0 its pivot entry
    identity = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    reduced = row_reduce([tuple(b) + e for b, e in zip(basis, identity)])
    pivots = [next(x for x in row if x) for row in reduced]
    den = lcm(*pivots)
    group = _subgroup(
        [tuple(x * (den // c) % den for x in row[n:]) for c, row in zip(pivots, reduced)],
        den,
    )
    points = []
    for t in group:  # the point (t / den) B, scaled by den
        z = [sum(ti * b[j] for ti, b in zip(t, basis)) for j in range(n)]
        if any(v % den for v in z) or not any(z):
            continue
        z = tuple(v // den for v in z)
        if cell.contains(z):
            points.append(z)
    return sorted(points)


def _ray_basis(cell):
    """Greedy maximal linearly independent subset of the cell's rays: the
    pivot columns of the row reduction of the matrix whose columns they are."""
    rows = row_reduce(list(zip(*cell.rays)))
    return [cell.rays[next(j for j, x in enumerate(row) if x)] for row in rows]


def monoid_generators(cell, lattice_budget=DEFAULT_LATTICE_BUDGET):
    """Bounded generating set for the cell's monoid of lattice points: the
    rays, then the lattice points of the half-open parallelepiped of a
    maximal independent subset of them, in lexicographic order.

    Exact for simplicial cells; for others the rays plus one
    parallelepiped's points are a bounded approximation.  The parallelepiped
    is enumerated as a finite group in |det| steps, but a cell whose
    bounding box holds more than ``lattice_budget`` points still raises
    BudgetExceeded: the box volume bounds |det|, so the budget bounds the
    work, and the same cells are skipped as when the box was scanned.
    """
    basis = _ray_basis(cell)
    extra = _parallelepiped_points(basis, cell, lattice_budget)
    gens = list(dict.fromkeys([tuple(r) for r in cell.rays] + extra))
    return gens


def _exponent_vectors(count, depth):
    for total in range(1, depth + 1):
        for cuts in itertools.combinations(range(total + count - 1), count - 1):
            vec = []
            prev = -1
            for c in cuts:
                vec.append(c - prev - 1)
                prev = c
            vec.append(total + count - 2 - prev)
            yield tuple(vec)


def grid_additivity_check(datum, fan, depth=3,
                          lattice_budget=DEFAULT_LATTICE_BUDGET,
                          max_generators=MAX_MONOID_GENERATORS):
    """Verify order additivity on monoid-generator combinations of every
    cell of a chamber fan of ``datum``, for every tracked valuation.

    Per-cell problems (a box, or a grid of exponent vectors counted before
    any is built, over ``lattice_budget``; too many generators) are
    reported, not fatal.  Each valuation's order function is the datum's
    one ``order_function``, shared with every other query on its LP data,
    and every point is an integer vector, built once per cell from the
    generators' columns.  The order is linear on the cell, so one kept
    basis is optimal on all of its grid points: after the first point each
    query is answered by the integer test of ``OrderFunction._basic_solution``
    on the bases tried before it, and a basis that does not certify the
    point is left at its first negative entry.  Every order is read as the
    integers of ``OrderFunction.ratio``, and the right-hand sides are the
    exponent vectors times the generators' orders over one denominator, so
    each point's ``AdditivityCheck`` holds integers and is decided in them,
    with no ``Fraction`` built.  ``depth`` is checked
    as a level is, by ``_check_level``.
    """
    _check_level(depth, "depth")
    order = {v: order_function(datum, v) for v in datum.valuations}
    report = GridReport()
    for ci, cell in enumerate(fan.cells):
        try:
            gens = monoid_generators(cell, lattice_budget)
            truncated = len(gens) > max_generators
            gens = gens[:max_generators]
            count = comb(depth + len(gens), len(gens)) - 1
            if count > lattice_budget:
                raise BudgetExceeded(f"grid has {count} exponent vectors")
        except BudgetExceeded as exc:
            for valuation in datum.valuations:
                report.entries.append(
                    CellReport(ci, valuation, (), skipped=str(exc))
                )
            continue
        # the grid points, built once per cell from the generators' columns
        columns = [[g[j] for g in gens] for j in range(cell.ambient_dim)]
        checks = [(p, tuple([sum(map(mul, p, col)) for col in columns]))
                  for p in _exponent_vectors(len(gens), depth)]
        for valuation in datum.valuations:
            entry = CellReport(ci, valuation, tuple(gens), truncated=truncated)
            ratio = order[valuation].ratio
            # the generators' orders as integers over one denominator
            ratios = [ratio(g) for g in gens]
            base_den = lcm(*[d for _, d in ratios])
            base = [n * (base_den // d) for n, d in ratios]
            for p, point in checks:
                num, den = ratio(point)
                entry.checks.append(
                    AdditivityCheck(p, point, num, den, sum(map(mul, p, base)), base_den))
            report.entries.append(entry)
    return report
