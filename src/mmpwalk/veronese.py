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
combination of the generators' orders.  Each grid point, and each
right-hand side, is its parent's plus one generator's, the parent being
the exponent vector less one at its last nonzero entry.  The LP is asked
only at the generators and for one dual per cell and valuation; a dual
that meets the order at every generator proves the order linear on the
cell, and each grid point's order is read off it.  Otherwise the cell
straddles two linearity domains, and every grid point is asked of the
LP.  Any failure points at a bug in the fan construction, not at the
input.
"""

import itertools
from dataclasses import dataclass, field
from math import comb, gcd, lcm
from operator import add

from .errors import BudgetExceeded
from .linalg import dot, row_reduce, shown
from .orders import _check_level, order_function

DEFAULT_SPLIT_BUDGET = 200_000
DEFAULT_LATTICE_BUDGET = 20_000
MAX_MONOID_GENERATORS = 8


@dataclass(frozen=True)
class VeroneseResult:
    d: int
    verified_up_to: int
    certified: str = "bounded verification"


def _representations(degrees, total):
    """Generate the nonnegative integer vectors a with
    sum(a_i * degrees_i) == total, in lexicographic order, each only when
    the caller asks for it.

    The last two coefficients are read off, not searched: with g and h the
    last two degrees and c = gcd(g, h), ``a * g + b * h == remaining`` has
    solutions exactly when c divides ``remaining``, and then the a's are the
    least solution of ``a * g == remaining (mod h)`` in steps of h / c.
    """
    if len(degrees) == 1:
        q, r = divmod(total, degrees[0])
        if r == 0:
            yield (q,)
        return
    g, h = degrees[-2:]
    c = gcd(g, h)
    step = h // c
    inverse = pow(g // c, -1, step)
    second_last = len(degrees) - 2

    def recurse(i, remaining, prefix):
        if i == second_last:
            if remaining % c == 0:
                for a in range(remaining // c * inverse % step, remaining // g + 1, step):
                    yield prefix + (a, (remaining - a * g) // h)
            return
        for a in range(remaining // degrees[i] + 1):
            yield from recurse(i + 1, remaining - a * degrees[i], prefix + (a,))

    yield from recurse(0, total, ())


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


def veronese_degree(degrees, m_max):
    """Smallest multiple d of L = lcm(degrees) whose representations of d*m
    all split into m representations of d, for every m <= m_max.

    The representations of c*L*m are the lattice points of m*(c*P), P the
    lattice simplex {a >= 0 : sum(a_i * g_i) = L} of dimension s - 1 for s
    degrees.  c*P has the integer decomposition property for c >= s - 2
    (Bruns-Gubeladze-Trung), so c* = max(1, s - 2) is "proved" for every m
    with no search.  Each c < c* is searched for all m <= m_max ("bounded
    verification"), and BudgetExceeded ends the call when the splitting
    enumeration blows up.  The first ``DEFAULT_SPLIT_BUDGET``
    representations of each candidate d are listed once, as the parts that
    every split shares and the representations for m = 1; those of d*m for
    m > 1 are produced only as the search consumes them.  A split call and
    every part it scans cost one split node each, so
    ``DEFAULT_SPLIT_BUDGET`` bounds the work of each candidate.  A degree
    or an ``m_max`` that is not an ``int`` (a bool, too) raises TypeError,
    and one ``<= 0`` ValueError.
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
        parts = list(itertools.islice(_representations(degrees, d), DEFAULT_SPLIT_BUDGET))
        counter = [DEFAULT_SPLIT_BUDGET]
        memo = {}
        good = True
        for m in range(1, m_max + 1):
            reps = parts if m == 1 else _representations(degrees, d * m)
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


def _parallelepiped_points(basis, budget):
    """Nonzero lattice points of the half-open parallelepiped of a ray basis,
    in lexicographic order.

    With B the k x n basis matrix and S its pivot columns, the minor B_S is
    nonsingular, and a point t B with t in [0, 1)^k has integer S-coordinates
    exactly when t lies in the group generated by the rows of B_S^-1 modulo
    Z^k, which has |det B_S| elements.  Reducing [B | I] gives B_S^-1 with
    integer rows over their pivots, so the group is enumerated in integers
    over the lcm of the pivots, and a point is kept when all n of its
    coordinates are integers (for k < n, not only those in S).  Each point
    is a nonnegative combination of the basis, so it lies in every cell
    whose rays include the basis, and no cell is asked.

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
        raise BudgetExceeded(f"parallelepiped box has {shown(volume)} lattice points")
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
        points.append(tuple(v // den for v in z))
    return sorted(points)


def _ray_basis(cell):
    """Greedy maximal linearly independent subset of the cell's rays: the
    pivot columns of the row reduction of the matrix whose columns they are."""
    rows = row_reduce(list(zip(*cell.rays)))
    return [cell.rays[next(j for j, x in enumerate(row) if x)] for row in rows]


def monoid_generators(cell):
    """Bounded generating set for the cell's monoid of lattice points: the
    rays, then the lattice points of the half-open parallelepiped of a
    maximal independent subset of them, in lexicographic order.

    Exact for simplicial cells; for others the rays plus one
    parallelepiped's points are a bounded approximation.  The parallelepiped
    is enumerated as a finite group in |det| steps, but a cell whose
    bounding box holds more than ``DEFAULT_LATTICE_BUDGET`` points raises
    BudgetExceeded: the box volume bounds |det|, so the budget bounds the
    work.
    """
    extra = _parallelepiped_points(_ray_basis(cell), DEFAULT_LATTICE_BUDGET)
    return list(dict.fromkeys([tuple(r) for r in cell.rays] + extra))


def _grid_table(count, depth):
    """The exponent vectors of ``count`` generators of total 1 to ``depth``,
    each total's block in lexicographic order, and for each the step
    ``(parent, i)`` that builds it: ``i`` is the index of its last nonzero
    entry and ``parent`` the index of ``p - e_i`` in the list whose entry 0
    is the zero vector and entry ``j`` the ``j``-th exponent vector, so a
    unit vector's parent is 0.

    The children of a vector ``w`` are ``w + e_i`` for ``i`` from ``count - 1``
    down to ``w``'s own generator (every ``i`` for the zero vector), in
    lexicographic order, so each block is the children of the block
    before, vector by vector.  Each vector is built from its step, its
    parent plus ``e_i``, as its grid point is, and the steps are read off
    the block before with no vector looked up."""
    vectors = [(0,) * count]
    steps = []
    block = [(0, 0)]  # (index, last nonzero entry) of each vector of the last total
    for _ in range(depth):
        children = []
        for parent, last in block:
            w = vectors[parent]
            for i in range(count - 1, last - 1, -1):
                steps.append((parent, i))
                vectors.append(w[:i] + (w[i] + 1,) + w[i + 1:])
                children.append((len(steps), i))
        block = children
    return vectors[1:], steps


def grid_additivity_check(datum, fan, depth=3):
    """Verify order additivity on monoid-generator combinations of every
    cell of a chamber fan of ``datum``, for every tracked valuation.

    Per-cell problems (a box, or a grid of exponent vectors counted before
    any is built, over ``DEFAULT_LATTICE_BUDGET``; more than
    ``MAX_MONOID_GENERATORS`` monoid generators, cut to the first that many)
    are reported, not fatal.  Each valuation's order function is the datum's
    one ``order_function``, shared with every other query on its LP data,
    and every point is an integer vector.  ``_grid_table`` gives each
    exponent vector ``p`` its parent ``p - e_i``, ``i`` the index of its
    last nonzero entry, which comes before ``p`` (a unit vector's is the
    zero vector), once per call for each generator count met; a cell's
    point of ``p`` is its parent's point plus generator ``i``, one vector
    addition per point.

    The generators' orders are read as the integers of
    ``OrderFunction.ratio``, once per valuation and distinct generator in
    the call: the order at a point depends only on the valuation and the
    point, so a generator that cells share is asked once, and a repeat
    reads the ``(num, den)`` of the first query from a dict that lives only
    as long as the call and that only ``ratio`` fills, never the fan.  Each
    (cell, valuation) then asks ``OrderFunction.dual`` once, at the sum of
    the cell's generators, a point inside the cone they span, for the dual
    ``(y_num, y_den)`` of the basis optimal there, and tests ``num * y_den
    == (y_num . g) * den`` at every generator ``g``.  When every generator
    passes, the order is ``y . x`` on the cone: every kept basis is dual
    feasible, so by weak duality the order is at least ``y . x`` at every
    point, and the order is convex and homogeneous, so at ``x = sum a_i
    g_i`` with ``a_i >= 0`` it is at most ``sum a_i order(g_i) = y . x``.
    Each record's left-hand side is then ``(y_num . point, y_den)``, built
    as its parent's plus ``y_num . g_i``, and no grid point is asked.  When
    a generator fails, the cell straddles two linearity domains, which
    means the fan is broken, and every grid point is asked of ``ratio``
    through the same dict, so the records show where additivity fails.

    Every exponent vector of every (cell, valuation) gets its own
    ``AdditivityCheck``, whose right-hand side is the exponent vector
    times its own cell's generators' orders over one denominator, built as
    its parent's plus generator ``i``'s order, one integer addition per
    record, so each record holds integers and is decided in them,
    cross-multiplied, with no ``Fraction`` built.  ``depth`` is checked as
    a level is, by ``_check_level``.
    """
    _check_level(depth, "depth")
    order = {v: order_function(datum, v) for v in datum.valuations}
    # per valuation, the order at every point asked in this call, as ``ratio`` read it
    known = {v: {} for v in datum.valuations}
    # per generator count, the grid's ``_grid_table``, built once in this call
    tables = {}
    report = GridReport()
    for ci, cell in enumerate(fan.cells):
        try:
            gens = monoid_generators(cell)
            truncated = len(gens) > MAX_MONOID_GENERATORS
            gens = gens[:MAX_MONOID_GENERATORS]
            count = comb(depth + len(gens), len(gens)) - 1
            if count > DEFAULT_LATTICE_BUDGET:
                raise BudgetExceeded(f"grid has {shown(count)} exponent vectors")
        except BudgetExceeded as exc:
            for valuation in datum.valuations:
                report.entries.append(
                    CellReport(ci, valuation, (), skipped=str(exc))
                )
            continue
        if len(gens) not in tables:
            tables[len(gens)] = _grid_table(len(gens), depth)
        exponents, steps = tables[len(gens)]
        # the grid points, each its parent plus one generator, after the zero vector
        grid = [(0,) * cell.ambient_dim]
        for parent, i in steps:
            grid.append(tuple(map(add, grid[parent], gens[i])))
        points = grid[1:]
        # a point interior to the cone the generators span
        inner = tuple(map(sum, zip(*gens)))
        for valuation in datum.valuations:
            entry = CellReport(ci, valuation, tuple(gens), truncated=truncated)
            ratio = order[valuation].ratio
            seen = known[valuation]
            for g in gens:
                if g not in seen:
                    seen[g] = ratio(g)
            # the generators' orders as integers over one denominator
            ratios = [seen[g] for g in gens]
            base_den = lcm(*[d for _, d in ratios])
            base = [n * (base_den // d) for n, d in ratios]
            # each right-hand side its parent's plus one generator's order
            rhs = [0]
            for parent, i in steps:
                rhs.append(rhs[parent] + base[i])
            # the certificate: a dual-feasible y equal to the order at every
            # generator equals it on the cone they span
            y_num, y_den = order[valuation].dual(inner)
            at_gens = [dot(y_num, g) for g in gens]
            if all(n * y_den == v * d for (n, d), v in zip(ratios, at_gens)):
                lhs = [0]
                for parent, i in steps:
                    lhs.append(lhs[parent] + at_gens[i])
                sides = [(v, y_den) for v in lhs[1:]]
            else:  # the cell straddles two linearity domains: ask every point
                for x in points:
                    if x not in seen:
                        seen[x] = ratio(x)
                sides = [seen[x] for x in points]
            for p, point, (num, den), r in zip(exponents, points, sides, rhs[1:]):
                entry.checks.append(AdditivityCheck(p, point, num, den, r, base_den))
            report.entries.append(entry)
    return report
