"""Degree-semigroup computations: Veronese degrees and grid additivity.

``veronese_degree`` works purely at the level of degrees: a candidate d
passes when every representation of d*m over the input degrees splits into
m representations of d, exhaustively checked for all m up to a bound.  The
result is a bounded verification, never a proof for all m.

``grid_additivity_check`` cross-checks the chamber fan: on every cell the
order functions are linear, so the order of a nonnegative integer
combination of the cell's monoid generators must equal the matching
combination of the generators' orders.  Any failure points at a bug in the
fan construction, not at the input.
"""

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm

from .errors import BudgetExceeded, NotFoundError
from .linalg import clear_denominators, echelon, rank
from .orders import OrderFunction
from .ring import support_cone

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
    in lexicographic order; only the first ``limit`` of them when given."""
    out = []

    def recurse(i, remaining, prefix):
        if i == len(degrees) - 1:
            q, r = divmod(remaining, degrees[i])
            if r == 0:
                out.append(tuple(prefix + [q]))
            return
        for a in range(remaining // degrees[i] + 1):
            if len(out) == limit:
                return
            recurse(i + 1, remaining - a * degrees[i], prefix + [a])

    recurse(0, total, [])
    return out


def _splits(rep, parts, m, memo, counter):
    """Whether ``rep`` of d*m splits into m representations of d, given
    ``parts``, the list of all representations of d."""
    counter[0] -= 1
    if counter[0] <= 0:
        raise BudgetExceeded("splitting enumeration budget exhausted")
    if m == 1:
        return True
    key = (rep, m)
    if key in memo:
        return memo[key]
    result = False
    for sub in parts:
        if all(s <= a for s, a in zip(sub, rep)):
            rest = tuple(a - s for a, s in zip(rep, sub))
            if _splits(rest, parts, m - 1, memo, counter):
                result = True
                break
    memo[key] = result
    return result


def veronese_degree(degrees, m_max, budget=16, split_budget=DEFAULT_SPLIT_BUDGET):
    """Smallest multiple d of lcm(degrees) whose representations of d*m all
    split into m representations of d, for every m <= m_max.

    Tries up to ``budget`` multiples of the lcm; raises NotFoundError past
    that, BudgetExceeded when the splitting enumeration blows up.  The
    representations of each candidate d are listed once and shared by every
    split.  Every listed representation costs at least one split node, so
    each list for d*m stops at the nodes left (``counter[0]``) and runs out
    exactly where the whole list would; the parts, which are the list for
    m = 1, stop at ``split_budget``.
    """
    degrees = sorted(degrees)
    if not degrees or any(g <= 0 for g in degrees):
        raise ValueError("degrees must be positive integers")
    base = lcm(*degrees)
    for mult in range(1, budget + 1):
        d = mult * base
        parts = _representations(degrees, d, split_budget)
        counter = [split_budget]
        memo = {}
        good = True
        for m in range(1, m_max + 1):
            for rep in _representations(degrees, d * m, counter[0]):
                if not _splits(rep, parts, m, memo, counter):
                    good = False
                    break
            if not good:
                break
        if good:
            return VeroneseResult(d=d, verified_up_to=m_max)
    raise NotFoundError(
        f"no Veronese degree found among the first {budget} multiples of {base}"
    )


@dataclass
class AdditivityCheck:
    exponents: tuple
    point: tuple
    lhs: Fraction
    rhs: Fraction

    @property
    def ok(self):
        return self.lhs == self.rhs


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
    # row i of echelon([B | I]) is c_i times (row i of the RREF of B | row i
    # of B_S^-1), with c_i > 0 its pivot entry
    identity = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    reduced = echelon([tuple(b) + e for b, e in zip(basis, identity)])
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
    """Greedy maximal linearly independent subset of the cell's rays."""
    basis = []
    for r in cell.rays:
        if rank(basis + [r]) > len(basis):
            basis.append(r)
    return basis


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


def grid_additivity_check(datum, fan, dscale=1, depth=3,
                          lattice_budget=DEFAULT_LATTICE_BUDGET,
                          max_generators=MAX_MONOID_GENERATORS):
    """Verify order additivity on scaled monoid-generator combinations of
    every cell, for every tracked valuation.

    Per-cell problems (a box, or a grid of exponent vectors counted before
    any is built, over ``lattice_budget``; too many generators) are
    reported, not fatal.  Each valuation's order function is set up once,
    and with an integer ``dscale`` every point is an integer vector.
    """
    support = support_cone(datum)
    order = {v: OrderFunction(datum, v, support) for v in datum.valuations}
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
        scaled = [tuple(dscale * x for x in g) for g in gens]
        checks = [
            (p, tuple(sum(pj * g[j] for pj, g in zip(p, scaled))
                      for j in range(cell.ambient_dim)))
            for p in _exponent_vectors(len(gens), depth)
        ]
        for valuation in datum.valuations:
            entry = CellReport(ci, valuation, tuple(gens), truncated=truncated)
            value = order[valuation].value
            # the generators' orders as integers over one denominator
            base, base_den = clear_denominators([value(g) for g in scaled])
            for p, point in checks:
                rhs = Fraction(sum(pj * bj for pj, bj in zip(p, base)), base_den)
                entry.checks.append(AdditivityCheck(p, point, value(point), rhs))
            report.entries.append(entry)
    return report
