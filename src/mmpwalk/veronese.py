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
from math import lcm

from .errors import BudgetExceeded, NotFoundError
from .linalg import rank, solve_exact
from .orders import asymptotic_order
from .ring import support_cone

DEFAULT_SPLIT_BUDGET = 200_000
DEFAULT_LATTICE_BUDGET = 20_000
MAX_MONOID_GENERATORS = 8


@dataclass(frozen=True)
class VeroneseResult:
    d: int
    verified_up_to: int
    certified: str = "bounded verification"


def _representations(degrees, total):
    """All nonnegative integer vectors a with sum(a_i * degrees_i) == total."""
    out = []

    def recurse(i, remaining, prefix):
        if i == len(degrees) - 1:
            q, r = divmod(remaining, degrees[i])
            if r == 0:
                out.append(tuple(prefix + [q]))
            return
        for a in range(remaining // degrees[i] + 1):
            recurse(i + 1, remaining - a * degrees[i], prefix + [a])

    recurse(0, total, [])
    return out


def _splits(rep, degrees, d, m, memo, counter):
    """Whether ``rep`` of d*m splits into m representations of d."""
    counter[0] -= 1
    if counter[0] <= 0:
        raise BudgetExceeded("splitting enumeration budget exhausted")
    if m == 1:
        return True
    key = (rep, m)
    if key in memo:
        return memo[key]
    result = False
    for sub in _representations(degrees, d):
        if all(s <= a for s, a in zip(sub, rep)):
            rest = tuple(a - s for a, s in zip(rep, sub))
            if _splits(rest, degrees, d, m - 1, memo, counter):
                result = True
                break
    memo[key] = result
    return result


def veronese_degree(degrees, m_max, budget=16, split_budget=DEFAULT_SPLIT_BUDGET):
    """Smallest multiple d of lcm(degrees) whose representations of d*m all
    split into m representations of d, for every m <= m_max.

    Tries up to ``budget`` multiples of the lcm; raises NotFoundError past
    that, BudgetExceeded when the splitting enumeration blows up.
    """
    degrees = sorted(degrees)
    if not degrees or any(g <= 0 for g in degrees):
        raise ValueError("degrees must be positive integers")
    base = lcm(*degrees)
    for mult in range(1, budget + 1):
        d = mult * base
        counter = [split_budget]
        memo = {}
        good = True
        for m in range(1, m_max + 1):
            for rep in _representations(degrees, d * m):
                if not _splits(rep, degrees, d, m, memo, counter):
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


def _parallelepiped_points(basis, cell, budget):
    """Nonzero lattice points of the half-open parallelepiped of a ray basis,
    restricted to the cell.  Cells live in the nonnegative orthant, so the
    bounding box is [0, sum of basis vectors]."""
    n = len(basis[0])
    hi = [sum(b[j] for b in basis) for j in range(n)]
    volume = 1
    for h in hi:
        volume *= h + 1
    if volume > budget:
        raise BudgetExceeded(f"parallelepiped box has {volume} lattice points")
    columns = list(zip(*basis))  # n rows of the basis matrix, transposed
    points = []
    for z in itertools.product(*(range(h + 1) for h in hi)):
        if all(v == 0 for v in z):
            continue
        t = solve_exact(columns, z)
        if t is None:
            continue
        if any(ti < 0 or ti >= 1 for ti in t):
            continue
        if cell.contains(z):
            points.append(tuple(z))
    return points


def _ray_basis(cell):
    """Greedy maximal linearly independent subset of the cell's rays."""
    basis = []
    for r in cell.rays:
        if rank(basis + [r]) > len(basis):
            basis.append(r)
    return basis


def monoid_generators(cell, lattice_budget=DEFAULT_LATTICE_BUDGET):
    """Bounded generating set for the cell's monoid of lattice points.

    Exact for simplicial cells; for others the rays plus one
    parallelepiped's points are a bounded approximation.
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

    Per-cell enumeration problems (box too large, too many generators) are
    reported, not fatal.
    """
    support = support_cone(datum)
    report = GridReport()
    for ci, cell in enumerate(fan.cells):
        try:
            gens = monoid_generators(cell, lattice_budget)
        except BudgetExceeded as exc:
            for valuation in datum.valuations:
                report.entries.append(
                    CellReport(ci, valuation, (), skipped=str(exc))
                )
            continue
        truncated = len(gens) > max_generators
        if truncated:
            gens = gens[:max_generators]
        for valuation in datum.valuations:
            entry = CellReport(ci, valuation, tuple(gens), truncated=truncated)
            base = [
                asymptotic_order(
                    datum, valuation, tuple(Fraction(dscale * x) for x in g),
                    support=support,
                ).value
                for g in gens
            ]
            for p in _exponent_vectors(len(gens), depth):
                point = tuple(
                    Fraction(dscale) * sum(pj * g[j] for pj, g in zip(p, gens))
                    for j in range(cell.ambient_dim)
                )
                lhs = asymptotic_order(datum, valuation, point, support=support).value
                rhs = sum(pj * bj for pj, bj in zip(p, base))
                entry.checks.append(AdditivityCheck(p, point, lhs, rhs))
            report.entries.append(entry)
    return report
