"""Asymptotic orders of vanishing as exact LP value functions.

For a tracked valuation the order at a point of the support cone is the
optimum of an exact rational LP over the generator data.  Its linearity
domains form a fan: lift each generator by its multiplicity, take the cone
over the lifted generators, and project the lower facets back down.  The
chamber fan is the common refinement of these fans over all valuations,
further sliced so that every cell respects every facet hyperplane.  Each
cell carries its functionals through both refinements as its label; the
checks compare them with LP values from ``simplex``.

Queries go through an ``OrderFunction``, one object per (datum,
valuation) that holds the integer degrees, the multiplicities, the support
cone and the optimal bases of earlier solves of its LP.  The optimal basis
is constant on each linearity domain, so a query is answered from a kept
basis when LP duality certifies it optimal there, and solved from scratch
otherwise; only a solve adds a basis.  The basis that certified the last
query is tried first, which answers a run of queries in one chamber with
one integer feasibility test each; the support cone is tested only when no
kept basis answers, before the solve.  ``value(x)`` returns the exact order
and nothing else, for callers that make many queries, such as the checks;
``certificate(x)`` returns it as an ``OValue`` with a witness and the dual
that certifies it.  ``asymptotic_order`` is ``certificate`` on a fresh
object.  Values are exact and unique either way.  When several optimal
vertices tie, which witness is returned depends on the earlier queries of
the process.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import NamedTuple

from .cones import cone_from_rays, common_refinement, hyperplane_refinement, make_fan
from .errors import BudgetExceeded, DimensionError, InconsistentInput, OutsideSupport
from .linalg import clear_denominators, dot
from .ring import support_cone
from .simplex import INFEASIBLE, solve_min

DEFAULT_NODE_BUDGET = 2_000_000

# LP data (degrees, heights) whose optimal bases are kept, least recently
# used first out
BASIS_CACHE_SIZE = 4096


class _NoRepresentation:
    """Marker for integer-level values of points with no integer representation."""

    def __repr__(self):
        return "NoRepresentation"


NO_REPRESENTATION = _NoRepresentation()


@dataclass(frozen=True)
class OValue:
    """Order value with its optimality certificate.

    ``witness`` is an optimal representation (generator coefficients) and
    ``dual`` a vector y with ``y . d_i <= h_i`` for every generator degree
    d_i and multiplicity h_i and ``y . x == value``: by weak duality no
    representation of ``x`` costs less than ``value``.
    """

    value: Fraction
    witness: tuple
    dual: tuple


_EXACT_TYPES = frozenset((int, Fraction))


def _mults(datum, valuation):
    """The generators' multiplicities at ``valuation``.  One that is not an
    ``int`` or a ``Fraction``, such as a float, raises TypeError rather than
    being coerced."""
    mults = tuple([g.mults[valuation] for g in datum.generators])
    if not _EXACT_TYPES.issuperset(map(type, mults)):
        raise TypeError(f"multiplicities at {valuation!r} are not exact: {mults!r}")
    return mults


def asymptotic_order(datum, valuation, x, support=None):
    """Exact order of vanishing at ``x``: min of generator multiplicities
    over all nonnegative rational representations of ``x``.

    Returns an OValue with an optimal basic witness and the dual that
    certifies it.  ``x`` outside the closed support cone raises
    OutsideSupport (distinct from value 0).  ``support``, when given, must
    be the datum's support cone (see ``OrderFunction``).
    """
    return OrderFunction(datum, valuation, support).certificate(x)


class OrderFunction:
    """The order function of one valuation on one datum, set up once for
    many queries.

    Holds the integer degrees, the multiplicities, the support cone and the
    bases kept for these LP data (``_KeptBases``, shared with every other
    query on them).  ``value(x)`` is the exact order at ``x``;
    ``certificate(x)`` is the same value as an ``OValue``, with a witness
    and a dual.  Both answer from one search over the kept bases, which
    certifies a basis optimal at ``x`` by LP duality, and solve the LP only
    when none is; only a solve adds a basis.  A point outside the closed
    support cone raises OutsideSupport from both, and a point of another
    dimension DimensionError.

    ``support`` must be the datum's support cone, the cone over the
    generator degrees (the default): a kept basis that certifies ``x``
    writes it as a nonnegative combination of the degrees, which proves it
    lies in the support, so only a query no kept basis answers is tested
    against ``support``.
    """

    __slots__ = ("degrees", "mults", "support", "bases")

    def __init__(self, datum, valuation, support=None):
        self.support = support_cone(datum) if support is None else support
        self.degrees = tuple([tuple(g.multidegree) for g in datum.generators])
        self.mults = _mults(datum, valuation)
        # the heights as ints over one denominator: a key of ints, which
        # hash fast, and the same key for equal multiplicities of any type
        self.bases = _optimal_bases(self.degrees, *clear_denominators(self.mults))

    def value(self, x):
        """The order at ``x`` as a ``Fraction``; builds no witness or dual."""
        hit = self._certified(x, *clear_denominators(x))
        if hit is None:
            return self._solve(x)[0]
        return hit[0]

    def certificate(self, x):
        """The order at ``x`` as an ``OValue``.  After a solve the witness is
        the solver's own; from a kept basis it is that basis's solution."""
        xs, x_den = clear_denominators(x)
        hit = self._certified(x, xs, x_den)
        if hit is None:
            value, witness, entry = self._solve(x)
            return OValue(value, witness, _dual(entry))
        value, entry, z = hit
        witness = [Fraction(0)] * len(self.degrees)
        for col, v in zip(entry.cols, z):
            witness[col] = Fraction(v, entry.inverse_den * x_den)
        return OValue(value, tuple(witness), _dual(entry))

    def _certified(self, x, xs, x_den):
        """``(value, basis, z)`` at ``x = xs / x_den`` for a kept basis
        optimal there, with ``z`` its basic solution ``B^-1 xs`` scaled by
        ``inverse_den``; or None.

        Every kept basis is dual feasible (only an optimal solve keeps one),
        so one whose basic solution is nonnegative and meets the dropped
        rows is optimal at ``x`` by weak duality, and its dual bound
        ``y . x`` is the value.  The most recently certified basis is tried
        first.  Otherwise only a basis with the largest bound can be
        optimal, so those are tried, and the one that certifies ``x`` moves
        to the front.  The support test runs only when no kept basis
        certifies ``x``: a point outside the support raises OutsideSupport
        there.  A point of another dimension raises DimensionError.
        """
        if len(xs) != self.support.ambient_dim:
            raise DimensionError(
                f"point has dimension {len(xs)}, cone is in dimension "
                f"{self.support.ambient_dim}"
            )
        kept = self.bases
        entries = kept.entries
        if entries:
            entry = entries[0]
            z = self._basic_solution(entry, xs)
            if z is not None:
                return Fraction(dot(entry.dual_num, xs), entry.dual_den * x_den), entry, z
            # the bounds y . x of the other bases, all scaled by dual_den * x_den
            bounds = [dot(y, xs) for y in kept.duals[1:]]
            best = max(bounds, default=None)
            for i, bound in enumerate(bounds, 1):
                if bound != best:
                    continue
                entry = entries[i]
                z = self._basic_solution(entry, xs)
                if z is not None:
                    kept.promote(i)
                    return Fraction(best, kept.dual_den * x_den), entry, z
        # x_den > 0, so xs lies in the same cones as x
        if not self.support.contains(xs):
            raise OutsideSupport(f"point {tuple(x)} is outside the support cone")
        return None

    def _basic_solution(self, entry, xs):
        """The basic solution ``B^-1 xs`` of a kept basis, scaled by its
        ``inverse_den``, when it is nonnegative and meets the dropped rows;
        else None."""
        rows, cols, inverse_num, inverse_den = entry[:4]
        xk = [xs[r] for r in rows]
        z = [dot(row, xk) for row in inverse_num]
        if any(v < 0 for v in z):
            return None
        if len(rows) < len(xs) and any(
            sum(self.degrees[col][r] * v for col, v in zip(cols, z))
            != xs[r] * inverse_den
            for r in range(len(xs)) if r not in rows
        ):
            return None
        return z

    def _solve(self, x):
        """Solve the LP at ``x`` from scratch and keep its optimal basis."""
        A = [[d[row] for d in self.degrees] for row in range(len(x))]
        result = solve_min(A, x, self.mults)
        if result is INFEASIBLE:
            # contains() passed, so this is unreachable for consistent cones
            raise OutsideSupport(f"no representation of {tuple(x)} over the generators")
        value, witness, basis = result
        entry = _cached_basis(basis, self.mults, len(x))
        self.bases.add(entry)
        return value, witness, entry


class _CachedBasis(NamedTuple):
    """An optimal basis (see ``simplex.Basis``) with B^-1 and the dual
    ``y = c_B B^-1`` (zero on dropped rows) each over one common
    denominator, so that certifying a query takes integer arithmetic only."""

    rows: tuple
    cols: tuple
    inverse_num: tuple
    inverse_den: int
    dual_num: tuple
    dual_den: int


class _KeptBases:
    """The ``_CachedBasis`` entries kept for one LP, most recently certified
    first, and their duals over one common denominator.

    ``duals[i]`` is the dual of ``entries[i]`` times ``dual_den``, the lcm
    of the entries' dual denominators, so comparing two dual bounds takes
    one integer dot product each.  The denominator and the scaled duals
    change only when a solve adds a basis.
    """

    __slots__ = ("entries", "duals", "dual_den")

    def __init__(self):
        self.entries = []
        self.duals = []
        self.dual_den = 1

    def add(self, entry):
        """Keep a newly solved basis, in front."""
        den = lcm(self.dual_den, entry.dual_den)
        if den != self.dual_den:
            factor = den // self.dual_den
            self.duals = [tuple([v * factor for v in y]) for y in self.duals]
            self.dual_den = den
        factor = den // entry.dual_den
        self.entries.insert(0, entry)
        self.duals.insert(0, tuple([v * factor for v in entry.dual_num]))

    def promote(self, i):
        """Move the basis at index ``i`` to the front."""
        self.entries.insert(0, self.entries.pop(i))
        self.duals.insert(0, self.duals.pop(i))


@lru_cache(maxsize=BASIS_CACHE_SIZE)
def _optimal_bases(degrees, costs, den):
    """The ``_KeptBases`` found optimal by earlier solves of the LP with
    these degrees and heights ``costs / den`` (``clear_denominators`` of the
    multiplicities); ``OrderFunction`` adds to it.

    Keyed on the data themselves, so a basis never serves another LP.
    """
    return _KeptBases()


def _cached_basis(basis, heights, n):
    rows, cols, inverse = basis
    flat, inverse_den = clear_denominators([v for row in inverse for v in row])
    k = len(rows)
    inverse_num = tuple(flat[i * k:(i + 1) * k] for i in range(len(cols)))
    dual = [Fraction(0)] * n
    for j, row in enumerate(rows):
        dual[row] = sum(heights[col] * inverse[i][j] for i, col in enumerate(cols))
    dual_num, dual_den = clear_denominators(dual)
    return _CachedBasis(rows, cols, inverse_num, inverse_den, dual_num, dual_den)


def _dual(entry):
    return tuple([Fraction(v, entry.dual_den) for v in entry.dual_num])


def linearity_fan(datum, valuation, support=None):
    """Fan of maximal cones on which the order function is linear, each
    cell labelled ``(functional,)`` with the order's functional there.

    Built as the regular subdivision induced by lifting generator i to
    (multidegree_i, multiplicity_i) and projecting the lower facets of the
    lifted cone.
    """
    if support is None:
        support = support_cone(datum)
    degrees = [g.multidegree for g in datum.generators]
    heights = _mults(datum, valuation)
    n = support.ambient_dim
    lifted = [tuple(d) + (h,) for d, h in zip(degrees, heights)]
    lifted_cone = cone_from_rays(lifted)
    if lifted_cone.dim == support.dim:
        # heights are linear on the support: a single cell
        return make_fan([support], support, [(_flat_functional(lifted_cone, n),)])
    cells = []
    labels = []
    for hs in lifted_cone.facets:
        w, c = hs.normal[:n], hs.normal[n]
        if c <= 0:
            continue
        members = [r[:n] for r in lifted_cone.rays if hs.evaluate(r) == 0]
        cell = cone_from_rays(members)
        if cell.dim != support.dim:
            continue
        cells.append(cell)
        labels.append((tuple(Fraction(-wi, c) for wi in w),))
    return make_fan(cells, support, labels)


def _flat_functional(lifted_cone, n):
    """Linear functional t = f(x) on a lifted cone of ungained dimension."""
    for eq in lifted_cone.equations:
        if eq[n] != 0:
            return tuple(Fraction(-eq[i], eq[n]) for i in range(n))
    raise AssertionError("flat lifted cone without a height equation")


def chamber_fan(datum, support=None, refine=True):
    """Decomposition of the support cone on which every tracked order
    function is linear, optionally sliced by all facet hyperplanes.  Each
    chamber is labelled with one functional per valuation, in order."""
    if support is None:
        support = support_cone(datum)
    if not datum.valuations:
        fan = make_fan([support], support)
    else:
        fan = common_refinement([linearity_fan(datum, v, support) for v in datum.valuations])
    if refine:
        fan = hyperplane_refinement(fan)
    return fan


def cell_functionals(datum, fan, support=None):
    """Per-valuation linear functionals on every cell of a chamber fan,
    read off the cell labels that ``chamber_fan`` gives it.

    ``support`` is accepted for compatibility and does not affect the
    result.  A fan whose labels do not hold one functional per valuation,
    such as one read back by ``fan_from_json`` or built by hand, raises
    InconsistentInput.
    """
    count = len(datum.valuations)
    if any(len(label) != count for label in fan.labels):
        raise InconsistentInput(
            f"fan cells do not carry one functional per valuation ({count}); use chamber_fan"
        )
    return {
        valuation: tuple(label[i] for label in fan.labels)
        for i, valuation in enumerate(datum.valuations)
    }


def _unit_index(degrees, n):
    """Map coordinate -> generator index of a cheapest unit-vector generator."""
    units = {}
    for i, d in enumerate(degrees):
        nz = [j for j, x in enumerate(d) if x != 0]
        if len(nz) == 1 and d[nz[0]] == 1:
            units.setdefault(nz[0], []).append(i)
    if len(units) < n:
        return None
    return units


def _enumerate_min(degrees, heights, target, budget):
    """Plain bounded DFS over all integer representations of ``target``.

    The heights are scaled once to integers over their least common
    denominator, so costs, the best value and every pruning comparison are
    ints; only the result is divided by the denominator.  Returns (best
    value, nodes left) or (None, nodes left) if no integer representation
    exists.
    """
    s = len(degrees)
    costs, den = clear_denominators(heights)
    # per generator i: the coordinates that bound its coefficient, and the
    # coordinates that no generator from i on can cover
    positive = [[(j, dj) for j, dj in enumerate(d) if dj > 0] for d in degrees]
    uncovered = [
        [j for j in range(len(target)) if all(d[j] == 0 for d in degrees[i:])]
        for i in range(s)
    ]
    best = None

    def recurse(i, remaining, cost, nodes):
        nonlocal best
        if nodes <= 0:
            raise BudgetExceeded("integer enumeration budget exhausted")
        nodes -= 1
        if best is not None and cost >= best:
            return nodes
        if not any(remaining):
            best = cost
            return nodes
        if i == s:
            return nodes
        for j in uncovered[i]:
            if remaining[j] > 0:
                return nodes  # coordinate j can no longer be covered
        # a generator with no positive coordinate covers nothing
        bound = min([remaining[j] // dj for j, dj in positive[i]], default=0)
        d = degrees[i]
        c = costs[i]
        for a in range(bound, -1, -1):
            rem = tuple([r - a * dj for r, dj in zip(remaining, d)])
            nodes = recurse(i + 1, rem, cost + a * c, nodes)
        return nodes

    nodes = recurse(0, tuple(target), 0, budget)
    return (None if best is None else Fraction(best, den)), nodes


def _reduced_min(degrees, heights, units, target, budget):
    """Exact minimum over integer representations when unit generators
    cover every coordinate.

    Any leftover is absorbed by units, so only generators with negative
    reduced cost need enumerating; this is a reformulation, not a
    heuristic, and returns the same optimum as the plain search.  Like
    ``_enumerate_min`` it works in integers over the heights' least common
    denominator.
    """
    n = len(target)
    costs, den = clear_denominators(heights)
    unit_cost = [min(costs[i] for i in units[j]) for j in range(n)]
    base = dot(unit_cost, target)
    items = []
    for h, d in zip(costs, degrees):
        w = h - dot(unit_cost, d)
        if w < 0:
            items.append((w, [(j, dj) for j, dj in enumerate(d) if dj > 0], d))
    items.sort(key=lambda it: it[0])
    best = 0

    def bound_below(i, remaining):
        return sum(w * min([remaining[j] // dj for j, dj in positive])
                   for w, positive, _ in items[i:])

    def recurse(i, remaining, acc, nodes):
        nonlocal best
        if nodes <= 0:
            raise BudgetExceeded("integer enumeration budget exhausted")
        nodes -= 1
        if acc < best:
            best = acc
        if i == len(items):
            return nodes
        if acc + bound_below(i, remaining) >= best:
            return nodes
        w, positive, d = items[i]
        cap = min([remaining[j] // dj for j, dj in positive])
        for a in range(cap, -1, -1):
            rem = tuple([r - a * dj for r, dj in zip(remaining, d)])
            nodes = recurse(i + 1, rem, acc + a * w, nodes)
        return nodes

    nodes = recurse(0, tuple(target), 0, budget)
    return Fraction(base + best, den), nodes


def _check_level(k, name="level k"):
    """Reject a level, or a bound on levels called ``name``, that is not a
    positive ``int``: another type, a ``bool`` included, raises TypeError
    rather than being coerced, and ``k <= 0`` raises ValueError."""
    if type(k) is not int:
        raise TypeError(f"{name} must be an int, got {k!r}")
    if k <= 0:
        raise ValueError(f"{name} must be positive, got {k}")


def integer_order(datum, valuation, x, k, node_budget=DEFAULT_NODE_BUDGET):
    """(1/k) times the minimal multiplicity over integer representations of
    ``k*x``; NO_REPRESENTATION if none exists.

    The branch-and-bound runs in integers: the heights are scaled to ints
    over their least common denominator, and the value is divided by that
    denominator and by k only at the end.  ``x`` must be exact (``int`` or
    ``Fraction`` entries); a float raises TypeError.  A level that is not an
    ``int`` (a float or a bool, too) raises TypeError, and ``k <= 0``
    ValueError.
    """
    _check_level(k)
    xs, x_den = clear_denominators(x)
    if any(v * k % x_den for v in xs):
        raise ValueError(f"{k} * {tuple(x)} is not an integer point")
    target = tuple(v * k // x_den for v in xs)
    if any(t < 0 for t in target):
        return NO_REPRESENTATION
    degrees = [tuple(g.multidegree) for g in datum.generators]
    heights = _mults(datum, valuation)
    units = _unit_index(degrees, len(target))
    if units is not None:
        value, _ = _reduced_min(degrees, heights, units, target, node_budget)
    else:
        value, _ = _enumerate_min(degrees, heights, target, node_budget)
    if value is None:
        return NO_REPRESENTATION
    return value / k


def _representable(degrees, target, failed, budget):
    """Whether ``target`` is a nonnegative integer combination of
    ``degrees``: ``_enumerate_min``'s depth-first search with no costs,
    stopped at the first representation.  Returns (found, nodes left).

    ``failed`` holds the (generator index, remainder) states already known
    to have no completion from that generator on; the search adds the ones
    it finds.  They do not depend on the target, so the caller may share
    one set across targets.  A state found in it costs no node.
    """
    s = len(degrees)
    positive = [[(j, dj) for j, dj in enumerate(d) if dj > 0] for d in degrees]
    uncovered = [
        [j for j in range(len(target)) if all(d[j] == 0 for d in degrees[i:])]
        for i in range(s)
    ]
    nodes = budget

    def recurse(i, remaining):
        nonlocal nodes
        if not any(remaining):
            return True
        if i == s or (i, remaining) in failed:
            return False
        if nodes <= 0:
            raise BudgetExceeded("stabilization search budget exhausted")
        nodes -= 1
        # a coordinate that no generator from i on covers fails the state
        if not any(remaining[j] > 0 for j in uncovered[i]):
            bound = min([remaining[j] // dj for j, dj in positive[i]], default=0)
            d = degrees[i]
            for a in range(bound, -1, -1):
                if recurse(i + 1, tuple([r - a * dj for r, dj in zip(remaining, d)])):
                    return True
        failed.add((i, remaining))
        return False

    return recurse(0, tuple(target)), nodes


def stabilization_multiple(datum, valuation, x, k_max, support=None,
                           node_budget=DEFAULT_NODE_BUDGET):
    """Smallest k <= k_max with integer-level value equal to the LP value,
    or None when no such k exists within the bound.  Only the k with k*x
    an integer point, the multiples of x's common denominator, are tried.

    Decided by complementary slackness, without minimising.  Let y be the
    LP's optimal dual, read off the basis optimal at x, so ``y . d_i <= h_i``
    for every generator.  A representation a of k*x costs
    ``sum a_i h_i >= y . k x = k LP(x)``, with equality exactly when
    ``a_i > 0`` only on the tight generators, those with ``y . d_i == h_i``.
    So level k reaches the LP value iff k*x is a nonnegative integer
    combination of the tight generators of nonzero multidegree, and a
    feasibility search over those (``_representable``) decides each k.
    Tightness is tested in integers.  The failed search states are shared
    by every k of the query, and ``node_budget`` bounds the nodes of the
    whole query, not of each k: BudgetExceeded when it runs out.  A
    ``k_max`` that is not an ``int`` (a float or a bool, too) raises
    TypeError, and ``k_max <= 0`` ValueError.
    """
    _check_level(k_max, "k_max")
    order = OrderFunction(datum, valuation, support)
    xs, step = clear_denominators(x)
    hit = order._certified(x, xs, step)
    entry = order._solve(x)[2] if hit is None else hit[1]
    hs, h_den = clear_denominators(order.mults)
    tight = [
        d for d, h in zip(order.degrees, hs)
        if any(d) and dot(entry.dual_num, d) * h_den == h * entry.dual_den
    ]
    failed = set()
    nodes = node_budget
    for k in range(step, k_max + 1, step):
        found, nodes = _representable(tight, [v * (k // step) for v in xs], failed, nodes)
        if found:
            return k
    return None
