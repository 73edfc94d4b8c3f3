"""Asymptotic orders of vanishing as exact LP value functions.

For a tracked valuation the order at a point of the support cone is the
optimum of an exact rational LP over the generator data.  Its linearity
domains form a fan: lift each generator by its integer cost, its
multiplicity times the multiplicities' common denominator, take the cone
over the lifted generators, and project the lower facets back down, each
cell read off the lifted cone's one conversion.  The chamber fan is the
common refinement of these fans over all valuations, further sliced so
that every cell respects every facet hyperplane.  Each cell carries its
functionals through both refinements as its label; the checks compare
them with LP values from ``simplex``.

Every query goes through the one ``OrderFunction`` of its LP data, the
integer degrees and the multiplicities, which ``order_function(datum,
valuation)`` finds in one least-recently-used cache keyed on those data.
It holds the function it found last, when the generators and every
multidegree are exact tuples, with the generators tuple and the
multiplicity objects it read, and answers a query of that tuple whose
every multiplicity is still the same object by identity, without the key;
``forget_order_functions()`` drops it with the cache.
It turns the multiplicities into integer costs over one denominator once,
and reads every query point once, in ``_point``, as integer numerators
over one denominator; the LP is solved on the numerators and the costs,
the integer-level searches minimise the costs, and a ``Fraction`` is
built only for a value returned to the caller.  It keeps the optimal
bases of earlier solves of its LP, each a ``simplex.Basis`` with B^-1 and
the dual of the integer costs in integers.  The optimal basis is constant
on each linearity domain, so every query takes one path: the kept bases
are scanned, most recently certified first, and the first that LP
duality certifies optimal at the point answers it.  A run of queries in
one chamber thus costs one integer feasibility test each, which builds
B^-1 x one row at a time and stops at its first negative entry.  Only
when no kept basis answers is the LP solved; its phase 1 is feasible
exactly on the support cone, the cone over the degrees, so it decides
membership.  The new basis goes in front and answers like a kept one.
``ratio(x)`` returns the exact order as integers ``(num, den)``, ``den >
0``, and builds no ``Fraction``: the checks, which make many queries,
compare it cross-multiplied.  ``certificate(x)``, which is
``asymptotic_order``, returns the same order as an ``OValue``, whose
witness and certifying dual are built from the basis when first
read.  Values are exact and unique.  When several optimal vertices tie,
which witness is returned depends on the earlier queries of the process.
"""

from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import is_, mul

from .cones import (PolyCone, _maximal, _tight_mask, common_refinement, cone_from_rays,
                    hyperplane_refinement, make_fan)
from .errors import (BudgetExceeded, DimensionError, InconsistentInput, InvalidCone,
                     OutsideSupport)
from .linalg import _EXACT_TYPES, _INT_TYPES, clear_denominators, dot, primitive, reduce_mod_rowspace
from .ring import support_cone
from .simplex import INFEASIBLE, UNBOUNDED, solve_min

DEFAULT_NODE_BUDGET = 2_000_000

# LP data whose order functions, with their kept bases, are cached, least
# recently used first out
ORDER_CACHE_SIZE = 4096


# the integer-level value of a point with no integer representation, as
# ``o_value_oracle`` says it
NO_REPRESENTATION = None


class OValue:
    """Order value with its optimality certificate.

    ``witness`` is an optimal representation (generator coefficients) and
    ``dual`` a vector y with ``y . d_i <= h_i`` for every generator degree
    d_i and multiplicity h_i and ``y . x == value``: by weak duality no
    representation of ``x`` costs less than ``value``.

    ``OrderFunction.certificate`` builds only ``value``; the witness and
    the dual are cached properties, built from the optimal basis on first
    read.  Equality, hashing and ``repr`` are over ``(value, witness,
    dual)``, and the attributes are read-only.
    """

    def __init__(self, value, witness, dual):
        self.__dict__.update(value=value, witness=witness, dual=dual)

    @classmethod
    def _from_basis(cls, value, basis, z, x_den, order):
        """An OValue of ``value`` at a point of denominator ``x_den`` whose
        witness and dual are built from ``basis``, a kept basis of the
        ``OrderFunction`` ``order``, and its basic solution ``z`` there
        (``OrderFunction._basic_solution``)."""
        self = object.__new__(cls)
        self.__dict__.update(value=value, _basis=(basis, z, x_den, order))
        return self

    @cached_property
    def witness(self):
        basis, z, x_den, order = self._basis
        witness = [Fraction(0)] * len(order.degrees)
        for col, v in zip(basis.cols, z):
            witness[col] = Fraction(v, basis.inverse_den * x_den)
        return tuple(witness)

    @cached_property
    def dual(self):
        basis, _, _, order = self._basis
        # the basis's dual is that of the integer costs, den times the order's
        den = basis.dual_den * order.den
        return tuple([Fraction(v, den) for v in basis.dual_num])

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.value, self.witness, self.dual) == (other.value, other.witness, other.dual)

    def __hash__(self):
        return hash((self.value, self.witness, self.dual))

    def __repr__(self):
        return (f"{type(self).__qualname__}(value={self.value!r}, witness={self.witness!r}, "
                f"dual={self.dual!r})")

    def __reduce__(self):
        return OValue, (self.value, self.witness, self.dual)


def _missing(generators, valuation):
    """The InconsistentInput for the first generator with no multiplicity
    at ``valuation``."""
    i = next(i for i, g in enumerate(generators) if valuation not in g.mults)
    return InconsistentInput(f"generator {i} has no multiplicity for valuation {valuation!r}")


def _check_exact(mults, valuation):
    """Raise TypeError on a multiplicity inexact by ``linalg``'s rule."""
    if not _EXACT_TYPES.issuperset(map(type, mults)):
        raise TypeError(f"multiplicities at {valuation!r} are not exact: {tuple(mults)!r}")


def _mults(datum, valuation):
    """The generators' multiplicities at ``valuation``: a missing one raises
    InconsistentInput, and one inexact by ``linalg``'s rule TypeError."""
    try:
        mults = tuple([g.mults[valuation] for g in datum.generators])
    except KeyError:
        raise _missing(datum.generators, valuation) from None
    _check_exact(mults, valuation)
    return mults


def asymptotic_order(datum, valuation, x, support=None):
    """Exact order of vanishing at ``x``: min of generator multiplicities
    over all nonnegative rational representations of ``x``.

    Returns ``order_function(datum, valuation).certificate(x)``, an OValue
    with an optimal basic witness and the dual that certifies it.  ``x``
    outside the closed support cone raises OutsideSupport (distinct from
    value 0).  ``support`` is accepted for compatibility and not read.
    """
    return order_function(datum, valuation).certificate(x)


def order_function(datum, valuation):
    """The one ``OrderFunction`` of the datum's LP data at ``valuation``:
    the integer degrees and the multiplicities, checked by ``_mults``.  The
    key holds the multiplicities as (numerator, denominator) pairs, so an
    ``int`` and an equal ``Fraction`` share one function.  No generators,
    or only zero degrees, raise InvalidCone, and multidegrees of mixed
    lengths DimensionError.

    Every call reads the multiplicities again, since a dict changes in
    place.  A call whose generators tuple is the held one and whose every
    multiplicity is the held object has the held LP data, so it returns
    the held function without the key, whatever its valuation.  A miss
    looks its key up in the cache and holds what it finds, with the tuple
    and the multiplicities, only when the generators and every multidegree
    are exact tuples, which cannot change in place; else it holds nothing.
    ``forget_order_functions`` drops the held function with the cache."""
    generators = datum.generators
    try:
        mults = [g.mults[valuation] for g in generators]
    except KeyError:
        raise _missing(generators, valuation) from None
    held = _held[0]
    if held is not None and held[0] is generators and all(map(is_, mults, held[1])):
        return held[2]
    _check_exact(mults, valuation)
    function = _order_functions(
        tuple([tuple(g.multidegree) for g in generators]),
        tuple([m.as_integer_ratio() for m in mults]),
    )
    exact = type(generators) is tuple and all(type(g.multidegree) is tuple for g in generators)
    _held[0] = (generators, mults, function) if exact else None
    return function


def forget_order_functions():
    """Empty the order-function cache and drop the held function, so that
    the next query of every LP datum builds its function and solves its LP
    afresh, as in a new process."""
    _order_functions.cache_clear()
    _held[0] = None


class OrderFunction:
    """The order function of one LP datum, built once by ``order_function``
    from the degrees and the multiplicities' (numerator, denominator) pairs.

    Holds the degrees, the integer ``costs`` (the multiplicities times
    ``den``, their least common denominator) and the optimal ``Basis``es of
    earlier solves of its LP on those costs, most recently certified first,
    so a kept basis's dual is ``den`` times the order's.  Only the value
    that ``certificate`` returns is a ``Fraction``.  ``ratio(x)`` is the
    exact order at ``x`` as integers ``(num, den)``, ``den > 0``, not in
    lowest terms; ``certificate(x)`` is the same order as an ``OValue``,
    with a witness and a dual.  Both read ``x`` by ``_point`` and answer
    from the one basis that ``_basis`` finds optimal there, kept or newly
    solved, so they keep the bases alike.  A point outside the closed
    support cone raises OutsideSupport from each, and a point of another
    dimension DimensionError.
    """

    __slots__ = ("degrees", "costs", "den", "bases")

    def __init__(self, degrees, ratios):
        if not degrees:
            raise InvalidCone("no generators given")
        if any(len(d) != len(degrees[0]) for d in degrees):
            raise DimensionError("generators have mixed dimensions")
        if not any(map(any, degrees)):
            raise InvalidCone("all generators are zero")
        self.degrees = degrees
        self.den = den = lcm(*[d for _, d in ratios])
        self.costs = tuple([n * (den // d) for n, d in ratios])
        self.bases = []

    def ratio(self, x):
        """The order at ``x`` as integers ``(num, den)``, ``den > 0``, with
        ``certificate(x).value == Fraction(num, den)``; builds no
        ``Fraction``.  The pair is not in lowest terms, so callers compare
        it cross-multiplied."""
        xs, x_den = self._point(x)
        basis, _ = self._basis(xs, x_den)
        return dot(basis.dual_num, xs), basis.dual_den * x_den * self.den

    def certificate(self, x):
        """The order at ``x`` as an ``OValue`` that builds its witness, the
        optimal basis's solution at ``x``, and that basis's dual when they
        are first read."""
        xs, x_den = self._point(x)
        basis, z = self._basis(xs, x_den)
        return OValue._from_basis(
            Fraction(dot(basis.dual_num, xs), basis.dual_den * x_den * self.den),
            basis, z, x_den, self,
        )

    def _point(self, x):
        """``(xs, x_den)`` with ``x == xs / x_den``, the one reading of a
        query point: an ``int`` tuple as it is, anything else once through
        ``clear_denominators``.  Another dimension raises DimensionError."""
        x_den = 1
        if type(x) is not tuple or not _INT_TYPES.issuperset(map(type, x)):
            x, x_den = clear_denominators(x)
        n = len(self.degrees[0])
        if len(x) != n:
            raise DimensionError(f"point has dimension {len(x)}, cone is in dimension {n}")
        return x, x_den

    def _basis(self, xs, x_den):
        """``(basis, z)`` for a basis optimal at ``x = xs / x_den``, with
        ``z`` its basic solution ``B^-1 xs`` scaled by ``inverse_den``.

        Every kept basis is dual feasible (only an optimal solve keeps one),
        so the first, in order, whose basic solution is nonnegative and
        meets the dropped rows is optimal at ``x`` by weak duality, and its
        dual bound ``y . x`` is the value; it moves to the front.  When no
        kept basis certifies ``x``, the LP is solved on ``xs``: scaling the
        right-hand side by ``x_den > 0`` changes no sign and no ratio that
        the simplex compares, so it pivots alike to the same basis, which
        goes in front.  Phase 1 is infeasible exactly when ``x`` is outside
        the cone over the degrees, which raises OutsideSupport.
        """
        kept = self.bases
        for i, basis in enumerate(kept):
            z = self._basic_solution(basis, xs)
            if z is not None:
                if i:
                    kept.insert(0, kept.pop(i))
                return basis, z
        A = [[d[row] for d in self.degrees] for row in range(len(xs))]
        basis = solve_min(A, xs, self.costs)
        if basis is INFEASIBLE:
            raise OutsideSupport(f"point {_named(xs, x_den)} is outside the support cone")
        if basis is UNBOUNDED:  # a negative multiplicity; validation rejects it
            raise InvalidCone(f"the order LP at {_named(xs, x_den)} is unbounded")
        kept.insert(0, basis)
        return basis, self._basic_solution(basis, xs)

    def _basic_solution(self, basis, xs):
        """The basic solution ``B^-1 xs`` of a basis, scaled by its
        ``inverse_den``, when it is nonnegative and meets the dropped rows;
        else None.

        The test stops at the first negative entry: z is built one row of
        B^-1 at a time, so a basis that does not certify ``xs`` costs only
        the rows up to that entry.  A basis that dropped no row, as every
        basis of a full-dimensional cone does, reads ``xs`` itself; one
        that dropped rows reads its kept rows and then checks the others.
        """
        rows, cols, inverse_num, inverse_den = basis[:4]
        xk = xs if len(rows) == len(xs) else [xs[r] for r in rows]
        z = []
        for row in inverse_num:
            v = sum(map(mul, row, xk))
            if v < 0:
                return None
            z.append(v)
        if len(rows) < len(xs) and any(
            sum(self.degrees[col][r] * v for col, v in zip(cols, z))
            != xs[r] * inverse_den
            for r in range(len(xs)) if r not in rows
        ):
            return None
        return z


# the one cache: (degrees, multiplicity ratios) -> their OrderFunction
_order_functions = lru_cache(maxsize=ORDER_CACHE_SIZE)(OrderFunction)

# ``order_function``'s held function, as (generators, multiplicities read,
# function) of exact tuples, or None; set in place, never rebound
_held = [None]


def _named(xs, x_den):
    """The point ``xs / x_den`` for a message, its entries in lowest terms."""
    return f"({', '.join([str(Fraction(v, x_den)) for v in xs])})"


def linearity_fan(datum, valuation, support=None):
    """Fan of maximal cones on which the order function is linear, each
    cell labelled ``(functional,)`` with the order's functional there.

    Built as the regular subdivision induced by lifting generator i to
    (multidegree_i, cost_i) and projecting the lower facets of the lifted
    cone.  The costs are the multiplicities times ``den``, their least
    common denominator, read off the datum's ``order_function``, so the
    lifted cone is integer and its conversion builds no ``Fraction``.
    Scaling the vertical axis by ``den`` keeps which facets are lower and
    which rays they hold, so the cells are those of the multiplicities'
    lifting, and on a lower facet (w, c) the order is t = -w.x / (c den).
    Every cell has the support's dimension: when the lifted cone gains a
    dimension its span holds the vertical axis e_t, a lower facet has
    c > 0, so e_t is not in the facet's span, and the projection is
    injective there.  Each cell is read off the lifted cone: the facet's
    rays, projected; the support's equations; and a facet c w_G - c_G w
    for each facet (w_G, c_G) whose tight set there ``_maximal`` keeps.
    Every tight set is read off the lifted cone's facet-by-ray masks,
    computed once.  A lifted cone with a line, which no validated datum
    has, raises InvalidCone.
    """
    if support is None:
        support = support_cone(datum)
    n = support.ambient_dim
    order = order_function(datum, valuation)
    costs, den = order.costs, order.den
    lifted_cone = cone_from_rays([tuple(g.multidegree) + (h,)
                                  for g, h in zip(datum.generators, costs)])
    if lifted_cone.dim == support.dim:
        # costs are linear on the support: a single cell, where t = f(x)
        eq = next(eq for eq in lifted_cone.equations if eq[n] != 0)
        return make_fan([support], support,
                        [(tuple(Fraction(-a, eq[n] * den) for a in eq[:n]),)])
    if not lifted_cone.is_pointed():
        raise InvalidCone(f"the lifted cone at valuation {valuation!r} holds a line, so its "
                          "lower facets do not fix the cells; multidegrees must be nonnegative")
    normals = lifted_cone.facets
    tight = [_tight_mask(f, lifted_cone.rays) for f in normals]  # each facet's rays
    cells, labels = [], []
    for normal, lower in zip(normals, tight):
        if normal[n] <= 0:
            continue
        w, c = normal[:n], normal[n]
        members = [r for i, r in enumerate(lifted_cone.rays) if lower >> i & 1]
        facets = {reduce_mod_rowspace([c * a - g[n] * b for a, b in zip(g, w)], support.equations)
                  for g in _maximal(normals, [m & lower for m in tight], lower)}
        rays = tuple(sorted([primitive(r[:n]) for r in members]))
        cells.append(PolyCone(n, rays, tuple(sorted(facets)), support.equations))
        labels.append((tuple(Fraction(-wi, c * den) for wi in w),))
    return make_fan(cells, support, labels)


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
    such as one built by hand, raises InconsistentInput.
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


def _search_tables(degrees, n):
    """The tables of the depth-first searches over representations by
    ``degrees`` of a point of dimension ``n``, per generator i: the
    coordinates that bound its coefficient, with its entries there, and
    the coordinates that no generator from i on can cover."""
    positive = [[(j, dj) for j, dj in enumerate(d) if dj > 0] for d in degrees]
    uncovered = [[j for j in range(n) if all(d[j] == 0 for d in degrees[i:])]
                 for i in range(len(degrees))]
    return positive, uncovered


def _enumerate_min(degrees, costs, target, budget):
    """Plain bounded DFS over all integer representations of ``target``.

    ``costs`` are an order function's integer costs, so the best value and
    every pruning comparison are ints.  Returns (least cost, nodes left),
    or (None, nodes left) if no integer representation exists.
    """
    s = len(degrees)
    positive, uncovered = _search_tables(degrees, len(target))
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
    return best, nodes


def _reduced_min(degrees, costs, units, target, budget):
    """Exact minimum over integer representations when unit generators
    cover every coordinate.

    Any leftover is absorbed by units, so only generators with negative
    reduced cost need enumerating; this is a reformulation, not a
    heuristic, and returns the same optimum as the plain search.  Like
    ``_enumerate_min`` it takes the integer costs and returns (least cost,
    nodes left).
    """
    n = len(target)
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
    return base + best, nodes


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
    ``k*x``; NO_REPRESENTATION, which is None, if none exists.

    The branch-and-bound runs on the order function's integer costs, and
    the least cost is divided by their denominator and by k only at the
    end.  ``x`` must be exact (``int`` or ``Fraction`` entries); a float
    raises TypeError, and a point of another dimension DimensionError.  A
    level that is not an ``int`` (a float or a bool, too) raises TypeError,
    and ``k <= 0`` ValueError.
    """
    _check_level(k)
    order = order_function(datum, valuation)
    xs, x_den = order._point(x)
    if any(v * k % x_den for v in xs):
        raise ValueError(f"{k} * {_named(xs, x_den)} is not an integer point")
    target = tuple(v * k // x_den for v in xs)
    if any(t < 0 for t in target):
        return NO_REPRESENTATION
    degrees = order.degrees
    units = _unit_index(degrees, len(target))
    if units is not None:
        best, _ = _reduced_min(degrees, order.costs, units, target, node_budget)
    else:
        best, _ = _enumerate_min(degrees, order.costs, target, node_budget)
    if best is None:
        return NO_REPRESENTATION
    return Fraction(best, order.den * k)


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
    positive, uncovered = _search_tables(degrees, len(target))
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
    combination of the tight generators of nonzero multidegree.  Tightness
    is tested in integers: the basis's dual is that of the integer costs,
    ``den`` times y, so generator i is tight when its dual product equals
    its integer cost.

    When the tight generators are exactly the basic columns, they are
    linearly independent, and x's only representation over them is the
    basic solution ``z / (inverse_den * step)``, nonnegative, with ``step``
    x's common denominator.  k*x is then an integer combination of them
    exactly when k is a multiple of ``step * inverse_den / gcd(inverse_den,
    *z)``, so the answer is read off the basis with no search.  Otherwise
    (a degenerate tight set) a feasibility search over the tight
    generators (``_representable``) decides each k; the failed search
    states are shared by every k of the query, and ``node_budget`` bounds
    the nodes of the whole query, not of each k: BudgetExceeded when it
    runs out.  Only such a query spends nodes.  A ``k_max`` that is not an
    ``int`` (a float or a bool, too) raises TypeError, and ``k_max <= 0``
    ValueError.  The basis comes from ``order_function``, as in
    ``asymptotic_order``; ``support`` is accepted and not read.
    """
    _check_level(k_max, "k_max")
    order = order_function(datum, valuation)
    xs, step = order._point(x)
    basis, z = order._basis(xs, step)
    tight = [
        i for i, (d, h) in enumerate(zip(order.degrees, order.costs))
        if any(d) and dot(basis.dual_num, d) == h * basis.dual_den
    ]
    if tight == sorted(basis.cols):
        k = step * (basis.inverse_den // gcd(basis.inverse_den, *z))
        return k if k <= k_max else None
    degrees = [order.degrees[i] for i in tight]
    failed = set()
    nodes = node_budget
    for k in range(step, k_max + 1, step):
        found, nodes = _representable(degrees, [v * (k // step) for v in xs], failed, nodes)
        if found:
            return k
    return None
