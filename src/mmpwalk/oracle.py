"""Seeded instance generation and independent small-scale oracles.

The enumeration oracle shares no code with the LP path; agreement between
the two on random instances is the package's main self-check.
"""

import random
import warnings
from dataclasses import dataclass
from fractions import Fraction

from .cones import cone_from_rays
from .errors import BudgetExceeded, DimensionError
from .linalg import clear_denominators
from .orders import DEFAULT_NODE_BUDGET, _check_exact, _check_level, _mults, _named
from .ring import GeneratorDatum, PushforwardDatum, RingDatum


@dataclass(frozen=True)
class InstanceSpec:
    r: int
    generator_count: int
    valuation_count: int
    coordinate_bound: int
    seed: int


def random_instance(spec):
    """Deterministic random ring datum.

    The r+1 unit multidegrees are always included, so the support cone is
    the full orthant and every lattice point has an integer representation.
    """
    if min(spec.r, spec.generator_count, spec.valuation_count,
           spec.coordinate_bound) < 1:
        raise ValueError("all instance bounds must be positive")
    rng = random.Random(spec.seed)
    n = spec.r + 1
    count = spec.generator_count
    if count < n:
        warnings.warn(
            f"generator_count {count} below r+1={n}; clamping up", stacklevel=2
        )
        count = n
    degrees = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    while len(degrees) < count:
        d = tuple(rng.randint(0, spec.coordinate_bound) for _ in range(n))
        if any(x != 0 for x in d):
            degrees.append(d)
    valuations = tuple(f"G{i + 1}" for i in range(spec.valuation_count))
    generators = []
    for d in degrees:
        mults = {}
        for v in valuations:
            denom = rng.randint(1, 2)
            mults[v] = Fraction(rng.randint(0, spec.coordinate_bound * denom), denom)
        generators.append(GeneratorDatum(multidegree=d, mults=mults))
    matrix = tuple(
        tuple(
            Fraction(1 if j == i else (rng.randint(-3, 3) if j == n - 1 else 0))
            for j in range(n)
        )
        for i in range(spec.r)
    )
    labels = ("K",) + tuple(f"D{i + 1}" for i in range(spec.r))
    return RingDatum(
        r=spec.r,
        labels=labels,
        generators=tuple(generators),
        valuations=valuations,
        numerical=matrix,
    )


def _min_over_integer_representations(degrees, costs, target, budget):
    """Exhaustive DFS, no pruning beyond feasibility bounds.  Returns (the
    least total of ``costs`` or None, nodes left); ``o_value_oracle``
    passes ints, so the sums are int additions.

    Deliberately kept independent of the LP and of the smarter
    reduced-cost search.
    """
    s = len(degrees)
    best = [None]

    def recurse(i, remaining, cost, nodes):
        if nodes <= 0:
            raise BudgetExceeded("oracle enumeration budget exhausted")
        nodes -= 1
        if all(v == 0 for v in remaining):
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return nodes
        if i == s:
            return nodes
        if best[0] is not None and cost >= best[0]:
            return nodes
        d = degrees[i]
        bound = min(
            (remaining[j] // d[j] for j in range(len(d)) if d[j] > 0),
            default=None,
        )
        if bound is None:
            return recurse(i + 1, remaining, cost, nodes)
        for a in range(bound, -1, -1):
            rem = tuple(r - a * dj for r, dj in zip(remaining, d))
            nodes = recurse(i + 1, rem, cost + a * costs[i], nodes)
        return nodes

    nodes = recurse(0, tuple(target), 0, budget)
    return best[0], nodes


def o_value_oracle(datum, valuation, x, k_list, budget=DEFAULT_NODE_BUDGET):
    """Enumeration values (1/k)*min over integer representations of k*x,
    one per requested k; None marks a k where k*x is not an integer point
    or has no integer representation.

    Levels are taken one at a time, so ``k_list`` may be a long ``range``,
    and ``budget`` bounds the whole call: each level costs one node plus
    its search.  A multiplicity or an entry of ``x`` that is not an ``int``
    or a ``Fraction``, such as a float, raises TypeError rather than being
    coerced, and so does a level that is not an ``int`` (a float or a
    bool, too).  A level ``k <= 0`` raises ValueError, and a multidegree
    whose length is not the point's DimensionError.
    """
    return _o_values(datum, valuation, x, k_list, budget)[0]


def _o_values(datum, valuation, x, k_list, budget):
    """``o_value_oracle``'s values and the nodes of ``budget`` left, so
    that one budget can bound several calls."""
    degrees = [tuple(g.multidegree) for g in datum.generators]
    # the search adds ints; each value is divided by the heights' common
    # denominator at the end
    mults = _mults(datum, valuation)
    _check_exact(mults, valuation)
    costs, den = clear_denominators(mults)
    xs, x_den = clear_denominators(x)
    if any(len(d) != len(xs) for d in degrees):
        raise DimensionError(f"point {_named(xs, x_den)} and the multidegrees differ in dimension")
    out = []
    for k in k_list:
        _check_level(k)
        if budget <= 0:
            raise BudgetExceeded("oracle enumeration budget exhausted")
        budget -= 1
        if any(v * k % x_den for v in xs):
            out.append(None)
            continue
        target = tuple(v * k // x_den for v in xs)
        best, budget = _min_over_integer_representations(degrees, costs, target, budget)
        out.append(None if best is None else Fraction(best, den * k))
    return tuple(out), budget


def builtin_examples():
    """Catalog of named hand-built ring data."""
    e = "E"
    blowup = RingDatum(
        r=1,
        labels=("K_X+Delta", "D1"),
        generators=(
            GeneratorDatum(multidegree=(1, 0), mults={e: Fraction(1)}),
            GeneratorDatum(multidegree=(0, 1), mults={e: Fraction(0)}),
            GeneratorDatum(multidegree=(1, 1), mults={e: Fraction(0)}),
        ),
        valuations=(e,),
        numerical=((Fraction(2), Fraction(6)), (Fraction(1), Fraction(-1))),
        nef=cone_from_rays([(1, 0), (1, -1)]),
        pushforwards=(
            # contracting the exceptional curve lands on the plane; classes
            # there are multiples of the hyperplane, nef iff nonnegative
            PushforwardDatum(
                model_id="P2",
                matrix=((Fraction(2), Fraction(6)),),
                nef=cone_from_rays([(1,)]),
            ),
        ),
    )
    no_valuations = RingDatum(
        r=1,
        labels=("K", "D1"),
        generators=(
            GeneratorDatum(multidegree=(1, 0), mults={}),
            GeneratorDatum(multidegree=(0, 1), mults={}),
        ),
        valuations=(),
        numerical=((Fraction(1), Fraction(0)),),
    )
    fractional = RingDatum(
        r=1,
        labels=("K", "D1"),
        generators=(
            GeneratorDatum(multidegree=(2, 1), mults={"G": Fraction(1)}),
            GeneratorDatum(multidegree=(1, 2), mults={"G": Fraction(0)}),
        ),
        valuations=("G",),
        numerical=((Fraction(1), Fraction(0)),),
    )
    return {
        "blowup-P2": blowup,
        "quadrant-trivial": no_valuations,
        "fractional-vertex": fractional,
    }
