"""The integer-level searches against reference copies of their Fraction form.

``_enumerate_min`` and ``_reduced_min`` run in integers over the heights'
least common denominator.  The copies below are the searches as they were
written over ``Fraction`` costs; the integer searches must visit the same
nodes and return the same values, so they must also run out of budget at
the same budgets.  On data with unit generators both searches apply, and
both must also equal the oracle's separate exhaustive search.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from mmpwalk.errors import BudgetExceeded
from mmpwalk.oracle import _min_over_integer_representations
from mmpwalk.orders import _enumerate_min, _reduced_min, _unit_index

BUDGET = 1_000_000


def _reference_enumerate_min(degrees, heights, target, budget):
    s = len(degrees)
    best = [None]

    def recurse(i, remaining, cost, nodes):
        if nodes <= 0:
            raise BudgetExceeded("integer enumeration budget exhausted")
        nodes -= 1
        if best[0] is not None and cost >= best[0]:
            return nodes
        if all(v == 0 for v in remaining):
            best[0] = cost
            return nodes
        if i == s:
            return nodes
        d = degrees[i]
        bound = None
        for j, dj in enumerate(d):
            if dj > 0:
                b = remaining[j] // dj
                bound = b if bound is None else min(bound, b)
        later = [k for k in range(i + 1, s)]
        for j, rj in enumerate(remaining):
            if rj > 0 and d[j] == 0 and all(degrees[k][j] == 0 for k in later):
                return nodes  # coordinate j can no longer be covered
        for a in range(bound, -1, -1):
            rem = tuple(r - a * dj for r, dj in zip(remaining, d))
            nodes = recurse(i + 1, rem, cost + a * heights[i], nodes)
        return nodes

    nodes = recurse(0, tuple(target), Fraction(0), budget)
    return best[0], nodes


def _reference_reduced_min(degrees, heights, units, target, budget):
    n = len(target)
    unit_cost = []
    for j in range(n):
        unit_cost.append(min(heights[i] for i in units[j]))
    base = sum(uc * t for uc, t in zip(unit_cost, target))
    items = []
    for i, d in enumerate(degrees):
        w = heights[i] - sum(uc * dj for uc, dj in zip(unit_cost, d))
        if w < 0:
            items.append((w, d))
    items.sort(key=lambda it: it[0])
    best = [Fraction(0)]

    def bound_below(i, remaining):
        lb = Fraction(0)
        for w, d in items[i:]:
            cap = min(remaining[j] // d[j] for j in range(n) if d[j] > 0)
            lb += w * cap
        return lb

    def recurse(i, remaining, acc, nodes):
        if nodes <= 0:
            raise BudgetExceeded("integer enumeration budget exhausted")
        nodes -= 1
        if acc < best[0]:
            best[0] = acc
        if i == len(items):
            return nodes
        if acc + bound_below(i, remaining) >= best[0]:
            return nodes
        w, d = items[i]
        cap = min(remaining[j] // d[j] for j in range(n) if d[j] > 0)
        for a in range(cap, -1, -1):
            rem = tuple(r - a * dj for r, dj in zip(remaining, d))
            nodes = recurse(i + 1, rem, acc + a * w, nodes)
        return nodes

    nodes = recurse(0, tuple(target), Fraction(0), budget)
    return base + best[0], nodes


heights = st.builds(Fraction, st.integers(0, 8), st.integers(1, 3))


@st.composite
def levels_data(draw, with_units):
    """(degrees, heights, target): 1-3 coordinates, 1-4 nonzero generators
    with entries 0..3, and, ``with_units``, a unit generator per coordinate
    shuffled in among them."""
    n = draw(st.integers(1, 3))
    degree = st.tuples(*[st.integers(0, 3)] * n).filter(any)
    degrees = draw(st.lists(degree, min_size=1, max_size=4))
    if with_units:
        degrees += [tuple(int(i == j) for i in range(n)) for j in range(n)]
        degrees = draw(st.permutations(degrees))
    hs = draw(st.lists(heights, min_size=len(degrees), max_size=len(degrees)))
    target = draw(st.tuples(*[st.integers(0, 6)] * n))
    return [tuple(d) for d in degrees], hs, target


def _outcome(search, *args):
    try:
        return search(*args)
    except BudgetExceeded:
        return "budget exceeded"


def _assert_same_search(search, reference, args, budget):
    """Same value and nodes left as the reference, and the same outcome just
    below the nodes it needs and at ``budget``."""
    value, left = search(*args, BUDGET)
    expected = reference(*args, BUDGET)
    assert (value, left) == expected
    assert type(value) is type(expected[0])
    used = BUDGET - left
    assert _outcome(search, *args, used) == (value, 0)
    assert _outcome(search, *args, used - 1) == "budget exceeded"
    assert _outcome(reference, *args, used - 1) == "budget exceeded"
    assert _outcome(search, *args, budget) == _outcome(reference, *args, budget)
    return value


@given(levels_data(with_units=False), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_plain_search_matches_fraction_reference(data, budget):
    _assert_same_search(_enumerate_min, _reference_enumerate_min, data, budget)


@given(levels_data(with_units=True), st.integers(1, 40))
@settings(max_examples=200, deadline=None)
def test_both_searches_match_references_and_oracle_with_units(data, budget):
    degrees, hs, target = data
    units = _unit_index(degrees, len(target))
    assert units is not None
    reduced = _assert_same_search(
        _reduced_min, _reference_reduced_min, (degrees, hs, units, target), budget)
    plain = _assert_same_search(_enumerate_min, _reference_enumerate_min, data, budget)
    oracle, _ = _min_over_integer_representations(degrees, hs, target, BUDGET)
    assert reduced == plain == oracle
