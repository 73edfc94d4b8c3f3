"""Order functions: LP values, linearity fans, chamber fans, integer levels."""

import copy
import gc
import pickle
import re
import weakref
from dataclasses import replace
from enum import IntEnum
from fractions import Fraction
from functools import lru_cache
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmpwalk import (
    NO_REPRESENTATION,
    OutsideSupport,
    asymptotic_order,
    builtin_examples,
    cell_functionals,
    chamber_fan,
    grid_additivity_check,
    integer_order,
    linearity_fan,
    make_segment,
    o_value_oracle,
    random_instance,
    stabilization_multiple,
)
from mmpwalk import linalg, orders, simplex
from mmpwalk.cones import cone_from_rays, make_fan
from mmpwalk.errors import BudgetExceeded, DimensionError, InconsistentInput, InvalidCone
from mmpwalk.linalg import clear_denominators, dot
from mmpwalk.orders import DEFAULT_NODE_BUDGET, _representable
from mmpwalk.ring import GeneratorDatum, RingDatum, support_cone, validate

from corpus import corpus_spec


def functional_on_cell(datum, valuation, cell, support=None):
    """Reference for ``cell_functionals``, independent of the labels that
    the refinements carry: a fresh linearity fan per cell, probed at the
    cell's relative-interior point."""
    lf = linearity_fan(datum, valuation, support)
    probe = cell.relative_interior_point()
    for host, (functional,) in zip(lf.cells, lf.labels):
        if host.contains(probe):
            return functional
    raise OutsideSupport("cell does not meet the linearity fan")


@pytest.fixture(scope="module")
def blowup():
    return builtin_examples()["blowup-P2"]


@pytest.fixture(scope="module")
def fractional():
    return builtin_examples()["fractional-vertex"]


def test_order_value_and_witness(blowup):
    ov = asymptotic_order(blowup, "E", (2, 1))
    assert ov.value == 1
    assert ov.witness == (Fraction(1), Fraction(0), Fraction(1))


def test_order_on_diagonal_is_zero(blowup):
    assert asymptotic_order(blowup, "E", (1, 1)).value == 0
    assert asymptotic_order(blowup, "E", (1, 5)).value == 0


def test_order_outside_support_raises(blowup):
    with pytest.raises(OutsideSupport):
        asymptotic_order(blowup, "E", (-1, 1))


def test_order_homogeneous_on_samples(blowup):
    base = asymptotic_order(blowup, "E", (3, 1)).value
    assert asymptotic_order(blowup, "E", (6, 2)).value == 2 * base
    half = tuple(Fraction(x, 2) for x in (3, 1))
    assert asymptotic_order(blowup, "E", half).value == base / 2


def test_linearity_fan_two_cells(blowup):
    lf = linearity_fan(blowup, "E")
    assert [c.rays for c in lf.cells] == [((0, 1), (1, 1)), ((1, 0), (1, 1))]
    assert lf.labels == (
        ((Fraction(0), Fraction(0)),),
        ((Fraction(1), Fraction(-1)),),
    )


def test_linearity_fan_flat_heights_single_cell():
    # heights already linear in the degree: x-coordinate itself
    datum = builtin_examples()["blowup-P2"]
    flat = type(datum)(
        r=datum.r,
        labels=datum.labels,
        generators=tuple(
            type(g)(multidegree=g.multidegree, mults={"E": Fraction(g.multidegree[0])})
            for g in datum.generators
        ),
        valuations=("E",),
        numerical=datum.numerical,
    )
    lf = linearity_fan(flat, "E")
    assert len(lf.cells) == 1
    assert lf.labels == (((Fraction(1), Fraction(0)),),)


def test_lifted_cone_with_a_line_raises_invalid_cone():
    # the degrees (1, 0) and (-1, 0) at height 0 put a line in the lifted
    # cone, which then has no lower facets to read the cells off
    degrees_heights = (((1, 0), 0), ((-1, 0), 0), ((0, 1), 0), ((1, 1), 1))
    datum = RingDatum(
        r=1,
        labels=("K", "D1"),
        generators=tuple(GeneratorDatum(multidegree=d, mults={"E": Fraction(h)})
                         for d, h in degrees_heights),
        valuations=("E",),
        numerical=((Fraction(1), Fraction(0)),),
    )
    assert not validate(datum).ok()
    with pytest.raises(InvalidCone, match="holds a line"):
        linearity_fan(datum, "E")
    with pytest.raises(InvalidCone, match="holds a line"):
        chamber_fan(datum)


def test_chamber_fan_matches_linearity_fan_single_valuation(blowup):
    fan = chamber_fan(blowup)
    assert [c.rays for c in fan.cells] == [((0, 1), (1, 1)), ((1, 0), (1, 1))]


def test_chamber_fan_without_valuations_is_support():
    datum = builtin_examples()["quadrant-trivial"]
    fan = chamber_fan(datum)
    assert len(fan.cells) == 1
    assert fan.cells[0] == fan.support


def test_cell_functionals_reproduce_orders(blowup):
    fan = chamber_fan(blowup)
    fns = cell_functionals(blowup, fan)
    for ci, cell in enumerate(fan.cells):
        p = cell.relative_interior_point()
        assert dot(fns["E"][ci], p) == asymptotic_order(
            blowup, "E", p
        ).value


def test_functional_on_foreign_cell_raises(blowup):
    outside = cone_from_rays([(1, -1), (1, 0)])
    with pytest.raises(OutsideSupport):
        functional_on_cell(blowup, "E", outside)


def test_integer_order_agrees_when_witness_integral(blowup):
    assert integer_order(blowup, "E", (2, 1), 1) == 1
    assert integer_order(blowup, "E", (1, 1), 1) == 0


def test_integer_order_no_representation(fractional):
    assert integer_order(fractional, "G", (1, 1), 1) is NO_REPRESENTATION
    assert integer_order(fractional, "G", (1, 1), 2) is NO_REPRESENTATION


def test_integer_order_rejects_non_integral_scaling(fractional):
    with pytest.raises(ValueError):
        integer_order(fractional, "G", (Fraction(1, 2), 1), 1)


@pytest.mark.parametrize("x", [(0.5, 1.5), (1.0, 1)])
def test_integer_order_rejects_float_point(blowup, x):
    # (0.5, 1.5) must not be read as exact halves
    with pytest.raises(TypeError):
        asymptotic_order(blowup, "E", x)
    with pytest.raises(TypeError):
        integer_order(blowup, "E", x, 2)


def test_integer_order_zero_multidegree_generator():
    # the library does not validate: a zero generator covers nothing and
    # must not stop the search
    datum = RingDatum(
        r=1,
        labels=("K", "D1"),
        generators=tuple(
            GeneratorDatum(multidegree=d, mults={"E": Fraction(1)})
            for d in ((0, 0), (2, 1), (1, 2))
        ),
        valuations=("E",),
        numerical=((Fraction(1), Fraction(0)),),
    )
    lp = asymptotic_order(datum, "E", (3, 3)).value
    assert lp == 2
    assert integer_order(datum, "E", (3, 3), 1) == lp
    assert o_value_oracle(datum, "E", (3, 3), [1]) == (lp,)


@pytest.mark.parametrize("k", [0, -1])
def test_integer_order_rejects_nonpositive_level(blowup, k):
    with pytest.raises(ValueError):
        integer_order(blowup, "E", (1, 1), k)


def test_integer_order_budget(blowup, monkeypatch):
    monkeypatch.setattr(orders, "DEFAULT_NODE_BUDGET", 3)
    with pytest.raises(BudgetExceeded):
        integer_order(blowup, "E", (30, 30), 12)


def test_fractional_vertex_stabilizes_at_three(fractional):
    assert asymptotic_order(fractional, "G", (1, 1)).value == Fraction(1, 3)
    assert integer_order(fractional, "G", (1, 1), 3) == Fraction(1, 3)
    assert stabilization_multiple(fractional, "G", (1, 1), 12) == 3


def test_fractional_vertex_witness_is_fractional(fractional):
    ov = asymptotic_order(fractional, "G", (1, 1))
    assert any(w.denominator != 1 for w in ov.witness)


def test_stabilization_one_for_integral_witness(blowup):
    assert stabilization_multiple(blowup, "E", (2, 1), 12) == 1


def test_stabilization_leaves_out_a_zero_generator_of_multiplicity_zero(blowup, monkeypatch):
    # its reduced cost is 0, so the basis counts it tight; a zero
    # multidegree covers nothing, so the basic columns stay the tight set
    # and the basis answers with no search
    zero = GeneratorDatum((0, 0), {"E": Fraction(0)})
    datum = replace(blowup, generators=blowup.generators + (zero,))
    points = [(2, 1), (1, 2), (Fraction(3, 2), 1), (Fraction(1, 3), Fraction(1, 2))]
    expected = [_reference_stabilization(datum, "E", x, 12) for x in points]
    assert expected == [stabilization_multiple(blowup, "E", x, 12) for x in points] == [1, 1, 2, 6]
    function = orders.order_function(datum, "E")
    assert all(3 in function._find(*function._point(x)).tight for x in points)

    def forbidden(*args):
        raise AssertionError("stabilization_multiple searched")

    monkeypatch.setattr(orders, "_representable", forbidden)
    assert [stabilization_multiple(datum, "E", x, 12) for x in points] == expected


def test_stabilization_none_within_bound(fractional):
    assert stabilization_multiple(fractional, "G", (1, 1), 2) is None


def test_stabilization_skips_levels_where_the_point_is_not_integral(blowup, fractional):
    # k * (3/2, 1) is an integer point only for even k; k = 1 used to raise
    # ValueError from integer_order
    x = (Fraction(3, 2), 1)
    assert asymptotic_order(blowup, "E", x).value == Fraction(1, 2)
    assert integer_order(blowup, "E", x, 2) == Fraction(1, 2)
    third = (Fraction(1, 3), Fraction(1, 2))
    half = (Fraction(1, 2), Fraction(1, 2))
    # a k_max below the step tries no level
    for datum, valuation, point, k_max, expected in [
        (blowup, "E", x, 12, 2),
        (blowup, "E", x, 1, None),
        (blowup, "E", third, 12, 6),
        (blowup, "E", third, 5, None),
        (fractional, "G", half, 12, 6),
        (fractional, "G", half, 5, None),
    ]:
        assert stabilization_multiple(datum, valuation, point, k_max) == expected
        assert _reference_stabilization(datum, valuation, point, k_max) == expected


def test_integer_order_sandwiches_lp(fractional):
    lp = asymptotic_order(fractional, "G", (2, 2)).value
    for k in range(1, 13):
        ip = integer_order(fractional, "G", (2, 2), k)
        if ip is not NO_REPRESENTATION:
            assert ip >= lp


def test_reduced_and_plain_enumeration_agree(blowup):
    # blowup has unit generators covering both coordinates (fast path);
    # dropping the unit on the second coordinate forces the plain DFS
    from mmpwalk.ring import GeneratorDatum, RingDatum

    no_units = RingDatum(
        r=1,
        labels=("K", "D1"),
        generators=(
            GeneratorDatum(multidegree=(1, 0), mults={"E": Fraction(1)}),
            GeneratorDatum(multidegree=(0, 2), mults={"E": Fraction(0)}),
            GeneratorDatum(multidegree=(1, 1), mults={"E": Fraction(0)}),
        ),
        valuations=("E",),
        numerical=((Fraction(1), Fraction(0)),),
    )
    for point in [(2, 2), (3, 1), (4, 4)]:
        plain = integer_order(no_units, "E", point, 2)
        lp = asymptotic_order(no_units, "E", point).value
        if plain is not NO_REPRESENTATION:
            assert plain >= lp


def test_support_passed_in_matches_recomputed(blowup):
    sup = support_cone(blowup)
    a = asymptotic_order(blowup, "E", (2, 1), support=sup)
    b = asymptotic_order(blowup, "E", (2, 1))
    assert a == b


def _cold_start():
    """Forget every order function, and with it every kept basis."""
    orders.forget_order_functions()


def test_cold_start_solves_the_lp_again(blowup, monkeypatch):
    solves = []
    original = orders.solve_min

    def counted(*args):
        solves.append(args)
        return original(*args)

    monkeypatch.setattr(orders, "solve_min", counted)

    def solves_after_a_query():
        assert asymptotic_order(blowup, "E", (2, 1)).value == 1
        return len(solves)

    _cold_start()
    assert [solves_after_a_query(), solves_after_a_query()] == [1, 1]
    _cold_start()
    assert [solves_after_a_query(), solves_after_a_query()] == [2, 2]


def _corpus_datum(seed):
    return random_instance(corpus_spec(seed))


def _lp_data(datum, valuation, x):
    degrees = [g.multidegree for g in datum.generators]
    heights = [Fraction(g.mults[valuation]) for g in datum.generators]
    A = [[Fraction(d[row]) for d in degrees] for row in range(len(x))]
    return degrees, heights, A


def _lp_value(A, x, heights):
    """The LP value at ``x`` from a fresh solve on the ``Fraction`` heights
    (not on an order function's integer costs): ``heights . w`` for the
    basic solution ``w`` read off the returned basis."""
    basis = simplex.solve_min(A, list(x), heights)
    w = [Fraction(0)] * len(heights)
    for col, row in zip(basis.cols, basis.inverse_num):
        w[col] = Fraction(dot(row, [x[k] for k in basis.rows]), basis.inverse_den)
    return dot(heights, w)


def _cache_queries(datum, fan):
    """Rays, sums of ray pairs (points on walls of the chamber fan) and
    interior points of every cell, each repeated across the valuations."""
    rng = Random(11)
    points = []
    for cell in fan.cells:
        points += cell.rays
        points += [
            tuple(a + b for a, b in zip(cell.rays[i], cell.rays[j]))
            for i in range(len(cell.rays))
            for j in range(i + 1, len(cell.rays))
        ]
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in cell.rays]
        points.append(tuple(sum(w * x for w, x in zip(weights, col)) for col in zip(*cell.rays)))
    return [(v, p) for v in datum.valuations for p in points]


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_cached_values_equal_cold_solves(seed, monkeypatch):
    _cold_start()
    cold_calls = []
    original = orders.solve_min

    def counted(*args, **kwargs):
        cold_calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(orders, "solve_min", counted)
    datum = _corpus_datum(seed)
    support = support_cone(datum)
    queries = _cache_queries(datum, chamber_fan(datum, support=support))
    for valuation, x in queries:
        got = asymptotic_order(datum, valuation, x, support=support)
        _, heights, A = _lp_data(datum, valuation, x)
        assert got.value == _lp_value(A, x, heights)
    assert len(cold_calls) < len(queries) / 2


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_every_order_value_carries_its_dual_certificate(seed):
    datum = _corpus_datum(seed)
    support = support_cone(datum)
    for valuation, x in _cache_queries(datum, chamber_fan(datum, support=support)):
        ov = asymptotic_order(datum, valuation, x, support=support)
        degrees, heights, _ = _lp_data(datum, valuation, x)
        y = ov.dual
        assert all(dot(y, d) <= h for d, h in zip(degrees, heights))
        assert dot(y, x) == ov.value
        assert all(w >= 0 for w in ov.witness)
        assert tuple(dot(col, ov.witness) for col in zip(*degrees)) == tuple(x)
        assert dot(heights, ov.witness) == ov.value


def test_same_degrees_other_heights_never_share_a_basis(blowup):
    _cold_start()
    cheap_corner = RingDatum(
        r=blowup.r,
        labels=blowup.labels,
        generators=tuple(
            GeneratorDatum(multidegree=g.multidegree, mults={"E": Fraction(h)})
            for g, h in zip(blowup.generators, (0, 0, 1))
        ),
        valuations=("E",),
        numerical=blowup.numerical,
    )
    # the basis on columns 0 and 2 is optimal for blowup-P2 at (2, 1) and
    # feasible there for the other heights too, but not optimal for them
    assert asymptotic_order(blowup, "E", (2, 1)).value == 1
    ov = asymptotic_order(cheap_corner, "E", (2, 1))
    assert ov.value == 0
    assert ov.witness == (2, 1, 0)
    mine = orders.order_function(blowup, "E").bases
    theirs = orders.order_function(cheap_corner, "E").bases
    assert mine is not theirs
    assert len(mine) == len(theirs) == 1
    assert mine[0].cols != theirs[0].cols


def _thin_datum():
    # degrees on one line: the LP has a redundant row, which the basis drops
    return RingDatum(
        r=1,
        labels=("K", "D1"),
        generators=(
            GeneratorDatum(multidegree=(1, 1), mults={"G": Fraction(1)}),
            GeneratorDatum(multidegree=(2, 2), mults={"G": Fraction(1)}),
        ),
        valuations=("G",),
        numerical=((Fraction(1), Fraction(0)),),
    )


def test_cached_basis_must_meet_dropped_rows():
    thin = _thin_datum()
    _cold_start()
    assert asymptotic_order(thin, "G", (2, 2)).value == 1
    assert asymptotic_order(thin, "G", (3, 3)).value == Fraction(3, 2)
    # the kept row alone would accept (1, 2); the certificate also checks the
    # dropped row, and the LP, not the support passed in (which admits the
    # point), decides that it is outside
    quadrant = cone_from_rays([(1, 0), (0, 1)])
    with pytest.raises(OutsideSupport):
        asymptotic_order(thin, "G", (1, 2), support=quadrant)



# builtin examples and corpus seeds 1-10
FUNCTIONAL_CASES = sorted(builtin_examples()) + [f"corpus-{seed}" for seed in range(1, 11)]


def _named_datum(name):
    if name.startswith("corpus-"):
        return _corpus_datum(int(name.removeprefix("corpus-")))
    return builtin_examples()[name]


def test_chamber_fan_and_cell_functionals_build_one_linearity_fan_per_valuation(monkeypatch):
    built = []
    original = orders.linearity_fan

    def counted(datum, valuation, support=None):
        built.append(valuation)
        return original(datum, valuation, support)

    monkeypatch.setattr(orders, "linearity_fan", counted)
    for name in FUNCTIONAL_CASES:
        datum = _named_datum(name)
        for refine in (True, False):
            built.clear()
            fan = chamber_fan(datum, refine=refine)
            functionals = cell_functionals(datum, fan)
            assert built == list(datum.valuations), name
            assert all(len(per_cell) == len(fan.cells) for per_cell in functionals.values())


def test_fan_construction_clears_denominators_once_per_linearity_fan(monkeypatch):
    # generator i is lifted to its integer cost, so the lifted cone, the
    # refinements and the functionals never clear a denominator, and each
    # linearity fan reads its costs off the order function, which builds
    # them from the multiplicities' ratios: no call at all
    counts = {"clear_denominators": 0, "linearity_fan": 0}
    real_clear, real_fan = linalg.clear_denominators, orders.linearity_fan

    def counted_clear(v):
        counts["clear_denominators"] += 1
        return real_clear(v)

    def counted_fan(datum, valuation, support=None):
        counts["linearity_fan"] += 1
        return real_fan(datum, valuation, support)

    monkeypatch.setattr(linalg, "clear_denominators", counted_clear)
    monkeypatch.setattr(orders, "clear_denominators", counted_clear)
    monkeypatch.setattr(orders, "linearity_fan", counted_fan)
    fractional = 0
    for seed in range(1, 21):
        datum = _corpus_datum(seed)
        fractional += any(Fraction(m).denominator > 1
                          for g in datum.generators for m in g.mults.values())
        for refine in (True, False):
            fan = chamber_fan(datum, refine=refine)
            cell_functionals(datum, fan)
    assert fractional > 0  # the corpus has multiplicities to clear
    assert counts["linearity_fan"] > 0
    assert counts["clear_denominators"] == 0


def test_cell_functionals_need_one_label_per_valuation(blowup):
    fan = chamber_fan(blowup)
    unlabelled = make_fan(fan.cells, fan.support)
    assert unlabelled == fan
    with pytest.raises(InconsistentInput, match="one functional"):
        cell_functionals(blowup, unlabelled)
    two = replace(blowup, valuations=("E", "F"))
    with pytest.raises(InconsistentInput, match="one functional"):
        cell_functionals(two, fan)


@pytest.mark.parametrize("name", FUNCTIONAL_CASES)
def test_cell_functionals_equal_functional_on_cell(name):
    datum = _named_datum(name)
    support = support_cone(datum)
    fan = chamber_fan(datum, support=support)
    got = cell_functionals(datum, fan)
    assert set(got) == set(datum.valuations)
    for valuation in datum.valuations:
        assert got[valuation] == tuple(
            functional_on_cell(datum, valuation, cell, support) for cell in fan.cells
        )


@pytest.mark.parametrize("mult", [0.5, 1.0, True])
def test_inexact_multiplicity_raises_type_error(blowup, mult):
    # 1.0 and True equal the exact multiplicity 1, so a cached basis for the
    # exact data would serve them: no datum that holds one can be built
    asymptotic_order(blowup, "E", (1, 1))
    with pytest.raises(TypeError, match="mults holds"):
        GeneratorDatum((1, 0), {"E": mult})
    with pytest.raises(TypeError, match="mults holds"):
        _with_mult(blowup, 0, mult)


# builtin examples and corpus seeds 1-5
ORDER_FUNCTION_CASES = sorted(builtin_examples()) + [f"corpus-{seed}" for seed in range(1, 6)]


@pytest.mark.parametrize("name", ORDER_FUNCTION_CASES)
@pytest.mark.parametrize("first", ["value", "certificate"])
def test_value_and_certificate_equal_cold_solves(name, first):
    # "value" reads each order through ``ratio`` before the certificate
    datum = _named_datum(name)
    support = support_cone(datum)
    queries = _cache_queries(datum, chamber_fan(datum, support=support))
    cold = []
    for valuation, x in queries:
        _, heights, A = _lp_data(datum, valuation, x)
        cold.append(_lp_value(A, x, heights))
    _cold_start()
    functions = {v: orders.order_function(datum, v) for v in datum.valuations}
    for _ in ("cleared cache", "warm cache"):
        for (valuation, x), expected in zip(queries, cold):
            function = functions[valuation]
            if first == "value":
                value = Fraction(*function.ratio(x))
                ov = function.certificate(x)
            else:
                ov = function.certificate(x)
                value = Fraction(*function.ratio(x))
            assert value == ov.value == expected
            assert asymptotic_order(datum, valuation, x, support=support).value == expected
            degrees, heights, _ = _lp_data(datum, valuation, x)
            assert all(dot(ov.dual, d) <= h for d, h in zip(degrees, heights))
            assert dot(ov.dual, x) == value
    for function in functions.values():
        for method in (function.ratio, function.certificate):
            with pytest.raises(OutsideSupport):
                method((-1,) + (1,) * (support.ambient_dim - 1))


def test_order_function_meets_dropped_rows():
    # as above, but with the cache filled by ratio(): the kept row alone
    # would accept (1, 2), and neither method may answer there from it
    _cold_start()
    function = orders.order_function(_thin_datum(), "G")
    assert Fraction(*function.ratio((2, 2))) == 1
    assert Fraction(*function.ratio((3, 3))) == Fraction(3, 2)
    for method in (function.ratio, function.certificate):
        with pytest.raises(OutsideSupport):
            method((1, 2))


@lru_cache(maxsize=None)
def _interleaving_case():
    """Corpus instance 2 (24 chambers) with its rays, wall points and
    interior points for every valuation, and each query's cold LP value."""
    datum = _corpus_datum(2)
    support = support_cone(datum)
    queries = _cache_queries(datum, chamber_fan(datum, support=support))
    cold = []
    for valuation, x in queries:
        _, heights, A = _lp_data(datum, valuation, x)
        cold.append(_lp_value(A, x, heights))
    return datum, support, queries, cold


@given(st.lists(st.tuples(st.integers(0, 10**6), st.booleans()), min_size=1, max_size=80))
@settings(max_examples=100, derandomize=True, deadline=None)
def test_interleaved_queries_equal_cold_solves(picks):
    # queries hop between chambers, their walls and their rays, so the
    # basis that certifies a query is often not the front one and moves
    # there; every answer must still be the cold LP value, with a dual
    # that certifies it, and the front basis must certify the last query
    datum, support, queries, cold = _interleaving_case()
    _cold_start()
    functions = {v: orders.order_function(datum, v) for v in datum.valuations}
    for index, use_value in picks:
        (valuation, x), expected = queries[index % len(queries)], cold[index % len(queries)]
        function = functions[valuation]
        if use_value:
            assert Fraction(*function.ratio(x)) == expected
        ov = function.certificate(x)
        assert ov.value == expected
        degrees, heights, _ = _lp_data(datum, valuation, x)
        assert all(dot(ov.dual, d) <= h for d, h in zip(degrees, heights))
        assert dot(ov.dual, x) == expected
        assert function._basic_solution(function.bases[0], clear_denominators(x)[0]) is not None


def test_certifying_basis_moves_to_the_front():
    datum, support, queries, _ = _interleaving_case()
    valuation = datum.valuations[0]
    _cold_start()
    function = orders.order_function(datum, valuation)
    points = [x for v, x in queries if v == valuation]
    for x in points:
        function.ratio(x)
    kept = function.bases
    assert len(kept) > 2
    # a point that only the last kept basis certifies
    last = kept[-1]
    for x in points:
        xs = clear_denominators(x)[0]
        if all(function._basic_solution(e, xs) is None for e in kept[:-1]):
            break
    else:
        raise AssertionError("no point is certified by the last kept basis alone")
    before = list(kept)
    # the kept dual is that of the integer costs, den times the order's
    assert function.certificate(x).dual == tuple(
        Fraction(v, last.dual_den * function.den) for v in last.dual_num)
    assert kept == [last] + before[:-1]


class _FullScan(orders.OrderFunction):
    """An order function whose kept-basis test builds the whole basic
    solution from a copy of the point's kept rows and only then looks for a
    negative entry, as ``_basic_solution`` did before it stopped early, and
    whose scan takes the first kept basis with such a solution, as the scan
    did before ``_find`` tested the signs alone."""

    __slots__ = ()

    def _find(self, xs, x_den):
        for i, basis in enumerate(self.bases):
            if self._basic_solution(basis, xs) is not None:
                self.bases.insert(0, self.bases.pop(i))
                return basis
        return self._solve(xs, x_den)

    def _basic_solution(self, basis, xs):
        rows, cols, inverse_num, inverse_den = basis[:4]
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


def _scan_pair(datum, valuation):
    """The datum's order function and a ``_FullScan`` twin on the same LP
    data, both with no kept basis."""
    degrees = tuple([tuple(g.multidegree) for g in datum.generators])
    ratios = tuple([m.as_integer_ratio() for m in orders._mults(datum, valuation)])
    return orders.OrderFunction(degrees, ratios), _FullScan(degrees, ratios)


def _assert_same_scans(lean, full, points):
    """Both order functions answer every point from the same basis with the
    same solution, or both raise; every kept basis accepts or rejects each
    point alike; and the kept bases stay in one order.  Returns how many
    (point, kept basis) pairs were rejected."""
    rejected = 0
    for x in points:
        xs, x_den = clear_denominators(x)
        answers = []
        for function in (lean, full):
            try:
                basis = function._find(xs, x_den)
                answers.append((basis, function._basic_solution(basis, xs)))
            except OutsideSupport:
                answers.append(OutsideSupport)
        assert answers[0] == answers[1], x
        assert lean.bases == full.bases, x
        solutions = [lean._basic_solution(b, xs) for b in lean.bases]
        assert solutions == [full._basic_solution(b, xs) for b in full.bases], x
        rejected += solutions.count(None)
    return rejected


@pytest.mark.parametrize("seed", range(1, 21))
def test_lean_basis_test_equals_the_full_scan_on_the_corpus(seed):
    # integer rays and wall points, Fraction interior points, and the same
    # points again in reverse, so queries move between chambers and the
    # bases certified earlier are tried and left at a negative entry
    datum = _corpus_datum(seed)
    queries = _cache_queries(datum, chamber_fan(datum))
    rejected = 0
    for valuation in datum.valuations:
        points = [x for v, x in queries if v == valuation]
        lean, full = _scan_pair(datum, valuation)
        rejected += _assert_same_scans(lean, full, points + points[::-1])
    assert rejected


@pytest.mark.parametrize("seed", range(1, 21))
def test_ratio_equals_value_on_the_corpus(seed):
    # the corpus queries as integer and Fraction points, and the same points
    # halved, put to two fresh order functions on one LP, one read through
    # certificate and one through ratio: each pair is in integers with a
    # positive denominator and equals the value, and both keep their bases
    # in one order
    datum = _corpus_datum(seed)
    queries = _cache_queries(datum, chamber_fan(datum))
    for valuation in datum.valuations:
        points = [x for v, x in queries if v == valuation]
        points += [tuple(Fraction(v, 2) for v in x) for x in points]
        degrees = tuple([tuple(g.multidegree) for g in datum.generators])
        ratios = tuple([m.as_integer_ratio() for m in orders._mults(datum, valuation)])
        by_value = orders.OrderFunction(degrees, ratios)
        by_ratio = orders.OrderFunction(degrees, ratios)
        for x in points:
            num, den = by_ratio.ratio(x)
            assert type(num) is int and type(den) is int and den > 0, x
            assert by_value.certificate(x).value == Fraction(num, den), x
            assert by_ratio.bases == by_value.bases, x


def test_ratio_raises_as_value_does(blowup):
    function = orders.order_function(blowup, "E")
    for method in (function.certificate, function.ratio):
        with pytest.raises(OutsideSupport):
            method((-1, 1))
        with pytest.raises(DimensionError):
            method((1, 2, 3))


@pytest.mark.parametrize("name, outside", [("corpus-2", None), ("thin", (1, 2))])
def test_ratio_equals_the_full_scan_across_a_point_outside(name, outside):
    # ratio answers from the basis _find finds, with no basic solution
    # built: its pairs and kept bases are the full scan's, and a point
    # outside the support raises from both and leaves their bases alike
    datum = _thin_datum() if name == "thin" else _named_datum(name)
    valuation = datum.valuations[0]
    if name == "thin":
        points = [(2, 2), (3, 3), (Fraction(1, 2), Fraction(1, 2)), (0, 0), (5, 5)]
    else:
        support = support_cone(datum)
        outside = tuple(-sum(col) for col in zip(*support.rays))
        points = [x for v, x in _cache_queries(datum, chamber_fan(datum)) if v == valuation]
    lean, full = _scan_pair(datum, valuation)
    for x in points + [outside] + points[::-1]:
        answers = []
        for function in (lean, full):
            try:
                answers.append(function.ratio(x))
            except OutsideSupport:
                answers.append(OutsideSupport)
        assert answers[0] == answers[1] and (answers[0] is OutsideSupport) == (x == outside), x
        assert lean.bases == full.bases, x
    assert len(lean.bases) > (name == "corpus-2")


def test_lean_basis_test_equals_the_full_scan_on_dropped_rows():
    lean, full = _scan_pair(_thin_datum(), "G")
    points = [(2, 2), (3, 3), (1, 2), (Fraction(1, 2), Fraction(1, 2)), (0, 0), (2, 1),
              (5, 5), (Fraction(7, 3), Fraction(7, 3)), (-1, -1)]
    assert _assert_same_scans(lean, full, points)
    assert lean.bases and all(len(b.rows) < 2 for b in lean.bases)


@pytest.mark.parametrize("seed", range(1, 51))
def test_lp_on_the_numerators_ends_in_the_same_basis(seed, monkeypatch):
    # _solve solves the LP on xs, not on x = xs / x_den: scaling the
    # right-hand side by x_den > 0 changes no sign and no ratio that the
    # simplex compares, so both take the same pivots to the same basis
    pivots = []
    original = simplex._pivot

    def pivot(tableau, basis, row, col):
        pivots.append((row, col))
        original(tableau, basis, row, col)

    monkeypatch.setattr(simplex, "_pivot", pivot)
    datum = _corpus_datum(seed)
    rng = Random(seed)
    n = len(datum.generators[0].multidegree)
    A = [[g.multidegree[row] for g in datum.generators] for row in range(n)]
    optimal = scaled = 0
    for valuation in datum.valuations:
        costs = orders.order_function(datum, valuation).costs
        for _ in range(16):
            x = tuple(Fraction(rng.randint(-1, 9), rng.randint(2, 6)) for _ in range(n))
            xs, x_den = clear_denominators(x)
            scaled += x_den > 1
            runs = []
            for b in (x, xs):
                pivots.clear()
                runs.append((simplex.solve_min(A, b, costs), list(pivots)))
            assert runs[0] == runs[1], x
            optimal += isinstance(runs[0][0], simplex.Basis)
    assert optimal and scaled


def test_one_shot_point_is_read_once(blowup):
    _cold_start()
    expected = asymptotic_order(blowup, "E", (2, 1))
    _cold_start()
    # cold, then warm: the LP and the kept basis each read the point once
    for _ in range(2):
        assert asymptotic_order(blowup, "E", (x for x in (2, 1))) == expected
    function = orders.order_function(blowup, "E")
    assert function.certificate(x for x in (Fraction(4), 2)).value == 2 * expected.value
    assert function.certificate(iter([Fraction(1), Fraction(1, 2)])).value == expected.value / 2
    # the level searches read it once too: stabilization_multiple solved
    # the LP on an emptied generator while no basis was kept, and
    # integer_order named the point () in its error
    _cold_start()
    multiple = stabilization_multiple(blowup, "E", (2, 1), 12)
    _cold_start()
    for _ in range(2):
        assert stabilization_multiple(blowup, "E", (x for x in (2, 1)), 12) == multiple
    with pytest.raises(ValueError, match=re.escape("1 * (1/2, 1) is not an integer point")):
        integer_order(blowup, "E", (x for x in (Fraction(1, 2), 1)), 1)


@pytest.mark.parametrize("name", ["blowup-P2", "corpus-2", "corpus-4"])
def test_support_and_dimension_errors_survive_kept_bases(name):
    datum = _named_datum(name)
    support = support_cone(datum)
    queries = _cache_queries(datum, chamber_fan(datum, support=support))
    _cold_start()
    functions = {v: orders.order_function(datum, v) for v in datum.valuations}
    for valuation, x in queries:
        functions[valuation].ratio(x)
    # the negated sum of the support's rays lies outside the pointed support
    outside = tuple(-sum(col) for col in zip(*support.rays))
    n = support.ambient_dim
    for function in functions.values():
        kept = function.bases
        assert kept
        before = list(kept)
        for method in (function.ratio, function.certificate):
            with pytest.raises(OutsideSupport):
                method(outside)
            with pytest.raises(OutsideSupport):
                method(tuple(Fraction(v, 3) for v in outside))
            for wrong in ((1,) * (n + 1), (1,) * (n - 1), ()):
                with pytest.raises(DimensionError):
                    method(wrong)
        assert kept == before


@pytest.mark.parametrize("name", ORDER_FUNCTION_CASES)
def test_warm_value_builds_no_certificate(name, monkeypatch):
    datum = _named_datum(name)
    support = support_cone(datum)
    queries = _cache_queries(datum, chamber_fan(datum, support=support))
    functions = {v: orders.order_function(datum, v) for v in datum.valuations}
    expected = [functions[v].certificate(x).value for v, x in queries]

    def forbidden(*args, **kwargs):
        raise AssertionError("ratio() built a certificate")

    monkeypatch.setattr(orders, "OValue", forbidden)
    monkeypatch.setattr(orders, "solve_min", forbidden)
    assert [Fraction(*functions[v].ratio(x)) for v, x in queries] == expected


def _builds():
    """How many order functions the one cache has built so far."""
    return orders._order_functions.cache_info().misses


def _cold_value(datum, valuation, x):
    _, heights, A = _lp_data(datum, valuation, x)
    return _lp_value(A, x, heights)


def test_asymptotic_order_reuses_its_order_function():
    _cold_start()
    datum = _corpus_datum(2)
    support = support_cone(datum)
    valuation = datum.valuations[0]
    for x in support.rays:
        assert asymptotic_order(datum, valuation, x, support=support).value == _cold_value(
            datum, valuation, x)
    assert _builds() == 1


def _with_mult(datum, i, value, valuation="E"):
    """A new datum: ``datum`` with generator ``i``'s multiplicity at
    ``valuation`` replaced by ``value``."""
    generators = list(datum.generators)
    generators[i] = replace(generators[i], mults={**generators[i].mults, valuation: value})
    return replace(datum, generators=tuple(generators))


def test_a_multiplicity_replaced_in_a_new_datum_builds_its_function(blowup):
    _cold_start()
    datum = replace(blowup)
    assert asymptotic_order(datum, "E", (2, 1)).value == 1
    # the witness (1, 0, 1) uses the third generator, so a dearer one moves
    # the optimum to (2, 1, 0)
    dearer = _with_mult(datum, 2, Fraction(5))
    assert asymptotic_order(dearer, "E", (2, 1)).value == 2 == _cold_value(dearer, "E", (2, 1))
    assert asymptotic_order(datum, "E", (2, 1)).value == 1
    assert _builds() == 2
    # an int equal to the Fraction keys the same order function
    assert asymptotic_order(_with_mult(datum, 2, 5), "E", (2, 1)).value == 2
    assert _builds() == 2
    # an inexact one cannot be built, so no query meets it
    with pytest.raises(TypeError, match="mults holds 5.0"):
        _with_mult(datum, 2, 5.0)
    assert _builds() == 2


def test_twin_data_and_supports_share_one_order_function():
    _cold_start()
    datum = _corpus_datum(3)
    valuation = datum.valuations[0]
    first, second = support_cone(datum), support_cone(datum)
    assert first == second and first is not second
    twin = copy.deepcopy(datum)
    assert twin == datum and twin.generators is not datum.generators
    x = tuple(sum(col) for col in zip(*first.rays))
    expected = _cold_value(datum, valuation, x)
    for d, support in [(datum, first), (datum, second), (datum, None), (twin, None),
                       (twin, first)]:
        assert asymptotic_order(d, valuation, x, support=support).value == expected
    assert orders.order_function(twin, valuation) is orders.order_function(datum, valuation)
    assert _builds() == 1


def test_alternating_valuations_build_no_new_order_function():
    _cold_start()
    datum = _corpus_datum(1)
    support = support_cone(datum)
    heights = [orders._mults(datum, v) for v in datum.valuations]
    one, other = next(
        (datum.valuations[i], datum.valuations[j])
        for i in range(len(heights)) for j in range(i + 1, len(heights))
        if heights[i] != heights[j]
    )
    points = [r for r in support.rays] + [tuple(sum(col) for col in zip(*support.rays))]
    for x in points:
        for valuation in (one, other):
            assert asymptotic_order(datum, valuation, x, support=support).value == _cold_value(
                datum, valuation, x)
    assert _builds() == 2


@pytest.fixture
def key_builds(monkeypatch):
    """The valuations whose content keys ``order_function`` builds, from a
    cold start, counted by wrapping ``orders._mults``, which only a key
    build reads."""
    _cold_start()
    built = []
    read = orders._mults

    def counted(datum, valuation):
        built.append(valuation)
        return read(datum, valuation)

    monkeypatch.setattr(orders, "_mults", counted)
    return built


def _sixty_four_points(datum):
    """64 points of the support cone: its rays, the generator sums and the
    sum of the rays, repeated in turn."""
    rays = support_cone(datum).rays
    points = list(rays) + _generator_sums(datum) + [tuple(map(sum, zip(*rays)))]
    return [points[i % len(points)] for i in range(64)]


def test_repeated_queries_build_one_key(key_builds):
    datum = _corpus_datum(2)
    valuation = datum.valuations[0]
    points = _sixty_four_points(datum)
    expected = [_cold_value(datum, valuation, x) for x in points]
    assert [asymptotic_order(datum, valuation, x).value for x in points] == expected
    assert key_builds == [valuation]
    # every query is one lookup of that key in the one cache
    info = orders._order_functions.cache_info()
    assert (info.misses, info.hits) == (1, len(points) - 1)


def test_interleaved_queries_build_one_key_per_datum_and_valuation(key_builds):
    datum = _corpus_datum(1)
    twin = copy.deepcopy(datum)
    one, other = datum.valuations[:2]
    x = _generator_sums(datum)[-1]
    expected = {v: _cold_value(datum, v, x) for v in (one, other)}
    calls = [(datum, one), (datum, other)] * 4 + [(datum, one), (twin, one)] * 4
    for d, valuation in calls:
        assert asymptotic_order(d, valuation, x).value == expected[valuation]
    # the twin, copied before any query, builds its own key to the same function
    assert key_builds == [one, other, one]
    assert _builds() == 2


def test_a_queried_datum_is_not_kept_alive():
    # a table of held functions kept each queried datum's generators alive
    # until 4,096 newer data pushed them out; the cache keeps only the
    # degrees and the multiplicities of its keys
    _cold_start()
    datum = _corpus_datum(1)
    first = weakref.ref(datum.generators[0])
    x = _generator_sums(datum)[-1]
    for valuation in datum.valuations:
        asymptotic_order(datum, valuation, x)
    del datum
    gc.collect()
    assert first() is None


def test_an_equal_multiplicity_object_looks_up_and_builds_nothing(blowup, key_builds):
    datum = replace(blowup)
    for _ in range(3):
        assert asymptotic_order(datum, "E", (2, 1)).value == 1
    assert key_builds == ["E"]
    equal = Fraction(datum.generators[2].mults["E"])
    assert equal == datum.generators[2].mults["E"] and equal is not datum.generators[2].mults["E"]
    twin = _with_mult(datum, 2, equal)
    builds = _builds()
    for _ in range(3):
        assert asymptotic_order(twin, "E", (2, 1)).value == 1
    assert key_builds == ["E", "E"]
    assert _builds() == builds
    assert orders.order_function(twin, "E") is orders.order_function(datum, "E")


def test_a_list_multidegree_is_copied_into_a_tuple(blowup, key_builds):
    degrees = [list(g.multidegree) for g in blowup.generators]
    datum = replace(blowup, generators=[GeneratorDatum(d, dict(g.mults))
                                        for d, g in zip(degrees, blowup.generators)])
    assert datum == blowup and type(datum.generators) is tuple
    assert all(type(g.multidegree) is tuple for g in datum.generators)
    assert asymptotic_order(datum, "E", (2, 1)).value == 1 == _cold_value(datum, "E", (2, 1))
    # making (2, 1) a free generator's degree in the caller's list does not
    # reach the datum, whose one key still answers
    degrees[2][:] = [2, 1]
    assert asymptotic_order(datum, "E", (2, 1)).value == 1 == _cold_value(datum, "E", (2, 1))
    assert key_builds == ["E"]


def test_a_multiplicity_deleted_after_a_hit_raises(blowup, key_builds):
    datum = replace(blowup)
    for _ in range(3):
        assert asymptotic_order(datum, "E", (2, 1)).value == 1
    assert key_builds == ["E"]
    with pytest.raises(TypeError, match="cannot be changed"):
        del datum.generators[1].mults["E"]
    assert asymptotic_order(datum, "E", (2, 1)).value == 1
    assert key_builds == ["E"]
    # a datum built without it raises, however warm the cache, and keeps no key
    generators = list(datum.generators)
    generators[1] = GeneratorDatum(generators[1].multidegree, {})
    missing = replace(datum, generators=generators)
    for _ in range(2):
        with pytest.raises(InconsistentInput, match="generator 1 has no multiplicity"):
            asymptotic_order(missing, "E", (2, 1))
    assert missing._order_keys == {}


def _query_pool():
    """Corpus data, a deepcopy twin of each, and a last copy that a process
    may replace by a new datum with one multiplicity changed; with the
    query points of each."""
    data = [_corpus_datum(seed) for seed in (1, 2, 4)]
    pool = data + [copy.deepcopy(d) for d in data] + [copy.deepcopy(data[0])]
    return pool, [_sixty_four_points(d)[:8] for d in pool]


@given(st.data())
@settings(max_examples=30, derandomize=True, deadline=None)
def test_one_long_process_of_interleaved_queries_matches_cold_values(data):
    _cold_start()
    pool, points = _query_pool()
    steps = data.draw(st.lists(st.tuples(
        st.integers(0, len(pool) - 1), st.integers(0, 7), st.integers(0, 7),
        st.sampled_from(["order", "ratio", "stabilization", "change"])), min_size=1, max_size=24))
    for index, v_index, x_index, kind in steps:
        slot = len(pool) - 1 if kind == "change" else index
        datum = pool[slot]
        valuation = datum.valuations[v_index % len(datum.valuations)]
        x = points[slot][x_index]
        if kind == "change":
            # a new datum takes the last one's place with one multiplicity
            # replaced by an equal object, then one by a new value, each
            # read by the query that follows
            i = index % len(datum.generators)
            old = datum.generators[i].mults[valuation]
            for value in (Fraction(old), old + Fraction(v_index + 1, 2)):
                datum = pool[slot] = _with_mult(datum, i, value, valuation)
                assert asymptotic_order(datum, valuation, x).value == _cold_value(
                    datum, valuation, x)
        elif kind == "order":
            assert asymptotic_order(datum, valuation, x).value == _cold_value(datum, valuation, x)
        elif kind == "ratio":
            num, den = orders.order_function(datum, valuation).ratio(x)
            assert Fraction(num, den) == _cold_value(datum, valuation, x)
        else:
            assert stabilization_multiple(datum, valuation, x, 6) == _reference_stabilization(
                datum, valuation, x, 6)


def test_stabilization_after_an_order_query_solves_no_lp(monkeypatch):
    datum = _corpus_datum(4)
    valuation = datum.valuations[0]
    points = _generator_sums(datum)
    for x in points:
        asymptotic_order(datum, valuation, x)

    def forbidden(*args, **kwargs):
        raise AssertionError("stabilization_multiple solved an LP")

    monkeypatch.setattr(orders, "solve_min", forbidden)
    for x in points:
        assert stabilization_multiple(datum, valuation, x, 12) == _reference_stabilization(
            datum, valuation, x, 12)


def test_unbounded_lp_raises_and_keeps_no_basis(blowup):
    # a zero-degree generator of negative multiplicity (the library does not
    # validate) makes the LP unbounded: it raised TypeError from indexing the
    # solver's sentinel
    generators = (GeneratorDatum((0, 0), {"E": Fraction(-1)}),) + blowup.generators
    datum = replace(blowup, generators=generators)
    function = orders.order_function(datum, "E")
    for _ in range(2):
        with pytest.raises(InvalidCone, match="unbounded"):
            function.ratio((1, 1))
    assert function.bases == []


GENERATOR_QUERIES = [
    lambda datum: asymptotic_order(datum, "E", (1, 1)),
    lambda datum: stabilization_multiple(datum, "E", (1, 1), 4),
    lambda datum: integer_order(datum, "E", (1, 1), 1),
]


@pytest.mark.parametrize("query", GENERATOR_QUERIES)
def test_malformed_generator_data_raise_before_any_query(blowup, query):
    with pytest.raises(InvalidCone):
        query(replace(blowup, generators=()))
    zero = tuple(GeneratorDatum((0, 0), g.mults) for g in blowup.generators)
    with pytest.raises(InvalidCone):
        query(replace(blowup, generators=zero))
    mixed = (GeneratorDatum((1, 0, 0), {"E": Fraction(1)}),) + blowup.generators[1:]
    with pytest.raises(DimensionError):
        query(replace(blowup, generators=mixed))
    for degree in ((1.5, 0), (True, 0)):
        # an inexact degree raises when its generator is built
        with pytest.raises(TypeError, match="multidegree holds"):
            GeneratorDatum(degree, blowup.generators[0].mults)


@pytest.mark.parametrize("query", GENERATOR_QUERIES)
def test_inexact_degrees_raise_however_warm_the_cache(blowup, query):
    # (1.0, 0) and (True, 0) hash as (1, 0): after a query of blowup-P2 the
    # cached function of its key answered them, and the second query returned
    # 0; now no generator holding one can be built, warm cache or not
    query(blowup)
    for degree in ((1.0, 0), (True, 0)):
        with pytest.raises(TypeError, match=re.escape(f"multidegree holds {degree[0]!r}")):
            replace(blowup.generators[0], multidegree=degree)
    query(blowup)


@pytest.mark.parametrize("degrees, error, message", [
    ((), InvalidCone, "no generators given"),
    (((1, 0), (0, 1, 0)), DimensionError, "mixed dimensions"),
    (((1, 0), (0.5, 1)), TypeError, r"generator \(0\.5, 1\) is not exact"),
    (((1, 0), (0, True)), TypeError, r"generator \(0, True\) is not exact"),
    (((0, 0), (0, 0)), InvalidCone, "all generators are zero"),
])
def test_order_functions_and_cones_share_one_generator_rule(degrees, error, message):
    # OrderFunction checked no exactness: a bool or float degree was read
    # as the number it equals
    with pytest.raises(error, match=message):
        cone_from_rays(degrees)
    with pytest.raises(error, match=message):
        orders.OrderFunction(degrees, tuple((1, 1) for _ in degrees))


@pytest.mark.parametrize("query", [
    lambda datum, x: asymptotic_order(datum, "E", x),
    lambda datum, x: stabilization_multiple(datum, "E", x, 4),
    lambda datum, x: integer_order(datum, "E", x, 1),
    lambda datum, x: o_value_oracle(datum, "E", x, [1, 2]),
])
def test_points_of_another_dimension_raise_dimension_error(blowup, query):
    # the oracle once answered (2, 1, 5) as (2, 1), zip truncating the point,
    # and integer_order raised IndexError
    for x in ((2, 1, 5), (2,)):
        with pytest.raises(DimensionError):
            query(blowup, x)


class _Half(Fraction):
    pass


class _Level(IntEnum):
    ONE = 1


@pytest.mark.parametrize("x", [(True, 1), (1, False), (_Half(1, 2), 1), (_Level.ONE, 1)],
                         ids=["true", "false", "fraction-subclass", "int-subclass"])
@pytest.mark.parametrize("query", [
    lambda datum, x: asymptotic_order(datum, "E", x),
    lambda datum, x: integer_order(datum, "E", x, 2),
    lambda datum, x: stabilization_multiple(datum, "E", x, 4),
    lambda datum, x: o_value_oracle(datum, "E", x, [2]),
    lambda datum, x: make_segment(x),
], ids=["asymptotic_order", "integer_order", "stabilization_multiple", "o_value_oracle",
        "make_segment"])
def test_a_point_entry_that_is_not_exact_raises(blowup, query, x):
    # (True, 1) was answered as (1, 1): exact means an int or a Fraction, by
    # type, as linalg._EXACT_TYPES says
    with pytest.raises(TypeError, match="not an exact rational vector"):
        query(blowup, x)


@pytest.mark.parametrize("query", [
    lambda datum: asymptotic_order(datum, "X", (1, 1)),
    lambda datum: linearity_fan(datum, "X"),
    lambda datum: chamber_fan(replace(datum, valuations=("E", "X"))),
    lambda datum: integer_order(datum, "X", (1, 1), 1),
    lambda datum: stabilization_multiple(datum, "X", (1, 1), 4),
    lambda datum: o_value_oracle(datum, "X", (1, 1), [1]),
    lambda datum: grid_additivity_check(replace(datum, valuations=("E", "X")),
                                        chamber_fan(datum)),
], ids=["asymptotic_order", "linearity_fan", "chamber_fan", "integer_order",
        "stabilization_multiple", "o_value_oracle", "grid_additivity_check"])
def test_a_missing_multiplicity_is_inconsistent_input(blowup, query):
    # each raised a bare KeyError: 'X'
    with pytest.raises(InconsistentInput,
                       match="generator 0 has no multiplicity for valuation 'X'"):
        query(blowup)
    first, second, third = blowup.generators
    with_x = tuple(replace(g, mults=dict(g.mults, X=Fraction(1))) for g in (first, second))
    with pytest.raises(InconsistentInput,
                       match="generator 2 has no multiplicity for valuation 'X'"):
        query(replace(blowup, generators=with_x + (third,)))


def test_oracle_names_a_one_shot_point_of_another_dimension(blowup):
    # the message once read the point after the oracle had emptied it: "()"
    for x, name in (((2, 1, 3), "(2, 1, 3)"), ((Fraction(1, 2), 1, 3), "(1/2, 1, 3)")):
        with pytest.raises(DimensionError, match=re.escape(f"point {name} and")):
            o_value_oracle(blowup, "E", (v for v in x), [1])


def test_oracle_rejects_multidegrees_of_mixed_lengths(blowup):
    mixed = (GeneratorDatum((1, 0, 0), {"E": Fraction(1)}),) + blowup.generators[1:]
    with pytest.raises(DimensionError):
        o_value_oracle(replace(blowup, generators=mixed), "E", (1, 1), [1])


def _eager_ovalue(function, x):
    """The OValue of ``x`` built at once from the front kept basis of
    ``function``, as ``certificate`` built it before it became lazy, with
    the kept dual divided by the costs' denominator."""
    basis = function.bases[0]
    xs, x_den = clear_denominators(x)
    z = function._basic_solution(basis, xs)
    witness = [Fraction(0)] * len(function.degrees)
    for col, v in zip(basis.cols, z):
        witness[col] = Fraction(v, basis.inverse_den * x_den)
    dual_den = basis.dual_den * function.den
    return orders.OValue(
        Fraction(dot(basis.dual_num, xs), dual_den * x_den),
        tuple(witness),
        tuple(Fraction(v, dual_den) for v in basis.dual_num),
    )


# builtin examples and corpus seeds 1-15
LAZY_CASES = sorted(builtin_examples()) + [f"corpus-{seed}" for seed in range(1, 16)]


@pytest.mark.parametrize("name", LAZY_CASES)
def test_lazy_ovalue_equals_the_eager_one(name):
    datum = _named_datum(name)
    support = support_cone(datum)
    functions = {v: orders.order_function(datum, v) for v in datum.valuations}
    for valuation, x in _cache_queries(datum, chamber_fan(datum, support=support)):
        function = functions[valuation]
        lazy = function.certificate(x)
        eager = _eager_ovalue(function, x)
        assert (hash(lazy), repr(lazy)) == (hash(eager), repr(eager))
        assert lazy == eager and eager == lazy
        assert (lazy.value, lazy.witness, lazy.dual) == (eager.value, eager.witness, eager.dual)


def test_ovalue_is_read_only_and_copies():
    ov = asymptotic_order(builtin_examples()["blowup-P2"], "E", (2, 1))
    for name in ("value", "witness", "dual", "other"):
        with pytest.raises(AttributeError):
            setattr(ov, name, 0)
        with pytest.raises(AttributeError):
            delattr(ov, name)
    for twin in (copy.copy(ov), pickle.loads(pickle.dumps(ov))):
        assert twin == ov and repr(twin) == repr(ov)
    assert ov != orders.OValue(ov.value, ov.witness, (Fraction(7),) * len(ov.dual))
    assert ov != (ov.value, ov.witness, ov.dual)


@pytest.mark.parametrize("name", ["blowup-P2", "fractional-vertex", "corpus-2"])
def test_cold_value_at_an_integer_point_builds_one_fraction(name, monkeypatch):
    # the LP is solved on the integer costs and the basis read in integers:
    # the certificate's value is the only Fraction a cold query builds
    datum = _named_datum(name)
    points = _generator_sums(datum)
    expected = [_cold_value(datum, v, x) for v in datum.valuations for x in points]
    made = []
    original = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return original(cls, *args, **kwargs)

    got = []
    for valuation in datum.valuations:
        for x in points:
            _cold_start()
            function = orders.order_function(datum, valuation)
            monkeypatch.setattr(Fraction, "__new__", counted)
            made.clear()
            got.append(function.certificate(x).value)
            assert len(made) == 1, (valuation, x, made)
            monkeypatch.undo()
    assert got == expected


def test_warm_value_read_builds_no_witness_or_dual(monkeypatch):
    datum = _corpus_datum(2)
    support = support_cone(datum)
    queries = _cache_queries(datum, chamber_fan(datum, support=support))
    expected = [asymptotic_order(datum, v, x, support=support).value for v, x in queries]
    made = []

    def counted(*args):
        made.append(args)
        return Fraction(*args)

    def forbidden(*args, **kwargs):
        raise AssertionError("a warm key solved its LP")

    monkeypatch.setattr(orders, "Fraction", counted)
    monkeypatch.setattr(orders, "solve_min", forbidden)
    for (valuation, x), value in zip(queries, expected):
        made.clear()
        ov = asymptotic_order(datum, valuation, x, support=support)
        assert ov.value == value
        assert len(made) == 1
        witness = ov.witness
        read = len(made)
        assert read > 1
        dual = ov.dual
        assert len(made) == read + len(dual)
        assert ov.witness is witness and ov.dual is dual
        assert len(made) == read + len(dual)
        _, heights, _ = _lp_data(datum, valuation, x)
        assert dot(heights, witness) == value == dot(dual, x)


@pytest.mark.parametrize("k", [1.5, 2.0, True])
def test_integer_order_rejects_non_int_level(blowup, k):
    with pytest.raises(TypeError):
        integer_order(blowup, "E", (1, 1), k)


# stabilization_multiple decides each level by a feasibility search over the
# LP's tight generators; the reference below is the minimising loop it
# replaced, kept here so that the two stay independent


def _reference_stabilization(datum, valuation, x, k_max):
    lp = asymptotic_order(datum, valuation, x).value
    step = clear_denominators(x)[1]
    for k in range(step, k_max + 1, step):
        if integer_order(datum, valuation, x, k) == lp:
            return k
    return None


def _generator_sums(datum):
    degrees = [g.multidegree for g in datum.generators]
    return sorted({
        tuple(a + b for a, b in zip(degrees[i], degrees[j]))
        for i in range(len(degrees)) for j in range(i, len(degrees))
    })


def _without_units(datum):
    """The datum with its unit-vector generators removed."""
    generators = tuple(g for g in datum.generators
                       if sorted(g.multidegree) != [0] * (len(g.multidegree) - 1) + [1])
    return replace(datum, generators=generators)


def _assert_stabilization_matches_reference(datum, points, k_max=12):
    support = support_cone(datum)
    for valuation in datum.valuations:
        for x in points:
            expected = _reference_stabilization(datum, valuation, x, k_max)
            got = stabilization_multiple(datum, valuation, x, k_max, support=support)
            assert got == expected, (valuation, x)


@pytest.mark.parametrize("name", sorted(builtin_examples()))
def test_stabilization_equals_minimising_loop_on_builtin_examples(name):
    datum = builtin_examples()[name]
    points = _generator_sums(datum) + [tuple(g.multidegree) for g in datum.generators]
    _assert_stabilization_matches_reference(datum, points)


@pytest.mark.parametrize("seed", range(1, 21))
@pytest.mark.parametrize("units", [True, False])
def test_stabilization_equals_minimising_loop_on_corpus(seed, units):
    datum = _corpus_datum(seed)
    if not units:
        datum = _without_units(datum)
    _assert_stabilization_matches_reference(datum, _generator_sums(datum))


@st.composite
def small_levels_data(draw):
    """Two-coordinate data with Fraction multiplicities, and a point that is a
    nonnegative combination of the degrees over a small denominator."""
    degrees = draw(st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
        min_size=1, max_size=4,
    ))
    mults = draw(st.lists(
        st.builds(Fraction, st.integers(0, 6), st.integers(1, 3)),
        min_size=len(degrees), max_size=len(degrees),
    ))
    coefficients = draw(st.lists(st.integers(0, 2), min_size=len(degrees),
                                 max_size=len(degrees)))
    den = draw(st.integers(1, 3))
    x = tuple(Fraction(sum(c * d[j] for c, d in zip(coefficients, degrees)), den)
              for j in range(2))
    datum = RingDatum(
        r=1,
        labels=("K", "D1"),
        generators=tuple(GeneratorDatum(multidegree=d, mults={"E": h})
                         for d, h in zip(degrees, mults)),
        valuations=("E",),
        numerical=((Fraction(1), Fraction(0)),),
    )
    return datum, x


@given(small_levels_data(), st.integers(1, 8))
@settings(max_examples=150, derandomize=True, deadline=None)
def test_stabilization_equals_minimising_loop_on_small_data(data, k_max):
    datum, x = data
    assert (stabilization_multiple(datum, "E", x, k_max)
            == _reference_stabilization(datum, "E", x, k_max))


def test_stabilization_budget_bounds_the_whole_query(fractional, monkeypatch):
    # a generator of degree (4, 2) = 2 * (2, 1) and multiplicity 2 is tight
    # with (2, 1), so the tight generators are not the basic columns and the
    # levels are searched: levels 1 and 2 fail and level 3 succeeds, in 3, 6
    # and 2 nodes, and a budget that covers each level alone but not the
    # three together runs out
    extra = GeneratorDatum(multidegree=(4, 2), mults={"G": Fraction(2)})
    degenerate = replace(fractional, generators=fractional.generators + (extra,))
    monkeypatch.setattr(orders, "DEFAULT_NODE_BUDGET", 8)
    with pytest.raises(BudgetExceeded):
        stabilization_multiple(degenerate, "G", (1, 1), 12)
    monkeypatch.setattr(orders, "DEFAULT_NODE_BUDGET", 100)
    assert stabilization_multiple(degenerate, "G", (1, 1), 12) == 3


def test_nondegenerate_stabilization_spends_no_node(fractional, monkeypatch):
    # the tight generators (2, 1) and (1, 2) are the basic columns: level 3
    # is read off the basis, with no search
    monkeypatch.setattr(orders, "DEFAULT_NODE_BUDGET", 0)
    assert stabilization_multiple(fractional, "G", (1, 1), 12) == 3


def _searched_stabilization(datum, valuation, x, k_max, support):
    """The first k <= k_max, in steps of x's denominator, at which k*x is a
    nonnegative integer combination of the tight generators of nonzero
    degree, searched level by level with ``_representable``."""
    dual = asymptotic_order(datum, valuation, x, support=support).dual
    tight = [tuple(g.multidegree) for g in datum.generators
             if any(g.multidegree) and dot(dual, g.multidegree) == g.mults[valuation]]
    xs, step = clear_denominators(x)
    failed = set()
    for k in range(step, k_max + 1, step):
        if _representable(tight, [v * (k // step) for v in xs], failed, DEFAULT_NODE_BUDGET)[0]:
            return k
    return None


@pytest.mark.parametrize("first_seed", range(1, 101, 25))
@pytest.mark.parametrize("units", [True, False])
def test_stabilization_read_off_the_basis_equals_the_search(first_seed, units, monkeypatch):
    # corpus seeds in blocks of 25, at generator sums and at their halves;
    # a query that calls no search took the basis branch
    searches = []

    def counted(*args):
        searches.append(args)
        return _representable(*args)

    monkeypatch.setattr(orders, "_representable", counted)
    branches = set()
    for seed in range(first_seed, first_seed + 25):
        datum = _corpus_datum(seed)
        if not units:
            datum = _without_units(datum)
        if not datum.generators:
            continue
        support = support_cone(datum)
        sums = _generator_sums(datum)
        points = sums + [tuple(Fraction(v, 2) for v in x) for x in sums]
        for valuation in datum.valuations:
            for x in points:
                step = clear_denominators(x)[1]
                first = _searched_stabilization(datum, valuation, x, 30, support)
                for k_max in sorted({1, step - 1, 12, 30} - {0}):
                    expected = first if first is not None and first <= k_max else None
                    searches.clear()
                    got = stabilization_multiple(datum, valuation, x, k_max, support=support)
                    assert got == expected, (seed, valuation, x, k_max)
                    if k_max >= step:
                        branches.add(bool(searches))
    assert branches == {False, True}


@pytest.mark.parametrize("k_max", [True, 12.0, Fraction(12), "12", None])
def test_stabilization_rejects_non_int_k_max(blowup, k_max):
    with pytest.raises(TypeError):
        stabilization_multiple(blowup, "E", (2, 1), k_max)


@pytest.mark.parametrize("k_max", [0, -1])
def test_stabilization_rejects_nonpositive_k_max(blowup, k_max):
    with pytest.raises(ValueError):
        stabilization_multiple(blowup, "E", (2, 1), k_max)
