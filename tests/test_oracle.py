"""Instance generation and the independent enumeration oracle."""

from fractions import Fraction

import pytest

from mmpwalk import (
    InstanceSpec,
    asymptotic_order,
    builtin_examples,
    integer_order,
    o_value_oracle,
    random_instance,
)
from mmpwalk.errors import BudgetExceeded
from mmpwalk.orders import NO_REPRESENTATION
from mmpwalk.ring import GeneratorDatum, support_cone, validate


def spec(seed, r=2, generators=6, valuations=3, bound=4):
    return InstanceSpec(
        r=r,
        generator_count=generators,
        valuation_count=valuations,
        coordinate_bound=bound,
        seed=seed,
    )


def test_instances_are_deterministic():
    a = random_instance(spec(7))
    b = random_instance(spec(7))
    assert a == b
    c = random_instance(spec(8))
    assert a != c


def test_instances_validate_cleanly():
    for seed in range(1, 6):
        report = validate(random_instance(spec(seed)))
        assert report.ok(), [e.message for e in report.errors]


def test_instances_have_orthant_support():
    datum = random_instance(spec(3))
    sup = support_cone(datum)
    n = datum.grading_dim
    assert set(sup.rays) == {
        tuple(1 if j == i else 0 for j in range(n)) for i in range(n)
    }


def test_generator_count_clamped_with_warning():
    with pytest.warns(UserWarning):
        datum = random_instance(spec(1, r=2, generators=1))
    assert len(datum.generators) == 3


def test_bad_bounds_rejected():
    with pytest.raises(ValueError):
        random_instance(spec(1, r=0))


def test_oracle_values_match_integer_order():
    # the oracle is a deliberately separate implementation of the same
    # minimum; the two must agree k by k
    datum = builtin_examples()["fractional-vertex"]
    ks = [1, 2, 3, 4, 5, 6]
    values = o_value_oracle(datum, "G", (1, 1), ks)
    for k, v in zip(ks, values):
        ip = integer_order(datum, "G", (1, 1), k)
        if v is None:
            assert ip is NO_REPRESENTATION
        else:
            assert ip == v


def test_oracle_never_beats_lp():
    datum = random_instance(spec(5))
    sup = support_cone(datum)
    gens = [g.multidegree for g in datum.generators]
    x = tuple(a + b for a, b in zip(gens[0], gens[-1]))
    lp = asymptotic_order(datum, datum.valuations[0], x, support=sup).value
    values = o_value_oracle(datum, datum.valuations[0], x, [1, 2, 3])
    for v in values:
        if v is not None:
            assert v >= lp


def test_oracle_takes_rational_points_exactly():
    datum = builtin_examples()["blowup-P2"]
    # 1*(3/2, 1) is not an integer point; 2*(3/2, 1) = (3, 2) costs 1
    assert o_value_oracle(datum, "E", (Fraction(3, 2), 1), [1, 2, 4]) == (
        None,
        Fraction(1, 2),
        Fraction(1, 2),
    )


@pytest.mark.parametrize("mult", [0.5, 1.0, True])
def test_oracle_rejects_inexact_multiplicity(mult):
    # a float 0.5 must not be read as exactly 1/2: no datum the oracle could
    # be asked about holds one
    with pytest.raises(TypeError, match="mults holds"):
        GeneratorDatum((1, 0), {"E": mult})


def test_oracle_rejects_float_point():
    datum = builtin_examples()["blowup-P2"]
    with pytest.raises(TypeError):
        o_value_oracle(datum, "E", (0.5, 1.5), [2])


@pytest.mark.parametrize("ks", [[0], [-1], [1, 0]])
def test_oracle_rejects_nonpositive_level(ks):
    datum = builtin_examples()["blowup-P2"]
    with pytest.raises(ValueError):
        o_value_oracle(datum, "E", (1, 1), ks)


@pytest.mark.parametrize("k", [1.5, 2.0, True])
def test_oracle_rejects_non_int_level(k):
    # 1.5 must not read as "no integer representation", nor True as 1
    datum = builtin_examples()["blowup-P2"]
    with pytest.raises(TypeError):
        o_value_oracle(datum, "E", (1, 1), [k])
    with pytest.raises(TypeError):
        o_value_oracle(datum, "E", (1, 1), [1, k])


def test_oracle_budget():
    datum = builtin_examples()["blowup-P2"]
    with pytest.raises(BudgetExceeded):
        o_value_oracle(datum, "E", (20, 20), [12], budget=5)


def test_oracle_budget_bounds_the_whole_call():
    # each level 1..8 at (1, 1) fits in 256 nodes on its own, all eight do not
    datum = builtin_examples()["blowup-P2"]
    for k in range(1, 9):
        assert o_value_oracle(datum, "E", (1, 1), [k], budget=256) == (0,)
    with pytest.raises(BudgetExceeded):
        o_value_oracle(datum, "E", (1, 1), range(1, 9), budget=256)


@pytest.mark.parametrize("x", [(1, 1), (Fraction(1, 10**6), 1)])
def test_oracle_takes_levels_lazily(x):
    # a billion levels are neither listed nor checked up front: the budget
    # runs out first, also where k*x is not an integer point and no search
    # runs, since every level costs a node
    datum = builtin_examples()["blowup-P2"]
    with pytest.raises(BudgetExceeded):
        o_value_oracle(datum, "E", x, range(1, 10**9 + 1), budget=10_000)


def test_builtin_catalog_contents():
    catalog = builtin_examples()
    assert set(catalog) == {"blowup-P2", "quadrant-trivial", "fractional-vertex"}
    blowup = catalog["blowup-P2"]
    assert blowup.nef is not None
    assert blowup.nef.rays == ((1, -1), (1, 0))
    assert asymptotic_order(blowup, "E", (2, 1)).value == 1


def test_instance_heights_are_nonnegative_rationals():
    datum = random_instance(spec(9))
    for g in datum.generators:
        for v in datum.valuations:
            mult = g.mults[v]
            assert isinstance(mult, Fraction)
            assert mult >= 0
