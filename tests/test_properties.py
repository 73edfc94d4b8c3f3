"""Property-based checks for the geometric kernel and the order functions."""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mmpwalk import (
    InstanceSpec,
    asymptotic_order,
    chamber_fan,
    random_instance,
)
from mmpwalk import cones, linalg, orders
from mmpwalk.cones import cone_from_halfspaces, cone_from_rays, hyperplane_refinement
from mmpwalk.linalg import (
    clear_denominators,
    dot,
    primitive,
    rank,
    reduce_mod_rowspace,
    row_reduce,
    solve_exact,
)
from mmpwalk.ring import support_cone

from corpus import corpus_spec

coords = st.integers(min_value=-6, max_value=6)


def vectors(dim):
    return st.tuples(*([coords] * dim))


nonzero_vectors_2d = vectors(2).filter(lambda v: any(x != 0 for x in v))


@given(st.lists(nonzero_vectors_2d, min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_double_description_consistency_2d(rays):
    cone = cone_from_rays(rays)
    # every generator satisfies every facet and every equation
    for r in rays:
        assert cone.contains(r)
    # the facet description reproduces the same cone
    again = cone_from_halfspaces(cone.facets, 2, equations=cone.equations)
    assert again == cone


@given(st.lists(vectors(3).filter(lambda v: any(x != 0 for x in v)), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_double_description_consistency_3d(rays):
    cone = cone_from_rays(rays)
    for r in rays:
        assert cone.contains(r)
    again = cone_from_halfspaces(cone.facets, 3, equations=cone.equations)
    assert again == cone


@given(
    st.lists(nonzero_vectors_2d, min_size=2, max_size=4),
    st.integers(min_value=1, max_value=9),
)
@settings(max_examples=60, deadline=None)
def test_cone_invariant_under_generator_scaling(rays, factor):
    scaled = [tuple(factor * x for x in r) for r in rays]
    assert cone_from_rays(rays) == cone_from_rays(scaled)


@given(st.lists(nonzero_vectors_2d, min_size=1, max_size=4))
@example(rays=[(0, 1), (0, -1), (1, 0)])  # a half-plane: a cell with lineality
@settings(max_examples=60, deadline=None)
def test_hyperplane_refinement_idempotent(rays):
    cone = cone_from_rays(rays)
    if cone.dim < 2:
        return
    from mmpwalk.cones import make_fan

    fan = make_fan([cone], cone)
    once = hyperplane_refinement(fan)
    assert hyperplane_refinement(once) == once


@st.composite
def instance_and_point(draw):
    seed = draw(st.integers(min_value=1, max_value=40))
    r = draw(st.integers(min_value=1, max_value=2))
    datum = random_instance(
        InstanceSpec(
            r=r,
            generator_count=r + 3,
            valuation_count=2,
            coordinate_bound=3,
            seed=seed,
        )
    )
    n = datum.grading_dim
    num = [draw(st.integers(min_value=0, max_value=8)) for _ in range(n)]
    den = draw(st.integers(min_value=1, max_value=4))
    point = tuple(Fraction(v, den) for v in num)
    if all(v == 0 for v in num):
        point = tuple(Fraction(1) for _ in range(n))
    return datum, point


@given(instance_and_point(), st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_order_positively_homogeneous(pair, numerator):
    datum, point = pair
    valuation = datum.valuations[0]
    lam = Fraction(numerator, 3)
    base = asymptotic_order(datum, valuation, point).value
    scaled = asymptotic_order(
        datum, valuation, tuple(lam * x for x in point)
    ).value
    assert scaled == lam * base


@given(instance_and_point(), instance_and_point())
@settings(max_examples=40, deadline=None)
def test_order_subadditive_within_instance(pair_a, pair_b):
    datum, a = pair_a
    _, b = pair_b
    if len(a) != len(b):
        return
    valuation = datum.valuations[0]
    oa = asymptotic_order(datum, valuation, a).value
    ob = asymptotic_order(datum, valuation, b).value
    osum = asymptotic_order(
        datum, valuation, tuple(x + y for x, y in zip(a, b))
    ).value
    assert osum <= oa + ob


@given(st.integers(min_value=1, max_value=25))
@settings(max_examples=25, deadline=None)
def test_chamber_fan_cells_cover_sampled_points(seed):
    datum = random_instance(
        InstanceSpec(
            r=2, generator_count=5, valuation_count=2, coordinate_bound=3, seed=seed
        )
    )
    sup = support_cone(datum)
    fan = chamber_fan(datum, support=sup)
    # cell interiors are disjoint and their union covers the support
    probes = [cell.relative_interior_point() for cell in fan.cells]
    for p in probes:
        strict_hits = sum(1 for c in fan.cells if c.contains(p, strict=True))
        assert strict_hits == 1
        assert sup.contains(p)


rationals = st.one_of(
    coords, st.fractions(min_value=-6, max_value=6, max_denominator=7)
)


@st.composite
def matrices(draw):
    """Int, Fraction or mixed rows, with zero, repeated and dependent rows."""
    ncols = draw(st.integers(min_value=1, max_value=5))
    rows = draw(st.lists(st.tuples(*([rationals] * ncols)), max_size=5))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["zero", "repeat", "combination"]))
        if kind == "zero" or not rows:
            rows.append(tuple([0] * ncols))
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            c = draw(rationals)
            rows.append(tuple(x + c * y for x, y in zip(a, b)))
    return draw(st.permutations(rows))


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_rank_equals_row_reduce_length(rows):
    assert rank(rows) == len(row_reduce(rows))


def kernel(rows, n):
    """A basis of ``{y : row . y = 0 for every row}`` in dimension ``n``,
    as primitive integer vectors: one per non-pivot column of ``row_reduce``.
    The reference for the equations ``cones._cut`` reads off its masks.
    """
    pivots = [(next(j for j, x in enumerate(row) if x != 0), row) for row in row_reduce(rows)]
    scale = lcm(*(row[col] for col, row in pivots))
    pivot_cols = {col for col, _ in pivots}
    basis = []
    for free in range(n):
        if free in pivot_cols:
            continue
        y = [0] * n
        y[free] = scale
        for col, row in pivots:
            y[col] = -row[free] * (scale // row[col])
        basis.append(primitive(y))
    return basis


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_kernel_is_a_primitive_basis_of_the_null_space(rows):
    assume(rows)
    n = len(rows[0])
    basis = kernel(rows, n)
    assert len(basis) == rank(basis) == n - rank(rows)
    for y in basis:
        assert all(type(v) is int for v in y) and gcd(*y) == 1
        assert all(dot(row, y) == 0 for row in rows)


def reference_rref(rows):
    """Gauss-Jordan over Fraction, kept apart from the integer kernel it
    checks: ``(rref rows without zero rows, pivot columns)``."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [x / mat[r][col] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
    return mat[: len(pivots)], pivots


def reference_solve(rows, rhs):
    rref, pivots = reference_rref([tuple(r) + (b,) for r, b in zip(rows, rhs)])
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for row, col in zip(rref, pivots):
        x[col] = row[-1]
    return tuple(x)


@given(matrices())
@settings(max_examples=200, deadline=None)
def test_row_reduce_is_the_primitive_reference_rref(rows):
    rref, _ = reference_rref(rows)
    assert row_reduce(rows) == tuple(primitive(row) for row in rref)
    assert all(type(x) is int for row in row_reduce(rows) for x in row)


@given(matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_solve_exact_matches_reference(rows, data):
    if not rows:
        return
    # a consistent right-hand side half of the time, an arbitrary one otherwise
    if data.draw(st.booleans()):
        x = data.draw(st.tuples(*([rationals] * len(rows[0]))))
        rhs = tuple(sum(Fraction(a) * b for a, b in zip(row, x)) for row in rows)
    else:
        rhs = data.draw(st.tuples(*([rationals] * len(rows))))
    expected = reference_solve(rows, rhs)
    got = solve_exact(rows, rhs)
    assert got == expected
    if got is not None:
        assert all(type(x) is Fraction for x in got)


@given(matrices(), st.data())
@settings(max_examples=200, deadline=None)
def test_reduce_mod_rowspace_is_a_positive_multiple_of_the_reference(rows, data):
    if not rows:
        return
    v = data.draw(st.tuples(*([rationals] * len(rows[0]))))
    rref, pivots = reference_rref(rows)
    expected = [Fraction(x) for x in v]
    for row, col in zip(rref, pivots):
        f = expected[col]
        expected = [x - f * y for x, y in zip(expected, row)]
    got = reduce_mod_rowspace(v, row_reduce(rows))
    assert all(type(x) is int for x in got)
    # primitive(expected) is the positive multiple with coprime entries
    assert got == primitive(expected)


@given(st.lists(rationals, max_size=6))
@settings(max_examples=200, deadline=None)
def test_primitive_and_clear_denominators_are_exact(v):
    ints, d = clear_denominators(v)
    assert all(type(x) is int for x in ints) and type(d) is int
    assert d == lcm(*(Fraction(x).denominator for x in v))
    assert [Fraction(x, d) for x in ints] == [Fraction(x) for x in v]
    p = primitive(v)
    assert all(type(x) is int for x in p)
    if all(x == 0 for x in v):
        assert p == tuple([0] * len(v))
    else:
        # p is the positive multiple of v with coprime entries
        assert gcd(*p) == 1
        q = next(Fraction(a) / b for a, b in zip(p, v) if b != 0)
        assert q > 0 and all(a == q * b for a, b in zip(p, v))


def test_integer_kernel_builds_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError("Fraction built on an integer or rational input")

    mixed = [(Fraction(1, 2), 3, -4), (2, 0, Fraction(-5, 3)), (1, 6, -8)]
    expected = rank(mixed)
    reduced = row_reduce(mixed)
    monkeypatch.setattr(linalg, "Fraction", no_fraction)
    assert primitive((4, -6, 0)) == (2, -3, 0)
    assert clear_denominators((Fraction(1, 2), 3)) == ((1, 6), 2)
    assert rank([(1, 2), (2, 4), (0, 3)]) == 2
    assert rank(mixed) == expected == 2
    assert row_reduce(mixed) == reduced == ((6, 0, -5), (0, 36, -43))
    assert reduce_mod_rowspace(mixed[0], reduced) == (0, 0, 0)
    assert reduce_mod_rowspace((1, 1, 1), row_reduce([(1, 1, 0)])) == (0, 0, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: clear_denominators((1, 0.5)),
        lambda: primitive((2.0, 4)),
        lambda: rank([(1, 2), (Fraction(1, 3), 1.5)]),
        lambda: solve_exact([(1, 0), (0, 1)], (0.5, 1)),
    ],
    ids=["clear_denominators", "primitive", "rank", "solve_exact"],
)
def test_float_entry_raises_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_cut_equations_are_the_kernel_of_the_rays(monkeypatch):
    """On every cut that ``chamber_fan`` makes over corpus seeds 1-50, every
    piece its refinement splits off, and the intersection of every two
    cells of each datum's linearity fans, the equations read off the
    implicit equalities span the kernel of the rays and lines.  Many of
    those intersections meet in lower dimension: ``common_refinement``
    skips such pairs without cutting them."""
    cuts = []
    read_off = cones._read_off  # every cut and every refined piece is read off its masks

    def recorded(*args):
        piece = read_off(*args)
        cuts.append(piece)
        return piece

    monkeypatch.setattr(cones, "_read_off", recorded)
    for seed in range(1, 51):
        datum = random_instance(corpus_spec(seed))
        support = support_cone(datum)
        chamber_fan(datum, support=support)
        fans = [orders.linearity_fan(datum, v, support) for v in datum.valuations]
        cells = [cell for fan in fans for cell in fan.cells]
        for a, b in combinations(cells, 2):
            cones.intersect(a, b)
    for piece in cuts:
        assert piece.equations == row_reduce(kernel(list(piece.rays), piece.ambient_dim))
    lower = [piece.dim for piece in cuts if piece.dim < piece.ambient_dim]
    assert len(cuts) > 1500 and len(lower) > 500 and 0 in lower
