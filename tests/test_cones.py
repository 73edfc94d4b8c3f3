"""Cone and fan kernel: double description, refinement, canonical form."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmpwalk import (
    builtin_examples,
    chamber_fan,
    linearity_fan,
    random_instance,
    support_cone,
)
from mmpwalk.cones import (
    Fan,
    PolyCone,
    _maximal,
    _tight_mask,
    common_refinement,
    cone_from_halfspaces,
    cone_from_rays,
    hyperplane_refinement,
    intersect,
    make_fan,
)
from mmpwalk import linalg
from mmpwalk.errors import DimensionError, InvalidCone, SupportMismatch
from mmpwalk.linalg import (
    dot,
    is_zero,
    primitive,
    rank,
    reduce_mod_rowspace,
    row_reduce,
    sign_canonical,
    solve_exact,
    vneg,
)

from corpus import corpus_spec


def test_primitive_clears_denominators_and_content():
    assert primitive((Fraction(1, 2), Fraction(3, 4))) == (2, 3)
    assert primitive((4, -6)) == (2, -3)
    assert primitive((0, 0)) == (0, 0)


def test_primitive_takes_the_gcd_of_an_integer_vector_first(monkeypatch):
    # an integer vector never goes through clear_denominators; a vector
    # with a Fraction entry does, once
    calls = []
    real = linalg.clear_denominators

    def counted(v):
        calls.append(v)
        return real(v)

    monkeypatch.setattr(linalg, "clear_denominators", counted)
    for v, want in [((4, -6, 10), (2, -3, 5)), ((3, 5), (3, 5)), ((0, -7), (0, -1)),
                    ((10**30, 3 * 10**30), (1, 3)), ((0, 0), (0, 0)), ((), ())]:
        assert primitive(v) == want
    assert calls == []
    assert primitive((Fraction(2, 3), 4)) == (1, 6)
    assert len(calls) == 1


def test_primitive_contract():
    one_half = Fraction(1, 2)
    assert primitive((one_half, 3, Fraction(-5, 6))) == (3, 18, -5)  # mixed
    assert primitive((Fraction(4), Fraction(6))) == (2, 3)
    assert primitive((Fraction(0), 0)) == (0, 0)
    # a list comes back as a tuple of ints, primitive or not
    for v, want in [([3, 5], (3, 5)), ([4, 6], (2, 3)), ([0, 0], (0, 0)),
                    ([one_half, 1], (1, 2))]:
        got = primitive(v)
        assert type(got) is tuple and got == want
        assert all(type(x) is int for x in got)
    # a primitive integer tuple is returned as it is
    v = (3, -5, 7)
    assert primitive(v) is v
    # a bool entry counts as the int it equals
    for v, want in [((True, 2), (1, 2)), ((True, False), (1, 0)), ((False, 4), (0, 1)),
                    ((False, False), (0, 0))]:
        got = primitive(v)
        assert got == want and all(type(x) is int for x in got)
    # inexact entries are never coerced
    for bad in [(0.5, 1), (1.0, 2), (1, 2.0), ("1", 2), (one_half, 0.25)]:
        with pytest.raises(TypeError):
            primitive(bad)


def test_one_shot_iterables_are_read_once():
    # an iterator gives what its tuple gives
    assert linalg.clear_denominators(x for x in (Fraction(1, 2), 1)) == ((1, 2), 2)
    assert linalg.clear_denominators(iter((Fraction(1, 3), Fraction(1, 6)))) == ((2, 1), 6)
    assert primitive(x for x in (2, 4)) == (1, 2)
    assert primitive(x for x in (Fraction(1, 2), 1)) == (1, 2)
    assert primitive(iter((3, 5))) == (3, 5)
    with pytest.raises(TypeError, match=r"\(0\.5, 1\)"):
        linalg.clear_denominators(x for x in (0.5, 1))
    # a tuple is read as it is, with no copy
    v = (3, -5, 7)
    assert primitive(v) is v
    assert linalg.clear_denominators(v) == (v, 1)


def test_clear_denominators_reads_no_entry_twice(monkeypatch):
    # a Fraction subclass is not exact, so reads are counted on Fraction itself
    reads = []
    real = Fraction.denominator

    def counted(self):
        reads.append(id(self))
        return real.fget(self)

    v = (Fraction(1, 2), Fraction(3, 4), Fraction(5))
    monkeypatch.setattr(Fraction, "denominator", property(counted))
    assert linalg.clear_denominators(v) == ((2, 3, 20), 4)
    assert reads == [id(x) for x in v]


def test_sign_canonical_flips_to_first_nonzero_positive():
    assert sign_canonical((0, -2, 4)) == (0, 1, -2)
    assert sign_canonical((3, -6)) == (1, -2)


def test_rank_and_row_reduce():
    assert rank([(1, 2), (2, 4)]) == 1
    assert rank([(1, 0), (0, 1)]) == 2
    ref = row_reduce([(2, 4), (1, 3)])
    assert len(ref) == 2
    assert rank(ref) == 2


def test_solve_exact_consistent_and_inconsistent():
    # columns of the identity: solve x = b
    assert solve_exact([(1, 0), (0, 1)], (3, 5)) == (Fraction(3), Fraction(5))
    assert solve_exact([(1,), (2,)], (1, 3)) is None  # overdetermined, no solution


def test_reduce_mod_rowspace():
    rows = row_reduce([(1, 1, 0)])
    reduced = reduce_mod_rowspace((2, 3, 4), rows)
    assert dot(reduced, (1, -1, 0)) == dot((2, 3, 4), (1, -1, 0))


def test_cone_dualization_quadrant_tilted():
    cone = cone_from_rays([(1, 1), (1, -1)])
    assert cone.rays == ((1, -1), (1, 1))
    assert cone.facets == ((1, -1), (1, 1))
    assert cone.dim == 2
    assert cone.equations == ()


def test_redundant_generator_dropped():
    cone = cone_from_rays([(1, 0), (0, 1), (1, 1)])
    assert cone.rays == ((0, 1), (1, 0))


def test_halfspace_roundtrip_gives_same_cone():
    a = cone_from_rays([(2, 1), (1, 3)])
    b = cone_from_halfspaces(a.facets, 2)
    assert a == b


def test_lower_dimensional_cone_has_equations():
    ray = cone_from_rays([(1, 1)])
    assert ray.dim == 1
    assert ray.rays == ((1, 1),)
    assert len(ray.equations) == 1
    assert dot(ray.equations[0], (1, 1)) == 0


def test_zero_dim_from_opposing_halfspaces():
    cone = cone_from_halfspaces([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    assert cone.dim == 0
    assert cone.rays == ()
    assert cone.contains((0, 0))
    assert not cone.contains((1, 0))
    # the zero cone's relative interior is the origin itself
    assert cone.contains((0, 0), strict=True)
    assert not cone.contains((1, 0), strict=True)
    assert not cone.contains((0, Fraction(-1, 2)), strict=True)


def test_lineality_from_halfspaces():
    # single half-space in the plane: lineality line plus one ray direction
    cone = cone_from_halfspaces([(0, 1)], 2)
    assert cone.dim == 2
    assert (1, 0) in cone.rays and (-1, 0) in cone.rays
    assert not cone.is_pointed()
    assert cone.contains((-7, 0)) and cone.contains((5, 2))
    assert not cone.contains((0, -1))


def test_contains_strict_and_dimension_check():
    cone = cone_from_rays([(1, 0), (0, 1)])
    assert cone.is_pointed()
    assert cone.contains((1, 1), strict=True)
    assert cone.contains((1, 0)) and not cone.contains((1, 0), strict=True)
    with pytest.raises(DimensionError):
        cone.contains((1, 0, 0))


@pytest.mark.parametrize("point", [(0.1 + 0.2, 0.3), (True, 1), (1.0, 1)],
                         ids=["float-sum", "bool", "integral-float"])
def test_contains_takes_only_exact_entries(point):
    # 0.1 + 0.2 is a little over 0.3, so the float point was strictly
    # inside; the exact (3/10, 3/10) lies on the facet (1, -1)
    cone = cone_from_rays([(1, 0), (1, 1)])
    assert (1, -1) in cone.facets
    assert not cone.contains((Fraction(3, 10), Fraction(3, 10)), strict=True)
    for strict in (False, True):
        with pytest.raises(TypeError, match="not exact"):
            cone.contains(point, strict=strict)


def test_relative_interior_point_is_strictly_inside():
    cone = cone_from_rays([(1, 0), (1, 5)])
    p = cone.relative_interior_point()
    assert cone.contains(p, strict=True)


def test_invalid_cone_inputs():
    with pytest.raises(InvalidCone):
        cone_from_rays([])
    with pytest.raises(InvalidCone):
        cone_from_rays([(0, 0)])
    with pytest.raises(DimensionError):
        cone_from_rays([(1, 0), (1, 0, 0)])


def test_halfspace_of_wrong_dimension_is_rejected():
    # a 3-vector in the plane used to be truncated silently
    with pytest.raises(DimensionError):
        cone_from_halfspaces([(1, 0, 0), (0, 1)], 2)
    with pytest.raises(DimensionError):
        cone_from_halfspaces([(1, 0)], 2, equations=[(0,)])


@pytest.mark.parametrize("build", [
    lambda entry: cone_from_rays([(entry, 0), (0, 1)]),
    lambda entry: cone_from_halfspaces([(entry, 0)], 2),
    lambda entry: cone_from_halfspaces([(1, 0)], 2, equations=[(0, entry)]),
], ids=["rays", "halfspaces", "equations"])
def test_cone_constructors_take_only_exact_entries(build):
    # primitive read True as 1, so both constructors returned a cone
    with pytest.raises(TypeError):
        build(True)


def test_intersection_shared_face_is_the_common_ray():
    a = cone_from_rays([(1, 0), (1, 1)])
    b = cone_from_rays([(1, 1), (0, 1)])
    c = intersect(a, b)
    assert c.rays == ((1, 1),)
    assert c.dim == 1


def test_intersection_of_disjoint_interiors_is_origin():
    a = cone_from_rays([(1, 0)])
    b = cone_from_rays([(0, 1)])
    c = intersect(a, b)
    assert c.dim == 0


def test_structural_equality_is_construction_independent():
    a = cone_from_rays([(1, 0), (0, 1), (2, 3)])
    b = cone_from_halfspaces([(1, 0), (0, 1)], 2)
    assert a == b
    assert hash(a.rays) == hash(b.rays)


def test_make_fan_sorts_and_deduplicates():
    support = cone_from_rays([(1, 0), (0, 1)])
    c1 = cone_from_rays([(1, 0), (1, 1)])
    c2 = cone_from_rays([(0, 1), (1, 1)])
    fan = make_fan([c2, c1, c1], support)
    assert fan.cells == (c2, c1)  # lexicographic by ray tuples


def test_fan_labels_default_to_empty_and_take_no_part_in_equality():
    support = cone_from_rays([(1, 0), (0, 1)])
    c1 = cone_from_rays([(1, 0), (1, 1)])
    c2 = cone_from_rays([(0, 1), (1, 1)])
    plain = make_fan([c1, c2], support)
    assert plain.labels == ((), ())
    # a Fan takes its labels; make_fan alone gives the empty ones
    with pytest.raises(TypeError):
        Fan((c2, c1), support)
    assert Fan((c2, c1), support, (("x",), ("y",))) == plain
    labelled = make_fan([c1, c2, c1], support, [("a",), ("b",), ("a",)])
    assert labelled.cells == (c2, c1)
    assert labelled.labels == (("b",), ("a",))  # sorted with their cells
    assert labelled == plain and hash(labelled) == hash(plain)


def test_common_refinement_concatenates_labels_in_fan_order():
    support = cone_from_rays([(1, 0), (0, 1)])
    left, right = cone_from_rays([(1, 0), (1, 1)]), cone_from_rays([(1, 1), (0, 1)])
    low, high = cone_from_rays([(1, 0), (1, 2)]), cone_from_rays([(1, 2), (0, 1)])
    fan_a = make_fan([left, right], support, [("L",), ("R",)])
    fan_b = make_fan([low, high], support, [("lo",), ("hi",)])
    refined = common_refinement([fan_a, fan_b])
    by_rays = {c.rays: label for c, label in zip(refined.cells, refined.labels)}
    assert by_rays == {
        ((1, 0), (1, 1)): ("L", "lo"),
        ((0, 1), (1, 2)): ("R", "hi"),
        ((1, 1), (1, 2)): ("R", "lo"),
    }
    swapped = common_refinement([fan_b, fan_a])
    assert swapped.labels == tuple(label[::-1] for label in refined.labels)


def test_hyperplane_refinement_slices_keep_their_cell_label():
    a, b, c, d = (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)
    support = cone_from_rays([a, b, c])
    # the star of d: each wall through d, extended, cuts the opposite cell
    cells = [cone_from_rays([a, b, d]), cone_from_rays([b, c, d]), cone_from_rays([c, a, d])]
    fan = make_fan(cells, support, [("ab",), ("bc",), ("ca",)])
    sliced = hyperplane_refinement(fan)
    assert len(sliced.cells) == 6
    for piece, label in zip(sliced.cells, sliced.labels):
        point = piece.relative_interior_point()
        (owner,) = [l for cell, l in zip(fan.cells, fan.labels) if cell.contains(point, strict=True)]
        assert label == owner


def test_common_refinement_of_two_subdivisions():
    support = cone_from_rays([(1, 0), (0, 1)])
    fan_a = make_fan(
        [cone_from_rays([(1, 0), (1, 1)]), cone_from_rays([(1, 1), (0, 1)])], support
    )
    fan_b = make_fan(
        [cone_from_rays([(1, 0), (1, 2)]), cone_from_rays([(1, 2), (0, 1)])], support
    )
    refined = common_refinement([fan_a, fan_b])
    assert len(refined.cells) == 3
    ray_sets = [set(c.rays) for c in refined.cells]
    assert {(1, 1), (1, 2)} in ray_sets


def test_common_refinement_identity():
    support = cone_from_rays([(1, 0), (0, 1)])
    fan = make_fan(
        [cone_from_rays([(1, 0), (1, 1)]), cone_from_rays([(1, 1), (0, 1)])], support
    )
    assert common_refinement([fan, fan]) == fan


def _scaled(fan, facet_scale, equation_scale):
    """``fan`` with each cell's facets times ``facet_scale`` and its
    equations times ``equation_scale``: the same cones, written with
    constraints that are not primitive."""
    def times(vectors, k):
        return tuple(tuple(k * x for x in v) for v in vectors)
    cells = tuple(PolyCone(c.ambient_dim, c.rays, times(c.facets, facet_scale),
                           times(c.equations, equation_scale)) for c in fan.cells)
    return Fan(cells, fan.support, fan.labels)


def _pieces(fan):
    """Each cell of ``fan`` as its rays, its primitive facets, its
    equations in reduced row-echelon form and its label."""
    return [(c.rays, sorted(map(primitive, c.facets)), row_reduce(c.equations), label)
            for c, label in zip(fan.cells, fan.labels)]


def _two_subdivisions(lift):
    """Two labelled subdivisions of the first quadrant, with each vector
    ``lift``ed into its ambient space."""
    support = cone_from_rays([lift((1, 0)), lift((0, 1))])
    def fan(middle, names):
        cells = [cone_from_rays([lift((1, 0)), lift(middle)]),
                 cone_from_rays([lift(middle), lift((0, 1))])]
        return make_fan(cells, support, names)
    return [fan((1, 1), [("L",), ("R",)]), fan((1, 2), [("lo",), ("hi",)])]


@pytest.mark.parametrize("facet_scale, equation_scale", [(2, -3), (6, 5)])
@pytest.mark.parametrize("lift", [tuple, lambda v: (*v, 0)], ids=["plane", "thin"])
def test_common_refinement_orients_constraints_that_are_not_primitive(
        lift, facet_scale, equation_scale):
    # a wall's side is the sign of its constraint's first nonzero entry:
    # the facet 2 * (-1, 1) lies on the same side of the wall (1, -1) as
    # (-1, 1), and the pieces and their labels are those of the primitive
    # fans; "thin" puts the quadrant in the plane x3 = 0 of 3-space
    fans = _two_subdivisions(lift)
    refined = common_refinement(fans)
    assert len(refined.cells) == 3
    scaled = [_scaled(fan, facet_scale, equation_scale) for fan in fans]
    assert _pieces(common_refinement(scaled)) == _pieces(refined)
    assert _pieces(common_refinement(scaled[::-1])) == _pieces(common_refinement(fans[::-1]))


def test_common_refinement_requires_shared_support():
    fan_a = make_fan([cone_from_rays([(1, 0), (0, 1)])], cone_from_rays([(1, 0), (0, 1)]))
    fan_b = make_fan([cone_from_rays([(1, 0), (1, 1)])], cone_from_rays([(1, 0), (1, 1)]))
    with pytest.raises(SupportMismatch):
        common_refinement([fan_a, fan_b])
    with pytest.raises(SupportMismatch):
        common_refinement([])


def test_hyperplane_refinement_slices_straddling_cell():
    support = cone_from_rays([(1, 0), (0, 1)])
    # one cell straddles the wall spanned by the other's facet direction (1,1)
    wall_owner = cone_from_rays([(1, 1), (1, 3)])
    straddler = cone_from_rays([(1, 0), (1, 2)])
    # build a fan whose facet hyperplanes include x=y
    fan = make_fan([cone_from_rays([(1, 0), (1, 1)]), cone_from_rays([(1, 1), (0, 1)])], support)
    assert hyperplane_refinement(fan) == fan  # already respects its own walls
    mixed = make_fan([straddler, wall_owner], support)
    sliced = hyperplane_refinement(mixed)
    for cell in sliced.cells:
        values = [dot((1, -1), r) for r in cell.rays]
        assert not (any(v > 0 for v in values) and any(v < 0 for v in values))


def test_hyperplane_refinement_idempotent():
    support = cone_from_rays([(1, 0), (0, 1)])
    fan = make_fan(
        [cone_from_rays([(1, 0), (2, 1)]), cone_from_rays([(2, 1), (0, 1)])], support
    )
    once = hyperplane_refinement(fan)
    assert hyperplane_refinement(once) == once


def test_facet_is_a_primitive_normal():
    # a facet is its primitive inward normal f, the half-space f . x >= 0;
    # sign_canonical gives the hyperplane it spans
    (f,) = cone_from_halfspaces([(0, -2)], 2).facets
    assert f == (0, -1)
    assert dot(f, (3, -1)) == 1
    assert sign_canonical(f) == (0, 1)


def test_three_dimensional_octant_facets():
    cone = cone_from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert len(cone.facets) == 3
    assert len(cone.rays) == 3
    assert cone.contains((2, 3, 4), strict=True)


def test_square_based_cone_has_four_rays():
    # cone over a square: four extreme rays, four facets, no ray is redundant
    rays = [(1, 1, 1), (1, -1, 1), (-1, 1, 1), (-1, -1, 1)]
    cone = cone_from_rays(rays + [(0, 0, 1)])  # interior generator dropped
    assert len(cone.rays) == 4
    assert len(cone.facets) == 4
    assert (0, 0, 1) not in cone.rays


def _corpus_cones():
    """Every support, linearity cell and chamber built for the builtin
    examples and corpus seeds 1-50, with and without refinement."""
    data = list(builtin_examples().values())
    data += [random_instance(corpus_spec(seed)) for seed in range(1, 51)]
    for datum in data:
        support = support_cone(datum)
        yield support
        for valuation in datum.valuations:
            yield from linearity_fan(datum, valuation, support).cells
        for refine in (False, True):
            yield from chamber_fan(datum, support=support, refine=refine).cells


def test_facets_and_equations_are_sorted_primitive_int_vectors():
    # the facets take the form of the equations, and with the equations
    # they cut the cone out again
    cones = list(_corpus_cones())
    assert len(cones) > 1000
    for cone in cones:
        for vectors in (cone.facets, cone.equations):
            assert type(vectors) is tuple
            for v in vectors:
                assert type(v) is tuple and len(v) == cone.ambient_dim
                assert all(type(x) is int for x in v) and gcd(*v) == 1
        assert list(cone.facets) == sorted(cone.facets)
        assert cone_from_halfspaces(cone.facets, cone.ambient_dim, cone.equations) == cone


# the subset tests of the cone kernel, each against its definition

@st.composite
def mask_lists(draw):
    """Masks over a few bits, repeats likely, and an ``everything`` mask
    that is either the full mask over those bits or one of the masks."""
    bits = draw(st.integers(min_value=0, max_value=5))
    masks = draw(st.lists(st.integers(min_value=0, max_value=(1 << bits) - 1), max_size=8))
    everything = draw(st.sampled_from([(1 << bits) - 1] + masks))
    return masks, everything


@given(mask_lists())
@example(([], 0))
@example(([0b11, 0b11, 0b01, 0b10], 0b11))
@example(([0b011, 0b110, 0b011, 0b111, 0b001], 0b111))
@settings(max_examples=500, deadline=None)
def test_maximal_keeps_the_masks_no_other_proper_mask_contains(case):
    masks, everything = case
    vectors = [(i,) for i in range(len(masks))]  # distinct, so the order shows
    proper = [m for m in masks if m != everything]
    expected = [v for v, m in zip(vectors, masks)
                if m != everything and not any(o != m and o | m == o for o in proper)]
    assert _maximal(vectors, masks, everything) == expected


vectors_3 = st.tuples(*([st.integers(min_value=-3, max_value=3)] * 3))


@given(vectors_3, st.lists(vectors_3, max_size=8))
@example((0, 0, 0), [(1, 2, 3), (0, 0, 0)])
@example((1, -1, 0), [])
@settings(max_examples=300, deadline=None)
def test_tight_mask_holds_the_rows_that_vanish(vec, rows):
    mask = _tight_mask(vec, rows)
    assert mask == sum(1 << j for j, c in enumerate(rows) if dot(c, vec) == 0)
    assert 0 <= mask < 1 << len(rows)


exact_entries = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.just(Fraction(0)),
)


@given(st.lists(exact_entries, max_size=5).map(tuple))
@example(())
@example((Fraction(0), 0, Fraction(0)))
@example((Fraction(0), Fraction(1, 2)))
@settings(max_examples=300, deadline=None)
def test_is_zero_and_vneg_on_int_and_fraction_entries(v):
    assert is_zero(v) == all(x == 0 for x in v)
    neg = vneg(v)
    assert type(neg) is tuple and neg == tuple(-x for x in v)
    assert [type(x) for x in neg] == [type(x) for x in v]
    assert is_zero(neg) == is_zero(v) and vneg(neg) == v
