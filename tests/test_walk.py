"""Segment walks, nef classification, trace emission."""

from fractions import Fraction
from random import Random

import pytest

from mmpwalk import (
    InconsistentInput,
    InstanceSpec,
    MissingNefData,
    NonGenericSegment,
    OutsideSupport,
    builtin_examples,
    chamber_fan,
    classify_nef,
    emit_trace,
    make_segment,
    order_chambers,
    random_instance,
)
from mmpwalk.cones import cone_from_rays
from mmpwalk.linalg import clear_denominators, dot
from mmpwalk.ring import PushforwardDatum, RingDatum, support_cone
from mmpwalk.walk import _segment_interval


@pytest.fixture(scope="module")
def blowup():
    return builtin_examples()["blowup-P2"]


@pytest.fixture(scope="module")
def blowup_fan(blowup):
    return chamber_fan(blowup)


def test_make_segment_defaults_kappa_to_first_unit():
    seg = make_segment((0, 1), grading_dim=2)
    assert seg.kappa == (Fraction(1), Fraction(0))
    assert seg.point(0) == (Fraction(0), Fraction(1))
    assert seg.point(1) == (Fraction(1), Fraction(0))
    assert seg.point(Fraction(1, 2)) == (Fraction(1, 2), Fraction(1, 2))


@pytest.mark.parametrize("h, kappa", [
    ((0.1, 1), None), ((0, 1), (1.0, 0)), ((Fraction(1, 10), 1), (1, 0.5)),
])
def test_make_segment_rejects_floats(h, kappa):
    # 0.1 was once stored as 3602879701896397/36028797018963968
    with pytest.raises(TypeError):
        make_segment(h, kappa, grading_dim=2)


def test_make_segment_rejects_coinciding_endpoints():
    with pytest.raises(InconsistentInput):
        make_segment((1, 0), grading_dim=2)


def test_walk_two_chambers(blowup, blowup_fan):
    walk = order_chambers(blowup_fan, make_segment((0, 1), grading_dim=2))
    assert walk.length == 2
    assert walk.chambers == (0, 1)
    assert walk.intervals == (
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1)),
    )
    assert walk.crossings == ((Fraction(1, 2), Fraction(1, 2)),)


def test_intervals_partition_unit_interval(blowup_fan):
    walk = order_chambers(blowup_fan, make_segment((1, 4), grading_dim=2))
    assert walk.intervals[0][0] == 0
    assert walk.intervals[-1][1] == 1
    total = sum(hi - lo for lo, hi in walk.intervals)
    assert total == 1


def test_walk_inside_single_chamber(blowup_fan):
    # h below the diagonal: the segment stays in the chamber of kappa
    walk = order_chambers(blowup_fan, make_segment((2, 1), grading_dim=2))
    assert walk.length == 1
    assert walk.crossings == ()


def test_segment_along_wall_is_non_generic(blowup_fan):
    with pytest.raises(NonGenericSegment) as info:
        order_chambers(blowup_fan, make_segment((1, 1), grading_dim=2))
    assert info.value.walls
    wall = info.value.walls[0]
    # reported wall is the diagonal hyperplane
    assert wall in ((1, -1), (-1, 1))


def test_perturbed_segment_recovers(blowup_fan):
    walk = order_chambers(
        blowup_fan, make_segment((1, Fraction(9, 10)), grading_dim=2)
    )
    assert walk.length == 1


def test_endpoint_outside_support_raises(blowup_fan):
    with pytest.raises(OutsideSupport):
        order_chambers(blowup_fan, make_segment((-1, 1), grading_dim=2))


def test_classification_full_with_builtin_pushforward(blowup, blowup_fan):
    walk = order_chambers(blowup_fan, make_segment((0, 1), grading_dim=2))
    cls = classify_nef(walk, blowup)
    assert cls.mode == "full"
    assert cls.indices == (1, 2)
    assert cls.block_of(1) == 0
    assert cls.block_of(2) == 1


def test_classification_first_step_only(blowup, blowup_fan):
    stripped = RingDatum(
        r=blowup.r,
        labels=blowup.labels,
        generators=blowup.generators,
        valuations=blowup.valuations,
        numerical=blowup.numerical,
        nef=blowup.nef,
    )
    walk = order_chambers(blowup_fan, make_segment((0, 1), grading_dim=2))
    cls = classify_nef(walk, stripped)
    assert cls.mode == "first-step-only"
    assert cls.indices == (1,)


def test_classification_requires_nef_data(blowup_fan):
    datum = builtin_examples()["quadrant-trivial"]
    fan = chamber_fan(datum)
    walk = order_chambers(fan, make_segment((1, 3), grading_dim=2))
    with pytest.raises(MissingNefData):
        classify_nef(walk, datum)


def test_classification_rejects_non_nef_start(blowup, blowup_fan):
    # a nef cone that misses the image of the first chamber entirely
    broken = RingDatum(
        r=blowup.r,
        labels=blowup.labels,
        generators=blowup.generators,
        valuations=blowup.valuations,
        numerical=blowup.numerical,
        nef=cone_from_rays([(-1, 0), (0, -1)]),
    )
    walk = order_chambers(blowup_fan, make_segment((0, 1), grading_dim=2))
    with pytest.raises(InconsistentInput):
        classify_nef(walk, broken)


def test_full_classification_with_pushforward(blowup, blowup_fan):
    # second model: project to the first grading coordinate, everything nef
    pf = PushforwardDatum(
        model_id="P2",
        matrix=((Fraction(1), Fraction(0)),),
        nef=cone_from_rays([(1,)]),
    )
    datum = RingDatum(
        r=blowup.r,
        labels=blowup.labels,
        generators=blowup.generators,
        valuations=blowup.valuations,
        numerical=blowup.numerical,
        nef=blowup.nef,
        pushforwards=(pf,),
    )
    walk = order_chambers(blowup_fan, make_segment((0, 1), grading_dim=2))
    cls = classify_nef(walk, datum)
    assert cls.mode == "full"
    assert cls.indices == (1, 2)
    trace = emit_trace(walk, cls, datum)
    assert trace.steps[0].model_id == "P2"
    assert trace.steps[0].possibly_isomorphism is False
    assert trace.final_model_id == "P2"


def test_pushforward_not_covering_next_chamber_raises(blowup, blowup_fan):
    # a pushforward whose nef cone excludes the second chamber's rays
    pf = PushforwardDatum(
        model_id="bad",
        matrix=((Fraction(1), Fraction(0)),),
        nef=cone_from_rays([(-1,)]),
    )
    datum = RingDatum(
        r=blowup.r,
        labels=blowup.labels,
        generators=blowup.generators,
        valuations=blowup.valuations,
        numerical=blowup.numerical,
        nef=blowup.nef,
        pushforwards=(pf,),
    )
    walk = order_chambers(blowup_fan, make_segment((0, 1), grading_dim=2))
    with pytest.raises(InconsistentInput):
        classify_nef(walk, datum)


def test_trace_single_step(blowup, blowup_fan):
    walk = order_chambers(blowup_fan, make_segment((0, 1), grading_dim=2))
    cls = classify_nef(walk, blowup)
    trace = emit_trace(walk, cls, blowup)
    assert len(trace.steps) == 1
    step = trace.steps[0]
    assert (step.from_chamber, step.to_chamber) == (0, 1)
    assert step.t == Fraction(1, 2)
    assert step.wall_point == (Fraction(1, 2), Fraction(1, 2))
    assert step.possibly_isomorphism is False
    assert step.model_id == "P2"
    assert trace.final_chamber == 1
    assert trace.final_divisor == (Fraction(2), Fraction(1))
    assert trace.final_model_id == "P2"


def test_trace_without_classification_flags_unknown(blowup, blowup_fan):
    walk = order_chambers(blowup_fan, make_segment((0, 1), grading_dim=2))
    trace = emit_trace(walk)
    assert trace.steps[0].possibly_isomorphism is None
    assert trace.steps[0].model_id == "M2"


def test_wall_point_lies_on_shared_facet(blowup_fan):
    walk = order_chambers(blowup_fan, make_segment((0, 1), grading_dim=2))
    wall = walk.crossings[0]
    first, second = walk.cells
    assert any(dot(f, wall) == 0 for f in first.facets)
    assert any(dot(f, wall) == 0 for f in second.facets)


def _reference_segment_interval(cell, seg, branches):
    """The segment's t-interval in a cell, computed in ``Fraction``s as
    ``order_chambers`` did before it scaled the segment to integers; adds
    the name of every sign branch it takes to ``branches``."""
    lo, hi = Fraction(0), Fraction(1)
    for eq in cell.equations:
        alpha = dot(eq, seg.h)
        beta = dot(eq, seg.kappa) - alpha
        if alpha != 0 or beta != 0:
            if beta == 0:
                branches.add("equation, beta == 0")
                return None
            branches.add("equation, beta > 0" if beta > 0 else "equation, beta < 0")
            t = Fraction(-alpha, beta)
            if t < lo or t > hi:
                return None
            lo = hi = t
    for f in cell.facets:
        alpha = dot(f, seg.h)
        beta = dot(f, seg.kappa) - alpha
        if beta == 0:
            branches.add("facet, beta == 0")
            if alpha < 0:
                return None
        elif beta > 0:
            branches.add("facet, beta > 0")
            lo = max(lo, Fraction(-alpha, beta))
        else:
            branches.add("facet, beta < 0")
            hi = min(hi, Fraction(-alpha, beta))
    if lo > hi:
        return None
    return lo, hi


def _segment_cases():
    """Chamber fans of the builtin examples and corpus instances 1-15, each
    with its support's rays."""
    data = list(builtin_examples().values())
    for seed in range(1, 16):
        r = (1, 1, 2, 2, 3)[seed % 5]
        data.append(random_instance(InstanceSpec(
            r=r,
            generator_count={1: 6, 2: 6, 3: 5}[r],
            valuation_count={1: 4, 2: 3, 3: 2}[r],
            coordinate_bound=4,
            seed=seed,
        )))
    for datum in data:
        support = support_cone(datum)
        yield chamber_fan(datum, support=support), support.rays


def test_integer_segment_interval_matches_fraction_reference():
    # seeded endpoints h inside the support; kappa the first unit vector,
    # another support point, a ray of the face, or h moved along the face
    # (beta == 0 on it); cells and their faces of dimension one and two, so
    # that the equations are met too
    rng = Random(7)
    branches = set()
    met = 0

    def point(rays):
        return tuple(sum(Fraction(rng.randint(1, 9), rng.randint(1, 5)) * r[j] for r in rays)
                     for j in range(len(rays[0])))

    for fan, support_rays in _segment_cases():
        n = len(support_rays[0])
        for cell in fan.cells:
            rays = cell.rays
            faces = [cell] + [cone_from_rays([r]) for r in rays] + [
                cone_from_rays([a, b]) for i, a in enumerate(rays) for b in rays[i + 1:]]
            for face in faces:
                h = point(support_rays)
                kappas = [tuple(int(j == 0) for j in range(n)), point(support_rays),
                          face.rays[0]]
                if len(face.rays) > 1:
                    a, b = face.rays[:2]
                    kappas.append(tuple(x + u - v for x, u, v in zip(h, a, b)))
                for kappa in kappas:
                    if tuple(kappa) == h:
                        continue
                    seg = make_segment(h, kappa)
                    scaled, _ = clear_denominators(seg.h + seg.kappa)
                    hs = scaled[:n]
                    d = tuple(k - a for k, a in zip(scaled[n:], hs))
                    expected = _reference_segment_interval(face, seg, branches)
                    assert _segment_interval(face, hs, d) == expected, (face, seg)
                    met += expected is not None
    assert branches == {
        "equation, beta == 0", "equation, beta > 0", "equation, beta < 0",
        "facet, beta == 0", "facet, beta > 0", "facet, beta < 0",
    }
    assert met > 100
