"""Segment walks, nef classification, trace emission."""

import io
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from random import Random

import pytest

from mmpwalk import (
    DimensionError,
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
from mmpwalk.cli import main
from mmpwalk.cones import cone_from_rays, make_fan
from mmpwalk.linalg import clear_denominators, dot, mat_apply
from mmpwalk.ring import PushforwardDatum, RingDatum, support_cone, validate
from mmpwalk.serialize import dumps, ring_to_json
from mmpwalk.walk import ChamberWalk, NefClassification, _segment_interval

from corpus import corpus_spec


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


@pytest.mark.parametrize("kwargs", [dict(grading_dim=3), dict(kappa=(1, 0, 0))])
def test_make_segment_rejects_endpoints_of_different_lengths(kwargs):
    # point() zipped the endpoints and dropped kappa's third coordinate
    with pytest.raises(DimensionError, match="h has 2 entries, kappa 3"):
        make_segment((0, 1), **kwargs)


@pytest.mark.parametrize("t", [0.1, 0.5, True, False, "1/2", None])
def test_segment_point_rejects_what_is_not_an_int_or_fraction(t):
    # 0.1 was once read as 3602879701896397/36028797018963968, and True as 1
    seg = make_segment((0, 1), grading_dim=2)
    with pytest.raises(TypeError):
        seg.point(t)


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


def test_classification_of_a_nef_cone_without_a_numerical_map(blowup, blowup_fan):
    # validate reports nef-without-map; classify_nef raised AttributeError
    # on the missing map's apply
    walk = order_chambers(blowup_fan, make_segment((1, 3), grading_dim=2))
    with pytest.raises(MissingNefData, match="a nef cone needs a numerical map"):
        classify_nef(walk, replace(blowup, numerical=None))


def test_mat_apply_rejects_a_vector_of_another_length(blowup):
    # dot zipped a row with the shorter vector: (1, 2, 3) gave (14, -1)
    with pytest.raises(DimensionError):
        mat_apply(blowup.numerical, (1, 2, 3))
    assert mat_apply(blowup.numerical, (1, 2)) == (14, -1)


def test_classification_rejects_a_short_pushforward_map(blowup, blowup_fan):
    # rows of length 1 returned NefClassification(indices=(1, 2), mode='full')
    # although validate reports bad-pushforward-map
    pf = blowup.pushforwards[0]
    short = replace(blowup, pushforwards=(replace(pf, matrix=((Fraction(2),),)),))
    assert "bad-pushforward-map" in [e.code for e in validate(short).errors]
    walk = order_chambers(blowup_fan, make_segment((0, 1), grading_dim=2))
    with pytest.raises(DimensionError):
        classify_nef(walk, short)


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


IDENTITY = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_pushforward_chain_shorter_than_the_walk(monkeypatch, capsys):
    # a walk through three chambers, the first nef on the datum and the
    # second on the one pushforward: the third has no model to be nef on
    datum = random_instance(InstanceSpec(1, 6, 2, 4, 1))
    walk = order_chambers(chamber_fan(datum), make_segment((0, 1), grading_dim=2))
    assert walk.length == 3
    pf = PushforwardDatum(model_id="M2", matrix=IDENTITY, nef=walk.cells[1])
    datum = replace(datum, numerical=IDENTITY, nef=walk.cells[0], pushforwards=(pf,))
    with pytest.raises(MissingNefData, match="pushforward chain ended before the walk did"):
        classify_nef(walk, datum)
    monkeypatch.setattr("sys.stdin", io.StringIO(dumps(ring_to_json(datum, segment_h=(0, 1)))))
    assert main(["walk", "--input", "-"]) == 3
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: pushforward chain ended before the walk did\n")


def test_nef_chambers_must_be_an_initial_block(blowup, blowup_fan):
    # the nef cone holds the first and the last chamber of the walk, not
    # the one between them
    walk = order_chambers(blowup_fan, make_segment((0, 1), grading_dim=2))
    first, second = walk.cells
    half = Fraction(1, 2)
    broken = ChamberWalk((0, 1, 0), (first, second, first),
                         ((0, half), (half, half), (half, 1)), walk.crossings * 2)
    datum = replace(blowup, numerical=IDENTITY, nef=first, pushforwards=())
    with pytest.raises(InconsistentInput, match="nef chambers are not an initial block"):
        classify_nef(broken, datum)


QUADRANT = cone_from_rays([(1, 0), (0, 1)])


@pytest.mark.parametrize("cells, error, message", [
    # the segment from (0, 1) to (1, 0) runs through (t, 1 - t)
    ([], OutsideSupport, "segment does not meet any chamber"),
    # x >= y only from t = 1/2 on
    ([[(1, 0), (1, 1)]], InconsistentInput, "chamber intervals do not cover the segment"),
    # x <= y / 2 up to t = 1/3 and x >= y from t = 1/2 on: a gap between them
    ([[(0, 1), (1, 2)], [(1, 0), (1, 1)]], InconsistentInput,
     "chamber intervals do not partition the segment"),
    # x <= y up to t = 1/2 and x >= y / 2 from t = 1/3 on: an overlap
    ([[(0, 1), (1, 1)], [(1, 0), (1, 2)]], InconsistentInput,
     "chamber intervals do not partition the segment"),
], ids=["no-cells", "uncovered-start", "gap", "overlap"])
def test_order_chambers_rejects_cells_that_do_not_partition_the_segment(cells, error,
                                                                        message):
    fan = make_fan([cone_from_rays(rays) for rays in cells], QUADRANT)
    with pytest.raises(error, match=message):
        order_chambers(fan, make_segment((0, 1), grading_dim=2))


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
    data += [random_instance(corpus_spec(seed)) for seed in range(1, 16)]
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
        # one weight per ray, so the point is a positive combination of them
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in rays]
        p = tuple(sum(w * r[j] for w, r in zip(weights, rays)) for j in range(len(rays[0])))
        assert fan.support.contains(p), p
        return p

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


def _reference_order_chambers(fan, seg):
    """``order_chambers``'s outcome decided in ``Fraction``s on the
    segment's points: each cell's interval by
    ``_reference_segment_interval``, a touch's walls the facets with
    ``dot(f, seg.point(t)) == 0``, and an interval met in a cell's interior
    when ``cell.contains(seg.point(mid), strict=True)``.  Returns the met
    ``(lo, hi, index)`` triples sorted, or ``(message, cell, walls)`` of the
    first cell met without its interior."""
    met = []
    for idx, cell in enumerate(fan.cells):
        interval = _reference_segment_interval(cell, seg, set())
        if interval is None:
            continue
        lo, hi = interval
        if lo == hi:
            if lo == 1:
                continue
            point = seg.point(lo)
            return (f"segment touches a chamber only at t={lo}", cell,
                    tuple(f for f in cell.facets if dot(f, point) == 0))
        mid = seg.point((lo + hi) / 2)
        if not cell.contains(mid, strict=True):
            return ("segment runs inside a wall of a chamber", cell,
                    tuple(f for f in cell.facets if dot(f, mid) == 0))
        met.append((lo, hi, idx))
    return sorted(met)


def test_integer_genericity_matches_fraction_reference():
    # endpoints inside the support: random points, rays of a cell (touches
    # at t = 0 or t = 1), a ray and a point of the same cell, and two
    # points of one facet of a cell (the segment runs inside that wall)
    rng = Random(13)
    kinds = {}

    def point(rays):
        weights = [Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in rays]
        return tuple(sum(w * r[j] for w, r in zip(weights, rays)) for j in range(len(rays[0])))

    for fan, support_rays in _segment_cases():
        pairs = [(point(support_rays), point(support_rays)) for _ in range(8)]
        for cell in fan.cells:
            a, b = rng.sample(cell.rays, 2) if len(cell.rays) > 1 else (cell.rays[0],) * 2
            pairs += [(a, point(support_rays)), (point(support_rays), a), (a, point(cell.rays))]
            if a != b:
                pairs.append((a, b))
            if cell.facets:
                f = rng.choice(cell.facets)
                wall = [r for r in cell.rays if dot(f, r) == 0]
                pairs.append((point(wall), point(wall)))
        for h, kappa in pairs:
            if tuple(h) == tuple(kappa):
                continue
            seg = make_segment(h, kappa)
            expected = _reference_order_chambers(fan, seg)
            try:
                walk = order_chambers(fan, seg)
            except NonGenericSegment as exc:
                outcome = (str(exc), exc.cell, exc.walls)
                kind = str(exc).split(" only")[0]
            else:
                outcome = [(lo, hi, idx) for (lo, hi), idx in zip(walk.intervals, walk.chambers)]
                kind = "walk"
            assert outcome == expected, (h, kappa)
            kinds[kind] = kinds.get(kind, 0) + 1
    assert set(kinds) == {"walk", "segment touches a chamber",
                          "segment runs inside a wall of a chamber"}, kinds
    assert min(kinds.values()) > 100, kinds


def _reference_block_of(indices, chamber_position):
    """``NefClassification.block_of`` as a linear scan of the block ends."""
    for b, end in enumerate(indices):
        if chamber_position <= end:
            return b
    return len(indices)


def _reference_flag(cls, i):
    """The flag of step ``i`` (chamber i+1 to i+2) by the branch-by-branch
    rule: block ends compared in "full" mode, and in "first-step-only"
    True before the first end ``k0``, False across it, None past it."""
    if cls is None:
        return None
    if cls.mode == "full":
        return _reference_block_of(cls.indices, i + 1) == _reference_block_of(cls.indices, i + 2)
    k0 = cls.indices[0]
    if i + 2 <= k0:
        return True
    if i + 1 == k0:
        return False
    return None


def test_trace_flags_match_the_branch_rule_on_synthetic_walks():
    # walks of 1-6 chambers, both modes, every strictly increasing tuple of
    # block ends in 0..length+1 (so every k0, and ends past the last chamber)
    cone = cone_from_rays([(1, 0), (0, 1)])
    flags = set()
    for length in range(1, 7):
        walk = ChamberWalk(
            chambers=tuple(range(length)),
            cells=(cone,) * length,
            intervals=tuple((Fraction(i, length), Fraction(i + 1, length)) for i in range(length)),
            crossings=tuple((Fraction(i + 1, length),) for i in range(length - 1)),
        )
        assert [s.possibly_isomorphism for s in emit_trace(walk).steps] == [None] * (length - 1)
        positions = range(length + 2)
        for mode in ("first-step-only", "full"):
            for size in range(mode == "first-step-only", len(positions) + 1):
                for indices in combinations(positions, size):
                    cls = NefClassification(indices, mode)
                    for p in range(length + 3):
                        assert cls.block_of(p) == _reference_block_of(indices, p), (indices, p)
                    got = [s.possibly_isomorphism for s in emit_trace(walk, cls).steps]
                    expected = [_reference_flag(cls, i) for i in range(length - 1)]
                    assert got == expected, (length, mode, indices)
                    flags.update(got)
    assert flags == {True, False, None}
