"""Double description: one extremality test, one conversion per pointed cone.

``cones._dd`` decides extremality by the combinatorial adjacency test
alone, with a tight-set bitmask carried by each ray.  It is compared here
with a reference copy of the earlier ``_dd``, which recomputed the masks at
every step and kept a rank test on every output ray as a safety net.
Started from a cone's lines and its rays with their facet masks, ``_dd``
is compared with ``_dd`` from the whole space over the cone's facets,
both sides of its equations and the new normals.

``cone_from_rays`` converts once and every other cone is cut out of one by
``cones._cut``, which continues the conversion from a cone's own lines and
rays; a cone with lineality takes one more conversion to fix its ray
representatives.  ``cone_from_rays``, ``cone_from_halfspaces``,
``intersect`` and every slice that ``hyperplane_refinement`` makes on the
corpus and on hand-built fans whose cells hold lines are compared with
from-scratch references: the two-conversion construction (generators ->
facets -> rays) which the package used before, applied to all the
half-spaces and equations at once.
``common_refinement`` decides and cuts each pair of cells from one table of
the next fan's walls per cell: the tests check that every skipped pair
meets in lower dimension and every pair kept with no cut is the cell
itself, pin the conversions it makes on two corpus documents, and compare
its pieces with those of the earlier pairwise loop (a separation pretest,
then ``intersect``), kept here as a reference.  ``orders.linearity_fan``
converts the lifted cone once, with its own ``_dd`` call, and reads every
cell off that call's masks; each read-off cell and label is compared with
``cone_from_rays`` of the cell's projected lifted rays, and the whole fan,
or its error, with the earlier read-off of a lifted ``PolyCone``, kept
here as a reference.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmpwalk import (
    builtin_examples,
    cell_functionals,
    chamber_fan,
    random_instance,
)
from mmpwalk import cones, orders
from mmpwalk.cones import (
    PolyCone,
    cone_from_halfspaces,
    cone_from_rays,
    hyperplane_refinement,
    intersect,
    make_fan,
)
from mmpwalk.linalg import (
    dot,
    is_zero,
    primitive,
    rank,
    reduce_mod_rowspace,
    row_reduce,
    sign_canonical,
    vneg,
)
from mmpwalk.errors import InvalidCone
from mmpwalk.ring import GeneratorDatum, RingDatum, support_cone
from mmpwalk.serialize import ring_from_json

from corpus import corpus_spec
from test_cli import THIN_DOCUMENT


def _reference_dd(ineqs, n):
    """The earlier ``_dd``: tight sets recomputed over the processed rows at
    every step, and a rank test on every output ray after the loop."""
    def tight_mask(vec, processed):
        return sum(1 << j for j, c in enumerate(processed) if dot(c, vec) == 0)

    lines = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays = []
    processed = []
    for a in ineqs:
        a = primitive(a)
        if is_zero(a):
            continue
        pivot = next((l for l in lines if dot(a, l) != 0), None)
        if pivot is not None:
            lines.remove(pivot)
            if dot(a, pivot) < 0:
                pivot = vneg(pivot)
            ap = dot(a, pivot)
            lines = [primitive(tuple(ap * x - dot(a, l) * p for x, p in zip(l, pivot)))
                     for l in lines]
            rays = [primitive(tuple(ap * x - dot(a, r) * p for x, p in zip(r, pivot)))
                    for r in rays]
            rays.append(pivot)
            processed.append(a)
            continue
        masks = [tight_mask(r, processed) for r in rays]
        pos = [(r, m) for r, m in zip(rays, masks) if dot(a, r) > 0]
        neg = [(r, m) for r, m in zip(rays, masks) if dot(a, r) < 0]
        zero = [r for r in rays if dot(a, r) == 0]
        if neg:
            new = set()
            for rp, mp in pos:
                for rn, mn in neg:
                    common = mp & mn
                    if any(common & ~ms == 0 for rs, ms in zip(rays, masks)
                           if rs is not rp and rs is not rn):
                        continue
                    new.add(primitive(tuple(dot(a, rp) * xn - dot(a, rn) * xp
                                            for xn, xp in zip(rn, rp))))
            rays = [r for r, _ in pos] + zero + sorted(new)
        processed.append(a)
    want = n - len(lines) - 1
    kept = []
    for r in rays:
        if r not in kept and rank([c for c in processed if dot(c, r) == 0]) == want:
            kept.append(r)
    return lines, kept


@st.composite
def inequality_systems(draw):
    """Up to 12 rows in dimension <= 6, with zero rows, repeated rows and
    opposing pairs mixed in."""
    n = draw(st.integers(min_value=1, max_value=6))
    vec = st.tuples(*([st.integers(min_value=-2, max_value=2)] * n))
    rows = draw(st.lists(vec, min_size=0, max_size=9))
    extras = draw(st.lists(st.tuples(st.sampled_from(["zero", "repeat", "oppose"]),
                                     st.integers(min_value=0)), max_size=3))
    for kind, i in extras:
        if kind == "zero":
            rows.insert(i % (len(rows) + 1), tuple([0] * n))
        elif rows:
            row = rows[i % len(rows)]
            rows.append(row if kind == "repeat" else vneg(row))
    return n, rows


def _assert_exact_masks(inputs, rays):
    """Each ray's mask holds exactly the inputs tight at it, bit j for
    ``inputs[j]``."""
    for r, m in rays:
        assert m == sum(1 << j for j, a in enumerate(inputs) if dot(a, r) == 0)


@given(inequality_systems())
@settings(max_examples=400, deadline=None)
def test_dd_matches_reference_with_rank_safety_net(case):
    n, rows = case
    lines, rays = cones._dd(rows, n)
    _assert_exact_masks(rows, rays)
    rays = [r for r, _ in rays]
    ref_lines, ref_rays = _reference_dd(rows, n)
    assert lines == ref_lines
    assert sorted(rays) == sorted(ref_rays)
    assert len(set(rays)) == len(rays)


def test_lineality_cone_from_halfspaces_takes_two_conversions(monkeypatch):
    calls = []
    dd = cones._dd

    def counted_dd(*args):
        calls.append(args)
        return dd(*args)

    monkeypatch.setattr(cones, "_dd", counted_dd)
    # a half-plane in 2D and a wedge times a line in 3D
    for halfspaces, n in (([(0, 1)], 2), ([(1, 0, 0), (0, 1, 0)], 3)):
        calls.clear()
        cone = cone_from_halfspaces(halfspaces, n)
        assert _has_lineality(cone)
        assert len(calls) == 2
        assert cone == _reference_from_halfspaces(halfspaces, n)


def _reference_assemble(generators, n):
    gens = sorted({primitive(g) for g in generators if not is_zero(g)})
    if not gens:
        eye = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
        return PolyCone(n, (), (), eye)
    dual_lines, dual_rays = cones._dd(gens, n)
    equations = row_reduce(dual_lines)
    facets = sorted(
        {reduce_mod_rowspace(q, equations) for q, _ in dual_rays} - {tuple([0] * n)}
    )
    constraints = list(facets)
    for eq in equations:
        constraints += [eq, vneg(eq)]
    lines, rays = cones._dd(constraints, n)
    ray_set = {r for r, _ in rays} | set(lines) | {vneg(l) for l in lines}
    return PolyCone(n, tuple(sorted(ray_set)), tuple(facets), equations)


def _reference_from_halfspaces(halfspaces, n, equations=()):
    constraints = [tuple(h) for h in halfspaces]
    for eq in equations:
        constraints += [tuple(eq), vneg(tuple(eq))]
    lines, rays = cones._dd(constraints, n)
    gens = [r for r, _ in rays] + list(lines) + [vneg(l) for l in lines]
    return _reference_assemble(gens, n)


def _reference_intersect(a, b):
    return _reference_from_halfspaces(
        list(a.facets) + list(b.facets), a.ambient_dim,
        equations=list(a.equations) + list(b.equations),
    )


def _has_lineality(cone):
    return any(vneg(r) in cone.rays for r in cone.rays)


@st.composite
def generator_sets(draw):
    """Generators of a pointed, lower-dimensional or lineality cone."""
    n = draw(st.integers(min_value=1, max_value=4))
    coords = st.integers(min_value=-3, max_value=3)
    kind = draw(st.sampled_from(["pointed", "lower", "lineality", "any"]))
    if kind == "pointed":
        # every generator has a positive last coordinate, or is e_n
        vec = st.tuples(*([coords] * (n - 1)), st.integers(min_value=1, max_value=3))
    elif kind == "lower":
        # generators in the span of at most n - 1 random vectors
        basis = draw(st.lists(st.tuples(*([coords] * n)), min_size=1, max_size=max(1, n - 1)))
        weights = st.lists(st.integers(min_value=0, max_value=3), min_size=len(basis),
                           max_size=len(basis))
        vec = weights.map(lambda w: tuple(sum(c * b[j] for c, b in zip(w, basis))
                                          for j in range(n)))
    else:
        vec = st.tuples(*([coords] * n))
    gens = draw(st.lists(vec, min_size=1, max_size=6))
    if kind == "lineality":
        gens.append(vneg(gens[0]))
    if all(is_zero(g) for g in gens):
        gens.append(tuple([1] + [0] * (n - 1)))
    return n, gens


@st.composite
def halfspace_systems(draw):
    """Half-spaces and equations; few of them leave lineality, opposing
    ones cut the cone down to the origin."""
    n = draw(st.integers(min_value=1, max_value=4))
    vec = st.tuples(*([st.integers(min_value=-3, max_value=3)] * n))
    halfspaces = draw(st.lists(vec, min_size=0, max_size=6))
    if draw(st.booleans()):
        halfspaces += [vneg(h) for h in halfspaces]
    equations = draw(st.lists(vec, min_size=0, max_size=2))
    return n, halfspaces, equations


@given(generator_sets())
@settings(max_examples=300, deadline=None)
def test_cone_from_rays_matches_two_conversions(case):
    n, gens = case
    assert cone_from_rays(gens) == _reference_assemble(gens, n)


@given(halfspace_systems())
@settings(max_examples=300, deadline=None)
def test_cone_from_halfspaces_matches_two_conversions(case):
    n, halfspaces, equations = case
    got = cone_from_halfspaces(halfspaces, n, equations=equations)
    assert got == _reference_from_halfspaces(halfspaces, n, equations=equations)
    halfspaces = [primitive(h) for h in halfspaces]
    assert cone_from_halfspaces(halfspaces, n, equations=equations) == got


@given(generator_sets(), st.data())
@settings(max_examples=200, deadline=None)
def test_intersect_matches_two_conversions(case, data):
    n, gens = case
    others = data.draw(
        st.lists(st.tuples(*([st.integers(min_value=-3, max_value=3)] * n)),
                 min_size=1, max_size=5).filter(lambda g: not all(map(is_zero, g)))
    )
    a, b = cone_from_rays(gens), cone_from_rays(others)
    assert intersect(a, b) == _reference_intersect(a, b)


@st.composite
def cones_and_normals(draw):
    """A cone's generators and up to four normals to cut it by."""
    n, gens = draw(generator_sets())
    normals = draw(
        st.lists(st.tuples(*([st.integers(min_value=-3, max_value=3)] * n)), max_size=4)
    )
    return n, gens, normals


@given(cones_and_normals())
@example((2, [(1, 1)], [(1, -1), (0, 1)]))  # a ray: its one facet is tight at no ray
@example((2, [(0, 1), (0, -1), (1, 0)], [(1, 1)]))  # a half-plane cut across its line
@settings(max_examples=300, deadline=None)
def test_dd_from_a_pointed_cone_matches_dd_from_the_whole_space(case):
    n, gens, normals = case
    cone = cone_from_rays(gens)
    facets = list(cone.facets)
    start_lines, start = cones._lines_and_rays(cone)
    assert 2 * len(start_lines) + len(start) == len(cone.rays)  # a line is two opposite rays
    start = [(r, sum(1 << j for j, f in enumerate(facets) if dot(f, r) == 0)) for r in start]
    lines, rays = cones._dd(normals, n, start_lines, start, len(facets))
    # the normals' bits follow every facet's, also one tight at no ray
    _assert_exact_masks(facets + normals, rays)
    sides = [s for eq in cone.equations for s in (eq, vneg(eq))]
    ref_lines, ref_rays = cones._dd(facets + sides + normals, n)
    span = row_reduce(lines)
    assert span == row_reduce(ref_lines)
    assert len(lines) == len(span)
    # the rays modulo lineality, whatever their representatives
    rays = [reduce_mod_rowspace(r, span) for r, _ in rays]
    assert sorted(rays) == sorted(reduce_mod_rowspace(r, span) for r, _ in ref_rays)
    assert len(set(rays)) == len(rays)


def test_reference_cases_cover_every_path():
    lineality = cone_from_halfspaces([(0, 1)], 2)
    assert _has_lineality(lineality)
    assert lineality == _reference_from_halfspaces([(0, 1)], 2)
    origin = cone_from_halfspaces([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    assert origin.dim == 0 and origin == _reference_from_halfspaces(
        [(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    ray = intersect(cone_from_rays([(1, 0, 0), (0, 1, 0)]), cone_from_rays([(1, 1, 0), (0, 0, 1)]))
    assert ray.dim == 1 and ray.equations


def _fan_data():
    # corpus seeds 1-30: with each linearity fan built once, seeds 1-10
    # alone converted too few cones for test_one_conversion_per_pointed_cone,
    # with a cell inside its partner kept as it is, seeds 1-15 alone did, and
    # with no lifted cone built, seeds 1-25 alone do
    data = list(builtin_examples().values())
    return data + [random_instance(corpus_spec(seed)) for seed in range(1, 31)]


def _split_trees(events):
    """True when ``events``, "split" for a split and anything else for a
    piece built, list full binary trees in preorder, each rooted at a split:
    every piece comes out of one split and every split yields two."""
    open_ = 0
    for event in events:
        if not open_:
            if event != "split":
                return False
            open_ = 1
        open_ += 1 if event == "split" else -1
    return not open_


def test_one_conversion_per_pointed_cone(monkeypatch):
    # (where, cone): "dd" for a conversion in cones, "lift" for the one
    # conversion of a linearity fan, "split" for a split inside the
    # refinement, "refine" and "fan" for the start and end of a refinement
    # and of a linearity fan, else the module that built the cone
    events = []
    refining = []
    dd, step = cones._dd, cones._dd_step
    refine, linearity_fan = orders.hyperplane_refinement, orders.linearity_fan

    def counted_dd(*args):
        events.append(("dd", None))
        return dd(*args)

    def counted_lift(*args):
        events.append(("lift", None))
        return dd(*args)

    def counted_step(*args):
        if refining:
            events.append(("split", None))
        return step(*args)

    def windowed_refine(fan):
        events.append(("refine", None))
        refining.append(True)
        out = refine(fan)
        refining.clear()
        events.append(("refine", None))
        return out

    def windowed_fan(*args):
        events.append(("fan", None))
        out = linearity_fan(*args)
        events.append(("fan", None))
        return out

    def recorded(module):
        polycone = module.PolyCone

        def counted_polycone(*args):
            cone = polycone(*args)
            events.append((module.__name__, cone))
            return cone

        return counted_polycone

    monkeypatch.setattr(cones, "_dd", counted_dd)
    monkeypatch.setattr(orders, "_dd", counted_lift)
    monkeypatch.setattr(cones, "_dd_step", counted_step)
    monkeypatch.setattr(orders, "hyperplane_refinement", windowed_refine)
    monkeypatch.setattr(orders, "linearity_fan", windowed_fan)
    for module in (cones, orders):
        monkeypatch.setattr(module, "PolyCone", recorded(module))
    data = _fan_data()
    for datum in data:
        support = support_cone(datum)
        fan = chamber_fan(datum, support=support)
        cell_functionals(datum, fan, support=support)
    built = [cone for where, cone in events if where == cones.__name__]
    read_off = [cone for where, cone in events if where == orders.__name__]
    assert len(built) > 300 and len(read_off) > 100
    assert not any(_has_lineality(cone) for cone in built)
    # events outside the refinements and the linearity fans; inside each call
    outside, windows, fans, inside = [], [], [], None
    for where, cone in events:
        if where in ("refine", "fan"):
            inside = None if inside == where else where
            if inside:
                (windows if where == "refine" else fans).append([])
        elif inside:
            (windows if inside == "refine" else fans)[-1].append(where)
        else:
            outside.append((where, cone))
    # each cone built in cones outside them comes right after its one
    # conversion
    assert outside == [
        x for _, cone in outside[1::2] for x in (("dd", None), (cones.__name__, cone))
    ]
    # each linearity fan converts its lifted cone once, with orders' _dd,
    # and its read-off cells take no other conversion
    assert len(fans) == sum(len(datum.valuations) for datum in data)
    assert all(fan[0] == "lift" and set(fan[1:]) <= {orders.__name__} for fan in fans)
    assert sum(len(fan) - 1 for fan in fans) == len(read_off)
    # the refinement converts nothing: each piece it builds comes out of one
    # split of a pointed cell
    assert not any("dd" in window or "lift" in window for window in windows)
    assert all(_split_trees(window) for window in windows if window)
    assert sum(window.count("split") for window in windows) > 50


def _reference_linearity_fan(datum, valuation, support):
    """The linearity fan with every cell converted from its lifted rays, as
    the package built it before the cells were read off the lifted cone."""
    n = support.ambient_dim
    lifted = [tuple(g.multidegree) + (g.mults[valuation],) for g in datum.generators]
    lifted_cone = cone_from_rays(lifted)
    if lifted_cone.dim == support.dim:
        return None
    cells, labels = [], []
    for f in lifted_cone.facets:
        w, c = f[:n], f[n]
        if c > 0:
            cells.append(cone_from_rays([r[:n] for r in lifted_cone.rays if dot(f, r) == 0]))
            labels.append((tuple(Fraction(-wi, c) for wi in w),))
    return make_fan(cells, support, labels)


def test_read_off_linearity_cells_match_their_conversions():
    data = list(builtin_examples().values())
    data += [random_instance(corpus_spec(seed)) for seed in range(1, 101)]
    cells = 0
    for datum in data:
        support = support_cone(datum)
        for valuation in datum.valuations:
            ref = _reference_linearity_fan(datum, valuation, support)
            if ref is None:
                continue
            fan = orders.linearity_fan(datum, valuation, support)
            assert fan.cells == ref.cells and fan.labels == ref.labels
            cells += len(fan.cells)
    assert cells > 1000


def _lifted_cone_read_off(datum, valuation, support):
    """The linearity fan read off a lifted ``PolyCone``, each facet's rays
    recounted by dot products, as the package built it before the cells
    were read off the lifted cone's one ``_dd``: a lifted cone of the
    support's dimension is one cell, one holding a line raises InvalidCone,
    and a lower facet's cell has its projected rays and, for each facet
    whose set of rays within it is maximal, one facet."""
    n = support.ambient_dim
    order = orders.order_function(datum, valuation)
    lifted_cone = cone_from_rays([tuple(g.multidegree) + (h,)
                                  for g, h in zip(datum.generators, order.costs)])
    if lifted_cone.dim == support.dim:
        eq = next(eq for eq in lifted_cone.equations if eq[n] != 0)
        return make_fan([support], support,
                        [(tuple(Fraction(-a, eq[n] * order.den) for a in eq[:n]),)])
    if _has_lineality(lifted_cone):
        raise InvalidCone("the lifted cone holds a line")
    normals = lifted_cone.facets
    tight = [frozenset(r for r in lifted_cone.rays if dot(f, r) == 0) for f in normals]
    cells, labels = [], []
    for normal, lower in zip(normals, tight):
        if normal[n] <= 0:
            continue
        w, c = normal[:n], normal[n]
        ridges = [(g, t & lower) for g, t in zip(normals, tight) if t & lower != lower]
        facets = {reduce_mod_rowspace([c * a - g[n] * b for a, b in zip(g, w)], support.equations)
                  for g, t in ridges if not any(t < u for _, u in ridges)}
        rays = tuple(sorted([primitive(r[:n]) for r in lower]))
        cells.append(PolyCone(n, rays, tuple(sorted(facets)), support.equations))
        labels.append((tuple(Fraction(-wi, c * order.den) for wi in w),))
    return make_fan(cells, support, labels)


def _read_off_or_error(read_off, datum, valuation, support):
    try:
        fan = read_off(datum, valuation, support)
    except InvalidCone:
        return "holds a line"
    return fan.cells, fan.labels


def test_linearity_fan_matches_the_lifted_cone_read_off():
    data = list(builtin_examples().values())
    data += [random_instance(corpus_spec(seed)) for seed in range(0, 200)]
    cells = 0
    for datum in data:
        support = support_cone(datum)
        for valuation in datum.valuations:
            fan = orders.linearity_fan(datum, valuation, support)
            ref = _lifted_cone_read_off(datum, valuation, support)
            assert fan.cells == ref.cells and fan.labels == ref.labels
            cells += len(fan.cells)
    assert cells > 2000


def _lifted_datum(degrees, mults):
    return RingDatum(
        r=len(degrees[0]) - 1,
        labels=tuple(f"D{i}" for i in range(len(degrees[0]))),
        generators=tuple(GeneratorDatum(multidegree=tuple(d), mults={"E": m})
                         for d, m in zip(degrees, mults)),
        valuations=("E",),
        numerical=None,
    )


@st.composite
def lifted_data(draw):
    """Generators with degrees in the plane or in 3-space, entries of either
    sign, and one multiplicity each, possibly negative or fractional: cones
    with and without lines, of full dimension and not, single cells too."""
    n = draw(st.integers(min_value=2, max_value=3))
    entry = st.integers(min_value=-2, max_value=3)
    degrees = draw(st.lists(st.tuples(*([entry] * n)).filter(any), min_size=1, max_size=6))
    mults = draw(st.lists(st.fractions(min_value=-2, max_value=3, max_denominator=3),
                          min_size=len(degrees), max_size=len(degrees)))
    return _lifted_datum(degrees, mults)


@given(lifted_data())
# the plane lifted to every height: the lifted cone is all of 3-space
@example(_lifted_datum([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (1, 1)],
                       [0, 0, 0, 0, 1, -1]))
# a line in a lifted cone with facets (tests/test_orders.py)
@example(_lifted_datum([(1, 0), (-1, 0), (0, 1), (1, 1)], [0, 0, 0, 1]))
@settings(max_examples=300, deadline=None)
def test_linearity_fan_matches_the_lifted_cone_read_off_on_any_lifting(datum):
    """The whole space lifted to every height (no facet), a line in the
    lifted cone, a single cell and a pointed lifting all read off as the
    lifted ``PolyCone`` reads them."""
    support = support_cone(datum)
    assert (_read_off_or_error(orders.linearity_fan, datum, "E", support)
            == _read_off_or_error(_lifted_cone_read_off, datum, "E", support))


def _refined_pieces_checked(fan):
    """Refine ``fan`` and check every new piece against the cone its parent
    cell's facets and the walls, each signed on the piece, cut out of the
    whole space; the count of pieces checked.  Cell labels are distinct
    and name each piece's parent."""
    walls = sorted({sign_canonical(f) for cell in fan.cells for f in cell.facets})
    parents = dict(zip(fan.labels, fan.cells))
    assert len(parents) == len(fan.cells)
    refined = hyperplane_refinement(fan)
    pieces = 0
    for piece, label in zip(refined.cells, refined.labels):
        if piece in fan.cells:
            continue
        cell = parents[label]
        point = piece.relative_interior_point()
        signed = [h if dot(h, point) > 0 else vneg(h) for h in walls]
        ref = _reference_from_halfspaces(
            list(cell.facets) + signed, cell.ambient_dim, cell.equations
        )
        assert piece == ref
        pieces += 1
    return pieces


def test_every_refined_piece_matches_the_reference():
    """Every piece that ``hyperplane_refinement`` makes on the corpus, and
    on a hand-built fan whose half-plane cell (with lineality) is crossed,
    equals the cone its parent cell's facets and the walls, each signed on
    the piece, cut out of the whole space."""
    fans = [chamber_fan(datum, refine=False) for datum in _fan_data()]
    half_plane = cone_from_rays([(0, 1), (0, -1), (1, 0)])
    wedge = cone_from_rays([(1, 0), (1, 1)])
    fans.append(make_fan([half_plane, wedge], half_plane, [("half-plane",), ("wedge",)]))
    assert _has_lineality(half_plane)
    assert half_plane not in hyperplane_refinement(fans[-1]).cells
    assert sum(_refined_pieces_checked(fan) for fan in fans) > 100


@st.composite
def lineality_fans(draw, n=None):
    """Two cells, each cut out by fewer half-spaces than the dimension and
    so holding a line, in a fan whose support is the one of larger
    dimension; in dimension ``n`` when given."""
    if n is None:
        n = draw(st.integers(min_value=2, max_value=4))
    vec = st.tuples(*([st.integers(min_value=-3, max_value=3)] * n))
    cells = []
    for _ in range(2):
        halfspaces = draw(st.lists(vec, max_size=n - 1))
        equations = draw(st.lists(vec, max_size=n - 1 - len(halfspaces)))
        cells.append(cone_from_halfspaces(halfspaces, n, equations=equations))
    support = max(cells, key=lambda cell: cell.dim)
    return make_fan(cells, support, [("first",), ("second",)])


@given(lineality_fans())
@example(make_fan([cone_from_halfspaces([(0, 1)], 2), cone_from_halfspaces([(1, 0)], 2)],
                  cone_from_halfspaces([(0, 1)], 2), [("first",), ("second",)]))
@example(make_fan([cone_from_halfspaces([(1, 1, 0)], 3), cone_from_halfspaces([], 3, [(0, 0, 1)])],
                  cone_from_halfspaces([(1, 1, 0)], 3), [("first",), ("second",)]))
@settings(max_examples=200, deadline=None)
def test_refined_pieces_of_cells_with_lineality_match_the_reference(fan):
    assert all(_has_lineality(cell) for cell in fan.cells)
    _refined_pieces_checked(fan)


def test_pretest_skips_only_pairs_meeting_in_lower_dimension(monkeypatch):
    """Every pair of cells that ``common_refinement`` skips meets in lower
    dimension, and every pair it keeps with no cut is the cell itself,
    which lies inside its partner."""
    met = []
    meet = cones._meet

    def recorded(table, b, facets, sides):
        piece = meet(table, b, facets, sides)
        met.append((table.cone, b, piece))
        return piece

    monkeypatch.setattr(cones, "_meet", recorded)
    total = inside = 0
    for datum in _fan_data():
        support = support_cone(datum)
        chamber_fan(datum, support=support)
        for a, b, piece in met:
            if piece is None:
                assert intersect(a, b).dim < support.dim
                total += 1
            elif piece is a:
                assert intersect(a, b) == a
                inside += 1
        met.clear()
    assert total > 100 and inside > 100


def _reference_pieces(fans):
    """The common refinement's pieces and labels, before ``make_fan``, as the
    package cut them before the wall table: a pair of cells is skipped when
    a facet of one has every ray of the other on its nonpositive side, and
    any other pair is cut by ``intersect``."""
    def separated(a, b):
        return any(all(dot(f, r) <= 0 for r in b.rays) for f in a.facets) or any(
            all(dot(f, r) <= 0 for r in a.rays) for f in b.facets
        )

    support = fans[0].support
    cells = list(zip(fans[0].cells, fans[0].labels))
    for f in fans[1:]:
        pieces = []
        for a, label_a in cells:
            for b, label_b in zip(f.cells, f.labels):
                if separated(a, b):
                    continue
                c = intersect(a, b)
                if c.dim == support.dim:
                    pieces.append((c, label_a + label_b))
        cells = pieces
    return cells


def _assert_refinement_matches_the_reference(fans):
    """``common_refinement`` hands ``make_fan`` the reference's pieces and
    labels in the reference's order; the count of cells."""
    handed = []
    make = cones.make_fan

    def recorded(cells, support, labels=None):
        handed.append((list(cells), list(labels)))
        return make(cells, support, labels)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cones, "make_fan", recorded)
        fan = cones.common_refinement(fans)
    pieces = _reference_pieces(fans)
    assert handed == [([c for c, _ in pieces], [l for _, l in pieces])]
    ref = make_fan([c for c, _ in pieces], fans[0].support, [l for _, l in pieces])
    assert fan.cells == ref.cells and fan.labels == ref.labels
    return len(fan.cells)


def _linearity_fans(datum):
    support = support_cone(datum)
    return [orders.linearity_fan(datum, v, support) for v in datum.valuations]


def test_refinement_matches_the_pairwise_reference_on_the_corpus():
    data = list(builtin_examples().values())
    data += [random_instance(corpus_spec(seed)) for seed in range(1, 51)]
    cells = sum(_assert_refinement_matches_the_reference(fans)
                for fans in map(_linearity_fans, data) if fans)
    assert cells > 200


def test_refinement_matches_the_pairwise_reference_on_a_thin_support():
    """Every cell of a thin support's fans carries the support's equation."""
    fans = _linearity_fans(ring_from_json(THIN_DOCUMENT)[0])
    assert all(cell.equations for f in fans for cell in f.cells)
    assert _assert_refinement_matches_the_reference(fans) == 12


@st.composite
def shared_support_fans(draw):
    """Two or three fans of ``lineality_fans`` in one dimension, all given
    the first one's support: cells with lines and cells of lower dimension
    than the support."""
    n = draw(st.integers(min_value=2, max_value=4))
    fans = [draw(lineality_fans(n)) for _ in range(draw(st.integers(min_value=2, max_value=3)))]
    return [make_fan(f.cells, fans[0].support, f.labels) for f in fans]


@given(shared_support_fans())
@example([make_fan([cone_from_halfspaces([(0, 1)], 2), cone_from_halfspaces([(1, 0)], 2)],
                   cone_from_halfspaces([(0, 1)], 2), [("first",), ("second",)])] * 2)
@settings(max_examples=200, deadline=None)
def test_refinement_matches_the_pairwise_reference_on_cells_with_lines(fans):
    _assert_refinement_matches_the_reference(fans)


# _dd and _dd_step calls of common_refinement on the linearity fans of two
# corpus documents, and the pairs it keeps whole, recorded when the pairs
# were first cut from the wall table (the pairwise loop made 18 and 54,
# then 12 and 38 calls)
REFINEMENT_CONVERSIONS = {2: (8, 10, 10), 18: (3, 7, 9)}


@pytest.mark.parametrize("seed", sorted(REFINEMENT_CONVERSIONS))
def test_refinement_makes_the_recorded_conversions(monkeypatch, seed):
    fans = _linearity_fans(random_instance(corpus_spec(seed)))
    calls = {"_dd": 0, "_dd_step": 0, "inside": 0}
    dd, step, meet = cones._dd, cones._dd_step, cones._meet

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    def recorded(table, *args):
        piece = meet(table, *args)
        calls["inside"] += piece is table.cone
        return piece

    monkeypatch.setattr(cones, "_dd", counted("_dd", dd))
    monkeypatch.setattr(cones, "_dd_step", counted("_dd_step", step))
    monkeypatch.setattr(cones, "_meet", recorded)
    cones.common_refinement(fans)
    assert (calls["_dd"], calls["_dd_step"], calls["inside"]) == REFINEMENT_CONVERSIONS[seed]
