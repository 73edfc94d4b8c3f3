"""Exact rational polyhedral cones and fans.

Cones carry a double description: primitive integer extreme rays together
with the primitive integer inward normals of a minimal set of facets, each
``f`` standing for the half-space ``f . x >= 0`` (plus span equations when
the cone is not full-dimensional, in the same form).  Both sides are
canonical, so structurally equal cones compare equal regardless of how
they were produced.

Every conversion is ``_dd``, the incremental double description method:
one ``_dd_step`` per inequality, with linalg's one row step, from the
whole space or from a cone's own lines and rays.  Each ray it returns
carries the exact mask of the inputs tight at it, and callers read tight
sets off those masks instead of taking dot products again.  ``_assemble``
converts generators to facets and equations, and reads pointedness and the
extreme generators off the masks.  ``_cut``, the one cut, continues the
conversion from a cone's ``_start``, its lines and its rays masked over
its facets, for ``cone_from_halfspaces``, ``intersect`` and
``common_refinement``; ``hyperplane_refinement`` splits a crossed cell
from the same start once per crossing wall with ``_dd_step``.  One
combinatorial test, ``_maximal``, reads off both the extreme generators
and the facets of a cut, and ``_read_off`` takes a cut's equations from
the same masks: the implicit equalities, tight at every ray, join the
cone's own (``orders`` reads linearity cells off a lifted cone with
``_maximal`` too).  A cone with lineality takes one more conversion,
``_rays_mod_lineality``, which fixes the representatives of its
rays.  ``common_refinement`` decides and cuts each pair of cells from one
table of the next fan's walls per cell (``_WallTable``): a pair that meets
in lower dimension is skipped, a cell inside its partner is kept as it is,
and any other cell is cut by ``_cut``, by the partner's constraints that
cross it alone.  Both refinements carry each cell's label (``orders``
labels cells with their linear functionals).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .errors import DimensionError, InvalidCone, SupportMismatch
from .linalg import (
    _EXACT_TYPES,
    _eliminate,
    dot,
    is_zero,
    primitive,
    reduce_mod_rowspace,
    row_reduce,
    sign_canonical,
    vneg,
)


def _tight_mask(vec, rows):
    return sum(1 << j for j, c in enumerate(rows) if dot(c, vec) == 0)


def _columns(rays, count):
    """The masks over ``rays`` of the first ``count`` inputs, read off the
    rays' own masks (``(ray, mask)`` pairs, bit j for input j)."""
    columns = [0] * count
    for i, (_, m) in enumerate(rays):
        m &= (1 << count) - 1
        while m:
            low = m & -m
            columns[low.bit_length() - 1] |= 1 << i
            m ^= low
    return columns


def _maximal(vectors, masks, everything):
    """The vectors whose tight masks are maximal among the proper ones
    (those other than ``everything``).  This one combinatorial test reads
    off both the facets of a cone, among half-spaces tested against its
    rays, and the extreme rays of a pointed cone, among generators tested
    against its facets."""
    proper = {m for m in masks if m != everything}
    maximal = {m for m in proper if not any(o != m and o & m == m for o in proper)}
    return [v for v, m in zip(vectors, masks) if m in maximal]


def _both_sides(equations):
    """Each equation as its two half-spaces."""
    return [side for eq in equations for side in (tuple(eq), vneg(eq))]


def _dd_step(lines, rays, a, values, bit):
    """One step of the double description method.

    ``lines`` are a basis of the cone's lineality space, on which every
    earlier input vanishes, ``rays`` its extreme rays modulo lineality as
    ``(ray, mask)`` pairs, ``values`` the values ``a . r`` of a new normal
    ``a`` at the rays and ``bit`` the mask bit of ``a``.  Returns
    ``(lines, pos, neg, on)``: ``a . x >= 0`` cuts the cone down to
    ``lines`` with ``pos + on``, and ``a . x <= 0`` to ``lines`` with
    ``neg + on``.  When ``a`` is not zero on some line, that line, oriented
    by ``a``, is the one ray of ``pos`` and its negative that of ``neg``,
    each tight at every earlier input (mask ``bit - 1``), and the other
    lines and the rays (into ``on``) are projected along it onto
    ``a . x = 0``.  Otherwise the lines stay, ``pos`` and ``neg`` hold the
    rays where ``a`` is positive and negative, and ``on``, with ``bit``
    set, the rays where ``a`` vanishes and, for each adjacent pair of a
    positive and a negative ray, the ray between them.  A pair is adjacent
    exactly when no third ray is tight at every input both are tight at.
    """
    for i, pivot in enumerate(lines):
        ap = dot(a, pivot)
        if ap:
            if ap < 0:
                pivot, ap = vneg(pivot), -ap
            lines = [_eliminate(l, pivot, ap, dot(a, l)) for j, l in enumerate(lines) if j != i]
            on = [(_eliminate(r, pivot, ap, val), m | bit) for (r, m), val in zip(rays, values)]
            return lines, [(pivot, bit - 1)], [(vneg(pivot), bit - 1)], on
    pos, zero, neg = [], [], []
    for (r, m), val in zip(rays, values):
        if val > 0:
            pos.append((r, m, val))
        elif val < 0:
            neg.append((r, m, val))
        else:
            zero.append((r, m | bit))
    masks = [m for _, m in rays]
    new = {}
    for rp, mp, vp in pos:
        for rn, mn, vn in neg:
            common = mp & mn
            # rp and rn are tight at common; adjacent when no other ray is
            tight = 0
            for m in masks:
                if m & common == common:
                    tight += 1
                    if tight > 2:
                        break
            if tight == 2:
                new[_eliminate(rn, rp, vp, vn)] = common | bit
    return (lines, [(r, m) for r, m, _ in pos], [(r, m) for r, m, _ in neg],
            zero + sorted(new.items()))


def _dd(ineqs, n, lines=None, rays=(), offset=0, values=None):
    """V-representation of ``{x : a . x >= 0 for a in ineqs}``, or of its
    intersection with the cone that ``lines`` and ``rays`` describe.

    Returns ``(lines, rays)``: a basis of the lineality space, and the
    extreme rays modulo lineality as ``(ray, mask)`` pairs, all primitive
    integer vectors.  A ray's mask holds exactly the inputs tight at it,
    bit j for ``ineqs[j]`` (a zero row is tight everywhere).

    This is the incremental double description method (Motzkin et al.
    1953; Fukuda and Prodon, "Double description method revisited", 1996),
    one ``_dd_step`` per inequality, keeping the side where it holds.
    Every mask update is exact, so the rays returned are exactly the
    extreme rays, each once.

    ``lines=None`` is the whole space, its lines the unit vectors in order.
    A given cone is a basis of its lineality space and its extreme rays
    modulo lineality with their masks over its ``offset`` facets (its
    equations hold at every line and ray and so change no step), and
    ``ineqs[j]`` takes bit ``offset + j``.  The count, not the highest bit
    in use, numbers the new bits: a facet tight at no ray, such as the one
    facet of a ray, sets no bit.  ``values``, when given, are the values of
    the first inequality, made primitive, at the given ``rays``, which the
    caller already holds.
    """
    if lines is None:
        lines = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    bit = 1 << offset  # the new mask bit
    for a in ineqs:
        a = primitive(a)
        if values is None:
            values = [dot(a, r) for r, _ in rays]
        lines, pos, _, on = _dd_step(lines, rays, a, values, bit)
        rays, values = pos + on, None
        bit <<= 1
    return lines, rays


@dataclass(frozen=True)
class PolyCone:
    """Rational polyhedral cone with a canonical double description.

    ``rays`` are the primitive extreme rays (lineality, if any, is stored
    as opposite ray pairs); ``facets`` are the sorted primitive inward
    normals of a minimal irredundant set of half-spaces ``f . x >= 0``,
    reduced modulo the ``equations``, which cut out the linear span when
    the cone is not full-dimensional, so ``dim`` is read off them.
    """

    ambient_dim: int
    rays: tuple
    facets: tuple
    equations: tuple

    @property
    def dim(self):
        return self.ambient_dim - len(self.equations)

    def contains(self, x, strict=False):
        if len(x) != self.ambient_dim:
            raise DimensionError(
                f"point has dimension {len(x)}, cone is in dimension {self.ambient_dim}"
            )
        for eq in self.equations:
            if dot(eq, x) != 0:
                return False
        if strict and self.dim == 0:
            return is_zero(x)
        for f in self.facets:
            val = dot(f, x)
            if val < 0 or (strict and val == 0):
                return False
        return True

    def relative_interior_point(self):
        if self.dim == 0 or not self.rays:
            raise InvalidCone("zero cone has no relative interior ray")
        return tuple([Fraction(sum(col)) for col in zip(*self.rays)])

    def is_full_dimensional(self):
        return self.dim == self.ambient_dim

    def is_pointed(self):
        rays = set(self.rays)  # a line is stored as two opposite rays
        return not any(vneg(r) in rays for r in self.rays)


def _rays_mod_lineality(facets, equations, n):
    """Rays of a cone with lineality: its extreme rays modulo lineality, as
    the conversion of its facets and equations returns them, and each line
    with its negative."""
    lines, rays = _dd(list(facets) + _both_sides(equations), n)
    return tuple(sorted({r for r, _ in rays} | set(lines) | {vneg(l) for l in lines}))


def _assemble(generators, n):
    """Canonical PolyCone from any set of generating vectors.

    One conversion of the generators gives the facets and the equations,
    and its masks tell each generator's facets.  The cone is pointed when
    it has a facet and no generator lies on every facet (a line in the
    cone is a positive combination of generators, all of which lie in its
    smallest face).  Its extreme rays are then the generators that
    ``_maximal`` keeps against the facets (two distinct generators with
    one tight set are not both maximal: their face would hold an extreme
    generator with a larger one).  A cone with lineality takes a second
    conversion (``_rays_mod_lineality``).
    """
    gens = sorted({primitive(g) for g in generators if not is_zero(g)})
    dual_lines, dual_rays = _dd(gens, n)
    equations = row_reduce(dual_lines)
    facets = sorted(
        {reduce_mod_rowspace(q, equations) for q, _ in dual_rays} - {tuple([0] * n)}
    )
    masks = _columns(dual_rays, len(gens))  # each generator's mask over the facets
    everything = (1 << len(dual_rays)) - 1
    if dual_rays and everything not in masks:
        rays = tuple(_maximal(gens, masks, everything))
    else:
        rays = _rays_mod_lineality(facets, equations, n)
    return PolyCone(n, rays, tuple(facets), equations)


def cone_from_rays(rays):
    """Cone generated by the given vectors, reduced to extreme primitive rays.
    An entry not exact by ``linalg``'s rule, a bool too, raises TypeError."""
    rays = list(rays)
    if not rays:
        raise InvalidCone("no generators given")
    n = len(rays[0])
    for r in rays:
        if len(r) != n:
            raise DimensionError("generators have mixed dimensions")
        if not _EXACT_TYPES.issuperset(map(type, r)):
            raise TypeError(f"generator {r!r} is not exact")
    if all(is_zero(r) for r in rays):
        raise InvalidCone("all generators are zero")
    return _assemble(rays, n)


def _lines_and_rays(cone):
    """``cone``'s lines, one ray of each opposite pair, and its other rays:
    a basis of its lineality space and its extreme rays modulo lineality."""
    paired = {vneg(r) for r in cone.rays}.intersection(cone.rays)
    if not paired:
        return [], list(cone.rays)
    lines = [r for r in cone.rays if r in paired and r > vneg(r)]
    return lines, [r for r in cone.rays if r not in paired]


def _start(cone):
    """Where a cut of ``cone`` starts: its lines and its other rays, each
    with its mask over the cone's facets (``_lines_and_rays``)."""
    lines, rays = _lines_and_rays(cone)
    return lines, [(r, _tight_mask(r, cone.facets)) for r in rays]


def _cut(cone, normals, start=None, values=None):
    """``cone`` cut by ``{x : a . x >= 0}`` for each ``a`` in ``normals``:
    ``_dd`` continues from the cone's ``_start``, read here unless given,
    with ``values`` as ``_dd`` takes them, and the cut is read off the
    rays' masks (``_read_off``)."""
    lines, rays = _start(cone) if start is None else start
    lines, rays = _dd(normals, cone.ambient_dim, lines, rays, len(cone.facets), values)
    return _read_off(cone, list(cone.facets) + list(normals), rays, lines)


def _read_off(cone, constraints, rays, lines=()):
    """The cut of ``cone`` by ``constraints``, its facets and then the new
    half-spaces, from the cut's rays as ``(ray, mask)`` pairs, each mask
    over ``constraints``, and the cut's lines.

    The cut's span is cut out by the cone's equations and the implicit
    equalities, the constraints tight at every ray (each vanishes on the
    lines); with none, the equations and old facets stand.  The facets are
    the constraints that ``_maximal`` keeps against the rays (every facet
    is cut out by one, and a face is fixed by its rays).  Lines left over
    take ``_rays_mod_lineality``.
    """
    n = cone.ambient_dim
    rays = sorted(rays)
    masks = _columns(rays, len(constraints))  # each constraint's mask over the rays
    everything = (1 << len(rays)) - 1
    implicit = [a for a, m in zip(constraints, masks) if m == everything]
    equations = row_reduce(list(cone.equations) + implicit) if implicit else cone.equations
    reduced = () if implicit else set(cone.facets)  # already reduced modulo the same equations
    facets = sorted({a if a in reduced else reduce_mod_rowspace(a, equations)
                     for a in _maximal(constraints, masks, everything)})
    rays = _rays_mod_lineality(facets, equations, n) if lines else tuple(r for r, _ in rays)
    return PolyCone(n, rays, tuple(facets), equations)


def cone_from_halfspaces(halfspaces, ambient_dim, equations=()):
    """Cone cut out of the whole space by the half-spaces ``a . x >= 0``,
    one per vector ``a`` in ``halfspaces`` (and optional equations),
    through ``_cut``.  An entry not exact by ``linalg``'s rule, a bool too,
    raises TypeError."""
    normals = [tuple(h) for h in halfspaces] + _both_sides(equations)
    for c in normals:
        if len(c) != ambient_dim:
            raise DimensionError(
                f"constraint has dimension {len(c)}, cone is in dimension {ambient_dim}"
            )
        if not _EXACT_TYPES.issuperset(map(type, c)):
            raise TypeError(f"constraint {c!r} is not exact")
    n = ambient_dim
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return _cut(PolyCone(n, tuple(sorted(_both_sides(units))), (), ()), normals)


def intersect(a, b):
    """Intersection of two cones, ``a`` cut by ``b``'s facets and both sides
    of its equations; may be lower-dimensional."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    return _cut(a, list(b.facets) + _both_sides(b.equations))


@dataclass(frozen=True)
class Fan:
    """Finite set of equal-dimensional cones with common support.

    Cells are kept in a deterministic order (lexicographic by sorted ray
    lists) so that serialized output is byte-reproducible.  ``labels``
    holds one tuple per cell, in cell order; it takes no part in equality.
    ``make_fan`` builds a fan, with the label ``()`` for every cell unless
    labels are given.
    """

    cells: tuple
    support: PolyCone
    labels: tuple = field(compare=False)


def make_fan(cells, support, labels=None):
    """Fan of the distinct (cell, label) pairs, sorted by cell rays, then
    label.  Equal rays mean equal cells, so a repeated pair sorts next to
    its twin and is dropped there, with no hashing."""
    pairs = ((c, ()) for c in cells) if labels is None else zip(cells, labels, strict=True)
    pairs = sorted(pairs, key=lambda pair: (pair[0].rays, pair[1]))
    pairs = [pair for i, pair in enumerate(pairs) if not i or pair != pairs[i - 1]]
    return Fan(tuple(c for c, _ in pairs), support, tuple(l for _, l in pairs))


class _WallTable:
    """One cell of a refinement with the values of the next fan's walls at
    its lines and rays (``_lines_and_rays``), each wall's read on first use.
    A wall's row holds its values at the rays, their least and greatest (0
    when there is no ray), and whether it vanishes on every line.  The
    cell's ``_start`` is read once, on the first cut."""

    __slots__ = ("cone", "lines", "rays", "walls", "rows", "started")

    def __init__(self, cone, walls):
        self.cone = cone
        self.lines, self.rays = _lines_and_rays(cone)
        self.walls = walls
        self.rows = [None] * len(walls)
        self.started = None

    def row(self, i):
        w = self.walls[i]
        values = [sum(map(mul, w, r)) for r in self.rays]
        row = self.rows[i] = (values, min(values, default=0), max(values, default=0),
                              not self.lines or not any(dot(w, l) for l in self.lines))
        return row

    def start(self):
        if self.started is None:
            self.started = _start(self.cone)
        return self.started


def _walls(cells):
    """The distinct walls of ``cells``, as ``sign_canonical`` vectors of
    their facets and equations, and for each cell its facets and the two
    sides of its equations, each as ``(constraint, wall index, sign)`` with
    the constraint a positive multiple of ``sign`` times its wall."""
    index = {}

    def signed(c):
        wall = primitive(c)
        neg = vneg(wall)
        if wall > neg:  # the first nonzero entry is positive
            return c, index.setdefault(wall, len(index)), 1
        return c, index.setdefault(neg, len(index)), -1

    constraints = [([signed(f) for f in cell.facets],
                    [signed(side) for side in _both_sides(cell.equations)]) for cell in cells]
    return list(index), constraints


def _meet(table, b, facets, sides):
    """The piece that the cell of ``table`` and the cone ``b`` share, given
    ``b``'s facets and the sides of its equations (``_walls``).

    None when a facet of one has every ray of the other on its nonpositive
    side and vanishes on its lines: the two then meet inside that facet's
    hyperplane, in lower dimension than the cone owning it.  A constraint
    of ``b`` cuts the cell when it is negative at one of its rays or not
    zero on one of its lines, read off the table.  When none cuts, the cell
    lies inside ``b`` and is the piece itself.  Otherwise ``_cut`` cuts it
    by those that do, from the table's ``_start`` with the first cut's
    values read off the table, as ``intersect`` cuts it.
    """
    a, rows = table.cone, table.rows
    for _, i, s in facets:
        _, low, high, flat = rows[i] or table.row(i)
        if flat and (high <= 0 if s > 0 else low >= 0):
            return None
    if any(all(sum(map(mul, f, r)) <= 0 for r in b.rays) for f in a.facets):
        return None
    cuts = []
    for c, i, s in facets + sides:
        _, low, high, flat = rows[i] or table.row(i)
        if not flat or (low < 0 if s > 0 else high > 0):
            cuts.append((c, i, s))
    if not cuts:
        return a
    _, i, s = cuts[0]
    values = rows[i][0]
    return _cut(a, [c for c, _, _ in cuts], table.start(),
                values if s > 0 else [-v for v in values])


def common_refinement(fans):
    """Common refinement of fans sharing one support cone.  Each piece is
    labelled with its source cells' labels concatenated in fan order.

    The cells so far meet the next fan's cells pair by pair, and each pair
    is decided and cut from one table of the next fan's walls per cell
    (``_meet``): a pair meeting in lower dimension is skipped, a cell
    inside its partner is kept as it is, and any other cell is cut only by
    the partner's constraints that cross it.
    """
    fans = list(fans)
    if not fans:
        raise SupportMismatch("no fans given")
    support = fans[0].support
    for f in fans[1:]:
        if f.support != support:
            raise SupportMismatch("fans do not share a support cone")
    cells = list(zip(fans[0].cells, fans[0].labels))
    for f in fans[1:]:
        walls, constraints = _walls(f.cells)
        partners = list(zip(f.cells, f.labels, constraints))
        pieces = []
        for a, label_a in cells:
            table = _WallTable(a, walls)
            for b, label_b, (facets, sides) in partners:
                c = _meet(table, b, facets, sides)
                if c is not None and c.dim == support.dim:
                    pieces.append((c, label_a + label_b))
        cells = pieces
    return make_fan([c for c, _ in cells], support, [l for _, l in cells])


def _crossing(walls, lines, rays):
    """The walls not zero on a line or with rays strictly on both sides,
    each with its values at the rays."""
    crossing = []
    for h in walls:
        values = [dot(h, r) for r in rays]
        if (min(values, default=0) < 0 < max(values, default=0)
                or lines and any(dot(h, l) for l in lines)):
            crossing.append((h, values))
    return crossing


def _split(cell, crossing):
    """The pieces of ``cell`` cut by every wall in ``crossing`` (pairs from
    ``_crossing``, over the rays of ``_lines_and_rays``).

    From the cell's ``_start``, the cell is split by its first crossing
    wall with one ``_dd_step``, so both pieces share the lines and the rays
    on the wall under one mask bit, and each piece carries on with the
    walls that crossed its parent and cross it.  A piece keeps its
    constraints (the cell's facets, then one signed wall per split), its
    lines and its rays with their masks over them; only a final piece is
    read off, and a crossing wall adds no equation to it.
    """
    pieces = []

    def split(constraints, lines, rays, crossing):
        if not crossing:
            pieces.append(_read_off(cell, constraints, rays, lines))
            return
        (h, values), rest = crossing[0], [h for h, _ in crossing[1:]]
        lines, pos, neg, on = _dd_step(lines, rays, h, values, 1 << len(constraints))
        for side, part in ((h, pos + on), (vneg(h), neg + on)):
            split(constraints + [side], lines, part,
                  _crossing(rest, lines, [r for r, _ in part]))

    split(list(cell.facets), *_start(cell), crossing)
    return pieces


def hyperplane_refinement(fan):
    """Slice every cell so each lies in one half-space of every facet hyperplane.

    The collected hyperplanes are those spanned by facets of the maximal
    cells (including the support boundary).  Idempotent: slicing introduces
    no hyperplanes outside the collected set.  Each cell is split once per
    wall that crosses it (``_split``), whether or not it has lineality, and
    a crossed cell not of the support's dimension leaves no piece.  The
    pieces of a cell keep its label.
    """
    walls = sorted({sign_canonical(f) for cell in fan.cells for f in cell.facets})
    cells, labels = [], []
    for cell, label in zip(fan.cells, fan.labels):
        lines, rays = _lines_and_rays(cell)
        crossing = _crossing(walls, lines, rays)
        if not crossing:
            pieces = [cell]
        elif cell.dim != fan.support.dim:
            pieces = []
        else:
            pieces = _split(cell, crossing)
        cells += pieces
        labels += [label] * len(pieces)
    return make_fan(cells, fan.support, labels)
