"""Exact rational polyhedral cones and fans.

Cones carry a double description: primitive integer extreme rays together
with the primitive integer inward normals of a minimal set of facets, each
``f`` standing for the half-space ``f . x >= 0`` (plus span equations when
the cone is not full-dimensional, in the same form).  Both sides are
canonical, so structurally equal cones compare equal regardless of how
they were produced.

Every conversion is ``_dd``, the incremental double description method,
which steps with linalg's one row step.  ``_assemble`` converts generators
to facets and equations.  Every other cone is cut out of one by ``_cut``,
which continues the conversion from a pointed cone's own rays:
``cone_from_halfspaces`` cuts the whole space, ``intersect`` cuts one cone
by the other and ``hyperplane_refinement`` slices a cell.  One
combinatorial test, ``_maximal``, reads off both the extreme generators
and the facets of a cut, and a cut's equations are read off the same
masks: the implicit equalities, tight at every ray, join the cone's own
(``orders`` reads linearity cells off a lifted cone with ``_maximal``
too).  A cone with lineality takes one more
conversion, ``_rays_mod_lineality``, which fixes the representatives of
its rays.  ``common_refinement`` skips a pair of cells that a facet
separates before intersecting them.  Both refinements carry each cell's
label (``orders`` labels cells with their linear functionals).
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionError, InvalidCone, SupportMismatch
from .linalg import (
    _eliminate,
    dot,
    is_zero,
    primitive,
    rank,
    reduce_mod_rowspace,
    row_reduce,
    sign_canonical,
    vadd,
    vneg,
)


def _tight_mask(vec, rows):
    return sum(1 << j for j, c in enumerate(rows) if dot(c, vec) == 0)


def _maximal(vectors, others, masks=None):
    """The vectors whose sets of tight ``others`` are maximal among the
    proper ones (those missing some of ``others``).  This one combinatorial
    test reads off both the facets of a cone, among half-spaces tested
    against its rays, and the extreme rays of a pointed cone, among
    generators tested against its facets.  ``masks``, when given, are the
    vectors' tight masks over ``others``."""
    everything = (1 << len(others)) - 1
    if masks is None:
        masks = [_tight_mask(v, others) for v in vectors]
    proper = {m for m in masks if m != everything}
    maximal = {m for m in proper if not any(o != m and o & m == m for o in proper)}
    return [v for v, m in zip(vectors, masks) if m in maximal]


def _both_sides(equations):
    """Each equation as its two half-spaces."""
    return [side for eq in equations for side in (tuple(eq), vneg(eq))]


def _dd(ineqs, n, start=None):
    """V-representation of ``{x : a . x >= 0 for a in ineqs}``, or of its
    intersection with the pointed cone that ``start`` describes.

    Returns ``(lines, rays)``: a basis of the lineality space and the
    extreme rays modulo lineality, all primitive integer vectors.

    This is the incremental double description method (Motzkin et al.
    1953; Fukuda and Prodon, "Double description method revisited", 1996).
    Starting from the whole space, or from ``start``, the inequalities are
    added one at a time.  When some line is not tight at the new inequality
    ``a``, that line becomes a ray and the other lines and rays are
    projected along it onto ``a . x = 0``.  Otherwise the rays are split by
    the sign of ``a . r`` and each adjacent pair of a positive and a
    negative ray gives the ray of ``a . x = 0`` between them.  Each ray
    carries the bitmask of the processed inequalities tight at it, and a
    pair is adjacent exactly when no third ray is tight at every inequality
    both are tight at.  Every mask update is exact, so the rays returned
    are exactly the extreme rays, each once.  Each projection and
    combination is ``linalg._eliminate``.

    ``start`` lists the extreme rays of a pointed cone with their masks over
    its facets (a minimal V-description of the cone in its span; its
    equations hold at every ray and so change no adjacency test), and the
    inequalities take the bits above.
    """
    lines = [tuple(int(i == j) for j in range(n)) for i in range(n)] if start is None else []
    rays = list(start or ())  # (ray, mask of the processed inequalities tight at it)
    bit = 1 << max((m.bit_length() for _, m in rays), default=0)  # the new mask bit
    for a in ineqs:
        a = primitive(a)
        if is_zero(a):
            continue
        pivot = next((l for l in lines if dot(a, l) != 0), None)
        if pivot is not None:
            # the processed inequalities vanish on every line, so a projected
            # ray keeps its tight set and the pivot is tight at all of them
            lines.remove(pivot)
            if dot(a, pivot) < 0:
                pivot = vneg(pivot)
            ap = dot(a, pivot)
            lines = [_eliminate(l, pivot, ap, dot(a, l)) for l in lines]
            rays = [(_eliminate(r, pivot, ap, dot(a, r)), m | bit) for r, m in rays]
            rays.append((pivot, bit - 1))
        else:
            pos, zero, neg = [], [], []
            for r, m in rays:
                val = dot(a, r)
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
            rays = [(r, m) for r, m, _ in pos] + zero + sorted(new.items())
        bit <<= 1
    return lines, [r for r, _ in rays]


@dataclass(frozen=True)
class PolyCone:
    """Rational polyhedral cone with a canonical double description.

    ``rays`` are the primitive extreme rays (lineality, if any, is stored
    as opposite ray pairs); ``facets`` are the sorted primitive inward
    normals of a minimal irredundant set of half-spaces ``f . x >= 0``,
    reduced modulo the ``equations``, which cut out the linear span when
    the cone is not full-dimensional.
    """

    ambient_dim: int
    dim: int
    rays: tuple
    facets: tuple
    equations: tuple

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
        point = self.rays[0]
        for r in self.rays[1:]:
            point = vadd(point, r)
        return tuple(Fraction(x) for x in point)

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
    return tuple(sorted(set(rays) | set(lines) | {vneg(l) for l in lines}))


def _assemble(generators, n):
    """Canonical PolyCone from any set of generating vectors.

    One conversion of the generators gives the facets and the equations.
    When those have rank n the cone is pointed and its extreme rays are read
    off the generators: those ``_maximal`` keeps against the facets (two
    distinct generators with one tight set are not both maximal: their face
    would hold an extreme generator with a larger one).  A cone with
    lineality takes a second conversion (``_rays_mod_lineality``).
    """
    gens = sorted({primitive(g) for g in generators if not is_zero(g)})
    dual_lines, dual_rays = _dd(gens, n)
    equations = row_reduce(dual_lines)
    facets = sorted(
        {reduce_mod_rowspace(q, equations) for q in dual_rays} - {tuple([0] * n)}
    )
    if rank(facets + list(equations)) == n:
        rays = tuple(_maximal(gens, facets))
    else:
        rays = _rays_mod_lineality(facets, equations, n)
    dim = n - len(equations)
    return PolyCone(n, dim, rays, tuple(facets), equations)


def cone_from_rays(rays):
    """Cone generated by the given vectors, reduced to extreme primitive rays."""
    rays = list(rays)
    if not rays:
        raise InvalidCone("no generators given")
    n = len(rays[0])
    for r in rays:
        if len(r) != n:
            raise DimensionError("generators have mixed dimensions")
    if all(is_zero(r) for r in rays):
        raise InvalidCone("all generators are zero")
    return _assemble(rays, n)


def _cut(cone, normals):
    """``cone`` cut by ``{x : a . x >= 0}`` for each ``a`` in ``normals``.

    A pointed cone continues ``_dd`` from its own rays and facet masks; a
    cone with lineality (the whole space is one) is converted afresh from
    its facets, both sides of its equations and the normals.  The cut's
    span is cut out by the cone's equations and the implicit equalities,
    the old facets and normals tight at every ray (each vanishes on the
    lines); with none, the equations and old facets stand.  The facets are
    the old facets and normals that ``_maximal`` keeps against the rays
    over the same masks (every facet is cut out by one, and a face is fixed
    by its rays).  Lines left over take ``_rays_mod_lineality``.
    """
    n = cone.ambient_dim
    old = list(cone.facets)
    if cone.is_pointed():
        lines, rays = _dd(normals, n, [(r, _tight_mask(r, old)) for r in cone.rays])
    else:
        lines, rays = _dd(old + _both_sides(cone.equations) + normals, n)
    rays = sorted(rays)
    constraints = old + normals
    masks = [_tight_mask(a, rays) for a in constraints]
    implicit = [a for a, m in zip(constraints, masks) if m == (1 << len(rays)) - 1]
    equations = row_reduce(list(cone.equations) + implicit) if implicit else cone.equations
    reduced = () if implicit else set(old)  # already reduced modulo the same equations
    facets = sorted({a if a in reduced else reduce_mod_rowspace(a, equations)
                     for a in _maximal(constraints, rays, masks)})
    if lines:
        rays = _rays_mod_lineality(facets, equations, n)
    dim = n - len(equations)
    return PolyCone(n, dim, tuple(rays), tuple(facets), equations)


def cone_from_halfspaces(halfspaces, ambient_dim, equations=()):
    """Cone cut out of the whole space by the half-spaces ``a . x >= 0``,
    one per vector ``a`` in ``halfspaces`` (and optional equations),
    through ``_cut``."""
    normals = [tuple(h) for h in halfspaces] + _both_sides(equations)
    for c in normals:
        if len(c) != ambient_dim:
            raise DimensionError(
                f"constraint has dimension {len(c)}, cone is in dimension {ambient_dim}"
            )
    n = ambient_dim
    units = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    return _cut(PolyCone(n, n, tuple(sorted(_both_sides(units))), (), ()), normals)


def intersect(a, b):
    """Intersection of two cones, ``a`` cut by ``b``'s facets and both sides
    of its equations; may be lower-dimensional."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    return _cut(a, list(b.facets) + _both_sides(b.equations))


def _separated(a, b):
    """True when a facet of one cone has every ray of the other on its
    nonpositive side.  The two then meet inside that facet's hyperplane, so
    their intersection has lower dimension than the cone owning the facet
    and their relative interiors are disjoint."""
    return any(all(dot(f, r) <= 0 for r in b.rays) for f in a.facets) or any(
        all(dot(f, r) <= 0 for r in a.rays) for f in b.facets
    )


@dataclass(frozen=True)
class Fan:
    """Finite set of equal-dimensional cones with common support.

    Cells are kept in a deterministic order (lexicographic by sorted ray
    lists) so that serialized output is byte-reproducible.  ``labels``
    holds one tuple per cell, in cell order (``()`` for each cell when not
    given); it takes no part in equality.
    """

    cells: tuple
    support: PolyCone
    labels: tuple = field(default=None, compare=False)

    def __post_init__(self):
        if self.labels is None:
            object.__setattr__(self, "labels", ((),) * len(self.cells))


def make_fan(cells, support, labels=None):
    """Fan of the distinct (cell, label) pairs, sorted by cell rays, then
    label.  Equal rays mean equal cells, so a repeated pair sorts next to
    its twin and is dropped there, with no hashing."""
    pairs = ((c, ()) for c in cells) if labels is None else zip(cells, labels, strict=True)
    pairs = sorted(pairs, key=lambda pair: (pair[0].rays, pair[1]))
    pairs = [pair for i, pair in enumerate(pairs) if not i or pair != pairs[i - 1]]
    return Fan(tuple(c for c, _ in pairs), support, tuple(l for _, l in pairs))


def common_refinement(fans):
    """Common refinement of fans sharing one support cone.  Each piece is
    labelled with its source cells' labels concatenated in fan order."""
    fans = list(fans)
    if not fans:
        raise SupportMismatch("no fans given")
    support = fans[0].support
    for f in fans[1:]:
        if f.support != support:
            raise SupportMismatch("fans do not share a support cone")
    cells = list(zip(fans[0].cells, fans[0].labels))
    for f in fans[1:]:
        pieces = []
        for a, label_a in cells:
            for b, label_b in zip(f.cells, f.labels):
                if _separated(a, b):
                    continue
                c = intersect(a, b)
                if c.dim == support.dim:
                    pieces.append((c, label_a + label_b))
        cells = pieces
    return make_fan([c for c, _ in cells], support, [l for _, l in cells])


def hyperplane_refinement(fan):
    """Slice every cell so each lies in one half-space of every facet hyperplane.

    The collected hyperplanes are those spanned by facets of the maximal
    cells (including the support boundary).  Idempotent: slicing introduces
    no hyperplanes outside the collected set.  Both slices of a cell keep
    its label.
    """
    hyperplanes = {sign_canonical(f) for cell in fan.cells for f in cell.facets}
    cells = list(zip(fan.cells, fan.labels))
    for h in sorted(hyperplanes):
        sliced = []
        for cell, label in cells:
            values = [dot(h, r) for r in cell.rays]
            if any(v > 0 for v in values) and any(v < 0 for v in values):
                for side in (h, vneg(h)):
                    piece = _cut(cell, [side])
                    if piece.dim == fan.support.dim:
                        sliced.append((piece, label))
            else:
                sliced.append((cell, label))
        cells = sliced
    return make_fan([c for c, _ in cells], fan.support, [l for _, l in cells])
