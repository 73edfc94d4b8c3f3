"""Exact rational polyhedral cones and fans.

Cones carry a double description: primitive integer extreme rays together
with a minimal set of facet half-spaces (plus span equations when the cone
is not full-dimensional).  Both sides are canonical, so structurally equal
cones compare equal regardless of how they were produced.

Every conversion between the two descriptions is ``_dd``, the incremental
double description method with the combinatorial adjacency test as its one
extremality test.  A pointed cone costs one conversion.  From generators,
``_assemble`` converts to facets and equations and keeps the generators
that pass the combinatorial extreme-ray test.  From half-spaces,
``cone_from_halfspaces`` converts to lines and rays, takes the equations
from their kernel and the facets from the half-spaces that pass the
combinatorial facet test.  A cone with lineality takes one more conversion,
``_rays_mod_lineality``, which fixes the representatives of its rays
modulo lineality.  ``common_refinement`` skips a pair of cells that a
facet separates before intersecting them.  Both refinements carry each
cell's label (``orders`` labels cells with their linear functionals).
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import DimensionError, InvalidCone, SupportMismatch
from .linalg import (
    dot,
    is_zero,
    kernel,
    primitive,
    rank,
    reduce_mod_rowspace,
    row_reduce,
    sign_canonical,
    vadd,
    vneg,
)


@dataclass(frozen=True, order=True)
class HalfSpace:
    """Closed linear half-space ``{x : normal . x >= 0}`` through the origin.

    The inward normal is stored as a primitive integer vector; its sign is
    meaningful.  ``hyperplane_key`` sign-normalizes for hyperplane identity.
    """

    normal: tuple

    def evaluate(self, x):
        return dot(self.normal, x)

    def hyperplane_key(self):
        return sign_canonical(self.normal)


def _tight_mask(vec, rows):
    mask = 0
    for j, c in enumerate(rows):
        if dot(c, vec) == 0:
            mask |= 1 << j
    return mask


def _dd(ineqs, n):
    """V-representation of ``{x : a . x >= 0 for a in ineqs}``.

    Returns ``(lines, rays)``: a basis of the lineality space and the
    extreme rays modulo lineality, all primitive integer vectors.

    This is the incremental double description method (Motzkin et al.
    1953; Fukuda and Prodon, "Double description method revisited", 1996).
    Starting from the whole space, the inequalities are added one at a
    time.  When some line is not tight at the new inequality ``a``, that
    line becomes a ray and the other lines and rays are projected along it
    onto ``a . x = 0``.  Otherwise the rays are split by the sign of
    ``a . r`` and each adjacent pair of a positive and a negative ray gives
    the ray of ``a . x = 0`` between them.  Each ray carries the bitmask of
    the processed inequalities tight at it, and a pair is adjacent exactly
    when no third ray is tight at every inequality both are tight at.
    Every mask update is exact, so the rays returned are exactly the
    extreme rays, each once.
    """
    lines = [tuple(1 if j == i else 0 for j in range(n)) for i in range(n)]
    rays = []  # (ray, mask of the processed inequalities tight at it)
    bit = 1  # mask bit of the inequality being added
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
            lines = [
                primitive(tuple(ap * li - dot(a, l) * pi for li, pi in zip(l, pivot)))
                for l in lines
            ]
            rays = [
                (primitive(tuple(ap * ri - dot(a, r) * pi for ri, pi in zip(r, pivot))), m | bit)
                for r, m in rays
            ]
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
                        ray = primitive(tuple(vp * xn - vn * xp for xn, xp in zip(rn, rp)))
                        new[ray] = common | bit
            rays = [(r, m) for r, m, _ in pos] + zero + sorted(new.items())
        bit <<= 1
    return lines, [r for r, _ in rays]


@dataclass(frozen=True)
class PolyCone:
    """Rational polyhedral cone with a canonical double description.

    ``rays`` are the primitive extreme rays (lineality, if any, is stored
    as opposite ray pairs); ``facets`` is a minimal irredundant set of
    half-spaces; ``equations`` cut out the linear span when the cone is not
    full-dimensional.
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
        for hs in self.facets:
            val = hs.evaluate(x)
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

    def facet_hyperplanes(self):
        return {hs.hyperplane_key() for hs in self.facets}


def _rays_mod_lineality(facets, equations, n):
    """Rays of a cone with lineality: its extreme rays modulo lineality, as
    the conversion of its facets and equations returns them, and each line
    with its negative."""
    constraints = list(facets)
    for eq in equations:
        constraints.append(eq)
        constraints.append(vneg(eq))
    lines, rays = _dd(constraints, n)
    return tuple(sorted(set(rays) | set(lines) | {vneg(l) for l in lines}))


def _assemble(generators, n):
    """Canonical PolyCone from any set of generating vectors.

    One conversion of the generators gives the facets and the equations.
    When those have rank n the cone is pointed and its extreme rays are read
    off the generators: a generator is extreme exactly when no other
    generator is tight at every facet it is tight at (the combinatorial
    test; the minimal face holding it is then a ray).  A cone with
    lineality takes a second conversion (``_rays_mod_lineality``).
    """
    gens = sorted({primitive(g) for g in generators if not is_zero(g)})
    dual_lines, dual_rays = _dd(gens, n)
    equations = row_reduce(dual_lines)
    facets = sorted(
        {reduce_mod_rowspace(q, equations) for q in dual_rays} - {tuple([0] * n)}
    )
    if rank(facets + list(equations)) == n:
        masks = [_tight_mask(g, facets) for g in gens]
        rays = tuple(
            g for g, m in zip(gens, masks) if sum(1 for o in masks if o & m == m) == 1
        )
    else:
        rays = _rays_mod_lineality(facets, equations, n)
    dim = n - len(equations)
    return PolyCone(n, dim, rays, tuple(HalfSpace(f) for f in facets), equations)


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


def cone_from_halfspaces(halfspaces, ambient_dim, equations=()):
    """Cone cut out by half-spaces (and optional equations).

    One conversion gives the lines and the extreme rays modulo lineality,
    and the rest is read off them: the equations span the kernel of the
    lines and rays, and the facets are the input half-spaces whose sets of
    tight rays are maximal among the proper ones (every facet is cut out by
    some input half-space, every input vanishes on the lines, and a face is
    fixed by the rays it holds).  A cone with lineality takes a second
    conversion (``_rays_mod_lineality``), which fixes the representatives
    of its rays.
    """
    normals = [hs.normal if isinstance(hs, HalfSpace) else tuple(hs) for hs in halfspaces]
    constraints = list(normals)
    for eq in equations:
        eq = tuple(eq)
        constraints.append(eq)
        constraints.append(vneg(eq))
    for c in constraints:
        if len(c) != ambient_dim:
            raise DimensionError(
                f"constraint has dimension {len(c)}, cone is in dimension {ambient_dim}"
            )
    lines, rays = _dd(constraints, ambient_dim)
    rays = sorted(rays)
    equations = row_reduce(kernel(rays + lines, ambient_dim))
    everything = (1 << len(rays)) - 1
    tight = [_tight_mask(a, rays) for a in normals]
    proper = {m for m in tight if m != everything}
    facets = sorted(
        {
            reduce_mod_rowspace(a, equations)
            for a, m in zip(normals, tight)
            if m in proper and not any(o != m and o & m == m for o in proper)
        }
    )
    if lines:
        rays = _rays_mod_lineality(facets, equations, ambient_dim)
    dim = ambient_dim - len(equations)
    return PolyCone(
        ambient_dim, dim, tuple(rays), tuple(HalfSpace(f) for f in facets), equations
    )


def intersect(a, b):
    """Intersection of two cones; may be lower-dimensional."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionError(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    return cone_from_halfspaces(
        list(a.facets) + list(b.facets),
        a.ambient_dim,
        equations=list(a.equations) + list(b.equations),
    )


def _separated(a, b):
    """True when a facet of one cone has every ray of the other on its
    nonpositive side.  The two then meet inside that facet's hyperplane, so
    their intersection has lower dimension than the cone owning the facet
    and their relative interiors are disjoint."""
    return any(all(hs.evaluate(r) <= 0 for r in b.rays) for hs in a.facets) or any(
        all(hs.evaluate(r) <= 0 for r in a.rays) for hs in b.facets
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
    """Fan of the distinct (cell, label) pairs, sorted by cell."""
    pairs = ((c, ()) for c in cells) if labels is None else zip(cells, labels, strict=True)
    pairs = sorted(dict.fromkeys(pairs), key=lambda pair: pair[0].rays)
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
    hyperplanes = set()
    for cell in fan.cells:
        hyperplanes.update(cell.facet_hyperplanes())
    cells = list(zip(fan.cells, fan.labels))
    for h in sorted(hyperplanes):
        sliced = []
        for cell, label in cells:
            values = [dot(h, r) for r in cell.rays]
            if any(v > 0 for v in values) and any(v < 0 for v in values):
                for side in (h, vneg(h)):
                    piece = cone_from_halfspaces(
                        list(cell.facets) + [HalfSpace(side)],
                        cell.ambient_dim,
                        equations=cell.equations,
                    )
                    if piece.dim == fan.support.dim:
                        sliced.append((piece, label))
            else:
                sliced.append((cell, label))
        cells = sliced
    return make_fan([c for c, _ in cells], fan.support, [l for _, l in cells])
