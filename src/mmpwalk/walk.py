"""Ordering chambers along the scaling segment and emitting the model trace.

The segment runs from the ample endpoint (t=0) to the adjoint divisor
(t=1).  Each chamber met by the segment contributes an exact rational
parameter interval, found in integers; the ordered intervals partition
[0,1] and each wall point is a crossing of the walk.  Nef classification
marks where chambers stop lying over the current model's nef cone;
crossings inside one block may be isomorphisms, crossings between blocks
are genuine steps.
"""

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionError,
    InconsistentInput,
    MissingNefData,
    NonGenericSegment,
    OutsideSupport,
)
from .linalg import _EXACT_TYPES, clear_denominators, dot, mat_apply, shown


@dataclass(frozen=True)
class ScalingSegment:
    """Segment t -> t*kappa + (1-t)*h in grading coordinates.

    ``kappa`` is the adjoint divisor (canonically the first unit vector),
    ``h`` the user-chosen ample class.
    """

    kappa: tuple
    h: tuple

    def point(self, t):
        """The point at ``t``; a ``t`` not exact by ``linalg``'s rule raises TypeError."""
        if type(t) not in _EXACT_TYPES:
            raise TypeError(f"segment parameter must be an int or a Fraction, got {t!r}")
        t = Fraction(t)
        return tuple([t * k + (1 - t) * a for k, a in zip(self.kappa, self.h)])


def _exact(v):
    """``v`` as ``Fraction``s; a float entry raises TypeError, as in order queries."""
    ints, den = clear_denominators(tuple(v))
    return tuple(Fraction(i, den) for i in ints)


def make_segment(h, kappa=None, grading_dim=None):
    """The segment from ``h`` to ``kappa``, by default the first unit vector
    of length ``grading_dim`` (``len(h)`` if None); endpoints of different
    lengths raise DimensionError."""
    h = _exact(h)
    if kappa is None:
        n = grading_dim if grading_dim is not None else len(h)
        kappa = tuple(Fraction(1) if i == 0 else Fraction(0) for i in range(n))
    else:
        kappa = _exact(kappa)
    if len(kappa) != len(h):
        raise DimensionError(
            f"segment endpoints differ in length: h has {len(h)} entries, kappa {len(kappa)}"
        )
    if kappa == h:
        raise InconsistentInput("segment endpoints coincide")
    return ScalingSegment(kappa, h)


@dataclass(frozen=True)
class ChamberWalk:
    chambers: tuple  # indices into the fan's cell sequence, walk order
    cells: tuple  # the corresponding cones, walk order
    intervals: tuple  # (lo, hi) Fractions per chamber, partitioning [0,1]
    crossings: tuple  # wall points, one per consecutive pair

    @property
    def length(self):
        return len(self.chambers)


@dataclass(frozen=True)
class NefClassification:
    indices: tuple  # strictly increasing block ends k_0 < k_1 < ... (1-based)
    mode: str  # "first-step-only" or "full"

    def block_of(self, chamber_position):
        """0-based block index of a 1-based chamber position: the number of
        block ends before it, ``len(indices)`` past the last one."""
        return bisect_left(self.indices, chamber_position)


@dataclass(frozen=True)
class TraceStep:
    from_chamber: int
    to_chamber: int
    t: Fraction
    wall_point: tuple
    interior_pick: tuple
    model_id: str
    possibly_isomorphism: object  # True / False / None (classification unknown)


@dataclass(frozen=True)
class MmpTrace:
    steps: tuple
    final_chamber: int
    final_divisor: tuple
    final_model_id: str


def _segment_interval(cell, h, d):
    """Exact t-interval of the segment inside a cell, or None if empty.

    ``h`` and ``d`` are integer vectors, the ample endpoint and
    ``kappa - h`` over one positive denominator, so each wall gives
    ``t = -alpha / beta`` with ``alpha = eq . h`` and ``beta = eq . d``.
    The bounds are kept as (numerator, positive denominator) pairs and
    compared by cross-multiplication.
    """
    lo_n, lo_d, hi_n, hi_d = 0, 1, 1, 1
    for eq in cell.equations:
        alpha = dot(eq, h)
        beta = dot(eq, d)
        if alpha != 0 or beta != 0:
            if beta == 0:
                return None
            t_n, t_d = (-alpha, beta) if beta > 0 else (alpha, -beta)
            if t_n * lo_d < lo_n * t_d or t_n * hi_d > hi_n * t_d:
                return None
            lo_n, lo_d = hi_n, hi_d = t_n, t_d
    for f in cell.facets:
        alpha = dot(f, h)
        beta = dot(f, d)
        if beta == 0:
            if alpha < 0:
                return None
        elif beta > 0:
            if -alpha * lo_d > lo_n * beta:
                lo_n, lo_d = -alpha, beta
        elif alpha * hi_d < hi_n * -beta:
            hi_n, hi_d = alpha, -beta
    if lo_n * hi_d > hi_n * lo_d:
        return None
    return Fraction(lo_n, lo_d), Fraction(hi_n, hi_d)


def order_chambers(fan, seg):
    """Order the chambers met by the segment, with exact crossing data.

    The endpoints are scaled to integers once, ``h`` and ``d = kappa - h``
    over one denominator, and support membership, intervals and genericity
    are decided on them.  Genericity: every cell met for t < 1 must be met
    in its interior.  On an interval lo < hi the segment runs inside a wall
    exactly when a facet has ``f.h == f.d == 0``; a touch at t = lo = hi
    has the tight walls ``f.h * t.den + f.d * t.num == 0``, and a touch at
    t = 1 (the adjoint divisor on a boundary) is discarded silently.
    """
    support = fan.support
    n = len(seg.h)
    scaled, _ = clear_denominators(seg.h + seg.kappa)
    h = scaled[:n]
    if not support.contains(h):
        raise OutsideSupport("ample endpoint h lies outside the support cone")
    if not support.contains(scaled[n:]):
        raise OutsideSupport("adjoint endpoint lies outside the support cone")
    d = tuple([k - a for k, a in zip(scaled[n:], h)])
    met = []
    for idx, cell in enumerate(fan.cells):
        interval = _segment_interval(cell, h, d)
        if interval is None:
            continue
        lo, hi = interval
        if lo == hi:
            if lo == 1:
                continue
            t_n, t_d = lo.numerator, lo.denominator
            raise NonGenericSegment(
                f"segment touches a chamber only at t={shown(lo)}",
                cell=cell,
                walls=[f for f in cell.facets if dot(f, h) * t_d + dot(f, d) * t_n == 0],
            )
        walls = [f for f in cell.facets if dot(f, h) == 0 and dot(f, d) == 0]
        if walls:
            raise NonGenericSegment("segment runs inside a wall of a chamber", cell=cell,
                                    walls=walls)
        met.append((lo, hi, idx))
    if not met:
        raise OutsideSupport("segment does not meet any chamber")
    met.sort()
    if met[0][0] != 0 or met[-1][1] != 1:
        raise InconsistentInput("chamber intervals do not cover the segment")
    for (lo1, hi1, _), (lo2, hi2, _) in zip(met, met[1:]):
        if hi1 != lo2:
            raise InconsistentInput("chamber intervals do not partition the segment")
    chambers = tuple(idx for _, _, idx in met)
    cells = tuple(fan.cells[idx] for idx in chambers)
    intervals = tuple((lo, hi) for lo, hi, _ in met)
    crossings = tuple(seg.point(hi) for _, hi, _ in met[:-1])
    return ChamberWalk(chambers, cells, intervals, crossings)


def _rays_in_nef(cell, matrix, nef_cone):
    return all(nef_cone.contains(mat_apply(matrix, r)) for r in cell.rays)


def classify_nef(walk, datum):
    """Indices where chambers stop lying over successive nef cones.

    "first-step-only" uses the input nef cone only; "full" continues with
    the supplied pushforward chain, one entry per later model.
    """
    if datum.nef is None:
        raise MissingNefData("nef cone data is required for classification")
    if datum.numerical is None:
        raise MissingNefData("a nef cone needs a numerical map")
    flags = [
        _rays_in_nef(cell, datum.numerical, datum.nef) for cell in walk.cells
    ]
    if not flags[0]:
        raise InconsistentInput(
            "the chamber containing the ample endpoint is not nef"
        )
    k = walk.length
    k0 = 0
    while k0 < k and flags[k0]:
        k0 += 1
    # the nef preimage is a union of chambers, so flags must be monotone
    if any(flags[i] for i in range(k0, k)):
        raise InconsistentInput(
            "nef chambers are not an initial block of the walk"
        )
    if not datum.pushforwards:
        return NefClassification((k0,), "first-step-only")
    indices = [k0]
    current = k0
    model = 0
    while current < k:
        if model >= len(datum.pushforwards):
            raise MissingNefData("pushforward chain ended before the walk did")
        pf = datum.pushforwards[model]
        nxt = current
        while nxt < k and _rays_in_nef(walk.cells[nxt], pf.matrix, pf.nef):
            nxt += 1
        if nxt == current:
            raise InconsistentInput(
                f"chamber {current + 1} is not nef on model {pf.model_id!r}"
            )
        indices.append(nxt)
        current = nxt
        model += 1
    return NefClassification(tuple(indices), "full")


def _model_ids(walk, cls, datum):
    k = walk.length
    ids = [f"M{i + 1}" for i in range(k)]
    if cls is not None and cls.mode == "full" and datum is not None:
        for i in range(k):
            block = cls.block_of(i + 1)
            if block > 0 and block - 1 < len(datum.pushforwards):
                ids[i] = datum.pushforwards[block - 1].model_id
    return ids


def emit_trace(walk, cls=None, datum=None):
    """One step per wall crossing, from the ample end toward the adjoint.

    With a classification, crossings inside one nef block are flagged as
    possible isomorphisms; without one, or past the first genuine step of a
    first-step-only one (chamber ``indices[0]``), flags are None (unknown).
    """
    ids = _model_ids(walk, cls, datum)
    steps = []
    for i in range(walk.length - 1):
        if cls is None or (cls.mode != "full" and i + 1 > cls.indices[0]):
            flag = None
        else:
            flag = cls.block_of(i + 1) == cls.block_of(i + 2)
        steps.append(
            TraceStep(
                from_chamber=walk.chambers[i],
                to_chamber=walk.chambers[i + 1],
                t=walk.intervals[i][1],
                wall_point=walk.crossings[i],
                interior_pick=walk.cells[i + 1].relative_interior_point(),
                model_id=ids[i + 1],
                possibly_isomorphism=flag,
            )
        )
    final_divisor = walk.cells[-1].relative_interior_point()
    return MmpTrace(
        steps=tuple(steps),
        final_chamber=walk.chambers[-1],
        final_divisor=final_divisor,
        final_model_id=ids[-1],
    )
