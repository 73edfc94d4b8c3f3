"""Input data model: a finitely generated divisorial ring given by generators.

The engine never sees the variety itself; everything it knows arrives here
as generator multidegrees, per-valuation multiplicities and numerical-class
data, which are treated as ground truth.  A numerical map is its matrix,
one row per numerical coordinate, so its target dimension is its row count;
a nef cone is a plain ``PolyCone`` in its map's target coordinates.
"""

from dataclasses import dataclass, field

from .cones import PolyCone, cone_from_rays
from .linalg import _EXACT_TYPES, rank


@dataclass(frozen=True)
class GeneratorDatum:
    """One ring generator: its multidegree and its valuation multiplicities."""

    multidegree: tuple
    mults: dict


@dataclass(frozen=True)
class PushforwardDatum:
    """Per-model data for classifying chambers after a wall crossing.

    ``matrix`` sends grading coordinates directly to the model's numerical
    coordinates; ``nef``, the model's nef cone, lives in those coordinates.
    """

    model_id: str
    matrix: tuple
    nef: PolyCone


@dataclass(frozen=True)
class RingDatum:
    r: int
    labels: tuple
    generators: tuple
    valuations: tuple
    numerical: tuple  # the numerical map's matrix, or None
    nef: PolyCone = None  # the nef cone, in the numerical map's coordinates
    pushforwards: tuple = ()

    @property
    def grading_dim(self):
        return self.r + 1


@dataclass
class ValidationEntry:
    severity: str  # "error" or "warning"
    code: str
    message: str


@dataclass
class ValidationReport:
    entries: list = field(default_factory=list)

    def add(self, severity, code, message):
        self.entries.append(ValidationEntry(severity, code, message))

    @property
    def errors(self):
        return [e for e in self.entries if e.severity == "error"]

    @property
    def warnings(self):
        return [e for e in self.entries if e.severity == "warning"]

    def ok(self):
        return not self.errors


def _exact_map(report, code, name, rows, n):
    """Report a map of more than ``n`` rows, which cannot have full row
    rank, or whose rows are not of length ``n`` or whose entries are not
    exact; True when it is well formed."""
    if len(rows) > n:
        report.add("error", code, f"{name} has {len(rows)} rows, more than r + 1 = {n}")
    elif any(len(row) != n for row in rows):
        report.add("error", code, f"{name} has wrong row length")
    elif not all(type(x) in _EXACT_TYPES for row in rows for x in row):
        report.add("error", code, f"{name} entries must be integers or Fractions")
    else:
        return True
    return False


def _nef_dimension(report, name, nef, rows):
    """Report a nef cone that does not live in its map's target space."""
    if nef is not None and nef.ambient_dim != len(rows):
        report.add(
            "error",
            "nef-dimension",
            f"{name} is in dimension {nef.ambient_dim}, its map's target in"
            f" dimension {len(rows)}",
        )


def validate(datum):
    """Check all structural invariants of a RingDatum.

    Never raises; problems come back in the report with a severity level.
    """
    report = ValidationReport()
    n = datum.r + 1
    if datum.r < 1:
        report.add("error", "bad-rank", f"r must be >= 1, got {datum.r}")
    if len(datum.labels) != n:
        report.add(
            "warning",
            "label-count",
            f"expected {n} labels, got {len(datum.labels)}",
        )
    if not datum.generators:
        report.add("error", "no-generators", "at least one generator is required")
    degrees = []  # multidegrees of the right length with integer entries
    seen = set()
    for name in datum.valuations:
        if name in seen:
            report.add("error", "duplicate-valuation", f"valuation {name!r} repeated")
        seen.add(name)
    for i, gen in enumerate(datum.generators):
        if len(gen.multidegree) != n:
            report.add(
                "error",
                "bad-multidegree",
                f"generator {i} has multidegree of length {len(gen.multidegree)}, expected {n}",
            )
            continue
        if all(x == 0 for x in gen.multidegree):
            report.add("error", "zero-multidegree", f"generator {i} has zero multidegree")
        exact = all(type(x) is int for x in gen.multidegree)
        if exact:
            degrees.append(gen.multidegree)
        if not exact or any(x < 0 for x in gen.multidegree):
            report.add(
                "error",
                "bad-multidegree",
                f"generator {i} multidegree must have nonnegative integer entries",
            )
        for name in datum.valuations:
            if name not in gen.mults:
                report.add(
                    "error",
                    "missing-mult",
                    f"generator {i} has no multiplicity for valuation {name!r}",
                )
            elif type(gen.mults[name]) not in _EXACT_TYPES:
                report.add(
                    "error",
                    "bad-mult",
                    f"generator {i} multiplicity for valuation {name!r} must be an"
                    " integer or a Fraction",
                )
            elif gen.mults[name] < 0:
                report.add(
                    "error",
                    "negative-mult",
                    f"generator {i} has negative multiplicity for valuation {name!r}",
                )
        for name in gen.mults:
            if name not in datum.valuations:
                report.add(
                    "warning",
                    "untracked-valuation",
                    f"generator {i} carries a multiplicity for untracked valuation {name!r}",
                )
    if datum.numerical is not None:
        rows = datum.numerical
        if (_exact_map(report, "bad-numerical-map", "numerical map", rows, n)
                and rank(rows) < len(rows)):
            report.add(
                "warning",
                "numerical-rank",
                "numerical map does not have full row rank; classes do not generate",
            )
        _nef_dimension(report, "nef cone", datum.nef, rows)
    elif datum.nef is not None:
        report.add("error", "nef-without-map", "a nef cone needs a numerical map")
    for pf in datum.pushforwards:
        name = f"pushforward {pf.model_id!r}"
        _exact_map(report, "bad-pushforward-map", f"{name} map", pf.matrix, n)
        _nef_dimension(report, f"{name} nef cone", pf.nef, pf.matrix)
    if degrees and not all(all(x == 0 for x in d) for d in degrees):
        if rank(degrees) < n:
            report.add(
                "warning",
                "thin-support",
                "support cone not full-dimensional",
            )
    if datum.nef is not None and not datum.nef.is_full_dimensional():
        report.add("warning", "thin-nef", "nef cone is not full-dimensional")
    return report


def support_cone(datum):
    """Cone spanned by all generator multidegrees."""
    return cone_from_rays([g.multidegree for g in datum.generators])
