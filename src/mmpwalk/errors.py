"""Exception types shared across the package."""


class MmpwalkError(Exception):
    """Base class for all engine errors."""


class InvalidCone(MmpwalkError):
    """Cone construction from empty or degenerate generator data."""


class DimensionError(MmpwalkError):
    """Ambient dimensions of two objects do not match."""


class SupportMismatch(MmpwalkError):
    """Fans being refined do not share the same support cone."""


class OutsideSupport(MmpwalkError):
    """Query point lies outside the support cone."""


class BudgetExceeded(MmpwalkError):
    """A fixed pivot or enumeration budget, or the oracle's own, was exhausted."""


class NonGenericSegment(MmpwalkError):
    """The scaling segment meets a chamber without meeting its interior.

    Carries the offending cell and the wall normals so the caller can
    re-choose the ample endpoint.
    """

    def __init__(self, message, cell=None, walls=()):
        super().__init__(message)
        self.cell = cell
        self.walls = tuple(walls)


class MissingNefData(MmpwalkError):
    """Nef-cone or pushforward data required for classification is absent;
    the message says which."""


class InconsistentInput(MmpwalkError):
    """Supplied data contradicts itself (e.g. the ample chamber is not nef)."""


class ParseError(MmpwalkError):
    """Malformed input document."""
