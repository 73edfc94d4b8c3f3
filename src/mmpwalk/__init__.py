"""Exact-arithmetic chamber decompositions and minimal-model walks for
finitely generated divisorial rings."""

from .cones import (
    Fan,
    PolyCone,
    common_refinement,
    cone_from_halfspaces,
    cone_from_rays,
    hyperplane_refinement,
    intersect,
    make_fan,
)
from .errors import (
    BudgetExceeded,
    DimensionError,
    InconsistentInput,
    InvalidCone,
    MissingNefData,
    MmpwalkError,
    NonGenericSegment,
    OutsideSupport,
    ParseError,
    SupportMismatch,
)
from .oracle import InstanceSpec, builtin_examples, o_value_oracle, random_instance
from .orders import (
    NO_REPRESENTATION,
    OValue,
    asymptotic_order,
    cell_functionals,
    chamber_fan,
    integer_order,
    linearity_fan,
    stabilization_multiple,
)
from .ring import (
    GeneratorDatum,
    PushforwardDatum,
    RingDatum,
    support_cone,
    validate,
)
from .veronese import (
    GridReport,
    VeroneseResult,
    grid_additivity_check,
    monoid_generators,
    veronese_degree,
)
from .walk import (
    ChamberWalk,
    MmpTrace,
    NefClassification,
    ScalingSegment,
    TraceStep,
    classify_nef,
    emit_trace,
    make_segment,
    order_chambers,
)

__version__ = "0.1.0"
