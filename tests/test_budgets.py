"""One budget setting: ``o_value_oracle``'s ``budget`` (``--budget`` on the
command line) is the only limit a caller sets; every other search reads its
module's fixed limit when it is called."""

import inspect
import re
from dataclasses import replace
from fractions import Fraction

import pytest

import mmpwalk
from mmpwalk import (
    BudgetExceeded,
    builtin_examples,
    cone_from_rays,
    integer_order,
    monoid_generators,
    orders,
    simplex,
    stabilization_multiple,
    veronese,
    veronese_degree,
)
from mmpwalk.ring import GeneratorDatum

LIMIT = re.compile(r"budget|cap|limit")


def test_no_public_function_but_the_oracle_takes_a_limit():
    public = {name: getattr(mmpwalk, name) for name in dir(mmpwalk) if not name.startswith("_")}
    public = {name: f for name, f in public.items() if callable(f) and not inspect.ismodule(f)}
    public["simplex.solve_min"] = simplex.solve_min
    limits = {}
    for name, f in public.items():
        try:
            parameters = inspect.signature(f).parameters
        except (TypeError, ValueError):
            continue
        found = [p for p in parameters if LIMIT.search(p)]
        if found:
            limits[name] = found
    assert "integer_order" in public and "grid_additivity_check" in public
    assert limits == {"o_value_oracle": ["budget"]}


def _degenerate():
    # fractional-vertex with a generator of degree (4, 2) = 2 * (2, 1) and
    # multiplicity 2, tight with (2, 1): the levels of (1, 1) are searched
    datum = builtin_examples()["fractional-vertex"]
    extra = GeneratorDatum(multidegree=(4, 2), mults={"G": Fraction(2)})
    return replace(datum, generators=datum.generators + (extra,))


@pytest.mark.parametrize("module, name, lowered, call, message", [
    (orders, "DEFAULT_NODE_BUDGET", 3,
     lambda: integer_order(builtin_examples()["blowup-P2"], "E", (30, 30), 12),
     "integer enumeration budget exhausted"),
    (orders, "DEFAULT_NODE_BUDGET", 8,
     lambda: stabilization_multiple(_degenerate(), "G", (1, 1), 12),
     "stabilization search budget exhausted"),
    (simplex, "DEFAULT_PIVOT_CAP", 0,
     lambda: simplex.solve_min([[1, 1]], [3], [1, 2]),
     "simplex pivot budget exhausted"),
    (veronese, "DEFAULT_SPLIT_BUDGET", 1,
     lambda: veronese_degree([2, 3, 4, 6], 6),
     "splitting enumeration budget exhausted"),
    (veronese, "DEFAULT_LATTICE_BUDGET", 29,
     lambda: monoid_generators(cone_from_rays([(1, 0), (1, 9)])),
     "parallelepiped box has 30 lattice points"),
], ids=["integer_order", "stabilization_multiple", "solve_min", "veronese_degree",
        "monoid_generators"])
def test_lowering_a_fixed_limit_bounds_the_next_call(module, name, lowered, call, message,
                                                     monkeypatch):
    call()  # within the fixed limit
    monkeypatch.setattr(module, name, lowered)
    with pytest.raises(BudgetExceeded, match=f"^{message}$"):
        call()

