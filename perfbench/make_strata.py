"""Write ``strata.json``: machine-independent costs of candidate inputs.

Three workloads draw their inputs by stratified sampling over a table of
candidates sorted by a cost: a fixed number of seeded draws from every cost
stratum keeps the mix of cheap and expensive inputs the same from seed to
seed, while every input still comes from the seed.  The costs were measured
once, with the program as it was when the benchmark was added, and are only
a sort key.  The committed table is frozen: run again after a change to the
program, this script may reorder the rows and so change the inputs of every
run, and runs before and after the change would no longer be comparable.
It is kept to show how the table was made.

- ``cells``: instance seed -> number of cells of its chamber fan, for the
  acceptance-distribution instances 1-2500 (``decompose`` and ``orders``;
  the run time of ``decompose`` + ``walk`` tracks the cell count with
  correlation 0.75-0.96 within each r).  ``decompose`` also checks each
  fan's cell count against it.
- ``levels``: per form of ``workloads.levels_forms``, rows
  ``[instance seed, i, j, valuation index, nodes]`` sorted by the
  enumeration nodes that ``stabilization_multiple(..., k_max=12)`` visited
  at the sum of generators i and j (``levels``).

Run from the repository root (about four minutes) only to build a new,
incomparable set of inputs:

    python3 perfbench/make_strata.py
"""

import json
import os
import random
import sys

from common import acceptance_spec, import_mmpwalk

CELL_CANDIDATES = range(1, 2501)
PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "strata.json")


def levels_table(workloads, tracer):
    from mmpwalk import oracle, orders, ring

    cls = workloads.Levels
    rows = {"kept": [], "unit_free": []}
    for instance_seed in cls.INSTANCES:
        datum = oracle.random_instance(acceptance_spec(instance_seed))
        for form, data in workloads.levels_forms(datum).items():
            support = ring.support_cone(data)
            rng = random.Random(f"levels/{instance_seed}/{form}")
            for _ in range(cls.QUERIES):
                i, j, v = workloads.levels_query(data, rng)
                gens = data.generators
                x = tuple(a + b for a, b in zip(gens[i].multidegree, gens[j].multidegree))
                before = tracer.counts["orders.enum.nodes"]
                orders.stabilization_multiple(data, data.valuations[v], x, cls.K_MAX,
                                              support=support)
                nodes = tracer.counts["orders.enum.nodes"] - before
                rows[form].append([instance_seed, i, j, v, nodes])
    return {form: sorted(table, key=lambda row: (row[4], row)) for form, table in rows.items()}


def main():
    import_mmpwalk()
    from mmpwalk import chamber_fan, random_instance

    import workloads
    from tracer import Tracer

    cells = {
        str(seed): len(chamber_fan(random_instance(acceptance_spec(seed))).cells)
        for seed in CELL_CANDIDATES
    }
    tracer = Tracer()
    tracer.install()
    try:
        levels = levels_table(workloads, tracer)
    finally:
        tracer.uninstall()
    with open(PATH, "w", encoding="utf-8") as fh:
        json.dump({"cells": cells, "levels": levels}, fh, separators=(",", ":"),
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
