"""Reproduce the acceptance corpus's machine-independent counts.

The acceptance corpus is the 50 ``InstanceSpec``s of seeds 1-50 that
``tests/test_acceptance.py`` builds.  This script builds each chamber fan
and its cell functionals, then the monoid generators of every cell, with
the tracer installed, and checks the counts below exactly.

The ROADMAP's baseline quotes 344,812 lattice points for the corpus.  That
figure also counts the bounding boxes of the 3 cells that are skipped
because their box exceeds the lattice budget; those boxes are never
scanned.  ``lattice_points_scanned`` counts the points whose membership is
visited: every point of each scanned box.  The script also reports the
skipped boxes' sizes, read off the private ``_ray_basis``, so the two
figures can be reconciled (``ROADMAP_BOX_POINTS``).

Run from the repository root:

    python3 perfbench/corpus_counts.py
"""

import json
import sys

from common import acceptance_spec, import_mmpwalk
from tracer import Tracer

EXPECTED = {
    "cells": 471,
    "fan_dd_calls": 21_326,
    "nonsimplicial_cells": 69,
    "truncated_cells": 119,
    "skipped_cells": 3,
    "lattice_points_scanned": 274_032,
}
ROADMAP_BOX_POINTS = 344_812


def _box_volume(basis):
    volume = 1
    for hi in (sum(col) for col in zip(*basis)):
        volume *= hi + 1
    return volume


def corpus_counts():
    import_mmpwalk()
    from mmpwalk import errors, oracle, orders, ring, veronese

    tracer = Tracer()
    tracer.install()
    try:
        fans = []
        for seed in range(1, 51):
            datum = oracle.random_instance(acceptance_spec(seed))
            before = tracer.calls["cones._dd"]
            support = ring.support_cone(datum)
            fan = orders.chamber_fan(datum, support=support)
            orders.cell_functionals(datum, fan, support=support)
            tracer.counts["fan_dd_calls"] += tracer.calls["cones._dd"] - before
            fans.append(fan)
        counts = {
            "cells": sum(len(f.cells) for f in fans),
            "fan_dd_calls": tracer.counts["fan_dd_calls"],
            "nonsimplicial_cells": 0,
            "truncated_cells": 0,
            "skipped_cells": 0,
            "skipped_box_points": 0,
        }
        for fan in fans:
            for cell in fan.cells:
                counts["nonsimplicial_cells"] += len(cell.rays) > cell.dim
                try:
                    gens = veronese.monoid_generators(cell)
                except errors.BudgetExceeded:
                    counts["skipped_cells"] += 1
                    counts["skipped_box_points"] += _box_volume(veronese._ray_basis(cell))
                    continue
                counts["truncated_cells"] += len(gens) > veronese.MAX_MONOID_GENERATORS
        counts["lattice_points_scanned"] = tracer.counts["veronese.lattice.box_points"]
    finally:
        tracer.uninstall()
    return counts


def main():
    counts = corpus_counts()
    mismatches = {k: (counts[k], v) for k, v in EXPECTED.items() if counts[k] != v}
    total = counts["lattice_points_scanned"] + counts["skipped_box_points"]
    if total != ROADMAP_BOX_POINTS:
        mismatches["scanned + skipped box points"] = (total, ROADMAP_BOX_POINTS)
    print(json.dumps({"counts": counts, "expected": EXPECTED,
                      "ok": not mismatches}, sort_keys=True))
    if mismatches:
        for key, (got, want) in sorted(mismatches.items()):
            print(f"mismatch: {key} = {got}, expected {want}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
