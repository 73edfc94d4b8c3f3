"""Spans and counts recorded from outside the mmpwalk package.

``Tracer.install`` replaces each layer function listed in ``LAYERS`` under
every loaded ``mmpwalk`` module that holds it: the defining module and each
module that imported the name, since the package looks those names up at
call time.  ``Tracer.uninstall`` puts the originals back.  Spans are kept in
memory as ``(name, start, end, parent, op)`` tuples and written out once the
run is over.

Two kinds of wrapper exist.  A *span* wrapper records a span and the span's
self time (its duration minus the time its child spans cover).  A *count*
wrapper only counts; it is used on functions called hundreds of thousands of
times per run (``_pivot``, ``rank``), whose cost then shows in the self time
of the enclosing span.  Counts derived from a private name (``_dd``,
``_pivot``, ``_reduced_min``, ``_enumerate_min``, ``_parallelepiped_points``)
are listed in ``PRIVATE_COUNTS``.
"""

import functools
import gzip
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _dd_rays(tracer, args, kwargs, result):
    lines, rays = result
    tracer.counts["cones._dd.rays_out"] += len(rays)


def _intersect_kept(tracer, args, kwargs, result):
    a, b = args[:2]
    if result.dim == min(a.dim, b.dim):
        tracer.counts["cones.intersect.kept"] += 1


def _enum_nodes(path):
    def hook(tracer, args, kwargs, result):
        _, nodes_left = result
        budget = args[-1]
        tracer.counts["orders.enum.nodes"] += budget - nodes_left
        tracer.counts[f"orders.enum.{path}_calls"] += 1

    return hook


def _box_points(tracer, args, kwargs, result):
    basis = args[0]
    volume = 1
    for hi in (sum(col) for col in zip(*basis)):
        volume *= hi + 1
    # the scan visits every point of the box; the origin is dropped at once
    tracer.counts["veronese.lattice.box_points"] += volume
    tracer.counts["veronese.lattice.kept"] += len(result)


def _grid_report(tracer, args, kwargs, result):
    fan = args[1]
    tracer.counts["veronese.grid.checks"] += sum(len(e.checks) for e in result.entries)
    tracer.counts["veronese.grid.cells_truncated"] += len(
        {e.cell_index for e in result.entries if e.truncated}
    )
    tracer.counts["veronese.grid.cells_skipped"] += len(
        {e.cell_index for e in result.entries if e.skipped}
    )
    tracer.counts["veronese.grid.nonsimplicial_cells"] += sum(
        1 for c in fan.cells if len(c.rays) > c.dim
    )
    tracer.counts["veronese.grid.cells"] += len(fan.cells)


def _chambers_met(tracer, args, kwargs, result):
    tracer.counts["walk.chambers_met"] += result.length


def _bytes_out(tracer, args, kwargs, result):
    tracer.counts["serialize.bytes_out"] += len(result.encode("utf-8"))


# (module, function, wrapper kind, span name, hook deriving counts)
LAYERS = (
    ("mmpwalk.cli", "main", "span", "cli.main", None),
    ("mmpwalk.ring", "validate", "span", "ring.validate", None),
    ("mmpwalk.ring", "support_cone", "span", "ring.support_cone", None),
    ("mmpwalk.cones", "_dd", "span", "cones._dd", _dd_rays),
    ("mmpwalk.cones", "intersect", "count", "cones.intersect", _intersect_kept),
    ("mmpwalk.cones", "common_refinement", "span", "cones.common_refinement", None),
    ("mmpwalk.cones", "hyperplane_refinement", "span", "cones.hyperplane_refinement", None),
    ("mmpwalk.linalg", "rank", "count", "linalg.rank", None),
    ("mmpwalk.linalg", "row_reduce", "count", "linalg.row_reduce", None),
    ("mmpwalk.linalg", "solve_exact", "count", "linalg.solve_exact", None),
    ("mmpwalk.orders", "linearity_fan", "span", "orders.linearity_fan", None),
    ("mmpwalk.orders", "chamber_fan", "span", "orders.chamber_fan", None),
    ("mmpwalk.orders", "cell_functionals", "span", "orders.cell_functionals", None),
    ("mmpwalk.orders", "asymptotic_order", "span", "orders.asymptotic_order", None),
    ("mmpwalk.orders", "integer_order", "span", "orders.integer_order", None),
    ("mmpwalk.orders", "stabilization_multiple", "span", "orders.stabilization_multiple", None),
    ("mmpwalk.orders", "_reduced_min", "count", "orders._reduced_min", _enum_nodes("reduced")),
    ("mmpwalk.orders", "_enumerate_min", "count", "orders._enumerate_min", _enum_nodes("plain")),
    ("mmpwalk.simplex", "solve_min", "span", "simplex.solve_min", None),
    ("mmpwalk.simplex", "_pivot", "count", "simplex._pivot", None),
    ("mmpwalk.veronese", "veronese_degree", "span", "veronese.veronese_degree", None),
    ("mmpwalk.veronese", "monoid_generators", "span", "veronese.monoid_generators", None),
    ("mmpwalk.veronese", "_parallelepiped_points", "count",
     "veronese._parallelepiped_points", _box_points),
    ("mmpwalk.veronese", "grid_additivity_check", "span",
     "veronese.grid_additivity_check", _grid_report),
    ("mmpwalk.walk", "order_chambers", "span", "walk.order_chambers", _chambers_met),
    ("mmpwalk.walk", "emit_trace", "span", "walk.emit_trace", None),
    ("mmpwalk.serialize", "fan_to_json", "span", "serialize.fan_to_json", None),
    ("mmpwalk.serialize", "trace_to_json", "span", "serialize.trace_to_json", None),
    ("mmpwalk.serialize", "dumps", "span", "serialize.dumps", _bytes_out),
)

# per-layer metrics whose count is read off a private function
PRIVATE_COUNTS = (
    "cones._dd.calls",
    "cones._dd.rays_out",
    "simplex.pivots",
    "simplex.pivots_per_solve",
    "orders.enum.nodes",
    "orders.enum.reduced_share",
    "veronese.lattice.box_points",
    "veronese.lattice.kept",
    "veronese.lattice.yield",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.calls = Counter()
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.op = None
        self._stack = []  # [span index, time covered by children]
        self._patches = []  # (module, attribute, original)

    def install(self):
        for module_name, *_ in LAYERS:
            importlib.import_module(module_name)
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "mmpwalk" or name.startswith("mmpwalk.")]
        for module_name, attr, kind, name, hook in LAYERS:
            original = getattr(sys.modules[module_name], attr)
            make = self._span_wrapper if kind == "span" else self._count_wrapper
            wrapper = make(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patches):
            setattr(module, key, original)
        self._patches = []

    def _count_wrapper(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            tracer.calls[name] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def _span_wrapper(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            index = len(spans)
            parent = stack[-1][0] if stack else None
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (name, start, end, parent, tracer.op)
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")

    def layer_metrics(self):
        """Per-layer metrics named ``<module>.<name>.<measure>``."""
        c, k, s = self.calls, self.counts, self.self_s
        solves = c["simplex.solve_min"]
        enum_calls = c["orders._reduced_min"] + c["orders._enumerate_min"]
        box = k["veronese.lattice.box_points"]
        serialize_s = sum(s[n] for n in ("serialize.fan_to_json",
                                          "serialize.trace_to_json",
                                          "serialize.dumps"))
        out = {
            "cones._dd.calls": (c["cones._dd"], "count"),
            "cones._dd.self_s": (s["cones._dd"], "s"),
            "cones._dd.rays_out": (k["cones._dd.rays_out"], "count"),
            "cones.intersect.calls": (c["cones.intersect"], "count"),
            "cones.intersect.kept_ratio": (
                _ratio(k["cones.intersect.kept"], c["cones.intersect"]), "ratio"),
            "cones.common_refinement.self_s": (s["cones.common_refinement"], "s"),
            "cones.hyperplane_refinement.self_s": (s["cones.hyperplane_refinement"], "s"),
            "orders.chamber_fan.self_s": (s["orders.chamber_fan"], "s"),
            "orders.cell_functionals.self_s": (s["orders.cell_functionals"], "s"),
            "orders.linearity_fan.self_s": (s["orders.linearity_fan"], "s"),
            "orders.linearity_fan.calls": (c["orders.linearity_fan"], "count"),
            "linalg.rank.calls": (c["linalg.rank"], "count"),
            "linalg.row_reduce.calls": (c["linalg.row_reduce"], "count"),
            "ring.support_cone.calls": (c["ring.support_cone"], "count"),
            "ring.validate.self_s": (s["ring.validate"], "s"),
            "simplex.solve_min.calls": (solves, "count"),
            "simplex.solve_min.self_s": (s["simplex.solve_min"], "s"),
            "simplex.pivots": (c["simplex._pivot"], "count"),
            "simplex.pivots_per_solve": (_ratio(c["simplex._pivot"], solves), "ratio"),
            "orders.asymptotic_order.calls": (c["orders.asymptotic_order"], "count"),
            "orders.asymptotic_order.self_s": (s["orders.asymptotic_order"], "s"),
            "orders.integer_order.calls": (c["orders.integer_order"], "count"),
            "orders.integer_order.self_s": (s["orders.integer_order"], "s"),
            "orders.enum.nodes": (k["orders.enum.nodes"], "count"),
            "orders.enum.reduced_share": (
                _ratio(k["orders.enum.reduced_calls"], enum_calls), "ratio"),
            "orders.stabilization_multiple.self_s": (
                s["orders.stabilization_multiple"], "s"),
            "veronese.veronese_degree.calls": (c["veronese.veronese_degree"], "count"),
            "veronese.veronese_degree.self_s": (s["veronese.veronese_degree"], "s"),
            "veronese.monoid_generators.calls": (c["veronese.monoid_generators"], "count"),
            "veronese.monoid_generators.self_s": (s["veronese.monoid_generators"], "s"),
            "veronese.lattice.box_points": (box, "count"),
            "veronese.lattice.kept": (k["veronese.lattice.kept"], "count"),
            "veronese.lattice.yield": (_ratio(k["veronese.lattice.kept"], box), "ratio"),
            "linalg.solve_exact.calls": (c["linalg.solve_exact"], "count"),
            "veronese.grid.checks": (k["veronese.grid.checks"], "count"),
            "veronese.grid.cells_truncated": (k["veronese.grid.cells_truncated"], "count"),
            "veronese.grid.cells_skipped": (k["veronese.grid.cells_skipped"], "count"),
            "veronese.grid.nonsimplicial_cells": (
                k["veronese.grid.nonsimplicial_cells"], "count"),
            "walk.order_chambers.self_s": (s["walk.order_chambers"], "s"),
            "walk.emit_trace.self_s": (s["walk.emit_trace"], "s"),
            "walk.chambers_met": (k["walk.chambers_met"], "count"),
            "serialize.self_s": (serialize_s, "s"),
            "serialize.bytes_out": (k["serialize.bytes_out"], "bytes"),
            "cli.main.calls": (c["cli.main"], "count"),
        }
        return out


def _ratio(part, base):
    return part / base if base else 0.0
