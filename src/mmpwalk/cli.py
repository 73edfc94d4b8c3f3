"""Command-line surface binding the pipeline end to end.

Commands: decompose, walk, veronese, check, oracle.  Exit codes: 0 ok,
1 failed check, 2 parse error, 3 validation/data error, 4 budget
exhausted, 5 non-generic segment.
"""

import argparse
import os
import random
import sys
from fractions import Fraction

from . import serialize
from .errors import BudgetExceeded, MmpwalkError, NonGenericSegment, ParseError
from .oracle import builtin_examples, o_value_oracle
from .linalg import dot
from .orders import (DEFAULT_NODE_BUDGET, OrderFunction, asymptotic_order,
                     cell_functionals, chamber_fan)
from .ring import support_cone, validate
from .veronese import MAX_MONOID_GENERATORS, grid_additivity_check, veronese_degree
from .walk import classify_nef, emit_trace, make_segment, order_chambers

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_BUDGET = 4
EXIT_NON_GENERIC = 5


def _read_input(cfg):
    if cfg.example:
        catalog = builtin_examples()
        if cfg.example not in catalog:
            raise ParseError(
                f"unknown example {cfg.example!r}; available: {sorted(catalog)}"
            )
        return catalog[cfg.example], None
    if not cfg.input:
        raise ParseError("either --input or --example is required")
    if cfg.input == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(cfg.input, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read input {cfg.input!r}: {exc.strerror}") from None
    return serialize.ring_from_json(serialize.loads(text))


def _write_output(cfg, text):
    if cfg.output:
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write output {cfg.output!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _validated(datum):
    report = validate(datum)
    if not report.ok():
        lines = [f"{e.severity}: [{e.code}] {e.message}" for e in report.entries]
        raise _ValidationFailure("\n".join(lines))
    for e in report.warnings:
        print(f"warning: [{e.code}] {e.message}", file=sys.stderr)
    return report


class _ValidationFailure(MmpwalkError):
    pass


def _parse_point(text):
    try:
        return tuple(Fraction(part.strip()) for part in text.split(","))
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad point {text!r}; expected comma-separated rationals")


def cmd_decompose(cfg):
    datum, _ = _read_input(cfg)
    _validated(datum)
    fan = chamber_fan(datum, refine=cfg.refine)
    functionals = cell_functionals(datum, fan)
    if cfg.format == "text":
        lines = [f"support rays: {[list(r) for r in fan.support.rays]}"]
        for i, cell in enumerate(fan.cells):
            lines.append(f"cell {i}: rays {[list(r) for r in cell.rays]}")
        _write_output(cfg, "\n".join(lines) + "\n")
    else:
        _write_output(cfg, serialize.dumps(serialize.fan_to_json(fan, functionals)))
    return EXIT_OK


def _trace_text(walk, trace, cls):
    lines = [f"chambers met: {walk.length}"]
    for i, (lo, hi) in enumerate(walk.intervals):
        lines.append(f"  chamber {walk.chambers[i]}: t in [{lo}, {hi}]")
    if cls is not None:
        lines.append(f"nef classification ({cls.mode}): indices {list(cls.indices)}")
    for s in trace.steps:
        iso = {True: " (possibly isomorphism)", False: "", None: " (classification unknown)"}
        lines.append(
            f"step at t={s.t}: chamber {s.from_chamber} -> {s.to_chamber}"
            f" wall {[str(v) for v in s.wall_point]} model {s.model_id}{iso[s.possibly_isomorphism]}"
        )
    lines.append(
        f"final: chamber {trace.final_chamber}, divisor"
        f" {[str(v) for v in trace.final_divisor]}, model {trace.final_model_id}"
    )
    return "\n".join(lines) + "\n"


def cmd_walk(cfg):
    datum, segment_h = _read_input(cfg)
    _validated(datum)
    if cfg.h:
        segment_h = _parse_point(cfg.h)
    if segment_h is None:
        raise ParseError("a segment is required: supply document 'segment' or --h")
    fan = chamber_fan(datum, refine=cfg.refine)
    seg = make_segment(segment_h, grading_dim=datum.grading_dim)
    walk = order_chambers(fan, seg)
    cls = classify_nef(walk, datum) if datum.nef is not None else None
    trace = emit_trace(walk, cls, datum)
    if cfg.format == "text":
        _write_output(cfg, _trace_text(walk, trace, cls))
    else:
        doc = serialize.trace_to_json(trace)
        doc["intervals"] = [[str(lo), str(hi)] for lo, hi in walk.intervals]
        doc["chambers"] = list(walk.chambers)
        if cls is not None:
            doc["nef_classification"] = {
                "mode": cls.mode,
                "indices": list(cls.indices),
            }
        _write_output(cfg, serialize.dumps(doc))
    return EXIT_OK


def cmd_veronese(cfg):
    if not cfg.degrees:
        raise ParseError("--degrees is required, e.g. --degrees 2,3")
    try:
        degrees = [int(p) for p in cfg.degrees.split(",")]
    except ValueError:
        raise ParseError(f"bad --degrees {cfg.degrees!r}")
    try:
        result = veronese_degree(degrees, cfg.m_max)
    except ValueError as exc:
        raise ParseError(f"bad --degrees {cfg.degrees!r}: {exc}") from None
    if cfg.format == "text":
        scope = ("for every m" if result.certified == "proved"
                 else f"up to m = {result.verified_up_to}")
        _write_output(cfg, f"d = {result.d} ({result.certified} {scope})\n")
    else:
        _write_output(
            cfg,
            serialize.dumps(
                {
                    "d": result.d,
                    "verified_up_to": result.verified_up_to,
                    "certified": result.certified,
                }
            ),
        )
    return EXIT_OK


def cmd_check(cfg):
    datum, _ = _read_input(cfg)
    _validated(datum)
    rng = random.Random(cfg.seed)
    failures = []
    notes = []
    fan = chamber_fan(datum, refine=cfg.refine)
    support = fan.support
    functionals = cell_functionals(datum, fan)
    order = {v: OrderFunction(datum, v, support) for v in datum.valuations}

    def interior_point(cell):
        """``12 p`` for a random point ``p = sum w_i r_i`` of the cell, with
        weights ``w_i = a/b``, ``b <= 4``: an integer vector.  The order
        functions, the functionals and the cells are positively
        homogeneous, so every check below gives the same verdict at ``12 p``
        as at ``p``; ``point`` gives back ``p`` for the report."""
        weights = [rng.randint(1, 9) * (12 // rng.randint(1, 4)) for _ in cell.rays]
        return tuple(dot(weights, coords) for coords in zip(*cell.rays))

    def point(scaled):
        return tuple(Fraction(v, 12) for v in scaled)

    # linearity of every order function on every cell
    for valuation in datum.valuations:
        for ci, cell in enumerate(fan.cells):
            f = functionals[valuation][ci]
            for _ in range(5):
                p = interior_point(cell)
                if order[valuation].value(p) != dot(f, p):
                    failures.append(
                        f"linearity: cell {ci}, valuation {valuation}, point {point(p)}"
                    )
    notes.append(f"linearity: {len(fan.cells)} cells x {len(datum.valuations)} valuations")

    # homogeneity and subadditivity
    for _ in range(50):
        a = interior_point(support)
        b = interior_point(support)
        lam = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        # lam * a, evaluated as (lam.numerator * a) / lam.denominator
        a_scaled = tuple(lam.numerator * x for x in a)
        a_plus_b = tuple(x + y for x, y in zip(a, b))
        for valuation in datum.valuations:
            value = order[valuation].value
            oa = value(a)
            ob = value(b)
            osum = value(a_plus_b)
            oscaled = value(a_scaled) / lam.denominator
            if oscaled != lam * oa:
                failures.append(f"homogeneity: valuation {valuation}, point {point(a)}")
            if osum > oa + ob:
                failures.append(
                    f"subadditivity: valuation {valuation}, points {point(a)}, {point(b)}"
                )
    notes.append("convexity: 50 random pairs")

    # fan partition: sampled support points lie in >=1 cell, interior of <=1
    for _ in range(25):
        p = interior_point(support)
        closed = sum(1 for c in fan.cells if c.contains(p))
        strict = sum(1 for c in fan.cells if c.contains(p, strict=True))
        if closed < 1 or strict > 1:
            failures.append(
                f"partition: point {point(p)} in {closed} cells, {strict} interiors"
            )
    notes.append("partition: 25 sampled points")

    # grid additivity on the chamber fan
    grid = grid_additivity_check(datum, fan, depth=cfg.grid_depth)
    for check in grid.failures:
        point = tuple(map(Fraction, check.point))
        failures.append(f"grid additivity: exponents {check.exponents} at {point}")
    skipped = [e for e in grid.entries if e.skipped]
    notes.append(
        f"grid additivity: {len(grid.entries)} cell/valuation pairs, {len(skipped)} skipped"
    )
    truncated = {e.cell_index for e in grid.entries if e.truncated}
    if truncated:
        print(
            f"warning: [grid-truncated] {len(truncated)} of {len(fan.cells)} cells cut to "
            f"{MAX_MONOID_GENERATORS} monoid generators",
            file=sys.stderr,
        )

    lines = [f"note: {n}" for n in notes]
    lines += [f"FAIL: {f}" for f in failures]
    lines.append("result: " + ("FAIL" if failures else "PASS"))
    _write_output(cfg, "\n".join(lines) + "\n")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def cmd_oracle(cfg):
    datum, _ = _read_input(cfg)
    _validated(datum)
    if not cfg.points:
        raise ParseError("at least one --point is required")
    support = support_cone(datum)
    lines = []
    mismatch = False
    for text in cfg.points:
        x = _parse_point(text)
        for valuation in datum.valuations:
            lp = asymptotic_order(datum, valuation, x, support=support).value
            values = o_value_oracle(datum, valuation, x, range(1, cfg.k_max + 1), cfg.budget)
            hit = next((k for k, v in enumerate(values, 1) if v == lp), None)
            if any(v is not None and v < lp for v in values):
                mismatch = True
                lines.append(f"FAIL {valuation} at {text}: enumeration below LP")
            elif hit is not None:
                lines.append(f"OK {valuation} at {text}: LP {lp} = IP {lp} at k={hit}")
            else:
                lines.append(
                    f"NOT-FOUND {valuation} at {text}: LP {lp}, no matching k <= {cfg.k_max}"
                )
    _write_output(cfg, "\n".join(lines) + "\n")
    return EXIT_CHECK_FAILED if mismatch else EXIT_OK


COMMANDS = {
    "decompose": cmd_decompose,
    "walk": cmd_walk,
    "veronese": cmd_veronese,
    "check": cmd_check,
    "oracle": cmd_oracle,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mmpwalk",
        description="Exact chamber decompositions and minimal-model walks.",
    )
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--input", "-i", default="")
    parser.add_argument("--output", "-o", default="")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--k-max", type=int, default=12)
    parser.add_argument("--grid-depth", type=int, default=3)
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--example", default="")
    parser.add_argument("--h", default="", help="segment endpoint, e.g. '0,1'")
    parser.add_argument("--point", action="append", dest="points", default=[])
    parser.add_argument("--degrees", default="", help="e.g. '2,3' for veronese")
    parser.add_argument("--m-max", type=int, default=6)
    refine = parser.add_mutually_exclusive_group()
    refine.add_argument("--refine", dest="refine", action="store_true", default=True)
    refine.add_argument("--no-refine", dest="refine", action="store_false")
    return parser


_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
    if args.budget is None:
        text = os.environ.get("MMPW_BUDGET", str(DEFAULT_NODE_BUDGET))
        try:
            args.budget = int(text)
        except ValueError:
            print(f"error: MMPW_BUDGET must be an integer, got {text!r}", file=sys.stderr)
            return EXIT_PARSE
    if min(args.budget, args.k_max, args.grid_depth, args.m_max) <= 0:
        print(
            "error: --budget, --k-max, --grid-depth and --m-max must be positive",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    try:
        return COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except _ValidationFailure as exc:
        print(f"validation failed:\n{exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NonGenericSegment as exc:
        walls = ", ".join(str(list(w)) for w in exc.walls)
        print(f"error: {exc} (walls: {walls})", file=sys.stderr)
        return EXIT_NON_GENERIC
    except MmpwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
