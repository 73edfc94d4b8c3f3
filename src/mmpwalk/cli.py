"""Command-line surface binding the pipeline end to end.

Commands: decompose, walk, veronese, check, oracle.  Exit codes: 0 ok,
1 failed check, 2 parse error, 3 validation/data error (a result too long
to write, too), 4 budget exhausted, 5 non-generic segment.  The input is
read as bytes and handed to ``serialize.loads``; every number printed is
written by ``serialize.dumps`` in JSON and by ``serialize.rat_to_str`` in
text.
"""

import argparse
import random
import sys
from fractions import Fraction

from . import serialize
from .errors import BudgetExceeded, MmpwalkError, NonGenericSegment, ParseError
from .oracle import _o_values, builtin_examples
from .linalg import clear_denominators, dot
from .orders import (DEFAULT_NODE_BUDGET, asymptotic_order, cell_functionals, chamber_fan,
                     order_function)
from .ring import validate
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
        # a text stream without a byte buffer, such as an io.StringIO, is read as it is
        data = getattr(sys.stdin, "buffer", sys.stdin).read()
    else:
        try:
            with open(cfg.input, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read input {cfg.input!r}: {exc.strerror}") from None
    return serialize.ring_from_json(serialize.loads(data))


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


def _vec(v):
    return "[" + ", ".join(map(serialize.rat_to_str, v)) + "]"


def _parse_point(text):
    try:
        return tuple(serialize.rat_from_str(part.strip()) for part in text.split(","))
    except ParseError:
        raise ParseError(f"bad point {text!r}; expected comma-separated rationals") from None


def cmd_decompose(cfg):
    datum, _ = _read_input(cfg)
    _validated(datum)
    fan = chamber_fan(datum, refine=cfg.refine)
    functionals = cell_functionals(datum, fan)
    if cfg.format == "text":
        lines = [f"support rays: [{', '.join(map(_vec, fan.support.rays))}]"]
        for i, cell in enumerate(fan.cells):
            lines.append(f"cell {i}: rays [{', '.join(map(_vec, cell.rays))}]")
        _write_output(cfg, "\n".join(lines) + "\n")
    else:
        _write_output(cfg, serialize.dumps(serialize.fan_to_json(fan, functionals)))
    return EXIT_OK


def _trace_text(walk, trace, cls):
    lines = [f"chambers met: {walk.length}"]
    for i, interval in enumerate(walk.intervals):
        lines.append(f"  chamber {walk.chambers[i]}: t in {_vec(interval)}")
    if cls is not None:
        lines.append(f"nef classification ({cls.mode}): indices {list(cls.indices)}")
    for s in trace.steps:
        iso = {True: " (possibly isomorphism)", False: "", None: " (classification unknown)"}
        lines.append(
            f"step at t={serialize.rat_to_str(s.t)}: chamber {s.from_chamber} -> {s.to_chamber}"
            f" wall {_vec(s.wall_point)} model {s.model_id}{iso[s.possibly_isomorphism]}"
        )
    lines.append(
        f"final: chamber {trace.final_chamber}, divisor"
        f" {_vec(trace.final_divisor)}, model {trace.final_model_id}"
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
        doc["intervals"] = [serialize.vec_to_json(interval) for interval in walk.intervals]
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
        _write_output(cfg, f"d = {serialize.rat_to_str(result.d)} ({result.certified} {scope})\n")
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
    order = {v: order_function(datum, v) for v in datum.valuations}

    def interior_point(cell):
        """``12 p`` for a random point ``p = sum w_i r_i`` of the cell, with
        weights ``w_i = a/b``, ``b <= 4``: an integer vector.  The order
        functions, the functionals and the cells are positively
        homogeneous, so every check below gives the same verdict at ``12 p``
        as at ``p``; ``point`` writes ``p`` for the report."""
        weights = [rng.randint(1, 9) * (12 // rng.randint(1, 4)) for _ in cell.rays]
        return tuple([dot(weights, coords) for coords in zip(*cell.rays)])

    def point(scaled):
        return _vec([Fraction(v, 12) for v in scaled])

    # every check below reads an order as integers ``(num, den)``, ``den >
    # 0``, and compares it cross-multiplied.  Linearity of every order
    # function on every cell, each functional as integers over one
    # denominator:
    for valuation in datum.valuations:
        ratio = order[valuation].ratio
        for ci, cell in enumerate(fan.cells):
            fn, fd = clear_denominators(functionals[valuation][ci])
            for _ in range(5):
                p = interior_point(cell)
                num, den = ratio(p)
                if num * fd != dot(fn, p) * den:
                    failures.append(
                        f"linearity: cell {ci}, valuation {valuation}, point {point(p)}"
                    )
    notes.append(f"linearity: {len(fan.cells)} cells x {len(datum.valuations)} valuations")

    # homogeneity and subadditivity
    for _ in range(50):
        a = interior_point(support)
        b = interior_point(support)
        lam = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        # the order at lam * a is the order at lam.numerator * a over
        # lam.denominator, so homogeneity there holds in integers
        a_scaled = tuple([lam.numerator * x for x in a])
        a_plus_b = tuple([x + y for x, y in zip(a, b)])
        for valuation in datum.valuations:
            ratio = order[valuation].ratio
            na, da = ratio(a)
            nb, db = ratio(b)
            ns, ds = ratio(a_plus_b)
            nl, dl = ratio(a_scaled)
            if nl * da != lam.numerator * na * dl:
                failures.append(f"homogeneity: valuation {valuation}, point {point(a)}")
            if ns * da * db > (na * db + nb * da) * ds:
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
        failures.append(
            f"grid additivity: exponents {check.exponents} at {_vec(check.point)}"
        )
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
    lines = []
    mismatch = False
    # one node budget for the whole command, every point and valuation
    budget = cfg.budget
    for text in cfg.points:
        x = _parse_point(text)
        for valuation in datum.valuations:
            lp = asymptotic_order(datum, valuation, x).value
            values, budget = _o_values(datum, valuation, x, range(1, cfg.k_max + 1), budget)
            hit = next((k for k, v in enumerate(values, 1) if v == lp), None)
            if any(v is not None and v < lp for v in values):
                mismatch = True
                lines.append(f"FAIL {valuation} at {text}: enumeration below LP")
            elif hit is not None:
                shown = serialize.rat_to_str(lp)
                lines.append(f"OK {valuation} at {text}: LP {shown} = IP {shown} at k={hit}")
            else:
                lines.append(
                    f"NOT-FOUND {valuation} at {text}: LP {serialize.rat_to_str(lp)},"
                    f" no matching k <= {cfg.k_max}"
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
    parser.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
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
        walls = ", ".join(map(_vec, exc.walls))
        print(f"error: {exc} (walls: {walls})", file=sys.stderr)
        return EXIT_NON_GENERIC
    except MmpwalkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
