"""Command-line surface binding the pipeline end to end.

Commands: decompose, walk, veronese, check, oracle, each with its own
argparse subparser that takes only the options its ``cmd_*`` reads
(``build_parser``).  Exit codes: 0 ok, 1 failed check, 2 parse error (a
command line that argparse rejects, too), 3 validation/data error (a
result too long to write, too), 4 budget exhausted, 5 non-generic
segment.  Every command that reads a document reads it through
``_read_input``, which returns the datum validated: the input is read as
bytes, handed to ``serialize.loads`` and checked by ``ring.validate``.
Every number printed is written by ``serialize.dumps`` in JSON and by
``serialize.rat_to_str`` in text.
"""

import argparse
import random
import sys
from dataclasses import asdict
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
    """The datum and document segment (None for an example) of ``--example``
    or ``--input``, of which argparse takes exactly one, validated: errors
    raise ``_ValidationFailure``, and each warning is printed to stderr."""
    if cfg.example is not None:
        catalog = builtin_examples()
        if cfg.example not in catalog:
            raise ParseError(
                f"unknown example {cfg.example!r}; available: {sorted(catalog)}"
            )
        datum, segment = catalog[cfg.example], None
    else:
        if cfg.input == "-":
            # a text stream without a byte buffer, such as an io.StringIO, is read as it is
            data = getattr(sys.stdin, "buffer", sys.stdin).read()
        else:
            try:
                with open(cfg.input, "rb") as fh:
                    data = fh.read()
            except OSError as exc:
                raise ParseError(f"cannot read input {cfg.input!r}: {exc.strerror}") from None
        datum, segment = serialize.ring_from_json(serialize.loads(data))
    report = validate(datum)
    if not report.ok():
        lines = [f"{e.severity}: [{e.code}] {e.message}" for e in report.entries]
        raise _ValidationFailure("\n".join(lines))
    for e in report.warnings:
        print(f"warning: [{e.code}] {e.message}", file=sys.stderr)
    return datum, segment


def _write_output(cfg, text):
    if cfg.output is not None:
        try:
            with open(cfg.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ParseError(f"cannot write output {cfg.output!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


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
    if cfg.h is not None:
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
            doc["nef_classification"] = asdict(cls)
        _write_output(cfg, serialize.dumps(doc))
    return EXIT_OK


def cmd_veronese(cfg):
    try:
        degrees = [serialize.int_from_str(p) for p in cfg.degrees.split(",")]
    except ParseError:
        raise ParseError(f"bad --degrees {cfg.degrees!r}") from None
    try:
        result = veronese_degree(degrees, cfg.m_max)
    except ValueError as exc:
        raise ParseError(f"bad --degrees {cfg.degrees!r}: {exc}") from None
    if cfg.format == "text":
        scope = ("for every m" if result.certified == "proved"
                 else f"up to m = {result.verified_up_to}")
        _write_output(cfg, f"d = {serialize.rat_to_str(result.d)} ({result.certified} {scope})\n")
    else:
        _write_output(cfg, serialize.dumps(asdict(result)))
    return EXIT_OK


def _weights(rng, count):
    """``count`` draws of ``rng.randint(1, 9) * (12 // rng.randint(1, 4))``,
    read from ``rng.getrandbits`` by ``randint``'s own rule: ``randint(1,
    9)`` takes 4 bits and draws again on a value of 9 or more, ``randint(1,
    4)`` 3 bits and draws again on 4 or more.  So the weights are the same,
    and ``rng`` is left in the same state.  The rule is CPython's
    ``Random._randbelow_with_getrandbits``, not a documented guarantee:
    ``test_weights_are_the_randint_draws`` checks it on every Python that
    CI runs."""
    bits = rng.getrandbits
    weights = []
    for _ in range(count):
        a = bits(4)
        while a >= 9:
            a = bits(4)
        b = bits(3)
        while b >= 4:
            b = bits(3)
        weights.append((a + 1) * (12 // (b + 1)))
    return weights


def cmd_check(cfg):
    """Check the chamber fan of the datum against its order functions:
    linearity on 5 sampled points of each cell, homogeneity and
    subadditivity on 50 sampled pairs, the partition of the support on 25
    sampled points, and grid additivity (``grid_additivity_check``).  The
    points are drawn from one ``random.Random(--seed)``, their weights by
    ``_weights``, and every order is read by ``OrderFunction.ratio``; every
    FAIL line names its check and its point."""
    datum, _ = _read_input(cfg)
    rng = random.Random(cfg.seed)
    failures = []
    notes = []
    fan = chamber_fan(datum, refine=cfg.refine)
    support = fan.support
    functionals = cell_functionals(datum, fan)
    order = {v: order_function(datum, v) for v in datum.valuations}

    def interior_point(cell):
        """``12 p`` for a random point ``p = sum w_i r_i`` of the cell, with
        weights ``w_i = a/b``, ``b <= 4``, drawn by ``_weights``: an integer
        vector.  The order functions, the functionals and the cells are
        positively homogeneous, so every check below gives the same verdict
        at ``12 p`` as at ``p``; ``point`` writes ``p`` for the report."""
        weights = _weights(rng, len(cell.rays))
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

    # fan partition: sampled support points lie in >=1 cell, interior of <=1;
    # a cell holds p in its interior only if it holds p
    for _ in range(25):
        p = interior_point(support)
        holding = [c for c in fan.cells if c.contains(p)]
        closed = len(holding)
        strict = sum(1 for c in holding if c.contains(p, strict=True))
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
    lines = []
    mismatch = False
    # one node budget for the whole command, every point and valuation
    budget = cfg.budget
    for text in cfg.point:
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


def _int_option(text):
    """An integer option read by ``serialize.int_from_str``'s literal rule,
    as ``--degrees`` is.  argparse reports only a ValueError, TypeError or
    ArgumentTypeError raised here as a usage error (exit 2), so the rule's
    ParseError becomes an ArgumentTypeError."""
    try:
        return serialize.int_from_str(text)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_option(text):
    """An ``_int_option`` that must be positive, or a usage error."""
    value = _int_option(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}: not positive")
    return value


def build_parser():
    """One subparser per command, holding only the options its ``cmd_*``
    reads.  No parser takes an abbreviated option: ``--h`` is never read
    as ``--help``."""
    parser = argparse.ArgumentParser(
        prog="mmpwalk", allow_abbrev=False,
        description="Exact chamber decompositions and minimal-model walks.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    command = {name: subparsers.add_parser(name, allow_abbrev=False) for name in COMMANDS}
    for name, sub in command.items():
        sub.add_argument("--output", "-o")
        if name != "veronese":
            source = sub.add_mutually_exclusive_group(required=True)
            source.add_argument("--input", "-i")
            source.add_argument("--example")
        if name in ("decompose", "walk", "veronese"):
            sub.add_argument("--format", choices=["json", "text"], default="json")
        if name in ("decompose", "walk", "check"):
            refine = sub.add_mutually_exclusive_group()
            refine.add_argument("--refine", dest="refine", action="store_true", default=True)
            refine.add_argument("--no-refine", dest="refine", action="store_false")
    command["walk"].add_argument("--h", help="segment endpoint, e.g. '0,1'")
    command["veronese"].add_argument("--degrees", required=True, help="e.g. '2,3'")
    command["veronese"].add_argument("--m-max", type=_positive_option, default=6)
    command["check"].add_argument("--seed", type=_int_option, default=0)
    command["check"].add_argument("--grid-depth", type=_positive_option, default=3)
    command["oracle"].add_argument("--point", action="append", required=True)
    command["oracle"].add_argument("--k-max", type=_positive_option, default=12)
    command["oracle"].add_argument("--budget", type=_positive_option, default=DEFAULT_NODE_BUDGET,
                                   help="enumeration nodes of the whole command")
    return parser


_PARSER = build_parser()


def main(argv=None):
    args = _PARSER.parse_args(argv)
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
