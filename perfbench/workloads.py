"""The benchmark's four workloads.

A workload builds its inputs from the benchmark seed in ``setup`` (the timed
set-up, which calls ``tick`` after each unit of its work so that it can be
timed in pieces) and then yields its operations in chunks from ``chunks``; chunk
generation is client work and is not timed.  An operation is a
zero-argument callable into mmpwalk's public entry points (``cli.main`` or
the library functions), looked up through the module at call time so the
tracer's wrappers see it.  It returns a string, which the correctness gate
digests and ``verify`` checks against exact invariants, outside the timed
region.  The same seed gives the same chunks, operation for operation.

A run is ``ROUND_OPS``-operation rounds of the stream; ``ROUND_S`` is the
scaled operation time of one round on the 2-vCPU Xeon VM the benchmark was
set on, and fixes how many rounds a run of ``--seconds`` holds
(``run.run_count``).

Every instance comes from ``random_instance`` with the acceptance corpus's
spec distribution (``common.acceptance_spec``): instance seed ``s`` has
``r = (1, 1, 2, 2, 3)[s % 5]``, so drawing seeds in the residue pattern
0, 1, 2, 3, 4 keeps the corpus's 2:2:1 mix of r in every five instances.
"""

import contextlib
import hashlib
import io
import json
import os
import itertools
import random
import sys
from fractions import Fraction
from math import lcm

from mmpwalk import cli, oracle, orders, ring, serialize, veronese
from mmpwalk.ring import RingDatum

from common import acceptance_spec

HERE = os.path.dirname(os.path.abspath(__file__))


class Op:
    """One operation: ``fn(*args)`` returns the output string.

    ``args`` is exactly what is sent to the program; ``meta`` is what the
    checks and the census need to know about it.
    """

    __slots__ = ("kind", "fn", "args", "meta")

    def __init__(self, kind, fn, args, meta):
        self.kind = kind
        self.fn = fn
        self.args = args
        self.meta = meta


def _no_tick():
    pass


def _cli(argv, stdin_text):
    """One in-process ``cli.main`` call; returns ``"<exit code>\\n<stdout>"``."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return f"{code}\n{out.getvalue()}"


def _changed(seen, key, output):
    """None for a new input; for a repeated one, whether its output changed."""
    value = hashlib.sha256(output.encode("utf-8")).digest()
    if key not in seen:
        seen[key] = value
        return None
    return seen[key] != value


def _split_cli(output):
    code, _, stdout = output.partition("\n")
    return int(code), stdout


def _positive_combination(rng, rays):
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in rays]
    point = tuple(sum(w * x for w, x in zip(weights, coords)) for coords in zip(*rays))
    return weights, point


def _order_values(datum, valuation, points, support):
    return " ".join(str(orders.asymptotic_order(datum, valuation, p, support=support).value)
                    for p in points)


def _stabilization(datum, valuation, point, support, k_max):
    return str(orders.stabilization_multiple(datum, valuation, point, k_max, support=support))


def _veronese(degrees, m_max):
    result = veronese.veronese_degree(degrees, m_max)
    return f"{result.d} {result.verified_up_to}"


def _r_shares(rs):
    return {f"census.r{r}_share": sum(1 for x in rs if x == r) / len(rs) for r in (1, 2, 3)}


def load_tables():
    with open(os.path.join(HERE, "strata.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bit_reversed(n):
    """0..n-1 in bit-reversed order: every prefix is spread evenly over the
    range."""
    width = max((n - 1).bit_length(), 1)
    return sorted(range(n), key=lambda i: int(format(i, f"0{width}b")[::-1], 2))


def _strata(rows, count):
    """Split rows, sorted by cost, into ``count`` strata of (nearly) equal size."""
    bounds = [len(rows) * i // count for i in range(count + 1)]
    return [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _stratified(rng, strata):
    """One round: a seeded pick from each stratum, strata in bit-reversed order."""
    return [rng.choice(strata[i]) for i in _bit_reversed(len(strata))]


class Decompose:
    """``decompose`` then ``walk --h <interior point>`` for each document.

    One op is one ``cli.main`` call.  Documents come in rounds of 80: 32
    with r = 1, 32 with r = 2 and 16 with r = 3 (the corpus's 2:2:1 mix),
    interleaved in the corpus's r pattern.  Within each r, a round takes one
    seeded document from each stratum of the candidates sorted by chamber
    fan size (``strata.json``), so every round holds the same spread of fan
    sizes; the strata are visited in bit-reversed order, so a traced run,
    which stops inside a round, still sees small and large fans alike.  A
    timed run is whole rounds: a run of 59 documents left out the top
    strata, and its tail (the 11th slowest op) fell on a seeded draw from
    the strata below them; ten seeds spread it by 0.15 of its median.
    Set-up generates all documents.
    """

    name = "decompose"
    ROUND_OPS = 160  # 80 documents
    ROUND_S = 27.0
    TRACE_OPS = 80
    ROUNDS = 5
    STRATA = {1: 32, 2: 32, 3: 16}
    REFERENCE_CHUNKS = 400

    def __init__(self, seed):
        self.seed = seed
        self._seen = {}  # (kind, document) -> digest of the first output

    def setup(self, tick=_no_tick):
        cells = {int(s): c for s, c in load_tables()["cells"].items()}
        strata = {
            r: _strata(sorted((c, s) for s, c in cells.items() if (1, 1, 2, 2, 3)[s % 5] == r),
                       count)
            for r, count in self.STRATA.items()
        }
        rng = random.Random(f"decompose/{self.seed}")
        self.docs = []
        for _ in range(self.ROUNDS):
            picks = {r: iter(_stratified(rng, strata[r])) for r in strata}
            for i in range(sum(self.STRATA.values())):
                _, instance_seed = next(picks[(1, 1, 2, 2, 3)[i % 5]])
                datum = oracle.random_instance(acceptance_spec(instance_seed))
                h = tuple(Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
                          for _ in range(datum.grading_dim))
                self.docs.append({
                    "seed": instance_seed,
                    "r": datum.r,
                    "cells": cells[instance_seed],
                    "datum": datum,
                    "text": serialize.dumps(serialize.ring_to_json(datum)),
                    "h": ",".join(str(v) for v in h),
                })
                tick()

    def chunks(self):
        i = 0
        while True:
            doc = self.docs[i % len(self.docs)]
            text = doc["text"]
            yield [
                Op("decompose", _cli, (["decompose", "--input", "-"], text), doc),
                Op("walk", _cli, (["walk", "--input", "-", "--h", doc["h"]], text), doc),
            ]
            i += 1

    def verify(self, ops, outputs):
        failed = {}
        for i, (op, output) in enumerate(zip(ops, outputs)):
            if output is None:
                continue  # the op raised; already counted as failed
            changed = _changed(self._seen, (op.kind, op.meta["seed"], op.meta["h"]), output)
            if changed is not None:
                if changed:
                    failed[i] = "output differs from an earlier run of the same input"
                continue
            code, stdout = _split_cli(output)
            if code != 0:
                failed[i] = f"{op.kind} exited with {code}"
                continue
            check = self._check_fan if op.kind == "decompose" else self._check_walk
            problem = check(op.meta, json.loads(stdout))
            if problem:
                failed[i] = problem
        return failed

    @staticmethod
    def _check_fan(doc, fan):
        datum = doc["datum"]
        if len(fan["cells"]) != doc["cells"]:
            return f"{len(fan['cells'])} cells, strata table says {doc['cells']}"
        support = ring.support_cone(datum)
        for valuation in datum.valuations:
            for cell, functional in zip(fan["cells"], fan["functionals"][valuation]):
                point = tuple(sum(col) for col in zip(*cell["rays"]))
                lp = orders.asymptotic_order(datum, valuation, point, support=support).value
                value = sum(Fraction(f) * x for f, x in zip(functional, point))
                if value != lp:
                    return f"functional {functional} gives {value}, LP {lp} at {point}"
        return None

    @staticmethod
    def _check_walk(doc, walk):
        intervals = [(Fraction(lo), Fraction(hi)) for lo, hi in walk["intervals"]]
        if intervals[0][0] != 0 or intervals[-1][1] != 1:
            return f"intervals {walk['intervals']} do not span [0, 1]"
        if any(lo >= hi for lo, hi in intervals):
            return f"empty interval in {walk['intervals']}"
        if any(a[1] != b[0] for a, b in zip(intervals, intervals[1:])):
            return f"intervals {walk['intervals']} do not partition [0, 1]"
        if len(walk["steps"]) != len(intervals) - 1:
            return f"{len(walk['steps'])} steps for {len(intervals)} chambers"
        return None

    def census(self, ops):
        docs = [op.meta for op in ops if op.kind == "decompose"]
        return _r_shares([d["r"] for d in docs])


class Orders:
    """``asymptotic_order`` queries against prebuilt chamber fans.

    Set-up builds 40 instances and their chamber fans: for each residue,
    one seeded instance from each eighth of the candidates sorted by
    chamber fan size (``strata.json``), so the fans' build cost (set-up)
    and the heaviest keys (the tail) do not hinge on the draw: over five
    seeds, 20 instances drawn from quarters spread set-up by 0.21 and the
    tail by 0.11 of their medians, 40 from eighths by 0.09 and 0.07.  One
    op evaluates the order function of one (datum, valuation) key at 64
    points, one ``asymptotic_order`` call per point, in four blocks: a run
    of 8 points inside one chamber (where an LP basis cache would hit),
    then two homogeneity/subadditivity quadruples ``a, b, a+b, λa``
    scattered over the support (where it would miss).  The stream
    interleaves the instances and their valuations.

    An op is a group of calls, not one call, because a single call takes
    about 0.5 ms, and on a shared host a burst of contention for the core
    lasts about as long.  The slowest ops of a run are the ones such a
    burst met, not the heaviest inputs: four runs of one seed, with 16
    calls per op (11 ms), had different ops in their top 14 and tails from
    15.8 to 18.2 ms, and ten seeds spread the tail by 0.04 in one set of
    runs and 0.11 in another.  Summing the same runs' ops four by four
    narrowed their tails to 12.4-13.2 ms.  A group of 64 calls (about
    45 ms) averages the bursts out.
    """

    name = "orders"
    ROUND_OPS = 1
    ROUND_S = 0.044
    TRACE_OPS = 256
    INSTANCES = 40
    BLOCKS = 4
    RUN = 8
    QUADRUPLES = 2
    GROUPS_PER_CHUNK = 2
    REFERENCE_CHUNKS = 500

    def __init__(self, seed):
        self.seed = seed
        self._ray_values = {}  # (instance, valuation, cell) -> order at each ray

    def setup(self, tick=_no_tick):
        cells = load_tables()["cells"]
        rng = random.Random(f"orders/{self.seed}")
        picks = [
            _stratified(rng, _strata(sorted((c, int(s)) for s, c in cells.items()
                                            if int(s) % 5 == residue), self.INSTANCES // 5))
            for residue in range(5)
        ]
        self.data = []
        for i in range(self.INSTANCES):
            _, instance_seed = picks[i % 5][i // 5]
            datum = oracle.random_instance(acceptance_spec(instance_seed))
            support = ring.support_cone(datum)
            fan = orders.chamber_fan(datum, support=support)
            self.data.append((datum, support, fan))
            tick()

    def chunks(self):
        rng = random.Random(f"orders-queries/{self.seed}")
        group = 0
        while True:
            chunk = []
            for _ in range(self.GROUPS_PER_CHUNK):
                index = group % self.INSTANCES
                datum, support, fan = self.data[index]
                valuation = datum.valuations[(group // self.INSTANCES) % len(datum.valuations)]
                points, blocks = [], []
                for _ in range(self.BLOCKS):
                    cell = rng.randrange(len(fan.cells))
                    weights, lams = [], []
                    for _ in range(self.RUN):
                        w, p = _positive_combination(rng, fan.cells[cell].rays)
                        weights.append(w)
                        points.append(p)
                    for _ in range(self.QUADRUPLES):
                        _, a = _positive_combination(rng, support.rays)
                        _, b = _positive_combination(rng, support.rays)
                        lam = Fraction(rng.randint(1, 12), rng.randint(1, 12))
                        points += [a, b, tuple(x + y for x, y in zip(a, b)),
                                   tuple(lam * x for x in a)]
                        lams.append(lam)
                    blocks.append((cell, weights, lams))
                chunk.append(Op("orders", _order_values, (datum, valuation, points, support),
                                (index, valuation, blocks)))
                group += 1
            yield chunk

    def verify(self, ops, outputs):
        failed = {}
        for i, (op, output) in enumerate(zip(ops, outputs)):
            if output is None:
                continue
            problem = self._check_group(op.meta, [Fraction(v) for v in output.split()])
            if problem:
                failed[i] = problem
        return failed

    def _check_group(self, meta, values):
        index, valuation, blocks = meta
        size = self.RUN + 4 * self.QUADRUPLES
        if len(values) != size * len(blocks):
            return f"{len(values)} values for {size * len(blocks)} points"
        for b, (cell, weights, lams) in enumerate(blocks):
            problem = self._check_block(index, valuation, cell, weights, lams,
                                        values[b * size:(b + 1) * size])
            if problem:
                return problem
        return None

    def _check_block(self, index, valuation, cell, weights, lams, values):
        """In-chamber values are the same positive combination of the values
        at the chamber's rays (linearity); each quadruple is homogeneous and
        subadditive."""
        key = (index, valuation, cell)
        if key not in self._ray_values:
            datum, support, fan = self.data[index]
            self._ray_values[key] = [
                orders.asymptotic_order(datum, valuation, ray, support=support).value
                for ray in fan.cells[cell].rays
            ]
        for w, value in zip(weights, values):
            linear = sum(x * v for x, v in zip(w, self._ray_values[key]))
            if value != linear:
                return f"not linear on chamber {cell}: {value} != {linear}"
        for q, lam in enumerate(lams):
            start = self.RUN + 4 * q
            oa, ob, osum, oscaled = values[start:start + 4]
            if oscaled != lam * oa:
                return f"homogeneity: {oscaled} != {lam} * {oa}"
            if osum > oa + ob:
                return f"subadditivity: {osum} > {oa} + {ob}"
        return None

    def census(self, ops):
        keys = {(op.meta[0], op.meta[1]) for op in ops}
        shares = _r_shares([self.data[op.meta[0]][0].r for op in ops])
        blocks = [block for op in ops for block in op.meta[2]]
        in_chamber = sum(len(weights) for _, weights, _ in blocks)
        shares["census.in_chamber_share"] = (
            in_chamber / (in_chamber + sum(4 * len(lams) for _, _, lams in blocks)))
        shares["census.keys"] = len(keys)
        return shares


def _has_unit_cover(datum):
    degrees = {tuple(g.multidegree) for g in datum.generators}
    n = datum.grading_dim
    return all(tuple(int(i == j) for i in range(n)) in degrees for j in range(n))


def levels_forms(datum):
    """The two forms of a levels instance: as generated, with the unit
    generators (``integer_order`` takes ``_reduced_min``), and with the r+1
    unit generators dropped (``_enumerate_min``, unless some other generator
    happens to be a unit vector)."""
    unit_free = RingDatum(datum.r, datum.labels, datum.generators[datum.grading_dim:],
                          datum.valuations, datum.numerical)
    return {"kept": datum, "unit_free": unit_free}


def levels_query(datum, rng):
    """(i, j, valuation index) of a query at the sum of generators i and j."""
    count = len(datum.generators)
    return rng.randrange(count), rng.randrange(count), rng.randrange(len(datum.valuations))


class Levels:
    """Integer levels: ``stabilization_multiple`` and ``veronese_degree``.

    ``strata.json`` holds a sample of the query distribution: for each of
    the acceptance-distribution instances 1-200, in both forms of
    ``levels_forms``, 8 seeded queries at the sum of two generators, sorted
    by the enumeration nodes ``stabilization_multiple(..., k_max=12)``
    visited when the table was made (time tracked nodes with correlation
    0.98-0.99).  The nodes are only a sort key, measured once and frozen
    with the table; the traced run reports the nodes the program visits
    now.  The unit-free form is heavy-tailed: its 16 largest queries took
    69% of its nodes.

    The stream runs in rounds.  A round runs every unit-free query of
    instances 1-100 once (800 queries, bit-reversed order of cost), each
    followed by a kept-form query: the kept table is sorted by nodes and
    cut into 256 strata, and a round takes one seeded query from every
    stratum in turn, in bit-reversed order, so it holds cheap and
    expensive queries in their true proportion.  After every seventh query
    comes a ``veronese_degree`` with m_max = 4, cycling through a seeded
    order of all 20 sets of 2-3 distinct degrees from 2..6.  A run is a
    whole number of rounds (two at ``--seconds 15``), so it repeats every
    unit-free query equally often, and the tail (the 11th slowest op, about
    p99.7) is the same query in every run, and the runs of two versions of
    the program hold the same queries: cut off at an arbitrary point, a run repeated a seed-dependent
    part of the heaviest queries, and the tail of three seeds spread from
    141 to 214 ms.  Set-up builds the 300 data and their support cones.
    """

    name = "levels"
    INSTANCES = range(1, 201)
    UNIT_FREE_INSTANCES = 100  # instance seeds 1..100
    QUERIES = 8
    KEPT_STRATA = 256
    VERONESE_EVERY = 7  # stabilization ops
    ROUND_S = 9.2
    K_MAX = 12
    M_MAX = 4
    CHUNK = 32
    REFERENCE_CHUNKS = 300
    DEGREE_SETS = [list(c) for size in (2, 3) for c in itertools.combinations(range(2, 7), size)]

    def __init__(self, seed):
        self.seed = seed
        self._seen = {}  # (kind, query) -> digest of the first output

    def setup(self, tick=_no_tick):
        tables = load_tables()["levels"]
        self.kept = tables["kept"]
        self.unit_free = [row for row in tables["unit_free"]
                          if row[0] <= self.UNIT_FREE_INSTANCES]
        # a round: each unit-free query, a kept one after each, and the Veronese ops
        stabilizations = 2 * len(self.unit_free)
        self.ROUND_OPS = self.TRACE_OPS = (stabilizations
                                           + stabilizations // self.VERONESE_EVERY)
        self.data = {}
        for instance_seed in self.INSTANCES:
            datum = oracle.random_instance(acceptance_spec(instance_seed))
            for form, data in levels_forms(datum).items():
                if form == "kept" or instance_seed <= self.UNIT_FREE_INSTANCES:
                    self.data[instance_seed, form] = (data, ring.support_cone(data))
            tick()

    def _kept_queries(self, rng):
        strata = _strata(self.kept, self.KEPT_STRATA)
        while True:
            yield from _stratified(rng, strata)

    def _degree_sets(self, rng):
        while True:
            order = list(self.DEGREE_SETS)
            rng.shuffle(order)
            yield from order

    def chunks(self):
        rng = random.Random(f"levels-queries/{self.seed}")
        kept = self._kept_queries(rng)
        degree_sets = self._degree_sets(rng)
        unit_free = [self.unit_free[i] for i in _bit_reversed(len(self.unit_free))]
        while True:
            ops = []
            for row in unit_free:
                for form, query in (("unit_free", row), ("kept", next(kept))):
                    ops.append(self._stabilization(form, query))
                    if (len(ops) + 1) % (self.VERONESE_EVERY + 1) == 0:
                        degrees = next(degree_sets)
                        ops.append(Op("veronese", _veronese, (degrees, self.M_MAX), degrees))
            for start in range(0, len(ops), self.CHUNK):
                yield ops[start:start + self.CHUNK]

    def _stabilization(self, form, row):
        instance_seed, i, j, v, _ = row  # the last column is the sort key
        datum, support = self.data[instance_seed, form]
        gens = datum.generators
        x = tuple(a + b for a, b in zip(gens[i].multidegree, gens[j].multidegree))
        return Op("stabilization", _stabilization,
                  (datum, datum.valuations[v], x, support, self.K_MAX),
                  (instance_seed, form, datum.valuations[v], x))

    def verify(self, ops, outputs):
        failed = {}
        for i, (op, output) in enumerate(zip(ops, outputs)):
            if output is None:
                continue
            changed = _changed(self._seen, (op.kind, tuple(op.meta)), output)
            if changed is not None:
                if changed:
                    failed[i] = "output differs from an earlier run of the same input"
                continue
            check = self._check_veronese if op.kind == "veronese" else self._check_levels
            problem = check(op.meta, output)
            if problem:
                failed[i] = problem
        return failed

    def _check_veronese(self, degrees, output):
        d, verified = (int(v) for v in output.split())
        if d % lcm(*degrees) or verified != self.M_MAX:
            return f"veronese {degrees}: d = {d}, verified up to {verified}"
        return None

    def _check_levels(self, meta, output):
        """Integer levels never undercut the LP value, and the reported
        stabilization multiple reaches it."""
        instance_seed, form, valuation, x = meta
        datum, support = self.data[instance_seed, form]
        lp = orders.asymptotic_order(datum, valuation, x, support=support).value
        level1 = orders.integer_order(datum, valuation, x, 1)
        if level1 is not orders.NO_REPRESENTATION and level1 < lp:
            return f"level 1 value {level1} below LP {lp} at {x}"
        if output == "None":
            return None
        k = int(output)
        level = orders.integer_order(datum, valuation, x, k)
        if level != lp:
            return f"stabilization multiple {k}: level value {level} != LP {lp} at {x}"
        return None

    def census(self, ops):
        stab = [op for op in ops if op.kind == "stabilization"]
        forms = [self.data[op.meta[0], op.meta[1]][0] for op in stab]
        shares = _r_shares([d.r for d in forms])
        shares["census.unit_free_share"] = (
            sum(1 for d in forms if not _has_unit_cover(d)) / len(forms))
        return shares


class Check:
    """``cli.main check`` at the default ``--grid-depth 3``.

    The documents are a fixed block of nine acceptance-corpus instances,
    cycled; the benchmark seed drives each call's ``--seed``, which moves
    the linearity, convexity and partition sample points.  A ``check`` call
    costs 0.4-14 s depending on the document, so a run holds only about 18
    calls: documents drawn from the seed would make the seed-to-seed spread
    of a run's cost far wider than any bound.  For the same reason a run
    is whole rounds of two passes over the block (one round at
    ``--seconds 15``), so it never counts the slow document in one run and
    leaves it out of the next, and it always has the 11 calls that a tail
    with 10 samples beyond it needs.  With an odd number of documents, each
    run twice, the median and the tail each fall on the two calls of one
    document.  With 18 calls the tail is the 8th smallest, about p44, and
    not a tail at all; the slowest call of each document is in the info
    line (``input_key``).

    The block (instance seed: r, cells, non-simplicial, truncated) keeps
    slow, truncating and non-simplicial documents:

        2: r2, 24 cells, 5 non-simplicial, 5 truncated (the slow r = 2 one)
        8, 13: r2, 14 and 6 cells, 2 and 0 non-simplicial
        1, 10, 6: r1, 3 cells, 0-1 truncated
        44, 14: r3, 6 cells, 4 and 2 truncated (the slowest r = 3 below 10 s)
        19: r3, 2 cells

    Left out: 9 and 24 (r = 3, 10-14 s each) and 28 (r = 2, 11 s, the only
    corpus document with skipped cells), since one of them fills half a run.
    """

    name = "check"
    TRACE_OPS = 9  # one pass over BLOCK
    ROUND_OPS = 18
    ROUND_S = 37.0
    BLOCK = (2, 1, 44, 8, 10, 14, 6, 13, 19)
    REFERENCE_CHUNKS = 40

    def __init__(self, seed):
        self.seed = seed

    def setup(self, tick=_no_tick):
        self.docs = []
        for instance_seed in self.BLOCK:
            datum = oracle.random_instance(acceptance_spec(instance_seed))
            self.docs.append((instance_seed, datum.r,
                              serialize.dumps(serialize.ring_to_json(datum))))
            tick()

    def chunks(self):
        rng = random.Random(f"check/{self.seed}")
        i = 0
        while True:
            instance_seed, r, text = self.docs[i % len(self.docs)]
            argv = ["check", "--input", "-", "--seed", str(rng.randrange(2**31))]
            yield [Op("check", _cli, (argv, text), (instance_seed, r))]
            i += 1

    def verify(self, ops, outputs):
        failed = {}
        for i, output in enumerate(outputs):
            if output is None:
                continue
            code, stdout = _split_cli(output)
            if code != 0 or not stdout.endswith("result: PASS\n"):
                failed[i] = f"check exited with {code}: {stdout[-200:]!r}"
        return failed

    def grid_counts(self):
        """Per document: the grid check's skipped, truncated and non-simplicial
        cells, from the library calls that ``check`` makes."""
        counts = {}
        for instance_seed, _, text in self.docs:
            datum, _ = serialize.ring_from_json(serialize.loads(text))
            fan = orders.chamber_fan(datum)
            report = veronese.grid_additivity_check(datum, fan)
            counts[str(instance_seed)] = {
                "cells_skipped": len({e.cell_index for e in report.entries if e.skipped}),
                "cells_truncated": len({e.cell_index for e in report.entries if e.truncated}),
                "nonsimplicial_cells": sum(1 for c in fan.cells if len(c.rays) > c.dim),
            }
        return counts

    def verify_trace(self, ops, tracer, reference):
        """The traced grid counts must add up to the reference's per document."""
        expected = reference["check_grid"]
        problems = []
        for measure in ("cells_skipped", "cells_truncated", "nonsimplicial_cells"):
            want = sum(expected[str(op.meta[0])][measure] for op in ops)
            got = tracer.counts[f"veronese.grid.{measure}"]
            if got != want:
                problems.append(f"grid {measure}: traced {got}, reference {want}")
        return problems

    def census(self, ops):
        return _r_shares([op.meta[1] for op in ops])

    @staticmethod
    def input_key(op):
        return f"seed{op.meta[0]}"


WORKLOADS = {w.name: w for w in (Decompose, Orders, Levels, Check)}
