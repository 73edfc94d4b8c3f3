"""End-to-end acceptance suite.

Eight numbered criteria, each printing one PASS/FAIL line (run with
``pytest -s`` to see them).  Criteria 1, 2, 3, 5 and 6 share one corpus of
50 seeded instances; everything is exact rational arithmetic, so every
comparison below is equality or a strict bound, never a tolerance.
"""

import json
import time
from fractions import Fraction
from math import lcm
from random import Random

import pytest

from mmpwalk import (
    NO_REPRESENTATION,
    NonGenericSegment,
    asymptotic_order,
    builtin_examples,
    cell_functionals,
    chamber_fan,
    integer_order,
    make_segment,
    order_chambers,
    random_instance,
    veronese_degree,
)
from mmpwalk.cli import main as cli_main
from mmpwalk.linalg import dot, mat_apply, sign_canonical
from mmpwalk.veronese import MAX_MONOID_GENERATORS, grid_additivity_check
from mmpwalk.ring import support_cone, validate

from corpus import corpus_spec


def _report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, detail


def _instance_specs():
    # 50 seeds; r <= 3, at most 8 generators, 4 valuations, coordinates <= 10
    return [corpus_spec(seed) for seed in range(1, 51)]


@pytest.fixture(scope="module")
def corpus():
    start = time.monotonic()
    records = []
    for spec in _instance_specs():
        datum = random_instance(spec)
        assert validate(datum).ok()
        support = support_cone(datum)
        fan = chamber_fan(datum, support=support)
        functionals = cell_functionals(datum, fan, support=support)
        records.append((datum, support, fan, functionals))
    build_time = time.monotonic() - start
    return records, build_time


def _interior_point(rng, cell):
    weights = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in cell.rays]
    return tuple(
        sum(w * Fraction(x) for w, x in zip(weights, coords))
        for coords in zip(*cell.rays)
    )


def test_criterion_1_chamber_linearity(corpus):
    records, build_time = corpus
    start = time.monotonic()
    rng = Random(11)
    checked = 0
    bad = []
    for datum, support, fan, functionals in records:
        for valuation in datum.valuations:
            for ci, cell in enumerate(fan.cells):
                functional = functionals[valuation][ci]
                for _ in range(10):
                    p = _interior_point(rng, cell)
                    got = asymptotic_order(datum, valuation, p, support=support).value
                    checked += 1
                    if got != dot(functional, p):
                        bad.append((valuation, ci, p))
    elapsed = build_time + (time.monotonic() - start)
    ok = not bad and elapsed < 300
    _report(
        1,
        ok,
        f"{checked} linearity checks over 50 instances, {len(bad)} mismatches, "
        f"{elapsed:.1f}s (< 300s)",
    )


def test_criterion_2_lp_ip_agreement(corpus):
    records, _ = corpus
    rng = Random(7)
    total = 0
    hits = 0
    violations = []
    uncertified = []
    for datum, support, fan, functionals in records:
        gens = [g.multidegree for g in datum.generators]
        for t in range(10):
            i, j = rng.randrange(len(gens)), rng.randrange(len(gens))
            x = tuple(a + b for a, b in zip(gens[i], gens[j]))
            valuation = datum.valuations[t % len(datum.valuations)]
            lp = asymptotic_order(datum, valuation, x, support=support)
            total += 1
            matched = False
            for k in range(1, 13):
                ip = integer_order(datum, valuation, x, k)
                if ip is NO_REPRESENTATION:
                    continue
                if ip < lp.value:
                    violations.append((valuation, x, k))
                if ip == lp.value:
                    matched = True
                    break
            if matched:
                hits += 1
            elif all(w.denominator == 1 for w in lp.witness):
                # an integral optimal witness would have matched at k=1
                uncertified.append((valuation, x))
    rate = hits / total
    ok = not violations and not uncertified and rate >= 0.95
    _report(
        2,
        ok,
        f"equality at k<=12 for {hits}/{total} points ({rate:.1%} >= 95%), "
        f"{len(violations)} lower-bound violations, remaining points carry a "
        f"fractional-vertex certificate",
    )


def test_criterion_3_convexity_suite(corpus):
    records, _ = corpus
    rng = Random(23)
    pairs = 0
    bad = []
    per_instance = 10_000 // len(records)
    for datum, support, fan, _ in records:
        for t in range(per_instance):
            a = _interior_point(rng, support)
            b = _interior_point(rng, support)
            lam = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            valuation = datum.valuations[t % len(datum.valuations)]
            oa = asymptotic_order(datum, valuation, a, support=support).value
            ob = asymptotic_order(datum, valuation, b, support=support).value
            scaled = asymptotic_order(
                datum, valuation, tuple(lam * x for x in a), support=support
            ).value
            osum = asymptotic_order(
                datum, valuation, tuple(x + y for x, y in zip(a, b)), support=support
            ).value
            pairs += 1
            if scaled != lam * oa:
                bad.append(("homogeneity", valuation, a))
            if osum > oa + ob:
                bad.append(("subadditivity", valuation, a, b))
    ok = pairs >= 10_000 and not bad
    _report(3, ok, f"homogeneity and subadditivity exact on {pairs} pairs, {len(bad)} failures")


def test_criterion_4_blowup_worked_example(capsys):
    argv = ["walk", "--example", "blowup-P2", "--h", "0,1"]
    assert cli_main(list(argv)) == 0
    first = capsys.readouterr().out
    assert cli_main(list(argv)) == 0
    second = capsys.readouterr().out
    doc = json.loads(first)
    problems = []
    if first != second:
        problems.append("output not byte-stable")
    if doc["chambers"] != [0, 1]:
        problems.append(f"chambers {doc['chambers']}")
    if doc["intervals"] != [["0", "1/2"], ["1/2", "1"]]:
        problems.append(f"intervals {doc['intervals']}")
    if doc["nef_classification"]["indices"][0] != 1:
        problems.append(f"k_0 != 1: indices {doc['nef_classification']['indices']}")
    if len(doc["steps"]) != 1 or doc["steps"][0]["t"] != "1/2":
        problems.append(f"steps {doc['steps']}")
    if doc["final"]["divisor"] != ["2", "1"]:
        problems.append(f"final divisor {doc['final']['divisor']}")
    datum = builtin_examples()["blowup-P2"]
    fan = chamber_fan(datum)
    final_cell = fan.cells[doc["final"]["chamber"]]
    # the final chamber lives on the model reached by the step; its rays
    # must map into the nef cone supplied for that model
    final_model = datum.pushforwards[0]
    assert final_model.model_id == doc["final"]["model_id"]
    for ray in final_cell.rays:
        if not final_model.nef.contains(mat_apply(final_model.matrix, ray)):
            problems.append(f"ray {ray} maps outside the supplied nef cone")
    _report(
        4,
        not problems,
        "2 chambers, wall t=1/2, k_0=1, 1 step, final divisor (2,1), "
        "final rays nef, byte-stable" if not problems else "; ".join(problems),
    )


def _shared_wall_keys(cell_a, cell_b, point):
    keys_a = {sign_canonical(f) for f in cell_a.facets if dot(f, point) == 0}
    keys_b = {sign_canonical(f) for f in cell_b.facets if dot(f, point) == 0}
    return keys_a & keys_b


def test_criterion_5_walk_invariants(corpus):
    records, _ = corpus
    rng = Random(31)
    walks = 0
    non_generic = 0
    problems = []
    for datum, support, fan, _ in records:
        for _ in range(3):
            h = _interior_point(rng, support)
            seg = make_segment(h, grading_dim=datum.grading_dim)
            try:
                walk = order_chambers(fan, seg)
            except NonGenericSegment as exc:
                non_generic += 1
                if not exc.walls:
                    problems.append("non-generic segment reported without walls")
                # perturbation probe: a small interior shift restores genericity
                recovered = False
                for attempt in range(5):
                    shift = _interior_point(rng, support)
                    eps = Fraction(1, 1000 * (attempt + 1))
                    h2 = tuple(a + eps * b for a, b in zip(h, shift))
                    try:
                        order_chambers(fan, make_segment(h2, grading_dim=datum.grading_dim))
                        recovered = True
                        break
                    except NonGenericSegment:
                        continue
                if not recovered:
                    problems.append(f"perturbation probe failed for h={h}")
                continue
            walks += 1
            if sum(hi - lo for lo, hi in walk.intervals) != 1:
                problems.append("interval lengths do not sum to 1")
            direction = tuple(k - a for k, a in zip(seg.kappa, seg.h))
            for idx, wall in enumerate(walk.crossings):
                shared = _shared_wall_keys(
                    walk.cells[idx], walk.cells[idx + 1], wall
                )
                if not shared:
                    problems.append(f"crossing {wall} not on a shared facet")
                    continue
                # genericity: the segment is transversal to every crossed wall
                if all(dot(key, direction) == 0 for key in shared):
                    problems.append(f"accepted walk crosses wall {wall} tangentially")
    # deliberate non-generic probe: a segment running inside a wall
    blowup_fan = chamber_fan(builtin_examples()["blowup-P2"])
    try:
        order_chambers(blowup_fan, make_segment((1, 1), grading_dim=2))
        problems.append("segment inside a wall was accepted")
    except NonGenericSegment as exc:
        if not exc.walls:
            problems.append("wall-hugging segment reported without walls")
    order_chambers(blowup_fan, make_segment((1, Fraction(9, 10)), grading_dim=2))
    _report(
        5,
        not problems,
        f"{walks} generic walks verified, {non_generic} non-generic segments "
        f"cross-checked by perturbation" if not problems else "; ".join(problems),
    )


def test_criterion_6_grid_additivity(corpus):
    records, _ = corpus
    failures = 0
    skipped = 0
    truncated = 0
    cells = 0
    for datum, support, fan, _ in records:
        report = grid_additivity_check(datum, fan, depth=3)
        failures += len(report.failures)
        skipped += sum(1 for e in report.entries if e.skipped)
        truncated += len({e.cell_index for e in report.entries if e.truncated})
        cells += len(fan.cells)
    _report(
        6,
        failures == 0,
        f"{cells} cells over 50 fans, {failures} additivity failures, "
        f"{skipped} cell/valuation pairs skipped on budget, "
        f"{truncated} cells cut to {MAX_MONOID_GENERATORS} monoid generators",
    )


def _oracle_representations(degrees, total):
    # independent of the package: plain iterative enumeration
    reps = [()]
    for i, d in enumerate(degrees):
        grown = []
        for prefix in reps:
            used = sum(p * degrees[j] for j, p in enumerate(prefix))
            for a in range((total - used) // d + 1):
                grown.append(prefix + (a,))
        reps = grown
    return [
        rep
        for rep in reps
        if sum(p * d for p, d in zip(rep, degrees)) == total
    ]


def _oracle_veronese(degrees, m_max, max_multiples=16):
    # independent route: m-fold Minkowski sums of the degree-d representations
    base = lcm(*degrees)
    zero = (0,) * len(degrees)
    for mult in range(1, max_multiples + 1):
        d = mult * base
        reps_d = set(_oracle_representations(degrees, d))
        good = True
        for m in range(1, m_max + 1):
            reachable = {zero}
            for _ in range(m):
                reachable = {
                    tuple(a + b for a, b in zip(s, t))
                    for s in reachable
                    for t in reps_d
                }
            if not set(_oracle_representations(degrees, d * m)) <= reachable:
                good = False
                break
        if good:
            return d
    raise AssertionError("oracle found no splitting degree")


def test_criterion_7_veronese_degrees():
    problems = []
    if veronese_degree([1], 5).d != 1:
        problems.append("degree {1}")
    if veronese_degree([2], 5).d != 2:
        problems.append("degree {2}")
    package = veronese_degree([2, 3], 6).d
    oracle = _oracle_veronese([2, 3], 6)
    if package != oracle:
        problems.append(f"degrees {{2,3}}: package {package}, oracle {oracle}")
    _report(
        7,
        not problems,
        f"d({{1}})=1, d({{2}})=2, d({{2,3}})={package} matches the "
        f"independent splitting oracle" if not problems else "; ".join(problems),
    )


def test_criterion_8_out_of_scope_note():
    # nothing to compute: effective generation-degree bounds, synthesis of
    # ring generators from a variety, and statements about actual varieties
    # beyond the hand-built example are outside what this engine can verify
    _report(
        8,
        True,
        "not reproducible by design: generation-degree bounds, generator "
        "synthesis, geometric claims beyond the built-in example",
    )
