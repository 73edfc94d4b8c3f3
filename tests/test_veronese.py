"""Degree-semigroup computations."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mmpwalk import (
    asymptotic_order,
    builtin_examples,
    chamber_fan,
    linalg,
    random_instance,
    support_cone,
    veronese,
    veronese_degree,
)
from mmpwalk.cones import cone_from_rays, make_fan
from mmpwalk.errors import BudgetExceeded
from mmpwalk.linalg import rank, solve_exact
from mmpwalk.orders import OrderFunction, order_function
from mmpwalk.veronese import (
    DEFAULT_LATTICE_BUDGET,
    DEFAULT_SPLIT_BUDGET,
    MAX_MONOID_GENERATORS,
    _grid_table,
    _parallelepiped_points,
    _representations,
    grid_additivity_check,
    monoid_generators,
)

from corpus import corpus_spec


def test_single_degree_one():
    result = veronese_degree([1], 5)
    assert result.d == 1
    assert result.verified_up_to == 5
    assert result.certified == "proved"


def test_single_degree_two():
    assert veronese_degree([2], 5).d == 2


def test_two_and_three():
    assert veronese_degree([2, 3], 6).d == 6


def test_coprime_pair_with_gaps():
    # numerical semigroup <3, 5>: lcm 15 works at the first multiple
    result = veronese_degree([3, 5], 4)
    assert result.d % 15 == 0


def test_rejects_bad_degrees():
    with pytest.raises(ValueError):
        veronese_degree([], 3)
    with pytest.raises(ValueError):
        veronese_degree([0, 2], 3)


@pytest.mark.parametrize("m_max, error", [
    (True, TypeError), (2.5, TypeError), (2.0, TypeError), (0, ValueError), (-1, ValueError),
])
def test_rejects_bad_m_max(m_max, error):
    # each of these once came back as verified_up_to
    with pytest.raises(error):
        veronese_degree([2, 3], m_max)


@pytest.mark.parametrize("degrees", [[True, 2], [2, 3.0], [Fraction(2), 3]])
def test_rejects_non_int_degrees(degrees):
    with pytest.raises(TypeError):
        veronese_degree(degrees, 3)


def test_split_budget_exhaustion(monkeypatch):
    # four degrees: c = 1 is searched before the proved c = 2
    monkeypatch.setattr(veronese, "DEFAULT_SPLIT_BUDGET", 1)
    with pytest.raises(BudgetExceeded):
        veronese_degree([2, 3, 4, 6], 6)


def test_representations_enumeration():
    # 2a + 3b = 6: (3,0) and (0,2)
    assert list(_representations([2, 3], 6)) == [(0, 2), (3, 0)]
    assert list(_representations([2], 3)) == []


def test_representations_are_produced_on_demand():
    # d = 2310 has 526,154,042 representations; the first comes without
    # listing the others
    assert next(_representations([2, 3, 5, 7, 11], 2310)) == (0, 0, 0, 0, 210)


def test_split_budget_caps_the_listing():
    # d = 2310 has 526,154,042 representations; only the first
    # DEFAULT_SPLIT_BUDGET of them are listed before the budget runs out
    with pytest.raises(BudgetExceeded):
        veronese_degree([2, 3, 5, 7, 11], 1)


def test_split_budget_bounds_the_parts_scanned(monkeypatch):
    # c = 1 for [2, 3, 5, 7] is d = 210, with 8,276 representations that a
    # split node scans; a node used to cost one unit however many of them it
    # read, so the default budget ran for 34-51 s.  Every part the search
    # scans now costs one unit, and it stops within the budget.
    read = [0]
    original = veronese._splits
    counted = {}

    class Counted(list):
        def __iter__(self):
            for item in list.__iter__(self):
                read[0] += 1
                yield item

    def splits(rep, parts, *rest):
        # the parts list is wrapped once, and kept, and every scan is counted
        if id(parts) not in counted:
            counted[id(parts)] = parts, Counted(parts)
        return original(rep, counted[id(parts)][1], *rest)

    monkeypatch.setattr(veronese, "_splits", splits)
    assert len(list(_representations([2, 3, 5, 7], 210))) == 8276
    monkeypatch.setattr(veronese, "DEFAULT_SPLIT_BUDGET", 20_000)
    with pytest.raises(BudgetExceeded):
        veronese_degree([2, 3, 5, 7], 3)
    assert 0 < read[0] <= 20_000


def _reference_charge(counter):
    counter[0] -= 1
    if counter[0] <= 0:
        raise BudgetExceeded("splitting enumeration budget exhausted")


def _reference_splits(rep, degrees, d, m, memo, counter):
    # reference copy of the split search that lists the representations of
    # d again at every node; a call and every part it scans cost one node each
    _reference_charge(counter)
    if m == 1:
        return True
    key = (rep, m)
    if key in memo:
        return memo[key]
    result = False
    for sub in _representations(degrees, d):
        _reference_charge(counter)
        if all(s <= a for s, a in zip(sub, rep)):
            rest = tuple(a - s for a, s in zip(rep, sub))
            if _reference_splits(rest, degrees, d, m - 1, memo, counter):
                result = True
                break
    memo[key] = result
    return result


def _reference_veronese_degree(degrees, m_max, split_budget):
    degrees = sorted(degrees)
    base = math.lcm(*degrees)
    for mult in range(1, 17):
        d = mult * base
        counter = [split_budget]
        memo = {}
        good = True
        for m in range(1, m_max + 1):
            for rep in _representations(degrees, d * m):
                if not _reference_splits(rep, degrees, d, m, memo, counter):
                    good = False
                    break
            if not good:
                break
        if good:
            return veronese.VeroneseResult(d=d, verified_up_to=m_max)
    raise AssertionError("no Veronese degree found")


def _split_threshold(degrees, m_max, monkeypatch):
    """The least ``DEFAULT_SPLIT_BUDGET`` at which ``veronese_degree``
    succeeds."""
    lo, hi = 1, DEFAULT_SPLIT_BUDGET
    while lo < hi:
        mid = (lo + hi) // 2
        monkeypatch.setattr(veronese, "DEFAULT_SPLIT_BUDGET", mid)
        try:
            veronese_degree(degrees, m_max)
            hi = mid
        except BudgetExceeded:
            lo = mid + 1
    return lo


# the benchmark's degree sets: 2-3 distinct degrees from 2..6
BENCHMARK_DEGREE_SETS = [
    list(c) for size in (2, 3) for c in itertools.combinations(range(2, 7), size)
]


@pytest.mark.parametrize("degrees", BENCHMARK_DEGREE_SETS, ids=str)
def test_veronese_degree_matches_reference_and_its_split_budget(degrees, monkeypatch):
    # at most three degrees: the lcm is proved without listing a
    # representation or visiting a split node, so one node of budget is enough
    def refuse(*args):
        raise AssertionError("split search entered")

    monkeypatch.setattr(veronese, "_splits", refuse)
    monkeypatch.setattr(veronese, "_representations", refuse)
    monkeypatch.setattr(veronese, "DEFAULT_SPLIT_BUDGET", 1)
    for m_max in range(1, 5):
        result = veronese_degree(degrees, m_max)
        assert result == veronese.VeroneseResult(math.lcm(*degrees), m_max, "proved")
        expected = _reference_veronese_degree(degrees, m_max, DEFAULT_SPLIT_BUDGET)
        assert result.d == expected.d


# four degrees, so c = 1 is searched before the proved c = 2; c = 1 fails
# only for [1, 6, 10, 15]
FOUR_DEGREE_SETS = [[2, 3, 4, 6], [2, 3, 6, 8], [3, 4, 6, 8], [1, 6, 10, 15]]


@pytest.mark.parametrize("degrees", FOUR_DEGREE_SETS, ids=str)
def test_four_degrees_match_reference_and_their_split_budget(degrees, monkeypatch):
    for m_max in range(1, 4):
        threshold = _split_threshold(degrees, m_max, monkeypatch)
        monkeypatch.setattr(veronese, "DEFAULT_SPLIT_BUDGET", threshold)
        result = veronese_degree(degrees, m_max)
        if result.certified == "proved":
            # the reference searches c = 2 as well, with a budget of its own
            expected = _reference_veronese_degree(degrees, m_max, DEFAULT_SPLIT_BUDGET)
            assert result == veronese.VeroneseResult(expected.d, m_max, "proved")
        else:
            assert result == _reference_veronese_degree(degrees, m_max, threshold)
        with pytest.raises(BudgetExceeded):
            _reference_veronese_degree(degrees, m_max, threshold - 1)


@pytest.mark.parametrize("degrees, expected", [
    ([2, 3, 4, 6], [(12, "bounded verification")] * 4),
    ([2, 3, 6, 8], [(24, "bounded verification")] * 4),
    ([3, 4, 6, 8], [(24, "bounded verification")] * 4),
    ([1, 6, 10, 15], [(30, "bounded verification")] + [(60, "proved")] * 3),
    ([2, 3, 4, 6, 12], [(12, "bounded verification")] * 4),
], ids=str)
def test_default_split_budget_verifies_four_and_five_degree_sets(degrees, expected):
    # charging every scanned part a node leaves these searches within the
    # default budget for m_max 1-4
    for m_max, (d, certified) in enumerate(expected, start=1):
        assert veronese_degree(degrees, m_max) == veronese.VeroneseResult(d, m_max, certified)


def test_monoid_generators_simplicial_cell():
    fan = chamber_fan(builtin_examples()["blowup-P2"])
    for cell in fan.cells:
        gens = monoid_generators(cell)
        for r in cell.rays:
            assert tuple(r) in gens


def test_grid_additivity_passes_on_example():
    datum = builtin_examples()["blowup-P2"]
    fan = chamber_fan(datum)
    report = grid_additivity_check(datum, fan, depth=3)
    assert report.ok()
    assert not any(e.skipped for e in report.entries)
    assert len(report.entries) == len(fan.cells)  # one valuation


def test_grid_additivity_depth_two_subset_of_depth_three():
    datum = builtin_examples()["blowup-P2"]
    fan = chamber_fan(datum)
    shallow = grid_additivity_check(datum, fan, depth=2)
    deep = grid_additivity_check(datum, fan, depth=3)
    assert shallow.ok() and deep.ok()
    shallow_count = sum(len(e.checks) for e in shallow.entries)
    deep_count = sum(len(e.checks) for e in deep.entries)
    assert deep_count > shallow_count


@pytest.mark.parametrize("depth, error", [
    (0, ValueError), (-2, ValueError), (True, TypeError), (False, TypeError),
    (2.0, TypeError), ("3", TypeError),
])
def test_grid_additivity_rejects_a_depth_that_checks_nothing(depth, error):
    # depth 0 and -2 once gave a report of no checks whose ok() was True,
    # and True was read as depth 1
    datum = builtin_examples()["blowup-P2"]
    fan = chamber_fan(datum)
    with pytest.raises(error, match="depth"):
        grid_additivity_check(datum, fan, depth=depth)


def test_grid_additivity_budget_is_reported_not_fatal(monkeypatch):
    datum = builtin_examples()["blowup-P2"]
    fan = chamber_fan(datum)
    monkeypatch.setattr(veronese, "DEFAULT_LATTICE_BUDGET", 1)
    report = grid_additivity_check(datum, fan)
    assert all(e.skipped for e in report.entries)
    assert report.ok()  # skips are not failures


def test_grid_over_budget_is_skipped_before_a_vector_is_built(monkeypatch):
    # depth 5000 on a cell of k generators is comb(5000 + k, k) - 1 exponent
    # vectors; they are counted, not built, and the cell is skipped
    datum = builtin_examples()["blowup-P2"]
    fan = chamber_fan(datum)

    def no_vectors(count, depth):
        raise AssertionError("exponent vectors built")

    monkeypatch.setattr(veronese, "_grid_table", no_vectors)
    report = grid_additivity_check(datum, fan, depth=5000)
    assert len(report.entries) == len(fan.cells)
    for e in report.entries:
        k = len(monoid_generators(fan.cells[e.cell_index]))
        assert e.skipped == f"grid has {math.comb(5000 + k, k) - 1} exponent vectors"
        assert e.checks == []


def test_grid_budget_counts_exponent_vectors(monkeypatch):
    # both cells of blowup-P2 have two generators: 9 vectors at depth 3, in
    # a box of 6 lattice points
    datum = builtin_examples()["blowup-P2"]
    fan = chamber_fan(datum)
    monkeypatch.setattr(veronese, "DEFAULT_LATTICE_BUDGET", 9)
    fits = grid_additivity_check(datum, fan, depth=3)
    assert all(not e.skipped and len(e.checks) == 9 for e in fits.entries)
    monkeypatch.setattr(veronese, "DEFAULT_LATTICE_BUDGET", 8)
    over = grid_additivity_check(datum, fan, depth=3)
    assert all(e.skipped == "grid has 9 exponent vectors" for e in over.entries)


def _exponent_vectors(count, depth):
    """The grid's exponent vectors in their reference order: each total
    from 1 to ``depth`` in turn, its vectors in lexicographic order, read
    off the cuts of a row of stars and bars."""
    for total in range(1, depth + 1):
        for cuts in itertools.combinations(range(total + count - 1), count - 1):
            vec = []
            prev = -1
            for c in cuts:
                vec.append(c - prev - 1)
                prev = c
            vec.append(total + count - 2 - prev)
            yield tuple(vec)


@pytest.mark.parametrize("count", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_grid_table_gives_each_exponent_vector_its_parent(count, depth):
    # the parent of p is p less one at its last nonzero entry, listed
    # before p after the zero vector, and p's generator is that entry
    exponents, steps = _grid_table(count, depth)
    assert exponents == list(_exponent_vectors(count, depth))
    listed = [(0,) * count] + exponents
    for j, (p, (parent, i)) in enumerate(zip(exponents, steps, strict=True), 1):
        assert i == max(k for k, a in enumerate(p) if a)
        assert parent < j
        assert listed[parent] == p[:i] + (p[i] - 1,) + p[i + 1:]


def reference_grid_additivity(datum, fan, dscale, depth):
    """The grid check as it was before order functions, kept as its
    reference: one ``asymptotic_order`` query per point, on ``Fraction``
    points, with the package's ``monoid_generators`` and its lattice
    budget, which bounds the exponent vectors too.  One tuple (cell,
    valuation, generators, skipped, truncated, checks) per entry, a check
    being (exponents, point, lhs, rhs)."""
    support = support_cone(datum)
    entries = []
    for ci, cell in enumerate(fan.cells):
        try:
            gens = monoid_generators(cell)
        except BudgetExceeded as exc:
            entries += [(ci, v, (), str(exc), False, []) for v in datum.valuations]
            continue
        truncated = len(gens) > MAX_MONOID_GENERATORS
        gens = gens[:MAX_MONOID_GENERATORS]
        exponents = list(_exponent_vectors(len(gens), depth))
        if len(exponents) > veronese.DEFAULT_LATTICE_BUDGET:
            skipped = f"grid has {len(exponents)} exponent vectors"
            entries += [(ci, v, (), skipped, False, []) for v in datum.valuations]
            continue
        for valuation in datum.valuations:
            def order(x):
                return asymptotic_order(datum, valuation, x, support=support).value

            base = [order(tuple(Fraction(dscale * x) for x in g)) for g in gens]
            checks = []
            for p in exponents:
                point = tuple(
                    Fraction(dscale) * sum(pj * g[j] for pj, g in zip(p, gens))
                    for j in range(cell.ambient_dim)
                )
                rhs = sum(pj * bj for pj, bj in zip(p, base))
                checks.append((p, point, order(point), rhs))
            entries.append((ci, valuation, tuple(gens), None, truncated, checks))
    return entries


def _grid_case(name):
    if name.startswith("corpus-"):
        return random_instance(corpus_spec(int(name.removeprefix("corpus-"))))
    return builtin_examples()[name]


@pytest.mark.parametrize("name", sorted(builtin_examples()) + ["corpus-2", "corpus-44"])
@pytest.mark.parametrize("dscale, lattice_budget, depth", [
    # depth 3, check's default, keeps the bare id; depth 1 has only unit
    # vectors, whose parent is the zero vector
    pytest.param(dscale, budget, depth,
                 id=f"{dscale}-{budget}" + ("" if depth == 3 else f"-depth{depth}"))
    for depth in (1, 2, 3, 4)
    for dscale, budget in ((1, DEFAULT_LATTICE_BUDGET), (2, DEFAULT_LATTICE_BUDGET), (1, 300))
])
def test_grid_additivity_equals_reference(name, dscale, lattice_budget, depth, monkeypatch):
    # a budget of 300 lattice points skips some cells of corpus-2; the order
    # functions are homogeneous, so the reference on the grid scaled by
    # dscale gives the package's checks scaled by dscale
    datum = _grid_case(name)
    fan = chamber_fan(datum)
    monkeypatch.setattr(veronese, "DEFAULT_LATTICE_BUDGET", lattice_budget)
    report = grid_additivity_check(datum, fan, depth)
    got = [
        (e.cell_index, e.valuation, e.generators, e.skipped, e.truncated,
         [(c.exponents, tuple(dscale * x for x in c.point),
           dscale * Fraction(c.lhs_num, c.lhs_den), dscale * Fraction(c.rhs_num, c.rhs_den))
          for c in e.checks])
        for e in report.entries
    ]
    assert got == reference_grid_additivity(datum, fan, dscale, depth)


@pytest.mark.parametrize("name", sorted(builtin_examples()) + ["corpus-2", "corpus-44"])
def test_grid_asks_each_order_once_per_distinct_point(name, monkeypatch):
    # the grid asks ``ratio`` only at generators, once per distinct
    # (valuation, generator) however many cells share it, and ``dual`` once
    # per (cell, valuation) pair that is not skipped; the certificate holds
    # on every cell of a chamber fan, so no grid point is asked, and every
    # exponent vector still has its own record
    datum = _grid_case(name)
    fan = chamber_fan(datum)
    ratio, dual = OrderFunction.ratio, OrderFunction.dual
    asked, duals = [], []

    def counted(self, x):
        asked.append(x)
        return ratio(self, x)

    def counted_dual(self, x):
        duals.append(x)
        return dual(self, x)

    monkeypatch.setattr(OrderFunction, "ratio", counted)
    monkeypatch.setattr(OrderFunction, "dual", counted_dual)
    depth = 3
    report = grid_additivity_check(datum, fan, depth)
    kept = [e for e in report.entries if not e.skipped]
    generators = [(e.valuation, g) for e in kept for g in e.generators]
    assert len(asked) == len(set(generators))
    assert set(asked) <= {g for _, g in generators}
    assert len(duals) == len(kept)
    for e in report.entries:
        if not e.skipped:
            k = len(e.generators)
            assert [c.exponents for c in e.checks] == list(_exponent_vectors(k, depth))
            assert len(e.checks) == math.comb(depth + k, k) - 1


@pytest.mark.parametrize("name", ["blowup-P2", "corpus-2"])
def test_grid_calls_share_no_order(name, monkeypatch):
    # a second call on the same fan asks every order again: with ``ratio``
    # patched between the calls to add 1, every record of the second report
    # reads the order plus 1 at its point
    datum = _grid_case(name)
    fan = chamber_fan(datum)
    first = grid_additivity_check(datum, fan)
    ratio = OrderFunction.ratio

    def plus_one(self, x):
        num, den = ratio(self, x)
        return num + den, den

    monkeypatch.setattr(OrderFunction, "ratio", plus_one)
    second = grid_additivity_check(datum, fan)
    pairs = [(a, b) for e, f in zip(first.entries, second.entries)
             for a, b in zip(e.checks, f.checks)]
    assert pairs and len(second.entries) == len(first.entries)
    for a, b in pairs:
        assert b.point == a.point
        assert Fraction(b.lhs_num, b.lhs_den) == Fraction(a.lhs_num, a.lhs_den) + 1


@pytest.mark.parametrize("name", ["blowup-P2", "corpus-2"])
def test_additivity_check_is_ok_exactly_when_its_sides_are_equal(name, monkeypatch):
    # a broken fan, the support as one cell, straddles linearity domains:
    # no dual meets the order at every generator, so the certificate fails
    # and every record reads ``ratio`` at its point; the order is not linear
    # on the cell, so failing records stand beside passing ones, and on
    # every record ``ok``, decided in integers, agrees with comparing the
    # sides as Fractions
    datum = _grid_case(name)
    support = support_cone(datum)
    fan = make_fan([support], support)
    ratio = OrderFunction.ratio
    asked = {}

    def counted(self, x):
        asked[self, x] = ratio(self, x)
        return asked[self, x]

    monkeypatch.setattr(OrderFunction, "ratio", counted)
    report = grid_additivity_check(datum, fan)
    assert len(report.entries) == len(datum.valuations)
    for e in report.entries:
        order = order_function(datum, e.valuation)
        y_num, y_den = order.dual(tuple(map(sum, zip(*e.generators))))
        assert any(Fraction(linalg.dot(y_num, g), y_den) != Fraction(*ratio(order, g))
                   for g in e.generators)
        assert [(c.lhs_num, c.lhs_den) for c in e.checks] == [
            asked[order, c.point] for c in e.checks]
    checks = [c for e in report.entries for c in e.checks]
    assert any(c.ok for c in checks) and not all(c.ok for c in checks)
    for c in checks:
        assert c.ok == (Fraction(c.lhs_num, c.lhs_den) == Fraction(c.rhs_num, c.rhs_den))
        assert c.lhs_den > 0 and c.rhs_den > 0
    # the sides need not be in lowest terms
    assert veronese.AdditivityCheck((1,), (2,), 2, 4, 1, 2).ok
    assert not veronese.AdditivityCheck((1,), (2,), -1, 2, 1, 2).ok


def test_the_certificate_holds_on_every_corpus_fan(monkeypatch):
    # on corpus documents 1-50 and every builtin example, refined and not,
    # every cell's dual meets the order at its generators, so the grid asks
    # ``ratio`` only at (valuation, generator) pairs, and every record's
    # left-hand side, read off the dual, is the order at its point, which
    # ``ratio`` asked apart from the grid gives
    data = [random_instance(corpus_spec(s)) for s in range(1, 51)]
    data += builtin_examples().values()
    ratio = OrderFunction.ratio
    asked = []

    def counted(self, x):
        asked.append(x)
        return ratio(self, x)

    monkeypatch.setattr(OrderFunction, "ratio", counted)
    records = 0
    for datum in data:
        for refine in (True, False):
            fan = chamber_fan(datum, refine=refine)
            asked.clear()
            report = grid_additivity_check(datum, fan)
            generators = {g for e in report.entries for g in e.generators}
            assert set(asked) <= generators
            for e in report.entries:
                order = order_function(datum, e.valuation)
                for c in e.checks:
                    assert Fraction(c.lhs_num, c.lhs_den) == Fraction(*ratio(order, c.point))
                    records += 1
    assert records > 100_000


def reference_ray_basis(cell):
    """The greedy loop ``_ray_basis`` replaced, kept as its reference: a ray
    joins the basis when it raises the rank."""
    basis = []
    for r in cell.rays:
        if rank(basis + [r]) > len(basis):
            basis.append(r)
    return basis


@pytest.mark.parametrize("name", sorted(builtin_examples()) + [f"corpus-{s}" for s in range(20)])
def test_ray_basis_equals_the_greedy_rank_loop(name):
    datum = _grid_case(name)
    for refine in (True, False):
        for cell in chamber_fan(datum, refine=refine).cells:
            assert veronese._ray_basis(cell) == reference_ray_basis(cell)


def test_ray_basis_of_a_cell_with_lineality():
    # a line is kept as two opposite rays, of which the basis takes the first
    lineal = cone_from_rays([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 1, 1), (1, 1, 1)])
    assert veronese._ray_basis(lineal) == reference_ray_basis(lineal) == [
        (-1, 0, 0), (0, 1, 0), (0, 1, 1)]


def reference_parallelepiped_points(basis, cell, budget):
    """The box scan the enumerator replaced, kept as its reference: every
    point of the box [0, sum of basis vectors], one exact solve per point."""
    n = len(basis[0])
    hi = [sum(b[j] for b in basis) for j in range(n)]
    volume = 1
    for h in hi:
        volume *= h + 1
    if volume > budget:
        raise BudgetExceeded(f"parallelepiped box has {volume} lattice points")
    columns = list(zip(*basis))
    points = []
    for z in itertools.product(*(range(h + 1) for h in hi)):
        if all(v == 0 for v in z):
            continue
        t = solve_exact(columns, z)
        if t is None or any(ti < 0 or ti >= 1 for ti in t):
            continue
        if cell.contains(z):
            points.append(tuple(z))
    return points


def _det(matrix):
    # Leibniz formula; the matrices here are at most 4 x 4
    total = 0
    for perm in itertools.permutations(range(len(matrix))):
        inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= matrix[i][j]
        total += term
    return total


# entry bound per ambient dimension, so that the reference's box stays small
_ENTRY_BOUND = {1: 7, 2: 5, 3: 3, 4: 2}


@st.composite
def ray_bases(draw):
    """k <= n <= 4 linearly independent vectors in the nonnegative orthant."""
    n = draw(st.integers(min_value=1, max_value=4))
    k = draw(st.integers(min_value=1, max_value=n))
    entry = st.integers(min_value=0, max_value=_ENTRY_BOUND[n])
    vector = st.tuples(*([entry] * n))
    return draw(
        st.lists(vector, min_size=k, max_size=k).filter(lambda b: rank(b) == len(b))
    )


@given(ray_bases())
@example([(1, 0), (1, 9)])
@example([(1, 2, 0), (0, 1, 2), (2, 0, 1)])  # det 9
@example([(2, 2, 0), (0, 2, 2)])
@example([(2, 0, 1), (0, 2, 1)])
@example([(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 1)])
@settings(max_examples=150, deadline=None)
def test_parallelepiped_points_equal_the_box_scan(basis):
    budget = DEFAULT_LATTICE_BUDGET
    cell = cone_from_rays(basis)
    got = _parallelepiped_points(basis, budget)
    assert got == reference_parallelepiped_points(basis, cell, budget)
    assert all(type(x) is int for z in got for x in z)
    if len(basis) == len(basis[0]):
        assert len(got) == abs(_det(basis)) - 1
    # every point lies in the cone of the basis, so no cell whose rays
    # include the basis cuts one away: the box scan restricted to the whole
    # orthant finds the same points
    assert all(cell.contains(z) for z in got)
    n = len(basis[0])
    orthant = cone_from_rays([tuple(int(i == j) for j in range(n)) for i in range(n)])
    assert reference_parallelepiped_points(basis, orthant, budget) == got


def test_lower_dimensional_basis_keeps_only_lattice_points():
    # B_S = 2I on the first two coordinates: of the 4 group elements only
    # t = (1/2, 1/2) gives a point with an integer third coordinate.  No
    # cell is asked, so the integrality test alone rejects the other points'
    # roundings, which the box scan restricted to the orthant rejects too
    basis = [(2, 0, 1), (0, 2, 1)]
    orthant = cone_from_rays([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert _parallelepiped_points(basis, 20_000) == [(1, 1, 1)]
    assert reference_parallelepiped_points(basis, orthant, 20_000) == [(1, 1, 1)]


def test_enumeration_makes_no_exact_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve_exact called")

    monkeypatch.setattr(linalg, "solve_exact", refuse)
    monkeypatch.setattr(veronese, "solve_exact", refuse, raising=False)
    basis = [(1, 2, 0), (0, 1, 2), (2, 0, 1)]
    assert len(_parallelepiped_points(basis, 20_000)) == 8
    for datum in builtin_examples().values():
        for cell in chamber_fan(datum).cells:
            monoid_generators(cell)


def test_box_over_budget_raises_with_its_volume(monkeypatch):
    basis = [(1, 0), (1, 9)]  # box [0, 2] x [0, 9]: 30 points
    cell = cone_from_rays(basis)
    with pytest.raises(BudgetExceeded, match=r"^parallelepiped box has 30 lattice points$"):
        _parallelepiped_points(basis, 29)
    assert len(_parallelepiped_points(basis, 30)) == 8
    monkeypatch.setattr(veronese, "DEFAULT_LATTICE_BUDGET", 29)
    with pytest.raises(BudgetExceeded, match=r"^parallelepiped box has 30 lattice points$"):
        monoid_generators(cell)

