"""Command-line interface: exit codes, output formats, stability."""

import codecs
import contextlib
import copy
import hashlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmpwalk import InstanceSpec, builtin_examples, random_instance
from mmpwalk.cli import main
from mmpwalk.errors import SupportMismatch
from mmpwalk import orders
from mmpwalk.orders import OrderFunction
from mmpwalk.serialize import dumps, ring_from_json, ring_to_json

from corpus import corpus_spec


@pytest.fixture()
def blowup_file(tmp_path):
    path = tmp_path / "blowup.json"
    path.write_text(dumps(ring_to_json(builtin_examples()["blowup-P2"])))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_walk_example_json(capsys):
    code, out, _ = run(capsys, "walk", "--example", "blowup-P2", "--h", "0,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["chambers"] == [0, 1]
    assert doc["intervals"] == [["0", "1/2"], ["1/2", "1"]]
    assert doc["nef_classification"] == {"mode": "full", "indices": [1, 2]}
    assert len(doc["steps"]) == 1
    assert doc["steps"][0]["t"] == "1/2"
    assert doc["final"]["divisor"] == ["2", "1"]
    assert doc["final"]["model_id"] == "P2"


def test_walk_text_format(capsys):
    code, out, _ = run(
        capsys, "walk", "--example", "blowup-P2", "--h", "0,1", "--format", "text"
    )
    assert code == 0
    assert "chambers met: 2" in out
    assert "t=1/2" in out
    # every vector is written as the intervals are, without quotes
    assert "t in [0, 1/2]" in out and "wall [1/2, 1/2]" in out
    assert "final: chamber 1, divisor [2, 1], model P2" in out


def test_walk_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "walk", "--example", "blowup-P2", "--h", "0,1")
    _, second, _ = run(capsys, "walk", "--example", "blowup-P2", "--h", "0,1")
    assert first == second


# sha256 of stdout on every builtin example, recorded before cones were
# built with one double-description conversion each: the construction of a
# cone may change, its output may not
STDOUT_SHA256 = {
    ("decompose", "blowup-P2"):
        "d904554cc6cd5552f329c1a9f39433ad59687c0e30734105476cddee777240f4",
    ("decompose", "fractional-vertex"):
        "80c5016e6ec6482d5d49e9c8866ffa97132f243f3eb7d17b56bf1b2a24931173",
    ("decompose", "quadrant-trivial"):
        "1cc2d2ab7c4585886483e50686fdeea6a9265b4f85821b6bda5f37e337173270",
    ("check", "blowup-P2"):
        "a545b8c1658d7a68d5c5265a628378bc3fc5994a88868fbaa48bd1cf1efbb0c7",
    ("check", "fractional-vertex"):
        "37e011a924a974d0d37ff8b2a9c72db3ef184bfd85e29fca70bfe06673b19da2",
    ("check", "quadrant-trivial"):
        "9cf006dcad5e21c854bbd71b74657c0d13f63fe5edd3417133677248ac4ff68f",
}


@pytest.mark.parametrize("command, example", sorted(STDOUT_SHA256))
def test_stdout_matches_recorded_digest(capsys, command, example):
    assert {e for _, e in STDOUT_SHA256} == set(builtin_examples())
    argv = [command, "--example", example]
    if command == "check":
        argv += ["--grid-depth", "3"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == STDOUT_SHA256[command, example]


def _corpus_document(seed):
    """Acceptance-corpus document ``seed``."""
    return dumps(ring_to_json(random_instance(corpus_spec(seed))))


# sha256 of decompose stdout on corpus documents 1-10 (r = 1, 2 and 3), with
# and without hyperplane slicing, recorded while cell_functionals still
# probed a second build of every linearity fan: where the functionals come
# from may change, the output may not
CORPUS_DECOMPOSE_SHA256 = {
    (1, "--refine"):
        "319d0c793e281eb64ba9ccf1b0e6cb34fc633337febde63ff60fe7ab480d3a4e",
    (1, "--no-refine"):
        "319d0c793e281eb64ba9ccf1b0e6cb34fc633337febde63ff60fe7ab480d3a4e",
    (2, "--refine"):
        "d06890f4ff6549f079aa3e03226c967f2b530601a4988d23b930e73eefe014ce",
    (2, "--no-refine"):
        "562ee56e130a4c75b40f11c2d475f591b7585f918fdcf5ef82ee682774fe791a",
    (3, "--refine"):
        "469986dab95677b892b3093e56d2b74afbf883b0a83ff3c5209b32888bf210af",
    (3, "--no-refine"):
        "79325a72beaef08489fc9d3ab5a827711fd2fb8d63b9af34d8fc714a4fc1cb58",
    (4, "--refine"):
        "ca85eaf86b31611501bab0b05e1f77cc456b29b99ba7df7cc93a0a91f0a350d9",
    (4, "--no-refine"):
        "0131fe07d260c85cd558fb550dfe56398830fb300b57c418d7a7c0ac34dcbfa8",
    (5, "--refine"):
        "daf8b59139a563bb1c487d7de3ee2d15ed619d9ff92d092d4a287d712ccf726d",
    (5, "--no-refine"):
        "daf8b59139a563bb1c487d7de3ee2d15ed619d9ff92d092d4a287d712ccf726d",
    (6, "--refine"):
        "46ad17b4b79425cdcc82cf6a94f6ee8a7cd6fda1d81203f7361a631f827a672e",
    (6, "--no-refine"):
        "46ad17b4b79425cdcc82cf6a94f6ee8a7cd6fda1d81203f7361a631f827a672e",
    (7, "--refine"):
        "ae1a89710e2acbd743f25abc91b65e07443877ef23a166b62b9f38820aa337d6",
    (7, "--no-refine"):
        "c9f90877ddf7faacc31e9f6ffbedef2783f9e283fd87859fb6e8e236c1e85219",
    (8, "--refine"):
        "8971df4e8a3a33568203cf878c72d4141f2fbd966876281e26fff31b72f7a72b",
    (8, "--no-refine"):
        "bb376b9106f89b4a9a55c370a53ef8a15498ce759419a88af4ac6bdd46870762",
    (9, "--refine"):
        "a55f5741ea0ffba809ccd99aa40f740b065922e9d8852bdf4c8ed28ee37c8da1",
    (9, "--no-refine"):
        "ccf09809a322be67274931d795555bd7990444d4ade6282eea2fc8ca2ee110a8",
    (10, "--refine"):
        "a1da174aa222c0721e0268c8bf4e1d0bd342580286407757361fcdf29d4b6aa5",
    (10, "--no-refine"):
        "a1da174aa222c0721e0268c8bf4e1d0bd342580286407757361fcdf29d4b6aa5",
}


@pytest.mark.parametrize("instance, refine", sorted(CORPUS_DECOMPOSE_SHA256))
def test_decompose_stdout_on_corpus_matches_recorded_digest(monkeypatch, capsys, instance, refine):
    monkeypatch.setattr("sys.stdin", io.StringIO(_corpus_document(instance)))
    code, out, _ = run(capsys, "decompose", "--input", "-", refine)
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == CORPUS_DECOMPOSE_SHA256[instance, refine]


# sha256 of walk stdout on corpus documents 1-10, from e_0 to a point of the
# open orthant, recorded before the refinement split each cell once per
# crossing wall: how the chambers are cut may change, the walk may not
CORPUS_WALK_SHA256 = {
    1: ("138/583,434/411",
        "17162a2cd0c3e632bb56925711c547f1e2acaa85534def8e3484fcd6d516eafa"),
    2: ("979/884,971/870,29/47",
        "2309d1f4bd892939a22f1f6d27327a99bef2920ade63a0862ae34952282e7012"),
    3: ("244/607,279/67,379/938",
        "0323151aae4052b0219e1d4958d2165cae968afb0194c61271076b50c16fb5aa"),
    4: ("242/311,106/739,406/491,53/31",
        "50c541cadaf7c815f71eb2c66624d39da330345d41503033b4c4a1fdcfce0eda"),
    5: ("319/131,95/46",
        "ee5a343b5e115644337bd861b9e1198372af6b409d70c3af41e866af02a30aaa"),
    6: ("271/196,842/83",
        "9865c1a66b69073c10f0d2a5401cc54272603eab72552f18127a039baf38063d"),
    7: ("332/971,31/81,667/50",
        "13944a8c31373740038046db623870738434741318411de2da2053f010c1a324"),
    8: ("233/380,986/385,65/99",
        "6f9a6d046bbca9cab0d2094e4ae20840d344a507699b373a78256946254f1f0b"),
    9: ("475/628,383/274,142/191,296/231",
        "46a11caaefc3ff38e161fb6c80e31e89aae68f68cd0c47a122d2c7950bc83c74"),
    10: ("293/17,8/9",
         "ee22d6ffbc3085d1cd2cee7eced6952f3b7890fdb8f645f4b08fee911b3c1c1c"),
}


@pytest.mark.parametrize("instance", sorted(CORPUS_WALK_SHA256))
def test_walk_stdout_on_corpus_matches_recorded_digest(monkeypatch, capsys, instance):
    h, digest = CORPUS_WALK_SHA256[instance]
    monkeypatch.setattr("sys.stdin", io.StringIO(_corpus_document(instance)))
    code, out, _ = run(capsys, "walk", "--input", "-", "--h", h)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# a document whose multidegrees span only the hyperplane x_2 = x_3 (no corpus
# document has a thin support: every one holds the unit multidegrees); its
# chamber fan has 12 cells, 19 once refined
THIN_DOCUMENT = {
    "r": 3,
    "labels": ["A", "B", "C", "D"],
    "valuations": ["E", "F"],
    "numerical_map": [["1", "0", "0", "0"], ["0", "1", "0", "0"],
                      ["0", "0", "1", "0"], ["0", "0", "0", "1"]],
    "generators": [
        {"deg": [1, 0, 0, 0], "mults": {"E": "0", "F": "2"}},
        {"deg": [0, 1, 0, 0], "mults": {"E": "1", "F": "0"}},
        {"deg": [0, 0, 1, 1], "mults": {"E": "2", "F": "1"}},
        {"deg": [1, 1, 1, 1], "mults": {"E": "3", "F": "1"}},
        {"deg": [2, 1, 0, 0], "mults": {"E": "1", "F": "1"}},
        {"deg": [1, 2, 2, 2], "mults": {"E": "2", "F": "5/2"}},
        {"deg": [0, 3, 1, 1], "mults": {"E": "4", "F": "0"}},
        {"deg": [3, 0, 2, 2], "mults": {"E": "1", "F": "3"}},
    ],
}

# sha256 of stdout on THIN_DOCUMENT, recorded with CORPUS_WALK_SHA256
THIN_SHA256 = {
    ("decompose", "--refine"):
        "9add86c88ad13c6609b456b0554365ec6ab2eb6d88a92a31f39cf4dc9af386c2",
    ("decompose", "--no-refine"):
        "2cd5dd9720b9aaa8427ce7fec6c8840cf1e1216efc8f53aaa52dc0c0448d1cc8",
    ("walk", "--h=5/3,7/2,11/7,11/7"):
        "10ff3e5c9042680bd88bbd7d4fb8b8296c643d01ca30b185392fad9848b11b26",
}


@pytest.mark.parametrize("command, flag", sorted(THIN_SHA256))
def test_thin_support_stdout_matches_recorded_digest(monkeypatch, capsys, command, flag):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(THIN_DOCUMENT)))
    code, out, err = run(capsys, command, "--input", "-", flag)
    assert code == 0 and "thin-support" in err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == THIN_SHA256[command, flag]


# sha256 of check stdout on corpus documents (r = 2, 24 and 14 cells; r = 3),
# recorded while check still sampled Fraction points: how the sample points
# are represented may change, the report may not.  Documents 9 and 24 (r = 3,
# 24 cells) and 28 (r = 2, 19 cells, the only corpus document with skipped
# grid cells) were recorded while the grid and the linearity samples were
# still summed in Fractions.
CORPUS_CHECK_SHA256 = {
    2: "556d68b2e4096e953b3073fabf436ea7c00f85771eaab7b5882711a5808582e4",
    8: "e91cb431a518b97898d24278376b9623ac3a862d9ce5b0a213c3a243553fe78a",
    9: "00c501c450491bdc210ea194de0cc1cbd2bc39bae4d031d619a5a8fc406054f5",
    24: "00c501c450491bdc210ea194de0cc1cbd2bc39bae4d031d619a5a8fc406054f5",
    28: "58204a8200d95b3469957974697f4c1615d80cba7036e05a69991302d546db52",
    44: "99275f31a8106bbd1bc87756bf41e695638acdd7cb5d58872003601b3c62411a",
}


@pytest.mark.parametrize("seed", ["0", "7"])
@pytest.mark.parametrize("instance", sorted(CORPUS_CHECK_SHA256))
def test_check_stdout_on_corpus_matches_recorded_digest(monkeypatch, capsys, instance, seed):
    monkeypatch.setattr("sys.stdin", io.StringIO(_corpus_document(instance)))
    code, out, _ = run(capsys, "check", "--input", "-", "--seed", seed)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CORPUS_CHECK_SHA256[instance]


# LP solves and order queries of one check run from a cold start, counted
# while the grid and the linearity samples were still summed in Fractions:
# both the sampling and the grid query the order function once per point.
# A query is a call of ``ratio``, the one query check makes.
CHECK_QUERY_COUNTS = {
    "--example blowup-P2": (2, 232),
    "corpus 2": (16, 6381),
}


@pytest.mark.parametrize("case", sorted(CHECK_QUERY_COUNTS))
def test_check_makes_the_recorded_solves_and_queries(monkeypatch, capsys, case):
    if case == "corpus 2":
        monkeypatch.setattr("sys.stdin", io.StringIO(_corpus_document(2)))
        argv = ["check", "--input", "-"]
    else:
        argv = ["check", *case.split()]
    orders.forget_order_functions()
    solves, queries = [], []
    solve_min = orders.solve_min

    def counted_solve(*args, **kwargs):
        solves.append(args)
        return solve_min(*args, **kwargs)

    ratio = OrderFunction.ratio

    def counted(self, x):
        queries.append(x)
        return ratio(self, x)

    monkeypatch.setattr(orders, "solve_min", counted_solve)
    monkeypatch.setattr(OrderFunction, "ratio", counted)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.endswith("result: PASS\n")
    assert (len(solves), len(queries)) == CHECK_QUERY_COUNTS[case]


# Fractions built by one check run from a cold start, counted by patching
# ``Fraction.__new__``: the document's entries, the fan's functionals and
# the 50 homogeneity factors.  The order queries and the grid compare
# integers and build none; read as Fractions, with a Fraction right-hand
# side per grid point, the same runs built 429 and 12,227.
CHECK_FRACTION_COUNTS = {
    "--example blowup-P2": 69,
    "corpus 2": 122,
}


@pytest.mark.parametrize("case", sorted(CHECK_FRACTION_COUNTS))
def test_check_builds_the_recorded_fractions(monkeypatch, capsys, case):
    if case == "corpus 2":
        monkeypatch.setattr("sys.stdin", io.StringIO(_corpus_document(2)))
        argv = ["check", "--input", "-"]
    else:
        argv = ["check", *case.split()]
    orders.forget_order_functions()
    built = []
    new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted_new)
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.endswith("result: PASS\n")
    assert len(built) == CHECK_FRACTION_COUNTS[case]


# sha256 of check stdout with every order value negated where check reads
# them, in ``ratio``.  The negated order functions stay homogeneous, so the
# same sampled points fail, and the FAIL lines print each of them.
FAILING_CHECK_SHA256 = {
    ("blowup-P2", "0"): "0c2d89d0c1fe490489bf807ef5eb7c7a8d369c2091b5db25c38f94f5d581178e",
    ("fractional-vertex", "7"): "75bebd41d0e489eb016ebc00139c0cf1b7b171be5c4504222d2d0006a4529057",
}


@pytest.mark.parametrize("example, seed", sorted(FAILING_CHECK_SHA256))
def test_check_failure_report_matches_recorded_digest(monkeypatch, capsys, example, seed):
    ratio = OrderFunction.ratio

    def negated(self, x):
        num, den = ratio(self, x)
        return -num, den

    monkeypatch.setattr(OrderFunction, "ratio", negated)
    code, out, _ = run(capsys, "check", "--example", example, "--seed", seed, "--grid-depth", "1")
    assert code == 1
    assert "FAIL: linearity: " in out and "point [" in out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == FAILING_CHECK_SHA256[example, seed]


def test_walk_from_file_with_embedded_segment(tmp_path, capsys):
    doc = ring_to_json(builtin_examples()["blowup-P2"], segment_h=(0, 1))
    path = tmp_path / "with_segment.json"
    path.write_text(dumps(doc))
    code, out, _ = run(capsys, "walk", "--input", str(path))
    assert code == 0
    assert json.loads(out)["chambers"] == [0, 1]


def test_walk_requires_segment(blowup_file, capsys):
    code, _, err = run(capsys, "walk", "--input", blowup_file)
    assert code == 2
    assert "segment" in err


def test_non_generic_segment_exit_code(capsys):
    code, _, err = run(capsys, "walk", "--example", "blowup-P2", "--h", "1,1")
    assert code == 5
    assert "walls" in err


def test_decompose_json(capsys):
    code, out, _ = run(capsys, "decompose", "--example", "blowup-P2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["cells"]) == 2
    assert "E" in doc["functionals"]


def test_decompose_writes_file(tmp_path, capsys):
    target = tmp_path / "fan.json"
    code, out, _ = run(
        capsys, "decompose", "--example", "blowup-P2", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["cells"]


def test_veronese_command(capsys):
    code, out, _ = run(capsys, "veronese", "--degrees", "2,3", "--m-max", "6")
    assert code == 0
    assert json.loads(out) == {"d": 6, "verified_up_to": 6, "certified": "proved"}
    code, out, _ = run(capsys, "veronese", "--degrees", "2,3", "--format", "text")
    assert (code, out) == (0, "d = 6 (proved for every m)\n")
    code, out, _ = run(
        capsys, "veronese", "--degrees", "2,3,4,6", "--m-max", "2", "--format", "text"
    )
    assert (code, out) == (0, "d = 12 (bounded verification up to m = 2)\n")


def test_veronese_three_degrees_are_proved_at_any_m_max(capsys):
    # the search over m <= 50 used to exhaust the split budget
    code, out, _ = run(capsys, "veronese", "--degrees", "2,3,5", "--m-max", "50")
    assert code == 0
    assert json.loads(out) == {"d": 30, "verified_up_to": 50, "certified": "proved"}


def test_veronese_requires_degrees(capsys):
    code, _, err = run(capsys, "veronese")
    assert code == 2


def test_check_passes_on_example(capsys):
    code, out, _ = run(capsys, "check", "--example", "blowup-P2")
    assert code == 0
    assert out.strip().endswith("result: PASS")


def test_check_reports_truncated_cells_on_stderr(tmp_path, capsys):
    datum = random_instance(
        InstanceSpec(r=1, generator_count=6, valuation_count=4, coordinate_bound=4, seed=6)
    )
    path = tmp_path / "truncating.json"
    path.write_text(dumps(ring_to_json(datum)))
    code, out, err = run(capsys, "check", "--input", str(path))
    assert code == 0
    assert out.endswith("result: PASS\n")
    assert err == "warning: [grid-truncated] 1 of 3 cells cut to 8 monoid generators\n"
    _, _, clean_err = run(capsys, "check", "--example", "blowup-P2")
    assert clean_err == ""


def test_oracle_command(capsys):
    code, out, _ = run(
        capsys, "oracle", "--example", "blowup-P2", "--point", "2,1", "--point", "1,1"
    )
    assert code == 0
    assert out.count("OK") == 2


def test_oracle_budget_bounds_all_levels(capsys):
    # the levels are taken one at a time and one budget bounds them all:
    # a billion levels end in BudgetExceeded, not a MemoryError traceback
    code, out, err = run(
        capsys, "oracle", "--example", "blowup-P2", "--point", "1,1",
        "--k-max", "1000000000", "--budget", "20000",
    )
    assert code == 4
    assert out == "" and err == "error: oracle enumeration budget exhausted\n"


def test_oracle_budget_bounds_the_whole_command(capsys):
    # the searches at (2, 1) and (3, 2) spend 37,406 nodes together and
    # 29,766 at (3, 2) alone; one budget bounds every point and valuation
    # of the command, not each of them
    both = ("oracle", "--example", "blowup-P2", "--point", "2,1", "--point", "3,2")
    for budget, expected in (("30000", 4), ("37405", 4), ("37406", 0)):
        code, out, err = run(capsys, *both, "--budget", budget)
        assert code == expected, budget
        if expected:
            assert out == "" and err == "error: oracle enumeration budget exhausted\n"
    code, out, _ = run(capsys, "oracle", "--example", "blowup-P2", "--point", "3,2",
                       "--budget", "30000")
    assert code == 0 and out.startswith("OK E at 3,2: ")


def test_check_skips_a_grid_over_the_lattice_budget(capsys):
    code, out, _ = run(capsys, "check", "--example", "blowup-P2", "--grid-depth", "5000")
    assert code == 0
    assert "note: grid additivity: 2 cell/valuation pairs, 2 skipped\n" in out


def test_oracle_requires_points(capsys):
    code, _, _ = run(capsys, "oracle", "--example", "blowup-P2")
    assert code == 2


def test_main_calls_share_no_point_list(capsys):
    # one parser serves every call, and each call's --point list starts empty
    _, first, _ = run(capsys, "oracle", "--example", "blowup-P2", "--point", "2,1")
    _, second, _ = run(capsys, "oracle", "--example", "blowup-P2", "--point", "1,1")
    assert first.startswith("OK E at 2,1:") and first.count("\n") == 1
    assert second.startswith("OK E at 1,1:") and second.count("\n") == 1
    code, out, _ = run(capsys, "oracle", "--example", "blowup-P2")
    assert (code, out) == (2, "")


def test_unknown_example_is_parse_error(capsys):
    code, _, err = run(capsys, "walk", "--example", "nope", "--h", "0,1")
    assert code == 2
    assert "nope" in err


def test_malformed_json_reports_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"r": 1,,}')
    code, _, err = run(capsys, "walk", "--input", str(path), "--h", "0,1")
    assert code == 2
    assert "line" in err


def test_validation_failure_exit_code(tmp_path, capsys):
    doc = ring_to_json(builtin_examples()["blowup-P2"])
    doc["generators"] = []
    path = tmp_path / "empty.json"
    path.write_text(dumps(doc))
    code, _, err = run(capsys, "decompose", "--input", str(path))
    assert code == 3
    assert "no-generators" in err


def test_budget_flag_must_be_positive(capsys):
    code, _, err = run(capsys, "check", "--example", "blowup-P2", "--budget", "-1")
    assert code == 3
    assert "positive" in err


def test_budget_env_is_not_read(monkeypatch, capsys):
    # --budget is the one budget setting; a budget of 0 would exit 3
    monkeypatch.setenv("MMPW_BUDGET", "0")
    code, _, _ = run(capsys, "check", "--example", "blowup-P2")
    assert code == 0


def test_stdin_input(monkeypatch, capsys):
    doc = dumps(ring_to_json(builtin_examples()["blowup-P2"], segment_h=(0, 1)))
    monkeypatch.setattr("sys.stdin", io.StringIO(doc))
    code, out, _ = run(capsys, "walk", "--input", "-")
    assert code == 0
    assert json.loads(out)["chambers"] == [0, 1]


def test_oracle_at_rational_point(capsys):
    code, out, _ = run(capsys, "oracle", "--example", "blowup-P2", "--point", "3/2,1")
    assert code == 0
    assert out == "OK E at 3/2,1: LP 1/2 = IP 1/2 at k=2\n"


def _one_line_error(err):
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (("veronese", "--degrees", "0,2"), 2),
        (("oracle", "--example", "blowup-P2", "--point", "1,2,3"), 3),
        (("oracle", "--example", "blowup-P2", "--point=-1,1"), 3),
        (("decompose", "--input", "/nonexistent.json"), 2),
        (("veronese", "--degrees", "2,3", "--m-max", "-2"), 3),
        (("veronese", "--degrees", "2,3", "--m-max", "0"), 3),
        (("walk", "--example", "blowup-P2", "--h", "0,1,5"), 3),
    ],
    ids=[
        "veronese-zero-degree",
        "oracle-point-dimension",
        "oracle-point-outside-support",
        "missing-input-file",
        "veronese-negative-m-max",
        "veronese-zero-m-max",
        "walk-h-dimension",
    ],
)
def test_bad_arguments_exit_with_documented_codes(capsys, argv, code):
    got, _, err = run(capsys, *argv)
    assert got == code
    assert _one_line_error(err)


def test_float_degree_is_parse_error(tmp_path, capsys):
    doc = json.loads(dumps(ring_to_json(builtin_examples()["blowup-P2"])))
    doc["generators"][0]["deg"] = [1.7, 0]
    path = tmp_path / "float.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "decompose", "--input", str(path))
    assert code == 2
    assert _one_line_error(err)


def test_invalid_cone_exit_code(tmp_path, capsys):
    doc = json.loads(dumps(ring_to_json(builtin_examples()["blowup-P2"])))
    doc["nef"] = {"rays": []}
    path = tmp_path / "empty_nef.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "decompose", "--input", str(path))
    assert code == 3
    assert _one_line_error(err)


def test_nef_inequality_of_wrong_dimension_exit_code(tmp_path, capsys):
    doc = json.loads(dumps(ring_to_json(builtin_examples()["blowup-P2"])))
    doc["nef"] = {"ineqs": [[1, 0, 0], [0, 1]]}
    path = tmp_path / "nef_dimension.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, "walk", "--input", str(path), "--h", "0,1")
    assert code == 3
    assert _one_line_error(err) and "dimension" in err


@pytest.mark.parametrize("command, field, value", [
    # mat_apply's zip truncated the longer row, so walk classified the chambers
    ("walk", "pushforward map", [["2", "6", "5"]]),
    ("walk", "pushforward map", [["2"]]),
    # a two-coordinate nef cone over a one-row numerical map
    ("decompose", "numerical_map", [["2", "6"]]),
    ("check", "numerical_map", [["2", "6"]]),
    ("walk", "numerical_map", [["2", "6"]]),
])
def test_maps_of_the_wrong_shape_fail_validation(tmp_path, capsys, command, field, value):
    doc = json.loads(dumps(ring_to_json(builtin_examples()["blowup-P2"])))
    if field == "pushforward map":
        doc["pushforwards"][0]["map"] = value
    else:
        doc[field] = value
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc))
    argv = ["--h=1,3"] if command == "walk" else []
    code, _, err = run(capsys, command, "--input", str(path), *argv)
    assert code == 3
    assert err.startswith("validation failed:\n") and "Traceback" not in err
    assert ("[bad-pushforward-map]" if field == "pushforward map" else "[nef-dimension]") in err


@pytest.mark.parametrize("field, error, rows", [
    pytest.param("numerical_map", "[bad-numerical-map]", [[]] * 6400,
                 id="numerical_map-[bad-numerical-map]"),
    pytest.param("pushforward map", "[bad-pushforward-map]", [[]] * 6400,
                 id="pushforward map-[bad-pushforward-map]"),
    # well-formed rows, more than r + 1 of them: the cone took 10 s and
    # 330 MB, and the exit was 0
    pytest.param("numerical_map", "[bad-numerical-map]", [["0", "0"]] * 3200,
                 id="numerical_map-more-than-r-plus-1-rows"),
    pytest.param("pushforward map", "[bad-pushforward-map]", [["0", "0"]] * 3200,
                 id="pushforward map-more-than-r-plus-1-rows"),
])
def test_a_map_of_malformed_rows_builds_no_nef_cone(monkeypatch, capsys, field, error, rows):
    # a malformed map's row count does not size a nef cone: built, the cone
    # over these 6,400 empty rows took 30 s and 1.3 GB before the exit 3
    doc = json.loads(dumps(ring_to_json(builtin_examples()["blowup-P2"])))
    nef = {"ineqs": []}
    if field == "pushforward map":
        doc["pushforwards"][0].update(map=rows, nef=nef)
    else:
        doc.update(numerical_map=rows, nef=nef)
    datum, _ = ring_from_json(doc)
    assert (datum.nef if field == "numerical_map" else datum.pushforwards[0].nef) is None
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run(capsys, "decompose", "--input", "-")
    assert (code, out) == (3, "")
    assert err.startswith("validation failed:\n") and error in err and "Traceback" not in err
    assert f"{len(rows)} rows, more than r + 1 = 2" in err


# the digit limit that int puts on its conversions to and from strings; 0
# where there is none
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT, reason="int has no digit limit")


def _blowup_with(*mults):
    """blowup-P2's document with its first generators' multiplicities at E
    replaced by ``mults``, in generator order."""
    doc = json.loads(dumps(ring_to_json(builtin_examples()["blowup-P2"])))
    for generator, m in zip(doc["generators"], mults):
        generator["mults"]["E"] = m
    return json.dumps(doc)


def _oversized_document(case):
    if case == "long integer":
        # json refuses a literal past int's digit limit with a ValueError
        text = _blowup_with()
        assert text.count('"r": 1,') == 1
        return text.replace('"r": 1,', f'"r": {"1" * (DIGIT_LIMIT + 700)},')
    if case == "deep nesting":
        return "[" * 100_000  # json's recursion ends in a RecursionError
    return _blowup_with("1e4300")  # Fraction reads an integer of 4,301 digits


@pytest.mark.parametrize("case", [pytest.param("long integer", marks=needs_digit_limit),
                                  "deep nesting", "exponent multiplicity"])
def test_oversized_documents_are_parse_errors(monkeypatch, capsys, case):
    # each ended in a traceback and exit 1, which reads as a failed check
    monkeypatch.setattr("sys.stdin", io.StringIO(_oversized_document(case)))
    code, out, err = run(capsys, "decompose", "--input", "-")
    assert (code, out) == (2, "")
    assert _one_line_error(err)


@pytest.mark.parametrize("argv", [
    ("oracle", "--example", "blowup-P2", "--point=1e100000,1"),
    ("oracle", "--example", "blowup-P2", "--point=1E3,1"),
    ("walk", "--example", "blowup-P2", "--h", "0,1e3"),
])
def test_exponent_points_are_parse_errors(capsys, argv):
    # the oracle ran 52 s on 1e100000 before its budget ended it
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert _one_line_error(err) and "bad point" in err


@needs_digit_limit
def test_a_result_too_long_to_write_exits_3(monkeypatch, capsys):
    # every literal is within the digit limit, but the multiplicities'
    # common denominator, and so a functional, is past it
    digits = DIGIT_LIMIT * 7 // 10
    text = _blowup_with("1/" + "7" * digits, "1", "1/" + "3" * (digits - 1) + "1")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "decompose", "--input", "-")
    assert (code, out) == (3, "")
    assert _one_line_error(err) and str(DIGIT_LIMIT) in err


@needs_digit_limit
def test_an_oracle_value_too_long_to_write_exits_3(monkeypatch, capsys):
    # the LP value at (2, 1) has a denominator past the digit limit, and its
    # text line wrote it with str, which ended in a traceback and exit 1
    digits = DIGIT_LIMIT * 7 // 10
    text = _blowup_with("1/" + "7" * digits, "1", "1/" + "3" * (digits - 1) + "1")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "oracle", "--input", "-", "--point", "2,1")
    assert (code, out) == (3, "")
    assert _one_line_error(err) and str(DIGIT_LIMIT) in err


@needs_digit_limit
@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_veronese_degree_too_long_to_write_exits_3(capsys, fmt):
    # the lcm of two coprime degrees of DIGIT_LIMIT // 2 + 1 digits
    degrees = f"{10 ** (DIGIT_LIMIT // 2) + 1},{10 ** (DIGIT_LIMIT // 2) + 3}"
    code, out, err = run(capsys, "veronese", "--degrees", degrees, "--m-max", "1", "--format", fmt)
    assert (code, out) == (3, "")
    assert _one_line_error(err) and str(DIGIT_LIMIT) in err


NOT_UTF8 = b'{"r": 1\xff}'


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_an_undecodable_byte_is_a_parse_error(tmp_path, monkeypatch, capsys, source):
    # a file read as UTF-8 text ended in a UnicodeDecodeError and exit 1;
    # stdin did too, or exited 2, by the locale's error handler
    path = tmp_path / "not-utf8.json"
    path.write_bytes(NOT_UTF8)
    stdin = io.TextIOWrapper(io.BytesIO(NOT_UTF8), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "decompose", "--input", str(path) if source == "file" else "-")
    assert (code, out) == (2, "")
    assert _one_line_error(err) and "can't decode byte 0xff" in err


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
def test_input_in_any_encoding_json_detects_is_read(tmp_path, capsys, encoding):
    _, expected, _ = run(capsys, "decompose", "--example", "blowup-P2")
    path = tmp_path / "blowup.json"
    path.write_bytes(dumps(ring_to_json(builtin_examples()["blowup-P2"])).encode(encoding))
    assert run(capsys, "decompose", "--input", str(path)) == (0, expected, "")


def test_support_mismatch_exit_code(monkeypatch, capsys):
    def mismatched(*args, **kwargs):
        raise SupportMismatch("fans do not share a support cone")

    monkeypatch.setattr("mmpwalk.cli.chamber_fan", mismatched)
    code, _, err = run(capsys, "decompose", "--example", "blowup-P2")
    assert code == 3
    assert _one_line_error(err)


def test_unwritable_output_is_parse_error(tmp_path, capsys):
    target = tmp_path / "missing" / "fan.json"
    code, out, err = run(capsys, "decompose", "--example", "blowup-P2", "--output", str(target))
    assert code == 2
    assert out == ""
    assert _one_line_error(err)
    assert err.startswith(f"error: cannot write output {str(target)!r}")


def test_validation_warnings_go_to_stderr(tmp_path, capsys):
    doc = ring_to_json(builtin_examples()["blowup-P2"])
    path = tmp_path / "untracked.json"
    path.write_text(dumps(doc))
    _, clean_out, clean_err = run(capsys, "decompose", "--input", str(path))
    doc["generators"][0]["mults"]["X"] = "1"
    path.write_text(dumps(doc))
    code, out, err = run(capsys, "decompose", "--input", str(path))
    assert code == 0
    assert out == clean_out
    assert clean_err == ""
    assert err == (
        "warning: [untracked-valuation] generator 0 carries a multiplicity"
        " for untracked valuation 'X'\n"
    )


@pytest.mark.parametrize("labels", [True, False], ids=["labels", "no-labels"])
def test_huge_rank_is_a_validation_error(monkeypatch, capsys, labels):
    # r + 1 does not match the multidegrees; nothing is built r times over
    doc = json.loads(dumps(ring_to_json(builtin_examples()["blowup-P2"])))
    doc["r"] = 10**30
    if not labels:
        del doc["labels"]
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    code, out, err = run(capsys, "decompose", "--input", "-")
    assert code == 3
    assert out == ""
    assert "[bad-multidegree]" in err


EXAMPLE_DOCS = {
    name: json.loads(dumps(ring_to_json(datum))) for name, datum in builtin_examples().items()
}
FUZZ_VALUES = (None, True, 1.5, "x", [], {}, 10**30)
DELETE = "delete the key"
FUZZ_COMMANDS = (
    ("decompose",),
    ("walk", "--h", "1,1"),
    ("check", "--grid-depth", "1"),
    ("oracle", "--point", "1,1", "--budget", "2000"),
)


def _paths(node, prefix=()):
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_documents(draw):
    """A builtin example's document with one value replaced or one key deleted."""
    doc = copy.deepcopy(EXAMPLE_DOCS[draw(st.sampled_from(sorted(EXAMPLE_DOCS)))])
    path = draw(st.sampled_from(list(_paths(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    mutation = draw(st.sampled_from(FUZZ_VALUES + ((DELETE,) if isinstance(parent, dict) else ())))
    if mutation == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = mutation
    return doc


# a document's bytes: as json.dumps writes them, with a byte that no
# encoding json detects can decode, after a UTF-8 byte-order mark, in UTF-16
ENCODINGS = {
    "utf-8": lambda data: data,
    "0xff byte": lambda data: data[:1] + b"\xff" + data[1:],
    "utf-8 BOM": lambda data: codecs.BOM_UTF8 + data,
    "utf-16": lambda data: data.decode().encode("utf-16"),
}


def _run_on_stdin(argv, stdin):
    """``main(argv)`` with ``stdin`` as ``sys.stdin``: its exit code, stdout
    and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch("sys.stdin", stdin),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@given(mutated_documents(), st.sampled_from(sorted(ENCODINGS)))
@settings(max_examples=200, derandomize=True, deadline=None)
def test_mutated_documents_end_in_a_documented_exit_code(doc, encoding):
    """Every exit code is documented, no run prints a traceback, and two
    runs of one document print the same stdout, whether it is read from a
    text stdin, a byte stdin or a file, and in either format."""
    data = ENCODINGS[encoding](json.dumps(doc).encode())
    # a text stdin holds what a locale's surrogateescape handler decodes
    text = data.decode("utf-8", "surrogateescape")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "wb") as fh:
            fh.write(data)
        for command in FUZZ_COMMANDS:
            for source, stdin, extra in (
                ("-", lambda: io.StringIO(text), ()),
                ("-", lambda: io.TextIOWrapper(io.BytesIO(data)), ()),
                (path, io.StringIO, ()),
                (path, io.StringIO, ("--format", "text")),
            ):
                argv = [*command, "--input", source, *extra]
                code, out, err = _run_on_stdin(argv, stdin())
                assert code in range(6), (argv, code)
                assert "Traceback" not in err, argv
                assert _run_on_stdin(argv, stdin())[:2] == (code, out), argv


# argv fuzz: a base command on a builtin example plus one or two flags, each
# bad, repeated or conflicting; every value is small, so no run is costly
ARGV_BASES = (
    ("decompose",),
    ("walk", "--h", "0,1"),
    ("check", "--grid-depth", "1"),
    ("oracle", "--point", "1,1", "--budget", "2000"),
)
POINT_VALUES = ("", "x", "1", "1,2,3", "1/0,1", "0,0", "-1,1", "3/2,1", "1.5,2", "nan,1", "1,1,")
ARGV_FLAGS = (
    *(("--h", v) for v in POINT_VALUES),
    *(("--point", v) for v in POINT_VALUES),
    *(("--seed", v) for v in ("x", "", "1.5", "-1", "0", "7", str(10**30))),
    *(("--grid-depth", v) for v in ("x", "", "1.5", "-1", "0", "1", "2")),
    ("--refine",),
    ("--no-refine",),
    ("--refine", "--no-refine"),
    ("--format", "text"),
    ("--format", "xml"),
    ("--example", "nonexistent"),
    ("--example", "fractional-vertex"),
    ("--k-max", "0"),
    ("--k-max", "2"),
    ("--budget", "-5"),
    ("--budget", "3"),
    ("--h",),
    ("--seed",),
)


@st.composite
def mutated_argvs(draw):
    """A base command on a builtin example followed by one or two fuzz flags;
    a flag the base already holds is repeated, and argparse keeps the last."""
    argv = [*draw(st.sampled_from(ARGV_BASES))]
    argv += ["--example", draw(st.sampled_from(sorted(EXAMPLE_DOCS)))]
    for flag in draw(st.lists(st.sampled_from(ARGV_FLAGS), min_size=1, max_size=2)):
        argv += flag
    return argv


def _run_quietly(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue()


@given(mutated_argvs())
@settings(max_examples=120, derandomize=True, deadline=None)
def test_mutated_argv_ends_in_a_documented_exit_code_with_stable_stdout(argv):
    code, out = _run_quietly(argv)
    assert code in range(6), (argv, code)
    assert _run_quietly(argv) == (code, out), argv
