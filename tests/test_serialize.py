"""JSON interchange: exactness, complete writers, byte stability."""

import io
import json
import sys
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from mmpwalk import builtin_examples, chamber_fan, random_instance
from mmpwalk.cli import main
from mmpwalk.cones import cone_from_rays
from mmpwalk.errors import InconsistentInput, MmpwalkError, ParseError
from mmpwalk.orders import cell_functionals
from mmpwalk.ring import validate
from mmpwalk.serialize import (
    cone_to_json,
    dumps,
    fan_to_json,
    loads,
    rat_from_str,
    rat_to_str,
    ring_from_json,
    ring_to_json,
)

from corpus import corpus_spec


def test_rational_strings_roundtrip():
    for x in [Fraction(1, 3), Fraction(-7, 2), Fraction(5), Fraction(0)]:
        assert rat_from_str(rat_to_str(x)) == x
    assert rat_to_str(Fraction(4)) == "4"
    assert rat_to_str(Fraction(1, 3)) == "1/3"


def test_rat_to_str_writes_ints_and_fractions_and_nothing_else():
    # a float became the Fraction it rounds to, such as
    # 3602879701896397/36028797018963968 for 0.1, without a word
    for x in [0, 7, -12, 10**40, Fraction(1, 3), Fraction(-7, 2), Fraction(6, 3), Fraction(0)]:
        assert rat_to_str(x) == str(Fraction(x))
    for bad in [0.1, 0.5, 2.0, True, "1/2", None]:
        with pytest.raises(TypeError, match="not exact"):
            rat_to_str(bad)
    datum = builtin_examples()["blowup-P2"]
    with pytest.raises(TypeError, match="not exact"):
        ring_to_json(datum, segment_h=(0.5, 1))
    doc = ring_to_json(datum, segment_h=(Fraction(1, 2), 1))
    assert doc["segment"] == {"h": ["1/2", "1"]}


def test_bad_rational_raises():
    with pytest.raises(ParseError):
        rat_from_str("1/0")
    with pytest.raises(ParseError):
        rat_from_str("one third")


def _fraction_reader(s):
    """``rat_from_str`` as it read every entry with ``Fraction(s)``."""
    if isinstance(s, (bool, float)):
        raise ParseError(f"{s!r} is not exact: write an integer or a \"p/q\" string")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {s!r}: {exc}") from None


def _outcome(read, s):
    try:
        got = read(s)
    except ParseError as exc:
        return ParseError, str(exc)
    return type(got), got


@pytest.mark.parametrize("s", [
    "0", "7", "-3", "+3", "-0", "07", "1_0", "_1", "1_", "1__0", " 7 ", "\t-2\n", "٣", "-٣",
    "１２", "1.5", ".5", "3/4", "-6/4", "1/0", "", " ", "x", "-", "+", "--1", "+-1",
    "1 2", "0x10", "1" * 5000, "-" + "1" * 5000, str(10**40), 0, 5, -4, 10**40,
    True, False, 1.0, 1.5, float("nan"),
])
def test_rat_from_str_reads_as_fraction_does(s):
    # integer strings skip Fraction's regular expression; the value, its
    # type and every ParseError message stay what Fraction(s) gives
    assert _outcome(rat_from_str, s) == _outcome(_fraction_reader, s)
    if not isinstance(s, (bool, float)) and _outcome(rat_from_str, s)[0] is Fraction:
        assert rat_from_str(s) == Fraction(s)


@pytest.mark.parametrize("s", ["1e3", "1E3", "1e-3", "1.5e2", "-2e1", "1e4300", "1e10000000"])
def test_rat_from_str_rejects_exponent_notation(s):
    # Fraction reads "1e4300" as an integer of 4,301 digits, past the digit
    # limit int puts on every other literal, and "1e10000000" takes seconds
    with pytest.raises(ParseError, match="exponent notation"):
        rat_from_str(s)


def _corpus_datum(seed):
    """Corpus document ``seed``, read."""
    return ring_from_json(loads(dumps(ring_to_json(random_instance(corpus_spec(seed))))))[0]


def test_fan_documents_hold_every_cone_and_functional():
    # no command reads a fan document back: the written rays rebuild each
    # cone, and the written functionals read back as the cells' labels
    data = [*builtin_examples().values(), *(_corpus_datum(seed) for seed in range(1, 11))]
    for datum in data:
        for refine in (True, False):
            fan = chamber_fan(datum, refine=refine)
            doc = loads(dumps(fan_to_json(fan, cell_functionals(datum, fan))))
            assert cone_from_rays(doc["support"]["rays"]) == fan.support
            assert len(doc["cells"]) == len(fan.cells)
            for cell_doc, cell in zip(doc["cells"], fan.cells):
                assert cone_from_rays(cell_doc["rays"]) == cell
            assert list(doc["functionals"]) == sorted(datum.valuations)
            for i, valuation in enumerate(datum.valuations):
                written = doc["functionals"][valuation]
                assert len(written) == len(fan.labels)
                for functional, label in zip(written, fan.labels):
                    assert tuple(rat_from_str(x) for x in functional) == tuple(label[i])
    ray = cone_from_rays([(2, 3)])
    doc = loads(dumps(cone_to_json(ray)))
    assert cone_from_rays(doc["rays"]) == ray
    assert ray.equations and doc["equations"] == [list(eq) for eq in ray.equations]


def test_ring_roundtrip_preserves_everything():
    datum = builtin_examples()["blowup-P2"]
    restored, seg_h = ring_from_json(ring_to_json(datum))
    assert seg_h is None
    assert restored.r == datum.r
    assert restored.labels == datum.labels
    assert restored.generators == datum.generators
    assert restored.valuations == datum.valuations
    assert restored.numerical == datum.numerical
    assert restored.nef == datum.nef
    assert restored.pushforwards == datum.pushforwards


def test_ring_roundtrip_with_segment():
    datum = builtin_examples()["blowup-P2"]
    doc = ring_to_json(datum, segment_h=(Fraction(0), Fraction(1)))
    _, seg_h = ring_from_json(doc)
    assert seg_h == (Fraction(0), Fraction(1))


def test_malformed_ring_raises_parse_error():
    with pytest.raises(ParseError):
        ring_from_json({"r": 1})
    with pytest.raises(ParseError):
        ring_from_json({"r": 1, "generators": [{"deg": [1, 0]}], "numerical_map": []})


def test_dumps_is_byte_stable():
    datum = builtin_examples()["blowup-P2"]
    a = dumps(ring_to_json(datum))
    b = dumps(ring_to_json(datum))
    assert a == b
    assert a.endswith("\n")


_TEXT_CHARS = 'ab Z0"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u20ac\u2028\U0001d11e'


def _random_text(rng):
    return "".join(rng.choice(_TEXT_CHARS) for _ in range(rng.randrange(6)))


def _random_tree(rng, depth):
    """A seeded JSON document: escapes, non-ASCII text, big ints, bools,
    None, floats, empty and nested lists, tuples and objects."""
    kind = rng.randrange(12 if depth > 0 else 6)
    if kind == 0:
        return _random_text(rng)
    if kind == 1:
        return rng.randint(-(10**40), 10**40)
    if kind == 2:
        return rng.randint(-3, 3)
    if kind == 3:
        return rng.choice([True, False, None])
    if kind == 4:
        return rng.choice([[], {}, ()])
    if kind == 5:
        return rng.choice([0.5, -2.0, 1e300])
    size = rng.randrange(1, 5)
    if kind < 8:
        return [_random_tree(rng, depth - 1) for _ in range(size)]
    if kind < 10:
        return tuple(_random_tree(rng, depth - 1) for _ in range(size))
    return {_random_text(rng): _random_tree(rng, depth - 1) for _ in range(size)}


def test_dumps_writes_what_the_stdlib_writes():
    rng = Random(20231)
    for _ in range(400):
        doc = _random_tree(rng, rng.randrange(7))
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    deep = "leaf"
    for i in range(40):
        deep = [i, {"k": deep}] if i % 2 else (deep,)
    for doc in [deep, {"a": {}, "b": [[], ()], "c": [{}]}, {1: "int key", 2: [3]},
                {"\u00e9": "\u00e9", "\n": "\n", "": ""}, ["\ud800"], [True, False, None]]:
        assert dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [Fraction(1, 2), {1, 2}, object(), b"bytes"],
                         ids=["fraction", "set", "object", "bytes"])
def test_dumps_rejects_what_is_not_a_document(value):
    for doc in [value, [1, value], {"key": (value,)}]:
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2, sort_keys=True)
        with pytest.raises(TypeError):
            dumps(doc)


def test_loads_reports_position():
    with pytest.raises(ParseError) as info:
        loads('{"a": }')
    assert "line 1" in str(info.value)


def test_loads_turns_json_limits_into_parse_errors():
    # json raised RecursionError on deep nesting and ValueError on a literal
    # past int's digit limit, which ended in a traceback
    with pytest.raises(ParseError, match="recursion"):
        loads("[" * 100_000)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        with pytest.raises(ParseError, match="limit"):
            loads("1" * (limit + 1))


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="int has no digit limit")
def test_a_number_too_long_to_write_raises_mmpwalk_error():
    # str() raised ValueError past the digit limit; the limit is named
    limit = sys.get_int_max_str_digits()
    big = 10 ** limit
    for write in (lambda: rat_to_str(Fraction(1, big)), lambda: rat_to_str(big),
                  lambda: dumps({"a": [big]})):
        with pytest.raises(MmpwalkError, match=f"more than {limit} digits"):
            write()


def test_exactness_survives_roundtrip():
    # a value no float can carry exactly
    doc = {"x": rat_to_str(Fraction(1, 3))}
    text = dumps(doc)
    assert rat_from_str(loads(text)["x"]) * 3 == 1


@pytest.mark.parametrize(
    "path, value",
    [
        (("generators", 0, "deg", 0), 1.7),
        (("generators", 0, "deg", 0), 1.0),
        (("generators", 0, "deg", 0), "1/2"),
        (("generators", 0, "mults", "E"), 0.1),
        (("r",), 1.0),
        (("nef", "rays", 0, 0), 0.5),
    ],
    ids=["float-degree", "integral-float-degree", "fraction-degree", "float-mult",
         "float-rank", "float-nef-ray"],
)
def test_inexact_or_non_integer_numbers_are_rejected(path, value):
    doc = loads(dumps(ring_to_json(builtin_examples()["blowup-P2"])))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ParseError):
        ring_from_json(doc)


def _blowup_doc():
    return loads(dumps(ring_to_json(builtin_examples()["blowup-P2"])))


@pytest.mark.parametrize(
    "path, value",
    [(("valuations",), [{}]), (("valuations",), [["E"]]), (("generators", 0, "mults"), "1/0"),
     (("generators", 0, "mults"), ["E", "1"]), (("labels",), "xy"), (("labels",), [{}]),
     (("labels",), [1]), (("labels",), ["K", ["D1"]]), (("labels",), None),
     (("pushforwards", 0, "model_id"), ["x"]), (("pushforwards", 0, "model_id"), 7)],
    ids=["object-valuation", "list-valuation", "string-mults", "list-mults", "string-labels",
         "object-label", "int-label", "list-label", "null-labels", "list-model-id",
         "int-model-id"],
)
def test_malformed_names_and_multiplicities_are_parse_errors(monkeypatch, capsys, path, value):
    doc = _blowup_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ParseError):
        ring_from_json(doc)
    monkeypatch.setattr("sys.stdin", io.StringIO(dumps(doc)))
    assert main(["decompose", "--input", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_default_labels_follow_r():
    doc = _blowup_doc()
    del doc["labels"]
    assert ring_from_json(doc)[0].labels == ("D0", "D1")


@pytest.mark.parametrize(
    "path, value",
    [(("generators", 0, "deg"), "10"), (("numerical_map", 0), "26"), (("numerical_map",), "26"),
     (("valuations",), "E"), (("nef", "rays", 0), "10"), (("segment", "h"), "01")],
    ids=["string-degree", "string-map-row", "string-map", "string-valuations", "string-nef-ray",
         "string-segment"],
)
def test_strings_are_not_read_as_arrays(monkeypatch, capsys, path, value):
    # iterating "10" would give the multidegree (1, 0) without an error
    doc = loads(dumps(ring_to_json(builtin_examples()["blowup-P2"], segment_h=(0, 1))))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ParseError):
        ring_from_json(doc)
    monkeypatch.setattr("sys.stdin", io.StringIO(dumps(doc)))
    assert main(["decompose", "--input", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_ring_without_numerical_map_is_not_written():
    # validate accepts a datum with no numerical map and no nef cone, and
    # ring_to_json raised AttributeError on it; a document always has a map
    datum = replace(builtin_examples()["blowup-P2"], numerical=None, nef=None, pushforwards=())
    assert validate(datum).errors == []
    with pytest.raises(InconsistentInput, match="numerical map"):
        ring_to_json(datum)
