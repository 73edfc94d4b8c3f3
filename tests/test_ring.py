"""Input data model and validation."""

import copy
import pickle
import re
from dataclasses import FrozenInstanceError, asdict, fields, replace
from enum import IntEnum
from fractions import Fraction

import pytest

from mmpwalk.cones import cone_from_rays
from mmpwalk.linalg import mat_apply
from mmpwalk.oracle import builtin_examples
from mmpwalk.orders import asymptotic_order
from mmpwalk.ring import (
    GeneratorDatum,
    PushforwardDatum,
    RingDatum,
    _FrozenDict,
    support_cone,
    validate,
)


def make_datum(**overrides):
    fields = dict(
        r=1,
        labels=("K", "D1"),
        generators=(
            GeneratorDatum(multidegree=(1, 0), mults={"E": Fraction(1)}),
            GeneratorDatum(multidegree=(0, 1), mults={"E": Fraction(0)}),
        ),
        valuations=("E",),
        numerical=((Fraction(1), Fraction(0)),),
    )
    fields.update(overrides)
    return RingDatum(**fields)


def test_valid_datum_passes():
    report = validate(make_datum())
    assert report.ok()
    assert not report.warnings


def test_grading_dim():
    assert make_datum().grading_dim == 2


def test_bad_rank_rejected():
    report = validate(make_datum(r=0, labels=("K",)))
    assert not report.ok()
    assert any(e.code == "bad-rank" for e in report.errors)


def test_no_generators_rejected():
    report = validate(make_datum(generators=()))
    assert any(e.code == "no-generators" for e in report.errors)


def test_duplicate_valuation_rejected():
    datum = make_datum(valuations=("E", "E"))
    report = validate(datum)
    assert any(e.code == "duplicate-valuation" for e in report.errors)


def test_multidegree_shape_and_sign_checked():
    bad_len = GeneratorDatum(multidegree=(1, 0, 0), mults={"E": Fraction(0)})
    report = validate(make_datum(generators=(bad_len,)))
    assert any(e.code == "bad-multidegree" for e in report.errors)

    negative = GeneratorDatum(multidegree=(-1, 1), mults={"E": Fraction(0)})
    report = validate(make_datum(generators=(negative,)))
    assert any(e.code == "bad-multidegree" for e in report.errors)

    zero = GeneratorDatum(multidegree=(0, 0), mults={"E": Fraction(0)})
    report = validate(make_datum(generators=(zero,)))
    assert any(e.code == "zero-multidegree" for e in report.errors)


def test_missing_and_negative_multiplicities_named():
    missing = GeneratorDatum(multidegree=(1, 0), mults={})
    report = validate(make_datum(generators=(missing,)))
    errs = [e for e in report.errors if e.code == "missing-mult"]
    assert errs and "'E'" in errs[0].message

    negative = GeneratorDatum(multidegree=(1, 0), mults={"E": Fraction(-1)})
    report = validate(make_datum(generators=(negative,)))
    assert any(e.code == "negative-mult" for e in report.errors)


def test_untracked_valuation_is_warning_only():
    gen = GeneratorDatum(multidegree=(1, 0), mults={"E": Fraction(0), "X": Fraction(1)})
    report = validate(make_datum(generators=(gen,)))
    assert report.ok()
    assert any(e.code == "untracked-valuation" for e in report.warnings)


def test_label_count_is_warning_only():
    report = validate(make_datum(labels=("K",)))
    assert report.ok()
    assert any(e.code == "label-count" for e in report.warnings)


def test_numerical_map_row_length_checked():
    bad = ((Fraction(1),),)
    report = validate(make_datum(numerical=bad))
    assert any(e.code == "bad-numerical-map" for e in report.errors)


def test_numerical_rank_warning():
    thin = ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(2)))
    report = validate(make_datum(numerical=thin))
    assert report.ok()
    assert any(e.code == "numerical-rank" for e in report.warnings)


def test_numerical_rank_is_measured_against_the_row_count():
    # a two-row map of rank 1 draws the warning however it is built: the
    # target dimension is the row count, which a map cannot contradict
    thin = ((Fraction(1), Fraction(0)), (Fraction(3), Fraction(0)))
    report = validate(make_datum(numerical=thin))
    assert [e.code for e in report.warnings] == ["numerical-rank"]


def test_a_map_of_more_than_r_plus_1_rows_is_rejected():
    # a map's rank is at most r + 1, fewer than these three rows, so it can
    # never have full row rank
    rows = ((1, 0), (0, 1), (1, 1))
    report = validate(make_datum(numerical=rows))
    assert [e.code for e in report.errors] == ["bad-numerical-map"]
    assert "3 rows, more than r + 1 = 2" in report.errors[0].message
    assert not report.warnings
    cube = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    report = validate(_with_pushforward(rows, nef_rays=cube))
    assert [e.code for e in report.errors] == ["bad-pushforward-map"]


def test_thin_support_warning():
    gens = (
        GeneratorDatum(multidegree=(1, 1), mults={"E": Fraction(0)}),
        GeneratorDatum(multidegree=(2, 2), mults={"E": Fraction(1)}),
    )
    report = validate(make_datum(generators=gens))
    assert report.ok()
    assert any(e.code == "thin-support" for e in report.warnings)


def test_thin_nef_warning():
    # the nef cone lives in the numerical map's two-coordinate target
    identity = ((1, 0), (0, 1))
    nef = cone_from_rays([(1, 0)])
    report = validate(make_datum(numerical=identity, nef=nef))
    assert report.ok()
    assert any(e.code == "thin-nef" for e in report.warnings)


def test_nef_cone_must_live_in_its_maps_target():
    # a two-coordinate nef cone over a one-row numerical map validated with
    # only a thin-nef warning, and walk failed late on the point's dimension
    nef = cone_from_rays([(1, 0), (0, 1)])
    report = validate(make_datum(nef=nef))
    assert [e.code for e in report.errors] == ["nef-dimension"]


def test_nef_cone_needs_a_numerical_map():
    # validated with no entries, then classify_nef and ring_to_json raised
    # on the missing map; a JSON document always has one
    report = validate(make_datum(numerical=None, nef=cone_from_rays([(1,)])))
    assert [e.code for e in report.errors] == ["nef-without-map"]


def _with_pushforward(matrix, nef_rays=((1,),)):
    blowup = builtin_examples()["blowup-P2"]
    pf = PushforwardDatum(model_id="P2", matrix=matrix, nef=cone_from_rays(list(nef_rays)))
    return replace(blowup, pushforwards=(pf,))


def test_builtin_pushforward_validates():
    assert validate(builtin_examples()["blowup-P2"]).ok()
    assert validate(_with_pushforward(((Fraction(2), 6),))).ok()


@pytest.mark.parametrize("matrix", [
    ((2, 6, 5),),  # dot truncated the longer row
    ((2,),),  # and the point
    ((2.0, 6),),
    ((2, "6"),),
])
def test_pushforward_map_shape_and_entries_checked(matrix):
    # a map of the wrong shape is reported; an inexact entry cannot be built
    if all(type(x) is int for row in matrix for x in row):
        report = validate(_with_pushforward(matrix))
        assert [e.code for e in report.errors] == ["bad-pushforward-map"]
    else:
        with pytest.raises(TypeError, match="matrix holds"):
            _with_pushforward(matrix)


def test_pushforward_nef_cone_must_live_in_its_maps_target():
    report = validate(_with_pushforward(((2, 6),), nef_rays=((1, 0), (0, 1))))
    assert [e.code for e in report.errors] == ["nef-dimension"]
    assert "pushforward 'P2'" in report.errors[0].message


def test_support_cone_is_span_of_multidegrees():
    cone = support_cone(make_datum())
    assert cone.rays == ((0, 1), (1, 0))
    assert cone.is_full_dimensional()


def test_numerical_map_applies_rows():
    nm = ((Fraction(2), Fraction(6)), (Fraction(1), Fraction(-1)))
    assert mat_apply(nm, (1, 1)) == (Fraction(8), Fraction(0))


def test_float_multidegree_raises_when_built():
    # 1.0 has denominator 1 as a Fraction, yet a float must never reach rank
    with pytest.raises(TypeError, match=r"multidegree holds 1\.0, not an int$"):
        GeneratorDatum(multidegree=(1.0, 0), mults={"E": Fraction(0)})


def test_float_numerical_map_entry_raises_when_built():
    with pytest.raises(TypeError, match=r"numerical holds 1\.0, not an int or a Fraction"):
        make_datum(numerical=((1.0, Fraction(0)),))


@pytest.mark.parametrize("mult", [0.5, 1.0, True, "1"])
def test_inexact_multiplicity_is_reported(mult):
    # reported by the TypeError of the constructor, before validation
    with pytest.raises(TypeError, match=re.escape(f"mults holds {mult!r}")):
        GeneratorDatum(multidegree=(1, 1), mults={"E": mult})


def test_int_and_fraction_multiplicities_pass():
    gens = (
        GeneratorDatum(multidegree=(1, 0), mults={"E": 2}),
        GeneratorDatum(multidegree=(0, 1), mults={"E": Fraction(1, 3)}),
    )
    assert validate(make_datum(generators=gens)).ok()


class _Third(Fraction):
    pass


class _Degree(IntEnum):
    ONE = 1


@pytest.mark.parametrize("build", [
    lambda: GeneratorDatum(multidegree=(1, 1), mults={"E": _Third(1, 3)}),
    lambda: GeneratorDatum(multidegree=(_Degree.ONE, 1), mults={"E": 1}),
    lambda: make_datum(numerical=((_Third(1), Fraction(0)),)),
    lambda: make_datum(numerical=((True, 0),)),
], ids=["fraction-subclass-mult", "intenum-degree", "fraction-subclass-map", "bool-map"])
def test_a_subclass_is_not_exact(build):
    # validate passed a Fraction-subclass multiplicity that the LP then
    # rejected; exact means an int or a Fraction by type, as in linalg
    with pytest.raises(TypeError, match="holds"):
        build()


_PF = PushforwardDatum(model_id="P2", matrix=((2, 6),), nef=cone_from_rays([(1,)]))

# each number field of a datum: (the field the error names, a build of an
# object holding the value there, the same by replace)
NUMBER_FIELDS = {
    "multidegree": ("multidegree",
                    lambda v: GeneratorDatum(multidegree=(v, 0), mults={"E": 1}),
                    lambda v: replace(make_datum().generators[0], multidegree=(v, 0))),
    "tracked-mult": ("mults",
                     lambda v: GeneratorDatum(multidegree=(1, 0), mults={"E": v}),
                     lambda v: replace(make_datum().generators[0], mults={"E": v})),
    "untracked-mult": ("mults",
                       lambda v: GeneratorDatum(multidegree=(1, 0), mults={"E": 1, "X": v}),
                       lambda v: replace(make_datum().generators[0], mults={"E": 1, "X": v})),
    "numerical": ("numerical",
                  lambda v: make_datum(numerical=((1, 0), (v, 1))),
                  lambda v: replace(make_datum(), numerical=((1, 0), (v, 1)))),
    "pushforward-map": ("matrix",
                        lambda v: PushforwardDatum(model_id="P2", matrix=((v, 6),), nef=_PF.nef),
                        lambda v: replace(_PF, matrix=((v, 6),))),
    "r": ("r", lambda v: make_datum(r=v), lambda v: replace(make_datum(), r=v)),
}
INEXACT_VALUES = {"1.5": 1.5, "1.0": 1.0, "True": True, "str": "1",
                  "fraction-subclass": _Third(1), "intenum": _Degree.ONE}


@pytest.mark.parametrize("value", INEXACT_VALUES.values(), ids=INEXACT_VALUES)
@pytest.mark.parametrize("field", NUMBER_FIELDS)
def test_each_number_field_is_exact_by_type_when_built(field, value):
    # r=1.0 and r=True validated with no entry; the float then failed in
    # make_segment and the bool was read as 1
    name, build, rebuild = NUMBER_FIELDS[field]
    for make in (build, rebuild):
        with pytest.raises(TypeError, match=re.escape(f"{name} holds {value!r}, not an int")):
            make(value)
    # the same builds take an exact value
    build(1)
    rebuild(1)


# each container field of a datum, a wrong value for it and the message it
# raises: a flat map raised "'int' object is not iterable"; a generator or
# a pushforward of another type, and labels that are an int, built and
# made validate raise; a str was read as its characters
CONTAINER_CASES = {
    "flat-numerical": (dict(numerical=(2, 6)), "numerical holds 2, not a tuple or a list"),
    "str-numerical-row": (dict(numerical=("10",)), "numerical holds '10', not a tuple or a list"),
    "int-generator": (dict(generators=[1]), "generators holds 1, not a GeneratorDatum"),
    "int-pushforward": (dict(pushforwards=(1,)), "pushforwards holds 1, not a PushforwardDatum"),
    "int-labels": (dict(labels=5), "labels is 5, not a sequence"),
    "str-labels": (dict(labels="D0"), "labels is 'D0', not a sequence"),
    "int-label": (dict(labels=("K", 1)), "labels holds 1, not a str"),
    "str-valuations": (dict(valuations="E"), "valuations is 'E', not a sequence"),
    "int-valuation": (dict(valuations=(1,)), "valuations holds 1, not a str"),
    "str-pushforward-map": (dict(pf_matrix="26"), "matrix is '26', not a sequence"),
}


@pytest.mark.parametrize("case", CONTAINER_CASES)
def test_each_container_field_is_checked_when_built(case):
    overrides, message = CONTAINER_CASES[case]
    if "pf_matrix" in overrides:
        builds = [lambda: PushforwardDatum(model_id="P2", matrix=overrides["pf_matrix"],
                                           nef=_PF.nef),
                  lambda: replace(_PF, matrix=overrides["pf_matrix"])]
    else:
        builds = [lambda: make_datum(**overrides), lambda: replace(make_datum(), **overrides)]
    for build in builds:
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            build()
    # every sequence field is stored as a tuple, whatever sequence it was given
    datum = make_datum(labels=["K", "D1"], valuations=["E"], pushforwards=[_PF])
    assert datum == make_datum(pushforwards=(_PF,))
    assert all(type(x) is tuple for x in (datum.labels, datum.valuations, datum.pushforwards))
    assert validate(datum).ok()


def test_a_multiplicity_cannot_be_changed_in_place():
    mults = make_datum().generators[0].mults
    changes = [
        lambda m: m.__setitem__("E", Fraction(2)),
        lambda m: m.__setitem__("F", Fraction(2)),
        lambda m: m.__delitem__("E"),
        lambda m: m.update(E=Fraction(2)),
        lambda m: m.__ior__({"E": Fraction(2)}),
        lambda m: m.setdefault("F", Fraction(2)),
        lambda m: m.pop("E"),
        lambda m: m.popitem(),
        lambda m: m.clear(),
    ]
    for change in changes:
        with pytest.raises(TypeError, match="cannot be changed"):
            change(mults)
    assert mults == {"E": Fraction(1)}
    with pytest.raises(FrozenInstanceError):
        make_datum().generators[0].mults = {}


def test_a_list_or_dict_passed_in_is_copied():
    degree, mults = [1, 0], {"E": Fraction(1)}
    gen = GeneratorDatum(multidegree=degree, mults=mults)
    generators = [gen, GeneratorDatum(multidegree=(0, 1), mults={"E": Fraction(0)})]
    datum = make_datum(generators=generators)
    degree[0] = 5
    mults["E"] = Fraction(3)
    mults["F"] = Fraction(0)
    generators.pop()
    assert datum == make_datum()
    assert type(datum.generators) is tuple and type(gen.multidegree) is tuple
    assert gen.multidegree == (1, 0) and gen.mults == {"E": Fraction(1)}
    # a map is stored as a tuple of tuples
    rows = [[1, 0]]
    for stored in (make_datum(numerical=rows).numerical,
                   PushforwardDatum(model_id="P2", matrix=rows, nef=_PF.nef).matrix):
        rows[0][0] = 5
        assert stored == ((1, 0),) and type(stored) is tuple and type(stored[0]) is tuple
        rows[0][0] = 1


def test_copies_pickles_replace_and_asdict_work_as_on_plain_data():
    datum = make_datum()
    # a query keeps its key with the datum, which no comparison or copy reads
    assert asymptotic_order(datum, "E", (1, 1)).value == 1
    for twin in (copy.deepcopy(datum), pickle.loads(pickle.dumps(datum)), replace(datum)):
        assert twin == datum and repr(twin) == repr(datum)
        with pytest.raises(TypeError, match="cannot be changed"):
            twin.generators[0].mults["E"] = Fraction(2)
    plain = asdict(datum)["generators"][1]
    assert plain == {"multidegree": (0, 1), "mults": {"E": Fraction(0)}}
    # asdict rebuilds a dict subclass as its own type: the copy is read-only too
    assert type(plain["mults"]) is _FrozenDict
    changed = replace(datum.generators[0], mults={"E": Fraction(2)})
    assert changed.mults == {"E": Fraction(2)} and datum.generators[0].mults == {"E": Fraction(1)}
    # the keys that order queries keep are no field
    assert [f.name for f in fields(datum)] == [
        "r", "labels", "generators", "valuations", "numerical", "nef", "pushforwards"]
