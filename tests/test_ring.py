"""Input data model and validation."""

from dataclasses import replace
from fractions import Fraction

import pytest

from mmpwalk.cones import cone_from_rays
from mmpwalk.oracle import builtin_examples
from mmpwalk.ring import (
    GeneratorDatum,
    NefConeDatum,
    NumericalMap,
    PushforwardDatum,
    RingDatum,
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
        numerical=NumericalMap(matrix=((Fraction(1), Fraction(0)),), target_dim=1),
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
    bad = NumericalMap(matrix=((Fraction(1),),), target_dim=1)
    report = validate(make_datum(numerical=bad))
    assert any(e.code == "bad-numerical-map" for e in report.errors)


def test_numerical_rank_warning():
    thin = NumericalMap(
        matrix=((Fraction(1), Fraction(1)), (Fraction(2), Fraction(2))), target_dim=2
    )
    report = validate(make_datum(numerical=thin))
    assert report.ok()
    assert any(e.code == "numerical-rank" for e in report.warnings)


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
    identity = NumericalMap(matrix=((1, 0), (0, 1)), target_dim=2)
    nef = NefConeDatum(cone=cone_from_rays([(1, 0)]))
    report = validate(make_datum(numerical=identity, nef=nef))
    assert report.ok()
    assert any(e.code == "thin-nef" for e in report.warnings)


def test_nef_cone_must_live_in_its_maps_target():
    # a two-coordinate nef cone over a one-row numerical map validated with
    # only a thin-nef warning, and walk failed late on the point's dimension
    nef = NefConeDatum(cone=cone_from_rays([(1, 0), (0, 1)]))
    report = validate(make_datum(nef=nef))
    assert [e.code for e in report.errors] == ["nef-dimension"]


def _with_pushforward(matrix, nef_rays=((1,),)):
    blowup = builtin_examples()["blowup-P2"]
    pf = PushforwardDatum(model_id="P2", matrix=matrix,
                          nef=NefConeDatum(cone=cone_from_rays(list(nef_rays))))
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
    report = validate(_with_pushforward(matrix))
    assert [e.code for e in report.errors] == ["bad-pushforward-map"]


def test_pushforward_nef_cone_must_live_in_its_maps_target():
    report = validate(_with_pushforward(((2, 6),), nef_rays=((1, 0), (0, 1))))
    assert [e.code for e in report.errors] == ["nef-dimension"]
    assert "pushforward 'P2'" in report.errors[0].message


def test_support_cone_is_span_of_multidegrees():
    cone = support_cone(make_datum())
    assert cone.rays == ((0, 1), (1, 0))
    assert cone.is_full_dimensional()


def test_numerical_map_applies_rows():
    nm = NumericalMap(
        matrix=((Fraction(2), Fraction(6)), (Fraction(1), Fraction(-1))), target_dim=2
    )
    assert nm.apply((1, 1)) == (Fraction(8), Fraction(0))


def test_float_multidegree_is_reported_not_raised():
    # 1.0 has denominator 1 as a Fraction, yet a float must never reach rank
    gen = GeneratorDatum(multidegree=(1.0, 0), mults={"E": Fraction(0)})
    report = validate(make_datum(generators=(gen,) + make_datum().generators))
    assert [e.code for e in report.errors] == ["bad-multidegree"]
    assert not report.warnings


def test_float_numerical_map_entry_is_reported_not_raised():
    numerical = NumericalMap(matrix=((1.0, Fraction(0)),), target_dim=1)
    report = validate(make_datum(numerical=numerical))
    assert [e.code for e in report.errors] == ["bad-numerical-map"]
    assert not report.warnings


@pytest.mark.parametrize("mult", [0.5, 1.0, True, "1"])
def test_inexact_multiplicity_is_reported(mult):
    gen = GeneratorDatum(multidegree=(1, 1), mults={"E": mult})
    report = validate(make_datum(generators=(gen,) + make_datum().generators))
    assert [e.code for e in report.errors] == ["bad-mult"]
    assert not report.warnings


def test_int_and_fraction_multiplicities_pass():
    gens = (
        GeneratorDatum(multidegree=(1, 0), mults={"E": 2}),
        GeneratorDatum(multidegree=(0, 1), mults={"E": Fraction(1, 3)}),
    )
    assert validate(make_datum(generators=gens)).ok()
