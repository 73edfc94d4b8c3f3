"""JSON document formats.

The package reads one document, the ring datum (``ring_from_json``), and
writes four: the cone, fan, ring and trace documents.  Rationals travel
as "p/q" strings (plain "p" for integers) so exactness survives
serialization; a decimal such as "1.5" is read too, but no exponent
notation.  Only an ``int`` or a ``Fraction`` is written as one, and a
float raises TypeError.  All collections are emitted in canonical order
so identical inputs give byte-identical documents.  ``dumps`` writes a
document as ``json.dumps(doc, indent=2, sort_keys=True)`` does, byte for
byte, but writes strs, ints, lists and str-keyed dicts itself, since
``json`` runs its pure-Python encoder whenever ``indent`` is set.
"""

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .cones import cone_from_rays, cone_from_halfspaces
from .errors import InconsistentInput, MmpwalkError, ParseError
from .linalg import _EXACT_TYPES
from .ring import GeneratorDatum, PushforwardDatum, RingDatum


def _too_long():
    # ``str`` refuses an int past its digit limit: the result cannot be written
    return MmpwalkError(f"a result holds an integer of more than "
                        f"{sys.get_int_max_str_digits()} digits, too long to write")


def rat_to_str(x):
    """``x`` as a "p/q" string, plain "p" for an integer.  Only an ``int``
    or a ``Fraction`` is exact: anything else, such as a float, raises
    TypeError rather than being written as the ``Fraction`` it rounds to.
    A numerator or denominator past the digit limit of ``str`` raises
    MmpwalkError."""
    if type(x) in _EXACT_TYPES:
        try:
            return str(x)
        except ValueError:
            raise _too_long() from None
    raise TypeError(f"{x!r} is not exact: write an int or a Fraction")


def _reject_float(x):
    # a JSON float is a binary approximation: never coerce it to an exact value
    if isinstance(x, (bool, float)):
        raise ParseError(f"{x!r} is not exact: write an integer or a \"p/q\" string")


def _int_from_json(x):
    _reject_float(x)
    try:
        return int(x)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"bad integer {x!r}: {exc}") from None


def _str_from_json(x):
    if not isinstance(x, str):
        raise ParseError(f"bad string {x!r}: expected a JSON string")
    return x


def _list_from_json(x):
    # a JSON string is iterable too: never read it as a list of characters
    if not isinstance(x, (list, tuple)):
        raise ParseError(f"bad array {x!r}: expected a JSON array")
    return x


def _obj_from_json(x):
    if not isinstance(x, dict):
        raise ParseError(f"bad object {x!r}: expected a JSON object")
    return x


def rat_from_str(s):
    """The ``Fraction`` that ``Fraction(s)`` reads, or ParseError.  A JSON
    float or bool is rejected, and so is exponent notation: ``Fraction``
    reads "1e4300" as an integer of 4,301 digits, past ``int``'s digit
    limit, and a larger exponent takes seconds.  A string of decimal
    digits with at most a sign, as most entries of a document are, is read
    by ``int`` without ``Fraction``'s regular expression; both read such a
    string alike."""
    _reject_float(s)
    try:
        if type(s) is str and (s[1:] if s[:1] in ("-", "+") else s).isdecimal():
            return Fraction(int(s))
        if type(s) is str and ("e" in s or "E" in s):
            raise ValueError("exponent notation is not read")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational literal {s!r}: {exc}") from None


def vec_to_json(v):
    return [rat_to_str(x) for x in v]


def vec_from_json(v):
    return tuple(rat_from_str(x) for x in _list_from_json(v))


def matrix_to_json(m):
    return [vec_to_json(row) for row in m]


def matrix_from_json(m):
    return tuple(vec_from_json(row) for row in _list_from_json(m))


def cone_to_json(cone):
    doc = {
        "ambient_dim": cone.ambient_dim,
        "rays": [list(r) for r in cone.rays],
        "facets": [list(f) for f in cone.facets],
    }
    if cone.equations:
        doc["equations"] = [list(eq) for eq in cone.equations]
    return doc


def fan_to_json(fan, functionals=None):
    doc = {
        "support": cone_to_json(fan.support),
        "cells": [cone_to_json(c) for c in fan.cells],
    }
    if functionals is not None:
        doc["functionals"] = {
            valuation: [vec_to_json(f) for f in per_cell]
            for valuation, per_cell in sorted(functionals.items())
        }
    return doc


def nef_to_json(nef):
    return {"rays": [list(r) for r in nef.rays]}


def nef_from_json(doc, matrix, n):
    """The nef cone in the target coordinates of ``matrix``, or None when
    ``matrix`` has more than ``n`` rows or a row not of length ``n``:
    validation rejects such a map on its own, and its row count is not
    trusted to size a cone."""
    if len(matrix) > n or any(len(row) != n for row in matrix):
        return None
    if "rays" in doc:
        return cone_from_rays([vec_from_json(r) for r in doc["rays"]])
    if "ineqs" in doc:
        return cone_from_halfspaces([vec_from_json(f) for f in doc["ineqs"]], len(matrix))
    raise ParseError("nef cone needs either 'rays' or 'ineqs'")


def ring_to_json(datum, segment_h=None):
    if datum.numerical is None:
        # the document format requires a numerical map
        raise InconsistentInput("the datum has no numerical map to write as 'numerical_map'")
    doc = {
        "r": datum.r,
        "labels": list(datum.labels),
        "generators": [
            {
                "deg": list(g.multidegree),
                "mults": {name: rat_to_str(v) for name, v in sorted(g.mults.items())},
            }
            for g in datum.generators
        ],
        "valuations": list(datum.valuations),
        "numerical_map": matrix_to_json(datum.numerical),
    }
    if datum.nef is not None:
        doc["nef"] = nef_to_json(datum.nef)
    if datum.pushforwards:
        doc["pushforwards"] = [
            {
                "model_id": pf.model_id,
                "map": matrix_to_json(pf.matrix),
                "nef": nef_to_json(pf.nef),
            }
            for pf in datum.pushforwards
        ]
    if segment_h is not None:
        doc["segment"] = {"h": vec_to_json(segment_h)}
    return doc


def ring_from_json(doc):
    try:
        r = _int_from_json(doc["r"])
        n = r + 1
        generators = tuple(
            GeneratorDatum(
                multidegree=tuple(_int_from_json(x) for x in _list_from_json(g["deg"])),
                mults={
                    name: rat_from_str(v) for name, v in _obj_from_json(g["mults"]).items()
                },
            )
            for g in doc["generators"]
        )
        numerical = matrix_from_json(doc["numerical_map"])
        nef = None
        if "nef" in doc:
            nef = nef_from_json(doc["nef"], numerical, n)
        pushforwards = []
        for pf in doc.get("pushforwards", []):
            pf_matrix = matrix_from_json(pf["map"])
            pushforwards.append(PushforwardDatum(
                model_id=_str_from_json(pf["model_id"]),
                matrix=pf_matrix,
                nef=nef_from_json(pf["nef"], pf_matrix, n),
            ))
        if "labels" in doc:
            labels = tuple(_str_from_json(label) for label in _list_from_json(doc["labels"]))
        elif n <= max((len(g.multidegree) for g in generators), default=0):
            labels = tuple(f"D{i}" for i in range(n))
        else:
            # r + 1 exceeds every multidegree, so the datum cannot validate:
            # no default labels, whose number r could make unbounded
            labels = ()
        datum = RingDatum(
            r=r,
            labels=labels,
            generators=generators,
            valuations=tuple(
                _str_from_json(v) for v in _list_from_json(doc.get("valuations", []))
            ),
            numerical=numerical,
            nef=nef,
            pushforwards=tuple(pushforwards),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed ring datum: {exc!r}") from None
    segment_h = None
    if "segment" in doc:
        try:
            segment_h = vec_from_json(doc["segment"]["h"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed segment: {exc!r}") from None
    return datum, segment_h


def trace_to_json(trace):
    return {
        "steps": [
            {
                "from_chamber": s.from_chamber,
                "to_chamber": s.to_chamber,
                "t": rat_to_str(s.t),
                "wall_point": vec_to_json(s.wall_point),
                "interior_pick": vec_to_json(s.interior_pick),
                "model_id": s.model_id,
                "possibly_isomorphism": s.possibly_isomorphism,
            }
            for s in trace.steps
        ],
        "final": {
            "chamber": trace.final_chamber,
            "divisor": vec_to_json(trace.final_divisor),
            "model_id": trace.final_model_id,
        },
    }


def dumps(doc):
    """``doc`` as ``json.dumps(doc, indent=2, sort_keys=True)`` writes it,
    plus a newline.  With ``indent`` set, ``json`` runs its pure-Python
    encoder, so ``_write`` writes the package's documents itself: strs,
    ints, lists, tuples and dicts with str keys.  Every other value is
    handed to ``json.dumps``, which writes a bool, None or empty container
    and raises TypeError on a value that is not JSON, such as a
    ``Fraction`` or a set."""
    out = []
    _write(doc, out.append, "\n")
    out.append("\n")
    return "".join(out)


def _write(x, out, newline):
    """Append ``x``'s JSON text to ``out``, its lines after the first
    starting with ``newline``."""
    kind = type(x)
    if kind is str:
        out(_quote(x))
    elif kind is int:
        try:
            out(int.__repr__(x))
        except ValueError:
            raise _too_long() from None
    elif (kind is list or kind is tuple) and x:
        inner = newline + "  "
        sep = "[" + inner
        for item in x:
            out(sep)
            _write(item, out, inner)
            sep = "," + inner
        out(newline + "]")
    elif kind is dict and x and all(type(key) is str for key in x):
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(x):
            out(sep)
            out(_quote(key))
            out(": ")
            _write(x[key], out, inner)
            sep = "," + inner
        out(newline + "}")
    else:
        # a JSON string holds no raw newline, so this re-indents its text
        out(json.dumps(x, indent=2, sort_keys=True).replace("\n", newline))


def loads(data):
    """The JSON document ``data``, a str or bytes, or ParseError for every
    way ``json`` refuses it, such as a literal past ``int``'s digit limit,
    deep nesting or, in bytes, a byte that the encoding ``json`` detects
    (UTF-8, -16 or -32) cannot decode."""
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
