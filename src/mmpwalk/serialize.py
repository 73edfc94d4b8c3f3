"""JSON document formats.

The package reads one document, the ring datum (``ring_from_json``), and
writes four: the cone, fan, ring and trace documents.  Rationals travel
as "p/q" strings (plain "p" for integers) so exactness survives
serialization; a decimal such as "1.5" is read too, but no exponent
notation and no "_" digit separator.  The integer fields, ``r`` and the
``deg`` entries, are read by the same rule (``int_from_str``), a JSON
integer as it is, and must be integers.  Every array field must be a
JSON array, every name a JSON string, and the document, each generator,
its ``mults``, each pushforward, a nef cone and the segment a JSON
object, by the one type reader ``_from_json``.  Those objects but
``mults`` are read against their known keys by ``_object``: an unknown
key, or a missing required one, is a ParseError that names the key and
its object, such as ``generators[0]``, and a nef cone holds exactly one
of ``rays`` and ``ineqs``.  Only an ``int`` or a ``Fraction`` is written
as one, and a float raises TypeError.  All
collections are emitted in canonical order so identical inputs give
byte-identical documents.  ``dumps`` writes a document as
``json.dumps(doc, indent=2, sort_keys=True)`` does, byte for byte, but
writes strs, ints, lists and str-keyed dicts itself, since ``json`` runs
its pure-Python encoder whenever ``indent`` is set.
"""

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from .cones import cone_from_rays, cone_from_halfspaces
from .errors import DimensionError, InconsistentInput, InvalidCone, MmpwalkError, ParseError
from .linalg import _EXACT_TYPES
from .ring import GeneratorDatum, PushforwardDatum, RingDatum, _map_shape


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


# the Python types that each JSON type read as a field arrives in
_JSON_TYPES = {"string": str, "array": (list, tuple), "object": dict}


def _from_json(x, kind):
    """``x`` when it is of the JSON type ``kind``, one of ``_JSON_TYPES``,
    or ParseError: a JSON string is iterable too, so it is never read as an
    array of characters."""
    if not isinstance(x, _JSON_TYPES[kind]):
        raise ParseError(f"bad {kind} {x!r}: expected a JSON {kind}")
    return x


def rat_from_str(s):
    """The ``Fraction`` that ``Fraction(s)`` reads from a str or an int, or
    ParseError.  Any other value, such as a JSON null, array, object, float
    or bool, is rejected, and so is exponent notation: ``Fraction``
    reads "1e4300" as an integer of 4,301 digits, past ``int``'s digit
    limit, and a larger exponent takes seconds.  A "_" digit separator is
    rejected too, since ``Fraction`` reads "1_000" from Python 3.11 on but
    not on 3.10.  A string of decimal digits with at most a sign, as most
    entries of a document are, is read by ``int`` without ``Fraction``'s
    regular expression; both read such a string alike."""
    if isinstance(s, (bool, float)):
        # a JSON float is a binary approximation: never coerce it to an exact value
        raise ParseError(f"{s!r} is not exact: write an integer or a \"p/q\" string")
    if not isinstance(s, (str, int)):
        raise ParseError(f"bad rational literal {s!r}: write an integer or a \"p/q\" string")
    try:
        if type(s) is str and (s[1:] if s[:1] in ("-", "+") else s).isdecimal():
            return Fraction(int(s))
        if type(s) is str and ("e" in s or "E" in s):
            raise ValueError("exponent notation is not read")
        if type(s) is str and "_" in s:
            raise ValueError("digit separators are not read")
        return Fraction(s)
    except ValueError as exc:
        raise ParseError(f"bad rational literal {s!r}: {exc}") from None
    except ZeroDivisionError:
        raise ParseError(f"bad rational literal {s!r}: zero denominator") from None


def int_from_str(s):
    """The integer that ``s`` writes: an ``int`` as it is, and anything
    else by ``rat_from_str``'s rule, whose value must have denominator 1,
    or ParseError."""
    if type(s) is int:
        return s
    q = rat_from_str(s)
    if q.denominator != 1:
        raise ParseError(f"bad integer {s!r}: not an integer")
    return q.numerator


def vec_to_json(v):
    return [rat_to_str(x) for x in v]


def vec_from_json(v):
    return tuple(rat_from_str(x) for x in _from_json(v, "array"))


def matrix_to_json(m):
    return [vec_to_json(row) for row in m]


def matrix_from_json(m):
    return tuple(vec_from_json(row) for row in _from_json(m, "array"))


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


def _object(x, where, required, optional=()):
    """``x`` when it is a JSON object, by ``_from_json``, that holds every
    key of ``required`` and no key outside ``required`` and ``optional``;
    else ParseError naming the key and ``where``, such as ``generators[0]``.
    Every object of the document is read by it."""
    x = _from_json(x, "object")
    for key in x:
        if key not in required and key not in optional:
            raise ParseError(f"malformed {where}: unknown key {key!r}")
    for key in required:
        if key not in x:
            raise ParseError(f"malformed {where}: missing key {key!r}")
    return x


def nef_from_json(doc, matrix, n, where):
    """The nef cone in the target coordinates of ``matrix``, or None when
    ``ring._map_shape`` finds the map's shape wrong: validation rejects
    such a map on its own, and its row count is not trusted to size a
    cone.  ``doc``, the object ``where``, must hold exactly one of
    ``rays`` and ``ineqs``, by ``_object``.  A cone that cannot be built
    raises its InvalidCone or DimensionError with the field named, such as
    ``nef.rays: generators have mixed dimensions``."""
    doc = _object(doc, where, (), ("rays", "ineqs"))
    if len(doc) != 1:
        raise ParseError(f"malformed {where}: give exactly one of 'rays' and 'ineqs'")
    if _map_shape(matrix, n) is not None:
        return None
    (key, value), = doc.items()
    try:
        if key == "rays":
            return cone_from_rays(matrix_from_json(value))
        return cone_from_halfspaces(matrix_from_json(value), len(matrix))
    except (InvalidCone, DimensionError) as exc:
        raise type(exc)(f"{where}.{key}: {exc}") from None


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
    """The ring datum and the segment's ``h`` (None without a segment) that
    the document ``doc`` writes, or ParseError.  Every object is read
    against its known keys by ``_object``."""
    doc = _object(doc, "document", ("r", "generators", "numerical_map"),
                  ("labels", "valuations", "nef", "pushforwards", "segment"))
    r = int_from_str(doc["r"])
    n = r + 1
    generators = []
    for i, g in enumerate(_from_json(doc["generators"], "array")):
        g = _object(g, f"generators[{i}]", ("deg", "mults"))
        generators.append(GeneratorDatum(
            multidegree=tuple(int_from_str(x) for x in _from_json(g["deg"], "array")),
            mults={name: rat_from_str(v) for name, v in _from_json(g["mults"], "object").items()},
        ))
    numerical = matrix_from_json(doc["numerical_map"])
    nef = None
    if "nef" in doc:
        nef = nef_from_json(doc["nef"], numerical, n, "nef")
    pushforwards = []
    for i, pf in enumerate(_from_json(doc.get("pushforwards", []), "array")):
        where = f"pushforwards[{i}]"
        pf = _object(pf, where, ("model_id", "map", "nef"))
        pf_matrix = matrix_from_json(pf["map"])
        pushforwards.append(PushforwardDatum(
            model_id=_from_json(pf["model_id"], "string"),
            matrix=pf_matrix,
            nef=nef_from_json(pf["nef"], pf_matrix, n, f"{where}.nef"),
        ))
    if "labels" in doc:
        labels = tuple(_from_json(label, "string") for label in _from_json(doc["labels"], "array"))
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
            _from_json(v, "string") for v in _from_json(doc.get("valuations", []), "array")
        ),
        numerical=numerical,
        nef=nef,
        pushforwards=tuple(pushforwards),
    )
    segment_h = None
    if "segment" in doc:
        segment_h = vec_from_json(_object(doc["segment"], "segment", ("h",))["h"])
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
