"""JSON ingestion and emission: schemas, builders, canonical rendering.

Exact rationals travel as "num/den" strings in both directions so that
no value ever passes through a float.  Every report value is rendered by
one rule, ``report_json``: a Fraction becomes "num/den", a TorusQDivisor
its coefficient list, a tuple a list, dicts and lists element by
element, and anything else stays as it is.  Reports are written with
sorted keys and a trailing newline, and are byte-identical for identical
inputs once the timing sidecar is stripped.  A document is checked by a
predicate compiled from DOCUMENT_SCHEMA at import; jsonschema is imported
only to explain why a document was rejected.
"""

from __future__ import annotations

import functools
import json
import numbers
import re
from fractions import Fraction
from typing import Any, Callable

from .field import is_prime
from .frobenius import CEIL_PE_MINUS_1, FLOOR_PE, PairDivisor, RingPresentation
from .poly import parse_polynomial
from .toric import ToricRing, TorusQDivisor, quotient_singularity


def fraction_string(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def parse_fraction_string(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    if not isinstance(text, str):
        raise ValueError(f"expected a rational as 'num/den' string, got {text!r}")
    parts = text.split("/")
    if len(parts) == 1:
        return Fraction(int(parts[0]))
    if len(parts) == 2:
        num, den = int(parts[0]), int(parts[1])
        if den == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(num, den)
    raise ValueError(f"malformed rational {text!r}")


_RATIONAL = {"oneOf": [{"type": "string", "pattern": r"^-?\d+(/\d+)?$"}, {"type": "integer"}]}

RING_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "type": {"const": "toric"},
                "rays": {
                    "type": "array",
                    "minItems": 1,
                    "items": {"type": "array", "minItems": 1, "items": {"type": "integer"}},
                },
                "p": {"type": "integer", "minimum": 2},
            },
            "required": ["type", "rays", "p"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "quotient"},
                "n": {"type": "integer", "minimum": 1},
                "weights": {"type": "array", "minItems": 1, "items": {"type": "integer"}},
                "p": {"type": "integer", "minimum": 2},
            },
            "required": ["type", "n", "weights", "p"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "regular"},
                "p": {"type": "integer", "minimum": 2},
                "nvars": {"type": "integer", "minimum": 1},
                "names": {"type": "array", "items": {"type": "string"}},
            },
            "required": ["type", "p", "nvars"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "hypersurface"},
                "p": {"type": "integer", "minimum": 2},
                "nvars": {"type": "integer", "minimum": 1},
                "f": {"type": "string"},
                "names": {"type": "array", "items": {"type": "string"}},
            },
            "required": ["type", "p", "nvars", "f"],
            "additionalProperties": False,
        },
    ]
}

PAIR_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "facet_coeffs": {"type": "array", "items": _RATIONAL},
            },
            "required": ["facet_coeffs"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "components": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {"g": {"type": "string"}, "t": _RATIONAL},
                        "required": ["g", "t"],
                        "additionalProperties": False,
                    },
                },
                "convention": {"enum": [FLOOR_PE, CEIL_PE_MINUS_1]},
            },
            "required": ["components"],
            "additionalProperties": False,
        },
    ]
}

COVER_SCHEMA = {
    "oneOf": [
        {
            "type": "object",
            "properties": {
                "type": {"const": "quotient_cover"},
                "n": {"type": "integer", "minimum": 1},
                "weights": {"type": "array", "minItems": 1, "items": {"type": "integer"}},
                "m": {"type": "integer", "minimum": 1},
                "p": {"type": "integer", "minimum": 2},
                "expected_degree": {"type": "integer", "minimum": 1},
            },
            "required": ["type", "n", "weights", "m", "p"],
            "additionalProperties": False,
        },
        {
            "type": "object",
            "properties": {
                "type": {"const": "root_cover"},
                "n": {"type": "integer", "minimum": 1},
                "along": {"oneOf": [{"type": "string"}, {"type": "integer", "minimum": 0}]},
                "p": {"type": "integer", "minimum": 2},
                "pair_t": _RATIONAL,
                "nvars": {"type": "integer", "minimum": 1},
                "expected_degree": {"type": "integer", "minimum": 1},
            },
            "required": ["type", "n", "along", "p"],
            "additionalProperties": False,
        },
    ]
}

DOCUMENT_SCHEMA = {
    "type": "object",
    "properties": {
        "ring": RING_SCHEMA,
        "pair": PAIR_SCHEMA,
        "cover": COVER_SCHEMA,
        "divisor_class": {"type": "array", "items": {"type": "integer"}},
        "veronese": {
            "type": "object",
            "properties": {
                "d_vars": {"type": "integer", "minimum": 1},
                "m": {"type": "integer", "minimum": 1},
                "p": {"type": "integer", "minimum": 2},
            },
            "required": ["d_vars", "m", "p"],
            "additionalProperties": False,
        },
        "options": {
            "type": "object",
            "properties": {
                "e_max": {"type": "integer", "minimum": 1},
                "backend": {"enum": ["auto", "toric", "sequence"]},
                "time_budget_secs": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


def _is_integer(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# The instance types of JSON Schema 2020-12, with "integer" strict: an
# integral float such as 3.0 is not one, since the builders need an int.
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "integer": _is_integer,
    "number": lambda x: isinstance(x, numbers.Number) and not isinstance(x, bool),
}


def compile_schema(schema: dict) -> Callable[[Any], bool]:
    """A predicate that accepts exactly what Draft 2020-12 validation of
    ``schema`` accepts, "integer" taken strictly.

    It knows only the keywords DOCUMENT_SCHEMA uses, each applied to the
    instance types the draft applies it to, and raises on any other, so a
    schema edit it cannot follow fails at import instead of going unchecked.
    """
    checks = []
    for key, value in schema.items():
        if key == "type":
            checks.append(_TYPES[value])
        elif key == "const" and isinstance(value, str) or key == "enum" and all(
            isinstance(v, str) for v in value
        ):
            # on strings jsonschema's equality is ==; on numbers it is not
            allowed = {value} if key == "const" else set(value)
            checks.append(lambda x, allowed=allowed: isinstance(x, str) and x in allowed)
        elif key == "minimum":
            checks.append(lambda x, m=value: not _TYPES["number"](x) or not x < m)
        elif key == "exclusiveMinimum":
            checks.append(lambda x, m=value: not _TYPES["number"](x) or not x <= m)
        elif key == "pattern":
            search = re.compile(value).search
            checks.append(lambda x, search=search: not isinstance(x, str) or search(x) is not None)
        elif key == "minItems":
            checks.append(lambda x, n=value: not isinstance(x, list) or len(x) >= n)
        elif key == "items":
            item = compile_schema(value)
            checks.append(lambda x, item=item: not isinstance(x, list) or all(map(item, x)))
        elif key == "properties":
            props = [(name, compile_schema(sub)) for name, sub in value.items()]
            checks.append(lambda x, props=props: not isinstance(x, dict)
                          or all(k not in x or ok(x[k]) for k, ok in props))
        elif key == "required":
            checks.append(lambda x, names=value: not isinstance(x, dict)
                          or all(k in x for k in names))
        elif key == "additionalProperties" and value is False:
            known = set(schema.get("properties", ()))
            checks.append(lambda x, known=known: not isinstance(x, dict) or x.keys() <= known)
        elif key == "oneOf":
            branches = [compile_schema(sub) for sub in value]
            checks.append(lambda x, branches=branches: sum(ok(x) for ok in branches) == 1)
        else:
            raise ValueError(f"schema keyword {key!r}: {value!r} is not compiled")

    def accepts(x) -> bool:
        for check in checks:
            if not check(x):
                return False
        return True

    return accepts


_document_ok = compile_schema(DOCUMENT_SCHEMA)


@functools.cache
def _strict_validator():
    import jsonschema

    base = jsonschema.Draft202012Validator
    types = base.TYPE_CHECKER.redefine("integer", lambda checker, x: _is_integer(x))
    return jsonschema.validators.extend(base, type_checker=types)(DOCUMENT_SCHEMA)


def _relevance(error) -> tuple:
    """jsonschema's ``relevance``, ranking last the errors of a ``oneOf`` branch whose
    ``type`` const is not the instance's type: so a bad ``p``, which every ring
    branch has, is named by its own value, not by the whole ring.
    """
    from jsonschema.exceptions import relevance

    parent, other_kind = error.parent, False
    if parent is not None and parent.validator == "oneOf" and isinstance(parent.instance, dict):
        branch = parent.validator_value[error.relative_schema_path[0]]
        const = branch.get("properties", {}).get("type", {}).get("const")
        other_kind = const is not None and parent.instance.get("type") != const
    return other_kind, relevance(error)


def validate_document(doc: Any) -> None:
    """Raise unless ``doc`` is a valid spec document.

    The check is a predicate compiled from DOCUMENT_SCHEMA at import.  A
    document it rejects goes to jsonschema only to explain the rejection:
    the strict validator's best-matching ``jsonschema.ValidationError``
    (by ``_relevance``) is raised, with its message, path and schema path.
    jsonschema stays the authority, so a document it finds no error in is
    accepted.  Then each ``p`` of a ring, cover or veronese must be prime
    (``ValueError``).
    """
    if not _document_ok(doc):
        from jsonschema.exceptions import best_match

        error = best_match(_strict_validator().iter_errors(doc), key=_relevance)
        if error is not None:
            raise error
    for key in ("ring", "cover", "veronese"):
        sub = doc.get(key)
        if sub and "p" in sub and not is_prime(sub["p"]):
            raise ValueError(f"{key}.p = {sub['p']} is not prime")


def build_ring(doc: dict) -> ToricRing | RingPresentation:
    kind = doc["type"]
    if kind == "toric":
        return ToricRing(doc["p"], doc["rays"])
    if kind == "quotient":
        return quotient_singularity(doc["n"], tuple(doc["weights"]), doc["p"])
    names = tuple(doc["names"]) if doc.get("names") else None
    if kind == "regular":
        return RingPresentation.regular(doc["p"], doc["nvars"], names)
    if kind == "hypersurface":
        f = parse_polynomial(doc["f"], doc["p"], doc["nvars"], names)
        return RingPresentation.hypersurface(f, names)
    raise ValueError(f"unknown ring type {kind!r}")


def build_pair(doc: dict, ring) -> TorusQDivisor | PairDivisor:
    if "facet_coeffs" in doc:
        if not isinstance(ring, ToricRing):
            raise ValueError("facet_coeffs pair requires a toric ring")
        coeffs = [parse_fraction_string(c) for c in doc["facet_coeffs"]]
        if len(coeffs) != ring.nfacets:
            raise ValueError(
                f"pair has {len(coeffs)} coefficients but the ring has {ring.nfacets} facets"
            )
        return TorusQDivisor.of(coeffs)
    if not isinstance(ring, RingPresentation):
        raise ValueError("component pair requires a hypersurface or regular presentation")
    components = []
    for comp in doc["components"]:
        g = parse_polynomial(comp["g"], ring.p, ring.nvars, ring.names)
        components.append((g, parse_fraction_string(comp["t"])))
    convention = doc.get("convention", FLOOR_PE)
    return PairDivisor.of(components, convention)


def along_index(along, nvars: int) -> int:
    if isinstance(along, int):
        idx = along
    elif along.startswith("x") and along[1:].isdigit():
        idx = int(along[1:])
    else:
        raise ValueError(f"unknown coordinate {along!r}")
    if not (0 <= idx < nvars):
        raise ValueError(f"coordinate index {idx} out of range for {nvars} variables")
    return idx


def canonical_json(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def strip_timing(obj: Any) -> Any:
    """Recursively drop timing sidecars so goldens compare content only."""
    if isinstance(obj, dict):
        return {k: strip_timing(v) for k, v in obj.items() if k != "timing"}
    if isinstance(obj, list):
        return [strip_timing(v) for v in obj]
    return obj


def report_json(value: Any) -> Any:
    """``value`` with every exact value rendered by the one report rule."""
    if isinstance(value, Fraction):
        return fraction_string(value)
    if isinstance(value, TorusQDivisor):
        return report_json(value.coefficients)
    if isinstance(value, dict):
        return {key: report_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [report_json(item) for item in value]
    return value
