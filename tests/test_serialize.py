"""JSON schemas, rational string round-trips, and document builders."""

import copy
import json
import random
from fractions import Fraction

import jsonschema
import pytest

from fsig.frobenius import CEIL_PE_MINUS_1, PairDivisor, RingPresentation
from fsig.serialize import (
    DOCUMENT_SCHEMA,
    _relevance,
    along_index,
    build_pair,
    build_ring,
    canonical_json,
    compile_schema,
    fraction_string,
    parse_fraction_string,
    report_json,
    strip_timing,
    validate_document,
)
from fsig.toric import ToricRing, TorusQDivisor

from _oracles import variable_names
from test_goldens import DOCUMENTS


def test_fraction_string_round_trip():
    for x in (Fraction(1, 2), Fraction(-3, 7), Fraction(5), Fraction(0)):
        assert parse_fraction_string(fraction_string(x)) == x


def test_parse_fraction_accepts_integers():
    assert parse_fraction_string("7") == Fraction(7)
    assert parse_fraction_string("-2") == Fraction(-2)


def test_parse_fraction_rejects_garbage():
    for bad in ("1/0", "1.5", "one half", "1/2/3", ""):
        with pytest.raises(ValueError):
            parse_fraction_string(bad)


def test_validate_accepts_each_ring_kind():
    docs = [
        {"ring": {"type": "toric", "rays": [[1, 0], [1, 2]], "p": 5}},
        {"ring": {"type": "quotient", "n": 3, "weights": [1, 1], "p": 5}},
        {"ring": {"type": "regular", "p": 5, "nvars": 2}},
        {"ring": {"type": "hypersurface", "p": 5, "nvars": 3, "f": "x0*x1 - x2^2"}},
    ]
    for doc in docs:
        validate_document(doc)


def test_validate_rejects_unknown_fields():
    with pytest.raises(jsonschema.ValidationError):
        validate_document({"ring": {"type": "regular", "p": 5, "nvars": 2, "extra": 1}})


def test_document_schema_is_valid():
    jsonschema.Draft202012Validator.check_schema(DOCUMENT_SCHEMA)


@pytest.mark.parametrize(
    "doc",
    [
        {"ring": {"type": "regular", "p": 5, "nvars": 2, "extra": 1}},
        {"ring": {"type": "quotient", "n": 2, "weights": [1, 1], "p": 5},
         "pair": {"facet_coeffs": [0.5, "0"]}},
        {"cover": {"type": "mystery", "n": 2}},
        {"ring": {"type": "hypersurface", "p": 5, "nvars": 3}},
        {"ring": {"type": "toric", "rays": [[1, "0"], [1, 2]], "p": 5}},
        {"ring": {"type": "regular", "p": "5", "nvars": 2}, "options": {"e_max": -1}},
        {"ring": {"type": "regular", "p": 5, "nvars": 2}, "options": {"e_max": "3"}},
        [],
    ],
)
def test_validate_raises_the_error_jsonschema_validate_raises(doc):
    # the error jsonschema.validate picks, with the errors of a oneOf branch
    # for another type ranked last (_relevance)
    validator = jsonschema.validators.validator_for(DOCUMENT_SCHEMA)(DOCUMENT_SCHEMA)
    expected = jsonschema.exceptions.best_match(validator.iter_errors(doc), key=_relevance)
    with pytest.raises(jsonschema.ValidationError) as got:
        validate_document(doc)
    assert got.value.message == expected.message
    assert got.value.path == expected.path
    assert got.value.schema_path == expected.schema_path


# jsonschema's Draft 2020-12 validator with "integer" meaning an int that is not a bool
STRICT = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine(
        "integer", lambda checker, x: isinstance(x, int) and not isinstance(x, bool)
    ),
)(DOCUMENT_SCHEMA)

VALID = [doc for _, doc in DOCUMENTS.values()] + [
    {"ring": {"type": "toric", "rays": [[1, 0], [1, 2]], "p": 5},
     "pair": {"facet_coeffs": [1, "-1/2"]}, "divisor_class": [1, -1]},
    {"ring": {"type": "regular", "p": 3, "nvars": 2, "names": ["x", "y"]},
     "pair": {"components": [{"g": "x", "t": 1}, {"g": "y", "t": "2/3"}],
              "convention": CEIL_PE_MINUS_1}},
    {"ring": {"type": "hypersurface", "p": 5, "nvars": 3, "f": "x*y - z^2", "names": ["x", "y", "z"]},
     "options": {"e_max": 3, "backend": "auto", "time_budget_secs": 1.5}},
    {"cover": {"type": "quotient_cover", "n": 8, "weights": [1, 7], "m": 4, "p": 3,
               "expected_degree": 2}},
    {"cover": {"type": "root_cover", "n": 2, "along": 0, "p": 7, "pair_t": 1, "nvars": 2,
               "expected_degree": 2}},
    {"veronese": {"d_vars": 2, "m": 3, "p": 2}, "options": {"backend": "toric", "time_budget_secs": 2}},
]
REPLACEMENTS = (3.0, True, "3", [], {}, -1, 0)


def _slots(value, path=()):
    """The path of every value nested in a document."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, item in items:
        yield path + (key,)
        if isinstance(item, (dict, list)):
            yield from _slots(item, path + (key,))


def _lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _edited(doc, path, edit):
    doc = copy.deepcopy(doc)
    edit(_lookup(doc, path[:-1]), path[-1])
    return doc


def _mutations(doc):
    """Single edits of ``doc``: a value dropped or replaced, or an unknown key added."""
    for path in _slots(doc):
        yield _edited(doc, path, lambda parent, key: parent.pop(key))
        for new in REPLACEMENTS:
            yield _edited(doc, path, lambda parent, key: parent.__setitem__(key, copy.deepcopy(new)))
        if path[-1] == "type":
            yield _edited(doc, path, lambda parent, key: parent.__setitem__(key, "mystery"))
        if path[-1] in ("facet_coeffs", "components"):
            yield _edited(doc, path, lambda parent, key: parent.update(
                facet_coeffs=["1/2"], components=[{"g": "x0", "t": "1/2"}]))
        if path[-1] in ("t", "pair_t") or path[-2:-1] == ("facet_coeffs",):
            yield _edited(doc, path, lambda parent, key: parent.__setitem__(key, "1/x"))
    for path in [(), *_slots(doc)]:
        if isinstance(_lookup(doc, path), dict):
            yield _edited(doc, path + ("extra",), lambda parent, key: parent.__setitem__(key, 1))


def _corpus():
    rng = random.Random(23)
    docs = list(VALID) + [[], None, 3.0, "ring"]
    singles = [mutant for doc in VALID for mutant in _mutations(doc)]
    docs += singles
    for _ in range(1000):
        docs.append(rng.choice(list(_mutations(rng.choice(singles)))))
    return docs


def test_compiled_predicate_equals_strict_jsonschema():
    accepts = compile_schema(DOCUMENT_SCHEMA)
    corpus = _corpus()
    assert len(corpus) >= 2000
    rejected = 0
    for doc in corpus:
        expected = jsonschema.exceptions.best_match(STRICT.iter_errors(doc), key=_relevance)
        assert accepts(doc) is (expected is None), doc
        if expected is None:
            validate_document(doc)
            continue
        rejected += 1
        with pytest.raises(jsonschema.ValidationError) as got:
            validate_document(doc)
        assert (got.value.message, got.value.path, got.value.schema_path) == (
            expected.message, expected.path, expected.schema_path), doc
    assert len(corpus) - rejected >= len(VALID)
    assert rejected >= 1500


def test_compiled_one_of_counts_overlapping_branches():
    # no document matches two branches of DOCUMENT_SCHEMA's unions, so the
    # count of matching branches is checked on a schema where they overlap
    schema = {"oneOf": [{"type": "integer"}, {"minimum": 0, "pattern": "^a"}]}
    accepts = compile_schema(schema)
    for x in (1, -1, 1.5, -1.5, True, "a", "b", None, [], {}):
        assert accepts(x) is STRICT.evolve(schema=schema).is_valid(x), x


def test_compile_schema_refuses_an_unknown_keyword():
    with pytest.raises(ValueError, match="maxItems"):
        compile_schema({"type": "object", "properties": {"x": {"type": "array", "maxItems": 2}}})


def test_validate_rejects_composite_p():
    with pytest.raises(ValueError):
        validate_document({"ring": {"type": "regular", "p": 6, "nvars": 2}})


def test_validate_rejects_float_rationals():
    doc = {
        "ring": {"type": "quotient", "n": 2, "weights": [1, 1], "p": 5},
        "pair": {"facet_coeffs": [0.5, "0"]},
    }
    with pytest.raises(jsonschema.ValidationError):
        validate_document(doc)


def test_build_ring_quotient():
    ring = build_ring({"type": "quotient", "n": 3, "weights": [1, 1], "p": 5})
    assert isinstance(ring, ToricRing)
    assert ring.group_order == 3


def test_build_ring_hypersurface_with_names():
    ring = build_ring(
        {"type": "hypersurface", "p": 3, "nvars": 3, "f": "x*y - z^2",
         "names": ["x", "y", "z"]}
    )
    assert isinstance(ring, RingPresentation)
    assert ring.kind == "hypersurface"
    assert variable_names(ring) == ("x", "y", "z")


def test_build_pair_facet_coeffs():
    ring = build_ring({"type": "quotient", "n": 3, "weights": [1, 1], "p": 5})
    pair = build_pair({"facet_coeffs": ["1/2", "0"]}, ring)
    assert isinstance(pair, TorusQDivisor)
    assert list(pair.coefficients) == [Fraction(1, 2), Fraction(0)]


def test_build_pair_length_mismatch():
    ring = build_ring({"type": "quotient", "n": 3, "weights": [1, 1], "p": 5})
    with pytest.raises(ValueError):
        build_pair({"facet_coeffs": ["1/2"]}, ring)


def test_build_pair_components():
    ring = build_ring({"type": "regular", "p": 5, "nvars": 2, "names": ["x", "y"]})
    pair = build_pair(
        {"components": [{"g": "x", "t": "1/2"}], "convention": CEIL_PE_MINUS_1}, ring
    )
    assert isinstance(pair, PairDivisor)
    assert pair.convention == CEIL_PE_MINUS_1
    assert pair.components[0][1] == Fraction(1, 2)


def test_build_pair_wrong_backend_combination():
    toric = build_ring({"type": "quotient", "n": 3, "weights": [1, 1], "p": 5})
    with pytest.raises(ValueError):
        build_pair({"components": [{"g": "x0", "t": "1/2"}]}, toric)
    regular = build_ring({"type": "regular", "p": 5, "nvars": 2})
    with pytest.raises(ValueError):
        build_pair({"facet_coeffs": ["1/2", "0"]}, regular)


def test_along_index_forms():
    assert along_index(1, 3) == 1
    assert along_index("x2", 3) == 2
    with pytest.raises(ValueError):
        along_index(5, 3)
    with pytest.raises(ValueError):
        along_index("w", 3)


def test_canonical_json_is_deterministic():
    doc = {"b": False, "a": [3, 1], "nested": {"z": 1, "y": 2}}
    one = canonical_json(doc)
    two = canonical_json(json.loads(one))
    assert one == two
    assert one.endswith("\n")
    assert json.loads(one)["a"] == [3, 1]


def test_strip_timing_recursive():
    report = {
        "timing": {"seconds": 1.0},
        "inner": [{"timing": {"seconds": 2.0}, "kept": 1}],
        "kept": True,
    }
    stripped = strip_timing(report)
    assert "timing" not in stripped
    assert "timing" not in stripped["inner"][0]
    assert stripped["kept"] is True
    assert stripped["inner"][0]["kept"] == 1
    # The original is untouched.
    assert "timing" in report


def test_divisor_json():
    # The one report rule: a divisor becomes its coefficient list, a
    # Fraction "num/den", a tuple a list, and anything else stays.
    assert report_json(None) is None
    d = TorusQDivisor.of([Fraction(1, 2), Fraction(0)])
    assert report_json(d) == ["1/2", "0/1"]
    assert [parse_fraction_string(c) for c in report_json(d)] == [
        Fraction(1, 2),
        Fraction(0),
    ]
    report = {"ram": d, "rows": ({"generator": (1, 0), "ok": True, "s": Fraction(2)},), "note": "n"}
    assert report_json(report) == {
        "ram": ["1/2", "0/1"],
        "rows": [{"generator": [1, 0], "ok": True, "s": "2/1"}],
        "note": "n",
    }


def test_cover_document_validation():
    validate_document(
        {"cover": {"type": "quotient_cover", "n": 8, "weights": [1, 7], "m": 4,
                   "p": 3, "expected_degree": 2}}
    )
    validate_document(
        {"cover": {"type": "root_cover", "n": 2, "along": 0, "p": 7,
                   "pair_t": "1/2", "nvars": 2}}
    )
    with pytest.raises(jsonschema.ValidationError):
        validate_document({"cover": {"type": "mystery", "n": 2}})
