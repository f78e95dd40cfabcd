"""Tests for the JSON instance format."""

import json
import random
import sys
from fractions import Fraction

import pytest

from blockstoch.errors import InputError, UnknownElementError
from blockstoch.family import WeightFunction, build_family
from blockstoch.instance_io import (
    dump_instance,
    format_rational,
    parse_instance,
    parse_rational,
    parse_weights_document,
    weights_to_document,
)

F = Fraction


class TestParseRational:
    def test_integers_and_fractions(self):
        assert parse_rational(3) == F(3)
        assert parse_rational("7") == F(7)
        assert parse_rational("-2/3") == F(-2, 3)
        assert parse_rational("+1/2") == F(1, 2)

    def test_floats_rejected(self):
        with pytest.raises(InputError, match="decimal floats"):
            parse_rational(0.5)
        with pytest.raises(InputError):
            parse_rational("0.5")
        with pytest.raises(InputError):
            parse_rational("1e3")

    def test_bool_rejected(self):
        with pytest.raises(InputError):
            parse_rational(True)

    def test_zero_denominator_rejected(self):
        with pytest.raises(InputError):
            parse_rational("1/0")

    def test_garbage_rejected(self):
        with pytest.raises(InputError):
            parse_rational("1 / 2")
        with pytest.raises(InputError):
            parse_rational("")

    # "\u0661" and "\u0662" are the Arabic-Indic digits one and two
    @pytest.mark.parametrize("text", ["1_0", "\u0661", "1/\u0662", "1/2_0"])
    def test_only_ascii_digits(self, text):
        with pytest.raises(InputError, match="as an exact rational"):
            parse_rational(text)

    def test_sign_and_surrounding_space(self):
        assert parse_rational(" -3/4\n") == F(-3, 4)
        assert parse_rational("\t+5 ") == F(5)


class TestFormatRational:
    def test_integer_collapses(self):
        assert format_rational(F(4, 2)) == "2"

    def test_proper_fraction(self):
        assert format_rational(F(-3, 9)) == "-1/3"

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"),
        reason="integers have no digit limit before Python 3.11",
    )
    def test_any_size_under_the_lowest_digit_limit(self):
        """Past the interpreter's digit limit, here its lowest allowed
        value, rationals print as ``str`` prints them with no limit, and
        the limit is left as it was."""
        rng = random.Random(16)
        sizes = [(1, 1), (600, 650), (641, 1), (5000, 1), (5000, 4999), (12001, 9000)]
        values = [
            F(rng.choice((1, -1)) * rng.randrange(10**p), rng.randrange(1, 10**q))
            for p, q in sizes
        ] + [F(10**5000), F(-(10**5000) + 1, 10**4400 + 1)]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            texts = [format_rational(v) for v in values]
            docs = [weights_to_document({1: v}) for v in values if v.denominator > 1]
            assert sys.get_int_max_str_digits() == 640
            sys.set_int_max_str_digits(0)
            assert texts == [str(v) for v in values]
            assert docs == [{"1": str(v)} for v in values if v.denominator > 1]
        finally:
            sys.set_int_max_str_digits(limit)


class TestParseInstance:
    def test_minimal(self):
        inst = parse_instance('{"blocks": [[1, 2], [2, 3]]}')
        assert inst.family.ground == (1, 2, 3)
        assert inst.weights is None
        assert inst.feasible is None

    def test_full_document(self):
        text = (
            '{"ground": [1, 2, 3], "blocks": [[1, 2], [2, 3]],'
            ' "weights": {"1": "1/2", "2": "1/2", "3": "1/2"},'
            ' "feasible": true}'
        )
        inst = parse_instance(text)
        assert inst.weights.value(2) == F(1, 2)
        assert inst.feasible is True

    def test_weights_keys_must_be_ground_elements(self):
        with pytest.raises(UnknownElementError):
            parse_instance('{"blocks": [[1, 2]], "weights": {"9": 1}}')

    def test_unknown_fields_rejected(self):
        with pytest.raises(InputError, match="unknown instance fields: color"):
            parse_instance('{"blocks": [[1]], "color": "red"}')

    def test_blocks_required(self):
        with pytest.raises(InputError):
            parse_instance('{"ground": [1]}')

    def test_top_level_must_be_object(self):
        with pytest.raises(InputError):
            parse_instance("[1, 2]")

    def test_malformed_json(self):
        with pytest.raises(InputError):
            parse_instance("{not json")

    def test_float_weight_rejected(self):
        with pytest.raises(InputError, match="decimal floats"):
            parse_instance('{"blocks": [[1]], "weights": {"1": 0.5}}')

    def test_feasible_must_be_bool(self):
        with pytest.raises(InputError):
            parse_instance('{"blocks": [[1]], "feasible": "yes"}')

    def test_ground_must_cover_blocks(self):
        with pytest.raises(InputError):
            parse_instance('{"ground": [1], "blocks": [[1, 2]]}')

    def test_weight_key_must_be_integer_text(self):
        with pytest.raises(InputError):
            parse_instance('{"blocks": [[1]], "weights": {"one": 1}}')

    @pytest.mark.parametrize("key", ["1_0", "\u0661", " \u0661 ", "1\u0660"])
    def test_weight_key_takes_only_ascii_digits(self, key):
        text = json.dumps({"blocks": [[1], [10]], "weights": {key: 1}})
        with pytest.raises(InputError, match="is not an integer label$"):
            parse_instance(text)

    def test_weight_key_sign_and_surrounding_space(self):
        inst = parse_instance('{"blocks": [[1], [2]], "weights": {" +1 ": 1, "2\\n": 1}}')
        assert dict(inst.weights.items()) == {1: 1, 2: 1}


class TestWeightsDocument:
    def test_round_trip(self):
        w = WeightFunction({1: F(1, 2), 3: F(2)})
        text = json.dumps({"weights": weights_to_document(w)})
        assert parse_weights_document(text) == w

    def test_integer_values_stay_json_numbers(self):
        doc = weights_to_document(WeightFunction({2: F(2), 3: F(1, 3)}))
        assert doc == {"2": 2, "3": "1/3"}

    def test_other_fields_rejected(self):
        with pytest.raises(InputError, match="weights-only"):
            parse_weights_document('{"weights": {"1": 1}, "blocks": [[1]]}')

    def test_weights_field_required(self):
        with pytest.raises(InputError):
            parse_weights_document("{}")


class TestDumpInstance:
    def test_round_trip(self):
        fam = build_family([[1, 2], [2, 3]])
        w = WeightFunction({1: F(1, 2), 2: F(1, 2), 3: F(1, 2)})
        text = dump_instance(fam, w, feasible=True)
        inst = parse_instance(text)
        assert inst.family.blocks == fam.blocks
        assert inst.family.ground == fam.ground
        assert inst.weights == w
        assert inst.feasible is True

    def test_weightless_document_omits_fields(self):
        fam = build_family([[1]])
        text = dump_instance(fam)
        assert "weights" not in text
        assert "feasible" not in text
        assert text.endswith("\n")

    def test_dump_is_deterministic(self):
        fam = build_family([[3, 1], [2, 3]])
        assert dump_instance(fam) == dump_instance(fam)


# Refusals of documents with the wrong shape, each a document, the
# exception class and the exact message.
DOCUMENT_REFUSALS = [
    (parse_instance, '{"blocks": 5}', '"blocks" must be a list of lists of labels'),
    (parse_instance, '{"blocks": [[1], 2]}', "block 2 must be a list of labels"),
    (parse_instance, '{"blocks": [[1, "a"]]}', "block 1: labels must be integers, got 'a'"),
    (parse_instance, '{"blocks": [[1, true]]}', "block 1: labels must be integers, got True"),
    (parse_instance, '{"blocks": [[1]], "ground": 1}', '"ground" must be a list of labels'),
    (parse_instance, '{"blocks": [[1]], "ground": [[1]]}',
     '"ground": labels must be integers, got [1]'),
    (parse_instance, '{"blocks": [[1]], "weights": [1]}',
     '"weights" must be a map from label to rational'),
    (parse_instance, '{"blocks": [[1]], "weights": {"1": [1]}}', "expected a rational, got list"),
    (parse_instance, '{"blocks": [[1]], "weights": {"1": null}}',
     "expected a rational, got NoneType"),
    (parse_weights_document, '{"weights": {"-1": 1}}', "weight label -1 is negative"),
    (parse_weights_document, '{"weights": [1]}', 'document must hold a "weights" map'),
    (parse_weights_document, "[]", "document must be a JSON object"),
]


@pytest.mark.parametrize(
    "parse, text, message", DOCUMENT_REFUSALS, ids=[row[1] for row in DOCUMENT_REFUSALS]
)
def test_document_shape_refusals(parse, text, message):
    with pytest.raises(InputError) as caught:
        parse(text)
    assert type(caught.value) is InputError
    assert str(caught.value) == message
