"""Tests for the JSON instance format."""

import json
import random
import sys
from fractions import Fraction

import pytest

from blockstoch import instance_io
from blockstoch.errors import EmptyBlockError, InputError, UnknownElementError
from blockstoch.family import WeightFunction, build_family
from blockstoch.instance_io import (
    dump_instance,
    format_rational,
    parse_instance,
    parse_rational,
    parse_weights_document,
    weights_to_document,
)

from helpers import count_calls, kappa2_sweep, kappa3_sweep, necklace

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
# exception class and the exact message.  The later rows pin the order
# of the checks: the JSON shapes, every block's labels, the ground
# labels, empty, repeated and duplicate blocks, a repeated ground label
# and ground agreement, weight keys and values, weights for labels in no
# block.
DOCUMENT_REFUSALS = [
    (parse_instance, '{"blocks": 5}', InputError, '"blocks" must be a list of lists of labels'),
    (parse_instance, '{"blocks": [[1], 2]}', InputError, "block 2 must be a list of labels"),
    # every block is a list before any label is read
    (parse_instance, '{"blocks": [[1, "a"], 2]}', InputError, "block 2 must be a list of labels"),
    (parse_instance, '{"blocks": [[1, "a"]]}', InputError,
     "block 1: labels must be integers, got 'a'"),
    (parse_instance, '{"blocks": [[1, true]]}', InputError,
     "block 1: labels must be integers, got True"),
    (parse_instance, '{"blocks": [[1]], "ground": 1}', InputError,
     '"ground" must be a list of labels'),
    (parse_instance, '{"blocks": [[1]], "ground": [[1]]}', InputError,
     '"ground": labels must be integers, got [1]'),
    (parse_instance, '{"blocks": [[1]], "weights": [1]}', InputError,
     '"weights" must be a map from label to rational'),
    (parse_instance, '{"blocks": [[1]], "weights": {"1": [1]}}', InputError,
     "expected a rational, got list"),
    (parse_instance, '{"blocks": [[1]], "weights": {"1": null}}', InputError,
     "expected a rational, got NoneType"),
    (parse_instance, '{"blocks": [[1, 2]], "ground": [2, 1, 2]}', InputError,
     "ground label 2 is given twice"),
    (parse_instance, '{"blocks": [[1, 1], [2, "a"]]}', InputError,
     "block 2: labels must be integers, got 'a'"),
    (parse_instance, '{"blocks": [[1, 2], []], "ground": [1, -2]}', InputError,
     '"ground": labels must be non-negative, got -2'),
    (parse_instance, '{"blocks": [[1, 2], []], "weights": {"9": "1/2"}}', EmptyBlockError,
     "block 2 is empty"),
    (parse_instance, '{"blocks": [[1, 2], [3]], "ground": [1, 1, 2]}', InputError,
     "ground label 1 is given twice"),
    (parse_instance, '{"blocks": [[1, 2]], "ground": [1], "weights": {"x": 1}}', InputError,
     "block members [2] are missing from ground"),
    (parse_instance, '{"blocks": [[1, 2]], "weights": {"9": 1, "1": "x"}}', InputError,
     'cannot parse \'x\' as an exact rational; write "p/q" or an integer'),
    # True == 1 with one hash: a parsed value is looked up only by its string
    (parse_instance, '{"blocks": [[1, 2]], "weights": {"1": 1, "2": true}}', InputError,
     "expected a rational, got True"),
    (parse_instance, '{"blocks": [[1, 2]], "weights": {"1": "1", "2": true}}', InputError,
     "expected a rational, got True"),
    (parse_weights_document, '{"weights": {"-1": 1}}', InputError, "weight label -1 is negative"),
    (parse_weights_document, '{"weights": {"1": "1/2", "2": true}}', InputError,
     "expected a rational, got True"),
    (parse_weights_document, '{"weights": [1]}', InputError, 'document must hold a "weights" map'),
    (parse_weights_document, "[]", InputError, "document must be a JSON object"),
]


@pytest.mark.parametrize(
    "parse, text, error, message", DOCUMENT_REFUSALS, ids=[row[1] for row in DOCUMENT_REFUSALS]
)
def test_document_shape_refusals(parse, text, error, message):
    with pytest.raises(error) as caught:
        parse(text)
    assert type(caught.value) is error
    assert str(caught.value) == message


def _faulty_lists():
    """Block and ground lists with one or two seeded faults each: a label
    that is a string, null, true, a list or negative in block 1, block 2
    or the ground; an empty, a repeated-member or a duplicate block; a
    repeated, an extra or a missing ground label."""
    rng = random.Random(29)

    def bad_label(where, label):
        def put(blocks, ground):
            labels = ground if where == "ground" else blocks[where]
            labels.insert(rng.randrange(len(labels) + 1), label)
        return put

    def missing(blocks, ground):
        label = rng.choice([1, 3, 4])
        ground[:] = [g for g in ground if g != label]

    faults = [
        bad_label(where, label)
        for where in (0, 1, "ground")
        for label in ("a", None, True, [1], -4)
    ] + [
        lambda blocks, ground: blocks.insert(rng.randrange(len(blocks) + 1), []),
        # every non-empty block holds 2
        lambda blocks, ground: rng.choice([b for b in blocks if b]).append(2),
        lambda blocks, ground: blocks.append(blocks[rng.randrange(2)][::-1]),
        lambda blocks, ground: ground.append(rng.choice(ground)),
        lambda blocks, ground: ground.insert(rng.randrange(len(ground) + 1), 9),
        missing,
    ]
    chosen = [[fault] for fault in faults]
    chosen += [rng.sample(faults, 2) for _ in range(40)]
    for pair in chosen:
        blocks, ground = [[1, 2], [2, 3, 4]], [1, 2, 3, 4]
        for fault in pair:
            fault(blocks, ground)
        yield blocks, ground


class TestOneBuilder:
    def test_loader_and_constructor_refuse_alike(self):
        count = 0
        for blocks, ground in _faulty_lists():
            with pytest.raises(InputError) as built:
                build_family(blocks, ground)
            with pytest.raises(InputError) as loaded:
                parse_instance(json.dumps({"blocks": blocks, "ground": ground}))
            assert type(loaded.value) is type(built.value), (blocks, ground)
            assert str(loaded.value) == str(built.value), (blocks, ground)
            count += 1
        assert count == 61

    def test_one_load_is_one_build(self, monkeypatch):
        calls = count_calls(monkeypatch, instance_io, "build_family")
        parse_instance('{"blocks": [[1, 2], [2, 3]], "ground": [1, 2, 3]}')
        assert calls["build_family"] == 1


# The loader builds the family with build_family and the weights without
# WeightFunction's second check; the public constructors, on the same
# document, are its reference.
SPELLINGS = [1, "1", "2/2", "1/2", "2/4", "0"]


def reference_load(text):
    doc = json.loads(text)
    family = build_family(doc["blocks"], doc.get("ground"))
    raw = doc.get("weights")
    weights = None if raw is None else WeightFunction(
        {int(key): parse_rational(value) for key, value in raw.items()}
    )
    return family, weights


def _documents():
    """Instance documents: the seeded sweeps and necklaces with every
    spelling of one value in turn, an own-family extension start on the
    60x60 matrix, the 201-ring at 1/2 and the uniform 24x24 matrix."""
    families = list(kappa2_sweep()) + list(kappa3_sweep())
    for i, fam in enumerate(families):
        doc = json.loads(dump_instance(fam))
        doc["weights"] = {
            str(g): SPELLINGS[(i + j) % len(SPELLINGS)] for j, g in enumerate(fam.ground)
        }
        yield json.dumps(doc)
    for k in (3, 5):
        for sides in (3, 4):
            for half_edges in (False, True):
                blocks, values = necklace(k, sides, half_edges, seed=k)
                yield dump_instance(build_family(blocks), WeightFunction(values))
    rows = [[60 * r + c + 1 for c in range(60)] for r in range(60)]
    yield json.dumps({"blocks": rows + [list(c) for c in zip(*rows)], "weights": {"1": 1}})
    ring = [[201 if k == 1 else k - 1, k] for k in range(1, 202)]
    yield json.dumps({"blocks": ring, "weights": {str(g): "1/2" for g in range(1, 202)}})
    rows = [[24 * r + c + 1 for c in range(24)] for r in range(24)]
    yield json.dumps({
        "blocks": rows + [list(c) for c in zip(*rows)],
        "weights": {str(g): "1/24" for g in range(1, 577)},
    })


class TestLoaderAgainstConstructors:
    def test_documents_load_as_the_constructors_build_them(self):
        count = 0
        for text in _documents():
            family, weights = reference_load(text)
            inst = parse_instance(text)
            assert inst.family.blocks == family.blocks
            assert [b.member_set for b in inst.family.blocks] == [
                b.member_set for b in family.blocks
            ]
            assert inst.family.ground == family.ground
            assert inst.family.gamma == family.gamma
            for b in family.blocks:
                assert inst.family.block(b.index) == b
            assert inst.weights.items() == weights.items()
            assert parse_weights_document(
                json.dumps({"weights": json.loads(text)["weights"]})
            ).items() == weights.items()
            count += 1
        assert count > 600

    def test_spellings_of_one_value_and_dropped_zeros(self):
        text = json.dumps({
            "blocks": [[1, 2, 3, 4, 5, 6]],
            "weights": {str(g): v for g, v in enumerate(SPELLINGS, start=1)},
        })
        inst = parse_instance(text)
        assert inst.weights.items() == ((1, 1), (2, 1), (3, 1), (4, F(1, 2)), (5, F(1, 2)))
        assert inst.weights.items() == reference_load(text)[1].items()
        assert inst.weights.support == (1, 2, 3, 4, 5)
