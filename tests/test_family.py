"""Tests for family construction, weights, and membership predicates."""

import random
from fractions import Fraction

import pytest

from blockstoch.errors import (
    DuplicateBlockError,
    EmptyBlockError,
    EmptyFamilyError,
    InputError,
    NotACoverError,
    NotStochasticError,
    UnknownElementError,
)
from blockstoch.family import (
    FreshnessVerdict,
    WeightFunction,
    build_family,
    check_freshness,
    check_injectivity,
    classify_membership,
    counting_identity,
    emptiness_test,
    fresh_prefix,
    max_multiplicity,
    multiplicity,
    normalize,
    require_stochastic,
    saturate,
)
from blockstoch.family import _common_denominator, _numerators
from blockstoch.cli import gen_random

from helpers import (
    count_calls,
    fraction_classify_membership,
    fraction_combination,
    fraction_counting_masses,
)

F = Fraction
HALF = F(1, 2)


def triangle():
    return build_family([[1, 2], [2, 3], [3, 1]])


class TestBuildFamily:
    def test_ground_is_sorted_union(self):
        fam = build_family([[3, 1], [2, 3]])
        assert fam.ground == (1, 2, 3)
        assert fam.blocks[0].members == (1, 3)

    def test_block_membership_test(self):
        block = build_family([[3, 1], [2, 3]]).blocks[0]
        assert 3 in block and 1 in block
        assert 2 not in block and "3" not in block

    def test_gamma_lists_containing_blocks(self):
        fam = triangle()
        assert fam.membership(1) == (1, 3)
        assert fam.membership(2) == (1, 2)
        assert multiplicity(fam, 3) == 2
        assert max_multiplicity(fam) == 2

    def test_hub_multiplicity(self):
        fam = build_family([[0, 1, 2], [0, 2, 3], [0, 3, 4]])
        assert multiplicity(fam, 0) == 3
        assert max_multiplicity(fam) == 3

    def test_empty_block_rejected(self):
        with pytest.raises(EmptyBlockError):
            build_family([[1, 2], []])

    def test_empty_family_rejected(self):
        with pytest.raises(EmptyFamilyError):
            build_family([])

    def test_duplicate_block_rejected(self):
        with pytest.raises(DuplicateBlockError):
            build_family([[1, 2], [2, 1]])

    def test_non_integer_labels_rejected(self):
        with pytest.raises(InputError):
            build_family([[1, "two"]])
        with pytest.raises(InputError):
            build_family([[True, 2]])
        with pytest.raises(InputError):
            build_family([[-1, 2]])

    def test_single_use_iterables(self):
        blocks, ground = [[3, 1], [2, 3], [4]], [4, 3, 2, 1]
        built = build_family(blocks, ground)
        for once in (
            build_family(iter(map(iter, blocks)), iter(ground)),
            build_family((iter(b) for b in blocks), (g for g in ground)),
        ):
            assert once.blocks == built.blocks
            assert once.ground == built.ground
            assert once.gamma == built.gamma

    def test_declared_ground_must_match_union(self):
        build_family([[1, 2]], ground=[1, 2])
        with pytest.raises(InputError):
            build_family([[1, 2]], ground=[1, 2, 3])
        with pytest.raises(InputError):
            build_family([[1, 2]], ground=[1])

    def test_singleton(self):
        fam = build_family([[1]])
        assert fam.ground == (1,)
        assert multiplicity(fam, 1) == 1


class TestWeightFunction:
    def test_zero_values_dropped(self):
        w = WeightFunction({1: F(0), 2: HALF})
        assert w.support == (2,)
        assert w.value(1) == 0

    def test_equality_is_pointwise(self):
        assert WeightFunction({1: F(1)}) == WeightFunction({1: F(1), 2: F(0)})
        assert WeightFunction({1: F(1)}) != WeightFunction({1: HALF})
        assert WeightFunction({1: F(1)}).__eq__({1: F(1)}) is NotImplemented
        assert WeightFunction({1: F(1)}) != {1: F(1)}

    def test_arithmetic(self):
        a = WeightFunction({1: HALF, 2: HALF})
        b = WeightFunction({2: HALF, 3: F(1)})
        assert (a + b).value(2) == F(1)
        assert (a - b).support == (1, 3)
        assert a.scaled(F(2)).value(1) == F(1)
        assert a.total() == F(1)

    def test_zero_one_flag(self):
        assert WeightFunction({1: F(1), 5: F(1)}).zero_one
        assert not WeightFunction({1: HALF}).zero_one
        assert WeightFunction.zero().zero_one

    def test_bad_labels_and_values_rejected(self):
        with pytest.raises(InputError):
            WeightFunction({"one": F(1)})
        with pytest.raises(InputError):
            WeightFunction({1: 0.5})


class TestArithmeticMatchesFractionReference:
    """``+``, ``-`` and ``scaled`` add integer numerators over one common
    denominator; sequential ``Fraction`` arithmetic through the validating
    constructor is their reference."""

    def test_seeded_sweep(self):
        rng = random.Random(14)

        def draw():
            labels = rng.sample(range(12), rng.randint(0, 8))
            dens = (1, 2, 3, 6, 7, 60)
            return WeightFunction(
                {g: F(rng.randint(-9, 9), rng.choice(dens)) for g in labels}
            )

        factors = [0, 1, -1, 3, F(-2, 7), F(5, 6), F(1, 60)]
        for _ in range(300):
            a, b, c = draw(), draw(), rng.choice(factors)
            cases = [
                (a + b, fraction_combination(((1, a), (1, b)))),
                (a - b, fraction_combination(((1, a), (-1, b)))),
                (a.scaled(c), fraction_combination(((c, a),))),
                (a - a, WeightFunction({})),
            ]
            for got, expected in cases:
                assert got == expected and hash(got) == hash(expected)
                assert got.items() == expected.items()
                assert got.support == expected.support
                assert all(type(v) is Fraction for _, v in got.items())

    def test_scaled_rejects_what_the_constructor_rejects(self):
        w = WeightFunction({1: HALF})
        for factor in (0.5, True, "1"):
            with pytest.raises(InputError, match="is not rational"):
                w.scaled(factor)


class TestMembership:
    def test_stochastic_triangle_point(self):
        fam = triangle()
        w = WeightFunction({1: HALF, 2: HALF, 3: HALF})
        report = classify_membership(fam, w)
        assert report.stochastic
        assert report.substochastic
        assert not report.exact_cover
        assert report.block_sum(2) == F(1)

    def test_exact_cover_flags(self):
        fam = build_family([[1, 2], [3, 4]])
        cover = WeightFunction({1: F(1), 3: F(1)})
        report = classify_membership(fam, cover)
        assert report.exact_cover
        assert report.packing

    def test_packing_only(self):
        fam = build_family([[1, 2], [3, 4]])
        part = WeightFunction({1: F(1)})
        report = classify_membership(fam, part)
        assert report.packing
        assert not report.exact_cover
        assert not report.stochastic

    def test_negative_value_clears_all_flags(self):
        fam = build_family([[1, 2]])
        w = WeightFunction({1: F(-1), 2: F(2)})
        report = classify_membership(fam, w)
        assert not report.nonnegative
        assert not report.stochastic
        assert not report.substochastic

    def test_unknown_support_label_rejected(self):
        fam = triangle()
        with pytest.raises(UnknownElementError):
            classify_membership(fam, WeightFunction({9: F(1)}))

    def test_require_stochastic_names_block_and_sum(self):
        fam = triangle()
        w = WeightFunction({1: HALF, 2: HALF, 3: F(3, 4)})
        with pytest.raises(NotStochasticError, match=r"block 2 sums to 5/4"):
            require_stochastic(fam, w)


def _membership_cases():
    """Seeded (family, weight function) pairs: families with multiplicity
    up to three, values p/q with q from 2 to 12 (negative, zero or above
    one), maximal 0/1 packings, the family's own member point, the empty
    function, and supports drawn past the ground set's ends and gaps."""
    rng = random.Random(13)
    for i in range(300):
        elements, blocks = rng.randint(2, 10), rng.randint(1, 8)
        fam, member = gen_random(elements, blocks, kappa_max=1 + i % 3, seed=40_000 + i)
        ground = list(fam.ground)
        yield fam, WeightFunction.zero()
        if member is not None:
            yield fam, member
        for _ in range(4):
            support = rng.sample(ground, rng.randint(1, len(ground)))
            q = rng.randint(2, 12)
            mixed = rng.random() < 0.5
            yield fam, WeightFunction(
                {
                    g: F(rng.randint(-q, 2 * q), rng.randint(2, 12) if mixed else q)
                    for g in support
                }
            )
        packing, hit = {}, set()
        for g in rng.sample(ground, len(ground)):
            if hit.isdisjoint(fam.gamma[g]):
                packing[g] = F(1)
                hit.update(fam.gamma[g])
        yield fam, WeightFunction(packing)
        labels = range(-1, ground[-1] + 3)
        yield fam, WeightFunction(
            {g: F(1, rng.randint(2, 12)) for g in rng.sample(labels, 3)}
        )


def _outcome(classify, fam, w):
    """The report, or the message of the unknown-label error."""
    try:
        return classify(fam, w)
    except UnknownElementError as exc:
        return str(exc)


def _stochastic_message(report):
    """The message ``require_stochastic`` raised with the per-block
    ``Fraction`` report, or None when ``w`` is stochastic."""
    if report.stochastic:
        return None
    if not report.nonnegative:
        return "weight function takes a negative value"
    bad, total = next((k, s) for k, s in report.block_sums if s != 1)
    return f"block {bad} sums to {total}"


class TestIntegerMembershipMatchesFractionOracle:
    """The membership test sums blocks as integers over one common
    denominator; the per-block ``Fraction`` sums are its reference."""

    def test_seeded_sweep(self):
        kinds = "unknown negative above_one missed stochastic exact_cover packing empty"
        seen = dict.fromkeys(kinds.split(), 0)
        for fam, w in _membership_cases():
            got = _outcome(classify_membership, fam, w)
            expected = _outcome(fraction_classify_membership, fam, w)
            assert got == expected
            if isinstance(expected, str):
                seen["unknown"] += 1
                with pytest.raises(UnknownElementError) as info:
                    require_stochastic(fam, w)
                assert str(info.value) == expected
                continue
            assert [str(s) for _, s in got.block_sums] == [
                str(s) for _, s in expected.block_sums
            ]
            assert all(type(s) is Fraction for _, s in got.block_sums)
            message = _stochastic_message(expected)
            if message is None:
                scale = _common_denominator(w)
                read = require_stochastic(fam, w)
                assert read == (_numerators(w, scale), scale)
                assert list(read[0]) == list(w.support)
                identity = counting_identity(fam, w)
                masses = fraction_counting_masses(fam, w)
                assert (identity.weighted_mass, identity.bound) == masses
                assert str(identity.bound) == str(masses[1])
            else:
                with pytest.raises(NotStochasticError) as info:
                    require_stochastic(fam, w)
                assert str(info.value) == message
            seen["negative"] += not expected.nonnegative
            seen["above_one"] += any(s > 1 for _, s in expected.block_sums)
            seen["missed"] += any(s == 0 for _, s in expected.block_sums)
            seen["stochastic"] += expected.stochastic
            seen["exact_cover"] += expected.exact_cover
            seen["packing"] += expected.packing
            seen["empty"] += not w.support
        assert min(seen.values()) >= 20, seen

    def test_uniform_matrix_makes_no_fraction_additions(self, monkeypatch):
        m = 24
        rows = [[m * r + c + 1 for c in range(m)] for r in range(m)]
        fam = build_family(rows + [list(col) for col in zip(*rows)])
        w = WeightFunction({g: F(1, m) for g in fam.ground})
        counts = count_calls(monkeypatch, Fraction, "__add__", "__radd__")
        report = classify_membership(fam, w)
        monkeypatch.undo()
        assert report.stochastic
        assert counts["__add__"] == counts["__radd__"] == 0


class TestCountingIdentity:
    def test_identity_holds_for_stochastic(self):
        fam = triangle()
        w = WeightFunction({1: HALF, 2: HALF, 3: HALF})
        identity = counting_identity(fam, w)
        assert identity.block_count == 3
        assert identity.weighted_mass == F(3)
        assert identity.holds
        assert identity.bounded

    def test_rejects_non_stochastic(self):
        fam = triangle()
        with pytest.raises(NotStochasticError):
            counting_identity(fam, WeightFunction({1: F(1)}))


class TestEmptinessTest:
    def test_two_by_three_lines_certified_empty(self):
        rows = [[1, 2, 3], [4, 5, 6]]
        cols = [[1, 4], [2, 5], [3, 6]]
        fam = build_family(rows + cols)
        verdict = emptiness_test(fam, cover=[1, 2])
        assert verdict.certified_empty
        assert verdict.block_count == 5
        assert verdict.threshold == 4

    def test_square_is_inconclusive(self):
        fam = build_family([[1, 2], [3, 4], [1, 3], [2, 4]])
        verdict = emptiness_test(fam, cover=[1, 2])
        assert not verdict.certified_empty

    def test_cover_must_cover(self):
        fam = triangle()
        with pytest.raises(NotACoverError):
            emptiness_test(fam, cover=[1])


class TestNormalize:
    def test_superset_block_removed(self):
        fam = build_family([[1, 2], [1, 2, 3], [3, 4]])
        reduced, log = normalize(fam)
        assert [b.members for b in reduced.blocks] == [(1, 2), (3, 4)]
        assert log.removed_blocks == ((2, 1),)

    def test_idempotent(self):
        fam = build_family([[1, 2], [2, 3]])
        reduced, log = normalize(fam)
        assert log.removed_blocks == ()
        assert [b.members for b in reduced.blocks] == [(1, 2), (2, 3)]


class TestSaturate:
    def test_slack_added_outside_equality_set(self):
        fam = build_family([[1, 2], [2, 3], [3, 4]])
        widened, slacks = saturate(fam, equality=[1, 3])
        assert set(slacks) == {2}
        label = slacks[2]
        assert label not in fam.gamma
        assert label in widened.block(2).member_set
        assert widened.block(1).members == (1, 2)
        assert widened.block(3).members == (3, 4)


class TestStructureConditions:
    def test_injectivity_detects_equal_membership(self):
        fam = build_family([[1, 2, 3], [2, 3, 4]])
        assert check_injectivity(fam) == (2, 3)

    def test_injectivity_passes_when_distinct(self):
        assert check_injectivity(triangle()) is None

    def test_freshness_cover_mode(self):
        fam = triangle()
        verdict = check_freshness(fam, 2)
        assert verdict.ok
        assert verdict.mode == "cover"

    def test_freshness_fresh_mode(self):
        fam = build_family([[1, 2], [2, 3, 5], [3, 4]])
        verdict = check_freshness(fam, 1)
        assert verdict.ok
        assert verdict.mode == "fresh"

    def test_finite_path_interior_blocks_are_absorbed(self):
        fam = build_family([[1, 2], [2, 3], [3, 4]])
        verdict = check_freshness(fam, 1)
        assert not verdict.ok
        assert verdict.violations == (2,)

    def test_freshness_violation(self):
        fam = build_family([[1, 2], [2, 3], [1, 3], [1, 2, 3, 4], [4, 5]])
        verdict = check_freshness(fam, 0)
        assert not verdict.ok
        assert 1 in verdict.violations

    def test_fresh_prefix_modes(self):
        path = build_family([[1, 2], [2, 3], [3, 4]])
        assert fresh_prefix(path) == check_freshness(path, 2)
        assert fresh_prefix(path).mode == "fresh"
        ring = build_family([[i, i % 151 + 1] for i in range(1, 152)])
        assert fresh_prefix(ring) == FreshnessVerdict(ok=True, mode="cover", m=150)
        assert fresh_prefix(triangle()).m == 2


# Input refusals of family construction, weight functions and the
# freshness check, each a call, the exception class and the exact message.
FAMILY_REFUSALS = [
    (lambda: build_family([[1, 2], [3, 3, 4]]), InputError, "block 2 repeats a member"),
    (lambda: build_family([[1]], ground=[-1]),
     InputError, '"ground": labels must be non-negative, got -1'),
    (lambda: build_family([[1]], ground=[True]),
     InputError, '"ground": labels must be integers, got True'),
    (lambda: build_family([[1]], ground=["1"]),
     InputError, '"ground": labels must be integers, got \'1\''),
    (lambda: WeightFunction([(1, F(1, 2)), (2, 1), (1, F(1, 2))]),
     InputError, "label 1 appears twice"),
    (lambda: check_freshness(triangle(), -1), InputError, "m must lie in [0, 3]"),
    (lambda: check_freshness(triangle(), 4), InputError, "m must lie in [0, 3]"),
    (lambda: triangle().block(4), InputError, "no block with index 4"),
    # a repeated ground label, after the ground labels' type checks and
    # before the comparison with the union
    (lambda: build_family([[1, 2]], ground=[1, 1, 2]), InputError, "ground label 1 is given twice"),
    (lambda: build_family([[1, 2]], ground=[1, 1, "x"]),
     InputError, '"ground": labels must be integers, got \'x\''),
    (lambda: build_family([[1, 2], [3]], ground=[3, 3]), InputError, "ground label 3 is given twice"),
]


@pytest.mark.parametrize(
    "call, error, message", FAMILY_REFUSALS, ids=range(len(FAMILY_REFUSALS))
)
def test_input_refusals(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message
