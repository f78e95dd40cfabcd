"""Tests for generator-backed families and truncation completion."""

import dataclasses
import json
import random
from collections import Counter
from fractions import Fraction
from itertools import chain, islice, permutations
from math import lcm

import pytest

from blockstoch import cli, extension, oracle
from blockstoch.errors import (
    GeneratorInconsistentError,
    HorizonExhaustedError,
    InputError,
    NotStochasticError,
)
from blockstoch.extension import (
    SCAN_LIMIT,
    DisjointGrowingGenerator,
    GridGenerator,
    PathGenerator,
    Truncation,
    WrappedFamilyGenerator,
    approximate_by_extremes,
    extend_truncation,
    get_generator,
    tail_sums,
    validate_truncation,
    verify_extension,
)
from blockstoch.family import WeightFunction, build_family, max_multiplicity
from blockstoch.instance_io import format_rational, weights_to_document
from blockstoch.oracle import is_vertex

from helpers import (
    FullScanGenerator,
    count_calls,
    fraction_verify_extension,
    full_scan_result,
    full_scan_steps,
    kappa2_sweep,
    kappa3_sweep,
    random_truncation,
)

F = Fraction
HALF = F(1, 2)


class TestGenerators:
    def test_path_blocks(self):
        gen = PathGenerator()
        assert list(gen.block_elements(1)) == [1, 2]
        assert list(gen.block_elements(5)) == [5, 6]
        assert gen.gamma_of(1) == (1,)
        assert gen.gamma_of(4) == (3, 4)
        assert gen.contains(3, 4)
        assert not gen.contains(3, 5)

    def test_disjoint_growing_blocks(self):
        gen = DisjointGrowingGenerator()
        assert list(gen.block_elements(1)) == [1]
        assert list(gen.block_elements(2)) == [2, 3]
        assert list(gen.block_elements(4)) == [7, 8, 9, 10]
        for g in range(1, 30):
            (k,) = gen.gamma_of(g)
            assert g in list(gen.block_elements(k))

    def test_grid_label_cell_round_trip(self):
        gen = GridGenerator()
        for label in range(1, 60):
            r, c = gen.cell(label)
            assert gen.label(r, c) == label
        assert gen.gamma_of(gen.label(2, 3)) == (3, 6)

    def test_grid_blocks_are_lazy_and_unbounded(self):
        gen = GridGenerator()
        row = gen.block_elements(1)
        first = [next(row) for _ in range(4)]
        assert first == [1, 2, 4, 7]
        assert gen.block_count is None

    def test_wrapped_finite_family(self):
        fam = build_family([[1, 2], [2, 3]])
        gen = WrappedFamilyGenerator(fam)
        assert gen.block_count == 2
        assert list(gen.block_elements(2)) == [2, 3]
        assert not gen.claims_fresh_supply

    @pytest.mark.parametrize(
        "gen", [PathGenerator(), GridGenerator(), DisjointGrowingGenerator()],
        ids=lambda gen: gen.name,
    )
    def test_fresh_elements_are_the_labels_whose_first_block_is_k(self, gen):
        reference = FullScanGenerator(gen)
        for k in range(1, 301):
            got = list(islice(gen.fresh_elements(k), 40))
            assert got == list(islice(reference.fresh_elements(k), 40)), k
            assert got == sorted(got)

    def test_wrapped_fresh_elements_on_seeded_sweep(self):
        for fam in kappa2_sweep():
            gen = WrappedFamilyGenerator(fam)
            reference = FullScanGenerator(gen)
            for b in fam.blocks:
                fresh = list(gen.fresh_elements(b.index))
                assert fresh == list(reference.fresh_elements(b.index)), fam.blocks
            # every label is fresh in exactly one block
            assert sorted(
                g for b in fam.blocks for g in gen.fresh_elements(b.index)
            ) == sorted(fam.ground)

    def test_get_generator(self):
        assert get_generator("path").name == "path"
        assert get_generator("disjoint-growing").name == "disjoint-growing"
        assert get_generator("grid").name == "grid"
        with pytest.raises(InputError):
            get_generator("spiral")


class TestValidateTruncation:
    def test_valid(self):
        gen = PathGenerator()
        validate_truncation(gen, Truncation(1, WeightFunction({1: F(1)})))

    def test_returns_fraction_block_sums(self):
        gen = PathGenerator()
        w = WeightFunction({1: F(1, 3), 2: F(2, 3)})
        sums = validate_truncation(gen, Truncation(1, w))
        assert sums == {1: F(1), 2: F(2, 3)}
        assert all(type(total) is F for total in sums.values())

    def test_block_sum_must_be_one(self):
        gen = PathGenerator()
        with pytest.raises(NotStochasticError):
            validate_truncation(gen, Truncation(1, WeightFunction({1: HALF})))

    def test_support_must_stay_inside_prefix(self):
        gen = PathGenerator()
        w = WeightFunction({1: F(1), 4: HALF})
        with pytest.raises(InputError):
            validate_truncation(gen, Truncation(1, w))

    def test_beyond_prefix_at_most_one(self):
        gen = PathGenerator()
        w = WeightFunction({1: HALF, 2: HALF, 3: F(2, 3)})
        with pytest.raises(NotStochasticError):
            validate_truncation(gen, Truncation(2, w))


class TestTailSums:
    def test_path_tail_vanishes(self):
        gen = PathGenerator()
        trunc = Truncation(1, WeightFunction({1: HALF, 2: HALF}))
        sums = tail_sums(gen, trunc, horizon=5)
        assert sums == (HALF, F(0), F(0), F(0))


class TestExtendTruncation:
    def test_alternating_path_completion(self):
        gen = PathGenerator()
        trunc = Truncation(1, WeightFunction({1: F(1)}))
        result = extend_truncation(gen, trunc, horizon=10)
        assert result.chosen_elements == (3, 5, 7, 9, 11)
        assert all(step.value == 1 for step in result.steps)
        assert all(step.pattern == "a" for step in result.steps)
        assert result.complete
        expected = WeightFunction({g: F(1) for g in (1, 3, 5, 7, 9, 11)})
        assert result.extended == expected
        report = verify_extension(result, gen, trunc)
        assert report.ok
        assert report.vertex_input is True
        assert report.vertex_shadow is True

    def test_step_inside_the_first_blocks_is_not_fresh(self):
        # the walk from depth 1 read at depth 2: its first step, element 3
        # in blocks 2 and 3, now lies in the first n blocks
        gen = PathGenerator()
        w = WeightFunction({1: F(1)})
        result = extend_truncation(gen, Truncation(1, w), horizon=10)
        report = verify_extension(result, gen, Truncation(2, w))
        assert "chosen element 3 is not fresh" in report.violations
        assert not report.ok

    def test_half_half_path_completion(self):
        gen = PathGenerator()
        trunc = Truncation(1, WeightFunction({1: HALF, 2: HALF}))
        result = extend_truncation(gen, trunc, horizon=10)
        assert result.chosen_elements == (3, 4, 5, 6, 7, 8, 9, 10, 11)
        assert all(step.value == HALF for step in result.steps)
        patterns = [step.pattern for step in result.steps]
        assert patterns == ["a", "b", "a", "b", "a", "b", "a", "b", "a"]
        report = verify_extension(result, gen, trunc)
        assert report.ok

    def test_determinism(self):
        gen = PathGenerator()
        trunc = Truncation(1, WeightFunction({1: F(1)}))
        assert extend_truncation(gen, trunc, 10) == extend_truncation(gen, trunc, 10)

    def test_zero_one_preserved_on_grid(self):
        gen = GridGenerator()
        w = WeightFunction({1: F(1)})
        result = extend_truncation(gen, Truncation(2, w), horizon=8)
        assert result.extended.zero_one
        assert result.complete

    def test_grid_completion_balances_rows_and_columns(self):
        gen = GridGenerator()
        w = WeightFunction({1: HALF, 2: HALF, 3: HALF})
        result = extend_truncation(gen, Truncation(2, w), horizon=8)
        report = verify_extension(result, gen, Truncation(2, w))
        assert report.ok
        assert result.complete
        top = max(result.extended.support)
        for k in range(1, 9):
            total = F(0)
            for g in gen.block_elements(k):
                if g > top:
                    break
                total += result.extended.value(g)
            assert total == 1

    def test_horizon_must_exceed_prefix(self):
        gen = PathGenerator()
        with pytest.raises(InputError):
            extend_truncation(gen, Truncation(1, WeightFunction({1: F(1)})), 1)

    def test_wrapped_family_can_exhaust(self):
        fam = build_family([[1], [1, 2], [2]])
        gen = WrappedFamilyGenerator(fam)
        trunc = Truncation(1, WeightFunction({1: F(1)}))
        with pytest.raises(HorizonExhaustedError) as caught:
            extend_truncation(gen, trunc, horizon=3)
        assert str(caught.value) == (
            "block 3 cannot be saturated: no fresh eligible element exists"
        )

    def test_wrapped_family_can_complete(self):
        fam = build_family([[1, 2], [3, 4], [5, 6]])
        gen = WrappedFamilyGenerator(fam)
        trunc = Truncation(1, WeightFunction({1: F(1)}))
        result = extend_truncation(gen, trunc, horizon=3)
        assert result.complete
        assert result.extended.zero_one


class _CountingPath(PathGenerator):
    """A path that counts the ``gamma_of`` calls made for each label and
    the ``contains`` calls made for each (block, label) pair."""

    def __init__(self):
        self.asked = {}
        self.contains_asked = {}

    def gamma_of(self, g):
        self.asked[g] = self.asked.get(g, 0) + 1
        return super().gamma_of(g)

    def contains(self, k, g):
        self.contains_asked[k, g] = self.contains_asked.get((k, g), 0) + 1
        return super().contains(k, g)


class TestGammaMemo:
    def test_each_label_is_read_once_per_call(self):
        gen = _CountingPath()
        trunc = Truncation(1, WeightFunction({1: HALF, 2: HALF}))
        validate_truncation(gen, trunc)
        assert gen.asked == {1: 1, 2: 1}
        gen.asked.clear()
        result = extend_truncation(gen, trunc, horizon=30)
        # the truncation's labels: validation and the re-check; each
        # chosen label: the scan and the re-check
        assert set(gen.asked.values()) == {2}
        gen.asked.clear()
        gen.contains_asked.clear()
        assert verify_extension(result, gen, trunc).ok
        assert gen.asked == {g: 1 for g in result.extended.support}
        # the extended support, both packings and the base each list
        # their blocks, but each pair is cross-checked once
        assert gen.contains_asked == {
            (k, g): 1 for g in result.extended.support for k in gen.gamma_of(g)
        }

    def test_each_call_builds_one_index(self, monkeypatch):
        built = []
        label_index = extension._label_index

        def counting(generator, labels):
            built.append(list(labels))
            return label_index(generator, labels)

        monkeypatch.setattr(extension, "_label_index", counting)
        gen = PathGenerator()
        trunc = Truncation(1, WeightFunction({1: HALF, 2: HALF}))
        validate_truncation(gen, trunc)
        assert built == [[1, 2]]
        built.clear()
        result = extend_truncation(gen, trunc, horizon=30)
        # the validation and the re-check
        assert built == [[1, 2], list(result.extended.support)]
        built.clear()
        assert verify_extension(result, gen, trunc).ok
        assert built == [list(result.extended.support)]


class TestVerifyExtension:
    def test_corrupted_value_reported(self):
        gen = PathGenerator()
        trunc = Truncation(1, WeightFunction({1: F(1)}))
        result = extend_truncation(gen, trunc, horizon=6)
        bumped = result.extended + WeightFunction({result.steps[0].element: F(1, 4)})
        broken = dataclasses.replace(result, extended=bumped)
        report = verify_extension(broken, gen, trunc)
        assert not report.ok
        assert report.violations

    def test_phantom_overlap_reported(self):
        gen = PathGenerator()
        trunc = Truncation(1, WeightFunction({1: F(1)}))
        result = extend_truncation(gen, trunc, horizon=8)
        assert all(step.overlap_with is None for step in result.steps)
        steps = list(result.steps)
        steps[1] = dataclasses.replace(steps[1], overlap_with=3)
        broken = dataclasses.replace(result, steps=tuple(steps))
        report = verify_extension(broken, gen, trunc)
        assert report.violations == ("element 5 records a phantom overlap",)

    def test_wrong_overlap_reported(self):
        gen = PathGenerator()
        trunc = Truncation(1, WeightFunction({1: HALF, 2: HALF}))
        result = extend_truncation(gen, trunc, horizon=8)
        assert result.steps[1].element == 4
        assert result.steps[1].overlap_with == 3
        for recorded in (5, None):
            steps = list(result.steps)
            steps[1] = dataclasses.replace(steps[1], overlap_with=recorded)
            broken = dataclasses.replace(result, steps=tuple(steps))
            report = verify_extension(broken, gen, trunc)
            assert report.violations == ("element 4 records the wrong overlap",)

    def test_meeting_two_earlier_elements_reported(self):
        gen = PathGenerator()
        trunc = Truncation(1, WeightFunction({1: HALF, 2: HALF}))
        result = extend_truncation(gen, trunc, horizon=8)
        first, second, third, *rest = result.steps
        assert [s.element for s in (first, second, third)] == [3, 4, 5]
        broken = dataclasses.replace(result, steps=(first, third, second, *rest))
        report = verify_extension(broken, gen, trunc)
        assert report.violations == (
            "element 5 records a phantom overlap",
            "element 4 meets 2 earlier elements",
        )

    def test_violations_past_the_digit_limit_are_reported(self):
        # the bumped value of element 3 and the sums of blocks 2 and 3
        # have about 5000 digits, past the interpreter's default limit
        gen = PathGenerator()
        p, q = 10**2500 + 7, 10**2500 + 9
        trunc = Truncation(1, WeightFunction({1: F(1, p), 2: F(p - 1, p)}))
        result = extend_truncation(gen, trunc, horizon=3)
        bumped = result.extended + WeightFunction({3: F(1, q)})
        report = verify_extension(dataclasses.replace(result, extended=bumped), gen, trunc)
        carried = format_rational(result.steps[0].value + F(1, q))
        assert report.violations[0] == f"element 3 carries {carried}, not its step value"
        assert "step at 3 left no trace in the completion" in report.violations
        assert any(v.startswith("block 2 sums to ") for v in report.violations)


class _LyingPathGenerator(PathGenerator):
    """A path whose gamma_of lists one block too many for fresh labels."""

    def gamma_of(self, g):
        gamma = super().gamma_of(g)
        return gamma if g < 3 else (*gamma, g + 5)


class _StalePathGenerator(PathGenerator):
    """A path that offers each whole block as fresh, earlier labels too."""

    def fresh_elements(self, k):
        return self.block_elements(k)


class TestGeneratorConsistency:
    def test_walk_rejects_a_fresh_label_of_an_earlier_block(self):
        gen = _StalePathGenerator()
        trunc = Truncation(1, WeightFunction({1: F(1)}))
        with pytest.raises(GeneratorInconsistentError) as caught:
            extend_truncation(gen, trunc, horizon=4)
        assert str(caught.value) == (
            "block 2 yields label 2 as fresh, but its first block is 1"
        )

    def test_walk_rejects_a_block_contains_denies(self):
        gen = _LyingPathGenerator()
        trunc = Truncation(1, WeightFunction({1: F(1)}))
        with pytest.raises(GeneratorInconsistentError) as caught:
            extend_truncation(gen, trunc, horizon=4)
        assert str(caught.value) == (
            "gamma_of(3) lists block 8 but contains(8, 3) is false"
        )

    def test_recheck_rejects_a_block_contains_denies(self):
        # the least label that lies raises, as the call's one index reads
        # its labels in ascending order
        trunc = Truncation(1, WeightFunction({1: F(1)}))
        result = extend_truncation(PathGenerator(), trunc, horizon=6)
        with pytest.raises(GeneratorInconsistentError) as caught:
            verify_extension(result, _LyingPathGenerator(), trunc)
        assert str(caught.value) == (
            "gamma_of(3) lists block 8 but contains(8, 3) is false"
        )


def _wrapped_truncations(fam):
    """Truncations at depth one of a wrapped family: each member of block
    one alone at one, and its first two members at one half."""
    first = fam.block(1).members
    yield {g: F(1) for g in first[:1]}
    if len(first) >= 2:
        yield {g: HALF for g in first[:2]}


FULL_SCAN_CASES = pytest.mark.parametrize(
    "gen, n, weights, horizon",
    [
        (PathGenerator(), 1, {1: F(1)}, 200),
        (PathGenerator(), 1, {1: HALF, 2: HALF}, 200),
        (PathGenerator(), 3, {1: F(1, 3), 2: F(2, 3), 3: F(1, 3), 4: F(2, 3)}, 200),
        (GridGenerator(), 2, {1: F(1)}, 300),
        (GridGenerator(), 2, {1: HALF, 2: HALF, 3: HALF}, 300),
        (GridGenerator(), 3, {1: F(1, 3), 2: F(2, 3), 3: F(2, 3), 5: F(1, 3)}, 300),
        # the walk once offered label 19 to block 6, which held the chosen
        # label 13, though its row (block 7) held the chosen label 14
        (GridGenerator(), 2, {1: F(1, 6), 2: F(1, 4), 4: F(7, 12), 3: F(1, 6), 6: F(2, 3)}, 40),
        (DisjointGrowingGenerator(), 1, {1: F(1)}, 40),
        (DisjointGrowingGenerator(), 3, {1: F(1), 2: HALF, 3: HALF, 5: F(1)}, 40),
    ],
    ids=[
        "path-vertex", "path-split", "path-thirds", "grid-vertex",
        "grid-split", "grid-thirds", "grid-met-two", "disjoint-vertex",
        "disjoint-split",
    ],
)


class TestFullScanOracle:
    @FULL_SCAN_CASES
    def test_walk_matches_the_full_scan(self, gen, n, weights, horizon):
        trunc = Truncation(n, WeightFunction(weights))
        result = extend_truncation(gen, trunc, horizon)
        assert result == extend_truncation(FullScanGenerator(gen), trunc, horizon)
        steps = tuple((s.element, s.block_index, s.value) for s in result.steps)
        assert steps == full_scan_steps(gen, trunc, horizon)
        assert result == full_scan_result(gen, trunc, horizon)
        report = verify_extension(result, gen, trunc)
        assert report == fraction_verify_extension(result, gen, trunc)

    def test_wrapped_walk_matches_the_full_scan_on_seeded_sweep(self, monkeypatch):
        # κ = 3 families also reach verify_extension's integer elimination
        adds = count_calls(monkeypatch, oracle._Elimination, "add")
        compared, exhausted = Counter(), Counter()
        eliminated = 0
        for fam in chain(kappa2_sweep(), kappa3_sweep()):
            if len(fam.blocks) < 2:
                continue
            kappa3 = max_multiplicity(fam) > 2
            gen = WrappedFamilyGenerator(fam)
            horizon = len(fam.blocks)
            for weights in _wrapped_truncations(fam):
                trunc = Truncation(1, WeightFunction(weights))
                try:
                    validate_truncation(gen, trunc)
                except NotStochasticError:
                    continue
                reference = full_scan_steps(gen, trunc, horizon)
                try:
                    result = extend_truncation(gen, trunc, horizon)
                except HorizonExhaustedError:
                    assert reference is None, fam.blocks
                    with pytest.raises(HorizonExhaustedError):
                        extend_truncation(FullScanGenerator(gen), trunc, horizon)
                    exhausted[kappa3] += 1
                    continue
                assert result == extend_truncation(FullScanGenerator(gen), trunc, horizon)
                steps = tuple((s.element, s.block_index, s.value) for s in result.steps)
                assert steps == reference, fam.blocks
                before = adds["add"]
                assert verify_extension(result, gen, trunc) == fraction_verify_extension(
                    result, gen, trunc
                ), fam.blocks
                eliminated += adds["add"] > before
                compared[kappa3] += 1
        assert compared[False] > 300 and exhausted[False] > 500
        assert compared[True] > 20 and exhausted[True] > 100 and eliminated > 10


def _valid_truncations():
    """Seeded valid truncations at depths 2 to 4 in halves, thirds,
    quarters and sixths, with their horizons: 30 draws of each on grid
    and 5 on path, to horizon 30, and one on every third wrapped κ ≤ 2
    family of the seeded sweep, to its last block."""
    rng = random.Random(11)
    plans = [(GridGenerator(), 30, 30), (PathGenerator(), 30, 5)]
    plans += [
        (WrappedFamilyGenerator(fam), len(fam.blocks), 1)
        for fam in islice(kappa2_sweep(), 0, None, 3)
    ]
    for gen, horizon, draws in plans:
        for n in (2, 3, 4):
            if gen.block_count is not None and gen.block_count <= n:
                continue
            for denominator in (2, 3, 4, 6):
                for _ in range(draws):
                    weights = random_truncation(gen, n, denominator, rng)
                    if weights is not None:
                        yield gen, Truncation(n, WeightFunction(weights)), horizon


class TestValidTruncationSweep:
    def test_each_completes_and_verifies_or_exhausts(self):
        outcomes = Counter()
        for gen, trunc, horizon in _valid_truncations():
            reference = full_scan_steps(gen, trunc, horizon)
            # no InternalPropertyError: the walk keeps its own invariants
            try:
                result = extend_truncation(gen, trunc, horizon)
            except HorizonExhaustedError:
                assert reference is None, (gen.name, trunc)
                outcomes[gen.name, "exhausted"] += 1
                continue
            assert verify_extension(result, gen, trunc).ok, (gen.name, trunc)
            steps = tuple((s.element, s.block_index, s.value) for s in result.steps)
            assert steps == reference, (gen.name, trunc)
            outcomes[gen.name, "complete"] += 1
        assert outcomes["grid", "complete"] == 303
        assert outcomes["path", "complete"] == 60
        assert outcomes["wrapped", "complete"] > 150
        assert outcomes["wrapped", "exhausted"] > 300


def _with(w, label, value):
    """``w`` with ``label`` set to ``value`` (dropped when zero)."""
    return WeightFunction({**dict(w.items()), label: value})


def _corruptions(result, trunc, gen):
    """Broken copies of a completion, by name, each of which the re-check
    must reject."""
    replace = dataclasses.replace
    first = result.steps[0].element
    base_label = trunc.w.support[0]
    extended = result.extended
    steps = list(result.steps)
    yield "foreign denominator", replace(
        result, extended=_with(extended, first, extended(first) + F(1, 7))
    )
    yield "packing value 2", replace(
        result, packing_a=_with(result.packing_a, first, F(2))
    )
    yield "packing value 1/2", replace(
        result, packing_a=_with(result.packing_a, first, HALF)
    )
    yield "packing value 3/2", replace(
        result, packing_a=_with(result.packing_a, first, F(3, 2))
    )
    if result.packing_b.support:
        yield "packing b value 1/4", replace(
            result, packing_b=_with(result.packing_b, result.packing_b.support[0], F(1, 4))
        )
    value = steps[0].value
    yield "step disagrees", replace(
        result, steps=(replace(steps[0], value=value / 3), *steps[1:])
    )
    if value.denominator > 2:
        # a denominator the values lack, so the re-check's scale needs it
        yield "step value over another denominator", replace(
            result,
            steps=(
                replace(steps[0], value=F(value.numerator, value.denominator - 1)),
                *steps[1:],
            ),
        )
    yield "negative chosen value", replace(
        result, extended=_with(extended, first, F(-1, 5))
    )
    yield "base value lowered", replace(
        result, extended=_with(extended, base_label, extended(base_label) - F(1, 7))
    )
    yield "base label dropped", replace(
        result, extended=_with(extended, base_label, 0)
    )
    yield "chosen label dropped", replace(result, extended=_with(extended, first, 0))
    # a label of the first chosen element's block that neither the
    # completion nor the base holds, put beside that element into packing
    # a, the first step's pattern, so the block's packing sum is 2
    outside = next(
        (
            g
            for g in islice(gen.block_elements(steps[0].block_index), SCAN_LIMIT)
            if extended(g) == 0 and trunc.w(g) == 0
        ),
        None,
    )
    if outside is not None:
        yield "packing label outside completion and base", replace(
            result, packing_a=_with(result.packing_a, outside, F(1))
        )
    yield "stray element", replace(
        result, extended=_with(extended, max(extended.support) + 1, F(1, 3))
    )
    yield "repeated step", replace(result, steps=(*steps, steps[0]))
    # the chosen element is fresh, so it lies in no block up to n
    yield "wrong block", replace(
        result, steps=(replace(steps[0], block_index=trunc.n), *steps[1:])
    )


def _outcome(check, result, gen, trunc):
    """The report of ``check``, or the type and message of what it raised."""
    try:
        return check(result, gen, trunc)
    except InputError as error:
        return type(error), str(error)


class TestFractionOracle:
    """The integer re-check against its ``Fraction`` reference."""

    @FULL_SCAN_CASES
    def test_corrupted_results_get_the_same_report(self, gen, n, weights, horizon):
        trunc = Truncation(n, WeightFunction(weights))
        result = extend_truncation(gen, trunc, horizon)
        for name, broken in _corruptions(result, trunc, gen):
            report = verify_extension(broken, gen, trunc)
            assert not report.ok, name
            assert report == fraction_verify_extension(broken, gen, trunc), name

    def test_corrupted_sweep_results_get_the_same_report(self):
        checked = 0
        for fam in islice(kappa2_sweep(), 150):
            if len(fam.blocks) < 2:
                continue
            gen = WrappedFamilyGenerator(fam)
            for weights in _wrapped_truncations(fam):
                trunc = Truncation(1, WeightFunction(weights))
                try:
                    result = extend_truncation(gen, trunc, len(fam.blocks))
                except (NotStochasticError, HorizonExhaustedError):
                    continue
                if not result.steps:
                    continue
                for name, broken in _corruptions(result, trunc, gen):
                    # a stray label outside the family raises in both
                    assert _outcome(verify_extension, broken, gen, trunc) == _outcome(
                        fraction_verify_extension, broken, gen, trunc
                    ), (name, fam.blocks)
                    checked += 1
        assert checked > 300


# the product of the first twelve primes
PRIMORIAL_12 = 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * 29 * 31 * 37
_A, _B, _C = F(1, 2 * 3 * 5 * 7), F(1, 11 * 13 * 17), F(1, 19 * 23 * 29 * 31 * 37)


class TestMixedDenominators:
    @pytest.mark.parametrize(
        "gen, n, weights, horizon, scale",
        [
            # row 1 and column 1 in sixths, halves and thirds
            (GridGenerator(), 2, {1: F(1, 6), 2: HALF, 4: F(1, 3), 3: HALF, 6: F(1, 3)}, 300, 6),
            (DisjointGrowingGenerator(), 3,
             {1: F(1), 2: HALF, 3: HALF, 4: F(1, 6), 5: F(1, 3), 6: HALF}, 40, 6),
            (GridGenerator(), 2, {1: _A, 2: 1 - _A - _B, 4: _B, 3: 1 - _A - _C, 6: _C},
             300, PRIMORIAL_12),
            (PathGenerator(), 1, {1: F(1, PRIMORIAL_12), 2: 1 - F(1, PRIMORIAL_12)},
             200, PRIMORIAL_12),
        ],
        ids=["grid-sixths", "disjoint-sixths", "grid-primorial", "path-primorial"],
    )
    def test_walk_recheck_and_cli_match_the_fraction_oracle(
        self, gen, n, weights, horizon, scale, tmp_path, capsys, monkeypatch
    ):
        assert lcm(*(v.denominator for v in weights.values())) == scale
        trunc = Truncation(n, WeightFunction(weights))
        result = extend_truncation(gen, trunc, horizon)
        assert result.complete
        steps = tuple((s.element, s.block_index, s.value) for s in result.steps)
        assert steps == full_scan_steps(gen, trunc, horizon)
        report = verify_extension(result, gen, trunc)
        assert report.ok
        assert report == fraction_verify_extension(result, gen, trunc)

        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"weights": weights_to_document(trunc.w)}))
        argv = ["extend", str(path), "--generator", gen.name, "--n", str(n),
                "--horizon", str(horizon)]
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        monkeypatch.setattr(cli, "extend_truncation", full_scan_result)
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out


class TestTrustedConstruction:
    """The walk builds its results from values it computed itself, without
    the validating constructor's checks."""

    def test_path_completion_makes_no_validating_construction(self, monkeypatch):
        trunc = Truncation(1, WeightFunction({1: HALF, 2: HALF}))
        inits = count_calls(monkeypatch, WeightFunction, "__init__")
        equalities = count_calls(monkeypatch, Fraction, "__eq__")
        result = extend_truncation(PathGenerator(), trunc, 800)
        monkeypatch.undo()
        assert inits["__init__"] == 0
        # 1,600 of the 2,399 equality tests were the constructor's zero tests
        assert equalities["__eq__"] <= 799
        assert result == full_scan_result(PathGenerator(), trunc, 800)


class TestScanLimit:
    @pytest.mark.parametrize(
        "fresh, detail",
        [
            (SCAN_LIMIT - 1, "no fresh eligible element exists"),
            (SCAN_LIMIT + 1, "none found among the first 4096 fresh elements"),
        ],
    )
    def test_counts_fresh_elements(self, fresh, detail):
        # block 2 holds ``fresh`` labels, each also in block 3, which the
        # truncation saturates through label 1
        labels = list(range(2, fresh + 2))
        gen = WrappedFamilyGenerator(build_family([[1], labels, [1, *labels]]))
        trunc = Truncation(1, WeightFunction({1: F(1)}))
        with pytest.raises(HorizonExhaustedError) as caught:
            extend_truncation(gen, trunc, horizon=3)
        assert str(caught.value) == f"block 2 cannot be saturated: {detail}"


class TestLongHorizons:
    @pytest.mark.parametrize(
        "gen, n, weights, horizon, steps",
        [
            (PathGenerator(), 1, {1: F(1)}, 5000, 2500),
            (PathGenerator(), 1, {1: HALF, 2: HALF}, 5000, 4999),
            (GridGenerator(), 2, {1: F(1)}, 600, 299),
            (GridGenerator(), 2, {1: HALF, 2: HALF, 3: HALF}, 600, 598),
            # past block 8192 a scan from each block's first label would
            # skip more than SCAN_LIMIT labels earlier blocks rule out
            (GridGenerator(), 2, {1: F(1)}, 10_000, 4999),
            (GridGenerator(), 2, {1: HALF, 2: HALF, 3: HALF}, 10_000, 9998),
        ],
        ids=[
            "path-vertex", "path-split", "grid-vertex", "grid-split",
            "grid-vertex-10k", "grid-split-10k",
        ],
    )
    def test_completes_and_verifies(self, gen, n, weights, horizon, steps):
        trunc = Truncation(n, WeightFunction(weights))
        result = extend_truncation(gen, trunc, horizon)
        assert result.complete
        assert len(result.steps) == steps
        report = verify_extension(result, gen, trunc)
        assert report.ok
        vertex = all(v == 1 for v in weights.values())
        assert report.vertex_input is vertex
        assert report.vertex_shadow is (True if vertex else None)


class TestApproximateByExtremes:
    def test_half_weight_path_two_terms(self):
        gen = PathGenerator()
        w_full = WeightFunction({g: HALF for g in range(1, 10)})
        approx, report = approximate_by_extremes(gen, w_full, 2, 8)
        assert sorted(c for c, _ in approx.terms) == [HALF, HALF]
        assert report.max_block_discrepancy(2) == 0
        assert report.element_discrepancy == {}

    def test_cover_truncation_single_term(self):
        gen = PathGenerator()
        w_full = WeightFunction({g: F(1) for g in (1, 3, 5, 7, 9)})
        approx, report = approximate_by_extremes(gen, w_full, 2, 8)
        assert len(approx.terms) == 1
        assert approx.terms[0][0] == F(1)
        assert report.max_block_discrepancy() == 0

    def test_element_gaps_beyond_the_truncation(self):
        # half the identity plus half the swap of rows 2i - 1 and 2i: the
        # completions agree on blocks 1 and 2 but not on cells (3, 3),
        # (3, 4) and (4, 3), whose first blocks are 5, 5 and 6
        gen = GridGenerator()
        weights = {}
        for r in range(1, 12):
            partner = min(r + 1 if r % 2 else r - 1, 11)
            for c in (r, partner):
                weights[gen.label(r, c)] = weights.get(gen.label(r, c), 0) + HALF
        _, report = approximate_by_extremes(gen, WeightFunction(weights), 2, 6)
        assert report.element_discrepancy == {13: HALF, 18: HALF, 19: HALF}
        assert report.max_block_discrepancy() == 0

    def test_discrepancy_non_increasing_in_depth(self):
        gen = PathGenerator()
        w_full = WeightFunction({g: HALF for g in range(1, 10)})
        gaps = []
        for n in (2, 4, 6):
            _, report = approximate_by_extremes(gen, w_full, n, 8)
            gaps.append(report.max_block_discrepancy(2))
        assert gaps[0] >= gaps[1] >= gaps[2]
        # block gaps are zero by construction, so the element gaps over
        # the labels whose first block is within the horizon carry the test
        rng = random.Random(1)
        for _ in range(3):
            w_full = _grid_member(rng, 12)
            totals = []
            for n in (1, 2, 3, 4, 6, 8):
                _, report = approximate_by_extremes(GridGenerator(), w_full, n, 20)
                totals.append(sum(report.element_discrepancy.values()))
            assert all(a >= b for a, b in zip(totals, totals[1:])), totals


def _grid_member(rng, size):
    """A block-diagonal doubly stochastic grid member on rows and columns
    1 to at least ``size``: each diagonal block of 1 to 3 rows is a
    random mixture of up to three permutation matrices."""
    gen = GridGenerator()
    weights = {}
    start = 1
    while start <= size:
        side = rng.randint(1, 3)
        every = list(permutations(range(side)))
        perms = rng.sample(every, rng.randint(1, min(3, len(every))))
        raw = [rng.randint(1, 4) for _ in perms]
        for lam, perm in zip(raw, perms):
            for r, c in enumerate(perm):
                label = gen.label(start + r, start + c)
                weights[label] = weights.get(label, 0) + F(lam, sum(raw))
        start += side
    return WeightFunction(weights)


def _path_member(rng, length):
    """A path member on labels 1 to ``length``, alternating a and 1 - a."""
    a = F(rng.randint(1, 5), 6)
    return WeightFunction({g: a if g % 2 else 1 - a for g in range(1, length + 1)})


def _horizon_family(gen, w, horizon):
    """Blocks 1 to ``horizon`` on the support of ``w``, each member list
    once (equal lists impose the same equation)."""
    rows = (
        tuple(g for g in w.support if k in gen.gamma_of(g))
        for k in range(1, horizon + 1)
    )
    return build_family(dict.fromkeys(row for row in rows if row))


class TestApproximationTheorem:
    """Every member is approximated by completed extreme points: each
    term is a completion of an extreme truncation that passes the
    re-check and is a vertex within the horizon, and the combination
    equals the member on every label of the first ``n`` blocks."""

    def _check(self, gen, w_full, n, horizon):
        approximation, report = approximate_by_extremes(gen, w_full, n, horizon)
        for _, completion in approximation.terms:
            prefix = {g: v for g, v in completion.items() if min(gen.gamma_of(g)) <= n}
            trunc = Truncation(n, WeightFunction(prefix))
            result = extend_truncation(gen, trunc, horizon)
            assert result.complete and result.extended == completion
            assert verify_extension(result, gen, trunc).ok
            assert is_vertex(_horizon_family(gen, completion, horizon), completion)
        combined = approximation.combined()
        labels = set(w_full.support) | set(combined.support)
        for g in labels:
            if min(gen.gamma_of(g)) <= n:
                assert combined(g) == w_full(g), g
        last = horizon if gen.block_count is None else min(horizon, gen.block_count)
        gaps = {
            g: abs(w_full(g) - combined(g))
            for g in sorted(labels)
            if min(gen.gamma_of(g)) <= last and w_full(g) != combined(g)
        }
        assert report.element_discrepancy == gaps

    def test_identity_on_grid(self):
        # row 1 and column 1 are both {1}: one equation, not a duplicate block
        gen = GridGenerator()
        w_full = WeightFunction({gen.label(r, r): F(1) for r in range(1, 11)})
        self._check(gen, w_full, 2, 20)

    def test_seeded_grid_and_path_members(self):
        rng = random.Random(3)
        for _ in range(20):
            self._check(GridGenerator(), _grid_member(rng, 12), rng.randint(1, 6), 20)
            self._check(PathGenerator(), _path_member(rng, 21), rng.randint(1, 6), 20)


class _NoBlockPath(PathGenerator):
    """A path whose label 5 lies in no block."""

    def gamma_of(self, g):
        return () if g == 5 else super().gamma_of(g)


class _NoPromisePath(PathGenerator):
    """An unbounded path that does not promise fresh elements."""

    claims_fresh_supply = False


class _StrayPath(PathGenerator):
    """A path whose block k offers label k + 2, which lies outside it."""

    def fresh_elements(self, k):
        return iter((k + 2,))


def _w(values):
    return WeightFunction({g: F(v) for g, v in values.items()})


# Input refusals of the extension layer and its generators, each a call,
# the exception class and the exact message.
EXTENSION_REFUSALS = [
    (lambda: validate_truncation(
        WrappedFamilyGenerator(build_family([[1, 2], [2, 3]])), Truncation(3, _w({2: 1}))
    ), InputError, "truncation depth 3 exceeds the 2 available blocks"),
    (lambda: validate_truncation(_NoBlockPath(), Truncation(1, _w({1: 1, 5: 1}))),
     InputError, "element 5 lies in no block"),
    (lambda: validate_truncation(PathGenerator(), Truncation(1, _w({1: "1/3"}))),
     NotStochasticError, "block 1 sums to 1/3, expected 1"),
    (lambda: validate_truncation(
        WrappedFamilyGenerator(build_family([[1], [2], [1, 2]])), Truncation(2, _w({1: 1, 2: 1}))
    ), NotStochasticError, "block 3 sums to 2 > 1"),
    (lambda: tail_sums(PathGenerator(), Truncation(2, _w({2: 1})), 1),
     InputError, "the horizon must not precede the truncation depth"),
    (lambda: extend_truncation(_NoPromisePath(), Truncation(1, _w({1: 1})), 3),
     InputError, "an unbounded generator must promise fresh elements in every block"),
    (lambda: extend_truncation(_StrayPath(), Truncation(1, _w({1: 1})), 3),
     GeneratorInconsistentError, "block 2 yields label 4 outside gamma_of(4)"),
    (lambda: approximate_by_extremes(PathGenerator(), _w({1: 1, 3: 1}), 0, 3),
     InputError, "the truncation depth must be positive"),
    (lambda: approximate_by_extremes(PathGenerator(), _w({1: 1, 3: 1}), 2, 2),
     InputError, "the horizon must exceed the truncation depth"),
    (lambda: approximate_by_extremes(PathGenerator(), _w({1: -1, 2: 2}), 1, 3),
     InputError, "the target function must be nonnegative"),
    (lambda: PathGenerator().block_elements(0), InputError, "block index 0 is out of range"),
    (lambda: PathGenerator().fresh_elements(0), InputError, "block index 0 is out of range"),
    (lambda: PathGenerator().contains(-1, 1), InputError, "block index -1 is out of range"),
    (lambda: PathGenerator().gamma_of(0), InputError, "label 0 is not positive"),
    (lambda: DisjointGrowingGenerator().block_elements(0),
     InputError, "block index 0 is out of range"),
    (lambda: DisjointGrowingGenerator().contains(0, 1),
     InputError, "block index 0 is out of range"),
    (lambda: DisjointGrowingGenerator().gamma_of(-3), InputError, "label -3 is not positive"),
    (lambda: GridGenerator().block_elements(0), InputError, "block index 0 is out of range"),
    (lambda: GridGenerator().fresh_elements(0), InputError, "block index 0 is out of range"),
    (lambda: GridGenerator().contains(0, 1), InputError, "block index 0 is out of range"),
    (lambda: GridGenerator.label(0, 1), InputError, "matrix coordinates start at one"),
    (lambda: GridGenerator.label(1, 0), InputError, "matrix coordinates start at one"),
    (lambda: GridGenerator().gamma_of(0), InputError, "label 0 is not positive"),
    (lambda: approximate_by_extremes(_NoBlockPath(), _w({1: 1, 3: 1, 5: 1}), 1, 3),
     InputError, "element 5 lies in no block"),
    # the completion chooses 3, 5 and 7
    (lambda: verify_extension(
        extend_truncation(PathGenerator(), Truncation(1, _w({1: 1})), 6),
        _NoBlockPath(), Truncation(1, _w({1: 1})),
    ), InputError, "element 5 lies in no block"),
]


@pytest.mark.parametrize(
    "call, error, message", EXTENSION_REFUSALS, ids=range(len(EXTENSION_REFUSALS))
)
def test_input_refusals(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message
