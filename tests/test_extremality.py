"""Tests for extreme point classification and perturbation witnesses."""

from fractions import Fraction

import pytest

from blockstoch import extremality
from blockstoch.errors import (
    ConditionsViolatedError,
    NotStochasticError,
)
from blockstoch.extremality import (
    Witness,
    classify_extreme,
    construct_cycle_attachment,
    construct_tree_propagation,
    construct_two_coloring,
)
from blockstoch.family import WeightFunction, build_family, classify_membership
from blockstoch.graphs import Path

F = Fraction
HALF = F(1, 2)


def cycle_family(n):
    return build_family([[i, i % n + 1] for i in range(1, n + 1)])


def assert_valid_witness(family, w, witness: Witness):
    assert classify_membership(family, witness.w_plus).stochastic
    assert classify_membership(family, witness.w_minus).stochastic
    assert witness.w_plus != witness.w_minus
    average = witness.w_plus.scaled(HALF) + witness.w_minus.scaled(HALF)
    assert average == w
    assert witness.epsilon > 0


class TestClassifyExtreme:
    def test_odd_cycle_at_one_half_is_extreme(self):
        fam = cycle_family(5)
        w = WeightFunction({g: HALF for g in fam.ground})
        verdict = classify_extreme(fam, w)
        assert verdict.kind == "extreme"

    def test_saturated_elements_are_extreme(self):
        fam = build_family([[1, 2], [3, 4]])
        w = WeightFunction({1: F(1), 4: F(1)})
        assert classify_extreme(fam, w).kind == "extreme"

    def test_even_cycle_is_not_extreme(self):
        fam = cycle_family(4)
        w = WeightFunction({g: HALF for g in fam.ground})
        verdict = classify_extreme(fam, w)
        assert verdict.kind == "not_extreme"
        assert_valid_witness(fam, w, verdict.witness)

    def test_interior_segment_point_is_not_extreme(self):
        fam = build_family([[1, 2]])
        w = WeightFunction({1: F(1, 3), 2: F(2, 3)})
        verdict = classify_extreme(fam, w)
        assert verdict.kind == "not_extreme"
        assert_valid_witness(fam, w, verdict.witness)

    def test_multiplicity_above_two_unsupported(self):
        fam = build_family([[0, 1, 2], [0, 2, 3], [0, 3, 4]])
        w = WeightFunction({g: F(1, 3) for g in fam.ground})
        assert classify_extreme(fam, w).kind == "unsupported"

    def test_non_stochastic_rejected(self):
        fam = cycle_family(3)
        with pytest.raises(NotStochasticError):
            classify_extreme(fam, WeightFunction({1: F(1)}))

    def test_mixture_of_matrix_vertices(self):
        rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        cols = [[1, 4, 7], [2, 5, 8], [3, 6, 9]]
        fam = build_family(rows + cols)
        w = WeightFunction({g: F(1, 3) for g in fam.ground})
        verdict = classify_extreme(fam, w)
        assert verdict.kind == "not_extreme"
        assert_valid_witness(fam, w, verdict.witness)


class TestTwoColoring:
    def test_even_cycle_moves_alternately(self):
        fam = cycle_family(6)
        w = WeightFunction({g: HALF for g in fam.ground})
        witness = construct_two_coloring(fam, w, fam.ground)
        assert witness.construction == "two_coloring"
        assert_valid_witness(fam, w, witness)
        moved = (witness.w_plus - witness.w_minus).support
        assert moved == tuple(fam.ground)

    def test_block_with_one_subgraph_element_refused(self):
        fam = cycle_family(6)
        w = WeightFunction({g: HALF for g in fam.ground})
        with pytest.raises(ConditionsViolatedError):
            construct_two_coloring(fam, w, [1, 2, 3])


class TestTreePropagation:
    def test_two_block_chain(self):
        fam = build_family([[1, 2], [2, 3]])
        w = WeightFunction({1: F(1, 4), 2: F(3, 4), 3: F(1, 4)})
        witness = construct_tree_propagation(fam, w)
        assert witness.construction == "tree_propagation"
        assert_valid_witness(fam, w, witness)


class TestCycleAttachment:
    def test_odd_cycle_with_pendant_support(self):
        blocks = [[1, 2], [2, 3], [3, 1, 4], [4, 5]]
        fam = build_family(blocks)
        w = WeightFunction({1: F(1, 4), 2: F(3, 4), 3: F(1, 4), 4: HALF, 5: HALF})
        witness = construct_cycle_attachment(fam, w)
        assert witness.construction == "cycle_attachment"
        assert_valid_witness(fam, w, witness)

    def test_two_odd_triangles_sharing_a_block(self):
        # Two triangles whose lone shared block holds one edge of each;
        # no even primitive cycle exists, so the perturbation must run
        # through the second triangle instead of an even cycle.
        fam = build_family([[2, 6, 7, 8], [1, 4, 7], [1, 2, 3, 5], [4, 6], [3, 5, 8]])
        w = WeightFunction(
            {2: F(1, 4), 5: F(3, 4), 8: F(1, 4), 6: F(1, 4), 7: F(1, 4), 4: F(3, 4)}
        )
        assert classify_membership(fam, w).stochastic
        verdict = classify_extreme(fam, w)
        assert verdict.kind == "not_extreme"
        witness = verdict.witness
        assert witness.construction == "cycle_attachment"
        assert_valid_witness(fam, w, witness)
        assert witness.epsilon == F(1, 8)
        assert witness.w_plus == WeightFunction(
            {2: F(3, 16), 4: F(11, 16), 5: F(13, 16), 6: F(5, 16), 7: F(5, 16), 8: F(3, 16)}
        )

    def test_isolated_odd_cycle_refused(self):
        fam = cycle_family(3)
        w = WeightFunction({g: HALF for g in fam.ground})
        with pytest.raises(ConditionsViolatedError):
            construct_cycle_attachment(fam, w)

    def test_explicit_cycle_argument(self):
        blocks = [[1, 2], [2, 3], [3, 1, 4], [4, 5]]
        fam = build_family(blocks)
        w = WeightFunction({1: F(1, 4), 2: F(3, 4), 3: F(1, 4), 4: HALF, 5: HALF})
        cycle = Path(vertices=(1, 2, 3), is_cycle=True)
        witness = construct_cycle_attachment(fam, w, cycle=cycle)
        assert_valid_witness(fam, w, witness)


class TestVerdictShape:
    def test_extreme_detail_counts_components(self):
        fam = build_family([[1, 2], [2, 3], [3, 1], [4, 5]])
        w = WeightFunction({1: HALF, 2: HALF, 3: HALF, 4: F(1)})
        verdict = classify_extreme(fam, w)
        assert verdict.kind == "extreme"
        assert "1 saturated element(s)" in verdict.detail
        assert "1 odd primitive cycle(s)" in verdict.detail

    def test_witness_reports_construction_in_detail(self):
        fam = build_family([[1, 2]])
        w = WeightFunction({1: F(1, 3), 2: F(2, 3)})
        verdict = classify_extreme(fam, w)
        assert verdict.witness.construction in verdict.detail


class TestWitnessCycleIsNotEnumerated:
    """The canonical witness cycle comes from the bounded search."""

    def test_verdicts_without_the_full_census(self, monkeypatch):
        square = cycle_family(4)
        on_square = WeightFunction({g: HALF for g in square.ground})
        rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
        matrix = build_family(rows + [list(c) for c in zip(*rows)])
        on_matrix = WeightFunction({g: F(1, 3) for g in matrix.ground})
        chain = build_family([[1, 2], [2, 3]])
        on_chain = WeightFunction({1: F(1, 4), 2: F(3, 4), 3: F(1, 4)})
        pendant = build_family([[1, 2], [2, 3], [3, 1, 4], [4, 5]])
        on_pendant = WeightFunction(
            {1: F(1, 4), 2: F(3, 4), 3: F(1, 4), 4: HALF, 5: HALF}
        )
        triangles = build_family(
            [[2, 6, 7, 8], [1, 4, 7], [1, 2, 3, 5], [4, 6], [3, 5, 8]]
        )
        on_triangles = WeightFunction(
            {2: F(1, 4), 5: F(3, 4), 8: F(1, 4), 6: F(1, 4), 7: F(1, 4), 4: F(3, 4)}
        )
        calls = [
            lambda: classify_extreme(square, on_square),
            lambda: classify_extreme(matrix, on_matrix),
            lambda: classify_extreme(chain, on_chain),
            lambda: classify_extreme(pendant, on_pendant),
            lambda: classify_extreme(triangles, on_triangles),
            lambda: construct_cycle_attachment(pendant, on_pendant),
        ]
        expected = [call() for call in calls]
        census = extremality.find_primitive_cycles

        def first_only(*args, **kwargs):
            if not kwargs.get("first_only"):
                raise AssertionError("the full primitive-cycle census was reached")
            return census(*args, **kwargs)

        monkeypatch.setattr(extremality, "find_primitive_cycles", first_only)
        assert [call() for call in calls] == expected
        constructions = [v.witness.construction for v in expected[:5]]
        assert constructions == [
            "two_coloring",
            "two_coloring",
            "tree_propagation",
            "cycle_attachment",
            "cycle_attachment",
        ]
