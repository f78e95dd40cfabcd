"""Tests for exact vertex enumeration, decomposition, and cross-checks."""

import math
from fractions import Fraction

import pytest

from blockstoch.errors import (
    ConditionsViolatedError,
    InputError,
    InstanceTooLargeError,
    NotStochasticError,
)
from blockstoch.family import WeightFunction, build_family, max_multiplicity
from blockstoch.oracle import (
    basis_vertices,
    cross_validate,
    decompose,
    enumerate_vertices,
    is_vertex,
    sup_block_norm,
    support_width,
)

F = Fraction
HALF = F(1, 2)


def matrix_family(m):
    rows = [[m * r + c + 1 for c in range(m)] for r in range(m)]
    cols = [[m * r + c + 1 for r in range(m)] for c in range(m)]
    return build_family(rows + cols)


def ring_family(n):
    return build_family([(i, i % n + 1) for i in range(1, n + 1)])


def complete_block_graph(n):
    """Blocks are the nodes of K_n; each pair of blocks shares one element."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    label = {pair: pos for pos, pair in enumerate(pairs, start=1)}
    return build_family([[label[p] for p in pairs if i in p] for i in range(n)])


MULTIGRAPH_CASES = {
    **{f"matrix-{m}": matrix_family(m) for m in (2, 3, 4)},
    **{f"ring-{n}": ring_family(n) for n in (3, 4, 5, 6, 7, 8)},
    **{f"K{n}": complete_block_graph(n) for n in (4, 5, 6)},
    "parallel-pair": build_family([[1, 2], [1, 2, 3]]),
    "parallel-triangle": build_family([[1, 2, 4], [2, 3], [3, 1, 4]]),
    "parallel-square": build_family([[1, 2, 5], [3, 4], [1, 3, 5], [2, 4]]),
    "pinned-segment": build_family([[2, 3], [1, 3], [1, 2], [4, 5]]),
    "half-edge-path": build_family([[1, 2], [2, 3, 4], [4, 5]]),
    "half-edge-triangle": build_family([[1, 2, 6], [2, 3], [3, 1, 7]]),
    "single-block": build_family([[1, 2, 3]]),
    "bowtie": build_family([[1, 2], [2, 3], [3, 1, 4, 5], [5, 6], [6, 4]]),
    "infeasible-star": build_family([[1], [1, 2], [2]]),
    "infeasible-grid": build_family(
        [[1, 2, 3], [4, 5, 6], [1, 4], [2, 5], [3, 6]]
    ),
}


class TestMultigraphSearch:
    @pytest.mark.parametrize(
        "fam", MULTIGRAPH_CASES.values(), ids=MULTIGRAPH_CASES.keys()
    )
    def test_matches_basis_search(self, fam):
        assert max_multiplicity(fam) <= 2
        assert enumerate_vertices(fam) == basis_vertices(fam)

    @pytest.mark.parametrize("m", [5, 6])
    def test_large_matrices_have_permutation_vertices(self, m):
        vertices = enumerate_vertices(matrix_family(m))
        assert len(set(vertices)) == len(vertices) == math.factorial(m)
        for v in vertices:
            assert v.zero_one
            assert len(v.support) == m
            assert is_vertex(matrix_family(m), v)

    def test_budget_message_reports_progress(self):
        with pytest.raises(
            InstanceTooLargeError,
            match=r"^vertex search exceeded the budget of 4 search nodes:"
            r" 5 visited, 1 found$",
        ):
            enumerate_vertices(matrix_family(3), budget=4)

    def test_budget_counts_cycle_search_steps(self):
        # Three pieces are placed on the triangle; the other four nodes
        # are steps of the cycle search, two per direction.
        fam = ring_family(3)
        assert len(enumerate_vertices(fam, budget=7)) == 1
        with pytest.raises(InstanceTooLargeError, match="7 visited, 1 found"):
            enumerate_vertices(fam, budget=6)


class TestBasisPath:
    """Families with a multiplicity above two keep the basis search."""

    KAPPA3 = build_family(
        [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 4, 7], [2, 5, 8], [3, 6, 9], [1, 5, 9]]
    )

    def test_dispatches_to_basis_search(self):
        assert max_multiplicity(self.KAPPA3) == 3
        vertices = enumerate_vertices(self.KAPPA3)
        assert vertices == basis_vertices(self.KAPPA3)
        assert enumerate_vertices(self.KAPPA3, jobs=2) == vertices

    def test_candidate_budget_precheck(self):
        with pytest.raises(
            InstanceTooLargeError,
            match="^84 candidate supports exceed the budget of 83$",
        ):
            enumerate_vertices(self.KAPPA3, budget=83)


class TestEnumerateVertices:
    def test_single_segment(self):
        fam = build_family([[1, 2]])
        vertices = enumerate_vertices(fam)
        assert {v.items() for v in vertices} == {
            ((1, F(1)),),
            ((2, F(1)),),
        }

    def test_odd_cycle_has_single_half_vertex(self):
        fam = build_family([[1, 2], [2, 3], [3, 1]])
        vertices = enumerate_vertices(fam)
        assert len(vertices) == 1
        assert dict(vertices[0].items()) == {1: HALF, 2: HALF, 3: HALF}

    def test_two_by_two_matrix(self):
        fam = matrix_family(2)
        vertices = enumerate_vertices(fam)
        assert len(vertices) == 2
        assert all(v.zero_one for v in vertices)

    def test_empty_polytope(self):
        rows = [[1, 2, 3], [4, 5, 6]]
        cols = [[1, 4], [2, 5], [3, 6]]
        fam = build_family(rows + cols)
        assert enumerate_vertices(fam) == ()

    def test_budget_exhaustion(self):
        fam = matrix_family(3)
        with pytest.raises(InstanceTooLargeError):
            enumerate_vertices(fam, budget=4)

    @pytest.mark.parametrize("budget", [0, -1])
    @pytest.mark.parametrize(
        "fam", [matrix_family(3), build_family([[0, 1, 2], [0, 2, 3], [0, 3, 4]])]
    )
    def test_budget_below_one_rejected(self, fam, budget):
        with pytest.raises(InputError, match="budget must be at least 1"):
            enumerate_vertices(fam, budget=budget)
        with pytest.raises(InputError, match="budget must be at least 1"):
            basis_vertices(fam, budget=budget)

    def test_jobs_do_not_change_output(self):
        fam = matrix_family(3)
        serial = enumerate_vertices(fam, jobs=1)
        parallel = enumerate_vertices(fam, jobs=2)
        assert serial == parallel

    def test_deterministic_order(self):
        fam = matrix_family(3)
        assert enumerate_vertices(fam) == enumerate_vertices(fam)


class TestIsVertex:
    def test_vertex_recognized(self):
        fam = build_family([[1, 2], [2, 3], [3, 1]])
        w = WeightFunction({1: HALF, 2: HALF, 3: HALF})
        assert is_vertex(fam, w)

    def test_interior_point_rejected(self):
        fam = build_family([[1, 2]])
        assert not is_vertex(fam, WeightFunction({1: F(1, 3), 2: F(2, 3)}))

    def test_non_member_rejected(self):
        fam = build_family([[1, 2]])
        with pytest.raises(NotStochasticError):
            is_vertex(fam, WeightFunction({1: F(2)}))


class TestDecompose:
    def test_vertex_decomposes_to_itself(self):
        fam = build_family([[1, 2], [2, 3], [3, 1]])
        w = WeightFunction({1: HALF, 2: HALF, 3: HALF})
        combo = decompose(fam, w)
        assert len(combo.terms) == 1
        assert combo.terms[0][0] == F(1)
        assert combo.terms[0][1] == w

    def test_segment_midpoint(self):
        fam = build_family([[1, 2]])
        w = WeightFunction({1: HALF, 2: HALF})
        combo = decompose(fam, w)
        assert sorted(c for c, _ in combo.terms) == [HALF, HALF]
        assert combo.combined() == w

    def test_matrix_mixture(self):
        fam = matrix_family(3)
        w = WeightFunction({g: F(1, 3) for g in fam.ground})
        combo = decompose(fam, w)
        assert combo.combined() == w
        assert sum((c for c, _ in combo.terms), F(0)) == 1
        assert all(c > 0 for c, _ in combo.terms)
        assert all(is_vertex(fam, v) for _, v in combo.terms)

    def test_coefficients_sorted_descending(self):
        fam = build_family([[1, 2]])
        w = WeightFunction({1: F(1, 4), 2: F(3, 4)})
        combo = decompose(fam, w)
        coefs = [c for c, _ in combo.terms]
        assert coefs == sorted(coefs, reverse=True)

    def test_non_member_rejected(self):
        fam = build_family([[1, 2], [2, 3], [3, 1]])
        w = WeightFunction({1: HALF, 2: HALF, 3: F(3, 4)})
        with pytest.raises(NotStochasticError, match="block 2 sums to 5/4"):
            decompose(fam, w)


class TestCrossValidate:
    def test_matrix_family_agrees(self):
        report = cross_validate(matrix_family(3), samples=5, seed=7)
        assert report.ok
        assert report.vertex_count == 6
        assert report.samples_checked == 5

    def test_single_vertex_family(self):
        fam = build_family([[1, 2], [2, 3], [3, 1]])
        report = cross_validate(fam, samples=5, seed=0)
        assert report.ok
        assert report.vertex_count == 1

    def test_high_multiplicity_rejected(self):
        fam = build_family([[0, 1, 2], [0, 2, 3], [0, 3, 4]])
        with pytest.raises(ConditionsViolatedError):
            cross_validate(fam)

    def test_negative_samples_rejected(self):
        with pytest.raises(InputError, match="samples must be nonnegative"):
            cross_validate(matrix_family(3), samples=-1)

    def test_zero_samples_checks_only_vertices(self):
        report = cross_validate(matrix_family(3), samples=0)
        assert report.ok
        assert report.samples_checked == 0


class TestNorms:
    def test_sup_block_norm(self):
        fam = build_family([[1, 2], [3, 4]])
        w = WeightFunction({1: F(1, 4), 2: F(-1, 4), 3: F(1, 8)})
        assert sup_block_norm(fam, w) == HALF

    def test_support_width(self):
        fam = build_family([[1, 2, 3], [3, 4]])
        assert support_width(fam, WeightFunction({1: F(1), 2: F(1)})) == 2
        assert support_width(fam, WeightFunction({4: F(1)})) == 1
        assert support_width(fam, WeightFunction.zero()) == 0
