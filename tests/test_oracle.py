"""Tests for exact vertex enumeration, decomposition, and cross-checks."""

import hashlib
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from blockstoch import extremality, family, graphs, oracle
from blockstoch.cli import gen_random, main
from blockstoch.errors import (
    ConditionsViolatedError,
    InputError,
    InstanceTooLargeError,
    NotStochasticError,
)
from blockstoch.extremality import Verdict, Witness
from blockstoch.family import (
    WeightFunction,
    _from_numerators,
    build_family,
    max_multiplicity,
)
from blockstoch.instance_io import dump_instance
from blockstoch.oracle import (
    basis_vertices,
    column_rank,
    cross_validate,
    decompose,
    enumerate_vertices,
    is_vertex,
    sup_block_norm,
    support_width,
)

from helpers import (
    KAPPA3_BLOCKS,
    count_calls,
    count_pivots,
    cycle_family,
    fraction_combination,
    fraction_decompose,
    kappa2_sweep,
    kappa3_sweep,
    kappa4_sweep,
    matrix_family,
    necklace,
    permutation_mean,
    planar_cube_blocks,
    scaled_kernel_circuit,
    subset_vertices,
    walk_vertices,
)

F = Fraction
HALF = F(1, 2)


def complete_block_graph(n):
    """Blocks are the nodes of K_n; each pair of blocks shares one element."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    label = {pair: pos for pos, pair in enumerate(pairs, start=1)}
    return build_family([[label[p] for p in pairs if i in p] for i in range(n)])


MULTIGRAPH_CASES = {
    **{f"matrix-{m}": matrix_family(m) for m in (2, 3, 4)},
    **{f"ring-{n}": cycle_family(n) for n in (3, 4, 5, 6, 7, 8)},
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
        fam = cycle_family(3)
        assert len(enumerate_vertices(fam, budget=7)) == 1
        with pytest.raises(InstanceTooLargeError, match="7 visited, 1 found"):
            enumerate_vertices(fam, budget=6)


class TestBasisPath:
    """Families with a multiplicity above two keep the basis search."""

    KAPPA3 = build_family(KAPPA3_BLOCKS)

    def test_dispatches_to_basis_search(self):
        assert max_multiplicity(self.KAPPA3) == 3
        vertices = enumerate_vertices(self.KAPPA3)
        assert vertices == basis_vertices(self.KAPPA3)

    def test_budget_counts_pivots(self):
        # the search takes 106 pivots here, each one search node
        assert len(enumerate_vertices(self.KAPPA3, budget=106)) == 5
        with pytest.raises(
            InstanceTooLargeError,
            match=r"^vertex search exceeded the budget of 105 search nodes:"
            r" 106 visited, 5 found$",
        ):
            enumerate_vertices(self.KAPPA3, budget=105)

    def test_cube_is_refused_once_past_its_budget(self):
        # the m = 3 planar cube takes 47,405 pivots; a budget of 1000
        # stops the search at its 1,001st, before any vertex
        with pytest.raises(
            InstanceTooLargeError,
            match=r"^vertex search exceeded the budget of 1000 search nodes:"
            r" 1001 visited, 0 found$",
        ):
            basis_vertices(build_family(planar_cube_blocks(3)), budget=1000)

    def test_search_takes_no_rank(self, monkeypatch):
        ranks = count_calls(monkeypatch, oracle, "column_rank")
        adds = count_calls(monkeypatch, oracle._Elimination, "add")
        assert len(basis_vertices(self.KAPPA3)) == 5
        assert ranks["column_rank"] == adds["add"] == 0


class TestBasisWalk:
    """The pivot search against the walk and the C(n, r) search in
    helpers, with its work counted rather than timed."""

    def test_search_walk_and_subset_search_agree_on_seeded_sweeps(self):
        # the κ = 3 sweep, 120 gen_random draws with κ ≤ 3 and the κ ≤ 4
        # sweep, with their vertex counts pinned so a sweep cannot shrink
        rng = random.Random(7)
        draws = [
            gen_random(rng.randint(3, 11), rng.randint(2, 8), 3, seed=70_000 + i)[0]
            for i in range(120)
        ]
        sweeps = {"kappa3": list(kappa3_sweep()), "draws": draws, "kappa4": list(kappa4_sweep())}
        assert all(max_multiplicity(fam) == 3 for fam in sweeps["kappa3"])
        assert {max_multiplicity(fam) for fam in sweeps["kappa4"]} == {3, 4}
        counts = {}
        for name, families in sweeps.items():
            counts[name] = 0
            for fam in families:
                vertices = basis_vertices(fam)
                assert vertices == walk_vertices(fam) == subset_vertices(fam), fam.blocks
                counts[name] += len(vertices)
        assert counts == {"kappa3": 126, "draws": 226, "kappa4": 526}

    def test_search_pivots_are_pinned_and_reach_each_support_once(self, monkeypatch):
        # a state's chosen columns are reached once, so the pivots at
        # depth k are at most C(n, k).  The sweep's total is pinned at its
        # count (without the sign test 6,566; the walk it replaced made
        # 6,573 elimination adds)
        families = list(kappa3_sweep())
        pivots = count_pivots(monkeypatch, cap=10_000)
        total = 0
        for fam in families:
            n = len(fam.ground)
            r = column_rank([fam.gamma[g] for g in fam.ground])
            before = pivots[0]
            vertices = basis_vertices(fam)
            assert len({v.support for v in vertices}) == len(vertices), fam.blocks
            nodes = pivots[0] - before
            assert nodes <= sum(math.comb(n, k) for k in range(1, r + 1)), fam.blocks
            total += nodes
        assert total == 2719

    def test_tall_strip_takes_linear_pivots(self, monkeypatch):
        # block k holds the elements k + 1 to k + 3, so the strip has the
        # three vertices of the residues mod 3, and the sets spanning the
        # all-ones vector with some coefficient of the wrong sign grow
        # exponentially with its length; the sign test cuts them (without
        # it 18 blocks took 14,860 pivots), so the pivots grow as 16·B − 35
        def strip(blocks):
            return build_family([[g + 1 for g in range(k, k + 3)] for k in range(blocks)])

        assert basis_vertices(strip(30)) == walk_vertices(strip(30))
        pivots = count_pivots(monkeypatch, cap=4000)
        for blocks in (30, 60, 120):
            before = pivots[0]
            assert len(basis_vertices(strip(blocks))) == 3
            assert pivots[0] - before == 16 * blocks - 35

    def test_tall_strip_rank_takes_linear_row_operations(self, monkeypatch):
        # block k holds the elements k, k + 1 and k + 2, so element g
        # lies in the blocks g - 2, g - 1 and g
        blocks = 3000
        columns = [
            tuple(k for k in (g - 2, g - 1, g) if 0 <= k < blocks) for g in range(blocks + 2)
        ]
        ops = count_calls(monkeypatch, oracle, "_combine")
        assert column_rank(columns) == blocks
        assert ops["_combine"] <= 2 * blocks

    def test_circuits_are_scaled_kernel_vectors(self, monkeypatch):
        # each circuit of the walks, against the kernel vector of the
        # columns taken and the one rejected, in the order taken
        solve = oracle._Elimination.circuit
        circuits = []

        def checking(self, column, ends):
            circuit = solve(self, column, ends)
            columns = [c for c, _ in self.taken] + [column]
            kernel = scaled_kernel_circuit([e for _, e in self.taken] + [ends])
            assert circuit == {columns[k]: v for k, v in kernel.items()}, columns
            circuits.append(circuit)
            return circuit

        monkeypatch.setattr(oracle._Elimination, "circuit", checking)
        for fam, w in walk_cases("kappa3-sweep"):
            decompose(fam, w)
        assert len(circuits) > 80

    def test_one_elimination_per_kappa3_walk(self, monkeypatch):
        # each walk keeps one kernel: one elimination when its support
        # has an element in three blocks, else none; the sweep's adds,
        # columns taken again after removals included, are pinned at
        # their count (a fresh elimination at every step makes 723)
        cases = list(walk_cases("kappa3-sweep"))
        adds = count_calls(monkeypatch, oracle._Elimination, "add")
        calls = count_calls(monkeypatch, oracle, "_Elimination")
        walk = oracle._vertex_within
        walks = Counter()

        def counting(family, start, scale):
            before = calls["_Elimination"]
            result = walk(family, start, scale)
            kappa = max(len(family.gamma[g]) for g in start)
            walks[kappa, calls["_Elimination"] - before] += 1
            return result

        monkeypatch.setattr(oracle, "_vertex_within", counting)
        for fam, w in cases:
            decompose(fam, w)
        assert set(walks) == {(2, 0), (3, 1)}
        assert walks[3, 1] > 80
        assert adds["add"] <= 663


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

    def test_one_independence_answer_per_peel(self, monkeypatch):
        # each peel ends when the walk to a vertex finds the point's
        # columns independent, and each walk keeps one frame forest; no
        # separate rank query repeats that answer
        fam = matrix_family(5)
        mix = permutation_mean(5, count=4)
        expected = decompose(fam, mix)

        def refuse(columns):
            raise AssertionError("decompose asked column_rank")

        calls = count_calls(monkeypatch, oracle, "_vertex_within", "_FrameForest")
        monkeypatch.setattr(oracle, "column_rank", refuse)
        assert decompose(fam, mix) == expected
        assert len(expected.terms) > 1
        assert calls["_vertex_within"] == calls["_FrameForest"] == len(expected.terms)


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

    def test_makes_no_validating_construction(self, monkeypatch):
        inits = count_calls(monkeypatch, WeightFunction, "__init__")
        report = cross_validate(matrix_family(4), samples=5, seed=3)
        monkeypatch.undo()
        assert report.ok
        assert report.samples_checked == 5
        assert inits["__init__"] == 0

    def test_checks_each_point_once_and_builds_no_graph(self, monkeypatch):
        """Each point is checked once and gets no element graph, a mixture
        with an even cycle (every mixture here has one) included, and both
        witness halves get their own membership check.  The point's check,
        ``require_stochastic``, reads it without a membership report."""
        counters = [
            count_calls(monkeypatch, extremality, "require_stochastic", "build_graph"),
            count_calls(monkeypatch, oracle, "classify_membership", "require_stochastic"),
            count_calls(monkeypatch, family, "classify_membership"),
        ]
        n_vertices, n_mixtures = 0, 0
        for fam in [matrix_family(3), matrix_family(4), cycle_family(6)]:
            report = cross_validate(fam, samples=5, seed=1)
            assert report.ok
            n_vertices += report.vertex_count
            n_mixtures += report.samples_checked
        monkeypatch.undo()
        counts = sum(counters, Counter())
        assert n_mixtures == 15
        assert counts["require_stochastic"] == n_vertices + n_mixtures
        assert counts["classify_membership"] == 2 * n_mixtures
        assert counts["build_graph"] == 0


class TestCrossValidateCatchesAWrongClassifier:
    """Each discrepancy ``cross_validate`` reports fires when the
    classifier or the rank test is made wrong."""

    def _lines(self, monkeypatch, *, verdict=None, rank=None):
        real = extremality.classify_extreme
        if verdict is not None:
            monkeypatch.setattr(
                extremality, "classify_extreme", lambda fam, w: verdict(real(fam, w), w)
            )
        if rank is not None:
            monkeypatch.setattr(oracle, "column_rank", rank)
        report = cross_validate(matrix_family(3), samples=3, seed=7)
        monkeypatch.undo()
        assert report.vertex_count == 6
        assert report.samples_checked == 3
        return report.discrepancies

    def _with_witness(self, make):
        def verdict(real, w):
            if real.witness is None:
                return real
            return Verdict(real.kind, make(real.witness, w), real.detail)

        return verdict

    def test_vertex_classified_not_extreme(self, monkeypatch):
        lines = self._lines(
            monkeypatch, verdict=lambda real, w: Verdict("not_extreme", None, "")
        )
        assert sum(" classified not_extreme" in line for line in lines) == 6
        assert all(line.startswith("vertex {") for line in lines[:6])
        assert sum(line.endswith("has no witness") for line in lines) == 3

    def test_mixture_is_a_vertex(self, monkeypatch):
        lines = self._lines(monkeypatch, rank=len)
        assert len(lines) == 3
        assert all(line.startswith("mixture {") and line.endswith("is a vertex") for line in lines)

    def test_mixture_classified_extreme(self, monkeypatch):
        lines = self._lines(monkeypatch, verdict=lambda real, w: Verdict("extreme", None, ""))
        assert len(lines) == 3
        assert all(line.endswith("classified extreme") for line in lines)

    def test_witness_does_not_average_back(self, monkeypatch):
        def make(witness, w):
            return Witness(witness.w_plus, witness.w_plus, witness.epsilon, witness.slack, "x")

        lines = self._lines(monkeypatch, verdict=self._with_witness(make))
        assert len(lines) == 3
        assert all(line.endswith("does not average back") for line in lines)

    def test_witness_half_leaves_the_polytope(self, monkeypatch):
        def make(witness, w):
            # moving one element alone keeps the average but breaks its blocks
            g = w.support[0]
            step = {g: w(g) / 2}
            plus = WeightFunction({**dict(w.items()), g: w(g) + step[g]})
            minus = WeightFunction({**dict(w.items()), g: w(g) - step[g]})
            return Witness(plus, minus, witness.epsilon, witness.slack, "x")

        lines = self._lines(monkeypatch, verdict=self._with_witness(make))
        assert len(lines) == 6
        assert all(line.startswith("witness half {") for line in lines)
        assert all(line.endswith("leaves the polytope") for line in lines)


class TestNorms:
    def test_sup_block_norm(self):
        fam = build_family([[1, 2], [3, 4]])
        w = WeightFunction({1: F(1, 4), 2: F(-1, 4), 3: F(1, 8)})
        assert sup_block_norm(fam, w) == HALF

    def test_sup_block_norm_ignores_labels_outside_the_ground_set(self):
        fam = build_family([[1, 2], [3, 4]])
        w = WeightFunction({1: F(1, 4), 2: F(-1, 4), 3: F(1, 8), 9: F(5)})
        assert sup_block_norm(fam, w) == HALF
        assert sup_block_norm(fam, WeightFunction({9: F(5)})) == 0

    def test_sup_block_norm_matches_per_block_fraction_sums(self):
        rng = random.Random(14)
        for fam in list(kappa2_sweep())[::10]:
            labels = list(fam.ground) + [max(fam.ground) + 1]
            w = WeightFunction(
                {g: F(rng.randint(-9, 9), rng.randint(1, 12)) for g in labels}
            )
            expected = max(
                sum((abs(w(g)) for g in b.members), F(0)) for b in fam.blocks
            )
            assert sup_block_norm(fam, w) == expected, (fam.blocks, w)

    def test_support_width(self):
        fam = build_family([[1, 2, 3], [3, 4]])
        assert support_width(fam, WeightFunction({1: F(1), 2: F(1)})) == 2
        assert support_width(fam, WeightFunction({4: F(1)})) == 1
        assert support_width(fam, WeightFunction.zero()) == 0


class TestFrameCore:
    """κ ≤ 2 rank and kernel questions are answered without row reduction."""

    def test_kappa2_calls_never_eliminate(self, monkeypatch):
        fam = matrix_family(5)
        mix = permutation_mean(5, count=4)
        ring = cycle_family(7)
        on_ring = WeightFunction({g: HALF for g in ring.ground})
        pendant = build_family([[1, 2], [2, 3], [3, 1, 4], [4, 5, 6]])
        on_pendant = WeightFunction(
            {1: F(1, 4), 2: F(3, 4), 3: F(1, 4), 4: HALF, 5: F(1, 4), 6: F(1, 4)}
        )
        columns = [fam.gamma[g] for g in fam.ground]
        calls = [
            lambda: decompose(fam, mix),
            lambda: is_vertex(fam, mix),
            lambda: [is_vertex(fam, t) for _, t in decompose(fam, mix).terms],
            lambda: decompose(ring, on_ring),
            lambda: decompose(pendant, on_pendant),
            lambda: is_vertex(pendant, on_pendant),
            lambda: column_rank(columns),
            lambda: column_rank([[0, 2], [0, 1], [1, 2], [3]]),
        ]
        expected = [call() for call in calls]

        def refuse(*args, **kwargs):
            raise AssertionError("a κ ≤ 2 call reached the integer elimination")

        monkeypatch.setattr(oracle, "_Elimination", refuse)
        assert [call() for call in calls] == expected
        assert len(expected[0].terms) > 1
        assert expected[1] is False and all(expected[2])
        assert expected[6] == 9 and expected[7] == 4

    def test_kappa3_support_uses_sparse_kernel(self, monkeypatch):
        fam = TestBasisPath.KAPPA3
        first, *_, last = enumerate_vertices(fam)
        mix = (first + last).scaled(HALF)
        assert max(len(fam.gamma[g]) for g in mix.support) == 3
        calls = []

        class Counting(oracle._Elimination):
            """Records, per elimination, the columns added to it."""

            def __init__(self):
                super().__init__()
                self.added = 0
                calls.append(self)

            def add(self, column, ends):
                self.added += 1
                return super().add(column, ends)

        monkeypatch.setattr(oracle, "_Elimination", Counting)
        assert not is_vertex(fam, mix)
        assert [e.added for e in calls] == [len(mix.support)]
        calls.clear()
        combo = decompose(fam, mix)
        assert combo.combined() == mix
        # one elimination per walk: the first takes the six columns, the
        # rejected one again after its step and one column popped by a
        # removal; the second finds the peeled point's three independent
        assert [e.added for e in calls] == [8, 3]
        calls.clear()
        assert column_rank([[0, 1, 2], [0], [1], [2]]) == 3
        assert [e.added for e in calls] == [4]

    def test_decompose_16x16_permutation_mean_stdout(self, tmp_path, capsys):
        # the SHA-256 of this stdout as the sparse-kernel vertex walk printed it
        assert_decompose_stdout(tmp_path, capsys, 16, 191, (
            "29e454891c821ccc98102d4109ed47a604b54441e882472e7a3a462eeef82656"
        ))

    def test_decompose_50x50_permutation_mean_stdout(self, tmp_path, capsys):
        # the SHA-256 of this stdout as the breadth-first circuits printed it
        assert_decompose_stdout(tmp_path, capsys, 50, 846, (
            "dae1623117d6f6220a2f1869b6f78dc9cd4ed90d1519a701105bd6b993b1f24b"
        ))


def assert_decompose_stdout(tmp_path, capsys, m, support, digest):
    """``decompose`` of the m×m permutation mean prints 20 terms, and
    its stdout has the SHA-256 ``digest``."""
    rows = [[m * r + c + 1 for c in range(m)] for r in range(m)]
    fam = build_family(rows + [list(c) for c in zip(*rows)])
    w = permutation_mean(m)
    assert len(w.support) == support
    path = tmp_path / f"mean{m}.json"
    path.write_text(dump_instance(fam, w))
    assert main(["decompose", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("terms: 20\n")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def barycentre(fam):
    """The mean of every vertex of ``fam``, or None when it has none."""
    vertices = enumerate_vertices(fam)
    if not vertices:
        return None
    return fraction_combination((F(1, len(vertices)), v) for v in vertices)


def walk_cases(source):
    """The (family, point) pairs of one source of the walk differential."""
    if source == "kappa2-sweep":
        for fam in kappa2_sweep():
            w = barycentre(fam)
            if w is not None:
                yield fam, w
    elif source == "kappa3-random":
        rng = random.Random(23)
        for i in range(200):
            fam, w = gen_random(rng.randint(3, 10), rng.randint(2, 8), 3, seed=80_000 + i)
            # a support with an element in three blocks takes the elimination
            if w is not None and max(len(fam.gamma[g]) for g in w.support) == 3:
                yield fam, w
    elif source == "kappa3-sweep":
        for fam in kappa3_sweep():
            w = barycentre(fam)
            if w is not None:
                yield fam, w
    elif source == "rings":
        for n in range(3, 15):
            yield cycle_family(n), barycentre(cycle_family(n))
    elif source == "necklaces":
        for k in (3, 4, 5, 7):
            for sides in (3, 4):
                for half_edges in (False, True):
                    blocks, values = necklace(k, sides, half_edges, seed=k)
                    yield build_family(blocks), WeightFunction(values)
    else:
        yield matrix_family(16), permutation_mean(16)


def recorded_decompose(monkeypatch, fam, w):
    """``(terms, vertices, steps)`` as :func:`helpers.fraction_decompose`
    gives them, read off ``decompose``'s walks and its steps, those of
    the walks and the peels alike."""
    vertices, steps = [], []
    step, walk = oracle._step, oracle._vertex_within

    def recording_step(numerators, scale, direction):
        before = set(numerators)
        moved = step(numerators, scale, direction)
        steps.append(tuple(sorted(before - set(numerators))))
        return moved

    def recording_walk(family, start, scale):
        vertex, vscale = walk(family, start, scale)
        vertices.append(_from_numerators(vertex, vscale))
        return vertex, vscale

    with monkeypatch.context() as patch:
        patch.setattr(oracle, "_step", recording_step)
        patch.setattr(oracle, "_vertex_within", recording_walk)
        terms = decompose(fam, w).terms
    return terms, vertices, steps


class TestIntegerWalk:
    """The integer walk on one live forest against the Fraction walk that
    rebuilds its forest at every step."""

    @pytest.mark.parametrize(
        "source",
        ["kappa2-sweep", "kappa3-random", "kappa3-sweep", "rings", "necklaces", "mean16"],
    )
    def test_walk_matches_the_fraction_walk(self, monkeypatch, source):
        steps = 0
        for fam, w in walk_cases(source):
            expected = fraction_decompose(fam, w)
            assert recorded_decompose(monkeypatch, fam, w) == expected, fam.blocks
            steps += len(expected[2])
        assert steps > 0

    def test_forest_adds_per_walk_stay_under_twice_the_support(self, monkeypatch):
        adds = count_calls(monkeypatch, graphs._FrameForest, "add")
        walk = oracle._vertex_within
        per_walk = []

        def counting(family, start, scale):
            before = adds["add"]
            result = walk(family, start, scale)
            per_walk.append((adds["add"] - before, len(start)))
            return result

        monkeypatch.setattr(oracle, "_vertex_within", counting)
        decompose(matrix_family(20), permutation_mean(20))
        assert len(per_walk) == 20
        assert all(count < 2 * size for count, size in per_walk), per_walk

    def test_circuits_enter_only_the_paths_to_the_root(self, monkeypatch):
        # a circuit climbs the parent pointers from the column's ends and
        # the extra's ends; a node counts as entered when the circuit
        # reads its tree arcs or its pointer, and searching each end's
        # whole component entered 331,992 nodes here
        calls = count_calls(monkeypatch, graphs._FrameForest, "add", "remove")
        entered = set()
        nodes = []

        class Entering(dict):
            def __getitem__(self, v):
                entered.add(v)
                return super().__getitem__(v)

        circuit = graphs._FrameForest.circuit

        def counting(forest, column, ends):
            tree, up = forest.tree, forest.up
            forest.tree, forest.up = Entering(tree), Entering(up)
            try:
                return circuit(forest, column, ends)
            finally:
                forest.tree, forest.up = tree, up
                nodes.append(len(entered))
                entered.clear()

        monkeypatch.setattr(graphs._FrameForest, "circuit", counting)
        decompose(matrix_family(50), permutation_mean(50))
        assert (calls["add"], calls["remove"], len(nodes)) == (14_483, 8_174, 5_309)
        assert sum(nodes) <= 66_000
