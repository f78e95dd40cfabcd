"""Tests for extreme point classification and perturbation witnesses."""

import random
from collections import Counter
from fractions import Fraction
from itertools import chain, islice

import pytest

from blockstoch import extremality, graphs
from blockstoch.errors import (
    ConditionsViolatedError,
    EvenCyclePresentError,
    InternalPropertyError,
    NotSimpleCycleError,
    NotStochasticError,
    PreconditionError,
    UnknownElementError,
)
from blockstoch.extremality import (
    Witness,
    classify_extreme,
    construct_cycle_attachment,
    construct_tree_propagation,
    construct_two_coloring,
)
from blockstoch.cli import gen_random
from blockstoch.family import (
    WeightFunction,
    build_family,
    classify_membership,
    counting_identity,
    max_multiplicity,
    require_stochastic,
)
from blockstoch.graphs import Path
from blockstoch.oracle import decompose, enumerate_vertices, is_vertex

from helpers import (
    assert_valid_witness,
    caterpillar_trees,
    chain_cycle_attachment,
    count_calls,
    cycle_family,
    fraction_tree_propagation,
    fraction_two_coloring,
    graph_classify_extreme,
    graph_cycle_attachment,
    graph_tree_propagation,
    graph_two_coloring,
    half_edge_trees,
    kappa2_sweep,
    necklace,
    odd_ring_cacti,
    odd_ring_chain,
    on_numerators,
)

F = Fraction
HALF = F(1, 2)


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

    def test_component_with_an_even_cycle_refused(self):
        # H is a triangle on blocks 1-3 and a square on blocks 3-6 sharing
        # block 3, with a half-edge at every block; the point is the mean
        # of all vertices, so its support is everything
        fam = build_family(
            [[1, 3, 8], [1, 2, 9], [2, 3, 4, 7, 10], [4, 5, 11], [5, 6, 12], [6, 7, 13]]
        )
        vertices = enumerate_vertices(fam)
        w = WeightFunction.zero()
        for vertex in vertices:
            w = w + vertex.scaled(F(1, len(vertices)))
        assert len(w.support) == 13
        with pytest.raises(EvenCyclePresentError):
            construct_cycle_attachment(fam, w, cycle=Path((1, 2, 3), is_cycle=True))

    def test_uniform_matrix_refused_without_walks(self, monkeypatch):
        m = 20
        rows = [[m * r + c + 1 for c in range(m)] for r in range(m)]
        fam = build_family(rows + [list(c) for c in zip(*rows)])
        w = WeightFunction({g: F(1, m) for g in fam.ground})

        def no_walks(*args, **kwargs):
            raise AssertionError("the odd search walked a bipartite H")

        monkeypatch.setattr(graphs, "_primitive_walks", no_walks)
        with pytest.raises(
            ConditionsViolatedError, match="the support has no odd primitive cycle"
        ):
            construct_cycle_attachment(fam, w)


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
    """The canonical witness cycle comes from the search on H."""

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

        def refuse(*args, **kwargs):
            raise AssertionError("a primitive-cycle census was reached")

        monkeypatch.setattr(graphs, "_walk_cycles", refuse)
        assert [call() for call in calls] == expected
        constructions = [v.witness.construction for v in expected[:5]]
        assert constructions == [
            "two_coloring",
            "two_coloring",
            "tree_propagation",
            "cycle_attachment",
            "cycle_attachment",
        ]


class TestOddCycleChains:
    """A component whose H has odd cycles only is classified without any
    exhaustive walk: H answers that no even cycle exists."""

    @pytest.mark.parametrize("k, n", [(24, 5), (2, 801)])
    def test_classify_walks_linearly(self, monkeypatch, k, n):
        blocks, weights = odd_ring_chain(k, n)
        fam = build_family(blocks)
        w = WeightFunction(weights)
        cap = 4 * len(fam.ground)
        walks = graphs._primitive_walks
        steps = [0]

        def capped(*args, **kwargs):
            for walk in walks(*args, **kwargs):
                steps[0] += 1
                if steps[0] > cap:
                    raise AssertionError(f"the walks took more than {cap} steps")
                yield walk

        def refuse(*args, **kwargs):
            raise AssertionError("a primitive-cycle census was reached")

        monkeypatch.setattr(graphs, "_primitive_walks", capped)
        monkeypatch.setattr(graphs, "_walk_cycles", refuse)
        verdict = classify_extreme(fam, w)
        assert verdict.witness.construction == "cycle_attachment"
        assert_valid_witness(fam, w, verdict.witness)


class TestTriangleNecklaces:
    """A ring of triangles, every short cycle odd, classifies within a
    number of parity bounds quadratic in its length; its canonical even
    cycle is a round of the ring with one detour when its length is odd."""

    @pytest.mark.parametrize("k", [17, 33, 65])
    def test_classify(self, monkeypatch, k):
        blocks, weights = necklace(k, 3, True, seed=k)
        fam, w = build_family(blocks), WeightFunction(weights)
        counts = count_calls(monkeypatch, graphs, "_fits", "_walk_lengths", cap=2 * k * k)
        verdict = classify_extreme(fam, w)
        monkeypatch.undo()
        assert counts["_walk_lengths"] <= k * k
        assert verdict.witness.construction == "two_coloring"
        assert_valid_witness(fam, w, verdict.witness)
        moved = [g for g in w.support if verdict.witness.w_plus(g) != w(g)]
        assert len(moved) == k + k % 2


def _outcome(call):
    """What ``call`` returns, or the class and message of its refusal."""
    try:
        return call()
    except (PreconditionError, InternalPropertyError) as exc:
        return type(exc), str(exc)


def _mean(vertices):
    total = WeightFunction.zero()
    for vertex in vertices:
        total = total + vertex.scaled(F(1, len(vertices)))
    return total


def _points(fam):
    """Every vertex, the midpoint of each two consecutive ones and the
    mean of all of them."""
    vertices = enumerate_vertices(fam)
    if not vertices:
        return []
    mids = [a.scaled(HALF) + b.scaled(HALF) for a, b in zip(vertices, vertices[1:])]
    return [*vertices, *mids, _mean(vertices)]


def _attachment_shape(fam, w, witness):
    """How the witness ends, at a half-edge or a second odd cycle, and the
    length of its chain: the elements moved by a full step, less the
    half-edge."""
    full = [
        g for g in w.support
        if abs(witness.w_plus.value(g) - w.value(g)) == witness.epsilon
    ]
    half_edge = any(len(fam.membership(g)) == 1 for g in full)
    return "half-edge" if half_edge else "second cycle", len(full) - half_edge


class TestCycleAttachmentAgainstChains:
    """The frame circuit witness equals the chain builder's it replaced,
    on every classification and on every odd primitive cycle of each
    support handed to the public constructor, refusals included."""

    @staticmethod
    def _compare(monkeypatch, call):
        new = _outcome(call)
        with monkeypatch.context() as m:
            m.setattr(extremality, "_cycle_attachment", on_numerators(chain_cycle_attachment))
            old = _outcome(call)
        assert new == old
        return new

    def _compare_point(self, monkeypatch, fam, w):
        """The verdict, and the constructor's outcome on each odd cycle."""
        verdict = self._compare(monkeypatch, lambda: classify_extreme(fam, w))
        graph = graphs.build_graph(fam, within=w.support)
        doors = [
            self._compare(
                monkeypatch, lambda: construct_cycle_attachment(fam, w, cycle)
            )
            for cycle in graphs.find_primitive_cycles(graph, fam, parity="odd")
        ]
        return verdict, doors

    def test_sweep_mixtures(self, monkeypatch):
        witnesses = doors = 0
        for fam in kappa2_sweep():
            for w in _points(fam):
                verdict, outcomes = self._compare_point(monkeypatch, fam, w)
                witnesses += bool(
                    verdict.witness and verdict.witness.construction == "cycle_attachment"
                )
                doors += sum(isinstance(o, Witness) for o in outcomes)
        assert witnesses > 0 and doors > 0

    def test_odd_ring_cacti(self, monkeypatch):
        shapes = set()
        refusals = 0
        for fam in odd_ring_cacti(200, 7):
            for w in _points(fam):
                _, outcomes = self._compare_point(monkeypatch, fam, w)
                for outcome in outcomes:
                    if isinstance(outcome, Witness):
                        ending, chain = _attachment_shape(fam, w, outcome)
                        shapes.add((ending, min(chain, 3)))
                    else:
                        refusals += 1
        assert {ending for ending, _ in shapes} == {"half-edge", "second cycle"}
        assert {chain for _, chain in shapes} == {0, 1, 2, 3}
        assert refusals > 0

    @pytest.mark.parametrize("k, n", [(24, 5), (2, 801)])
    def test_odd_ring_chains(self, monkeypatch, k, n):
        blocks, weights = odd_ring_chain(k, n)
        fam, w = build_family(blocks), WeightFunction(weights)
        verdict, doors = self._compare_point(monkeypatch, fam, w)
        assert verdict.witness.construction == "cycle_attachment"
        assert len(doors) == k
        assert all(isinstance(o, Witness) for o in doors)

    def test_circuit_off_the_cycle_is_an_internal_error(self):
        # a pentagon of blocks with element 6 joining blocks 0 and 2: the
        # even-cycle check is bypassed, and the circuit element 6 closes
        # is the square 6 3 4 5, which misses the pentagon's elements 1, 2
        fam = build_family([[1, 5, 6], [1, 2], [2, 3, 6], [3, 4], [4, 5]])
        thirds = {g: 1 for g in range(1, 7)}
        pentagon = Path((1, 2, 3, 4, 5), is_cycle=True)
        with pytest.raises(
            InternalPropertyError, match="the circuit misses a cycle element"
        ):
            extremality._cycle_attachment(fam, thirds, 3, fam.ground, pentagon)


def _path_points(count, seed):
    """Seeded paths of 1 to 40 two-element blocks, at x and 1 - x
    alternately, x a seeded fraction in (0, 1)."""
    rng = random.Random(seed)
    for _ in range(count):
        k, q = rng.randint(1, 40), rng.randint(2, 60)
        x = F(rng.randint(1, q - 1), q)
        fam = build_family([[g, g + 1] for g in range(1, k + 1)])
        yield fam, WeightFunction({g: x if g % 2 else 1 - x for g in range(1, k + 2)})


class TestIntegerWitnessesAgainstFractionOracles:
    """The classifier and the three doors build on integer numerators the
    whole witness (halves, epsilon, slack and construction), or the
    refusal, that the ``Fraction`` constructions of helpers build."""

    ORACLES = {
        "_two_coloring": fraction_two_coloring,
        "_tree_propagation": fraction_tree_propagation,
        "_cycle_attachment": chain_cycle_attachment,
    }

    def _compare(self, monkeypatch, fam, w):
        """The verdict and the outcome of each door on the whole support."""
        calls = [
            lambda: classify_extreme(fam, w),
            lambda: construct_two_coloring(fam, w, w.support),
            lambda: construct_tree_propagation(fam, w),
            lambda: construct_cycle_attachment(fam, w),
        ]
        got = [_outcome(call) for call in calls]
        with monkeypatch.context() as m:
            for name, oracle in self.ORACLES.items():
                m.setattr(extremality, name, on_numerators(oracle))
            assert got == [_outcome(call) for call in calls], fam.blocks
        return got

    def _sweep(self, monkeypatch, points):
        """The constructions of the witnesses compared, the classifier's and
        the doors', with their count."""
        seen = Counter()
        for fam, w in points:
            for outcome in self._compare(monkeypatch, fam, w):
                witness = getattr(outcome, "witness", outcome)
                if isinstance(witness, Witness):
                    seen[witness.construction] += 1
        return seen

    def test_kappa2_sweep(self, monkeypatch):
        points = ((fam, w) for fam in kappa2_sweep() for w in _points(fam))
        seen = self._sweep(monkeypatch, points)
        assert min(seen.values()) > 50 and len(seen) == 3, seen

    def test_rings_at_one_half(self, monkeypatch):
        points = [
            (cycle_family(n), WeightFunction({g: HALF for g in range(1, n + 1)}))
            for n in range(3, 42)
        ]
        # the 19 even rings, each by the classifier and the two-coloring door
        assert self._sweep(monkeypatch, points) == {"two_coloring": 38}

    def test_necklaces(self, monkeypatch):
        points = []
        for k in range(3, 12):
            for sides in (3, 4):
                for half_edges in (False, True):
                    blocks, values = necklace(k, sides, half_edges, seed=k)
                    points.append((build_family(blocks), WeightFunction(values)))
        assert self._sweep(monkeypatch, points)["two_coloring"] > 40

    def test_seeded_paths(self, monkeypatch):
        seen = self._sweep(monkeypatch, _path_points(150, 17))
        assert seen["tree_propagation"] > 200 and seen["two_coloring"] > 0, seen

    def test_long_path_keeps_its_scale_small(self, monkeypatch):
        # the propagated fractions are kept in lowest terms: on a path they
        # are epsilon and -epsilon·x/(1 - x) in turn, where unreduced pairs
        # would gain about 20 bits a block
        k, x = 1000, F(123457, 1_000_000)
        fam = build_family([[g, g + 1] for g in range(1, k + 1)])
        w = WeightFunction({g: x if g % 2 else 1 - x for g in range(1, k + 2)})
        scales = []
        finish = extremality._finish

        def recording(family, base, steps, scale, *rest):
            scales.append(scale)
            return finish(family, base, steps, scale, *rest)

        monkeypatch.setattr(extremality, "_finish", recording)
        verdict = self._compare(monkeypatch, fam, w)[0]
        assert verdict.witness.construction == "tree_propagation"
        assert scales and max(scales).bit_length() < 100

    def test_caterpillar_trees(self, monkeypatch):
        points = ((fam, w) for fam in caterpillar_trees(60, 23) for w in _points(fam))
        seen = self._sweep(monkeypatch, points)
        assert seen["tree_propagation"] > 50 and seen["two_coloring"] > 50, seen


class TestNoFractionArithmetic:
    """The classifier makes as many ``Fraction`` additions, subtractions,
    multiplications, divisions and order comparisons on a long shape as on
    a short one: its witness steps are integers.  The operations are
    counted by wrapping the methods of ``Fraction`` by name."""

    OPERATIONS = (
        "__add__", "__sub__", "__mul__", "__truediv__", "__lt__", "__le__", "__gt__", "__ge__"
    )

    @staticmethod
    def _ring(n):
        return cycle_family(n), WeightFunction({g: HALF for g in range(1, n + 1)})

    @staticmethod
    def _path(k):
        fam = build_family([[g, g + 1] for g in range(1, k + 1)])
        return fam, WeightFunction({g: F(1 + g % 2, 3) for g in range(1, k + 2)})

    @pytest.mark.parametrize(
        "shape, sizes, construction",
        [("_ring", (50, 200), "two_coloring"), ("_path", (10, 40), "tree_propagation")],
        ids=["ring", "path"],
    )
    def test_count_does_not_grow(self, monkeypatch, shape, sizes, construction):
        counts = []
        for size in sizes:
            fam, w = getattr(self, shape)(size)
            counted = count_calls(monkeypatch, Fraction, *self.OPERATIONS)
            verdict = classify_extreme(fam, w)
            monkeypatch.undo()
            assert verdict.witness.construction == construction
            counts.append(counted)
        assert counts[0] == counts[1]


class TestBlocksAgainstElementGraph:
    """The classifier and the three doors, reading the support through
    its blocks, give the verdict, witness or refusal of their element-graph
    versions in helpers: components by adjacency, odd cycles by vertex
    degree, both canonical cycles by walk searches and the layered tree
    propagation."""

    @staticmethod
    def _compare(fam, w):
        """Both sides on the point, and the cycle door on up to 20 of the
        support's odd primitive cycles; returns the outcomes."""
        pairs = [
            (classify_extreme, graph_classify_extreme, ()),
            (construct_two_coloring, graph_two_coloring, (w.support,)),
            (construct_tree_propagation, graph_tree_propagation, ()),
            (construct_cycle_attachment, graph_cycle_attachment, ()),
        ]
        if max_multiplicity(fam) <= 2:
            support = graphs.build_graph(fam, within=w.support)
            odd = graphs.find_primitive_cycles(support, fam, parity="odd")
            pairs += [
                (construct_cycle_attachment, graph_cycle_attachment, (cycle,))
                for cycle in odd[:20]
            ]
        outcomes = []
        for new, old, args in pairs:
            got = _outcome(lambda: new(fam, w, *args))
            assert got == _outcome(lambda: old(fam, w, *args)), (new.__name__, args)
            outcomes.append(got)
        return outcomes

    def _sweep(self, families):
        seen = Counter()
        for fam in families:
            for w in _points(fam):
                verdict, *doors = self._compare(fam, w)
                seen[verdict.witness.construction if verdict.witness else verdict.kind] += 1
                seen["refusal"] += sum(isinstance(o, tuple) for o in doors)
        return seen

    def test_sweep_families(self):
        seen = self._sweep(
            chain(
                kappa2_sweep(),
                (gen_random(9, 6, 2, s)[0] for s in range(100)),
                odd_ring_cacti(50, 11),
            )
        )
        assert min(seen.values()) > 0
        assert set(seen) == {
            "extreme", "two_coloring", "tree_propagation", "cycle_attachment", "refusal"
        }

    def test_half_edge_trees(self):
        seen = self._sweep(half_edge_trees(300, 5))
        assert seen["tree_propagation"] > 0 and seen["two_coloring"] > 0

    @pytest.mark.parametrize("k, n", [(24, 5), (2, 801)])
    def test_odd_ring_chains(self, k, n):
        blocks, weights = odd_ring_chain(k, n)
        verdict = self._compare(build_family(blocks), WeightFunction(weights))[0]
        assert verdict.witness.construction == "cycle_attachment"

    @pytest.mark.parametrize(
        "blocks, construction",
        [
            ([[k, k + 1] for k in range(1, 401)], "tree_propagation"),
            ([[i, i % 200 + 1] for i in range(1, 201)], "two_coloring"),
            ([[i, i % 201 + 1] for i in range(1, 202)], None),
        ],
        ids=["path-400", "ring-200", "ring-201"],
    )
    def test_long_paths_and_rings(self, blocks, construction):
        fam = build_family(blocks)
        w = WeightFunction({g: HALF for g in fam.ground})
        verdict = self._compare(fam, w)[0]
        assert (verdict.witness and verdict.witness.construction) == construction


class TestFinishSelfChecks:
    """``_finish`` refuses integer deltas whose halves leave the polytope or
    coincide."""

    FAMILY = build_family([[1, 2], [3, 4]])
    # every value at 1/2, as numerators over 12
    BASE = {g: 6 for g in range(1, 5)}

    @pytest.mark.parametrize(
        "deltas",
        [
            {1: 3},
            {1: 3, 3: -3},
            {1: 9, 2: -9},
            {1: -9, 2: 9},
            {},
            {1: 0, 2: 0},
        ],
        ids=[
            "no_cancel",
            "cancel_across_blocks",
            "minus_negative",
            "plus_negative",
            "no_deltas",
            "zero_deltas",
        ],
    )
    def test_invalid_deltas_raise(self, deltas):
        with pytest.raises(InternalPropertyError, match="invalid probe witness"):
            extremality._finish(self.FAMILY, self.BASE, deltas, 12, 6, 6, "probe")

    def test_valid_deltas_give_the_halves(self):
        deltas = {1: 6, 2: -6, 4: 4, 3: -4}
        witness = extremality._finish(self.FAMILY, self.BASE, deltas, 12, 6, 6, "probe")
        assert witness == Witness(
            WeightFunction({1: F(1), 3: F(1, 6), 4: F(5, 6)}),
            WeightFunction({2: F(1), 3: F(5, 6), 4: F(1, 6)}),
            HALF,
            HALF,
            "probe",
        )
        w = WeightFunction({g: HALF for g in range(1, 5)})
        assert_valid_witness(self.FAMILY, w, witness)


class TestStochasticCheckedOnce:
    """The classifier checks its input once; the public constructors check theirs."""

    CASES = [
        (cycle_family(3), WeightFunction({1: HALF, 2: HALF, 3: HALF})),
        (cycle_family(4), WeightFunction({g: HALF for g in range(1, 5)})),
        (
            build_family([[1, 2], [2, 3]]),
            WeightFunction({1: F(1, 4), 2: F(3, 4), 3: F(1, 4)}),
        ),
        (
            build_family([[1, 2], [2, 3], [3, 1, 4], [4, 5]]),
            WeightFunction({1: F(1, 4), 2: F(3, 4), 3: F(1, 4), 4: HALF, 5: HALF}),
        ),
    ]

    def test_classify_checks_once(self, monkeypatch):
        calls = []

        def counting(family, w):
            calls.append(w)
            return require_stochastic(family, w)

        monkeypatch.setattr(extremality, "require_stochastic", counting)
        kinds = []
        for fam, w in self.CASES:
            calls.clear()
            verdict = classify_extreme(fam, w)
            assert calls == [w]
            kinds.append(verdict.witness.construction if verdict.witness else None)
        assert kinds == [None, "two_coloring", "tree_propagation", "cycle_attachment"]

    def test_public_constructors_reject_non_stochastic(self):
        fam = cycle_family(4)
        w = WeightFunction({g: F(1, 3) for g in fam.ground})
        calls = [
            lambda: construct_two_coloring(fam, w, fam.ground),
            lambda: construct_tree_propagation(fam, w),
            lambda: construct_cycle_attachment(fam, w),
        ]
        for call in calls:
            with pytest.raises(NotStochasticError, match="block 1 sums to 2/3"):
                call()
        # every door reads the point through require_stochastic, so each
        # refuses alike: an unknown label before a negative value, and a
        # negative value before a block sum
        fam = build_family([[1, 2], [2, 3], [1, 3]])
        doors = [
            lambda w: construct_two_coloring(fam, w, fam.ground),
            lambda w: construct_tree_propagation(fam, w),
            lambda w: construct_cycle_attachment(fam, w),
            lambda w: classify_extreme(fam, w),
            lambda w: decompose(fam, w),
            lambda w: is_vertex(fam, w),
            lambda w: counting_identity(fam, w),
        ]
        faults = [
            (
                {1: F(3, 2), 2: -HALF, 3: HALF},
                NotStochasticError,
                "weight function takes a negative value",
            ),
            ({1: HALF, 2: HALF, 3: F(3, 4)}, NotStochasticError, "block 2 sums to 5/4"),
            (
                {1: -HALF, 2: HALF, 3: HALF, 9: F(1)},
                UnknownElementError,
                "support label 9 is not in the ground set",
            ),
        ]
        for values, error, message in faults:
            for door in doors:
                with pytest.raises(error) as info:
                    door(WeightFunction(values))
                assert type(info.value) is error
                assert str(info.value) == message


class TestOneAnalysisPerComponent:
    """The classifier reads the support through its blocks, decides each
    structural question of the offending component once and hands its
    answers to the witness builder, which does not re-derive them.  No
    element graph is built: both canonical cycles are searched on H."""

    COUNTED = {
        extremality: (
            "build_graph",
            "block_multigraph",
            "_least_cycle",
            "check_injectivity",
            "biconnected_components",
        ),
        graphs: ("connected_components", "biconnected_components"),
    }

    def _classify_counting(self, monkeypatch, fam, w):
        counts = dict.fromkeys(
            (name for names in self.COUNTED.values() for name in names), 0
        )
        for module, names in self.COUNTED.items():
            for name in names:
                original = getattr(module, name)

                def counting(*args, _name=name, _original=original, **kwargs):
                    counts[_name] += 1
                    return _original(*args, **kwargs)

                monkeypatch.setattr(module, name, counting)
        verdict = classify_extreme(fam, w)
        monkeypatch.undo()
        return verdict, counts

    def test_cycle_attachment_on_two_joined_rings(self, monkeypatch):
        blocks, weights = odd_ring_chain(2, 801)
        fam, w = build_family(blocks), WeightFunction(weights)
        verdict, counts = self._classify_counting(monkeypatch, fam, w)
        assert verdict.witness.construction == "cycle_attachment"
        assert counts["build_graph"] == 0
        assert counts["connected_components"] == 0
        # the even search, then the odd one
        assert counts["_least_cycle"] == 2
        assert counts["block_multigraph"] == 1
        # one split for both searches
        assert counts["biconnected_components"] == 1
        assert counts["check_injectivity"] == 1
        assert verdict.witness == construct_cycle_attachment(fam, w)

    def test_tree_propagation_on_a_long_path(self, monkeypatch):
        fam = build_family([[k, k + 1] for k in range(1, 401)])
        w = WeightFunction({g: HALF for g in range(1, 402)})
        verdict, counts = self._classify_counting(monkeypatch, fam, w)
        assert verdict.witness.construction == "tree_propagation"
        assert counts["build_graph"] == 0
        assert counts["connected_components"] == 0
        assert counts["_least_cycle"] == 2
        assert counts["block_multigraph"] == 1
        assert counts["check_injectivity"] == 1
        assert verdict.witness == construct_tree_propagation(fam, w)

    def test_even_cycle_builds_no_element_graph(self, monkeypatch):
        fam = cycle_family(200)
        w = WeightFunction({g: HALF for g in range(1, 201)})
        verdict, counts = self._classify_counting(monkeypatch, fam, w)
        assert verdict.witness.construction == "two_coloring"
        assert counts["build_graph"] == 0
        assert counts["connected_components"] == 0
        assert counts["_least_cycle"] == 1
        assert counts["block_multigraph"] == 1
        assert counts["check_injectivity"] == 0

    def test_one_support_graph_for_every_point_of_the_sweep(self, monkeypatch):
        """Extreme or not, whatever the witness, a classification reads
        the support through its blocks and builds no element graph, a
        witness from an even cycle included."""
        points = []
        for fam in islice(kappa2_sweep(), 150):
            vertices = enumerate_vertices(fam)
            points += [(fam, v) for v in vertices]
            if len(vertices) >= 2:
                mix = vertices[0].scaled(HALF) + vertices[-1].scaled(HALF)
                points.append((fam, mix))
        counts = count_calls(monkeypatch, extremality, "build_graph")
        verdicts = [classify_extreme(fam, w) for fam, w in points]
        monkeypatch.undo()
        from_even = [
            v for (_, w), v in zip(points, verdicts)
            if v.witness and v.witness.construction == "two_coloring"
            and sum(v.witness.w_plus(g) != w(g) for g in w.support) >= 4
        ]
        assert counts["build_graph"] == 0 < len(from_even) < len(points)
        constructions = {v.witness.construction for v in verdicts if v.witness}
        assert constructions == {"two_coloring", "tree_propagation", "cycle_attachment"}


# The refusals of the public constructors that the classifier never
# reaches: each row is a minimal input, the exception class and the
# exact message.
TRIANGLE_WITH_TAIL = [[1, 2], [2, 3], [1, 3, 4], [4, 5], [4, 6]]
DOOR_REFUSALS = [
    (construct_two_coloring, [[1, 2], [2, 3], [3, 4], [4, 1]],
     {1: "1/2", 2: "1/2", 3: "1/2", 4: "1/2"}, ([],),
     ConditionsViolatedError, "the subgraph has no vertices"),
    (construct_two_coloring, [[1, 2], [2, 3]], {2: "1"}, ([1, 3],),
     ConditionsViolatedError, "the subgraph must lie in the support"),
    (construct_tree_propagation, [[1, 2], [2, 3]], {2: "1"}, ([1, 2],),
     ConditionsViolatedError, "the component must lie in the support"),
    (construct_tree_propagation, [[1, 2], [2, 3]], {1: "1/4", 2: "3/4", 3: "1/4"},
     ([1],), ConditionsViolatedError,
     "a block connects the component to other support elements"),
    (construct_tree_propagation, [[1]], {1: "1"}, (),
     ConditionsViolatedError, "a single saturated element cannot be perturbed"),
    (construct_tree_propagation, [[1, 2], [1, 3], [1, 4]],
     {1: "1/2", 2: "1/2", 3: "1/2", 4: "1/2"}, (),
     ConditionsViolatedError, "an element lies in more than two blocks"),
    (construct_tree_propagation, [[1, 2, 3]], {1: "1/3", 2: "1/3", 3: "1/3"}, (),
     ConditionsViolatedError, "elements 1 and 2 share the same membership set"),
    # both conditions fail: the multiplicity is checked first
    (construct_tree_propagation, [[1, 2, 6], [1, 3], [1, 4]],
     {1: "1/2", 2: "1/4", 3: "1/2", 4: "1/2", 6: "1/4"}, (),
     ConditionsViolatedError, "an element lies in more than two blocks"),
    (construct_tree_propagation, [[1, 2], [2, 3], [4, 5], [5, 6]],
     {g: "1/2" for g in range(1, 7)}, (),
     ConditionsViolatedError, "the component is not connected"),
    (construct_cycle_attachment, [[1, 2], [2, 3], [3, 4], [4, 1]],
     {1: "1/2", 2: "1/2", 3: "1/2", 4: "1/2"}, (Path((1, 2, 3, 4), is_cycle=True),),
     NotSimpleCycleError, "an odd cycle is required"),
    (construct_cycle_attachment, [[1, 2], [2, 3]], {1: "1/4", 2: "3/4", 3: "1/4"},
     (Path((1, 2, 3)),), NotSimpleCycleError, "an odd cycle is required"),
    (construct_cycle_attachment, [[1, 2, 3]], {1: "1/3", 2: "1/3", 3: "1/3"},
     (Path((1, 2, 3), is_cycle=True),),
     ConditionsViolatedError, "the cycle is not primitive"),
    (construct_cycle_attachment, TRIANGLE_WITH_TAIL,
     {1: "1/4", 2: "3/4", 3: "1/4", 4: "1/2", 5: "1/2", 6: "1/2"},
     (Path((1, 2, 3), is_cycle=True),),
     ConditionsViolatedError, "an element lies in more than two blocks"),
    (construct_cycle_attachment, [[1, 2], [2, 3], [1, 3, 4, 5]],
     {1: "1/4", 2: "3/4", 3: "1/4", 4: "1/4", 5: "1/4"},
     (Path((1, 2, 3), is_cycle=True),),
     ConditionsViolatedError, "elements 4 and 5 share the same membership set"),
    (construct_cycle_attachment, [[1, 2], [2, 3], [1, 3, 4], [4, 5, 7], [4, 6]],
     {1: "1/4", 2: "3/4", 3: "1/4", 4: "1/2", 5: "1/4", 6: "1/2", 7: "1/4"},
     (Path((1, 2, 3), is_cycle=True),),
     ConditionsViolatedError, "an element lies in more than two blocks"),
]


@pytest.mark.parametrize(
    "construct, blocks, weights, args, error, message",
    DOOR_REFUSALS,
    ids=[f"{row[0].__name__}-{i}" for i, row in enumerate(DOOR_REFUSALS)],
)
def test_constructor_refusals(construct, blocks, weights, args, error, message):
    fam = build_family(blocks)
    w = WeightFunction({g: F(v) for g, v in weights.items()})
    with pytest.raises(error) as caught:
        construct(fam, w, *args)
    assert type(caught.value) is error
    assert str(caught.value) == message
