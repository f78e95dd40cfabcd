"""Tests for the co-membership graph and primitive path machinery."""

from fractions import Fraction

import pytest

from blockstoch import extremality, graphs
from blockstoch.errors import (
    ConditionsViolatedError,
    InputError,
    NotSimpleCycleError,
    NotSimpleError,
    UnknownElementError,
)
from blockstoch.extremality import (
    construct_tree_propagation,
    construct_two_coloring,
)
from blockstoch.family import WeightFunction, build_family
from blockstoch.graphs import (
    Path,
    bipartition,
    block_multigraph,
    block_vertex_counts,
    build_graph,
    connected_components,
    decompose_cycle,
    enumerate_primitive_paths,
    find_primitive_cycles,
    is_primitive,
    is_simple,
    shortest_primitive_cycle,
    shortest_primitive_path,
    two_color,
    unique_primitive_paths,
    validate_path,
)
from blockstoch.oracle import enumerate_vertices


def cycle_family(n):
    return build_family([[i, i % n + 1] for i in range(1, n + 1)])


def grid_family(m):
    rows = [[m * r + c + 1 for c in range(m)] for r in range(m)]
    cols = [[m * r + c + 1 for r in range(m)] for c in range(m)]
    return build_family(rows + cols)


class TestBuildGraph:
    def test_blocks_induce_cliques(self):
        fam = build_family([[1, 2, 3], [3, 4]])
        graph = build_graph(fam)
        assert graph.adjacent(1, 2)
        assert graph.adjacent(2, 3)
        assert graph.adjacent(1, 3)
        assert graph.adjacent(3, 4)
        assert not graph.adjacent(1, 4)

    def test_edge_blocks_list_every_joint_block(self):
        fam = build_family([[1, 2], [1, 2, 3]])
        graph = build_graph(fam)
        assert graph.blocks_of_edge(1, 2) == (1, 2)
        assert graph.blocks_of_edge(2, 3) == (2,)

    def test_induced_subgraph(self):
        fam = build_family([[1, 2, 3], [3, 4]])
        graph = build_graph(fam, within=[1, 2, 4])
        assert graph.vertices == (1, 2, 4)
        assert graph.adjacent(1, 2)
        assert not graph.neighbors_of(4)

    def test_unknown_vertex_rejected(self):
        fam = build_family([[1, 2]])
        with pytest.raises(UnknownElementError):
            build_graph(fam, within=[1, 9])


class TestComponents:
    def test_split_components(self):
        fam = build_family([[1, 2], [2, 3], [4, 5]])
        graph = build_graph(fam)
        assert connected_components(graph) == ((1, 2, 3), (4, 5))

    def test_isolated_vertex(self):
        fam = build_family([[1], [2, 3]])
        graph = build_graph(fam)
        assert connected_components(graph) == ((1,), (2, 3))


class TestPaths:
    def test_validate_rejects_non_edges(self):
        fam = build_family([[1, 2], [3, 4]])
        graph = build_graph(fam)
        with pytest.raises(NotSimpleError):
            validate_path(graph, Path(vertices=(1, 3)))

    def test_simplicity(self):
        assert is_simple(Path(vertices=(1, 2, 3)))
        assert not is_simple(Path(vertices=(1, 2, 1)))

    def test_block_vertex_counts(self):
        fam = build_family([[1, 2, 3], [3, 4]])
        counts = block_vertex_counts(fam, [1, 2, 3])
        assert counts[1] == 3
        assert counts[2] == 1

    def test_primitivity_limits_block_load(self):
        fam = build_family([[1, 2, 3], [3, 4]])
        assert is_primitive(fam, Path(vertices=(1, 3, 4)))
        assert not is_primitive(fam, Path(vertices=(1, 2, 3)))


class TestPrimitivePaths:
    def test_fan_has_two_primitive_paths(self):
        fam = build_family([[0, 1, 2], [0, 2, 3], [0, 3, 4]])
        graph = build_graph(fam)
        paths = enumerate_primitive_paths(graph, fam, 1, 4)
        assert sorted(p.vertices for p in paths) == [(1, 0, 4), (1, 2, 3, 4)]
        assert not unique_primitive_paths(graph, fam)

    def test_shortest_primitive_path(self):
        fam = build_family([[0, 1, 2], [0, 2, 3], [0, 3, 4]])
        graph = build_graph(fam)
        shortest = shortest_primitive_path(graph, fam, 1, 4)
        assert shortest.vertices == (1, 0, 4)

    def test_no_path_between_components(self):
        fam = build_family([[1, 2], [3, 4]])
        graph = build_graph(fam)
        assert shortest_primitive_path(graph, fam, 1, 3) is None

    def test_path_family_is_unique(self):
        fam = build_family([[1, 2], [2, 3], [3, 4]])
        graph = build_graph(fam)
        assert unique_primitive_paths(graph, fam)


class TestPrimitiveCycles:
    def test_triangle_found_once_in_canonical_form(self):
        fam = cycle_family(3)
        graph = build_graph(fam)
        cycles = find_primitive_cycles(graph, fam)
        assert [c.vertices for c in cycles] == [(1, 2, 3)]

    def test_parity_filter(self):
        fam = cycle_family(4)
        graph = build_graph(fam)
        assert find_primitive_cycles(graph, fam, parity="odd") == ()
        even = find_primitive_cycles(graph, fam, parity="even")
        assert [c.vertices for c in even] == [(1, 2, 3, 4)]

    def test_triangle_inside_one_block_is_not_primitive(self):
        fam = build_family([[1, 2, 3], [1, 4]])
        graph = build_graph(fam)
        assert find_primitive_cycles(graph, fam) == ()

    def test_first_only_stops_early(self):
        fam = grid_family(3)
        graph = build_graph(fam)
        first = find_primitive_cycles(graph, fam, first_only=True)
        assert len(first) == 1
        everything = find_primitive_cycles(graph, fam)
        assert len(everything) > 1
        assert first[0].vertices == everything[0].vertices

    def test_bad_parity_rejected(self):
        fam = cycle_family(3)
        graph = build_graph(fam)
        with pytest.raises(InputError):
            find_primitive_cycles(graph, fam, parity="prime")


class TestShortestPrimitiveCycle:
    """The bounded search returns the census's first cycle, and only that."""

    @pytest.mark.parametrize(
        "fam",
        [grid_family(m) for m in range(2, 6)] + [cycle_family(n) for n in range(3, 13)],
    )
    @pytest.mark.parametrize("parity", ["any", "odd", "even"])
    def test_matches_the_census(self, fam, parity):
        graph = build_graph(fam)
        expected = (find_primitive_cycles(graph, fam, parity) or (None,))[0]
        assert shortest_primitive_cycle(graph, fam, parity) == expected

    def test_long_ring_is_its_own_cycle(self):
        fam = cycle_family(2000)
        graph = build_graph(fam)
        ring = Path(tuple(range(1, 2001)), is_cycle=True)
        assert shortest_primitive_cycle(graph, fam) == ring
        assert shortest_primitive_cycle(graph, fam, parity="even") == ring
        assert shortest_primitive_cycle(graph, fam, parity="odd") is None

    def test_large_matrix_gives_the_first_square(self):
        fam = grid_family(20)
        graph = build_graph(fam)
        square = Path((1, 2, 22, 21), is_cycle=True)
        assert shortest_primitive_cycle(graph, fam) == square
        assert shortest_primitive_cycle(graph, fam, parity="even") == square

    @pytest.mark.parametrize(
        "ring, extra, parity, expected",
        [
            (6, [[2, 7], [7, 8], [8, 2]], "any", (2, 7, 8)),
            (6, [[2, 7], [7, 8], [8, 2]], "even", (1, 2, 3, 4, 5, 6)),
            (5, [[2, 7], [7, 8], [8, 2]], "odd", (2, 7, 8)),
            (6, [[2, 7], [7, 8], [8, 9], [9, 2]], "even", (2, 7, 8, 9)),
            (5, [[2, 7], [7, 8], [8, 9], [9, 2]], "any", (2, 7, 8, 9)),
        ],
    )
    def test_shorter_cycle_at_a_later_start_wins(self, ring, extra, parity, expected):
        # the ring through 1 comes first in the walk order; a shorter
        # cycle of the same parity from a later start must replace it
        fam = build_family([[i, i % ring + 1] for i in range(1, ring + 1)] + extra)
        graph = build_graph(fam)
        assert shortest_primitive_cycle(graph, fam, parity).vertices == expected

    @pytest.mark.parametrize(
        "fam",
        [
            grid_family(4),
            cycle_family(9),
            build_family([[i, i % 6 + 1] for i in range(1, 7)] + [[2, 7], [7, 8], [8, 2]]),
            build_family([[1, 2], [2, 3], [3, 4], [4, 5], [5, 1], [1, 3, 6], [6, 4]]),
        ],
    )
    @pytest.mark.parametrize("parity", ["any", "odd", "even"])
    def test_visits_only_census_walks(self, monkeypatch, fam, parity):
        graph = build_graph(fam)
        census_walks = {
            tuple(walk)
            for start in graph.vertices
            for walk in graphs._primitive_walks(graph, fam, start, floor=start)
        }
        walks = graphs._primitive_walks
        visited = []

        def recording(*args, **kwargs):
            for walk in walks(*args, **kwargs):
                visited.append(tuple(walk))
                yield walk

        monkeypatch.setattr(graphs, "_primitive_walks", recording)
        shortest_primitive_cycle(graph, fam, parity)
        assert visited
        assert set(visited) <= census_walks

    def test_bad_parity_rejected(self):
        fam = cycle_family(3)
        with pytest.raises(InputError):
            shortest_primitive_cycle(build_graph(fam), fam, parity="prime")


class TestDecomposeCycle:
    def test_primitive_cycle_returned_whole(self):
        fam = cycle_family(5)
        graph = build_graph(fam)
        cycle = find_primitive_cycles(graph, fam)[0]
        pieces = decompose_cycle(graph, fam, cycle).pieces
        assert [p.vertices for p in pieces] == [cycle.vertices]

    def test_one_block_triangle_returned_whole(self):
        fam = build_family([[1, 2, 3], [1, 4]])
        graph = build_graph(fam)
        pieces = decompose_cycle(graph, fam, Path(vertices=(1, 2, 3), is_cycle=True)).pieces
        assert [p.vertices for p in pieces] == [(1, 2, 3)]

    def test_chorded_hexagon_splits(self):
        blocks = [[1, 2], [2, 3], [3, 4], [4, 5], [5, 6], [6, 1], [1, 4]]
        fam = build_family(blocks)
        graph = build_graph(fam)
        result = decompose_cycle(
            graph, fam, Path(vertices=(1, 2, 3, 4, 5, 6), is_cycle=True)
        )
        assert len(result.pieces) == 2
        first, second = result.pieces
        shared = set(first.vertices) & set(second.vertices)
        assert shared == {1, 4}

    def test_repeated_edge_rejected(self):
        fam = cycle_family(5)
        graph = build_graph(fam)
        with pytest.raises(NotSimpleError):
            decompose_cycle(graph, fam, Path(vertices=(1, 2, 3, 2), is_cycle=True))

    def test_repeated_vertex_rejected(self):
        fam = build_family([[1, 2], [2, 3], [1, 3], [1, 4], [4, 5], [1, 5]])
        graph = build_graph(fam)
        eight = Path(vertices=(1, 2, 3, 1, 4, 5), is_cycle=True)
        with pytest.raises(NotSimpleCycleError):
            decompose_cycle(graph, fam, eight)


class TestBipartition:
    def test_grid_splits_rows_and_columns(self):
        fam = grid_family(3)
        split = bipartition(fam)
        assert split is not None
        sides = {frozenset(split.plus), frozenset(split.minus)}
        assert frozenset([1, 2, 3]) in sides
        assert frozenset([4, 5, 6]) in sides

    def test_same_side_blocks_are_disjoint(self):
        fam = grid_family(3)
        split = bipartition(fam)
        for side in (split.plus, split.minus):
            for i, a in enumerate(side):
                for b in side[i + 1 :]:
                    assert not (
                        fam.block(a).member_set & fam.block(b).member_set
                    )

    def test_odd_cycle_has_no_bipartition(self):
        assert bipartition(cycle_family(3)) is None

    def test_disjoint_blocks_on_one_side(self):
        fam = build_family([[1, 2], [3, 4]])
        split = bipartition(fam)
        assert split is not None
        assert set(split.plus) | set(split.minus) == {1, 2}

    def test_high_multiplicity_has_no_bipartition(self):
        fam = build_family([[0, 1, 2], [0, 2, 3], [0, 3, 4]])
        assert bipartition(fam) is None


class TestBlockMultigraph:
    def test_edges_and_half_edges_by_position(self):
        fam = build_family([[1, 2, 3], [3, 4], [2, 4, 5]])
        halves, edges = block_multigraph(fam)
        assert halves == [[1], [], [5]]
        assert edges == [[(2, 2), (3, 1)], [(3, 0), (4, 2)], [(2, 0), (4, 1)]]

    def test_parallel_edges_stay_separate(self):
        fam = build_family([[1, 2, 3], [2, 3, 4]])
        halves, edges = block_multigraph(fam)
        assert halves == [[1], [4]]
        assert edges == [[(2, 1), (3, 1)], [(2, 0), (3, 0)]]

    def test_two_color_puts_each_component_root_at_zero(self):
        fam = build_family([[1, 2], [2, 3], [4, 5], [5, 6], [6, 7]])
        assert two_color(block_multigraph(fam)[1]) == [0, 1, 0, 1, 0]

    def test_two_color_refuses_odd_ring(self):
        assert two_color(block_multigraph(cycle_family(5))[1]) is None


class TestLongFamilies:
    """Walks longer than the interpreter's recursion limit."""

    def test_bipartition_of_long_even_ring(self):
        split = bipartition(cycle_family(1500))
        assert split.plus == tuple(range(1, 1501, 2))
        assert split.minus == tuple(range(2, 1501, 2))

    def test_long_odd_ring_has_no_bipartition(self):
        assert bipartition(cycle_family(1501)) is None

    def test_first_cycle_of_long_ring(self):
        fam = cycle_family(1500)
        cycles = find_primitive_cycles(build_graph(fam), fam, first_only=True)
        assert cycles == (Path(tuple(range(1, 1501)), is_cycle=True),)

    def test_primitive_path_across_long_path_family(self):
        fam = build_family([[i, i + 1] for i in range(1, 1501)])
        paths = enumerate_primitive_paths(build_graph(fam), fam, 1, 1501)
        assert paths == (Path(tuple(range(1, 1502))),)


class TestNoCycleSearch:
    """The structure questions H answers never run the cycle search."""

    def test_structural_paths_do_not_search_cycles(self, monkeypatch):
        half = Fraction(1, 2)
        square = cycle_family(4)
        on_square = WeightFunction({g: half for g in square.ground})
        chain = build_family([[1, 2], [2, 3]])
        on_chain = WeightFunction(
            {1: Fraction(1, 4), 2: Fraction(3, 4), 3: Fraction(1, 4)}
        )
        ring = cycle_family(6)
        on_ring = WeightFunction({g: half for g in ring.ground})
        calls = [
            lambda: bipartition(grid_family(3)),
            lambda: bipartition(cycle_family(5)),
            lambda: construct_two_coloring(square, on_square, square.ground),
            lambda: construct_tree_propagation(chain, on_chain),
            lambda: enumerate_vertices(grid_family(3)),
            lambda: enumerate_vertices(cycle_family(5)),
        ]
        expected = [call() for call in calls]
        with pytest.raises(ConditionsViolatedError, match="primitive cycle"):
            construct_tree_propagation(ring, on_ring)

        def refuse(*args, **kwargs):
            raise AssertionError("the primitive-cycle search was reached")

        monkeypatch.setattr(graphs, "find_primitive_cycles", refuse)
        monkeypatch.setattr(extremality, "find_primitive_cycles", refuse)
        assert [call() for call in calls] == expected
        with pytest.raises(ConditionsViolatedError, match="primitive cycle"):
            construct_tree_propagation(ring, on_ring)
        triangle = cycle_family(3)
        on_triangle = WeightFunction({g: half for g in triangle.ground})
        with pytest.raises(ConditionsViolatedError, match="odd primitive cycle"):
            construct_two_coloring(triangle, on_triangle, triangle.ground)
