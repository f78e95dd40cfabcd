"""Tests for the co-membership graph and primitive path machinery."""

from collections import Counter
from fractions import Fraction

import pytest

from blockstoch import graphs
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
from blockstoch.family import WeightFunction, build_family, max_multiplicity
from blockstoch.graphs import (
    Path,
    biconnected_components,
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
from blockstoch.oracle import _CoverSearch, basis_vertices, enumerate_vertices

from helpers import (
    KAPPA3_BLOCKS,
    count_calls,
    cycle_family,
    diamond_chain_blocks,
    kappa2_sweep,
    kappa3_sweep,
    matrix_cycle_count,
    matrix_family,
    necklace,
    walk_census,
)


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
    def test_length_counts_vertices(self):
        assert len(Path((4, 1, 2))) == 3
        assert len(Path((1, 2, 3, 4), is_cycle=True)) == 4
        assert len(Path((7,))) == 1

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

    def test_path_from_a_vertex_to_itself(self):
        fam = build_family([[0, 1, 2], [0, 2, 3], [0, 3, 4]])
        paths = enumerate_primitive_paths(build_graph(fam), fam, 2, 2)
        assert paths == (Path((2,)),)
        assert enumerate_primitive_paths(build_graph(fam), fam, 2, 2, stop_after=0) == ()

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

    def test_bad_parity_rejected(self):
        fam = cycle_family(3)
        graph = build_graph(fam)
        with pytest.raises(InputError):
            find_primitive_cycles(graph, fam, parity="prime")


def refuse_walks(monkeypatch):
    def no_walks(*args, **kwargs):
        raise AssertionError("the census walked the element graph")

    monkeypatch.setattr(graphs, "_primitive_walks", no_walks)


class TestMultigraphCensus:
    """The κ ≤ 2 census lists the cycles of H, as the walks would."""

    @pytest.mark.parametrize("m", range(2, 7))
    def test_matrix_counts(self, monkeypatch, m):
        fam = matrix_family(m)
        graph = build_graph(fam)
        if m <= 5:
            expected = walk_census(graph, fam)
        refuse_walks(monkeypatch)
        cycles = find_primitive_cycles(graph, fam)
        assert len(cycles) == matrix_cycle_count(m)
        if m <= 5:
            assert cycles == expected
        else:
            assert len(cycles) == 113_865
            assert cycles[0].vertices == (1, 2, 8, 7)

    @pytest.mark.parametrize("parity", ["any", "odd", "even"])
    def test_matrix_with_reversed_labels(self, monkeypatch, parity):
        # labels fall along rows and columns, so each search starts at the
        # opposite corner from the one it starts at in label order
        rows = [[25 - 5 * r - c for c in range(5)] for r in range(5)]
        fam = build_family(rows + [list(c) for c in zip(*rows)])
        graph = build_graph(fam)
        oracle = walk_census(graph, fam, parity)
        refuse_walks(monkeypatch)
        assert find_primitive_cycles(graph, fam, parity) == oracle
        assert len(oracle) == (0 if parity == "odd" else matrix_cycle_count(5))

    @pytest.mark.parametrize(
        "blocks, expected",
        [
            # parallel elements 2 and 3, half-edges 1 and 4: no cycle
            ([[1, 2, 3], [2, 3, 4]], []),
            # a triangle of H with one side doubled: one cycle per parallel
            ([[1, 2, 3, 5], [1, 2, 4], [3, 4, 6]], [(1, 3, 4), (2, 3, 4)]),
            # two triangles joined by a bridge, a pendant edge, a half-edge
            (
                [[1, 3, 4, 9], [1, 2], [2, 3], [4, 6, 7], [5, 6], [5, 7, 8], [8]],
                [(1, 2, 3), (5, 6, 7)],
            ),
            # parallel elements across a square: 2 x 2 squares
            (
                [[1, 2, 5], [1, 2, 3], [3, 4, 6], [4, 5, 6]],
                [(1, 3, 4, 5), (1, 3, 6, 5), (2, 3, 4, 5), (2, 3, 6, 5)],
            ),
        ],
    )
    @pytest.mark.parametrize("parity", ["any", "odd", "even"])
    def test_parallel_and_half_edges(self, monkeypatch, blocks, expected, parity):
        fam = build_family(blocks)
        assert max_multiplicity(fam) <= 2
        graph = build_graph(fam)
        oracle = walk_census(graph, fam, parity)
        refuse_walks(monkeypatch)
        cycles = find_primitive_cycles(graph, fam, parity)
        assert cycles == oracle
        wanted = {"any": (0, 1), "odd": (1,), "even": (0,)}[parity]
        assert [c.vertices for c in cycles] == [
            c for c in expected if len(c) % 2 in wanted
        ]

    def test_kappa3_graph_walks(self, monkeypatch):
        fam = build_family([[0, 1, 2], [0, 2, 3], [0, 3, 4], [1, 4]])
        assert find_primitive_cycles(build_graph(fam), fam)
        refuse_walks(monkeypatch)
        with pytest.raises(AssertionError, match="walked"):
            find_primitive_cycles(build_graph(fam), fam)
        # a κ = 3 family's graph induced on elements in at most two blocks
        inner = build_graph(fam, within=[1, 2, 3, 4])
        assert find_primitive_cycles(inner, fam) == (Path((1, 2, 3, 4), is_cycle=True),)

    def test_long_ring_is_one_cycle(self, monkeypatch):
        refuse_walks(monkeypatch)
        fam = cycle_family(3000)
        cycles = find_primitive_cycles(build_graph(fam), fam)
        assert cycles == (Path(tuple(range(1, 3001)), is_cycle=True),)

    def test_blocked_nodes_are_not_reentered(self):
        # labels run forward along the chain, and one search over the whole
        # chain (no biconnected split) from its least element 1, side c_0
        # to joint a_1, may go down every later diamond before it closes
        # through b_0; a node that cannot reach c_0 stays blocked, so each
        # is entered about once instead of once per path (2^13 paths)
        blocks = [[57 - g for g in b] for b in diamond_chain_blocks(14)]
        edges = block_multigraph(build_family(blocks))
        c0, a1 = [k for k, arcs in edges.items() for e, _ in arcs if e == 1]
        lookups = []

        class Counting(dict):
            def __getitem__(self, v):
                lookups.append(v)
                return dict.__getitem__(self, v)

        arcs = {v: [(e, w) for e, w in vs if e > 1] for v, vs in edges.items()}
        cycles = list(graphs._cycles_from(Counting(arcs), 1, c0, a1))
        assert cycles == [[1, 3, 4, 2]]
        assert len(set(lookups)) == len(edges) - 1
        assert len(lookups) <= 2 * len(edges)

    def test_tree_parts_are_not_searched(self, monkeypatch):
        # a hexagon of H with a comb of 1500 teeth hanging off it: only the
        # hexagon is a component of three or more nodes, and only its
        # least element 1 has its ends joined by larger elements, so it
        # starts the one search (without the split, every element of the
        # spine would be taken into the union-find with the hexagon's)
        ring = [[i, i % 6 + 1] for i in range(1, 7)]
        comb = [[] for _ in range(3000)]
        for i in range(1500):
            comb[2 * i] += [100 + i, 2000 + i]
            comb[2 * i + 1].append(2000 + i)
            if i:
                comb[2 * i - 2].append(100 + i)
        ring[0].append(100)
        searches = []
        search = graphs._cycles_from

        def counting(arcs, g, a, b):
            searches.append(g)
            return search(arcs, g, a, b)

        monkeypatch.setattr(graphs, "_cycles_from", counting)
        fam = build_family(ring + comb)
        cycles = find_primitive_cycles(build_graph(fam), fam)
        assert cycles == (Path(tuple(range(1, 7)), is_cycle=True),)
        assert searches == [1]
        # a ring of 3000 is searched once too, from its least element
        searches.clear()
        fam = cycle_family(3000)
        cycles = find_primitive_cycles(build_graph(fam), fam)
        assert cycles == (Path(tuple(range(1, 3001)), is_cycle=True),)
        assert searches == [1]

    def test_diamond_chain(self, monkeypatch):
        refuse_walks(monkeypatch)
        fam = build_family(diamond_chain_blocks(30))
        cycles = find_primitive_cycles(build_graph(fam), fam)
        assert [c.vertices for c in cycles] == [
            (b + 1, b + 2, b + 4, b + 3) for b in range(0, 120, 4)
        ]


class TestCensusGroups:
    """The library's paths and the CLI's tuple groups are one census."""

    @pytest.mark.parametrize("sweep", [kappa2_sweep, kappa3_sweep])
    @pytest.mark.parametrize("parity", ["any", "odd", "even"])
    def test_paths_wrap_the_groups_in_order(self, sweep, parity):
        for fam in sweep():
            graph = build_graph(fam)
            groups = graphs._census(graph, fam, graphs._parity_classes(parity))
            assert all(len({len(c) for c in group}) == 1 for group in groups)
            flat = [c for group in groups for c in group]
            paths = tuple(Path(c, is_cycle=True) for c in flat)
            assert find_primitive_cycles(graph, fam, parity) == paths
            assert flat == sorted(flat, key=lambda c: (len(c), c))


class TestBiconnectedComponents:
    def test_cut_nodes_bridges_and_parallels(self):
        # H: triangle 1-2-3, triangle 3-4-5 sharing block 3, bridge 5-6,
        # parallel pair 6-7, isolated block 8
        fam = build_family(
            [[1, 3], [1, 2], [2, 3, 4, 6], [4, 5], [5, 6, 7], [7, 8, 9], [8, 9], [10]]
        )
        edges = block_multigraph(fam)
        components = sorted(sorted(c) for c in biconnected_components(edges))
        assert components == [[1, 2, 3], [3, 4, 5], [5, 6], [6, 7]]

    def test_long_ring_is_one_component(self):
        edges = block_multigraph(cycle_family(3000))
        assert biconnected_components(edges) == [set(range(1, 3001))]


class TestShortestPrimitiveCycle:
    """The bounded search returns the census's first cycle, and only that."""

    @pytest.mark.parametrize(
        "fam",
        [matrix_family(m) for m in range(2, 6)] + [cycle_family(n) for n in range(3, 13)],
    )
    @pytest.mark.parametrize("parity", ["any", "odd", "even"])
    def test_matches_the_census(self, fam, parity):
        graph = build_graph(fam)
        expected = (find_primitive_cycles(graph, fam, parity) or (None,))[0]
        assert shortest_primitive_cycle(graph, fam, parity) == expected

    def test_long_ring_is_its_own_cycle(self, monkeypatch):
        fam = cycle_family(2000)
        graph = build_graph(fam)
        ring = Path(tuple(range(1, 2001)), is_cycle=True)
        # a component that is one cycle is answered without a search
        counts = count_calls(monkeypatch, graphs, "_least_through")
        assert shortest_primitive_cycle(graph, fam) == ring
        assert shortest_primitive_cycle(graph, fam, parity="even") == ring
        assert shortest_primitive_cycle(graph, fam, parity="odd") is None
        assert counts["_least_through"] == 0

    def test_large_matrix_gives_the_first_square(self):
        fam = matrix_family(20)
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
            matrix_family(4),
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
        # a graph whose elements lie in at most two blocks is searched on
        # H and walks nothing; the others walk something
        assert bool(visited) == (max_multiplicity(fam) > 2)
        assert set(visited) <= census_walks

    def test_bad_parity_rejected(self):
        fam = cycle_family(3)
        with pytest.raises(InputError):
            shortest_primitive_cycle(build_graph(fam), fam, parity="prime")

    def test_bipartite_odd_search_walks_nothing(self, monkeypatch):
        # H of the uniform 20 x 20 matrix joins rows to columns, so it is
        # bipartite; the exhaustive walks would not finish in reasonable time
        fam = matrix_family(20)
        graph = build_graph(fam)

        def no_walks(*args, **kwargs):
            raise AssertionError("the odd search walked a bipartite H")

        monkeypatch.setattr(graphs, "_primitive_walks", no_walks)
        # nor is any least element tried on H
        counts = count_calls(monkeypatch, graphs, "_least_through")
        assert shortest_primitive_cycle(graph, fam, parity="odd") is None
        assert counts["_least_through"] == 0


class TestLeastCycleOnNecklaces:
    """On rings of triangles and of squares, whose short cycles all have
    one parity, the search on H finds the walks' cycle, and its parity
    bounds keep its work within the square of the ring's length."""

    @pytest.mark.parametrize("k", [2, 3, 5, 8, 11])
    @pytest.mark.parametrize("half_edges", [False, True])
    @pytest.mark.parametrize("sides", [3, 4])
    def test_matches_the_walks(self, sides, half_edges, k):
        fam = build_family(necklace(k, sides, half_edges, seed=k)[0])
        graph = build_graph(fam)
        edges = block_multigraph(fam)
        components = biconnected_components(edges)
        for parity in ("any", "odd", "even"):
            want = graphs._parity_classes(parity)
            walked = graphs._shortest_cycle(graph, fam, want)
            census = walk_census(graph, fam, parity)
            assert walked == (census[0].vertices if census else None)
            assert graphs._least_cycle(edges, components, want) == walked, parity

    @pytest.mark.parametrize("k", [17, 33, 65])
    @pytest.mark.parametrize("sides", [3, 4])
    def test_work_is_quadratic(self, monkeypatch, sides, k):
        """The steps tried (one cut each) and the walk-length searches."""
        fam = build_family(necklace(k, sides, True, seed=k)[0])
        graph = build_graph(fam)
        lengths = (
            {"any": 3, "odd": 3, "even": k + k % 2}
            if sides == 3
            else {"any": 4, "odd": k, "even": 4}
        )
        for parity, length in lengths.items():
            counts = count_calls(
                monkeypatch, graphs, "_fits", "_walk_lengths", cap=2 * k * k
            )
            cycle = shortest_primitive_cycle(graph, fam, parity)
            monkeypatch.undo()
            assert len(cycle) == length
            assert counts["_walk_lengths"] <= k * k, parity


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
        fam = matrix_family(3)
        split = bipartition(fam)
        assert split is not None
        sides = {frozenset(split.plus), frozenset(split.minus)}
        assert frozenset([1, 2, 3]) in sides
        assert frozenset([4, 5, 6]) in sides

    def test_same_side_blocks_are_disjoint(self):
        fam = matrix_family(3)
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
    # H leaves half-edges out; the vertex search reads them off gamma
    def test_edges_and_half_edges_by_index(self):
        fam = build_family([[1, 2, 3], [3, 4], [2, 4, 5]])
        assert block_multigraph(fam) == {
            1: [(2, 3), (3, 2)], 2: [(3, 1), (4, 3)], 3: [(2, 1), (4, 2)]
        }
        assert _CoverSearch(fam, block_multigraph(fam), 1).halves == {1: [1], 2: [], 3: [5]}

    def test_parallel_edges_stay_separate(self):
        fam = build_family([[1, 2, 3], [2, 3, 4]])
        assert block_multigraph(fam) == {1: [(2, 2), (3, 2)], 2: [(2, 1), (3, 1)]}
        assert _CoverSearch(fam, block_multigraph(fam), 1).halves == {1: [1], 2: [4]}

    def test_two_color_puts_each_component_root_at_zero(self):
        fam = build_family([[1, 2], [2, 3], [4, 5], [5, 6], [6, 7]])
        assert two_color(block_multigraph(fam)) == {1: 0, 2: 1, 3: 0, 4: 1, 5: 0}

    def test_two_color_refuses_odd_ring(self):
        assert two_color(block_multigraph(cycle_family(5))) is None

    def test_no_multigraph_once_an_element_lies_in_three_blocks(self):
        assert block_multigraph(build_family(KAPPA3_BLOCKS)) is None
        # a pentagon whose blocks 1, 3 and 5 also share element 6
        fam = build_family([[1, 2, 6], [2, 3], [3, 4, 6], [4, 5], [5, 1, 6]])
        assert block_multigraph(fam, [1, 2, 3, 4, 5]) == block_multigraph(cycle_family(5))
        assert block_multigraph(fam, [1, 2, 3, 4, 5, 6]) is None
        assert block_multigraph(fam) is None

    def test_every_reader_takes_the_general_path_on_kappa3(self):
        # no H: the vertices are the pivot search's, there is no
        # bipartition, and both cycle queries give the primitive walks'
        # census; the totals are pinned so the sweep cannot shrink
        totals = Counter()
        for fam in kappa3_sweep():
            assert block_multigraph(fam) is None
            assert bipartition(fam) is None
            vertices = enumerate_vertices(fam)
            assert vertices == basis_vertices(fam), fam.blocks
            totals["vertices"] += len(vertices)
            graph = build_graph(fam)
            for parity in ("any", "odd", "even"):
                census = walk_census(graph, fam, parity)
                assert find_primitive_cycles(graph, fam, parity) == census, fam.blocks
                first = census[0] if census else None
                assert shortest_primitive_cycle(graph, fam, parity) == first, fam.blocks
                totals[parity] += len(census)
        assert totals == {"vertices": 126, "any": 703, "odd": 391, "even": 312}


class TestLongFamilies:
    """Walks longer than the interpreter's recursion limit."""

    def test_bipartition_of_long_even_ring(self):
        split = bipartition(cycle_family(1500))
        assert split.plus == tuple(range(1, 1501, 2))
        assert split.minus == tuple(range(2, 1501, 2))

    def test_long_odd_ring_has_no_bipartition(self):
        assert bipartition(cycle_family(1501)) is None

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
            lambda: bipartition(matrix_family(3)),
            lambda: bipartition(cycle_family(5)),
            lambda: construct_two_coloring(square, on_square, square.ground),
            lambda: construct_tree_propagation(chain, on_chain),
            lambda: enumerate_vertices(matrix_family(3)),
            lambda: enumerate_vertices(cycle_family(5)),
        ]
        expected = [call() for call in calls]
        with pytest.raises(ConditionsViolatedError, match="primitive cycle"):
            construct_tree_propagation(ring, on_ring)

        def refuse(*args, **kwargs):
            raise AssertionError("the primitive-cycle search was reached")

        monkeypatch.setattr(graphs, "find_primitive_cycles", refuse)
        assert [call() for call in calls] == expected
        with pytest.raises(ConditionsViolatedError, match="primitive cycle"):
            construct_tree_propagation(ring, on_ring)
        triangle = cycle_family(3)
        on_triangle = WeightFunction({g: half for g in triangle.ground})
        with pytest.raises(ConditionsViolatedError, match="odd primitive cycle"):
            construct_two_coloring(triangle, on_triangle, triangle.ground)
