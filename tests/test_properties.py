"""Property-based checks over randomly drawn families."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from blockstoch import cli, extremality, graphs, oracle
from blockstoch.cli import gen_random
from blockstoch.errors import ConditionsViolatedError
from blockstoch.extremality import (
    classify_extreme,
    construct_tree_propagation,
    construct_two_coloring,
)
from blockstoch.family import (
    FreshnessVerdict,
    WeightFunction,
    build_family,
    check_freshness,
    check_injectivity,
    classify_membership,
    fresh_prefix,
    max_multiplicity,
    normalize,
)
from blockstoch.graphs import (
    Path,
    biconnected_components,
    bipartition,
    block_multigraph,
    block_vertex_counts,
    build_graph,
    connected_components,
    decompose_cycle,
    find_primitive_cycles,
    shortest_primitive_cycle,
    two_color,
)
from blockstoch.instance_io import dump_instance, parse_instance
from blockstoch.oracle import (
    _first_circuit,
    basis_vertices,
    column_rank,
    cross_validate,
    decompose,
    enumerate_vertices,
)

from helpers import (
    assert_cycle_pieces,
    assert_valid_witness,
    column_rows,
    dense_rank,
    fraction_combination,
    fraction_finish_steps,
    kappa2_sweep,
    nested_families,
    restart_normalize,
    scaled_kernel_circuit,
    sparse_rank,
    walk_census,
)

F = Fraction


@st.composite
def small_families(draw):
    """A family over at most seven elements with multiplicity at most two."""
    n = draw(st.integers(min_value=2, max_value=7))
    ground = list(range(1, n + 1))
    quota = {g: 2 for g in ground}
    blocks: list[tuple[int, ...]] = []
    seen: set[frozenset[int]] = set()
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        pool = [g for g in ground if quota[g] > 0]
        if not pool:
            break
        size = draw(st.integers(min_value=1, max_value=min(3, len(pool))))
        picks = draw(
            st.lists(
                st.sampled_from(pool),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        members = frozenset(picks)
        if members in seen:
            continue
        seen.add(members)
        blocks.append(tuple(sorted(members)))
        for g in members:
            quota[g] -= 1
    if not blocks:
        blocks = [(1,)]
    return build_family(blocks)


@st.composite
def chorded_cycles(draw):
    """A simple cycle family plus random chord blocks."""
    n = draw(st.integers(min_value=3, max_value=8))
    blocks = [(i, i % n + 1) for i in range(1, n + 1)]
    chords = draw(
        st.sets(
            st.tuples(
                st.integers(min_value=1, max_value=n),
                st.integers(min_value=1, max_value=n),
            ).map(lambda p: tuple(sorted(p))),
            max_size=3,
        )
    )
    for a, b in sorted(chords):
        if a == b or (a, b) in blocks or (b - a) in (1, n - 1):
            continue
        blocks.append((a, b))
    return build_family(blocks), n


@settings(max_examples=60, deadline=None)
@given(small_families())
def test_vertex_values_are_half_integral(fam):
    assert max_multiplicity(fam) <= 2
    for vertex in enumerate_vertices(fam):
        values = {value for _, value in vertex.items()}
        assert values <= {F(1, 2), F(1)}


@settings(max_examples=100, deadline=None)
@given(small_families())
def test_multigraph_search_matches_basis_search(fam):
    assert enumerate_vertices(fam) == basis_vertices(fam)


def test_multigraph_search_matches_basis_search_on_seeded_sweep():
    for fam in kappa2_sweep():
        assert max_multiplicity(fam) <= 2
        assert enumerate_vertices(fam) == basis_vertices(fam), fam.blocks


def test_frame_core_matches_sparse_kernel_on_seeded_sweep():
    # on every vertex support, the support of a mixture of up to three
    # vertices and the whole ground set
    rng = random.Random(3)
    checked = 0
    for fam in kappa2_sweep():
        vertices = enumerate_vertices(fam)
        supports = [v.support for v in vertices] + [fam.ground]
        if len(vertices) >= 2:
            picked = rng.sample(vertices, min(3, len(vertices)))
            supports.append(tuple(sorted({g for v in picked for g in v.support})))
        for supp in supports:
            ends = [fam.gamma[g] for g in supp]
            assert column_rank(ends) == sparse_rank(column_rows(ends)), (fam.blocks, supp)
            assert _first_circuit(ends) == scaled_kernel_circuit(ends), (fam.blocks, supp)
            checked += 1
    assert checked > 1800


@settings(max_examples=60, deadline=None)
@given(small_families())
def test_every_vertex_classifies_extreme(fam):
    for vertex in enumerate_vertices(fam):
        assert classify_extreme(fam, vertex).kind == "extreme"


@settings(max_examples=40, deadline=None)
@given(small_families(), st.integers(min_value=1, max_value=9))
def test_strict_mixtures_are_recognized(fam, tenths):
    vertices = enumerate_vertices(fam)
    if len(vertices) < 2:
        return
    lam = F(tenths, 10)
    first, second = vertices[0], vertices[-1]
    mix = first.scaled(lam) + second.scaled(1 - lam)
    if mix in (first, second):
        return
    verdict = classify_extreme(fam, mix)
    assert verdict.kind == "not_extreme"
    assert_valid_witness(fam, mix, verdict.witness)


@settings(max_examples=40, deadline=None)
@given(small_families(), st.data())
def test_decompose_recombines_exactly(fam, data):
    vertices = enumerate_vertices(fam)
    if not vertices:
        return
    count = min(len(vertices), 3)
    weights = data.draw(
        st.lists(
            st.integers(min_value=1, max_value=5),
            min_size=count,
            max_size=count,
        )
    )
    total = sum(weights)
    mix = WeightFunction({})
    for coefficient, vertex in zip(weights, vertices[:count]):
        mix = mix + vertex.scaled(F(coefficient, total))
    result = decompose(fam, mix)
    assert result.combined() == mix
    coefficients = [c for c, _ in result.terms]
    assert sum(coefficients) == 1
    assert all(c > 0 for c in coefficients)
    assert coefficients == sorted(coefficients, reverse=True)
    # the peeled vertices are linearly independent, so no affine
    # dependency is left to prune
    columns = [[v(g) for g in fam.ground] for _, v in result.terms]
    assert dense_rank(columns, len(fam.ground)) == len(result.terms)


@settings(max_examples=60, deadline=None)
@given(chorded_cycles())
def test_cycle_decomposition_properties(drawn):
    fam, n = drawn
    graph = build_graph(fam)
    cycle = Path(tuple(range(1, n + 1)), is_cycle=True)
    result = decompose_cycle(graph, fam, cycle)
    assert_cycle_pieces(graph, fam, cycle, result.pieces)


@settings(max_examples=60, deadline=None)
@given(small_families(), st.data())
def test_instance_round_trip(fam, data):
    numerators = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=6),
            min_size=len(fam.ground),
            max_size=len(fam.ground),
        )
    )
    w = WeightFunction(
        {g: F(k, 6) for g, k in zip(fam.ground, numerators) if k}
    )
    text = dump_instance(fam, w, feasible=classify_membership(fam, w).stochastic)
    inst = parse_instance(text)
    assert inst.family.blocks == fam.blocks
    assert inst.family.ground == fam.ground
    assert (inst.weights or WeightFunction({})) == w


@settings(max_examples=60, deadline=None)
@given(small_families())
def test_normalize_is_idempotent(fam):
    once, _ = normalize(fam)
    twice, log = normalize(once)
    assert twice.blocks == once.blocks
    assert log.removed_blocks == ()
    assert log.removed_elements == ()


def test_normalize_matches_the_restarting_scan_on_seeded_sweep():
    # one ascending pass against the old loop that restarted its double
    # scan after every removal: same removals, witnesses and survivors
    cascades = 0
    for fam in nested_families(2000, seed=17):
        reduced, log = normalize(fam)
        removed, survivors = restart_normalize(fam)
        assert log.removed_blocks == removed, fam.blocks
        assert [(b.index, b.members) for b in reduced.blocks] == survivors
        kept = {g for _, members in survivors for g in members}
        assert log.removed_elements == tuple(sorted(set(fam.ground) - kept))
        cascades += len(removed) >= 3
    assert cascades > 500


# Differential checks: the structure questions answered on the block
# multigraph (a BFS two-coloring, an edge count, a multiplicity test)
# against the primitive-cycle search and the union definition they
# replaced.  Each check returns the outcome it saw, so the sweep can
# show that every outcome occurs.


def _block_components(fam):
    """Blocks grouped by the components of the block-intersection graph."""
    root = {b.index: b.index for b in fam.blocks}

    def find(k):
        while root[k] != k:
            k = root[k]
        return k

    for ks in fam.gamma.values():
        for k in ks[1:]:
            root[find(k)] = find(ks[0])
    groups = {}
    for b in fam.blocks:
        groups.setdefault(find(b.index), []).append(b.index)
    return list(groups.values())


def _check_bipartition(fam):
    split = bipartition(fam)
    odd = max_multiplicity(fam) > 2 or bool(
        next(graphs._walk_cycles(build_graph(fam), fam, (1,)), None)
    )
    assert (split is None) == odd
    if split is None:
        return "none"
    assert sorted(split.plus + split.minus) == [b.index for b in fam.blocks]
    for side in (split.plus, split.minus):
        for a, b in combinations(side, 2):
            assert not fam.block(a).member_set & fam.block(b).member_set
    for comp in _block_components(fam):
        assert min(comp) in split.plus
    return "split"


def _check_two_coloring(fam, w, outcomes):
    supp = w.support
    for r in range(1, len(supp) + 1):
        for subset in combinations(supp, r):
            if any(c != 2 for c in block_vertex_counts(fam, subset).values()):
                continue
            induced = build_graph(fam, within=subset)
            if next(graphs._walk_cycles(induced, fam, (1,)), None):
                with pytest.raises(ConditionsViolatedError, match="odd primitive"):
                    construct_two_coloring(fam, w, subset)
                outcomes["two_coloring refused"] += 1
            else:
                witness = construct_two_coloring(fam, w, subset)
                assert_valid_witness(fam, w, witness)
                outcomes["two_coloring built"] += 1


def _check_tree_count(fam, w, outcomes):
    for comp in connected_components(build_graph(fam, within=w.support)):
        if (
            len(comp) < 2
            or any(len(fam.membership(g)) > 2 for g in comp)
            or check_injectivity(fam, subset=comp) is not None
        ):
            continue
        induced = build_graph(fam, within=comp)
        if next(graphs._walk_cycles(induced, fam, (0, 1)), None):
            with pytest.raises(ConditionsViolatedError, match="primitive cycle"):
                construct_tree_propagation(fam, w, comp)
            outcomes["tree refused"] += 1
        else:
            witness = construct_tree_propagation(fam, w, comp)
            assert_valid_witness(fam, w, witness)
            outcomes["tree built"] += 1


def _union_freshness(fam, m):
    """check_freshness by its definition: unions of the other blocks."""
    covered = set()
    for b in fam.blocks[:m]:
        covered |= b.member_set
    if covered == set(fam.ground):
        return FreshnessVerdict(ok=True, mode="cover", m=m)
    violations = tuple(
        b.index
        for b in fam.blocks[m:]
        if b.member_set
        <= set().union(*(o.member_set for o in fam.blocks if o.index != b.index))
    )
    if violations:
        return FreshnessVerdict(ok=False, mode=None, m=m, violations=violations)
    return FreshnessVerdict(ok=True, mode="fresh", m=m)


def _member_points(fam):
    """The average of all vertices and the midpoints of vertex pairs."""
    vertices = enumerate_vertices(fam)
    if not vertices:
        return []
    total = WeightFunction({})
    for vertex in vertices:
        total = total + vertex
    points = [total.scaled(F(1, len(vertices)))]
    for a, b in list(combinations(vertices, 2))[:12]:
        points.append((a + b).scaled(F(1, 2)))
    return points


def _check_structure(fam, outcomes):
    outcomes["bipartition " + _check_bipartition(fam)] += 1
    first_passing = None
    for m in range(len(fam.blocks) + 1):
        verdict = check_freshness(fam, m)
        assert verdict == _union_freshness(fam, m)
        outcomes[f"freshness {verdict.mode}"] += 1
        if verdict.ok and first_passing is None:
            first_passing = verdict
    prefix = fresh_prefix(fam)
    assert prefix == first_passing
    outcomes[f"prefix {prefix.mode}"] += 1
    for w in _member_points(fam):
        _check_two_coloring(fam, w, outcomes)
        _check_tree_count(fam, w, outcomes)


@settings(max_examples=100, deadline=None)
@given(small_families())
def test_structure_answers_match_cycle_search(fam):
    _check_structure(fam, Counter())


def test_structure_answers_match_cycle_search_on_seeded_sweep():
    rng = random.Random(3)
    outcomes = Counter()
    kappas = Counter()
    for i in range(600):
        elements = rng.randint(2, 9)
        blocks = rng.randint(1, 8)
        fam, _ = gen_random(elements, blocks, kappa_max=2 + i % 2, seed=50_000 + i)
        kappas[max_multiplicity(fam)] += 1
        _check_structure(fam, outcomes)
    assert kappas[3] >= 100 and kappas[2] >= 100
    for outcome in (
        "bipartition none",
        "bipartition split",
        "freshness cover",
        "freshness fresh",
        "freshness None",
        "prefix cover",
        "prefix fresh",
        "two_coloring built",
        "two_coloring refused",
        "tree built",
        "tree refused",
    ):
        assert outcomes[outcome] > 0, outcome


def _graph_pool(fam):
    """The element graph and the graph induced on every support component
    of the member points."""
    pool = [build_graph(fam)]
    for w in _member_points(fam):
        support = build_graph(fam, within=w.support)
        pool += [build_graph(fam, within=c) for c in connected_components(support)]
    return pool


def _check_shortest_cycle(fam, outcomes):
    """The bounded search against the census, on every graph of the pool."""
    for graph in _graph_pool(fam):
        for parity in ("any", "odd", "even"):
            expected = (find_primitive_cycles(graph, fam, parity) or (None,))[0]
            assert shortest_primitive_cycle(graph, fam, parity) == expected
            outcomes[f"{parity} {'none' if expected is None else 'found'}"] += 1


@settings(max_examples=100, deadline=None)
@given(small_families())
def test_shortest_cycle_matches_census(fam):
    _check_shortest_cycle(fam, Counter())


@settings(max_examples=100, deadline=None)
@given(chorded_cycles())
def test_shortest_cycle_matches_census_on_chorded_cycles(case):
    _check_shortest_cycle(case[0], Counter())


def test_shortest_cycle_matches_census_on_seeded_sweep():
    rng = random.Random(5)
    outcomes = Counter()
    kappas = Counter()
    for i in range(600):
        elements = rng.randint(2, 9)
        blocks = rng.randint(1, 8)
        fam, _ = gen_random(elements, blocks, kappa_max=2 + i % 2, seed=70_000 + i)
        kappas[max_multiplicity(fam)] += 1
        _check_shortest_cycle(fam, outcomes)
    assert kappas[3] >= 100 and kappas[2] >= 100
    for parity in ("any", "odd", "even"):
        assert outcomes[f"{parity} found"] > 0 and outcomes[f"{parity} none"] > 0


def _check_least_cycle(fam, outcomes):
    """The least cycle of H against the walk census's first, at every
    parity, on every graph of the pool whose elements lie in at most two
    blocks."""
    for graph in _graph_pool(fam):
        if all(len(fam.gamma[g]) <= 2 for g in graph.vertices):
            edges = block_multigraph(fam, graph.vertices)
            components = biconnected_components(edges)
            for parity in ("any", "odd", "even"):
                expected = (walk_census(graph, fam, parity) or (None,))[0]
                found = graphs._least_cycle(
                    edges, components, graphs._parity_classes(parity)
                )
                assert found == (expected and expected.vertices), (fam.blocks, parity)
                outcomes[parity, expected is not None] += 1


@settings(max_examples=100, deadline=None)
@given(small_families())
def test_even_test_on_h_matches_walks(fam):
    _check_least_cycle(fam, Counter())


@settings(max_examples=100, deadline=None)
@given(chorded_cycles())
def test_even_test_on_h_matches_walks_on_chorded_cycles(case):
    _check_least_cycle(case[0], Counter())


def test_even_test_on_h_matches_walks_on_seeded_sweep():
    outcomes = Counter()
    for fam in kappa2_sweep():
        _check_least_cycle(fam, outcomes)
    assert min(outcomes.values()) > 100 and len(outcomes) == 6, outcomes


def _check_census(fam, outcomes):
    """The census against the primitive walks from every start, on every
    graph of the pool and at every parity."""
    for graph in _graph_pool(fam):
        on_h = all(len(fam.gamma[g]) <= 2 for g in graph.vertices)
        for parity in ("any", "odd", "even"):
            census = find_primitive_cycles(graph, fam, parity)
            assert census == walk_census(graph, fam, parity), (fam.blocks, graph.vertices)
            outcomes[f"{'h' if on_h else 'walks'} {'found' if census else 'none'}"] += 1


@settings(max_examples=100, deadline=None)
@given(small_families())
def test_census_matches_walks(fam):
    _check_census(fam, Counter())


@settings(max_examples=100, deadline=None)
@given(chorded_cycles())
def test_census_matches_walks_on_chorded_cycles(case):
    _check_census(case[0], Counter())


def test_census_matches_walks_on_seeded_sweep():
    outcomes = Counter()
    for fam in kappa2_sweep():
        _check_census(fam, outcomes)
    assert outcomes["h found"] > 500 and outcomes["h none"] > 500, outcomes


def _relabelled(fam, rng):
    """The family with its labels permuted at random."""
    labels = list(fam.ground)
    image = dict(zip(labels, rng.sample(labels, len(labels))))
    return build_family([[image[g] for g in b.members] for b in fam.blocks])


def test_census_matches_walks_on_relabelled_seeded_sweep():
    # the census on H starts a search from each cycle's least element, so
    # label order, not block order, decides where each cycle is found
    rng = random.Random(11)
    outcomes = Counter()
    for fam in kappa2_sweep():
        _check_census(_relabelled(fam, rng), outcomes)
    assert outcomes["h found"] > 500 and outcomes["h none"] > 500, outcomes


# Test-only differentials against networkx on H; each test skips alone
# when networkx is missing.


def _nx_multigraph(nx, edges):
    h = nx.MultiGraph()
    h.add_nodes_from(edges)
    h.add_edges_from((p, q, e) for p, arcs in edges.items() for e, q in arcs if p < q)
    return h


def _larger_kappa2_families():
    """200 seeded κ ≤ 2 families of 10 to 24 elements on 6 to 14 blocks."""
    rng = random.Random(7)
    for i in range(200):
        elements = rng.randint(10, 24)
        blocks = rng.randint(6, 14)
        fam, _ = gen_random(elements, blocks, kappa_max=2, seed=90_000 + i)
        yield fam


def _nx_families():
    yield from kappa2_sweep()
    yield from _larger_kappa2_families()


def test_two_color_matches_networkx():
    nx = pytest.importorskip("networkx")
    outcomes = Counter()
    for fam in _nx_families():
        edges = block_multigraph(fam)
        bipartite = nx.is_bipartite(_nx_multigraph(nx, edges))
        assert (two_color(edges) is not None) == bipartite, fam.blocks
        outcomes[bipartite] += 1
    assert outcomes[True] > 100 and outcomes[False] > 100, outcomes


def test_biconnected_components_match_networkx():
    nx = pytest.importorskip("networkx")
    for fam in _nx_families():
        edges = block_multigraph(fam)
        ours = sorted(sorted(c) for c in biconnected_components(edges))
        theirs = sorted(
            sorted(c) for c in nx.biconnected_components(_nx_multigraph(nx, edges))
        )
        assert ours == theirs, fam.blocks


def test_census_count_matches_networkx():
    nx = pytest.importorskip("networkx")
    checked = Counter()
    for fam in _nx_families():
        edges = block_multigraph(fam)
        h = nx.Graph(_nx_multigraph(nx, edges))
        if h.number_of_edges() != sum(map(len, edges.values())) // 2:
            continue  # parallel elements: networkx counts their two-node cycles
        cycles = find_primitive_cycles(build_graph(fam), fam)
        assert len(cycles) == sum(1 for _ in nx.simple_cycles(h)), fam.blocks
        checked[bool(cycles)] += 1
    assert checked[True] > 50 and checked[False] > 200, checked


def _combination_outcomes(fam, rng):
    """Everything the combination kernel feeds on one family: seeded
    mixtures of its vertices, their verdicts and decompositions, the
    verdicts of the vertices and, when κ ≤ 2, a cross validation."""
    vertices = enumerate_vertices(fam)
    kappa2 = max_multiplicity(fam) <= 2
    out = [classify_extreme(fam, v) for v in vertices if kappa2]
    for _ in range(3 if vertices else 0):
        picked = rng.sample(vertices, rng.randint(1, min(len(vertices), 4)))
        raw = [rng.randint(1, 9) for _ in picked]
        terms = [(F(r, sum(raw)), v) for r, v in zip(raw, picked)]
        mix = oracle._combination(terms)
        decomposition = decompose(fam, mix)
        out += [mix, decomposition, decomposition.combined()]
        if kappa2:
            out.append(classify_extreme(fam, mix))
    if kappa2:
        out.append(cross_validate(fam, samples=3, seed=rng.randrange(100)))
    return out


def _weight_functions(outcomes):
    """The weight functions among the outcomes, witnesses and terms included."""
    for item in outcomes:
        if isinstance(item, WeightFunction):
            yield item
        elif getattr(item, "witness", None) is not None:
            yield from (item.witness.w_plus, item.witness.w_minus)
        elif hasattr(item, "terms"):
            yield from (v for _, v in item.terms)


def test_combinations_match_fraction_reference_on_seeded_sweep(monkeypatch):
    """Mixtures, witness halves, decompositions, cross validations and
    generated points come out the same from the integer kernels as from
    sequential ``Fraction`` arithmetic through the validating constructor."""

    def sweep():
        """The κ ≤ 2 sweep, then generated κ ≤ 3 families with their points."""
        for fam in kappa2_sweep():
            yield fam, None
        for seed in range(60):
            args = (3 + seed % 6, 2 + seed % 5, 3, 40_000 + seed)
            yield gen_random(*args)[0], args

    reference = {
        (extremality, "_finish"): fraction_finish_steps,
        (oracle, "_combination"): fraction_combination,
        (cli, "_combination"): fraction_combination,
    }
    seen = Counter()
    for i, (fam, args) in enumerate(sweep()):
        got = _combination_outcomes(fam, random.Random(i))
        if args is not None:
            got.append(gen_random(*args)[1])
        with monkeypatch.context() as m:
            for (module, name), replacement in reference.items():
                m.setattr(module, name, replacement)
            expected = _combination_outcomes(fam, random.Random(i))
            if args is not None:
                expected.append(gen_random(*args)[1])
        assert got == expected, fam.blocks
        values = [v for w in _weight_functions(got) for _, v in w.items()]
        assert all(type(v) is Fraction for v in values), fam.blocks
        seen[max_multiplicity(fam)] += 1
        seen.update(o.witness.construction for o in got if getattr(o, "witness", None))
        seen["points"] += sum(isinstance(o, WeightFunction) for o in got)
    assert seen[3] > 30 and seen["points"] > 2000, seen
    constructions = ("two_coloring", "tree_propagation", "cycle_attachment")
    assert min(seen[c] for c in constructions) > 10, seen
