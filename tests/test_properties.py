"""Property-based checks over randomly drawn families."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

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
    bipartition,
    block_vertex_counts,
    build_graph,
    connected_components,
    decompose_cycle,
    find_primitive_cycles,
    shortest_primitive_cycle,
)
from blockstoch.instance_io import dump_instance, parse_instance
from blockstoch.oracle import basis_vertices, decompose, enumerate_vertices

from helpers import assert_cycle_pieces, assert_valid_witness

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
    rng = random.Random(2)
    for i in range(600):
        elements = rng.randint(2, 10)
        blocks = rng.randint(1, 8)
        fam, _ = gen_random(elements, blocks, kappa_max=2, seed=30_000 + i)
        assert max_multiplicity(fam) <= 2
        assert enumerate_vertices(fam) == basis_vertices(fam), fam.blocks


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
        find_primitive_cycles(build_graph(fam), fam, parity="odd", first_only=True)
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
            if find_primitive_cycles(induced, fam, parity="odd", first_only=True):
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
        if find_primitive_cycles(induced, fam, first_only=True):
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


def _check_shortest_cycle(fam, outcomes):
    """The bounded search against the census, on the element graph and
    on every support component of the member points."""
    pool = [build_graph(fam)]
    for w in _member_points(fam):
        support = build_graph(fam, within=w.support)
        pool += [build_graph(fam, within=c) for c in connected_components(support)]
    for graph in pool:
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
