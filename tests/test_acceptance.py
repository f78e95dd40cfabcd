"""Acceptance suite: ten criteria, one printed pass/fail line each.

Every check runs in exact rational arithmetic; the only tolerances are
the two wall-clock budgets, which are generous on purpose.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from blockstoch.cli import gen_random
from blockstoch.extension import (
    DisjointGrowingGenerator,
    Truncation,
    approximate_by_extremes,
    extend_truncation,
    get_generator,
    verify_extension,
)
from blockstoch.extremality import classify_extreme
from blockstoch.family import (
    WeightFunction,
    build_family,
    classify_membership,
    emptiness_test,
)
from blockstoch.graphs import Path, _walk_cycles, build_graph, decompose_cycle
from blockstoch.oracle import (
    cross_validate,
    decompose,
    enumerate_vertices,
    support_width,
)

from helpers import assert_cycle_pieces

F = Fraction
HALF = F(1, 2)


@pytest.fixture
def announce(capsys):
    def _announce(label, ok):
        with capsys.disabled():
            print(f"{label}: {'pass' if ok else 'FAIL'}")

    return _announce


def cycle_family(n):
    return build_family([(i, i % n + 1) for i in range(1, n + 1)])


def matrix_family(m):
    label = lambda r, c: (r - 1) * m + c
    rows = [tuple(label(r, c) for c in range(1, m + 1)) for r in range(1, m + 1)]
    cols = [tuple(label(r, c) for r in range(1, m + 1)) for c in range(1, m + 1)]
    return build_family(rows + cols)


def brute_force_exact_covers(fam):
    """All 0/1 members, found by trying every subset of the ground set."""
    ground = fam.ground
    found = []
    for bits in range(1 << len(ground)):
        chosen = {g for i, g in enumerate(ground) if bits >> i & 1}
        if all(len(chosen & b.member_set) == 1 for b in fam.blocks):
            found.append(WeightFunction({g: F(1) for g in chosen}))
    return found


@pytest.fixture(scope="module")
def sweep():
    """Five hundred seed-fixed random families, at most 8 elements, kappa <= 2."""
    rng = random.Random(20260819)
    families = []
    for i in range(500):
        elements = rng.randint(2, 8)
        blocks = rng.randint(1, 6)
        fam, _ = gen_random(elements, blocks, kappa_max=2, seed=10_000 + i)
        families.append(fam)
    return families


def test_criterion_01_odd_cycles(announce):
    ok = False
    try:
        start = time.monotonic()
        for n in (3, 5, 7):
            fam = cycle_family(n)
            vertices = enumerate_vertices(fam)
            assert len(vertices) == 1
            only = vertices[0]
            assert only.support == fam.ground
            assert all(value == HALF for _, value in only.items())
            assert classify_extreme(fam, only).kind == "extreme"
            assert brute_force_exact_covers(fam) == []
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        ok = True
    finally:
        announce("acceptance 1 (odd cycles: one vertex at 1/2, no 0/1 members)", ok)


def test_criterion_02_square_matrices(announce):
    ok = False
    try:
        for m in (2, 3, 4):
            start = time.monotonic()
            fam = matrix_family(m)
            vertices = enumerate_vertices(fam)
            assert len(vertices) == math.factorial(m)
            for v in vertices:
                assert v.zero_one
                assert len(v.support) == m
                assert classify_extreme(fam, v).kind == "extreme"
            elapsed = time.monotonic() - start
            if m == 4:
                assert elapsed < 10.0
        ok = True
    finally:
        announce("acceptance 2 (square matrices: m! permutation vertices)", ok)


def test_criterion_03_pinned_segment(announce):
    ok = False
    try:
        fam = build_family([(2, 3), (1, 3), (1, 2), (4, 5)])
        vertices = enumerate_vertices(fam)
        assert len(vertices) == 2
        for v in vertices:
            assert v.value(1) == v.value(2) == v.value(3) == HALF
            assert v.value(4) + v.value(5) == 1
        midpoint = (vertices[0] + vertices[1]).scaled(HALF)
        assert midpoint == WeightFunction({g: HALF for g in range(1, 6)})
        result = decompose(fam, midpoint)
        assert [c for c, _ in result.terms] == [HALF, HALF]
        assert result.combined() == midpoint
        ok = True
    finally:
        announce("acceptance 3 (pinned segment: two vertices, even split)", ok)


def test_criterion_04_classifier_oracle_sweep(announce, sweep):
    ok = False
    try:
        assert len(sweep) >= 500
        for i, fam in enumerate(sweep):
            cv = cross_validate(fam, samples=5, seed=i)
            assert cv.discrepancies == ()
            if cv.vertex_count >= 2:
                assert cv.samples_checked == 5
        ok = True
    finally:
        announce("acceptance 4 (500-family classifier/oracle sweep)", ok)


def test_criterion_05_half_integrality_and_covers(announce, sweep):
    ok = False
    try:
        no_odd_cycle_families = 0
        for fam in sweep:
            vertices = enumerate_vertices(fam)
            for v in vertices:
                assert {value for _, value in v.items()} <= {HALF, F(1)}
            graph = build_graph(fam)
            if next(_walk_cycles(graph, fam, (1,)), None) is None:
                no_odd_cycle_families += 1
                assert set(vertices) == set(brute_force_exact_covers(fam))
        assert no_odd_cycle_families > 0
        ok = True
    finally:
        announce("acceptance 5 (vertex values in {0,1/2,1}; covers match)", ok)


def test_criterion_06_cycle_decomposition(announce):
    ok = False
    try:
        rng = random.Random(9)
        checked = 0
        while checked < 200:
            n = rng.randint(3, 10)
            blocks = [(i, i % n + 1) for i in range(1, n + 1)]
            seen = {frozenset(b) for b in blocks}
            for _ in range(rng.randint(0, 3)):
                a, b = rng.sample(range(1, n + 1), 2)
                gap = abs(a - b)
                if gap in (1, n - 1):
                    continue
                key = frozenset((a, b))
                if key in seen:
                    continue
                seen.add(key)
                blocks.append(tuple(sorted((a, b))))
            if n >= 4 and rng.random() < 0.3:
                a = rng.randint(1, n)
                triple = tuple(sorted({a, a % n + 1, (a + 1) % n + 1}))
                if frozenset(triple) not in seen:
                    seen.add(frozenset(triple))
                    blocks.append(triple)
            fam = build_family(blocks)
            graph = build_graph(fam)
            cycle = Path(tuple(range(1, n + 1)), is_cycle=True)
            pieces = decompose_cycle(graph, fam, cycle).pieces
            assert_cycle_pieces(graph, fam, cycle, pieces)
            checked += 1
        ok = True
    finally:
        announce("acceptance 6 (200 random cycles decompose cleanly)", ok)


def random_zero_one_truncation(gen, n, rng):
    """A random packing saturating blocks 1..n, or None on a dead end."""
    held: dict[int, int] = {}
    chosen: list[int] = []
    for k in range(1, n + 1):
        if held.get(k):
            continue
        pool = []
        for g in gen.block_elements(k):
            pool.append(g)
            if len(pool) >= 8:
                break
        rng.shuffle(pool)
        pick = None
        for g in pool:
            if all(not held.get(j) for j in gen.gamma_of(g)):
                pick = g
                break
        if pick is None:
            return None
        chosen.append(pick)
        for j in gen.gamma_of(pick):
            held[j] = held.get(j, 0) + 1
    return Truncation(n, WeightFunction({g: F(1) for g in chosen}))


def test_criterion_07_extension_operator(announce):
    ok = False
    try:
        gen = get_generator("path")
        trunc = Truncation(1, WeightFunction({1: F(1)}))
        result = extend_truncation(gen, trunc, horizon=10)
        for g in range(1, 12):
            assert result.extended.value(g) == (1 if g % 2 else 0)
        for k in range(1, 11):
            total = sum(
                (result.extended.value(g) for g in gen.block_elements(k)), F(0)
            )
            assert total == 1
        report = verify_extension(result, gen, trunc)
        assert report.ok
        for step in result.steps:
            combined = result.packing_a.value(step.element) + result.packing_b.value(
                step.element
            )
            assert result.extended.value(step.element) <= combined

        rng = random.Random(14)
        produced = 0
        attempts = 0
        names = ("path", "disjoint-growing", "grid")
        while produced < 100:
            attempts += 1
            assert attempts < 2000
            source = get_generator(names[produced % 3])
            n = rng.randint(1, 3)
            candidate = random_zero_one_truncation(source, n, rng)
            if candidate is None:
                continue
            outcome = extend_truncation(source, candidate, horizon=n + 5)
            assert outcome.extended.zero_one
            assert verify_extension(outcome, source, candidate).ok
            produced += 1
        ok = True
    finally:
        announce("acceptance 7 (extension: alternating trace, 0/1 closure)", ok)


def test_criterion_08_prefix_approximation(announce):
    ok = False
    try:
        gen = get_generator("path")
        w_full = WeightFunction({g: HALF for g in range(1, 10)})
        gaps = []
        for n in (2, 4, 6):
            _, report = approximate_by_extremes(gen, w_full, n, 8)
            gaps.append(report.max_block_discrepancy(2))
            assert report.max_block_discrepancy(n) == 0
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] == 0
        ok = True
    finally:
        announce("acceptance 8 (prefix approximation tightens to zero)", ok)


def test_criterion_09_growing_blocks_distance(announce):
    ok = False
    try:
        gen = DisjointGrowingGenerator()
        blocks = [tuple(gen.block_elements(k)) for k in range(1, 7)]
        fam = build_family(blocks)
        w0 = WeightFunction(
            {g: F(1, k) for k, members in enumerate(blocks, start=1) for g in members}
        )
        assert classify_membership(fam, w0).stochastic
        assert support_width(fam, w0) == 6
        rng = random.Random(37)
        for _ in range(25):
            covers = []
            for _ in range(rng.randint(1, 10)):
                cover = WeightFunction(
                    {rng.choice(members): F(1) for members in blocks}
                )
                assert classify_membership(fam, cover).exact_cover
                covers.append(cover)
            raw = [F(rng.randint(1, 9)) for _ in covers]
            total = sum(raw)
            mix = WeightFunction.zero()
            for lam, cover in zip(raw, covers):
                mix = mix + cover.scaled(lam / total)
            assert support_width(fam, mix) <= 10
            distances = {
                k: sum(
                    (abs(w0.value(g) - mix.value(g)) for g in members), F(0)
                )
                for k, members in enumerate(blocks, start=1)
            }
            assert any(
                distances[k] >= F(2 * (k - 1), k) for k in range(1, 7)
            )
        ok = True
    finally:
        announce("acceptance 9 (wide point stays far from narrow mixtures)", ok)


def test_criterion_10_infeasible_family(announce):
    ok = False
    try:
        fam = build_family([(1, 2, 3), (4, 5, 6), (1, 4), (2, 5), (3, 6)])
        verdict = emptiness_test(fam, cover=(1, 2))
        assert verdict.certified_empty
        assert enumerate_vertices(fam) == ()
        ok = True
    finally:
        announce("acceptance 10 (2x3 family certified and confirmed empty)", ok)
