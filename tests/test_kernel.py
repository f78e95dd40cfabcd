"""The exact kernels against dense and sympy references.

The sparse ``Fraction`` kernel in ``helpers`` stores only nonzero
entries and picks pivot rows by size, so its row operations differ from
the dense elimination kept beside it; the reduced row echelon form is
unique, so pivots, reduced rows, ranks, solutions and kernel vectors
must agree all the same.  The two are the references for the exact
answers of ``blockstoch``: the incremental integer elimination of
``blockstoch.oracle`` must give their ranks and their kernel vectors
scaled to integers, and the frame matroid core in ``blockstoch.graphs``
answers rank and kernel questions for 0/1 matrices with at most two
ones per column without any row reduction, and must agree with both
exactly.  The two integer kernels share one column interface, so on
such columns the elimination must also follow the forest step for step,
and after removals each must answer as one built afresh.  ``sympy`` is
used here only, as a third opinion.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from blockstoch.cli import gen_random
from blockstoch.graphs import _FrameForest
from blockstoch.oracle import _Elimination, _first_circuit, column_rank

from helpers import (
    column_rows,
    dense_kernel_vector,
    dense_rank,
    dense_row,
    dense_rref,
    dense_solve_all_ones,
    scaled_kernel_circuit,
    sparse_kernel_vector,
    sparse_rank,
    sparse_rows,
    sparse_rref,
    sparse_solve_all_ones,
)

sympy = pytest.importorskip("sympy")

F = Fraction
ENTRIES = [F(0)] * 6 + [F(1), F(1), F(-1), F(2), F(1, 2), F(-3, 4), F(5, 3)]


def to_sympy(matrix, ncols):
    flat = [sympy.Rational(v.numerator, v.denominator) for row in matrix for v in row]
    return sympy.Matrix(len(matrix), ncols, flat)


def from_sympy(value):
    return F(int(value.p), int(value.q))


def consistent(rows, pivots, ncols):
    """Whether no row past the pivots keeps a right-hand side entry."""
    return all(ncols not in row for row in rows[len(pivots):])


def random_matrix(rng, nrows, ncols):
    matrix = [[rng.choice(ENTRIES) for _ in range(ncols)] for _ in range(nrows)]
    if nrows and rng.random() < 0.3:
        matrix[rng.randrange(nrows)] = [F(0)] * ncols
    if nrows and ncols and rng.random() < 0.3:
        c = rng.randrange(ncols)
        for row in matrix:
            row[c] = F(0)
    if nrows and rng.random() < 0.3:
        matrix.append(list(matrix[rng.randrange(nrows)]))
    return matrix


@st.composite
def matrices(draw):
    nrows = draw(st.integers(min_value=0, max_value=7))
    ncols = draw(st.integers(min_value=0, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return random_matrix(random.Random(seed), nrows, ncols), ncols


def check_rref(matrix, ncols):
    rows = sparse_rows(matrix)
    pivots = sparse_rref(rows, ncols)
    dense = [row[:] for row in matrix]
    assert pivots == dense_rref(dense, ncols)
    for i, row in enumerate(rows):
        if i < len(pivots):
            assert dense_row(row, ncols) == dense[i]
        else:
            assert not row
    reduced, sym_pivots = to_sympy(matrix, ncols).rref()
    assert tuple(pivots) == sym_pivots
    for i in range(len(pivots)):
        assert dense_row(rows[i], ncols) == [from_sympy(v) for v in reduced.row(i)]


def check_augmented(matrix, ncols, rhs):
    aug = [row + [b] for row, b in zip(matrix, rhs)]
    rows = sparse_rows(aug)
    pivots = sparse_rref(rows, ncols)
    dense = [row[:] for row in aug]
    assert pivots == dense_rref(dense, ncols)
    ok = consistent(rows, pivots, ncols)
    assert ok == all(row[ncols] == 0 for row in dense[len(pivots):])
    for row in rows[len(pivots):]:
        assert all(c == ncols for c in row)
    reduced, sym_pivots = to_sympy(aug, ncols + 1).rref()
    if ok:
        assert tuple(pivots) == sym_pivots
        for i in range(len(pivots)):
            assert dense_row(rows[i], ncols + 1) == dense[i]
            assert dense[i] == [from_sympy(v) for v in reduced.row(i)]
    else:
        assert sym_pivots == (*pivots, ncols)


def check_solvers(matrix, ncols):
    rows = sparse_rows(matrix)
    rank = sparse_rank(rows)
    assert rank == dense_rank(matrix, ncols) == to_sympy(matrix, ncols).rank()
    x = sparse_solve_all_ones(sparse_rows(matrix), ncols)
    assert x == dense_solve_all_ones(matrix, ncols)
    if x is not None:
        assert all(sum(a * b for a, b in zip(row, x)) == 1 for row in matrix)
    k = sparse_kernel_vector(rows, ncols)
    assert rows == sparse_rows(matrix), "the kernel vector must not touch its input"
    assert k == dense_kernel_vector(matrix, ncols)
    if k is None:
        assert rank == ncols
    else:
        assert any(k)
        assert all(sum(a * b for a, b in zip(row, k)) == 0 for row in matrix)
        first = to_sympy(matrix, ncols).nullspace()[0]
        assert k == [from_sympy(v) for v in first]


def check_all(matrix, ncols, rng):
    check_rref(matrix, ncols)
    check_augmented(matrix, ncols, [rng.choice(ENTRIES) for _ in matrix])
    check_augmented(matrix, ncols, [F(1)] * len(matrix))
    check_solvers(matrix, ncols)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.integers(min_value=0, max_value=2**32))
def test_kernel_matches_dense_and_sympy(drawn, seed):
    matrix, ncols = drawn
    check_all(matrix, ncols, random.Random(seed))


@pytest.mark.parametrize(
    "shape", [(0, 0), (0, 4), (3, 0), (12, 3), (3, 12), (10, 10), (16, 6), (6, 16)]
)
def test_kernel_matches_dense_and_sympy_on_seeded_shapes(shape):
    rng = random.Random(7_000 + 100 * shape[0] + shape[1])
    for _ in range(25):
        check_all(random_matrix(rng, *shape), shape[1], rng)


def test_kernel_on_special_matrices():
    rng = random.Random(11)
    one, half = F(1), F(1, 2)
    cases = [
        ([[F(0)] * 4 for _ in range(3)], 4),
        ([[one, one, F(0)], [one, one, F(0)], [one, one, F(0)]], 3),
        ([[one, F(0), one], [F(0), F(0), F(0)], [F(0), one, one]], 3),
        ([[half, F(-1, 3)], [F(3, 7), F(5, 2)], [F(-2), F(9, 4)]], 2),
        ([[F(2)], [F(-4)]], 1),
    ]
    for matrix, ncols in cases:
        check_all(matrix, ncols, rng)
    assert sparse_solve_all_ones(sparse_rows([[F(2)], [F(-4)]]), 1) is None
    assert sparse_solve_all_ones(sparse_rows([[F(2)], [F(4)]]), 1) is None
    assert sparse_solve_all_ones(sparse_rows([[F(2)], [F(2)]]), 1) == [half]
    assert sparse_kernel_vector(sparse_rows([[one, one, F(0)]]), 3) == [-one, one, F(0)]


def test_rref_ignores_row_order():
    rng = random.Random(5)
    for _ in range(200):
        matrix = random_matrix(rng, rng.randint(1, 8), rng.randint(1, 8))
        ncols = len(matrix[0])
        first = sparse_rows(matrix)
        pivots = sparse_rref(first, ncols)
        shuffled = sparse_rows(matrix)
        rng.shuffle(shuffled)
        assert sparse_rref(shuffled, ncols) == pivots
        assert first[: len(pivots)] == shuffled[: len(pivots)]


def test_block_rows_match_dense_on_seeded_families():
    rng = random.Random(13)
    for i in range(150):
        fam, w = gen_random(rng.randint(2, 10), rng.randint(1, 8), 3, seed=70_000 + i)
        columns = fam.ground if w is None or i % 2 else w.support
        ends = [fam.gamma[g] for g in columns]
        # rows come in the order of their first column, so they are
        # compared as a multiset; there is still one per block, as every
        # block meets the ground set and a stochastic point's support
        matrix = [dense_row(row, len(columns)) for row in column_rows(ends)]
        assert sorted(matrix) == sorted(
            [F(1) if g in b.member_set else F(0) for g in columns] for b in fam.blocks
        )
        check_all(matrix, len(columns), rng)
        assert column_rank(ends) == dense_rank(matrix, len(columns))
        kernel = sparse_kernel_vector(column_rows(ends), len(columns))
        assert kernel == dense_kernel_vector(matrix, len(columns))
        assert as_kernel(_first_circuit(ends), len(columns)) == kernel


def test_integer_elimination_matches_the_fraction_kernel_on_seeded_columns():
    # 0/1 columns with one to four ones, repeated columns included; the
    # first circuit's integers are the kernel vector's, scaled
    rng = random.Random(31)
    for _ in range(1500):
        nrows = rng.randint(1, 8)
        ends = [
            tuple(sorted(rng.sample(range(nrows), rng.randint(1, min(4, nrows)))))
            for _ in range(rng.randint(0, 10))
        ]
        if ends and rng.random() < 0.3:
            ends.insert(rng.randrange(len(ends)), rng.choice(ends))
        assert column_rank(ends) == sparse_rank(column_rows(ends)), ends
        assert _first_circuit(ends) == scaled_kernel_circuit(ends), ends


def as_kernel(circuit, ncols):
    """An integer circuit as the kernel vector with its last column at 1,
    or None for None."""
    if circuit is None:
        return None
    top = circuit[max(circuit)]
    return [F(circuit.get(c, 0), top) for c in range(ncols)]


def random_incidence(rng, nrows, ncols, kappa=2):
    """Columns with at most ``kappa`` ones: edges (two or more ones),
    repeated (parallel) edges, half-edges and empty columns, often kept
    inside one of two row groups so that the matrix splits into several
    components."""
    split = rng.randint(0, nrows)
    groups = [g for g in (list(range(split)), list(range(split, nrows))) if g]
    ends = []
    for _ in range(ncols):
        roll = rng.random()
        if not nrows or roll < 0.1:
            ends.append(())
        elif nrows == 1 or roll < 0.3:
            ends.append((rng.randrange(nrows),))
        elif ends and roll < 0.45:
            ends.append(rng.choice(ends))
        else:
            pool = rng.choice(groups) if rng.random() < 0.6 else range(nrows)
            if len(pool) < 2:
                pool = range(nrows)
            size = 2 if kappa == 2 else rng.randint(2, min(kappa, len(pool)))
            ends.append(tuple(sorted(rng.sample(pool, size))))
    return ends


def incidence_matrix(nrows, ends):
    return [[F(1) if r in e else F(0) for e in ends] for r in range(nrows)]


def check_frame(nrows, ends):
    matrix = incidence_matrix(nrows, ends)
    ncols = len(ends)
    rank = column_rank(ends)
    assert rank == sparse_rank(sparse_rows(matrix)) == dense_rank(matrix, ncols)
    assert rank == to_sympy(matrix, ncols).rank()
    circuit = _first_circuit(ends)
    assert circuit == scaled_kernel_circuit(ends)
    kernel = as_kernel(circuit, ncols)
    assert kernel == sparse_kernel_vector(sparse_rows(matrix), ncols)
    assert kernel == dense_kernel_vector(matrix, ncols)
    if kernel is None:
        assert rank == ncols
    else:
        assert all(v != 0 for v in circuit.values())
        first = to_sympy(matrix, ncols).nullspace()[0]
        assert kernel == [from_sympy(v) for v in first]


@st.composite
def incidences(draw):
    nrows = draw(st.integers(min_value=0, max_value=8))
    ncols = draw(st.integers(min_value=0, max_value=10))
    seed = draw(st.integers(min_value=0, max_value=2**32))
    return nrows, random_incidence(random.Random(seed), nrows, ncols)


@settings(max_examples=300, deadline=None)
@given(incidences())
def test_frame_core_matches_sparse_dense_and_sympy(drawn):
    check_frame(*drawn)


def test_frame_core_matches_sparse_and_dense_on_seeded_incidences():
    rng = random.Random(17)
    for _ in range(3000):
        nrows = rng.randint(0, 9)
        ends = random_incidence(rng, nrows, rng.randint(0, 12))
        matrix = incidence_matrix(nrows, ends)
        ncols = len(ends)
        assert column_rank(ends) == sparse_rank(sparse_rows(matrix))
        kernel = as_kernel(_first_circuit(ends), ncols)
        assert kernel == sparse_kernel_vector(sparse_rows(matrix), ncols)


@pytest.mark.parametrize(
    "nrows, ends, circuit",
    [
        # an empty column is its own circuit
        (2, [(0, 1), ()], {1: 1}),
        # parallel edges
        (2, [(0, 1), (0, 1)], {0: -1, 1: 1}),
        # an even cycle alternates
        (4, [(0, 1), (1, 2), (2, 3), (0, 3)], {0: -1, 1: 1, 2: -1, 3: 1}),
        # an odd cycle is independent
        (3, [(0, 1), (1, 2), (0, 2)], None),
        # a path between two half-edges
        (3, [(0,), (0, 1), (1, 2), (2,)], {0: -1, 1: 1, 2: -1, 3: 1}),
        # a path from a half-edge to an odd cycle, the path doubled
        (
            4,
            [(0, 1), (1, 2), (0, 2), (2, 3), (3,)],
            {0: -1, 1: 1, 2: 1, 3: -2, 4: 2},
        ),
        # two odd cycles, in two components joined by the last edge
        (
            6,
            [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)],
            {0: 1, 1: -1, 2: -1, 3: -1, 4: 1, 5: -1, 6: 2},
        ),
        # an even cycle inside a component that already holds a half-edge
        (
            4,
            [(0,), (0, 1), (1, 2), (2, 3), (0, 3)],
            {1: -1, 2: 1, 3: -1, 4: 1},
        ),
        # an odd cycle closed in such a component, with the path doubled
        (
            4,
            [(0,), (0, 1), (1, 2), (2, 3), (1, 3)],
            {0: 2, 1: -2, 2: 1, 3: -1, 4: 1},
        ),
    ],
)
def test_frame_circuit_shapes(nrows, ends, circuit):
    check_frame(nrows, ends)
    got = _first_circuit(ends)
    assert got == circuit


# The frame forest under removals: after any sequence of additions and
# removals it must answer as a forest built afresh from the columns it
# still holds.


def check_forest(forest):
    """Labels, sizes, colors and parent pointers agree with the tree and
    the extras."""
    labels = {}
    for v, label in forest.label.items():
        labels.setdefault(label, []).append(v)
    assert {label: len(nodes) for label, nodes in labels.items()} == forest.size
    for u, arcs in forest.tree.items():
        for c, v in arcs.items():
            assert forest.tree[v][c] == u
            assert forest.label[u] == forest.label[v]
            assert forest.color[u] != forest.color[v]
    for label, (c, ends) in forest.extra.items():
        assert all(forest.label[v] == label for v in ends)
        assert len(ends) == 1 or forest.color[ends[0]] == forest.color[ends[1]]
    # each component hangs from one root by tree columns of its own
    assert forest.up.keys() == forest.label.keys()
    roots = [forest.label[v] for v, link in forest.up.items() if link is None]
    assert sorted(roots) == sorted(forest.size)
    for v, link in forest.up.items():
        if link is not None:
            c, u = link
            assert forest.tree[v][c] == u
            assert forest.label[u] == forest.label[v]
        steps = 0
        while link is not None:
            steps += 1
            assert steps < forest.size[forest.label[v]]
            link = forest.up[link[1]]


def forest_shape(forest, taken):
    """Each component the taken columns span, as its nodes, and whether
    it holds an odd cycle or a half-edge."""
    nodes = {}
    for ends in taken.values():
        for v in ends:
            nodes.setdefault(forest.label[v], set()).add(v)
    return {frozenset(vs): label in forest.extra for label, vs in nodes.items()}


def assert_answers_alike(kernel, other, probes):
    """``kernel`` and ``other`` take or reject every probe column alike,
    with the same circuit, and give up each one they take."""
    for c, e in probes.items():
        independent = kernel.add(c, e)
        assert other.add(c, e) == independent, (c, e)
        if independent:
            kernel.remove(c, e)
            other.remove(c, e)
        else:
            assert kernel.circuit(c, e) == other.circuit(c, e), (c, e)


def assert_same_as_fresh(forest, taken, probes):
    """``forest`` holds the columns of ``taken`` and answers every probe
    column as a fresh forest built from them does, circuit included."""
    check_forest(forest)
    fresh = _FrameForest()
    assert all(fresh.add(c, e) for c, e in taken.items())
    assert column_rank(list(taken.values())) == len(taken)
    assert forest_shape(forest, taken) == forest_shape(fresh, taken)
    assert_answers_alike(forest, fresh, probes)
    check_forest(forest)


def test_frame_forest_removals_match_a_fresh_forest_on_seeded_sequences():
    # an elimination follows the forest through every add and removal,
    # with the same verdicts and circuits
    rng = random.Random(29)
    removals = 0
    for _ in range(400):
        nrows = rng.randint(1, 9)
        pool = dict(enumerate(random_incidence(rng, nrows, rng.randint(1, 14))))
        forest = _FrameForest()
        elimination = _Elimination()
        taken = {}
        for c, e in pool.items():
            independent = forest.add(c, e)
            assert elimination.add(c, e) == independent
            if independent:
                taken[c] = e
            else:
                assert elimination.circuit(c, e) == forest.circuit(c, e)
            while taken and rng.random() < 0.4:
                gone = rng.choice(sorted(taken))
                forest.remove(gone, taken[gone])
                elimination.remove(gone, taken.pop(gone))
                removals += 1
            probes = {k: v for k, v in pool.items() if k not in taken}
            assert_same_as_fresh(forest, taken, probes)
            assert_answers_alike(elimination, forest, probes)
    assert removals > 1000


def test_elimination_removals_match_a_fresh_elimination_on_seeded_sequences():
    # columns with up to four ones; a removal pops the basis back to its
    # column, so the columns taken after it are taken again
    rng = random.Random(41)
    removals = 0
    for _ in range(400):
        nrows = rng.randint(1, 9)
        pool = dict(enumerate(random_incidence(rng, nrows, rng.randint(1, 14), kappa=4)))
        elimination = _Elimination()
        taken = {}
        for c, e in pool.items():
            if elimination.add(c, e):
                taken[c] = e
            while taken and rng.random() < 0.4:
                gone = rng.choice(sorted(taken))
                elimination.remove(gone, taken.pop(gone))
                removals += 1
            fresh = _Elimination()
            assert all(fresh.add(c, e) for c, e in taken.items())
            probes = {k: v for k, v in pool.items() if k not in taken}
            assert_answers_alike(elimination, fresh, probes)
    assert removals > 1000


def test_elimination_adds_no_fill_along_a_chain():
    # the two-row columns (i, i + 1) of a chain and one three-row column:
    # each column's largest block is no pivot yet, or is cleared once, so
    # every stored vector keeps its pivot as its largest key and at most
    # three entries, with no fill along the chain
    n = 400
    ends = [(i, i + 1) for i in range(n)] + [(0, 1, 2)]
    assert column_rank(ends) == n + 1
    elimination = _Elimination()
    assert all(elimination.add(c, e) for c, e in enumerate(ends))
    assert len(elimination.basis) == n + 1
    for p, v in elimination.basis.items():
        assert max(v) == p and len(v) <= 3, p
    # the column (0, n) closes a circuit through the whole chain
    closing = (0, n)
    assert not elimination.add(n + 1, closing)
    circuit = elimination.circuit(n + 1, closing)
    assert circuit == scaled_kernel_circuit(ends + [closing])
    assert len(circuit) == n + 2


def forest_of(columns):
    forest = _FrameForest()
    assert all(forest.add(c, e) for c, e in enumerate(columns))
    return forest, dict(enumerate(columns))


PROBES = {
    k: e for k, e in enumerate([(0,), (1,), (0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (5,)], 100)
}


@pytest.mark.parametrize("gone, moved", [(1, False), (0, True)])
def test_frame_forest_half_edge_follows_its_side(gone, moved):
    # a path 0-1-2 with a half-edge at 0: dropping the edge 0-1 leaves
    # the half-edge on the smaller side, dropping 1-2 on the larger
    forest, taken = forest_of([(0, 1), (1, 2), (0,)])
    label = forest.label[0]
    forest.remove(gone, taken.pop(gone))
    assert (forest.label[0] != label) == moved
    assert forest.extra[forest.label[0]] == (2, (0,))
    assert_same_as_fresh(forest, taken, PROBES)


@pytest.mark.parametrize("tail", [1, 4])
def test_frame_forest_odd_cycle_kept_on_one_side(tail):
    # the triangle 0-1-2 with a tail from 2; dropping the tail's first
    # edge leaves the triangle's extra on its side, the smaller side
    # when the tail is long
    columns = [(0, 1), (1, 2), (0, 2)] + [(v, v + 1) for v in range(2, 2 + tail)]
    forest, taken = forest_of(columns)
    assert forest.extra[forest.label[0]] == (2, (0, 2))
    forest.remove(3, taken.pop(3))
    assert forest.extra[forest.label[0]] == (2, (0, 2))
    assert forest.label[3] != forest.label[0]
    assert forest.label[3] not in forest.extra
    assert_same_as_fresh(forest, taken, PROBES)


def test_frame_forest_odd_cycle_spanning_the_split_becomes_a_tree_edge():
    # the pentagon 0-1-2-3-4 closed by 0-4: dropping 1-2 splits its
    # tree, and the closing edge rejoins the sides as a tree edge
    forest, taken = forest_of([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert forest.extra[forest.label[0]] == (4, (0, 4))
    forest.remove(1, taken.pop(1))
    assert not forest.extra
    assert forest.tree[0][4] == 4 and forest.tree[4][4] == 0
    assert len({forest.label[v] for v in range(5)}) == 1
    assert_same_as_fresh(forest, taken, PROBES)
