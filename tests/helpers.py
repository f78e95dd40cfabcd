"""Shared assertion helpers, independent of the library's internal checks."""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice

from blockstoch import extremality, graphs, oracle
from blockstoch.cli import gen_random
from blockstoch.errors import (
    ConditionsViolatedError,
    EvenCyclePresentError,
    GeneratorInconsistentError,
    InternalPropertyError,
    NotSimpleCycleError,
    UnknownElementError,
)
from blockstoch.extremality import Verdict, Witness
from blockstoch.extension import (
    ChosenStep,
    ExtensionReport,
    ExtensionResult,
)
from blockstoch.family import (
    MembershipReport,
    SetFamily,
    WeightFunction,
    build_family,
    check_injectivity,
    classify_membership,
    max_multiplicity,
    multiplicity,
    require_stochastic,
)
from blockstoch.graphs import (
    AssociatedGraph,
    Path,
    block_vertex_counts,
    is_primitive,
)


def assert_valid_witness(family: SetFamily, w: WeightFunction, witness) -> None:
    """A witness must split w into two distinct admissible halves."""
    for half in (witness.w_plus, witness.w_minus):
        report = classify_membership(family, half)
        assert report.nonnegative
        assert report.stochastic
    assert witness.w_plus != witness.w_minus
    average = (witness.w_plus + witness.w_minus).scaled(Fraction(1, 2))
    assert average == w
    assert witness.epsilon > 0


def cycle_family(n: int) -> SetFamily:
    """The ring of ``n`` two-element blocks: block i holds i and i + 1,
    and block n holds n and 1."""
    return build_family([[i, i % n + 1] for i in range(1, n + 1)])


def matrix_family(m: int) -> SetFamily:
    """The m×m doubly stochastic family: cell (r, c) is labelled
    ``m·r + c + 1``, and its rows, then its columns, are the blocks."""
    rows = [[m * r + c + 1 for c in range(m)] for r in range(m)]
    cols = [[m * r + c + 1 for r in range(m)] for c in range(m)]
    return build_family(rows + cols)


def permutation_mean(m: int, count: int = 20) -> WeightFunction:
    """The mean of ``count`` permutation matrices drawn from ``random.Random(m)``."""
    rng = random.Random(m)
    w = {}
    for _ in range(count):
        for r, c in enumerate(rng.sample(range(m), m)):
            g = m * r + c + 1
            w[g] = w.get(g, Fraction(0)) + Fraction(1, count)
    return WeightFunction(w)


def assert_cycle_pieces(
    graph: AssociatedGraph,
    family: SetFamily,
    cycle: Path,
    pieces: tuple[Path, ...],
) -> None:
    """Re-check the four advertised decomposition properties from scratch."""
    covered: set[int] = set()
    for piece in pieces:
        assert piece.is_cycle
        assert len(set(piece.vertices)) == len(piece.vertices)
        for g, h in piece.edges():
            assert graph.adjacent(g, h)
        counts = block_vertex_counts(family, piece.vertices)
        assert is_primitive(family, piece) or any(
            c >= 3 for c in counts.values()
        )
        covered |= set(piece.vertices)
    assert covered == set(cycle.vertices)
    for i in range(len(pieces)):
        for j in range(i + 1, len(pieces)):
            shared = set(pieces[i].vertices) & set(pieces[j].vertices)
            if j == i + 1:
                shared_edges = {
                    frozenset(e) for e in pieces[i].edges()
                } & {frozenset(e) for e in pieces[j].edges()}
                assert len(shared) == 2
                assert len(shared_edges) == 1
            else:
                assert len(shared) <= 1


def count_calls(monkeypatch, owner, *names, cap=None) -> Counter:
    """Count the calls of ``owner``'s methods ``names`` until the patch is
    undone.  A call past ``cap`` calls of its name raises, so that a
    search gone exponential fails at once instead of running on."""
    counts = Counter()
    for name in names:
        original = getattr(owner, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            if cap is not None and counts[_name] > cap:
                raise AssertionError(f"more than {cap} calls of {_name}")
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
    return counts


def count_pivots(monkeypatch, cap: int) -> list[int]:
    """A list whose one entry counts the states ``oracle._branches``
    yields, each one pivot of the vertex search, until the patch is
    undone.  Past ``cap`` pivots the search raises, so that a lost cut
    fails at once instead of running on."""
    branches = oracle._branches
    pivots = [0]

    def counting(*args):
        for state in branches(*args):
            pivots[0] += 1
            if pivots[0] > cap:
                raise AssertionError(f"more than {cap} pivots")
            yield state

    monkeypatch.setattr(oracle, "_branches", counting)
    return pivots


# a family whose elements 1, 5 and 9 lie in three blocks each, so vertex
# enumeration takes the basis search
KAPPA3_BLOCKS = [
    [1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 4, 7], [2, 5, 8], [3, 6, 9], [1, 5, 9]
]


def kappa2_sweep():
    """The 600 seeded κ ≤ 2 families the multigraph search is checked on."""
    rng = random.Random(2)
    for i in range(600):
        elements = rng.randint(2, 10)
        blocks = rng.randint(1, 8)
        fam, _ = gen_random(elements, blocks, kappa_max=2, seed=30_000 + i)
        yield fam


def planar_cube_blocks(m: int) -> list[list[int]]:
    """The planar 3-index assignment family: the m³ cells of an m×m×m
    cube, cell (i, j, k) labelled ``i·m² + j·m + k + 1``, and its 3m²
    axis lines as blocks, so every cell lies in three blocks."""
    def label(i, j, k):
        return i * m * m + j * m + k + 1

    span = range(m)
    return (
        [[label(t, a, b) for t in span] for a in span for b in span]
        + [[label(a, t, b) for t in span] for a in span for b in span]
        + [[label(a, b, t) for t in span] for a in span for b in span]
    )


def kappa3_sweep():
    """The seeded κ = 3 families the pivot search is checked on: those
    ``gen_random`` draws with ``kappa_max=3``, near-full-rank ones
    (10 to 15 elements, rank 1 to 3 below the element count),
    ``KAPPA3_BLOCKS`` and the planar assignment cube at m = 2."""
    rng = random.Random(3)
    for i in range(120):
        fam, _ = gen_random(rng.randint(3, 11), rng.randint(2, 8), 3, seed=90_000 + i)
        if max_multiplicity(fam) == 3:
            yield fam
    rng = random.Random(4)
    kept = 0
    while kept < 12:
        n = rng.randint(10, 15)
        mult = Counter()
        blocks = set()
        for _ in range(n - rng.randint(0, 3)):
            pool = [g for g in range(1, n + 1) if mult[g] < 3]
            block = tuple(sorted(rng.sample(pool, rng.randint(2, min(4, len(pool))))))
            if block not in blocks:
                blocks.add(block)
                mult.update(block)
        fam = build_family(sorted(blocks))
        ends = [fam.gamma[g] for g in fam.ground]
        r = sparse_rank(column_rows(ends))
        if max_multiplicity(fam) == 3 and len(ends) - 3 <= r < len(ends):
            kept += 1
            yield fam
    yield build_family(KAPPA3_BLOCKS)
    yield build_family(planar_cube_blocks(2))


def kappa4_sweep():
    """Seeded families of 5 to 12 elements whose blocks of two to four
    elements give some element three or four blocks: 200 of them, for
    the pivot search's differential against the walk and the C(n, r)
    search."""
    rng = random.Random(5)
    kept = 0
    while kept < 200:
        n = rng.randint(5, 12)
        mult = Counter()
        blocks = set()
        for _ in range(rng.randint(3, n)):
            pool = [g for g in range(1, n + 1) if mult[g] < 4]
            if len(pool) < 2:
                break
            block = tuple(sorted(rng.sample(pool, rng.randint(2, min(4, len(pool))))))
            if block not in blocks:
                blocks.add(block)
                mult.update(block)
        fam = build_family(sorted(blocks))
        if max_multiplicity(fam) > 2:
            kept += 1
            yield fam


def walk_census(graph: AssociatedGraph, family: SetFamily, parity: str = "any"):
    """The census as the primitive walks from every start list it: the
    reference for the census on the block multigraph."""
    cycles = graphs._walk_cycles(graph, family, graphs._parity_classes(parity))
    return tuple(Path(c, is_cycle=True) for c in sorted(cycles, key=lambda c: (len(c), c)))


def matrix_cycle_count(m: int) -> int:
    """Primitive cycles of the uniform m x m matrix family: each alternates
    k rows and k columns, for k = 2..m."""
    return sum(
        math.comb(m, k) ** 2 * math.factorial(k) * math.factorial(k - 1) // 2
        for k in range(2, m + 1)
    )


def diamond_chain_blocks(k: int) -> list[list[int]]:
    """A family whose block multigraph is a chain of ``k`` diamonds.

    The blocks are the joints a_0..a_k and the sides b_i, c_i, listed
    a_0, b_0, c_0, a_1, b_1, ...; diamond i is the 4-cycle
    a_i b_i a_(i+1) c_i.  Labels run backwards along the chain: diamond
    i holds 4(k-1-i)+1 .. 4(k-1-i)+4, so a walk from a small label goes
    down the whole chain.
    """
    blocks: list[list[int]] = [[] for _ in range(3 * k + 1)]
    for i in range(k):
        label = 4 * (k - 1 - i)
        a, b, c, a_next = 3 * i, 3 * i + 1, 3 * i + 2, 3 * i + 3
        for ends in ((a, b), (b, a_next), (a, c), (c, a_next)):
            label += 1
            for p in ends:
                blocks[p].append(label)
    return blocks


def restart_normalize(family: SetFamily):
    """``normalize``'s removals and surviving blocks as its old loop found
    them, the reference for its one ascending pass: after every removal
    the double scan starts over from the smallest index."""
    alive = {b.index: b.member_set for b in family.blocks}
    removed = []
    while True:
        hit = None
        for j in sorted(alive):
            for k in sorted(alive):
                if k != j and alive[k] <= alive[j]:
                    hit = (j, k)
                    break
            if hit:
                break
        if hit is None:
            break
        j, k = hit
        del alive[j]
        removed.append((j, k))
    return tuple(removed), [(k, tuple(sorted(alive[k]))) for k in sorted(alive)]


def nested_families(count: int, seed: int):
    """Seeded families of up to 12 blocks over up to 8 elements, each
    holding random blocks and a nested chain A_1 < A_2 < ... in shuffled
    order, so that removals cascade."""
    rng = random.Random(seed)
    for _ in range(count):
        universe = list(range(1, rng.randint(2, 8) + 1))
        blocks = {
            frozenset(rng.sample(universe, rng.randint(1, len(universe))))
            for _ in range(rng.randint(0, 6))
        }
        chain = rng.sample(universe, rng.randint(1, len(universe)))
        for end in sorted(rng.sample(range(1, len(chain) + 1), rng.randint(1, len(chain)))):
            blocks.add(frozenset(chain[:end]))
        order = [sorted(b) for b in blocks]
        rng.shuffle(order)
        yield build_family(order)


# Per-block Fraction membership, kept as the reference for the integer
# block sums of blockstoch.family.


def fraction_classify_membership(
    family: SetFamily, w: WeightFunction
) -> MembershipReport:
    """``classify_membership`` with every block summed member by member
    in ``Fraction`` arithmetic."""
    ground = frozenset(family.ground)
    for g in w.support:
        if g not in ground:
            raise UnknownElementError(f"support label {g} is not in the ground set")
    sums = tuple(
        (b.index, sum((w.value(g) for g in b.members), start=Fraction(0)))
        for b in family.blocks
    )
    nonneg = w.nonnegative
    all_one = all(s == 1 for _, s in sums)
    all_at_most_one = all(s <= 1 for _, s in sums)
    zero_one = w.zero_one
    return MembershipReport(
        block_sums=sums,
        nonnegative=nonneg,
        stochastic=nonneg and all_one,
        substochastic=nonneg and all_at_most_one,
        exact_cover=nonneg and all_one and zero_one,
        packing=nonneg and all_at_most_one and zero_one,
    )


def fraction_counting_masses(
    family: SetFamily, w: WeightFunction
) -> tuple[Fraction, Fraction]:
    """The counting identity's weighted mass and bound, as ``Fraction``
    products and sums over the support."""
    mass = sum(
        (Fraction(multiplicity(family, g)) * v for g, v in w.items()),
        start=Fraction(0),
    )
    return mass, Fraction(max_multiplicity(family)) * w.total()


# Sequential Fraction arithmetic through the validating constructor, kept
# as the reference for the integer combinations of blockstoch.family.


def fraction_combination(terms) -> WeightFunction:
    """``Σ c·w`` over the ``(c, w)`` of ``terms`` as the sequential
    ``acc + w.scaled(c)``, each step in ``Fraction`` arithmetic and each
    result through the validating constructor."""
    acc = WeightFunction({})
    for c, w in terms:
        scaled = WeightFunction({g: Fraction(c) * v for g, v in w.items()})
        merged = dict(acc.items())
        for g, v in scaled.items():
            merged[g] = merged.get(g, Fraction(0)) + v
        acc = WeightFunction(merged)
    return acc


def fraction_finish(family, w, deltas, epsilon, slack, construction):
    """The witness of ``extremality._finish`` from ``Fraction`` deltas: the
    halves ``w + d`` and ``w - d`` in ``Fraction`` arithmetic, checked by
    the per-block membership reference."""
    d = WeightFunction(deltas)
    w_plus = fraction_combination(((1, w), (1, d)))
    w_minus = fraction_combination(((1, w), (-1, d)))
    half = Fraction(1, 2)
    midpoint = fraction_combination(((half, w_plus), (half, w_minus)))
    if (
        not fraction_classify_membership(family, w_plus).stochastic
        or not fraction_classify_membership(family, w_minus).stochastic
        or midpoint != w
        or w_plus == w_minus
    ):
        raise InternalPropertyError(f"invalid {construction} witness")
    return Witness(w_plus, w_minus, epsilon, slack, construction)


def fraction_finish_steps(family, base, steps, scale, epsilon, slack, construction):
    """``fraction_finish`` called as ``extremality._finish`` is: base
    numerators, integer steps, epsilon and slack all over ``scale``."""
    return fraction_finish(
        family,
        WeightFunction({g: Fraction(n, scale) for g, n in base.items()}),
        {g: Fraction(step, scale) for g, step in steps.items()},
        Fraction(epsilon, scale),
        Fraction(slack, scale),
        construction,
    )


# The witness constructions in Fraction arithmetic, kept as the reference
# for the integer steps of blockstoch.extremality.


def on_numerators(builder):
    """A ``builder(family, w, *args)`` of a witness called as the builders of
    ``extremality`` are, with the point as numerators over one scale."""

    def called(family, num, scale, *args):
        w = WeightFunction({g: Fraction(n, scale) for g, n in num.items()})
        return builder(family, w, *args)

    return called


def fraction_headroom(w: WeightFunction, labels) -> Fraction:
    """How far all the given values sit from both 0 and 1."""
    return min(min(w.value(g), 1 - w.value(g)) for g in labels)


def fraction_two_coloring(
    family: SetFamily, w: WeightFunction, sign: dict[int, int]
) -> Witness:
    """The witness moving each element of ``sign`` by the headroom times its sign."""
    epsilon = fraction_headroom(w, sign)
    if epsilon <= 0:
        raise InternalPropertyError("no headroom despite the block condition")
    deltas = {v: epsilon * s for v, s in sign.items()}
    return fraction_finish(family, w, deltas, epsilon, epsilon, "two_coloring")


def fraction_tree_propagation(
    family: SetFamily, w: WeightFunction, tree: dict[int, int | None]
) -> Witness:
    """The tree propagation on a component given as its ``extremality._spread``
    from its root: the root moves by epsilon times its value, and each other
    element by minus its parent's fraction times w/(1 - w) of the parent."""
    root = next(iter(tree))
    w0 = w.value(root)
    slack = min(Fraction(1, 2), (1 - w0) / (2 * w0))
    epsilon = slack / 2
    factors: dict[int, Fraction] = {root: epsilon}
    for g, parent in tree.items():
        if parent is None:
            continue
        a = w.value(parent)
        if a >= 1:
            raise InternalPropertyError("saturated element inside a component")
        factors[g] = -factors[parent] * a / (1 - a)
    if any(abs(f) >= 1 for f in factors.values()):
        raise InternalPropertyError("a propagated fraction reached one")
    deltas = {v: w.value(v) * f for v, f in factors.items()}
    return fraction_finish(family, w, deltas, epsilon, slack, "tree_propagation")


# The sparse Fraction kernel: rows are dicts from column to nonzero
# Fraction, with a column -> rows index so that each pivot touches only
# the rows holding its column.  With the C(n, r) basis search built on
# it, it is the reference for the incremental integer elimination and
# the pivot search in blockstoch.oracle.

Row = dict[int, Fraction]


def sparse_eliminate(rows: list[Row], ncols: int) -> tuple[list[int], list[int], dict]:
    """Forward elimination in place over the columns below ``ncols``.

    Columns are taken in ascending order, so the pivot columns are the
    lexicographically first independent ones, the same for every choice
    of pivot row; the row with the fewest entries is chosen, which keeps
    the fill small.  Entries at ``ncols`` and beyond (a right-hand side)
    are carried along but never pivoted on.  Returns the pivot columns,
    the row holding each pivot and the column index (column -> rows
    holding it).
    """
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            if c < ncols:
                holders.setdefault(c, set()).add(i)
    pivots: list[int] = []
    pivot_rows: list[int] = []
    used: set[int] = set()
    for c in sorted(holders):
        free = [i for i in holders[c] if i not in used]
        if not free:
            continue
        p = min(free, key=lambda i: (len(rows[i]), i))
        used.add(p)
        pivot = rows[p]
        pv = pivot[c]
        if pv != 1:
            pivot = rows[p] = {k: v / pv for k, v in pivot.items()}
        for i in free:
            if i != p:
                sparse_subtract(rows[i], i, rows[i][c], pivot, holders, ncols)
        pivots.append(c)
        pivot_rows.append(p)
    return pivots, pivot_rows, holders


def sparse_subtract(
    row: Row, i: int, f: Fraction, pivot: Row, holders: dict, ncols: int
) -> None:
    """``row -= f * pivot`` in place, keeping the column index of row ``i``."""
    for k, v in pivot.items() if f == 1 else ((k, f * v) for k, v in pivot.items()):
        old = row.get(k)
        if old is None:
            row[k] = -v
            if k < ncols:
                holders[k].add(i)
        elif old != v:
            row[k] = old - v
        else:
            del row[k]
            if k < ncols:
                holders[k].discard(i)


def sparse_rref(rows: list[Row], ncols: int) -> list[int]:
    """Reduce sparse rows in place to reduced row echelon form; return pivots.

    Each row maps a column to its nonzero value; entries at ``ncols``
    and beyond are an augmented right-hand side.  Forward elimination
    (:func:`sparse_eliminate`) is followed by back substitution from the
    last pivot up.  Afterwards ``rows[i]`` is the reduced row of pivot
    ``i`` and the rows past the pivots are zero below ``ncols``.  The
    reduced row echelon form of a matrix is unique, so the pivots and
    reduced rows do not depend on which row served as each pivot (on the
    right-hand side this holds whenever the system is consistent).
    """
    pivots, pivot_rows, holders = sparse_eliminate(rows, ncols)
    for c, p in zip(reversed(pivots), reversed(pivot_rows)):
        pivot = rows[p]
        for i in [i for i in holders[c] if i != p]:
            sparse_subtract(rows[i], i, rows[i][c], pivot, holders, ncols)
    used = set(pivot_rows)
    rows[:] = [rows[p] for p in pivot_rows] + [
        row for i, row in enumerate(rows) if i not in used
    ]
    return pivots


def sparse_rank(rows: list[Row]) -> int:
    """Rank of sparse rows: the pivot count of forward elimination alone."""
    ncols = 1 + max((c for row in rows for c in row), default=-1)
    return len(sparse_eliminate([dict(row) for row in rows], ncols)[0])


def sparse_solve_all_ones(rows: list[Row], ncols: int) -> list[Fraction] | None:
    """Unique solution of ``rows @ x = 1``, or None if absent or non-unique."""
    aug = [{**row, ncols: Fraction(1)} for row in rows]
    pivots = sparse_rref(aug, ncols)
    if len(pivots) < ncols or any(ncols in row for row in aug[len(pivots):]):
        return None
    return [row.get(ncols, Fraction(0)) for row in aug[:ncols]]


def sparse_kernel_vector(rows: list[Row], ncols: int) -> list[Fraction] | None:
    """A nonzero exact solution of ``rows @ x = 0``, or None at full column rank.

    It is the kernel vector of the reduced row echelon form's first free
    column.  The columns before that one are independent, so there are
    at most ``len(rows)`` of them, and only the columns up to there are
    reduced.
    """
    width = min(ncols, len(rows) + 1)
    reduced = [{c: v for c, v in row.items() if c < width} for row in rows]
    pivots = sparse_rref(reduced, width)
    if len(pivots) == width:
        return None
    free = next(c for c in range(width) if c not in pivots)
    x = [Fraction(0)] * ncols
    x[free] = Fraction(1)
    for row, c in zip(reduced, pivots):
        x[c] = -row.get(free, Fraction(0))
    return x


def column_rows(columns) -> list[Row]:
    """The sparse rows of the 0/1 matrix whose column ``c`` has ones at
    the rows ``columns[c]``; rows meeting no column are left out."""
    rows: dict[int, Row] = {}
    for c, ends in enumerate(columns):
        for r in ends:
            rows.setdefault(r, {})[c] = Fraction(1)
    return list(rows.values())


def scaled_kernel_circuit(ends) -> dict[int, int] | None:
    """The kernel vector of the 0/1 columns ``ends`` scaled by the lcm of
    its denominators, as its nonzero integer entries by column."""
    x = sparse_kernel_vector(column_rows(ends), len(ends))
    if x is None:
        return None
    d = math.lcm(*(v.denominator for v in x))
    return {c: v.numerator * (d // v.denominator) for c, v in enumerate(x) if v}


def subset_vertices(family: SetFamily) -> tuple[WeightFunction, ...]:
    """All vertices, by solving every rank-sized column subset that
    touches every block: the C(n, r) reference for
    ``oracle.basis_vertices``.  The result is sorted."""
    columns = family.ground
    ends = [family.gamma[g] for g in columns]
    r = sparse_rank(column_rows(ends))
    masks = [sum(1 << k for k in e) for e in ends]
    full = sum(1 << b.index for b in family.blocks)
    found = set()
    for combo in combinations(range(len(columns)), r):
        covered = 0
        for i in combo:
            covered |= masks[i]
        if covered != full:
            continue
        x = sparse_solve_all_ones(column_rows([ends[i] for i in combo]), r)
        if x is not None and all(v >= 0 for v in x):
            found.add(tuple((columns[i], v) for i, v in zip(combo, x) if v != 0))
    vertices = (WeightFunction._trusted(dict(items)) for items in found)
    return tuple(sorted(vertices, key=lambda w: w.sort_key()))


def walk_vertices(family: SetFamily) -> tuple[WeightFunction, ...]:
    """All vertices, by a pruned depth-first walk over column subsets:
    the reference for ``oracle.basis_vertices``'s pivot search.

    The walk adds columns in ascending order to one
    ``oracle._Elimination``, which also reduces the all-ones vector, and
    cuts a branch when its new column is dependent, when the columns
    chosen and those left cannot touch every block, or when too few
    columns are left to reach the rank r.  Once the all-ones vector is
    in the span, the point is read from its coefficients, kept if
    nonnegative, and not extended.  A vertex is reached at every
    independent column set that holds its support and first spans the
    all-ones vector at its last column, so the points found go into a
    set.  The result is sorted."""
    columns = family.ground
    ends = [family.gamma[g] for g in columns]
    n, r = len(columns), sparse_rank(column_rows(ends))
    masks = [sum(1 << k for k in e) for e in ends]
    reach = [0] * (n + 1)  # reach[i]: the blocks met by columns i and later
    for i in reversed(range(n)):
        reach[i] = reach[i + 1] | masks[i]
    full = sum(1 << b.index for b in family.blocks)
    ones = ~n  # the key of the all-ones vector's coefficient
    elimination = oracle._Elimination()
    chosen: list[int] = []
    covered = [0]
    residuals = [{**{b.index: 1 for b in family.blocks}, ones: 1}]
    found = set()
    i = 0
    while True:
        k = len(chosen)
        if k == r or i > n - r + k or covered[-1] | reach[i] != full:
            if not chosen:
                break
            elimination.remove(chosen[-1], ends[chosen[-1]])
            i = chosen.pop() + 1
            covered.pop()
            residuals.pop()
            continue
        if not elimination.add(i, ends[i]):
            i += 1
            continue
        residual = elimination.reduce(residuals[-1])
        if max(residual) < 0:
            # e * ones + sum of a_c * column c = 0, so x_c = -a_c / e
            e = residual[ones]
            point = [(columns[~c], Fraction(-a, e)) for c, a in residual.items() if c != ones]
            if all(v > 0 for _, v in point):
                found.add(tuple(sorted(point)))
            elimination.remove(i, ends[i])
            i += 1
            continue
        chosen.append(i)
        covered.append(covered[-1] | masks[i])
        residuals.append(residual)
        i += 1
    vertices = (WeightFunction._trusted(dict(items)) for items in found)
    return tuple(sorted(vertices, key=lambda w: w.sort_key()))


# Dense exact elimination, kept as the reference for the sparse kernel
# above: rows are full lists of Fractions.


def dense_rref(aug: list[list[Fraction]], ncols: int) -> list[int]:
    """Row-reduce in place over the first ``ncols`` columns; return pivot columns."""
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(aug)) if aug[i][c] != 0), None)
        if pivot_row is None:
            continue
        aug[r], aug[pivot_row] = aug[pivot_row], aug[r]
        pv = aug[r][c]
        if pv != 1:
            aug[r] = [v / pv for v in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == len(aug):
            break
    return pivots


def dense_rank(rows: list[list[Fraction]], ncols: int) -> int:
    return len(dense_rref([row[:] for row in rows], ncols))


def dense_solve_all_ones(rows: list[list[Fraction]], ncols: int):
    """Unique solution of ``rows @ x = 1``, or None if absent or non-unique."""
    aug = [row[:] + [Fraction(1)] for row in rows]
    pivots = dense_rref(aug, ncols)
    for i in range(len(pivots), len(aug)):
        if aug[i][ncols] != 0:
            return None
    if len(pivots) < ncols:
        return None
    x = [Fraction(0)] * ncols
    for i, c in enumerate(pivots):
        x[c] = aug[i][ncols]
    return x


def dense_kernel_vector(rows: list[list[Fraction]], ncols: int):
    """A nonzero exact solution of ``rows @ x = 0``, or None at full column rank."""
    reduced = [row[:] for row in rows]
    pivots = dense_rref(reduced, ncols)
    if len(pivots) == ncols:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    x = [Fraction(0)] * ncols
    x[free] = Fraction(1)
    for i, c in enumerate(pivots):
        x[c] = -reduced[i][free]
    return x


def sparse_rows(matrix: list[list[Fraction]]) -> list[dict[int, Fraction]]:
    """The nonzero entries of each dense row, by column."""
    return [{c: v for c, v in enumerate(row) if v != 0} for row in matrix]


def dense_row(row: dict[int, Fraction], width: int) -> list[Fraction]:
    return [row.get(c, Fraction(0)) for c in range(width)]


# The vertex walk and peel over Fractions, solving the sparse kernel of
# the whole support at every step, kept as the reference for the integer
# walk on one live kernel in blockstoch.oracle.


def fraction_vertex_within(family: SetFamily, start: WeightFunction, steps: list):
    """The vertex the walk from ``start`` reaches; each step's zeroed
    columns are appended to ``steps`` as a sorted tuple."""
    gamma = family.gamma
    current = dict(start.items())
    while True:
        supp = tuple(current)
        ends = [gamma[g] for g in supp]
        x = sparse_kernel_vector(column_rows(ends), len(ends))
        kernel = None if x is None else {c: v for c, v in enumerate(x) if v}
        if kernel is None:
            return WeightFunction(current)
        moves = [(supp[c], kv) for c, kv in kernel.items()]
        step = min(-current[g] / kv for g, kv in moves if kv < 0)
        zeroed = []
        for g, kv in moves:
            value = current[g] + step * kv
            if value:
                current[g] = value
            else:
                del current[g]
                zeroed.append(g)
        steps.append(tuple(sorted(zeroed)))


def fraction_decompose(family: SetFamily, w: WeightFunction):
    """``(terms, vertices, steps)``: the terms of ``oracle.decompose``,
    the vertex each walk reached and the zeroed columns of every walk
    step and every peel ``(current - t * vertex) / (1 - t)``, in order,
    in ``Fraction`` arithmetic."""
    terms, vertices, steps = [], [], []
    coef = Fraction(1)
    current = w
    while True:
        vertex = fraction_vertex_within(family, current, steps)
        vertices.append(vertex)
        if vertex == current:
            terms.append((coef, current))
            break
        t = min(current(g) / vertex(g) for g in vertex.support)
        terms.append((coef * t, vertex))
        peeled = fraction_combination(((1 / (1 - t), current), (t / (t - 1), vertex)))
        steps.append(tuple(sorted(set(current.support) - set(peeled.support))))
        current = peeled
        coef *= 1 - t
    terms.sort(key=lambda cw: (-cw[0], cw[1].sort_key()))
    return tuple(terms), vertices, steps


def odd_ring_chain(k: int, n: int) -> tuple[list[list[int]], dict[int, Fraction]]:
    """``k`` rings of ``n`` two-element blocks (``n`` odd), consecutive
    rings joined by one bridge element, and a point of their polytope.

    Ring i holds the labels i(n+1)+1 .. i(n+1)+n, its j-th label in its
    blocks j and j+1 (mod n); bridge i, the label (i+1)(n+1), joins block
    1 of ring i to block 0 of ring i+1.  The point is the mean of the
    vertex with every ring label at 1/2 and, for each bridge, the vertex
    with the bridge at 1, both its rings matched around it and the other
    rings at 1/2.  Its support is everything, one component whose block
    multigraph has odd cycles only.
    """
    blocks: list[list[int]] = []
    for i in range(k):
        base = i * (n + 1)
        blocks += [[base + (j - 1) % n + 1, base + j + 1] for j in range(n)]
    half = Fraction(1, 2)
    # the sum of the k vertices, from every ring label at 1/2 in each
    total = {base + j + 1: k * half for base in range(0, k * (n + 1), n + 1) for j in range(n)}
    for i in range(k - 1):
        bridge = (i + 1) * (n + 1)
        blocks[i * n + 1].append(bridge)
        blocks[(i + 1) * n].append(bridge)
        total[bridge] = Fraction(1)
        # ring i loses block 1 and is matched from label 2 on; ring i+1
        # loses block 0 and is matched from label 1 on
        for ring, first in ((i, 2), (i + 1, 1)):
            base = ring * (n + 1)
            for j in range(n):
                total[base + j + 1] += (1 if (j - first) % 2 == 0 and j >= first else 0) - half
    return blocks, {g: v / k for g, v in total.items()}


def necklace(
    k: int, sides: int, half_edges: bool, seed: int
) -> tuple[list[list[int]], dict[int, Fraction]]:
    """A ring of ``k`` triangles (``sides`` 3) or squares (4) of blocks,
    each joined to the next at a corner block, with seeded shuffled
    labels, and a point of its polytope.

    Bead i holds a ring element in corner blocks i and i+1 (mod k) and a
    detour of ``sides`` - 1 elements between them through ``sides`` - 2
    blocks of its own, so the cycles of the block multigraph are the
    beads and the rounds of the ring, which take the ring element or the
    detour of each bead: the rounds of squares all have the parity of k,
    and those of triangles both.  With ``half_edges`` every block also
    holds an element of its own.  The
    point puts 1/2 on every detour element; with half-edges it puts 1/8
    on the ring elements, 1/4 on the detour elements and on the corners'
    own elements and 1/2 on the other blocks' own elements, so its
    support is everything.
    """
    rng = random.Random(seed)
    blocks: list[list[int]] = [[] for _ in range(k)]
    values: list[tuple[tuple[int, ...], Fraction]] = []
    ring, detour = (Fraction(1, 8), Fraction(1, 4)) if half_edges else (0, Fraction(1, 2))
    for i in range(k):
        ends = [i] + [len(blocks) + j for j in range(sides - 2)] + [(i + 1) % k]
        blocks += [[] for _ in range(sides - 2)]
        values.append(((i, (i + 1) % k), ring))
        values += [(pair, detour) for pair in zip(ends, ends[1:])]
    if half_edges:
        values += [((b,), detour if b < k else Fraction(1, 2)) for b in range(len(blocks))]
    labels = rng.sample(range(1, 2 * len(values) + 1), len(values))
    for g, (ends, _) in zip(labels, values):
        for b in ends:
            blocks[b].append(g)
    return blocks, {g: v for g, (_, v) in zip(labels, values) if v}


# The full block scan of the extension walk, kept as the reference for
# the walk over fresh elements in blockstoch.extension.


class FullScanGenerator:
    """A generator whose fresh elements are filtered out of a full scan of
    each block: the reference for every closed form of ``fresh_elements``."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def fresh_elements(self, k):
        inner = self._inner
        return (g for g in inner.block_elements(k) if inner.gamma_of(g)[0] == k)


def full_scan_steps(generator, trunc, horizon):
    """The ``(element, block, value)`` steps of the completion walk with each
    block scanned from its first label, or None when a block offers no
    eligible label.

    A label is skipped when it lies in one of the first ``n`` blocks or was
    chosen before.  Each block is filled by one fresh element of its own,
    so every other block of a label must stay below one, or be empty and
    be filled whole.  A label is then eligible when it keeps the invariant
    ``verify_extension`` checks, that each chosen element meets at most one
    earlier one: it meets at most one itself, and every block it leaves
    below one holds no earlier chosen element, since the element chosen
    there later would meet them all.
    """
    sums = {}
    for g, v in trunc.w.items():
        for k in generator.gamma_of(g):
            sums[k] = sums.get(k, 0) + v
    last = horizon
    if generator.block_count is not None:
        last = min(horizon, generator.block_count)
    steps = []
    chosen = set()
    chosen_in = {}
    for k in range(trunc.n + 1, last + 1):
        have = sums.get(k, 0)
        if have == 1:
            continue
        need = 1 - have
        # bounded, so that a walk gone wrong on an unbounded block fails
        for g in islice(generator.block_elements(k), 100_000):
            gamma = generator.gamma_of(g)
            if min(gamma) <= trunc.n or g in chosen:
                continue
            below = [j for j in gamma if j != k and sums.get(j, 0) + need < 1]
            if any(sums.get(j, 0) for j in gamma if j != k and j not in below):
                continue
            met = {h for j in gamma for h in chosen_in.get(j, ())}
            if len(met) <= 1 and not any(j in chosen_in for j in below):
                break
        else:
            return None
        steps.append((g, k, need))
        chosen.add(g)
        for j in gamma:
            sums[j] = sums.get(j, 0) + need
            chosen_in.setdefault(j, []).append(g)
    return tuple(steps)


# The extension walk and its re-check in Fraction arithmetic, kept as the
# reference for the integer block sums in blockstoch.extension.


def full_scan_result(generator, trunc, horizon):
    """The ``ExtensionResult`` of a complete walk, built in ``Fraction``
    arithmetic from ``full_scan_steps``: each chosen element overlaps the
    one earlier chosen element sharing a block with it, if any, and takes
    the other pattern, "a" when it overlaps none."""
    steps = []
    pattern_of = {}
    chosen_in = {}
    for g, k, value in full_scan_steps(generator, trunc, horizon):
        gamma = generator.gamma_of(g)
        met = {h for j in gamma for h in chosen_in.get(j, ())}
        (overlap,) = met or (None,)
        pattern = "a" if overlap is None or pattern_of[overlap] == "b" else "b"
        pattern_of[g] = pattern
        for j in gamma:
            chosen_in.setdefault(j, []).append(g)
        steps.append(ChosenStep(g, k, value, pattern, overlap))
    extended = trunc.w + WeightFunction({s.element: s.value for s in steps})
    packings = [
        WeightFunction({s.element: Fraction(1) for s in steps if s.pattern == p})
        for p in "ab"
    ]
    return ExtensionResult(
        trunc.n, horizon, extended, tuple(steps), *packings, complete=True
    )


def _fraction_touched_sums(generator, w):
    """The members of ``w``'s support in each block meeting it, and the
    ``Fraction`` block sums over them."""
    members = {}
    for g in w.support:
        for k in generator.gamma_of(g):
            if not generator.contains(k, g):
                raise GeneratorInconsistentError(
                    f"gamma_of({g}) lists block {k} but contains({k}, {g})"
                    " is false"
                )
            members.setdefault(k, []).append(g)
    sums = {k: sum((w(g) for g in gs), Fraction(0)) for k, gs in members.items()}
    return members, sums


def fraction_verify_extension(result, generator, trunc):
    """``verify_extension`` with every block sum, difference and cover in
    ``Fraction`` arithmetic on whole weight functions."""
    violations = []
    base = trunc.w
    chosen = {s.element: s for s in result.steps}
    if len(chosen) != len(result.steps):
        violations.append("a chosen element repeats")
    diff = result.extended - base
    for g, value in diff.items():
        step = chosen.get(g)
        if step is None:
            violations.append(f"element {g} changed without a recorded step")
        elif value != step.value or value <= 0:
            violations.append(f"element {g} carries {value}, not its step value")
    for g, step in chosen.items():
        if diff.value(g) != step.value:
            violations.append(f"step at {g} left no trace in the completion")
        gamma = generator.gamma_of(g)
        if min(gamma) <= trunc.n:
            violations.append(f"chosen element {g} is not fresh")
        if step.block_index not in gamma:
            violations.append(
                f"chosen element {g} lies outside block {step.block_index}"
            )

    full_support = result.extended.support
    extended_members, sums = _fraction_touched_sums(generator, result.extended)
    last_block = horizon = result.horizon
    if generator.block_count is not None:
        last_block = min(horizon, generator.block_count)
    for k, total in sorted(sums.items()):
        if total > 1:
            violations.append(f"block {k} sums to {total} > 1")
    must_saturate = set(range(1, trunc.n + 1))
    must_saturate.update(s.block_index for s in result.steps)
    if result.complete:
        must_saturate.update(range(trunc.n + 1, last_block + 1))
    for k in sorted(must_saturate):
        total = sums.get(k, Fraction(0))
        if total != 1:
            violations.append(f"block {k} sums to {total}, expected 1")

    earlier_in = {}
    for step in result.steps:
        gj = step.element
        gamma = generator.gamma_of(gj)
        met = {gi for k in gamma for gi in earlier_in.get(k, ())}
        for k in gamma:
            earlier_in.setdefault(k, []).append(gj)
        if len(met) > 1:
            violations.append(f"element {gj} meets {len(met)} earlier elements")
        recorded = chosen[gj].overlap_with
        if met and recorded not in met:
            violations.append(f"element {gj} records the wrong overlap")
        if not met and recorded is not None:
            violations.append(f"element {gj} records a phantom overlap")

    for name, packing in (("a", result.packing_a), ("b", result.packing_b)):
        if not packing.zero_one:
            violations.append(f"packing {name} is not 0/1-valued")
        _, packing_sums = _fraction_touched_sums(generator, packing)
        for k, total in sorted(packing_sums.items()):
            if total > 1:
                violations.append(
                    f"packing {name} puts {total} > 1 into block {k}"
                )
    cover = result.packing_a + result.packing_b
    for g, value in diff.items():
        if value > cover.value(g):
            violations.append(f"added value at {g} exceeds the packing cover")

    # rank rows keyed by label, one per block the function must fill
    one = Fraction(1)
    saturated_rows = [
        dict.fromkeys(extended_members[k], one)
        for k, total in sorted(sums.items())
        if total == 1
    ]
    base_members, base_sums = _fraction_touched_sums(generator, base)
    base_rows = [
        dict.fromkeys(base_members[k], one)
        for k, total in sorted(base_sums.items())
        if total == 1 or k <= trunc.n
    ]
    vertex_input = sparse_rank(base_rows) == len(base.support)
    vertex_shadow = None
    if vertex_input:
        vertex_shadow = sparse_rank(saturated_rows) == len(full_support)
        if not vertex_shadow:
            violations.append(
                "an extreme truncation completed to a non-extreme function"
            )
    return ExtensionReport(tuple(violations), vertex_input, vertex_shadow)


def random_truncation(generator, n, denominator, rng, width=3):
    """A seeded truncation at depth ``n`` in multiples of ``1/denominator``,
    or None when the draw is not a valid one.

    Blocks 1 to ``n`` are filled in turn: the mass a block still misses is
    split at random over some of its first ``width`` fresh elements, the
    only labels that leave the earlier blocks' sums as they are.  The draw
    fails when a block is already above one or has no fresh element to
    fill it with, or when a block after ``n`` ends above one.
    """
    weights = {}
    sums = {}
    for k in range(1, n + 1):
        missing = denominator - sums.get(k, 0)
        if missing < 0:
            return None
        if missing == 0:
            continue
        fresh = list(islice(generator.fresh_elements(k), width))
        if not fresh:
            return None
        labels = sorted(rng.sample(fresh, rng.randint(1, min(len(fresh), missing))))
        cuts = sorted(rng.sample(range(1, missing), len(labels) - 1))
        for g, part in zip(labels, [b - a for a, b in zip([0, *cuts], [*cuts, missing])]):
            weights[g] = Fraction(part, denominator)
            for j in generator.gamma_of(g):
                sums[j] = sums.get(j, 0) + part
    if any(total > denominator for total in sums.values()):
        return None
    return weights


# The chain-and-sign cycle attachment, kept as the reference for the frame
# circuit witness of blockstoch.extremality.


def _rotate_cycle(vertices: tuple[int, ...], first: int, second: int) -> tuple[int, ...]:
    """Reindex a circular vertex list to start (first, second, ...)."""
    n = len(vertices)
    i = vertices.index(first)
    if vertices[(i + 1) % n] == second:
        return tuple(vertices[(i + k) % n] for k in range(n))
    if vertices[(i - 1) % n] == second:
        return tuple(vertices[(i - k) % n] for k in range(n))
    raise InternalPropertyError("requested cycle start is not an edge")


def _other_block(family: SetFamily, element: int, block_index: int) -> int:
    ks = family.membership(element)
    if len(ks) != 2 or block_index not in ks:
        raise InternalPropertyError("element does not join exactly two blocks")
    return ks[0] if ks[1] == block_index else ks[1]


def _chain_to_root(
    parent: dict[int, tuple[int, int] | None], block_index: int
) -> tuple[list[int], int]:
    """The tree path of elements from the root block out to ``block_index``."""
    elems: list[int] = []
    b = block_index
    while parent[b] is not None:
        e, prev = parent[b]
        elems.append(e)
        b = prev
    elems.reverse()
    return elems, b


def chain_cycle_attachment(
    family: SetFamily, w: WeightFunction, comp: tuple[int, ...], cycle: Path
) -> Witness:
    """``extremality._cycle_attachment`` as a breadth-first search from the
    cycle's blocks that records each block's parent and root, stops at a
    half-edge or at an element closing a second odd cycle, and signs the
    cycle, the chain to the anchor and the tail or second cycle by hand."""
    members = set(comp)
    edge_blocks = extremality._cycle_edge_blocks(family, cycle)
    cycle_verts = set(cycle.vertices)
    sources = sorted(set(edge_blocks.values()))

    parent: dict[int, tuple[int, int] | None] = {k: None for k in sources}
    root_of: dict[int, int] = {k: k for k in sources}
    used: set[int] = set()
    frontier = list(sources)
    half_end: tuple[int, int] | None = None
    closing: tuple[int, int, int] | None = None
    while frontier and half_end is None and closing is None:
        upcoming: list[int] = []
        for b_idx in frontier:
            for e in family.block(b_idx).members:
                if e not in members or e in cycle_verts or e in used:
                    continue
                if len(family.membership(e)) == 1:
                    half_end = (b_idx, e)
                    break
                other = _other_block(family, e, b_idx)
                if other not in parent:
                    parent[other] = (e, b_idx)
                    root_of[other] = root_of[b_idx]
                    used.add(e)
                    upcoming.append(other)
                else:
                    if root_of[other] != root_of[b_idx]:
                        raise InternalPropertyError(
                            "two cycle blocks are joined outside the cycle"
                            " despite the even-cycle check"
                        )
                    closing = (e, b_idx, other)
                    break
            if half_end is not None or closing is not None:
                break
        frontier = sorted(upcoming)
    if half_end is None and closing is None:
        raise ConditionsViolatedError(
            "no support element is attached to the cycle's blocks"
        )

    if half_end is not None:
        end_block, z = half_end
        chain, anchor_block = _chain_to_root(parent, end_block)
        tail: list[int] = [z]
        second: list[int] = []
    else:
        e, b1, b2 = closing
        chain1, r1 = _chain_to_root(parent, b1)
        chain2, r2 = _chain_to_root(parent, b2)
        if r1 != r2:
            raise InternalPropertyError("closing element joins two different roots")
        shared = 0
        while (
            shared < len(chain1)
            and shared < len(chain2)
            and chain1[shared] == chain2[shared]
        ):
            shared += 1
        chain = chain1[:shared]
        anchor_block = r1
        tail = []
        second = chain1[shared:] + [e] + list(reversed(chain2[shared:]))
        if len(second) % 2 == 0 or len(second) < 3:
            raise InternalPropertyError("the closed walk is not a second odd cycle")

    anchor_edge = next(
        edge for edge, k in edge_blocks.items() if k == anchor_block
    )
    seq = _rotate_cycle(cycle.vertices, anchor_edge[0], anchor_edge[1])
    perturbed = set(seq) | set(chain) | set(tail) | set(second)
    slack = fraction_headroom(w, perturbed)
    epsilon = slack / 2
    deltas = {seq[0]: -epsilon / 2}
    for i in range(2, len(seq) + 1):
        deltas[seq[i - 1]] = Fraction((-1) ** (i - 1)) * epsilon / 2
    t = 0
    for e in chain + tail:
        deltas[e] = Fraction((-1) ** t) * epsilon
        t += 1
    if second:
        lead = Fraction((-1) ** t)
        deltas[second[0]] = lead * epsilon / 2
        deltas[second[-1]] = lead * epsilon / 2
        for k in range(2, len(second)):
            deltas[second[k - 1]] = lead * Fraction((-1) ** (k - 1)) * epsilon / 2
    return fraction_finish(family, w, deltas, epsilon, slack, "cycle_attachment")


# The element-graph classifier and its layered tree propagation, kept as
# the reference for blockstoch.extremality, which reads the support
# through its blocks.


def layered_tree_propagation(
    family: SetFamily, w: WeightFunction, induced: AssociatedGraph
) -> Witness:
    """The tree propagation on the graph induced on a cycle-free component,
    by BFS layers from its smallest element: each block meeting the
    component in two or more elements spans two adjacent layers, with one
    entry element in the lower one, and blocks are processed by entry
    layer."""
    comp = induced.vertices
    members = set(comp)
    root = comp[0]
    w0 = w.value(root)
    slack = min(Fraction(1, 2), (1 - w0) / (2 * w0))
    epsilon = slack / 2
    layers = graphs.bfs_layers(induced, root)
    if set(layers) != members:
        raise InternalPropertyError("the pool is not connected")
    touched: list[tuple[int, int, list[int]]] = []
    for b in family.blocks:
        elems = [g for g in b.members if g in members]
        if len(elems) >= 2:
            touched.append((min(layers[g] for g in elems), b.index, elems))
    factors: dict[int, Fraction] = {root: epsilon}
    for lmin, _, elems in sorted(touched, key=lambda t: (t[0], t[1])):
        lmax = max(layers[g] for g in elems)
        if lmax == lmin:
            raise InternalPropertyError(
                "a block lies in a single layer and has no entry element"
            )
        if lmax != lmin + 1:
            raise InternalPropertyError("a block spans more than two layers")
        entries = [g for g in elems if layers[g] == lmin]
        if len(entries) != 1:
            raise InternalPropertyError(
                "a block has more than one element closest to the root"
            )
        a = entries[0]
        if a not in factors:
            raise InternalPropertyError("entry element processed out of order")
        if w.value(a) >= 1:
            raise InternalPropertyError("saturated element inside a component")
        child_factor = factors[a] * w.value(a) / (1 - w.value(a))
        for c in elems:
            if layers[c] == lmax:
                if c in factors:
                    raise InternalPropertyError(
                        "an element is reached through two different blocks"
                    )
                factors[c] = child_factor
    if set(factors) != members:
        raise InternalPropertyError("some pool elements were never reached")
    if any(f >= 1 for f in factors.values()):
        raise InternalPropertyError("a propagated fraction reached one")
    deltas = {
        v: w.value(v) * factors[v] * (1 if layers[v] % 2 == 0 else -1) for v in comp
    }
    return fraction_finish(family, w, deltas, epsilon, slack, "tree_propagation")


def _graph_witness(
    family: SetFamily, w: WeightFunction, induced: AssociatedGraph
) -> Witness:
    """The witness of an offending component from the first even and odd
    cycles of the census of the induced element graph."""
    even = (graphs.find_primitive_cycles(induced, family, "even") or (None,))[0]
    if even is not None:
        sign = {v: (-1) ** i for i, v in enumerate(even.vertices)}
        return fraction_two_coloring(family, w, sign)
    pair = check_injectivity(family, subset=induced.vertices)
    if pair is not None:
        return fraction_two_coloring(family, w, {pair[0]: 1, pair[1]: -1})
    odd = (graphs.find_primitive_cycles(induced, family, "odd") or (None,))[0]
    if odd is None:
        return layered_tree_propagation(family, w, induced)
    return chain_cycle_attachment(family, w, induced.vertices, odd)


def graph_classify_extreme(family: SetFamily, w: WeightFunction) -> Verdict:
    """``classify_extreme`` on the support's element graph: its connected
    components, an odd cycle as a component of degree-two vertices."""
    require_stochastic(family, w)
    if max_multiplicity(family) > 2:
        return Verdict("unsupported", None, "an element lies in more than two blocks")
    graph = graphs.build_graph(family, within=w.support)
    saturated = cycles = 0
    bad = None
    for comp in graphs.connected_components(graph):
        if len(comp) == 1:
            if w.value(comp[0]) != 1:
                raise InternalPropertyError("isolated support element not saturated")
            saturated += 1
        elif (
            len(comp) >= 3
            and len(comp) % 2 == 1
            and all(len(graph.neighbors_of(v)) == 2 for v in comp)
            and all(c <= 2 for c in block_vertex_counts(family, comp).values())
        ):
            if any(w.value(v) != Fraction(1, 2) for v in comp):
                raise InternalPropertyError("odd cycle component not at one half")
            cycles += 1
        elif bad is None:
            bad = comp
    if bad is None:
        detail = f"{saturated} saturated element(s) and {cycles} odd primitive cycle(s)"
        return Verdict("extreme", None, detail)
    witness = _graph_witness(family, w, graphs.build_graph(family, within=bad))
    detail = (
        f"the support component containing {bad[0]}"
        f" admits a {witness.construction} perturbation"
    )
    return Verdict("not_extreme", witness, detail)


def graph_two_coloring(family: SetFamily, w: WeightFunction, vertices) -> Witness:
    """``construct_two_coloring`` with each component of the induced
    element graph colored by the parity of its BFS layers."""
    require_stochastic(family, w)
    verts = tuple(sorted(set(vertices)))
    if not verts:
        raise ConditionsViolatedError("the subgraph has no vertices")
    if not set(verts) <= set(w.support):
        raise ConditionsViolatedError("the subgraph must lie in the support")
    if any(c != 2 for c in block_vertex_counts(family, verts).values()):
        raise ConditionsViolatedError(
            "every block must contain zero or exactly two subgraph elements"
        )
    induced = graphs.build_graph(family, within=verts)
    sign: dict[int, int] = {}
    for comp in graphs.connected_components(induced):
        sign.update((g, (-1) ** d) for g, d in graphs.bfs_layers(induced, comp[0]).items())
    if any(sign[g] == sign[h] for g, h in induced.edge_blocks):
        raise ConditionsViolatedError("the subgraph contains an odd primitive cycle")
    return fraction_two_coloring(family, w, sign)


def graph_tree_propagation(family: SetFamily, w: WeightFunction) -> Witness:
    """``construct_tree_propagation`` on the whole support, with the
    element graph's components and the layered propagation."""
    require_stochastic(family, w)
    comp = w.support
    if len(comp) < 2:
        raise ConditionsViolatedError("a single saturated element cannot be perturbed")
    extremality._require_distinct_pairs(family, comp)
    induced = graphs.build_graph(family, within=comp)
    if len(graphs.connected_components(induced)) != 1:
        raise ConditionsViolatedError("the component is not connected")
    edges = sum(len(family.membership(g)) == 2 for g in comp)
    if edges >= len({k for g in comp for k in family.membership(g)}):
        raise ConditionsViolatedError("the component contains a primitive cycle")
    return layered_tree_propagation(family, w, induced)


def graph_cycle_attachment(
    family: SetFamily, w: WeightFunction, cycle: Path | None = None
) -> Witness:
    """``construct_cycle_attachment`` with the cycle's component and the
    even-cycle refusal from the element graph and its census."""
    require_stochastic(family, w)
    graph = graphs.build_graph(family, within=w.support)
    if cycle is None:
        cycle = (graphs.find_primitive_cycles(graph, family, "odd") or (None,))[0]
        if cycle is None:
            raise ConditionsViolatedError("the support has no odd primitive cycle")
    graphs.require_simple(graph, cycle)
    if not cycle.is_cycle or len(cycle.vertices) % 2 == 0:
        raise NotSimpleCycleError("an odd cycle is required")
    if not is_primitive(family, cycle):
        raise ConditionsViolatedError("the cycle is not primitive")
    comp = tuple(sorted(graphs.bfs_layers(graph, cycle.vertices[0])))
    extremality._require_distinct_pairs(family, comp)
    induced = graphs.build_graph(family, within=comp)
    if graphs.find_primitive_cycles(induced, family, "even"):
        raise EvenCyclePresentError(
            "the component contains an even primitive cycle;"
            " a two-coloring witness applies instead"
        )
    return chain_cycle_attachment(family, w, comp, cycle)


def half_edge_trees(count: int, seed: int):
    """Seeded families whose block multigraph is a tree of 2 to 8 blocks,
    with up to four half-edges on random blocks (two on one block make an
    equal-membership pair); of two blocks with equal members one is kept.
    Labels are shuffled."""
    rng = random.Random(seed)
    for _ in range(count):
        nodes = rng.randint(2, 8)
        ends = [(rng.randrange(b), b) for b in range(1, nodes)]
        ends += [(rng.randrange(nodes),) for _ in range(rng.randint(0, 4))]
        blocks: list[list[int]] = [[] for _ in range(nodes)]
        for g, e in zip(rng.sample(range(1, 4 * len(ends)), len(ends)), ends):
            for b in e:
                blocks[b].append(g)
        yield build_family(dict.fromkeys(tuple(b) for b in blocks))


def caterpillar_trees(count: int, seed: int):
    """Seeded families whose block multigraph is a caterpillar: a spine of
    1 to 5 blocks, each joined to the next by an element, a half-edge on
    each end of the spine, and up to two legs on each spine block, a
    half-edge or a pendant block joined by an element and holding a
    half-edge of its own.  Labels are shuffled."""
    rng = random.Random(seed)
    for _ in range(count):
        spine = rng.randint(1, 5)
        ends = [(b, b + 1) for b in range(spine - 1)] + [(0,), (spine - 1,)]
        nodes = spine
        for b in range(spine):
            for _ in range(rng.randint(0, 2)):
                if rng.random() < 0.5:
                    ends.append((b,))
                else:
                    ends += [(b, nodes), (nodes,)]
                    nodes += 1
        blocks: list[list[int]] = [[] for _ in range(nodes)]
        for g, e in zip(rng.sample(range(1, 4 * len(ends)), len(ends)), ends):
            for b in e:
                blocks[b].append(g)
        yield build_family(dict.fromkeys(tuple(b) for b in blocks))


def odd_ring_cacti(count: int, seed: int):
    """Seeded families whose block multigraph is one to three odd rings of
    3, 5 or 7 blocks joined in a tree by paths of one to four elements,
    with pendant paths of up to three elements, some ending in a
    half-edge, and half-edges on random blocks (one per block at most, so
    no two elements share their blocks).  Labels are shuffled, so the
    breadth-first scans meet members in varied orders."""
    rng = random.Random(seed)
    for _ in range(count):
        blocks: list[list[int]] = []
        ends: list[tuple[int, ...]] = []
        halves: set[int] = set()

        def grow(start: int, length: int) -> int:
            for _ in range(length):
                blocks.append([])
                ends.append((start, len(blocks) - 1))
                start = len(blocks) - 1
            return start

        def half_edge(b: int) -> None:
            if b not in halves:
                halves.add(b)
                ends.append((b,))

        rings: list[int] = []
        for _ in range(rng.randint(1, 3)):
            n = rng.choice((3, 5, 7))
            first = len(blocks)
            blocks += [[] for _ in range(n)]
            ends += [(first + j, first + (j + 1) % n) for j in range(n)]
            if rings:
                tip = grow(rng.choice(rings), rng.randint(0, 3))
                ends.append((tip, rng.randrange(first, first + n)))
            rings += range(first, first + n)
        for _ in range(rng.randint(0, 3)):
            tip = grow(rng.randrange(len(blocks)), rng.randint(1, 3))
            if rng.random() < 0.6:
                half_edge(tip)
        for _ in range(rng.randint(0, 2)):
            half_edge(rng.randrange(len(blocks)))
        labels = rng.sample(range(1, 4 * len(ends)), len(ends))
        for g, e in zip(labels, ends):
            for b in e:
                blocks[b].append(g)
        yield build_family([b for b in blocks if b])
