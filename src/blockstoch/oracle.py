"""Exact enumeration of the vertices of the weight polytope.

The admissible weight functions of a finite family form a bounded
polytope: one equality per block plus nonnegativity.  A stochastic
point is a vertex exactly when the block-sum columns of its support are
linearly independent.

Two enumerations share that definition.  When every multiplicity is at
most two, the family is the block multigraph H of :mod:`graphs`, shared
with :func:`graphs.bipartition`, and the vertices are read off its exact
covers by edges, half-edges and odd cycles (the half-integrality of the
fractional matching polytope).  Otherwise every rank-sized independent
column set is solved exactly.  The basis search needs no structure at
all, so it also serves as the reference the multigraph search and the
structural classifier are tested against.

Everything here is exact.  The rank questions of :func:`is_vertex`
and the extension checks go through :func:`column_rank`.  When every
column meets at most two rows it is an incidence column of a
multigraph, and the answer comes from the frame matroid core of
:mod:`graphs` (:func:`graphs.frame_rank`) with no row reduction.
Otherwise, and for the basis search, the answer comes from one sparse
elimination kernel (:func:`_rref`).  A row is a dict from column to its
nonzero value, and a column index (column -> rows holding it) lets each
pivot touch only the rows that hold its column; on the block-incidence
matrices of long rings and paths the work stays close to the number of
nonzeros.  Which row serves as a pivot is a matter of fill only: the
reduced row echelon form is unique, so pivot columns, reduced rows,
kernel vectors, vertices and decompositions come out the same whatever
the choice, and the same as the frame matroid core's.

:func:`decompose` and its vertex walk (:func:`_vertex_within`) keep
the point as integer numerators over one common denominator.  The walk
steps along integer circuits: on supports whose elements lie in at most
two blocks they come from one frame forest kept for the whole walk,
which drops the columns each step zeroes, and otherwise from the sparse
kernel's vector scaled to integers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .errors import (
    ConditionsViolatedError,
    DepthExceededError,
    InputError,
    InstanceTooLargeError,
    InternalPropertyError,
)
from .family import (
    HALF,
    ONE,
    ZERO,
    SetFamily,
    WeightFunction,
    classify_membership,
    max_multiplicity,
    require_stochastic,
)
from .family import (
    _block_sums,
    _combination,
    _common_denominator,
    _from_numerators,
    _numerators,
)
from .graphs import _FrameForest, block_multigraph, frame_rank, two_color

DEFAULT_BUDGET = 1 << 20

Row = dict[int, Fraction]


def _eliminate(rows: list[Row], ncols: int) -> tuple[list[int], list[int], dict]:
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
                _subtract(rows[i], i, rows[i][c], pivot, holders, ncols)
        pivots.append(c)
        pivot_rows.append(p)
    return pivots, pivot_rows, holders


def _subtract(
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


def _rref(rows: list[Row], ncols: int) -> list[int]:
    """Reduce sparse rows in place to reduced row echelon form; return pivots.

    Each row maps a column to its nonzero value; entries at ``ncols``
    and beyond are an augmented right-hand side.  Forward elimination
    (:func:`_eliminate`) is followed by back substitution from the last
    pivot up, and the column index means each pivot touches only the
    rows holding its column.  Afterwards ``rows[i]`` is the reduced row
    of pivot ``i`` and the rows past the pivots are zero below
    ``ncols``.  The reduced row echelon form of a matrix is unique, so
    the pivots and reduced rows do not depend on which row served as
    each pivot (on the right-hand side this holds whenever the system
    is consistent).
    """
    pivots, pivot_rows, holders = _eliminate(rows, ncols)
    for c, p in zip(reversed(pivots), reversed(pivot_rows)):
        pivot = rows[p]
        for i in [i for i in holders[c] if i != p]:
            _subtract(rows[i], i, rows[i][c], pivot, holders, ncols)
    used = set(pivot_rows)
    rows[:] = [rows[p] for p in pivot_rows] + [
        row for i, row in enumerate(rows) if i not in used
    ]
    return pivots


def _rank(rows: list[Row]) -> int:
    """Rank of sparse rows: the pivot count of forward elimination alone."""
    ncols = 1 + max((c for row in rows for c in row), default=-1)
    return len(_eliminate([dict(row) for row in rows], ncols)[0])


def _solve_all_ones(rows: list[Row], ncols: int) -> list[Fraction] | None:
    """Unique solution of ``rows @ x = 1``, or None if absent or non-unique."""
    aug = [{**row, ncols: ONE} for row in rows]
    pivots = _rref(aug, ncols)
    if len(pivots) < ncols or any(ncols in row for row in aug[len(pivots):]):
        return None
    return [row.get(ncols, ZERO) for row in aug[:ncols]]


def _kernel_vector(rows: list[Row], ncols: int) -> list[Fraction] | None:
    """A nonzero exact solution of ``rows @ x = 0``, or None at full column rank."""
    reduced = [dict(row) for row in rows]
    pivots = _rref(reduced, ncols)
    if len(pivots) == ncols:
        return None
    free = next(c for c in range(ncols) if c not in pivots)
    x = [ZERO] * ncols
    x[free] = ONE
    for row, c in zip(reduced, pivots):
        x[c] = -row.get(free, ZERO)
    return x


def enumerate_vertices(
    family: SetFamily, budget: int = DEFAULT_BUDGET
) -> tuple[WeightFunction, ...]:
    """All vertices of the polytope of stochastic weight functions.

    When every multiplicity is at most two, a backtracking search over
    the block multigraph lists the vertices directly; ``budget`` then
    bounds the search nodes visited (pieces placed plus cycle-search
    steps).  Otherwise :func:`basis_vertices` solves every candidate
    support, and ``budget`` bounds the raw candidate count before any
    work starts.  Either way an exhausted budget raises
    ``InstanceTooLargeError``, and the result is sorted.
    """
    if budget < 1:
        raise InputError("budget must be at least 1")
    if max_multiplicity(family) <= 2:
        return _CoverSearch(family, budget).vertices()
    return basis_vertices(family, budget=budget)


class _CoverSearch:
    """Vertex enumeration on the block multigraph H of a family with κ ≤ 2.

    H is the one built by :func:`graphs.block_multigraph`: the blocks
    are its nodes, an element in two blocks is an edge and an element in
    one block is a half-edge.  At a vertex the support columns are
    independent and every block sums to one with positive values.  A support component with k blocks therefore has at most k
    elements: it is a tree, plus at most one half-edge or one edge
    closing an odd cycle (an even cycle's columns are dependent).  A
    block met by a single support element forces it to 1 and every other
    element at its far end to 0, so a component with such a block is one
    edge or one half-edge.  Every other component is an odd cycle (length
    at least three) at 1/2.  Conversely every exact cover of the blocks
    by such pieces is a vertex.

    The search takes the lowest uncovered block and tries every piece
    through it over uncovered blocks, so each cover is reached once;
    cycles are taken in one direction, and are not sought at all when
    :func:`graphs.two_color` shows H bipartite.  Both searches keep
    explicit stacks, so long rings do not reach the interpreter's
    recursion limit.
    """

    def __init__(self, family: SetFamily, budget: int):
        self.halves, self.edges = block_multigraph(family)
        self.full = (1 << len(family.blocks)) - 1
        self.odd = two_color(self.edges) is None
        self.budget = budget
        self.nodes = 0
        self.found: list[WeightFunction] = []

    def _tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.budget:
            raise InstanceTooLargeError(
                f"vertex search exceeded the budget of {self.budget} search nodes:"
                f" {self.nodes} visited, {len(self.found)} found"
            )

    def vertices(self) -> tuple[WeightFunction, ...]:
        covered = 0
        chosen: list[tuple[int, tuple[int, ...], Fraction]] = []
        stack = [self._pieces(0, 0)]
        while stack:
            piece = next(stack[-1], None)
            if piece is None:
                stack.pop()
                if chosen:
                    covered &= ~chosen.pop()[0]
                continue
            self._tick()
            chosen.append(piece)
            covered |= piece[0]
            if covered == self.full:
                self.found.append(
                    WeightFunction._trusted({g: v for _, gs, v in chosen for g in gs})
                )
                covered &= ~chosen.pop()[0]
            else:
                lowest = (~covered & (covered + 1)).bit_length() - 1
                stack.append(self._pieces(lowest, covered))
        return tuple(sorted(self.found, key=lambda w: w.sort_key()))

    def _pieces(self, b: int, covered: int):
        """(block mask, elements, value) of every piece through block ``b``."""
        bit = 1 << b
        for g in self.halves[b]:
            yield bit, (g,), ONE
        for g, q in self.edges[b]:
            if not covered >> q & 1:
                yield bit | 1 << q, (g,), ONE
        if self.odd:
            yield from self._odd_cycles(b, covered)

    def _odd_cycles(self, b: int, covered: int):
        """Simple odd cycles through ``b`` avoiding ``covered``, one direction each."""
        path: list[int] = []
        blocked = covered | 1 << b
        stack = [(b, iter(self.edges[b]))]
        while stack:
            u, steps = stack[-1]
            for g, v in steps:
                if v == b:
                    if len(path) % 2 == 0 and len(path) >= 2 and path[0] < g:
                        yield blocked & ~covered, (*path, g), HALF
                elif not blocked >> v & 1:
                    self._tick()
                    path.append(g)
                    blocked |= 1 << v
                    stack.append((v, iter(self.edges[v])))
                    break
            else:
                stack.pop()
                if path:
                    path.pop()
                    blocked &= ~(1 << u)


def basis_vertices(
    family: SetFamily, budget: int = DEFAULT_BUDGET
) -> tuple[WeightFunction, ...]:
    """All vertices, by solving every candidate support exactly.

    Candidate supports are the rank-sized column subsets that touch
    every block; they are walked one at a time, each is solved exactly
    and kept when the unique solution is nonnegative.  Raises
    ``InstanceTooLargeError`` when the raw candidate count exceeds
    ``budget``.  The result is sorted.  Works for any family, and is
    the reference the multigraph search is tested against.
    """
    if budget < 1:
        raise InputError("budget must be at least 1")
    columns = family.ground
    ends = [family.gamma[g] for g in columns]
    r = _rank(_column_rows(ends))
    total = math.comb(len(columns), r)
    if total > budget:
        raise InstanceTooLargeError(
            f"{total} candidate supports exceed the budget of {budget}"
        )
    masks = [sum(1 << k for k in e) for e in ends]
    full = sum(1 << b.index for b in family.blocks)
    found: set[tuple[tuple[int, Fraction], ...]] = set()
    for combo in combinations(range(len(columns)), r):
        covered = 0
        for i in combo:
            covered |= masks[i]
        if covered != full:
            continue
        support = tuple(columns[i] for i in combo)
        x = _solve_all_ones(_column_rows([ends[i] for i in combo]), r)
        if x is not None and all(v >= 0 for v in x):
            found.add(tuple((g, v) for g, v in zip(support, x) if v != 0))
    vertices = (WeightFunction._trusted(dict(items)) for items in found)
    return tuple(sorted(vertices, key=lambda w: w.sort_key()))


def _column_rows(columns: Sequence[Sequence[int]]) -> list[Row]:
    """The sparse rows of the 0/1 matrix whose column ``c`` has ones at
    the rows ``columns[c]``; rows meeting no column are left out."""
    rows: dict[int, Row] = {}
    for c, ends in enumerate(columns):
        for r in ends:
            rows.setdefault(r, {})[c] = ONE
    return list(rows.values())


def column_rank(columns: Sequence[Sequence[int]]) -> int:
    """Rank of the 0/1 matrix whose column ``c`` has ones at the rows
    ``columns[c]``: from the frame matroid core (:func:`graphs.frame_rank`)
    when every column meets at most two rows, else from the sparse kernel."""
    if max(map(len, columns), default=0) <= 2:
        return frame_rank(columns)
    return _rank(_column_rows(columns))


def is_vertex(family: SetFamily, w: WeightFunction) -> bool:
    """Whether a stochastic weight function is a vertex of the polytope.

    Holds exactly when the block-sum columns of its support are linearly
    independent (:func:`column_rank`).
    """
    require_stochastic(family, w)
    return column_rank([family.gamma[g] for g in w.support]) == len(w.support)


def _step(numerators: dict[int, int], scale: int, circuit: dict[int, int]) -> int:
    """Move a point along an integer circuit until a value reaches zero.

    The point is ``numerators`` over ``scale``, keyed by element, and is
    moved in place; zeroed elements are deleted.  The step is the least
    ``numerators[c] / -circuit[c]`` over the circuit's negative entries,
    found by cross-multiplication.  When that ratio, in lowest terms
    p/q, does not make every ``p * circuit[c] / q`` an integer, every
    numerator and the scale are first multiplied by what q lacks, and
    afterwards divided by their greatest common divisor.  Returns the
    new scale.
    """
    p = q = 0
    for c, k in circuit.items():
        if k < 0 and (not q or numerators[c] * q < p * -k):
            p, q = numerators[c], -k
    d = math.gcd(p, q)
    p, q = p // d, q // d
    rescale = q // math.gcd(q, *circuit.values())
    if rescale > 1:
        for c in numerators:
            numerators[c] *= rescale
        scale *= rescale
    for c, k in circuit.items():
        value = numerators[c] + p * k * rescale // q
        if value:
            numerators[c] = value
        else:
            del numerators[c]
    if rescale > 1:
        d = math.gcd(scale, *numerators.values())
        if d > 1:
            for c in numerators:
                numerators[c] //= d
            scale //= d
    return scale


def _vertex_within(
    family: SetFamily, start: dict[int, int], scale: int
) -> tuple[dict[int, int], int]:
    """Walk from a stochastic point to a vertex without growing the support.

    The point is integer numerators over one common denominator
    ``scale``, in ascending label order, and so is the vertex returned.
    Each step moves along a circuit of the support's columns with
    :func:`_step`, so the support shrinks until its columns are
    independent.  The circuit is the one the first dependent column, in
    ascending order, closes with those before it: the one
    :func:`_kernel_vector` gives, scaled to integers.

    When every support element lies in at most two blocks, one
    :class:`graphs._FrameForest` serves the whole walk.  The columns
    before the first dependent one are independent and a step only
    zeroes some of them, so they stay independent: the zeroed ones are
    removed from the forest, and the walk resumes adding columns at the
    old first dependent one.  Otherwise each step solves the support
    again with the sparse kernel.
    """
    gamma = family.gamma
    current = dict(start)
    order = list(current)
    if max((len(gamma[g]) for g in order), default=0) > 2:
        while True:
            x = _kernel_vector(_column_rows([gamma[g] for g in order]), len(order))
            if x is None:
                return current, scale
            d = math.lcm(*(v.denominator for v in x))
            circuit = {g: v.numerator * (d // v.denominator) for g, v in zip(order, x) if v}
            scale = _step(current, scale, circuit)
            order = list(current)
    forest = _FrameForest()
    i = 0
    while i < len(order):
        g = order[i]
        if g not in current or forest.add(g, gamma[g]):
            i += 1
            continue
        circuit = forest.circuit(g, gamma[g])
        scale = _step(current, scale, circuit)
        for c in circuit:
            if c != g and c not in current:
                forest.remove(c, gamma[c])
    return current, scale


@dataclass(frozen=True)
class Decomposition:
    """A convex combination of vertices, largest coefficient first."""

    terms: tuple[tuple[Fraction, WeightFunction], ...]

    def combined(self) -> WeightFunction:
        return _combination(self.terms)


def decompose(family: SetFamily, w: WeightFunction) -> Decomposition:
    """Write a stochastic weight function as a convex combination of vertices.

    Peels off one vertex at a time, shrinking the support at every step,
    until the walk to a vertex (:func:`_vertex_within`) returns the point
    itself, whose support columns are then independent.
    Each peel removes from the point an element of the peeled vertex's
    support, and later vertices lie in the point's shrunken support, so
    every term holds an element that no later term holds.  The terms are
    therefore distinct and linearly independent, hence affinely
    independent: their number is at most one more than the dimension of
    the polytope, and no pruning is needed.  The result recombines to
    the input exactly.
    """
    require_stochastic(family, w)
    terms: list[tuple[Fraction, WeightFunction]] = []
    coef = ONE
    scale = _common_denominator(w)
    current = _numerators(w, scale)
    for _ in range(len(family.ground) + 2):
        vertex, vscale = _vertex_within(family, current, scale)
        if len(vertex) == len(current):
            terms.append((coef, _from_numerators(current, scale)))
            break
        # t = min current(g) / vertex(g) = a / b, by cross-multiplication
        a = b = 0
        for g, n in vertex.items():
            if not b or current[g] * vscale * b < a * n * scale:
                a, b = current[g] * vscale, n * scale
        if a >= b:
            raise InternalPropertyError("peeling step did not reduce the point")
        t = Fraction(a, b)
        a, b = t.numerator, t.denominator
        terms.append((coef * t, _from_numerators(vertex, vscale)))
        # (current - t * vertex) / (1 - t), over scale * vscale * (b - a)
        current = {
            g: value
            for g, n in current.items()
            if (value := b * vscale * n - a * scale * vertex.get(g, 0))
        }
        scale *= vscale * (b - a)
        d = math.gcd(scale, *current.values())
        current = {g: n // d for g, n in current.items()}
        scale //= d
        coef = coef * (ONE - t)
    else:
        raise DepthExceededError("vertex peeling did not terminate")
    total = sum(c for c, _ in terms)
    recombined = Decomposition(terms=tuple(terms)).combined()
    if total != 1 or recombined != w or any(c <= 0 for c, _ in terms):
        raise InternalPropertyError("decomposition does not recombine to the input")
    terms.sort(key=lambda cw: (-cw[0], cw[1].sort_key()))
    return Decomposition(terms=tuple(terms))


@dataclass(frozen=True)
class CrossValidation:
    """Agreement report between the enumeration and the classifier."""

    vertex_count: int
    samples_checked: int
    discrepancies: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.discrepancies


def cross_validate(
    family: SetFamily,
    samples: int = 5,
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> CrossValidation:
    """Check the classifier against exhaustive enumeration on one family.

    Every vertex must be classified extreme and random strict mixtures of
    distinct vertices non-extreme, with a witness that averages back; the
    classifier checks each point and builds its support graph once.
    """
    from . import extremality

    if samples < 0:
        raise InputError("samples must be nonnegative")
    if max_multiplicity(family) > 2:
        raise ConditionsViolatedError(
            "cross validation compares against the classifier,"
            " which needs every multiplicity at most two"
        )
    vertices = enumerate_vertices(family, budget=budget)
    discrepancies: list[str] = []
    for v in vertices:
        verdict = extremality.classify_extreme(family, v)
        if verdict.kind != "extreme":
            discrepancies.append(f"vertex {dict(v.items())} classified {verdict.kind}")
    rng = random.Random(seed)
    samples_checked = 0
    if len(vertices) >= 2:
        for _ in range(samples):
            count = rng.randint(2, min(len(vertices), 4))
            picked = [vertices[i] for i in sorted(rng.sample(range(len(vertices)), count))]
            raw = [Fraction(rng.randint(1, 9)) for _ in picked]
            total = sum(raw)
            mix = _combination((lam / total, v) for lam, v in zip(raw, picked))
            samples_checked += 1
            if column_rank([family.gamma[g] for g in mix.support]) == len(mix.support):
                discrepancies.append(f"mixture {dict(mix.items())} is a vertex")
                continue
            verdict = extremality.classify_extreme(family, mix)
            if verdict.kind != "not_extreme":
                discrepancies.append(
                    f"mixture {dict(mix.items())} classified {verdict.kind}"
                )
                continue
            witness = verdict.witness
            if witness is None:
                discrepancies.append(f"mixture {dict(mix.items())} has no witness")
                continue
            midpoint = _combination(((HALF, witness.w_plus), (HALF, witness.w_minus)))
            if midpoint != mix or witness.w_plus == witness.w_minus:
                discrepancies.append(
                    f"witness for mixture {dict(mix.items())} does not average back"
                )
                continue
            for half in (witness.w_plus, witness.w_minus):
                report = classify_membership(family, half)
                if not (report.nonnegative and report.stochastic):
                    discrepancies.append(
                        f"witness half {dict(half.items())} leaves the polytope"
                    )
    return CrossValidation(
        vertex_count=len(vertices),
        samples_checked=samples_checked,
        discrepancies=tuple(discrepancies),
    )


def sup_block_norm(family: SetFamily, w: WeightFunction) -> Fraction:
    """The largest absolute block sum, over all blocks; support labels
    outside the ground set lie in no block."""
    scale = _common_denominator(w)
    gamma = family.gamma
    numerators = {g: abs(n) for g, n in _numerators(w, scale).items() if g in gamma}
    return Fraction(max(_block_sums(numerators, gamma).values(), default=0), scale)


def support_width(family: SetFamily, w: WeightFunction) -> int:
    """The largest number of support elements any block contains."""
    supp = set(w.support)
    return max((len(supp & b.member_set) for b in family.blocks), default=0)
