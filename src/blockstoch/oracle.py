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

Everything here runs over exact rationals, through one sparse
elimination kernel (:func:`_rref`) that the extension code shares.  A
row is a dict from column to its nonzero value, and a column index
(column -> rows holding it) lets each pivot touch only the rows that
hold its column; on the block-incidence matrices of long rings and
paths the work stays close to the number of nonzeros.  Which row serves
as a pivot is a matter of fill only: the reduced row echelon form is
unique, so pivot columns, reduced rows, kernel vectors, vertices and
decompositions come out the same whatever the choice.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import (
    ConditionsViolatedError,
    DepthExceededError,
    InputError,
    InstanceTooLargeError,
    InternalPropertyError,
)
from .family import (
    SetFamily,
    WeightFunction,
    classify_membership,
    max_multiplicity,
    require_stochastic,
)
from .graphs import block_multigraph, two_color

DEFAULT_BUDGET = 1 << 20
ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)

Row = dict[int, Fraction]


def _block_rows(family: SetFamily, columns: tuple[int, ...]) -> list[Row]:
    """One sparse 0/1 row per block over the positions of ``columns``."""
    position = {g: i for i, g in enumerate(columns)}
    return [
        {position[g]: ONE for g in b.members if g in position}
        for b in family.blocks
    ]


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


def _solve_chunk(args):
    member_lists, columns, combos = args
    out = []
    for combo in combos:
        position = {columns[i]: j for j, i in enumerate(combo)}
        rows = [
            {position[g]: ONE for g in members if g in position}
            for members in member_lists
        ]
        x = _solve_all_ones(rows, len(combo))
        if x is not None and all(v >= 0 for v in x):
            out.append(tuple((columns[i], v) for i, v in zip(combo, x) if v != 0))
    return out


def enumerate_vertices(
    family: SetFamily, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> tuple[WeightFunction, ...]:
    """All vertices of the polytope of stochastic weight functions.

    When every multiplicity is at most two, a backtracking search over
    the block multigraph lists the vertices directly; ``budget`` then
    bounds the search nodes visited (pieces placed plus cycle-search
    steps) and ``jobs`` is unused.  Otherwise :func:`basis_vertices`
    solves every candidate support, and ``budget`` bounds the raw
    candidate count before any work starts.  Either way an exhausted
    budget raises ``InstanceTooLargeError``, and the result is sorted
    and independent of ``jobs``.
    """
    if jobs < 1:
        raise InputError("jobs must be at least 1")
    if budget < 1:
        raise InputError("budget must be at least 1")
    if max_multiplicity(family) <= 2:
        return _CoverSearch(family, budget).vertices()
    return basis_vertices(family, budget=budget, jobs=jobs)


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
                    WeightFunction({g: v for _, gs, v in chosen for g in gs})
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
    family: SetFamily, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> tuple[WeightFunction, ...]:
    """All vertices, by solving every candidate support exactly.

    Candidate supports are the rank-sized column subsets that touch
    every block; each is solved exactly and kept when the unique
    solution is nonnegative.  Raises ``InstanceTooLargeError`` when the
    raw candidate count exceeds ``budget``.  ``jobs`` worker processes
    share the candidates; the result is sorted and independent of
    ``jobs``.  Works for any family, and is the reference the multigraph
    search is tested against.
    """
    if jobs < 1:
        raise InputError("jobs must be at least 1")
    if budget < 1:
        raise InputError("budget must be at least 1")
    columns = family.ground
    rows = _block_rows(family, columns)
    r = _rank(rows)
    total = math.comb(len(columns), r)
    if total > budget:
        raise InstanceTooLargeError(
            f"{total} candidate supports exceed the budget of {budget}"
        )
    masks = []
    for g in columns:
        mask = 0
        for pos, b in enumerate(family.blocks):
            if g in b.member_set:
                mask |= 1 << pos
        masks.append(mask)
    full = (1 << len(family.blocks)) - 1
    candidates = [
        combo
        for combo in combinations(range(len(columns)), r)
        if _or_all(masks, combo) == full
    ]
    member_lists = tuple(b.members for b in family.blocks)
    found: dict[tuple, WeightFunction] = {}
    if jobs == 1 or len(candidates) < 64:
        chunks = [(member_lists, columns, candidates)]
        results = map(_solve_chunk, chunks)
    else:
        step = max(1, math.ceil(len(candidates) / (jobs * 4)))
        chunks = [
            (member_lists, columns, candidates[i : i + step])
            for i in range(0, len(candidates), step)
        ]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_solve_chunk, chunks))
    for chunk_result in results:
        for items in chunk_result:
            if items not in found:
                found[items] = WeightFunction(dict(items))
    return tuple(sorted(found.values(), key=lambda w: w.sort_key()))


def _or_all(masks: list[int], combo: tuple[int, ...]) -> int:
    acc = 0
    for i in combo:
        acc |= masks[i]
    return acc


def is_vertex(family: SetFamily, w: WeightFunction) -> bool:
    """Whether a stochastic weight function is a vertex of the polytope.

    Holds exactly when the block-sum columns of its support are linearly
    independent.
    """
    require_stochastic(family, w)
    supp = w.support
    rows = _block_rows(family, supp)
    return _rank(rows) == len(supp)


def _vertex_within(family: SetFamily, start: WeightFunction) -> WeightFunction:
    """Walk from a stochastic point to a vertex without growing the support."""
    current = start
    for _ in range(len(family.ground) + 2):
        supp = current.support
        rows = _block_rows(family, supp)
        kernel = _kernel_vector(rows, len(supp))
        if kernel is None:
            return current
        direction = WeightFunction(
            {g: kv for g, kv in zip(supp, kernel) if kv != 0}
        )
        step = min(-current(g) / dv for g, dv in direction.items() if dv < 0)
        current = current + direction.scaled(step)
    raise DepthExceededError("vertex walk did not terminate")


@dataclass(frozen=True)
class Decomposition:
    """A convex combination of vertices, largest coefficient first."""

    terms: tuple[tuple[Fraction, WeightFunction], ...]

    def combined(self) -> WeightFunction:
        acc = WeightFunction.zero()
        for coef, vertex in self.terms:
            acc = acc + vertex.scaled(coef)
        return acc


def decompose(family: SetFamily, w: WeightFunction) -> Decomposition:
    """Write a stochastic weight function as a convex combination of vertices.

    Peels off one vertex at a time, shrinking the support at every step,
    then prunes affine dependencies so the number of terms is at most
    one more than the dimension of the polytope.  The result recombines
    to the input exactly.
    """
    require_stochastic(family, w)
    terms: list[tuple[Fraction, WeightFunction]] = []
    coef = Fraction(1)
    current = w
    for _ in range(len(family.ground) + 2):
        supp = current.support
        if _rank(_block_rows(family, supp)) == len(supp):
            terms.append((coef, current))
            break
        vertex = _vertex_within(family, current)
        t = min(current(g) / vertex(g) for g in vertex.support)
        if t >= 1:
            raise InternalPropertyError("peeling step did not reduce the point")
        terms.append((coef * t, vertex))
        current = (current - vertex.scaled(t)).scaled(1 / (Fraction(1) - t))
        coef = coef * (Fraction(1) - t)
    else:
        raise DepthExceededError("vertex peeling did not terminate")
    terms = _merge_duplicates(terms)
    terms = _prune_affine(terms)
    total = sum(c for c, _ in terms)
    recombined = Decomposition(terms=tuple(terms)).combined()
    if total != 1 or recombined != w or any(c <= 0 for c, _ in terms):
        raise InternalPropertyError("decomposition does not recombine to the input")
    terms.sort(key=lambda cw: (-cw[0], cw[1].sort_key()))
    return Decomposition(terms=tuple(terms))


def _merge_duplicates(
    terms: list[tuple[Fraction, WeightFunction]]
) -> list[tuple[Fraction, WeightFunction]]:
    merged: dict[WeightFunction, Fraction] = {}
    for coef, vertex in terms:
        merged[vertex] = merged.get(vertex, Fraction(0)) + coef
    return [(c, v) for v, c in merged.items() if c != 0]


def _prune_affine(
    terms: list[tuple[Fraction, WeightFunction]]
) -> list[tuple[Fraction, WeightFunction]]:
    while len(terms) > 1:
        rows: dict[int, Row] = {}
        for j, (_, v) in enumerate(terms):
            for g, value in v.items():
                rows.setdefault(g, {})[j] = value
        ones = dict.fromkeys(range(len(terms)), ONE)
        mu = _kernel_vector([*rows.values(), ones], len(terms))
        if mu is None:
            return terms
        theta = min(c / m for (c, _), m in zip(terms, mu) if m > 0)
        terms = [
            (c - theta * m, v)
            for (c, v), m in zip(terms, mu)
            if c - theta * m != 0
        ]
    return terms


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
    jobs: int = 1,
) -> CrossValidation:
    """Check the classifier against exhaustive enumeration on one family.

    Every enumerated vertex must be classified extreme, and random
    strict convex combinations of distinct vertices must be classified
    non-extreme with a witness that averages back to the sample.
    """
    from . import extremality

    if samples < 0:
        raise InputError("samples must be nonnegative")
    if max_multiplicity(family) > 2:
        raise ConditionsViolatedError(
            "cross validation compares against the classifier,"
            " which needs every multiplicity at most two"
        )
    vertices = enumerate_vertices(family, budget=budget, jobs=jobs)
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
            mix = WeightFunction.zero()
            for lam, v in zip(raw, picked):
                mix = mix + v.scaled(lam / total)
            samples_checked += 1
            if is_vertex(family, mix):
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
            midpoint = (witness.w_plus + witness.w_minus).scaled(Fraction(1, 2))
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
    """The largest absolute block sum, over all blocks."""
    best = Fraction(0)
    for b in family.blocks:
        s = sum((abs(w.value(g)) for g in b.members), Fraction(0))
        if s > best:
            best = s
    return best


def support_width(family: SetFamily, w: WeightFunction) -> int:
    """The largest number of support elements any block contains."""
    supp = set(w.support)
    return max((len(supp & b.member_set) for b in family.blocks), default=0)
