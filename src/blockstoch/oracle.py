"""Exact enumeration of the vertices of the weight polytope.

The admissible weight functions of a finite family form a bounded
polytope: one equality per block plus nonnegativity.  A stochastic
point is a vertex exactly when the block-sum columns of its support are
linearly independent.

Two enumerations share that definition.  When every multiplicity is at
most two, the family is the block multigraph H of :mod:`graphs`, shared
with :func:`graphs.bipartition`, and the vertices are read off its exact
covers by edges, half-edges and odd cycles (the half-integrality of the
fractional matching polytope).  Otherwise a pivot search over
independent column sets (:func:`basis_vertices`) reads each vertex off
the all-ones system: it branches on the unresolved block that the
fewest candidate columns meet, so each support is reached once, and a
one-row sign test skips the states below which no vertex lies.  The
search needs no structure at all, so it also serves as the reference
the multigraph search and the structural classifier are tested
against.

Everything here is exact.  Every rank and circuit question goes to
one column kernel chosen by :func:`_kernel`, which takes, rejects and
gives up 0/1 columns one at a time and solves the circuit a rejected
column closes.  When every column meets at most two rows it is an
incidence column of a multigraph, and the kernel is the frame forest
of :mod:`graphs` (:class:`graphs._FrameForest`), with no row reduction.
Otherwise it is one fraction-free integer elimination
(:class:`_Elimination`) of sparse vectors keyed by block, in row-echelon
form: while a column's largest key is a pivot, it is cleared with that
pivot's vector, which holds only smaller keys, so the loop ends at a
block that is no pivot or at a coefficient, a dependent column.  The
pivot search makes the same row operations (:func:`_combine`) on the
all-ones vector and on every candidate column, not on one basis.
Ranks, the circuit a dependent column closes and the solution of the
all-ones system are unique, so the kernel and its pivot choice change
no vertex and no decomposition.

:func:`decompose` and its vertex walk (:func:`_vertex_within`) keep
the point as integer numerators over one common denominator and move it
with one :func:`_step`.  The walk steps along integer circuits from one
kernel kept for the whole walk, which gives up the columns each step
zeroes.  Each peel steps away from the vertex reached.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

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
from .graphs import _FrameForest, block_multigraph, two_color

DEFAULT_BUDGET = 1 << 20


def _combine(d: int, v: dict[int, int], f: int, w: dict[int, int]) -> dict[int, int]:
    """The row operation ``d·v − f·w``, divided by the gcd of its entries."""
    out = v.copy() if d == 1 else {k: d * x for k, x in v.items()}
    for k, y in w.items():
        x = out.get(k, 0) - f * y
        if x:
            out[k] = x
        else:
            del out[k]
    g = math.gcd(*out.values())
    return {k: x // g for k, x in out.items()} if g > 1 else out


class _Elimination:
    """Fraction-free elimination of 0/1 columns, taken one at a time.

    It answers :meth:`add`, :meth:`circuit` and :meth:`remove` as
    :class:`graphs._FrameForest` does, for columns that meet any number
    of rows.  Column ``c``, a non-negative id, with ones at the blocks
    ``ends`` is the sparse integer vector with a one at each block
    ``b >= 0`` and at its own coefficient key ``~c``; the negative keys
    are coefficients that express a reduced vector in the columns it
    came from.  A row operation is ``d·v − f·w`` (``d`` the pivot entry
    of the basis vector ``w``, ``f`` the entry of ``v`` there) divided
    by the gcd of its entries, after Bareiss, so entries stay small
    integers.

    The basis maps each pivot, its vector's largest block, to that
    vector, in the order taken.  :meth:`reduce` is row-echelon
    reduction: while a column's largest key is a pivot, that key is
    cleared with the pivot's vector, which brings in only smaller keys.
    It stops at a block that is no pivot, the column's own pivot, or at
    a coefficient key, when the column depends on those taken.  The
    basis order is a stack, since each vector was reduced only by those
    below it: ``taken`` lists the columns in that order, ``pending``
    those a removal popped, taken again before the next add, and
    ``rejected`` the last column rejected with its reduced vector.
    """

    def __init__(self) -> None:
        self.basis: dict[int, dict[int, int]] = {}
        self.taken: list[tuple[int, Sequence[int]]] = []
        self.pending: list[tuple[int, Sequence[int]]] = []
        self.rejected: tuple[int, dict[int, int]] | None = None

    def reduce(self, v: dict[int, int]) -> dict[int, int]:
        """``v`` with its leading keys cleared until the largest is no
        pivot; ``v`` itself is kept."""
        while (p := max(v)) in self.basis:
            w = self.basis[p]
            v = _combine(w[p], v, v[p], w)
        return v

    def add(self, column: int, ends: Sequence[int]) -> bool:
        """Take the column if it is independent of those taken; say whether."""
        if self.pending:
            pending, self.pending = self.pending, []
            for c, e in pending:
                self.add(c, e)
        v = dict.fromkeys(ends, 1)
        v[~column] = 1
        v = self.reduce(v)
        p = max(v)
        if p < 0:
            self.rejected = (column, v)
            return False
        self.basis[p] = v
        self.taken.append((column, ends))
        return True

    def circuit(self, column: int, ends: Sequence[int]) -> dict[int, int]:
        """The circuit the column :meth:`add` just rejected closes with the
        taken columns, by column: integers with no common divisor and
        that column positive, read off its reduced vector."""
        _, v = self.rejected
        sign = 1 if v[~column] > 0 else -1
        return {~c: sign * a for c, a in v.items()}

    def remove(self, column: int, ends: Sequence[int]) -> None:
        """Give up a taken column: the basis pops back to it, and the
        columns taken after it are taken again before the next add, so
        that the removals of one step take each of them again once."""
        kept = [(c, e) for c, e in self.pending if c != column]
        if len(kept) < len(self.pending):
            self.pending = kept
            return
        while True:
            self.basis.popitem()
            c, e = self.taken.pop()
            if c == column:
                break
            self.pending.insert(0, (c, e))


def _kernel(ends: Iterable[Sequence[int]]) -> _FrameForest | _Elimination:
    """The column kernel for 0/1 columns with ones at ``ends``: the frame
    forest of H when every column meets at most two rows, else the
    integer elimination.  Both answer add, circuit and remove alike."""
    if max(map(len, ends), default=0) <= 2:
        return _FrameForest()
    return _Elimination()


def _tick(nodes: int, budget: int, found: list[WeightFunction]) -> int:
    """One more node of either vertex search: ``nodes + 1``, or the
    refusal once that passes ``budget``."""
    nodes += 1
    if nodes > budget:
        raise InstanceTooLargeError(
            f"vertex search exceeded the budget of {budget} search nodes:"
            f" {nodes} visited, {len(found)} found"
        )
    return nodes


def enumerate_vertices(
    family: SetFamily, budget: int = DEFAULT_BUDGET
) -> tuple[WeightFunction, ...]:
    """All vertices of the polytope of stochastic weight functions.

    When every multiplicity is at most two, a backtracking search over
    the block multigraph lists the vertices directly, and a search node
    is a piece placed or a cycle-search step.  Otherwise
    :func:`basis_vertices` runs its pivot search, and a search node is
    a pivot.  Either way ``budget`` bounds the search nodes visited:
    past it ``InstanceTooLargeError`` says how many were visited and how
    many vertices found.  The result is sorted.
    """
    if budget < 1:
        raise InputError("budget must be at least 1")
    if max_multiplicity(family) <= 2:
        return _CoverSearch(family, budget).vertices()
    return basis_vertices(family, budget=budget)


class _CoverSearch:
    """Vertex enumeration on the block multigraph H of a family with κ ≤ 2.

    H is the one built by :func:`graphs.block_multigraph`: the blocks
    are its nodes, keyed by index, and an element in two blocks is an
    edge; an element in one block is a half-edge, read off
    ``family.gamma`` here.  At a vertex the support columns are
    independent and every block sums to one with positive values.  A
    support component with k blocks therefore has at most k elements:
    it is a tree, plus at most one half-edge or one edge closing an odd
    cycle (an even cycle's columns are dependent).  A block met by a
    single support element forces it to 1 and every other element at
    its far end to 0, so a component with such a block is one edge or
    one half-edge.  Every other component is an odd cycle (length at
    least three) at 1/2.  Conversely every exact cover of the blocks by
    such pieces is a vertex.

    The search takes the lowest uncovered block and tries every piece
    through it over uncovered blocks, so each cover is reached once;
    cycles are taken in one direction, and are not sought at all when
    :func:`graphs.two_color` shows H bipartite.  Block sets are masks
    with one bit per block index.  Both searches keep explicit stacks,
    so long rings do not reach the interpreter's recursion limit.
    """

    def __init__(self, family: SetFamily, budget: int):
        self.edges = block_multigraph(family)
        self.halves: dict[int, list[int]] = {k: [] for k in self.edges}
        for g in family.ground:
            if len(family.gamma[g]) == 1:
                self.halves[family.gamma[g][0]].append(g)
        self.full = sum(1 << k for k in self.edges)
        self.odd = two_color(self.edges) is None
        self.budget = budget
        self.nodes = 0
        self.found: list[WeightFunction] = []

    def vertices(self) -> tuple[WeightFunction, ...]:
        covered = 0
        chosen: list[tuple[int, tuple[int, ...], Fraction]] = []
        stack = [self._pieces(0)]
        while stack:
            piece = next(stack[-1], None)
            if piece is None:
                stack.pop()
                if chosen:
                    covered &= ~chosen.pop()[0]
                continue
            self.nodes = _tick(self.nodes, self.budget, self.found)
            chosen.append(piece)
            covered |= piece[0]
            if covered == self.full:
                self.found.append(
                    WeightFunction._trusted({g: v for _, gs, v in chosen for g in gs})
                )
                covered &= ~chosen.pop()[0]
            else:
                stack.append(self._pieces(covered))
        return tuple(sorted(self.found, key=lambda w: w.sort_key()))

    def _pieces(self, covered: int):
        """Every piece through the lowest uncovered block: (block mask, elements, value)."""
        free = self.full & ~covered
        b = (free & -free).bit_length() - 1
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
                    self.nodes = _tick(self.nodes, self.budget, self.found)
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
    """All vertices, by a pivot search over independent column sets.

    A vertex is the positive solution of the all-ones system on
    independent columns, its support.  The search keeps the all-ones
    vector, with coefficient key ``~n``, and every candidate column
    reduced with :func:`_combine` against the columns chosen so far,
    and :func:`_branches` picks the next column to pivot in.  A state
    below which :func:`_may_reach_vertex` rules out every vertex is not
    expanded.  Once the reduced all-ones vector has no block entry left,
    the chosen columns span it, and the point they give is a vertex
    exactly when every chosen column's coefficient has the sign opposite
    to the all-ones coefficient's.  That is checked on integers, so only
    vertices are built as ``Fraction``s, and since each support is
    reached once, no point is built twice and no set of found points is
    kept.
    Each state taken off the stack, one pivot, is a search node, and
    past ``budget`` of them :func:`_tick` raises
    ``InstanceTooLargeError``.  The result is sorted.  Works for any
    family.
    """
    if budget < 1:
        raise InputError("budget must be at least 1")
    columns = family.ground
    ends = [family.gamma[g] for g in columns]
    ones = ~len(columns)  # the key of the all-ones vector's coefficient
    residual = {**{b.index: 1 for b in family.blocks}, ones: 1}
    candidates = [(c, {**dict.fromkeys(e, 1), ~c: 1}) for c, e in enumerate(ends)]
    found: list[WeightFunction] = []
    nodes = 0
    stack = [_branches(residual, candidates, ())]
    while stack:
        state = next(stack[-1], None)
        if state is None:
            stack.pop()
            continue
        nodes = _tick(nodes, budget, found)
        residual, candidates, chosen = state
        if max(residual) >= 0:
            if _may_reach_vertex(residual, candidates, chosen, residual[ones]):
                stack.append(_branches(residual, candidates, chosen))
            continue
        # e * ones + sum of a_c * column c = 0, so x_c = -a_c / e, and the
        # point is a vertex when every chosen column's a_c is nonzero
        # with the sign opposite to e's
        e = residual.pop(ones)
        if len(residual) == len(chosen) and all(a * e < 0 for a in residual.values()):
            found.append(
                _from_numerators({columns[~c]: -a for c, a in residual.items()}, e)
            )
    return tuple(sorted(found, key=lambda w: w.sort_key()))


def _branches(
    residual: dict[int, int],
    candidates: list[tuple[int, dict[int, int]]],
    chosen: tuple[int, ...],
):
    """The search states one pivot below a state of :func:`basis_vertices`.

    ``residual`` is the all-ones vector and ``candidates`` the columns
    still open, by column id, both reduced against the ``chosen``
    columns; each branch yields the three again.  The columns of a
    support below this state that are not chosen yet must clear every
    block where the residual is nonzero, so at each such block one of
    them is a candidate nonzero there.  The block
    taken is the one the fewest candidates meet, the lowest on ties
    (the "fewest options first" rule of Knuth's Algorithm X).  There is
    one branch per candidate nonzero at that block, in ascending order,
    and each drops the candidates before it, so the branch taken toward
    a support is the one on its first column there: each support is
    reached once.  A branch pivots its column in at the block: the
    residual and the later candidates nonzero there are cleared with
    its vector, and a candidate left with no block entry, spanned by
    the chosen columns, is dropped, as a support's columns are
    independent.  Once the chosen columns span the all-ones vector,
    they are the whole support of any vertex below, since its values
    are positive and its columns independent.
    """
    meets = Counter(chain.from_iterable(v for _, v in candidates))
    b = min((k for k in residual if k >= 0), key=lambda k: (meets[k], k))
    options, others = [], []
    for c, v in candidates:
        (options if b in v else others).append((c, v))
    options.sort()  # by column: the ids differ, so no vectors are compared
    for t, (c, w) in enumerate(options):
        d = w[b]
        rest = others.copy()
        for c2, v in options[t + 1 :]:
            v = _combine(d, v, v[b], w)
            if max(v) >= 0:
                rest.append((c2, v))
        yield _combine(d, residual, residual[b], w), rest, (*chosen, c)


def _may_reach_vertex(
    residual: dict[int, int],
    candidates: list[tuple[int, dict[int, int]]],
    chosen: tuple[int, ...],
    e: int,
) -> bool:
    """Whether a vertex may lie below a search state: one sign test per
    row of the reduced system, a necessary condition in the manner of
    Farkas' lemma.

    A vertex below adds candidates t to the chosen columns, each with a
    value ``x_t > 0``.  Its reduced all-ones vector is, up to a factor,
    ``residual − Σ μ_t·v_t`` with no block entry left, where ``v_t`` is
    t's vector, ``o_t`` its entry at t's own key ``~t``, ``e`` the
    all-ones coefficient and ``μ_t = x_t·e / o_t``, and a chosen column
    c has the value ``−(residual[~c] − Σ μ_t·v_t[~c]) / e``.  So a block b
    where the residual is nonzero needs a candidate with ``o_t·v_t[b]``
    of the sign of ``e·residual[b]``, and a chosen column whose value
    at the residual alone, ``−residual[~c] / e``, is not positive needs
    a candidate with ``o_t·v_t[~c] > 0``.  A state that fails either
    test holds no vertex.
    """
    # need[k]: whether some candidate's o_t·v_t[k] must be positive
    # (True) or negative (False)
    need = {k: e * x > 0 for k, x in residual.items() if k >= 0}
    for c in chosen:
        if residual.get(~c, 0) * e >= 0:
            need[~c] = True
    for t, v in candidates:
        o = v[~t]
        for k in need.keys() & v.keys():
            if (o * v[k] > 0) is need[k]:
                del need[k]
        if not need:
            return True
    return False


def column_rank(columns: Sequence[Sequence[int]]) -> int:
    """Rank of the 0/1 matrix whose column ``c`` has ones at the rows
    ``columns[c]``, taking the columns into one :func:`_kernel`."""
    kernel = _kernel(columns)
    return sum(kernel.add(c, e) for c, e in enumerate(columns))


def _first_circuit(ends: Sequence[Sequence[int]]) -> dict[int, int] | None:
    """The circuit the first dependent column, in ascending order, closes
    with those before it, from one :func:`_kernel`, or None when every
    column is independent: the first kernel vector of the columns, in
    integers with no common divisor and that column positive."""
    kernel = _kernel(ends)
    for c, e in enumerate(ends):
        if not kernel.add(c, e):
            return kernel.circuit(c, e)
    return None


def is_vertex(family: SetFamily, w: WeightFunction) -> bool:
    """Whether a stochastic weight function is a vertex of the polytope.

    Holds exactly when the block-sum columns of its support are linearly
    independent (:func:`column_rank`).
    """
    support = require_stochastic(family, w)[0]
    return column_rank([family.gamma[g] for g in support]) == len(support)


def _step(
    numerators: dict[int, int], scale: int, direction: dict[int, int]
) -> tuple[int, int, int]:
    """Move a point along an integer direction until a value reaches zero.

    The point is ``numerators`` over ``scale``, keyed by element, and is
    moved in place; zeroed elements are deleted.  The step is the least
    ``numerators[c] / -direction[c]`` over the direction's negative
    entries, found by cross-multiplication.  When that ratio, in lowest
    terms p/q, does not make every ``p * direction[c] / q`` an integer,
    every numerator and the scale are first multiplied by what q lacks,
    and afterwards divided by their greatest common divisor.  Returns
    the new scale, p and q.
    """
    p = q = 0
    for c, k in direction.items():
        if k < 0 and (not q or numerators[c] * q < p * -k):
            p, q = numerators[c], -k
    d = math.gcd(p, q)
    p, q = p // d, q // d
    rescale = q // math.gcd(q, *direction.values())
    if rescale > 1:
        for c in numerators:
            numerators[c] *= rescale
        scale *= rescale
    for c, k in direction.items():
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
    return scale, p, q


def _vertex_within(
    family: SetFamily, start: dict[int, int], scale: int
) -> tuple[dict[int, int], int]:
    """Walk from a stochastic point to a vertex without growing the support.

    The point is integer numerators over one common denominator
    ``scale``, in ascending label order, and so is the vertex returned.
    Each step moves along a circuit of the support's columns with
    :func:`_step`, so the support shrinks until its columns are
    independent.  The circuit is the one the first dependent column, in
    ascending order, closes with those before it, in integers with no
    common divisor and that column positive.

    One :func:`_kernel` serves the whole walk.  The columns before the
    first dependent one are independent and a step only zeroes some of
    them, so they stay independent: the zeroed ones are removed from the
    kernel, and the walk resumes adding columns at the old first
    dependent one.
    """
    gamma = family.gamma
    current = dict(start)
    order = list(current)
    kernel = _kernel(gamma[g] for g in order)
    i = 0
    while i < len(order):
        g = order[i]
        if g not in current or kernel.add(g, gamma[g]):
            i += 1
            continue
        circuit = kernel.circuit(g, gamma[g])
        scale, _, _ = _step(current, scale, circuit)
        for c in circuit:
            if c != g and c not in current:
                kernel.remove(c, gamma[c])
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
    itself, whose support columns are then independent.  A peel,
    ``(current - t * vertex) / (1 - t)``, is one :func:`_step` from the
    point away from the vertex, whose ratio p/q is t/(1 - t).
    Each peel removes from the point an element of the peeled vertex's
    support, and later vertices lie in the point's shrunken support, so
    every term holds an element that no later term holds.  The terms are
    therefore distinct and linearly independent, hence affinely
    independent: their number is at most one more than the dimension of
    the polytope, and no pruning is needed.  The result recombines to
    the input exactly.
    """
    current, scale = require_stochastic(family, w)
    terms: list[tuple[Fraction, WeightFunction]] = []
    coef = ONE
    for _ in range(len(family.ground) + 2):
        vertex, vscale = _vertex_within(family, current, scale)
        if len(vertex) == len(current):
            terms.append((coef, _from_numerators(current, scale)))
            break
        away = {g: n * vscale - vertex.get(g, 0) * scale for g, n in current.items()}
        if min(away.values()) >= 0:
            raise InternalPropertyError("peeling step did not reduce the point")
        current = {g: n * vscale for g, n in current.items()}
        scale, p, q = _step(current, scale * vscale, away)
        d = math.gcd(scale, *current.values())
        current = {g: n // d for g, n in current.items()}
        scale //= d
        terms.append((coef * Fraction(p, p + q), _from_numerators(vertex, vscale)))
        coef = coef * Fraction(q, p + q)
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
    classifier checks each point, builds no support graph, and builds
    the block multigraph H only of a point's first offending component.
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
                if not classify_membership(family, half).stochastic:
                    discrepancies.append(
                        f"witness half {dict(half.items())} leaves the polytope"
                    )
    return CrossValidation(
        vertex_count=len(vertices),
        samples_checked=samples_checked,
        discrepancies=tuple(discrepancies),
    )


def sup_block_norm(family: SetFamily, w: WeightFunction) -> Fraction:
    """The largest sum of absolute values over a block, over all blocks;
    support labels outside the ground set lie in no block."""
    scale = _common_denominator(w)
    gamma = family.gamma
    numerators = {g: abs(n) for g, n in _numerators(w, scale).items() if g in gamma}
    return Fraction(max(_block_sums(numerators, gamma).values(), default=0), scale)


def support_width(family: SetFamily, w: WeightFunction) -> int:
    """The largest number of support elements any block contains."""
    supp = set(w.support)
    return max((len(supp & b.member_set) for b in family.blocks), default=0)
