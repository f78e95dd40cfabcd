"""Deciding whether a stochastic weight function is an extreme point.

When every element lies in at most two blocks, extremality is purely
structural: each connected component of the support must be either a
single element carrying weight one or an odd primitive cycle carrying
one half everywhere.  Any other component admits an explicit
perturbation in two opposite directions, and the constructions here
build that pair of stochastic weight functions so callers can check
non-extremality by hand.  Each construction reads the point's own
integer numerators over its least common denominator and takes integer
steps over one scale; every witness is checked on those integers
before its halves are built, as numerators over that scale: both must
be stochastic, average back to the input, and differ.  The support is
read through its blocks, one breadth-first pass per component, and its
canonical cycles are the least cycles of the block multigraph H; an
element graph is built only for the checks of the public
cycle-attachment constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .errors import (
    ConditionsViolatedError,
    EvenCyclePresentError,
    InternalPropertyError,
    NotSimpleCycleError,
)
from .family import (
    SetFamily,
    WeightFunction,
    check_injectivity,
    max_multiplicity,
    require_stochastic,
)
from .family import _block_sums
from .graphs import (
    Path,
    _least_cycle,
    biconnected_components,
    block_multigraph,
    block_vertex_counts,
    build_graph,
    is_primitive,
    require_simple,
    shortest_primitive_cycle,
    two_color,
)
from .oracle import _first_circuit


@dataclass(frozen=True)
class Witness:
    """Two stochastic weight functions whose average is the classified one."""

    w_plus: WeightFunction
    w_minus: WeightFunction
    epsilon: Fraction
    slack: Fraction
    construction: str


@dataclass(frozen=True)
class Verdict:
    """Outcome of the classification: extreme, not extreme, or unsupported."""

    kind: str
    witness: Witness | None
    detail: str


def _headroom(num: dict[int, int], scale: int, labels: Iterable[int]) -> int:
    """How far all the given values sit from both 0 and 1, over ``scale``."""
    return min(min(num[g], scale - num[g]) for g in labels)


def _finish(
    family: SetFamily,
    base: dict[int, int],
    steps: dict[int, int],
    scale: int,
    epsilon: int,
    slack: int,
    construction: str,
) -> Witness:
    """The witness ``(base ± steps) / scale``, with ``epsilon`` and
    ``slack`` over ``scale`` too, checked on the integers before the
    halves are built from them: both are nonnegative with every block
    summing to ``scale``, average back to ``base`` and differ."""
    plus, minus = dict(base), dict(base)
    for g, step in steps.items():
        plus[g] = plus.get(g, 0) + step
        minus[g] = minus.get(g, 0) - step
    sums = [_block_sums(half, family.gamma) for half in (plus, minus)]
    if (
        min((*plus.values(), *minus.values()), default=0) < 0
        or any(s.get(b.index, 0) != scale for s in sums for b in family.blocks)
        or any(n + minus[g] != 2 * base.get(g, 0) for g, n in plus.items())
        or plus == minus
    ):
        raise InternalPropertyError(f"invalid {construction} witness")
    halves = WeightFunction._trusted(plus, scale), WeightFunction._trusted(minus, scale)
    return Witness(*halves, Fraction(epsilon, scale), Fraction(slack, scale), construction)


def construct_two_coloring(
    family: SetFamily, w: WeightFunction, vertices: Iterable[int]
) -> Witness:
    """Perturb along a subgraph meeting every block in zero or two elements.

    The subgraph must lie in the support and contain no odd primitive
    cycle.  Each component is two-colored and the full headroom of the
    involved values is added on one color and subtracted on the other,
    which cancels inside every block.  Each block the subgraph touches
    holds two of its elements, a pair that must get opposite colors, so
    the pairs are the edges of the induced subgraph; every cycle of them
    is primitive, and a pair inside one BFS color class is exactly an
    odd primitive cycle.
    """
    num, scale = require_stochastic(family, w)
    verts = tuple(sorted(set(vertices)))
    if not verts:
        raise ConditionsViolatedError("the subgraph has no vertices")
    if not set(verts) <= set(w.support):
        raise ConditionsViolatedError("the subgraph must lie in the support")
    pairs: dict[int, list[int]] = {}
    for g in verts:
        for k in family.membership(g):
            pairs.setdefault(k, []).append(g)
    if any(len(pair) != 2 for pair in pairs.values()):
        raise ConditionsViolatedError(
            "every block must contain zero or exactly two subgraph elements"
        )
    arcs: dict[int, list[tuple[int, int]]] = {g: [] for g in verts}
    for k, (g, h) in pairs.items():
        arcs[g].append((k, h))
        arcs[h].append((k, g))
    color = two_color(arcs)
    if color is None:
        raise ConditionsViolatedError("the subgraph contains an odd primitive cycle")
    return _two_coloring(family, num, scale, {g: 1 - 2 * c for g, c in color.items()})


def _two_coloring(
    family: SetFamily, num: dict[int, int], scale: int, sign: dict[int, int]
) -> Witness:
    """The witness moving each element of ``sign`` by ±h, h the headroom."""
    h = _headroom(num, scale, sign)
    if h <= 0:
        raise InternalPropertyError("no headroom despite the block condition")
    steps = {v: h * s for v, s in sign.items()}
    return _finish(family, num, steps, scale, h, h, "two_coloring")


def _require_distinct_pairs(family: SetFamily, comp: tuple[int, ...]) -> None:
    """Refuse elements in more than two blocks or in the same blocks."""
    if any(len(family.membership(g)) > 2 for g in comp):
        raise ConditionsViolatedError("an element lies in more than two blocks")
    pair = check_injectivity(family, subset=comp)
    if pair is not None:
        raise ConditionsViolatedError(
            f"elements {pair[0]} and {pair[1]} share the same membership set"
        )


def construct_tree_propagation(
    family: SetFamily, w: WeightFunction, component: Iterable[int] | None = None
) -> Witness:
    """Perturb a cycle-free support component multiplicatively from its root.

    The component must be connected, closed under blocks within the
    support, free of primitive cycles, with distinct membership sets
    and every multiplicity at most two.  The smallest element is scaled
    by one plus/minus a safe fraction and the change propagates through
    each block so all sums stay exact.

    Under the other conditions the component is a connected subgraph of
    the block multigraph H without parallel edges, whose primitive
    cycles are its cycles.  A connected graph is a tree exactly when it
    has fewer edges than nodes, so counting the elements in two blocks
    against the blocks met decides the cycle condition.
    """
    num, scale = require_stochastic(family, w)
    supp = set(w.support)
    comp = tuple(sorted(supp if component is None else set(component)))
    if not set(comp) <= supp:
        raise ConditionsViolatedError("the component must lie in the support")
    for b in family.blocks:
        inside = supp & b.member_set
        if inside & set(comp) and not inside <= set(comp):
            raise ConditionsViolatedError(
                "a block connects the component to other support elements"
            )
    if len(comp) < 2:
        raise ConditionsViolatedError("a single saturated element cannot be perturbed")
    _require_distinct_pairs(family, comp)
    tree = _spread(family, set(comp), comp[0])
    if len(tree) != len(comp):
        raise ConditionsViolatedError("the component is not connected")
    edges = sum(len(family.membership(g)) == 2 for g in comp)
    if edges >= len({k for g in comp for k in family.membership(g)}):
        raise ConditionsViolatedError("the component contains a primitive cycle")
    return _tree_propagation(family, num, scale, tree)


def _spread(family: SetFamily, members: set[int], root: int) -> dict[int, int | None]:
    """The elements of ``members`` reachable from ``root`` through shared
    blocks, in breadth-first order, each mapped to the element whose
    block reached it first (the root to None).  Each block is entered
    once, so the cost is the size of the blocks met."""
    tree: dict[int, int | None] = {root: None}
    queue = [root]
    entered: set[int] = set()
    for u in queue:
        for k in family.membership(u):
            if k in entered:
                continue
            entered.add(k)
            for g in family.block(k).members:
                if g in members and g not in tree:
                    tree[g] = u
                    queue.append(g)
    return tree


def _tree_propagation(
    family: SetFamily, num: dict[int, int], scale: int, tree: dict[int, int | None]
) -> Witness:
    """The witness on a cycle-free component, given as its :func:`_spread`
    from its smallest element, the root.

    Signed multiplicative deltas spread a safe fraction outward from the
    root.  With no cycle and distinct memberships, each block is first
    entered from its one element closest to the root, the parent of its
    others: their signed fraction is minus the parent's times w/(1 - w)
    of the parent, so the block sum is preserved.  Each fraction is an
    integer pair in lowest terms, as unreduced ones grow with the depth,
    and the steps are over m times the scale, m their denominators' lcm.
    """
    root = next(iter(tree))
    # slack = min(1/2, (1 - w0) / (2 w0)) = top / bottom, and epsilon half of it
    top, bottom = (scale - num[root], 2 * num[root]) if 2 * num[root] > scale else (1, 2)
    factors: dict[int, tuple[int, int]] = {root: (top, 2 * bottom)}
    for g, parent in tree.items():
        if parent is None:
            continue
        a = num[parent]
        if a >= scale:
            raise InternalPropertyError("saturated element inside a component")
        f, d = factors[parent]
        f, d = -f * a, d * (scale - a)
        k = gcd(f, d)
        factors[g] = (f // k, d // k)
    if any(abs(f) >= d for f, d in factors.values()):
        raise InternalPropertyError("a propagated fraction reached one")
    m = lcm(*(d for _, d in factors.values()))
    steps = {v: num[v] * f * (m // d) for v, (f, d) in factors.items()}
    base = {g: n * m for g, n in num.items()}
    eps = top * scale * (m // (2 * bottom))
    return _finish(family, base, steps, m * scale, eps, 2 * eps, "tree_propagation")


def _cycle_edge_blocks(family: SetFamily, cycle: Path) -> dict[tuple[int, int], int]:
    """The unique block of each cycle edge, keyed by the ordered pair."""
    blocks: dict[tuple[int, int], int] = {}
    for a, b in cycle.edges():
        ks = set(family.membership(a)) & set(family.membership(b))
        if len(ks) != 1:
            raise InternalPropertyError(
                "a cycle edge lies in several blocks despite distinct memberships"
            )
        blocks[(a, b)] = ks.pop()
    return blocks


def construct_cycle_attachment(
    family: SetFamily,
    w: WeightFunction,
    cycle: Path | None = None,
) -> Witness:
    """Perturb an odd primitive cycle together with the structure behind it.

    The perturbation is a circuit of the frame matroid of H through the
    cycle (Zaslavsky, "Signed graphs", 1982).  The cycle's values move
    by half steps with alternating signs, leaving one of its blocks
    short by a full step.  A path of support elements out of that
    block, each moved by a full alternating step, carries the imbalance
    until it is absorbed: either by an element lying in no further
    block, or by a second odd primitive cycle, perturbed by half steps.
    One of the two always exists because every block must sum to one.
    The component must contain no even primitive cycle and no two
    elements with equal membership sets.  Without a ``cycle`` the
    support's shortest odd primitive cycle, lexicographically first
    among equals, is used (:func:`shortest_primitive_cycle`), and the
    circuit is the first that a breadth-first listing of the component
    from its blocks closes.
    """
    num, scale = require_stochastic(family, w)
    graph = build_graph(family, within=w.support)
    if cycle is None:
        cycle = shortest_primitive_cycle(graph, family, parity="odd")
        if cycle is None:
            raise ConditionsViolatedError("the support has no odd primitive cycle")
    require_simple(graph, cycle)
    if not cycle.is_cycle or len(cycle.vertices) % 2 == 0:
        raise NotSimpleCycleError("an odd cycle is required")
    if not is_primitive(family, cycle):
        raise ConditionsViolatedError("the cycle is not primitive")
    comp = tuple(sorted(_spread(family, set(w.support), cycle.vertices[0])))
    if not set(cycle.vertices) <= set(comp):
        raise InternalPropertyError("cycle spans several components")
    _require_distinct_pairs(family, comp)
    edges = block_multigraph(family, comp)
    if _least_cycle(edges, biconnected_components(edges), (0,)) is not None:
        raise EvenCyclePresentError(
            "the component contains an even primitive cycle;"
            " a two-coloring witness applies instead"
        )
    return _cycle_attachment(family, num, scale, comp, cycle)


def _cycle_attachment(
    family: SetFamily, num: dict[int, int], scale: int, comp: tuple[int, ...], cycle: Path
) -> Witness:
    """The witness on a support component ``comp`` and its odd cycle.

    The deltas are the first circuit (:func:`oracle._first_circuit`,
    which takes these columns into the frame forest of H) of the
    component's elements, listed cycle first in cycle order, then
    breadth-first from the cycle's blocks, each layer's blocks by index
    and each block's members by label.  The odd cycle is independent and
    holds the component's one unbalancing cycle, so the first element
    rejected is the first that lies in one block or reaches a block met
    before, and the circuit is the cycle, a tree path out of one cycle
    block, the anchor, and a half-edge or a second odd cycle.  Its
    integers are scaled so that the first end of the anchor's cycle edge
    moves by minus half of epsilon, half the headroom h of the circuit's
    elements: over 4·scale·|c|, c that end's integer, each step is the
    circuit's integer times -h·sign(c).
    """
    members = set(comp)
    edge_blocks = _cycle_edge_blocks(family, cycle)
    cycle_blocks = set(edge_blocks.values())
    order = list(cycle.vertices)
    listed = set(order)
    seen = set(cycle_blocks)
    frontier = sorted(cycle_blocks)
    while frontier:
        upcoming: list[int] = []
        for b_idx in frontier:
            for e in family.block(b_idx).members:
                if e not in members or e in listed:
                    continue
                order.append(e)
                listed.add(e)
                for k in family.membership(e):
                    if k not in seen:
                        seen.add(k)
                        upcoming.append(k)
        frontier = sorted(upcoming)
    circuit = _first_circuit([family.membership(e) for e in order])
    if circuit is None:
        raise ConditionsViolatedError(
            "no support element is attached to the cycle's blocks"
        )
    n = len(cycle.vertices)
    if any(c not in circuit for c in range(n)):
        raise InternalPropertyError("the circuit misses a cycle element")
    met = {k for c in circuit if c >= n for k in family.membership(order[c])}
    anchors = met & cycle_blocks
    if len(anchors) != 1:
        raise InternalPropertyError(
            "the circuit does not leave the cycle at exactly one block"
        )
    first = next(edge[0] for edge, k in edge_blocks.items() if k in anchors)
    h = _headroom(num, scale, (order[c] for c in circuit))
    lead = circuit[cycle.vertices.index(first)]
    steps = {order[c]: v * h * (-1 if lead > 0 else 1) for c, v in circuit.items()}
    m = 4 * abs(lead)
    base = {g: n * m for g, n in num.items()}
    return _finish(family, base, steps, m * scale, h * m // 2, h * m, "cycle_attachment")


def _is_odd_cycle(family: SetFamily, comp: tuple[int, ...]) -> bool:
    """Whether a support component is an odd primitive cycle: an odd
    number of three or more elements, each in two blocks, and each of
    their blocks holding two of them."""
    return (
        len(comp) >= 3
        and len(comp) % 2 == 1
        and all(len(family.membership(g)) == 2 for g in comp)
        and all(c == 2 for c in block_vertex_counts(family, comp).values())
    )


def classify_extreme(family: SetFamily, w: WeightFunction) -> Verdict:
    """Classify a stochastic weight function as extreme or not.

    Requires every multiplicity at most two; otherwise the verdict kind
    is "unsupported".  Extreme means every support component is a
    saturated single element or an odd primitive cycle.  For any other
    component the verdict carries a perturbation witness, chosen by the
    structure of the first offending component: a two-coloring for an
    even primitive cycle or an equal-membership pair, a multiplicative
    propagation for a cycle-free component, and a cycle-attachment
    perturbation otherwise.  Components are read through their blocks
    (:func:`_spread`), each from its smallest element, and values as
    numerators n over one denominator L: saturated is n = L, half 2n = L.
    """
    num, scale = require_stochastic(family, w)
    if max_multiplicity(family) > 2:
        return Verdict(
            kind="unsupported",
            witness=None,
            detail="an element lies in more than two blocks",
        )
    members = set(w.support)
    seen: set[int] = set()
    saturated = 0
    cycles = 0
    bad: dict[int, int | None] | None = None
    for root in w.support:
        if root in seen:
            continue
        tree = _spread(family, members, root)
        seen.update(tree)
        comp = tuple(sorted(tree))
        if len(comp) == 1:
            if num[root] != scale:
                raise InternalPropertyError("isolated support element not saturated")
            saturated += 1
        elif _is_odd_cycle(family, comp):
            if any(2 * num[v] != scale for v in comp):
                raise InternalPropertyError("odd cycle component not at one half")
            cycles += 1
        elif bad is None:
            bad = tree
    if bad is None:
        return Verdict(
            kind="extreme",
            witness=None,
            detail=(
                f"{saturated} saturated element(s)"
                f" and {cycles} odd primitive cycle(s)"
            ),
        )
    witness = _witness_for_component(family, num, scale, bad)
    return Verdict(
        kind="not_extreme",
        witness=witness,
        detail=(
            f"the support component containing {next(iter(bad))}"
            f" admits a {witness.construction} perturbation"
        ),
    )


def _witness_for_component(
    family: SetFamily, num: dict[int, int], scale: int, tree: dict[int, int | None]
) -> Witness:
    """The perturbation witness of one offending support component, given
    as its :func:`_spread` from its smallest element.

    The canonical cycles are the shortest even and odd primitive cycles
    of the component, lexicographically first among equals: the least
    cycles of H of each parity (:func:`_least_cycle`), from one split of
    H into its biconnected components.  An even one gets a two-coloring
    with signs alternating along it (the graph induced on a primitive
    cycle of H is the cycle).  Otherwise an equal-membership pair gets
    one.  Otherwise a component without an odd cycle gets a tree
    propagation and any other a cycle attachment on its odd one.  Each
    answer is a condition the public constructor checks, so none is
    checked again.
    """
    comp = tuple(sorted(tree))
    edges = block_multigraph(family, comp)
    components = biconnected_components(edges)
    even = _least_cycle(edges, components, (0,))
    if even is not None:
        sign = {v: (-1) ** i for i, v in enumerate(even)}
        return _two_coloring(family, num, scale, sign)
    pair = check_injectivity(family, subset=comp)
    if pair is not None:
        return _two_coloring(family, num, scale, {pair[0]: 1, pair[1]: -1})
    odd = _least_cycle(edges, components, (1,))
    if odd is None:
        return _tree_propagation(family, num, scale, tree)
    return _cycle_attachment(family, num, scale, comp, Path(odd, is_cycle=True))
