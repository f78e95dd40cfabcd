"""Deciding whether a stochastic weight function is an extreme point.

When every element lies in at most two blocks, extremality is purely
structural: each connected component of the support must be either a
single element carrying weight one or an odd primitive cycle carrying
one half everywhere.  Any other component admits an explicit
perturbation in two opposite directions, and the constructions here
build that pair of stochastic weight functions so callers can check
non-extremality by hand.  Every witness is validated before it is
returned: both halves must be stochastic, average back to the input,
and differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import (
    ConditionsViolatedError,
    EvenCyclePresentError,
    InternalPropertyError,
    MultipleEntryVertexError,
    NotSimpleCycleError,
)
from .family import (
    SetFamily,
    WeightFunction,
    check_injectivity,
    classify_membership,
    max_multiplicity,
    require_stochastic,
)
from .graphs import (
    AssociatedGraph,
    Path,
    bfs_layers,
    block_vertex_counts,
    build_graph,
    connected_components,
    find_primitive_cycles,
    is_primitive,
    require_simple,
    shortest_primitive_cycle,
)


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


def _headroom(w: WeightFunction, labels: Iterable[int]) -> Fraction:
    """How far all the given values sit from both 0 and 1."""
    return min(min(w.value(g), 1 - w.value(g)) for g in labels)


def _finish(
    family: SetFamily,
    w: WeightFunction,
    deltas: dict[int, Fraction],
    epsilon: Fraction,
    slack: Fraction,
    construction: str,
) -> Witness:
    d = WeightFunction(deltas)
    witness = Witness(
        w_plus=w + d,
        w_minus=w - d,
        epsilon=epsilon,
        slack=slack,
        construction=construction,
    )
    plus_report = classify_membership(family, witness.w_plus)
    minus_report = classify_membership(family, witness.w_minus)
    midpoint = (witness.w_plus + witness.w_minus).scaled(Fraction(1, 2))
    if (
        not plus_report.stochastic
        or not minus_report.stochastic
        or midpoint != w
        or witness.w_plus == witness.w_minus
    ):
        raise InternalPropertyError(f"invalid {construction} witness")
    return witness


def construct_two_coloring(
    family: SetFamily, w: WeightFunction, vertices: Iterable[int]
) -> Witness:
    """Perturb along a subgraph meeting every block in zero or two elements.

    The subgraph must lie in the support and contain no odd primitive
    cycle.  Each component is two-colored and the full headroom of the
    involved values is added on one color and subtracted on the other,
    which cancels inside every block.  No block holds more than two of
    the subgraph's elements, so every cycle of the induced subgraph is
    primitive, and an edge inside one BFS color class is exactly an odd
    primitive cycle.
    """
    require_stochastic(family, w)
    verts = tuple(sorted(set(vertices)))
    if not verts:
        raise ConditionsViolatedError("the subgraph has no vertices")
    supp = set(w.support)
    if not set(verts) <= supp:
        raise ConditionsViolatedError("the subgraph must lie in the support")
    for count in block_vertex_counts(family, verts).values():
        if count != 2:
            raise ConditionsViolatedError(
                "every block must contain zero or exactly two subgraph elements"
            )
    induced = build_graph(family, within=verts)
    sign: dict[int, int] = {}
    for root in verts:
        if root not in sign:
            layers = bfs_layers(induced, root)
            sign.update((v, -1 if d % 2 else 1) for v, d in layers.items())
    if any(sign[u] == sign[v] for v in verts for u in induced.neighbors_of(v)):
        raise ConditionsViolatedError("the subgraph contains an odd primitive cycle")
    epsilon = _headroom(w, verts)
    if epsilon <= 0:
        raise InternalPropertyError("no headroom despite the block condition")
    deltas = {v: epsilon * sign[v] for v in verts}
    return _finish(family, w, deltas, epsilon, epsilon, "two_coloring")


def _propagate_factors(
    family: SetFamily,
    w: WeightFunction,
    induced: AssociatedGraph,
    pool: tuple[int, ...],
    root: int,
    epsilon: Fraction,
) -> dict[int, Fraction]:
    """Signed multiplicative deltas spreading ``epsilon`` outward from the root.

    Each block meeting the pool in at least two elements must have a
    unique element closest to the root; the perturbation fraction of
    its remaining elements is scaled so the block sum is preserved, and
    the sign alternates with the distance from the root.
    """
    layers = bfs_layers(induced, root)
    if set(layers) != set(pool):
        raise InternalPropertyError("the pool is not connected")
    touched: list[tuple[int, int, list[int]]] = []
    pool_set = set(pool)
    for b in family.blocks:
        elems = [g for g in b.members if g in pool_set]
        if len(elems) < 2:
            continue
        touched.append((min(layers[g] for g in elems), b.index, elems))
    factors: dict[int, Fraction] = {root: epsilon}
    for lmin, _, elems in sorted(touched, key=lambda t: (t[0], t[1])):
        lmax = max(layers[g] for g in elems)
        if lmax == lmin:
            raise MultipleEntryVertexError(
                "a block lies in a single layer and has no entry element"
            )
        if lmax != lmin + 1:
            raise InternalPropertyError("a block spans more than two layers")
        entries = [g for g in elems if layers[g] == lmin]
        if len(entries) != 1:
            raise MultipleEntryVertexError(
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
                    raise MultipleEntryVertexError(
                        "an element is reached through two different blocks"
                    )
                factors[c] = child_factor
    if set(factors) != pool_set:
        raise InternalPropertyError("some pool elements were never reached")
    if any(f >= 1 for f in factors.values()):
        raise InternalPropertyError("a propagated fraction reached one")
    return {
        v: w.value(v) * factors[v] * (1 if layers[v] % 2 == 0 else -1)
        for v in pool
    }


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
    require_stochastic(family, w)
    supp = set(w.support)
    if component is None:
        comp = tuple(sorted(supp))
    else:
        comp = tuple(sorted(set(component)))
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
    if any(len(family.membership(g)) > 2 for g in comp):
        raise ConditionsViolatedError("an element lies in more than two blocks")
    pair = check_injectivity(family, subset=comp)
    if pair is not None:
        raise ConditionsViolatedError(
            f"elements {pair[0]} and {pair[1]} share the same membership set"
        )
    induced = build_graph(family, within=comp)
    if len(connected_components(induced)) != 1:
        raise ConditionsViolatedError("the component is not connected")
    edges = sum(len(family.membership(g)) == 2 for g in comp)
    if edges >= len({k for g in comp for k in family.membership(g)}):
        raise ConditionsViolatedError("the component contains a primitive cycle")
    root = comp[0]
    w0 = w.value(root)
    slack = min(Fraction(1, 2), (1 - w0) / (2 * w0))
    epsilon = slack / 2
    deltas = _propagate_factors(family, w, induced, comp, root, epsilon)
    return _finish(family, w, deltas, epsilon, slack, "tree_propagation")


def _cycle_edge_blocks(
    family: SetFamily, graph: AssociatedGraph, cycle: Path
) -> dict[tuple[int, int], int]:
    """The unique block of each cycle edge, keyed by the ordered pair."""
    blocks: dict[tuple[int, int], int] = {}
    for a, b in cycle.edges():
        ks = graph.blocks_of_edge(a, b)
        if len(ks) != 1:
            raise InternalPropertyError(
                "a cycle edge lies in several blocks despite distinct memberships"
            )
        blocks[(a, b)] = ks[0]
    return blocks


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


def construct_cycle_attachment(
    family: SetFamily,
    w: WeightFunction,
    cycle: Path | None = None,
    attachment: int | None = None,
) -> Witness:
    """Perturb an odd primitive cycle together with the structure behind it.

    The cycle's values move by half steps with alternating signs,
    leaving one of its blocks short by a full step.  That block is
    reconnected through a chain of support elements outside the cycle,
    each moved by a full alternating step, until the imbalance is
    absorbed: either by an element lying in no further block, or by a
    second odd primitive cycle, perturbed by half steps of the opposite
    net sign.  One of the two always exists because every block must
    sum to one.  The component must contain no even primitive cycle and
    no two elements with equal membership sets.  Without a ``cycle`` the
    support's shortest odd primitive cycle, lexicographically first
    among equals, is used (:func:`shortest_primitive_cycle`).  An
    ``attachment`` forces the chain's first element.
    """
    require_stochastic(family, w)
    supp = tuple(sorted(w.support))
    supp_set = set(supp)
    graph = build_graph(family, within=supp)
    if cycle is None:
        cycle = shortest_primitive_cycle(graph, family, parity="odd")
        if cycle is None:
            raise ConditionsViolatedError("the support has no odd primitive cycle")
    require_simple(graph, cycle)
    if not cycle.is_cycle or len(cycle.vertices) % 2 == 0:
        raise NotSimpleCycleError("an odd cycle is required")
    if not is_primitive(family, cycle):
        raise ConditionsViolatedError("the cycle is not primitive")
    comp = next(
        c for c in connected_components(graph) if cycle.vertices[0] in c
    )
    if not set(cycle.vertices) <= set(comp):
        raise InternalPropertyError("cycle spans several components")
    if any(len(family.membership(g)) > 2 for g in comp):
        raise ConditionsViolatedError("an element lies in more than two blocks")
    pair = check_injectivity(family, subset=comp)
    if pair is not None:
        raise ConditionsViolatedError(
            f"elements {pair[0]} and {pair[1]} share the same membership set"
        )
    induced_comp = build_graph(family, within=comp)
    if find_primitive_cycles(induced_comp, family, parity="even", first_only=True):
        raise EvenCyclePresentError(
            "the component contains an even primitive cycle;"
            " a two-coloring witness applies instead"
        )
    edge_blocks = _cycle_edge_blocks(family, graph, cycle)
    cycle_verts = set(cycle.vertices)
    sources = sorted(set(edge_blocks.values()))
    if attachment is not None and (
        attachment not in supp_set
        or attachment in cycle_verts
        or not any(
            attachment in family.block(k).member_set for k in sources
        )
    ):
        raise ConditionsViolatedError(
            "the attachment must be a support element of a cycle block,"
            " outside the cycle"
        )

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
                if e not in supp_set or e in cycle_verts or e in used:
                    continue
                if (
                    attachment is not None
                    and parent[b_idx] is None
                    and e != attachment
                ):
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
    slack = _headroom(w, perturbed)
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
    return _finish(family, w, deltas, epsilon, slack, "cycle_attachment")


def _is_odd_cycle_component(
    family: SetFamily, graph: AssociatedGraph, comp: tuple[int, ...]
) -> bool:
    if len(comp) < 3 or len(comp) % 2 == 0:
        return False
    if any(len(graph.neighbors_of(v)) != 2 for v in comp):
        return False
    return all(c <= 2 for c in block_vertex_counts(family, comp).values())


def classify_extreme(family: SetFamily, w: WeightFunction) -> Verdict:
    """Classify a stochastic weight function as extreme or not.

    Requires every multiplicity at most two; otherwise the verdict kind
    is "unsupported".  Extreme means every support component is a
    saturated single element or an odd primitive cycle.  For any other
    component the verdict carries a perturbation witness, chosen by the
    structure of the first offending component: a two-coloring for an
    even primitive cycle or an equal-membership pair, a multiplicative
    propagation for a cycle-free component, and a cycle-attachment
    perturbation otherwise.
    """
    require_stochastic(family, w)
    if max_multiplicity(family) > 2:
        return Verdict(
            kind="unsupported",
            witness=None,
            detail="an element lies in more than two blocks",
        )
    supp = tuple(sorted(w.support))
    graph = build_graph(family, within=supp)
    comps = connected_components(graph)
    saturated = 0
    cycles = 0
    bad: tuple[int, ...] | None = None
    for comp in comps:
        if len(comp) == 1:
            if w.value(comp[0]) != 1:
                raise InternalPropertyError("isolated support element not saturated")
            saturated += 1
        elif _is_odd_cycle_component(family, graph, comp):
            if any(w.value(v) != Fraction(1, 2) for v in comp):
                raise InternalPropertyError("odd cycle component not at one half")
            cycles += 1
        elif bad is None:
            bad = comp
    if bad is None:
        return Verdict(
            kind="extreme",
            witness=None,
            detail=(
                f"{saturated} saturated element(s)"
                f" and {cycles} odd primitive cycle(s)"
            ),
        )
    witness = _witness_for_component(family, w, bad)
    return Verdict(
        kind="not_extreme",
        witness=witness,
        detail=(
            f"the support component containing {bad[0]}"
            f" admits a {witness.construction} perturbation"
        ),
    )


def _witness_for_component(
    family: SetFamily, w: WeightFunction, comp: tuple[int, ...]
) -> Witness:
    """The perturbation witness of one offending support component.

    The canonical cycles are the shortest even and odd primitive cycles
    of the component, lexicographically first among equals, as
    :func:`shortest_primitive_cycle` finds them without listing the
    others.  An even cycle gets a two-coloring; otherwise an
    equal-membership pair does; otherwise a cycle-free component gets a
    tree propagation and any other a cycle attachment on the odd cycle.
    """
    induced = build_graph(family, within=comp)
    even = shortest_primitive_cycle(induced, family, parity="even")
    if even is not None:
        return construct_two_coloring(family, w, even.vertices)
    pair = check_injectivity(family, subset=comp)
    if pair is not None:
        return construct_two_coloring(family, w, pair)
    odd = shortest_primitive_cycle(induced, family, parity="odd")
    if odd is None:
        return construct_tree_propagation(family, w, component=comp)
    return construct_cycle_attachment(family, w, cycle=odd)
