"""The element graph and the block multigraph of a set family.

In the element graph, ground elements are vertices; two are adjacent
when they share a block, so every block induces a complete subgraph.  A
path is a vertex sequence whose consecutive vertices are adjacent, with
pairwise distinct edges; it is simple when no vertex repeats.  A simple
path or cycle is primitive when no block contains more than two of its
vertices.  The element graph serves every family: exact, deterministic
enumeration of primitive paths by depth-first primitive walks, and the
same walks list the primitive cycles of graphs with an element in three
or more blocks and, by branch and bound (:func:`_shortest_cycle`), their
first cycle of the sorted census.

When every multiplicity is at most two, the family is also a multigraph
H on its blocks: an element in two blocks is an edge, an element in one
block a half-edge, and primitive cycles are the cycles of H of length at
least three.  Every reader of H takes it as :func:`block_multigraph`
gives it, the edges at each block keyed by block index, or None when an
element lies in three or more blocks.  The census lists the cycles one
biconnected component at a time, each from its least element: a
descending union-find marks the elements whose ends larger ones already
join, and Johnson's blocked search from each marked element lists the
cycles it is least in, already canonical, so that the census sorts the
vertex tuples of each length once.  The census's first cycle of each
parity, the classifier's canonical cycles, is the least cycle of H
(:func:`_least_cycle`), found alone by a branch and bound over each
cycle's least element whose cuts are walk lengths of both parities.
Questions that need only bipartiteness (:func:`bipartition`, the vertex
search, the odd least-cycle search) are answered by one BFS two-coloring
of H.  Linear algebra on the block-sum columns is the frame matroid of
H, kept by :class:`_FrameForest`: an edge's column is e_a + e_b and a
half-edge's is e_a.  The forest takes, rejects and gives up columns one
at a time and solves the circuit a rejected column closes, with the same
interface as the integer elimination of :mod:`oracle`, whose ``_kernel``
chooses between the two.  Each tree is rooted by a parent pointer per
node, so a circuit is solved on the tree paths from its columns' ends up
to the root, not on the whole component.  A removal
(:meth:`_FrameForest.remove`) splits a tree, and a split component
rejoins only through :meth:`_FrameForest.add`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    InputError,
    InternalPropertyError,
    NotSimpleCycleError,
    NotSimpleError,
    UnknownElementError,
)
from .family import SetFamily


@dataclass(frozen=True)
class Path:
    """A vertex sequence; when ``is_cycle`` the closing edge is included."""

    vertices: tuple[int, ...]
    is_cycle: bool = False

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as ordered (smaller, larger) pairs, in traversal order."""
        seq = self.vertices
        for a, b in zip(seq, seq[1:]):
            yield (a, b) if a < b else (b, a)
        if self.is_cycle and len(seq) > 1:
            a, b = seq[-1], seq[0]
            yield (a, b) if a < b else (b, a)

    def __len__(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True, eq=False)
class AssociatedGraph:
    """Adjacency structure of a family, optionally induced on a subset.

    ``edge_blocks`` maps each edge (as an ordered pair) to the sorted
    indices of the blocks containing both endpoints.
    """

    vertices: tuple[int, ...]
    neighbors: dict[int, tuple[int, ...]]
    edge_blocks: dict[tuple[int, int], tuple[int, ...]]

    def adjacent(self, g: int, h: int) -> bool:
        key = (g, h) if g < h else (h, g)
        return key in self.edge_blocks

    def neighbors_of(self, g: int) -> tuple[int, ...]:
        got = self.neighbors.get(g)
        if got is None:
            raise UnknownElementError(f"vertex {g} is not in the graph")
        return got

    def blocks_of_edge(self, g: int, h: int) -> tuple[int, ...]:
        key = (g, h) if g < h else (h, g)
        got = self.edge_blocks.get(key)
        if got is None:
            raise InputError(f"no edge between {g} and {h}")
        return got

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AssociatedGraph({len(self.vertices)} vertices,"
            f" {len(self.edge_blocks)} edges)"
        )


def build_graph(family: SetFamily, within: Iterable[int] | None = None) -> AssociatedGraph:
    """Build the adjacency graph, induced on ``within`` when given."""
    if within is None:
        allowed = set(family.ground)
    else:
        allowed = set(within)
        for g in allowed:
            if g not in family.gamma:
                raise UnknownElementError(f"label {g} is not in the ground set")
    neighbors: dict[int, set[int]] = {g: set() for g in allowed}
    edge_blocks: dict[tuple[int, int], list[int]] = {}
    for b in family.blocks:
        members = [g for g in b.members if g in allowed]
        for i, g in enumerate(members):
            for h in members[i + 1 :]:
                neighbors[g].add(h)
                neighbors[h].add(g)
                edge_blocks.setdefault((g, h), []).append(b.index)
    return AssociatedGraph(
        vertices=tuple(sorted(allowed)),
        neighbors={g: tuple(sorted(s)) for g, s in neighbors.items()},
        edge_blocks={e: tuple(ks) for e, ks in edge_blocks.items()},
    )


def bfs_layers(graph: AssociatedGraph, root: int, floor: int = -1) -> dict[int, int]:
    """The distance from ``root`` of every vertex reachable from it.

    Only the root and labels above ``floor`` are entered.
    """
    layers = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for u in graph.neighbors_of(v):
                if u > floor and u not in layers:
                    layers[u] = layers[v] + 1
                    nxt.append(u)
        frontier = nxt
    return layers


def connected_components(graph: AssociatedGraph) -> tuple[tuple[int, ...], ...]:
    """Components as sorted vertex tuples, ordered by smallest member."""
    seen: set[int] = set()
    components = []
    for start in graph.vertices:
        if start not in seen:
            comp = bfs_layers(graph, start)
            seen.update(comp)
            components.append(tuple(sorted(comp)))
    return tuple(components)


def validate_path(graph: AssociatedGraph, path: Path) -> None:
    """Check the path invariants: adjacency and pairwise distinct edges."""
    seq = path.vertices
    if not seq:
        raise NotSimpleError("a path needs at least one vertex")
    for v in seq:
        graph.neighbors_of(v)
    pairs = list(path.edges())
    for a, b in pairs:
        if not graph.adjacent(a, b):
            raise NotSimpleError(f"vertices {a} and {b} are not adjacent")
    if len(pairs) != len(set(pairs)):
        raise NotSimpleError("path repeats an edge")
    if path.is_cycle and len(seq) < 3:
        raise NotSimpleCycleError("a cycle needs at least three vertices")


def is_simple(path: Path) -> bool:
    """A path is simple when no vertex repeats."""
    return len(set(path.vertices)) == len(path.vertices)


def require_simple(graph: AssociatedGraph, path: Path) -> None:
    validate_path(graph, path)
    if not is_simple(path):
        if path.is_cycle:
            raise NotSimpleCycleError("cycle repeats a vertex")
        raise NotSimpleError("path repeats a vertex")


def block_vertex_counts(family: SetFamily, vertices: Iterable[int]) -> dict[int, int]:
    """How many of the given vertices each block contains (zero counts omitted)."""
    counts: dict[int, int] = {}
    for g in vertices:
        for k in family.membership(g):
            counts[k] = counts.get(k, 0) + 1
    return counts


def is_primitive(family: SetFamily, path: Path) -> bool:
    """Whether no block contains more than two of the path's vertices.

    Defined for simple paths only; a repeated vertex raises.
    """
    if not is_simple(path):
        if path.is_cycle:
            raise NotSimpleCycleError("primitivity is defined for simple cycles")
        raise NotSimpleError("primitivity is defined for simple paths")
    return all(c <= 2 for c in block_vertex_counts(family, path.vertices).values())


def shortest_primitive_path(
    graph: AssociatedGraph, family: SetFamily, g: int, h: int
) -> Path | None:
    """The lexicographically first shortest path from ``g`` to ``h``.

    A path with the minimal number of vertices is automatically
    primitive: three vertices of it inside one block would yield a
    shortcut.  Returns None when the vertices are disconnected.
    """
    graph.neighbors_of(g)
    dist = bfs_layers(graph, h)
    if g not in dist:
        return None
    walk = [g]
    cur = g
    while cur != h:
        cur = min(u for u in graph.neighbors_of(cur) if dist[u] == dist[cur] - 1)
        walk.append(cur)
    path = Path(tuple(walk))
    if not is_primitive(family, path):
        raise InternalPropertyError("shortest path is not primitive")
    return path


def _primitive_walks(
    graph: AssociatedGraph,
    family: SetFamily,
    start: int,
    floor: int = -1,
    end: int | None = None,
    prune: Callable[[int, int], bool] | None = None,
) -> Iterator[list[int]]:
    """Every primitive simple walk from ``start``, depth first.

    The live walk is yielded each time a vertex is appended, neighbors
    in ascending order.  Only labels above ``floor`` are appended, and a
    walk reaching ``end`` is not extended.  A vertex that would put a
    third walk vertex into some block is skipped, and so is a vertex
    ``u`` for which ``prune(len(walk), u)`` holds.  A stack of neighbor
    iterators stands in for recursion, so long walks are fine.
    """
    gamma = family.gamma
    neighbors = graph.neighbors
    loads = dict.fromkeys((b.index for b in family.blocks), 0)
    for k in family.membership(start):
        loads[k] = 1
    walk = [start]
    on_walk = {start}
    yield walk
    stack = [iter(graph.neighbors_of(start))]
    while stack:
        for u in stack[-1]:
            if u <= floor or u in on_walk:
                continue
            if prune is not None and prune(len(walk), u):
                continue
            ks = gamma[u]
            for k in ks:
                if loads[k] == 2:
                    break
            else:
                for k in ks:
                    loads[k] += 1
                walk.append(u)
                on_walk.add(u)
                yield walk
                if u != end:
                    stack.append(iter(neighbors[u]))
                    break
                walk.pop()
                on_walk.remove(u)
                for k in ks:
                    loads[k] -= 1
        else:
            stack.pop()
            v = walk.pop()
            on_walk.remove(v)
            for k in gamma[v]:
                loads[k] -= 1


def enumerate_primitive_paths(
    graph: AssociatedGraph,
    family: SetFamily,
    g: int,
    h: int,
    stop_after: int | None = None,
) -> tuple[Path, ...]:
    """All primitive paths from ``g`` to ``h``, in lexicographic order.

    Depth-first search over simple paths, pruning any branch where a
    block already holds two path vertices and would receive a third.
    ``stop_after`` caps the number of paths collected (useful for
    uniqueness checks).
    """
    if stop_after is not None and stop_after < 0:
        raise InputError("stop_after must be nonnegative")
    graph.neighbors_of(h)
    if g == h:
        return (Path((g,)),)[:stop_after]
    walks = _primitive_walks(graph, family, g, end=h)
    return tuple(islice((Path(tuple(w)) for w in walks if w[-1] == h), stop_after))


def unique_primitive_paths(graph: AssociatedGraph, family: SetFamily) -> bool:
    """Whether every pair of the graph's vertices is joined by exactly one
    primitive path."""
    pool = graph.vertices
    for i, g in enumerate(pool):
        for h in pool[i + 1 :]:
            if len(enumerate_primitive_paths(graph, family, g, h, stop_after=2)) != 1:
                return False
    return True


def find_primitive_cycles(
    graph: AssociatedGraph,
    family: SetFamily,
    parity: str = "any",
) -> tuple[Path, ...]:
    """Primitive cycles of the graph, one representative per cycle.

    A cycle is reported once, in canonical form: smallest vertex first,
    then the smaller of its two cycle neighbors.  ``parity`` may be
    "any", "odd" or "even" (by vertex count).  The cycles are those of
    :func:`_census`, in (vertex count, vertices) order, each wrapped in
    a :class:`Path`.
    """
    groups = _census(graph, family, _parity_classes(parity))
    return tuple(Path(c, is_cycle=True) for group in groups for c in group)


def _census(
    graph: AssociatedGraph, family: SetFamily, want: tuple[int, ...]
) -> list[list[tuple[int, ...]]]:
    """The canonical primitive cycles with a wanted parity as vertex
    tuples, one sorted list per vertex count, shortest first: the cycles
    of H when each of the graph's elements lies in at most two blocks
    (:func:`_multigraph_cycles`), else those the primitive walks close
    (:func:`_walk_cycles`)."""
    edges = block_multigraph(family, graph.vertices)
    if edges is not None:
        cycles = _multigraph_cycles(edges, biconnected_components(edges), want)
    else:
        cycles = _walk_cycles(graph, family, want)
    groups: dict[int, list[tuple[int, ...]]] = {}
    for c in cycles:
        groups.setdefault(len(c), []).append(c)
    return [sorted(groups[n]) for n in sorted(groups)]


def _walk_cycles(
    graph: AssociatedGraph, family: SetFamily, want: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """Every canonical primitive cycle with a wanted parity, in walk order:
    starts ascending, then the depth-first walks from each start."""
    return (
        tuple(walk)
        for start in graph.vertices
        for walk in _primitive_walks(graph, family, start, floor=start)
        if _closes_cycle(graph, walk, want)
    )


def _multigraph_cycles(
    edges: dict[int, list[tuple[int, int]]], components: list[set[int]], want: tuple[int, ...]
) -> Iterator[tuple[int, ...]]:
    """Every cycle of H with at least three nodes and a wanted parity, once,
    as its canonical element tuple.

    ``edges`` is H as :func:`block_multigraph` gives it and
    ``components`` its :func:`biconnected_components`.  Each component
    of three or more nodes is searched alone: its elements go in
    descending order into a union-find over its nodes, which marks an
    element g = (a, b) whose ends larger elements already join, as only
    the least element of a cycle can be.  From each marked g, Johnson's
    search from b back to a over the larger elements
    (:func:`_cycles_from`) lists the cycles whose least element is g,
    once each and g first; reversing the tail when the second element is
    larger than the last makes them canonical.
    """
    for nodes in components:
        if len(nodes) < 3:
            continue
        taken = [(g, a, b) for a in nodes for g, b in edges[a] if a < b and b in nodes]
        part = {v: {v} for v in nodes}
        arcs: dict[int, list[tuple[int, int]]] = {v: [] for v in nodes}
        for g, a, b in sorted(taken, reverse=True):
            if part[a] is not part[b]:
                small, large = sorted((part[a], part[b]), key=len)
                large |= small
                part.update(dict.fromkeys(small, large))
            else:
                for cycle in _cycles_from(arcs, g, a, b):
                    if len(cycle) >= 3 and len(cycle) % 2 in want:
                        if cycle[1] > cycle[-1]:
                            cycle[1:] = cycle[:0:-1]
                        yield tuple(cycle)
            arcs[a].append((g, b))
            arcs[b].append((g, a))


def _cycles_from(
    arcs: dict[int, list[tuple[int, int]]], g: int, a: int, b: int
) -> Iterator[list[int]]:
    """The element lists of the cycles that leave ``a`` by the element
    ``g`` to ``b`` and return to ``a`` along ``arcs``, ``g`` first.

    Johnson's search ("Finding all the elementary circuits of a directed
    graph", 1975) with arcs labelled by element: a node stays blocked
    while every path from it back to ``a`` meets the current path, so a
    node that cannot close a cycle is not entered again until the path
    retreats past one that can.  Cycles of two nodes, closed through a
    parallel of ``g``, come out too.
    """
    elements = [g]
    blocked = {b}
    waiting: dict[int, set[int]] = {}
    stack = [[b, iter(arcs[b]), False]]
    while stack:
        top = stack[-1]
        for e, w in top[1]:
            if w == a:
                top[2] = True
                yield elements + [e]
            elif w not in blocked:
                elements.append(e)
                blocked.add(w)
                stack.append([w, iter(arcs[w]), False])
                break
        else:
            v, _, closed = stack.pop()
            elements.pop()
            if closed:
                if stack:
                    stack[-1][2] = True
                release = [v]
                while release:
                    u = release.pop()
                    if u in blocked:
                        blocked.remove(u)
                        release.extend(waiting.pop(u, ()))
            else:
                for _, w in arcs[v]:
                    waiting.setdefault(w, set()).add(v)


def _parity_classes(parity: str) -> tuple[int, ...]:
    """The vertex counts modulo two that ``parity`` admits."""
    if parity not in ("any", "odd", "even"):
        raise InputError(f"parity must be any, odd or even, not {parity!r}")
    return {"any": (0, 1), "odd": (1,), "even": (0,)}[parity]


def _closes_cycle(
    graph: AssociatedGraph, walk: list[int], want: tuple[int, ...]
) -> bool:
    """Whether a walk from its smallest vertex closes a canonical cycle
    whose vertex count has a wanted parity."""
    return (
        len(walk) >= 3
        and walk[1] < walk[-1]
        and graph.adjacent(walk[-1], walk[0])
        and len(walk) % 2 in want
    )


def shortest_primitive_cycle(
    graph: AssociatedGraph, family: SetFamily, parity: str = "any"
) -> Path | None:
    """``find_primitive_cycles(graph, family, parity)[0]``, or None, found alone.

    When every element of the graph lies in at most two blocks, the
    primitive cycles are the cycles of H on those elements, and the
    least of them is found on H (:func:`_least_cycle`) with no walk.
    Otherwise the least canonical primitive cycle by (vertex count,
    vertices) is found by branch and bound over the same depth-first
    walks of the element graph (:func:`_shortest_cycle`).  Starts
    run in ascending order and the walks of one length from one start
    come in lexicographic order, so a later cycle replaces the best one
    only when it is shorter: by two vertices for "odd" and "even", by
    one for "any".  Each cut is sound:

    - a start ``s`` with fewer than two neighbors above it is skipped,
      since a canonical cycle leaves its smallest vertex through two
      larger ones;
    - a walk of ``k`` vertices ending at ``u`` is dropped when
      ``k - 1 + dist(u)`` exceeds the longest length that would still
      replace the best, ``dist`` being the BFS distance to ``s`` inside
      the graph induced on ``s`` and the labels above it (the walk
      itself leads back to ``s`` there, so ``dist(u)`` is defined);
    - the search stops at the first cycle of the least possible length,
      three vertices for "odd" and "any", four for "even".
    """
    want = _parity_classes(parity)
    edges = block_multigraph(family, graph.vertices)
    if edges is None:
        cycle = _shortest_cycle(graph, family, want)
    else:
        cycle = _least_cycle(edges, biconnected_components(edges), want)
    return None if cycle is None else Path(cycle, is_cycle=True)


def _shortest_cycle(
    graph: AssociatedGraph, family: SetFamily, want: tuple[int, ...]
) -> tuple[int, ...] | None:
    """The walk search of :func:`shortest_primitive_cycle` on the element
    graph, for graphs with an element in three or more blocks: the least
    canonical cycle with a wanted parity, or None."""
    step = 1 if len(want) == 2 else 2
    least = 4 if want == (0,) else 3
    best = None
    # no cycle has more vertices than the graph
    limit = len(graph.vertices)
    dist: dict[int, int] = {}

    def prune(n: int, u: int) -> bool:
        return n + dist[u] > limit

    for start in graph.vertices:
        if sum(u > start for u in graph.neighbors[start]) < 2:
            continue
        dist = bfs_layers(graph, start, floor=start)
        walks = _primitive_walks(graph, family, start, floor=start, prune=prune)
        for walk in walks:
            if _closes_cycle(graph, walk, want):
                best = tuple(walk)
                limit = len(walk) - step
                if limit < least:
                    return best
    return best


def _least_cycle(
    edges: dict[int, list[tuple[int, int]]], components: list[set[int]], want: tuple[int, ...]
) -> tuple[int, ...] | None:
    """The least cycle of H with three or more nodes and a wanted parity,
    by (length, canonical element tuple), or None.

    ``edges`` is H as :func:`block_multigraph` gives it and
    ``components`` its :func:`biconnected_components`.  A component with
    as many node pairs as nodes is one cycle, its only one, through each
    pair's least element, and a bipartite one (:func:`two_color`) has no
    odd cycle: both are answered in linear time.  In the others each
    element g = (a, b) is tried in ascending order as the cycle's least
    (:func:`_least_through`), and a later cycle replaces the best only
    when it is shorter.
    """
    cycles: list[list[int]] = []
    starts = []
    for nodes in components:
        if len(nodes) < 3:
            continue
        arcs = {v: [(g, u) for g, u in edges[v] if u in nodes] for v in nodes}
        if len({(v, u) for v in nodes for _, u in arcs[v] if v < u}) == len(nodes):
            if len(nodes) % 2 in want:
                g, a, b = min((g, a, b) for a in nodes for g, b in arcs[a])
                ring, back, v = [g], a, b
                while v != a:
                    e, u = next((e, u) for e, u in arcs[v] if u != back)
                    ring.append(e)
                    back, v = v, u
                if ring[1] > ring[-1]:
                    ring[1:] = ring[:0:-1]
                cycles.append(ring)
            continue
        if want == (1,) and two_color(arcs) is not None:
            continue
        starts += [(g, a, b, arcs) for a in nodes for g, b in arcs[a] if a < b]
    # no cycle has more nodes than H
    limit = min(map(len, cycles), default=len(edges))
    for g, a, b, arcs in sorted(starts, key=lambda start: start[0]):
        if limit < (4 if want == (0,) else 3):
            break
        cycle = _least_through(arcs, g, a, b, want, limit)
        if cycle is not None:
            cycles.append(cycle)
            limit = len(cycle) - 1
    return tuple(min(cycles, key=lambda c: (len(c), c))) if cycles else None


def _least_through(
    arcs: dict[int, list[tuple[int, int]]],
    g: int,
    a: int,
    b: int,
    want: tuple[int, ...],
    limit: int,
) -> list[int] | None:
    """The least cycle of at most ``limit`` elements and a wanted parity
    whose least element is g = (a, b), as its canonical element list.

    ``arcs`` lists each node's (element, other node) pairs by element.
    The search leaves g from both its ends at once over the larger
    elements in ascending order, so the cycles come in the order of
    their lists, each before its reverse, and each one found lowers the
    limit below its length.  A step is cut by :func:`_fits`.  The walk
    lengths it reads are taken again only at nodes of three or more
    arcs: elsewhere the path has one way on, and lengths taken with
    fewer nodes off the walks are lower bounds still.
    """
    best = None
    other = {a: b, b: a}
    lengths = {s: _walk_lengths(arcs, other[s], g, {s}) for s in other}
    firsts = sorted((e, u, s) for s in other for e, u in arcs[s] if e > g and u != other[s])
    for first, u, s in firsts:
        target = other[s]
        path, on_path = [g], {s}
        stack = [(s, iter([(first, u)]), lengths[s])]
        while stack:
            v, it, dist = stack[-1]
            for e, u in it:
                if e <= g or u in on_path:
                    continue
                n = len(path) + 1
                if u == target:
                    if n % 2 in want and n <= limit:
                        best = path + [e]
                        limit = n - 1
                    continue
                if not _fits(dist, u, n, want, limit):
                    continue
                path.append(e)
                on_path.add(u)
                if len(arcs[u]) > 2:
                    dist = _walk_lengths(arcs, target, g, on_path)
                stack.append((u, iter(arcs[u]), dist))
                break
            else:
                stack.pop()
                path.pop()
                on_path.remove(v)
    return best


def _fits(
    dist: dict[tuple[int, int], int], u: int, n: int, want: tuple[int, ...], limit: int
) -> bool:
    """Whether a path of ``n`` elements ending at ``u`` can still close a
    cycle of a wanted parity within ``limit`` elements, by the least
    walks back of each parity (:func:`_walk_lengths`)."""
    return n + min(dist.get((u, (q - n) % 2), limit) for q in want) <= limit


def _walk_lengths(
    arcs: dict[int, list[tuple[int, int]]], target: int, floor: int, off: set[int]
) -> dict[tuple[int, int], int]:
    """The least length of each parity of a walk from each node to
    ``target`` over elements above ``floor`` and nodes outside ``off``,
    keyed by (node, parity): a BFS on (node, parity) pairs."""
    dist = {(target, 0): 0}
    queue = [(target, 0)]
    for v, p in queue:
        d = dist[v, p] + 1
        for e, u in arcs[v]:
            if e > floor and u not in off and (u, 1 - p) not in dist:
                dist[u, 1 - p] = d
                queue.append((u, 1 - p))
    return dist


@dataclass(frozen=True)
class CycleDecomposition:
    """Result of peeling a simple cycle into chord-bounded pieces."""

    pieces: tuple[Path, ...]


def decompose_cycle(
    graph: AssociatedGraph, family: SetFamily, cycle: Path
) -> CycleDecomposition:
    """Split a simple cycle along chords into a chain of smaller cycles.

    Repeatedly takes the shortest cycle through the current first edge
    that follows a prefix of the cycle, jumps one chord, and returns
    along the suffix; the remainder is closed by the same chord and
    renumbered to start with it.  The pieces satisfy, and this function
    verifies:

    1. each piece is primitive or has exactly three vertices in one block;
    2. together the pieces cover exactly the original vertices;
    3. consecutive pieces share exactly two vertices and one edge;
    4. non-consecutive pieces share at most one vertex.

    Equal-length peel candidates are resolved by the smallest chord
    position pair, so the output is deterministic.
    """
    if not cycle.is_cycle:
        raise NotSimpleCycleError("input must be a cycle")
    require_simple(graph, cycle)
    pieces: list[Path] = []
    current = list(cycle.vertices)
    while True:
        m = len(current)
        best: tuple[int, int, int] | None = None
        for j in range(2, m):
            for l in range(j + 2, m + 2):
                gj = current[j - 1]
                gl = current[(l - 1) % m]
                if gj == gl or not graph.adjacent(gj, gl):
                    continue
                piece_len = j + (m - l + 1)
                if piece_len < 3:
                    continue
                cand = (piece_len, j, l)
                if best is None or cand < best:
                    best = cand
        if best is None:
            pieces.append(Path(tuple(current), is_cycle=True))
            break
        _, j, l = best
        tail = current[l - 1 :] if l <= m else []
        pieces.append(Path(tuple(current[:j] + tail), is_cycle=True))
        current = [current[(l - 1) % m]] + current[j - 1 : l - 1]
    result = CycleDecomposition(pieces=tuple(pieces))
    _verify_decomposition(graph, family, cycle, result)
    return result


def _verify_decomposition(
    graph: AssociatedGraph,
    family: SetFamily,
    cycle: Path,
    result: CycleDecomposition,
) -> None:
    pieces = result.pieces
    covered: set[int] = set()
    for piece in pieces:
        require_simple(graph, piece)
        counts = block_vertex_counts(family, piece.vertices)
        if not all(c <= 2 for c in counts.values()):
            if not any(c == 3 for c in counts.values()):
                raise InternalPropertyError(
                    "piece is neither primitive nor a three-in-one-block cycle"
                )
        covered |= set(piece.vertices)
    if covered != set(cycle.vertices):
        raise InternalPropertyError("pieces do not cover the cycle's vertices")
    for i, piece in enumerate(pieces):
        for j in range(i + 1, len(pieces)):
            shared = set(piece.vertices) & set(pieces[j].vertices)
            if j == i + 1:
                shared_edges = set(piece.edges()) & set(pieces[j].edges())
                if len(shared) != 2 or len(shared_edges) != 1:
                    raise InternalPropertyError(
                        "consecutive pieces must share two vertices and one edge"
                    )
            elif len(shared) > 1:
                raise InternalPropertyError(
                    "distant pieces share more than one vertex"
                )


@dataclass(frozen=True)
class Bipartition:
    """A split of the block indices so same-side blocks never intersect."""

    plus: tuple[int, ...]
    minus: tuple[int, ...]


def bipartition(family: SetFamily) -> Bipartition | None:
    """Two-color the blocks so intersecting blocks land on opposite sides.

    Possible exactly when every multiplicity is at most two and the
    block multigraph H is bipartite, that is, when the element graph has
    no odd primitive cycle; returns None otherwise.  Deterministic: the
    smallest block index of every component of H goes to the plus side.
    """
    edges = block_multigraph(family)
    color = None if edges is None else two_color(edges)
    if color is None:
        return None
    plus = tuple(k for k, c in color.items() if c == 0)
    minus = tuple(k for k, c in color.items() if c == 1)
    return Bipartition(plus=plus, minus=minus)


def block_multigraph(
    family: SetFamily, elements: Iterable[int] | None = None
) -> dict[int, list[tuple[int, int]]] | None:
    """The block multigraph H of a family, or None when an element taken
    lies in three or more blocks: the κ ≤ 2 test that the census, the
    cycle search, :func:`bipartition` and the vertex search dispatch on.

    Nodes are the block indices, in the family's ascending order.
    Returns, for each block index, the ``(element, other index)`` pairs
    of the elements the block shares with one other block (edges), in
    ascending element order; an element lying in one block alone (a
    half-edge) is left out.  With ``elements`` only those elements are
    taken, and only they need lie in at most two blocks.
    """
    edges: dict[int, list[tuple[int, int]]] = {b.index: [] for b in family.blocks}
    for g in family.ground if elements is None else sorted(elements):
        ends = family.gamma[g]
        if len(ends) == 2:
            p, q = ends
            edges[p].append((g, q))
            edges[q].append((g, p))
        elif len(ends) > 2:
            return None
    return edges


def two_color(edges: dict[int, list[tuple[int, int]]]) -> dict[int, int] | None:
    """A BFS two-coloring of H's nodes, keyed as ``edges`` is, or None
    when H is not bipartite.

    Every component's first node in ``edges`` gets color 0.
    """
    color: dict[int, int | None] = dict.fromkeys(edges)
    for start in edges:
        if color[start] is not None:
            continue
        color[start] = 0
        queue = [start]
        for u in queue:
            for _, v in edges[u]:
                if color[v] is None:
                    color[v] = 1 - color[u]
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    return color


def biconnected_components(edges: dict[int, list[tuple[int, int]]]) -> list[set[int]]:
    """The node sets of H's biconnected components, in the order found.

    Every element belongs to exactly one component, and parallel
    elements make their two nodes one component; a node without
    elements belongs to none.  Tarjan's depth-first lowpoints, with a
    stack of nodes and of pending elements in place of recursion.
    """
    depth = dict.fromkeys(edges, -1)
    low = dict.fromkeys(edges, 0)
    components: list[set[int]] = []
    for root in edges:
        if depth[root] >= 0:
            continue
        depth[root] = 0
        stack = [(root, -1, iter(edges[root]))]
        pending: list[tuple[int, int, int]] = []
        while stack:
            u, up, arcs = stack[-1]
            for e, v in arcs:
                if depth[v] < 0:
                    depth[v] = low[v] = depth[u] + 1
                    pending.append((e, u, v))
                    stack.append((v, e, iter(edges[v])))
                    break
                if depth[v] < depth[u] and e != up:
                    # a back element, met first from its lower end
                    low[u] = min(low[u], depth[v])
                    pending.append((e, u, v))
            else:
                stack.pop()
                if not stack:
                    continue
                p = stack[-1][0]
                low[p] = min(low[p], low[u])
                if low[u] >= depth[p]:
                    # u's subtree hangs off p: its pending elements form a component
                    nodes = set()
                    while True:
                        e, a, b = pending.pop()
                        nodes.update((a, b))
                        if e == up:
                            break
                    components.append(nodes)
    return components


class _FrameForest:
    """Independence in the frame matroid of H, every edge negative, under
    column additions and removals.

    A column is given by its ends, the nodes (blocks) it lies in: two
    for an edge, whose column is e_a + e_b, one for a half-edge, whose
    column is e_a, none for the zero column.  A set of such columns is
    linearly independent exactly when each of its components is a tree,
    a tree plus one edge closing an odd cycle, or a tree plus one
    half-edge (Zaslavsky, "Signed graphs", 1982).  The taken columns are
    kept in that shape: the tree edges in ``tree``, from each node to
    its tree columns and their far ends, and each component's odd-cycle
    edge or half-edge, its "unbalancing" column, in ``extra``.  Every
    node holds its component's label, a color that tree edges alternate,
    and in ``up`` its tree column towards its component's root and the
    far end of that column, or None at the root.  Joining two components
    relabels the smaller one, recolors it when the new edge's ends share
    a color, and hangs it from the new edge, so a node is relabelled at
    most log2 n times by additions.  :meth:`add` reads labels and never
    climbs; naming each component by its root instead would make every
    addition climb to both roots.
    Removing a tree edge (:meth:`remove`) makes its lower end a root and
    relabels the smaller side of the split; when the component's
    odd-cycle edge spans the split, :meth:`add` takes it again and so
    rejoins the two sides.
    """

    def __init__(self) -> None:
        self.label: dict[int, int] = {}
        self.color: dict[int, int] = {}
        self.size: dict[int, int] = {}
        self.extra: dict[int, tuple[int, Sequence[int]]] = {}
        self.tree: dict[int, dict[int, int]] = {}
        self.up: dict[int, tuple[int, int] | None] = {}
        self.fresh = count()

    def _node(self, v: int) -> tuple[int, int]:
        """The label of ``v``'s component and the color of ``v``; a node
        not seen before is a component of its own."""
        label = self.label.get(v)
        if label is None:
            label = self.label[v] = next(self.fresh)
            self.color[v] = 0
            self.size[label] = 1
            self.tree[v] = {}
            self.up[v] = None
            return label, 0
        return label, self.color[v]

    def add(self, column: int, ends: Sequence[int]) -> bool:
        """Take the column if it is independent of those taken; say whether."""
        if not ends:
            return False
        extra = self.extra
        if len(ends) == 1:
            la, _ = self._node(ends[0])
            if la in extra:
                return False
            extra[la] = (column, ends)
            return True
        a, b = ends
        label, color, tree = self.label, self.color, self.tree
        if a not in label:
            a, b = b, a
        la, ca = self._node(a)
        if b not in label:
            # a node not seen before joins as a leaf
            label[b] = la
            color[b] = ca ^ 1
            self.size[la] += 1
            tree[b] = {column: a}
            tree[a][column] = b
            self.up[b] = (column, a)
            return True
        lb, cb = label[b], color[b]
        if la == lb:
            # equal colors close an odd cycle, unequal ones an even cycle
            if ca != cb or la in extra:
                return False
            extra[la] = (column, ends)
            return True
        if la in extra and lb in extra:
            return False
        if self.size[la] < self.size[lb]:
            a, b, la, lb = b, a, lb, la
        flip = ca ^ cb ^ 1
        up = self.up
        nodes = [b]
        for u in nodes:
            label[u] = la
            color[u] ^= flip
            for c, v in tree[u].items():
                if label[v] != la:
                    up[v] = (c, u)
                    nodes.append(v)
        self.size[la] += self.size.pop(lb)
        if lb in extra:
            extra[la] = extra.pop(lb)
        tree[a][column] = b
        tree[b][column] = a
        up[b] = (column, a)
        return True

    def remove(self, column: int, ends: Sequence[int]) -> None:
        """Give up a taken column; the other taken columns stay taken."""
        a = ends[0]
        la = self.label[a]
        tree = self.tree
        if column not in tree[a]:
            del self.extra[la]
            return
        b = ends[1]
        del tree[a][column], tree[b][column]
        # the end that hangs from the column becomes a root
        if self.up[a] == (column, b):
            self.up[a] = None
        else:
            self.up[b] = None
        side = self._smaller_side(a, b)
        new = next(self.fresh)
        for w in side:
            self.label[w] = new
        self.size[new] = len(side)
        self.size[la] -= len(side)
        extra = self.extra.pop(la, None)
        if extra is not None:
            # an odd-cycle edge across the split rejoins its two sides
            labels = {self.label[v] for v in extra[1]}
            if len(labels) == 2:
                self.add(*extra)
            else:
                self.extra[labels.pop()] = extra

    def _smaller_side(self, a: int, b: int) -> list[int]:
        """The nodes on the smaller side of a split tree, ``a``'s or
        ``b``'s: both sides are searched in turn, one node at a time, so
        the search stops after about twice the smaller side's size."""
        tree = self.tree
        sides = ([a], [b])
        seen = {a, b}
        i = 0
        while True:
            for nodes in sides:
                if i == len(nodes):
                    return nodes
                for v in tree[nodes[i]].values():
                    if v not in seen:
                        seen.add(v)
                        nodes.append(v)
            i += 1

    def circuit(self, column: int, ends: Sequence[int]) -> dict[int, int]:
        """The circuit a rejected column closes with the taken columns, by
        column: integers with no common divisor and that column positive.

        The values solve ``sum(x[c] * col_c) = 0`` over the taken columns
        and this one, which is unique because the taken ones are
        independent; with the rejected column at 2 they are integers,
        and they are halved when all are even.
        Only the tree paths from the column's ends and from the extra's
        ends to their component's root carry a nonzero value, so each
        component is solved on those paths alone: each end climbs ``up``
        until it meets a node already entered, and the paths are solved
        from their lower ends up, the later paths first.  A tree edge
        carries what its lower side still lacks, as a constant plus a
        multiple of the unknown value ``t`` of the component's unbalancing
        column, and the root's remainder, which must vanish, fixes ``t``.
        """
        x = {column: 2}
        up = self.up
        solved: set[int] = set()
        for start in ends:
            label = self.label[start]
            if label in solved:
                continue
            solved.add(label)
            extra = self.extra.get(label)
            points = [v for v in ends if self.label[v] == label]
            if extra is not None:
                points.extend(extra[1])
            # remainder at each entered node: (constant, coefficient of t);
            # ``order`` lists each path top down, the root first
            rest: dict[int, list[int]] = {}
            order: list[int] = []
            for v in points:
                path = []
                while v not in rest:
                    rest[v] = [0, 0]
                    path.append(v)
                    if up[v] is None:
                        break
                    v = up[v][1]
                order.extend(reversed(path))
            for v in ends:
                if v in rest:
                    rest[v][0] -= 2
            if extra is not None:
                for v in extra[1]:
                    rest[v][1] -= 1
            flows: list[tuple[int, int, int]] = []
            for v in reversed(order[1:]):
                c, u = up[v]
                r0, r1 = rest[v]
                flows.append((c, r0, r1))
                rest[u][0] -= r0
                rest[u][1] -= r1
            r0, r1 = rest[order[0]]
            if r1 == 0:
                if r0 != 0:
                    raise InternalPropertyError("a balanced component does not close")
                t = 0
            else:
                t, left = divmod(-r0, r1)
                if left:
                    raise InternalPropertyError("a circuit value is not integral")
            if t:
                x[extra[0]] = t
            for c, f0, f1 in flows:
                if f0 + f1 * t:
                    x[c] = f0 + f1 * t
        if all(v % 2 == 0 for v in x.values()):
            return {c: v // 2 for c, v in x.items()}
        return x
