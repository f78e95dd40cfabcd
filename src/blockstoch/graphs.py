"""The element graph and the block multigraph of a set family.

In the element graph, ground elements are vertices; two are adjacent
when they share a block, so every block induces a complete subgraph.  A
path is a vertex sequence whose consecutive vertices are adjacent, with
pairwise distinct edges; it is simple when no vertex repeats.  A simple
path or cycle is primitive when no block contains more than two of its
vertices.  The element graph serves every family: exact, deterministic
enumeration of primitive paths and cycles, the ``graph`` census and the
classifier's canonical witness cycle.

When every multiplicity is at most two, the family is also a multigraph
H on its blocks: an element in two blocks is an edge, an element in one
block a half-edge, and primitive cycles are the cycles of H of length at
least three.  Questions that need only bipartiteness (:func:`bipartition`,
the vertex search) are answered by one BFS two-coloring of H.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

from .errors import (
    InputError,
    InternalPropertyError,
    NotSimpleCycleError,
    NotSimpleError,
    UnknownElementError,
)
from .family import SetFamily, max_multiplicity


@dataclass(frozen=True)
class Path:
    """A vertex sequence; when ``is_cycle`` the closing edge is included."""

    vertices: tuple[int, ...]
    is_cycle: bool = False

    @property
    def edge_count(self) -> int:
        n = len(self.vertices)
        return n if self.is_cycle else n - 1

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


def bfs_layers(graph: AssociatedGraph, root: int) -> dict[int, int]:
    """The distance from ``root`` of every vertex reachable from it."""
    layers = {root: 0}
    frontier = [root]
    while frontier:
        nxt = []
        for v in frontier:
            for u in graph.neighbors_of(v):
                if u not in layers:
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
) -> Iterator[list[int]]:
    """Every primitive simple walk from ``start``, depth first.

    The live walk is yielded each time a vertex is appended, neighbors
    in ascending order.  Only labels above ``floor`` are appended, and a
    walk reaching ``end`` is not extended.  A vertex that would put a
    third walk vertex into some block is skipped.  A stack of neighbor
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
    graph.neighbors_of(h)
    if g == h:
        return (Path((g,)),)
    walks = _primitive_walks(graph, family, g, end=h)
    return tuple(islice((Path(tuple(w)) for w in walks if w[-1] == h), stop_after))


def unique_primitive_paths(
    graph: AssociatedGraph, family: SetFamily, vertices: Iterable[int] | None = None
) -> bool:
    """Whether every vertex pair is joined by exactly one primitive path."""
    pool = tuple(sorted(set(vertices))) if vertices is not None else graph.vertices
    for i, g in enumerate(pool):
        for h in pool[i + 1 :]:
            if len(enumerate_primitive_paths(graph, family, g, h, stop_after=2)) != 1:
                return False
    return True


def find_primitive_cycles(
    graph: AssociatedGraph,
    family: SetFamily,
    parity: str = "any",
    first_only: bool = False,
) -> tuple[Path, ...]:
    """Primitive cycles of the graph, one representative per cycle.

    A cycle is reported once, in canonical form: smallest vertex first,
    then the smaller of its two cycle neighbors.  ``parity`` may be
    "any", "odd" or "even" (by vertex count).  With ``first_only`` the
    search stops at the first match in canonical enumeration order.
    """
    if parity not in ("any", "odd", "even"):
        raise InputError(f"parity must be any, odd or even, not {parity!r}")
    want = {"any": (0, 1), "odd": (1,), "even": (0,)}[parity]
    cycles = (
        Path(tuple(walk), is_cycle=True)
        for start in graph.vertices
        for walk in _primitive_walks(graph, family, start, floor=start)
        if len(walk) >= 3
        and walk[1] < walk[-1]
        and graph.adjacent(walk[-1], start)
        and len(walk) % 2 in want
    )
    if first_only:
        return tuple(islice(cycles, 1))
    return tuple(sorted(cycles, key=lambda c: (len(c.vertices), c.vertices)))


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
    if max_multiplicity(family) > 2:
        return None
    color = two_color(block_multigraph(family)[1])
    if color is None:
        return None
    plus = tuple(b.index for b, c in zip(family.blocks, color) if c == 0)
    minus = tuple(b.index for b, c in zip(family.blocks, color) if c == 1)
    return Bipartition(plus=plus, minus=minus)


def block_multigraph(
    family: SetFamily,
) -> tuple[list[list[int]], list[list[tuple[int, int]]]]:
    """The block multigraph H of a family whose multiplicities are at most two.

    Nodes are block positions in ``family.blocks``.  Returns, for each
    position, the elements lying in that block alone (half-edges) and
    the ``(element, other position)`` pairs of the elements it shares
    with one other block (edges), both in ascending element order.
    """
    position = {b.index: p for p, b in enumerate(family.blocks)}
    halves: list[list[int]] = [[] for _ in family.blocks]
    edges: list[list[tuple[int, int]]] = [[] for _ in family.blocks]
    for g in family.ground:
        ends = [position[k] for k in family.gamma[g]]
        if len(ends) == 1:
            halves[ends[0]].append(g)
        else:
            p, q = ends
            edges[p].append((g, q))
            edges[q].append((g, p))
    return halves, edges


def two_color(edges: list[list[tuple[int, int]]]) -> list[int] | None:
    """A BFS two-coloring of H's nodes, or None when H is not bipartite.

    Every component's lowest position gets color 0.
    """
    color: list[int | None] = [None] * len(edges)
    for start in range(len(edges)):
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
