"""Instance builders for the benchmark.

The builders return blocks and exact weights; ``document`` turns them
into the program's JSON instance format, and the program only ever sees
the files written from those documents.  Random families are planted,
so their truth (feasibility, known vertices, multiplicity) is known by
construction rather than computed with the library under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction


def render(value: Fraction) -> int | str:
    """An exact rational in the instance format: an int or a "p/q" string."""
    value = Fraction(value)
    if value.denominator == 1:
        return value.numerator
    return f"{value.numerator}/{value.denominator}"


def weights_doc(weights: dict[int, Fraction]) -> dict[str, int | str]:
    return {str(g): render(v) for g, v in sorted(weights.items()) if v != 0}


def document(blocks, weights=None) -> dict:
    doc = {"blocks": [sorted(b) for b in blocks]}
    if weights is not None:
        doc["weights"] = weights_doc(weights)
    return doc


# m x m matrices: cell (i, j) is label i*m + j + 1, blocks are the rows
# 1..m followed by the columns m+1..2m.


def matrix_blocks(m: int) -> list[list[int]]:
    rows = [[i * m + j + 1 for j in range(m)] for i in range(m)]
    cols = [[i * m + j + 1 for i in range(m)] for j in range(m)]
    return rows + cols


def matrix_uniform(m: int) -> dict[int, Fraction]:
    return {g: Fraction(1, m) for g in range(1, m * m + 1)}


def matrix_permutation(perm: list[int]) -> dict[int, Fraction]:
    m = len(perm)
    return {i * m + perm[i] + 1: Fraction(1) for i in range(m)}


def matrix_mixture(perms: list[list[int]], coefs: list[Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for perm, coef in zip(perms, coefs):
        for g, v in matrix_permutation(perm).items():
            out[g] = out.get(g, Fraction(0)) + coef * v
    return out


def shifted(perm: list[int]) -> list[int]:
    """The permutation composed with one full cycle of the columns.

    A mixture of ``perm`` and ``shifted(perm)`` always has a support that
    is one cycle through every row and column, whatever ``perm`` is, so
    the seed changes labels but not the amount of work.
    """
    m = len(perm)
    return [perm[(i + 1) % m] for i in range(m)]


# Rings: element i lies in blocks i and i+1 (block n+1 is block 1), so
# block k is {k-1, k} with element 0 read as n.


def ring_blocks(n: int) -> list[list[int]]:
    return [[n if k == 1 else k - 1, k] for k in range(1, n + 1)]


def ring_half(n: int) -> dict[int, Fraction]:
    return {g: Fraction(1, 2) for g in range(1, n + 1)}


# Path families: block k is {k, k+1}, the first n blocks of the ``path``
# generator written out as a finite family.


def path_blocks(n: int) -> list[list[int]]:
    return [[k, k + 1] for k in range(1, n + 1)]


def path_vertex_weights(start: int) -> dict[int, Fraction]:
    """A vertex truncation at depth one: weight one on label 1 or 2."""
    return {start: Fraction(1)}


def path_split_weights(a: Fraction) -> dict[int, Fraction]:
    """A non-vertex truncation at depth one: block 1 = {1, 2} split a : 1-a."""
    return {1: a, 2: 1 - a}


def grid_label(r: int, c: int) -> int:
    d = r + c - 2
    return d * (d + 1) // 2 + r


def grid_cell(g: int) -> tuple[int, int]:
    s = g - 1
    d = (math.isqrt(8 * s + 1) - 1) // 2
    r = s - d * (d + 1) // 2 + 1
    return r, d - r + 2


def grid_split_weights(a: Fraction) -> dict[int, Fraction]:
    """A non-vertex truncation at depth two: row 1 and column 1 sum to one."""
    return {
        grid_label(1, 1): a,
        grid_label(1, 2): 1 - a,
        grid_label(2, 1): 1 - a,
    }


def generator_blocks_of(name: str, g: int) -> tuple[int, ...]:
    """Indices of the blocks of a built-in generator containing label g."""
    if name == "path":
        return (1,) if g == 1 else (g - 1, g)
    if name == "grid":
        r, c = grid_cell(g)
        return (2 * r - 1, 2 * c)
    if name == "disjoint-growing":
        return ((math.isqrt(8 * g - 7) + 1) // 2,)
    raise ValueError(f"unknown generator {name}")


# Random planted families.


@dataclass(frozen=True)
class RandomFamily:
    """A random family whose truth is known by construction.

    Feasible families hold two disjoint planted packings S and T: every
    block contains exactly one element of S and exactly one of T, so the
    indicators of S and T are vertices (their columns have disjoint
    supports).  Infeasible families hold a set U split into blocks in two
    ways with different numbers of parts, so U would have to weigh two
    different integers.
    """

    kind: str
    blocks: tuple[tuple[int, ...], ...]
    kappa: int
    weights: dict[int, Fraction] | None
    planted: tuple[dict[int, Fraction], ...]

    @property
    def feasible(self) -> bool:
        return bool(self.planted)

    def doc(self) -> dict:
        return document(self.blocks, self.weights)


# Family i has kind KINDS[i % 5] and size SIZES[i % 6], so every FAMILIES
# (30) families hold each (kind, size) pair once: a fifth infeasible, a fifth
# with multiplicity three.  Fixing the sizes keeps the work of a pass
# nearly the same from seed to seed; the seed draws the structure.
KINDS = ("vertex", "mixture", "infeasible", "mixture", "kappa3")
SIZES = ((6, 3), (7, 3), (8, 4), (9, 4), (10, 5), (11, 5))
FAMILIES = len(KINDS) * len(SIZES)


def _owners(rng: random.Random, owners: list[int], nblocks: int) -> list[int]:
    """One owner per block, each owner in one or two blocks."""
    slots = list(owners)
    while len(slots) < nblocks:
        slots.append(rng.choice([o for o in owners if slots.count(o) < 2]))
    rng.shuffle(slots)
    return slots


def _spread(rng: random.Random, blocks: list[list[int]], rest: list[int]) -> None:
    """Add every element of ``rest`` to one or two of ``blocks``."""
    for g in rest:
        for block in rng.sample(blocks, min(len(blocks), rng.randint(1, 2))):
            block.append(g)


def _planted(rng: random.Random, elements: int, nblocks: int, kind: str) -> RandomFamily:
    s_size = rng.randint(math.ceil(nblocks / 2), nblocks - 1)
    t_size = rng.randint(math.ceil(nblocks / 2), nblocks - 1)
    labels = rng.sample(range(1, elements + 1), elements)
    s_set, t_set = labels[:s_size], labels[s_size : s_size + t_size]
    s_own = _owners(rng, s_set, nblocks)
    t_own = _owners(rng, t_set, nblocks)
    if kind == "kappa3":
        heavy, others = s_set[0], s_set[1:]
        s_own = [heavy] * 3 + [others[i % len(others)] for i in range(nblocks - 3)]
        rng.shuffle(s_own)
    blocks = [[s, t] for s, t in zip(s_own, t_own)]
    unowned = [g for g in s_set if g not in s_own]
    _spread(rng, blocks, labels[s_size + t_size :] + unowned)
    ind_s = {g: Fraction(1) for g in set(s_own)}
    ind_t = {g: Fraction(1) for g in set(t_own)}
    if kind == "vertex":
        weights = dict(ind_s)
    else:
        a = Fraction(rng.randint(1, 8), 9)
        weights = {g: a for g in ind_s}
        weights.update({g: 1 - a for g in ind_t})
    return RandomFamily(kind, _canonical(blocks), _kappa(blocks), weights, (ind_s, ind_t))


def _infeasible(rng: random.Random, elements: int, nblocks: int) -> RandomFamily:
    labels = rng.sample(range(1, elements + 1), elements)
    u_size = rng.randint(3, 5)
    p = rng.randint(1, u_size - 1)
    q = rng.choice([x for x in range(1, u_size + 1) if x != p])
    u = labels[:u_size]
    extra: list[list[int]] = [[] for _ in range(max(1, nblocks - p - q))]
    _spread(rng, extra, labels[u_size:])
    blocks = _split(rng, u, p) + _split(rng, u, q) + [b for b in extra if b]
    return RandomFamily("infeasible", _canonical(blocks), _kappa(blocks), None, ())


def _split(rng: random.Random, items: list[int], parts: int) -> list[list[int]]:
    shuffled = rng.sample(items, len(items))
    cuts = sorted(rng.sample(range(1, len(items)), parts - 1))
    bounds = [0] + cuts + [len(items)]
    return [shuffled[bounds[i] : bounds[i + 1]] for i in range(parts)]


def _canonical(blocks: list[list[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(sorted(b)) for b in blocks)


def multiplicities(blocks) -> dict[int, int]:
    """The number of blocks each element lies in."""
    mult: dict[int, int] = {}
    for b in blocks:
        for g in b:
            mult[g] = mult.get(g, 0) + 1
    return mult


def _kappa(blocks) -> int:
    return max(multiplicities(blocks).values())


def random_family(rng: random.Random, index: int) -> RandomFamily:
    """Family number ``index`` of a sweep, redrawn until its blocks are distinct."""
    kind = KINDS[index % len(KINDS)]
    elements, nblocks = SIZES[index % len(SIZES)]
    while True:
        if kind == "infeasible":
            fam = _infeasible(rng, elements, nblocks)
        else:
            fam = _planted(rng, elements, nblocks, kind)
        if len(set(fam.blocks)) == len(fam.blocks):
            return fam
