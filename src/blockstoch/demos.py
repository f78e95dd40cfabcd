"""Bundled demonstration instances with hard-coded expected values.

Each demo builds a small family, runs the library on it, and reports
every computed quantity next to the value it is expected to take.  The
demos double as executable regression fixtures: a mismatch anywhere
flips the result to failed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import InputError
from .extremality import classify_extreme
from .family import (
    HALF,
    ONE,
    ZERO,
    WeightFunction,
    _combination,
    build_family,
    classify_membership,
    max_multiplicity,
)
from .graphs import (
    build_graph,
    enumerate_primitive_paths,
    find_primitive_cycles,
    unique_primitive_paths,
)
from .instance_io import format_rational, format_weights
from .oracle import decompose, enumerate_vertices, sup_block_norm, support_width


@dataclass(frozen=True)
class DemoResult:
    """Outcome of one demo: a header, check lines, and an overall flag."""

    name: str
    title: str
    lines: tuple[str, ...]
    ok: bool


class _Checker:
    def __init__(self) -> None:
        self.lines: list[str] = []
        self.ok = True

    def check(self, label: str, expected: object, computed: object) -> None:
        good = expected == computed
        mark = "ok" if good else "FAIL"
        self.lines.append(
            f"  {label}: expected {expected}, computed {computed} .. {mark}"
        )
        if not good:
            self.ok = False

    def result(self, name: str, title: str) -> DemoResult:
        return DemoResult(name, title, tuple(self.lines), self.ok)


def demo_square_matrix() -> DemoResult:
    """Rows and columns of a 3x3 matrix with unit line sums."""
    rows = [[1, 2, 3], [4, 5, 6], [7, 8, 9]]
    cols = [[1, 4, 7], [2, 5, 8], [3, 6, 9]]
    family = build_family(rows + cols)
    out = _Checker()
    vertices = enumerate_vertices(family)
    out.check("vertex count", 6, len(vertices))
    out.check("all vertices 0/1", True, all(v.zero_one for v in vertices))
    out.check(
        "all vertices classified extreme",
        True,
        all(classify_extreme(family, v).kind == "extreme" for v in vertices),
    )
    uniform = WeightFunction({g: Fraction(1, 3) for g in family.ground})
    out.check("uniform 1/3 in the polytope", True, classify_membership(family, uniform).stochastic)
    out.check("uniform 1/3 verdict", "not_extreme", classify_extreme(family, uniform).kind)
    combo = decompose(family, uniform)
    out.check("decomposition recombines to the input", True, combo.combined() == uniform)
    out.check(
        "decomposition coefficients sum to 1",
        True,
        sum((c for c, _ in combo.terms), ZERO) == 1,
    )
    return out.result("square-matrix", "3x3 matrix with unit row and column sums")


def demo_odd_cycle() -> DemoResult:
    """A five-element cycle of two-element blocks."""
    family = build_family([[1, 2], [2, 3], [3, 4], [4, 5], [5, 1]])
    out = _Checker()
    vertices = enumerate_vertices(family)
    out.check("vertex count", 1, len(vertices))
    only = vertices[0]
    out.check("vertex values all 1/2", True, all(v == HALF for _, v in only.items()))
    out.check("vertex verdict", "extreme", classify_extreme(family, only).kind)
    out.check("0/1 vertices (exact covers)", 0, sum(1 for v in vertices if v.zero_one))
    graph = build_graph(family)
    odd = find_primitive_cycles(graph, family, parity="odd")
    out.check("odd primitive cycles", 1, len(odd))
    return out.result("odd-cycle", "five blocks arranged in an odd cycle")


def demo_fan() -> DemoResult:
    """A hub element shared by every block of a fan."""
    family = build_family([[0, 1, 2], [0, 2, 3], [0, 3, 4]])
    out = _Checker()
    out.check("hub multiplicity", 3, len(family.membership(0)))
    out.check("max multiplicity", 3, max_multiplicity(family))
    graph = build_graph(family)
    out.check("primitive cycles", 0, len(find_primitive_cycles(graph, family)))
    paths = enumerate_primitive_paths(graph, family, 1, 4)
    out.check("primitive paths from 1 to 4", 2, len(paths))
    listed = sorted(p.vertices for p in paths)
    out.check("shorter path", (1, 0, 4), listed[0])
    out.check("longer path", (1, 2, 3, 4), listed[1])
    out.check("primitive paths unique everywhere", False, unique_primitive_paths(graph, family))
    uniform = WeightFunction({0: Fraction(1, 3)} | {g: Fraction(1, 3) for g in (1, 2, 3, 4)})
    out.check(
        "classifier verdict above multiplicity two",
        "unsupported",
        classify_extreme(family, uniform).kind,
    )
    return out.result("fan", "three blocks sharing one hub element")


def demo_pinned_segment() -> DemoResult:
    """A triangle that pins three values plus one free two-element block."""
    family = build_family([[2, 3], [1, 3], [1, 2], [4, 5]])
    out = _Checker()
    vertices = enumerate_vertices(family)
    out.check("vertex count", 2, len(vertices))
    expected = [
        WeightFunction({1: HALF, 2: HALF, 3: HALF, 4: ONE}),
        WeightFunction({1: HALF, 2: HALF, 3: HALF, 5: ONE}),
    ]
    out.check(
        "vertex set",
        sorted(format_weights(v) for v in expected),
        sorted(format_weights(v) for v in vertices),
    )
    out.check("0/1 vertices (exact covers)", 0, sum(1 for v in vertices if v.zero_one))
    midpoint = WeightFunction({1: HALF, 2: HALF, 3: HALF, 4: HALF, 5: HALF})
    combo = decompose(family, midpoint)
    out.check("midpoint decomposition terms", 2, len(combo.terms))
    out.check(
        "midpoint coefficients",
        ["1/2", "1/2"],
        [format_rational(c) for c, _ in combo.terms],
    )
    out.check("decomposition recombines to the input", True, combo.combined() == midpoint)
    verdict = classify_extreme(family, midpoint)
    out.check("midpoint verdict", "not_extreme", verdict.kind)
    witness = verdict.witness
    halves = witness is not None and (
        witness.w_plus.scaled(HALF) + witness.w_minus.scaled(HALF) == midpoint
    )
    out.check("witness averages back to the midpoint", True, halves)
    return out.result("pinned-segment", "a triangle pinning 1/2's beside a free segment")


def demo_growing_blocks() -> DemoResult:
    """Six disjoint blocks of sizes one through six."""
    blocks: list[list[int]] = []
    label = 1
    for size in range(1, 7):
        blocks.append(list(range(label, label + size)))
        label += size
    family = build_family(blocks)
    out = _Checker()
    spread = WeightFunction(
        {g: Fraction(1, b.size) for b in family.blocks for g in b.members}
    )
    out.check("spread-out weight in the polytope", True, classify_membership(family, spread).stochastic)
    out.check("spread-out support width", 6, support_width(family, spread))
    covers = []
    for shift in range(6):
        picks = {b.members[shift % b.size]: ONE for b in family.blocks}
        covers.append(WeightFunction(picks))
    out.check("covers are 0/1 members", True, all(classify_membership(family, c).exact_cover for c in covers))
    out.check("cover support width", 1, support_width(family, covers[0]))
    out.check(
        "block distance from each cover",
        ["5/3"] * 6,
        [format_rational(sup_block_norm(family, spread - c)) for c in covers],
    )
    mix = _combination((Fraction(1, 6), cover) for cover in covers)
    out.check("six-cover mixture support width at most 10", True, support_width(family, mix) <= 10)
    out.check("six-cover mixture block distance", "1/3", format_rational(sup_block_norm(family, spread - mix)))
    return out.result("growing-blocks", "disjoint blocks growing from size one to six")


DEMOS: dict[str, Callable[[], DemoResult]] = {
    "square-matrix": demo_square_matrix,
    "odd-cycle": demo_odd_cycle,
    "fan": demo_fan,
    "pinned-segment": demo_pinned_segment,
    "growing-blocks": demo_growing_blocks,
}


def run_demo(name: str) -> DemoResult:
    """Run one bundled demo by name."""
    runner = DEMOS.get(name)
    if runner is None:
        known = ", ".join(sorted(DEMOS))
        raise InputError(f"unknown demo {name!r}; known demos: {known}")
    return runner()
