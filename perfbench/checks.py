"""Output checks, computed by the benchmark in plain Fraction arithmetic.

Each check reads the text a subcommand printed and compares it with
what the benchmark knows about the instance it wrote.  None of them
calls into the library under test.  A check returns None when the
output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Callable, Iterable

from . import instances

Weights = dict[int, Fraction]
Blocks = list[list[int]]
Check = Callable[[str], "str | None"]


def parse_weights(text: str) -> Weights:
    """Parse the CLI rendering ``{1=1/2, 3=1}``."""
    inside = text.strip()
    if not (inside.startswith("{") and inside.endswith("}")):
        raise ValueError(f"not a weight map: {text!r}")
    inside = inside[1:-1].strip()
    out: Weights = {}
    if inside:
        for item in inside.split(", "):
            g, _, v = item.partition("=")
            out[int(g)] = Fraction(v)
    return out


def field(out: str, name: str) -> str:
    """The value of the first line ``name: value``."""
    prefix = name + ": "
    for line in out.splitlines():
        if line.startswith(prefix):
            return line[len(prefix) :]
    raise ValueError(f"no {name!r} line")


def listed(out: str, prefix: str) -> list[str]:
    """Values of the indented lines starting with ``prefix``."""
    return [
        line.strip()[len(prefix) :]
        for line in out.splitlines()
        if line.startswith("  ") and line.strip().startswith(prefix)
    ]


def block_sums(blocks: Blocks, w: Weights) -> list[Fraction]:
    return [sum((w.get(g, Fraction(0)) for g in b), Fraction(0)) for b in blocks]


def stochastic(blocks: Blocks, w: Weights) -> bool:
    return all(v >= 0 for v in w.values()) and all(s == 1 for s in block_sums(blocks, w))


def nonzero(w: Weights) -> Weights:
    return {g: v for g, v in w.items() if v != 0}


def guarded(check: Check) -> Check:
    """Turn a parse failure inside a check into a failed check."""

    def run(out: str) -> str | None:
        try:
            return check(out)
        except (ValueError, KeyError, IndexError, ZeroDivisionError) as exc:
            return f"unreadable output: {exc}"

    return run


def fresh_prefix(blocks: Blocks) -> tuple[int | None, str | None]:
    """Smallest m for which the first m blocks cover the ground set, or no
    block beyond m lies inside the union of the others, with its mode."""
    mult = instances.multiplicities(blocks)
    absorbed = [all(mult[g] >= 2 for g in b) for b in blocks]
    covered: set[int] = set()
    for m in range(len(blocks) + 1):
        if m:
            covered.update(blocks[m - 1])
        if len(covered) == len(mult):
            return m, "cover"
        if not any(absorbed[m:]):
            return m, "fresh"
    return None, None


def check_report(blocks: Blocks, weights: Weights | None) -> Check:
    mult = instances.multiplicities(blocks)
    m, mode = fresh_prefix(blocks)
    fresh = "no" if m is None else f"yes (m={m}, mode {mode})"

    def check(out: str) -> str | None:
        expect = {
            "blocks": str(len(blocks)),
            "ground elements": str(len(mult)),
            "max multiplicity": str(max(mult.values())),
            "fresh elements beyond a prefix": fresh,
        }
        if weights is not None:
            expect["stochastic"] = "yes" if stochastic(blocks, weights) else "no"
        for name, value in expect.items():
            if field(out, name) != value:
                return f"{name}: {field(out, name)!r}, expected {value!r}"
        return None

    return guarded(check)


def graph_census(vertices: int, edges: int, odd: int | None = None, even: int | None = None) -> Check:
    """Vertex and edge counts, and the cycle census when it is known."""

    def check(out: str) -> str | None:
        if (field(out, "vertices"), field(out, "edges")) != (str(vertices), str(edges)):
            return f"graph has {field(out, 'vertices')} vertices and {field(out, 'edges')} edges"
        total, _, split = field(out, "primitive cycles").partition(" ")
        got_odd = len(listed(out, "odd: "))
        got_even = len(listed(out, "even: "))
        if split != f"({got_odd} odd, {got_even} even)" or int(total) != got_odd + got_even:
            return "the cycle census disagrees with the cycle lines"
        if odd is not None and (got_odd, got_even) != (odd, even):
            return f"{got_odd} odd and {got_even} even cycles, expected {odd} and {even}"
        return None

    return guarded(check)


def graph_family(blocks: Blocks) -> Check:
    ground = {g for b in blocks for g in b}
    pairs = {(g, h) for b in blocks for g in b for h in b if g < h}
    return graph_census(len(ground), len(pairs))


def matrix_cycle_count(m: int) -> int:
    """Primitive cycles of the m x m rook graph: every one alternates rows
    and columns through k rows and k columns, for k = 2..m."""
    return sum(
        math.comb(m, k) ** 2 * math.factorial(k) * math.factorial(k - 1) // 2
        for k in range(2, m + 1)
    )


def graph_matrix(m: int) -> Check:
    return graph_census(m * m, m * m * (m - 1), 0, matrix_cycle_count(m))


def graph_ring(n: int) -> Check:
    odd, even = (1, 0) if n % 2 else (0, 1)
    return graph_census(n, n, odd, even)


def classify(blocks: Blocks, w: Weights, verdict: str) -> Check:
    """The verdict must be the known one; a witness must split w exactly."""

    def check(out: str) -> str | None:
        got = field(out, "verdict")
        if got != verdict:
            return f"verdict {got}, expected {verdict}"
        if verdict != "not_extreme":
            return None
        plus = parse_weights(field(out, "w_plus"))
        minus = parse_weights(field(out, "w_minus"))
        if not (stochastic(blocks, plus) and stochastic(blocks, minus)):
            return "a witness half is not stochastic"
        if plus == minus:
            return "the witness halves are equal"
        keys = set(plus) | set(minus) | set(w)
        for g in keys:
            mean = (plus.get(g, Fraction(0)) + minus.get(g, Fraction(0))) / 2
            if mean != w.get(g, Fraction(0)):
                return f"the witness does not average back at {g}"
        return None

    return guarded(check)


def vertices(blocks: Blocks, count: int | None, must_include: Iterable[Weights] = ()) -> Check:
    """Every listed vertex is stochastic and distinct; the count is known
    when given, and planted vertices must be listed."""
    wanted = [nonzero(w) for w in must_include]

    def check(out: str) -> str | None:
        found = [parse_weights(x.partition(": ")[2]) for x in listed(out, "vertex ")]
        if int(field(out, "vertex count")) != len(found):
            return "vertex count disagrees with the vertex lines"
        if count is not None and len(found) != count:
            return f"{len(found)} vertices, expected {count}"
        keys = [tuple(sorted(nonzero(v).items())) for v in found]
        if len(set(keys)) != len(keys):
            return "a vertex is listed twice"
        for v in found:
            if not stochastic(blocks, v):
                return f"vertex {v} is not stochastic"
        for w in wanted:
            if tuple(sorted(w.items())) not in keys:
                return f"planted vertex {sorted(w)} is missing"
        return None

    return guarded(check)


def vertices_matrix(m: int) -> Check:
    blocks = instances.matrix_blocks(m)
    base = vertices(blocks, math.factorial(m))

    def check(out: str) -> str | None:
        problem = base(out)
        if problem is not None:
            return problem
        for x in listed(out, "vertex "):
            if set(parse_weights(x.partition(": ")[2]).values()) != {Fraction(1)}:
                return "a vertex is not a permutation matrix"
        return None

    return guarded(check)


def decompose(blocks: Blocks, w: Weights) -> Check:
    """Coefficients are positive and sum to one, every term is stochastic,
    and the terms recombine to w exactly."""

    def check(out: str) -> str | None:
        terms = []
        for line in listed(out, ""):
            coef, _, rest = line.partition(" * ")
            terms.append((Fraction(coef), parse_weights(rest)))
        if int(field(out, "terms")) != len(terms) or not terms:
            return "term count disagrees with the term lines"
        if any(c <= 0 for c, _ in terms) or sum(c for c, _ in terms) != 1:
            return "coefficients are not a convex combination"
        acc: Weights = {}
        for coef, v in terms:
            if not stochastic(blocks, v):
                return "a term is not stochastic"
            for g, x in v.items():
                acc[g] = acc.get(g, Fraction(0)) + coef * x
        if nonzero(acc) != nonzero(w):
            return "the terms do not recombine to the input"
        if field(out, "recombines exactly") != "yes":
            return "the program says the terms do not recombine"
        return None

    return guarded(check)


def extend(blocks_of: Callable[[int], Iterable[int]], horizon: int, base: Weights) -> Check:
    """Block sums of the extension are at most one everywhere, and exactly
    one on every block up to the horizon when the output says complete.
    The extension agrees with the truncation where that was assigned."""

    def check(out: str) -> str | None:
        w = parse_weights(field(out, "extended"))
        for g, v in base.items():
            if w.get(g) != v:
                return f"the extension changed the assigned value at {g}"
        sums: dict[int, Fraction] = {}
        for g, v in w.items():
            if v < 0:
                return f"negative value at {g}"
            for k in blocks_of(g):
                sums[k] = sums.get(k, Fraction(0)) + v
        if any(s > 1 for s in sums.values()):
            return "a block sum exceeds one"
        complete = field(out, "complete")
        if complete == "yes":
            for k in range(1, horizon + 1):
                if sums.get(k, Fraction(0)) != 1:
                    return f"complete, yet block {k} sums to {sums.get(k, 0)}"
        elif complete != "no":
            return f"complete: {complete!r}"
        return None

    return guarded(check)


def extend_generator(name: str, horizon: int, base: Weights) -> Check:
    return extend(lambda g: instances.generator_blocks_of(name, g), horizon, base)


def extend_family(blocks: Blocks, base: Weights) -> Check:
    where: dict[int, list[int]] = {}
    for k, b in enumerate(blocks, start=1):
        for g in b:
            where.setdefault(g, []).append(k)
    return extend(lambda g: where.get(g, ()), len(blocks), base)


def validate_agrees(count: int | None = None) -> Check:
    def check(out: str) -> str | None:
        if field(out, "agreement") != "yes":
            return "validate reports a discrepancy"
        if count is not None and int(field(out, "vertex count")) != count:
            return f"vertex count {field(out, 'vertex count')}, expected {count}"
        return None

    return guarded(check)


def gen(kappa_max: int) -> Check:
    """A generated instance respects the multiplicity cap, and its weights,
    when it claims feasibility, are stochastic."""

    def check(out: str) -> str | None:
        doc = json.loads(out)
        blocks = doc["blocks"]
        mult = instances.multiplicities(blocks)
        if mult and max(mult.values()) > kappa_max:
            return "a multiplicity exceeds the cap"
        if len({tuple(b) for b in blocks}) != len(blocks):
            return "a block repeats"
        if doc["feasible"] != ("weights" in doc):
            return "weights must be present exactly when feasible"
        if doc["feasible"]:
            w = {int(g): Fraction(v) for g, v in doc["weights"].items()}
            if not stochastic(blocks, w):
                return "the generated member is not stochastic"
        return None

    return guarded(check)


def no_output(out: str) -> str | None:
    """For ops whose exit code is the whole answer."""
    return None
