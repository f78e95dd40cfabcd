"""Finite-horizon completion of partially assigned weight functions.

A generator describes a family with unboundedly many blocks through
pure functions on indices and labels.  A truncation fixes weights whose
support lies inside the first ``n`` blocks, summing to one on each of
those and to at most one beyond.  The completion walks the remaining
blocks in order and places one fresh element per unsaturated block,
carrying exactly the missing amount, so that every block visited within
the horizon ends at sum one.  The new values are dominated by two 0/1
packing patterns, which is what keeps the construction inside the
original polytope.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from math import isqrt, lcm
from typing import Iterable, Iterator, Protocol

from .errors import (
    GeneratorInconsistentError,
    HorizonExhaustedError,
    InputError,
    InternalPropertyError,
    NotStochasticError,
)
from .family import ONE, ZERO, SetFamily, WeightFunction, build_family, format_rational
from .family import _block_sums, _common_denominator, _numerators
from .oracle import Decomposition, column_rank, decompose

# fresh elements a completion step inspects in one block before giving up
SCAN_LIMIT = 4096


class FamilyGenerator(Protocol):
    """A lazily evaluated family of blocks over positive integer labels.

    ``block_count`` is ``None`` for unbounded families.
    ``claims_fresh_supply`` promises that every block keeps elements
    outside any finite exploration that follows ascending block order.
    The first block of a label ``g`` is ``gamma_of(g)[0]``, and the
    fresh elements of block ``k`` are its labels whose first block is
    ``k``: a completion walk reaching ``k`` has saturated every earlier
    block, so these are the only labels it can still choose there.
    All methods must be pure and deterministic.
    """

    name: str
    block_count: int | None
    claims_fresh_supply: bool

    def block_elements(self, k: int) -> Iterator[int]:
        """Elements of block ``k`` in ascending label order."""

    def fresh_elements(self, k: int) -> Iterator[int]:
        """Elements of block ``k`` whose first block is ``k``, ascending."""

    def gamma_of(self, g: int) -> tuple[int, ...]:
        """Sorted indices of every block containing ``g`` (always finite)."""

    def contains(self, k: int, g: int) -> bool:
        """Whether block ``k`` contains label ``g``."""


def _check_index(k: int) -> None:
    if k < 1:
        raise InputError(f"block index {k} is out of range")


class PathGenerator:
    """Blocks {k, k+1}: consecutive overlapping pairs along a ray."""

    name = "path"
    block_count: int | None = None
    claims_fresh_supply = True

    def block_elements(self, k: int) -> Iterator[int]:
        _check_index(k)
        return iter((k, k + 1))

    def fresh_elements(self, k: int) -> Iterator[int]:
        _check_index(k)
        return iter((1, 2) if k == 1 else (k + 1,))

    def gamma_of(self, g: int) -> tuple[int, ...]:
        if g < 1:
            raise InputError(f"label {g} is not positive")
        return (1,) if g == 1 else (g - 1, g)

    def contains(self, k: int, g: int) -> bool:
        _check_index(k)
        return g in (k, k + 1)


class DisjointGrowingGenerator:
    """Pairwise disjoint blocks of sizes 1, 2, 3, ... in label order."""

    name = "disjoint-growing"
    block_count: int | None = None
    claims_fresh_supply = True

    def block_elements(self, k: int) -> Iterator[int]:
        _check_index(k)
        start = k * (k - 1) // 2 + 1
        return iter(range(start, start + k))

    def fresh_elements(self, k: int) -> Iterator[int]:
        return self.block_elements(k)

    def gamma_of(self, g: int) -> tuple[int, ...]:
        if g < 1:
            raise InputError(f"label {g} is not positive")
        return ((isqrt(8 * g - 7) + 1) // 2,)

    def contains(self, k: int, g: int) -> bool:
        _check_index(k)
        start = k * (k - 1) // 2 + 1
        return start <= g < start + k


class GridGenerator:
    """Rows and columns of an unbounded matrix, interleaved.

    Cell (r, c) gets the diagonal label (r+c-2)(r+c-1)/2 + r.  Block
    2r-1 is row r and block 2c is column c, so every label lies in
    exactly two blocks and the blocks are unbounded.  Cell (r, c) is
    fresh in its row when c >= r and in its column otherwise.
    """

    name = "grid"
    block_count: int | None = None
    claims_fresh_supply = True

    @staticmethod
    def label(r: int, c: int) -> int:
        if r < 1 or c < 1:
            raise InputError("matrix coordinates start at one")
        d = r + c - 2
        return d * (d + 1) // 2 + r

    @staticmethod
    def cell(g: int) -> tuple[int, int]:
        if g < 1:
            raise InputError(f"label {g} is not positive")
        s = g - 1
        d = (isqrt(8 * s + 1) - 1) // 2
        r = s - d * (d + 1) // 2 + 1
        return r, d - r + 2

    def _line(self, k: int, start: int) -> Iterator[int]:
        """The cells of block ``k`` from its ``start``-th on, in label order."""
        _check_index(k)
        if k % 2 == 1:
            r = (k + 1) // 2
            return (self.label(r, c) for c in count(start))
        c = k // 2
        return (self.label(r, c) for r in count(start))

    def block_elements(self, k: int) -> Iterator[int]:
        return self._line(k, 1)

    def fresh_elements(self, k: int) -> Iterator[int]:
        # row r starts at column r, column c at row c + 1: both k // 2 + 1
        return self._line(k, k // 2 + 1)

    def gamma_of(self, g: int) -> tuple[int, ...]:
        r, c = self.cell(g)
        return tuple(sorted((2 * r - 1, 2 * c)))

    def contains(self, k: int, g: int) -> bool:
        _check_index(k)
        r, c = self.cell(g)
        return k == 2 * r - 1 or k == 2 * c


class WrappedFamilyGenerator:
    """A finite family exposed through the generator interface.

    The completion loop treats it in exhaustion mode: once every block
    is saturated the walk simply stops, so no fresh-supply promise is
    made.
    """

    name = "wrapped"
    claims_fresh_supply = False

    def __init__(self, family: SetFamily):
        self._family = family
        self.block_count: int | None = len(family.blocks)

    def block_elements(self, k: int) -> Iterator[int]:
        return iter(self._family.block(k).members)

    def fresh_elements(self, k: int) -> Iterator[int]:
        membership = self._family.membership
        return (g for g in self._family.block(k).members if membership(g)[0] == k)

    def gamma_of(self, g: int) -> tuple[int, ...]:
        return self._family.membership(g)

    def contains(self, k: int, g: int) -> bool:
        return g in self._family.block(k).member_set


_BUILTIN_GENERATORS = {
    PathGenerator.name: PathGenerator,
    DisjointGrowingGenerator.name: DisjointGrowingGenerator,
    GridGenerator.name: GridGenerator,
}


def get_generator(name: str) -> FamilyGenerator:
    """Look up a built-in generator by name."""
    try:
        return _BUILTIN_GENERATORS[name]()
    except KeyError:
        known = ", ".join(sorted(_BUILTIN_GENERATORS))
        raise InputError(f"unknown generator {name!r}; known: {known}") from None


@dataclass(frozen=True)
class Truncation:
    """Weights assigned inside the union of the first ``n`` blocks."""

    n: int
    w: WeightFunction


def _label_index(
    generator: FamilyGenerator, labels: Iterable[int]
) -> dict[int, tuple[int, ...]]:
    """``gamma_of`` of each of ``labels``, in the order given.

    The one check of a generator's ``gamma_of`` answers: each label's is
    read once, a label in no block is refused, and each block it lists
    is cross-checked with ``contains``.
    """
    gammas: dict[int, tuple[int, ...]] = {}
    for g in labels:
        gamma = gammas[g] = generator.gamma_of(g)
        if not gamma:
            raise InputError(f"element {g} lies in no block")
        _cross_check(generator, g, gamma)
    return gammas


def _cross_check(generator: FamilyGenerator, g: int, gamma: tuple[int, ...]) -> None:
    """Raise unless ``contains(k, g)`` holds for each block ``k`` of
    ``gamma``, the blocks ``gamma_of(g)`` lists."""
    for k in gamma:
        if not generator.contains(k, g):
            raise GeneratorInconsistentError(
                f"gamma_of({g}) lists block {k} but contains({k}, {g}) is false"
            )


def validate_truncation(
    generator: FamilyGenerator, trunc: Truncation
) -> dict[int, Fraction]:
    """Raise unless the truncation is a valid partial assignment.

    The support must lie inside the first ``n`` blocks, values must be
    nonnegative, blocks up to ``n`` must sum to exactly one, and every
    later block meeting the support must sum to at most one.  Returns
    the block sums of the weights over every block meeting the support.
    """
    scale, sums = _validated_sums(generator, trunc)
    return {k: Fraction(total, scale) for k, total in sums.items()}


def _validated_sums(
    generator: FamilyGenerator, trunc: Truncation
) -> tuple[int, dict[int, int]]:
    """``validate_truncation``'s checks, returning the least common
    denominator ``L`` of the weights and, over every block meeting the
    support, the block sum times ``L``, an integer.  A label in no block
    is refused by the support's label index."""
    if trunc.n < 1:
        raise InputError("the truncation depth must be positive")
    if generator.block_count is not None and trunc.n > generator.block_count:
        raise InputError(
            f"truncation depth {trunc.n} exceeds the {generator.block_count}"
            " available blocks"
        )
    if not trunc.w.nonnegative:
        raise InputError("truncation weights must be nonnegative")
    gammas = _label_index(generator, trunc.w.support)
    for g, gamma in gammas.items():
        if min(gamma) > trunc.n:
            raise InputError(
                f"element {g} lies outside the first {trunc.n} blocks"
            )
    scale = _common_denominator(trunc.w)
    sums = _block_sums(_numerators(trunc.w, scale), gammas)
    _require_block_sums(sums, scale, trunc.n)
    return scale, sums


def _require_block_sums(sums: dict[int, int], scale: int, upto: int) -> None:
    """Raise unless blocks 1 to ``upto`` sum to one and none sums above one.

    ``sums`` are block sums times ``scale``.
    """
    for k in range(1, upto + 1):
        total = sums.get(k, 0)
        if total != scale:
            raise NotStochasticError(
                f"block {k} sums to {format_rational(Fraction(total, scale))},"
                " expected 1"
            )
    for k, total in sorted(sums.items()):
        if total > scale:
            raise NotStochasticError(
                f"block {k} sums to {format_rational(Fraction(total, scale))} > 1"
            )


def _last_block(generator: FamilyGenerator, horizon: int) -> int:
    """The last block a walk up to ``horizon`` reaches."""
    if generator.block_count is None:
        return horizon
    return min(horizon, generator.block_count)


def tail_sums(
    generator: FamilyGenerator, trunc: Truncation, horizon: int
) -> tuple[Fraction, ...]:
    """Partial sums the truncation already contributes to later blocks.

    Entry ``j`` (for ``j`` from ``n+1`` to ``horizon``) is the sum of
    the assigned weights inside block ``j``.  Once ``j`` exceeds every
    block index meeting the support the entries are zero.
    """
    scale, sums = _validated_sums(generator, trunc)
    if horizon < trunc.n:
        raise InputError("the horizon must not precede the truncation depth")
    return tuple(
        Fraction(sums.get(j, 0), scale) for j in range(trunc.n + 1, horizon + 1)
    )


@dataclass(frozen=True)
class ChosenStep:
    """One completion step: ``element`` put into block ``block_index``.

    ``value`` is the amount assigned, ``pattern`` names the 0/1 packing
    ("a" or "b") dominating the element, and ``overlap_with`` is the one
    earlier chosen element sharing a block, if any.
    """

    element: int
    block_index: int
    value: Fraction
    pattern: str
    overlap_with: int | None


@dataclass(frozen=True)
class ExtensionResult:
    """A completed weight function together with its construction trace."""

    n: int
    horizon: int
    extended: WeightFunction
    steps: tuple[ChosenStep, ...]
    packing_a: WeightFunction
    packing_b: WeightFunction
    complete: bool

    @property
    def chosen_elements(self) -> tuple[int, ...]:
        return tuple(step.element for step in self.steps)


def _eligible(
    others: tuple[int, ...],
    delta: dict[int, int],
    cap: int,
    chosen_in: dict[int, list[tuple[int, str]]],
) -> bool:
    """Whether a label's other blocks each sum below ``cap`` and hold no
    earlier chosen element."""
    for k in others:
        if k in chosen_in or delta.get(k, 0) >= cap:
            return False
    return True


def extend_truncation(
    generator: FamilyGenerator,
    trunc: Truncation,
    horizon: int,
) -> ExtensionResult:
    """Complete a truncation to block sums of one, one element at a time.

    Repeatedly take the least-index unsaturated block, find the least
    fresh label in it whose other blocks each sum to strictly less than
    the current block (exactly zero when the current block is empty)
    and hold no earlier chosen element, and assign it the missing
    amount.  No block then goes above one, and each chosen element
    meets at most one earlier one, in the block being filled.  The walk
    stops at the horizon, or earlier when a bounded family is exhausted.

    Every block before the current one is saturated when the walk gets
    there, so a label that also lies in an earlier block is never
    eligible, and the scan reads only the block's ``fresh_elements``.
    Each label it inspects must have the current block as its first
    block, or ``GeneratorInconsistentError`` is raised.  A block whose
    fresh elements run out, or offer no eligible label among the first
    ``SCAN_LIMIT``, raises ``HorizonExhaustedError`` rather than being
    skipped.
    """
    # _validated_sums has rejected every block sum above one; block
    # sums and missing amounts are integers over the weights' denominator
    scale, delta = _validated_sums(generator, trunc)
    if horizon <= trunc.n:
        raise InputError("the horizon must exceed the truncation depth")
    if not generator.claims_fresh_supply and generator.block_count is None:
        raise InputError(
            "an unbounded generator must promise fresh elements in"
            " every block"
        )
    values = dict(trunc.w.items())
    steps: list[ChosenStep] = []
    # block -> (element, pattern) of every chosen element inside it
    chosen_in: dict[int, list[tuple[int, str]]] = {}
    last_block = _last_block(generator, horizon)

    cursor = trunc.n + 1
    while True:
        while cursor <= last_block and delta.get(cursor, 0) == scale:
            cursor += 1
        if cursor > last_block:
            complete = True
            break
        k_j = cursor
        bound = delta.get(k_j, 0)
        need = scale - bound
        if need <= 0:
            raise InternalPropertyError("an unsaturated block lacks headroom")
        # block sums are nonnegative integers, so a cap of 1 asks for zero
        cap = max(bound, 1)
        chosen = None
        scanned = 0
        for g in islice(generator.fresh_elements(k_j), SCAN_LIMIT):
            scanned += 1
            gamma = generator.gamma_of(g)
            if k_j not in gamma:
                raise GeneratorInconsistentError(
                    f"block {k_j} yields label {g} outside gamma_of({g})"
                )
            if gamma[0] != k_j:
                raise GeneratorInconsistentError(
                    f"block {k_j} yields label {g} as fresh, but its first"
                    f" block is {gamma[0]}"
                )
            if _eligible(gamma[1:], delta, cap, chosen_in):
                chosen = (g, gamma)
                break
        if chosen is None:
            if scanned < SCAN_LIMIT:
                detail = "no fresh eligible element exists"
            else:
                detail = f"none found among the first {scanned} fresh elements"
            raise HorizonExhaustedError(
                f"block {k_j} cannot be saturated: {detail}"
            )
        g_j, gamma = chosen
        overlaps = {
            elem: pattern for k in gamma for elem, pattern in chosen_in.get(k, ())
        }
        if len(overlaps) > 1:
            raise InternalPropertyError(
                f"element {g_j} meets {len(overlaps)} earlier chosen elements"
            )
        if overlaps:
            ((overlap_with, other_pattern),) = overlaps.items()
            pattern = "a" if other_pattern == "b" else "b"
        else:
            overlap_with, pattern = None, "a"
        _cross_check(generator, g_j, gamma)
        for k in gamma:
            new_total = delta.get(k, 0) + need
            if new_total > scale:
                raise InternalPropertyError(
                    f"block {k} overflows to"
                    f" {format_rational(Fraction(new_total, scale))} at element {g_j}"
                )
            delta[k] = new_total
            chosen_in.setdefault(k, []).append((g_j, pattern))
        values[g_j] = value = Fraction(need, scale)
        steps.append(
            ChosenStep(
                element=g_j,
                block_index=k_j,
                value=value,
                pattern=pattern,
                overlap_with=overlap_with,
            )
        )

    extended = WeightFunction._trusted(values)
    packing_a = WeightFunction._trusted(
        {s.element: ONE for s in steps if s.pattern == "a"}
    )
    packing_b = WeightFunction._trusted(
        {s.element: ONE for s in steps if s.pattern == "b"}
    )
    result = ExtensionResult(
        n=trunc.n,
        horizon=horizon,
        extended=extended,
        steps=tuple(steps),
        packing_a=packing_a,
        packing_b=packing_b,
        complete=complete,
    )
    report = verify_extension(result, generator, trunc)
    if report.violations:
        raise InternalPropertyError(
            "the completed function fails its own checks: "
            + "; ".join(report.violations)
        )
    return result


@dataclass(frozen=True)
class ExtensionReport:
    """Independent re-checks of an ExtensionResult.

    ``vertex_input`` is whether the truncation was extreme in its own
    truncated polytope (None when not determined), ``vertex_shadow``
    whether the completion stays extreme on the finite sub-family of
    saturated blocks over its support.
    """

    violations: tuple[str, ...]
    vertex_input: bool | None
    vertex_shadow: bool | None

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_extension(
    result: ExtensionResult,
    generator: FamilyGenerator,
    trunc: Truncation,
) -> ExtensionReport:
    """Re-check a completion from scratch, reporting every violation.

    Checks: the completion agrees with the truncation except on the
    chosen elements, each carrying a positive value outside the first
    ``n`` blocks; block sums are one on the blocks the walk saturated
    and never exceed one; each chosen element meets at most one earlier
    one; the added values are dominated by the two packing patterns,
    each 0/1-valued with block sums at most one.  When the truncation is
    extreme in the truncated polytope, the completion must stay extreme
    on the finite sub-family of saturated blocks over its support.

    The overlaps are found through an index from each block to the
    chosen elements in it, built here from ``gamma_of`` independently of
    the walk.  The block sums and the columns of the rank checks come
    from one label index per call, over every label the completion, the
    truncation, the packings and the steps name: it reads each label's
    ``gamma_of`` once, raises ``InputError`` on a label in no block and
    ``GeneratorInconsistentError`` when ``contains`` denies a block
    listed.  So they trust the protocol's promise that ``gamma_of``
    lists every block containing an element.  A function's block sums
    add its own values over its labels' blocks, and its rank check takes
    one column per label of its support, the label's blocks among those
    the function must fill.

    Values, differences, block sums and the packing cover are compared
    as integers over one common denominator, taken here from the values
    of the result and the truncation, never from the walk.
    """
    violations: list[str] = []
    base = trunc.w
    extended = result.extended
    chosen = {s.element: s for s in result.steps}
    if len(chosen) != len(result.steps):
        violations.append("a chosen element repeats")
    functions = (extended, base, result.packing_a, result.packing_b)
    scale = lcm(
        _common_denominator(*functions), *{s.value.denominator for s in result.steps}
    )
    extended_values = _numerators(extended, scale)
    base_values = _numerators(base, scale)
    step_values = {
        g: s.value.numerator * (scale // s.value.denominator)
        for g, s in chosen.items()
    }
    labels = sorted(set(chosen).union(*(w.support for w in functions)))
    gammas = _label_index(generator, labels)
    # extended - base, only where the two differ, in label order
    diff: dict[int, int] = {}
    for g in labels:
        change = extended_values.get(g, 0) - base_values.get(g, 0)
        if change:
            diff[g] = change
    for g, value in diff.items():
        if g not in chosen:
            violations.append(f"element {g} changed without a recorded step")
        elif value != step_values[g] or value <= 0:
            violations.append(
                f"element {g} carries {format_rational(Fraction(value, scale))},"
                " not its step value"
            )
    for g, step in chosen.items():
        if diff.get(g, 0) != step_values[g]:
            violations.append(f"step at {g} left no trace in the completion")
        gamma = gammas[g]
        if min(gamma) <= trunc.n:
            violations.append(f"chosen element {g} is not fresh")
        if step.block_index not in gamma:
            violations.append(
                f"chosen element {g} lies outside block {step.block_index}"
            )

    sums = _block_sums(extended_values, gammas)
    last_block = _last_block(generator, result.horizon)
    for k, total in sorted(sums.items()):
        if total > scale:
            violations.append(
                f"block {k} sums to {format_rational(Fraction(total, scale))} > 1"
            )
    must_saturate = set(range(1, trunc.n + 1))
    must_saturate.update(s.block_index for s in result.steps)
    if result.complete:
        must_saturate.update(range(trunc.n + 1, last_block + 1))
    for k in sorted(must_saturate):
        total = sums.get(k, 0)
        if total != scale:
            violations.append(
                f"block {k} sums to {format_rational(Fraction(total, scale))},"
                " expected 1"
            )

    earlier_in: dict[int, list[int]] = {}
    for step in result.steps:
        gj = step.element
        gamma = gammas[gj]
        met = {gi for k in gamma for gi in earlier_in.get(k, ())}
        for k in gamma:
            earlier_in.setdefault(k, []).append(gj)
        if len(met) > 1:
            violations.append(f"element {gj} meets {len(met)} earlier elements")
        recorded = chosen[gj].overlap_with
        if met and recorded not in met:
            violations.append(f"element {gj} records the wrong overlap")
        if not met and recorded is not None:
            violations.append(f"element {gj} records a phantom overlap")

    cover: dict[int, int] = {}
    for name, packing in (("a", result.packing_a), ("b", result.packing_b)):
        if not packing.zero_one:
            violations.append(f"packing {name} is not 0/1-valued")
        packing_values = _numerators(packing, scale)
        for k, total in sorted(_block_sums(packing_values, gammas).items()):
            if total > scale:
                violations.append(
                    f"packing {name} puts"
                    f" {format_rational(Fraction(total, scale))} > 1 into block {k}"
                )
        for g, value in packing_values.items():
            cover[g] = cover.get(g, 0) + value
    for g, value in diff.items():
        if value > cover.get(g, 0):
            violations.append(f"added value at {g} exceeds the packing cover")

    base_sums = _block_sums(base_values, gammas)
    filled = {k for k, total in base_sums.items() if total == scale or k <= trunc.n}
    base_columns = [[k for k in gammas[g] if k in filled] for g in base_values]
    vertex_input = column_rank(base_columns) == len(base_values)
    vertex_shadow: bool | None = None
    if vertex_input:
        saturated = {k for k, total in sums.items() if total == scale}
        columns = [[k for k in gammas[g] if k in saturated] for g in extended_values]
        vertex_shadow = column_rank(columns) == len(extended_values)
        if not vertex_shadow:
            violations.append(
                "an extreme truncation completed to a non-extreme function"
            )
    return ExtensionReport(
        violations=tuple(violations),
        vertex_input=vertex_input,
        vertex_shadow=vertex_shadow,
    )


@dataclass(frozen=True)
class ApproximationReport:
    """Exact gaps between a target function and a convex recombination."""

    n: int
    horizon: int
    block_discrepancy: dict[int, Fraction]
    element_discrepancy: dict[int, Fraction]
    combined: WeightFunction

    def max_block_discrepancy(self, up_to: int | None = None) -> Fraction:
        bound = self.horizon if up_to is None else up_to
        gaps = [d for k, d in self.block_discrepancy.items() if k <= bound]
        return max(gaps, default=ZERO)


def approximate_by_extremes(
    generator: FamilyGenerator,
    w_full: WeightFunction,
    n: int,
    horizon: int,
) -> tuple[Decomposition, ApproximationReport]:
    """Approximate a fully stochastic function by completed extremes.

    The function is restricted to the first ``n`` blocks, decomposed
    into extreme points of the truncated polytope (inequality blocks get
    slack elements), and each extreme point is completed through
    ``extend_truncation``.  The same convex combination of completions
    is then compared with the original: every gap is a value of the one
    difference ``w_full - combined``, the absolute block sums of the
    blocks up to the horizon and the absolute values of the labels whose
    first block is one of them.  Every completion saturates each block
    up to the horizon, so the block gaps are zero by construction and
    the element gaps carry the information.  Deeper truncations can only
    see more of the original, so the gaps over a fixed initial range
    shrink as ``n`` grows; the report makes that measurable rather than
    assumed.
    """
    if n < 1:
        raise InputError("the truncation depth must be positive")
    if horizon <= n:
        raise InputError("the horizon must exceed the truncation depth")
    if not w_full.nonnegative:
        raise InputError("the target function must be nonnegative")
    gammas = _label_index(generator, w_full.support)
    scale = _common_denominator(w_full)
    values = _numerators(w_full, scale)
    sums = _block_sums(values, gammas)
    last_block = _last_block(generator, horizon)
    _require_block_sums(sums, scale, last_block)

    star = {g: value for g, value in w_full.items() if min(gammas[g]) <= n}
    touched: dict[int, list[int]] = {}
    for g in star:
        for k in gammas[g]:
            touched.setdefault(k, []).append(g)
    star_sums = _block_sums({g: values[g] for g in star}, gammas)
    augmented = dict(star)
    # every label from first_slack on is a slack element
    first_slack = next_label = max(star, default=0) + 1
    for k in sorted(touched):
        if k > n:
            augmented[next_label] = Fraction(scale - star_sums[k], scale)
            touched[k].append(next_label)
            next_label += 1
    # blocks with the same members impose the same equation: keep one
    rows = dict.fromkeys(tuple(touched[k]) for k in sorted(touched))
    finite = build_family(rows)
    base_decomposition = decompose(finite, WeightFunction(augmented))

    terms = []
    for coefficient, vertex in base_decomposition.terms:
        stripped = WeightFunction._trusted(
            {g: v for g, v in vertex.items() if g < first_slack}
        )
        completion = extend_truncation(
            generator, Truncation(n=n, w=stripped), horizon
        )
        terms.append((coefficient, completion.extended))
    approximation = Decomposition(terms=tuple(terms))
    combined = approximation.combined()

    diff = w_full - combined
    # only the combination's labels outside w_full's support are new
    gammas |= _label_index(generator, [g for g in diff.support if g not in gammas])
    diff_scale = _common_denominator(diff)
    diff_sums = _block_sums(_numerators(diff, diff_scale), gammas)
    block_gap = {
        k: Fraction(abs(diff_sums.get(k, 0)), diff_scale)
        for k in range(1, last_block + 1)
    }
    element_gap = {g: abs(v) for g, v in diff.items() if min(gammas[g]) <= last_block}
    report = ApproximationReport(
        n=n,
        horizon=horizon,
        block_discrepancy=block_gap,
        element_discrepancy=element_gap,
        combined=combined,
    )
    return approximation, report
