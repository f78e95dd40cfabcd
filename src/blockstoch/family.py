"""Set families with unit block sums, and exact membership tests.

A family is a finite list of blocks: nonempty sets of integer labels
whose union forms the ground set.  A weight function maps labels to
rationals, stored as integer numerators over their least common
denominator, the one form every module reads and writes.  The central
polytope consists of the nonnegative weight functions whose sum over
every block equals one ("stochastic"); the substochastic relaxation
allows sums at most one.  The 0/1-valued members of the two polytopes
are exact covers and packings of the family.  Sums are exact: integers
over that denominator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    DuplicateBlockError,
    EmptyBlockError,
    EmptyFamilyError,
    InputError,
    InternalPropertyError,
    NotACoverError,
    NotStochasticError,
    UnknownElementError,
)

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


def _decimal(n: int) -> str:
    """The decimal digits of ``n``, at any size, leaving the interpreter's
    digit limit (``sys.set_int_max_str_digits``, Python 3.11+, at least
    640 digits) alone: a number past 2000 bits, about 600 digits, is split
    by ``divmod`` with a power of ten near the middle of its digits."""
    if n < 0:
        return "-" + _decimal(-n)
    if n.bit_length() <= 2000:
        return str(n)
    k = n.bit_length() * 3 // 20  # below half the digits, as log10(2) > 3/10
    high, low = divmod(n, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def format_rational(value: Fraction) -> str:
    """Render a rational as ``"p/q"``, or ``"p"`` when the denominator is
    one, as ``str`` does, at any size (:func:`_decimal`)."""
    return _format_ratio(value.numerator, value.denominator)


def _format_ratio(p: int, q: int) -> str:
    """:func:`format_rational` of ``p/q``, given in lowest terms, q > 0."""
    return _decimal(p) if q == 1 else f"{_decimal(p)}/{_decimal(q)}"


@dataclass(frozen=True)
class Block:
    """One block of a family: a stable index and its sorted members.

    ``member_set`` is built once, with the block, because membership
    tests run in inner loops.  It is an ordinary attribute rather than a
    lazily filled cache: adding an attribute to a constructed instance
    slows every later attribute read on it in CPython 3.11.
    """

    index: int
    members: tuple[int, ...]
    member_set: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "member_set", frozenset(self.members))

    def __contains__(self, label: object) -> bool:
        return label in self.member_set

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True, eq=False)
class SetFamily:
    """An indexed family of blocks together with its membership index.

    ``gamma`` maps each ground element to the sorted tuple of indices of
    the blocks containing it (never empty).  Block indices are positive
    and strictly increasing along ``blocks`` but need not be contiguous:
    reductions keep the surviving blocks' original indices.  The block
    lookup is built with the family, as :class:`Block`'s ``member_set`` is.
    """

    blocks: tuple[Block, ...]
    ground: tuple[int, ...]
    gamma: dict[int, tuple[int, ...]]
    _by_index: dict[int, Block] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_by_index", {b.index: b for b in self.blocks})

    def block(self, index: int) -> Block:
        b = self._by_index.get(index)
        if b is None:
            raise InputError(f"no block with index {index}")
        return b

    def membership(self, label: int) -> tuple[int, ...]:
        got = self.gamma.get(label)
        if got is None:
            raise UnknownElementError(f"label {label} is not in the ground set")
        return got

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SetFamily({len(self.blocks)} blocks, {len(self.ground)} elements)"


def _assemble(indexed_blocks: list[tuple[int, tuple[int, ...]]]) -> SetFamily:
    """Build a SetFamily from (index, sorted members) pairs of checked
    labels, refusing empty, repeated and duplicate blocks."""
    if not indexed_blocks:
        raise EmptyFamilyError("a family needs at least one block")
    seen: dict[frozenset[int], int] = {}
    blocks = []
    gamma: dict[int, list[int]] = {}
    for index, members in indexed_blocks:
        if not members:
            raise EmptyBlockError(f"block {index} is empty")
        block = Block(index=index, members=members)
        key = block.member_set
        if len(key) != len(members):
            raise InputError(f"block {index} repeats a member")
        if key in seen:
            raise DuplicateBlockError(
                f"blocks {seen[key]} and {index} have identical members"
            )
        seen[key] = index
        blocks.append(block)
        for g in members:
            gamma.setdefault(g, []).append(index)
    return SetFamily(
        blocks=tuple(blocks),
        ground=tuple(sorted(gamma)),
        gamma=dict(zip(gamma, map(tuple, gamma.values()))),
    )


def _check_ground(family: SetFamily, labels: Iterable[int]) -> None:
    """Refuse declared ground labels, checked to be non-negative integers,
    that repeat or differ from the union of the blocks."""
    declared: set[int] = set()
    for g in labels:
        if g in declared:
            raise InputError(f"ground label {g} is given twice")
        declared.add(g)
    extra = sorted(declared - family.gamma.keys())[:5]
    if extra:
        raise InputError(f"ground labels {extra} belong to no block")
    missing = sorted(family.gamma.keys() - declared)[:5]
    if missing:
        raise InputError(f"block members {missing} are missing from ground")


def _check_labels(labels: list, where: str) -> None:
    """Refuse the first label that is not a non-negative integer.  A list
    of plain ``int``s (``bool`` is a type of its own) passes at C speed."""
    if set(map(type, labels)) <= {int} and min(labels, default=0) >= 0:
        return
    for value in labels:
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputError(f"{where}: labels must be integers, got {value!r}")
        if value < 0:
            raise InputError(f"{where}: labels must be non-negative, got {value}")


def build_family(
    blocks: Iterable[Iterable[int]], ground: Iterable[int] | None = None
) -> SetFamily:
    """Create a family from member lists, indexing blocks 1, 2, ... in order.

    Labels must be nonnegative integers.  When ``ground`` is given it must
    equal the union of the blocks, each label once; elements outside every
    block would violate the covering invariant and are rejected.  The
    first fault is refused, in this order: every block's labels, the
    ground labels, empty, repeated and duplicate blocks, a repeated
    ground label and ground agreement.  The instance loader checks the
    JSON shapes before this and the weights after it.
    """
    indexed = []
    for pos, raw in enumerate(blocks, start=1):
        members = list(raw)
        _check_labels(members, f"block {pos}")
        indexed.append((pos, tuple(sorted(members))))
    if ground is not None:
        ground = list(ground)
        _check_labels(ground, '"ground"')
    family = _assemble(indexed)
    if ground is not None:
        _check_ground(family, ground)
    return family


def multiplicity(family: SetFamily, label: int) -> int:
    """Number of blocks containing ``label``."""
    return len(family.membership(label))


def max_multiplicity(family: SetFamily) -> int:
    """Largest multiplicity over the ground set."""
    return max(len(ks) for ks in family.gamma.values())


def _as_fraction(value: object) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InputError(f"weight value {value!r} is not rational")
    if isinstance(value, int):
        return Fraction(value)
    raise InputError(f"weight value {value!r} is not rational")


class WeightFunction:
    """A finitely supported map from labels to exact rationals, stored as
    ``numerators`` (a read-only mapping from each support label,
    ascending, to a nonzero integer) over ``scale``, their least common
    denominator; the ``Fraction`` view is built on each call.  Neither
    field can be assigned, so a point keeps its value and hash.  Zero
    values are dropped, so two functions are equal exactly when they
    agree everywhere.  Values may be negative; the membership classifier
    reports on nonnegativity rather than forbidding it.
    """

    __slots__ = ("numerators", "scale")

    def __init__(self, mapping: Mapping[int, object] | Iterable[tuple[int, object]]):
        pairs = mapping.items() if isinstance(mapping, Mapping) else mapping
        cleaned: dict[int, Fraction] = {}
        for g, v in pairs:
            if isinstance(g, bool) or not isinstance(g, int):
                raise InputError(f"weight label {g!r} is not an integer")
            value = _as_fraction(v)
            if g in cleaned:
                raise InputError(f"label {g} appears twice")
            if value != 0:
                cleaned[g] = value
        scale = lcm(*{v.denominator for v in cleaned.values()})
        numerators = {
            g: v.numerator * (scale // v.denominator) for g, v in sorted(cleaned.items())
        }
        object.__setattr__(self, "numerators", MappingProxyType(numerators))
        object.__setattr__(self, "scale", scale)

    @classmethod
    def zero(cls) -> "WeightFunction":
        return cls({})

    @classmethod
    def _trusted(cls, numerators: Mapping[int, int], scale: int) -> "WeightFunction":
        """The function whose values are ``numerators``, integer labels to
        integers the package computed itself, over a nonzero ``scale``,
        built without the checks: labels sorted, zeros dropped, and the
        greatest common divisor, signed as ``scale``, divided out."""
        d = gcd(scale, *numerators.values())
        if scale < 0:
            d = -d
        w = object.__new__(cls)
        reduced = {g: n // d for g in sorted(numerators) if (n := numerators[g])}
        object.__setattr__(w, "numerators", MappingProxyType(reduced))
        object.__setattr__(w, "scale", scale // d)
        return w

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"WeightFunction.{name} is read-only")

    def __reduce__(self):
        return type(self), (self.items(),)

    def value(self, label: int) -> Fraction:
        return Fraction(self.numerators.get(label, 0), self.scale)

    __call__ = value

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(self.numerators)

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        scale = self.scale
        return tuple((g, Fraction(n, scale)) for g, n in self.numerators.items())

    def total(self) -> Fraction:
        return Fraction(sum(self.numerators.values()), self.scale)

    @property
    def nonnegative(self) -> bool:
        return all(n > 0 for n in self.numerators.values())

    @property
    def zero_one(self) -> bool:
        return all(n == self.scale for n in self.numerators.values())

    def __add__(self, other: "WeightFunction") -> "WeightFunction":
        return _combination(((ONE, self), (ONE, other)))

    def __sub__(self, other: "WeightFunction") -> "WeightFunction":
        return _combination(((ONE, self), (-ONE, other)))

    def scaled(self, factor: object) -> "WeightFunction":
        return _combination(((_as_fraction(factor), self),))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightFunction):
            return NotImplemented
        return self.scale == other.scale and self.numerators == other.numerators

    def __hash__(self) -> int:
        return hash((self.scale, *self.numerators.items()))

    def sort_key(self) -> tuple:
        """Each value as (label, numerator, denominator) in lowest terms."""
        scale = self.scale
        return tuple(
            [(g, n // (d := gcd(n, scale)), scale // d) for g, n in self.numerators.items()]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{g}: {v}" for g, v in self.items())
        return f"WeightFunction({{{body}}})"


@dataclass(frozen=True)
class MembershipReport:
    """Block sums and the four membership flags for one weight function.

    A negative value anywhere forces all four flags to False; the block
    sums are still reported.
    """

    block_sums: tuple[tuple[int, Fraction], ...]
    nonnegative: bool
    stochastic: bool
    substochastic: bool
    exact_cover: bool
    packing: bool

    def block_sum(self, index: int) -> Fraction:
        for k, s in self.block_sums:
            if k == index:
                return s
        raise InputError(f"no block with index {index}")


def _numerators(w: WeightFunction, scale: int) -> dict[int, int]:
    """The values of ``w`` times ``scale``, a multiple of ``w.scale``."""
    factor = scale // w.scale
    return {g: n * factor for g, n in w.numerators.items()}


def _combination(terms: Iterable[tuple[Fraction, WeightFunction]]) -> WeightFunction:
    """``Σ c·w`` over the ``(c, w)`` of ``terms``, exactly: each ``c·w`` is
    a function over ``c``'s denominator times ``w.scale``, so integer
    numerators over L, the least common multiple of those, add up."""
    terms = tuple(terms)
    scale = lcm(*{c.denominator * w.scale for c, w in terms})
    sums: dict[int, int] = {}
    for c, w in terms:
        factor = c.numerator * (scale // (c.denominator * w.scale))
        for g, n in w.numerators.items():
            sums[g] = sums.get(g, 0) + factor * n
    return WeightFunction._trusted(sums, scale)


def _block_sums(
    numerators: dict[int, int], gammas: dict[int, tuple[int, ...]]
) -> dict[int, int]:
    """Block sums as integer numerators over the values' common scale,
    over every block the labels' ``gammas`` list.

    Exact, like ``Fraction`` sums, at the cost of plain integer adds:
    a block sums to one exactly when its numerator equals the scale.
    """
    sums: dict[int, int] = {}
    for g, value in numerators.items():
        for k in gammas[g]:
            sums[k] = sums.get(k, 0) + value
    return sums


def _read(family: SetFamily, w: WeightFunction) -> list[int]:
    """``w``'s block sums as integer numerators over ``w.scale``, in block
    order, refusing a support label outside the ground set."""
    for g in w.numerators:
        if g not in family.gamma:
            raise UnknownElementError(f"support label {g} is not in the ground set")
    by_block = _block_sums(w.numerators, family.gamma)
    return [by_block.get(b.index, 0) for b in family.blocks]


def classify_membership(family: SetFamily, w: WeightFunction) -> MembershipReport:
    """Classify ``w`` against the stochastic and substochastic polytopes, summing
    blocks as integers over its scale (:func:`_read`)."""
    totals, scale = _read(family, w), w.scale
    nonneg = w.nonnegative
    all_at_most_one = max(totals) <= scale
    all_one = all_at_most_one and min(totals) == scale
    zero_one = w.zero_one
    return MembershipReport(
        block_sums=tuple(
            (b.index, ONE if s == scale else Fraction(s, scale))
            for b, s in zip(family.blocks, totals)
        ),
        nonnegative=nonneg,
        stochastic=nonneg and all_one,
        substochastic=nonneg and all_at_most_one,
        exact_cover=nonneg and all_one and zero_one,
        packing=nonneg and all_at_most_one and zero_one,
    )


def require_stochastic(
    family: SetFamily, w: WeightFunction
) -> tuple[Mapping[int, int], int]:
    """A stochastic ``w``'s own read-only ``numerators`` and its ``scale``,
    refusing a support label outside the ground set, then a negative
    value, then the first block whose sum is not one."""
    totals = _read(family, w)
    if not w.nonnegative:
        raise NotStochasticError("weight function takes a negative value")
    for b, s in zip(family.blocks, totals):
        if s != w.scale:
            total = format_rational(Fraction(s, w.scale))
            raise NotStochasticError(f"block {b.index} sums to {total}")
    return w.numerators, w.scale


@dataclass(frozen=True)
class CountingIdentity:
    """The exact count identity: block count equals multiplicity-weighted mass."""

    block_count: int
    weighted_mass: Fraction
    bound: Fraction

    @property
    def holds(self) -> bool:
        return self.block_count == self.weighted_mass

    @property
    def bounded(self) -> bool:
        return self.weighted_mass <= self.bound


def counting_identity(family: SetFamily, w: WeightFunction) -> CountingIdentity:
    """Evaluate the counting identity for a stochastic ``w``.

    Summing all block sums of a stochastic function counts each element
    once per block containing it, so the number of blocks equals the
    multiplicity-weighted total mass, which is at most the maximal
    multiplicity times the plain total mass.
    """
    return _counting_identity(family, *require_stochastic(family, w))


def _counting_identity(
    family: SetFamily, numerators: Mapping[int, int], scale: int
) -> CountingIdentity:
    """:func:`counting_identity` on a stochastic point's ``numerators`` over ``scale``."""
    lhs = len(family.blocks)
    mass = sum(multiplicity(family, g) * n for g, n in numerators.items())
    rhs = Fraction(mass, scale)
    bound = Fraction(max_multiplicity(family) * sum(numerators.values()), scale)
    result = CountingIdentity(block_count=lhs, weighted_mass=rhs, bound=bound)
    if not result.holds or not result.bounded:
        raise InternalPropertyError(
            f"counting identity failed: {lhs} vs {format_rational(rhs)}"
            f" (bound {format_rational(bound)})"
        )
    return result


@dataclass(frozen=True)
class EmptinessVerdict:
    """Outcome of the block-counting emptiness test."""

    certified_empty: bool
    block_count: int
    cover_size: int
    max_multiplicity: int

    @property
    def threshold(self) -> int:
        return self.cover_size * self.max_multiplicity


def emptiness_test(family: SetFamily, cover: Iterable[int]) -> EmptinessVerdict:
    """Certify emptiness of the stochastic polytope by counting blocks.

    ``cover`` lists indices of blocks that jointly contain every ground
    element.  Each element then carries multiplicity at most the family
    maximum, so a stochastic function would force the block count to be
    at most ``len(cover) * max_multiplicity``.  A strictly larger block
    count certifies that no stochastic function exists.  Anything else is
    inconclusive.
    """
    indices = list(dict.fromkeys(cover))
    covered: set[int] = set()
    for k in indices:
        covered.update(family.block(k).members)
    if covered != set(family.ground):
        missing = sorted(set(family.ground) - covered)[:5]
        raise NotACoverError(f"cover misses elements {missing}")
    kappa = max_multiplicity(family)
    verdict = EmptinessVerdict(
        certified_empty=len(family.blocks) > len(indices) * kappa,
        block_count=len(family.blocks),
        cover_size=len(indices),
        max_multiplicity=kappa,
    )
    return verdict


@dataclass(frozen=True)
class RemovalLog:
    """What ``normalize`` removed: (superset index, witness subset index)
    pairs in removal order, plus the elements dropped from the ground set."""

    removed_blocks: tuple[tuple[int, int], ...]
    removed_elements: tuple[int, ...]


def normalize(family: SetFamily) -> tuple[SetFamily, RemovalLog]:
    """Remove blocks that contain another block, keeping membership intact.

    One pass in ascending index removes each block that is a strict
    superset of a surviving block (a stochastic function sums to one on
    the subset, so the superset's extra elements are forced to zero),
    witnessed by the smallest such index; a block with no such subset
    never gains one, as blocks are only removed.  Elements left in no
    surviving block are dropped.  The result is idempotent, and restriction
    to the reduced ground set is a bijection between the two stochastic polytopes.
    """
    alive: dict[int, frozenset[int]] = {b.index: b.member_set for b in family.blocks}
    removed: list[tuple[int, int]] = []
    for j in sorted(alive):
        k = next((k for k in alive if k != j and alive[k] <= alive[j]), None)
        if k is not None:
            del alive[j]
            removed.append((j, k))
    kept_elements: set[int] = set()
    for members in alive.values():
        kept_elements.update(members)
    removed_elements = tuple(sorted(set(family.ground) - kept_elements))
    reduced = _assemble(
        [(idx, tuple(sorted(alive[idx]))) for idx in sorted(alive)]
    )
    return reduced, RemovalLog(tuple(removed), removed_elements)


def saturate(
    family: SetFamily, equality: Iterable[int]
) -> tuple[SetFamily, dict[int, int]]:
    """Append a fresh slack element to every block outside ``equality``.

    The substochastic polytope with equality required only on the listed
    blocks is in affine bijection with the stochastic polytope of the
    returned family: the slack of a block absorbs its deficit.  Returns
    the enlarged family and the map from relaxed block index to its slack
    label.  Slack labels start just above the current ground set, in
    block-index order.
    """
    eq = set(equality)
    for k in eq:
        family.block(k)
    next_label = max(family.ground) + 1
    slack_of: dict[int, int] = {}
    indexed = []
    for b in family.blocks:
        if b.index in eq:
            indexed.append((b.index, b.members))
        else:
            slack_of[b.index] = next_label
            indexed.append((b.index, tuple(sorted(b.members + (next_label,)))))
            next_label += 1
    return _assemble(indexed), slack_of


def check_injectivity(
    family: SetFamily, subset: Iterable[int] | None = None
) -> tuple[int, int] | None:
    """Find two distinct labels lying in exactly the same blocks.

    Returns the lexicographically first offending pair within ``subset``
    (default: the whole ground set), or None when the membership map is
    injective there.
    """
    labels = sorted(set(subset)) if subset is not None else list(family.ground)
    seen: dict[tuple[int, ...], int] = {}
    best: tuple[int, int] | None = None
    for g in labels:
        key = family.membership(g)
        if key in seen:
            pair = (seen[key], g)
            if best is None or pair < best:
                best = pair
        else:
            seen[key] = g
    return best


@dataclass(frozen=True)
class FreshnessVerdict:
    """Whether fresh elements stay reachable beyond the first ``m`` blocks.

    Either the first ``m`` blocks already cover the ground set
    (``mode == "cover"``), or no later block may lie inside the union of
    the other blocks (``mode == "fresh"``).  ``violations`` lists the
    absorbed block indices when the check fails.
    """

    ok: bool
    mode: str | None
    m: int
    violations: tuple[int, ...] = ()


def check_freshness(family: SetFamily, m: int) -> FreshnessVerdict:
    """Check the covering-or-fresh-elements condition exhaustively.

    For a finite family, containment in a union of finitely many other
    blocks is equivalent to containment in the union of all other blocks,
    which holds exactly when each member of the block lies in at least
    two blocks.  So the check is one multiplicity test per member of
    every block beyond position ``m``.
    """
    if m < 0 or m > len(family.blocks):
        raise InputError(f"m must lie in [0, {len(family.blocks)}]")
    covered = set().union(*(b.members for b in family.blocks[:m]))
    if len(covered) == len(family.ground):
        return FreshnessVerdict(ok=True, mode="cover", m=m)
    violations = [
        b.index
        for b in family.blocks[m:]
        if all(len(family.gamma[g]) >= 2 for g in b.members)
    ]
    if violations:
        return FreshnessVerdict(
            ok=False, mode=None, m=m, violations=tuple(violations)
        )
    return FreshnessVerdict(ok=True, mode="fresh", m=m)


def fresh_prefix(family: SetFamily) -> FreshnessVerdict:
    """The passing verdict of :func:`check_freshness` for the smallest ``m``.

    One pass over the blocks finds both candidates: the cover mode holds
    from the position by which every element has appeared, the fresh
    mode from the last block whose members all have multiplicity at
    least two, and the smaller position wins.  The cover position is at
    most the number of blocks, so the verdict always passes.
    """
    seen: set[int] = set()
    cover_m = fresh_m = 0
    for pos, b in enumerate(family.blocks, start=1):
        if not seen.issuperset(b.members):
            seen.update(b.members)
            cover_m = pos
        if all(len(family.gamma[g]) >= 2 for g in b.members):
            fresh_m = pos
    if cover_m <= fresh_m:
        return FreshnessVerdict(ok=True, mode="cover", m=cover_m)
    return FreshnessVerdict(ok=True, mode="fresh", m=fresh_m)
