"""Command-line interface for family instances.

Each subcommand is a pure function from input files and flags to a
plain-text report and an exit code, so outputs are byte-identical
across runs.  Exit code 1 marks invalid input, 2 a mathematical
precondition failure, and 3 an exhausted search budget or horizon.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from fractions import Fraction
from itertools import islice
from typing import Iterable, Sequence

from .demos import DEMOS, run_demo
from .errors import BudgetError, InputError, PreconditionError
from .extremality import Verdict, Witness, classify_extreme
from .family import (
    SetFamily,
    WeightFunction,
    _combination,
    _counting_identity,
    build_family,
    check_injectivity,
    classify_membership,
    fresh_prefix,
    max_multiplicity,
)
from .extension import (
    Truncation,
    WrappedFamilyGenerator,
    extend_truncation,
    get_generator,
)
from .graphs import _census, build_graph
from .instance_io import (
    _LABEL_RE,
    Instance,
    _int,
    dump_instance,
    format_rational,
    format_weights,
    load_instance,
    load_weights_document,
)
from .oracle import (
    DEFAULT_BUDGET,
    cross_validate,
    decompose,
    enumerate_vertices,
)


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the input-error code."""

    def error(self, message: str) -> None:  # noqa: D102 - argparse override
        self.exit(1, f"{self.prog}: error: {_elide(message)}\n")


def _elide(message: str) -> str:
    """``message``, or past 200 characters its first 120 and last 40 with
    the count of those left out between them, so an error stays one
    readable line whatever the input quotes."""
    if len(message) <= 200:
        return message
    return f"{message[:120]}... ({len(message) - 160} characters omitted) ...{message[-40:]}"


def _integer(text: str) -> int:
    """An integer flag, read as instance documents read integers: ASCII
    digits with an optional sign and surrounding whitespace."""
    if not _LABEL_RE.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    try:
        return _int(text)
    except InputError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _require_weights(instance: Instance) -> WeightFunction:
    if instance.weights is None:
        raise InputError('the instance has no "weights" field')
    return instance.weights


def _print_membership(family: SetFamily, w: WeightFunction) -> None:
    report = classify_membership(family, w)
    print("block sums:")
    _write_lines(f"  block {k}: {format_rational(s)}" for k, s in report.block_sums)
    print(f"nonnegative: {'yes' if report.nonnegative else 'no'}")
    print(f"stochastic: {'yes' if report.stochastic else 'no'}")
    print(f"substochastic: {'yes' if report.substochastic else 'no'}")
    print(f"exact cover: {'yes' if report.exact_cover else 'no'}")
    print(f"packing: {'yes' if report.packing else 'no'}")
    if report.stochastic:
        identity = _counting_identity(family, w.numerators, w.scale)
        print(
            "counting identity: "
            f"{identity.block_count} block(s) == weighted mass "
            f"{format_rational(identity.weighted_mass)}"
            f" <= bound {format_rational(identity.bound)}"
        )


def _cmd_check(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    family = instance.family
    print(f"blocks: {len(family.blocks)}")
    print(f"ground elements: {len(family.ground)}")
    print(f"max multiplicity: {max_multiplicity(family)}")
    pair = check_injectivity(family)
    if pair is None:
        print("distinct membership sets: yes")
    else:
        print(
            "distinct membership sets: no"
            f" (elements {pair[0]} and {pair[1]} lie in the same blocks)"
        )
    verdict = fresh_prefix(family)
    print(
        f"fresh elements beyond a prefix: yes (m={verdict.m}, mode {verdict.mode})"
    )
    if instance.weights is not None:
        _print_membership(family, instance.weights)
    return 0


def _write_lines(lines: Iterable[str]) -> None:
    """Write each line to stdout, a bounded chunk of lines per write, so
    that a long listing is never held whole as one text."""
    rest = iter(lines)
    while chunk := list(islice(rest, 4096)):
        sys.stdout.write("\n".join(chunk) + "\n")


def _cmd_graph(args: argparse.Namespace) -> int:
    """The edge list, then the census of :func:`graphs._census`: its
    counts from the group sizes, and each group's lines under one fixed
    parity prefix, with no :class:`graphs.Path` built."""
    instance = load_instance(args.instance)
    graph = build_graph(instance.family)
    name = {g: str(g) for g in graph.vertices}
    sys.stdout.write(f"vertices: {len(graph.vertices)}\nedges: {len(graph.edge_blocks)}\n")
    _write_lines(
        f"  {name[g]} -- {name[h]} (blocks {', '.join(map(str, ks))})"
        for (g, h), ks in sorted(graph.edge_blocks.items())
    )
    groups = _census(graph, instance.family, (0, 1))
    total = sum(map(len, groups))
    odd = sum(len(group) for group in groups if len(group[0]) % 2)
    sys.stdout.write(f"primitive cycles: {total} ({odd} odd, {total - odd} even)\n")
    for group in groups:
        prefix = "  odd: (" if len(group[0]) % 2 else "  even: ("
        _write_lines(f"{prefix}{', '.join(map(name.__getitem__, c))})" for c in group)
    return 0


def _print_witness(witness: Witness) -> None:
    print(f"construction: {witness.construction}")
    print(f"epsilon: {format_rational(witness.epsilon)}")
    print(f"slack: {format_rational(witness.slack)}")
    print(f"w_plus: {format_weights(witness.w_plus)}")
    print(f"w_minus: {format_weights(witness.w_minus)}")


def _classify(args: argparse.Namespace) -> Verdict:
    instance = load_instance(args.instance)
    w = _require_weights(instance)
    return classify_extreme(instance.family, w)


def _cmd_classify(args: argparse.Namespace) -> int:
    verdict = _classify(args)
    print(f"verdict: {verdict.kind}")
    print(f"detail: {verdict.detail}")
    if verdict.witness is not None:
        _print_witness(verdict.witness)
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    verdict = _classify(args)
    if verdict.witness is None:
        raise PreconditionError(
            f"no perturbation witness exists: the verdict is {verdict.kind}"
        )
    _print_witness(verdict.witness)
    return 0


def _cmd_vertices(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    vertices = enumerate_vertices(instance.family, budget=args.budget)
    print(f"vertex count: {len(vertices)}")
    _write_lines(
        f"  vertex {pos}: {format_weights(vertex)}"
        for pos, vertex in enumerate(vertices, start=1)
    )
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    w = _require_weights(instance)
    combo = decompose(instance.family, w)
    print(f"terms: {len(combo.terms)}")
    _write_lines(
        f"  {format_rational(coef)} * {format_weights(vertex)}" for coef, vertex in combo.terms
    )
    print(f"recombines exactly: {'yes' if combo.combined() == w else 'no'}")
    return 0


def _cmd_extend(args: argparse.Namespace) -> int:
    if args.generator is None:
        instance = load_instance(args.instance)
        w = _require_weights(instance)
        generator = WrappedFamilyGenerator(instance.family)
    else:
        w = load_weights_document(args.instance)
        generator = get_generator(args.generator)
    result = extend_truncation(generator, Truncation(args.n, w), args.horizon)
    print(f"generator: {generator.name}")
    print(f"assigned blocks: {result.n}, horizon: {result.horizon}")
    print(f"steps: {len(result.steps)}")
    _write_lines(
        f"  step {pos}: element {step.element} -> block {step.block_index},"
        f" value {format_rational(step.value)}, pattern {step.pattern},"
        f" overlaps {'none' if step.overlap_with is None else step.overlap_with}"
        for pos, step in enumerate(result.steps, start=1)
    )
    print(f"extended: {format_weights(result.extended)}")
    print(f"packing a: {format_weights(result.packing_a)}")
    print(f"packing b: {format_weights(result.packing_b)}")
    print(f"complete: {'yes' if result.complete else 'no'}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    report = cross_validate(
        instance.family,
        samples=args.samples,
        seed=args.seed,
        budget=args.budget,
    )
    print(f"vertex count: {report.vertex_count}")
    print(f"samples checked: {report.samples_checked}")
    print(f"discrepancies: {len(report.discrepancies)}")
    for line in report.discrepancies:
        print(f"  {line}")
    print(f"agreement: {'yes' if report.ok else 'no'}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    result = run_demo(args.name)
    print(f"demo {result.name}: {result.title}")
    for line in result.lines:
        print(line)
    print("result: ok" if result.ok else "result: FAIL")
    return 0 if result.ok else 1


def gen_random(
    elements: int,
    blocks: int,
    kappa_max: int,
    seed: int,
    budget: int = DEFAULT_BUDGET,
) -> tuple[SetFamily, WeightFunction | None]:
    """Generate a seeded random family and, when feasible, a member point.

    Multiplicities never exceed ``kappa_max``.  The member point is a
    random convex combination of the family's vertices, so feasibility
    is decided exactly; infeasible families return None.
    """
    if elements < 1:
        raise InputError("elements must be at least 1")
    if blocks < 1:
        raise InputError("blocks must be at least 1")
    if kappa_max < 1:
        raise InputError("kappa-max must be at least 1")
    rng = random.Random(seed)
    mult = {g: 0 for g in range(1, elements + 1)}
    chosen: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for _ in range(blocks):
        pool = sorted(g for g, count in mult.items() if count < kappa_max)
        if not pool:
            break
        block = None
        for _attempt in range(32):
            size = rng.randint(1, min(4, len(pool)))
            candidate = tuple(sorted(rng.sample(pool, size)))
            if candidate not in seen:
                block = candidate
                break
        if block is None:
            break
        seen.add(block)
        chosen.append(block)
        for g in block:
            mult[g] += 1
    family = build_family(chosen)
    vertices = enumerate_vertices(family, budget=budget)
    if not vertices:
        return family, None
    count = min(len(vertices), 4)
    picked = rng.sample(vertices, count)
    weights = [rng.randint(1, 9) for _ in range(count)]
    total = sum(weights)
    return family, _combination(
        (Fraction(coef, total), vertex) for coef, vertex in zip(weights, picked)
    )


def _cmd_gen(args: argparse.Namespace) -> int:
    family, w = gen_random(
        args.elements,
        args.blocks,
        args.kappa_max,
        args.seed,
        budget=args.budget,
    )
    sys.stdout.write(dump_instance(family, w, feasible=w is not None))
    return 0


def _add_oracle_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget",
        type=_integer,
        default=DEFAULT_BUDGET,
        help="vertex enumeration budget, in search nodes visited",
    )
    parser.add_argument(
        "--jobs",
        type=_integer,
        default=1,
        help="accepted for compatibility and has no effect: vertex"
        " enumeration runs in this process (must be at least 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="blockstoch",
        description="exact analysis of families of blocks with unit sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="structure and membership report")
    p_check.add_argument("instance", help="instance JSON file")
    p_check.set_defaults(func=_cmd_check)

    p_graph = sub.add_parser("graph", help="edge list and primitive cycle census")
    p_graph.add_argument("instance", help="instance JSON file")
    p_graph.set_defaults(func=_cmd_graph)

    p_classify = sub.add_parser("classify", help="extreme point classification")
    p_classify.add_argument("instance", help="instance JSON file with weights")
    p_classify.set_defaults(func=_cmd_classify)

    p_witness = sub.add_parser("witness", help="perturbation witness for a non-extreme point")
    p_witness.add_argument("instance", help="instance JSON file with weights")
    p_witness.set_defaults(func=_cmd_witness)

    p_vertices = sub.add_parser("vertices", help="enumerate all vertices exactly")
    p_vertices.add_argument("instance", help="instance JSON file")
    _add_oracle_flags(p_vertices)
    p_vertices.set_defaults(func=_cmd_vertices)

    p_decompose = sub.add_parser("decompose", help="convex decomposition into vertices")
    p_decompose.add_argument("instance", help="instance JSON file with weights")
    p_decompose.set_defaults(func=_cmd_decompose)

    p_extend = sub.add_parser("extend", help="complete a truncated weight function")
    p_extend.add_argument("instance", help="instance JSON file with weights")
    p_extend.add_argument(
        "--generator",
        default=None,
        help="built-in family generator (default: the instance's own blocks)",
    )
    p_extend.add_argument("--n", type=_integer, required=True, help="assigned block prefix")
    p_extend.add_argument(
        "--horizon", type=_integer, required=True, help="last block index to fill"
    )
    p_extend.set_defaults(func=_cmd_extend)

    p_validate = sub.add_parser(
        "validate", help="cross-check the classifier against enumeration"
    )
    p_validate.add_argument("instance", help="instance JSON file")
    p_validate.add_argument("--samples", type=_integer, default=5, help="mixtures to test")
    p_validate.add_argument("--seed", type=_integer, default=0, help="mixture seed")
    _add_oracle_flags(p_validate)
    p_validate.set_defaults(func=_cmd_validate)

    p_demo = sub.add_parser("demo", help="run a bundled example")
    p_demo.add_argument("name", choices=sorted(DEMOS), help="demo name")
    p_demo.set_defaults(func=_cmd_demo)

    p_gen = sub.add_parser("gen", help="generate a seeded random instance")
    p_gen.add_argument("--elements", type=_integer, required=True, help="ground set size")
    p_gen.add_argument("--blocks", type=_integer, required=True, help="blocks to draw")
    p_gen.add_argument(
        "--kappa-max", type=_integer, required=True, help="largest allowed multiplicity"
    )
    p_gen.add_argument("--seed", type=_integer, required=True, help="generator seed")
    _add_oracle_flags(p_gen)
    p_gen.set_defaults(func=_cmd_gen)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process; ``parse_args`` keeps no state in it."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        if getattr(args, "jobs", 1) < 1:
            raise InputError("jobs must be at least 1")
        return args.func(args)
    except (InputError, PreconditionError, BudgetError) as exc:
        print(f"error: {_elide(str(exc))}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
