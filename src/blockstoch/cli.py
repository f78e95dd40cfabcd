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
from typing import Sequence

from .demos import DEMOS, run_demo
from .errors import BudgetError, InputError, PreconditionError
from .extremality import Verdict, Witness, classify_extreme
from .family import (
    SetFamily,
    WeightFunction,
    build_family,
    check_injectivity,
    classify_membership,
    counting_identity,
    fresh_prefix,
    max_multiplicity,
)
from .extension import (
    Truncation,
    WrappedFamilyGenerator,
    extend_truncation,
    get_generator,
)
from .graphs import build_graph, find_primitive_cycles
from .instance_io import (
    Instance,
    dump_instance,
    format_rational,
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
        self.exit(1, f"{self.prog}: error: {message}\n")


def _render_weights(w: WeightFunction) -> str:
    inside = ", ".join(f"{g}={format_rational(v)}" for g, v in w.items())
    return "{" + inside + "}"


def _require_weights(instance: Instance) -> WeightFunction:
    if instance.weights is None:
        raise InputError('the instance has no "weights" field')
    return instance.weights


def _print_membership(family: SetFamily, w: WeightFunction) -> None:
    report = classify_membership(family, w)
    print("block sums:")
    for k, s in report.block_sums:
        print(f"  block {k}: {format_rational(s)}")
    print(f"nonnegative: {'yes' if report.nonnegative else 'no'}")
    print(f"stochastic: {'yes' if report.stochastic else 'no'}")
    print(f"substochastic: {'yes' if report.substochastic else 'no'}")
    print(f"exact cover: {'yes' if report.exact_cover else 'no'}")
    print(f"packing: {'yes' if report.packing else 'no'}")
    if report.stochastic:
        identity = counting_identity(family, w)
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


def _cmd_graph(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    graph = build_graph(instance.family)
    print(f"vertices: {len(graph.vertices)}")
    print(f"edges: {len(graph.edge_blocks)}")
    for (g, h), ks in sorted(graph.edge_blocks.items()):
        joint = ", ".join(str(k) for k in ks)
        print(f"  {g} -- {h} (blocks {joint})")
    cycles = find_primitive_cycles(graph, instance.family)
    odd = [c for c in cycles if len(c.vertices) % 2 == 1]
    even = [c for c in cycles if len(c.vertices) % 2 == 0]
    print(f"primitive cycles: {len(cycles)} ({len(odd)} odd, {len(even)} even)")
    for cycle in cycles:
        parity = "odd" if len(cycle.vertices) % 2 == 1 else "even"
        listed = ", ".join(str(v) for v in cycle.vertices)
        print(f"  {parity}: ({listed})")
    return 0


def _print_witness(witness: Witness) -> None:
    print(f"construction: {witness.construction}")
    print(f"epsilon: {format_rational(witness.epsilon)}")
    print(f"slack: {format_rational(witness.slack)}")
    print(f"w_plus: {_render_weights(witness.w_plus)}")
    print(f"w_minus: {_render_weights(witness.w_minus)}")


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
    vertices = enumerate_vertices(instance.family, budget=args.budget, jobs=args.jobs)
    print(f"vertex count: {len(vertices)}")
    for pos, vertex in enumerate(vertices, start=1):
        print(f"  vertex {pos}: {_render_weights(vertex)}")
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    w = _require_weights(instance)
    combo = decompose(instance.family, w)
    print(f"terms: {len(combo.terms)}")
    for coef, vertex in combo.terms:
        print(f"  {format_rational(coef)} * {_render_weights(vertex)}")
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
    for pos, step in enumerate(result.steps, start=1):
        overlap = (
            "none" if step.overlap_with is None else str(step.overlap_with)
        )
        print(
            f"  step {pos}: element {step.element} -> block {step.block_index},"
            f" value {format_rational(step.value)}, pattern {step.pattern},"
            f" overlaps {overlap}"
        )
    print(f"extended: {_render_weights(result.extended)}")
    print(f"packing a: {_render_weights(result.packing_a)}")
    print(f"packing b: {_render_weights(result.packing_b)}")
    print(f"complete: {'yes' if result.complete else 'no'}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    report = cross_validate(
        instance.family,
        samples=args.samples,
        seed=args.seed,
        budget=args.budget,
        jobs=args.jobs,
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
    jobs: int = 1,
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
    vertices = enumerate_vertices(family, budget=budget, jobs=jobs)
    if not vertices:
        return family, None
    count = min(len(vertices), 4)
    picked = rng.sample(vertices, count)
    weights = [rng.randint(1, 9) for _ in range(count)]
    total = sum(weights)
    w = WeightFunction.zero()
    for coef, vertex in zip(weights, picked):
        w = w + vertex.scaled(Fraction(coef, total))
    return family, w


def _cmd_gen(args: argparse.Namespace) -> int:
    family, w = gen_random(
        args.elements,
        args.blocks,
        args.kappa_max,
        args.seed,
        budget=args.budget,
        jobs=args.jobs,
    )
    sys.stdout.write(dump_instance(family, w, feasible=w is not None))
    return 0


def _add_oracle_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_BUDGET,
        help="vertex enumeration budget: search nodes when every multiplicity"
        " is at most two, candidate supports otherwise",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for vertex enumeration on families with a"
        " multiplicity above two (output unchanged)",
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
    p_extend.add_argument("--n", type=int, required=True, help="assigned block prefix")
    p_extend.add_argument(
        "--horizon", type=int, required=True, help="last block index to fill"
    )
    p_extend.set_defaults(func=_cmd_extend)

    p_validate = sub.add_parser(
        "validate", help="cross-check the classifier against enumeration"
    )
    p_validate.add_argument("instance", help="instance JSON file")
    p_validate.add_argument("--samples", type=int, default=5, help="mixtures to test")
    p_validate.add_argument("--seed", type=int, default=0, help="mixture seed")
    _add_oracle_flags(p_validate)
    p_validate.set_defaults(func=_cmd_validate)

    p_demo = sub.add_parser("demo", help="run a bundled example")
    p_demo.add_argument("name", choices=sorted(DEMOS), help="demo name")
    p_demo.set_defaults(func=_cmd_demo)

    p_gen = sub.add_parser("gen", help="generate a seeded random instance")
    p_gen.add_argument("--elements", type=int, required=True, help="ground set size")
    p_gen.add_argument("--blocks", type=int, required=True, help="blocks to draw")
    p_gen.add_argument(
        "--kappa-max", type=int, required=True, help="largest allowed multiplicity"
    )
    p_gen.add_argument("--seed", type=int, required=True, help="generator seed")
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
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
