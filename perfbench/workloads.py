"""The three workloads: which subcommands run on which instances.

A workload is one or more sets of ops.  An op is one call of the
program's CLI entry point: an argv, the exit code it must return, and a
check of what it prints.  One pass runs every op of one set in order,
one at a time, ``op.repeat`` times in a row.

* ``matrix``: the m x m doubly stochastic ladder.  Blocks overlap
  densely and the numbers of primitive cycles and vertices grow
  factorially, so the time sits in cycle search and candidate
  enumeration.
* ``sparse``: long block rings, path families and generator horizons.
  The time sits in the extension walk and its checks, in the freshness
  scan and in exact elimination on tall systems.
* ``random``: many small planted families, the shape of the acceptance
  sweep.  Per-call costs dominate: parsing, argument handling,
  rendering and building the family.

Every workload runs every subcommand the benchmark reports, so each
end-to-end metric exists on each workload.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

from . import checks, instances
from .checks import Check

WORKLOADS = ("matrix", "sparse", "random")

SUBCOMMANDS = ("check", "graph", "classify", "vertices", "decompose", "extend", "validate", "gen")


# Light rungs of the matrix and sparse ladders run this many times in a
# row in each pass, so that their medians rest on enough samples; those
# workloads fit only a few passes into a run.
LIGHT = 3


@dataclass(frozen=True)
class Op:
    label: str
    argv: tuple[str, ...]
    expect_code: int
    check: Check
    repeat: int = 1

    @property
    def command(self) -> str:
        return self.argv[0]


class Writer:
    """Writes instance documents as JSON files into one directory."""

    def __init__(self, directory: Path):
        self.directory = directory
        directory.mkdir(parents=True, exist_ok=True)

    def __call__(self, name: str, doc: dict) -> str:
        path = self.directory / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)


def _split_value(rng: random.Random) -> Fraction:
    return rng.choice([Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4), Fraction(3, 4)])


def _light(ops: list[Op], heavy: set[str]) -> list[Op]:
    """Every op not named in ``heavy`` repeats LIGHT times per pass."""
    return [op if op.label in heavy else replace(op, repeat=LIGHT) for op in ops]


def _extend_generator_op(write, label, gen, n, horizon, base) -> Op:
    path = write(label, {"weights": instances.weights_doc(base)})
    argv = ("extend", path, "--generator", gen, "--n", str(n), "--horizon", str(horizon))
    return Op(label, argv, 0, checks.extend_generator(gen, horizon, base))


def _gen_op(label, elements, blocks, kappa, seed) -> Op:
    argv = (
        "gen", "--elements", str(elements), "--blocks", str(blocks),
        "--kappa-max", str(kappa), "--seed", str(seed),
    )
    return Op(label, argv, 0, checks.gen(kappa))


def matrix_ops(seed: int, write: Writer) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []

    def matrix(name, m, weights=None):
        return write(name, instances.document(instances.matrix_blocks(m), weights))

    for m in (12, 24):
        w = instances.matrix_uniform(m)
        ops.append(Op(f"check-{m}", ("check", matrix(f"m{m}", m, w)), 0,
                      checks.check_report(instances.matrix_blocks(m), w)))
    for m in (4, 5):
        ops.append(Op(f"graph-{m}", ("graph", matrix(f"m{m}", m)), 0, checks.graph_matrix(m)))

    perm = rng.sample(range(5), 5)
    a = _split_value(rng)
    cases = [
        ("uniform-4", 4, instances.matrix_uniform(4), "not_extreme"),
        ("uniform-5", 5, instances.matrix_uniform(5), "not_extreme"),
        ("perm-5", 5, instances.matrix_permutation(perm), "extreme"),
        ("mix-5", 5, instances.matrix_mixture([perm, instances.shifted(perm)], [a, 1 - a]), "not_extreme"),
    ]
    for name, m, w, verdict in cases:
        path = matrix(name, m, w)
        ops.append(Op(f"classify-{name}", ("classify", path), 0,
                      checks.classify(instances.matrix_blocks(m), w, verdict)))

    ops.append(Op("vertices-3", ("vertices", matrix("m3", 3)), 0, checks.vertices_matrix(3)))
    ops.append(Op("vertices-4", ("vertices", matrix("m4", 4)), 0, checks.vertices_matrix(4)))
    ops.append(Op("vertices-4-jobs2", ("vertices", matrix("m4", 4), "--jobs", "2"), 0,
                  checks.vertices_matrix(4)))

    w8 = instances.matrix_uniform(8)
    ops.append(Op("decompose-uniform-8", ("decompose", matrix("uniform-8", 8, w8)), 0,
                  checks.decompose(instances.matrix_blocks(8), w8)))
    _, _, w_mix, _ = cases[3]
    ops.append(Op("decompose-mix-5", ("decompose", matrix("mix-5", 5, w_mix)), 0,
                  checks.decompose(instances.matrix_blocks(5), w_mix)))

    for i in range(3):
        argv = ("validate", matrix("m3", 3), "--seed", str(rng.randrange(1000)))
        ops.append(Op(f"validate-3-{i}", argv, 0, checks.validate_agrees(6)))

    # the first cell saturates row 1; the walk completes the rest over the
    # matrix's own blocks
    m = 60
    row = {1: Fraction(1)}
    path = matrix(f"extend-{m}", m, row)
    ops.append(Op(f"extend-own-{m}", ("extend", path, "--n", "1", "--horizon", str(2 * m)), 0,
                  checks.extend_family(instances.matrix_blocks(m), row)))

    # gen draws its own family from its seed, and the work varies a lot
    # from draw to draw, so these seeds are fixed rather than drawn
    for i in range(8):
        ops.append(_gen_op(f"gen-9-6-{i}", 9, 6, 2, i))
    return _light(ops, {"vertices-4", "vertices-4-jobs2"})


def sparse_ops(seed: int, write: Writer) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []

    def ring(n, weights=None):
        return write(f"ring-{n}", instances.document(instances.ring_blocks(n), weights))

    ops.append(Op("check-ring-151", ("check", ring(151)), 0,
                  checks.check_report(instances.ring_blocks(151), None)))
    for n in (101, 201):
        ops.append(Op(f"graph-ring-{n}", ("graph", ring(n)), 0, checks.graph_ring(n)))
    for n, verdict in ((201, "extreme"), (200, "not_extreme")):
        w = instances.ring_half(n)
        ops.append(Op(f"classify-ring-{n}", ("classify", ring(n, w)), 0,
                      checks.classify(instances.ring_blocks(n), w, verdict)))

    blocks20 = instances.path_blocks(20)
    odd = {g: Fraction(1) for g in range(1, 22, 2)}
    even = {g: Fraction(1) for g in range(2, 22, 2)}
    path20 = write("path-20", instances.document(blocks20))
    ops.append(Op("vertices-path-20", ("vertices", path20), 0,
                  checks.vertices(blocks20, 2, (odd, even))))

    for n in (60, 100):
        w = instances.ring_half(n)
        ops.append(Op(f"decompose-ring-{n}", ("decompose", ring(n, w)), 0,
                      checks.decompose(instances.ring_blocks(n), w)))

    ops.append(_extend_generator_op(write, "extend-path-800", "path", 1, 800,
                                    instances.path_split_weights(_split_value(rng))))
    ops.append(_extend_generator_op(write, "extend-path-320", "path", 1, 320,
                                    instances.path_vertex_weights(rng.choice((1, 2)))))
    blocks400 = instances.path_blocks(400)
    base = instances.path_vertex_weights(rng.choice((1, 2)))
    own = write("path-400", instances.document(blocks400, base))
    ops.append(Op("extend-own-path-400", ("extend", own, "--n", "1", "--horizon", "400"), 0,
                  checks.extend_family(blocks400, base)))
    ops.append(_extend_generator_op(write, "extend-grid-300", "grid", 2, 300,
                                    instances.grid_split_weights(_split_value(rng))))

    ops.append(Op("validate-path-20", ("validate", path20, "--seed", str(rng.randrange(1000))), 0,
                  checks.validate_agrees(2)))
    # fixed seeds, as in matrix_ops
    for i in range(8):
        ops.append(_gen_op(f"gen-16-5-{i}", 16, 5, 1, i))
    heavy = {
        "check-ring-151", "graph-ring-201", "classify-ring-200", "vertices-path-20",
        "decompose-ring-100", "extend-path-800", "extend-path-320", "extend-own-path-400",
        "extend-grid-300", "validate-path-20",
    }
    return _light(ops, heavy)


def random_ops(seed: int, write: Writer) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    for i in range(instances.FAMILIES):
        fam = instances.random_family(rng, i)
        blocks = [list(b) for b in fam.blocks]
        tag = f"{i}-{fam.kind}"
        path = write(f"family-{tag}", fam.doc())
        ops.append(Op(f"check-{tag}", ("check", path), 0, checks.check_report(blocks, fam.weights)))
        ops.append(Op(f"graph-{tag}", ("graph", path), 0, checks.graph_family(blocks)))
        count = None if fam.feasible else 0
        ops.append(Op(f"vertices-{tag}", ("vertices", path), 0,
                      checks.vertices(blocks, count, fam.planted)))
        if fam.weights is not None:
            verdict = {"vertex": "extreme", "mixture": "not_extreme", "kappa3": "unsupported"}[fam.kind]
            ops.append(Op(f"classify-{tag}", ("classify", path), 0,
                          checks.classify(blocks, fam.weights, verdict)))
            ops.append(Op(f"decompose-{tag}", ("decompose", path), 0,
                          checks.decompose(blocks, fam.weights)))
        argv = ("validate", path, "--seed", str(rng.randrange(1000)))
        if fam.kappa > 2:
            ops.append(Op(f"validate-{tag}", argv, 2, checks.no_output))
        else:
            ops.append(Op(f"validate-{tag}", argv, 0, checks.validate_agrees(count)))
    # gen calls in the shape of the acceptance sweep: 2-8 elements, 1-6 blocks
    for i in range(instances.FAMILIES):
        elements, blocks = 2 + i % 7, 1 + i % 6
        kappa = 3 if i % 5 == 4 else 2
        ops.append(_gen_op(f"gen-{i}", elements, blocks, kappa, rng.randrange(10**6)))
    for i, horizon in enumerate((20, 40, 60, 80)):
        ops.append(_extend_generator_op(write, f"extend-path-{i}", "path", 1, horizon,
                                        instances.path_split_weights(_split_value(rng))))
        ops.append(_extend_generator_op(write, f"extend-grid-{i}", "grid", 2, horizon,
                                        instances.grid_split_weights(_split_value(rng))))
        ops.append(_extend_generator_op(write, f"extend-disjoint-{i}", "disjoint-growing", 1,
                                        horizon // 2, {1: Fraction(1)}))
    return ops


BUILDERS = {"matrix": matrix_ops, "sparse": sparse_ops, "random": random_ops}

# The random workload draws this many independent sets of ops and passes
# cycle through them.  One set's cost still varies by about a sixth from
# seed to seed; averaging over eight sets keeps a run's figures steady.
SETS = {"matrix": 1, "sparse": 1, "random": 8}


def build(workload: str, seed: int, directory: Path) -> list[list[Op]]:
    """The workload's op sets for one seed, with their instance files."""
    rng = random.Random(seed)
    seeds = [seed] if SETS[workload] == 1 else [rng.randrange(2**32) for _ in range(SETS[workload])]
    return [
        BUILDERS[workload](s, Writer(directory / f"set-{i}")) for i, s in enumerate(seeds)
    ]


def warmup_ops(write: Writer) -> list[Op]:
    """One small op per subcommand, run during set-up so that lazy imports
    and first-call costs are paid before timing starts."""
    blocks = instances.matrix_blocks(3)
    w = instances.matrix_uniform(3)
    path = write("warmup-3", instances.document(blocks, w))
    return [
        Op("warmup-check", ("check", path), 0, checks.check_report(blocks, w)),
        Op("warmup-graph", ("graph", path), 0, checks.graph_matrix(3)),
        Op("warmup-classify", ("classify", path), 0, checks.classify(blocks, w, "not_extreme")),
        Op("warmup-vertices", ("vertices", path), 0, checks.vertices_matrix(3)),
        Op("warmup-decompose", ("decompose", path), 0, checks.decompose(blocks, w)),
        Op("warmup-validate", ("validate", path), 0, checks.validate_agrees(6)),
        _extend_generator_op(write, "warmup-extend", "path", 1, 10, {1: Fraction(1)}),
        _gen_op("warmup-gen", 6, 3, 2, 0),
    ]
