"""Self-tests of the benchmark: tracing is invisible, generation is
deterministic, and the output checks reject wrong answers.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from perfbench import checks, instances, run, trace, workloads


@pytest.fixture(scope="module")
def cli():
    return run.load_program()


def bindings() -> dict[tuple[str, str], int]:
    """Identity of every function or class bound in a program module."""
    return {
        (module.__name__, attr): id(value)
        for module in trace.program_modules()
        for attr, value in vars(module).items()
        if callable(value)
    }


def small_ops(directory: Path) -> list[workloads.Op]:
    write = workloads.Writer(directory)
    ops = workloads.warmup_ops(write)
    blocks = instances.path_blocks(30)
    base = instances.path_vertex_weights(1)
    path = write("own-path", instances.document(blocks, base))
    ops.append(workloads.Op("own-path", ("extend", path, "--n", "1", "--horizon", "30"), 0,
                            checks.extend_family(blocks, base)))
    ring = instances.ring_blocks(9)
    half = instances.ring_half(9)
    path = write("ring", instances.document(ring, half))
    ops.append(workloads.Op("ring", ("classify", path), 0, checks.classify(ring, half, "extreme")))
    return ops


def test_traced_and_untraced_stdout_are_identical(cli, tmp_path):
    ops = small_ops(tmp_path)
    plain = run.run_pass(cli, ops)
    assert plain.problems == []
    tracer = trace.Tracer()
    tracer.install()
    try:
        traced = run.run_pass(cli, ops, reference=plain.digests)
    finally:
        tracer.restore()
    assert traced.problems == []
    assert traced.digests == plain.digests
    metrics = trace.layer_metrics(tracer)
    assert metrics["extension.generator_contains_calls"] > 0
    assert metrics["extension.steps"] > 0
    assert metrics["oracle.vertices_returned"] >= 6
    assert tracer.counts["cli.calls"] == len(ops)
    assert all(row[2] >= row[1] for row in tracer.spans)


def test_no_wrapper_remains_after_a_traced_run(cli, tmp_path):
    before = bindings()
    tracer = trace.Tracer()
    tracer.install()
    assert bindings() != before
    try:
        run.run_pass(cli, small_ops(tmp_path))
    finally:
        tracer.restore()
    assert bindings() == before


def test_no_wrapper_remains_when_a_traced_call_raises(cli):
    before = bindings()
    tracer = trace.Tracer()
    tracer.install()
    try:
        with pytest.raises(Exception):
            sys.modules["blockstoch.family"].build_family([[]])
    finally:
        tracer.restore()
    assert bindings() == before
    assert tracer._stack == []


def test_counts_repeat_exactly(cli, tmp_path):
    ops = small_ops(tmp_path)
    results = []
    for _ in range(2):
        tracer = trace.Tracer()
        tracer.install()
        try:
            run.run_pass(cli, ops)
        finally:
            tracer.restore()
        metrics = trace.layer_metrics(tracer)
        results.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
    assert results[0] == results[1]


def test_self_time_excludes_children():
    tracer = trace.Tracer()
    tracer.spans.extend([["outer", 0.0, 10.0, -1], ["inner", 2.0, 5.0, 0], ["inner", 6.0, 7.0, 0]])
    assert tracer.self_times() == {"outer": 6.0, "inner": 4.0}


def test_workloads_are_deterministic_per_seed(tmp_path):
    def texts(directory):
        return {p.relative_to(directory): p.read_text() for p in sorted(directory.rglob("*.json"))}

    for workload in workloads.WORKLOADS:
        first = workloads.build(workload, 7, tmp_path / "a")
        again = workloads.build(workload, 7, tmp_path / "b")
        workloads.build(workload, 8, tmp_path / "c")
        assert len(first) == workloads.SETS[workload]
        for ops_a, ops_b in zip(first, again):
            assert [op.label for op in ops_a] == [op.label for op in ops_b]
            for a, b in zip(ops_a, ops_b):
                assert [x.replace("/a/", "/b/") for x in a.argv] == list(b.argv)
        assert texts(tmp_path / "a") == texts(tmp_path / "b")
        assert texts(tmp_path / "a") != texts(tmp_path / "c")
        for d in "abc":
            shutil.rmtree(tmp_path / d)


def test_random_families_have_the_stated_mix():
    rng = random.Random(3)
    fams = [instances.random_family(rng, i) for i in range(60)]
    kinds = [f.kind for f in fams]
    assert kinds.count("infeasible") == 12
    assert kinds.count("kappa3") == 12
    for i, fam in enumerate(fams):
        elements, _ = instances.SIZES[i % len(instances.SIZES)]
        assert len({g for b in fam.blocks for g in b}) == elements
        assert len(set(fam.blocks)) == len(fam.blocks)
        assert fam.kappa == (3 if fam.kind == "kappa3" else 2)
        blocks = [list(b) for b in fam.blocks]
        assert fam.feasible == (fam.kind != "infeasible")
        for vertex in fam.planted:
            assert checks.stochastic(blocks, vertex)
        if fam.weights is not None:
            assert checks.stochastic(blocks, fam.weights)


def test_infeasible_families_have_no_vertices(cli, tmp_path):
    rng = random.Random(5)
    from blockstoch.oracle import enumerate_vertices
    from blockstoch.family import build_family

    for i in range(2, 30, 5):
        fam = instances.random_family(rng, i)
        assert fam.kind == "infeasible"
        assert enumerate_vertices(build_family(fam.blocks)) == ()


def test_matrix_cycle_count():
    assert checks.matrix_cycle_count(3) == 15
    assert checks.matrix_cycle_count(5) == 3940


def test_checks_reject_wrong_outputs():
    blocks = instances.ring_blocks(4)
    half = instances.ring_half(4)
    good = "verdict: not_extreme\nw_plus: {1=1, 3=1}\nw_minus: {2=1, 4=1}\n"
    assert checks.classify(blocks, half, "not_extreme")(good) is None
    assert checks.classify(blocks, half, "extreme")(good) is not None
    lopsided = "verdict: not_extreme\nw_plus: {1=1, 3=1}\nw_minus: {1=1, 3=1}\n"
    assert checks.classify(blocks, half, "not_extreme")(lopsided) is not None
    terms = "terms: 2\n  1/2 * {1=1, 3=1}\n  1/2 * {2=1, 4=1}\nrecombines exactly: yes\n"
    assert checks.decompose(blocks, half)(terms) is None
    skewed = terms.replace("  1/2 * {1", "  1/3 * {1")
    assert checks.decompose(blocks, half)(skewed) is not None
    assert checks.vertices(blocks, 2)("vertex count: 1\n  vertex 1: {1=1, 3=1}\n") is not None
    over = "extended: {1=1, 2=1}\ncomplete: no\n"
    assert checks.extend_generator("path", 3, {1: Fraction(1)})(over) is not None
    assert checks.check_report(blocks, half)("garbage") is not None


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_run_prints_every_declared_metric(tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "random", "--seed", "2",
         "--seconds", "0.1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
