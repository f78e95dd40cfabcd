"""Benchmark of the blockstoch command line, run in-process.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 20 --trace 0

Each op calls ``blockstoch.cli.main(argv)`` with stdout and stderr
captured, so interpreter start is not timed.  A run sets up several
times (fresh import of the program, instance files, one warm-up op per
subcommand) and reports the median as ``setup_s``.  It then repeats
passes over the workload's ops, one op at a time, until ``--seconds``
have passed, and checks every op's exit code and output.  Each op's
time is its median over the passes; a reported time sums those medians.
Times are scaled to a reference host speed (see calibrate.py).  With
``--trace 1`` untraced and traced passes alternate, and the per-layer
metrics come from the traced ones.  The last line of stdout is one JSON
object with the result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import calibrate, trace, workloads  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = ROOT / ".perfbench_run"


class ProgramMissing(Exception):
    pass


def load_program():
    """Import ``blockstoch.cli`` afresh from the checkout's ``src``.

    Any copy imported earlier is dropped first, so each call pays the
    full import cost, and a copy installed elsewhere is never used.
    """
    src = (ROOT / "src").resolve()
    if not (src / "blockstoch" / "cli.py").is_file():
        raise ProgramMissing(f"no blockstoch sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "blockstoch" or n.startswith("blockstoch.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    cli = importlib.import_module("blockstoch.cli")
    if src not in Path(cli.__file__).resolve().parents:
        raise ProgramMissing(f"blockstoch was imported from {cli.__file__}, not {src}")
    return cli


@dataclass
class PassResult:
    ops: list[workloads.Op]
    raw: list[float] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    factors: list[float] = field(default_factory=list)

    @property
    def seconds(self) -> list[float]:
        """Op times in reference seconds (see calibrate.py)."""
        return [t * f for t, f in zip(self.raw, self.factors)]


def run_op(cli, op: workloads.Op) -> tuple[float, int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        code = cli.main(list(op.argv))
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue(), err.getvalue()


def run_pass(cli, ops: list[workloads.Op], reference: list[str] | None = None) -> PassResult:
    """Run every op, ``op.repeat`` times in a row, and check it.  The op's
    time is the median of its repeats.  Its stdout must be the same on
    every repeat and, with ``reference`` digests, repeat them byte for
    byte."""
    result = PassResult(ops)
    speed = calibrate.Speed()
    speed.sample()
    middles = []
    for pos, op in enumerate(ops):
        times, codes, digests = [], set(), set()
        start = time.perf_counter()
        for _ in range(op.repeat):
            elapsed, code, out, err = run_op(cli, op)
            speed.maybe_sample()
            digest = hashlib.sha256(out.encode()).hexdigest()
            times.append(elapsed)
            codes.add(code)
            digests.add(digest)
        middles.append((start + time.perf_counter()) / 2)
        result.raw.append(statistics.median(times))
        result.digests.append(digest)
        if codes != {op.expect_code}:
            problem = f"exit codes {sorted(codes)}, expected {op.expect_code}: {err.strip()[:200]}"
        elif len(digests) > 1 or (reference is not None and digest != reference[pos]):
            problem = "stdout differs from one run to the next"
        else:
            problem = op.check(out)
        if problem is not None:
            result.problems.append(f"{op.label}: {problem}")
    speed.sample()
    result.factors = [speed.factor(when) for when in middles]
    return result


def typical(passes: list[PassResult]) -> list[list[tuple[workloads.Op, float]]]:
    """For each op set, every op with its median time over the passes of
    that set.  Medians per op shrug off a burst of host noise that hits
    one op, which a median over whole passes does not."""
    groups: dict[int, list[PassResult]] = {}
    for p in passes:
        groups.setdefault(id(p.ops), []).append(p)
    return [
        [(op, statistics.median(p.seconds[i] for p in group)) for i, op in enumerate(group[0].ops)]
        for group in groups.values()
    ]


def pass_seconds(sets: list[list[tuple[workloads.Op, float]]], command: str | None = None) -> float:
    """Typical seconds of one pass, or of one subcommand's ops in it,
    averaged over the op sets."""
    return statistics.mean(
        sum(t for op, t in ops if command in (None, op.command)) for ops in sets
    )


def end_to_end(passes: list[PassResult], setup: list[float]) -> dict[str, tuple[float, str]]:
    sets = typical(passes)
    metrics = {"setup_s": (statistics.median(setup), "s"), "pass_s": (pass_seconds(sets), "s")}
    for command in workloads.SUBCOMMANDS:
        metrics[f"{command}_s"] = (pass_seconds(sets, command), "s")
    deciles = statistics.quantiles([t for ops in sets for _, t in ops], n=10, method="inclusive")
    metrics["op_p50_ms"] = (deciles[4] * 1e3, "ms")
    metrics["op_p90_ms"] = (deciles[8] * 1e3, "ms")
    # The vertices --jobs 2 rung checks candidates in worker processes.
    peak_kb = max(
        resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
    return metrics


def per_layer(layers: list[dict], untraced: list[PassResult], traced: list[PassResult]):
    metrics = {}
    for name in layers[0]:
        unit = "s" if name.endswith("_s") else "count"
        pick = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = (pick(layer[name] for layer in layers), unit)
    ratio = pass_seconds(typical(traced)) / pass_seconds(typical(untraced))
    metrics["trace.overhead"] = (ratio, "ratio")
    return metrics


def write_spans(path: Path, passes: list[list[list]]) -> None:
    with path.open("w", encoding="utf-8") as handle:
        for number, spans in enumerate(passes):
            for name, start, end, parent in spans:
                handle.write(json.dumps([number, name, start, end, parent]) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    run_dir = OUT_DIR / f"{args.workload}-{args.seed}"
    problems: list[str] = []
    # Set-up times only the program's share: its import, writing the
    # instance files and the warm-up ops themselves.  The reference task
    # and the output checks that run_pass adds are left out.
    setup_spans: list[tuple[float, float, float]] = []
    setup_speed = calibrate.Speed()
    attempted = 0
    try:
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(run_dir, ignore_errors=True)
            setup_speed.sample()
            start = time.perf_counter()
            cli = load_program()
            sets = workloads.build(args.workload, args.seed, run_dir / "instances")
            warmup = workloads.warmup_ops(workloads.Writer(run_dir / "warmup"))
            prepared = time.perf_counter() - start
            result = run_pass(cli, warmup)
            problems += result.problems
            attempted += len(warmup)
            setup_spans.append((start, time.perf_counter(), prepared + sum(result.raw)))
            setup_speed.sample()
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    # Passes go through the op sets in order, each set untraced and, with
    # --trace 1, then traced.  The run ends at the first full cycle over
    # the sets that finishes after the deadline.
    schedule = [(i, with_trace) for i in range(len(sets)) for with_trace in range(args.trace + 1)]
    untraced: list[PassResult] = []
    traced: list[PassResult] = []
    layers: list[dict] = []
    spans: list[list[list]] = []
    reference: dict[int, list[str]] = {}
    tracer = trace.Tracer()
    deadline = time.perf_counter() + args.seconds
    while not untraced or time.perf_counter() < deadline:
        for index, with_trace in schedule:
            ops = sets[index]
            if with_trace:
                tracer.reset()
                tracer.install()
                try:
                    result = run_pass(cli, ops, reference.get(index))
                finally:
                    tracer.restore()
                traced.append(result)
                layers.append(trace.layer_metrics(tracer))
                spans.append(list(tracer.spans))
            else:
                result = run_pass(cli, ops, reference.get(index))
                untraced.append(result)
            reference.setdefault(index, result.digests)
            problems += result.problems
            attempted += len(ops)

    digests = {
        f"set-{index}/{op.label}": d
        for index, ops in enumerate(sets)
        for op, d in zip(ops, reference[index])
    }
    digest = hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()
    (run_dir / "digests.json").write_text(json.dumps(digests, indent=1), encoding="utf-8")
    for inputs in ("instances", "warmup"):
        shutil.rmtree(run_dir / inputs, ignore_errors=True)
    if args.trace:
        metrics = per_layer(layers, untraced, traced)
        write_spans(run_dir / "spans.jsonl", spans)
    else:
        setup = [took * setup_speed.factor((start + end) / 2) for start, end, took in setup_spans]
        metrics = end_to_end(untraced, setup)

    for problem in problems[:20]:
        print(f"FAILED {problem}")
    print(
        f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and"
        f" {len(traced)} traced passes over {len(sets)} set(s) of"
        f" {sum(map(len, sets))} ops; stdout digest {digest[:16]}"
    )
    print(
        f"raw median pass {statistics.median(sum(p.raw) for p in untraced):.4f} s,"
        " median host speed factor per pass"
        f" {' '.join(f'{statistics.median(p.factors):.3f}' for p in untraced + traced)}"
    )
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
