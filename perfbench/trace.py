"""Spans and work counts around the program's layers, from outside it.

The program's modules import each other's functions by name (for
example ``from .graphs import find_primitive_cycles``), so a wrapper has
to replace the name in every ``blockstoch`` module that binds it.
``Tracer.install`` does that and ``Tracer.restore`` puts every original
back.  Each call of a wrapped function records a span (name, start,
end, parent) in memory; a layer's self time is its spans' durations
minus the time their child spans cover.  The generators handed to the
extension code are wrapped in a proxy that counts its ``contains`` and
``gamma_of`` calls.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Any, Callable

# module -> public functions wrapped in a span named "<layer>.<function>";
# the CLI entry point is the span "cli"
TARGETS = {
    "cli": ("main",),
    "instance_io": ("load_instance", "load_weights_document"),
    "family": ("build_family", "check_freshness", "classify_membership"),
    "graphs": ("build_graph", "find_primitive_cycles"),
    "extremality": (
        "classify_extreme",
        "construct_two_coloring",
        "construct_tree_propagation",
        "construct_cycle_attachment",
    ),
    "oracle": ("enumerate_vertices", "decompose", "cross_validate", "is_vertex"),
    "extension": ("extend_truncation", "verify_extension"),
}

CONSTRUCTIONS = ("two_coloring", "tree_propagation", "cycle_attachment")


def _result_counts(name: str, result: Any, counts: Counter) -> None:
    """Work counts read off a wrapped function's return value."""
    if name == "graphs.find_primitive_cycles":
        counts["graphs.cycles_returned"] += len(result)
    elif name == "oracle.enumerate_vertices":
        counts["oracle.vertices_returned"] += len(result)
    elif name == "oracle.decompose":
        counts["oracle.decompose_terms"] += len(result.terms)
    elif name == "extension.extend_truncation":
        counts["extension.steps"] += len(result.steps)
    elif name == "extremality.classify_extreme" and result.witness is not None:
        counts[f"extremality.witness.{result.witness.construction}"] += 1


class CountingGenerator:
    """A family generator that counts the membership queries made of it."""

    def __init__(self, inner: Any):
        self._inner = inner
        self._contains = inner.contains
        self._gamma_of = inner.gamma_of
        self.contains_calls = 0
        self.gamma_calls = 0

    def __getattr__(self, name: str) -> Any:
        return getattr(self._inner, name)

    def contains(self, k: int, g: int) -> bool:
        self.contains_calls += 1
        return self._contains(k, g)

    def gamma_of(self, g: int) -> tuple[int, ...]:
        self.gamma_calls += 1
        return self._gamma_of(g)


class Tracer:
    """Patches span wrappers into the loaded ``blockstoch`` modules.

    Spans are rows ``[name, start, end, parent]`` with ``parent`` the
    row index of the enclosing span, or -1.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.generators: list[CountingGenerator] = []
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, original: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            row = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            row[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
            counts[name + ".calls"] += 1
            _result_counts(name, result, counts)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _counting_factory(self, original: Callable) -> Callable:
        generators = self.generators

        def factory(*args, **kwargs):
            proxy = CountingGenerator(original(*args, **kwargs))
            generators.append(proxy)
            return proxy

        factory.__wrapped__ = original
        return factory

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("the tracer is already installed")
        replace: dict[int, Callable] = {}
        for layer, functions in TARGETS.items():
            module = sys.modules[f"blockstoch.{layer}"]
            for function in functions:
                original = getattr(module, function)
                name = "cli" if layer == "cli" else f"{layer}.{function}"
                replace[id(original)] = self._wrap(name, original)
        extension = sys.modules["blockstoch.extension"]
        for name in ("get_generator", "WrappedFamilyGenerator"):
            original = getattr(extension, name)
            replace[id(original)] = self._counting_factory(original)
        for module in program_modules():
            for attr, value in list(vars(module).items()):
                wrapper = replace.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    def reset(self) -> None:
        """Drop the spans and counts gathered so far."""
        if self._stack:
            raise RuntimeError("cannot reset inside an open span")
        self.spans.clear()
        self.counts.clear()
        self.generators.clear()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name over the spans recorded."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[name] = out.get(name, 0.0) + (end - start - children)
        return out


def program_modules() -> list[Any]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None and (name == "blockstoch" or name.startswith("blockstoch."))
    ]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics for the spans and counts recorded so far."""
    own = tracer.self_times()
    counts = Counter(tracer.counts)
    for proxy in tracer.generators:
        counts["extension.generator_contains_calls"] += proxy.contains_calls
        counts["extension.generator_gamma_calls"] += proxy.gamma_calls
    metrics: dict[str, float] = {}
    for name in (
        "instance_io.load_instance",
        "family.build_family",
        "family.check_freshness",
        "family.classify_membership",
        "graphs.build_graph",
        "graphs.find_primitive_cycles",
        "extremality.classify_extreme",
        "oracle.enumerate_vertices",
        "oracle.decompose",
        "oracle.cross_validate",
        "extension.extend_truncation",
        "extension.verify_extension",
        "cli",
    ):
        metrics[f"{name}.self_s"] = own.get(name, 0.0)
    metrics["extremality.construct.self_s"] = sum(
        own.get(f"extremality.construct_{c}", 0.0) for c in CONSTRUCTIONS
    )
    for name in (
        "instance_io.load_instance.calls",
        "family.check_freshness.calls",
        "family.classify_membership.calls",
        "graphs.find_primitive_cycles.calls",
        "graphs.cycles_returned",
        "oracle.enumerate_vertices.calls",
        "oracle.vertices_returned",
        "oracle.decompose_terms",
        "oracle.is_vertex.calls",
        "extension.steps",
        "extension.generator_contains_calls",
        "extension.generator_gamma_calls",
    ):
        metrics[name] = counts.get(name, 0)
    for c in CONSTRUCTIONS:
        metrics[f"extremality.witness.{c}"] = counts.get(f"extremality.witness.{c}", 0)
    return metrics
