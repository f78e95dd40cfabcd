"""Refusals of the graph, demo and membership helpers that no other test
raises: each row is a call, the exception class and the exact message."""

from fractions import Fraction

import pytest

from blockstoch.demos import DEMOS, run_demo
from blockstoch.errors import (
    InputError,
    NotSimpleCycleError,
    NotSimpleError,
    UnknownElementError,
)
from blockstoch.family import WeightFunction, build_family, classify_membership
from blockstoch.graphs import (
    Path,
    build_graph,
    decompose_cycle,
    enumerate_primitive_paths,
    is_primitive,
    require_simple,
    validate_path,
)

# a triangle on 1, 2, 3 with element 4 hanging off 1
FAMILY = build_family([[1, 2], [2, 3], [1, 3], [1, 4]])
GRAPH = build_graph(FAMILY)
HALVES = WeightFunction({g: Fraction(1, 2) for g in (1, 2, 3)})

REFUSALS = [
    (lambda: validate_path(GRAPH, Path(())),
     NotSimpleError, "a path needs at least one vertex"),
    (lambda: validate_path(GRAPH, Path((1,), is_cycle=True)),
     NotSimpleCycleError, "a cycle needs at least three vertices"),
    (lambda: require_simple(GRAPH, Path((1, 2, 3, 1, 4))),
     NotSimpleError, "path repeats a vertex"),
    (lambda: is_primitive(FAMILY, Path((1, 2, 1), is_cycle=True)),
     NotSimpleCycleError, "primitivity is defined for simple cycles"),
    (lambda: is_primitive(FAMILY, Path((1, 2, 1))),
     NotSimpleError, "primitivity is defined for simple paths"),
    (lambda: GRAPH.neighbors_of(9),
     UnknownElementError, "vertex 9 is not in the graph"),
    (lambda: GRAPH.blocks_of_edge(2, 4),
     InputError, "no edge between 2 and 4"),
    (lambda: enumerate_primitive_paths(GRAPH, FAMILY, 1, 4, stop_after=-1),
     InputError, "stop_after must be nonnegative"),
    (lambda: enumerate_primitive_paths(GRAPH, FAMILY, 4, 4, stop_after=-1),
     InputError, "stop_after must be nonnegative"),
    (lambda: decompose_cycle(GRAPH, FAMILY, Path((1, 2, 3))),
     NotSimpleCycleError, "input must be a cycle"),
    (lambda: run_demo("nonexistent"),
     InputError, f"unknown demo 'nonexistent'; known demos: {', '.join(sorted(DEMOS))}"),
    (lambda: classify_membership(FAMILY, HALVES).block_sum(7),
     InputError, "no block with index 7"),
]


@pytest.mark.parametrize("call, error, message", REFUSALS, ids=[r[2] for r in REFUSALS])
def test_refusal(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message
