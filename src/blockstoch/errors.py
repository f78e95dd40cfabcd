"""Exception hierarchy shared across the package.

Three base classes carry the CLI exit codes as ``exit_code``: malformed
input data (exit code 1), a mathematical precondition that does not hold
(exit code 2), and an exhausted search budget or horizon (exit code 3).
"""

from __future__ import annotations


class InputError(ValueError):
    """Malformed instance data."""
    exit_code = 1


class PreconditionError(ValueError):
    """A required mathematical precondition fails for the given input."""
    exit_code = 2


class BudgetError(RuntimeError):
    """A configured search budget or horizon was exhausted."""
    exit_code = 3


class EmptyBlockError(InputError):
    """A block with no members was supplied."""


class EmptyFamilyError(InputError):
    """A family needs at least one block."""


class DuplicateBlockError(InputError):
    """Two blocks have identical member sets."""


class UnknownElementError(InputError):
    """A label does not belong to the ground set."""


class NotACoverError(InputError):
    """The given blocks do not jointly contain the ground set."""


class GeneratorInconsistentError(InputError):
    """A family generator contradicts its declared properties."""


class NotStochasticError(PreconditionError):
    """The weight function is not nonnegative with unit block sums."""


class NotSimpleError(PreconditionError):
    """The path repeats a vertex or uses a missing edge."""


class NotSimpleCycleError(PreconditionError):
    """The vertex sequence is not a simple cycle of the graph."""


class ConditionsViolatedError(PreconditionError):
    """The hypotheses of a witness construction fail on the given data."""


class EvenCyclePresentError(PreconditionError):
    """An even primitive cycle exists where the construction forbids one."""


class InstanceTooLargeError(BudgetError):
    """A vertex enumeration exceeds its search budget."""


class DepthExceededError(BudgetError):
    """A decomposition exceeded its recursion budget."""


class HorizonExhaustedError(BudgetError):
    """No eligible element was found within the search horizon."""


class InternalPropertyError(AssertionError):
    """A property guaranteed by the theory failed; indicates a bug."""
