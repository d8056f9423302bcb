"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: DataError -> 2, NumericalError -> 3.
Plain ValueError from argument validation is treated as a usage problem.
"""


class EpsPlannerError(Exception):
    """Base class for all package-specific errors."""


class UsageError(EpsPlannerError):
    """Bad command-line or config-file input."""


class DataError(EpsPlannerError):
    """Malformed input data: parse failures, invariant violations."""


class NumericalError(EpsPlannerError):
    """Numerical failure: non-convergence, overflow, singular systems."""


class NoiseMismatchError(NumericalError):
    """A perturbation was built from a different noise draw than the model's."""


class FlatSlopeError(NumericalError):
    """Utility locally insensitive to epsilon: the slope is numerically zero."""


class UnreachableUtilityError(NumericalError):
    """The requested utility maps to a nonpositive or infinite privacy budget."""
