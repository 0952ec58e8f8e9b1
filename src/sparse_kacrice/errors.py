"""Exception taxonomy shared by all modules.

Every failure mode falls in one of a handful of buckets so that callers (and
the command-line surface) can map exceptions to exit codes without string
matching: bad inputs, points outside a domain of definition, iterative
methods that ran out of budget, and linear algebra that degenerated.
"""

__all__ = [
    "SparseKacRiceError",
    "InputError",
    "DomainError",
    "ConvergenceError",
    "SingularFormError",
    "DegenerateMetricError",
]


class SparseKacRiceError(Exception):
    """Base class for all errors raised by this package."""


class InputError(SparseKacRiceError, ValueError):
    """Malformed or out-of-contract input (shapes, signs, dimensions, parsing)."""


class DomainError(SparseKacRiceError, ValueError):
    """A point lies outside the mathematical domain of the operation.

    Examples: a target outside the interior of the Newton polytope for
    moment-map inversion, or a critical point where a tangent space is
    undefined.
    """


class ConvergenceError(SparseKacRiceError, RuntimeError):
    """An iterative method exhausted its budget before reaching tolerance.

    Carries the best value reached so far (``value``) and the last residual
    or error estimate (``residual``) so callers can report partial results.
    """

    def __init__(self, message, value=None, residual=None):
        super().__init__(message)
        self.value = value
        self.residual = residual


class SingularFormError(SparseKacRiceError, ArithmeticError):
    """A quadratic form is not positive definite enough to invert."""


class DegenerateMetricError(SparseKacRiceError, ArithmeticError):
    """The metric degenerates (support not full-dimensional) where a
    nondegenerate metric is required."""
