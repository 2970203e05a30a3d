"""Exception types shared across the toolkit."""


class RobuqError(Exception):
    """Base class for every error raised by this package."""


class FormatError(RobuqError):
    """A file or byte stream does not match its declared layout."""


class ValidationError(RobuqError):
    """An input value violates a documented precondition."""


class DimensionError(RobuqError):
    """Array shapes are inconsistent with the requested operation."""


class ConvergenceError(RobuqError):
    """An iterative solver ran out of iterations."""


class InfeasibleError(RobuqError):
    """A budget constraint cannot be satisfied.

    ``min_achievable`` reports the smallest feasible value of the
    constrained quantity.
    """

    def __init__(self, message, min_achievable=None):
        super().__init__(message)
        self.min_achievable = min_achievable

