"""Exception types shared across the toolkit.

The contract is two-fold: a file or byte stream that does not match its
layout raises ``FormatError``, and every other input the package rejects
(a value, shape, rank, width or budget outside its documented range)
raises ``ValidationError``. Both derive from ``RobuqError``.
"""


class RobuqError(Exception):
    """Base class for every error raised by this package."""


class FormatError(RobuqError):
    """A file or byte stream does not match its declared layout."""


class ValidationError(RobuqError):
    """An input value, shape or budget violates a documented precondition."""
