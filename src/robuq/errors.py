"""Exception types shared across the toolkit.

The contract is two-fold: file content that a reader rejects raises
``FormatError`` naming the file (as does text that ``FlopsConfig.from_json``
rejects), and every in-memory input the package rejects (a value, shape,
rank, width or budget outside its documented range) raises
``ValidationError``. Both derive from ``RobuqError``.
"""


class RobuqError(Exception):
    """Base class for every error raised by this package."""


class FormatError(RobuqError):
    """A file's content does not match its format."""


class ValidationError(RobuqError):
    """An input value, shape or budget violates a documented precondition."""
