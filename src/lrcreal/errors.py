"""Exceptions shared across the package, and the one check of a count.

A depth, a digit or element count and a number of decimal places index a
finite prefix, so each is an int that is not a ``bool``, at least some
low bound; ``_count`` says so once for every function that takes one,
and for the engine's ``AffineData`` coefficients, and raises
``DomainError`` on anything else. This module imports nothing, so every
other module can import it.
"""

__all__ = ["DomainError", "ExprParseError"]


class DomainError(ValueError):
    """A value lies outside the domain an operation requires."""


class ExprParseError(ValueError):
    """Expression syntax error with a 1-based character position."""

    def __init__(self, position, expected, found):
        self.position = position
        self.expected = expected
        self.found = found
        super().__init__(
            "syntax error at position %d: expected %s, found %s"
            % (position, expected, found)
        )


def _count(n, what: str, low: int = 0) -> None:
    """Check that ``n`` is an int, not a ``bool``, and at least ``low``; else ``DomainError``.

    ``what`` names the argument in the message. A plain int costs one
    class test and one comparison.
    """
    if n.__class__ is not int and (n.__class__ is bool or not isinstance(n, int)):
        raise DomainError("%s must be an int, got %r" % (what, n))
    if n < low:
        raise DomainError("%s must be >= %d" % (what, low))
