"""Exceptions shared across the package."""

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
