"""Exception hierarchy shared by all eigenbound modules.

Every error carries enough context to be mapped onto the CLI's exit-code
contract: config errors exit 2, hypothesis violations exit 3, numerical
degenerations exit 4, failed bracketing verdicts exit 5.  No error means a
zero eigenvalue: on a finite interval every mass is finite, so a table that
overflows is a degeneration, and on (0, inf) a divergent mass is reported,
not raised.
"""

from __future__ import annotations


class EigenboundError(Exception):
    """Base class for all library errors."""


class LexError(EigenboundError):
    """Character outside the expression grammar."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class ParseError(EigenboundError):
    """Malformed token sequence (unbalanced parens, dangling operator, ...)."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class DomainError(EigenboundError):
    """Evaluation left the mathematical domain (log of non-positive, 0^negative, x/0);
    x is the smallest point where it did, when known."""

    def __init__(self, message: str, x: float | None = None):
        super().__init__(message)
        self.x = x


class RangeError(EigenboundError):
    """Argument outside the interval or ordering required by an operation."""


class HypothesisViolationError(EigenboundError):
    """Coefficient hypothesis failed: a not positive, or a weight not locally integrable."""


class DegenerationError(EigenboundError):
    """A computation left what floats resolve: a table's masses overflowed, or an
    iteration lost the structure it needs (positivity, non-vanishing window)."""


class ConfigError(EigenboundError):
    """Unusable run configuration (bad key, bad value, missing file)."""
