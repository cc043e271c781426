"""Exception taxonomy shared by the whole package.

Everything a caller can trigger with bad input derives from LinkInputError,
so the command-line layer can map "your input was rejected" to one exit code
and anything else to an internal-error code.
"""

from __future__ import annotations

__all__ = [
    "LinkInputError",
    "NotCoprime",
    "InvalidParameters",
    "UnknotInput",
    "NotPrime",
    "NotCore",
    "NotInCatalog",
    "UnknownAlias",
    "UnknownTable",
    "WeightMismatch",
    "LinkSyntaxError",
    "InvariantViolation",
    "ZeroPolynomial",
]


class LinkInputError(ValueError):
    """Base class for every rejection of caller-supplied data."""


class NotCoprime(LinkInputError):
    """The multiplicities p and q of a core pair must be coprime."""


class InvalidParameters(LinkInputError):
    """Parameters violate a structural constraint (range, parity, sign)."""


class UnknotInput(LinkInputError):
    """The parameters denote the unknot, which is outside the class."""


class NotPrime(LinkInputError):
    """The operation is defined for prime links only."""


class NotCore(LinkInputError):
    """The operation needs a core variant (it has no meaning for Hopf sums)."""


class NotInCatalog(LinkInputError):
    """The requested pair is outside the finite catalog this query covers."""


class UnknownAlias(LinkInputError):
    """The name is syntactically an alias but matches no catalogued link."""


class UnknownTable(LinkInputError):
    """The requested table name is not one of the published tables."""


class WeightMismatch(LinkInputError):
    """A cover specification must carry one weight per link component."""


class LinkSyntaxError(LinkInputError):
    """Unparseable link notation; `position` is the 0-based offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


class InvariantViolation(RuntimeError):
    """A result the mathematics guarantees did not hold: a defect of the
    package, never of the input, so the CLI reports it as an internal
    error."""


class ZeroPolynomial(ArithmeticError):
    """The zero polynomial has no breadth or degree."""
