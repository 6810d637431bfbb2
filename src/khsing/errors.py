"""Exception types shared across the package.

Parse failures (bad input data) and contract violations (a caller broke a
documented precondition) are kept distinct so the CLI can map them to
different exit codes.
"""


class ParseError(ValueError):
    """Raised when diagram data is malformed or too large to compute with."""


class ContractViolation(ValueError):
    """Raised when an operation is called outside its documented contract."""
