"""Exception hierarchy shared by all trunclab modules."""


class TruncLabError(Exception):
    """Base class for all trunclab errors."""


class StructureError(TruncLabError):
    """A carrier, table, order or invariant is malformed."""


class SpaceMismatchError(TruncLabError):
    """Operands live over different spaces or frames."""


class PositivityError(TruncLabError):
    """An operation required a nonnegative operand."""


class UnsupportedOperationError(TruncLabError):
    """Operation tag not supported by the model (e.g. multiplication)."""


class BudgetError(TruncLabError):
    """A search or sample budget was exhausted or is invalid."""


class CertificationError(TruncLabError):
    """A certificate check failed; witness is the object that refutes it."""

    def __init__(self, message, witness=None):
        super().__init__(message if witness is None
                         else f"{message} (witness {witness!r})")
        self.witness = witness


def certify(ok, message, witness=None):
    """Raise CertificationError(message, witness) unless ok.

    Unlike an assert, the check stays on under python -O.
    """
    if not ok:
        raise CertificationError(message, witness)


class ParseError(TruncLabError):
    """Instance file error, carrying the offending line number."""

    def __init__(self, lineno, message):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
        self.message = message
