"""Exception hierarchy shared across the package.

The CLI maps these onto its published exit codes.
"""


class FlipwidthError(Exception):
    pass


class ParseError(FlipwidthError):
    """Malformed graph, certificate, or formula input (exit 3)."""


class GenerationError(FlipwidthError):
    """Invalid generator or operation parameters (exit 3)."""


class LimitExceeded(FlipwidthError):
    """A configured exhaustive-search limit was breached (exit 2)."""


def check_bound(what, quantity, value, bound):
    """Raise LimitExceeded when `value`, the `quantity` that sizes the
    exhaustive search in `what`, exceeds its configured bound."""
    if value > bound:
        raise LimitExceeded(f"{what}: {quantity}={value} exceeds the configured bound {bound}")


class SchemaError(FlipwidthError):
    """Certificate or strategy JSON does not match its schema (exit 4)."""


class IllegalMoveError(FlipwidthError):
    """A policy produced a move that is illegal in the governing game (exit 5)."""


class CertificateInvalid(FlipwidthError):
    """A certificate-backed policy hit a refuting flip; carries the flip."""

    def __init__(self, message, refutation=None):
        super().__init__(message)
        self.refutation = refutation
