"""Exception types shared across the package."""


class ContractViolation(RuntimeError):
    """A runtime invariant failed mid-simulation.

    Raised when a computed state drifts off unit norm or a similar internal
    guarantee is broken.  These signal implementation bugs (or deliberately
    corrupted test runs), never bad user input; bad input raises ValueError
    instead.
    """


class ConfigFieldError(ValueError):
    """A configuration value is refused; ``field`` names the offending field."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


class AuditFailure(Exception):
    """An oracle-audit invariant did not hold; the message names it."""
