"""Exception types shared across the package."""


class IdemforgeError(Exception):
    """Base class for all library errors."""


class UsageError(IdemforgeError, ValueError):
    """A caller violated a documented precondition (bad arguments, field
    mismatch, an input past a size or exactness rule)."""


class BudgetExceededError(UsageError):
    """An exact computation would exceed its configured size budget."""

    def __init__(self, message: str, required=None):
        super().__init__(message)
        self.required = required


class InvariantViolation(IdemforgeError, RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""
