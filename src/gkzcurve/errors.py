"""Exception types shared across the package."""


class InvalidInputError(ValueError):
    """Raised when arguments violate a documented precondition."""


class ResourceLimitError(RuntimeError):
    """Raised when an enumeration would exceed a configured cap."""

