"""Exception types shared across the package, and the sign checks."""


class CoherenceError(ValueError):
    """Base class for all errors raised by this package."""


class DimensionError(CoherenceError):
    """Operands have incompatible or non-square shapes."""


class ValidationError(CoherenceError):
    """A matrix violates a structural invariant (hermiticity, trace, ...)."""


class PositivityError(ValidationError):
    """An eigenvalue is negative beyond round-off tolerance."""


class NumericalConsistencyError(CoherenceError):
    """An analytically impossible value appeared (e.g. negative radicand)."""


class DomainError(CoherenceError):
    """A scalar argument lies outside its admissible domain."""


def require_positive(name, value):
    """Return `value` if it is > 0; otherwise raise DomainError."""
    if not value > 0.0:
        raise DomainError(f"{name} must be positive, got {value!r}")
    return value


def require_non_negative(name, value):
    """Return `value` if it is >= 0 (+inf included); otherwise raise DomainError."""
    if not value >= 0.0:
        raise DomainError(f"{name} must be non-negative, got {value!r}")
    return value
