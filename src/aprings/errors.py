"""Exception hierarchy for the aprings package, and the checks on JSON input."""


class ApringsError(Exception):
    """Base class for package-specific failures."""


class BoundExceeded(ApringsError):
    """A configured resource bound would be exceeded."""


class OrderBoundExceeded(BoundExceeded):
    """Group closure grew past the configured order bound."""


class CarrierBoundExceeded(BoundExceeded):
    """Finite-quotient carrier larger than the configured bound."""


class UnsupportedOrder(BoundExceeded):
    """Cyclotomic order outside the supported degree range."""


class NonIntegerCoefficient(ApringsError):
    """A polynomial expansion produced a non-integer coefficient."""


class NonIntegralPullback(ApringsError):
    """A mark vector has no integral preimage in the Burnside basis."""


class R2Violation(ApringsError):
    """A declared generator is not a root of the generating polynomial."""


class UnsupportedModel(ApringsError):
    """The requested computation has no strategy for this ring model."""


class ExpressionError(ApringsError):
    """Malformed user input: an expression, an unknown name, a malformed
    model description, JSON or an APRINGS_* value."""


class CheckFailed(ApringsError):
    """An exact identity that a check or a computation relies on does not hold."""


def exact_ints(values, message: str) -> tuple[int, ...]:
    """values as a tuple of exact ints, else ExpressionError(message): no
    integer field takes JSON's 2.5, 2.0, true or "2", or a non-list."""
    try:
        out = tuple(values)
    except TypeError as exc:
        raise ExpressionError(message) from exc
    if any(type(x) is not int for x in out):
        raise ExpressionError(message)
    return out


def known_keys(obj: dict, allowed, what: str) -> None:
    """ExpressionError naming the first key of obj outside `allowed`: a
    misspelled key is refused, not read as an absent one."""
    for key in obj:
        if key not in allowed:
            raise ExpressionError(f"{what} has an unknown key {key!r}")
