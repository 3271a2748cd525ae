"""Exception hierarchy shared across the package, and the one check each
for whole-number and real-number settings."""

import numbers
import sys


class BwslError(Exception):
    """Base class for all package errors."""


class UsageError(BwslError):
    """Bad command-line arguments or configuration keys."""


class DataError(BwslError):
    """Malformed, missing, or inconsistent input data."""


class NoEligibleStocksError(DataError):
    """Fewer than 2 stocks have a complete look-back window at the requested time."""


class MissingReturnError(DataError):
    """A supported stock has no realized price for the holding period."""


class NumericError(BwslError):
    """Numerical failure: non-finite values, domain violations, degeneracy."""


class ShapeError(NumericError):
    """Operand shapes do not conform to an operation's signature."""


class NonFiniteError(NumericError):
    """An operation produced NaN or infinity."""


class DomainError(NumericError):
    """An operation was evaluated outside its mathematical domain."""


class ZeroVolatilityError(NumericError):
    """A return series has zero variance, so no risk-adjusted ratio exists."""


class RuinError(NumericError):
    """Cumulative wealth hit zero or went negative."""


class TrainingDivergedError(NumericError):
    """The training loop detected a degenerate, non-learning policy."""


def whole_number(value, what: str, minimum: int | None) -> int:
    """``value`` as an int: a real number with no fractional part (12.0 is
    accepted, 12.9 is not), not a bool, and at least ``minimum``, when one
    is given; DataError naming ``what`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) and not (
        isinstance(value, numbers.Real) and float(value).is_integer()
    ):
        raise DataError(f"{what} must be a whole number, got {value!r}")
    if minimum is not None and value < minimum:
        raise DataError(f"{what} must be at least {minimum}, got {value!r}")
    return int(value)


def real_number(value, what: str, minimum: float | None = None) -> float:
    """``value`` as a float: a finite real number, not a bool, and at least
    ``minimum``, when one is given; DataError naming ``what`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DataError(f"{what} must be a real number, got {value!r}")
    # false for NaN, infinities and ints too large for a float alike
    if not abs(value) <= sys.float_info.max:
        raise DataError(f"{what} must be finite, got {value!r}")
    if minimum is not None and value < minimum:
        raise DataError(f"{what} must be at least {minimum}, got {value!r}")
    return float(value)
