"""Exception hierarchy shared across the package, and the one check each
for whole-number and real-number settings and for arrays of real numbers
(``real_array``) and of whole numbers (``whole_array``, for ranks, row
indices and masks)."""

import numbers
import sys

import numpy as np


class BwslError(Exception):
    """Base class for all package errors."""


class UsageError(BwslError):
    """Bad command-line arguments or configuration keys."""


class DataError(BwslError):
    """Malformed, missing, or inconsistent input data."""


class NoEligibleStocksError(DataError):
    """Fewer than 2 stocks have a complete look-back window at the requested
    time, or the time comes before k look-back months."""


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


def whole_number(value, what: str, minimum: int | None, maximum: int | None = None) -> int:
    """``value`` as an int: a real number with no fractional part (12.0 is
    accepted, 12.9 is not), not a bool, and at least ``minimum`` and at most
    ``maximum``, when given; DataError naming ``what`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) and not (
        isinstance(value, numbers.Real) and float(value).is_integer()
    ):
        raise DataError(f"{what} must be a whole number, got {value!r}")
    if minimum is not None and value < minimum:
        raise DataError(f"{what} must be at least {minimum}, got {value!r}")
    if maximum is not None and value > maximum:
        raise DataError(f"{what} must be at most {maximum}, got {value!r}")
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


def _array(values, what: str, noun: str) -> np.ndarray:
    """``np.asarray(values)``; DataError naming ``what`` for a ragged nesting."""
    try:
        return np.asarray(values)
    except ValueError:  # a ragged nesting has no array shape
        raise DataError(f"{what} must be an array of {noun}, got a ragged nesting") from None


def real_array(values, what: str) -> np.ndarray:
    """``values`` as a float64 array, returned as it is when it already is
    one. Values whose array has an integer or float dtype, of any width,
    pass; strings, None, bools, complex numbers, other objects and ragged
    nesting raise DataError naming ``what``."""
    arr = _array(values, what, "real numbers")
    if arr.dtype.kind not in "iuf":
        raise DataError(f"{what} must be an array of real numbers, got {arr.dtype} values")
    return arr.astype(np.float64, copy=False)


def whole_array(values, what: str) -> np.ndarray:
    """``values`` as an int64 array. Bools, integers of any width and floats
    with no fractional part pass, so a fractional value is never truncated
    and a large one never wraps; NaN, infinities, values of 2^63 or more,
    strings, other objects and ragged nesting raise DataError naming
    ``what``."""
    arr = _array(values, what, "whole numbers")
    if arr.dtype.kind not in "biuf":
        raise DataError(f"{what} must be an array of whole numbers, got {arr.dtype} values")
    # the range test also rejects NaN and infinities
    if arr.dtype.kind == "f" and not ((arr == np.trunc(arr)) & (np.abs(arr) < 2.0**63)).all():
        raise DataError(f"{what} must be an array of whole numbers, got a non-integer value")
    if arr.dtype == np.uint64 and (arr >= 2**63).any():
        raise DataError(f"{what} must be an array of whole numbers below 2^63, got a larger value")
    return arr.astype(np.int64, copy=False)
