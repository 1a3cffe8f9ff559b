"""Exception types shared across the package, and the whole-number check
every module applies to counts, sizes and seeds."""

import numpy as np

# complex entries one array built for a query or example may hold (1 GiB)
MAX_ARRAY_ENTRIES = 1 << 26


class InvalidInputError(ValueError):
    """Malformed input: wrong shape, non-finite entries, or bad file contents."""


class InvalidExponentError(InvalidInputError):
    """A Schatten exponent outside [1, inf] (or an unparsable exponent string)."""


class PreconditionError(InvalidInputError):
    """An operation was called on an input that violates its documented precondition."""


class UnsupportedInstanceError(ValueError):
    """The instance is valid but outside the supported size range of the operation."""


def require_count(value, name: str) -> int:
    """``value`` as an int; booleans and fractional numbers are refused."""
    try:
        count = int(value)
        whole = count == value and not isinstance(value, (bool, np.bool_))
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise InvalidInputError(f"{name} must be a whole number, got {value!r}")
    return count


def require_seed(value) -> int:
    """``value`` as a whole number >= 0, the seeds numpy's generators accept."""
    seed = require_count(value, "seed")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    return seed
