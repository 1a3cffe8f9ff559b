"""Exception types shared across the package, and the one rule every module
applies to counts, sizes and seeds: a whole number, at least a stated
minimum, and no array over ``MAX_ARRAY_ENTRIES``; a count spelled in decimal
digits is refused by its length once it has more digits than that limit."""

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


def require_count(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int; booleans, fractional numbers and, when given,
    values below ``minimum`` are refused."""
    try:
        count = int(value)
        whole = count == value and not isinstance(value, (bool, np.bool_))
    except (TypeError, ValueError, OverflowError):
        whole = False
    if not whole:
        raise InvalidInputError(f"{name} must be a whole number, got {value!r}")
    if minimum is not None and count < minimum:
        raise InvalidInputError(f"{name} must be >= {minimum}, got {count}")
    return count


def require_entries(entries: int, what: str) -> None:
    """Refuse ``what`` when it needs arrays of more than ``MAX_ARRAY_ENTRIES``
    entries; called before anything is allocated."""
    if entries > MAX_ARRAY_ENTRIES:
        raise UnsupportedInstanceError(
            f"{what} needs {entries} entries, over the limit of {MAX_ARRAY_ENTRIES}"
        )


def require_digits(digits: str, name: str) -> int:
    """The count spelled by the decimal ``digits``.  A count with more
    significant digits than ``MAX_ARRAY_ENTRIES`` exceeds that limit, so it
    is refused by its length, before ``int`` (which refuses more than 4300
    digits) reads it or a message spells it out."""
    significant = digits.lstrip("0") or "0"
    if len(significant) > len(str(MAX_ARRAY_ENTRIES)):
        raise UnsupportedInstanceError(
            f"{name} of {len(significant)} digits is over the limit of {MAX_ARRAY_ENTRIES}"
        )
    return int(significant)
