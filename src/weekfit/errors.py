"""Exception types, and the package's overflow rule ``_finite`` and integer rule ``_integer``."""

import numbers

import numpy as np


class WeekfitError(Exception):
    """Base class for input and domain errors raised by this package."""


class CsvFormatError(WeekfitError):
    """A CSV row failed to parse; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class GapError(WeekfitError):
    """Hourly coverage has a hole; the message names the first missing hour."""


class SeriesTooShortError(WeekfitError):
    """A series does not cover the required number of samples."""


class ModelFormatError(WeekfitError):
    """A model parameter file is malformed or violates an invariant."""


class ConstantActualError(WeekfitError):
    """R2 is undefined because the actual values have zero variance."""


def _finite(values, what: str):
    """``values`` unchanged; an entry past the float range (traffic too large) raises WeekfitError."""
    if not np.isfinite(values).all():
        raise WeekfitError(f"{what} overflows the float range; the traffic values are too large")
    return values


def _integer(value, what: str, lowest: int) -> int:
    """``int(value)`` for an int or integral float >= ``lowest``; anything else raises ValueError."""
    if not (isinstance(value, numbers.Real) and lowest <= value < np.inf and value % 1 == 0):
        raise ValueError(f"{what} must be an integer >= {lowest}, got {value!r}")
    return int(value)
