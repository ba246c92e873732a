"""Exception types, and the package's only rules for numbers and their bounds: ``_finite`` for
overflow, ``_integer`` for whole numbers, ``_real`` for real numbers and ``_reals`` for 1-D arrays of them.

numpy is imported only inside ``_reals`` and in ``_finite`` for an array, so loading a
model or computing its week profile (``params``) never imports it."""

import math
import numbers


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
    """``values`` unchanged; an entry past the float range (traffic too large) raises WeekfitError.

    A Python float is checked without importing numpy."""
    if isinstance(values, float):
        finite = math.isfinite(values)
    else:
        import numpy as np

        finite = np.isfinite(values).all()
    if not finite:
        raise WeekfitError(f"{what} overflows the float range; the traffic values are too large")
    return values


def _integer(value, what: str, lowest: int, highest=math.inf) -> int:
    """``int(value)`` for an int (not a bool) or integral float in [``lowest``, ``highest``], else ValueError."""
    is_number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    # int(value), not value, meets highest: np.float16(6.0) <= 2**63 warns of an overflow
    if not (is_number and lowest <= value < math.inf and value % 1 == 0 and int(value) <= highest):
        bounds = f"in [{lowest}, {highest}]" if highest < math.inf else f">= {lowest}"
        raise ValueError(f"{what} must be an integer {bounds}, got {value!r}")
    return int(value)


def _real(value, what: str, lowest=-math.inf, strict=False, below=math.inf) -> float:
    """``float(value)`` of a finite real >= ``lowest`` (> if ``strict``) and < ``below``, or ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int past the float range counts as infinite
        number = math.inf if value > 0 else -math.inf
    if not (-math.inf < number < below and (number > lowest if strict else number >= lowest)):
        bounds = [f"{'>' if strict else '>='} {lowest}"] if lowest > -math.inf else []
        bounds = bounds + [f"< {below}"] if below < math.inf else ["finite", *bounds]
        raise ValueError(f"{what} must be {' and '.join(bounds)}, got {number!r}")
    return number


def _reals(values, what: str, lowest=0, *, empty=False):
    """A read-only 1-D float64 array of finite numbers >= ``lowest``, empty only if ``empty``, or ValueError."""
    import numpy as np

    kind = np.asarray(values).dtype.kind
    if kind == "O" and isinstance(values, (list, tuple)) and all(
        isinstance(v, numbers.Real) and not isinstance(v, bool) for v in values
    ):  # numpy holds a Python int past the int64 range as an object; one past the float range is refused
        values, kind = [_real(v, what, lowest) for v in values], "f"
    if kind not in "iuf":  # strings, bools and objects
        raise ValueError(f"{what} must hold numbers, got dtype {np.asarray(values).dtype}")
    if isinstance(values, (list, tuple)) and not {bool, np.bool_}.isdisjoint(map(type, values)):
        raise ValueError(f"{what} must hold numbers, got a bool")  # numpy would read it as 0 or 1
    array = np.array(values, dtype=float)
    if array.ndim != 1 or (array.size == 0 and not empty):
        raise ValueError(f"{what} must be a {'' if empty else 'non-empty '}1-D sequence")
    invalid = ~(np.isfinite(array) & (array >= lowest))
    if invalid.any():
        _real(array[invalid][0], what, lowest)  # raises, naming the first invalid entry
    array.setflags(write=False)
    return array
