"""Weekly traffic as a superposition of Gaussian activity components.

Hourly demand over a week is modeled by nine bell-shaped components: three
daily periods (morning, afternoon, evening) for each of three day
categories (weekday, Saturday, Sunday).  Weekday components repeat on all
five weekdays.  Each component is a Gaussian in absolute hours, so the
profile is continuous across midnight; mass spilling across week
boundaries is kept by evaluating one wrapped copy of the week on either
side, so the profile is exactly 168-hour periodic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SeriesTooShortError, _finite, _integer, _real, _reals
# the parameters and the week layout are defined in params.py, which needs no
# numpy; every one of them is also importable from here, as weekfit.model.<name>
from .params import (
    _CATEGORY_DAYS, _COMPONENT_LAYOUT, _EXP_FLOOR, _MAX_HOURS, _TERMS, ComponentId, ComponentParams, DayCategory,
    DayPeriod, DAYS_PER_WEEK, HOURS_PER_DAY, HOURS_PER_WEEK, WeekClock, WeeklyModel, sigma_interval, week_clock_at,
)


@dataclass(frozen=True, eq=False)
class TrafficSeries:
    """Gap-free hourly samples addressed by an absolute hour counter.

    ``start`` counts hours from Monday 00:00 of week 0.  Day and hour
    indices derive from position alone, so consecutive samples are exactly
    one hour apart by construction and the series can never contain gaps.
    """

    values: np.ndarray
    start: int = 0

    def __post_init__(self):
        object.__setattr__(self, "values", _reals(self.values, "values"))
        object.__setattr__(self, "start", _integer(self.start, "start", 0))

    def __len__(self) -> int:
        return self.values.size

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrafficSeries):
            return NotImplemented
        return self.start == other.start and np.array_equal(self.values, other.values)

    @property
    def end(self) -> int:
        """Absolute hour one past the last sample."""
        return self.start + len(self)

    def window(self, i: int, j: int) -> "TrafficSeries":
        """Sub-series covering samples [i, j)."""
        i, j = _integer(i, "i", 0), _integer(j, "j", 0)
        if not i < j <= len(self):
            raise ValueError(f"invalid window [{i}, {j}) for series of length {len(self)}")
        return TrafficSeries(self.values[i:j], self.start + i)


def _require_full_week(data: TrafficSeries) -> None:
    if len(data) < HOURS_PER_WEEK:
        raise SeriesTooShortError(f"need at least one full week (168 samples), got {len(data)}")


def _week_slots(start: int, n_hours: int) -> np.ndarray:
    """Week slot (0 = Monday 00:00 .. 167) of ``n_hours`` hours from absolute hour ``start``."""
    try:
        hours = np.arange(n_hours)
        if hours.size != n_hours:  # np.arange(n) can be empty near 2**63 (numpy 2.4: n >= 2**63 - 512)
            raise ValueError
    except ValueError:  # also numpy's refusal of n * 8 bytes past the address space ("array is too big")
        raise MemoryError(f"{n_hours} hours are too many to hold in memory") from None
    return (start % HOURS_PER_WEEK + hours) % HOURS_PER_WEEK


@np.errstate(over="ignore")  # a W past the float range is inf: baselines never read it, fit refuses its J
def _slot_statistics(values: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Counts n_s, means y_s (0 for an empty slot) and W = sum (y - y_slot)^2 of the 168 week slots."""
    slots = _week_slots(start, values.size)
    counts = np.bincount(slots, minlength=HOURS_PER_WEEK).astype(float)
    sums = _finite(np.bincount(slots, weights=values, minlength=HOURS_PER_WEEK), "a slot sum")
    means = sums / np.maximum(counts, 1.0)
    spread = values - means[slots]
    return counts, means, float(spread @ spread)


def _repeat_week(profile: np.ndarray, start: int, n_hours: int) -> TrafficSeries:
    """The 168-slot ``profile`` repeated over ``n_hours`` hours from absolute hour ``start``."""
    return TrafficSeries(profile[_week_slots(start, _integer(n_hours, "n_hours", 1, _MAX_HOURS))], start)


# params._TERMS, the 63 terms' layout, as a component index and a shift per term
_TERM_COMPONENT = np.array([index for index, _ in _TERMS], dtype=np.intp)
_TERM_SHIFT = np.array([shift for _, shift in _TERMS])


def _model_arrays(model: WeeklyModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Peak rates, peak times and variances in canonical component order."""
    rates = np.array([model[c].peak_rate for c in ComponentId])
    times = np.array([model[c].peak_time for c in ComponentId])
    variances = np.array([model[c].variance for c in ComponentId])
    return rates, times, variances


def _model_from_arrays(rates, times, variances) -> WeeklyModel:
    """Inverse of ``_model_arrays``."""
    return WeeklyModel(dict(zip(ComponentId, map(ComponentParams, rates, times, variances))))


def _gaussian_terms(
    rates: np.ndarray, times: np.ndarray, variances: np.ndarray, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-term offsets and Gaussian factors, and the model value per row.

    ``grid`` holds ``(24*day + hour) - _TERM_SHIFT`` per row and term, shape
    (168, 63) for the week slots (``_SLOT_GRID``) or (1, 63) for one clock;
    offsets and factors have the grid's shape, the values one entry per row.
    """
    offsets = grid - times[_TERM_COMPONENT]
    # -(u*u)/(2 var) computed in place as (u*u)/(-2 var): the same bits
    factors = np.multiply(offsets, offsets)
    np.divide(factors, -2.0 * variances[_TERM_COMPONENT], out=factors)
    np.maximum(factors, _EXP_FLOOR, out=factors)
    np.exp(factors, out=factors)
    return offsets, factors, factors @ rates[_TERM_COMPONENT]


# ``24*day + hour`` of the 168 week slots (the slot plus 24) and their term
# grid: hourly series only ever sample these slots.
_SLOT_BASE = np.arange(float(HOURS_PER_WEEK)) + HOURS_PER_DAY
_SLOT_GRID = _SLOT_BASE[:, None] - _TERM_SHIFT[None, :]


@np.errstate(over="ignore")  # _finite refuses a rate that overflows
def _values_at(model: WeeklyModel, grid: np.ndarray) -> np.ndarray:
    """Model values at each row of a term ``grid``, e.g. ``_SLOT_GRID``."""
    return _finite(_gaussian_terms(*_model_arrays(model), grid)[2], "a modeled rate")


def weekly_value(model: WeeklyModel, clock: WeekClock) -> float:
    """Modeled traffic rate at one position in the week (sum of all 63 terms)."""
    grid = (clock.hour + HOURS_PER_DAY * clock.day) - _TERM_SHIFT[None, :]
    return float(_values_at(model, grid)[0])


def predict_series(
    model: WeeklyModel,
    n_hours: int,
    start_week: int = 0,
    start_clock: WeekClock = WeekClock(1, 0.0),
) -> TrafficSeries:
    """Hourly predictions over a horizon, rolling day and week indices.

    The start must fall on an exact hour; the output repeats with a
    168-hour period because the model depends on time only through the
    week clock.
    """
    hour = _integer(start_clock.hour, "start_clock.hour", 0)
    first = (_integer(start_week, "start_week", 0) * DAYS_PER_WEEK + start_clock.day - 1) * HOURS_PER_DAY
    return _repeat_week(_values_at(model, _SLOT_GRID), first + hour, n_hours)


@np.errstate(over="ignore")  # _finite refuses a noisy rate that overflows
def generate_synthetic(
    model: WeeklyModel, n_weeks: int, noise_std: float, seed: int
) -> TrafficSeries:
    """Model predictions plus i.i.d. Gaussian noise, clamped at zero.

    Deterministic for a fixed seed; with noise_std = 0 the output equals
    ``predict_series`` over the same horizon exactly.
    """
    noise_std = abs(_real(noise_std, "noise_std", 0))  # numpy refuses a scale of -0.0
    clean = predict_series(model, _integer(n_weeks, "n_weeks", 1, _MAX_HOURS // HOURS_PER_WEEK) * HOURS_PER_WEEK)
    noise = np.random.default_rng(_integer(seed, "seed", 0)).normal(0.0, noise_std, len(clean))
    return TrafficSeries(np.maximum(_finite(clean.values + noise, "a noisy rate"), 0.0), clean.start)
