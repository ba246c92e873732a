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

import enum
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import SeriesTooShortError, _finite, _integer, _real, _reals

HOURS_PER_DAY = 24
DAYS_PER_WEEK = 7
HOURS_PER_WEEK = HOURS_PER_DAY * DAYS_PER_WEEK
_MAX_HOURS = 2**63 - HOURS_PER_WEEK  # the longest horizon whose offsets _week_slots counts in int64


class DayCategory(enum.Enum):
    """Day-of-week class sharing one set of component parameters."""

    WEEKDAY = "weekday"
    SATURDAY = "saturday"
    SUNDAY = "sunday"

    @property
    def day_numbers(self) -> tuple[int, ...]:
        """Day indices covered by this category (Monday = 1 .. Sunday = 7)."""
        return _CATEGORY_DAYS[self]


_CATEGORY_DAYS = {
    DayCategory.WEEKDAY: (1, 2, 3, 4, 5),
    DayCategory.SATURDAY: (6,),
    DayCategory.SUNDAY: (7,),
}


class DayPeriod(enum.Enum):
    """Daily activity period a component belongs to."""

    MORNING = "morning"
    AFTERNOON = "afternoon"
    EVENING = "evening"


class ComponentId(enum.Enum):
    """The nine traffic components, one per (day category, period) pair.

    Iteration order is the canonical parameter order used everywhere:
    weekday components first, then Saturday, then Sunday, each in
    morning/afternoon/evening order.
    """

    MW = "mw"
    AW = "aw"
    EW = "ew"
    MSA = "msa"
    ASA = "asa"
    ESA = "esa"
    MSU = "msu"
    ASU = "asu"
    ESU = "esu"

    @property
    def category(self) -> DayCategory:
        return _COMPONENT_LAYOUT[self][0]

    @property
    def period(self) -> DayPeriod:
        return _COMPONENT_LAYOUT[self][1]


# (category, period) of each component, following the canonical order above.
_COMPONENT_LAYOUT = dict(zip(ComponentId, itertools.product(DayCategory, DayPeriod)))


@dataclass(frozen=True)
class ComponentParams:
    """Shape of one traffic component.

    peak_rate is the component maximum in messages/hour, peak_time the
    hour of day at which it occurs, and variance (hours^2) controls how
    widely users spread their activity around that preference.
    """

    peak_rate: float
    peak_time: float
    variance: float

    def __post_init__(self):
        object.__setattr__(self, "peak_rate", _real(self.peak_rate, "peak_rate", 0))
        object.__setattr__(self, "peak_time", _real(self.peak_time, "peak_time", 0, below=HOURS_PER_DAY))
        object.__setattr__(self, "variance", _real(self.variance, "variance", 0, strict=True))


@dataclass(frozen=True)
class WeeklyModel:
    """Complete parameter set: one ComponentParams per ComponentId."""

    components: Mapping[ComponentId, ComponentParams]

    def __post_init__(self):
        unknown = [key for key in self.components if not isinstance(key, ComponentId)]
        if unknown:
            raise ValueError(f"unknown component keys: {unknown!r}")
        missing = [c.value for c in ComponentId if c not in self.components]
        if missing:
            raise ValueError(f"missing components: {', '.join(missing)}")
        ordered = {c: self.components[c] for c in ComponentId}
        object.__setattr__(self, "components", MappingProxyType(ordered))

    def __getitem__(self, component: ComponentId) -> ComponentParams:
        return self.components[component]

    def __hash__(self):  # MappingProxyType itself is unhashable
        return hash(tuple(self.components[c] for c in ComponentId))


@dataclass(frozen=True)
class WeekClock:
    """Position within a week: day index (1 = Monday .. 7 = Sunday) and hour of day."""

    day: int
    hour: float

    def __post_init__(self):
        object.__setattr__(self, "day", _integer(self.day, "day", 1, DAYS_PER_WEEK))
        object.__setattr__(self, "hour", _real(self.hour, "hour", 0, below=HOURS_PER_DAY))


def week_clock_at(hour_index: int) -> tuple[int, WeekClock]:
    """Week number and clock of a non-negative integer hour counter (0 = Monday 00:00 of week 0)."""
    week, in_week = divmod(_integer(hour_index, "hour_index", 0), HOURS_PER_WEEK)
    day, hour = divmod(in_week, HOURS_PER_DAY)
    return week, WeekClock(day + 1, hour)


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
        values = _reals(self.values, "values")
        if values.ndim != 1 or values.size == 0:
            raise ValueError("values must be a non-empty 1-D sequence")
        object.__setattr__(self, "values", values)
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
    return (start % HOURS_PER_WEEK + np.arange(n_hours)) % HOURS_PER_WEEK


def _slot_sums(values: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Sample count and sum of the 168 week slots for ``values`` from absolute hour ``start``."""
    slots = _week_slots(start, values.size)
    sums = _finite(np.bincount(slots, weights=values, minlength=HOURS_PER_WEEK), "a slot sum")
    return np.bincount(slots, minlength=HOURS_PER_WEEK).astype(float), sums


def _repeat_week(profile: np.ndarray, start: int, n_hours: int) -> TrafficSeries:
    """The 168-slot ``profile`` repeated over ``n_hours`` hours from absolute hour ``start``."""
    return TrafficSeries(profile[_week_slots(start, _integer(n_hours, "n_hours", 1, _MAX_HOURS))], start)


# One Gaussian term is evaluated per (component, covered day, week copy).
# Weekday components cover days 1-5, Saturday/Sunday components one day
# each, and every copy is repeated at -1/0/+1 weeks: 63 terms in total,
# laid out in canonical component order with day then week ascending so
# summation order is fixed.  A term's shift is 24*n_d + 168*n_w, and its
# offset in absolute hours is (24*day + hour) - shift - peak_time.
def _term_geometry() -> tuple[np.ndarray, np.ndarray]:
    component, shift = [], []
    for index, comp in enumerate(ComponentId):
        for day in comp.category.day_numbers:
            for week in (-1, 0, 1):
                component.append(index)
                shift.append(float(HOURS_PER_DAY * day + HOURS_PER_WEEK * week))
    return np.asarray(component, dtype=np.intp), np.asarray(shift)


_TERM_COMPONENT, _TERM_SHIFT = _term_geometry()

# Exponents below this put exp() on a scalar slow path (results heading
# into the subnormal range) at ~10x the cost; clamping far-tail terms here
# changes only values below 1e-304.
_EXP_FLOOR = -700.0


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
    if start_clock.hour != int(start_clock.hour):
        raise ValueError(f"start hour must be integral, got {start_clock.hour!r}")
    first = (_integer(start_week, "start_week", 0) * DAYS_PER_WEEK + start_clock.day - 1) * HOURS_PER_DAY
    return _repeat_week(_values_at(model, _SLOT_GRID), first + int(start_clock.hour), n_hours)


def sigma_interval(params: ComponentParams) -> tuple[float, float]:
    """(peak_time - sigma, peak_time + sigma): the ~68% activity window.

    Endpoints may fall outside [0, 24); callers render those as previous-
    or next-day times.
    """
    sigma = math.sqrt(params.variance)
    return params.peak_time - sigma, params.peak_time + sigma


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
