"""The model's 27 parameters (a peak rate, peak time and variance per component), the week they
are laid out on, and the model JSON file.  None of it needs array maths, so this module never
imports numpy: a process that only loads, saves or inspects a model starts without it."""

from __future__ import annotations

import enum
import itertools
import json
import math
from dataclasses import dataclass
from importlib import resources
from types import MappingProxyType
from typing import Mapping

from .errors import ModelFormatError, WeekfitError, _integer, _real

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


def sigma_interval(params: ComponentParams) -> tuple[float, float]:
    """(peak_time - sigma, peak_time + sigma): the ~68% activity window.

    Endpoints may fall outside [0, 24); callers render those as previous-
    or next-day times.
    """
    sigma = math.sqrt(params.variance)
    return params.peak_time - sigma, params.peak_time + sigma


_PARAM_FIELDS = ("peak_rate", "peak_time", "variance")


def save_model(model: WeeklyModel, path) -> None:
    """Write the nine-component parameter set as JSON.

    Floats serialize via ``repr`` (shortest round-trip form), so
    ``load_model(save_model(m)) == m`` exactly.
    """
    payload = {
        comp.value: {name: getattr(model[comp], name) for name in _PARAM_FIELDS}
        for comp in ComponentId
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def load_model(path) -> WeeklyModel:
    """Read a model parameter JSON file, rejecting unknown or missing keys."""
    with open(path) as handle:
        try:
            payload = json.load(handle)
        except (ValueError, RecursionError) as exc:  # RecursionError: deep nesting
            raise ModelFormatError(f"invalid JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ModelFormatError("model file must contain a JSON object")
    known = {comp.value for comp in ComponentId}
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ModelFormatError(f"unknown component keys: {', '.join(unknown)}")
    components = {}
    for comp in ComponentId:
        if comp.value not in payload:
            raise ModelFormatError(f"missing component {comp.value!r}")
        entry = payload[comp.value]
        if not isinstance(entry, dict):
            raise ModelFormatError(f"component {comp.value!r} must be an object")
        extra = sorted(set(entry) - set(_PARAM_FIELDS))
        if extra:
            raise ModelFormatError(
                f"component {comp.value!r} has unknown keys: {', '.join(extra)}"
            )
        for name in _PARAM_FIELDS:
            if name not in entry:
                raise ModelFormatError(f"component {comp.value!r} is missing {name!r}")
        try:  # ComponentParams is the one check of a value
            components[comp] = ComponentParams(**entry)
        except ValueError as exc:
            raise ModelFormatError(f"component {comp.value!r}: {exc}") from None
    return WeeklyModel(components)


def bundled_model(name: str) -> WeeklyModel:
    """Load one of the reference parameter sets shipped with the package.

    Available names: ``guangzhou`` and ``milan`` (fitted to SMS traffic
    from those cities).
    """
    fixture = resources.files("weekfit") / "fixtures" / f"{name}.json"
    if not fixture.is_file():
        raise WeekfitError(f"no bundled model named {name!r}")
    with resources.as_file(fixture) as path:
        return load_model(path)
