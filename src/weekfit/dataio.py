"""Ingestion, train/test splitting, and persistence of series and models."""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from importlib import resources
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    CsvFormatError,
    GapError,
    ModelFormatError,
    SeriesTooShortError,
    WeekfitError,
)
from .model import (
    ComponentId,
    ComponentParams,
    HOURS_PER_DAY,
    HOURS_PER_WEEK,
    TrafficSeries,
    WeeklyModel,
)

_WEEK_START_DAYS = {
    "monday": 0,
    "tuesday": 1,
    "wednesday": 2,
    "thursday": 3,
    "friday": 4,
    "saturday": 5,
    "sunday": 6,
}

_PARAM_FIELDS = ("peak_rate", "peak_time", "variance")

# Synthetic exports anchor absolute hour 0 here; it is a Monday, matching
# the default week alignment.
SYNTH_EPOCH = datetime(2024, 1, 1)


@dataclass(frozen=True)
class RawRecord:
    """One raw measurement: an instant and the non-negative count/rate at it."""

    timestamp: datetime
    value: float

    def __post_init__(self):
        value = float(self.value)
        if not math.isfinite(value) or value < 0.0:
            raise ValueError(f"value must be finite and >= 0, got {self.value!r}")
        object.__setattr__(self, "value", value)


@dataclass(frozen=True)
class SplitSpec:
    """Train/test split rule: training weeks and the week-start alignment day."""

    train_weeks: int = 2
    week_start: str = "monday"

    def __post_init__(self):
        if self.train_weeks < 1:
            raise ValueError(f"train_weeks must be >= 1, got {self.train_weeks}")
        if self.week_start not in _WEEK_START_DAYS:
            raise ValueError(f"unknown week_start {self.week_start!r}")


def load_csv(source) -> list[RawRecord]:
    """Parse a ``timestamp,value`` CSV (ISO-8601 timestamps) into records.

    Accepts a path or an open text stream.  Failures name the 1-based line
    number of the offending row.
    """
    if hasattr(source, "read"):
        return _parse_csv(source)
    with open(source, newline="") as handle:
        return _parse_csv(handle)


def _parse_csv(handle) -> list[RawRecord]:
    reader = csv.reader(handle)
    try:
        return _parse_rows(reader)
    except csv.Error as exc:  # e.g. a cell over the csv module's field size limit
        raise CsvFormatError(reader.line_num, str(exc)) from None


def _parse_rows(reader) -> list[RawRecord]:
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError(1, "missing header row") from None
    if [cell.strip() for cell in header] != ["timestamp", "value"]:
        raise CsvFormatError(1, f"expected header 'timestamp,value', got {','.join(header)!r}")
    records = []
    for row in reader:
        if not row:
            continue
        line = reader.line_num  # physical line: quoted cells may span lines
        if len(row) != 2:
            raise CsvFormatError(line, f"expected 2 columns, got {len(row)}")
        try:
            timestamp = datetime.fromisoformat(row[0].strip())
        except ValueError:
            raise CsvFormatError(line, f"unparseable timestamp {row[0]!r}") from None
        try:
            value = float(row[1])
        except ValueError:
            raise CsvFormatError(line, f"unparseable value {row[1]!r}") from None
        try:
            records.append(RawRecord(timestamp, value))
        except ValueError as exc:
            raise CsvFormatError(line, str(exc)) from None
    return records


def aggregate_hourly(records: list[RawRecord], spec: SplitSpec | None = None) -> TrafficSeries:
    """Sum records into [h, h+1) hour buckets and assign week clocks.

    Order-insensitive and mass-conserving.  Any empty bucket between the
    first and last hour is a hard error naming the missing hour; nothing
    is imputed.
    """
    if spec is None:
        spec = SplitSpec()
    if not records:
        raise WeekfitError("no records to aggregate")
    try:
        # canonical accumulation order makes the result independent of the
        # input ordering down to the last bit
        ordered = sorted(records, key=lambda r: (r.timestamp, r.value))
    except TypeError:
        raise WeekfitError("timestamps mix naive and timezone-aware datetimes") from None
    buckets: dict[datetime, float] = {}
    for record in ordered:
        key = record.timestamp.replace(minute=0, second=0, microsecond=0)
        buckets[key] = buckets.get(key, 0.0) + record.value
    hours = sorted(buckets)
    one_hour = timedelta(hours=1)
    for previous, current in zip(hours, hours[1:]):
        expected = previous + one_hour
        if current != expected:
            raise GapError(f"missing hour {expected.isoformat()}")
    anchor = _WEEK_START_DAYS[spec.week_start]
    first = hours[0]
    start = ((first.weekday() - anchor) % 7) * HOURS_PER_DAY + first.hour
    return TrafficSeries(np.array([buckets[h] for h in hours]), start)


def training_window(series: TrafficSeries, spec: SplitSpec | None = None) -> TrafficSeries:
    """The first ``train_weeks`` whole weeks; a shorter series raises SeriesTooShortError."""
    if spec is None:
        spec = SplitSpec()
    n_train = spec.train_weeks * HOURS_PER_WEEK
    if len(series) < n_train:
        raise SeriesTooShortError(
            f"need {n_train} samples for {spec.train_weeks} training weeks, got {len(series)}"
        )
    return series.window(0, n_train)


def split(series: TrafficSeries, spec: SplitSpec | None = None) -> tuple[TrafficSeries, TrafficSeries]:
    """``training_window`` as train, the remainder (at least one sample) as test."""
    train = training_window(series, spec)
    if len(series) == len(train):
        raise SeriesTooShortError(
            f"no samples left to test on after {len(train)} training samples"
        )
    return train, series.window(len(train), len(series))


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
        values = {}
        for name in _PARAM_FIELDS:
            if name not in entry:
                raise ModelFormatError(f"component {comp.value!r} is missing {name!r}")
            value = entry[name]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ModelFormatError(f"{comp.value}.{name} must be a number")
            try:
                values[name] = float(value)
            except OverflowError:  # an integer beyond the float range
                values[name] = math.inf
            if not math.isfinite(values[name]):
                raise ModelFormatError(f"{comp.value}.{name} must be finite")
        try:
            components[comp] = ComponentParams(**values)
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


def _write_csv(path, header: list[str], rows: Iterable) -> None:
    """Write a header row and then ``rows``, with the csv module's CRLF line ends."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_series_csv(series: TrafficSeries, path) -> None:
    """Write a series as ``week,day_k,hour,value`` rows."""
    columns = (series.week_indices(), series.day_indices(), series.hour_indices())
    rows = zip(*(c.tolist() for c in columns), map(repr, series.values.tolist()))
    _write_csv(path, ["week", "day_k", "hour", "value"], rows)


def write_timestamp_csv(series: TrafficSeries, path) -> None:
    """Write a series in the ingestion format (``timestamp,value``).

    Hour counter 0 maps to ``SYNTH_EPOCH``, a Monday, so round-trips with
    the default week start preserve the week clock.
    """
    stamps = (SYNTH_EPOCH + timedelta(hours=hour) for hour in series.hour_counters().tolist())
    rows = zip(map(datetime.isoformat, stamps), map(repr, series.values.tolist()))
    _write_csv(path, ["timestamp", "value"], rows)


def write_trace_csv(trace: Sequence[float], path) -> None:
    """Write the objective trajectory as a two-column CSV (iteration, J)."""
    _write_csv(path, ["iteration", "J"], ((i, repr(float(value))) for i, value in enumerate(trace)))
