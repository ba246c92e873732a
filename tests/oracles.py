"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from the model definition with
plain Python loops and math.exp, sharing no evaluation code with the
package under test.
"""

import csv
import io
import math
from datetime import datetime

import numpy as np

from weekfit import ComponentId, ComponentParams, CsvFormatError, Readings, WeeklyModel, objective


def component_days(comp: ComponentId) -> tuple[int, ...]:
    # re-derived from the naming convention, not from the package taxonomy
    if comp.value.endswith("su"):
        return (7,)
    if comp.value.endswith("sa"):
        return (6,)
    return (1, 2, 3, 4, 5)


def naive_weekly_value(model: WeeklyModel, day: int, hour: float) -> float:
    """Literal 63-term double loop over components, days and week copies.

    Each term is a Gaussian in absolute hours, centred on hour peak_time of
    day n_d in week copy n_w.
    """
    total = 0.0
    for comp in ComponentId:
        params = model[comp]
        for n_d in component_days(comp):
            for n_w in (-1, 0, 1):
                offset = (24.0 * day + hour) - (24.0 * n_d + params.peak_time + 168.0 * n_w)
                total += params.peak_rate * math.exp(
                    -(offset * offset) / (2.0 * params.variance)
                )
    return total


def naive_day_and_hour(hour_counter: int) -> tuple[int, int]:
    """Day (1 = Monday .. 7 = Sunday) and hour of day of an absolute hour counter."""
    return hour_counter % 168 // 24 + 1, hour_counter % 24


def naive_aggregate(timestamps, values) -> tuple[np.ndarray, int]:
    """Hourly sums and week-clock start by the per-row dict-and-``replace`` loop.

    Rows are added in (timestamp, value) order into buckets keyed by the
    timestamp truncated to its hour; gaps are not checked.
    """
    buckets = {}
    for timestamp, value in sorted(zip(timestamps, values)):
        key = timestamp.replace(minute=0, second=0, microsecond=0)
        buckets[key] = buckets.get(key, 0.0) + value
    hours = sorted(buckets)
    first = hours[0]
    start = first.weekday() * 24 + first.hour
    return np.array([buckets[hour] for hour in hours]), start


def naive_init_heuristic(series) -> WeeklyModel:
    """The greedy residual start from 54 profile values: per day category, hours 6 to 23.

    Values are divided by the series maximum first, as ``fit`` divides them.
    A profile value is the count-weighted mean of its (day, hour) slots over
    the category's days.  Three times, the earliest hour of the largest
    residual is picked, with the residual there as its height, and that
    height times exp(-(hour - pick)^2 / 8) is taken off every hour; the
    picks, sorted by hour, are the morning, afternoon and evening components.
    """
    values = series.values.tolist()
    scale = max(values) or 1.0
    slots = {}  # (day, hour) -> [sum, count] of the scaled values
    for i, value in enumerate(values):
        slot = slots.setdefault(naive_day_and_hour(series.start + i), [0.0, 0])
        slot[0] += value / scale
        slot[1] += 1
    components = {}
    for category in ("w", "sa", "su"):
        period_comps = [ComponentId(period + category) for period in "mae"]
        days = component_days(period_comps[0])
        residual = {}
        for hour in range(6, 24):
            total, count = 0.0, 0
            for day in days:
                slot_sum, slot_count = slots[day, hour]
                total += slot_count * (slot_sum / slot_count)
                count += slot_count
            residual[hour] = total / count
        picks = []
        for _ in range(3):
            best = max(range(6, 24), key=lambda h: residual[h])  # first maximum wins
            height = residual[best]
            picks.append((best, height))
            for hour in range(6, 24):
                residual[hour] -= height * math.exp(-((hour - best) ** 2) / 8.0)
        picks.sort(key=lambda pick: pick[0])  # stable: equal hours keep their pick order
        for comp, (best, height) in zip(period_comps, picks):
            components[comp] = ComponentParams(height * scale, float(best), 4.0)
    return WeeklyModel(components)


def naive_objective(model: WeeklyModel, series) -> float:
    total = 0.0
    for i, value in enumerate(series.values.tolist()):
        day, hour = naive_day_and_hour(series.start + i)
        residual = naive_weekly_value(model, day, float(hour)) - value
        total += residual * residual
    return total


def naive_mse(actual, predicted) -> float:
    total = 0.0
    for a, p in zip(actual, predicted):
        total += (a - p) ** 2
    return total / len(actual)


def naive_rmse(actual, predicted) -> float:
    return math.sqrt(naive_mse(actual, predicted))


def naive_mae(actual, predicted) -> float:
    total = 0.0
    for a, p in zip(actual, predicted):
        total += abs(a - p)
    return total / len(actual)


def naive_r2(actual, predicted) -> float:
    mean = sum(actual) / len(actual)
    ss_res = 0.0
    ss_tot = 0.0
    for a, p in zip(actual, predicted):
        ss_res += (a - p) ** 2
        ss_tot += (a - mean) ** 2
    return 1.0 - ss_res / ss_tot


def _with_parameter(model: WeeklyModel, comp: ComponentId, name: str, value: float) -> WeeklyModel:
    updated = {}
    for c in ComponentId:
        params = model[c]
        if c is comp:
            fields = {
                "peak_rate": params.peak_rate,
                "peak_time": params.peak_time,
                "variance": params.variance,
            }
            fields[name] = value
            params = ComponentParams(**fields)
        updated[c] = params
    return WeeklyModel(updated)


def finite_difference_gradient(model: WeeklyModel, data, h: float = 1e-5) -> np.ndarray:
    """Central differences of the objective, coordinate by coordinate.

    The amplitude step is scaled by the data maximum so every coordinate
    is perturbed by ``h`` in normalized units.
    """
    scale = float(np.max(data.values)) or 1.0
    out = np.empty(27)
    names = ("peak_rate", "peak_time", "variance")
    steps = (h * scale, h, h)
    for ci, comp in enumerate(ComponentId):
        for pi, (name, step) in enumerate(zip(names, steps)):
            center = getattr(model[comp], name)
            plus = objective(_with_parameter(model, comp, name, center + step), data)
            minus = objective(_with_parameter(model, comp, name, center - step), data)
            out[3 * ci + pi] = (plus - minus) / (2.0 * step)
    return out


def naive_load_csv(text: str) -> Readings:
    """``load_csv`` on ``text`` by the csv module's row loop alone.

    csv.reader splits the text into rows, as a file opened with
    ``newline=""`` is; each row's cells are parsed and checked in turn, and
    every error names the physical line the reader is on.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(1, "missing header row") from None
        if [cell.strip() for cell in header] != ["timestamp", "value"]:
            raise CsvFormatError(1, f"expected header 'timestamp,value', got {','.join(header)!r}")
        timestamps, values = [], []
        for row in reader:
            if len(row) != 2:
                if not row:
                    continue
                raise CsvFormatError(reader.line_num, f"expected 2 columns, got {len(row)}")
            stamp, text = row
            try:
                timestamps.append(datetime.fromisoformat(stamp.strip()))
            except ValueError:
                raise CsvFormatError(reader.line_num, f"unparseable timestamp {stamp!r}") from None
            try:
                value = float(text)
            except ValueError:
                raise CsvFormatError(reader.line_num, f"unparseable value {text!r}") from None
            if not 0.0 <= value < math.inf:
                raise CsvFormatError(reader.line_num, f"value must be finite and >= 0, got {value!r}")
            values.append(value)
    except csv.Error as exc:
        raise CsvFormatError(reader.line_num, str(exc)) from None
    return Readings(timestamps, values)
