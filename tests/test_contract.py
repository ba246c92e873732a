"""The library's contract for numbers.

Every public numeric argument, given any value, gives a result or raises a
ValueError or WeekfitError whose message names that argument, and emits no
warning.  A WeekfitError may instead name a result that overflows the float
range (``errors._finite``): that error is about the traffic, not about one
argument.  A string, a bool or None, alone or anywhere in a list, is never
taken for a number.
"""

import json
import math
import re
import tempfile
import warnings
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weekfit import (
    ComponentParams,
    EvalReport,
    FitConfig,
    FitReport,
    Readings,
    SplitSpec,
    TrafficSeries,
    WeekClock,
    WeekfitError,
    baseline_predict,
    bundled_model,
    fit,
    generate_synthetic,
    load_model,
    mse,
    predict_series,
    week_clock_at,
)

_MODEL = bundled_model("guangzhou")
_WEEK = predict_series(_MODEL, 168).values
_STAMPS = [datetime(2024, 1, 1) + timedelta(hours=k) for k in range(2)]

# Valid numbers of every kind, the edges of the float range, ints past it,
# numpy scalars and non-numbers.
_EDGES = [
    0, 1, 3, 12.5, 0.5, -1, -0.0, 24, 2**63, 2**64 + 1, 10**20, 10**400, -10**400,
    math.nan, math.inf, -math.inf, 1e308, -1e308, 5e-324,
    np.float32(0.25), np.float32(3.4e38), np.float32(np.nan), np.float64(2.0),
    np.int64(2), np.uint64(2**64 - 1), np.int8(-3), np.float16(6.0),
    "1", "", "nan", None, True, False, np.True_,
]
_SCALARS = st.one_of(
    st.sampled_from(_EDGES),
    st.floats(-30.0, 200.0),
    st.integers(-3, 400),
    st.floats(-30.0, 200.0, width=32).map(np.float32),
)
_VALUES = st.one_of(_SCALARS, st.lists(_SCALARS, min_size=1, max_size=3))


def _model_with_peak_rate(value):
    payload = {
        c.value: {"peak_rate": p.peak_rate, "peak_time": p.peak_time, "variance": p.variance}
        for c, p in _MODEL.components.items()
    }
    payload["mw"]["peak_rate"] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "model.json")
        path.write_text(json.dumps(payload, default=np.generic.item))  # JSON has no numpy scalars
        return load_model(path)


def _fit_and_baseline(start):
    series = TrafficSeries(_WEEK, start)
    return fit(series, FitConfig(max_iterations=2)), baseline_predict("seasonal_naive", series, 3)


def _same_length(value):
    return np.ones(np.shape(value) or 1)  # a scalar's partner is 1-D, so only the argument under test is bad


# (names one of which the message must hold, call): a size past the int64
# range, such as 2**63 or 10**400, is refused by name
_CALLS = [
    (("peak_rate",), lambda v: ComponentParams(v, 12.0, 1.0)),
    (("peak_time",), lambda v: ComponentParams(1.0, v, 1.0)),
    (("variance",), lambda v: ComponentParams(1.0, 12.0, v)),
    (("peak_rate",), _model_with_peak_rate),
    (("day",), lambda v: WeekClock(v, 0.0)),
    (("hour",), lambda v: WeekClock(1, v)),
    (("hour_index",), week_clock_at),
    (("values",), TrafficSeries),
    (("start",), _fit_and_baseline),
    (("i", "window"), lambda v: TrafficSeries(_WEEK).window(v, 3)),
    (("j", "window"), lambda v: TrafficSeries(_WEEK).window(0, v)),
    (("value",), lambda v: Readings(_STAMPS, v)),
    (("train_weeks",), SplitSpec),
    (("max_iterations",), lambda v: FitConfig(max_iterations=v)),
    (("relative_tolerance",), lambda v: FitConfig(relative_tolerance=v)),
    (("objective_trace",), lambda v: FitReport(_MODEL, v, "tolerance")),
    (("n_hours",), lambda v: predict_series(_MODEL, v)),
    (("n_hours",), lambda v: baseline_predict("weekly_profile_mean", TrafficSeries(_WEEK), v)),
    (("start_week",), lambda v: predict_series(_MODEL, 3, start_week=v)),
    (("noise_std",), lambda v: generate_synthetic(_MODEL, 1, v, 0)),
    (("n_weeks",), lambda v: generate_synthetic(_MODEL, v, 0.0, 0)),
    (("seed",), lambda v: generate_synthetic(_MODEL, 1, 1.0, v)),
    (("actual",), lambda v: mse(v, _same_length(v))),
    (("predicted",), lambda v: mse(_same_length(v), v)),
    (("mse",), lambda v: EvalReport(v, 2.0, 1.0, 0.5, 10)),
    (("rmse",), lambda v: EvalReport(4.0, v, 1.0, 0.5, 10)),
    (("mae",), lambda v: EvalReport(4.0, 2.0, v, 0.5, 10)),
    (("r2",), lambda v: EvalReport(4.0, 2.0, 1.0, v, 10)),
    (("n_samples",), lambda v: EvalReport(4.0, 2.0, 1.0, 0.5, v)),
]


def _with_every_edge(test):
    """Try each edge alone, in a list alone and after a valid entry, before the drawn values."""
    for edge in _EDGES:
        for value in (edge, [edge], [1.0, edge]):
            test = example(value=value)(test)
    return test


@settings(max_examples=100, deadline=None, derandomize=True)
@given(value=_VALUES)
@_with_every_edge
def test_numeric_arguments_give_a_result_or_name_themselves(value):
    entries = value if isinstance(value, list) else [value]
    non_number = any(v is None or isinstance(v, (str, bool, np.bool_)) for v in entries)
    for names, call in _CALLS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                call(value)
            except (ValueError, WeekfitError) as exc:
                message = str(exc)
                named = any(re.search(rf"\b{name}\b", message) for name in names)
                overflow = isinstance(exc, WeekfitError) and "overflows the float range" in message
                assert named or overflow, f"{names[0]}={value!r}: {message}"
            else:
                assert not non_number, f"{names[0]}={value!r} was accepted"


# (name, call) for each array argument a plain list reaches
_ARRAYS = [
    ("values", TrafficSeries),
    ("value", lambda v: Readings(_STAMPS, v)),
    ("actual", lambda v: mse(v, [1.0, 1.0])),
    ("objective_trace", lambda v: FitReport(_MODEL, v, "tolerance")),
]


@pytest.mark.parametrize("name, call", _ARRAYS, ids=[name for name, _ in _ARRAYS])
def test_a_list_of_reals_is_taken_whatever_the_size_of_its_ints(name, call):
    # numpy holds an int past 2**64 as an object, not a number
    for values in ([10**20, 1.0], (10**20, 1.0), [10**20, np.float32(1.0)]):
        call(values)
    assert TrafficSeries([10**20, 1.0]).values.tolist() == [1e20, 1.0]
    for values in ([10**400, 1.0], [1.0, 10**400]):  # past the float range: refused by name
        with pytest.raises(ValueError, match=rf"^{name} must be finite"):
            call(values)
    for other in ("1", True, np.True_, None):
        with pytest.raises(ValueError, match=rf"^{name} must hold numbers"):
            call([10**20, other])


_EVERY_ARRAY = [*_ARRAYS, ("predicted", lambda v: mse([1.0, 1.0], v))]


@pytest.mark.parametrize("name, call", _EVERY_ARRAY, ids=[name for name, _ in _EVERY_ARRAY])
def test_an_array_argument_must_be_one_dimension_and_only_readings_may_be_empty(name, call):
    for values in (5.0, [[1.0, 2.0]], *([] if name == "value" else [[]])):
        with pytest.raises(ValueError, match=rf"^{name} must be a "):
            call(values)
    assert Readings([], []).values.shape == (0,)
