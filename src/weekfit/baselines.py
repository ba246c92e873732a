"""Reference predictors used as comparison points for the fitted model."""

from __future__ import annotations

import enum

from .model import TrafficSeries, _repeat_week, _require_full_week, _slot_sums
from .params import HOURS_PER_WEEK


class BaselineKind(enum.Enum):
    """Available reference predictors, both per-slot means of training samples.

    ``seasonal_naive`` averages the final training week, so it repeats that
    week; ``weekly_profile_mean`` averages every training sample of a slot.
    """

    SEASONAL_NAIVE = "seasonal_naive"
    WEEKLY_PROFILE_MEAN = "weekly_profile_mean"


def baseline_predict(kind: BaselineKind | str, train: TrafficSeries, n_hours: int) -> TrafficSeries:
    """Forecast ``n_hours`` starting the hour after the training window ends.

    Both baselines are exactly 168-hour periodic: output hour j is the mean
    of the training samples that lie a whole number of weeks before
    ``train.end + j``.  A partial leading week is accepted.
    """
    kind = BaselineKind(kind)
    _require_full_week(train)
    if kind is BaselineKind.SEASONAL_NAIVE:
        train = train.window(len(train) - HOURS_PER_WEEK, len(train))
    counts, sums = _slot_sums(train.values, train.start)
    return _repeat_week(sums / counts, train.end, n_hours)
