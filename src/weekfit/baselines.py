"""Reference predictors used as comparison points for the fitted model."""

from __future__ import annotations

import enum

import numpy as np

from .model import HOURS_PER_WEEK, TrafficSeries, _require_full_week


class BaselineKind(enum.Enum):
    """Available reference predictors, both per-slot means of training samples.

    ``seasonal_naive`` averages the final training week, so it repeats that
    week; ``weekly_profile_mean`` averages every training sample of a slot.
    """

    SEASONAL_NAIVE = "seasonal_naive"
    WEEKLY_PROFILE_MEAN = "weekly_profile_mean"


def baseline_predict(kind: BaselineKind, train: TrafficSeries, n_hours: int) -> TrafficSeries:
    """Forecast ``n_hours`` starting the hour after the training window ends.

    Both baselines are exactly 168-hour periodic: output hour j is the mean
    of the training samples that lie a whole number of weeks before
    ``train.end + j``.  A partial leading week is accepted.
    """
    if n_hours < 1:
        raise ValueError(f"n_hours must be >= 1, got {n_hours}")
    _require_full_week(train)
    recent = train.values[-HOURS_PER_WEEK:] if kind is BaselineKind.SEASONAL_NAIVE else train.values
    # slot 0 is the hour at train.end
    slots = np.arange(-len(recent), 0) % HOURS_PER_WEEK
    profile = np.bincount(slots, weights=recent) / np.bincount(slots)
    return TrafficSeries(profile[np.arange(n_hours) % HOURS_PER_WEEK], train.end)
