"""Reference predictors used as comparison points for the fitted model."""

from __future__ import annotations

import enum

import numpy as np

from .errors import WeekfitError
from .model import HOURS_PER_WEEK, TrafficSeries, _require_full_week


class BaselineKind(enum.Enum):
    """Available reference predictors.

    ``seasonal_naive`` repeats the final training week; ``weekly_profile_mean``
    emits the per-slot mean over all training weeks.
    """

    SEASONAL_NAIVE = "seasonal_naive"
    WEEKLY_PROFILE_MEAN = "weekly_profile_mean"


def baseline_predict(kind: BaselineKind, train: TrafficSeries, n_hours: int) -> TrafficSeries:
    """Forecast ``n_hours`` starting the hour after the training window ends.

    Both baselines are exactly 168-hour periodic.  The profile mean needs
    the training window to be a whole number of weeks.
    """
    if n_hours < 1:
        raise ValueError(f"n_hours must be >= 1, got {n_hours}")
    _require_full_week(train)
    if kind is BaselineKind.SEASONAL_NAIVE:
        profile = train.values[-HOURS_PER_WEEK:]
    elif kind is BaselineKind.WEEKLY_PROFILE_MEAN:
        if len(train) % HOURS_PER_WEEK != 0:
            raise WeekfitError(
                "weekly_profile_mean needs whole training weeks, "
                f"got {len(train)} samples"
            )
        profile = train.values.reshape(-1, HOURS_PER_WEEK).mean(axis=0)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown baseline kind {kind!r}")
    # Output hour train.end + j lands on profile slot j mod 168: for the
    # seasonal naive the profile starts exactly one week before train.end,
    # and the profile mean is built from whole weeks ending at train.end.
    indices = np.arange(n_hours) % HOURS_PER_WEEK
    return TrafficSeries(profile[indices], train.end)
