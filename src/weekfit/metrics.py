"""Accuracy metrics and timed evaluation of predictors."""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, fields
from typing import Protocol

import numpy as np

from .errors import ConstantActualError
from .model import TrafficSeries


def _paired(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.ndim != 1 or p.ndim != 1:
        raise ValueError("actual and predicted must be 1-D sequences")
    if a.size == 0:
        raise ValueError("metrics need at least one sample")
    if a.size != p.size:
        raise ValueError(f"length mismatch: {a.size} actual vs {p.size} predicted")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(p))):
        raise ValueError("metrics require finite values")
    return a, p


def mse(actual, predicted) -> float:
    """Mean squared error."""
    a, p = _paired(actual, predicted)
    return float(np.mean((a - p) ** 2))


def rmse(actual, predicted) -> float:
    """Root mean squared error."""
    return math.sqrt(mse(actual, predicted))


def mae(actual, predicted) -> float:
    """Mean absolute error."""
    a, p = _paired(actual, predicted)
    return float(np.mean(np.abs(a - p)))


def r2(actual, predicted) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot.

    Undefined when the actual values are constant (zero total variance);
    that case raises ConstantActualError instead of returning NaN.
    """
    a, p = _paired(actual, predicted)
    mean = np.mean(a)  # two-pass: mean first, then deviations
    ss_tot = float(np.sum((a - mean) ** 2))
    if ss_tot == 0.0:
        raise ConstantActualError("R2 is undefined for constant actual values")
    ss_res = float(np.sum((a - p) ** 2))
    return 1.0 - ss_res / ss_tot


@dataclass(frozen=True)
class EvalReport:
    """Accuracy plus timing for one predictor on one test window."""

    mse: float
    rmse: float
    mae: float
    r2: float
    n_samples: int
    elapsed_train_seconds: float
    elapsed_predict_seconds: float

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.rmse != math.sqrt(self.mse):
            raise ValueError("rmse must equal sqrt(mse) exactly")
        if self.mae > self.rmse * (1.0 + 1e-12):
            raise ValueError("mae cannot exceed rmse")
        if self.r2 > 1.0 + 1e-12:
            raise ValueError("r2 cannot exceed 1")
        if self.elapsed_train_seconds < 0.0 or self.elapsed_predict_seconds < 0.0:
            raise ValueError("elapsed times must be >= 0")

    @classmethod
    def from_predictions(
        cls,
        actual,
        predicted,
        elapsed_train_seconds: float = 0.0,
        elapsed_predict_seconds: float = 0.0,
    ) -> "EvalReport":
        a, p = _paired(actual, predicted)
        return cls(
            mse=mse(a, p),
            rmse=rmse(a, p),
            mae=mae(a, p),
            r2=r2(a, p),
            n_samples=int(a.size),
            elapsed_train_seconds=elapsed_train_seconds,
            elapsed_predict_seconds=elapsed_predict_seconds,
        )

    def as_dict(self, include_timing: bool = True) -> dict:
        out = asdict(self)
        if not include_timing:
            del out["elapsed_train_seconds"], out["elapsed_predict_seconds"]
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.as_dict(include_timing), indent=2)

    @staticmethod
    def csv_header() -> list[str]:
        return [field.name for field in fields(EvalReport)]

    def csv_row(self) -> list[str]:
        return [repr(getattr(self, name)) for name in self.csv_header()]


class Predictor(Protocol):
    """Anything that trains on a series and extrapolates past its end."""

    def fit(self, train: TrafficSeries) -> None: ...

    def predict(self, n_hours: int) -> TrafficSeries: ...


def time_evaluation(
    predictor: Predictor, train: TrafficSeries, test: TrafficSeries
) -> EvalReport:
    """Train, predict the test window, and report accuracy with wall-clock timing.

    The windows must be contiguous (test starts the hour after train ends).
    Predictor failures propagate.
    """
    if test.start != train.end:
        raise ValueError(
            f"test window must start at hour {train.end}, got {test.start}"
        )
    t0 = time.perf_counter()
    predictor.fit(train)
    t1 = time.perf_counter()
    prediction = predictor.predict(len(test))
    t2 = time.perf_counter()
    if len(prediction) != len(test) or prediction.start != test.start:
        raise ValueError("predictor returned a misaligned series")
    return EvalReport.from_predictions(
        test.values,
        prediction.values,
        elapsed_train_seconds=t1 - t0,
        elapsed_predict_seconds=t2 - t1,
    )
