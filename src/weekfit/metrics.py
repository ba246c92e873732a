"""Accuracy metrics and the evaluation report."""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import ConstantActualError, WeekfitError


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


def _finite(value, name: str) -> float:
    """``value`` as a float; a result past the float range raises WeekfitError."""
    value = float(value)
    if not math.isfinite(value):
        raise WeekfitError(f"{name} overflows the float range; the values are too large")
    return value


# The metric functions silence numpy's overflow warning; _finite reports it.
@np.errstate(over="ignore")
def mse(actual, predicted) -> float:
    """Mean squared error."""
    a, p = _paired(actual, predicted)
    return _finite(np.mean((a - p) ** 2), "mse")


def rmse(actual, predicted) -> float:
    """Root mean squared error."""
    return math.sqrt(mse(actual, predicted))


@np.errstate(over="ignore")
def mae(actual, predicted) -> float:
    """Mean absolute error."""
    a, p = _paired(actual, predicted)
    return _finite(np.mean(np.abs(a - p)), "mae")


@np.errstate(over="ignore")
def r2(actual, predicted) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot.

    Undefined when the actual values are constant (zero total variance);
    that case raises ConstantActualError instead of returning NaN.
    """
    a, p = _paired(actual, predicted)
    mean = np.mean(a)  # two-pass: mean first, then deviations
    ss_tot = _finite(np.sum((a - mean) ** 2), "r2")
    if ss_tot == 0.0:
        raise ConstantActualError("R2 is undefined for constant actual values")
    ss_res = _finite(np.sum((a - p) ** 2), "r2")
    return _finite(1.0 - ss_res / ss_tot, "r2")


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
        mean_squared = mse(a, p)
        return cls(
            mse=mean_squared,
            rmse=math.sqrt(mean_squared),
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
