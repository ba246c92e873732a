"""Accuracy metrics and the evaluation report."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConstantActualError, _finite, _integer


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


# The metric functions silence numpy's overflow warning (_finite reports it)
# and return Python floats, whose repr names no numpy type.
@np.errstate(over="ignore")
def mse(actual, predicted) -> float:
    """Mean squared error."""
    a, p = _paired(actual, predicted)
    return float(_finite(np.mean((a - p) ** 2), "mse"))


def rmse(actual, predicted) -> float:
    """Root mean squared error."""
    return math.sqrt(mse(actual, predicted))


@np.errstate(over="ignore")
def mae(actual, predicted) -> float:
    """Mean absolute error."""
    a, p = _paired(actual, predicted)
    return float(_finite(np.mean(np.abs(a - p)), "mae"))


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
    return float(_finite(1.0 - ss_res / ss_tot, "r2"))


@dataclass(frozen=True)
class EvalReport:
    """Accuracy of one predictor on one test window.

    A pure value of the actual and predicted series; wall time is measured
    only by the command line.
    """

    mse: float
    rmse: float
    mae: float
    r2: float
    n_samples: int

    def __post_init__(self):
        object.__setattr__(self, "n_samples", _integer(self.n_samples, "n_samples", 1))
        if self.rmse != math.sqrt(self.mse):
            raise ValueError("rmse must equal sqrt(mse) exactly")
        if self.mae > self.rmse * (1.0 + 1e-12):
            raise ValueError("mae cannot exceed rmse")
        if self.r2 > 1.0 + 1e-12:
            raise ValueError("r2 cannot exceed 1")

    @classmethod
    def from_predictions(cls, actual, predicted) -> "EvalReport":
        a, p = _paired(actual, predicted)
        mean_squared = mse(a, p)
        return cls(
            mse=mean_squared,
            rmse=math.sqrt(mean_squared),
            mae=mae(a, p),
            r2=r2(a, p),
            n_samples=int(a.size),
        )

    def as_dict(self) -> dict:
        return asdict(self)
