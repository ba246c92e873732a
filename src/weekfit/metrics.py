"""Accuracy metrics and the evaluation report."""

from __future__ import annotations

import math

import numpy as np

from .errors import ConstantActualError, _finite, _integer, _real, _reals
from .params import _Frozen


def _paired(actual, predicted) -> tuple[np.ndarray, np.ndarray]:
    a = _reals(actual, "actual", -math.inf)
    p = _reals(predicted, "predicted", -math.inf)
    if a.size != p.size:
        raise ValueError(f"length mismatch: {a.size} actual vs {p.size} predicted")
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


class EvalReport(_Frozen):
    """Accuracy of one predictor on one test window.

    A pure value of the actual and predicted series; wall time is measured
    only by the command line.
    """

    __slots__ = __match_args__ = ("mse", "rmse", "mae", "r2", "n_samples")

    def __init__(self, mse: float, rmse: float, mae: float, r2: float, n_samples: int):
        n_samples = _integer(n_samples, "n_samples", 1)
        mse, rmse, mae = _real(mse, "mse", 0), _real(rmse, "rmse", 0), _real(mae, "mae", 0)
        r2 = _real(r2, "r2", -math.inf)
        if rmse != math.sqrt(mse):
            raise ValueError("rmse must equal sqrt(mse) exactly")
        if mae > rmse * (1.0 + 1e-12):
            raise ValueError("mae cannot exceed rmse")
        if r2 > 1.0 + 1e-12:
            raise ValueError("r2 cannot exceed 1")
        self._fill(mse, rmse, mae, r2, n_samples)

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
        return dict(zip(self.__slots__, self._fields()))
