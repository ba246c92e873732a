import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weekfit import (
    ConstantActualError,
    EvalReport,
    WeekfitError,
    mae,
    mse,
    r2,
    rmse,
)

from oracles import naive_mae, naive_mse, naive_r2, naive_rmse

pairs_st = st.integers(2, 60).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-1e4, 1e4), min_size=n, max_size=n),
        st.lists(st.floats(-1e4, 1e4), min_size=n, max_size=n),
    )
)


class TestFormulas:
    def test_perfect_prediction(self):
        actual = [3.0, 1.5, 9.25, 0.0]
        assert mse(actual, actual) == 0.0
        assert rmse(actual, actual) == 0.0
        assert mae(actual, actual) == 0.0
        assert r2(actual, actual) == 1.0

    def test_hand_worked_example(self):
        actual = [1.0, 2.0, 3.0]
        predicted = [2.0, 2.0, 2.0]
        assert mse(actual, predicted) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert rmse(actual, predicted) == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)
        assert mae(actual, predicted) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert r2(actual, predicted) == 0.0

    def test_mean_predictor_r2_exactly_zero(self):
        rng = np.random.default_rng(0)
        actual = rng.uniform(0, 100, 500)
        predicted = np.full_like(actual, np.mean(actual))
        assert r2(actual, predicted) == 0.0

    def test_matches_streaming_oracle(self):
        rng = np.random.default_rng(1)
        actual = rng.uniform(0, 1000, 1000)
        predicted = rng.uniform(0, 1000, 1000)
        assert mse(actual, predicted) == pytest.approx(naive_mse(actual, predicted), rel=1e-12)
        assert rmse(actual, predicted) == pytest.approx(naive_rmse(actual, predicted), rel=1e-12)
        assert mae(actual, predicted) == pytest.approx(naive_mae(actual, predicted), rel=1e-12)
        assert r2(actual, predicted) == pytest.approx(naive_r2(actual, predicted), rel=1e-12)


class TestErrors:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            mse([1.0, 2.0], [1.0])

    def test_empty_input(self):
        with pytest.raises(ValueError):
            mae([], [])

    def test_non_finite(self):
        with pytest.raises(ValueError):
            mse([1.0, float("inf")], [0.0, 0.0])
        with pytest.raises(ValueError, match="actual must hold numbers"):
            mse(["1"], [1.0])
        with pytest.raises(ValueError, match="predicted must be finite, got nan"):
            mae([1.0], [float("nan")])

    def test_not_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            mse([[1.0, 2.0]], [[1.0, 2.0]])

    def test_constant_actual_r2(self):
        with pytest.raises(ConstantActualError):
            r2([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])


class TestProperties:
    @settings(max_examples=100, deadline=None)
    @given(pairs=pairs_st, seed=st.integers(0, 2**31))
    def test_permutation_covariance(self, pairs, seed):
        actual, predicted = map(np.asarray, pairs)
        order = np.random.default_rng(seed).permutation(len(actual))
        assert mse(actual[order], predicted[order]) == pytest.approx(
            mse(actual, predicted), rel=1e-12, abs=1e-12
        )
        assert mae(actual[order], predicted[order]) == pytest.approx(
            mae(actual, predicted), rel=1e-12, abs=1e-12
        )

    @settings(max_examples=100, deadline=None)
    @given(pairs=pairs_st, shift=st.floats(-1e3, 1e3))
    def test_error_metrics_translation_invariant(self, pairs, shift):
        actual, predicted = map(np.asarray, pairs)
        assert mse(actual + shift, predicted + shift) == pytest.approx(
            mse(actual, predicted), rel=1e-9, abs=1e-9
        )
        assert mae(actual + shift, predicted + shift) == pytest.approx(
            mae(actual, predicted), rel=1e-9, abs=1e-9
        )

    @settings(max_examples=100, deadline=None)
    @given(
        pairs=pairs_st,
        a=st.floats(0.1, 50).flatmap(lambda x: st.sampled_from([x, -x])),
        b=st.floats(-1e3, 1e3),
    )
    def test_r2_affine_invariant(self, pairs, a, b):
        actual, predicted = map(np.asarray, pairs)
        # near-constant actuals make SS_tot vanish and the ratio numerically
        # meaningless; the invariant is only claimed away from that pole
        assume(np.ptp(actual) > 1e-3 * (1.0 + np.max(np.abs(actual))))
        baseline = r2(actual, predicted)
        transformed = r2(a * actual + b, a * predicted + b)
        assert transformed == pytest.approx(baseline, rel=1e-6, abs=1e-6)


class TestEvalReport:
    def test_rmse_must_be_sqrt_mse(self):
        with pytest.raises(ValueError, match="sqrt"):
            EvalReport(mse=4.0, rmse=3.0, mae=1.0, r2=0.5, n_samples=10)

    def test_mae_cannot_exceed_rmse(self):
        with pytest.raises(ValueError, match="mae"):
            EvalReport(mse=4.0, rmse=2.0, mae=3.0, r2=0.5, n_samples=10)

    def test_rejects_no_samples_and_r2_above_one(self):
        with pytest.raises(ValueError, match="n_samples"):
            EvalReport(mse=4.0, rmse=2.0, mae=1.0, r2=0.5, n_samples=0)
        for n_samples in (1.5, float("nan")):
            with pytest.raises(ValueError, match="n_samples"):
                EvalReport(mse=4.0, rmse=2.0, mae=1.0, r2=0.5, n_samples=n_samples)
        with pytest.raises(ValueError, match="r2"):
            EvalReport(mse=4.0, rmse=2.0, mae=1.0, r2=1.5, n_samples=10)
        with pytest.raises(ValueError, match="mse must be a number"):
            EvalReport(mse="a", rmse=1.0, mae=1.0, r2=0.0, n_samples=1)

    def test_serialization_round_trip(self):
        rng = np.random.default_rng(2)
        actual = rng.uniform(0, 10, 50)
        predicted = rng.uniform(0, 10, 50)
        report = EvalReport.from_predictions(actual, predicted)
        as_dict = report.as_dict()
        assert list(as_dict) == ["mse", "rmse", "mae", "r2", "n_samples"]
        assert as_dict["n_samples"] == 50
        assert EvalReport(**json.loads(json.dumps(as_dict))) == report

    @pytest.mark.parametrize(
        "actual, predicted",
        [
            ([1e300, 2e300, 0.0], [0.0, 0.0, 0.0]),  # squared residuals overflow
            ([1e308, -1e308], [-1e308, 1e308]),  # residuals overflow
            ([0.0, 1e-160], [1e150, 0.0]),  # SS_res / SS_tot overflows
        ],
    )
    def test_overflow_raises_without_warning(self, actual, predicted):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WeekfitError, match="overflows"):
                EvalReport.from_predictions(actual, predicted)
