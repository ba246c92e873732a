import warnings

import numpy as np
import pytest

from weekfit import (
    BaselineKind,
    baseline_predict,
    ComponentId,
    ComponentParams,
    SeriesTooShortError,
    TrafficSeries,
    WeeklyModel,
    generate_synthetic,
    mse,
    predict_series,
)


def elevated_model() -> WeeklyModel:
    """Wide bumps keep the weekly floor high, so additive noise never clamps."""
    peaks = {"morning": 9.0, "afternoon": 15.0, "evening": 21.0}
    return WeeklyModel(
        {
            c: ComponentParams(3000.0, peaks[c.period.value], 30.0)
            for c in ComponentId
        }
    )


class TestBaselinePredict:
    def test_huge_traffic_without_warning(self):
        # the within-slot sum of squares of this traffic passes the float
        # range; a baseline reads only the slot means, which stay finite
        train = TrafficSeries(np.random.default_rng(0).uniform(0.0, 1e300, 336), 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for kind in BaselineKind:
                assert np.isfinite(baseline_predict(kind, train, 168).values).all()

    def test_start_of_any_size(self):
        rng = np.random.default_rng(9)
        values = rng.uniform(1, 9, 200)
        start = 2**63 + 3  # past numpy's int64
        for kind in BaselineKind:
            far = baseline_predict(kind, TrafficSeries(values, start), 50)
            near = baseline_predict(kind, TrafficSeries(values, start % 168), 50)
            assert far.start == start + 200
            assert np.array_equal(far.values, near.values)
            with pytest.raises(ValueError, match="n_hours"):  # a horizon past int64 is refused
                baseline_predict(kind, TrafficSeries(values, start), 2**63)

    def test_single_week_train_is_tiled(self):
        rng = np.random.default_rng(0)
        train = TrafficSeries(rng.uniform(1, 9, 168), 0)
        for kind in BaselineKind:
            out = baseline_predict(kind, train, 400)
            assert out.start == train.end
            assert np.array_equal(out.values[:168], train.values)
            assert np.array_equal(out.values[168:336], train.values)

    def test_identical_weeks_agree(self):
        rng = np.random.default_rng(1)
        week = rng.uniform(1, 9, 168)
        train = TrafficSeries(np.tile(week, 2), 0)
        naive = baseline_predict(BaselineKind.SEASONAL_NAIVE, train, 168)
        mean = baseline_predict(BaselineKind.WEEKLY_PROFILE_MEAN, train, 168)
        assert naive == mean
        assert np.allclose(naive.values, week)

    def test_weekly_periodicity(self):
        rng = np.random.default_rng(2)
        train = TrafficSeries(rng.uniform(1, 9, 336), 0)
        for kind in BaselineKind:
            out = baseline_predict(kind, train, 500)
            assert np.array_equal(out.values[:168], out.values[168:336])

    def test_alignment_with_offset_train(self):
        # train starting mid-week: the forecast must continue the week
        # clock, not restart it
        rng = np.random.default_rng(3)
        train = TrafficSeries(rng.uniform(1, 9, 168), 30)
        out = baseline_predict(BaselineKind.SEASONAL_NAIVE, train, 168)
        assert out.start == 198
        assert np.array_equal(out.values, train.values)

    def test_kind_by_value_selects_that_baseline(self):
        # two different weeks, so the two baselines give different forecasts
        rng = np.random.default_rng(6)
        train = TrafficSeries(rng.uniform(1, 9, 336), 0)
        by_member = baseline_predict(BaselineKind.SEASONAL_NAIVE, train, 168)
        assert baseline_predict("seasonal_naive", train, 168) == by_member
        assert by_member != baseline_predict(BaselineKind.WEEKLY_PROFILE_MEAN, train, 168)
        with pytest.raises(ValueError, match="BaselineKind"):
            baseline_predict("naive", train, 168)

    def test_too_short_train(self):
        with pytest.raises(SeriesTooShortError):
            baseline_predict(BaselineKind.SEASONAL_NAIVE, TrafficSeries(np.ones(100), 0), 24)

    def test_profile_mean_tolerates_partial_leading_week(self):
        # each output hour is the mean of the training samples a whole
        # number of weeks before it, however many that slot has
        rng = np.random.default_rng(5)
        train = TrafficSeries(rng.uniform(1, 9, 400), 17)
        out = baseline_predict(BaselineKind.WEEKLY_PROFILE_MEAN, train, 300)
        for j in range(300):
            hour = train.end + j
            same_slot = [
                value
                for i, value in enumerate(train.values)
                if (hour - (train.start + i)) % 168 == 0
            ]
            assert out.values[j] == pytest.approx(sum(same_slot) / len(same_slot), rel=1e-12)

    def test_seasonal_naive_tolerates_partial_leading_week(self):
        rng = np.random.default_rng(4)
        train = TrafficSeries(rng.uniform(1, 9, 200), 0)
        out = baseline_predict(BaselineKind.SEASONAL_NAIVE, train, 24)
        assert np.array_equal(out.values, train.values[-168:][:24])


class TestStatisticalBehaviour:
    def test_expected_test_mse_ratios(self):
        # seasonal naive carries one noisy week -> E[MSE] = 2 s^2;
        # the two-week profile mean averages noise -> E[MSE] = 1.5 s^2
        model = elevated_model()
        noise = 50.0
        clean = predict_series(model, 168)
        assert clean.values.min() > 5 * noise
        naive_ratios = []
        mean_ratios = []
        for seed in range(50):
            data = generate_synthetic(model, 4, noise, seed=seed)
            train, test = data.window(0, 336), data.window(336, 672)
            for kind, sink in (
                (BaselineKind.SEASONAL_NAIVE, naive_ratios),
                (BaselineKind.WEEKLY_PROFILE_MEAN, mean_ratios),
            ):
                prediction = baseline_predict(kind, train, len(test))
                sink.append(mse(test.values, prediction.values) / noise**2)
        assert np.mean(naive_ratios) == pytest.approx(2.0, rel=0.1)
        assert np.mean(mean_ratios) == pytest.approx(1.5, rel=0.1)

    def test_profile_mean_minimizes_train_mse(self):
        # among 168-periodic predictors the per-slot mean is the least
        # squares choice: any perturbation increases the train error
        rng = np.random.default_rng(5)
        train = TrafficSeries(rng.uniform(1, 9, 336), 0)
        profile = train.values.reshape(2, 168).mean(axis=0)
        base_error = mse(train.values, np.tile(profile, 2))
        for slot in (0, 45, 167):
            for delta in (-0.5, 0.5):
                perturbed = profile.copy()
                perturbed[slot] += delta
                assert mse(train.values, np.tile(perturbed, 2)) > base_error
