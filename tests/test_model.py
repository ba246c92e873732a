import copy
import math
import pickle
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weekfit import (
    ComponentId,
    ComponentParams,
    DayCategory,
    DayPeriod,
    EvalReport,
    FitConfig,
    FitReport,
    Readings,
    SplitSpec,
    TrafficSeries,
    WeekClock,
    WeeklyModel,
    generate_synthetic,
    predict_series,
    sigma_interval,
    week_clock_at,
    weekly_value,
)
from weekfit.model import _COPIES, _EXP_FLOOR, _SLOT_HOURS, _gaussian_terms
from weekfit.params import _TERMS, _week_profile

from conftest import random_model, series_csv_clocks
from oracles import naive_weekly_value


def zero_model() -> WeeklyModel:
    return WeeklyModel(
        {c: ComponentParams(0.0, 12.0, 1.0) for c in ComponentId}
    )


def single_component_model(comp: ComponentId, params: ComponentParams) -> WeeklyModel:
    return WeeklyModel(
        {
            c: params if c is comp else ComponentParams(0.0, params.peak_time, params.variance)
            for c in ComponentId
        }
    )


params_st = st.builds(
    ComponentParams,
    peak_rate=st.floats(0.0, 1e4),
    peak_time=st.floats(0.0, 24.0, exclude_max=True),
    variance=st.floats(0.3, 50.0),
)
model_st = st.builds(
    lambda ps: WeeklyModel(dict(zip(ComponentId, ps))),
    st.lists(params_st, min_size=9, max_size=9),
)
clock_st = st.builds(
    WeekClock,
    day=st.integers(1, 7),
    hour=st.floats(0.0, 24.0, exclude_max=True),
)


class TestTaxonomy:
    def test_nine_distinct_components(self):
        assert len(ComponentId) == 9
        assert len({c.value for c in ComponentId}) == 9

    def test_categories_partition_components(self):
        by_category = {cat: [c for c in ComponentId if c.category is cat] for cat in DayCategory}
        assert sorted(c.value for c in by_category[DayCategory.WEEKDAY]) == ["aw", "ew", "mw"]
        assert sorted(c.value for c in by_category[DayCategory.SATURDAY]) == ["asa", "esa", "msa"]
        assert sorted(c.value for c in by_category[DayCategory.SUNDAY]) == ["asu", "esu", "msu"]

    def test_each_component_has_one_category_period_pair(self):
        pairs = {(c.category, c.period) for c in ComponentId}
        assert len(pairs) == 9

    def test_exact_layout_in_canonical_order(self):
        W, SA, SU = DayCategory.WEEKDAY, DayCategory.SATURDAY, DayCategory.SUNDAY
        M, A, E = DayPeriod.MORNING, DayPeriod.AFTERNOON, DayPeriod.EVENING
        assert [(c.value, c.category, c.period) for c in ComponentId] == [
            ("mw", W, M), ("aw", W, A), ("ew", W, E),
            ("msa", SA, M), ("asa", SA, A), ("esa", SA, E),
            ("msu", SU, M), ("asu", SU, A), ("esu", SU, E),
        ]

    def test_day_numbers(self):
        assert DayCategory.WEEKDAY.day_numbers == (1, 2, 3, 4, 5)
        assert DayCategory.SATURDAY.day_numbers == (6,)
        assert DayCategory.SUNDAY.day_numbers == (7,)


class TestComponentParams:
    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError):
            ComponentParams(-1.0, 12.0, 1.0)

    def test_rejects_zero_variance(self):
        with pytest.raises(ValueError):
            ComponentParams(1.0, 12.0, 0.0)

    def test_rejects_out_of_day_peak_time(self):
        with pytest.raises(ValueError):
            ComponentParams(1.0, 24.0, 1.0)
        with pytest.raises(ValueError):
            ComponentParams(1.0, -0.1, 1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ComponentParams(float("nan"), 12.0, 1.0)
        with pytest.raises(ValueError, match="peak_rate must be finite"):
            ComponentParams(10**400, 12.0, 1.0)
        for bad in ("1", None, True):
            with pytest.raises(ValueError, match="must be a number"):
                ComponentParams(1.0, 12.0, bad)
        params = ComponentParams(np.float32(2.5), np.int64(12), np.float64(1.0))
        assert params == ComponentParams(2.5, 12.0, 1.0)
        assert all(type(v) is float for v in (params.peak_rate, params.peak_time, params.variance))


class TestWeeklyModel:
    def test_requires_all_nine(self):
        partial = {c: ComponentParams(1.0, 12.0, 1.0) for c in list(ComponentId)[:8]}
        with pytest.raises(ValueError, match="esu"):
            WeeklyModel(partial)

    def test_rejects_unknown_keys(self):
        bad = {c: ComponentParams(1.0, 12.0, 1.0) for c in ComponentId}
        bad["mw"] = ComponentParams(1.0, 12.0, 1.0)
        with pytest.raises(ValueError, match="unknown"):
            WeeklyModel(bad)

    def test_mapping_is_read_only(self, guangzhou):
        with pytest.raises(TypeError):
            guangzhou.components[ComponentId.MW] = ComponentParams(1.0, 12.0, 1.0)

    def test_equality(self, guangzhou):
        clone = WeeklyModel({c: guangzhou[c] for c in ComponentId})
        assert clone == guangzhou
        assert clone != zero_model()
        reversed_keys = WeeklyModel({c: guangzhou[c] for c in reversed(ComponentId)})
        assert reversed_keys == guangzhou
        assert hash(reversed_keys) == hash(guangzhou)
        assert len({reversed_keys, guangzhou}) == 1
        assert (guangzhou != "mw") is True


class TestWeekClock:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeekClock(0, 1.0)
        with pytest.raises(ValueError):
            WeekClock(8, 1.0)
        with pytest.raises(ValueError):
            WeekClock(3, 24.0)
        for day in (float("nan"), float("inf"), 2.5):
            with pytest.raises(ValueError, match="day"):
                WeekClock(day, 0.0)
        for day in (0, 8):  # both ends in one message
            with pytest.raises(ValueError, match=r"day must be an integer in \[1, 7\], got"):
                WeekClock(day, 0.0)
        for hour in ("12", None):
            with pytest.raises(ValueError, match="hour must be a number"):
                WeekClock(1, hour)

    def test_week_clock_at_rolls_days_and_weeks(self):
        assert week_clock_at(0) == (0, WeekClock(1, 0.0))
        assert week_clock_at(23) == (0, WeekClock(1, 23.0))
        assert week_clock_at(24) == (0, WeekClock(2, 0.0))
        assert week_clock_at(167) == (0, WeekClock(7, 23.0))
        assert week_clock_at(168) == (1, WeekClock(1, 0.0))
        for hour_index in (1.5, -1):
            with pytest.raises(ValueError, match="hour_index"):
                week_clock_at(hour_index)


class TestValueTypes:
    """ComponentParams, WeeklyModel and WeekClock are frozen values: they compare, hash, print,
    pickle and copy by their fields.  So are SplitSpec, FitConfig and EvalReport; Readings compares
    and hashes by identity, and TrafficSeries and FitReport compare by value and do not hash."""

    DUPLICATES = [
        lambda value: pickle.loads(pickle.dumps(value)),
        lambda value: pickle.loads(pickle.dumps(value, protocol=0)),
        copy.copy,
        copy.deepcopy,
    ]
    DUPLICATE_IDS = ["pickle", "pickle-protocol-0", "copy", "deepcopy"]
    # the first check each of the six runs, in the module that defines it
    FIRST_CHECKS = [
        "weekfit.dataio._reals", "weekfit.dataio._integer", "weekfit.model._reals",
        "weekfit.estimator._integer", "weekfit.estimator._reals", "weekfit.metrics._integer",
    ]

    @pytest.fixture()
    def values(self, milan):
        return [milan, milan[ComponentId.MW], WeekClock(day=1, hour=2.0)]

    @pytest.fixture()
    def others(self, milan):
        """One of each of the other six types, in FIRST_CHECKS' order."""
        return [
            Readings([datetime(2024, 1, 1, 5)], [1.5]),
            SplitSpec(3),
            TrafficSeries([1.0, 2.5], 3),
            FitConfig(100, 1e-6, "gd"),
            FitReport(milan, [2.0, 1.0], "tolerance"),
            EvalReport(4.0, 2.0, 1.0, 0.5, 3),
        ]

    def test_reprs(self, milan):
        assert repr(milan[ComponentId.MW]) == "ComponentParams(peak_rate=2942.0, peak_time=9.45, variance=0.88)"
        assert repr(WeekClock(1, 2)) == "WeekClock(day=1, hour=2.0)"
        assert repr(milan) == "WeeklyModel(components=mappingproxy({" + ", ".join(
            f"{comp!r}: {milan[comp]!r}" for comp in ComponentId) + "}))"

    def test_equal_values_hash_equal(self, milan, values):
        twins = [WeeklyModel(dict(milan.components)), ComponentParams(2942, 9.45, 0.88), WeekClock(1.0, 2)]
        for value, twin in zip(values, twins):
            assert value == twin and value is not twin and hash(value) == hash(twin)
            fields = tuple(getattr(value, name) for name in value.__slots__)  # another type, the same fields
            assert (value == fields) is False and (value == "x") is False
        assert len(set(values)) == 3
        assert ComponentParams(1, 2, 3) != ComponentParams(1, 2, 4)
        assert WeekClock(1, 2.0) != WeekClock(2, 2.0)

    def test_positional_and_keyword_construction(self):
        assert ComponentParams(1.0, 2.0, 3.0) == ComponentParams(variance=3.0, peak_time=2.0, peak_rate=1.0)
        assert WeekClock(3, 4.5) == WeekClock(hour=4.5, day=3)
        components = {c: ComponentParams(1.0, 2.0, 3.0) for c in ComponentId}
        assert WeeklyModel(components) == WeeklyModel(components=components)
        with pytest.raises(TypeError):
            ComponentParams(1.0, 2.0)
        with pytest.raises(TypeError):
            WeekClock(1, 2.0, minute=3)

    def test_fields_refuse_assignment_and_deletion(self, values, others):
        for value in values + others:
            for name in value.__slots__:
                with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                    setattr(value, name, 1.0)
                with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                    delattr(value, name)
            with pytest.raises(AttributeError):
                value.other = 1.0

    @pytest.mark.parametrize("duplicate", DUPLICATES, ids=DUPLICATE_IDS)
    def test_pickle_and_copy_round_trip(self, values, duplicate):
        for value in values:
            twin = duplicate(value)
            assert type(twin) is type(value) and twin == value and hash(twin) == hash(value)
            assert repr(twin) == repr(value)
        twin = duplicate(values[0])
        assert twin.components[ComponentId.MW] == values[1]
        with pytest.raises(TypeError):  # still read-only
            twin.components[ComponentId.MW] = values[1]

    def test_reprs_of_the_other_six(self, milan):
        assert repr(Readings([datetime(2024, 1, 1, 5)], [1.5])) == (
            "Readings(timestamps=[datetime.datetime(2024, 1, 1, 5, 0)], values=array([1.5]))"
        )
        assert repr(SplitSpec()) == "SplitSpec(train_weeks=2)"
        assert repr(TrafficSeries([1.0, 2.5], 3)) == "TrafficSeries(values=array([1. , 2.5]), start=3)"
        assert repr(FitConfig()) == "FitConfig(max_iterations=5000, relative_tolerance=1e-08, method='lm')"
        assert repr(FitReport(milan, [2.0, 1.0], "tolerance")) == (
            f"FitReport(model={milan!r}, objective_trace=array([2., 1.]), stop_reason='tolerance')"
        )
        assert repr(EvalReport(4.0, 2.0, 1.0, 0.5, 3)) == "EvalReport(mse=4.0, rmse=2.0, mae=1.0, r2=0.5, n_samples=3)"

    def test_settings_and_scores_compare_and_hash_as_their_fields(self, others):
        twins = [SplitSpec(3), FitConfig(100, 1e-6, "gd"), EvalReport(4.0, 2.0, 1.0, 0.5, 3)]
        for value, twin in zip([others[1], others[3], others[5]], twins):
            fields = tuple(getattr(value, name) for name in value.__match_args__)
            assert value == twin and value is not twin and hash(value) == hash(twin) == hash(fields)
            assert (value == fields) is False and (value == "x") is False
        assert SplitSpec(3) != SplitSpec(2) and FitConfig(method="gd") != FitConfig()
        assert EvalReport(4.0, 2.0, 1.0, 0.5, 3) != EvalReport(4.0, 2.0, 1.0, 0.5, 4)

    def test_series_and_fit_reports_compare_by_value_and_do_not_hash(self, milan, others):
        twins = [
            TrafficSeries(np.array([1.0, 2.5]), 3),
            FitReport(WeeklyModel(dict(milan.components)), (2, 1), "tolerance"),
        ]
        for value, twin in zip([others[2], others[4]], twins):
            assert value == twin and value is not twin and (value == "x") is False
            with pytest.raises(TypeError, match="unhashable type"):
                hash(value)
        assert FitReport(milan, [2.0, 1.0], "tolerance") != FitReport(milan, [2.0, 1.0], "max_iterations")

    def test_readings_compare_and_hash_by_identity(self, others):
        readings = others[0]
        twin = Readings(readings.timestamps, readings.values)
        assert readings == readings and readings != twin
        assert hash(readings) == object.__hash__(readings) and len({readings, twin}) == 2

    def test_other_six_positional_keyword_and_default_construction(self, milan):
        stamps = [datetime(2024, 1, 1, 5)]
        readings = Readings(values=[1.5], timestamps=stamps)
        assert readings.timestamps is stamps and readings.values.tolist() == [1.5]
        assert SplitSpec() == SplitSpec(2) == SplitSpec(train_weeks=2)
        assert TrafficSeries([1.0]) == TrafficSeries([1.0], 0) == TrafficSeries(start=0, values=[1.0])
        assert FitConfig() == FitConfig(5000, 1e-8, "lm") == FitConfig(method="lm", relative_tolerance=1e-8)
        assert FitReport(milan, [1.0], "tolerance") == FitReport(stop_reason="tolerance", objective_trace=[1.0],
                                                                 model=milan)
        assert EvalReport(4.0, 2.0, 1.0, 0.5, 3) == EvalReport(n_samples=3, r2=0.5, mae=1.0, rmse=2.0, mse=4.0)
        for build in (lambda: Readings(stamps), lambda: SplitSpec(2, 3), lambda: TrafficSeries(),
                      lambda: FitConfig(tolerance=1e-3), lambda: FitReport(milan, [1.0]),
                      lambda: EvalReport(4.0, 2.0, 1.0, 0.5)):
            with pytest.raises(TypeError):
                build()

    def test_other_six_match_their_fields_by_position(self, others):
        for value in others:
            match value:
                case Readings(stamps, values):
                    fields = (stamps, values)
                case SplitSpec(weeks):
                    fields = (weeks,)
                case TrafficSeries(values, start):
                    fields = (values, start)
                case FitConfig(iterations, tolerance, method):
                    fields = (iterations, tolerance, method)
                case FitReport(fitted, trace, reason):
                    fields = (fitted, trace, reason)
                case EvalReport(mse, rmse, mae, r2, n_samples):
                    fields = (mse, rmse, mae, r2, n_samples)
            assert len(fields) == len(value.__match_args__)
            assert all(field is getattr(value, name) for field, name in zip(fields, value.__match_args__))

    @pytest.mark.parametrize("duplicate", DUPLICATES, ids=DUPLICATE_IDS)
    def test_other_six_round_trip_through_their_checks(self, others, duplicate, monkeypatch):
        for value in others:
            twin = duplicate(value)
            assert type(twin) is type(value) and twin is not value and repr(twin) == repr(value)
            for name in value.__match_args__:
                if isinstance(getattr(value, name), np.ndarray):  # checked again, so read-only again
                    assert not getattr(twin, name).flags.writeable
        assert [duplicate(value) == value for value in others] == [False] + [True] * 5  # Readings: by identity

        def refuse(*args, **kwargs):
            raise ValueError("checked again")

        for value, check in zip(others, self.FIRST_CHECKS):
            with monkeypatch.context() as patch:
                patch.setattr(check, refuse)
                with pytest.raises(ValueError, match="checked again"):
                    duplicate(value)


class TestTrafficSeries:
    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            TrafficSeries(np.array([1.0, -1.0]), 0)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            TrafficSeries(np.array([1.0, np.nan]), 0)
        for values in (["1", "2"], [True], [None, 1.0], [True, 1.0], (1.0, np.False_)):
            with pytest.raises(ValueError, match="values must hold numbers"):
                TrafficSeries(values)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            TrafficSeries(np.array([]), 0)

    def test_rejects_bad_start(self):
        for start in (-1, 1.5, float("nan"), float("inf"), "3", True):
            with pytest.raises(ValueError, match="start"):
                TrafficSeries(np.ones(3), start)
        assert type(TrafficSeries(np.ones(3), np.int64(4)).start) is int

    def test_equality(self):
        series = TrafficSeries(np.ones(3), 5)
        assert series == TrafficSeries([1.0, 1.0, 1.0], 5)
        assert series != TrafficSeries(np.ones(3), 6)
        assert series != TrafficSeries(np.ones(4), 5)
        assert (series == "x") is False

    def test_clock_indexing(self, tmp_path):
        # start 166 is Sunday 22:00, two hours before the week boundary
        series = TrafficSeries(np.arange(1.0, 201.0), start=166)
        week, clock = week_clock_at(series.start + 0)
        assert (week, clock) == (0, WeekClock(7, 22.0))
        week, clock = week_clock_at(series.start + 2)
        assert (week, clock) == (1, WeekClock(1, 0.0))
        clocks = series_csv_clocks(series, tmp_path / "series.csv")
        assert clocks[:3] == [(0, 7, 22), (0, 7, 23), (1, 1, 0)]
        for i, row in enumerate(clocks):
            week, clock = week_clock_at(series.start + i)
            assert row == (week, clock.day, int(clock.hour))

    def test_values_immutable(self):
        series = TrafficSeries(np.ones(3), 0)
        with pytest.raises(ValueError):
            series.values[0] = 2.0

    def test_window_partition(self):
        series = TrafficSeries(np.arange(1.0, 11.0), start=5)
        left = series.window(0, 4)
        right = series.window(4, 10)
        assert left.end == right.start
        assert np.array_equal(np.concatenate([left.values, right.values]), series.values)

    def test_rejects_invalid_window(self):
        series = TrafficSeries(np.arange(1.0, 11.0), start=5)
        for i, j in ((5, 3), (0, len(series) + 1)):
            with pytest.raises(ValueError, match="invalid window"):
                series.window(i, j)
        for i, j in ((float("nan"), 3), (1.5, 3)):
            with pytest.raises(ValueError):
                series.window(i, j)
        assert series.window(1.0, 3) == series.window(1, 3)


class TestWeeklyValue:
    def test_zero_model(self):
        assert weekly_value(zero_model(), WeekClock(3, 7.5)) == 0.0

    def test_single_saturday_component_includes_week_wraps(self):
        model = single_component_model(ComponentId.MSA, ComponentParams(1.0, 12.0, 1.0))
        value = weekly_value(model, WeekClock(6, 12.0))
        expected = 1.0 + 2.0 * math.exp(-(168.0**2) / 2.0)
        assert value == pytest.approx(expected, rel=1e-15)
        assert value == pytest.approx(1.0, rel=1e-9)

    def test_reference_model_matches_brute_force(self, guangzhou):
        expected = naive_weekly_value(guangzhou, 1, 12.0)
        assert weekly_value(guangzhou, WeekClock(1, 12.0)) == pytest.approx(expected, rel=1e-13)

    @settings(max_examples=200, deadline=None)
    @given(model=model_st, clock=clock_st)
    def test_matches_brute_force_everywhere(self, model, clock):
        ours = weekly_value(model, clock)
        naive = naive_weekly_value(model, clock.day, clock.hour)
        # the absolute floor covers totals past double precision's
        # meaningful range (far tails of near-zero models)
        assert math.isclose(ours, naive, rel_tol=1e-12, abs_tol=1e-250)

    def test_continuous_at_every_midnight(self, guangzhou, milan):
        # a sum of Gaussians in time has no jumps: the last instant of each
        # day, Sunday included, meets the next day's 00:00
        rng = np.random.default_rng(2024)
        for model in [guangzhou, milan] + [random_model(rng) for _ in range(20)]:
            peak = float(np.max(predict_series(model, 168).values))
            for day in range(1, 8):
                before = weekly_value(model, WeekClock(day, 24.0 - 1e-9))
                after = weekly_value(model, WeekClock(day % 7 + 1, 0.0))
                assert abs(before - after) <= 1e-6 * peak, (day, before, after)

    @settings(max_examples=100, deadline=None)
    @given(model=model_st, clock=clock_st)
    def test_nonnegative(self, model, clock):
        assert weekly_value(model, clock) >= 0.0

    def test_superposition_linearity(self, guangzhou):
        clock = WeekClock(4, 21.0)
        total = sum(
            weekly_value(single_component_model(c, guangzhou[c]), clock) for c in ComponentId
        )
        assert weekly_value(guangzhou, clock) == pytest.approx(total, rel=1e-12)

    def test_amplitude_homogeneity(self, guangzhou):
        lam = 3.75
        scaled = WeeklyModel(
            {
                c: ComponentParams(
                    lam * guangzhou[c].peak_rate,
                    guangzhou[c].peak_time,
                    guangzhou[c].variance,
                )
                for c in ComponentId
            }
        )
        for clock in (WeekClock(1, 0.0), WeekClock(3, 12.0), WeekClock(7, 23.0)):
            assert weekly_value(scaled, clock) == pytest.approx(
                lam * weekly_value(guangzhou, clock), rel=1e-12
            )

    def test_bounded_by_term_budget(self, guangzhou):
        budget = sum(
            len(c.category.day_numbers) * 3 * guangzhou[c].peak_rate for c in ComponentId
        )
        rng = np.random.default_rng(5)
        for _ in range(50):
            clock = WeekClock(int(rng.integers(1, 8)), float(rng.uniform(0, 24)))
            assert weekly_value(guangzhou, clock) <= budget


class TestPredictSeries:
    def test_zero_model(self):
        series = predict_series(zero_model(), 100)
        assert len(series) == 100
        assert np.all(series.values == 0.0)

    def test_first_element_matches_weekly_value(self, guangzhou):
        start = WeekClock(3, 5.0)
        series = predict_series(guangzhou, 10, start_week=2, start_clock=start)
        assert series.values[0] == weekly_value(guangzhou, start)

    def test_weekly_periodicity(self, guangzhou):
        series = predict_series(guangzhou, 336)
        assert np.array_equal(series.values[:168], series.values[168:])

    def test_consecutive_weeks_identical(self, guangzhou):
        first = predict_series(guangzhou, 168, start_week=0)
        second = predict_series(guangzhou, 168, start_week=1)
        assert np.array_equal(first.values, second.values)

    def test_clock_rolling(self, guangzhou, tmp_path):
        series = predict_series(guangzhou, 200, start_week=0, start_clock=WeekClock(7, 20.0))
        clocks = series_csv_clocks(series, tmp_path / "series.csv")
        assert (clocks[0], clocks[4], clocks[28]) == ((0, 7, 20), (1, 1, 0), (1, 2, 0))
        assert clocks[-1] == (2, 2, 3)

    def test_rejects_fractional_start(self, guangzhou):
        with pytest.raises(ValueError, match="start_clock.hour must be an integer"):
            predict_series(guangzhou, 10, start_clock=WeekClock(1, 0.5))
        for start_week in (1.5, -1):
            with pytest.raises(ValueError, match="start_week"):
                predict_series(guangzhou, 10, start_week=start_week)
        assert predict_series(guangzhou, 10, start_week=2.0) == predict_series(guangzhou, 10, start_week=2)

    def test_start_week_of_any_size(self, guangzhou):
        # the hour counter of week 10**17 passes the int64 range
        start_week = 10**17
        far = predict_series(guangzhou, 30, start_week=start_week)
        near = predict_series(guangzhou, 30, start_week=0)
        assert far.start == start_week * 168
        assert np.array_equal(far.values, near.values)

    def test_rejects_empty_horizon(self, guangzhou):
        with pytest.raises(ValueError):
            predict_series(guangzhou, 0)
        with pytest.raises(ValueError, match="n_hours"):
            predict_series(guangzhou, 2.5)
        assert predict_series(guangzhou, 2.0) == predict_series(guangzhou, 2)
        for n_hours in (2**63, 10**400):  # past int64: refused by name, not by numpy
            with pytest.raises(ValueError, match="n_hours"):
                predict_series(guangzhou, n_hours)


class TestSigmaInterval:
    def test_morning_weekday_window(self, guangzhou):
        low, high = sigma_interval(guangzhou[ComponentId.MW])
        sigma = math.sqrt(3.10)
        assert low == pytest.approx(12.14 - sigma, abs=1e-12)
        assert high == pytest.approx(12.14 + sigma, abs=1e-12)
        assert low == pytest.approx(10.38, abs=0.01)
        assert high == pytest.approx(13.90, abs=0.01)

    def test_evening_spills_past_midnight(self, guangzhou):
        _, high = sigma_interval(guangzhou[ComponentId.EW])
        assert high == pytest.approx(22.18 + math.sqrt(6.63), abs=1e-12)
        assert high > 24.0
        assert high == pytest.approx(24.755, abs=0.01)

    def test_small_variance_collapses_interval(self):
        low, high = sigma_interval(ComponentParams(1.0, 12.0, 1e-12))
        assert high - low == pytest.approx(2e-6, rel=1e-6)


class TestGenerateSynthetic:
    def test_zero_noise_equals_prediction(self, guangzhou):
        synth = generate_synthetic(guangzhou, 2, 0.0, seed=11)
        assert synth == predict_series(guangzhou, 336)

    def test_seed_determinism(self, guangzhou):
        a = generate_synthetic(guangzhou, 2, 150.0, seed=7)
        b = generate_synthetic(guangzhou, 2, 150.0, seed=7)
        assert a == b
        c = generate_synthetic(guangzhou, 2, 150.0, seed=8)
        assert a != c

    def test_values_clamped_nonnegative(self, guangzhou):
        synth = generate_synthetic(guangzhou, 2, 5000.0, seed=3)
        assert np.all(synth.values >= 0.0)

    def test_noise_std_matches_request(self):
        # high night floor keeps the zero clamp inactive, so the sample
        # std of the added noise is observable
        elevated = WeeklyModel(
            {
                c: ComponentParams(3000.0, {"morning": 9.0, "afternoon": 15.0, "evening": 21.0}[c.period.value], 30.0)
                for c in ComponentId
            }
        )
        clean = predict_series(elevated, 12 * 168)
        noise_std = 50.0
        assert clean.values.min() > 5 * noise_std
        synth = generate_synthetic(elevated, 12, noise_std, seed=21)
        observed = float(np.std(synth.values - clean.values))
        assert abs(observed - noise_std) / noise_std < 0.05

    def test_validation(self, guangzhou):
        with pytest.raises(ValueError):
            generate_synthetic(guangzhou, 0, 1.0, seed=0)
        with pytest.raises(ValueError, match="n_weeks"):
            generate_synthetic(guangzhou, 1.5, 1.0, seed=0)
        with pytest.raises(ValueError, match="n_weeks"):
            generate_synthetic(guangzhou, 10**400, 1.0, seed=0)
        with pytest.raises(ValueError):
            generate_synthetic(guangzhou, 1, -1.0, seed=0)
        for noise_std in ("1", None):
            with pytest.raises(ValueError, match="noise_std"):
                generate_synthetic(guangzhou, 1, noise_std, seed=0)
        for seed in (1.5, -1):
            with pytest.raises(ValueError, match="seed"):
                generate_synthetic(guangzhou, 1, 1.0, seed=seed)


def test_random_models_match_brute_force_tightly():
    rng = np.random.default_rng(314)
    for _ in range(200):
        model = random_model(rng)
        day = int(rng.integers(1, 8))
        hour = float(rng.uniform(0.0, 24.0))
        ours = weekly_value(model, WeekClock(day, hour))
        naive = naive_weekly_value(model, day, hour)
        assert abs(ours - naive) <= 1e-12 * naive


def test_slot_kernel_keeps_the_broadcast_formula_bits():
    # each Gaussian is evaluated once on the hours h + 24*m: the copy of term (c, shift) that
    # slot s = 24*D + h sums is row m + 13 = D + 14 - shift/24, and must hold exactly the bits
    # of the plain broadcast formula -(o*o)/(2v), o = (24 + s) - shift - t, over the 63 terms
    component, shift = np.array(_TERMS).T
    component = component.astype(int)
    slots = np.arange(168)[:, None]
    rows = slots // 24 + 14 - shift.astype(int) // 24
    hours = np.broadcast_to(slots % 24, rows.shape)
    rng = np.random.default_rng(17)
    for _ in range(40):
        rates = rng.uniform(0.0, 4.0, 9)
        times = rng.uniform(0.0, 24.0, 9)
        log_variances = rng.uniform(-20.0, 20.0, 9)
        log_variances[:3] = rng.choice([-20.0, 20.0], 3) * (1.0 - rng.uniform(0.0, 1e-6, 3))
        variances = np.exp(log_variances)
        o = (24.0 + slots) - shift - times[component]
        exponents = -(o * o) / (2.0 * variances[component])
        factors = np.exp(np.maximum(exponents, _EXP_FLOOR))
        got_offsets, got_factors, _, got_values = _gaussian_terms(rates, times, variances, _SLOT_HOURS)
        assert np.array_equal(got_offsets[component, rows, hours], o)
        assert np.array_equal(got_factors[component, rows, hours], factors)
        # the folded sums add the same factors in another order
        assert got_values == pytest.approx(factors @ rates[component], rel=1e-13, abs=0)
    # one copy per (day, week) of a component: 5 x 3 for a weekday one, 1 x 3 for a weekend one
    assert set(np.unique(_COPIES)) == {0.0, 1.0}
    assert (_COPIES.sum(axis=2) == np.array([15] * 3 + [3] * 6)[:, None]).all()


def test_pure_python_week_profile_matches_the_numpy_kernel(guangzhou, milan):
    # math.exp and math.fsum in place of numpy's exp and a BLAS sum: the
    # same 63 terms, so the rates agree to a few units in the last place
    rng = np.random.default_rng(29)
    for model in [guangzhou, milan, *(random_model(rng) for _ in range(20))]:
        profile = _week_profile(model)
        naive = [naive_weekly_value(model, slot // 24 + 1, float(slot % 24)) for slot in range(168)]
        assert profile == pytest.approx(predict_series(model, 168).values.tolist(), rel=1e-13, abs=0)
        assert profile == pytest.approx(naive, rel=1e-13, abs=0)
    assert _week_profile(zero_model()) == [0.0] * 168
