import itertools
import warnings
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weekfit import estimator
from weekfit import (
    ComponentId,
    ComponentParams,
    DayCategory,
    FitConfig,
    FitReport,
    Readings,
    SeriesTooShortError,
    SplitSpec,
    TrafficSeries,
    WeekClock,
    WeekfitError,
    WeeklyModel,
    aggregate_hourly,
    bundled_model,
    fit,
    generate_synthetic,
    gradient,
    init_heuristic,
    objective,
    predict_series,
    split,
    weekly_value,
    write_trace_csv,
)

from conftest import perturbed, random_model, random_series
from oracles import finite_difference_gradient, naive_init_heuristic, naive_objective

# (n_hours, start) of the series J and its gradient are checked on: one
# whole week from Monday, where every slot holds one sample, and two
# mid-week starts whose slots hold 2 to 4 samples, so the within-slot sum
# of squares W is not zero
_SHAPES = [(168, 0), (420, 61), (505, 167)]

# every modeled rate overflows where the nine 1.7e308 components overlap
_HUGE = WeeklyModel({c: ComponentParams(1.7e308, 12.0, 50.0) for c in ComponentId})


class TestObjective:
    def test_zero_on_own_noiseless_data(self, guangzhou):
        data = generate_synthetic(guangzhou, 1, 0.0, seed=0)
        assert objective(guangzhou, data) == 0.0

    def test_zero_model_gives_sum_of_squares(self):
        zero = WeeklyModel({c: ComponentParams(0.0, 12.0, 1.0) for c in ComponentId})
        rng = np.random.default_rng(1)
        data = random_series(rng)
        assert objective(zero, data) == pytest.approx(float(data.values @ data.values), rel=1e-15)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(2)
        for (n_hours, start), _ in itertools.product(_SHAPES, range(5)):
            model = random_model(rng)
            data = random_series(rng, n_hours, start)
            expected = naive_objective(model, data)
            assert objective(model, data) == pytest.approx(expected, rel=1e-12)


class TestGradient:
    def test_zero_at_perfect_fit(self, guangzhou):
        data = generate_synthetic(guangzhou, 1, 0.0, seed=0)
        grad = gradient(guangzhou, data)
        assert np.all(np.abs(grad) <= 1e-9)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for (n_hours, start), _ in itertools.product(_SHAPES, range(5)):
            model = random_model(rng)
            data = random_series(rng, n_hours, start)
            analytic = gradient(model, data)
            numeric = finite_difference_gradient(model, data)
            floor = 1e-6 * np.max(np.abs(analytic))
            denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-5

    def test_homogeneity_under_joint_scaling(self):
        # doubling rates and data doubles residuals; rate partials carry
        # one residual factor (x2) while time/variance partials carry an
        # extra amplitude factor (x4) -- verified against the finite
        # difference oracle
        rng = np.random.default_rng(4)
        model = random_model(rng)
        data = random_series(rng)
        doubled_model = WeeklyModel(
            {
                c: ComponentParams(2 * model[c].peak_rate, model[c].peak_time, model[c].variance)
                for c in ComponentId
            }
        )
        doubled_data = TrafficSeries(2 * data.values, data.start)
        g = gradient(model, data)
        g2 = gradient(doubled_model, doubled_data)
        fd2 = finite_difference_gradient(doubled_model, doubled_data)
        np.testing.assert_allclose(g2[0::3], 2 * g[0::3], rtol=1e-12)
        np.testing.assert_allclose(g2[1::3], 4 * g[1::3], rtol=1e-12)
        np.testing.assert_allclose(g2[2::3], 4 * g[2::3], rtol=1e-12)
        np.testing.assert_allclose(g2, fd2, rtol=1e-5)


class TestInitHeuristic:
    def test_reference_peaks_land_near_truth(self, guangzhou, milan):
        # the picks follow the data, not fixed period windows: Milan's
        # afternoon component peaks at 11.8 h; every start lies within 2.5 h
        # of its generating peak (at most 0.9 h and 2.2 h off here)
        for truth in (guangzhou, milan):
            start = init_heuristic(generate_synthetic(truth, 2, 0.0, seed=0))
            for comp in ComponentId:
                assert abs(start[comp].peak_time - truth[comp].peak_time) <= 2.5, comp

    def test_all_zero_data(self):
        data = TrafficSeries(np.zeros(168), 0)
        start = init_heuristic(data)
        for comp in ComponentId:
            assert start[comp].peak_rate == 0.0
            assert start[comp].peak_time == 6.0

    def test_constant_data(self):
        # the first pick is the earliest hour, the second the hour the first
        # bump reaches least, and the third lies between them
        level = 37.5
        data = TrafficSeries(np.full(168, level), 0)
        start = init_heuristic(data)
        pick_hours = {"morning": 6.0, "afternoon": 14.0, "evening": 23.0}
        for comp in ComponentId:
            assert start[comp].peak_rate == pytest.approx(level, rel=1e-3)
            assert start[comp].peak_time == pick_hours[comp.period.value]
            assert start[comp].variance == 4.0

    def test_requires_full_week(self):
        with pytest.raises(SeriesTooShortError):
            init_heuristic(TrafficSeries(np.ones(167), 0))

    def test_night_mass_seeds_no_start_before_six(self):
        # mass at 02:00 is the evening's spill past midnight, not a peak
        # of its own: no pick is made before 06:00
        values = np.zeros(168)
        values[2::24] = 10.0
        start = init_heuristic(TrafficSeries(values, 0))
        for comp in ComponentId:
            assert start[comp].peak_time == 6.0
            assert start[comp].peak_rate == 0.0
        # with mass at 23:00 as well, the first pick takes it all and the
        # later two land on the same hour with nothing left
        values[23::24] = 10.0
        start = init_heuristic(TrafficSeries(values, 0))
        rates = [start[comp].peak_rate for comp in (ComponentId.MW, ComponentId.AW, ComponentId.EW)]
        assert [start[comp].peak_time for comp in ComponentId] == [23.0] * 9
        assert rates == [10.0, 0.0, 0.0]


@settings(max_examples=50, deadline=None)
@given(
    n_hours=st.integers(168, 600),
    start=st.integers(0, 10**6),
    seed=st.integers(0, 2**32 - 1),
    whole=st.booleans(),
)
def test_init_heuristic_matches_masked_means(n_hours, start, seed, whole):
    # whole-number traffic makes exact ties between hours common, so the
    # earliest-argmax rule is exercised
    values = np.random.default_rng(seed).uniform(0.0, 1000.0, n_hours)
    if whole:
        values = np.floor(values / 100.0)
    data = TrafficSeries(values, start)
    got, expected = init_heuristic(data), naive_init_heuristic(data)
    for comp in ComponentId:
        assert got[comp].peak_time == expected[comp].peak_time, comp
        assert got[comp].peak_rate == pytest.approx(expected[comp].peak_rate, rel=1e-12, abs=0.0)
        assert got[comp].variance == 4.0


class TestFitConfig:
    def test_defaults(self):
        config = FitConfig()
        assert config.max_iterations == 5000
        assert config.relative_tolerance == 1e-8
        assert config.method == "lm"

    def test_validation(self):
        with pytest.raises(ValueError):
            FitConfig(max_iterations=0)
        with pytest.raises(ValueError, match="max_iterations"):
            FitConfig(max_iterations=2.5)
        assert type(FitConfig(max_iterations=2.0).max_iterations) is int
        for max_iterations in (float("nan"), float("inf"), "3"):
            with pytest.raises(ValueError, match="max_iterations"):
                FitConfig(max_iterations=max_iterations)
        # the relative drop of J lies in [0, 1], so a tolerance of 1 or more stops at once
        for tolerance in (0.0, 1.0, float("inf")):
            with pytest.raises(ValueError, match="relative_tolerance"):
                FitConfig(relative_tolerance=tolerance)
        for tolerance in ("0.1", None):
            with pytest.raises(ValueError, match="relative_tolerance must be a number"):
                FitConfig(relative_tolerance=tolerance)
        tolerance = FitConfig(relative_tolerance=np.float32(0.1)).relative_tolerance
        assert type(tolerance) is float and tolerance == float(np.float32(0.1))
        with pytest.raises(ValueError, match="method"):
            FitConfig(method="newton")


class TestFitReport:
    def test_rejects_increasing_trace(self, guangzhou):
        with pytest.raises(ValueError, match="non-increasing"):
            FitReport(
                model=guangzhou,
                objective_trace=np.array([1.0, 2.0]),
                stop_reason="tolerance",
            )

    def test_rejects_empty_trace(self, guangzhou):
        with pytest.raises(ValueError, match="non-empty"):
            FitReport(guangzhou, np.array([]), "tolerance")


class TestFit:
    def test_recovers_noiseless_reference(self, guangzhou):
        data = generate_synthetic(guangzhou, 2, 0.0, seed=0)
        rng = np.random.default_rng(99)
        report = fit(data, FitConfig(), init=perturbed(guangzhou, rng))
        assert report.converged
        assert report.objective_trace[-1] < 1e-6 * report.objective_trace[0]
        for comp in ComponentId:
            truth, got = guangzhou[comp], report.model[comp]
            assert abs(got.peak_rate / truth.peak_rate - 1.0) < 0.01
            assert abs(got.peak_time - truth.peak_time) / truth.peak_time < 0.01
            assert abs(got.variance / truth.variance - 1.0) < 0.05

    def test_all_zero_data_fixed_point(self):
        data = TrafficSeries(np.zeros(336), 0)
        report = fit(data)
        assert report.converged
        assert report.objective_trace[-1] == 0.0
        for comp in ComponentId:
            assert report.model[comp].peak_rate == 0.0

    def test_trace_monotone_even_without_convergence(self, guangzhou):
        data = generate_synthetic(guangzhou, 1, 300.0, seed=5)
        report = fit(data, FitConfig(max_iterations=40, method="gd"))
        assert not report.converged
        assert report.iterations == 40
        assert np.all(np.diff(report.objective_trace) <= 0.0)

    def test_lm_trace_monotone_even_without_convergence(self, guangzhou):
        data = generate_synthetic(guangzhou, 1, 300.0, seed=5)
        report = fit(data, FitConfig(max_iterations=3))
        assert not report.converged
        assert report.iterations == 3
        assert np.all(np.diff(report.objective_trace) <= 0.0)

    def test_trace_starts_at_init_objective(self, guangzhou):
        data = generate_synthetic(guangzhou, 1, 100.0, seed=6)
        init = init_heuristic(data)
        report = fit(data, FitConfig(max_iterations=10))
        assert report.objective_trace[0] == pytest.approx(objective(init, data), rel=1e-12)

    def test_deterministic_reports(self, guangzhou):
        data = generate_synthetic(guangzhou, 2, 120.0, seed=8)
        config = FitConfig(max_iterations=200)
        first = fit(data, config)
        second = fit(data, config)
        assert first.model == second.model
        assert np.array_equal(first.objective_trace, second.objective_trace)
        assert first.iterations == second.iterations
        assert first.converged == second.converged

    def test_constraints_hold_on_output(self, guangzhou):
        data = generate_synthetic(guangzhou, 1, 800.0, seed=9)
        report = fit(data, FitConfig(max_iterations=300))
        for comp in ComponentId:
            params = report.model[comp]
            assert params.peak_rate >= 0.0
            assert params.variance > 0.0
            assert 0.0 <= params.peak_time < 24.0

    @pytest.mark.parametrize("method", ["lm", "gd"])
    def test_model_reproduces_final_objective(self, guangzhou, method):
        # an evening peak near midnight: had peak times been wrapped into
        # [0, 24) only on output, the returned model would sit on other days
        components = dict(guangzhou.components)
        ew = components[ComponentId.EW]
        components[ComponentId.EW] = ComponentParams(ew.peak_rate, 23.9, ew.variance)
        truth = WeeklyModel(components)
        noise = 0.05 * float(predict_series(truth, 168).values.max())
        data = generate_synthetic(truth, 2, noise, seed=0)
        report = fit(data, FitConfig(method=method))
        assert objective(report.model, data) == pytest.approx(
            report.objective_trace[-1], rel=1e-9
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_late_evening_peaks_reach_the_truth_basin(self, guangzhou, seed):
        # evening peaks just before midnight reach the truth's basin only
        # from evening starts; a start at 0 h sticks on the lower bound
        components = dict(guangzhou.components)
        for comp, time_ in ((ComponentId.EW, 23.8), (ComponentId.ESU, 23.3)):
            params = components[comp]
            components[comp] = ComponentParams(params.peak_rate, time_, params.variance)
        truth = WeeklyModel(components)
        noise = 0.05 * float(predict_series(truth, 168).values.max())
        data = generate_synthetic(truth, 2, noise, seed=seed)
        assert fit(data).objective_trace[-1] <= objective(truth, data)

    @pytest.mark.parametrize("offset", [0, 5, 167, 2**70], ids=["0", "5", "167", "2**70"])
    def test_start_of_any_size(self, guangzhou, offset):
        # past 2**63 the start no longer fits numpy's int64; only its week slot matters
        values = generate_synthetic(guangzhou, 1, 100.0, seed=4).values
        start = 2**63 + offset
        for config in (FitConfig(), FitConfig(max_iterations=20, method="gd")):
            far = fit(TrafficSeries(values, start), config)
            near = fit(TrafficSeries(values, start % 168), config)
            assert far.model == near.model
            assert np.array_equal(far.objective_trace, near.objective_trace)
            assert far.stop_reason == near.stop_reason

    def test_rejects_short_series(self):
        short = TrafficSeries(np.ones(100), 0)
        with pytest.raises(SeriesTooShortError) as from_fit:
            fit(short)
        with pytest.raises(SeriesTooShortError) as from_init:
            init_heuristic(short)
        assert str(from_fit.value) == str(from_init.value)

    def test_overflowing_objective_raises_without_warning(self):
        # J overflows in each; the start is read from the data divided by
        # its maximum, so it stays finite where the traffic's own sums do not
        overflowing = TrafficSeries(np.full(168, 1e308), 0)
        for values in (np.random.default_rng(0).uniform(0.0, 1e300, 336), np.full(336, 1.7e308)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(WeekfitError, match="J overflows"):
                    fit(TrafficSeries(values, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            start = init_heuristic(overflowing)
            with pytest.raises(WeekfitError, match="J overflows"):
                fit(overflowing)
        for comp in ComponentId:
            assert 0.0 < start[comp].peak_rate <= 1e308

    @pytest.mark.parametrize(
        "call",
        [
            # two readings of 1e308 in one hour
            lambda: aggregate_hourly(
                Readings([datetime(2024, 1, 1, 0, 0), datetime(2024, 1, 1, 0, 30)], [1e308, 1e308])
            ),
            lambda: predict_series(_HUGE, 168),
            lambda: weekly_value(_HUGE, WeekClock(3, 12.0)),
            lambda: generate_synthetic(_HUGE, 1, 0.0, seed=0),
            lambda: generate_synthetic(bundled_model("guangzhou"), 1, 1e308, seed=0),
        ],
        ids=["aggregate_hourly", "predict_series", "weekly_value", "generate_synthetic",
             "generate_synthetic-noise"],
    )
    def test_overflowing_producer_raises_without_warning(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(WeekfitError, match="overflows"):
                call()


class TestStopReason:
    def test_tolerance(self, guangzhou):
        data = generate_synthetic(guangzhou, 2, 0.0, seed=0)
        report = fit(data)
        assert report.stop_reason == "tolerance"
        assert report.converged

    def test_constant_traffic_stops_at_the_objective_floor(self):
        # scaled J falls below the 1e-12 floor of the relative drop, after which
        # each step's drop would stay above the tolerance to max_iterations (5,000)
        report = fit(TrafficSeries(np.full(168, 37.5), 0))
        assert report.stop_reason == "tolerance"
        assert report.iterations < 1000

    @pytest.mark.parametrize("method", ["lm", "gd"])
    def test_max_iterations(self, guangzhou, method):
        data = generate_synthetic(guangzhou, 1, 300.0, seed=5)
        report = fit(data, FitConfig(max_iterations=3, method=method))
        assert report.stop_reason == "max_iterations"
        assert not report.converged
        assert report.iterations == 3

    @pytest.mark.parametrize(
        "method, reason", [("lm", "damping_exhausted"), ("gd", "line_search_exhausted")]
    )
    def test_no_acceptable_trial(self, guangzhou, monkeypatch, method, reason):
        # every point after the start evaluates to NaN, so no trial is accepted
        data = generate_synthetic(guangzhou, 1, 300.0, seed=5)
        real = estimator._SlotProblem.at_vector
        calls = []

        def nan_after_start(self, x):
            point = real(self, x)
            if calls:
                point.value = float("nan")
            calls.append(x)
            return point

        monkeypatch.setattr(estimator._SlotProblem, "at_vector", nan_after_start)
        report = fit(data, FitConfig(method=method))
        assert report.stop_reason == reason
        assert not report.converged
        assert report.iterations == 0
        assert len(calls) > 2

    def test_rejects_unknown_reason(self, guangzhou):
        with pytest.raises(ValueError, match="stop_reason"):
            FitReport(guangzhou, np.array([1.0]), "converged")


def test_lm_wastes_few_trials(guangzhou, milan, monkeypatch):
    # gain-ratio damping rejects few trial steps: about 1.2 objective
    # evaluations per LM iteration on these fits, against about 1.66 under a
    # tenfold up/down damping schedule
    real = estimator._SlotProblem.at_vector
    evaluations = 0

    def counted(self, x):
        nonlocal evaluations
        evaluations += 1
        return real(self, x)

    monkeypatch.setattr(estimator._SlotProblem, "at_vector", counted)
    iterations = 0
    for truth in (guangzhou, milan):
        noise = 0.05 * float(predict_series(truth, 168).values.max())
        for seed in range(8):
            iterations += fit(generate_synthetic(truth, 2, noise, seed=seed)).iterations
    assert evaluations / iterations <= 1.35


def test_write_trace_csv(tmp_path):
    path = tmp_path / "trace.csv"
    write_trace_csv(np.array([4.0, 2.0, 0.1]), path)
    assert path.read_bytes() == b"iteration,J\r\n0,4.0\r\n1,2.0\r\n2,0.1\r\n"


@pytest.mark.parametrize("seed", range(3))
def test_lm_reaches_gd_objective(guangzhou, seed):
    # the relative-accuracy datasets of the acceptance suite
    noise = 0.05 * float(predict_series(guangzhou, 168).values.max())
    data = generate_synthetic(guangzhou, 4, noise, seed=seed)
    train, _ = split(data, SplitSpec(train_weeks=2))
    finals = {}
    for method in ("lm", "gd"):
        config = FitConfig(max_iterations=20000, relative_tolerance=1e-12, method=method)
        finals[method] = fit(train, config).objective_trace[-1]
    assert finals["lm"] <= finals["gd"] * (1.0 + 1e-6)


@pytest.mark.parametrize("method", ["lm", "gd"])
@pytest.mark.parametrize("city", ["guangzhou", "milan"])
@pytest.mark.parametrize("seed", range(3))
def test_default_start_is_init_heuristic(request, city, seed, method):
    # fit builds its default start as arrays; it must be the public start
    truth = request.getfixturevalue(city)
    noise = 0.05 * float(predict_series(truth, 168).values.max())
    data = generate_synthetic(truth, 2, noise, seed=seed)
    config = FitConfig(method=method)
    default, explicit = fit(data, config), fit(data, config, init=init_heuristic(data))
    assert np.array_equal(default.objective_trace, explicit.objective_trace)
    assert default.model == explicit.model
    assert default.stop_reason == explicit.stop_reason


@pytest.mark.parametrize("method", ["lm", "gd"])
def test_zero_weekend_rates_stay_on_the_bound(guangzhou, method):
    # rates pinned at 0 freeze coordinates in most LM steps (11 of 12 at
    # this seed), so the damped system is smaller than the full one
    weekend = {c for c in ComponentId if c.category is not DayCategory.WEEKDAY}
    truth = WeeklyModel(
        {
            comp: ComponentParams(0.0, p.peak_time, p.variance) if comp in weekend else p
            for comp, p in guangzhou.components.items()
        }
    )
    noise = 1.0 + 0.01 * np.random.default_rng(0).standard_normal(336)
    data = TrafficSeries(np.maximum(predict_series(truth, 336).values * noise, 0.0), 0)
    report = fit(data, FitConfig(method=method))
    for comp in (ComponentId.MSU, ComponentId.ASU, ComponentId.ESU):
        assert report.model[comp].peak_rate == 0.0, comp
    assert np.all(np.diff(report.objective_trace) <= 0.0)
    assert report.objective_trace[-1] <= objective(truth, data)


def _stuck_fits(cases) -> int:
    """How many default fits of (truth, data) pairs end above 1.05 J(truth)."""
    return sum(fit(data).objective_trace[-1] > 1.05 * objective(truth, data) for truth, data in cases)


def test_milan_fits_reach_the_truth_basin(milan):
    # Milan's afternoon component peaks at 11.8 h, inside the hours a fixed
    # morning window would search; the start must follow the data there.
    # The greedy start leaves 0 of these 60 fits stuck, a start from fixed
    # period windows ([6, 14), [14, 19), [19, 24)) left 10
    noise = 0.01 * float(predict_series(milan, 168).values.max())
    cases = [(milan, generate_synthetic(milan, 2, noise, seed=seed)) for seed in range(60)]
    assert _stuck_fits(cases) <= 2


def test_perturbed_grid_gets_no_more_stuck_fits(guangzhou, milan):
    # 128 cells, each a +-10 % perturbation of Guangzhou or Milan observed
    # for 2 weeks with noise of 1-10 % of its peak; the fixed-window start
    # left 4 of them stuck, the greedy start 3
    grid, draws = np.random.default_rng(2015), np.random.default_rng(13)
    cases = []
    for k in range(128):
        truth = perturbed((guangzhou, milan)[k % 2], grid)
        noise = grid.uniform(0.01, 0.10) * float(predict_series(truth, 168).values.max())
        cases.append((truth, generate_synthetic(truth, 2, noise, int(draws.integers(2**32)))))
    assert _stuck_fits(cases) <= 4
