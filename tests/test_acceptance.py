"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line with the measured margin (run with
``pytest tests/test_acceptance.py -v -s`` to see them).
"""

import time

import numpy as np

from weekfit import (
    BaselineKind,
    ComponentId,
    FitConfig,
    SplitSpec,
    WeekClock,
    baseline_predict,
    bundled_model,
    fit,
    generate_synthetic,
    gradient,
    mae,
    mse,
    predict_series,
    r2,
    rmse,
    sigma_interval,
    split,
    week_clock_at,
    weekly_value,
)
from weekfit.cli import main

from conftest import perturbed, random_model, random_series, recovery_model
from oracles import (
    finite_difference_gradient,
    naive_mae,
    naive_mse,
    naive_r2,
    naive_rmse,
    naive_weekly_value,
)

ACCEPT_CONFIG = FitConfig(max_iterations=20000, relative_tolerance=1e-12)


def test_gradient_correctness():
    """Analytic gradient vs central differences: 100 random pairs, <1e-5, <30s."""
    started = time.perf_counter()
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(100):
        model = random_model(rng)
        data = random_series(rng, 168)
        analytic = gradient(model, data)
        numeric = finite_difference_gradient(model, data, h=1e-5)
        floor = 1e-6 * np.max(np.abs(analytic))
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
        assert worst < 1e-5
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"PASS gradient-correctness: worst rel err {worst:.2e} over 100 pairs in {elapsed:.1f}s")


def test_brute_force_equivalence():
    """weekly_value vs the naive 63-term loop: 1e4 random pairs, <1e-12 relative."""
    rng = np.random.default_rng(31415)
    worst = 0.0
    for _ in range(10_000):
        model = random_model(rng)
        day = int(rng.integers(1, 8))
        hour = float(rng.uniform(0.0, 24.0))
        ours = weekly_value(model, WeekClock(day, hour))
        reference = naive_weekly_value(model, day, hour)
        if reference != 0.0:
            worst = max(worst, abs(ours - reference) / reference)
    assert worst < 1e-12
    print(f"PASS brute-force-equivalence: worst rel err {worst:.2e} over 10000 pairs")


def test_parameter_recovery_noiseless(guangzhou):
    """Perturbed-init fit on noiseless reference data: 1%/1%/5%, J drop 1e-6, <10s."""
    data = generate_synthetic(guangzhou, 2, 0.0, seed=0)
    rng = np.random.default_rng(7)
    init = perturbed(guangzhou, rng, 0.1)
    started = time.perf_counter()
    report = fit(data, ACCEPT_CONFIG, init=init)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    assert report.objective_trace[-1] < 1e-6 * report.objective_trace[0]
    worst_rate = worst_time = worst_var = 0.0
    for comp in ComponentId:
        truth, got = guangzhou[comp], report.model[comp]
        worst_rate = max(worst_rate, abs(got.peak_rate / truth.peak_rate - 1.0))
        worst_time = max(worst_time, abs(got.peak_time - truth.peak_time) / truth.peak_time)
        worst_var = max(worst_var, abs(got.variance / truth.variance - 1.0))
    assert worst_rate < 0.01
    assert worst_time < 0.01
    assert worst_var < 0.05
    print(
        "PASS parameter-recovery-noiseless: "
        f"J ratio {report.objective_trace[-1] / report.objective_trace[0]:.1e}, "
        f"errors rate {worst_rate:.1e} time {worst_time:.1e} var {worst_var:.1e}, "
        f"{elapsed:.1f}s"
    )


def test_parameter_recovery_noisy():
    """Heuristic-init fits under 5%-of-peak noise: peak times within 0.25h, >=9/10 seeds.

    The generating model keeps every component well identified over two
    weeks (see conftest.recovery_model); the reference city parameters put
    the information limit for the evening peak times above 0.25h, so they
    cannot back this criterion for any estimator.
    """
    truth = recovery_model()
    noise = 0.05 * float(predict_series(truth, 168).values.max())
    successes = 0
    worst_overall = 0.0
    for seed in range(10):
        data = generate_synthetic(truth, 2, noise, seed=seed)
        report = fit(data, ACCEPT_CONFIG)
        worst = max(abs(report.model[c].peak_time - truth[c].peak_time) for c in ComponentId)
        worst_overall = max(worst_overall, worst)
        if worst <= 0.25:
            successes += 1
    assert successes >= 9
    print(
        f"PASS parameter-recovery-noisy: {successes}/10 seeds within 0.25h "
        f"(worst deviation {worst_overall:.3f}h)"
    )


def test_monotone_convergence(guangzhou):
    """Objective trace never increases, across a diverse batch of fits.

    (FitReport construction also rejects increasing traces, so every other
    fit in this suite enforces the same contract.)
    """
    rng = np.random.default_rng(99)
    datasets = [
        generate_synthetic(guangzhou, 2, 0.0, seed=1),
        generate_synthetic(guangzhou, 2, 250.0, seed=2),
        generate_synthetic(recovery_model(), 1, 400.0, seed=3),
        random_series(rng, 336),
    ]
    configs = [FitConfig(max_iterations=300), FitConfig(max_iterations=50, method="gd")]
    checked = 0
    for data in datasets:
        for config in configs:
            report = fit(data, config)
            assert np.all(np.diff(report.objective_trace) <= 0.0)
            checked += 1
    print(f"PASS monotone-convergence: {checked} fits, all traces non-increasing")


def test_interpretability_golden(guangzhou):
    """One-sigma interval ends match the published reading of the reference set."""
    six_minutes = 0.1
    fifteen_minutes = 0.25
    expectations = {
        ComponentId.MW: 13.0 + 55.0 / 60.0,
        ComponentId.AW: 19.0 + 20.0 / 60.0,
        ComponentId.EW: 24.0 + 45.0 / 60.0,
    }
    for comp, expected_high in expectations.items():
        _, high = sigma_interval(guangzhou[comp])
        assert abs(high - expected_high) <= six_minutes, comp
    low, _ = sigma_interval(guangzhou[ComponentId.MW])
    assert abs(low - (10.0 + 15.0 / 60.0)) <= fifteen_minutes
    print(
        "PASS interpretability-golden: mw/aw/ew interval ends at "
        + ", ".join(
            f"{sigma_interval(guangzhou[c])[1]:.3f}h" for c in expectations
        )
        + f"; mw lower {low:.3f}h"
    )


def test_metric_identities():
    """Perfect prediction, exact mean-predictor zero, and oracle agreement."""
    rng = np.random.default_rng(1234)
    actual = rng.uniform(0.0, 5000.0, 1000)
    assert mse(actual, actual) == 0.0
    assert rmse(actual, actual) == 0.0
    assert mae(actual, actual) == 0.0
    assert r2(actual, actual) == 1.0
    mean_prediction = np.full_like(actual, np.mean(actual))
    assert r2(actual, mean_prediction) == 0.0
    predicted = rng.uniform(0.0, 5000.0, 1000)
    checks = [
        (mse, naive_mse),
        (rmse, naive_rmse),
        (mae, naive_mae),
        (r2, naive_r2),
    ]
    worst = 0.0
    for ours, reference in checks:
        a, b = ours(actual, predicted), reference(actual, predicted)
        worst = max(worst, abs(a - b) / abs(b))
    assert worst < 1e-12
    print(f"PASS metric-identities: oracle agreement worst rel err {worst:.2e}")


def test_relative_accuracy(guangzhou):
    """Fitted model beats the seasonal naive and lands near the noise floor."""
    noise = 0.05 * float(predict_series(guangzhou, 168).values.max())
    successes = 0
    ratios = []
    for seed in range(10):
        data = generate_synthetic(guangzhou, 4, noise, seed=seed)
        train, test = split(data, SplitSpec(train_weeks=2))
        report = fit(train, ACCEPT_CONFIG)
        week, clock = week_clock_at(test.start)
        prediction = predict_series(report.model, len(test), week, clock)
        fitted_mse = mse(test.values, prediction.values)
        naive = baseline_predict(BaselineKind.SEASONAL_NAIVE, train, len(test))
        naive_mse_value = mse(test.values, naive.values)
        ratio = fitted_mse / noise**2
        ratios.append(ratio)
        if fitted_mse < naive_mse_value and 0.8 <= ratio <= 1.5:
            successes += 1
    assert successes >= 9
    print(
        f"PASS relative-accuracy: {successes}/10 seeds, fitted MSE/s^2 in "
        f"[{min(ratios):.2f}, {max(ratios):.2f}]"
    )


def test_end_to_end_determinism(tmp_path, capsys):
    """synth | fit | evaluate twice: byte-identical files and stdout."""
    from weekfit.dataio import save_model

    model_path = tmp_path / "truth.json"
    save_model(bundled_model("guangzhou"), model_path)
    outputs = []
    for run in ("first", "second"):
        base = tmp_path / run
        base.mkdir()
        data, fitted, trace = base / "data.csv", base / "fit.json", base / "trace.csv"
        assert main(["synth", "--model", str(model_path), "--weeks", "3",
                     "--noise", "120", "--seed", "17", "--out", str(data)]) == 0
        assert main(["fit", "--input", str(data), "--train-weeks", "2",
                     "--out", str(fitted), "--trace", str(trace),
                     "--max-iterations", "2000", "--tolerance", "1e-10"]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--model", str(fitted), "--input", str(data),
                     "--train-weeks", "2", "--json"]) == 0
        outputs.append(
            (
                data.read_bytes(),
                fitted.read_bytes(),
                trace.read_bytes(),
                capsys.readouterr().out,
            )
        )
    assert outputs[0] == outputs[1]
    print("PASS end-to-end-determinism: synth/fit/evaluate outputs byte-identical")
