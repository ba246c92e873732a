"""Per-layer figures of a traced run, and the fixed probe that fills them in.

The probe runs after the traced workload loop and calls every layer.  A
per-layer figure is taken from the workload's own spans when the
workload makes that call, and from these probe spans otherwise, so every
traced run reports every layer.  Probe inputs use fixed seeds and do not
depend on the workload seed, except that ``cli-year`` hands over its own
dataset and 50-week training window so that its in-process and subprocess
command times are measured on the same input.
"""

from __future__ import annotations

import contextlib
import io
from datetime import datetime, timedelta

import weekfit as wf
from weekfit import cli

from common import median, run_python, time_bound
from workloads import COMMANDS, prepare_roundtrip, roundtrip

PROBE_BOUND_S = 120.0
IMPORT_CODE = (
    "import time; t = time.perf_counter(); import weekfit.cli; "
    "print(time.perf_counter() - t)"
)

LAYER_SPANS = [
    # (metric, unit, span name, scale)
    ("estimator.objective_us", "us", "estimator.objective", 1e6),
    ("estimator.gradient_us", "us", "estimator.gradient", 1e6),
    ("estimator.init_heuristic_ms", "ms", "estimator.init_heuristic", 1e3),
    ("model.predict_series_us", "us", "model.predict_series", 1e6),
    ("model.generate_synthetic_ms", "ms", "model.generate_synthetic", 1e3),
    ("dataio.load_csv_s", "s", "dataio.load_csv", 1.0),
    ("dataio.aggregate_hourly_s", "s", "dataio.aggregate_hourly", 1.0),
    ("dataio.write_series_csv_s", "s", "dataio.write_series_csv", 1.0),
    ("dataio.write_timestamp_csv_s", "s", "dataio.write_timestamp_csv", 1.0),
    ("dataio.load_model_ms", "ms", "dataio.load_model", 1e3),
    ("metrics.eval_report_us", "us", "metrics.eval_report", 1e6),
    ("baselines.predict_us", "us", "baselines.predict", 1e6),
]
LAYER_SPANS += [(f"cli.{c}_s", "s", f"cli.{c}", 1.0) for c in COMMANDS]
LAYER_SPANS += [(f"cli.main_{c}_s", "s", f"cli.main_{c}", 1.0) for c in COMMANDS]


def layer_metrics(workload, traced, probe, probed: dict) -> dict:
    """Per-layer figures: the workload's own spans where it makes the call, else the probe's."""
    out = {}
    for metric, unit, span, scale in LAYER_SPANS:
        own = traced.durations(span)
        out[metric] = (median(own or probe.durations(span)) * scale, unit)
    for step in ("load_csv", "aggregate_hourly"):
        own = bool(traced.durations(f"dataio.{step}"))
        rows = workload.csv_rows if own else probed["csv_rows"]
        out[f"dataio.{step}_rows_per_s"] = (rows / out[f"dataio.{step}_s"][0], "1/s")
    iterations, seconds, converged = workload.fit_stats() or probed["fit"]
    out["estimator.iterations_p50"] = (median(iterations), "count")
    out["estimator.s_per_iteration"] = (sum(seconds) / max(sum(iterations), 1), "s")
    out["estimator.converged_frac"] = (sum(converged) / len(converged), "ratio")
    out["cli.import_s"] = (probed["import_s"], "s")
    return out


def repeat(tracer, name: str, times: int, call):
    result = None
    for _ in range(times):
        with tracer.span(name):
            result = call()
    return result


def run_probe(tracer, workload, workdir, smoke: bool) -> dict:
    """Calls every layer under ``tracer``; returns the figures spans cannot give."""
    tracer.op = "probe"
    with time_bound(PROBE_BOUND_S):
        return _probe(tracer, workload, workdir, smoke)


def _probe(tracer, workload, workdir, smoke: bool) -> dict:
    many, few = (20, 2) if smoke else (200, 5)
    truth = wf.bundled_model("guangzhou")
    fortnight = wf.generate_synthetic(truth, 2, 200.0, 0)
    train, test = fortnight.window(0, wf.HOURS_PER_WEEK), fortnight.window(wf.HOURS_PER_WEEK, 336)

    repeat(tracer, "estimator.objective", many, lambda: wf.objective(truth, fortnight))
    repeat(tracer, "estimator.gradient", many, lambda: wf.gradient(truth, fortnight))
    repeat(tracer, "estimator.init_heuristic", few, lambda: wf.init_heuristic(fortnight))
    fit_series = workload.reference_fit_series()
    if fit_series is None:
        fit_series = fortnight
    report = repeat(tracer, "estimator.fit", 1, lambda: wf.fit(fit_series))

    prediction = repeat(tracer, "model.predict_series", many,
                        lambda: wf.predict_series(truth, len(test), 1, wf.WeekClock(1, 0.0)))
    year = repeat(tracer, "model.generate_synthetic", few,
                  lambda: wf.generate_synthetic(truth, 52, 200.0, 0))
    for kind in wf.BaselineKind:
        repeat(tracer, "baselines.predict", many // 2,
               lambda: wf.baseline_predict(kind, train, len(test)))
    repeat(tracer, "metrics.eval_report", many,
           lambda: wf.EvalReport.from_predictions(test.values, prediction.values))

    model_path = workdir / "probe-model.json"
    wf.save_model(truth, model_path)
    repeat(tracer, "dataio.load_model", many // 4, lambda: wf.load_model(model_path))
    repeat(tracer, "dataio.write_series_csv", few,
           lambda: wf.write_series_csv(prediction, workdir / "probe-series.csv"))
    repeat(tracer, "dataio.write_timestamp_csv", few,
           lambda: wf.write_timestamp_csv(year, workdir / "probe-year.csv"))
    minute_path, minute_rows = _minute_file(workdir / "probe-minutes.csv", fortnight)
    records = repeat(tracer, "dataio.load_csv", few, lambda: wf.load_csv(minute_path))
    repeat(tracer, "dataio.aggregate_hourly", few, lambda: wf.aggregate_hourly(records))

    imports = []
    for _ in range(few):
        status, out, _ = run_python(["-c", IMPORT_CODE], workdir, 60.0)
        if status != 0:
            raise RuntimeError("import weekfit.cli failed in a fresh interpreter")
        imports.append(float(out))

    commands = getattr(workload, "commands", None)
    if commands is None:
        base = workdir / "probe-cli"
        commands = roundtrip(base, *prepare_roundtrip(base, smoke), seed=0)
        for cmd, args in commands:
            with tracer.span(f"cli.{cmd}"):
                status, _, _ = run_python(["-m", "weekfit.cli", *args], workdir, 60.0)
            if status != 0:
                raise RuntimeError(f"weekfit {cmd} exited with status {status}")
    for cmd, args in commands:
        with tracer.span(f"cli.main_{cmd}"), contextlib.redirect_stdout(io.StringIO()):
            status = cli.main(args)
        if status != 0:
            raise RuntimeError(f"weekfit.cli.main({cmd}) returned {status}")

    return {
        "fit": ([report.iterations], tracer.durations("estimator.fit"), [report.converged]),
        "import_s": median(imports),
        "csv_rows": minute_rows,
    }


def _minute_file(path, series) -> tuple:
    """One week of the series spread evenly over minutes, in ingestion format."""
    first = datetime(2024, 1, 1)
    rows = []
    for hour, value in enumerate(series.values[: wf.HOURS_PER_WEEK].tolist()):
        for minute in range(60):
            stamp = first + timedelta(hours=hour, minutes=minute)
            rows.append(f"{stamp.isoformat()},{value / 60.0!r}\n")
    with open(path, "w") as handle:
        handle.write("timestamp,value\n")
        handle.writelines(rows)
    return path, len(rows)
