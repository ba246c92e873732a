"""The three benchmark workloads: fit-cells, ingest-score and cli-year.

Each workload prepares its inputs from the seed before anything is timed,
hands them out one at a time from ``items()`` (generation between
operations is not timed), runs one operation in ``run()`` (timed), checks
its outputs in ``check()`` (not timed) and keeps its own samples in
``observe()``.  ``report()`` turns the samples into the end-to-end metrics
every workload prints, plus the workload's own named figures.

Spans are opened around each call into a weekfit layer, from outside the
package; nothing inside ``src/`` is instrumented.
"""

from __future__ import annotations

import csv
import io
import math
import time
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
import weekfit as wf

import hostspeed
from common import beyond, median, percentile, run_python

WEEK = wf.HOURS_PER_WEEK
CLI_TIMEOUT_S = 30.0


class CheckFailed(Exception):
    """An output differs from what the benchmark computed independently."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def perturbed(model, rng: np.random.Generator, fraction: float = 0.1):
    """Every parameter moved by at most ``fraction`` relative (peak times kept below 24)."""
    return wf.WeeklyModel({
        comp: wf.ComponentParams(
            peak_rate=model[comp].peak_rate * (1.0 + rng.uniform(-fraction, fraction)),
            peak_time=min(model[comp].peak_time * (1.0 + rng.uniform(-fraction, fraction)), 23.9),
            variance=model[comp].variance * (1.0 + rng.uniform(-fraction, fraction)),
        )
        for comp in wf.ComponentId
    })


def peak_of(model) -> float:
    return float(wf.predict_series(model, WEEK).values.max())


def timing_metrics(times: list[float]) -> dict:
    return {
        "op_p50_s": (median(times), "s"),
        "op_p90_s": (percentile(times, 90.0), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
    }


def scaling_lines(raw_name: str, times: list[float], scales: list[float]) -> list[tuple]:
    """Named lines for the unscaled median and the median scale factor."""
    raw = [t / k for t, k in zip(times, scales)]
    return [
        (raw_name, median(raw), "s", "unscaled, " + sample_note(raw)),
        ("host_speed_p50", median(scales), "x", "usual over measured time of the workload's reference"),
    ]


def sample_note(times: list[float], q: float | None = None) -> str:
    note = f"n={len(times)}"
    if q is not None:
        note += f", {beyond(times, q)} beyond"
    return note


class Workload:
    """Defaults: one in-process operation per item, bounded at 20 s, no fits of its own.

    Each workload names in ``slowness`` the reference (see ``hostspeed.py``)
    that its kind of work follows.  The loop divides each operation's time
    by the host's slowness measured just before and after it, and hands the
    factor to ``observe()`` for any time the workload took itself.
    """

    ops_per_item = 1
    bound_s: float | None = 20.0
    rss_of_children = False

    def fit_stats(self):
        """(iterations, seconds, converged) of the workload's own fits, if it fits in-process."""
        return None

    def reference_fit_series(self):
        """The series the probe fits when ``fit_stats`` is None; None for a fixed 2-week one."""
        return None


class FitCells(Workload):
    """Library ``weekfit.fit`` on many distinct 2-week hourly series."""

    name = "fit-cells"
    # The grid is one fixed synthetic city, as a real city grid is fixed:
    # each cell is a +-10 % perturbation of Guangzhou or Milan with a noise
    # level of 1-10 % of peak (0 % would make J at the truth zero), drawn
    # from GRID_SEED.  The workload seed draws the noise of each observed
    # fortnight.  Cells are visited in grid order, so every seed fits the
    # same mix of easy and hard cells; with the cells drawn from the
    # workload seed, that mix alone moved the median fit time by ~13 %.
    GRID_SEED = 2015
    GRID_CELLS = 128
    WEEKS = 2
    slowness = staticmethod(hostspeed.solver)

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.model_path = workdir / "cell.json"
        bases = [wf.bundled_model("guangzhou"), wf.bundled_model("milan")]
        rng = np.random.default_rng(self.GRID_SEED)
        self.cells = []
        for k in range(2 if smoke else self.GRID_CELLS):
            truth = perturbed(bases[k % 2], rng)
            self.cells.append((truth, float(rng.uniform(0.01, 0.10)) * peak_of(truth)))
        self.times: list[float] = []
        self.scales: list[float] = []
        self.iterations: list[int] = []
        self.converged: list[bool] = []
        self.ratios: list[float] = []

    def items(self):
        rng = np.random.default_rng(self.seed)
        while True:
            for truth, sigma in self.cells:
                series = wf.generate_synthetic(truth, self.WEEKS, sigma, int(rng.integers(2**32)))
                yield series, wf.objective(truth, series)

    def run(self, item, tracer):
        series, _ = item
        with tracer.span("estimator.fit"):
            return wf.fit(series)

    def check(self, item, report) -> int:
        trace = report.objective_trace
        require(bool(np.all(np.isfinite(trace))), "objective trace is not finite")
        require(bool(np.all(np.diff(trace) <= 0.0)), "objective trace increases")
        wf.save_model(report.model, self.model_path)
        require(wf.load_model(self.model_path) == report.model,
                "fitted model changed in a save_model/load_model round trip")
        return 0

    def observe(self, item, report, elapsed: float, scale: float) -> None:
        _, j_truth = item
        self.times.append(elapsed)
        self.scales.append(scale)
        self.iterations.append(report.iterations)
        self.converged.append(report.converged)
        self.ratios.append(float(report.objective_trace[-1]) / j_truth)

    def fit_stats(self):
        return self.iterations, self.times, self.converged

    def report(self):
        t = self.times
        metrics = timing_metrics(t)
        metrics["error_ratio_p50"] = (median(self.ratios), "ratio")
        named = [
            ("fit_p50_s", metrics["op_p50_s"][0], "s", sample_note(t)),
            ("fit_p90_s", metrics["op_p90_s"][0], "s", sample_note(t, 90.0)),
            ("fits_per_s", metrics["ops_per_s"][0], "1/s", sample_note(t)),
            ("fit_J_ratio_p50", median(self.ratios), "ratio", sample_note(t)),
        ] + scaling_lines("fit_p50_raw_s", t, self.scales)
        return metrics, named


class IngestScore(Workload):
    """Minute-level CSV files through ingestion, scoring against a saved model, and write-back."""

    name = "ingest-score"
    slowness = staticmethod(hostspeed.parse)
    POOL = 24
    WEEKS = 4
    SPEC = wf.SplitSpec(train_weeks=2)

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        rng = np.random.default_rng(seed)
        self.model = perturbed(wf.bundled_model(("guangzhou", "milan")[seed % 2]), rng)
        self.model_path = workdir / "model.json"
        wf.save_model(self.model, self.model_path)
        self.out_path = workdir / "prediction.csv"
        weeks = 3 if smoke else self.WEEKS
        n_hours = weeks * WEEK
        # The files start on a seeded weekday and hour, so the week clock
        # is taken from the timestamps rather than assumed to be Monday 00:00.
        first = datetime(2024, 1, 1) + timedelta(days=int(rng.integers(7)), hours=int(rng.integers(24)))
        self.start = first.weekday() * wf.HOURS_PER_DAY + first.hour
        stamps = [(first + timedelta(minutes=m)).isoformat() for m in range(n_hours * 60)]
        week, clock = wf.week_clock_at(self.start)
        clean = wf.predict_series(self.model, n_hours, week, clock).values
        test_clean = clean[self.SPEC.train_weeks * WEEK:]
        peak = peak_of(self.model)
        self.csv_rows = len(stamps)
        self.files = []
        for k in range(2 if smoke else self.POOL):
            sigma = float(rng.uniform(0.02, 0.10)) * peak
            hourly = np.maximum(clean + rng.normal(0.0, sigma, n_hours), 0.0)
            minutes = hourly[:, None] * rng.dirichlet(np.full(60, 20.0), size=n_hours)
            path = workdir / f"minutes-{k:02d}.csv"
            with open(path, "w") as handle:
                handle.write("timestamp,value\n")
                handle.writelines(f"{s},{v!r}\n" for s, v in zip(stamps, minutes.ravel().tolist()))
            # add.accumulate sums each hour left to right, in timestamp order
            sums = np.cumsum(minutes, axis=1)[:, -1]
            truth_mse = float(np.mean((sums[-len(test_clean):] - test_clean) ** 2))
            self.files.append((path, sums, truth_mse))
        self.times: list[float] = []
        self.scales: list[float] = []
        self.ingest_seconds: list[float] = []
        self.ratios: list[float] = []

    def items(self):
        while True:
            yield from self.files

    def run(self, item, tracer):
        path, _, _ = item
        started = time.perf_counter()
        with tracer.span("dataio.load_csv"):
            records = wf.load_csv(path)
        with tracer.span("dataio.aggregate_hourly"):
            series = wf.aggregate_hourly(records, self.SPEC)
        ingested = time.perf_counter()
        with tracer.span("dataio.split"):
            train, test = wf.split(series, self.SPEC)
        with tracer.span("dataio.load_model"):
            model = wf.load_model(self.model_path)
        with tracer.span("model.predict_series"):
            week, clock = wf.week_clock_at(test.start)
            prediction = wf.predict_series(model, len(test), week, clock)
        with tracer.span("metrics.eval_report"):
            report = wf.EvalReport.from_predictions(test.values, prediction.values)
        scored = [(prediction, report)]
        for kind in wf.BaselineKind:
            with tracer.span("baselines.predict"):
                forecast = wf.baseline_predict(kind, train, len(test))
            with tracer.span("metrics.eval_report"):
                scored.append((forecast, wf.EvalReport.from_predictions(test.values, forecast.values)))
        with tracer.span("dataio.write_series_csv"):
            wf.write_series_csv(prediction, self.out_path)
        return series, train, test, scored, ingested - started

    def check(self, item, out) -> int:
        _, sums, _ = item
        series, train, test, scored, _ = out
        require(series.start == self.start, f"series starts at hour {series.start}, not {self.start}")
        require(np.array_equal(series.values, sums), "hourly sums differ from the benchmark's own")
        require(len(train) == self.SPEC.train_weeks * WEEK and test.start == train.end,
                "split is not the first whole training weeks")
        actual = sums[len(train):]
        for forecast, report in scored:
            err = actual - forecast.values
            mse = float(np.mean(err ** 2))
            r2 = 1.0 - float(np.sum(err ** 2)) / float(np.sum((actual - actual.mean()) ** 2))
            require(close(report.mse, mse) and close(report.rmse, math.sqrt(mse))
                    and close(report.mae, float(np.mean(np.abs(err)))) and close(report.r2, r2),
                    "EvalReport differs from a numpy recomputation")
        last_week = train.values[-WEEK:]
        profile = train.values.reshape(-1, WEEK).mean(axis=0)
        require(np.array_equal(scored[1][0].values, np.resize(last_week, len(test))),
                "seasonal_naive is not the last training week repeated")
        require(np.allclose(scored[2][0].values, np.resize(profile, len(test)), rtol=1e-12, atol=0.0),
                "weekly_profile_mean is not the per-slot training mean")
        with open(self.out_path, newline="") as handle:
            rows = list(csv.reader(handle))
        require(rows[0] == ["week", "day_k", "hour", "value"] and len(rows) == len(test) + 1,
                "prediction CSV has the wrong shape")
        require([float(r[3]) for r in rows[1:]] == scored[0][0].values.tolist(),
                "prediction CSV values do not read back exactly")
        return 0

    def observe(self, item, out, elapsed: float, scale: float) -> None:
        _, _, truth_mse = item
        self.times.append(elapsed)
        self.scales.append(scale)
        self.ingest_seconds.append(out[4] * scale)
        self.ratios.append(out[3][0][1].mse / truth_mse)

    def report(self):
        t = self.times
        metrics = timing_metrics(t)
        # the saved model generated the files, so this reads 1 unless the
        # scored prediction is misaligned or wrong
        metrics["error_ratio_p50"] = (median(self.ratios), "ratio")
        rows_per_s = self.csv_rows * len(t) / sum(self.ingest_seconds)
        named = [
            ("ingest_rows_per_s", rows_per_s, "1/s", f"{self.csv_rows} rows/file, " + sample_note(t)),
            ("score_p50_s", metrics["op_p50_s"][0], "s", sample_note(t)),
            ("score_p90_s", metrics["op_p90_s"][0], "s", sample_note(t, 90.0)),
        ] + scaling_lines("score_p50_raw_s", t, self.scales)
        return metrics, named


COMMANDS = ("synth", "fit", "evaluate", "predict", "inspect", "compare")


def roundtrip(base: Path, weeks: int, train_weeks: int, seed: int) -> list[tuple[str, list[str]]]:
    """The README round trip as (command, arguments), on files under ``base``."""
    data, fitted = str(base / "data.csv"), str(base / "fit.json")
    train = str(train_weeks)
    return [
        ("synth", ["synth", "--model", str(base / "truth.json"), "--weeks", str(weeks),
                   "--noise", "200", "--seed", str(seed), "--out", data]),
        ("fit", ["fit", "--input", data, "--train-weeks", train, "--out", fitted,
                 "--trace", str(base / "trace.csv")]),
        ("evaluate", ["evaluate", "--model", fitted, "--input", data, "--train-weeks", train, "--json"]),
        ("predict", ["predict", "--model", fitted, "--weeks", "2", "--out", str(base / "pred.csv")]),
        ("inspect", ["inspect", "--model", fitted]),
        ("compare", ["compare", "--input", data, "--train-weeks", train,
                     "--csv", str(base / "compare.csv")]),
    ]


def prepare_roundtrip(base: Path, smoke: bool) -> tuple[int, int]:
    """Writes the true model under ``base``; returns (weeks, training weeks)."""
    base.mkdir(parents=True, exist_ok=True)
    wf.save_model(wf.bundled_model("guangzhou"), base / "truth.json")
    return (3, 2) if smoke else (52, 50)


OUTPUT_FILES = {
    "synth": ("data.csv",),
    "fit": ("fit.json", "trace.csv"),
    "predict": ("pred.csv",),
    "compare": ("compare.csv",),
}


def without_timing(cmd: str, name: str, data: bytes) -> bytes:
    """``compare`` reports train/predict seconds in its last two columns; drop them."""
    if cmd != "compare":
        return data
    if name == "stdout":
        lines = data.decode().splitlines()
        return "\n".join(" ".join(line.split()[:-2]) if len(line.split()) == 7 else line
                         for line in lines).encode()
    rows = list(csv.reader(io.StringIO(data.decode())))
    return repr([row[:-2] for row in rows]).encode()


class CliYear(Workload):
    """The README round trip as fresh ``python -m weekfit.cli`` processes on 52-week datasets."""

    name = "cli-year"
    ops_per_item = len(COMMANDS)
    bound_s = None  # each command is bounded by its own subprocess timeout
    rss_of_children = True

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed = seed
        self.base = workdir / "cli"
        self.weeks, self.train_weeks = prepare_roundtrip(self.base, smoke)
        self.commands: list = []
        self.reference: dict | None = None
        self.times: list[float] = []
        self.scales: list[float] = []
        self.ratios: list[float] = []
        self.per_command: dict[str, list[float]] = {cmd: [] for cmd in COMMANDS}

    def items(self):
        # The 50-week fit takes 1,000-2,200 iterations depending on the noise
        # draw, so a run cycles through seeded datasets rather than repeating
        # one.  Each dataset's round trip runs twice in a row, and the second
        # run must reproduce the first byte for byte.
        rng = np.random.default_rng(self.seed)
        while True:
            self.commands = roundtrip(self.base, self.weeks, self.train_weeks,
                                      int(rng.integers(2**31)))
            self.reference = None
            for _ in range(2):
                for cmd in COMMANDS:
                    for name in OUTPUT_FILES.get(cmd, ()):
                        (self.base / name).unlink(missing_ok=True)
                yield self.commands

    def run(self, commands, tracer):
        results = []
        for cmd, args in commands:
            with tracer.span(f"cli.{cmd}"):
                status, stdout, seconds = run_python(["-m", "weekfit.cli", *args],
                                                     self.base, CLI_TIMEOUT_S)
            results.append((cmd, status, stdout, seconds))
        return results

    def outputs(self, cmd: str, stdout: bytes) -> dict:
        files = {name: (self.base / name).read_bytes() for name in OUTPUT_FILES.get(cmd, ())}
        files["stdout"] = stdout
        return {name: without_timing(cmd, name, data) for name, data in files.items()}

    def check(self, commands, results) -> int:
        first = self.reference is None
        if first:
            self.reference = {}
        failed = 0
        for cmd, status, stdout, _ in results:
            if status != 0:
                failed += 1
                continue
            got = self.outputs(cmd, stdout)
            if first:
                self.reference[cmd] = got
            elif got != self.reference.get(cmd):
                failed += 1
        if first and not failed:
            with open(self.base / "trace.csv", newline="") as handle:
                final_j = float(list(csv.reader(handle))[-1][1])
            truth = wf.load_model(self.base / "truth.json")
            self.ratios.append(final_j / wf.objective(truth, self.training_window()))
        return failed

    def slowness(self) -> float:
        return hostspeed.startup(self.base)

    def observe(self, commands, results, elapsed: float, scale: float) -> None:
        self.times.append(elapsed)
        self.scales.append(scale)
        for cmd, _, _, seconds in results:
            self.per_command[cmd].append(seconds * scale)

    def training_window(self):
        series = wf.aggregate_hourly(wf.load_csv(self.base / "data.csv"))
        return series.window(0, self.train_weeks * WEEK)

    def reference_fit_series(self):
        return self.training_window()

    def report(self):
        t = self.times
        metrics = timing_metrics(t)
        metrics["error_ratio_p50"] = (median(self.ratios), "ratio")
        fits, starts = self.per_command["fit"], self.per_command["inspect"]
        named = [
            ("cli_roundtrip_s", metrics["op_p50_s"][0], "s", sample_note(t)),
            ("cli_fit_p50_s", median(fits), "s", sample_note(fits)),
            ("cli_startup_p50_s", median(starts), "s", sample_note(starts)),
            ("cli_fit_J_ratio_p50", median(self.ratios), "ratio", f"{len(self.ratios)} datasets"),
        ] + scaling_lines("cli_roundtrip_raw_s", t, self.scales)
        return metrics, named


WORKLOADS = {w.name: w for w in (FitCells, IngestScore, CliYear)}
