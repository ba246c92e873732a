"""Command-line front end: fit, predict, evaluate, synth, inspect, compare.

Exit status is 0 on success, 1 for input errors (bad files, gaps, short
series), and 2 for internal faults.  All file outputs use fixed float
formatting so identical invocations produce byte-identical files.  Wall
time is measured here alone (``_timed``), never by the library, and shown
only by ``--timing`` and in compare's train_s/predict_s columns.
Only ``errors`` and ``params`` are imported here; ``dataio``, ``model``,
``estimator``, ``metrics`` and ``baselines`` are imported by the commands
that call them. So ``synth`` never loads the fitting code, and ``inspect``
and ``predict`` never load numpy: ``predict`` writes the model's week
profile from ``params._week_profile``, summed with ``math.fsum``, where the
library's ``predict_series`` sums the same terms with numpy.
A process enters through ``_entry`` (``python -m weekfit.cli`` and the
``weekfit`` script), which runs ``main`` with the cyclic garbage collector
off, because a run makes few reference cycles and the collector's passes
over numpy's import are wasted time. Then it runs the exit handlers,
flushes stdout and stderr, and ends the process with ``os._exit``, which
skips the interpreter's teardown. A stdout that cannot take its text, such
as a pipe whose reader has gone, is an input error: ``error:`` and status 1.
Under a tracer or profiler the process exits normally, heap frozen, so the
tool can report. ``main`` itself leaves the collector alone, for callers in
a process of their own.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import sys
import time

from .errors import WeekfitError, _integer, _real
from .params import (
    _MAX_HOURS,
    ComponentId,
    HOURS_PER_WEEK,
    _week_profile,
    _write_csv,
    _write_series_csv,
    load_model,
    save_model,
    sigma_interval,
    week_clock_at,
)


def format_clock(hours: float) -> str:
    """Render an hour count as H:MM, marking day spill as (+1d)/(-1d)."""
    days, hours = divmod(hours, 24.0)
    days, minutes = divmod(int(days) * 1440 + round(hours * 60.0), 1440)  # 24:00 carries a day
    return f"{minutes // 60}:{minutes % 60:02d}" + (f" ({days:+d}d)" if days else "")


def _print_table(header: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(header[i]), *(len(row[i]) for row in rows)) for i in range(len(header))]
    for line in [header] + rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())


def _write_line_svg(ys, path, title: str) -> None:
    """Minimal static polyline plot; deterministic output, no dependencies."""
    width, height, margin = 640, 360, 40
    n = len(ys)
    lo = min(ys)
    hi = max(ys)
    span = (hi - lo) or 1.0
    points = []
    for i, y in enumerate(ys):
        px = margin + (width - 2 * margin) * (i / max(n - 1, 1))
        py = height - margin - (height - 2 * margin) * ((y - lo) / span)
        points.append(f"{px:.2f},{py:.2f}")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">\n'
            f'<rect width="{width}" height="{height}" fill="white"/>\n'
            f'<text x="{width / 2:.0f}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{title}</text>\n'
            f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" '
            f'points="{" ".join(points)}"/>\n'
            "</svg>\n"
        )


def _load_series(path, train_weeks: int | None):
    """The CSV's hourly series and its ``SplitSpec``, which holds the default training weeks."""
    from .dataio import SplitSpec, aggregate_hourly, load_csv

    spec = SplitSpec() if train_weeks is None else SplitSpec(train_weeks=train_weeks)
    return aggregate_hourly(load_csv(path)), spec


def _fit_config(args):
    """A ``FitConfig`` of the fit flags that were given; ``FitConfig`` holds the defaults."""
    from .estimator import FitConfig

    given = {"max_iterations": args.max_iterations, "relative_tolerance": args.tolerance}
    return FitConfig(**{name: value for name, value in given.items() if value is not None})


def _model_forecast(model, test):
    """Zero-argument forecast of the test window from the week clock at its start."""
    from .model import predict_series

    return lambda: predict_series(model, len(test), *week_clock_at(test.start))


def _timed(call, *args):
    """``call(*args)`` and its wall time in seconds."""
    started = time.perf_counter()
    result = call(*args)
    return result, time.perf_counter() - started


def _score(test, forecast, train_seconds: float = 0.0) -> dict:
    """Score ``forecast()`` against the test window: the report's fields, then both wall times."""
    from .metrics import EvalReport

    predicted, predict_seconds = _timed(forecast)
    scores = EvalReport.from_predictions(test.values, predicted.values).as_dict()
    return {**scores, "elapsed_train_seconds": train_seconds, "elapsed_predict_seconds": predict_seconds}


def _cmd_fit(args) -> int:
    from .dataio import training_window, write_trace_csv
    from .estimator import fit

    series, spec = _load_series(args.input, args.train_weeks)
    train = training_window(series, spec)
    report, seconds = _timed(fit, train, _fit_config(args))
    save_model(report.model, args.out)
    trace = report.objective_trace
    status = "converged" if report.converged else f"not converged: {report.stop_reason}"
    print(f"fit: {len(train)} samples, J {trace[0]:.6g} -> {trace[-1]:.6g} "
          f"in {report.iterations} iterations ({status})")
    print(f"wrote {args.out}")
    if args.trace:
        write_trace_csv(trace, args.trace)
        print(f"wrote {args.trace}")
    if args.svg:
        _write_line_svg(trace, args.svg, "objective vs iteration")
        print(f"wrote {args.svg}")
    if args.timing:
        print(f"elapsed: {seconds:.3f}s")
    return 0


def _cmd_predict(args) -> int:
    profile = _week_profile(load_model(args.model))
    try:  # the whole horizon at once, so one too large for memory is refused before any row is written
        values = profile * args.weeks
    except MemoryError:  # a bare MemoryError has no message
        hours = args.weeks * HOURS_PER_WEEK
        raise WeekfitError(f"--weeks {args.weeks}: {hours} hours are too many to hold in memory") from None
    _write_series_csv(values, 0, len(values), args.out)
    print(f"wrote {args.out} ({len(values)} hours)")
    if args.svg:
        _write_line_svg(values, args.svg, "predicted traffic")
        print(f"wrote {args.svg}")
    return 0


def _cmd_evaluate(args) -> int:
    from .dataio import split

    model = load_model(args.model)
    series, spec = _load_series(args.input, args.train_weeks)
    _, test = split(series, spec)
    scores = _score(test, _model_forecast(model, test))
    if not args.timing:
        del scores["elapsed_train_seconds"], scores["elapsed_predict_seconds"]
    if args.json:
        print(json.dumps(scores, indent=2))
    else:
        for name, value in scores.items():
            print(f"{name}: {value!r}")
    return 0


def _cmd_synth(args) -> int:
    from .dataio import write_timestamp_csv
    from .model import generate_synthetic

    model = load_model(args.model)
    series = generate_synthetic(model, args.weeks, args.noise, args.seed)
    write_timestamp_csv(series, args.out)
    print(f"wrote {args.out} ({len(series)} hours)")
    return 0


def _cmd_inspect(args) -> int:
    model = load_model(args.model)
    rows = []
    for comp in ComponentId:
        params = model[comp]
        low, high = sigma_interval(params)
        sigma = high - params.peak_time
        rows.append([
            comp.value,
            comp.category.value,
            comp.period.value,
            f"{params.peak_rate:.6g}",
            format_clock(params.peak_time),
            f"{sigma:.2f}",
            f"{format_clock(low)} - {format_clock(high)}",
        ])
    _print_table(
        ["component", "category", "period", "peak_rate", "peak_time", "sigma_h", "one_sigma_interval"],
        rows,
    )
    return 0


def _cmd_compare(args) -> int:
    from .baselines import BaselineKind, baseline_predict
    from .dataio import split
    from .estimator import fit

    series, spec = _load_series(args.input, args.train_weeks)
    train, test = split(series, spec)
    fitted, train_seconds = _timed(fit, train, _fit_config(args))
    scored = [("weekfit", _score(test, _model_forecast(fitted.model, test), train_seconds))]
    for kind in BaselineKind:  # baselines have no training step
        scored.append((kind.value, _score(test, lambda: baseline_predict(kind, train, len(test)))))
    header = ["predictor", "mse", "rmse", "mae", "r2", "train_s", "predict_s"]
    rows = [
        [
            name,
            f"{s['mse']:.6g}",
            f"{s['rmse']:.6g}",
            f"{s['mae']:.6g}",
            f"{s['r2']:.6g}",
            f"{s['elapsed_train_seconds']:.3f}",
            f"{s['elapsed_predict_seconds']:.3f}",
        ]
        for name, s in scored
    ]
    _print_table(header, rows)
    if args.csv:
        csv_rows = ([name, *map(repr, s.values())] for name, s in scored)
        _write_csv(args.csv, ["predictor", *scored[0][1]], csv_rows)
        print(f"wrote {args.csv}")
    return 0


def _at_least(lowest: int, kind=int, strict: bool = False, below: float = math.inf, highest=math.inf):
    """An argparse type: a ``kind`` number checked by ``errors._integer`` or ``_real``, refused naming the flag."""

    def parse(text: str):
        value = kind(text)  # outside the try: argparse words a non-number itself
        try:
            return _integer(value, "", lowest, highest) if kind is int else _real(value, "", lowest, strict, below)
        except ValueError as exc:  # the library's words, without a parameter name
            raise argparse.ArgumentTypeError(str(exc).lstrip()) from None

    parse.__name__ = kind.__name__  # a non-number reads "invalid int value" (or float)
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weekfit",
        description="Fit and evaluate weekly Gaussian-component traffic models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    weeks = _at_least(1, highest=_MAX_HOURS // HOURS_PER_WEEK)  # generate_synthetic's n_weeks bound

    def add_input_flags(p):
        p.add_argument("--input", required=True)
        p.add_argument("--train-weeks", type=_at_least(1))

    def add_fit_flags(p):
        p.add_argument("--max-iterations", type=_at_least(1))
        p.add_argument("--tolerance", type=_at_least(0, float, strict=True, below=1))

    p = sub.add_parser("fit", help="fit a model to a timestamp,value CSV")
    add_input_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--trace", help="write the objective trajectory CSV here")
    p.add_argument("--svg", help="write an objective-trajectory plot here")
    p.add_argument("--timing", action="store_true", help="print elapsed time")
    add_fit_flags(p)
    p.set_defaults(handler=_cmd_fit)

    p = sub.add_parser("predict", help="evaluate a saved model over a horizon")
    p.add_argument("--model", required=True)
    p.add_argument("--weeks", type=weeks, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--svg", help="write a prediction plot here")
    p.set_defaults(handler=_cmd_predict)

    p = sub.add_parser("evaluate", help="score a saved model on the test split")
    p.add_argument("--model", required=True)
    add_input_flags(p)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true", help="include elapsed times")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("synth", help="generate noisy synthetic data from a model")
    p.add_argument("--model", required=True)
    p.add_argument("--weeks", type=weeks, required=True)
    p.add_argument("--noise", type=_at_least(0, float), default=0.0)
    p.add_argument("--seed", type=_at_least(0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_synth)

    p = sub.add_parser("inspect", help="per-component peak and interval table")
    p.add_argument("--model", required=True)
    p.set_defaults(handler=_cmd_inspect)

    p = sub.add_parser("compare", help="fitted model vs baselines on the test split")
    add_input_flags(p)
    p.add_argument("--csv", help="also write the comparison table as CSV")
    add_fit_flags(p)
    p.set_defaults(handler=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except (WeekfitError, ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - internal faults
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def _flushed(status: int) -> int:
    """``status`` once stdout and stderr are flushed, or 1 with an ``error:`` line if one cannot take its text.

    The failed stream is pointed at the null device, so that no later flush
    (the interpreter's own at exit) fails on it again.
    """
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the process started with the descriptor closed
                stream.flush()
    except OSError as exc:  # a reader that closed its pipe, or a full disk
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        print(f"error: {exc}", file=sys.stderr, flush=True)
        return 1
    return status


def _watched() -> bool:
    """Whether a tracer or profiler watches the process.

    One registers through ``sys.settrace`` or ``sys.setprofile``, or from
    Python 3.12 on as a ``sys.monitoring`` tool, as cProfile does there.
    """
    monitoring = getattr(sys, "monitoring", None)
    return (sys.gettrace() is not None or sys.getprofile() is not None
            or monitoring is not None and any(monitoring.get_tool(tool) is not None for tool in range(6)))


def _entry() -> None:
    """Run ``main`` on ``sys.argv`` as a whole process, with the collector off, and end it.

    The exit handlers run and the streams are flushed, then ``os._exit``
    skips the interpreter's teardown. Under a tracer or profiler, such as
    coverage or cProfile, the process exits normally, so the tool can write
    its report after the run.
    """
    gc.disable()
    status = main()
    if not _watched():
        atexit._run_exitfuncs()  # as the interpreter runs them, before its last flush
        os._exit(_flushed(status))
    gc.freeze()  # the interpreter's last collections at exit skip frozen objects
    sys.exit(_flushed(status))


if __name__ == "__main__":
    _entry()
