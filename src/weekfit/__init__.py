"""Weekly network-traffic forecasting from Gaussian activity components.

A public name's submodule is imported on first use of the name (PEP 562),
so a process loads only the submodules it calls into.
"""

from importlib import import_module

# each public name, and the submodule that defines it
_SUBMODULE_OF = {
    name: submodule
    for submodule, names in {
        "baselines": "BaselineKind baseline_predict",
        "dataio": "Readings SplitSpec aggregate_hourly load_csv split training_window write_series_csv"
                  " write_timestamp_csv write_trace_csv",
        "errors": "ConstantActualError CsvFormatError GapError ModelFormatError SeriesTooShortError"
                  " WeekfitError",
        "estimator": "FitConfig FitReport fit gradient init_heuristic objective",
        "metrics": "EvalReport mae mse r2 rmse",
        "model": "TrafficSeries generate_synthetic predict_series weekly_value",
        "params": "ComponentId ComponentParams DayCategory DayPeriod HOURS_PER_DAY HOURS_PER_WEEK"
                  " WeekClock WeeklyModel bundled_model load_model save_model sigma_interval"
                  " week_clock_at",
    }.items()
    for name in names.split()
}

__all__ = list(_SUBMODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import a public name's submodule, or a submodule such as ``weekfit.model``, and keep it here."""
    if name in _SUBMODULE_OF:
        value = getattr(import_module(f".{_SUBMODULE_OF[name]}", __name__), name)
    elif name in _SUBMODULE_OF.values():
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
