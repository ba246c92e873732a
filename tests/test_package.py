"""The package's exports: every public name resolves, and a process loads only the submodules it calls."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import weekfit

# every public name the package has exported, and the submodule that defines it
EXPORTS = {
    "baselines": ["BaselineKind", "baseline_predict"],
    "dataio": [
        "Readings", "SplitSpec", "aggregate_hourly", "bundled_model", "load_csv", "load_model",
        "save_model", "split", "training_window", "write_series_csv", "write_timestamp_csv",
        "write_trace_csv",
    ],
    "errors": [
        "ConstantActualError", "CsvFormatError", "GapError", "ModelFormatError",
        "SeriesTooShortError", "WeekfitError",
    ],
    "estimator": ["FitConfig", "FitReport", "fit", "gradient", "init_heuristic", "objective"],
    "metrics": ["EvalReport", "mae", "mse", "r2", "rmse"],
    "model": [
        "ComponentId", "ComponentParams", "DayCategory", "DayPeriod", "HOURS_PER_DAY",
        "HOURS_PER_WEEK", "TrafficSeries", "WeekClock", "WeeklyModel", "generate_synthetic",
        "predict_series", "sigma_interval", "week_clock_at", "weekly_value",
    ],
}
NAMES = [name for names in EXPORTS.values() for name in names]
# what synth, predict and inspect never call
UNUSED = ["weekfit.baselines", "weekfit.estimator", "weekfit.metrics"]
SRC = Path(weekfit.__file__).parent.parent


def _loaded_after(code: str) -> list[str]:
    """The weekfit modules a fresh interpreter holds after running ``code``."""
    probe = code + "\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('weekfit')))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    return result.stdout.split()


@pytest.mark.parametrize("submodule", EXPORTS)
def test_every_name_is_its_submodules_object(submodule):
    module = getattr(weekfit, submodule)  # weekfit.model and the others still resolve
    assert module.__name__ == f"weekfit.{submodule}"
    for name in EXPORTS[submodule]:
        assert getattr(weekfit, name) is getattr(module, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from weekfit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(NAMES)
    assert sorted(weekfit.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(weekfit))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'weekfit' has no attribute 'no_such_name'"):
        weekfit.no_such_name  # noqa: B018
    assert not hasattr(weekfit, "no_such_name")


def test_bundled_model_loads_no_fitting_code():
    loaded = _loaded_after("import weekfit; weekfit.bundled_model('milan')")
    assert "weekfit.dataio" in loaded
    assert not set(UNUSED) & set(loaded), loaded


def test_synth_predict_and_inspect_load_no_fitting_code(tmp_path):
    model = tmp_path / "gz.json"
    weekfit.save_model(weekfit.bundled_model("guangzhou"), model)
    commands = [
        ["synth", "--model", model, "--weeks", "1", "--out", tmp_path / "data.csv"],
        ["predict", "--model", model, "--weeks", "1", "--out", tmp_path / "pred.csv"],
        ["inspect", "--model", model],
    ]
    calls = "; ".join(f"assert main({list(map(str, argv))!r}) == 0" for argv in commands)
    loaded = _loaded_after(f"from weekfit.cli import main; {calls}")
    assert "weekfit.cli" in loaded
    assert not set(UNUSED) & set(loaded), loaded
