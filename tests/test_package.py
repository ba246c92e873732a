"""The package's exports: every public name resolves, and a process loads only the submodules it calls.

Reading, saving, printing and predicting from a model loads ``errors`` and ``params`` alone, and no numpy.
No command loads ``dataclasses``.
"""

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
        "Readings", "SplitSpec", "aggregate_hourly", "load_csv", "split", "training_window",
        "write_series_csv", "write_timestamp_csv", "write_trace_csv",
    ],
    "errors": [
        "ConstantActualError", "CsvFormatError", "GapError", "ModelFormatError",
        "SeriesTooShortError", "WeekfitError",
    ],
    "estimator": ["FitConfig", "FitReport", "fit", "gradient", "init_heuristic", "objective"],
    "metrics": ["EvalReport", "mae", "mse", "r2", "rmse"],
    "model": ["TrafficSeries", "generate_synthetic", "predict_series", "weekly_value"],
    "params": [
        "ComponentId", "ComponentParams", "DayCategory", "DayPeriod", "HOURS_PER_DAY",
        "HOURS_PER_WEEK", "WeekClock", "WeeklyModel", "bundled_model", "load_model", "save_model",
        "sigma_interval", "week_clock_at",
    ],
}
# names that moved to params, and the submodules they still resolve in
MOVED = {
    "model": [
        "HOURS_PER_DAY", "DAYS_PER_WEEK", "HOURS_PER_WEEK", "_MAX_HOURS", "DayCategory",
        "_CATEGORY_DAYS", "DayPeriod", "ComponentId", "_COMPONENT_LAYOUT", "ComponentParams",
        "WeeklyModel", "WeekClock", "week_clock_at", "sigma_interval",
    ],
    "dataio": [
        "_PARAM_FIELDS", "save_model", "load_model", "bundled_model", "ComponentId",
        "ComponentParams", "HOURS_PER_DAY", "HOURS_PER_WEEK", "WeeklyModel",
    ],
}
NAMES = [name for names in EXPORTS.values() for name in names]
# what synth, predict and inspect never call
UNUSED = ["weekfit.baselines", "weekfit.estimator", "weekfit.metrics"]
SRC = Path(weekfit.__file__).parent.parent
MODEL = SRC / "weekfit" / "fixtures" / "milan.json"
# modules that loading, inspecting and predicting from a model have no use for
NOT_NEEDED = ["numpy", "dataclasses", "inspect", "typing", "importlib.resources"]


def _loaded_after(code: str) -> list[str]:
    """The weekfit modules, and numpy if loaded, that a fresh interpreter holds after running ``code``."""
    probe = code + "\nimport sys\nprint(*sorted(m for m in sys.modules if m.startswith('weekfit') or m == 'numpy'))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    return result.stdout.split()


def _not_needed_after(code: str, cwd: Path) -> list[str]:
    """Which of NOT_NEEDED a fresh ``python -S`` holds when it exits after ``code`` (its last line of stdout).

    ``-S`` skips site, so no ``.pth`` file of the environment can load any of them first. An exit
    handler prints them, because ``weekfit.cli._entry`` ends the process once it has run the handlers.
    """
    probe = ("import atexit, sys\n"
             f"atexit.register(lambda: print(*[m for m in {NOT_NEEDED!r} if m in sys.modules]))\n" + code)
    result = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True, cwd=cwd,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60, check=True)
    return result.stdout.splitlines()[-1].split()


@pytest.mark.parametrize("submodule", EXPORTS)
def test_every_name_is_its_submodules_object(submodule):
    module = getattr(weekfit, submodule)  # weekfit.model and the others still resolve
    assert module.__name__ == f"weekfit.{submodule}"
    for name in EXPORTS[submodule]:
        assert getattr(weekfit, name) is getattr(module, name)


@pytest.mark.parametrize("old", MOVED)
def test_moved_names_keep_their_old_paths(old):
    module = getattr(weekfit, old)
    for name in MOVED[old]:
        assert getattr(module, name) is getattr(weekfit.params, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from weekfit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(NAMES)
    assert sorted(weekfit.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(weekfit))


def test_a_submodule_resolves_before_it_is_imported():
    loaded = _loaded_after("import weekfit; assert weekfit.estimator.fit is weekfit.fit")
    assert "weekfit.estimator" in loaded


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'weekfit' has no attribute 'no_such_name'"):
        weekfit.no_such_name  # noqa: B018
    assert not hasattr(weekfit, "no_such_name")


def test_bundled_model_loads_no_fitting_code():
    loaded = _loaded_after("import weekfit; weekfit.bundled_model('milan')")
    assert loaded == ["weekfit", "weekfit.errors", "weekfit.params"]


@pytest.mark.parametrize("command", [["inspect"], ["predict", "--weeks", "2", "--out", "pred.csv"]],
                         ids=["inspect", "predict"])
def test_command_loads_no_numpy(command, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [*command, "--model", str(MODEL)]
    loaded = _loaded_after(f"from weekfit.cli import main; assert main({argv!r}) == 0")
    assert "numpy" not in loaded, loaded


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


@pytest.mark.parametrize("argv", [None, ["inspect"], ["predict", "--weeks", "2", "--out", "pred.csv"]],
                         ids=["load_model", "inspect", "predict"])
def test_model_paths_import_only_what_they_run(argv, tmp_path):
    if argv is None:
        code = f"import weekfit; weekfit.load_model({str(MODEL)!r})"
    else:  # as `python -m weekfit.cli` runs it; _not_needed_after checks that it exits 0
        code = (f"import runpy, sys; sys.argv = ['weekfit', *{argv!r}, '--model', {str(MODEL)!r}]\n"
                "runpy.run_module('weekfit.cli', run_name='__main__')")
    assert _not_needed_after(code, tmp_path) == []


def test_bundled_model_imports_only_importlib_resources(tmp_path):
    loaded = _not_needed_after("import weekfit; weekfit.bundled_model('milan')", tmp_path)
    assert set(loaded) <= {"importlib.resources", "typing"}, loaded  # importlib.resources imports typing


def test_fitting_commands_load_no_dataclasses(tmp_path):
    """synth, fit, evaluate and compare load no ``dataclasses`` beyond what ``import numpy`` loads.

    Run without ``-S``: numpy lives in site-packages.
    """
    commands = [
        ["synth", "--model", str(MODEL), "--weeks", "3", "--out", "data.csv"],
        ["fit", "--input", "data.csv", "--out", "fit.json"],
        ["evaluate", "--model", "fit.json", "--input", "data.csv"],
        ["compare", "--input", "data.csv"],
    ]
    calls = "; ".join(f"assert main({argv!r}) == 0" for argv in commands)
    probe = ("import sys, numpy; by_numpy = 'dataclasses' in sys.modules\n"
             f"from weekfit.cli import main; {calls}\n"
             "print(by_numpy, 'dataclasses' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, cwd=tmp_path,
                            env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120, check=True)
    by_numpy, at_exit = result.stdout.splitlines()[-1].split()
    assert at_exit == by_numpy, "the commands loaded dataclasses"
