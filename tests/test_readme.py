"""The README's Library snippet runs against the package as it stands."""

import re
from pathlib import Path

from weekfit import bundled_model, save_model
from weekfit.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    """The first ```python block under the README's "## Library" heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_snippet_runs(tmp_path, monkeypatch):
    # the snippet reads data.csv from the working directory
    save_model(bundled_model("guangzhou"), tmp_path / "truth.json")
    assert main(["synth", "--model", str(tmp_path / "truth.json"), "--weeks", "4",
                 "--noise", "200", "--seed", "1", "--out", str(tmp_path / "data.csv")]) == 0
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_snippet(), str(README), "exec"), namespace)
    assert namespace["scores"].n_samples == len(namespace["test"])
