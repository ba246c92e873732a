"""Tests of the benchmark itself; run with ``python -m pytest bench -q`` from the repository root.

The smoke runs go through every workload in both modes on tiny inputs and
check that each metric named in BENCHMARK.json is printed with its unit.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from common import ROOT, OpTimeout, pin_environment, time_bound  # noqa: E402

pin_environment()

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMED = {
    "fit-cells": ["fit_p50_s s", "fit_p90_s s", "fits_per_s 1/s", "fit_J_ratio_p50 ratio",
                  "fit_p50_raw_s s", "host_speed_p50 x"],
    "ingest-score": ["ingest_rows_per_s 1/s", "score_p50_s s", "score_p90_s s", "score_p50_raw_s s",
                     "host_speed_p50 x"],
    "cli-year": ["cli_roundtrip_s s", "cli_fit_p50_s s", "cli_startup_p50_s s", "cli_roundtrip_raw_s s",
                 "host_speed_p50 x"],
}
COMMON = ["setup_s s", "setup_raw_s s", "fail_frac ratio", "peak_rss_mb MB"]


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    if trace:
        assert any(line.startswith("tracing overhead:") for line in lines)
        assert lines[1].split() == ["layer", "spans", "total_s", "self_s", "share"]
    else:
        printed = {" ".join(line.split()[0:3:2]) for line in lines[1:-1]}
        assert set(COMMON + NAMED[workload]) <= printed
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "fit-cells", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_benchmark_json_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        spans.Span("bench.op", 0.0, 10.0, None, 0),
        spans.Span("dataio.load_csv", 1.0, 3.0, 0, 0),
        spans.Span("dataio.aggregate_hourly", 2.0, 5.0, 0, 0),
        spans.Span("model.predict_series", 6.0, 7.0, 0, 0),
    ]
    assert spans.self_times(recorded) == [5.0, 2.0, 3.0, 1.0]
    table = {row[0]: row[1:] for row in spans.layer_table(recorded)}
    assert table["dataio"] == (2, 5.0, 5.0, 0.5)
    assert table["bench"][2] == 5.0


def test_time_bound_interrupts_a_long_operation():
    started = time.perf_counter()
    with pytest.raises(OpTimeout):
        with time_bound(0.05):
            while True:
                pass
    assert time.perf_counter() - started < 5.0


def test_ingest_check_catches_a_wrong_hourly_sum(tmp_path):
    ingest = workloads.IngestScore(3, tmp_path, smoke=True)
    item = next(ingest.items())
    out = ingest.run(item, spans.NullTracer())
    assert ingest.check(item, out) == 0
    path, sums, truth_mse = item
    wrong = sums.copy()
    wrong[5] += 1.0
    with pytest.raises(workloads.CheckFailed):
        ingest.check((path, wrong, truth_mse), out)


def test_cli_check_counts_changed_output(tmp_path):
    cli = workloads.CliYear(3, tmp_path, smoke=True)
    commands = next(cli.items())
    results = cli.run(commands, spans.NullTracer())
    assert cli.check(commands, results) == 0
    changed = [(cmd, status, stdout + b"x" if cmd == "inspect" else stdout, s)
               for cmd, status, stdout, s in results]
    assert cli.check(commands, changed) == 1
