import csv
import gc
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import types
from datetime import datetime, timedelta, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weekfit import (
    HOURS_PER_WEEK,
    BaselineKind,
    ComponentId,
    ComponentParams,
    EvalReport,
    SplitSpec,
    WeekfitError,
    WeeklyModel,
    aggregate_hourly,
    baseline_predict,
    bundled_model,
    generate_synthetic,
    load_csv,
    load_model,
    predict_series,
    save_model,
    split,
)
import weekfit
from weekfit import cli, dataio
from weekfit.cli import format_clock, main
from weekfit.params import _week_profile

SRC = Path(weekfit.__file__).parent.parent


@pytest.fixture()
def gz_path(tmp_path):
    path = tmp_path / "gz.json"
    save_model(bundled_model("guangzhou"), path)
    return path


def run(*argv) -> int:
    return main([str(a) for a in argv])


def within(seconds: float, fn, *args):
    """fn(*args), failing if it has not returned after ``seconds``."""
    result = []
    worker = threading.Thread(target=lambda: result.append(fn(*args)), daemon=True)
    worker.start()
    worker.join(seconds)
    assert not worker.is_alive(), f"{fn.__name__} did not return within {seconds}s"
    return result[0]


class TestFormatClock:
    def test_plain_times(self):
        assert format_clock(12.14) == "12:08"
        assert format_clock(0.0) == "0:00"
        assert format_clock(13.900681686165901) == "13:54"

    def test_next_day(self):
        assert format_clock(24.754938271) == "0:45 (+1d)"
        assert format_clock(24.0) == "0:00 (+1d)"

    def test_previous_day(self):
        assert format_clock(-0.5) == "23:30 (-1d)"

    def test_minute_rounding_carries(self):
        assert format_clock(9.9999) == "10:00"
        assert format_clock(23.9999) == "0:00 (+1d)"

    def test_huge_offsets_return(self):
        # 1e17 - 24 == 1e17 in floating point, so stepping by days never ends
        assert within(10.0, format_clock, 1e17) == "16:00 (+4166666666666666d)"
        assert within(10.0, format_clock, -1e17) == "8:00 (-4166666666666667d)"


class TestSynthFitPipeline:
    def test_full_pipeline(self, tmp_path, gz_path, capsys):
        data = tmp_path / "data.csv"
        model = tmp_path / "fit.json"
        trace = tmp_path / "trace.csv"
        pred = tmp_path / "pred.csv"
        assert run("synth", "--model", gz_path, "--weeks", 3, "--noise", 100,
                   "--seed", 5, "--out", data) == 0
        assert run("fit", "--input", data, "--train-weeks", 2, "--out", model,
                   "--trace", trace, "--max-iterations", 4000, "--tolerance", 1e-10) == 0
        assert run("predict", "--model", model, "--weeks", 1, "--out", pred) == 0
        capsys.readouterr()
        assert run("evaluate", "--model", model, "--input", data,
                   "--train-weeks", 2, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r2"] > 0.97
        assert trace.read_text().startswith("iteration,J")
        assert pred.read_text().startswith("week,day_k,hour,value")
        fitted = load_model(model)
        truth = bundled_model("guangzhou")
        from weekfit import ComponentId

        assert abs(fitted[ComponentId.MW].peak_time - truth[ComponentId.MW].peak_time) < 0.5

    def test_noiseless_roundtrip_recovers_model(self, tmp_path, gz_path):
        data = tmp_path / "data.csv"
        model = tmp_path / "fit.json"
        assert run("synth", "--model", gz_path, "--weeks", 2, "--noise", 0,
                   "--seed", 0, "--out", data) == 0
        assert run("fit", "--input", data, "--train-weeks", 2, "--out", model) == 0
        truth = bundled_model("guangzhou")
        fitted = load_model(model)
        from weekfit import ComponentId

        for comp in ComponentId:
            assert abs(fitted[comp].peak_rate / truth[comp].peak_rate - 1) < 0.01
            assert abs(fitted[comp].peak_time - truth[comp].peak_time) < 0.01
            assert abs(fitted[comp].variance / truth[comp].variance - 1) < 0.05

    def test_fit_accepts_exact_train_length(self, tmp_path, gz_path):
        data = tmp_path / "data.csv"
        model = tmp_path / "fit.json"
        assert run("synth", "--model", gz_path, "--weeks", 2, "--noise", 0,
                   "--seed", 0, "--out", data) == 0
        assert run("fit", "--input", data, "--train-weeks", 2, "--out", model,
                   "--max-iterations", 50) == 0

    def test_train_weeks_default_is_split_specs(self, tmp_path, gz_path, capsys):
        data = tmp_path / "data.csv"
        model = tmp_path / "fit.json"
        assert run("synth", "--model", gz_path, "--weeks", 3, "--noise", 100,
                   "--seed", 3, "--out", data) == 0
        printed = []
        for flags in ([], ["--train-weeks", SplitSpec().train_weeks]):
            capsys.readouterr()
            assert run("fit", "--input", data, "--out", model, *flags) == 0
            assert run("evaluate", "--model", model, "--input", data, *flags) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]
        assert printed[0].startswith("fit: 336 samples")

    def test_fit_names_why_it_stopped(self, tmp_path, gz_path, capsys):
        # a converged fit's line ends "(converged)"; any other names its stop reason
        data = tmp_path / "data.csv"
        assert run("synth", "--model", gz_path, "--weeks", 2, "--noise", 100,
                   "--seed", 3, "--out", data) == 0
        fit = ["fit", "--input", data, "--train-weeks", 2, "--out", tmp_path / "fit.json"]
        for flags, status in (([], "converged"), (["--max-iterations", 1], "not converged: max_iterations")):
            capsys.readouterr()
            assert run(*fit, *flags) == 0
            first = capsys.readouterr().out.splitlines()[0]
            assert re.fullmatch(rf"fit: 336 samples, J \S+ -> \S+ in \d+ iterations \({status}\)", first)

    def test_evaluate_perfect_model_scores_one(self, tmp_path, gz_path, capsys):
        data = tmp_path / "data.csv"
        assert run("synth", "--model", gz_path, "--weeks", 3, "--noise", 0,
                   "--seed", 0, "--out", data) == 0
        capsys.readouterr()
        assert run("evaluate", "--model", gz_path, "--input", data,
                   "--train-weeks", 2, "--json") == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["r2"] == 1.0
        assert payload["mse"] == 0.0

    def test_reversed_rows_with_utc_offset_fit_the_same_model(self, tmp_path, gz_path):
        # time-ordered rows are summed as read; reversed rows are sorted first
        # and their +00:00 offset is checked, with LF or synth's CRLF line
        # ends, and the model keeps every byte
        data = tmp_path / "data.csv"
        assert run("synth", "--model", gz_path, "--weeks", 4, "--noise", 200,
                   "--seed", 1, "--out", data) == 0
        header, *rows = data.read_text().splitlines()
        shifted = [header] + [row.replace(",", "+00:00,", 1) for row in reversed(rows)]
        sources = [data]
        for name, end in (("reversed_utc", "\n"), ("reversed_utc_crlf", "\r\n")):
            sources.append(tmp_path / f"{name}.csv")
            sources[-1].write_bytes("".join(line + end for line in shifted).encode())
        fits = []
        for source in sources:
            fits.append(tmp_path / f"fit_{source.stem}.json")
            assert run("fit", "--input", source, "--train-weeks", 2, "--out", fits[-1]) == 0
        assert fits[0].read_bytes() == fits[1].read_bytes() == fits[2].read_bytes()

    def test_lf_and_quoted_copies_fit_the_same_model(self, tmp_path, gz_path):
        # synth writes CRLF; the LF copy is read a column at a time like the
        # original, the quoted copy through the csv module, and the model
        # keeps every byte
        data = tmp_path / "data.csv"
        assert run("synth", "--model", gz_path, "--weeks", 4, "--noise", 200,
                   "--seed", 1, "--out", data) == 0
        lines = data.read_bytes().decode().splitlines()
        lf, quoted = tmp_path / "lf.csv", tmp_path / "quoted.csv"
        lf.write_bytes("".join(f"{line}\n" for line in lines).encode())
        quoted.write_bytes("".join('"' + '","'.join(line.split(",")) + '"\r\n'
                                   for line in lines).encode())
        fits = []
        for source in (data, lf, quoted):
            fits.append(tmp_path / f"fit_{source.stem}.json")
            assert run("fit", "--input", source, "--train-weeks", 2, "--out", fits[-1]) == 0
        assert fits[0].read_bytes() == fits[1].read_bytes() == fits[2].read_bytes()

    def test_ten_minute_copy_scores_like_the_hourly_file(self, tmp_path, gz_path, capsys):
        # each hour's value at :00, then zeros at :10 to :50, which sum back
        # to the same bits; six readings an hour take aggregate_hourly's search
        assert 6 > dataio._SEARCH_ABOVE
        hourly, minutes = tmp_path / "hourly.csv", tmp_path / "minutes.csv"
        assert run("synth", "--model", gz_path, "--weeks", 3, "--noise", 150,
                   "--seed", 3, "--out", hourly) == 0
        header, *rows = hourly.read_text().splitlines()
        lines = [header]
        for row in rows:
            hour = datetime.fromisoformat(row.split(",")[0])
            lines += [row, *(f"{(hour + timedelta(minutes=m)).isoformat()},0.0" for m in range(10, 60, 10))]
        minutes.write_text("".join(f"{line}\n" for line in lines))
        outputs = []
        for data in (hourly, minutes):
            capsys.readouterr()
            assert run("evaluate", "--model", gz_path, "--input", data, "--train-weeks", 2, "--json") == 0
            evaluated = capsys.readouterr().out
            table = tmp_path / f"compare_{data.stem}.csv"
            assert run("compare", "--input", data, "--train-weeks", 2, "--csv", table) == 0
            # predictor, mse, rmse, mae, r2 and n_samples; the timing columns differ
            outputs.append((evaluated, [line.split(",")[:6] for line in table.read_text().splitlines()]))
        assert outputs[0] == outputs[1]

    def test_synth_deterministic_bytes(self, tmp_path, gz_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for out in (first, second):
            assert run("synth", "--model", gz_path, "--weeks", 2, "--noise", 55,
                       "--seed", 9, "--out", out) == 0
        assert first.read_bytes() == second.read_bytes()


class TestInspect:
    def test_reference_intervals(self, gz_path, capsys):
        assert run("inspect", "--model", gz_path) == 0
        out = capsys.readouterr().out
        lines = {line.split()[0]: line for line in out.splitlines()[1:]}
        assert "10:23 - 13:54" in lines["mw"]
        assert "12:08" in lines["mw"]
        assert "19:36 - 0:45 (+1d)" in lines["ew"]
        assert "sunday" in lines["esu"]

    def test_byte_order_mark_skipped(self, tmp_path, gz_path, capsys):
        path = tmp_path / "bom.json"
        path.write_bytes(b"\xef\xbb\xbf" + gz_path.read_bytes())
        assert run("inspect", "--model", path) == 0
        assert "10:23 - 13:54" in capsys.readouterr().out

    def test_huge_variance_returns(self, tmp_path, capsys):
        components = dict(bundled_model("guangzhou").components)
        components[ComponentId.MW] = ComponentParams(4626.0, 12.14, 1e34)
        path = tmp_path / "wide.json"
        save_model(WeeklyModel(components), path)
        assert within(10.0, run, "inspect", "--model", path) == 0
        assert "(+4166666666666666d)" in capsys.readouterr().out


class TestCompare:
    def test_table_and_csv(self, tmp_path, gz_path, capsys):
        data = tmp_path / "data.csv"
        table = tmp_path / "cmp.csv"
        assert run("synth", "--model", gz_path, "--weeks", 4, "--noise", 150,
                   "--seed", 2, "--out", data) == 0
        assert run("compare", "--input", data, "--train-weeks", 2,
                   "--max-iterations", 4000, "--tolerance", 1e-10,
                   "--csv", table) == 0
        out = capsys.readouterr().out
        assert "weekfit" in out and "seasonal_naive" in out and "weekly_profile_mean" in out
        header = b"predictor,mse,rmse,mae,r2,n_samples,elapsed_train_seconds,elapsed_predict_seconds"
        assert table.read_bytes().startswith(header + b"\r\n")
        # the bytes csv.writer writes for the cells read back; it would quote
        # any cell holding a comma, quote or line end
        reference = io.StringIO(newline="")
        csv.writer(reference).writerows(csv.reader(io.StringIO(table.read_bytes().decode(), newline="")))
        assert table.read_bytes() == reference.getvalue().encode()
        rows = table.read_text().splitlines()
        fitted_mse = float(rows[1].split(",")[1])
        naive_mse = float(rows[2].split(",")[1])
        assert fitted_mse < naive_mse

    def test_noiseless_forecast_aligned(self, tmp_path, gz_path):
        data = tmp_path / "data.csv"
        table = tmp_path / "cmp.csv"
        assert run("synth", "--model", gz_path, "--weeks", 3, "--noise", 0,
                   "--seed", 0, "--out", data) == 0
        assert run("compare", "--input", data, "--train-weeks", 2, "--csv", table) == 0
        rows = [line.split(",") for line in table.read_text().splitlines()[1:]]
        assert [row[0] for row in rows] == ["weekfit", "seasonal_naive", "weekly_profile_mean"]
        assert all(int(row[5]) == HOURS_PER_WEEK for row in rows)
        weekfit = rows[0]
        # a forecast off by one hour scores far below this
        assert float(weekfit[4]) > 0.99
        assert float(weekfit[6]) + float(weekfit[7]) < 10.0
        spec = SplitSpec(train_weeks=2)
        train, test = split(aggregate_hourly(load_csv(data), spec), spec)
        for kind, row in zip(BaselineKind, rows[1:]):
            predicted = baseline_predict(kind, train, HOURS_PER_WEEK).values
            expected = EvalReport.from_predictions(test.values, predicted)
            assert row[0] == kind.value
            assert [float(cell) for cell in row[1:5]] == [expected.mse, expected.rmse, expected.mae, expected.r2]


class TestPredict:
    @pytest.mark.parametrize("name", ["guangzhou", "milan"])
    def test_rows_are_the_week_profile_repeated(self, tmp_path, capsys, name):
        model, pred = tmp_path / "model.json", tmp_path / "pred.csv"
        save_model(bundled_model(name), model)
        assert run("predict", "--model", model, "--weeks", 3, "--out", pred) == 0
        assert capsys.readouterr().out == f"wrote {pred} (504 hours)\n"
        with open(pred, newline="") as handle:
            header, *rows = csv.reader(handle)
        assert header == ["week", "day_k", "hour", "value"]
        assert [tuple(map(int, row[:3])) for row in rows] == [
            (h // 168, h % 168 // 24 + 1, h % 24) for h in range(3 * HOURS_PER_WEEK)
        ]
        # repr round-trips a float exactly, so equal lists are equal bits
        assert [float(row[3]) for row in rows] == _week_profile(bundled_model(name)) * 3


class TestErrorPaths:
    def test_missing_input_file(self, gz_path):
        assert run("evaluate", "--model", gz_path, "--input", "/no/such.csv") == 1

    def test_gap_in_data(self, tmp_path, gz_path):
        data = tmp_path / "gappy.csv"
        rows = ["timestamp,value"]
        rows += [f"2024-01-0{1 + h // 24}T{h % 24:02d}:00:00,5" for h in range(180) if h != 50]
        data.write_text("\n".join(rows) + "\n")
        assert run("fit", "--input", data, "--out", tmp_path / "m.json") == 1

    def test_mixed_utc_offsets(self, tmp_path, gz_path, capsys):
        # three weeks of Europe/Rome hours across the 2024-03-31 change, as
        # isoformat writes them: +01:00, then +02:00
        rome = ZoneInfo("Europe/Rome")
        first = datetime(2024, 3, 18, tzinfo=rome).astimezone(timezone.utc)
        stamps = [(first + timedelta(hours=h)).astimezone(rome) for h in range(3 * HOURS_PER_WEEK)]
        data = tmp_path / "rome.csv"
        data.write_text("timestamp,value\n" + "".join(f"{s.isoformat()},5\n" for s in stamps))
        capsys.readouterr()
        assert run("fit", "--input", data, "--out", tmp_path / "m.json") == 1
        assert run("evaluate", "--model", gz_path, "--input", data) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert all("UTC+01:00 up to 2024-03-31T01:00:00+01:00, then UTC+02:00" in line for line in err)

    def test_too_short_series(self, tmp_path, gz_path):
        data = tmp_path / "short.csv"
        assert run("synth", "--model", gz_path, "--weeks", 1, "--noise", 0,
                   "--seed", 0, "--out", data) == 0
        assert run("fit", "--input", data, "--train-weeks", 2,
                   "--out", tmp_path / "m.json") == 1

    def test_bad_model_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert run("inspect", "--model", bad) == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"mw": {"peak_rate": 1' + "0" * 400 + ', "peak_time": 12, "variance": 1}}',
             "component 'mw': peak_rate must be finite"),
            ("[" * 100_000, "invalid JSON: "),
            ("[]", "model file must contain a JSON object"),
            ('{"mw": 1}', "component 'mw' must be an object"),
            ('{"mw": {"peak_rate": "1", "peak_time": 12, "variance": 1}}',
             "component 'mw': peak_rate must be a number"),
            ('{"mw": {"peak_rate": true, "peak_time": 12, "variance": 1}}',
             "component 'mw': peak_rate must be a number"),
            # the fields are checked before their values
            ('{"mw": {"peak_rate": "1"}}', "component 'mw' is missing 'peak_time'"),
            # a repeated key is refused before any other check, at either level
            ('{"mw": 1, "xyz": 2, "mw": 3}', "repeated key 'mw'"),
            ('{"mw": {"peak_rate": 1, "peak_rate": 2}}', "repeated key 'peak_rate'"),
        ],
        ids=["integer-beyond-float", "deep-nesting", "array", "component-not-object",
             "string-parameter", "boolean-parameter", "missing-field-before-bad-value",
             "repeated-component", "repeated-field"],
    )
    def test_malformed_model_json(self, tmp_path, capsys, text, message):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        assert run("inspect", "--model", bad) == 1
        assert capsys.readouterr().err.startswith("error: " + message)

    def test_oversize_csv_cell(self, tmp_path, capsys):
        data = tmp_path / "wide.csv"
        data.write_text("timestamp,value\n2024-01-01T00:00:00," + "1" * 200_000 + "\n")
        assert run("fit", "--input", data, "--out", tmp_path / "m.json") == 1
        assert capsys.readouterr().err.startswith("error: line 2: ")

    def test_overflowing_values(self, tmp_path, gz_path, capsys):
        data = tmp_path / "huge.csv"
        start = datetime(2024, 1, 1)
        stamps = [(start + timedelta(hours=h)).isoformat() for h in range(360)]
        # two 1e308 readings in the first hour: its hourly sum overflows
        two_in_one_hour = ([("2024-01-01T00:30:00", 1e308)]
                           + [(stamp, 1e308 if h == 0 else 1.0) for h, stamp in enumerate(stamps)])
        # J overflows in the first; in the second the sums of a week slot do
        for rows in ([*zip(stamps, np.random.default_rng(0).uniform(0.0, 1e300, 360).tolist())],
                     [(stamp, 1.7e308) for stamp in stamps],
                     sorted(two_in_one_hour)):
            data.write_text("timestamp,value\n" + "".join(f"{t},{v!r}\n" for t, v in rows))
            for argv in (["fit", "--input", data, "--out", tmp_path / "m.json"],
                         ["evaluate", "--model", gz_path, "--input", data],
                         ["compare", "--input", data]):
                assert run(*argv) == 1
                err = capsys.readouterr().err
                assert err.startswith("error: ") and "too large" in err
        # every modeled rate of this model overflows, and so does noise of 1e308
        huge = tmp_path / "huge.json"
        save_model(WeeklyModel({c: ComponentParams(1.7e308, 12.0, 50.0) for c in ComponentId}), huge)
        for argv in (["predict", "--model", huge, "--weeks", 1],
                     ["synth", "--model", huge, "--weeks", 1],
                     ["synth", "--model", gz_path, "--weeks", 1, "--noise", 1e308]):
            assert run(*argv, "--out", tmp_path / "out.csv") == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "too large" in err

    @pytest.mark.parametrize("command", ["predict", "synth"])
    def test_oversized_horizon(self, tmp_path, gz_path, capsys, command):
        # the allocation (about 1.19 PiB) exceeds any address space, so it
        # is refused at once
        assert run(command, "--model", gz_path, "--weeks", 10**12,
                   "--out", tmp_path / "out.csv") == 1
        assert capsys.readouterr().err.startswith("error: ")

    # np.arange(n) refuses n * 8 bytes past the address space with a
    # ValueError ("array is too big"), comes back empty for n >= 2**63 - 512
    # (numpy 2.4), and a bare MemoryError has no message: each refusal names
    # the size instead
    PAST_MEMORY = {
        "predict_series": lambda gz, out: predict_series(load_model(gz), 2**63 - 168),
        "predict_series-2**62+1": lambda gz, out: predict_series(load_model(gz), 2**62 + 1),
        "predict_series-2**63-600": lambda gz, out: predict_series(load_model(gz), 2**63 - 600),
        "generate_synthetic": lambda gz, out: generate_synthetic(load_model(gz), 54901024028897474, 0, 0),
        "baseline_predict": lambda gz, out: baseline_predict(
            "seasonal_naive", predict_series(load_model(gz), HOURS_PER_WEEK), 2**63 - 200),
        "synth": lambda gz, out: run("synth", "--model", gz, "--weeks", 54901024028897474, "--out", out),
        "synth-2**62-weeks": lambda gz, out: run("synth", "--model", gz, "--weeks", 27450512014448737, "--out", out),
        "predict": lambda gz, out: run("predict", "--model", gz, "--weeks", 54901024028897474, "--out", out),
        "predict-1e12-weeks": lambda gz, out: run("predict", "--model", gz, "--weeks", 10**12, "--out", out),
    }

    @pytest.mark.parametrize("name", PAST_MEMORY)
    def test_horizon_past_memory_names_its_size(self, tmp_path, gz_path, capsys, name):
        try:
            status = self.PAST_MEMORY[name](gz_path, tmp_path / "out.csv")
        except (ValueError, WeekfitError, MemoryError) as exc:
            message = str(exc)
        else:
            assert status == 1
            message = capsys.readouterr().err
        assert "hours are too many to hold in memory" in message and "non-empty" not in message
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["predict", "--weeks", "0"], "argument --weeks: must be an integer in [1, 54901024028897474], got 0"),
            (["synth", "--weeks", "0"], "argument --weeks: must be an integer in [1, 54901024028897474], got 0"),
            (["synth", "--weeks", "1", "--seed", "-1"], "argument --seed: must be an integer >= 0, got -1"),
            (["synth", "--weeks", "x"], "argument --weeks: invalid int value: 'x'"),
            # the input does not exist: the flag is refused before any file is read
            (["fit", "--input", "missing.csv", "--train-weeks", "0"],
             "argument --train-weeks: must be an integer >= 1, got 0"),
            (["evaluate", "--input", "missing.csv", "--train-weeks", "0"],
             "argument --train-weeks: must be an integer >= 1, got 0"),
            (["compare", "--input", "missing.csv", "--train-weeks", "0"],
             "argument --train-weeks: must be an integer >= 1, got 0"),
            (["fit", "--input", "missing.csv", "--max-iterations", "0"],
             "argument --max-iterations: must be an integer >= 1, got 0"),
            (["compare", "--input", "missing.csv", "--tolerance", "0"],
             "argument --tolerance: must be > 0 and < 1, got 0.0"),
            (["fit", "--input", "missing.csv", "--tolerance", "nan"],
             "argument --tolerance: must be > 0 and < 1, got nan"),
            (["fit", "--input", "missing.csv", "--tolerance", "x"],
             "argument --tolerance: invalid float value: 'x'"),
            (["synth", "--weeks", "1", "--noise", "-1"],
             "argument --noise: must be finite and >= 0, got -1.0"),
            (["synth", "--weeks", "1", "--noise", "inf"],
             "argument --noise: must be finite and >= 0, got inf"),
            (["synth", "--weeks", "1", "--noise", "nan"],
             "argument --noise: must be finite and >= 0, got nan"),
            # the relative drop of J lies in [0, 1], so these would stop at the first step
            (["fit", "--input", "missing.csv", "--tolerance", "1"],
             "argument --tolerance: must be > 0 and < 1, got 1.0"),
            (["compare", "--input", "missing.csv", "--tolerance", "inf"],
             "argument --tolerance: must be > 0 and < 1, got inf"),
            # one past (2**63 - 168) // 168, the most weeks whose hours count in int64:
            # named as the flag, not as the library's n_hours or n_weeks
            (["predict", "--weeks", "54901024028897475"],
             "argument --weeks: must be an integer in [1, 54901024028897474], got 54901024028897475"),
            (["synth", "--weeks", "100000000000000000000"],
             "argument --weeks: must be an integer in [1, 54901024028897474], got 100000000000000000000"),
        ],
    )
    def test_count_flags_name_the_flag(self, tmp_path, gz_path, capsys, argv, message, monkeypatch):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "out.csv"
        assert run(*argv, "--model", gz_path, "--out", out) == 1
        assert capsys.readouterr().err.splitlines()[-1].endswith(": error: " + message)
        assert not out.exists()

    def test_unknown_subcommand(self, capsys):
        assert run("frobnicate") == 1
        assert capsys.readouterr().err != ""

    def test_help_exits_zero(self, capsys):
        assert run("--help") == 0

    def test_svg_output(self, tmp_path, gz_path):
        pred = tmp_path / "p.csv"
        svg = tmp_path / "p.svg"
        assert run("predict", "--model", gz_path, "--weeks", 1,
                   "--out", pred, "--svg", svg) == 0
        data = tmp_path / "d.csv"
        fit_svg = tmp_path / "fit.svg"
        assert run("synth", "--model", gz_path, "--weeks", 1, "--noise", 0,
                   "--seed", 0, "--out", data) == 0
        assert run("fit", "--input", data, "--train-weeks", 1,
                   "--out", tmp_path / "m.json", "--svg", fit_svg) == 0
        for path in (svg, fit_svg):
            text = path.read_text()
            assert text.startswith("<svg") and "polyline" in text

    def test_fit_timing_line(self, tmp_path, gz_path, capsys):
        data = tmp_path / "d.csv"
        assert run("synth", "--model", gz_path, "--weeks", 1, "--noise", 0,
                   "--seed", 0, "--out", data) == 0
        capsys.readouterr()
        assert run("fit", "--input", data, "--train-weeks", 1,
                   "--out", tmp_path / "m.json", "--timing") == 0
        last = capsys.readouterr().out.splitlines()[-1]
        assert re.fullmatch(r"elapsed: \d+\.\d{3}s", last)

    def test_evaluate_timing_fields(self, tmp_path, gz_path, capsys):
        data = tmp_path / "d.csv"
        assert run("synth", "--model", gz_path, "--weeks", 2, "--noise", 0,
                   "--seed", 0, "--out", data) == 0
        accuracy = ["mse", "rmse", "mae", "r2", "n_samples"]
        timing = ["elapsed_train_seconds", "elapsed_predict_seconds"]
        evaluate = ["evaluate", "--model", gz_path, "--input", data, "--train-weeks", 1]
        for flags, keys in (([], accuracy), (["--timing"], accuracy + timing)):
            capsys.readouterr()
            assert run(*evaluate, "--json", *flags) == 0
            as_json = json.loads(capsys.readouterr().out)
            assert run(*evaluate, *flags) == 0
            lines = [line.split(": ", 1) for line in capsys.readouterr().out.splitlines()]
            assert list(as_json) == keys
            assert [name for name, _ in lines] == keys
            as_text = {name: float(value) for name, value in lines}
            assert all(as_text[name] == as_json[name] for name in accuracy)
            if flags:  # two runs, so each form carries its own wall time
                for values in (as_json, as_text):
                    assert values["elapsed_train_seconds"] == 0.0
                    assert values["elapsed_predict_seconds"] >= 0.0


def python(*args, cwd) -> subprocess.CompletedProcess:
    """A fresh interpreter on ``args`` with this checkout's package first on its path."""
    return subprocess.run([sys.executable, *map(str, args)], cwd=cwd, capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)


class TestProcessEntry:
    """``python -m weekfit.cli`` and the ``weekfit`` script enter through ``cli._entry``."""

    def test_inspect_prints_what_main_prints(self, tmp_path, gz_path, capsys):
        done = python("-m", "weekfit.cli", "inspect", "--model", gz_path, cwd=tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        assert run("inspect", "--model", gz_path) == 0
        assert done.stdout == capsys.readouterr().out  # nothing is lost at exit

    @pytest.mark.parametrize("argv, stderr", [
        (["inspect", "--model", "missing.json"], "error: "),
        (["synth", "--model", "missing.json", "--weeks", "0", "--out", "out.csv"], "usage: "),
    ])
    def test_input_errors_exit_one(self, tmp_path, argv, stderr):
        done = python("-m", "weekfit.cli", *argv, cwd=tmp_path)
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr.startswith(stderr)

    def test_entry_exits_with_mains_status_and_the_collector_off(self, tmp_path, gz_path):
        probe = (
            "import gc, sys\n"
            "from weekfit import cli\n"
            "run_main = cli.main\n"
            "def main():\n"
            "    print('collector on:', gc.isenabled(), file=sys.stderr)\n"
            "    return run_main()\n"
            "cli.main = main\n"
            "sys.argv[1:] = ['inspect', '--model', sys.argv[1]]\n"
            "cli._entry()\n"
            "print('_entry returned', file=sys.stderr)\n"
        )
        for model, status in ((gz_path, 0), ("missing.json", 1)):
            assert run("inspect", "--model", model) == status
            done = python("-c", probe, model, cwd=tmp_path)
            assert done.returncode == status
            assert done.stderr.splitlines()[0] == "collector on: False"
            assert "_entry returned" not in done.stderr

    def test_exit_handlers_run_after_main(self, tmp_path, gz_path):
        probe = (
            "import atexit, sys\n"
            "from weekfit.cli import _entry\n"
            "atexit.register(print, 'exit handler ran')\n"
            "sys.argv[1:] = ['inspect', '--model', sys.argv[1]]\n"
            "_entry()\n"
        )
        done = python("-c", probe, gz_path, cwd=tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        lines = done.stdout.splitlines()
        assert lines[0].startswith("component") and lines[-1] == "exit handler ran"

    def test_a_profiler_still_reports(self, tmp_path, gz_path):
        done = python("-m", "cProfile", "-m", "weekfit.cli", "inspect", "--model", gz_path, cwd=tmp_path)
        assert (done.returncode, done.stderr) == (0, "")
        table, _, report = done.stdout.partition("function calls")
        assert table.startswith("component") and "Ordered by" in report

    # from Python 3.12 on, cProfile registers as a sys.monitoring tool, and
    # sys.getprofile() reads None; the test runs on every version with a
    # stand-in for sys.monitoring
    @pytest.mark.parametrize("tool", [None, "cProfile"])
    def test_a_monitoring_tool_counts_as_a_profiler(self, monkeypatch, tool):
        monitoring = types.SimpleNamespace(get_tool=lambda tool_id: tool if tool_id == 2 else None)
        monkeypatch.setattr(sys, "monitoring", monitoring, raising=False)
        monkeypatch.setattr(sys, "gettrace", lambda: None)
        monkeypatch.setattr(sys, "getprofile", lambda: None)
        assert cli._watched() is (tool is not None)

    # buffered stdout, as when PYTHONUNBUFFERED is unset: the table is still
    # held when main returns, so only the flush at exit meets the closed pipe;
    # a tracer takes the interpreter's own exit, which flushes once more
    @pytest.mark.parametrize("traced", [False, True], ids=["plain", "traced"])
    def test_a_closed_stdout_is_an_input_error(self, tmp_path, gz_path, traced):
        probe = (
            "import sys\n"
            f"sys.settrace({'lambda *event: None' if traced else 'None'})\n"
            "from weekfit.cli import _entry\n"
            "sys.argv[1:] = ['inspect', '--model', sys.argv[1]]\n"
            "_entry()\n"
        )
        env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
        reader, writer = os.pipe()
        os.close(reader)  # the reader is gone before anything is written
        try:
            done = subprocess.run([sys.executable, "-c", probe, str(gz_path)], cwd=tmp_path, stdout=writer,
                                  stderr=subprocess.PIPE, text=True, env={**env, "PYTHONPATH": str(SRC)},
                                  timeout=120)
        finally:
            os.close(writer)
        assert (done.returncode, done.stderr) == (1, "error: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize("enabled", [True, False])
    def test_main_leaves_the_collector_alone(self, gz_path, capsys, enabled):
        was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        (gc.enable if enabled else gc.disable)()
        try:
            assert run("inspect", "--model", gz_path) == 0
            assert run("inspect", "--model", "missing.json") == 1
            assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
        finally:
            (gc.enable if was_enabled else gc.disable)()

    def test_a_run_makes_few_reference_cycles(self, tmp_path):
        # with the collector off, a cycle made on each solver iteration or
        # each row would be held until exit: compare on 52 weeks, then a fit
        # of flat traffic that runs all 5,000 iterations, leave about 1,600
        # cyclic objects, most of them made by imports
        probe = (
            "import gc\n"
            "gc.disable()\n"
            "import numpy as np\n"
            "from weekfit import TrafficSeries, bundled_model, save_model, write_timestamp_csv\n"
            "from weekfit.cli import main\n"
            "save_model(bundled_model('guangzhou'), 'gz.json')\n"
            "flat = 37.5 * (1 + 0.001 * np.random.default_rng(0).standard_normal(52 * 168))\n"
            "write_timestamp_csv(TrafficSeries(flat), 'flat.csv')\n"
            "assert main(['synth', '--model', 'gz.json', '--weeks', '52', '--noise', '200', '--out', 'd.csv']) == 0\n"
            "assert main(['compare', '--input', 'd.csv', '--train-weeks', '50']) == 0\n"
            "assert main(['fit', '--input', 'flat.csv', '--train-weeks', '52', '--out', 'm.json',\n"
            "             '--max-iterations', '5000', '--tolerance', '1e-15']) == 0\n"
            "print(gc.collect())\n"
        )
        done = python("-c", probe, cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        *printed, cycles = done.stdout.splitlines()
        assert "in 5000 iterations" in printed[-2]
        assert int(cycles) < 5000


# Fuzzing: any input ends in exit 0 (a result) or 1 (an input error), in bounded
# time.  Sizes and corruption counts come from short lists so that a few dozen
# examples already reach the fit and the model evaluation, not only the parsers.
_FUZZ = settings(max_examples=50, deadline=None, derandomize=True)

_bad_cells = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "-1", "1e999", "x", '"1\n"', "2024-01-01T00:00:00", "1,2"]),
)


@st.composite
def _hourly_csv(draw) -> str:
    """Hourly ``timestamp,value`` rows with a few corrupted cells, blank rows or a gap."""
    start = draw(st.datetimes(datetime(2000, 1, 1), datetime(2030, 1, 1)))
    n_hours = draw(st.sampled_from([HOURS_PER_WEEK + 1, 2 * HOURS_PER_WEEK, 1, HOURS_PER_WEEK]))
    level = draw(st.sampled_from([1e3, 0.0, 1e-300, 1e300]))
    values = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, level, n_hours)
    rows = [f"{(start + timedelta(hours=h)).isoformat()},{v!r}" for h, v in enumerate(values.tolist())]
    for _ in range(draw(st.sampled_from([0, 0, 1, 3]))):
        i = draw(st.integers(0, n_hours - 1))
        rows[i] = draw(st.one_of(st.just(""), _bad_cells.map(lambda c: rows[i].split(",")[0] + "," + c)))
    if draw(st.sampled_from([False, False, True])):
        del rows[draw(st.integers(0, n_hours - 1))]
    return "timestamp,value\n" + "\n".join(rows) + "\n"


_bad_numbers = st.one_of(
    st.floats(),
    st.integers(-(10**400), 10**400),
    st.sampled_from([0, 1e-320, 1e308, 24.0, -1, None, "1", True]),
)
_entry = st.fixed_dictionaries(
    {"peak_rate": st.floats(0.0, 1e6), "peak_time": st.floats(0.0, 23.99), "variance": st.floats(0.01, 50.0)}
)


@st.composite
def _model_json(draw) -> str:
    """Valid model JSON with some fields set to extreme or wrong values, dropped or added."""
    payload = {comp.value: draw(_entry) for comp in ComponentId}
    for _ in range(draw(st.sampled_from([0, 0, 1, 3]))):
        entry = payload[draw(st.sampled_from(sorted(payload)))]
        field = draw(st.sampled_from(["peak_rate", "peak_time", "variance", "extra"]))
        if draw(st.booleans()):
            entry[field] = draw(_bad_numbers)
        else:
            entry.pop(field, None)
    if draw(st.sampled_from([False, False, True])):
        payload.pop(draw(st.sampled_from(sorted(payload))))
    return json.dumps(payload)


def _exits_cleanly(*argv) -> None:
    assert within(10.0, run, *argv) in (0, 1)


class TestFuzz:
    @_FUZZ
    @given(text=st.one_of(_hourly_csv(), st.text(max_size=100).map("timestamp,value\n".__add__)))
    def test_csv_commands(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            data, model = Path(tmp, "data.csv"), Path(tmp, "m.json")
            data.write_text(text)
            _exits_cleanly("fit", "--input", data, "--train-weeks", 1, "--out", model)
            if model.exists():
                _exits_cleanly("evaluate", "--model", model, "--input", data, "--train-weeks", 1)
            _exits_cleanly("compare", "--input", data, "--train-weeks", 1)

    @_FUZZ
    @given(
        text=st.one_of(_model_json(), st.text(max_size=60)),
        weeks=st.sampled_from([1, 2, 0]),
        noise=st.sampled_from(["1e3", "0", "1e308", "nan", "-1"]),
    )
    def test_model_commands(self, text, weeks, noise):
        with tempfile.TemporaryDirectory() as tmp:
            model = Path(tmp, "m.json")
            model.write_text(text)
            _exits_cleanly("inspect", "--model", model)
            _exits_cleanly("predict", "--model", model, "--weeks", weeks, "--out", Path(tmp, "p.csv"))
            _exits_cleanly("synth", "--model", model, "--weeks", weeks, "--noise", noise,
                           "--out", Path(tmp, "s.csv"))
