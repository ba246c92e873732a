import csv
import io
import json
import sys
import tracemalloc
from datetime import datetime, timedelta, timezone
from unittest import mock
from zoneinfo import ZoneInfo

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weekfit import (
    ComponentId,
    ComponentParams,
    CsvFormatError,
    GapError,
    ModelFormatError,
    Readings,
    SeriesTooShortError,
    SplitSpec,
    TrafficSeries,
    WeekfitError,
    WeeklyModel,
    aggregate_hourly,
    bundled_model,
    load_csv,
    load_model,
    save_model,
    split,
    training_window,
    write_series_csv,
    write_timestamp_csv,
    write_trace_csv,
)
from weekfit import dataio
from conftest import series_csv_clocks
from oracles import naive_aggregate, naive_load_csv

# transcription of the bundled Guangzhou reference set, (rate, variance, time)
GUANGZHOU_TABLE = {
    "mw": (4626, 3.10, 12.14),
    "aw": (3839, 3.91, 17.35),
    "ew": (2136, 6.63, 22.18),
    "msa": (3612, 2.89, 12.09),
    "asa": (2989, 3.14, 16.55),
    "esa": (2356, 5.78, 21.60),
    "msu": (2866, 2.81, 11.95),
    "asu": (2759, 4.13, 16.47),
    "esu": (2252, 6.39, 22.15),
}

params_st = st.builds(
    ComponentParams,
    peak_rate=st.floats(0.0, 1e6),
    peak_time=st.floats(0.0, 24.0, exclude_max=True),
    variance=st.floats(1e-3, 1e3),
)
model_st = st.builds(
    lambda ps: WeeklyModel(dict(zip(ComponentId, ps))),
    st.lists(params_st, min_size=9, max_size=9),
)


# cells either path reads alike; clean ones alone keep a file on the column
# path, the others send it to the row loop or to an error: quotes,
# non-ASCII, NUL, padding, unparseable, negative or long cells
CLEAN_STAMPS = ["2024-01-01T00:00:00", "2024-01-01T00:30:00", "2024-01-01T01:00:00+00:00",
                " 2024-01-01T02:00:00 ", "2024-01-01 03:00"]
OTHER_STAMPS = ["yesterday", "", '"2024-01-01T04:00:00"', '"2024-01-01T05:00:00\n"',
                "2024-01-01T06:00:00\x00", "2024-01-01T07:00:00\u00e9"]
CLEAN_VALUES = ["1", "2.5", " 3 ", "0", "-0.0", "1_000", "1e-3"]
OTHER_VALUES = ["-1", "nan", "inf", "1e400", "many", "", '"4"', '"5,5"', "6\x00", "\uff17",
                "1" * 40]
CLEAN_HEADERS = ["timestamp,value", " timestamp , value "]
OTHER_HEADERS = ["timestamp,value,", '"timestamp",value', "value,timestamp", "timestamp", ""]
SPLICES = ["\r", "\n", "\r\n", ",", '"', "\x00", "\u00e9", " "]


@st.composite
def csv_texts(draw, clean=st.booleans()):
    """A header and 0-8 rows; the last line may lack its line end.

    A clean text has clean cells, two to a row, and ``\\n`` or ``\\r\\n``
    line ends.  Any other text may also have other cells, 1 or 4 cells to a
    row (0 or 3 commas), blank lines, lone ``\\r`` line ends, and up to
    three of ``SPLICES`` put in anywhere.
    """
    clean = draw(clean)
    stamps = st.sampled_from(CLEAN_STAMPS if clean else CLEAN_STAMPS + OTHER_STAMPS)
    values = st.sampled_from(CLEAN_VALUES if clean else CLEAN_VALUES + OTHER_VALUES)
    ends = st.sampled_from(["\n", "\r\n"] if clean else ["\n", "\r\n", "\r"])
    widths = st.just(2) if clean else st.sampled_from([2, 2, 2, 0, 1, 4])
    text = draw(st.sampled_from(CLEAN_HEADERS if clean else CLEAN_HEADERS + OTHER_HEADERS))
    text += draw(ends)
    for _ in range(draw(st.integers(0, 8))):
        cells = [draw(stamps), draw(values), draw(stamps | values), draw(stamps | values)]
        text += ",".join(cells[:draw(widths)]) + draw(ends)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    for _ in range(0 if clean else draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(SPLICES)) + text[at:]
    return text


def load_outcome(load, source):
    """The readings, bit for bit, or the error's type and message."""
    try:
        readings = load(source)
    except Exception as exc:
        return type(exc), str(exc)
    return list(map(repr, readings.timestamps)), readings.values.tobytes()


class TestLoadCsv:
    def test_single_row(self):
        readings = load_csv(io.StringIO("timestamp,value\n2013-11-04T00:00:00,120\n"))
        assert readings.timestamps == [datetime(2013, 11, 4)]
        assert readings.values.dtype == np.float64 and readings.values.tolist() == [120.0]

    def test_header_only(self):
        readings = load_csv(io.StringIO("timestamp,value\n"))
        assert readings.timestamps == [] and readings.values.size == 0

    def test_missing_header(self):
        with pytest.raises(CsvFormatError, match="header"):
            load_csv(io.StringIO("2013-11-04T00:00:00,120\n"))

    def test_empty_file(self):
        with pytest.raises(CsvFormatError, match="^line 1: missing header row$"):
            load_csv(io.StringIO(""))

    def test_utf8_bom_is_ignored(self, tmp_path):
        # spreadsheet programs write "CSV UTF-8" with a byte order mark; a
        # quoted file is read twice, and the second read skips the mark too.
        # A stream opened as plain utf-8 keeps the mark in its text.
        for quote in ("", '"'):
            rows = "".join(f"2013-11-04T{h:02d}:00:00,{quote}{h}{quote}\n" for h in range(24))
            text = "timestamp,value\n" + rows
            plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
            plain.write_bytes(text.encode())
            marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
            expected = aggregate_hourly(load_csv(plain))
            assert aggregate_hourly(load_csv(marked)) == expected
            with open(marked, encoding="utf-8") as stream:
                assert aggregate_hourly(load_csv(stream)) == expected

    def test_negative_value_names_line(self):
        stream = io.StringIO("timestamp,value\n2013-11-04T00:00:00,3\n2013-11-04T00:10:00,-5\n")
        with pytest.raises(CsvFormatError, match="line 3") as info:
            load_csv(stream)
        assert info.value.line == 3

    def test_bad_timestamp_names_line(self):
        with pytest.raises(CsvFormatError, match="line 2"):
            load_csv(io.StringIO("timestamp,value\nyesterday,3\n"))

    @pytest.mark.parametrize("stamp, expected", [
        ("2024-01-01", datetime(2024, 1, 1)),
        ("2024-01-01T05", datetime(2024, 1, 1, 5)),
        ("2024-01-01 05:30", datetime(2024, 1, 1, 5, 30)),
        ("2024-01-01T05:30:00-05:00", datetime(2024, 1, 1, 5, 30, tzinfo=timezone(timedelta(hours=-5)))),
    ])
    def test_timestamp_forms_of_every_supported_python(self, stamp, expected):
        assert load_csv(io.StringIO(f"timestamp,value\n{stamp},1\n")).timestamps == [expected]

    @pytest.mark.parametrize("stamp, expected", [
        ("2024-01-01T00:00:00Z", datetime(2024, 1, 1, tzinfo=timezone.utc)),
        ("20240101T0000", datetime(2024, 1, 1)),
    ])
    def test_timestamp_forms_read_from_python_3_11(self, stamp, expected):
        # before Python 3.11, datetime.fromisoformat reads only the forms that isoformat writes
        stream = io.StringIO(f"timestamp,value\n{stamp},1\n")
        if sys.version_info >= (3, 11):
            assert load_csv(stream).timestamps == [expected]
        else:
            with pytest.raises(CsvFormatError, match="^line 2: unparseable timestamp"):
                load_csv(stream)

    def test_bad_value(self):
        with pytest.raises(CsvFormatError, match="value"):
            load_csv(io.StringIO("timestamp,value\n2013-11-04T00:00:00,many\n"))

    def test_oversize_cell_names_line(self):
        # csv.reader refuses cells over 131,072 characters
        wide = "2013-11-04T01:00:00," + "1" * 200_000
        stream = io.StringIO(f"timestamp,value\n2013-11-04T00:00:00,3\n{wide}\n")
        with pytest.raises(CsvFormatError, match="line 3") as info:
            load_csv(stream)
        assert info.value.line == 3

    def test_line_numbers_count_physical_lines(self):
        # the quoted cell on line 2 spans two lines, so the bad row is on line 4
        stream = io.StringIO('timestamp,value\n2024-01-01T00:00:00,"1\n"\n2024-01-01T01:00:00,-1\n')
        with pytest.raises(CsvFormatError, match="line 4") as info:
            load_csv(stream)
        assert info.value.line == 4

    @pytest.mark.parametrize("row, message", [
        ("yesterday,1", "unparseable timestamp 'yesterday'"),
        ("2024-01-01T01:00:00,1,2", "expected 2 columns, got 3"),
        ("2024-01-01T01:00:00,nan", "value must be finite and >= 0, got nan"),
    ])
    def test_errors_after_multiline_cell_name_physical_line(self, row, message):
        # the quoted cell on line 2 spans two lines, so the bad row is on line 4
        stream = io.StringIO(f'timestamp,value\n2024-01-01T00:00:00,"1\n"\n{row}\n')
        with pytest.raises(CsvFormatError) as info:
            load_csv(stream)
        assert info.value.line == 4
        assert str(info.value) == f"line 4: {message}"

    def test_from_path(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("timestamp,value\n2013-11-04T05:30:00,7.5\n")
        readings = load_csv(path)
        assert readings.values[0] == 7.5

    @settings(max_examples=500, deadline=None)
    @given(text=csv_texts(), chunk=st.integers(1, 64),
           limit=st.one_of(st.integers(8, 32), st.just(csv.field_size_limit())))
    def test_matches_row_loop_oracle(self, text, chunk, limit):
        # chunks of a few characters cut the drawn text into several; the
        # lowered field size limit catches cells in the header and the rows
        default = csv.field_size_limit(limit)
        try:
            with mock.patch.object(dataio, "_CHUNK_CHARS", chunk):
                assert (load_outcome(load_csv, io.StringIO(text, newline=""))
                        == load_outcome(naive_load_csv, text))
        finally:
            csv.field_size_limit(default)

    @pytest.mark.parametrize("rows, limit", [
        ("2024-01-01T00:00:00\n1\n", None),  # two comma-free lines, not one row
        ("2024-01-01T00:00:00,1,2024-01-01T01:00:00,2\n", None),  # one row of four cells
        ("2024-01-01T00:00:00\r,1\n", None),  # a lone CR ends the first line
        ("2024-01-01T00:00:00,1\n\n2024-01-01T01:00:00,2\n", None),  # a blank line
        ('"2024-01-01T00:00:00","1"\r\n', None),
        ("2024-01-01T00:00:00\x00,1\n", None),  # csv.reader refuses NUL before 3.11
        ("2024-01-01T00:00:00,1\n", 18),
        ("2024-01-01T00:00:00,1\n", 19),
        ("2024-01-01T00:00:00,1\n", 8),  # the header's first cell is too long
    ])
    def test_edge_texts_match_row_loop_oracle(self, rows, limit):
        text = "timestamp,value\n" + rows
        default = csv.field_size_limit(limit or csv.field_size_limit())
        try:
            assert (load_outcome(load_csv, io.StringIO(text, newline=""))
                    == load_outcome(naive_load_csv, text))
        finally:
            csv.field_size_limit(default)

    @settings(max_examples=100, deadline=None)
    @given(text=csv_texts(clean=st.just(True)), chunk=st.integers(1, 64))
    def test_clean_texts_take_the_column_path(self, text, chunk):
        with mock.patch.object(dataio, "_CHUNK_CHARS", chunk):
            assert dataio._parse_plain(io.StringIO(text, newline="")) is not None

    def test_readings_validation(self):
        with pytest.raises(ValueError, match="one value per timestamp"):
            Readings([datetime(2013, 11, 4)], [1.0, 2.0])
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="finite and >= 0"):
                Readings([datetime(2013, 11, 4), datetime(2013, 11, 5)], [1.0, bad])
        with pytest.raises(ValueError, match="value must hold numbers"):
            Readings([datetime(2013, 11, 4)], ["1"])
        readings = Readings([datetime(2013, 11, 4)], [3])
        assert readings.values.dtype == np.float64
        assert not readings.values.flags.writeable


def readings_of(pairs) -> Readings:
    """Readings from (timestamp, value) pairs."""
    return Readings([stamp for stamp, _ in pairs], [value for _, value in pairs])


# aware inputs carry one offset per series; +05:30 puts the UTC hours at half past
OFFSETS = [None, timezone.utc, timezone(timedelta(hours=5, minutes=30)),
           timezone(timedelta(hours=-3)), timezone(timedelta(hours=1))]


@st.composite
def hourly_rows(draw):
    """Gap-free rows over 1-12 hours, in one of four orders.

    - shuffled, some timestamps repeated with other values;
    - in strictly increasing time order, which aggregation sums as read;
    - in time order with a repeated timestamp, whose values come in drawn
      order, so aggregation must sort them;
    - strictly increasing but for one swapped adjacent pair, so the order
      check may scan far before aggregation falls back to the sort.
    """
    tz = draw(st.sampled_from(OFFSETS))
    first = datetime(2024, 1, 1, tzinfo=tz) + timedelta(hours=draw(st.integers(0, 24 * 366)))
    order = draw(st.sampled_from(["shuffled", "increasing", "repeated", "one swap"]))
    # few distinct offsets within the hour, so timestamps repeat
    within = st.sampled_from([0, 1, 599_999_999, 1_800_000_000, 3_599_999_999])
    distinct = order in ("increasing", "one swap")
    value = st.floats(0.0, 1e6) | st.floats(0.0, 1e-6)
    rows = []
    for hour in range(draw(st.integers(1, 12))):
        for offset_us in sorted(draw(st.lists(within, min_size=1, max_size=12, unique=distinct))):
            stamp = first + timedelta(hours=hour, microseconds=offset_us)
            rows.append((stamp, draw(value)))
    if order == "shuffled":
        return draw(st.permutations(rows))
    if order == "repeated":
        at = draw(st.integers(0, len(rows) - 1))
        rows.insert(at, (rows[at][0], draw(value)))
    elif order == "one swap" and len(rows) > 1:
        at = draw(st.integers(0, len(rows) - 2))
        rows[at], rows[at + 1] = rows[at + 1], rows[at]
    return rows


class TestAggregateHourly:
    def test_sums_subhourly_records(self):
        records = readings_of(
            [(datetime(2013, 11, 4, 0, 10 * i), float(i + 1)) for i in range(6)]
        )
        series = aggregate_hourly(records)
        assert len(series) == 1
        assert series.values[0] == 21.0

    def test_monday_maps_to_day_one(self, tmp_path):
        # 2013-11-04 is a Monday, 2013-11-10 the Sunday after it
        assert datetime(2013, 11, 4).weekday() == 0
        series = aggregate_hourly(readings_of([(datetime(2013, 11, 4), 1.0)]))
        assert series_csv_clocks(series, tmp_path / "monday.csv") == [(0, 1, 0)]
        # a Sunday 20:00 start runs into Monday of the next week
        series = aggregate_hourly(
            readings_of([(datetime(2013, 11, 10, 20) + timedelta(hours=h), 1.0) for h in range(6)])
        )
        assert series.start == 164
        assert series_csv_clocks(series, tmp_path / "sunday.csv") == [
            (0, 7, 20), (0, 7, 21), (0, 7, 22), (0, 7, 23), (1, 1, 0), (1, 1, 1)
        ]

    def test_gap_names_missing_hour(self):
        records = readings_of([
            (datetime(2013, 11, 4, 4), 1.0),
            (datetime(2013, 11, 4, 6), 1.0),
        ])
        with pytest.raises(GapError, match="05:00"):
            aggregate_hourly(records)

    def test_order_insensitive(self):
        rng = np.random.default_rng(0)
        records = [
            (datetime(2013, 11, 4, h, m), float(rng.uniform(0, 5)))
            for h in range(12)
            for m in (0, 17, 45)
        ]
        forward = aggregate_hourly(readings_of(records))
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert aggregate_hourly(readings_of(shuffled)) == forward

    def test_conserves_total_mass(self):
        rng = np.random.default_rng(1)
        records = readings_of([
            (datetime(2013, 11, 4, h, m), float(rng.uniform(0, 5)))
            for h in range(24)
            for m in (0, 30)
        ])
        series = aggregate_hourly(records)
        assert float(series.values.sum()) == pytest.approx(
            sum(records.values.tolist()), rel=1e-12
        )

    def test_empty_input(self):
        with pytest.raises(WeekfitError, match="no records"):
            aggregate_hourly(Readings([], []))

    @settings(max_examples=100, deadline=None)
    @given(rows=hourly_rows())
    def test_matches_per_row_oracle_bit_for_bit(self, rows):
        text = "".join(f"{stamp.isoformat()},{value!r}\n" for stamp, value in rows)
        readings = load_csv(io.StringIO("timestamp,value\n" + text))
        series = aggregate_hourly(readings)
        sums, start = naive_aggregate(*zip(*rows))
        assert np.array_equal(series.values, sums)
        assert series.start == start

    def test_mixed_naive_and_aware_rejected(self):
        naive, aware = datetime(2013, 11, 4, 4), datetime(2013, 11, 4, 5, tzinfo=timezone.utc)
        # the order check meets the mix in the first order, the sort in the second
        for stamps in ([naive, aware], [naive + timedelta(hours=2), naive, aware]):
            with pytest.raises(WeekfitError, match="mix naive and timezone-aware"):
                aggregate_hourly(Readings(stamps, np.ones(len(stamps))))

    def test_more_than_one_utc_offset_rejected(self):
        # two weeks of Europe/Rome hours across the 2024-03-31 change, written
        # with isoformat's offsets: +01:00, then +02:00 from 03:00 local
        rome = ZoneInfo("Europe/Rome")
        first = datetime(2024, 3, 24, tzinfo=rome).astimezone(timezone.utc)
        stamps = [(first + timedelta(hours=h)).astimezone(rome) for h in range(336)]
        text = "".join(f"{stamp.isoformat()},1\n" for stamp in stamps)
        readings = load_csv(io.StringIO("timestamp,value\n" + text))
        with pytest.raises(WeekfitError) as info:
            aggregate_hourly(readings)
        assert str(info.value) == (
            "timestamps carry more than one UTC offset: UTC+01:00 up to "
            "2024-03-31T01:00:00+01:00, then UTC+02:00 from 2024-03-31T03:00:00+02:00"
        )

    def test_zone_with_changing_offset_rejected(self):
        # aware arithmetic within one zoneinfo zone is wall-clock arithmetic,
        # so the spring change would read as a gap at 02:00
        rome = ZoneInfo("Europe/Rome")
        first = datetime(2024, 3, 30, tzinfo=rome).astimezone(timezone.utc)
        stamps = [(first + timedelta(hours=h)).astimezone(rome) for h in range(48)]
        with pytest.raises(WeekfitError) as info:
            aggregate_hourly(Readings(stamps, np.ones(48)))
        assert not isinstance(info.value, GapError)
        assert str(info.value) == (
            "timestamps carry more than one UTC offset: CET up to "
            "2024-03-31T01:00:00+01:00, then CEST from 2024-03-31T03:00:00+02:00"
        )

    def test_zone_with_one_offset_matches_fixed_offset(self):
        # a zoneinfo zone is accepted while every timestamp has the same offset
        rome = ZoneInfo("Europe/Rome")
        winter = [datetime(2024, 1, 8, tzinfo=rome) + timedelta(hours=h) for h in range(336)]
        fixed = [stamp.replace(tzinfo=timezone(timedelta(hours=1))) for stamp in winter]
        values = np.arange(336.0)
        assert aggregate_hourly(Readings(winter, values)) == aggregate_hourly(
            Readings(fixed, values)
        )


class TestSplit:
    def test_three_weeks_default_spec(self):
        series = TrafficSeries(np.arange(1.0, 505.0), 0)
        train, test = split(series)
        assert (len(train), len(test)) == (336, 168)
        assert train.start == 0 and test.start == 336

    def test_rejects_empty_test(self):
        series = TrafficSeries(np.ones(336), 0)
        with pytest.raises(SeriesTooShortError):
            split(series, SplitSpec(train_weeks=2))

    def test_training_window_accepts_exact_length(self):
        series = TrafficSeries(np.arange(1.0, 337.0), 5)
        assert training_window(series, SplitSpec(train_weeks=2)) == series
        assert len(training_window(series, SplitSpec(train_weeks=1))) == 168
        with pytest.raises(SeriesTooShortError):
            training_window(series.window(0, 335), SplitSpec(train_weeks=2))

    def test_partition_reassembles(self):
        rng = np.random.default_rng(2)
        series = TrafficSeries(rng.uniform(0, 9, 400), 7)
        train, test = split(series, SplitSpec(train_weeks=1))
        rebuilt = TrafficSeries(
            np.concatenate([train.values, test.values]), train.start
        )
        assert rebuilt == series

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(train_weeks=0)
        with pytest.raises(ValueError, match="train_weeks"):
            SplitSpec(train_weeks=1.5)
        assert type(SplitSpec(train_weeks=2.0).train_weeks) is int


class TestModelPersistence:
    def test_bundled_guangzhou_matches_transcription(self, guangzhou):
        for comp in ComponentId:
            rate, variance, time_ = GUANGZHOU_TABLE[comp.value]
            assert guangzhou[comp].peak_rate == rate
            assert guangzhou[comp].variance == variance
            assert guangzhou[comp].peak_time == time_

    def test_bundled_milan_loads(self, milan):
        assert milan[ComponentId.EW].peak_rate == 7327

    def test_unknown_bundle(self):
        with pytest.raises(WeekfitError, match="shanghai"):
            bundled_model("shanghai")

    @settings(max_examples=50, deadline=None)
    @given(model=model_st)
    def test_round_trip_exact(self, model, tmp_path_factory):
        path = tmp_path_factory.mktemp("models") / "model.json"
        save_model(model, path)
        assert load_model(path) == model

    def test_file_bytes_pinned(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(WeeklyModel({c: ComponentParams(1.5, 12.0, 2.0) for c in ComponentId}), path)
        entry = '{\n    "peak_rate": 1.5,\n    "peak_time": 12.0,\n    "variance": 2.0\n  }'
        names = ["mw", "aw", "ew", "msa", "asa", "esa", "msu", "asu", "esu"]
        body = ",\n".join(f'  "{name}": {entry}' for name in names)
        assert path.read_bytes() == ("{\n" + body + "\n}\n").encode()

    def test_leading_byte_order_mark_skipped(self, tmp_path, guangzhou):
        path = tmp_path / "model.json"
        save_model(guangzhou, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert load_model(path) == guangzhou

    def test_missing_component_named(self, tmp_path, guangzhou):
        path = tmp_path / "model.json"
        save_model(guangzhou, path)
        payload = json.loads(path.read_text())
        del payload["esu"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="esu"):
            load_model(path)

    def test_unknown_component_rejected(self, tmp_path, guangzhou):
        path = tmp_path / "model.json"
        save_model(guangzhou, path)
        payload = json.loads(path.read_text())
        payload["xyz"] = payload["mw"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="xyz"):
            load_model(path)

    def test_unknown_field_rejected(self, tmp_path, guangzhou):
        path = tmp_path / "model.json"
        save_model(guangzhou, path)
        payload = json.loads(path.read_text())
        payload["mw"]["skew"] = 1.0
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="skew"):
            load_model(path)

    @pytest.mark.parametrize(
        "key, repeat",
        [("mw", lambda text: text[:text.rindex("}")] + ', "mw": {"peak_rate": 1, "peak_time": 1, "variance": 1}}'),
         ("variance", lambda text: text.replace('"variance": 8.59', '"variance": 8.59, "variance": 1'))],
        ids=["component", "field"],
    )
    def test_repeated_key_rejected(self, tmp_path, milan, key, repeat):
        path = tmp_path / "model.json"
        save_model(milan, path)
        text = repeat(path.read_text())
        assert json.loads(text) != json.loads(path.read_text())  # json alone lets the last copy win
        path.write_text(text)
        with pytest.raises(ModelFormatError, match=f"^repeated key '{key}'$"):
            load_model(path)

    def test_non_finite_rejected(self, tmp_path, guangzhou):
        path = tmp_path / "model.json"
        save_model(guangzhou, path)
        path.write_text(path.read_text().replace("4626.0", "NaN"))
        with pytest.raises(ModelFormatError, match="finite"):
            load_model(path)

    def test_integer_beyond_float_range_rejected(self, tmp_path, guangzhou):
        path = tmp_path / "model.json"
        save_model(guangzhou, path)
        path.write_text(path.read_text().replace("4626.0", "1" + "0" * 400))
        with pytest.raises(ModelFormatError, match="component 'mw': peak_rate must be finite"):
            load_model(path)

    def test_deep_nesting_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[" * 100_000)
        with pytest.raises(ModelFormatError, match="invalid JSON"):
            load_model(path)

    def test_invariant_violation_reported(self, tmp_path, guangzhou):
        path = tmp_path / "model.json"
        save_model(guangzhou, path)
        payload = json.loads(path.read_text())
        payload["mw"]["variance"] = -1.0
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFormatError, match="variance"):
            load_model(path)


class TestSeriesCsv:
    def test_series_csv_format(self, tmp_path):
        series = TrafficSeries(np.array([1.5, 0.1]), 167)
        path = tmp_path / "series.csv"
        write_series_csv(series, path)
        assert path.read_bytes() == b"week,day_k,hour,value\r\n0,7,23,1.5\r\n1,1,0,0.1\r\n"
        write_timestamp_csv(series, path)
        assert path.read_bytes() == (
            b"timestamp,value\r\n2024-01-07T23:00:00,1.5\r\n2024-01-08T00:00:00,0.1\r\n"
        )

    def test_timestamp_csv_round_trips_through_ingestion(self, tmp_path):
        rng = np.random.default_rng(3)
        series = TrafficSeries(rng.uniform(0, 100, 200), 0)
        path = tmp_path / "data.csv"
        write_timestamp_csv(series, path)
        rebuilt = aggregate_hourly(load_csv(path))
        assert rebuilt == series

    def test_timestamp_csv_stops_at_year_9999(self, tmp_path):
        last = (datetime(9999, 12, 31, 23) - datetime(2024, 1, 1)) // timedelta(hours=1)
        path = tmp_path / "late.csv"
        with pytest.raises(WeekfitError, match="past 9999-12-31T23:00"):
            write_timestamp_csv(TrafficSeries(np.ones(3), 70_000_000), path)
        with pytest.raises(WeekfitError, match=f"hour {last + 1} is past"):
            write_timestamp_csv(TrafficSeries(np.ones(2), last), path)
        assert not path.exists()
        write_timestamp_csv(TrafficSeries(np.ones(2), last - 1), path)
        assert load_csv(path).timestamps == [datetime(9999, 12, 31, 22), datetime(9999, 12, 31, 23)]

    def test_series_csv_stops_at_the_int64_range(self, tmp_path):
        # np.arange counts in float64 once its stop passes 2**63 - 1
        path = tmp_path / "late.csv"
        with pytest.raises(WeekfitError, match=f"hour {2**63 - 1} is past"):
            write_series_csv(TrafficSeries(np.ones(2), 2**63 - 2), path)
        assert not path.exists()
        assert series_csv_clocks(TrafficSeries(np.ones(2), 2**63 - 3), path) == [
            (54901024028897475, 1, 5),
            (54901024028897475, 1, 6),
        ]

    def test_byte_stable_output(self, tmp_path):
        series = TrafficSeries(np.linspace(0.1, 9.7, 50), 3)
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_series_csv(series, first)
        write_series_csv(series, second)
        assert first.read_bytes() == second.read_bytes()


def csv_writer_bytes(header, rows) -> bytes:
    """What ``csv.writer`` writes for ``header`` and ``rows``: the writers' reference."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


class TestWriterBytes:
    # the float edges, a start past 0 that crosses a week, and more lines than
    # the writer joins at a time
    VALUES = [0.0, 5e-324, 1.7976931348623157e+308, 1.5, 0.1, 1e-7, 123456789.0, 2.5e16]
    START = 165

    @pytest.fixture()
    def series(self):
        values = self.VALUES + np.random.default_rng(4).uniform(0, 1e4, 20_000).tolist()
        return TrafficSeries(values, self.START)

    def test_series_csv(self, tmp_path, series):
        hours = range(series.start, series.end)
        rows = [(h // 168, h % 168 // 24 + 1, h % 24, v) for h, v in zip(hours, series.values.tolist())]
        write_series_csv(series, tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == csv_writer_bytes(["week", "day_k", "hour", "value"], rows)

    def test_timestamp_csv(self, tmp_path, series):
        stamps = (datetime(2024, 1, 1) + timedelta(hours=h) for h in range(series.start, series.end))
        rows = [(stamp.isoformat(), v) for stamp, v in zip(stamps, series.values.tolist())]
        write_timestamp_csv(series, tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == csv_writer_bytes(["timestamp", "value"], rows)

    def test_timestamp_csv_never_holds_the_whole_text(self, tmp_path):
        # 2,000 weeks, whose timestamps and values as text take about 75 MiB
        series = TrafficSeries(np.random.default_rng(5).uniform(0, 1e4, 336_000))
        tracemalloc.start()
        try:
            write_timestamp_csv(series, tmp_path / "t.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_series_csv_never_holds_every_value(self, tmp_path):
        # 2,000 weeks: a Python float per hour, held whole, peaks near 13 MiB;
        # converted a block at a time, near 3 MiB
        series = TrafficSeries(np.random.default_rng(5).uniform(0, 1e4, 336_000))
        tracemalloc.start()
        try:
            write_series_csv(series, tmp_path / "s.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_trace_csv(self, tmp_path):
        trace = [1.7976931348623157e+308, 12.5, 0.1, 5e-324, 0.0]
        write_trace_csv(trace, tmp_path / "j.csv")
        assert (tmp_path / "j.csv").read_bytes() == csv_writer_bytes(["iteration", "J"], enumerate(trace))
