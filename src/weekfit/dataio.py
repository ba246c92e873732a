"""Ingestion, train/test splitting, and series files; the model file is in ``params``."""

from __future__ import annotations

import csv
import io
import math
import operator
from array import array
from bisect import bisect_left
from collections.abc import Iterator, Sequence
from datetime import date, datetime, timedelta
from itertools import chain, count, islice, repeat

import numpy as np

from .errors import (
    CsvFormatError,
    GapError,
    SeriesTooShortError,
    WeekfitError,
    _finite,
    _integer,
    _reals,
)
from .model import TrafficSeries
from .params import _Frozen
from .params import _write_csv, _write_series_csv  # numpy-free, so weekfit predict writes with them too
# the model file is read and written in params.py, which needs no numpy; its
# functions, types and checks are also importable from here, as weekfit.dataio.<name>
from .errors import ModelFormatError, _real
from .params import (
    _PARAM_FIELDS, ComponentId, ComponentParams, HOURS_PER_DAY, HOURS_PER_WEEK, WeeklyModel, bundled_model,
    load_model, save_model,
)

# Synthetic exports anchor absolute hour 0 here; it is a Monday, as week
# slot 0 is.
SYNTH_EPOCH = datetime(2024, 1, 1)

# write_timestamp_csv's last writable hour counter, 9999-12-31T23:00: later
# timestamps have five-digit years, which datetime.fromisoformat refuses
_LAST_HOUR = (datetime.max - SYNTH_EPOCH) // timedelta(hours=1)

# write_timestamp_csv writes a timestamp as its day's ISO date and one of these
_HOUR_TIMES = [f"T{hour:02d}:00:00" for hour in range(HOURS_PER_DAY)]

# _parse_plain reads about this many characters at a time, up to a line end,
# so only one chunk's text and cells are alive at a time
_CHUNK_CHARS = 1 << 16

# aggregate_hourly finds each hour's first reading by binary search when the
# readings average more than this many an hour, and reads every reading's day
# and hour otherwise.  Over 4 weeks of naive stamps (2-core Xeon, Python 3.11,
# best of 9) the per-reading keys took 0.09 us a reading, the search 0.28 us
# an hour at 1 reading an hour and 0.44 us at 60: the search took 1.07 times
# the per-reading time at 3 readings an hour and 0.84 times at 4.  A shared
# aware tzinfo costs the search another 0.04 us a reading to confirm.
_SEARCH_ABOVE = 4

# the ingestion CSV's header: load_csv requires it and write_timestamp_csv writes it
_HEADER = ["timestamp", "value"]


class Readings(_Frozen):
    """Raw measurements as two columns: instants and the non-negative count/rate at each."""

    __slots__ = __match_args__ = ("timestamps", "values")
    __eq__, __hash__ = object.__eq__, object.__hash__  # by identity: the fields are a list and an array

    def __init__(self, timestamps: list[datetime], values: np.ndarray):
        values = _reals(values, "value", empty=True)
        if values.size != len(timestamps):
            raise ValueError(
                f"need one value per timestamp, got {values.size} values "
                f"for {len(timestamps)} timestamps"
            )
        self._fill(timestamps, values)


class SplitSpec(_Frozen):
    """Train/test split rule: the number of whole training weeks."""

    __slots__ = __match_args__ = ("train_weeks",)

    def __init__(self, train_weeks: int = 2):
        self._fill(_integer(train_weeks, "train_weeks", 1))


def load_csv(source) -> Readings:
    """Parse a ``timestamp,value`` CSV (ISO-8601 timestamps) into readings.

    Accepts a path or an open text stream; a file may start with a UTF-8
    byte order mark, and a stream's text with one U+FEFF.  Failures name
    the 1-based line number of the offending row.

    Either source becomes one seekable handle, a file opened with ``newline=""``
    or a stream's whole text split into lines the same way.  A quote-free
    ASCII file is read from it a column at a time; any other file, and any
    file with an error, is read again from its start row by row through the
    csv module.  The readings and the errors are identical either way.
    """
    if hasattr(source, "read"):
        handle = io.StringIO(source.read().removeprefix("\ufeff"), newline="")
    else:
        handle = open(source, newline="", encoding="utf-8-sig")
    with handle:
        readings = _parse_plain(handle)
        if readings is not None:
            return readings
        handle.seek(0)  # a text file's decoder skips the byte order mark again
        reader = csv.reader(handle)
        try:
            return _parse_rows(reader)
        except csv.Error as exc:  # e.g. a cell over the csv module's field size limit
            raise CsvFormatError(reader.line_num, str(exc)) from None


def _parse_plain(handle) -> Readings | None:
    """``_parse_rows``' readings for text whose every line csv.reader reads as two bare cells.

    Reads about ``_CHUNK_CHARS`` characters at a time, cut at a line end.
    Returns None, leaving the stream to ``_parse_rows``, unless every chunk
    passes ``_plain_cells``, the header is ``timestamp,value`` and every
    row parses to a value in [0, inf).  The cells are converted with the row
    loop's own functions, so the readings are bit-identical to its.
    """
    limit = csv.field_size_limit()
    header = _plain_cells(handle.readline(), limit)
    if header is None or [cell.strip() for cell in header] != _HEADER:
        return None
    timestamps: list[datetime] = []
    values = array("d")
    try:
        while chunk := handle.read(_CHUNK_CHARS):
            cells = _plain_cells(chunk + handle.readline(), limit)
            if cells is None:
                return None
            timestamps.extend(map(datetime.fromisoformat, map(str.strip, cells[0::2])))
            values.extend(map(float, cells[1::2]))
        return Readings(timestamps, values)
    except ValueError:  # a cell that does not parse, or a value outside [0, inf)
        return None


def _plain_cells(chunk: str, limit: int) -> list[str] | None:
    """Whole lines' cells as [timestamp, value, timestamp, value, ...], or None.

    None unless the chunk is ASCII with no quote, NUL, lone carriage return
    or blank line, every line holds exactly one comma, and no cell is
    longer than ``limit``.
    """
    # NUL: csv.reader refuses it before Python 3.11, but fromisoformat
    # accepts one after a full timestamp
    if not chunk.isascii() or '"' in chunk or "\0" in chunk:
        return None
    if "\r" in chunk:
        chunk = chunk.replace("\r\n", "\n")
        if "\r" in chunk:
            return None
    if not chunk.endswith("\n"):
        chunk += "\n"
    codes = np.frombuffer(chunk.encode("ascii"), np.uint8)
    seps = np.flatnonzero((codes == ord(",")) | (codes == ord("\n")))
    kinds = codes[seps]
    # separators alternate comma, line end, starting with a comma: so no
    # line is blank and each holds one comma
    if (kinds[0::2] != ord(",")).any() or (kinds[1::2] != ord("\n")).any():
        return None
    # each cell ends at a separator; only a chunk over the limit can hold a cell over it
    if len(chunk) > limit and np.diff(seps, prepend=-1).max() > limit + 1:
        return None
    cells = chunk.replace("\n", ",").split(",")
    cells.pop()  # the empty string after the last line end
    return cells


def _parse_rows(reader) -> Readings:
    try:
        header = next(reader)
    except StopIteration:
        raise CsvFormatError(1, "missing header row") from None
    if [cell.strip() for cell in header] != _HEADER:
        raise CsvFormatError(1, f"expected header {','.join(_HEADER)!r}, got {','.join(header)!r}")
    timestamps: list[datetime] = []
    values: list[float] = []
    # bound once: this loop runs per row
    parse_time, add_time, add_value = datetime.fromisoformat, timestamps.append, values.append
    # errors read reader.line_num, the physical line of the current row
    # (quoted cells may span lines)
    for row in reader:
        if len(row) != 2:
            if not row:
                continue
            raise CsvFormatError(reader.line_num, f"expected 2 columns, got {len(row)}")
        stamp, text = row
        try:
            add_time(parse_time(stamp.strip()))
        except ValueError:
            raise CsvFormatError(reader.line_num, f"unparseable timestamp {stamp!r}") from None
        try:
            value = float(text)
        except ValueError:
            raise CsvFormatError(reader.line_num, f"unparseable value {text!r}") from None
        if not 0.0 <= value < math.inf:
            raise CsvFormatError(reader.line_num, f"value must be finite and >= 0, got {value!r}")
        add_value(value)
    return Readings(timestamps, values)


def aggregate_hourly(readings: Readings, spec: SplitSpec | None = None) -> TrafficSeries:
    """Sum readings into [h, h+1) wall-clock hour buckets and assign week clocks.

    Monday is day 1: the series starts at the first reading's hour counted
    from Monday 00:00 of its week.

    Order-insensitive and mass-conserving.  Readings already in strictly
    increasing time order are summed as read; any other order is sorted by
    (timestamp, value) first, and the sums are bit-identical either way.
    Any empty bucket between the first and last hour is a hard error naming
    the missing hour; nothing is imputed.  Timestamps must be all naive or
    all share one UTC offset, whatever their tzinfo: across an offset
    change the wall-clock hour and the week slot would part.

    Once sorted, readings denser than ``_SEARCH_ABOVE`` an hour on average
    over the hours they span, with one tzinfo object or none, are bucketed
    by a binary search for each hour's first reading; any others by every
    reading's day and hour.  The sums and the errors are the same either way.

    ``spec`` is ignored; it stays only because the benchmark harness
    (``bench/workloads.py``) still passes one positionally.
    """
    stamps, values = readings.timestamps, readings.values
    if not stamps:
        raise WeekfitError("no records to aggregate")
    try:
        # (timestamp, value) order makes the sums independent of the input
        # ordering down to the last bit; strictly increasing timestamps are
        # in that order already, so only other orders pay for the sort
        if not all(map(operator.lt, stamps, islice(stamps, 1, None))):
            ordered = sorted(zip(stamps, values.tolist()))
            stamps = [stamp for stamp, _ in ordered]
            values = np.array([value for _, value in ordered])
            del ordered  # its pairs are the largest allocation here; free them first
    except TypeError:
        raise WeekfitError("timestamps mix naive and timezone-aware datetimes") from None
    _require_one_utc_offset(stamps)
    first, last = stamps[0], stamps[-1]
    span = (last.toordinal() - first.toordinal()) * HOURS_PER_DAY + last.hour - first.hour + 1
    # the search compares readings with hour marks, a wall-clock comparison
    # only between datetimes that share one tzinfo object; it walks at most
    # len(stamps) / _SEARCH_ABOVE hours, however far apart the readings lie
    tz = first.tzinfo
    if len(stamps) > _SEARCH_ABOVE * span and (
            tz is None or all(map(operator.is_, map(operator.attrgetter("tzinfo"), stamps), repeat(tz)))):
        slots = _slots_by_search(stamps, span)
    else:
        slots = _slots_by_reading(stamps)
    # np.bincount adds each slot's values one by one in sorted order, as a
    # running sum would; np.add.reduceat and np.sum add pairwise and differ
    # in the last bits
    sums = _finite(np.bincount(slots, weights=values), "an hourly sum")
    start = first.weekday() * HOURS_PER_DAY + first.hour
    return TrafficSeries(sums, start)


def _slots_by_reading(stamps: Sequence[datetime]) -> np.ndarray:
    """Each sorted reading's wall-clock hour, counted from the first's, from every reading's day and hour."""
    n = len(stamps)
    # one integer key per sample: its wall-clock hour, counted from 0001-01-01
    days = np.fromiter(map(datetime.toordinal, stamps), np.int64, n)
    hours = np.fromiter(map(operator.attrgetter("hour"), stamps), np.int64, n)
    keys = days * HOURS_PER_DAY + hours
    steps = np.diff(keys)
    gaps = np.flatnonzero((steps != 0) & (steps != 1))
    if gaps.size:
        raise _gap_after(stamps[gaps[0]])
    # steps are now 0 or 1, so a key less the first is its slot
    return keys - keys[0]


def _slots_by_search(stamps: Sequence[datetime], span: int) -> np.ndarray:
    """``_slots_by_reading``'s slots, from a binary search for the first reading of each of ``span`` hours.

    The readings must share one tzinfo object, or none, so that comparing
    one with an hour mark compares their wall clocks.
    """
    mark = stamps[0].replace(minute=0, second=0, microsecond=0)
    one_hour = timedelta(hours=1)
    firsts = [0]
    at = 0
    for _ in range(span - 1):
        mark += one_hour
        at = bisect_left(stamps, mark, at)
        firsts.append(at)
    counts = np.diff(firsts, append=len(stamps))
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        # every hour before it holds a reading, so the one before its first
        # mark is the last reading before the gap, as _slots_by_reading finds it
        raise _gap_after(stamps[firsts[empty[0]] - 1])
    return np.repeat(np.arange(span), counts)


def _gap_after(stamp: datetime) -> GapError:
    """The error for an empty hour right after ``stamp``'s."""
    before = stamp.replace(minute=0, second=0, microsecond=0)
    return GapError(f"missing hour {(before + timedelta(hours=1)).isoformat()}")


def _require_one_utc_offset(stamps: Sequence[datetime]) -> None:
    """Refuse sorted timestamps whose UTC offset changes: their wall-clock hours would skip or repeat."""
    offset = stamps[0].utcoffset()
    if offset is None:
        # the order check, or the sort, has refused a mix of naive and aware
        # timestamps
        return
    change = next((i for i, stamp in enumerate(stamps) if stamp.utcoffset() != offset), None)
    if change is not None:
        before, after = stamps[change - 1], stamps[change]
        raise WeekfitError(
            f"timestamps carry more than one UTC offset: {before.tzname()} up to "
            f"{before.isoformat()}, then {after.tzname()} from {after.isoformat()}"
        )


def training_window(series: TrafficSeries, spec: SplitSpec | None = None) -> TrafficSeries:
    """The first ``train_weeks`` whole weeks; a shorter series raises SeriesTooShortError."""
    if spec is None:
        spec = SplitSpec()
    n_train = spec.train_weeks * HOURS_PER_WEEK
    if len(series) < n_train:
        raise SeriesTooShortError(
            f"need {n_train} samples for {spec.train_weeks} training weeks, got {len(series)}"
        )
    return series.window(0, n_train)


def split(series: TrafficSeries, spec: SplitSpec | None = None) -> tuple[TrafficSeries, TrafficSeries]:
    """``training_window`` as train, the remainder (at least one sample) as test."""
    train = training_window(series, spec)
    if len(series) == len(train):
        raise SeriesTooShortError(
            f"no samples left to test on after {len(train)} training samples"
        )
    return train, series.window(len(train), len(series))


def _floats(values: np.ndarray) -> Iterator[float]:
    """``values`` as Python floats, converted 16,384 at a time, so that a CSV writer never holds them all."""
    return chain.from_iterable(values[i:i + (1 << 14)].tolist() for i in range(0, len(values), 1 << 14))


def write_series_csv(series: TrafficSeries, path) -> None:
    """Write a series as ``week,day_k,hour,value`` rows, with ``weekfit predict``'s writer."""
    _write_series_csv(_floats(series.values), series.start, len(series), path)


def write_timestamp_csv(series: TrafficSeries, path) -> None:
    """Write a series in the ingestion format (``timestamp,value``).

    Hour counter 0 maps to ``SYNTH_EPOCH``, a Monday, so round-trips
    preserve the week clock.  A series that runs past 9999-12-31T23:00
    raises WeekfitError before the file is opened.
    """
    if series.end - 1 > _LAST_HOUR:
        raise WeekfitError(
            f"hour {series.end - 1} is past 9999-12-31T23:00, the last timestamp a CSV can hold"
        )
    # made as written, the timestamps a day at a time, so the text is never all held
    first_day, skip = divmod(series.start, HOURS_PER_DAY)
    days = map(date.isoformat, map(date.fromordinal, count(SYNTH_EPOCH.toordinal() + first_day)))
    stamps = islice(chain.from_iterable(map(day.__add__, _HOUR_TIMES) for day in days), skip, skip + len(series))
    _write_csv(path, _HEADER, zip(stamps, map(repr, _floats(series.values))))


def write_trace_csv(trace: Sequence[float], path) -> None:
    """Write the objective trajectory as a two-column CSV (iteration, J)."""
    _write_csv(path, ["iteration", "J"], ((str(i), repr(float(value))) for i, value in enumerate(trace)))
