"""Hourly price file ingestion and calendar normalization.

Parses CSV exports of day-ahead spot prices into a validated PriceSeries
and recasts one calendar year of observations into a 24 x D day matrix
(columns = days), resolving DST deformations (23/25-hour local days),
leap years and short data gaps.

Times are epoch hours (see zones); after the text is read, all per-row
work runs in numpy.
"""

from __future__ import annotations

import calendar
import io
import sys
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from math import isfinite
from pathlib import Path

import numpy as np

from .errors import (
    DuplicateTimestamp,
    EmptyInput,
    GapTooLong,
    InputError,
    MalformedRow,
    WrongYearSpan,
)
from .zones import (
    EPOCH_ORDINAL,
    HOURS_PER_DAY,
    ZoneOffsets,
    changes,
    epoch_hour,
    iso_hour,
    years_of,
    zone_info,
)

DEFAULT_ZONE = "Europe/Berlin"
DEFAULT_GAP_LIMIT = 6
FORMATS = ("long", "wide")

_HOUR = timedelta(hours=1)
_NAIVE = 99  # offset of a naive (wall-time) stamp; real ones lie within +-24 h


def days_in_year(year: int) -> int:
    return 366 if calendar.isleap(year) else 365


@dataclass(frozen=True)
class DstPolicy:
    """How 23/25-hour local days are normalized to 24 hour slots.

    spring: fill for the nonexistent spring-forward hour, one of
        "interpolate" (mean of wall-clock neighbors) or "hold" (copy the
        previous hour).  The filled cell is flagged imputed.
    fall:   collapse rule for the doubled fall-back hour, one of "mean",
        "first" or "last".  The collapsed cell stays flagged observed.
    """

    spring: str = "interpolate"
    fall: str = "mean"

    _SPRING = ("interpolate", "hold")
    _FALL = ("mean", "first", "last")

    def __post_init__(self):
        if self.spring not in self._SPRING:
            raise ValueError(f"unknown spring policy {self.spring!r}")
        if self.fall not in self._FALL:
            raise ValueError(f"unknown fall policy {self.fall!r}")

    @classmethod
    def parse(cls, text: str) -> "DstPolicy":
        """Parse a CLI-style ``<spring>-<fall>`` label, e.g. ``interpolate-mean``."""
        spring, sep, fall = text.partition("-")
        if not sep:
            raise ValueError(f"expected '<spring>-<fall>', got {text!r}")
        return cls(spring=spring, fall=fall)

    def label(self) -> str:
        return f"{self.spring}-{self.fall}"


@dataclass
class PriceSeries:
    """Hourly price entries for (at most) one market year, in time order.

    ``utc_hours`` holds each entry's instant in epoch hours; ``values``
    are EUR/MWh and may be zero or negative.  Entries not ``observed``
    hold NaN and only mark a known-absent slot (wide-format empty cells).
    ``zone`` is the market time zone whose wall-clock days calendarize
    lays out; ``zone_offsets`` keeps the last table of its UTC offsets
    that was built for the series (see offsets_table).
    """

    utc_hours: np.ndarray
    values: np.ndarray
    observed: np.ndarray
    market_label: str = ""
    year: int | None = None
    zone: str = DEFAULT_ZONE
    zone_offsets: ZoneOffsets | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.utc_hours = np.asarray(self.utc_hours, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        self.observed = np.asarray(self.observed, dtype=bool)
        if not (len(self.utc_hours) == len(self.values) == len(self.observed)):
            raise ValueError("utc_hours, values and observed must have equal length")

    def __len__(self) -> int:
        return len(self.utc_hours)

    def utc_offsets(self) -> np.ndarray:
        """The market zone's UTC offset in hours at each entry."""
        return self.offsets_table(self.utc_hours).at(self.utc_hours)

    def offsets_table(self, hours: np.ndarray, margin: int = 0) -> ZoneOffsets:
        """A table of the zone's offsets, exact from ``margin`` days before
        the first of ``hours`` to ``margin`` (at most 2) days after the
        last: the kept one if it is, else a new one built over ``hours``,
        which is kept from then on."""
        table = self.zone_offsets
        if table is None or table.zone != self.zone or not table.covers(hours, margin):
            table = self.zone_offsets = ZoneOffsets(self.zone, hours)
        return table


@dataclass
class DayMatrix:
    """A year of hourly values on a 24 x D grid, columns in day order.

    ``imputed`` marks cells that were filled rather than observed; the
    ``manifest`` records ingest counts and the normalization policy.
    """

    values: np.ndarray
    imputed: np.ndarray
    year: int
    manifest: dict = field(default_factory=dict)


# --- CSV parsing ------------------------------------------------------------


def _read_text(source) -> str:
    if isinstance(source, (str, Path)):
        try:
            data = Path(source).read_bytes()
        except OSError as exc:
            raise InputError(f"cannot read {source}: {exc}") from exc
    elif isinstance(source, bytes):
        data = source
    elif isinstance(source, io.TextIOBase):
        return source.read().removeprefix("\ufeff")
    elif hasattr(source, "read"):
        data = source.read()
    else:
        raise TypeError(f"cannot read from {type(source).__name__}")
    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports often start with
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1  # object: the bytes after the mark
        raise MalformedRow(line, f"input is not UTF-8 text: {exc}") from exc


def _parse_timestamp(text: str, line_no: int) -> datetime:
    text = text.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    try:
        ts = datetime.fromisoformat(text)
    except ValueError as exc:
        raise MalformedRow(line_no, f"bad timestamp {text!r}: {exc}") from exc
    # whole hours in UTC as well as in the stamp's own offset
    if ts.minute or ts.second or ts.microsecond or (ts.utcoffset() or _HOUR) % _HOUR:
        raise MalformedRow(line_no, f"timestamp {text!r} is not on an hour boundary")
    return ts


def _parse_price(text: str, line_no: int) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise MalformedRow(line_no, f"bad price {text!r}") from exc
    if not isfinite(value):
        raise MalformedRow(line_no, f"price {text!r} is not finite")
    return value


def _split_csv_line(line: str) -> list[str]:
    # inputs are plain comma-separated numbers/timestamps, never quoted
    return [cell.strip() for cell in line.split(",")]


def _is_long_header(line: str) -> bool:
    return [h.lower() for h in _split_csv_line(line)] == ["timestamp", "price"]


def _parse_long(lines: list[str]):
    """Stamp hours as written, their UTC offsets (_NAIVE for wall time),
    prices and line numbers of the data rows, in file order."""
    if not _is_long_header(lines[0]):
        raise MalformedRow(1, f"expected header 'timestamp,price', got {lines[0]!r}")
    return _parse_rows(lines[1:])


# A canonical row up to its price, naive and with an offset, in its two
# spellings ("T" or space, "+" or "-"); "#" stands for a digit.
_STAMPS = [
    [np.frombuffer(row, dtype=np.uint8) for row in spellings]
    for spellings in (
        (b"####-##-##T##:00:00,", b"####-##-## ##:00:00,"),
        (b"####-##-##T##:00:00+##:00,", b"####-##-## ##:00:00-##:00,"),
    )
]
_PRICE_BYTES = np.zeros(256, dtype=bool)
_PRICE_BYTES[[0, *b"0123456789+-.eE"]] = True  # 0 pads a short row
_LONGEST_ROW = _STAMPS[1][0].size + len(f"{-sys.float_info.max:.6f}")


def _digits(m: np.ndarray, start: int, stop: int) -> np.ndarray:
    """The decimal number in byte columns [start, stop) of each row."""
    number = np.zeros(len(m), dtype=np.int32)
    for column in range(start, stop):
        number = number * 10 + (m[:, column] - 48)
    return number


def _canonical_long(text: str):
    """_parse_long's result on ``text.splitlines()`` in one numpy pass over
    the bytes, or None unless the header is one line and every data row is
    ``YYYY-MM-DD{T| }HH:00:00[±HH:00],<price>`` naming a real hour and a
    finite price.  Never raises: every other text goes to _parse_long."""
    if not text.isascii() or "\0" in text:
        return None
    data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # rows end at a line feed, or at the end of the text, after any carriage return
    feeds = np.flatnonzero(data == ord("\n"))
    stops = feeds if text.endswith("\n") else np.append(feeds, data.size)
    if stops.size < 2:  # no data row
        return None
    header = text[:stops[0]].removesuffix("\r")
    if header.splitlines() != [header] or not _is_long_header(header):
        return None
    starts, stops = feeds[:stops.size - 1] + 1, stops[1:]
    stops = stops - (data[stops - 1] == ord("\r"))
    lengths = stops - starts
    # a naive row needs 21 bytes
    if lengths.min() <= 20 or lengths.max() > _LONGEST_ROW:
        return None
    longest = int(lengths.max())
    padded = np.append(data, np.zeros(longest, dtype=np.uint8))
    m = np.lib.stride_tricks.sliding_window_view(padded, longest)[starts]
    m[np.arange(longest) >= lengths[:, None]] = 0
    aware = m[:, 19] != ord(",")
    forms = [(~aware, False), (aware, True)]
    if aware.all() or not aware.any():  # one stamp form: read m in place
        forms = [(slice(None), bool(aware[0]))]
    values = np.empty(len(m))
    offsets = np.full(len(m), _NAIVE, dtype=np.int64)
    for rows, with_offset in forms:
        (row, alt), part = _STAMPS[with_offset], m[rows]
        width, digit = row.size, row == ord("#")
        stamp = part[:, :width]
        if part.shape[1] <= width or not (
            (((stamp - 48) < 10) | ~digit).all() and ((stamp == row) | (stamp == alt) | digit).all()
            and part[:, width].all() and _PRICE_BYTES[part[:, width:]].all()
        ):
            return None
        prices = np.ascontiguousarray(part[:, width:]).view(f"S{part.shape[1] - width}").ravel()
        try:
            values[rows] = prices.astype(float)
        except ValueError:  # not a number, such as "1e" or "1.2.3"
            return None
        if with_offset:
            hours = _digits(part, 20, 22)
            if (hours > 23).any():
                return None
            offsets[rows] = np.where(part[:, 19] == ord("-"), -hours, hours)
    if not np.isfinite(values).all():
        return None
    year, month, day, hour = (_digits(m, a, a + n) for a, n in ((0, 4), (5, 2), (8, 2), (11, 2)))
    months = ((year - 1970) * 12 + month - 1).astype("datetime64[M]")
    days = months.astype("datetime64[D]") + (day - 1)  # a day off its month lands in another
    if not ((year > 0) & (month >= 1) & (month <= 12) & (days.astype("datetime64[M]") == months)
            & (hour <= 23)).all():
        return None
    return days.astype(np.int64) * HOURS_PER_DAY + hour, offsets, values, list(range(2, len(m) + 2))


def _parse_rows(body: list[str]):
    """_parse_long's result row by row, data lines numbered from 2; the one
    parser of odd but valid rows and of every row error."""
    fields, offsets, values, line_nos = [], [], [], []
    for line_no, line in enumerate(body, start=2):
        if not line.strip():
            continue
        cells = _split_csv_line(line)
        if len(cells) != 2:
            raise MalformedRow(line_no, f"expected 2 fields, got {len(cells)}")
        ts = _parse_timestamp(cells[0], line_no)
        fields.append(ts.toordinal() * HOURS_PER_DAY + ts.hour)
        offsets.append(_NAIVE if ts.tzinfo is None else ts.utcoffset() // _HOUR)
        values.append(_parse_price(cells[1], line_no))
        line_nos.append(line_no)
    fields = np.array(fields, dtype=np.int64) - EPOCH_ORDINAL * HOURS_PER_DAY
    return fields, np.array(offsets, dtype=np.int64), np.array(values, dtype=float), line_nos


def _parse_wide(lines: list[str]):
    """As _parse_long, one entry per cell; empty cells hold NaN."""
    header = [h.lower() for h in _split_csv_line(lines[0])]
    expected = ["date"] + [f"h{i}" for i in range(1, 25)]
    if header != expected:
        raise MalformedRow(1, "expected header 'date,h1,...,h24'")

    days, values, line_nos = [], [], []
    seen: set[date] = set()
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = _split_csv_line(line)
        if len(cells) != 25:
            raise MalformedRow(line_no, f"expected 25 fields, got {len(cells)}")
        try:
            day = date.fromisoformat(cells[0])
        except ValueError as exc:
            raise MalformedRow(line_no, f"bad date {cells[0]!r}") from exc
        if day in seen:
            raise DuplicateTimestamp(f"duplicate date row {day.isoformat()} at line {line_no}")
        seen.add(day)
        days.append(day.toordinal())
        values.extend([_parse_price(cell, line_no) if cell else np.nan for cell in cells[1:]])
        line_nos.append(line_no)
    starts = (np.array(days, dtype=np.int64) - EPOCH_ORDINAL) * HOURS_PER_DAY
    fields = (starts[:, None] + np.arange(HOURS_PER_DAY)).ravel()
    offsets = np.full(fields.size, _NAIVE, dtype=np.int64)
    return fields, offsets, np.array(values, dtype=float), np.repeat(line_nos, HOURS_PER_DAY).tolist()


def parse_price_csv(
    source,
    format: str = "long",
    market_label: str = "",
    zone: str = DEFAULT_ZONE,
) -> PriceSeries:
    """Parse an hourly price CSV into a time-sorted PriceSeries.

    Long format is ``timestamp,price`` with ISO-8601 timestamps (offset or
    market wall time); wide format is ``date,h1,...,h24`` with empty cells
    marking missing hours.  Zero and negative prices are legal.

    Raises MalformedRow, DuplicateTimestamp, EmptyInput, or InputError for
    an unknown zone.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}")
    zone_info(zone)  # an unknown zone fails before the source is read
    text = _read_text(source)
    parsed = _canonical_long(text) if format == "long" else None
    if parsed is None:
        lines = text.splitlines()
        if not lines or not lines[0].strip():
            raise EmptyInput("no header row")
        parsed = (_parse_long if format == "long" else _parse_wide)(lines)
    fields, offsets, values, line_nos = parsed
    observed = ~np.isnan(values)
    offsets_in_zone = ZoneOffsets(zone, fields)

    # naive stamps are market wall time; a repeated wall hour is the second
    # leg of a fall-back transition
    naive = offsets == _NAIVE
    walls = fields[naive]
    fold0, fold1, skipped = offsets_in_zone.resolve(walls)
    bad = np.flatnonzero(skipped & observed[naive])
    if bad.size:
        k = np.flatnonzero(naive)[bad[0]]
        raise MalformedRow(
            line_nos[k], f"{iso_hour(fields[k])} does not exist in local time (spring forward)"
        )
    order = np.argsort(walls, kind="stable")
    repeated = np.empty(walls.size, dtype=bool)
    repeated[order] = ~changes(walls[order])
    utc = fields - offsets
    utc[naive] = np.where(repeated, fold1, fold0)

    if not observed.any():
        raise EmptyInput("no data rows")

    # sort by absolute instant, breaking ties (skipped DST labels) by wall time
    order = np.lexsort((fields, utc))
    utc, fields, values, observed = utc[order], fields[order], values[order], observed[order]
    seen = np.flatnonzero(observed)
    dup = np.flatnonzero(utc[seen][1:] == utc[seen][:-1])
    if dup.size:
        a, b = seen[dup[0]], seen[dup[0] + 1]
        first, second = sorted((line_nos[order[a]], line_nos[order[b]]))
        stamp = iso_hour(fields[b], fields[b] - utc[b])
        raise DuplicateTimestamp(f"duplicate timestamp {stamp} at lines {first} and {second}")

    local = utc + offsets_in_zone.at(utc)
    first, last = years_of(np.array([local.min(), local.max()])).tolist()
    year = first if first == last else None
    return PriceSeries(utc, values, observed, market_label, year, zone, offsets_in_zone)


# --- calendarization --------------------------------------------------------


def calendarize(
    series: PriceSeries,
    policy: DstPolicy | None = None,
    gap_limit: int = DEFAULT_GAP_LIMIT,
) -> DayMatrix:
    """Recast one calendar year of hourly observations as a 24 x D matrix.

    The spring-forward hour is filled per policy and flagged imputed; the
    doubled fall-back hour is collapsed per policy and stays observed.  Any
    other run of up to ``gap_limit`` missing hours is linearly interpolated
    (flagged imputed); longer runs raise GapTooLong.
    """
    policy = policy or DstPolicy()
    if not series.observed.any():
        raise WrongYearSpan("series holds no observed values")
    utc = series.utc_hours[series.observed]
    observed_values = series.values[series.observed]
    walls = utc + series.offsets_table(utc).at(utc)

    year, last = years_of(np.array([walls.min(), walls.max()])).tolist()
    if year != last:
        raise WrongYearSpan(f"series spans several years: {np.unique(years_of(walls)).tolist()}")
    if series.year is not None and series.year != year:
        raise WrongYearSpan(f"series labeled {series.year} but data lie in {year}")
    if not 1 <= year <= 9999:  # the years a datetime.date can hold
        raise WrongYearSpan(f"data lie in year {year}, outside 1..9999")

    n_days = days_in_year(year)
    jan1 = date(year, 1, 1)
    n = HOURS_PER_DAY * n_days
    start = epoch_hour(jan1)
    grid = start + np.arange(n)
    # resolve brackets each wall hour by 26 hours, so it reads two days either side
    fold0, fold1, skipped = series.offsets_table(grid, margin=2).resolve(grid)

    # observations by temporal slot d * 24 + h, in series order per slot
    slots = walls - start
    counts = np.bincount(slots, minlength=n)
    bad = (counts > 2) | ((counts == 2) & ((fold0 == fold1) | skipped))
    if bad.any():
        # report the first slot that is not an ambiguous wall hour, in (hour, day) order
        h, d = (x[0] for x in np.nonzero(bad.reshape((n_days, HOURS_PER_DAY)).T))
        raise DuplicateTimestamp(
            f"wall slot {iso_hour(start + d * HOURS_PER_DAY + h)} observed"
            f" {counts[d * HOURS_PER_DAY + h]} times but is not a DST fall-back hour"
        )
    order = np.argsort(slots, kind="stable")
    ordered, ordered_values = slots[order], observed_values[order]
    firsts = changes(ordered)
    seconds = np.flatnonzero(~firsts)  # second legs of fall-back hours
    flat = np.full(n, np.nan)
    flat[ordered[firsts]] = ordered_values[firsts]
    if policy.fall == "mean":
        legs = ordered_values[seconds - 1], ordered_values[seconds]
        flat[ordered[seconds]] = (0.0 + legs[0] + legs[1]) / 2.0
    elif policy.fall == "last":
        flat[ordered[seconds]] = ordered_values[seconds]

    imputed = np.isnan(flat)
    edges = np.diff(imputed.astype(np.int8), prepend=0, append=0)
    skipped_before = np.r_[0, np.cumsum(skipped)]
    spring_filled = gap_hours = 0
    # each run of missing slots [lo, end), filled from its observed neighbours
    for lo, end in zip(np.flatnonzero(edges == 1).tolist(), np.flatnonzero(edges == -1).tolist()):
        length = end - lo
        spring_slots = int(skipped_before[end] - skipped_before[lo])
        effective = length - spring_slots
        if effective > gap_limit:
            raise GapTooLong(iso_hour(start + lo), effective)

        if length == 1 and spring_slots and policy.spring == "hold" and lo > 0:
            flat[lo] = flat[lo - 1]
        elif lo == 0:
            flat[:end] = flat[end]
        elif end == n:
            flat[lo:] = flat[lo - 1]
        else:
            left, right = flat[lo - 1], flat[end]
            steps = np.arange(1, length + 1, dtype=float) / (length + 1)
            flat[lo:end] = left + steps * (right - left)
        spring_filled += spring_slots
        gap_hours += effective

    values = flat.reshape((n_days, HOURS_PER_DAY)).T
    imputed = imputed.reshape((n_days, HOURS_PER_DAY)).T

    manifest = {
        "year": year,
        "zone": series.zone,
        "market_label": series.market_label,
        "n_slots": int(n),
        "n_observed": int(n - imputed.sum()),
        "n_imputed": int(imputed.sum()),
        "n_missing_input": int(imputed.sum()),
        "n_dst_spring_filled": spring_filled,
        "n_dst_fall_collapsed": int(seconds.size),
        "gap_hours_filled": gap_hours,
        "policy": {"spring": policy.spring, "fall": policy.fall, "gap_limit": int(gap_limit)},
    }
    return DayMatrix(values, imputed, year, manifest)
