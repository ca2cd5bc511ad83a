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
import sys
from dataclasses import KW_ONLY, dataclass, field
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
_LONG_HEADER = ["timestamp", "price"]
_WIDE_HEADER = ["date"] + [f"h{i}" for i in range(1, 25)]


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
    """Hourly price entries in time order.

    ``utc_hours`` holds each entry's instant in epoch hours; ``values``
    are EUR/MWh and may be zero or negative, so NaN is the one mark of a
    known-absent slot (a blank wide-format cell).  ``zone`` is the market
    time zone whose wall-clock days calendarize lays out.  ``zone_offsets``
    is set, not passed in: it keeps the last table of the zone's UTC
    offsets built for the series, by parse_price_csv or offsets_table.
    """

    utc_hours: np.ndarray
    values: np.ndarray
    _: KW_ONLY
    market_label: str = ""
    zone: str = DEFAULT_ZONE
    zone_offsets: ZoneOffsets | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.utc_hours = np.asarray(self.utc_hours, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        if len(self.utc_hours) != len(self.values):
            raise ValueError("utc_hours and values must have equal length")

    def __len__(self) -> int:
        return len(self.utc_hours)

    def utc_offsets(self) -> np.ndarray:
        """The market zone's UTC offset in hours at each entry."""
        return self.offsets_table(self.utc_hours).at(self.utc_hours)

    def offsets_table(self, hours: np.ndarray) -> ZoneOffsets:
        """A table of the zone's offsets that covers ``hours`` (see
        ZoneOffsets.covers): the kept one if it does, else a new one built
        over ``hours``, which is kept from then on."""
        table = self.zone_offsets
        if table is None or table.zone != self.zone or not table.covers(hours):
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
        except (OSError, ValueError) as exc:  # ValueError: a path holding a NUL
            raise InputError(f"cannot read {source}: {exc}") from exc
    elif isinstance(source, bytes):
        data = source
    elif hasattr(source, "read"):
        data = source.read()
        if isinstance(data, str):  # a text reader, which decoded the file itself
            return data.removeprefix("\ufeff")
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


def _rows(lines: list[str], header: list[str], bad_header: str):
    """Line number and cells of each non-blank data row of a CSV's lines; a
    MalformedRow for a header other than ``header`` or a row of another width."""
    if _split_csv_line(lines[0].lower()) != header:
        raise MalformedRow(1, bad_header)
    for line_no, line in enumerate(lines[1:], start=2):
        if line.strip():
            cells = _split_csv_line(line)
            if len(cells) != len(header):
                raise MalformedRow(line_no, f"expected {len(header)} fields, got {len(cells)}")
            yield line_no, cells


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
_PAIRS = np.array([0, 2, 5, 8, 11, 20])  # century, year, month, day, hour, offset hours


def _canonical_long(text: str):
    """_parse_rows's result on ``text.splitlines()`` in one numpy pass over
    the bytes, or None unless the header is one line and every data row is
    ``YYYY-MM-DD{T| }HH:00:00[±HH:00],<price>`` in the first row's stamp
    form (naive or with an offset), naming a real hour and a finite price.
    Never raises: every other text goes to _parse_rows."""
    if not text.isascii() or "\0" in text:
        return None
    data = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    # rows end at a line feed, or at the end of the text, after any carriage return
    feeds = np.flatnonzero(data == ord("\n"))
    stops = feeds if text.endswith("\n") else np.append(feeds, data.size)
    if stops.size < 2:  # no data row
        return None
    header = text[:stops[0]].removesuffix("\r")
    if header.splitlines() != [header] or _split_csv_line(header.lower()) != _LONG_HEADER:
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
    with_offset = bool(m[0, 19] != ord(","))
    row, alt = _STAMPS[with_offset]
    width, digit, stamp = row.size, row == ord("#"), m[:, :row.size]
    if longest <= width or not (
        (((stamp - 48) < 10) | ~digit).all() and ((stamp == row) | (stamp == alt) | digit).all()
        and m[:, width].all() and _PRICE_BYTES[m[:, width:]].all()
    ):
        return None
    try:
        values = np.ascontiguousarray(m[:, width:]).view(f"S{longest - width}").ravel().astype(float)
    except ValueError:  # a price that is no number, such as "1e" or "1.2.3"
        return None
    # each number of the stamp from its digit pairs, and the calendar checked
    # here: numpy's ISO reader crashes on some stamps that are off it
    at = _PAIRS[:5 + with_offset]
    pairs = ((stamp[:, at] - 48) * 10 + stamp[:, at + 1] - 48).astype(np.int64)
    year, (month, day, hour) = pairs[:, 0] * 100 + pairs[:, 1], pairs.T[2:5]
    months = (year - 1970) * 12 + month - 1
    # epoch days of the first of each month from the earliest to the one after the latest
    lo, i = months.min(), months - months.min()
    firsts = np.arange(lo, lo + i.max() + 2).astype("datetime64[M]").astype("datetime64[D]")
    firsts = firsts.view(np.int64)
    if not (np.isfinite(values).all() and year.min() >= 1 and month.min() >= 1 and month.max() <= 12
            and day.min() >= 1 and (day <= np.diff(firsts)[i]).all()
            and pairs[:, 4:].max() <= 23):
        return None
    offsets = (np.where(m[:, 19] == ord("-"), -pairs[:, 5], pairs[:, 5]) if with_offset
               else np.full(len(m), _NAIVE, dtype=np.int64))
    return (firsts[i] + day - 1) * HOURS_PER_DAY + hour, offsets, values, np.arange(2, len(m) + 2)


def _parse_rows(lines: list[str]):
    """Stamp hours as written, their UTC offsets (_NAIVE for wall time),
    prices and line numbers of the data rows of a long file's lines, in
    file order; the one parser of odd but valid rows and of every row error."""
    fields, offsets, values, line_nos = [], [], [], []
    bad_header = f"expected header 'timestamp,price', got {lines[0]!r}"
    for line_no, (stamp, price) in _rows(lines, _LONG_HEADER, bad_header):
        ts = _parse_timestamp(stamp, line_no)
        fields.append(ts.toordinal() * HOURS_PER_DAY + ts.hour)
        offsets.append(_NAIVE if ts.tzinfo is None else ts.utcoffset() // _HOUR)
        values.append(_parse_price(price, line_no))
        line_nos.append(line_no)
    fields, offsets, line_nos = np.array([fields, offsets, line_nos], dtype=np.int64)
    return fields - EPOCH_ORDINAL * HOURS_PER_DAY, offsets, np.array(values, dtype=float), line_nos


def _parse_wide(lines: list[str]):
    """As _parse_rows, one entry per cell; empty cells hold NaN."""
    days, values, line_nos = [], [], []
    seen: set[date] = set()
    for line_no, cells in _rows(lines, _WIDE_HEADER, "expected header 'date,h1,...,h24'"):
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
    days, line_nos = np.array([days, line_nos], dtype=np.int64)
    starts = (days - EPOCH_ORDINAL) * HOURS_PER_DAY
    fields = (starts[:, None] + np.arange(HOURS_PER_DAY)).ravel()
    offsets = np.full(fields.size, _NAIVE, dtype=np.int64)
    return fields, offsets, np.array(values, dtype=float), np.repeat(line_nos, HOURS_PER_DAY)


def parse_price_csv(source, format: str = "long", zone: str = DEFAULT_ZONE) -> PriceSeries:
    """Parse an hourly price CSV into a time-sorted PriceSeries.

    Long format is ``timestamp,price`` with ISO-8601 timestamps (offset or
    market wall time); wide format is ``date,h1,...,h24`` with empty cells
    marking missing hours (NaN in the series).  Zero and negative prices
    are legal.  The series keeps the table of the zone's offsets built here.

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
        parsed = (_parse_rows if format == "long" else _parse_wide)(lines)
    fields, offsets, values, line_nos = parsed
    present = ~np.isnan(values)
    offsets_in_zone = ZoneOffsets(zone, fields)

    # naive stamps are market wall time; a repeated wall hour is the second
    # leg of a fall-back transition
    naive = offsets == _NAIVE
    walls = fields[naive]
    fold0, fold1, skipped = offsets_in_zone.resolve(walls)
    bad = np.flatnonzero(skipped & present[naive])
    if bad.size:
        k = np.flatnonzero(naive)[bad[0]]
        raise MalformedRow(
            int(line_nos[k]), f"{iso_hour(fields[k])} does not exist in local time (spring forward)"
        )
    order = np.argsort(walls, kind="stable")
    repeated = np.empty(walls.size, dtype=bool)
    repeated[order] = ~changes(walls[order])
    utc = fields - offsets
    utc[naive] = np.where(repeated, fold1, fold0)

    if not present.any():
        raise EmptyInput("no data rows")

    # sort by absolute instant, breaking ties (skipped DST labels) by wall time
    order = np.lexsort((fields, utc))
    utc, fields, values = utc[order], fields[order], values[order]
    seen = np.flatnonzero(present[order])
    dup = np.flatnonzero(utc[seen][1:] == utc[seen][:-1])
    if dup.size:
        a, b = seen[dup[0]], seen[dup[0] + 1]
        first, second = sorted((int(line_nos[order[a]]), int(line_nos[order[b]])))
        stamp = iso_hour(fields[b], fields[b] - utc[b])
        raise DuplicateTimestamp(f"duplicate timestamp {stamp} at lines {first} and {second}")

    series = PriceSeries(utc, values, zone=zone)
    series.zone_offsets = offsets_in_zone
    return series


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
    present = ~np.isnan(series.values)
    if not present.any():
        raise WrongYearSpan("series holds no observed values")
    utc = series.utc_hours[present]
    observed_values = series.values[present]
    walls = utc + series.offsets_table(utc).at(utc)

    year, last = years_of(np.array([walls.min(), walls.max()])).tolist()
    if year != last:
        raise WrongYearSpan(f"series spans several years: {np.unique(years_of(walls)).tolist()}")
    if not 1 <= year <= 9999:  # the years a datetime.date can hold
        raise WrongYearSpan(f"data lie in year {year}, outside 1..9999")

    n_days = days_in_year(year)
    jan1 = date(year, 1, 1)
    n = HOURS_PER_DAY * n_days
    start = epoch_hour(jan1)
    grid = start + np.arange(n)
    fold0, fold1, skipped = series.offsets_table(grid).resolve(grid)

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
    # the runs [lo, end) of missing slots, each between observed slots lo - 1 and end
    lo, end = np.flatnonzero(np.diff(imputed, prepend=False, append=False)).reshape(-1, 2).T
    run = np.repeat(np.arange(lo.size), end - lo)
    slot, a, b = np.flatnonzero(imputed), lo[run] - 1, end[run]
    spring = np.bincount(run[skipped[slot]], minlength=lo.size)
    gaps = end - lo - spring
    over = np.flatnonzero(gaps > gap_limit)
    if over.size:
        raise GapTooLong(iso_hour(start + lo[over[0]]), int(gaps[over[0]]))
    # a leading run takes its right neighbour, a trailing run or a held spring hour its left
    held = (a >= 0) & ((b == n) | ((end - lo == 1) & (spring == 1) & (policy.spring == "hold"))[run])
    flat[slot] = flat[np.where(held, a, b)]
    line = (a >= 0) & ~held
    slot, a, b = slot[line], a[line], b[line]
    flat[slot] = flat[a] + (slot - a) / (b - a) * (flat[b] - flat[a])

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
        "n_dst_spring_filled": int(spring.sum()),
        "n_dst_fall_collapsed": int(seconds.size),
        "gap_hours_filled": int(gaps.sum()),
        "policy": {"spring": policy.spring, "fall": policy.fall, "gap_limit": int(gap_limit)},
    }
    return DayMatrix(values, imputed, year, manifest)
