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
    lays out.
    """

    utc_hours: np.ndarray
    values: np.ndarray
    observed: np.ndarray
    market_label: str = ""
    year: int | None = None
    zone: str = DEFAULT_ZONE

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
        return ZoneOffsets(self.zone, self.utc_hours).at(self.utc_hours)


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

    @property
    def n_days(self) -> int:
        return self.values.shape[1]


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
        raise MalformedRow(0, f"input is not UTF-8 text: {exc}") from exc


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


def _parse_long(lines: list[str]):
    """Stamp hours as written, their UTC offsets (_NAIVE for wall time),
    prices and line numbers of the data rows, in file order."""
    header = [h.lower() for h in _split_csv_line(lines[0])]
    if header != ["timestamp", "price"]:
        raise MalformedRow(1, f"expected header 'timestamp,price', got {lines[0]!r}")

    fields, offsets, values, line_nos = [], [], [], []
    offset_of = {}  # tzinfo of a parsed stamp -> its UTC offset in hours
    fromisoformat = datetime.fromisoformat
    for line_no, line in enumerate(lines[1:], start=2):
        # fast path for a well-formed row; anything else is parsed again
        # by the strict per-field code, which raises the precise error
        stamp, _, price = line.partition(",")
        try:
            ts = fromisoformat(stamp)
            value = float(price)
            offset = offset_of[ts.tzinfo]
            if ts.minute or ts.second or ts.microsecond or not isfinite(value):
                raise ValueError
        except (ValueError, KeyError):
            if not line.strip():
                continue
            cells = _split_csv_line(line)
            if len(cells) != 2:
                raise MalformedRow(line_no, f"expected 2 fields, got {len(cells)}")
            ts = _parse_timestamp(cells[0], line_no)
            value = _parse_price(cells[1], line_no)
            naive = ts.tzinfo is None
            offset = offset_of.setdefault(ts.tzinfo, _NAIVE if naive else ts.utcoffset() // _HOUR)
        fields.append(ts.toordinal() * HOURS_PER_DAY + ts.hour)
        offsets.append(offset)
        values.append(value)
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
        try:  # fast path: 24 finite numbers
            row = list(map(float, cells[1:]))
            if not all(map(isfinite, row)):
                raise ValueError
        except ValueError:
            row = [_parse_price(cell, line_no) if cell else np.nan for cell in cells[1:]]
        days.append(day.toordinal())
        values.extend(row)
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
    if format not in ("long", "wide"):
        raise ValueError(f"unknown format {format!r}")
    zone_info(zone)  # an unknown zone fails before the source is read
    lines = _read_text(source).splitlines()
    if not lines or not lines[0].strip():
        raise EmptyInput("no header row")

    parse = _parse_long if format == "long" else _parse_wide
    fields, offsets, values, line_nos = parse(lines)
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

    wall_years = np.unique(years_of(utc + offsets_in_zone.at(utc)))
    year = int(wall_years[0]) if wall_years.size == 1 else None
    return PriceSeries(utc, values, observed, market_label, year, zone)


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
    walls = utc + ZoneOffsets(series.zone, utc).at(utc)

    years = np.unique(years_of(walls)).tolist()
    if len(years) > 1:
        raise WrongYearSpan(f"series spans several years: {years}")
    year = years[0]
    if series.year is not None and series.year != year:
        raise WrongYearSpan(f"series labeled {series.year} but data lie in {year}")

    n_days = days_in_year(year)
    jan1 = date(year, 1, 1)
    n = HOURS_PER_DAY * n_days
    start = epoch_hour(jan1)
    grid = start + np.arange(n)
    fold0, fold1, skipped = ZoneOffsets(series.zone, grid).resolve(grid)

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
