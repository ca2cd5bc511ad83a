"""Property tests of ingest: CSV round trips, the two long-format parsers
and gap accounting."""

import calendar
import io
import re
from collections import Counter
from datetime import date, datetime
from functools import lru_cache
from zoneinfo import ZoneInfo

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spotvol as sv
from spotvol import DstPolicy
from spotvol.ingest import _canonical_long, _parse_rows
from spotvol.zones import _DAY_RANGE, ZoneOffsets
from conftest import berlin_year_csv, rank2_spec

POLICIES = [DstPolicy(s, f) for s in ("interpolate", "hold") for f in ("mean", "first", "last")]
EXAMPLES = settings(max_examples=15, deadline=None, derandomize=True)


def round_trip(series):
    """The series written as long CSV and parsed back, under its label."""
    parsed = sv.parse_price_csv(io.StringIO(sv.series_to_long_csv(series)), zone=series.zone)
    parsed.market_label = series.market_label
    return parsed


def as_written(values):
    """Prices as the 6-decimal long CSV carries them."""
    return np.array([float(f"{v:.6f}") for v in values])


@EXAMPLES
@given(
    year=st.integers(1950, 2100),
    seed=st.integers(0, 2**32 - 1),
    mu=st.floats(0.0, 20.0),
)
def test_synth_long_csv_round_trip_reproduces_grid(year, seed, mu):
    series = sv.generate(rank2_spec(year=year, mu=mu, seed=seed))
    parsed = round_trip(series)
    assert np.array_equal(parsed.utc_hours, series.utc_hours)
    assert not np.isnan(parsed.values).any()

    direct = sv.calendarize(series)
    matrix = sv.calendarize(parsed)
    expected = as_written(direct.values.ravel(order="F")).reshape((-1, 24)).T
    assert np.array_equal(matrix.values, expected)
    assert not matrix.imputed.any()
    assert matrix.manifest == direct.manifest


@EXAMPLES
@given(
    zone=st.sampled_from(["Europe/Berlin", "America/New_York", "Australia/Sydney", "UTC"]),
    year=st.integers(1990, 2030),
    seed=st.integers(0, 2**32 - 1),
)
def test_zoned_long_csv_round_trip_matches_direct_calendarize(zone, year, seed):
    tz = ZoneInfo(zone)
    start, end = (
        int(datetime(y, 1, 1, tzinfo=tz).timestamp()) // 3600 for y in (year, year + 1)
    )
    rng = np.random.default_rng(seed)
    values = as_written(rng.normal(40.0, 15.0, end - start))
    series = sv.PriceSeries(np.arange(start, end), values, zone=zone)
    parsed = round_trip(series)
    assert np.array_equal(parsed.utc_hours, series.utc_hours)
    assert np.array_equal(parsed.values, series.values)
    for policy in POLICIES:
        a, b = sv.calendarize(series, policy), sv.calendarize(parsed, policy)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.imputed, b.imputed)
        assert a.manifest == b.manifest


def outcome(series, gap_limit):
    """calendarize's matrix and manifest, or the type and text of its error."""
    try:
        m = sv.calendarize(series, gap_limit=gap_limit)
    except sv.SpotvolError as exc:
        return type(exc).__name__, str(exc)
    return m.values.tobytes(), m.imputed.tobytes(), m.manifest


TABLE_ZONES = ["Europe/Berlin", "America/New_York", "Australia/Sydney", "America/Sao_Paulo",
               "Pacific/Apia", "UTC"]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    zone_year=st.tuples(st.sampled_from(TABLE_ZONES), st.integers(1990, 2030))
    | st.tuples(st.just("UTC"), st.sampled_from([1, 9999])),
    seed=st.integers(0, 2**32 - 1),
    empty_days=st.tuples(st.just(0) | st.integers(1, 150), st.just(0) | st.integers(1, 150)),
    hour_share=st.sampled_from([1.0, 0.9, 0.05]),
    day_share=st.sampled_from([1.0, 0.1]),
    naive=st.booleans(),
    rezone=st.none() | st.sampled_from(TABLE_ZONES),
)
# Hovd springs forward at its New Year's midnight, so calendarizing 1978
# reads offsets from the two days before the year, which a file whose first
# two days are empty does not touch
@example(zone_year=("Asia/Hovd", 1978), seed=0, empty_days=(2, 0), hour_share=1.0,
         day_share=1.0, naive=False, rezone=None)
def test_zone_table_kept_from_parsing_gives_the_result_of_a_new_one(
    zone_year, seed, empty_days, hour_share, day_share, naive, rezone
):
    zone, year = zone_year
    tz = ZoneInfo(zone)
    start = int(datetime(year, 1, 1, tzinfo=tz).timestamp()) // 3600
    if year < 9999:
        end = int(datetime(year + 1, 1, 1, tzinfo=tz).timestamp()) // 3600
    else:  # UTC only: no datetime holds the year 10000
        end = start + 24 * 365
    hours = np.arange(start + 24 * empty_days[0], end - 24 * empty_days[1])
    rng = np.random.default_rng(seed)
    days_kept = rng.random(hours.size // 24 + 1) < day_share  # runs of empty days between
    hours = hours[(rng.random(hours.size) < hour_share) & days_kept[(hours - hours[0]) // 24]]
    assume(hours.size)
    values = as_written(rng.normal(40.0, 15.0, hours.size))
    text = sv.series_to_long_csv(sv.PriceSeries(hours, values, zone=zone))
    if naive:
        text = re.sub(r"[+-]\d\d:00,", ",", text)
    parsed = sv.parse_price_csv(io.StringIO(text), zone=zone)
    if rezone and 1 < year < 9999:  # most zones were off the whole hour in year 1
        parsed.zone = rezone
    result = outcome(parsed, 100_000)
    # against a series that builds its own tables, and one handed a table
    # probed on every day from four days before the year to four after it
    for table in (None, ZoneOffsets(parsed.zone, np.arange(start - 72, end + 72))):
        rebuilt = sv.PriceSeries(parsed.utc_hours.copy(), parsed.values.copy(), zone=parsed.zone)
        rebuilt.zone_offsets = table
        assert result == outcome(rebuilt, 100_000)


# days at least four from the ends of _DAY_RANGE: hours two days from one of them
# need a day that a table over it did not probe, not one that covers clips away
FIRST_DAY, LAST_DAY = _DAY_RANGE[0] + 4, _DAY_RANGE[1] - 5


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    zone=st.sampled_from(["UTC", "Etc/GMT-14", "Etc/GMT+12"]),
    first=st.integers(FIRST_DAY * 24, LAST_DAY * 24),
    span=st.sampled_from([24, 24 * 40, 24 * 366, 24 * 40_000]),
    data=st.data(),
)
def test_a_zone_table_covers_the_hours_it_was_built_over(zone, first, span, data):
    last = min(first + span, LAST_DAY * 24 + 23)
    hours = np.array(data.draw(st.lists(st.integers(first, last), min_size=1, max_size=30)))
    table = ZoneOffsets(zone, hours)
    # and hours a day away, such as the instants of wall times stamped with their offset
    for shift in (-24, 0, 24):
        assert table.covers(hours + shift)
    one = ZoneOffsets(zone, hours[:1])
    assert not one.covers(hours[:1] - 48) and not one.covers(hours[:1] + 48)


@lru_cache(maxsize=None)
def berlin_rows(year):
    """Data rows of a Berlin wall-clock year and the indices of the rows
    within a day of a DST transition (the days without 24 rows)."""
    rows = berlin_year_csv(year).splitlines()[1:]
    days = [date.fromisoformat(r[:10]) for r in rows]
    dst_days = [d for d, n in Counter(days).items() if n != 24]
    near = {i for i, d in enumerate(days) if any(abs((d - t).days) <= 1 for t in dst_days)}
    return rows, frozenset(near)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    year=st.sampled_from([2015, 2016]),
    gap_limit=st.integers(1, 8),
    data=st.data(),
)
def test_holes_within_gap_limit_are_all_filled(year, gap_limit, data):
    rows, near_dst = berlin_rows(year)
    starts = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=6))
    dropped = set()
    for start in sorted(starts):
        length = data.draw(st.integers(1, gap_limit))
        hole = set(range(start, min(start + length, len(rows))))
        # holes stay apart (one kept row between) and off the DST days
        if hole & near_dst or {min(hole) - 1, *hole, max(hole) + 1} & dropped:
            continue
        dropped |= hole
    assume(dropped)
    text = "\n".join(["timestamp,price"] + [r for i, r in enumerate(rows) if i not in dropped])
    series = sv.parse_price_csv(io.StringIO(text + "\n"))
    for policy in POLICIES:
        m = sv.calendarize(series, policy=policy, gap_limit=gap_limit).manifest
        assert m["gap_hours_filled"] == len(dropped)
        assert m["n_imputed"] == len(dropped) + 1
        assert (m["n_dst_spring_filled"], m["n_dst_fall_collapsed"]) == (1, 1)


# any hour of the years 1..9999, with leap days and a year's last hour drawn on purpose
HOURS = st.one_of(
    st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23)),
    st.integers(1, 2499).map(lambda k: 4 * k).filter(calendar.isleap).map(
        lambda year: datetime(year, 2, 29, 12)),
    st.integers(1, 9999).map(lambda year: datetime(year, 12, 31, 23)),
)
FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.just(-0.0)


@st.composite
def canonical_rows(draw):
    t = draw(HOURS)
    offset = draw(st.none() | st.tuples(st.sampled_from("+-"), st.integers(0, 23)))
    zone = "" if offset is None else f"{offset[0]}{offset[1]:02d}:00"
    price = draw(st.sampled_from(["{:.6f}", "{!r}"])).format(draw(FINITE))
    return (f"{t.year:04d}-{t.month:02d}-{t.day:02d}{draw(st.sampled_from('T '))}"
            f"{t.hour:02d}:00:00{zone},{price}")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(body=st.lists(canonical_rows(), min_size=1, max_size=40),
       newline=st.sampled_from(["\n", "\r\n"]), final_newline=st.booleans())
def test_numpy_pass_equals_the_row_parser_on_canonical_rows(body, newline, final_newline):
    text = newline.join(["timestamp,price", *body]) + (newline if final_newline else "")
    fast, rows = _canonical_long(text), _parse_rows(text.splitlines())
    # the numpy pass takes only a body in one stamp form: "," at 19 naive, 25 with an offset
    if len({row.index(",") for row in body}) > 1:
        assert fast is None
        return
    assert fast is not None
    for a, b in zip(fast, rows):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
