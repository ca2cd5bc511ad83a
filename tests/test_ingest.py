"""Parsing and calendarization: formats, DST handling, gaps, manifests."""

import dataclasses
import io
import tempfile
from datetime import datetime, timedelta, timezone
from zoneinfo import ZoneInfo

import numpy as np
import pytest

import spotvol as sv
from spotvol import (
    DstPolicy,
    DuplicateTimestamp,
    EmptyInput,
    GapTooLong,
    MalformedRow,
    WrongYearSpan,
)
from spotvol.ingest import _canonical_long, _parse_rows
from spotvol.zones import ZoneOffsets
from conftest import berlin_year_csv, rank2_spec

WIDE_HEADER = "date," + ",".join(f"h{i}" for i in range(1, 25))


def parse(text, **kwargs):
    return sv.parse_price_csv(io.StringIO(text), **kwargs)


def epoch_hours(stamp):
    return np.datetime64(stamp, "h").astype(np.int64)


def test_long_row_with_offset():
    series = parse("timestamp,price\n2016-07-01T13:00+02:00,28.50\n")
    assert len(series) == 1
    assert series.values[0] == 28.50
    # 13:00 at +02:00 is 11:00 UTC and 13:00 Berlin wall time
    assert series.utc_hours[0] == epoch_hours("2016-07-01T11")
    assert series.utc_hours[0] + series.utc_offsets()[0] == epoch_hours("2016-07-01T13")
    assert (~np.isnan(series.values)).tolist() == [True]


def test_long_accepts_negative_and_zero_prices():
    series = parse(
        "timestamp,price\n"
        "2016-07-01T13:00+02:00,-5.0\n"
        "2016-07-01T14:00+02:00,0\n"
    )
    assert list(series.values) == [-5.0, 0.0]


def test_long_accepts_z_suffix_and_sorts():
    series = parse(
        "timestamp,price\n"
        "2016-07-01T14:00Z,2.0\n"
        "2016-07-01T13:00Z,1.0\n"
    )
    assert list(series.values) == [1.0, 2.0]


def test_long_rejects_bad_header():
    with pytest.raises(MalformedRow) as info:
        parse("time,value\n2016-07-01T13:00Z,1.0\n")
    assert info.value.line_number == 1


def test_long_rejects_sub_hour_timestamp():
    with pytest.raises(MalformedRow) as info:
        parse("timestamp,price\n2016-07-01T13:30Z,1.0\n")
    assert info.value.line_number == 2
    # on the hour in its own offset, but not on a UTC hour
    with pytest.raises(MalformedRow) as info:
        parse("timestamp,price\n2016-07-01T13:00Z,1.0\n2016-07-01T19:00+05:30,1.0\n")
    assert info.value.line_number == 3


def test_long_rejects_bad_price_and_field_count():
    with pytest.raises(MalformedRow):
        parse("timestamp,price\n2016-07-01T13:00Z,abc\n")
    with pytest.raises(MalformedRow):
        parse("timestamp,price\n2016-07-01T13:00Z,1.0,extra\n")
    with pytest.raises(MalformedRow):
        parse("timestamp,price\n2016-07-01T13:00Z,inf\n")


def test_long_rejects_duplicate_instant():
    with pytest.raises(DuplicateTimestamp, match="at lines 2 and 3$"):
        parse(
            "timestamp,price\n"
            "2016-07-01T13:00Z,1.0\n"
            "2016-07-01T13:00Z,2.0\n"
        )
    # one instant written in two offsets; a fall-back wall hour given three times
    with pytest.raises(DuplicateTimestamp, match="at lines 3 and 5$"):
        parse(
            "timestamp,price\n"
            "2016-07-01T12:00Z,1.0\n"
            "2016-07-01T15:00+02:00,2.0\n"
            "2016-07-01T14:00Z,3.0\n"
            "2016-07-01T13:00Z,4.0\n"
        )
    with pytest.raises(DuplicateTimestamp, match="at lines 3 and 4$"):
        parse(
            "timestamp,price\n"
            "2016-10-30T02:00,1.0\n"
            "2016-10-30T02:00,2.0\n"
            "2016-10-30T02:00,3.0\n"
        )


# Rows one step off the canonical shape that the numpy pass must leave to the
# row parser, with the row parser's outcome: the prices in time order, or
# the reason line 3 is rejected.
NEAR_CANONICAL = [
    pytest.param("2016-03-01T05:00:00,1.5\0", "bad price '1.5\\x00'", id="nul"),
    pytest.param("2016-03-01T05:30:00,1.5", "is not on an hour boundary", id="minute-30"),
    pytest.param("0000-03-01T05:00:00,1.5", "bad timestamp", id="year-0"),
    pytest.param("2016-03-01T24:00:00,1.5", "bad timestamp", id="hour-24"),
    pytest.param("2013-02-29T05:00:00,1.5", "bad timestamp", id="feb-29-common-year"),
    pytest.param("2016-03-00T05:00:00,1.5", "bad timestamp", id="day-0"),
    pytest.param("2016-00-01T05:00:00,1.5", "bad timestamp", id="month-0"),
    pytest.param("2016-13-01T05:00:00,1.5", "bad timestamp", id="month-13"),
    pytest.param("2016-03-01T05:00:00+24:00,1.5", "bad timestamp", id="offset-24"),
    pytest.param("2016-03-01T05:00:00+01:30,1.5", "is not on an hour boundary", id="offset-90-min"),
    pytest.param("2016-03-01T05:00:00+00:00,1.5", [1.0, 1.5, 2.0], id="mixed-forms"),
    pytest.param("2016-03-01T05:00:00Z,1.5", [1.0, 1.5, 2.0], id="z-suffix"),
    pytest.param("2016-03-01T05:00:00,nan", "price 'nan' is not finite", id="nan"),
    pytest.param("2016-03-01T05:00:00,inf", "price 'inf' is not finite", id="inf"),
    pytest.param("2016-03-01T05:00:00,1e400", "price '1e400' is not finite", id="overflow"),
    pytest.param("2016-03-01T05:00:00,1e", "bad price '1e'", id="exponent-without-digits"),
    pytest.param("2016-03-01T05:00:00,1.2.3", "bad price '1.2.3'", id="two-points"),
    pytest.param("2016-03-01T05:00:00,1,2", "expected 2 fields, got 3", id="third-field"),
    pytest.param("", [1.0, 2.0], id="blank-line"),
    pytest.param("2016-03-01T05:00:00,\u0661.5", [1.0, 1.5, 2.0], id="arabic-indic-one"),
    pytest.param("2016-03-01T05:00:00, 1.5", [1.0, 1.5, 2.0], id="padded-cell"),
    pytest.param("2016-03-01T05:00:00,1.5" + "0" * 400, [1.0, 1.5, 2.0], id="longer-than-canonical"),
    # line breaks to splitlines but not to a line-feed split: two rows, not one
    *(pytest.param(f"2016-03-01T05:00:00,1.5{brk}2016-03-01T06:00:00,1.7", [1.0, 1.5, 1.7, 2.0],
                   id=name)
      for brk, name in (("\x0b", "vertical-tab"), ("\x0c", "form-feed"),
                        ("\x1c", "file-separator"), ("\r", "lone-cr"))),
]


@pytest.mark.parametrize("row, outcome", NEAR_CANONICAL)
def test_near_canonical_rows_take_the_row_parser(row, outcome):
    body = ["2016-03-01T03:00:00,1.0", row, "2016-03-01T07:00:00,2.0"]
    text = "\n".join(["timestamp,price", *body]) + "\n"
    assert _canonical_long(text) is None
    if isinstance(outcome, list):
        assert parse(text, zone="UTC").values.tolist() == outcome
    else:
        with pytest.raises(MalformedRow) as info:
            parse(text, zone="UTC")
        assert info.value.line_number == 3 and outcome in info.value.reason


# Rows that break the offset form's own rules, in a body whose other rows carry
# offsets too (in a naive body every row with an offset mixes the forms)
OFFSET_ROWS = [
    pytest.param("2016-03-01T05:00:00+24:00,1.5", "bad timestamp", id="offset-24"),
    pytest.param("2016-03-01T05:00:00-24:00,1.5", "bad timestamp", id="offset-minus-24"),
    pytest.param("2016-03-01T05:00:00+01:30,1.5", "is not on an hour boundary", id="offset-90-min"),
    pytest.param("2016-02-30T05:00:00+01:00,1.5", "bad timestamp", id="feb-30"),
]


@pytest.mark.parametrize("row, reason", OFFSET_ROWS)
def test_offset_rows_off_the_calendar_take_the_row_parser(row, reason):
    body = ["2016-03-01T03:00:00+00:00,1.0", row, "2016-03-01T07:00:00-01:00,2.0"]
    text = "\n".join(["timestamp,price", *body]) + "\n"
    assert _canonical_long(text) is None
    with pytest.raises(MalformedRow) as info:
        parse(text, zone="UTC")
    assert info.value.line_number == 3 and reason in info.value.reason


def full_year(row, offset=""):
    """A UTC 2016 body, naive or stamped with offset, whose 2016-03-01T05 row,
    line 1447, is row.  A full year, because numpy's ISO reader crashed on a
    stamp off the calendar only in an array of more than about 500."""
    hours = np.arange("2016-01-01T00", "2017-01-01T00", dtype="datetime64[h]").astype(str)
    body = [f"{h}:00:00{offset},{1.0 + i % 24}" for i, h in enumerate(hours.tolist())]
    assert body[1445].startswith("2016-03-01T05:00:00")
    body[1445] = row
    return "\n".join(["timestamp,price", *body]) + "\n"


@pytest.mark.parametrize("row, reason, offset", [
    *(pytest.param(*param.values, "", id=f"naive-{param.id}") for param in NEAR_CANONICAL
      if param.values[1] == "bad timestamp"),
    *(pytest.param(*param.values, "+00:00", id=f"with-offset-{param.id}") for param in OFFSET_ROWS),
])
def test_off_calendar_rows_in_a_full_year_name_their_line(row, reason, offset):
    text = full_year(row, offset)
    assert _canonical_long(text) is None
    with pytest.raises(MalformedRow) as info:
        parse(text, zone="UTC")
    assert info.value.line_number == 1447 and reason in info.value.reason


@pytest.mark.parametrize("text, stamps", [
    pytest.param("timestamp,price\r\n{}\r\n{}\r\n", ("T03:00:00", " 04:00:00"), id="crlf"),
    pytest.param("timestamp,price\n{}\n{}", ("T03:00:00+01:00", " 04:00:00-05:00"),
                 id="no-final-newline"),
    pytest.param("Timestamp , PRICE\n{}\n{}\n", (" 03:00:00+01:00", "T04:00:00+01:00"),
                 id="padded-header"),
])
def test_numpy_pass_takes_crlf_unterminated_and_padded_header(text, stamps):
    # one stamp form per body, each body spelling its date and hour both ways
    text = text.format(f"2016-03-01{stamps[0]},1.0", f"2016-03-01{stamps[1]},2.0")
    fast, rows = _canonical_long(text), _parse_rows(text.splitlines())
    assert fast is not None
    for a, b in zip(fast, rows):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    assert fast[3].tolist() == [2, 3]


@pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\r\r"])  # the last: a CR before CRLF
def test_header_line_split_by_splitlines_takes_the_row_parser(brk):
    # splitlines reads a blank line 2 after the header, so the rows are lines 3 and 4
    text = f"timestamp,price{brk}\n2016-03-01T03:00:00,1.0\n2016-03-01T03:00:00,2.0\n"
    assert _canonical_long(text) is None
    with pytest.raises(DuplicateTimestamp, match="at lines 3 and 4$"):
        parse(text, zone="UTC")


def test_fall_back_rows_with_offsets_in_a_naive_year_take_the_row_parser():
    # both legs of the doubled wall hour written with their offsets
    naive = mixed = berlin_year_csv(2016)
    for offset in ("+02:00", "+01:00"):
        mixed = mixed.replace("2016-10-30T02:00:00,", f"2016-10-30T02:00:00{offset},", 1)
    assert mixed.count(":00+0") == 2 and _canonical_long(mixed) is None
    a, b = (sv.calendarize(parse(text)) for text in (naive, mixed))
    assert np.array_equal(a.values, b.values) and np.array_equal(a.imputed, b.imputed)
    assert a.manifest == b.manifest


def test_long_naive_stamp_in_spring_gap_names_its_line():
    # 2016-03-27T02:00 does not exist in Berlin; it must not pass for 03:00
    with pytest.raises(MalformedRow, match="does not exist in local time") as info:
        parse(
            "timestamp,price\n"
            "2016-03-27T01:00,1.0\n"
            "2016-03-27T02:00,2.0\n"
            "2016-03-27T03:00,3.0\n"
        )
    assert info.value.line_number == 3


def test_numpy_pass_row_errors_carry_int_line_numbers():
    gap = "timestamp,price\n2016-03-27T01:00:00,1.0\n2016-03-27T02:00:00,2.0\n"
    assert _canonical_long(gap) is not None
    with pytest.raises(MalformedRow) as info:
        parse(gap)
    assert type(info.value.line_number) is int and str(info.value).startswith("line 3: ")
    dup = "timestamp,price\n2016-07-01T12:00:00+00:00,1.0\n2016-07-01T14:00:00+02:00,2.0\n"
    assert _canonical_long(dup) is not None
    with pytest.raises(DuplicateTimestamp, match=r"^duplicate timestamp \S+ at lines 2 and 3$"):
        parse(dup)


def test_utf8_byte_order_mark_accepted(tmp_path):
    text = "\ufefftimestamp,price\n2016-07-01T13:00Z,1.0\n"
    path = tmp_path / "bom.csv"
    path.write_bytes(text.encode("utf-8"))
    for source in (path, text.encode("utf-8"), io.BytesIO(text.encode("utf-8")), io.StringIO(text)):
        series = sv.parse_price_csv(source)
        assert series.values.tolist() == [1.0]
    wide = "\ufeff" + WIDE_HEADER + "\n2016-07-01," + ",".join(["1.0"] * 24) + "\n"
    assert len(sv.parse_price_csv(wide.encode("utf-8"), format="wide")) == 24


def test_any_text_reader_is_read_as_text():
    text = "\ufefftimestamp,price\n2016-07-01T13:00Z,1.0\n"

    class Reader:  # a reader of str that is no io.TextIOBase
        def read(self):
            return text

    with tempfile.SpooledTemporaryFile(mode="w+", encoding="utf-8") as spooled:
        spooled.write(text)
        spooled.seek(0)
        for source in (spooled, Reader()):
            assert sv.parse_price_csv(source).values.tolist() == [1.0]


@pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "byte-order-mark"])
def test_non_utf8_input_names_its_line(tmp_path, mark):
    # a Latin-1 e-acute opens line 4
    data = mark + (
        "timestamp,price\n2016-07-01T13:00Z,1.0\n2016-07-01T14:00Z,2.0\n"
        "\u00e92016-07-01T15:00Z,3.0\n"
    ).encode("latin-1")
    path = tmp_path / "latin1.csv"
    path.write_bytes(data)
    for source in (path, data):
        with pytest.raises(MalformedRow, match="^line 4: input is not UTF-8 text") as info:
            sv.parse_price_csv(source)
        assert info.value.line_number == 4


def test_path_holding_a_nul_is_an_input_error_naming_it():
    for fmt in ("long", "wide"):
        with pytest.raises(sv.InputError, match="^cannot read a\x00b: embedded null byte$"):
            sv.parse_price_csv("a\x00b", format=fmt)


def test_empty_inputs():
    with pytest.raises(EmptyInput):
        parse("")
    with pytest.raises(EmptyInput):
        parse("timestamp,price\n")


def test_wide_row_happy_path():
    values = ",".join(str(float(h)) for h in range(24))
    series = parse(f"{WIDE_HEADER}\n2016-07-01,{values}\n", format="wide")
    assert len(series) == 24
    assert list(series.values) == [float(h) for h in range(24)]
    walls = series.utc_hours + series.utc_offsets()
    assert (walls % 24).tolist() == list(range(24))


def test_wide_spring_forward_day_has_23_observed_one_missing():
    # 2016-03-27 in Europe/Berlin: 02:00 does not exist
    cells = ["10.0"] * 24
    cells[2] = ""
    series = parse(f"{WIDE_HEADER}\n2016-03-27,{','.join(cells)}\n", format="wide")
    assert int((~np.isnan(series.values)).sum()) == 23
    assert int(np.isnan(series.values).sum()) == 1


def test_wide_value_in_nonexistent_hour_rejected():
    cells = ["10.0"] * 24
    series_text = f"{WIDE_HEADER}\n2016-03-27,{','.join(cells)}\n"
    with pytest.raises(MalformedRow):
        parse(series_text, format="wide")


def test_wide_duplicate_date_rejected():
    values = ",".join(["1.0"] * 24)
    with pytest.raises(DuplicateTimestamp):
        parse(f"{WIDE_HEADER}\n2016-07-01,{values}\n2016-07-01,{values}\n", format="wide")


def test_wide_rejects_wrong_field_count():
    with pytest.raises(MalformedRow):
        parse(f"{WIDE_HEADER}\n2016-07-01,1.0,2.0\n", format="wide")


def _wide_day(day, value):
    return f"2016-07-0{day}," + ",".join([value] * 24)


# Wide bodies of three days (all 1.0, 2.0 and 3.0) with one line replaced:
# (line number, its text, the parsed prices in time order or the reason that
# line is rejected).  Every cell is read by one rule: blank is NaN, anything
# else a finite price.
_DAY1, _DAY3 = [1.0] * 24, [3.0] * 24
WIDE_ROWS = [
    pytest.param(3, "", _DAY1 + _DAY3, id="blank-line"),
    pytest.param(3, "2016-07-02," + ",2.0" * 23, _DAY1 + [np.nan] + [2.0] * 23 + _DAY3,
                 id="blank-cell"),
    pytest.param(3, "2016-07-02, 2.5 " + ",2.0" * 23, _DAY1 + [2.5] + [2.0] * 23 + _DAY3,
                 id="padded-cell"),
    pytest.param(1, WIDE_HEADER.upper(), _DAY1 + [2.0] * 24 + _DAY3, id="upper-header"),
    pytest.param(3, "2016-07-02,nan" + ",2.0" * 23, "price 'nan' is not finite", id="nan-cell"),
    pytest.param(3, "2016-07-02" + ",2.0" * 23 + ",inf", "price 'inf' is not finite", id="inf-cell"),
    pytest.param(3, "2016-07-02,abc" + ",2.0" * 23, "bad price 'abc'", id="text-cell"),
    pytest.param(3, "2016-02-30" + ",2.0" * 24, "bad date '2016-02-30'", id="bad-date"),
    pytest.param(3, "2016-07-02" + ",2.0" * 23, "expected 25 fields, got 24", id="24-fields"),
    pytest.param(1, WIDE_HEADER.removesuffix(",h24"), "expected header 'date,h1,...,h24'",
                 id="header-without-h24"),
]


@pytest.mark.parametrize("line, text, outcome", WIDE_ROWS)
def test_wide_rows_follow_one_cell_rule(line, text, outcome):
    lines = [WIDE_HEADER, _wide_day(1, "1.0"), _wide_day(2, "2.0"), _wide_day(3, "3.0")]
    lines[line - 1] = text
    body = "\n".join(lines) + "\n"
    if isinstance(outcome, list):
        series = parse(body, format="wide", zone="UTC")
        assert np.array_equal(series.values, outcome, equal_nan=True)
    else:
        with pytest.raises(MalformedRow) as info:
            parse(body, format="wide", zone="UTC")
        assert info.value.line_number == line and outcome in info.value.reason


def test_wide_year_with_blank_cells_round_trips_through_long_csv():
    # a Berlin leap year with its spring-forward hour, a last hour of the
    # day, a three-hour run and the year's last hour blank
    days = np.arange(np.datetime64("2016-01-01"), np.datetime64("2017-01-01"))
    prices = np.round(np.random.default_rng(1).normal(40.0, 15.0, (days.size, 24)), 2)
    cells = prices.astype(str)
    for d, h in [(86, 2), (9, 23), (99, 0), (99, 1), (99, 2), (365, 23)]:
        cells[d, h] = ""
    text = "\n".join([WIDE_HEADER, *(f"{day},{','.join(row)}" for day, row in zip(days, cells))])
    wide = parse(text, format="wide")
    long = parse(sv.series_to_long_csv(wide))
    present = ~np.isnan(wide.values)
    assert np.array_equal(long.utc_hours, wide.utc_hours[present])
    assert np.array_equal(long.values, wide.values[present])
    a, b = sv.calendarize(wide), sv.calendarize(long)
    assert np.array_equal(a.values, b.values) and np.array_equal(a.imputed, b.imputed)
    assert a.manifest == b.manifest
    assert (a.manifest["n_dst_spring_filled"], a.manifest["gap_hours_filled"]) == (1, 5)


def test_calendarize_full_berlin_year():
    series = parse(berlin_year_csv(2016))
    matrix = sv.calendarize(series)
    assert matrix.values.shape == (24, 366)
    # the only filled cell is the spring-forward hour
    assert int(matrix.imputed.sum()) == 1
    day = (datetime(2016, 3, 27) - datetime(2016, 1, 1)).days
    assert matrix.imputed[2, day]
    m = matrix.manifest
    assert m["n_slots"] == 8784
    assert m["n_observed"] == 8783
    assert m["n_dst_spring_filled"] == 1
    assert m["n_dst_fall_collapsed"] == 1
    assert m["gap_hours_filled"] == 0


def test_spring_forward_interpolation_and_hold():
    series = parse(berlin_year_csv(2016, price_fn=lambda i, wall, fold: float(i)))
    day = (datetime(2016, 3, 27) - datetime(2016, 1, 1)).days
    interp = sv.calendarize(series, policy=DstPolicy(spring="interpolate"))
    left, right = interp.values[1, day], interp.values[3, day]
    assert interp.values[2, day] == left + (1 / 2) * (right - left)
    held = sv.calendarize(series, policy=DstPolicy(spring="hold"))
    assert held.values[2, day] == held.values[1, day]


def test_fall_back_collapse_policies():
    def price(i, wall, fold):
        if wall == datetime(2016, 10, 30, 2):
            return 30.0 if fold == 0 else 34.0
        return 20.0

    series = parse(berlin_year_csv(2016, price_fn=price))
    day = (datetime(2016, 10, 30) - datetime(2016, 1, 1)).days
    assert sv.calendarize(series, policy=DstPolicy(fall="mean")).values[2, day] == 32.0
    assert sv.calendarize(series, policy=DstPolicy(fall="first")).values[2, day] == 30.0
    assert sv.calendarize(series, policy=DstPolicy(fall="last")).values[2, day] == 34.0
    # collapsed cell counts as observed, not imputed
    assert not sv.calendarize(series).imputed[2, day]


def test_gap_interpolated_and_flagged():
    lines = berlin_year_csv(2016).splitlines()
    dropped = [ln for ln in lines if "2016-06-15T05" not in ln and "2016-06-15T06" not in ln]
    matrix = sv.calendarize(parse("\n".join(dropped) + "\n"))
    day = (datetime(2016, 6, 15) - datetime(2016, 1, 1)).days
    assert matrix.imputed[5, day] and matrix.imputed[6, day]
    left, right = matrix.values[4, day], matrix.values[7, day]
    assert matrix.values[5, day] == left + (1 / 3) * (right - left)
    assert matrix.values[6, day] == left + (2 / 3) * (right - left)
    assert matrix.manifest["gap_hours_filled"] == 2


def utc_leap_year(keep):
    """A UTC 2016 series of seeded prices at the hours of the year ``keep`` picks."""
    hours = epoch_hours("2016-01-01T00") + np.arange(8784)
    prices = np.random.default_rng(5).normal(40.0, 15.0, hours.size)
    return sv.PriceSeries(hours[keep], prices[keep], zone="UTC")


def test_every_other_hour_missing_is_filled_run_by_run():
    matrix = sv.calendarize(utc_leap_year(slice(0, None, 2)))
    flat = matrix.values.ravel(order="F")
    left, right = flat[0:-2:2], flat[2::2]
    assert np.array_equal(flat[1:-1:2], left + 0.5 * (right - left))
    assert flat[8783] == flat[8782]
    assert matrix.imputed.ravel(order="F")[1::2].all()
    assert matrix.manifest["gap_hours_filled"] == 4392


def test_the_first_gap_over_the_limit_is_named():
    # the later gap is the longer one
    absent = np.r_[100:110, 5000:5020]
    with pytest.raises(GapTooLong) as info:
        sv.calendarize(utc_leap_year(np.setdiff1d(np.arange(8784), absent)))
    assert (info.value.start, info.value.length) == ("2016-01-05T04:00:00", 10)


def test_gap_longer_than_limit_rejected():
    lines = berlin_year_csv(2016).splitlines()
    gone = [f"2016-06-15T{h:02d}" for h in range(5, 15)]
    dropped = [ln for ln in lines if not any(g in ln for g in gone)]
    with pytest.raises(GapTooLong) as info:
        sv.calendarize(parse("\n".join(dropped) + "\n"))
    assert info.value.length == 10
    # a wider limit accepts the same gap
    matrix = sv.calendarize(parse("\n".join(dropped) + "\n"), gap_limit=12)
    assert matrix.manifest["gap_hours_filled"] == 10


def test_edge_gap_filled_with_nearest():
    lines = berlin_year_csv(2016).splitlines()
    gone = ("2016-01-01T00", "2016-01-01T01", "2016-12-31T22", "2016-12-31T23")
    dropped = [ln for ln in lines if not ln.startswith(gone)]
    matrix = sv.calendarize(parse("\n".join(dropped) + "\n"))
    assert matrix.imputed[0, 0] and matrix.imputed[1, 0]
    assert matrix.values[0, 0] == matrix.values[2, 0]
    assert matrix.values[1, 0] == matrix.values[2, 0]
    # the year's last hours hold its last observed value
    assert matrix.imputed[22, -1] and matrix.imputed[23, -1]
    assert matrix.values[22, -1] == matrix.values[21, -1]
    assert matrix.values[23, -1] == matrix.values[21, -1]
    assert matrix.manifest["gap_hours_filled"] == 4


def test_flatten_round_trip():
    series = sv.generate(rank2_spec(seed=4))
    matrix = sv.calendarize(series)
    assert np.array_equal(matrix.values.ravel(order="F"), series.values)
    assert not matrix.imputed.any()


def test_unknown_zone_of_a_built_series_is_an_input_error():
    series = sv.PriceSeries([0], [1.0], zone="Mars/Olympus")
    with pytest.raises(sv.InputError, match="unknown time zone 'Mars/Olympus'"):
        sv.calendarize(series)


def test_zone_off_the_whole_hour_is_an_input_error():
    with pytest.raises(sv.InputError, match=r"^zone Asia/Kolkata is 5:30:00 from UTC at .*Z$"):
        parse("timestamp,price\n2016-07-01T13:00Z,1.0\n", zone="Asia/Kolkata")


def test_zone_off_the_whole_hour_west_of_utc_prints_a_signed_offset():
    with pytest.raises(sv.InputError, match=r"^zone America/St_Johns is -2:30:00 from UTC at .*Z$"):
        parse("timestamp,price\n2016-07-01T13:00Z,1.0\n", zone="America/St_Johns")


def test_wrong_year_span():
    text = (
        "timestamp,price\n"
        "2015-12-31T23:00Z,1.0\n"
        "2016-01-01T00:00Z,2.0\n"
    )
    with pytest.raises(WrongYearSpan):
        sv.calendarize(parse(text, zone="UTC"))


def test_series_over_several_years_names_every_year():
    rows = ["timestamp,price", "2015-06-01T00:00Z,1.0", "2016-06-01T00:00Z,2.0", "2017-06-01T00:00Z,3.0"]
    with pytest.raises(WrongYearSpan) as info:
        sv.calendarize(parse("\n".join(rows), zone="UTC"))
    assert str(info.value) == "series spans several years: [2015, 2016, 2017]"


# zone, year, wall hours the zone skips that year
ZONE_YEARS = [
    ("Europe/Berlin", 2016, 1),
    ("America/New_York", 2015, 1),
    ("Australia/Sydney", 2013, 1),  # daylight saving time across New Year
    ("America/Sao_Paulo", 2017, 1),  # transitions at midnight
    ("Africa/Casablanca", 2019, 1),  # an hour back for Ramadan
    ("Pacific/Apia", 2011, 25),  # 30 December skipped whole, and a spring-forward hour
]


@pytest.mark.parametrize("zone, year, n_skipped", ZONE_YEARS)
def test_zone_table_agrees_with_zoneinfo(zone, year, n_skipped):
    tz, hour = ZoneInfo(zone), timedelta(hours=1)
    hours = np.arange(epoch_hours(f"{year}-01-01T00"), epoch_hours(f"{year + 1}-01-01T00"))
    table = ZoneOffsets(zone, hours)
    offsets = [datetime.fromtimestamp(h * 3600, tz).utcoffset() // hour for h in hours.tolist()]
    assert table.at(hours).tolist() == offsets

    # the same numbers read as wall times, against PEP 495 folds and a round trip
    walls = [datetime(1970, 1, 1) + h * hour for h in hours.tolist()]
    fold0, fold1, skipped = table.resolve(hours)
    for fold, instants in ((0, fold0), (1, fold1)):
        expected = [int(w.replace(tzinfo=tz, fold=fold).timestamp()) // 3600 for w in walls]
        assert instants.tolist() == expected
    round_trip = [w.replace(tzinfo=tz).astimezone(timezone.utc).astimezone(tz) for w in walls]
    assert skipped.tolist() == [r.replace(tzinfo=None) != w for r, w in zip(round_trip, walls)]
    assert skipped.sum() == n_skipped


def test_a_parsed_year_probes_its_zone_once(monkeypatch):
    probe, probed = ZoneOffsets._probe, []

    def counted(tz, days):
        probed.append(tz.key)
        return probe(tz, days)

    monkeypatch.setattr(ZoneOffsets, "_probe", staticmethod(counted))
    series = parse(berlin_year_csv(2016))
    sv.calendarize(series)
    series.utc_offsets()
    assert probed == ["Europe/Berlin"]
    series.zone = "UTC"  # a table of another zone is never reused
    with pytest.raises(WrongYearSpan, match=r"\[2015, 2016\]"):
        sv.calendarize(series)
    assert probed == ["Europe/Berlin", "UTC"]


@pytest.mark.parametrize("first", [np.datetime64("0001-01-01T00", "h"),
                                   np.datetime64("9999-12-30T00", "h")])
def test_hours_at_the_ends_of_datetime_probe_their_zone_once(monkeypatch, first):
    probe, probed = ZoneOffsets._probe, []

    def counted(tz, days):
        probed.append(tz.key)
        return probe(tz, days)

    monkeypatch.setattr(ZoneOffsets, "_probe", staticmethod(counted))
    series = sv.PriceSeries(first.astype(np.int64) + np.arange(48), np.ones(48), zone="UTC")
    for _ in range(3):
        assert (series.utc_offsets() == 0).all()
    assert probed == ["UTC"]


@pytest.mark.parametrize("stamps", ["zone", "UTC"])
@pytest.mark.parametrize("zone", ["Pacific/Kiritimati", "Pacific/Pago_Pago"])  # UTC+14, UTC-11
def test_a_year_stamped_a_day_from_its_wall_dates_probes_its_zone_once(monkeypatch, zone, stamps):
    tz = ZoneInfo(zone)
    start, end = (int(datetime(y, 1, 1, tzinfo=tz).timestamp()) // 3600 for y in (2016, 2017))
    hours = np.arange(start, end)
    stamped_in = zone if stamps == "zone" else "UTC"
    text = sv.series_to_long_csv(sv.PriceSeries(hours, 30.0 + hours % 7, zone=stamped_in))
    probe, probed = ZoneOffsets._probe, []

    def counted(tz, days):
        probed.append(tz.key)
        return probe(tz, days)

    monkeypatch.setattr(ZoneOffsets, "_probe", staticmethod(counted))
    series = parse(text, zone=zone)
    matrix = sv.calendarize(series)
    series.utc_offsets()
    assert probed == [zone]
    assert (matrix.year, matrix.manifest["n_imputed"]) == (2016, 0)


def utc_year_series(extra=()):
    """A hand-built UTC PriceSeries of every hour of 2016, plus extra instants."""
    start = epoch_hours("2016-01-01T00")
    hours = np.sort(np.r_[np.arange(start, start + 8784), np.asarray(extra, dtype=np.int64)])
    return sv.PriceSeries(hours, np.ones(hours.size), zone="UTC")


def test_instant_given_twice_in_a_built_series_rejected():
    series = utc_year_series([epoch_hours("2016-01-01T04")])
    with pytest.raises(DuplicateTimestamp) as info:
        sv.calendarize(series)
    assert str(info.value) == (
        "wall slot 2016-01-01T04:00:00 observed 2 times but is not a DST fall-back hour"
    )


def test_nan_in_a_built_series_is_an_absent_hour_filled_as_a_gap():
    # an absent entry does not count toward the year: here the one before it
    series = utc_year_series([epoch_hours("2015-12-31T23")])
    series.values[[0, 6, 7, 8, 101]] = np.nan
    series.values[9] = 4.0  # the right neighbour of the three-hour run
    matrix = sv.calendarize(series)
    flat = matrix.values.ravel(order="F")
    assert np.flatnonzero(matrix.imputed.ravel(order="F")).tolist() == [5, 6, 7, 100]
    assert flat[5:8].tolist() == [1.75, 2.5, 3.25] and flat[100] == 1.0
    m = matrix.manifest
    assert (m["n_imputed"], m["gap_hours_filled"], m["n_dst_spring_filled"]) == (4, 4, 0)
    with pytest.raises(GapTooLong):
        sv.calendarize(series, gap_limit=2)


def test_price_series_is_built_from_instants_prices_label_and_zone():
    init = [f.name for f in dataclasses.fields(sv.PriceSeries) if f.init]
    assert init == ["utc_hours", "values", "market_label", "zone"]
    # label and zone are keyword-only, so a third positional array is refused
    with pytest.raises(TypeError):
        sv.PriceSeries([0, 1], [1.0, 2.0], np.ones(2, bool))
    with pytest.raises(TypeError):
        sv.PriceSeries([0], [1.0], zone_offsets=None)
    series = sv.PriceSeries([0], [1.0], market_label="m", zone="UTC")
    assert (series.market_label, series.zone, series.zone_offsets) == ("m", "UTC", None)
    with pytest.raises(ValueError, match="equal length"):
        sv.PriceSeries([0, 1], [1.0])


def test_calendarize_deterministic():
    text = berlin_year_csv(2016)
    a = sv.calendarize(parse(text))
    b = sv.calendarize(parse(text))
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.imputed, b.imputed)
    assert a.manifest == b.manifest


def test_dst_policy_labels_round_trip():
    for spring in ("interpolate", "hold"):
        for fall in ("mean", "first", "last"):
            policy = DstPolicy(spring=spring, fall=fall)
            assert DstPolicy.parse(policy.label()) == policy
    with pytest.raises(ValueError):
        DstPolicy.parse("bogus")
    with pytest.raises(ValueError):
        DstPolicy(spring="nearest")


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: DstPolicy(fall="median"), ValueError, "unknown fall policy 'median'",
                 id="fall-policy"),
    pytest.param(lambda: sv.parse_price_csv(42), TypeError, "cannot read from int",
                 id="not-a-source"),
    pytest.param(lambda: sv.parse_price_csv(b"timestamp,price\n", format="tsv"), ValueError,
                 "unknown format 'tsv'", id="format"),
    pytest.param(lambda: sv.calendarize(sv.PriceSeries(np.arange(48), np.full(48, np.nan),
                                                       zone="UTC")),
                 WrongYearSpan, "series holds no observed values", id="all-nan"),
])
def test_ingest_errors_name_their_cause(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
