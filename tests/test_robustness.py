"""Robustness probes.  `spotvol report` on hand-edited run directories: one
field of a small run is changed, deleted or renamed, and the command ends
with an exit code and, on an input error, one message line that names the
file or directory to repair, and the directory as it was.  Byte edits of a
long and a wide Berlin year: parsing and calendarizing either give a
DayMatrix or raise a SpotvolError."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spotvol as sv
from spotvol.cli import main
from spotvol.errors import SpotvolError
from spotvol.pipeline import RunConfig
from conftest import berlin_year_csv

YEARS = (2014, 2015, 2016)
DELETE = object()
# written as the raw text of a 5,000-digit integer, past Python's str <-> int limit,
# which json.dumps cannot make
HUGE_INT = "<huge int>"
VALUES = ["x", 5, 1.5, True, None, [], {}, [1.0], float("nan"), float("inf"), float("-inf"),
          10**400, HUGE_INT, DELETE]
RENAMES = ["year_2017.json", "year_2015.json.bak", "Year_2015.json"]


def run_files() -> dict:
    """The trend.json of a run whose 2017 input failed at ingest, and its
    three year reports; no CSVs."""
    echo = RunConfig().echo()
    files = {
        f"year_{y}.json": {
            "year": y, "config": echo,
            "residuals": {"mu_hat": 2020.0 - y, "tail_median": 1.0 if y % 2 else None},
            "spectrum": {"sigma": [2.0, 1.0], "sigma_normalized": [1.0, 0.5]},
        }
        for y in YEARS
    }
    files["trend.json"] = {
        "config": echo, "years": list(YEARS), "trend": None,
        "year_files": {str(y): f"year_{y}.json" for y in YEARS},
        "errors": [{"input": "prices_2017.csv", "stage": "ingest", "error": "MalformedRow",
                    "category": "input", "message": "line 2: price 'x' is not a number"}],
    }
    return files


def fields(node, path=()):
    """The path of every node of a JSON document, the root included."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from fields(child, (*path, key))


FIELDS = [(name, path) for name, doc in run_files().items() for path in fields(doc)]


def edited(doc, path, value):
    """A copy of doc with the node at path replaced by value, or removed."""
    if not path:
        return {} if value is DELETE else value
    doc = json.loads(json.dumps(doc))
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


def edits():
    field_edits = st.tuples(st.sampled_from(FIELDS), st.sampled_from(VALUES))
    renames = st.tuples(st.just(("rename", f"year_{YEARS[1]}.json")), st.sampled_from(RENAMES))
    return st.one_of(field_edits, renames)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(edit=edits())
@example(edit=(("trend.json", ("errors", 0, "error")), float("nan")))
@example(edit=(("trend.json", ("errors", 0, "category")), float("inf")))
@example(edit=(("trend.json", ("config",)), DELETE))
@example(edit=(("year_2014.json", ("config", "rank")), 3))
@example(edit=(("year_2015.json", ("residuals", "mu_hat")), HUGE_INT))
@example(edit=(("trend.json", ("config", "seed")), HUGE_INT))
def test_report_of_an_edited_run_exits_cleanly(edit):
    (name, path), value = edit
    files = run_files()
    if name != "rename":
        files[name] = edited(files[name], path, value)
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp)
        for file_name, doc in files.items():
            text = json.dumps(doc).replace(json.dumps(HUGE_INT), "9" * 5000)
            (run / file_name).write_text(text, encoding="utf-8")
        if name == "rename":
            (run / path).rename(run / value)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["report", str(run)])
        assert code in (0, 2, 3)
        if code == 2:
            assert re.fullmatch(r"error: [^\n]*\n", err.getvalue())
            # the message names the directory or the file to repair
            assert tmp in err.getvalue() or ".json" in err.getvalue()
            assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def berlin_wide_csv() -> str:
    """Berlin 2016 as date,h1..h24 rows of seeded prices; the cell of the
    skipped spring-forward hour, 2016-03-27 h3, is blank."""
    days = np.arange("2016-01-01", "2017-01-01", dtype="datetime64[D]").astype(str).tolist()
    cells = np.round(np.random.default_rng(7).normal(40.0, 15.0, (len(days), 24)), 2).astype(str)
    cells[days.index("2016-03-27"), 2] = ""
    rows = [f"{day},{','.join(row)}" for day, row in zip(days, cells)]
    return "\n".join(["date," + ",".join(f"h{h}" for h in range(1, 25)), *rows]) + "\n"


YEAR_BYTES = {"long": berlin_year_csv(2016).encode(), "wide": berlin_wide_csv().encode()}
# mostly digits, so that many edited stamps keep their shape but leave the calendar
REPLACEMENTS = list(b"0123456789" * 4 + b"-:T ,.+eE\r\n\x00\xff")
INSERTS = [b"\r", b"\xef\xbb\xbf", b"\x00", "\u00e9".encode(), b"\n"]


def byte_edits():
    """Edits of a file's bytes; a position or line number is taken modulo the
    size of the file as the edits before it left it."""
    anywhere = st.integers(0, 10**6)
    return st.lists(st.one_of(
        st.tuples(st.just("replace"), anywhere, st.sampled_from(REPLACEMENTS)),
        st.tuples(st.just("insert"), anywhere, st.sampled_from(INSERTS)),
        st.tuples(st.sampled_from(["delete", "duplicate", "swap", "cut"]), anywhere, st.none()),
    ), min_size=1, max_size=3)


def edited_bytes(data: bytes, edits) -> bytes:
    for kind, at, what in edits:
        lines = data.split(b"\n")
        line, after = at % len(lines), (at + 1) % len(lines)
        at %= len(data) + 1
        if kind == "replace":
            data = data[:at] + bytes([what]) + data[at + 1:]
        elif kind == "insert":
            data = data[:at] + what + data[at:]
        elif kind == "cut":
            data = data[:at]
        else:
            if kind == "delete":
                del lines[line]
            elif kind == "duplicate":
                lines.insert(line, lines[line])
            else:  # swap the line and the one after it, the last with the first
                lines[line], lines[after] = lines[after], lines[line]
            data = b"\n".join(lines)
    return data


def line_start(layout: str, line: int) -> int:
    """Offset of the first byte of a 1-based line of the unedited year."""
    return sum(len(row) + 1 for row in YEAR_BYTES[layout].split(b"\n")[:line - 1])


@pytest.mark.parametrize("layout", ["long", "wide"])
@settings(max_examples=100, deadline=None, derandomize=True)
@given(edits=byte_edits())
# hour 10 of line 4523 made 90: numpy's ISO reader crashed on such a stamp
@example(edits=[("replace", line_start("long", 4523) + 11, ord("9"))])
def test_an_edited_year_parses_or_raises_a_spotvol_error(layout, edits):
    data = edited_bytes(YEAR_BYTES[layout], edits)
    try:
        matrix = sv.calendarize(sv.parse_price_csv(data, format=layout))
    except SpotvolError:
        return
    assert isinstance(matrix, sv.DayMatrix)
