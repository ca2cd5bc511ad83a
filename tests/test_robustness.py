"""`spotvol report` on hand-edited run directories: one field of a small run
is changed, deleted or renamed, and the command ends with an exit code and,
on an input error, one message line and the directory as it was."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from spotvol.cli import main
from spotvol.pipeline import RunConfig

YEARS = (2014, 2015, 2016)
DELETE = object()
VALUES = ["x", 5, 1.5, True, None, [], {}, [1.0], float("nan"), float("inf"), float("-inf"),
          10**400, DELETE]
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
def test_report_of_an_edited_run_exits_cleanly(edit):
    (name, path), value = edit
    files = run_files()
    if name != "rename":
        files[name] = edited(files[name], path, value)
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp)
        for file_name, doc in files.items():
            (run / file_name).write_text(json.dumps(doc), encoding="utf-8")
        if name == "rename":
            (run / path).rename(run / value)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["report", str(run)])
        assert code in (0, 2, 3)
        if code == 2:
            assert re.fullmatch(r"error: [^\n]*\n", err.getvalue())
            assert {p.name: p.read_bytes() for p in run.iterdir()} == before
