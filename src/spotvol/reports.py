"""Deterministic file emission: plot-ready CSVs and JSON reports (read back by read_json).

All writers produce byte-identical output for identical inputs: UTF-8,
LF line endings, sorted JSON keys, shortest-repr floats, and file
references kept relative to the report location.  A CSV cell becomes
text in one place, _write_rows: one "%s,%s,..." line per row, so each
cell is its str (an int, a float's shortest repr, or "" when absent).
"""

from __future__ import annotations

import json
import math
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import InputError
from .ingest import PriceSeries
from .lowrank import RankPModel


def json_text(obj, path) -> str:
    """The text write_json writes to path; an InputError naming the file (and
    the field of a NaN or an infinity) when obj holds a value JSON cannot."""
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:
        for where, value in _nonfinite_fields(obj):
            raise InputError(
                f"cannot write {Path(path).name}: {where} is {value!r}, which JSON cannot hold"
            ) from None
        raise InputError(f"cannot write {Path(path).name}: {exc}") from None


def _nonfinite_fields(obj):
    # (dotted field, value) of each NaN or infinity in obj, in the order json_text writes them
    stack = [("", obj)]
    while stack:
        where, node = stack.pop()
        if isinstance(node, float) and not math.isfinite(node):
            yield where, node
        elif isinstance(node, dict):
            stack.extend((f"{where}.{k}" if where else str(k), v)
                         for k, v in sorted(node.items(), reverse=True))
        elif isinstance(node, (list, tuple)):
            stack.extend((f"{where}[{i}]", v) for i, v in reversed(list(enumerate(node))))


def write_json(path: Path, obj) -> None:
    Path(path).write_text(json_text(obj, path), encoding="utf-8", newline="\n")


def read_json(path, kind: str, keys: tuple = ()) -> dict:
    """Read a JSON document (a spec or a report written earlier); InputError
    if it is unreadable or is not an object holding every one of keys.  A
    dotted key, "residuals.mu_hat", names a field of a nested object."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # any decode failure; nested too deep
        raise InputError(f"cannot read {kind} {path}: {exc}") from exc
    for key in keys:
        node = doc
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                raise InputError(f"{path} is not a {kind} (missing {key!r})")
            node = node[part]
    return doc


def _write_rows(path: Path, header: list[str], rows) -> None:
    # the one place a CSV cell becomes text: %s is str of each cell, an int,
    # a Python float (its shortest round-trip repr, as json.dumps writes it)
    # or "" for an absent value.  No cell needs quoting, and every row has at
    # least two fields (a lone empty field would be quoted).  A row whose
    # length differs from the header's is a TypeError before the file opens.
    line = ",".join(["%s"] * len(header)) + "\n"
    text = "".join([",".join(header) + "\n", *(line % tuple(row) for row in rows)])
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def series_to_long_csv(series: PriceSeries) -> str:
    """Canonical long format: ISO-8601 timestamps with offset, one per
    present (non-NaN) entry, since the format has no blank price.

    Stamps are wall time in the series' zone with that zone's offset.
    """
    present = ~np.isnan(series.values)
    offsets = series.utc_offsets()[present]
    walls = (series.utc_hours[present] + offsets).astype("datetime64[h]")
    suffix = {o: f"{'-' if o < 0 else '+'}{abs(o):02d}:00" for o in set(offsets.tolist())}
    rows = [
        f"{stamp}{suffix[o]},{value:.6f}\n"
        for stamp, o, value in zip(
            np.datetime_as_string(walls, unit="s").tolist(),
            offsets.tolist(),
            series.values[present].tolist(),
        )
    ]
    return "timestamp,price\n" + "".join(rows)


def write_long_csv(path: Path, series: PriceSeries) -> None:
    Path(path).write_text(series_to_long_csv(series), encoding="utf-8", newline="\n")


def write_spectrum_csv(path: Path, year_reports: list[dict]) -> None:
    """year,k,sigma,sigma_normalized for each singular value of the year
    reports, years ascending, k from 1; an int sigma is written as a float."""
    spectra = [(r["year"], r["spectrum"]) for r in sorted(year_reports, key=itemgetter("year"))]
    rows = [(year, k, float(s), float(sn)) for year, sp in spectra
            for k, (s, sn) in enumerate(zip(sp["sigma"], sp["sigma_normalized"]), start=1)]
    _write_rows(path, ["year", "k", "sigma", "sigma_normalized"], rows)


def _write_columns(path: Path, header: list[str], columns: np.ndarray, first: int) -> None:
    """Rows k,index,value for each column k (1-based), indices counted from first."""
    rows = [
        (k, i, v)
        for k, column in enumerate(columns.T.tolist(), start=1)
        for i, v in enumerate(column, start=first)
    ]
    _write_rows(path, header, rows)


def write_profiles_csv(path: Path, model: RankPModel) -> None:
    """Hourly profile vectors of the retained components: k,hour,u_value."""
    _write_columns(path, ["k", "hour", "u_value"], model.profiles, first=0)


def write_amplitudes_csv(path: Path, model: RankPModel) -> None:
    """Day-amplitude vectors of the retained components: k,day,v_value."""
    _write_columns(path, ["k", "day", "v_value"], model.amplitudes, first=1)


def write_probplot_csv(path: Path, points: list[tuple[float, float]]) -> None:
    _write_rows(path, ["theoretical_quantile", "ordered_residual"], points)


def write_histogram_csv(path: Path, histogram: list[dict]) -> None:
    """Permutation-distribution bins: bin_left,bin_right,count."""
    header = ["bin_left", "bin_right", "count"]
    _write_rows(path, header, map(itemgetter(*header), histogram))


def write_trend_csv(path: Path, trend_report: dict) -> None:
    """Per-year rows of a trend report: year,mu_hat,fitted,tail_median (empty
    if absent), fitted = intercept + slope * year.  A hand-edited year report
    may hold an int mu_hat; it is written as a float all the same."""
    t = trend_report
    rows = [(y, float(t["mu_hat"][str(y)]), t["intercept"] + t["slope"] * y,
             t["tail_median"].get(str(y), "")) for y in t["years"]]
    _write_rows(path, ["year", "mu_hat", "fitted", "tail_median"], rows)
