"""Deterministic file emission: plot-ready CSVs and JSON reports.

All writers produce byte-identical output for identical inputs: UTF-8,
LF line endings, sorted JSON keys, shortest-repr floats, and file
references kept relative to the report location.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .ingest import PriceSeries
from .lowrank import RankPModel


def _fmt(value: float) -> str:
    # repr gives the shortest round-tripping decimal form, stable across platforms
    return repr(float(value))


def write_json(path: Path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _write_rows(path: Path, header: list[str], rows) -> None:
    # no cell ever needs CSV quoting: each is a number, a repr float or empty,
    # and every row has at least two fields (a lone empty field would be quoted)
    lines = [",".join(header), *(",".join(map(str, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def series_to_long_csv(series: PriceSeries) -> str:
    """Canonical long format: ISO-8601 timestamps with offset, one per hour.

    Stamps are wall time in the series' zone with that zone's offset.
    """
    offsets = series.utc_offsets()
    walls = (series.utc_hours + offsets).astype("datetime64[h]")
    suffix = {o: f"{'-' if o < 0 else '+'}{abs(o):02d}:00" for o in set(offsets.tolist())}
    rows = [
        f"{stamp}{suffix[o]},{value:.6f}\n"
        for stamp, o, value in zip(
            np.datetime_as_string(walls, unit="s").tolist(),
            offsets.tolist(),
            series.values.tolist(),
        )
    ]
    return "timestamp,price\n" + "".join(rows)


def write_long_csv(path: Path, series: PriceSeries) -> None:
    Path(path).write_text(series_to_long_csv(series), encoding="utf-8", newline="\n")


def write_spectrum_csv(path: Path, rows: list[dict]) -> None:
    """Rows from spectrum_report: year,k,sigma,sigma_normalized."""
    _write_rows(
        path,
        ["year", "k", "sigma", "sigma_normalized"],
        [[r["year"], r["k"], _fmt(r["sigma"]), _fmt(r["sigma_normalized"])] for r in rows],
    )


def _write_columns(path: Path, header: list[str], columns: np.ndarray, first: int) -> None:
    """Rows k,index,value for each column k (1-based), indices counted from first."""
    rows = [
        [k, i, _fmt(v)]
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
    _write_rows(
        path,
        ["theoretical_quantile", "ordered_residual"],
        [[_fmt(x), _fmt(y)] for x, y in points],
    )


def write_histogram_csv(path: Path, histogram: list[dict]) -> None:
    """Permutation-distribution bins: bin_left,bin_right,count."""
    _write_rows(
        path,
        ["bin_left", "bin_right", "count"],
        [[_fmt(b["bin_left"]), _fmt(b["bin_right"]), b["count"]] for b in histogram],
    )


def write_trend_csv(path: Path, rows: list[dict]) -> None:
    """Per-year summary: year,mu_hat,fitted,tail_median (empty if absent)."""
    out = []
    for r in rows:
        tail = r.get("tail_median")
        out.append(
            [
                r["year"],
                _fmt(r["mu_hat"]),
                _fmt(r["fitted"]),
                "" if tail is None else _fmt(tail),
            ]
        )
    _write_rows(path, ["year", "mu_hat", "fitted", "tail_median"], out)
