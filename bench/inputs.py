"""Seeded synthetic year inputs with their planted ground truth.

Every input starts from spotvol.generate: a rank-2 seasonal signal plus
two-sided exponential noise of known scale.  The writers below turn the
planted 24 x D grid into the file layouts the workloads read (UTC long
CSV as ``spotvol synth`` writes it, Berlin wall-clock long CSV, Berlin
wide CSV) and return what calendarize must recover from each file.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, datetime, timedelta
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np

import spotvol as sv
from spotvol.synth import (
    cosine_amplitude,
    daily_sine_profile,
    double_peak_profile,
    flat_modulation,
    u_shaped_modulation,
)

BERLIN = ZoneInfo("Europe/Berlin")
GAP_LIMIT = 6  # the CLI default; every planted hole fits within it
TRIM = 0.99  # RunConfig default


def rank2_spec(year: int, mu: float, seed: int, modulation=None) -> sv.SynthSpec:
    """Double-peak profile with a slow seasonal swing and a weekly cycle."""
    return sv.SynthSpec(
        year=year,
        profiles=[
            (double_peak_profile(), cosine_amplitude(1.0, 0.15, 366.0)),
            (daily_sine_profile(), cosine_amplitude(0.0, 6.0, 7.0)),
        ],
        residual_mu=mu,
        seasonal_modulation=modulation or flat_modulation(),
        seed=seed,
    )


def planted_trimmed_mean(mu: float, modulation_values: np.ndarray, q: float = TRIM) -> float:
    """Mean of the lowest q share of |noise| when day d has scale mu * m_d.

    For flat noise this is the closed form mu * (1 - ln(1/(1-q)) (1-q)/q);
    for a modulated scale the q-quantile c of the day mixture is found by
    bisection on mean_d exp(-c / (mu m_d)) = 1 - q.
    """
    scales = mu * np.asarray(modulation_values, dtype=float)

    def exceed(c: float) -> float:
        return float(np.mean(np.exp(-c / scales)))

    lo, hi = 0.0, float(scales.max()) * math.log(1.0 / (1.0 - q)) * 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if exceed(mid) > 1.0 - q:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)
    tail = np.exp(-c / scales)
    return float(np.mean(scales * (1.0 - tail) - c * tail) / q)


def _grid_text(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """Prices as written to CSV (6 decimals) and the floats they parse to."""
    cells = [f"{v:.6f}" for v in values]
    return cells, np.array([float(c) for c in cells])


def dst_slots(year: int) -> tuple[int, int]:
    """Temporal slot indices (day * 24 + hour) of the Berlin spring-forward
    and fall-back wall hours of a year."""
    spring = fall = None
    for d in range(sv.days_in_year(year)):
        day = date(year, 1, 1) + timedelta(days=d)
        if day.month not in (3, 10):
            continue
        for h in range(24):
            wall = datetime(day.year, day.month, day.day, h)
            off0 = wall.replace(tzinfo=BERLIN, fold=0).utcoffset()
            off1 = wall.replace(tzinfo=BERLIN, fold=1).utcoffset()
            if off0 < off1:
                spring = d * 24 + h
            elif off0 > off1:
                fall = d * 24 + h
    return spring, fall


def _pick_holes(rng, n_days: int, avoid_days: set[int], count: int, max_len: int):
    """Non-adjacent runs of missing hours, each inside one day away from
    the year edges and the given days."""
    allowed = [d for d in range(2, n_days - 2) if not avoid_days & {d - 1, d, d + 1}]
    days = []
    while len(days) < count:
        d = int(rng.choice(allowed))
        if all(abs(d - other) > 1 for other in days):
            days.append(d)
    holes = []
    for d in sorted(days):
        length = int(rng.integers(1, max_len + 1))
        start = int(rng.integers(0, 24 - length + 1))
        holes.append(list(range(d * 24 + start, d * 24 + start + length)))
    return holes


def _interpolate_runs(flat: np.ndarray, runs: list[list[int]]) -> np.ndarray:
    """Linear fill of each run from its two observed neighbours."""
    out = flat.copy()
    for run in runs:
        left, right = out[run[0] - 1], out[run[-1] + 1]
        steps = np.arange(1, len(run) + 1, dtype=float) / (len(run) + 1)
        out[run] = left + steps * (right - left)
    return out


@dataclass
class YearFile:
    """One written year file and what ingest must recover from it."""

    year: int
    path: Path
    zone: str
    format: str
    expected: np.ndarray  # 24 x D grid calendarize must return
    imputed: np.ndarray  # 24 x D mask of cells it must flag as filled
    manifest: dict  # expected manifest counts


def _as_grid(flat: np.ndarray, n_days: int) -> np.ndarray:
    return flat.reshape((n_days, 24)).T


def write_utc_long(path: Path, year: int, mu: float, seed: int) -> YearFile:
    """Long CSV with UTC offset stamps, exactly as ``spotvol synth`` writes it."""
    series = sv.generate(rank2_spec(year, mu, seed))
    path.write_text(sv.series_to_long_csv(series), encoding="utf-8", newline="\n")
    _, parsed = _grid_text(series.values)
    n_days = sv.days_in_year(year)
    return YearFile(
        year, path, "UTC", "long",
        expected=_as_grid(parsed, n_days),
        imputed=np.zeros((24, n_days), dtype=bool),
        manifest={"n_imputed": 0, "n_dst_spring_filled": 0,
                  "n_dst_fall_collapsed": 0, "gap_hours_filled": 0},
    )


def write_berlin_long(path: Path, year: int, mu: float, seed: int, holes: int = 3) -> YearFile:
    """Long CSV with naive Berlin wall-clock stamps.

    The spring-forward hour is absent, the fall-back hour appears twice
    (legs 0.25 below and above the planted value, collapsed by their
    mean) and ``holes`` runs of 1..GAP_LIMIT hours are left out.
    """
    series = sv.generate(rank2_spec(year, mu, seed))
    n_days = sv.days_in_year(year)
    cells, parsed = _grid_text(series.values)
    spring, fall = dst_slots(year)
    rng = np.random.default_rng((seed, 1))
    runs = _pick_holes(rng, n_days, {spring // 24, fall // 24}, holes, GAP_LIMIT)
    skipped = {i for run in runs for i in run} | {spring}

    fall_legs = [f"{parsed[fall] - 0.25:.6f}", f"{parsed[fall] + 0.25:.6f}"]
    rows = ["timestamp,price"]
    start = datetime(year, 1, 1)
    for i, cell in enumerate(cells):
        if i in skipped:
            continue
        stamp = (start + timedelta(hours=i)).isoformat()
        if i == fall:
            rows.extend(f"{stamp},{leg}" for leg in fall_legs)
        else:
            rows.append(f"{stamp},{cell}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")

    expected = parsed.copy()
    expected[fall] = (0.0 + float(fall_legs[0]) + float(fall_legs[1])) / 2.0
    expected = _interpolate_runs(expected, runs + [[spring]])
    imputed = np.zeros(expected.size, dtype=bool)
    imputed[sorted(skipped)] = True
    gap_hours = sum(len(run) for run in runs)
    return YearFile(
        year, path, "Europe/Berlin", "long",
        expected=_as_grid(expected, n_days),
        imputed=_as_grid(imputed, n_days),
        manifest={"n_imputed": gap_hours + 1, "n_dst_spring_filled": 1,
                  "n_dst_fall_collapsed": 1, "gap_hours_filled": gap_hours},
    )


def write_berlin_wide(path: Path, year: int, mu: float, seed: int, empty_cells: int = 24) -> YearFile:
    """Wide CSV (date,h1..h24) in Berlin wall time.

    The spring-forward cell is empty as the format requires, the fall-back
    hour holds one value, and ``empty_cells`` isolated cells are blank.
    """
    series = sv.generate(rank2_spec(year, mu, seed))
    n_days = sv.days_in_year(year)
    cells, parsed = _grid_text(series.values)
    spring, fall = dst_slots(year)
    rng = np.random.default_rng((seed, 2))
    runs = _pick_holes(rng, n_days, {spring // 24}, empty_cells, 1)
    blank = {run[0] for run in runs} | {spring}

    rows = ["date," + ",".join(f"h{h}" for h in range(1, 25))]
    jan1 = date(year, 1, 1)
    for d in range(n_days):
        day_cells = ["" if d * 24 + h in blank else cells[d * 24 + h] for h in range(24)]
        rows.append((jan1 + timedelta(days=d)).isoformat() + "," + ",".join(day_cells))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8", newline="\n")

    expected = _interpolate_runs(parsed, runs + [[spring]])
    imputed = np.zeros(expected.size, dtype=bool)
    imputed[sorted(blank)] = True
    return YearFile(
        year, path, "Europe/Berlin", "wide",
        expected=_as_grid(expected, n_days),
        imputed=_as_grid(imputed, n_days),
        manifest={"n_imputed": len(blank), "n_dst_spring_filled": 1,
                  "n_dst_fall_collapsed": 0, "gap_hours_filled": len(runs)},
    )


def day_matrix(year: int, mu: float, seed: int, beta: float | None) -> tuple[sv.DayMatrix, float]:
    """In-memory year with flat (beta None) or u-shaped noise, and its
    planted trimmed mean."""
    modulation = u_shaped_modulation(beta) if beta is not None else flat_modulation()
    spec = rank2_spec(year, mu, seed, modulation)
    matrix = sv.calendarize(sv.generate(spec))
    days = np.arange(1, sv.days_in_year(year) + 1, dtype=float)
    return matrix, planted_trimmed_mean(mu, modulation(days))
