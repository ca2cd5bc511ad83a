"""End-to-end orchestration: ingest through statistics to report files.

analyze_year runs the full per-year chain (parse, calendarize, SVD,
truncate, residual statistics, seasonality test) and writes the year
report plus plot-ready CSVs.  analyze_trend runs several years, fits the
multi-year volatility trend, and assembles the combined report.  Reports
are byte-deterministic for identical configuration and input bytes; file
references inside them are relative to the report directory.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from . import lowrank, reports, residual_stats, seasonality, trend
from .errors import DegenerateDesign, InputError, SpotvolError
from .ingest import (
    DEFAULT_GAP_LIMIT,
    DEFAULT_ZONE,
    DayMatrix,
    DstPolicy,
    PriceSeries,
    calendarize,
    parse_price_csv,
)


@dataclass
class RunConfig:
    """Analysis parameters shared by every pipeline entry point.

    Defaults follow the reference procedure: rank-2 truncation, 99% trim,
    1000 permutations, seed 0.  The configuration is echoed into every
    report so a run can be reproduced from its outputs alone.
    """

    rank: int = 2
    trim: float = residual_stats.DEFAULT_TRIM
    estimator: str = "trimmed"
    permutations: int = seasonality.DEFAULT_PERMUTATIONS
    seed: int = 0
    dst_policy: DstPolicy = field(default_factory=DstPolicy)
    gap_limit: int = DEFAULT_GAP_LIMIT
    input_format: str = "long"
    zone: str | None = None
    jobs: int = 1
    out_dir: Path | None = None

    def echo(self) -> dict:
        return {
            "rank": self.rank,
            "trim_quantile": self.trim,
            "estimator": self.estimator,
            "permutations": self.permutations,
            "seed": self.seed,
            "dst_policy": self.dst_policy.label(),
            "gap_limit": self.gap_limit,
            "input_format": self.input_format,
            "zone": self.zone,
        }


@contextmanager
def _stage(name: str):
    """Tag any escaping pipeline error with the stage it came from."""
    try:
        yield
    except SpotvolError as exc:
        if exc.stage is None:
            exc.stage = name
        raise


def load_matrix(source, config: RunConfig) -> DayMatrix:
    """Parse a CSV path (or take an already parsed PriceSeries) and
    calendarize it into the year's day matrix."""
    if isinstance(source, PriceSeries):
        series = source
    else:
        zone = DEFAULT_ZONE if config.zone is None else config.zone
        with _stage("ingest"):
            series = parse_price_csv(source, format=config.input_format, zone=zone)
    with _stage("calendarize"):
        return calendarize(series, policy=config.dst_policy, gap_limit=config.gap_limit)


def analyze_year(config: RunConfig, year_input) -> dict:
    """Run the full single-year analysis and return the report dict.

    year_input may be a CSV path, an already parsed PriceSeries, or a
    DayMatrix.  Files (report JSON plus plot CSVs) are written to
    config.out_dir whenever it is set; the report's "files" section lists
    them by name.
    """
    source_name = None
    if isinstance(year_input, DayMatrix):
        matrix = year_input
    else:
        if not isinstance(year_input, PriceSeries):
            source_name = Path(year_input).name
        matrix = load_matrix(year_input, config)

    with _stage("decompose"):
        decomposition = lowrank.decompose(matrix)
    with _stage("truncate"):
        model = lowrank.truncate(decomposition, config.rank)
    with _stage("residuals"):
        residuals = lowrank.residual_series(matrix, model)
        analysis = residual_stats.analyze_residuals(
            residuals, q=config.trim, method=config.estimator
        )
    with _stage("seasonality"):
        test = seasonality.permutation_test(
            residuals, n_permutations=config.permutations, seed=config.seed
        )

    year = matrix.year
    file_names = {
        "spectrum": f"spectrum_{year}.csv",
        "profiles": f"profiles_{year}.csv",
        "amplitudes": f"amplitudes_{year}.csv",
        "probplot": f"probplot_{year}.csv",
        "permutation_histogram": f"permutation_hist_{year}.csv",
    }
    report = {
        "year": year,
        "source": source_name,
        "config": config.echo(),
        "manifest": matrix.manifest,
        "spectrum": {
            "sigma": [float(s) for s in decomposition.singular_values],
            "sigma_normalized": [float(s) for s in decomposition.sigma_normalized],
            "energy_fraction": model.energy_fraction,
            "frobenius_error": model.frobenius_error,
        },
        "residuals": {
            "n": analysis.n,
            "trim_quantile": analysis.trim_quantile,
            "method": analysis.method,
            "mu_hat": analysis.mu_hat,
            "mean_all": analysis.mean_all,
            "cutoff": analysis.cutoff,
            "tail_median": analysis.tail_median,
            "n_imputed_excluded": int(residuals.imputed.sum()),
        },
        "seasonality": {
            "l_observed": test.l_observed,
            "p_value": test.p_value,
            "n_permutations": test.n_permutations,
            "seed": test.seed,
            "permutation_min": test.permutation_values["min"],
            "permutation_max": test.permutation_values["max"],
            "permutation_mean": test.permutation_values["mean"],
        },
        "files": file_names,
    }

    if config.out_dir is not None:
        out = Path(config.out_dir)
        out.mkdir(parents=True, exist_ok=True)
        reports.write_spectrum_csv(out / file_names["spectrum"], _spectrum_rows([report]))
        reports.write_profiles_csv(out / file_names["profiles"], model)
        reports.write_amplitudes_csv(out / file_names["amplitudes"], model)
        reports.write_probplot_csv(out / file_names["probplot"], analysis.probplot)
        reports.write_histogram_csv(
            out / file_names["permutation_histogram"],
            test.permutation_values["histogram"],
        )
        reports.write_json(out / f"year_{year}.json", report)
    return report


def trend_from_year_reports(year_reports: list[dict]) -> tuple[dict, list[dict]]:
    """Fit the multi-year trend from per-year reports.

    Returns (trend report dict, per-year CSV rows).  Needs at least three
    analyzed years; raises DegenerateDesign otherwise.
    """
    year_reports = sorted(year_reports, key=lambda r: r["year"])
    years = [r["year"] for r in year_reports]
    if len(set(years)) != len(years):
        raise InputError(f"duplicate years among the inputs: {years}")
    mu_points = [(r["year"], r["residuals"]["mu_hat"]) for r in year_reports]
    if len(mu_points) < 3:
        raise DegenerateDesign(f"need at least 3 analyzed years, got {len(mu_points)}")
    fit = trend.fit_trend(mu_points)
    # the top-tail medians are only collected, in year order; no law is fitted
    tails = {
        r["year"]: float(r["residuals"]["tail_median"])
        for r in year_reports
        if r["residuals"]["tail_median"] is not None
    }

    rows = [
        {
            "year": year,
            "mu_hat": mu_hat,
            "fitted": float(fit.fitted(year)),
            "tail_median": tails.get(year),
        }
        for year, mu_hat in mu_points
    ]
    report = {
        "years": years,
        "mu_hat": {str(y): m for y, m in mu_points},
        "slope": fit.slope,
        "intercept": fit.intercept,
        "ci95": [fit.ci95[0], fit.ci95[1]],
        "stderr": fit.stderr,
        "dof": fit.dof,
        "tail_median": {str(y): v for y, v in tails.items()},
    }
    return report, rows


def _spectrum_rows(year_reports: list[dict]) -> list[dict]:
    spectra = {r["year"]: r["spectrum"] for r in year_reports}
    return lowrank.spectrum_report(
        {year: (s["sigma"], s["sigma_normalized"]) for year, s in spectra.items()}
    )


def _write_trend_report(echo: dict, year_reports: list[dict], errors: list[dict], out_dir) -> dict:
    """Fit the trend and build the combined report; write trend.csv,
    spectrum.csv and trend.json to out_dir when it is set."""
    trend_report, rows = trend_from_year_reports(year_reports)
    combined = {
        "config": echo,
        "years": trend_report["years"],
        "trend": trend_report,
        "errors": errors,
        "year_files": {str(r["year"]): f"year_{r['year']}.json" for r in year_reports},
    }
    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        reports.write_trend_csv(out / "trend.csv", rows)
        reports.write_spectrum_csv(out / "spectrum.csv", _spectrum_rows(year_reports))
        reports.write_json(out / "trend.json", combined)
    return combined


def analyze_trend(config: RunConfig, year_inputs: list) -> dict:
    """Analyze several year inputs and fit the multi-year volatility trend.

    Each year is analyzed independently on a pool of config.jobs threads;
    a failing year is recorded under "errors" without aborting the others.
    The combined report (trend fit, per-year summaries, error records) is
    written to trend.json / trend.csv / spectrum.csv when config.out_dir
    is set.
    """
    def run_one(item) -> tuple[dict | None, SpotvolError | None]:
        try:
            return analyze_year(config, item), None
        except SpotvolError as exc:
            return None, exc

    with ThreadPoolExecutor(max_workers=max(1, int(config.jobs))) as pool:
        outcomes = list(pool.map(run_one, year_inputs))
    results = [report for report, _ in outcomes if report is not None]
    errors = [
        {
            "input": Path(item).name if isinstance(item, (str, Path)) else str(item),
            "stage": exc.stage,
            "error": type(exc).__name__,
            "category": "input" if isinstance(exc, InputError) else "analysis",
            "message": str(exc),
        }
        for item, (_, exc) in zip(year_inputs, outcomes)
        if exc is not None
    ]

    if len(results) < 3:
        if config.out_dir is not None:
            out = Path(config.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            combined = {
                "config": config.echo(),
                "years": sorted(r["year"] for r in results),
                "trend": None,
                "errors": errors,
            }
            reports.write_json(out / "trend.json", combined)
        raise DegenerateDesign(
            f"need at least 3 analyzable years, got {len(results)} "
            f"({len(errors)} failed)"
        )
    return _write_trend_report(config.echo(), results, errors, config.out_dir)


def _read_report(path, kind: str, keys: tuple) -> dict:
    """Read a JSON report written earlier; InputError if it is unreadable
    or lacks one of keys."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {kind} {path}: {exc}") from exc
    for key in keys:
        if not isinstance(doc, dict) or key not in doc:
            raise InputError(f"{path} is not a {kind} (missing {key!r})")
    return doc


def load_year_report(path) -> dict:
    """Read a previously written year_<Y>.json report."""
    return _read_report(path, "year report", ("year", "config", "residuals", "spectrum"))


def assemble_report(config: RunConfig, report_dir) -> dict:
    """Rebuild trend.json / trend.csv / spectrum.csv from the year_<Y>.json
    files in a directory, keeping the failed-year records of its trend.json
    (a failed year leaves no year report)."""
    report_dir = Path(report_dir)
    paths = sorted(report_dir.glob("year_*.json"))
    if not paths:
        raise InputError(f"no year_<Y>.json reports found in {report_dir}")
    year_reports = [load_year_report(p) for p in paths]
    # Echo the config the year reports were produced with, not the current
    # invocation's, so the reassembled report matches the original run.
    echo = year_reports[0]["config"]
    for path, rep in zip(paths[1:], year_reports[1:]):
        if rep["config"] != echo:
            raise InputError(
                f"{path} was produced with a different config than {paths[0].name}"
            )
    previous = report_dir / "trend.json"
    errors = []
    if previous.exists():
        errors = _read_report(previous, "trend report", ("errors",))["errors"]
        if not isinstance(errors, list):
            raise InputError(f"{previous} is not a trend report (errors is not a list)")
    out = report_dir if config.out_dir is None else config.out_dir
    return _write_trend_report(echo, year_reports, errors, out)
