"""End-to-end orchestration: ingest through statistics to report files.

analyze_year runs the full per-year chain (parse, calendarize, SVD,
truncate, residual statistics, seasonality test) and writes the year
report plus plot-ready CSVs.  analyze_trend runs several years, fits the
multi-year volatility trend, and assembles the combined report.  Reports
are byte-deterministic for identical configuration and input bytes; file
references inside them are relative to the report directory.
"""

from __future__ import annotations

import os
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path
from tempfile import TemporaryDirectory

from . import lowrank, reports, residual_stats, seasonality, trend, zones
from .errors import DegenerateDesign, InputError, SpotvolError
from .ingest import (
    DEFAULT_GAP_LIMIT,
    DEFAULT_ZONE,
    FORMATS,
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
    report so a run can be reproduced from its outputs alone.  Building
    one raises InputError naming an invalid field, a value of the wrong
    type before one out of range, an unknown zone or an empty out_dir,
    which is held as a Path.
    """

    rank: int = 2
    trim: float = residual_stats.DEFAULT_TRIM
    estimator: str = "trimmed"
    permutations: int = seasonality.DEFAULT_PERMUTATIONS
    seed: int = 0
    dst_policy: DstPolicy = field(default_factory=DstPolicy)
    gap_limit: int = DEFAULT_GAP_LIMIT
    input_format: str = "long"
    zone: str = DEFAULT_ZONE
    jobs: int = 1
    out_dir: Path | None = None

    def __post_init__(self):
        integer = (int, "an integer")
        kinds = {"rank": integer, "trim": ((int, float), "a number"), "permutations": integer,
                 "seed": integer, "gap_limit": integer, "jobs": integer,
                 "zone": (str, "a string"), "dst_policy": (DstPolicy, "a DstPolicy"),
                 "out_dir": ((type(None), str, os.PathLike), "None, a str or an os.PathLike")}
        for name, (kind, what) in kinds.items():
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, kind)
                    or isinstance(value, os.PathLike) and not isinstance(os.fspath(value), str)):
                raise InputError(f"{name} must be {what}, got {value!r}")
        least = seasonality.MIN_PERMUTATIONS
        rules = {
            "rank": (self.rank >= 1, "be >= 1"),
            "trim": (0.5 < self.trim <= 1.0, "lie in (0.5, 1]"),
            "estimator": (self.estimator in residual_stats.ESTIMATORS,
                          f"be one of {residual_stats.ESTIMATORS}"),
            "permutations": (self.permutations >= least, f"be >= {least}"),
            "seed": (self.seed >= 0, "be >= 0"),
            "gap_limit": (self.gap_limit >= 0, "be >= 0"),
            "input_format": (self.input_format in FORMATS, f"be one of {FORMATS}"),
            "jobs": (self.jobs >= 1, "be >= 1"),
            "out_dir": (self.out_dir is None or os.fspath(self.out_dir) != "", "not be empty"),
        }
        for name, (ok, rule) in rules.items():
            if not ok:
                raise InputError(f"{name} must {rule}, got {getattr(self, name)!r}")
        zones.zone_info(self.zone)  # an unknown zone fails before any input is read
        self.out_dir = None if self.out_dir is None else Path(self.out_dir)

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


@contextmanager
def _publish(out: Path | None):
    """The one way a run's files reach out.  out is made first, and the body
    writes into the fresh .staging-* directory yielded inside it (None for no
    out).  On return the CSVs, then each year_<Y>.json, then trend.json move
    in; a name that is a directory in out is an InputError before any move.
    Any exception deletes the stage and leaves out as it was."""
    if out is None:
        yield None
        return
    out.mkdir(parents=True, exist_ok=True)
    with TemporaryDirectory(prefix=".staging-", dir=out) as stage:
        yield Path(stage)
        names = sorted(os.listdir(stage), key=lambda n: (n.endswith(".json"), n == "trend.json", n))
        for name in names:
            if (out / name).is_dir():
                raise InputError(f"cannot write {out / name}: it is a directory")
        for name in names:
            os.replace(os.path.join(stage, name), out / name)


def load_matrix(source, config: RunConfig) -> DayMatrix:
    """The year's day matrix: a DayMatrix as is, a PriceSeries
    calendarized, anything else parsed as a CSV path, then calendarized."""
    if isinstance(source, DayMatrix):
        return source
    if not isinstance(source, PriceSeries):
        with _stage("ingest"):
            source = parse_price_csv(source, format=config.input_format, zone=config.zone)
    with _stage("calendarize"):
        return calendarize(source, policy=config.dst_policy, gap_limit=config.gap_limit)


def _input_name(year_input) -> str | None:
    """The file name of a path input; None for an in-memory one."""
    return Path(year_input).name if isinstance(year_input, (str, Path)) else None


def analyze_year(config: RunConfig, year_input) -> dict:
    """Run the full single-year analysis and return the report dict.

    year_input may be a CSV path, an already parsed PriceSeries, or a
    DayMatrix.  The report is checked for values JSON cannot hold whether
    or not config.out_dir is set; files (report JSON plus plot CSVs) are
    published there only when it is, and it is made before any work.
    """
    with _publish(config.out_dir) as out:
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
            "source": _input_name(year_input),
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

        # a value JSON cannot hold fails here, with or without out_dir, before any file is written
        reports.json_text(report, f"year_{year}.json")
        if out is not None:
            reports.write_spectrum_csv(out / file_names["spectrum"], [report])
            reports.write_profiles_csv(out / file_names["profiles"], model)
            reports.write_amplitudes_csv(out / file_names["amplitudes"], model)
            reports.write_probplot_csv(out / file_names["probplot"], analysis.probplot)
            reports.write_histogram_csv(
                out / file_names["permutation_histogram"],
                test.permutation_values["histogram"],
            )
            reports.write_json(out / f"year_{year}.json", report)
        return report


def trend_from_year_reports(year_reports: list[dict]) -> dict:
    """Fit the multi-year trend from per-year reports; return the trend report.

    Raises InputError if two reports share a year, and DegenerateDesign
    (from trend.fit_trend) for fewer than trend.MIN_YEARS years.
    """
    year_reports = sorted(year_reports, key=lambda r: r["year"])
    years = [r["year"] for r in year_reports]
    if len(set(years)) != len(years):
        raise InputError(f"duplicate years among the inputs: {years}")
    mu_points = [(r["year"], r["residuals"]["mu_hat"]) for r in year_reports]
    fit = trend.fit_trend(mu_points)
    return {
        "years": years,
        "mu_hat": {str(y): m for y, m in mu_points},
        "slope": fit.slope,
        "intercept": fit.intercept,
        "ci95": [fit.ci95[0], fit.ci95[1]],
        "stderr": fit.stderr,
        "dof": fit.dof,
        # the top-tail medians are only collected, in year order; no law is fitted
        "tail_median": {
            str(r["year"]): float(r["residuals"]["tail_median"])
            for r in year_reports
            if r["residuals"]["tail_median"] is not None
        },
    }


def _write_trend_report(echo: dict, year_reports: list[dict], errors: list[dict], out_dir) -> dict:
    """Fit the trend and build the combined report; when out_dir is set,
    publish trend.json, spectrum.csv and (when a trend was fitted) trend.csv
    into it.  Too few years leave "trend" None.  Duplicate years, and a
    value JSON cannot hold, raise before anything is written."""
    try:
        trend_report = trend_from_year_reports(year_reports)
    except DegenerateDesign:
        trend_report = None
    combined = {
        "config": echo,
        "years": sorted(r["year"] for r in year_reports),
        "trend": trend_report,
        "errors": errors,
        "year_files": {str(r["year"]): f"year_{r['year']}.json" for r in year_reports},
    }
    reports.json_text(combined, "trend.json")
    with _publish(out_dir) as out:
        if out is not None:
            if trend_report is not None:
                reports.write_trend_csv(out / "trend.csv", trend_report)
            reports.write_spectrum_csv(out / "spectrum.csv", year_reports)
            reports.write_json(out / "trend.json", combined)
    return combined


def analyze_trend(config: RunConfig, year_inputs: list) -> dict:
    """Analyze several year inputs and fit the multi-year volatility trend.

    Each year is analyzed independently on a pool of config.jobs threads;
    a failing year is recorded under "errors" without aborting the others
    (a path input by its file name, any other input by its 1-based
    position, "#3").  The combined report (trend fit, or None below
    trend.MIN_YEARS analyzed years; per-year summaries; error records) is
    written by _write_trend_report when config.out_dir is set, all through one
    stage: inputs sharing a year raise InputError and leave nothing there.
    """
    with _publish(config.out_dir) as stage:
        own = replace(config, out_dir=stage)

        def run_one(position: int, item) -> tuple[dict | None, dict | None]:
            try:
                return analyze_year(own, item), None
            except SpotvolError as exc:
                return None, {
                    "input": _input_name(item) or f"#{position}",
                    "stage": exc.stage,
                    "error": type(exc).__name__,
                    "category": "input" if isinstance(exc, InputError) else "analysis",
                    "message": str(exc),
                }

        with ThreadPoolExecutor(max_workers=config.jobs) as pool:
            outcomes = list(pool.map(run_one, range(1, len(year_inputs) + 1), year_inputs))
        results = [report for report, _ in outcomes if report is not None]
        errors = [error for _, error in outcomes if error is not None]
        return _write_trend_report(config.echo(), results, errors, stage)


# a JSON number that is a finite double: not a bool, NaN, an infinity or an int out of float range
def _finite(value) -> bool:
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


# a failed-year record as analyze_trend writes it: input and message text, stage text or null
def _error_record(record) -> bool:
    return (isinstance(record, dict) and {"input", "stage", "message"} <= record.keys()
            and isinstance(record["input"], str) and isinstance(record["message"], str)
            and isinstance(record["stage"], (str, type(None))))


def load_year_report(path) -> dict:
    """Read a year_<Y>.json written earlier; check its year against its name
    and each field the combined report uses."""
    report = reports.read_json(path, "year report", (
        "year", "config", "residuals.mu_hat", "residuals.tail_median",
        "spectrum.sigma", "spectrum.sigma_normalized",
    ))
    residuals, spectrum = report["residuals"], report["spectrum"]
    year, config = report["year"], report["config"]
    mu, tail = residuals["mu_hat"], residuals["tail_median"]
    sigmas = spectrum["sigma"], spectrum["sigma_normalized"]
    for ok, problem in (
        (type(year) is int, f"year {year!r} is not an integer"),
        (Path(path).name == f"year_{year}.json", f"year {year} differs from the file name"),
        (isinstance(config, dict), f"config {config!r} is not an object"),
        (_finite(mu), f"residuals.mu_hat {mu!r} is not a finite number"),
        (tail is None or _finite(tail), f"residuals.tail_median {tail!r} is not a finite number"),
        (all(isinstance(s, list) and s and all(map(_finite, s)) for s in sigmas)
         and len(sigmas[0]) == len(sigmas[1]), "spectrum.sigma and spectrum.sigma_normalized"
         " are not equally long, non-empty lists of finite numbers"),
    ):
        if not ok:
            raise InputError(f"{path} is not a year report ({problem})")
    return report


def assemble_report(config: RunConfig, report_dir) -> dict:
    """Rebuild trend.json / trend.csv / spectrum.csv from the year reports
    of a run directory.  A trend.json there, which must hold errors, config
    and years, is the run's record: its config is echoed with its failed-year
    records, and the year reports are exactly those its year_files lists,
    each there and produced with that config (a failed year leaves none);
    any other year_<Y>.json is ignored.  Without one, every year_<Y>.json
    in the directory is used, the first giving the config."""
    report_dir = Path(report_dir)
    if not report_dir.is_dir():
        raise InputError(f"{report_dir} is not a directory")
    previous = report_dir / "trend.json"
    doc = None
    if previous.exists():
        doc = reports.read_json(previous, "trend report", ("errors", "config", "years"))
        listed = doc.get("year_files", {})
        for ok, problem in (
            (isinstance(doc["errors"], list) and all(map(_error_record, doc["errors"])),
             "errors is not a list of records"),
            (isinstance(listed, dict)
             and all(name == f"year_{y}.json" for y, name in listed.items()),
             "year_files is not an object of year_<Y>.json names"),
            (isinstance(doc["config"], dict), "config is not an object"),
            (isinstance(doc["years"], list), "years is not a list"),
        ):
            if not ok:
                raise InputError(f"{previous} is not a trend report ({problem})")
        paths = sorted(report_dir / name for name in listed.values())
        for path in paths:
            if not path.exists():
                raise InputError(f"year report {path.name!r} listed in {previous} is missing")
    else:
        paths = sorted(report_dir.glob("year_*.json"))
    # only a trend.json naming no year, that of a run where every input failed, lists none
    if not paths and (doc is None or doc["years"]):
        raise InputError(f"no year_<Y>.json reports found in {report_dir}")
    year_reports = [load_year_report(p) for p in paths]
    # Echo the config the run was produced with, not the current invocation's,
    # so the reassembled report matches the original run.
    echo, source = (doc["config"], previous) if doc else (year_reports[0]["config"], paths[0])
    for path, rep in zip(paths, year_reports):
        if rep["config"] != echo:
            raise InputError(f"{path} was produced with a different config than {source.name}")
    out = report_dir if config.out_dir is None else config.out_dir
    return _write_trend_report(echo, year_reports, doc["errors"] if doc else [], out)
