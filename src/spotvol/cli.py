"""Command-line entry points.

Subcommands:
    ingest-check   parse and calendarize one file, print the manifest
    analyze-year   full single-year analysis, write report + plot CSVs
    analyze-trend  analyze several years and fit the volatility trend
    synth          generate a synthetic year from a JSON spec
    report         rebuild the trend report from existing year reports

Exit codes: 0 on success, 2 for input/configuration errors (a run too
large for memory among them), 3 for numerical or statistical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .errors import InputError, SpotvolError
from .ingest import FORMATS, DstPolicy
from .pipeline import RunConfig, analyze_trend, analyze_year, assemble_report, load_matrix
from .reports import read_json, series_to_long_csv, write_long_csv
from .residual_stats import ESTIMATORS
from .seasonality import MIN_PERMUTATIONS
from .synth import generate, spec_from_json
from .trend import MIN_YEARS

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ANALYSIS = 3


def _dst_policy(text: str) -> DstPolicy:
    try:
        return DstPolicy.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _output_file(text: str) -> str:
    """argparse type: a non-empty output path."""
    if not text:
        raise argparse.ArgumentTypeError("output file must not be empty")
    return text


def _add_out_dir_flag(parser: argparse.ArgumentParser, text: str, required: bool = True):
    parser.add_argument("--out", dest="out_dir", metavar="OUT", required=required, help=text)


def _add_ingest_flags(parser: argparse.ArgumentParser, config: RunConfig):
    parser.add_argument(
        "--format", dest="input_format", choices=FORMATS, default=config.input_format,
        help=f"input CSV layout (default: {config.input_format}, header timestamp,price)",
    )
    parser.add_argument(
        "--zone", default=config.zone,
        help=f"market time zone for wall-clock timestamps (default: {config.zone})",
    )
    parser.add_argument(
        "--dst-policy", type=_dst_policy, default=config.dst_policy, metavar="SPRING-FALL",
        help=f"DST handling, e.g. {config.dst_policy.label()} (default), hold-first,"
        " interpolate-last",
    )
    parser.add_argument(
        "--gap-limit", type=int, default=config.gap_limit, metavar="G",
        help=f"longest gap (hours) filled by interpolation (default: {config.gap_limit})",
    )


def _add_analysis_flags(parser: argparse.ArgumentParser, config: RunConfig):
    parser.add_argument(
        "--rank", type=int, default=config.rank,
        help=f"truncation rank of the seasonal model (default: {config.rank})",
    )
    parser.add_argument(
        "--trim", type=float, default=config.trim, metavar="Q",
        help=f"bulk fraction fitted by the exponential (default: {config.trim})",
    )
    parser.add_argument(
        "--estimator", choices=ESTIMATORS, default=config.estimator,
        help="bulk scale estimator: plain trimmed mean (default) or censored-data MLE",
    )
    parser.add_argument(
        "--permutations", type=int, default=config.permutations, metavar="N",
        help=f"permutations for the seasonality test, at least {MIN_PERMUTATIONS}"
        f" (default: {config.permutations})",
    )
    parser.add_argument(
        "--seed", type=int, default=config.seed,
        help=f"base seed for the permutation generator (default: {config.seed})",
    )


def _config_from_args(args) -> RunConfig:
    given = vars(args)
    try:
        return RunConfig(
            **{f.name: given[f.name] for f in dataclasses.fields(RunConfig) if f.name in given}
        )
    except InputError as exc:
        args.parser.error(str(exc))


def _cmd_ingest_check(args) -> int:
    matrix = load_matrix(args.input, _config_from_args(args))
    print(json.dumps(matrix.manifest, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_analyze_year(args) -> int:
    config = _config_from_args(args)
    report = analyze_year(config, args.input)
    res = report["residuals"]
    season = report["seasonality"]
    tail = res["tail_median"]
    print(
        f"year {report['year']}: mu_hat={res['mu_hat']:.4f}"
        f" tail_median={'n/a' if tail is None else format(tail, '.4f')}"
        f" l_observed={season['l_observed']:.4f} p_value={season['p_value']:.6f}"
    )
    report_path = config.out_dir / f"year_{report['year']}.json"
    print(f"report: {report_path}")
    return EXIT_OK


def _print_trend(combined: dict) -> None:
    """The fitted trend (stdout) or why there is none, then one line per
    failed year (stderr)."""
    fit = combined["trend"]
    if fit is None:
        print(
            f"error: need at least {MIN_YEARS} analyzable years,"
            f" got {len(combined['years'])} ({len(combined['errors'])} failed)",
            file=sys.stderr,
        )
    else:
        print(
            f"years {fit['years'][0]}..{fit['years'][-1]} (n={len(fit['years'])}):"
            f" slope={fit['slope']:.4f} EUR/MWh/yr"
            f" ci95=({fit['ci95'][0]:.4f}, {fit['ci95'][1]:.4f})"
        )
    for record in combined["errors"]:
        stage = f" [{record['stage']}]" if record["stage"] else ""
        print(f"failed: {record['input']}{stage} {record['message']}", file=sys.stderr)


def _cmd_analyze_trend(args) -> int:
    config = _config_from_args(args)
    combined = analyze_trend(config, args.inputs)
    _print_trend(combined)
    print(f"report: {config.out_dir / 'trend.json'}")
    errors = combined["errors"]
    if combined["trend"] is None:
        return EXIT_ANALYSIS
    if any(r["category"] == "input" for r in errors):
        return EXIT_INPUT
    return EXIT_ANALYSIS if errors else EXIT_OK


def _cmd_synth(args) -> int:
    series = generate(spec_from_json(read_json(args.spec, "spec")))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        write_long_csv(args.out, series)
        print(f"wrote {len(series)} hours to {args.out}")
    else:
        sys.stdout.write(series_to_long_csv(series))
    return EXIT_OK


def _cmd_report(args) -> int:
    combined = assemble_report(_config_from_args(args), args.dir)
    _print_trend(combined)
    return EXIT_ANALYSIS if combined["trend"] is None else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spotvol",
        description="Volatility analysis of hourly day-ahead electricity prices "
        "via low-rank deseasonalization.",
    )
    parser.add_argument("--version", action="version", version=f"spotvol {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = RunConfig()

    p = sub.add_parser("ingest-check", help="validate one input file and print its manifest")
    p.add_argument("input", help="price CSV file")
    _add_ingest_flags(p, defaults)
    p.set_defaults(func=_cmd_ingest_check, parser=p)

    p = sub.add_parser("analyze-year", help="run the full analysis for one year")
    p.add_argument("input", help="price CSV file covering one calendar year")
    _add_out_dir_flag(p, "output directory for report and plot CSVs")
    _add_ingest_flags(p, defaults)
    _add_analysis_flags(p, defaults)
    p.set_defaults(func=_cmd_analyze_year, parser=p)

    p = sub.add_parser("analyze-trend", help="analyze several years and fit the trend")
    p.add_argument("inputs", nargs="+", metavar="input", help="one price CSV per year")
    _add_out_dir_flag(p, "output directory")
    p.add_argument(
        "--jobs", type=int, default=defaults.jobs,
        help="years analyzed at once; each year's permutation test runs on every"
        f" usable core (default: {defaults.jobs})",
    )
    _add_ingest_flags(p, defaults)
    _add_analysis_flags(p, defaults)
    p.set_defaults(func=_cmd_analyze_trend, parser=p)

    p = sub.add_parser("synth", help="generate a synthetic year from a JSON spec")
    p.add_argument("spec", help="synthetic-year spec (JSON)")
    p.add_argument("--out", type=_output_file, help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_synth, parser=p)

    p = sub.add_parser("report", help="rebuild trend report from year_<Y>.json files")
    p.add_argument("dir", help="directory holding year_<Y>.json reports")
    _add_out_dir_flag(p, "output directory (default: same as input dir)", required=False)
    p.set_defaults(func=_cmd_report, parser=p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpotvolError as exc:
        stage = f" [{exc.stage}]" if exc.stage else ""
        print(f"error{stage}: {exc}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, InputError) else EXIT_ANALYSIS
    except (OSError, ValueError, MemoryError) as exc:  # MemoryError: a --permutations too large
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
