"""Command-line entry points.

Subcommands:
    ingest-check   parse and calendarize one file, print the manifest
    analyze-year   full single-year analysis, write report + plot CSVs
    analyze-trend  analyze several years and fit the volatility trend
    synth          generate a synthetic year from a JSON spec
    report         rebuild the trend report from existing year reports

Exit codes: 0 on success, 2 for input/configuration errors, 3 for
numerical or statistical failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .errors import InputError, SpotvolError
from .ingest import DEFAULT_ZONE, DstPolicy
from .pipeline import RunConfig, analyze_trend, analyze_year, assemble_report, load_matrix
from .reports import series_to_long_csv
from .seasonality import MIN_PERMUTATIONS
from .synth import generate, spec_from_json

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_ANALYSIS = 3


def _trim_value(text: str) -> float:
    try:
        q = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")
    if not (0.5 < q <= 1.0):
        raise argparse.ArgumentTypeError(f"trim quantile must lie in (0.5, 1], got {q}")
    return q


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than minimum."""

    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if n < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {n}")
        return n

    return parse


def _dst_policy(text: str) -> DstPolicy:
    try:
        return DstPolicy.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _out_dir(text: str) -> Path:
    if not text:
        raise argparse.ArgumentTypeError("output directory must not be empty")
    return Path(text)


def _add_out_dir_flag(parser: argparse.ArgumentParser, text: str, required: bool = True):
    parser.add_argument(
        "--out", dest="out_dir", type=_out_dir, metavar="OUT", required=required, help=text
    )


def _add_ingest_flags(parser: argparse.ArgumentParser, config: RunConfig):
    parser.add_argument(
        "--format", dest="input_format", choices=("long", "wide"), default=config.input_format,
        help=f"input CSV layout (default: {config.input_format}, header timestamp,price)",
    )
    parser.add_argument(
        "--zone", default=DEFAULT_ZONE,
        help=f"market time zone for wall-clock timestamps (default: {DEFAULT_ZONE})",
    )
    parser.add_argument(
        "--dst-policy", type=_dst_policy, default=config.dst_policy, metavar="SPRING-FALL",
        help=f"DST handling, e.g. {config.dst_policy.label()} (default), hold-first,"
        " interpolate-last",
    )
    parser.add_argument(
        "--gap-limit", type=_int_at_least(0), default=config.gap_limit, metavar="G",
        help=f"longest gap (hours) filled by interpolation (default: {config.gap_limit})",
    )


def _add_analysis_flags(parser: argparse.ArgumentParser, config: RunConfig):
    parser.add_argument(
        "--rank", type=_int_at_least(1), default=config.rank,
        help=f"truncation rank of the seasonal model (default: {config.rank})",
    )
    parser.add_argument(
        "--trim", type=_trim_value, default=config.trim, metavar="Q",
        help=f"bulk fraction fitted by the exponential (default: {config.trim})",
    )
    parser.add_argument(
        "--estimator", choices=("trimmed", "censored"), default=config.estimator,
        help="bulk scale estimator: plain trimmed mean (default) or censored-data MLE",
    )
    parser.add_argument(
        "--permutations", type=_int_at_least(MIN_PERMUTATIONS), default=config.permutations,
        metavar="N",
        help=f"permutations for the seasonality test, at least {MIN_PERMUTATIONS}"
        f" (default: {config.permutations})",
    )
    parser.add_argument(
        "--seed", type=_int_at_least(0), default=config.seed,
        help=f"base seed for the permutation generator (default: {config.seed})",
    )


def _config_from_args(args) -> RunConfig:
    given = vars(args)
    return RunConfig(
        **{f.name: given[f.name] for f in dataclasses.fields(RunConfig) if f.name in given}
    )


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
    fit = combined["trend"]
    print(
        f"years {fit['years'][0]}..{fit['years'][-1]} (n={len(fit['years'])}):"
        f" slope={fit['slope']:.4f} EUR/MWh/yr"
        f" ci95=({fit['ci95'][0]:.4f}, {fit['ci95'][1]:.4f})"
    )


def _cmd_analyze_trend(args) -> int:
    config = _config_from_args(args)
    combined = analyze_trend(config, args.inputs)
    _print_trend(combined)
    print(f"report: {config.out_dir / 'trend.json'}")
    for record in combined["errors"]:
        print(
            f"failed: {record['input']} [{record['stage']}] {record['message']}",
            file=sys.stderr,
        )
    if combined["errors"]:
        if any(r["category"] == "input" for r in combined["errors"]):
            return EXIT_INPUT
        return EXIT_ANALYSIS
    return EXIT_OK


def _cmd_synth(args) -> int:
    try:
        with open(args.spec, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read spec {args.spec}: {exc}") from exc
    series = generate(spec_from_json(doc))
    text = series_to_long_csv(series)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {len(series)} hours to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_report(args) -> int:
    _print_trend(assemble_report(_config_from_args(args), args.dir))
    return EXIT_OK


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
    p.set_defaults(func=_cmd_ingest_check)

    p = sub.add_parser("analyze-year", help="run the full analysis for one year")
    p.add_argument("input", help="price CSV file covering one calendar year")
    _add_out_dir_flag(p, "output directory for report and plot CSVs")
    _add_ingest_flags(p, defaults)
    _add_analysis_flags(p, defaults)
    p.set_defaults(func=_cmd_analyze_year)

    p = sub.add_parser("analyze-trend", help="analyze several years and fit the trend")
    p.add_argument("inputs", nargs="+", metavar="input", help="one price CSV per year")
    _add_out_dir_flag(p, "output directory")
    p.add_argument(
        "--jobs", type=_int_at_least(1), default=defaults.jobs,
        help=f"years analyzed concurrently (default: {defaults.jobs})",
    )
    _add_ingest_flags(p, defaults)
    _add_analysis_flags(p, defaults)
    p.set_defaults(func=_cmd_analyze_trend)

    p = sub.add_parser("synth", help="generate a synthetic year from a JSON spec")
    p.add_argument("spec", help="synthetic-year spec (JSON)")
    p.add_argument("--out", help="output CSV path (default: stdout)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("report", help="rebuild trend report from year_<Y>.json files")
    p.add_argument("dir", help="directory holding year_<Y>.json reports")
    _add_out_dir_flag(p, "output directory (default: same as input dir)", required=False)
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SpotvolError as exc:
        stage = f" [{exc.stage}]" if exc.stage else ""
        print(f"error{stage}: {exc}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, InputError) else EXIT_ANALYSIS
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
