"""Command-line pipeline: subcommands, exit codes, report files."""

import json
import shutil
import warnings
from pathlib import Path

import numpy as np
import pytest

import spotvol as sv
from spotvol.cli import _config_from_args, build_parser, main
from spotvol.errors import InputError
from spotvol.ingest import DEFAULT_ZONE, DstPolicy
from spotvol.pipeline import RunConfig, trend_from_year_reports
from spotvol.reports import write_trend_csv
from conftest import rank2_spec


def write_spec(path, year=2016, mu=3.0, seed=0):
    doc = {
        "year": year,
        "residual_mu": mu,
        "seed": seed,
        "profiles": [
            {
                "hourly": "double_peak",
                "amplitude": {"kind": "cosine", "mean": 1.0, "amplitude": 0.15,
                              "period_days": 366},
            },
            {
                "hourly": "daily_sine",
                "amplitude": {"kind": "cosine", "mean": 0.0, "amplitude": 6.0,
                              "period_days": 7},
            },
        ],
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


def make_year_csv(tmp_path, year=2016, mu=3.0, seed=0):
    spec = tmp_path / f"spec_{year}.json"
    write_spec(spec, year=year, mu=mu, seed=seed)
    out = tmp_path / f"prices_{year}.csv"
    assert main(["synth", str(spec), "--out", str(out)]) == 0
    return out


def test_synth_writes_long_csv(tmp_path, capsys):
    csv_path = make_year_csv(tmp_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "timestamp,price"
    assert len(lines) == 8785
    assert lines[1].startswith("2016-01-01T00:00:00+00:00,")


def test_synth_stdout_mode(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_spec(spec)
    assert main(["synth", str(spec)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("timestamp,price\n")


def test_ingest_check_prints_manifest(tmp_path, capsys):
    csv_path = make_year_csv(tmp_path)
    capsys.readouterr()
    assert main(["ingest-check", str(csv_path), "--zone", "UTC"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["year"] == 2016
    assert manifest["n_slots"] == 8784
    assert manifest["n_imputed"] == 0


def test_analyze_year_writes_report_and_plot_files(tmp_path, capsys):
    csv_path = make_year_csv(tmp_path)
    out = tmp_path / "out"
    code = main(["analyze-year", str(csv_path), "--zone", "UTC", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "year_2016.json").read_text())
    for name in report["files"].values():
        assert (out / name).exists()
    assert report["config"]["rank"] == 2
    assert report["config"]["trim_quantile"] == 0.99
    assert report["config"]["permutations"] == 1000
    assert report["config"]["seed"] == 0
    assert report["residuals"]["n"] == 8784
    assert 0 < report["residuals"]["mu_hat"] < report["residuals"]["mean_all"]
    assert report["seasonality"]["p_value"] > 0
    spectrum_lines = (out / "spectrum_2016.csv").read_text().splitlines()
    assert spectrum_lines[0] == "year,k,sigma,sigma_normalized"
    assert len(spectrum_lines) == 25
    probplot_lines = (out / "probplot_2016.csv").read_text().splitlines()
    assert probplot_lines[0] == "theoretical_quantile,ordered_residual"
    assert len(probplot_lines) == 8785


def test_analyze_year_respects_flags(tmp_path):
    csv_path = make_year_csv(tmp_path)
    out = tmp_path / "flagged"
    code = main([
        "analyze-year", str(csv_path), "--zone", "UTC", "--out", str(out),
        "--rank", "3", "--trim", "0.95", "--estimator", "censored",
        "--permutations", "200", "--seed", "17",
    ])
    assert code == 0
    report = json.loads((out / "year_2016.json").read_text())
    assert report["config"]["rank"] == 3
    assert report["residuals"]["trim_quantile"] == 0.95
    assert report["residuals"]["method"] == "censored"
    assert report["seasonality"]["n_permutations"] == 200
    assert report["seasonality"]["seed"] == 17
    profile_lines = (out / "profiles_2016.csv").read_text().splitlines()
    assert len(profile_lines) == 1 + 3 * 24


def test_analyze_trend_three_years(tmp_path, capsys):
    files = [
        str(make_year_csv(tmp_path, year, mu, seed))
        for year, mu, seed in ((2014, 4.0, 1), (2015, 3.0, 2), (2016, 2.0, 3))
    ]
    out = tmp_path / "trend"
    code = main(["analyze-trend", *files, "--zone", "UTC", "--out", str(out)])
    assert code == 0
    combined = json.loads((out / "trend.json").read_text())
    assert combined["years"] == [2014, 2015, 2016]
    assert combined["errors"] == []
    assert combined["trend"]["slope"] < -0.8
    assert combined["trend"]["dof"] == 1
    rows = (out / "trend.csv").read_text().splitlines()
    assert rows[0] == "year,mu_hat,fitted,tail_median"
    assert len(rows) == 4
    spectrum = (out / "spectrum.csv").read_text().splitlines()
    assert len(spectrum) == 1 + 3 * 24
    for year in (2014, 2015, 2016):
        assert (out / f"year_{year}.json").exists()
    # the year files were moved out of their staging directories, which are gone
    assert all(p.is_file() and not p.name.startswith(".") for p in out.iterdir())


def test_analyze_trend_jobs_parallel_matches_serial(tmp_path):
    files = [
        str(make_year_csv(tmp_path, year, mu, seed))
        for year, mu, seed in ((2014, 4.0, 1), (2015, 3.0, 2), (2016, 2.0, 3))
    ]
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    assert main(["analyze-trend", *files, "--zone", "UTC", "--out", str(serial)]) == 0
    assert main([
        "analyze-trend", *files, "--zone", "UTC", "--out", str(parallel), "--jobs", "3",
    ]) == 0
    assert (serial / "trend.json").read_bytes() == (parallel / "trend.json").read_bytes()
    for year in (2014, 2015, 2016):
        assert (serial / f"year_{year}.json").read_bytes() == (
            parallel / f"year_{year}.json"
        ).read_bytes()


def test_analyze_trend_single_bad_year_degrades(tmp_path, capsys):
    files = [
        str(make_year_csv(tmp_path, year, mu, seed))
        for year, mu, seed in ((2013, 5.0, 4), (2014, 4.0, 1), (2015, 3.0, 2))
    ]
    bad = tmp_path / "prices_2016.csv"
    bad.write_text("timestamp,price\n2016-01-01T00:00Z,not_a_number\n", encoding="utf-8")
    out = tmp_path / "degraded"
    code = main(["analyze-trend", *files, str(bad), "--zone", "UTC", "--out", str(out)])
    assert code == 2
    combined = json.loads((out / "trend.json").read_text())
    assert combined["years"] == [2013, 2014, 2015]
    assert combined["trend"] is not None
    [record] = combined["errors"]
    assert record["input"] == "prices_2016.csv"
    assert record["stage"] == "ingest"
    assert record["error"] == "MalformedRow"
    assert record["category"] == "input"
    err = capsys.readouterr().err
    assert "prices_2016.csv" in err
    # the pool of two threads records the same errors and writes the same files
    parallel = tmp_path / "degraded_jobs2"
    code = main([
        "analyze-trend", *files, str(bad), "--zone", "UTC", "--out", str(parallel), "--jobs", "2",
    ])
    assert code == 2
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in parallel.iterdir())
    for name in names:
        assert (out / name).read_bytes() == (parallel / name).read_bytes(), name


def test_report_rebuilds_trend_from_year_reports(tmp_path):
    files = [
        str(make_year_csv(tmp_path, year, mu, seed))
        for year, mu, seed in ((2014, 4.0, 1), (2015, 3.0, 2), (2016, 2.0, 3))
    ]
    out = tmp_path / "full"
    assert main(["analyze-trend", *files, "--zone", "UTC", "--out", str(out)]) == 0
    rebuilt = tmp_path / "rebuilt"
    assert main(["report", str(out), "--out", str(rebuilt)]) == 0
    # The rebuild must reproduce the original run byte for byte, config
    # echo included, even though `report` itself takes no analysis flags.
    assert (out / "trend.json").read_bytes() == (rebuilt / "trend.json").read_bytes()
    assert (out / "trend.csv").read_bytes() == (rebuilt / "trend.csv").read_bytes()
    assert (out / "spectrum.csv").read_bytes() == (rebuilt / "spectrum.csv").read_bytes()


def test_trend_from_reports_mu_4_3_2_exact(tmp_path):
    def fake_report(year, mu):
        return {"year": year, "residuals": {"mu_hat": mu, "tail_median": None}}

    report = trend_from_year_reports(
        [fake_report(2014, 4.0), fake_report(2015, 3.0), fake_report(2016, 2.0)]
    )
    assert report["slope"] == -1.0
    write_trend_csv(tmp_path / "trend.csv", report)
    assert (tmp_path / "trend.csv").read_text().splitlines()[1:] == [
        "2014,4.0,4.0,", "2015,3.0,3.0,", "2016,2.0,2.0,"
    ]


def test_exit_codes(tmp_path):
    # missing input file -> input error
    assert main(["analyze-year", "no_such.csv", "--out", str(tmp_path / "x")]) == 2
    # rank beyond the spectrum -> numerical failure
    csv_path = make_year_csv(tmp_path)
    code = main([
        "analyze-year", str(csv_path), "--zone", "UTC",
        "--out", str(tmp_path / "y"), "--rank", "25",
    ])
    assert code == 3
    # malformed flag values are argparse errors (exit 2)
    with pytest.raises(SystemExit) as info:
        main(["analyze-year", str(csv_path), "--out", "z", "--trim", "0.2"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["analyze-year", str(csv_path), "--out", "z", "--permutations", "0"])
    assert info.value.code == 2
    # fewer than three usable years
    assert main([
        "analyze-trend", str(csv_path), "--zone", "UTC", "--out", str(tmp_path / "t"),
    ]) == 3
    # bad spec JSON
    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text("{not json", encoding="utf-8")
    assert main(["synth", str(bad_spec)]) == 2
    # report dir without year reports
    assert main(["report", str(tmp_path)]) == 2


def test_gap_limit_and_dst_policy_flags(tmp_path, capsys):
    csv_path = make_year_csv(tmp_path)
    lines = csv_path.read_text().splitlines()
    gone = [f"2016-06-15T{h:02d}" for h in range(5, 13)]
    trimmed = tmp_path / "gappy.csv"
    trimmed.write_text(
        "\n".join(ln for ln in lines if not any(g in ln for g in gone)) + "\n",
        encoding="utf-8",
    )
    assert main(["ingest-check", str(trimmed), "--zone", "UTC"]) == 2
    err = capsys.readouterr().err
    assert "gap of 8 hours" in err
    assert main(["ingest-check", str(trimmed), "--zone", "UTC", "--gap-limit", "8"]) == 0
    manifest = json.loads(capsys.readouterr().out)
    assert manifest["gap_hours_filled"] == 8
    assert manifest["policy"]["gap_limit"] == 8
    with pytest.raises(SystemExit):
        main(["ingest-check", str(trimmed), "--dst-policy", "weird"])


def test_unknown_zone_is_an_input_error(tmp_path, capsys):
    csv_path = make_year_csv(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        main(["ingest-check", str(csv_path), "--zone", "Mars/Olympus"])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith("spotvol ingest-check: error: unknown time zone 'Mars/Olympus'\n")


def test_unknown_zone_fails_analyze_trend_before_any_work(tmp_path, capsys):
    files = [
        str(make_year_csv(tmp_path, year, mu, seed))
        for year, mu, seed in ((2014, 4.0, 1), (2015, 3.0, 2), (2016, 2.0, 3))
    ]
    out = tmp_path / "trend"
    with pytest.raises(SystemExit) as info:
        main(["analyze-trend", *files, "--zone", "Nowhere/Zone", "--out", str(out)])
    assert info.value.code == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("usage: spotvol analyze-trend ")
    assert err.endswith("spotvol analyze-trend: error: unknown time zone 'Nowhere/Zone'\n")


def test_too_few_permutations_rejected_before_any_work(tmp_path, capsys):
    files = [
        str(make_year_csv(tmp_path, year, mu, seed))
        for year, mu, seed in ((2014, 4.0, 1), (2015, 3.0, 2), (2016, 2.0, 3))
    ]
    out = tmp_path / "trend"
    with pytest.raises(SystemExit) as info:
        main(["analyze-trend", *files, "--zone", "UTC", "--out", str(out), "--permutations", "50"])
    assert info.value.code == 2
    assert not out.exists()
    assert "must be >= 100, got 50" in capsys.readouterr().err


def test_library_analyze_year_without_files(tmp_path):
    config = RunConfig(permutations=100)
    series = sv.generate(rank2_spec(seed=6))
    report = sv.analyze_year(config, series)
    assert report["year"] == 2016
    assert report["source"] is None
    assert report["config"]["zone"] == DEFAULT_ZONE
    assert not list(tmp_path.iterdir())


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "spotvol" in capsys.readouterr().out


def test_report_keeps_failed_year_records(tmp_path, capsys):
    files = [
        str(make_year_csv(tmp_path, year, mu, seed))
        for year, mu, seed in ((2013, 5.0, 4), (2014, 4.0, 1), (2015, 3.0, 2))
    ]
    bad = tmp_path / "prices_2016.csv"
    bad.write_text("timestamp,price\n2016-01-01T00:00Z,not_a_number\n", encoding="utf-8")
    out = tmp_path / "degraded"
    assert main(["analyze-trend", *files, str(bad), "--zone", "UTC", "--out", str(out)]) == 2
    names = ("trend.json", "trend.csv", "spectrum.csv")
    original = {name: (out / name).read_bytes() for name in names}
    assert json.loads(original["trend.json"])["errors"][0]["error"] == "MalformedRow"

    rebuilt = tmp_path / "rebuilt"
    capsys.readouterr()
    assert main(["report", str(out), "--out", str(rebuilt)]) == 0
    assert "failed: prices_2016.csv [ingest]" in capsys.readouterr().err
    assert main(["report", str(out)]) == 0
    assert "failed: prices_2016.csv [ingest]" in capsys.readouterr().err
    for name, data in original.items():
        assert (rebuilt / name).read_bytes() == data, name
        assert (out / name).read_bytes() == data, name

    # an unreadable trend.json, or one without a list of error records, is an input error naming it
    capsys.readouterr()
    for text in ("{not json", '{"errors": null}', "[]", '{"errors": [5]}', '{"errors": [{}]}'):
        broken = tmp_path / "broken"
        shutil.rmtree(broken, ignore_errors=True)
        shutil.copytree(out, broken)
        (broken / "trend.json").write_text(text, encoding="utf-8")
        assert main(["report", str(broken)]) == 2
        assert str(broken / "trend.json") in capsys.readouterr().err
        assert (broken / "trend.json").read_text(encoding="utf-8") == text


def test_report_rebuilds_a_run_where_every_input_failed(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,price\n2016-01-01T00:00Z,not_a_number\n", encoding="utf-8")
    out = tmp_path / "t0"
    assert main(["analyze-trend", str(bad), "--rank", "3", "--out", str(out)]) == 3
    names = ("trend.json", "spectrum.csv")
    original = {name: (out / name).read_bytes() for name in names}
    assert sorted(p.name for p in out.iterdir()) == sorted(names)

    rebuilt = tmp_path / "rebuilt"
    for argv in (["report", str(out), "--out", str(rebuilt)], ["report", str(out)]):
        capsys.readouterr()
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert "error: need at least 3 analyzable years, got 0 (1 failed)" in err
        assert "failed: bad.csv [ingest]" in err
    for name, data in original.items():
        assert (rebuilt / name).read_bytes() == data, name
        assert (out / name).read_bytes() == data, name
    # the config echo is the original run's, not the report invocation's
    assert json.loads(original["trend.json"])["config"]["rank"] == 3

    # without year reports, a trend.json lacking its config echo is an input error,
    # and one naming years is not rebuilt without their reports
    capsys.readouterr()
    for text, message in (
        ('{"errors": [], "years": []}', "missing 'config'"),
        ('{"errors": [], "config": {}, "years": [2016]}', "no year_<Y>.json reports found"),
    ):
        (out / "trend.json").write_text(text, encoding="utf-8")
        assert main(["report", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert (out / "trend.json").read_text(encoding="utf-8") == text


@pytest.mark.parametrize("edit, problem", [
    (lambda doc: doc.update(config=5), "config is not an object"),
    (lambda doc: doc.update(years={}), "years is not a list"),
    (lambda doc: doc["errors"][0].update(stage=[1]), "errors is not a list of records"),
    (lambda doc: doc["errors"][0].update(input=5), "errors is not a list of records"),
    (lambda doc: doc["errors"][0].update(message=None), "errors is not a list of records"),
], ids=["config", "years", "stage", "input", "message"])
def test_report_refuses_a_malformed_trend_report_of_a_run_where_every_input_failed(
        tmp_path, capsys, edit, problem):
    bad = tmp_path / "bad.csv"
    bad.write_text("timestamp,price\n2016-01-01T00:00Z,not_a_number\n", encoding="utf-8")
    out = tmp_path / "t0"
    assert main(["analyze-trend", str(bad), "--zone", "UTC", "--out", str(out)]) == 3
    doc = json.loads((out / "trend.json").read_text(encoding="utf-8"))
    edit(doc)
    text = json.dumps(doc)
    (out / "trend.json").write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(["report", str(out)]) == 2
    assert f"{out / 'trend.json'} is not a trend report ({problem})" in capsys.readouterr().err
    assert (out / "trend.json").read_text(encoding="utf-8") == text


def test_too_few_usable_years_write_the_same_report_shape(tmp_path, capsys):
    files = [
        str(make_year_csv(tmp_path, year, mu, seed))
        for year, mu, seed in ((2014, 4.0, 1), (2015, 3.0, 2), (2016, 2.0, 3))
    ]
    fitted = tmp_path / "fitted"
    assert main(["analyze-trend", *files, "--zone", "UTC", "--out", str(fitted)]) == 0
    # the 2016 input now holds one malformed row
    bad = tmp_path / "prices_2016.csv"
    bad.write_text("timestamp,price\n2016-01-01T00:00Z,not_a_number\n", encoding="utf-8")
    out = tmp_path / "degraded"
    capsys.readouterr()
    code = main(["analyze-trend", *files[:2], str(bad), "--zone", "UTC", "--out", str(out)])
    assert code == 3
    captured = capsys.readouterr()
    assert "error: need at least 3 analyzable years, got 2 (1 failed)" in captured.err
    assert "failed: prices_2016.csv [ingest]" in captured.err
    assert f"report: {out / 'trend.json'}" in captured.out
    combined = json.loads((out / "trend.json").read_text())
    assert combined["trend"] is None
    assert combined["years"] == [2014, 2015]
    assert set(combined) == set(json.loads((fitted / "trend.json").read_text()))
    assert (out / "spectrum.csv").exists()
    assert not (out / "trend.csv").exists()

    # report rebuilds the same two files from the directory and exits 3 again
    rebuilt = tmp_path / "rebuilt"
    assert main(["report", str(out), "--out", str(rebuilt)]) == 3
    assert "failed: prices_2016.csv [ingest]" in capsys.readouterr().err
    for name in ("trend.json", "spectrum.csv"):
        assert (rebuilt / name).read_bytes() == (out / name).read_bytes(), name
    assert not (rebuilt / "trend.csv").exists()

    # two copies of one year are an input error, trend or not
    twice = ["analyze-trend", files[0], files[0], "--zone", "UTC", "--out", str(tmp_path / "d")]
    assert main(twice) == 2
    assert "duplicate years among the inputs: [2014, 2014]" in capsys.readouterr().err


def test_library_trend_below_three_years_names_in_memory_input(tmp_path):
    matrices = [sv.calendarize(sv.generate(rank2_spec(year=y, seed=y))) for y in (2014, 2015)]
    broken = sv.calendarize(sv.generate(rank2_spec(year=2016, seed=3)))
    broken.values[5, 10] = np.nan
    combined = sv.analyze_trend(RunConfig(permutations=100), [*matrices, broken])
    assert combined["trend"] is None
    assert combined["years"] == [2014, 2015]
    [record] = combined["errors"]
    assert record["input"] == "#3"
    assert record["error"] == "NonFiniteInput"
    assert record["stage"] == "decompose"
    assert not list(tmp_path.iterdir())


def _fake_year_reports(directory):
    directory.mkdir()
    for year, mu in ((2014, 4.0), (2015, 3.0), (2016, 2.0)):
        doc = {
            "year": year,
            "config": RunConfig().echo(),
            "residuals": {"mu_hat": mu, "tail_median": None},
            "spectrum": {"sigma": [2.0, 1.0], "sigma_normalized": [1.0, 0.5]},
        }
        (directory / f"year_{year}.json").write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize("command", ["analyze-year", "analyze-trend", "report"])
def test_empty_out_rejected_before_any_work(tmp_path, monkeypatch, capsys, command):
    csv_path = make_year_csv(tmp_path)
    reports_dir = tmp_path / "reports"
    _fake_year_reports(reports_dir)
    source = str(reports_dir) if command == "report" else str(csv_path)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    before = sorted(tmp_path.rglob("*"))
    with pytest.raises(SystemExit) as info:
        main([command, source, "--out", ""])
    assert info.value.code == 2
    assert "output directory must not be empty" in capsys.readouterr().err
    assert sorted(tmp_path.rglob("*")) == before


def test_synth_empty_out_rejected_before_any_work(tmp_path, monkeypatch, capsys):
    spec = tmp_path / "spec.json"
    write_spec(spec)
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["synth", str(spec), "--out", ""])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "output file must not be empty" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


_INGEST_FLAGS = [
    "--format", "wide", "--zone", "UTC", "--dst-policy", "hold-first", "--gap-limit", "3",
]
_INGEST_CONFIG = dict(
    input_format="wide", zone="UTC", dst_policy=DstPolicy("hold", "first"), gap_limit=3
)
_ANALYSIS_FLAGS = [
    "--rank", "3", "--trim", "0.95", "--estimator", "censored",
    "--permutations", "200", "--seed", "17",
]
_ANALYSIS_CONFIG = dict(rank=3, trim=0.95, estimator="censored", permutations=200, seed=17)


@pytest.mark.parametrize(
    "argv, flags, default, flagged",
    [
        pytest.param(
            ["ingest-check", "x.csv"], _INGEST_FLAGS,
            RunConfig(zone=DEFAULT_ZONE),
            RunConfig(**_INGEST_CONFIG),
            id="ingest-check",
        ),
        pytest.param(
            ["analyze-year", "x.csv", "--out", "o"], _INGEST_FLAGS + _ANALYSIS_FLAGS,
            RunConfig(zone=DEFAULT_ZONE, out_dir=Path("o")),
            RunConfig(**_INGEST_CONFIG, **_ANALYSIS_CONFIG, out_dir=Path("o")),
            id="analyze-year",
        ),
        pytest.param(
            ["analyze-trend", "a.csv", "b.csv", "--out", "o"],
            _INGEST_FLAGS + _ANALYSIS_FLAGS + ["--jobs", "2"],
            RunConfig(zone=DEFAULT_ZONE, out_dir=Path("o")),
            RunConfig(**_INGEST_CONFIG, **_ANALYSIS_CONFIG, jobs=2, out_dir=Path("o")),
            id="analyze-trend",
        ),
        pytest.param(
            ["report", "d"], ["--out", "o"], RunConfig(), RunConfig(out_dir=Path("o")),
            id="report",
        ),
    ],
)
def test_parser_builds_run_config(argv, flags, default, flagged):
    parser = build_parser()
    assert _config_from_args(parser.parse_args(argv)) == default
    assert _config_from_args(parser.parse_args(argv + flags)) == flagged


_INVALID_CONFIG = [
    ("rank", 0, "rank must be >= 1, got 0"),
    ("trim", 0.3, "trim must lie in (0.5, 1], got 0.3"),
    ("trim", 1.5, "trim must lie in (0.5, 1], got 1.5"),
    ("permutations", 50, "permutations must be >= 100, got 50"),
    ("seed", -1, "seed must be >= 0, got -1"),
    ("gap_limit", -1, "gap_limit must be >= 0, got -1"),
    ("jobs", 0, "jobs must be >= 1, got 0"),
]
_INVALID_NAMES = [
    ("estimator", "mle", "estimator must be one of ('trimmed', 'censored'), got 'mle'"),
    ("input_format", "csv", "input_format must be one of ('long', 'wide'), got 'csv'"),
    ("zone", "Mars/Olympus", "unknown time zone 'Mars/Olympus'"),
]
# values of the wrong type, which the CLI's int and float parsers cannot produce
_INVALID_TYPES = [
    ("rank", 2.5, "rank must be an integer, got 2.5"),
    ("rank", "2", "rank must be an integer, got '2'"),
    ("trim", "0.9", "trim must be a number, got '0.9'"),
    ("permutations", 150.5, "permutations must be an integer, got 150.5"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    ("gap_limit", 6.0, "gap_limit must be an integer, got 6.0"),
    ("jobs", True, "jobs must be an integer, got True"),
    ("zone", 5, "zone must be a string, got 5"),
    ("zone", None, "zone must be a string, got None"),
    ("dst_policy", "hold-first", "dst_policy must be a DstPolicy, got 'hold-first'"),
    ("dst_policy", None, "dst_policy must be a DstPolicy, got None"),
    ("out_dir", 5, "out_dir must be None, a str or an os.PathLike, got 5"),
]


def _config_ids(cases, show=str):
    return [f"{field}={show(value)}" for field, value, _ in cases]


@pytest.mark.parametrize(
    "field, value, message", _INVALID_CONFIG + _INVALID_NAMES + _INVALID_TYPES,
    ids=_config_ids(_INVALID_CONFIG + _INVALID_NAMES) + _config_ids(_INVALID_TYPES, repr),
)
def test_run_config_rejects_invalid_values(field, value, message):
    with pytest.raises(InputError) as info:
        RunConfig(**{field: value})
    assert str(info.value) == message


@pytest.mark.parametrize("field, value, message", _INVALID_CONFIG, ids=_config_ids(_INVALID_CONFIG))
def test_cli_reports_run_config_rejection_as_usage_error(tmp_path, capsys, field, value, message):
    out = tmp_path / "out"
    flag = "--" + field.replace("_", "-")
    with pytest.raises(SystemExit) as info:
        main(["analyze-trend", "no_such.csv", "--out", str(out), flag, str(value)])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: spotvol analyze-trend ")
    assert err.endswith(f"spotvol analyze-trend: error: {message}\n")
    assert not out.exists()


def _amplitude(**amplitude):
    return lambda doc: doc["profiles"][0].update(amplitude=amplitude)


@pytest.mark.parametrize(
    "mangle, message",
    [
        pytest.param(lambda doc: doc.update(year=float("inf")), "year: ", id="year-overflow"),
        pytest.param(lambda doc: doc.update(seed=-1), "seed must be >= 0, got -1", id="seed"),
        pytest.param(
            lambda doc: doc.update(year=2016.7), "year: must be an integer, got 2016.7",
            id="fractional-year",
        ),
        pytest.param(lambda doc: doc.update(year=True), "year: must be an integer, got True",
                     id="boolean-year"),
        pytest.param(lambda doc: doc.update(seed=2.9), "seed: must be an integer, got 2.9",
                     id="fractional-seed"),
        pytest.param(lambda doc: doc.update(seed="3"), "seed: must be an integer, got '3'",
                     id="string-seed"),
        pytest.param(
            _amplitude(kind="cosine", mean=1.0, amplitude=1.0, period_days=0),
            "profile 0: amplitude must be finite", id="zero-period",
        ),
        pytest.param(
            _amplitude(kind="constant", level=float("inf")),
            "profile 0: amplitude must be finite", id="infinite-level",
        ),
        pytest.param(
            lambda doc: doc.update(residual_mu=1e308),
            "residual_mu 1e+308 gives non-finite noise", id="huge-residual-mu",
        ),
        pytest.param(
            _amplitude(kind="constant", level=1.0, slope=2.0),
            "unexpected keyword argument 'slope'", id="unknown-parameter",
        ),
        pytest.param(
            lambda doc: doc.update(seasonal_modulation={"beta": 2.0}),
            "seasonal_modulation: ", id="modulation-without-kind",
        ),
        pytest.param(lambda doc: doc.update(residual_mu=True),
                     "residual_mu: must be a number, got True", id="boolean-residual-mu"),
        pytest.param(lambda doc: doc.update(sign_mix="0.5"),
                     "sign_mix: must be a number, got '0.5'", id="string-sign-mix"),
        pytest.param(
            _amplitude(kind="constant", level=True),
            "profile 0 amplitude level: must be a number, got True", id="boolean-level",
        ),
        pytest.param(
            lambda doc: doc.update(seasonal_modulation={"kind": "u_shaped", "beta": "2"}),
            "seasonal_modulation beta: must be a number, got '2'", id="string-beta",
        ),
        pytest.param(lambda doc: doc.update(residual_mu=10**400),
                     "residual_mu: int too large to convert to float", id="residual-mu-overflow"),
    ],
)
def test_synth_rejects_invalid_spec_values(tmp_path, capsys, mangle, message):
    doc = {
        "year": 2016,
        "residual_mu": 1.0,
        "profiles": [{"hourly": "flat", "amplitude": {"kind": "constant", "level": 1.0}}],
    }
    mangle(doc)
    spec = tmp_path / "spec.json"
    # an infinity is written as a JSON number too large for a double
    spec.write_text(json.dumps(doc).replace("Infinity", "1e400"), encoding="utf-8")
    out = tmp_path / "prices.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["synth", str(spec), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_report_refuses_a_run_whose_listed_year_report_is_gone(tmp_path, capsys):
    run = tmp_path / "run"
    _fake_year_reports(run)
    assert main(["report", str(run)]) == 0
    trend_json = (run / "trend.json").read_bytes()
    (run / "year_2016.json").unlink()
    rebuilt = tmp_path / "rebuilt"
    capsys.readouterr()
    for argv in (["report", str(run), "--out", str(rebuilt)], ["report", str(run)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "'year_2016.json'" in err and str(run / "trend.json") in err
    assert not rebuilt.exists()
    assert (run / "trend.json").read_bytes() == trend_json

    # a year_files entry that is not an object is an input error naming trend.json
    doc = json.loads(trend_json)
    doc["year_files"] = ["year_2014.json"]
    (run / "trend.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report", str(run)]) == 2
    assert f"{run / 'trend.json'} is not a trend report (year_files" in capsys.readouterr().err


def _drop(section, key):
    return lambda doc: doc[section].pop(key)


def _set(section, key, value):
    return lambda doc: doc[section].update({key: value})


_NOT_SIGMAS = "spectrum.sigma and spectrum.sigma_normalized are not equally long, non-empty lists"


@pytest.mark.parametrize(
    "mangle, message",
    [
        pytest.param(_drop("residuals", "mu_hat"), "missing 'residuals.mu_hat'", id="mu_hat"),
        pytest.param(
            _drop("residuals", "tail_median"), "missing 'residuals.tail_median'", id="tail_median"
        ),
        pytest.param(_drop("spectrum", "sigma"), "missing 'spectrum.sigma'", id="sigma"),
        pytest.param(
            _drop("spectrum", "sigma_normalized"), "missing 'spectrum.sigma_normalized'",
            id="sigma_normalized",
        ),
        pytest.param(
            lambda doc: doc.update(year="2015"), "year '2015' is not an integer", id="string-year"
        ),
        pytest.param(
            lambda doc: doc.update(year=2017), "year 2017 differs from the file name",
            id="year-not-in-name",
        ),
        pytest.param(lambda doc: doc.update(config=5), "config 5 is not an object", id="int-config"),
        pytest.param(
            _set("residuals", "mu_hat", [1]), "residuals.mu_hat [1] is not a finite number",
            id="list-mu_hat",
        ),
        pytest.param(
            _set("residuals", "mu_hat", float("nan")), "residuals.mu_hat nan is not a finite",
            id="nan-mu_hat",
        ),
        pytest.param(
            _set("residuals", "mu_hat", True), "residuals.mu_hat True is not a finite",
            id="bool-mu_hat",
        ),
        pytest.param(
            _set("residuals", "mu_hat", 10**400), "residuals.mu_hat 1000", id="huge-int-mu_hat"
        ),
        pytest.param(
            _set("residuals", "tail_median", "x"), "residuals.tail_median 'x' is not a finite",
            id="string-tail_median",
        ),
        pytest.param(_set("spectrum", "sigma", 5), _NOT_SIGMAS, id="int-sigma"),
        pytest.param(_set("spectrum", "sigma", "abc"), _NOT_SIGMAS, id="string-sigma"),
        pytest.param(_set("spectrum", "sigma", [2.0]), _NOT_SIGMAS, id="short-sigma"),
        pytest.param(
            _set("spectrum", "sigma_normalized", [1.0, float("inf")]), _NOT_SIGMAS,
            id="inf-sigma_normalized",
        ),
        pytest.param(
            lambda doc: doc["spectrum"].update(sigma=[], sigma_normalized=[]), _NOT_SIGMAS,
            id="empty-sigmas",
        ),
    ],
)
def test_report_rejects_a_malformed_year_report(tmp_path, capsys, mangle, message):
    run = tmp_path / "run"
    _fake_year_reports(run)
    path = run / "year_2015.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    mangle(doc)
    path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["report", str(run), "--out", str(out)]) == 2
    assert f"{path} is not a year report ({message}" in capsys.readouterr().err
    assert not out.exists()


def test_report_refuses_year_reports_of_different_configs(tmp_path, capsys):
    run = tmp_path / "run"
    _fake_year_reports(run)
    path = run / "year_2016.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["config"]["rank"] = 3
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["report", str(run)]) == 2
    assert f"{path} was produced with a different config" in capsys.readouterr().err
    assert not (run / "trend.json").exists()


def test_year_outside_datetime_range_is_a_calendarize_error(tmp_path):
    far = tmp_path / "far.csv"
    far.write_text("timestamp,price\n9999-12-31T23:00:00-01:00,5.0\n", encoding="utf-8")
    matrices = [sv.calendarize(sv.generate(rank2_spec(year=y, seed=y))) for y in (2014, 2015, 2016)]
    combined = sv.analyze_trend(RunConfig(permutations=100, zone="UTC"), [*matrices, far])
    assert combined["years"] == [2014, 2015, 2016]
    assert combined["trend"] is not None
    [record] = combined["errors"]
    assert (record["input"], record["stage"], record["error"]) == (
        "far.csv", "calendarize", "WrongYearSpan"
    )


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_duplicate_years_leave_nothing_in_out(tmp_path, capsys, jobs):
    first = make_year_csv(tmp_path)
    copies = [first, shutil.copy(first, tmp_path / "a.csv"), shutil.copy(first, tmp_path / "b.csv")]
    out = tmp_path / "out"
    argv = ["analyze-trend", *map(str, copies), "--zone", "UTC", "--out", str(out), "--jobs", jobs]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: duplicate years among the inputs: [2016, 2016, 2016]\n"
    # no year report, CSV, trend.json or staging directory is left behind
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["synth", "analyze-year", "analyze-trend"])
def test_unusable_out_is_an_input_error(tmp_path, capsys, monkeypatch, command):
    spec = tmp_path / "spec.json"
    write_spec(spec)
    if command == "synth":
        # an existing directory where the output file should go
        argv = ["synth", str(spec), "--out", str(tmp_path)]
    else:
        # an existing file where the output directory should go
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        argv = [command, str(make_year_csv(tmp_path)), "--zone", "UTC", "--out", str(taken)]

    def no_analysis(matrix):
        raise AssertionError("a year was analysed before its --out was made")

    monkeypatch.setattr("spotvol.lowrank.decompose", no_analysis)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno ") and err.count("\n") == 1
