"""Command-line pipeline: subcommands, exit codes, report files."""

import json
import os
import shutil
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import spotvol as sv
from spotvol.cli import _config_from_args, _print_trend, build_parser, main
from spotvol.errors import InputError
from spotvol.ingest import DEFAULT_ZONE, DstPolicy
from spotvol.pipeline import RunConfig, trend_from_year_reports
from spotvol.reports import write_trend_csv
from conftest import berlin_year_csv, rank2_spec


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


def test_every_year_of_a_parallel_trend_draws_on_every_core(tmp_path, monkeypatch):
    # --jobs sets how many years run at once, not how many threads a year's
    # permutation test draws on: each test opens usable_cores() threads, whatever jobs is
    pool, threads = sv.seasonality.ThreadPoolExecutor, []

    def counted(max_workers):
        threads.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(sv.seasonality, "usable_cores", lambda: 4)
    monkeypatch.setattr(sv.seasonality, "ThreadPoolExecutor", counted)
    matrices = [sv.calendarize(sv.generate(rank2_spec(year=y, seed=y))) for y in (2014, 2015, 2016)]
    runs = {jobs: tmp_path / f"jobs{jobs}" for jobs in (1, 2)}
    combined = {jobs: sv.analyze_trend(RunConfig(permutations=100, zone="UTC", jobs=jobs,
                                                 out_dir=out), matrices)
                for jobs, out in runs.items()}
    assert threads == [4] * 6
    assert combined[2] == combined[1]
    for year in (2014, 2015, 2016):
        name = f"year_{year}.json"
        assert (runs[2] / name).read_bytes() == (runs[1] / name).read_bytes()


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


def test_prices_whose_squares_overflow_fail_their_year_at_decompose(tmp_path, capsys):
    files = [
        str(make_year_csv(tmp_path, year, mu, seed))
        for year, mu, seed in ((2013, 5.0, 4), (2014, 4.0, 1), (2015, 3.0, 2))
    ]
    huge = make_year_csv(tmp_path, 2016, 2.0, 3)
    lines = huge.read_text().splitlines()
    for k in (100, 101):
        lines[k] = lines[k].partition(",")[0] + ",1e308"
    huge.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "year"
    assert main(["analyze-year", str(huge), "--zone", "UTC", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error [decompose]: squared Frobenius norm overflows") and err.count("\n") == 1
    assert list(out.iterdir()) == []
    out = tmp_path / "trend"
    assert main(["analyze-trend", *files, str(huge), "--zone", "UTC", "--out", str(out)]) == 3
    combined = json.loads((out / "trend.json").read_text())
    assert combined["years"] == [2013, 2014, 2015] and combined["trend"] is not None
    [record] = combined["errors"]
    assert (record["input"], record["stage"], record["error"]) == (
        "prices_2016.csv", "decompose", "AnalysisError"
    )


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


def test_report_rebuilds_only_the_year_reports_its_trend_report_lists(tmp_path):
    files = [
        str(make_year_csv(tmp_path, year, mu, seed))
        for year, mu, seed in ((2013, 5.0, 4), (2014, 4.0, 1), (2015, 3.0, 2), (2016, 2.0, 3))
    ]
    out = tmp_path / "out"
    flags = ["--zone", "UTC", "--permutations", "100", "--out", str(out)]
    assert main(["analyze-trend", *files, *flags]) == 0
    # a second run of fewer years into the same directory
    assert main(["analyze-trend", *files[1:], *flags]) == 0
    names = ("trend.json", "trend.csv", "spectrum.csv")
    second = {name: (out / name).read_bytes() for name in names}
    assert json.loads(second["trend.json"])["years"] == [2014, 2015, 2016]
    assert (out / "year_2013.json").exists()  # the first run's, which report must not use
    assert main(["report", str(out)]) == 0
    for name, data in second.items():
        assert (out / name).read_bytes() == data, name


def test_report_leaves_scipy_special_unloaded(tmp_path):
    run = tmp_path / "run"
    _fake_year_reports(run, ((2013, 5.0), (2014, 4.0), (2015, 3.0), (2016, 2.0)))
    code = (
        "import sys; from spotvol.cli import main;"
        f"assert main(['report', {str(run)!r}]) == 0;"
        "assert 'scipy.special' not in sys.modules, 'scipy.special loaded'"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(sv.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
    assert json.loads((run / "trend.json").read_text())["years"] == [2013, 2014, 2015, 2016]


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


def test_permutations_beyond_memory_end_in_one_error_line(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,)")

    # stands in for np.empty(10**12), which an overcommitting kernel may grant
    monkeypatch.setattr("spotvol.seasonality.permutation_test", out_of_memory)
    csv_path = make_year_csv(tmp_path)
    capsys.readouterr()
    argv = ["analyze-year", str(csv_path), "--zone", "UTC", "--out", str(tmp_path / "o"),
            "--permutations", "1000000000000"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: Unable to allocate 7.28 TiB for an array with shape (1000000000000,)\n"
    )


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


def _fake_year_reports(directory, points=((2014, 4.0), (2015, 3.0), (2016, 2.0))):
    directory.mkdir()
    for year, mu in points:
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
    assert "out_dir must not be empty" in capsys.readouterr().err
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


class EmptyPath:
    """An os.PathLike whose path is empty, which Path would take for the working directory."""

    def __fspath__(self):
        return ""

    def __repr__(self):
        return "EmptyPath()"


_INVALID_NAMES = [
    ("estimator", "mle", "estimator must be one of ('trimmed', 'censored'), got 'mle'"),
    ("input_format", "csv", "input_format must be one of ('long', 'wide'), got 'csv'"),
    ("zone", "Mars/Olympus", "unknown time zone 'Mars/Olympus'"),
    ("out_dir", "", "out_dir must not be empty, got ''"),
    ("out_dir", EmptyPath(), "out_dir must not be empty, got EmptyPath()"),
]


class BytesPath:
    """An os.PathLike whose path is bytes, which a Path cannot hold."""

    def __fspath__(self):
        return b"x"

    def __repr__(self):
        return "BytesPath()"


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
    ("out_dir", BytesPath(), "out_dir must be None, a str or an os.PathLike, got BytesPath()"),
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


@pytest.mark.parametrize("given", ["x", Path("x")], ids=["str", "Path"])
def test_run_config_holds_out_dir_as_a_path(given):
    assert RunConfig(out_dir=given).out_dir == Path("x")
    assert replace(RunConfig(), out_dir=given) == RunConfig(out_dir=Path("x"))


def test_an_empty_out_dir_writes_nothing_to_the_working_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    matrix = sv.calendarize(sv.generate(rank2_spec(year=2016, seed=1)))
    with pytest.raises(InputError, match="^out_dir must not be empty, got ''$"):
        sv.analyze_year(RunConfig(permutations=100, zone="UTC", out_dir=""), matrix)
    with pytest.raises(InputError, match="^out_dir must not be empty, got ''$"):
        sv.assemble_report(replace(RunConfig(), out_dir=""), tmp_path)
    assert list(tmp_path.iterdir()) == []


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


def test_report_of_a_path_that_is_not_a_directory_names_it(tmp_path, capsys):
    prices = tmp_path / "prices.csv"
    prices.write_text("timestamp,price\n", encoding="utf-8")
    for path in (tmp_path / "missing_dir", prices):
        capsys.readouterr()
        assert main(["report", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path} is not a directory\n"
    assert not (tmp_path / "out").exists()
    # an existing empty directory keeps its message
    (tmp_path / "empty").mkdir()
    assert main(["report", str(tmp_path / "empty")]) == 2
    assert "no year_<Y>.json reports found in" in capsys.readouterr().err


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

    # a year_files entry that is not an object, or that names a file other than
    # year_<Y>.json in the run directory, is an input error naming trend.json
    for listed in (["year_2014.json"], {"2014": "../run/year_2014.json"}, {"2014": 5}):
        doc = json.loads(trend_json)
        doc["year_files"] = listed
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


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_report_takes_the_config_echo_from_trend_json(tmp_path, capsys):
    run = tmp_path / "run"
    _fake_year_reports(run)
    assert main(["report", str(run)]) == 0
    fitted = json.loads((run / "trend.json").read_text(encoding="utf-8"))
    capsys.readouterr()
    # trend.json is the run's record: a config the year reports lack is not repaired from them
    fitted["config"]["rank"] = 3
    for doc, message in (
        (fitted, f"{run / 'year_2014.json'} was produced with a different config than trend.json"),
        ({k: v for k, v in fitted.items() if k != "config"},
         f"{run / 'trend.json'} is not a trend report (missing 'config')"),
    ):
        (run / "trend.json").write_text(json.dumps(doc), encoding="utf-8")
        before = _files(run)
        assert main(["report", str(run)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert _files(run) == before


def test_report_writes_nothing_when_the_report_cannot_be_serialized(tmp_path, capsys):
    # three year reports whose config holds a NaN, and no trend.json
    run = tmp_path / "run"
    _fake_year_reports(run)
    for path in run.iterdir():
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["config"]["trim_quantile"] = float("nan")
        path.write_text(json.dumps(doc), encoding="utf-8")
    # a trend.json whose first error record has a NaN "error"
    failed = tmp_path / "failed"
    _fake_year_reports(failed)
    doc = {"config": RunConfig().echo(), "years": [2014, 2015, 2016], "trend": None,
           "year_files": {str(y): f"year_{y}.json" for y in (2014, 2015, 2016)},
           "errors": [{"input": "bad.csv", "stage": "ingest", "error": float("nan"),
                       "category": "input", "message": "line 2: bad price"}]}
    (failed / "trend.json").write_text(json.dumps(doc), encoding="utf-8")
    for directory, field in ((run, "config.trim_quantile"), (failed, "errors[0].error")):
        before = _files(directory)
        capsys.readouterr()
        assert main(["report", str(directory)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write trend.json: {field} is nan, which JSON cannot hold\n")
        assert _files(directory) == before


@pytest.mark.parametrize("years, mangle", [
    pytest.param((2014, 2015, 2016), _set("config", "trim_quantile", float("nan")),
                 id="nan-config"),
    pytest.param((2015,), _drop("residuals", "mu_hat"), id="malformed-year"),
])
def test_report_creates_a_new_out_only_after_its_checks_pass(tmp_path, capsys, years, mangle):
    run = tmp_path / "run"
    _fake_year_reports(run)
    for year in years:
        path = run / f"year_{year}.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        mangle(doc)
        path.write_text(json.dumps(doc), encoding="utf-8")
    new = tmp_path / "new"
    assert main(["report", str(run), "--out", str(new)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not new.exists()


def test_report_of_a_too_deeply_nested_trend_report_is_an_input_error(tmp_path, capsys):
    run = tmp_path / "run"
    _fake_year_reports(run)
    deep = "[" * 100_000 + "]" * 100_000
    (run / "trend.json").write_text(
        f'{{"config": {deep}, "years": [], "errors": []}}', encoding="utf-8")
    before = _files(run)
    assert main(["report", str(run)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read trend report {run / 'trend.json'}: maximum recursion")
    assert err.count("\n") == 1
    assert _files(run) == before


def test_a_year_report_json_cannot_hold_leaves_out_empty(tmp_path, capsys, monkeypatch):
    analyze = sv.pipeline.residual_stats.analyze_residuals
    monkeypatch.setattr(sv.pipeline.residual_stats, "analyze_residuals",
                        lambda *args, **kw: replace(analyze(*args, **kw), mean_all=float("nan")))
    out = tmp_path / "out"
    code = main(["analyze-year", str(make_year_csv(tmp_path)), "--zone", "UTC",
                 "--permutations", "100", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: cannot write year_2016.json: residuals.mean_all is nan, which JSON cannot hold\n")
    assert not list(out.iterdir())


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


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_trend_stages_its_years_in_one_directory(tmp_path, monkeypatch, jobs):
    written = []
    for name in ("write_json", "_write_rows"):  # every report and CSV writer
        monkeypatch.setattr(sv.reports, name, lambda path, *rest, write=getattr(sv.reports, name):
                            (written.append(path), write(path, *rest)))
    matrices = [sv.calendarize(sv.generate(rank2_spec(year=y, seed=y))) for y in (2014, 2015, 2016)]
    out = tmp_path / "out"
    sv.analyze_trend(RunConfig(permutations=100, zone="UTC", jobs=jobs, out_dir=out), matrices)
    # each year and the combined report write into their own stage inside the
    # run's one stage in out: no file is written straight into out
    where = [path.relative_to(out).parts for path in written]
    assert len(where) == 6 * 3 + 3 and {len(parts) for parts in where} == {3}
    [run_stage] = {parts[0] for parts in where}
    assert run_stage.startswith(".staging-")
    assert all(parts[1].startswith(".staging-") for parts in where)
    assert len({parts[1] for parts in where}) == 3 + 1
    # every staged file was moved into out, and no staging directory is left
    assert sorted(p.name for p in out.iterdir()) == sorted(parts[2] for parts in where)
    assert not list(out.rglob(".staging-*"))


# how each file a run publishes is ranked: a reader who sees trend.json sees the whole run
_PUBLISH_ORDER = ["csv", "year", "trend"]


@pytest.mark.parametrize("run", ["analyze_year", "analyze_trend 1", "analyze_trend 2",
                                 "assemble_report"])
def test_a_run_moves_its_csvs_then_its_year_reports_then_trend_json_into_out(
        tmp_path, monkeypatch, run):
    matrices = [sv.calendarize(sv.generate(rank2_spec(year=y, seed=y))) for y in (2014, 2015, 2016)]
    out = tmp_path / "out"
    config = RunConfig(permutations=100, zone="UTC", out_dir=out)
    if run == "assemble_report":
        sv.analyze_trend(config, matrices)
    moved, move = [], os.replace

    def spied(src, dst):
        if Path(dst).parent == out:
            moved.append(Path(dst).name)
        move(src, dst)

    monkeypatch.setattr(os, "replace", spied)
    if run == "analyze_year":
        sv.analyze_year(config, matrices[-1])
    elif run == "assemble_report":
        sv.assemble_report(RunConfig(), out)
    else:
        sv.analyze_trend(replace(config, jobs=int(run.split()[1])), matrices)
    kinds = ["csv" if name.endswith(".csv") else "trend" if name == "trend.json" else "year"
             for name in moved]
    assert kinds == sorted(kinds, key=_PUBLISH_ORDER.index)
    assert set(kinds) == {"analyze_year": {"csv", "year"},
                          "assemble_report": {"csv", "trend"}}.get(run, set(_PUBLISH_ORDER))
    assert all((out / name).is_file() for name in moved)


def _tree(root):
    """Each path under root, hidden names included: a file's bytes, or None for a directory."""
    return {p.relative_to(root).as_posix(): None if p.is_dir() else p.read_bytes()
            for p in root.rglob("*")}


# the command, and the name in its --out made a directory; report runs on an
# analyze-trend run, in place with its trend.csv and spectrum.csv removed
_CONFLICTS = [
    ("analyze-year", "year_2016.json"),
    ("analyze-year", "spectrum_2016.csv"),
    ("analyze-trend --jobs 1", "trend.json"),
    ("analyze-trend --jobs 2", "year_2016.json"),
    ("report", "spectrum.csv"),
    ("report --out", "trend.json"),
]


@pytest.mark.parametrize("command, target", _CONFLICTS, ids=[f"{c} {t}" for c, t in _CONFLICTS])
def test_a_directory_at_a_target_name_leaves_out_as_it_was(tmp_path, capsys, command, target):
    files = [str(make_year_csv(tmp_path, year, mu, seed))
             for year, mu, seed in ((2014, 4.0, 1), (2015, 3.0, 2), (2016, 2.0, 3))]
    flags = ["--zone", "UTC", "--permutations", "100"]
    name, *rest = command.split()
    out = tmp_path / "out"
    if name == "analyze-year":
        argv = [name, files[-1], *flags, "--out", str(out)]
    elif name == "analyze-trend":
        argv = [name, *files, *flags, *rest, "--out", str(out)]
    else:
        run = tmp_path / "run"
        assert main(["analyze-trend", *files, *flags, "--out", str(run)]) == 0
        if rest:
            argv = [name, str(run), "--out", str(out)]
        else:
            out, argv = run, [name, str(run)]
            for made in ("trend.csv", "spectrum.csv"):
                (run / made).unlink()
    (out / target).mkdir(parents=True)
    before = _tree(out)
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: cannot write {out / target}: it is a directory\n"
    assert _tree(out) == before


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


def hour_ending_utc_csv(path):
    """A UTC 2015 written hour-ending: each day's hours are stamped 01 to 24."""
    days = np.arange("2015-01-01", "2016-01-01", dtype="datetime64[D]").astype(str).tolist()
    rows = [f"{day}T{h:02d}:00:00,{20.0 + h}" for day in days for h in range(1, 25)]
    path.write_text("\n".join(["timestamp,price", *rows]) + "\n", encoding="utf-8")
    return path


def berlin_2015_csv(path, stamp):
    """A naive Berlin 2015 whose line 1001, the row of 2015-02-11T15:00, is stamped stamp."""
    lines = berlin_year_csv(2015).splitlines()
    assert lines[1000].startswith("2015-02-11T15:00:00,")
    lines[1000] = stamp + lines[1000][len(stamp):]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


# full years with one stamp off the calendar, its line, and the stamp
OFF_CALENDAR = [
    pytest.param(hour_ending_utc_csv, 25, "2015-01-01T24:00:00", id="hour-ending"),
    *(pytest.param(lambda path, stamp=stamp: berlin_2015_csv(path, stamp), 1001, stamp, id=name)
      for stamp, name in (("2015-02-11T24:00:00", "hour-24"), ("2015-02-29T15:00:00", "feb-29"),
                          ("2015-13-11T15:00:00", "month-13"))),
]


def run_cli(*argv):
    """The CLI in a child process, so that a crash fails one test, not the run."""
    env = {**os.environ, "PYTHONPATH": str(Path(sv.__file__).resolve().parents[1])}
    return subprocess.run([sys.executable, "-m", "spotvol.cli", *map(str, argv)], env=env,
                          capture_output=True, encoding="utf-8")


@pytest.mark.parametrize("write, line, stamp", OFF_CALENDAR)
def test_a_stamp_off_the_calendar_is_a_row_error_naming_its_line(tmp_path, write, line, stamp):
    done = run_cli("ingest-check", write(tmp_path / "year.csv"), "--zone", "UTC")
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith(f"error [ingest]: line {line}: bad timestamp '{stamp}'")
    assert done.stderr.count("\n") == 1


def test_years_off_the_calendar_fail_alone_in_a_trend(tmp_path):
    files = [make_year_csv(tmp_path, year, mu, seed)
             for year, mu, seed in ((2013, 5.0, 4), (2014, 4.0, 1), (2015, 3.0, 2))]
    bad = [param.values[0](tmp_path / f"{param.id}.csv") for param in OFF_CALENDAR]
    out = tmp_path / "out"
    done = run_cli("analyze-trend", *files, *bad, "--zone", "UTC", "--permutations", "100",
                   "--out", out)
    assert done.returncode == 2
    combined = json.loads((out / "trend.json").read_text(encoding="utf-8"))
    assert combined["years"] == [2013, 2014, 2015] and combined["trend"] is not None
    assert [(r["input"], r["stage"], r["error"]) for r in combined["errors"]] == [
        (path.name, "ingest", "MalformedRow") for path in bad]
    for param, record in zip(OFF_CALENDAR, combined["errors"]):
        _, line, stamp = param.values
        assert record["message"].startswith(f"line {line}: bad timestamp '{stamp}'")
        assert f"failed: {record['input']} [ingest] {record['message']}\n" in done.stderr
    assert not list(out.glob(".staging-*"))


def _nan_in_the_leap_year(monkeypatch):
    """Make the residual statistics of a leap year hold mean_all = NaN."""
    analyze = sv.pipeline.residual_stats.analyze_residuals

    def nan_in_the_leap_year(residuals, **kw):
        analysis = analyze(residuals, **kw)
        return replace(analysis, mean_all=float("nan")) if len(residuals) == 8784 else analysis

    monkeypatch.setattr(sv.pipeline.residual_stats, "analyze_residuals", nan_in_the_leap_year)


def test_a_year_report_json_cannot_hold_fails_that_year_alone(tmp_path, capsys, monkeypatch):
    _nan_in_the_leap_year(monkeypatch)
    matrices = [sv.calendarize(sv.generate(rank2_spec(year=y, seed=y))) for y in range(2013, 2017)]
    out = tmp_path / "out"
    combined = sv.analyze_trend(RunConfig(permutations=100, zone="UTC", out_dir=out), matrices)
    assert combined["years"] == [2013, 2014, 2015] and combined["trend"] is not None
    message = "cannot write year_2016.json: residuals.mean_all is nan, which JSON cannot hold"
    assert combined["errors"] == [{"input": "#4", "stage": None, "error": "InputError",
                                   "category": "input", "message": message}]
    assert not list(out.glob("*_2016.*")) and (out / "trend.json").exists()
    capsys.readouterr()
    _print_trend(combined)
    assert capsys.readouterr().err == f"failed: #4 {message}\n"


def test_a_trend_is_the_same_in_memory_and_on_disk(tmp_path, monkeypatch):
    # out_dir decides only whether files are written: the NaN year fails on both paths
    _nan_in_the_leap_year(monkeypatch)
    matrices = [sv.calendarize(sv.generate(rank2_spec(year=y, seed=y))) for y in range(2013, 2017)]
    config = RunConfig(permutations=100, zone="UTC")
    in_memory = sv.analyze_trend(config, matrices)
    on_disk = sv.analyze_trend(replace(config, out_dir=tmp_path), matrices)
    assert in_memory == on_disk
    assert in_memory["years"] == [2013, 2014, 2015]
    assert [record["input"] for record in in_memory["errors"]] == ["#4"]
    assert (tmp_path / "trend.json").read_text(encoding="utf-8") == (
        sv.reports.json_text(on_disk, "trend.json"))


def test_a_year_report_json_cannot_hold_fails_alike_with_and_without_out(tmp_path, monkeypatch):
    _nan_in_the_leap_year(monkeypatch)
    matrix = sv.calendarize(sv.generate(rank2_spec(year=2016, seed=1)))
    config = RunConfig(permutations=100, zone="UTC")
    messages = []
    for out_dir in (None, tmp_path / "out"):
        with pytest.raises(InputError) as caught:
            sv.analyze_year(replace(config, out_dir=out_dir), matrix)
        messages.append(str(caught.value))
    assert messages == ["cannot write year_2016.json: residuals.mean_all is nan,"
                        " which JSON cannot hold"] * 2
    assert not list((tmp_path / "out").iterdir())


# an integer past Python's 4,300-digit limit for str <-> int, which json cannot read
HUGE_INT = "9" * 5000


def test_every_report_json_cannot_read_is_named(tmp_path, capsys):
    years = tmp_path / "years"
    _fake_year_reports(years)
    edited = years / "year_2015.json"
    edited.write_text(edited.read_text(encoding="utf-8").replace(
        '"mu_hat": 3.0', f'"mu_hat": {HUGE_INT}'), encoding="utf-8")
    recorded = tmp_path / "recorded"
    _fake_year_reports(recorded)
    assert main(["report", str(recorded)]) == 0
    record = recorded / "trend.json"
    record.write_text(record.read_text(encoding="utf-8").replace(
        '"seed": 0', f'"seed": {HUGE_INT}'), encoding="utf-8")
    latin1 = tmp_path / "latin1"
    _fake_year_reports(latin1)
    (latin1 / "year_2016.json").write_bytes(b'{"year": 2016, "note": "caf\xe9"}')
    for run, kind, path, problem in (
        (years, "year report", edited, "Exceeds the limit (4300 digits)"),
        (recorded, "trend report", record, "Exceeds the limit (4300 digits)"),
        (latin1, "year report", latin1 / "year_2016.json", "'utf-8' codec can't decode"),
    ):
        before = _files(run)
        capsys.readouterr()
        assert main(["report", str(run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot read {kind} {path}: {problem}")
        assert err.count("\n") == 1
        assert _files(run) == before


def test_a_spec_json_cannot_read_is_named(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    write_spec(spec, seed=0)
    spec.write_text(spec.read_text(encoding="utf-8").replace(
        '"seed": 0', f'"seed": {HUGE_INT}'), encoding="utf-8")
    out = tmp_path / "prices.csv"
    assert main(["synth", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read spec {spec}: Exceeds the limit (4300 digits)")
    assert err.count("\n") == 1
    assert not out.exists()


def test_a_second_input_for_a_year_that_fails_is_a_failed_year(tmp_path):
    years = [sv.generate(rank2_spec(year=y, seed=y)) for y in (2014, 2015, 2016)]
    huge = sv.generate(rank2_spec(year=2016, seed=1))
    huge.values *= 1e300
    out = tmp_path / "out"
    combined = sv.analyze_trend(RunConfig(permutations=100, zone="UTC", out_dir=out), [*years, huge])
    assert combined["years"] == [2014, 2015, 2016] and combined["trend"] is not None
    [record] = combined["errors"]
    assert (record["input"], record["stage"], record["error"]) == ("#4", "decompose", "AnalysisError")
    assert sorted(p.name for p in out.glob("*.json")) == [
        "trend.json", "year_2014.json", "year_2015.json", "year_2016.json"]
