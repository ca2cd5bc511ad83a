"""Byte-identity harness: run a fixed set of spotvol CLI commands against one
source tree and write a JSON manifest of everything they produced.

    python tools/cli_bytes.py --src <tree>/src --out manifest.json

The commands run in a fresh work directory and name their files by
relative paths, so the manifests of two trees compare directly:

    python tools/cli_bytes.py --src parent/src --out parent.json
    python tools/cli_bytes.py --src src --out change.json
    cmp parent.json change.json

The manifest holds the sha256 of every file left in the work directory
(inputs and outputs) and each command's argv, exit code, stdout and
stderr; a stream longer than STREAM_LIMIT characters is kept as its
sha256.  A .staging-* directory left anywhere in the work directory ends
the harness with an error and no manifest.  The last bits of a float
depend on the BLAS build and on the kernels it runs, so compare manifests
made on one machine only; the manifest's "environment" names the Python,
numpy and BLAS the commands ran with, and the OpenBLAS core (null when no
OpenBLAS is found).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from zoneinfo import ZoneInfo

STREAM_LIMIT = 4096

# year -> (residual_mu, seed) of the synthetic years; 2017 goes to stdout
YEARS = {2013: (5.0, 4), 2014: (4.0, 1), 2015: (3.0, 2), 2016: (2.0, 3), 2017: (2.5, 5)}
TRENDS = [f"prices_{year}.csv" for year in (2013, 2014, 2015, 2016)]
UTC = ["--zone", "UTC"]
WIDE = ["--format", "wide", "--zone", "Europe/Berlin"]

COMMANDS = [
    *(["synth", f"spec_{year}.json", "--out", f"prices_{year}.csv"] for year in range(2013, 2017)),
    ["synth", "spec_2017.json"],
    ["analyze-year", "prices_2016.csv", *UTC, "--out", "year_default"],
    ["analyze-year", "prices_2016.csv", *UTC, "--seed", "5", "--permutations", "333",
     "--rank", "3", "--out", "year_flags"],
    # a seed wider than one 32-bit entropy word (2**40 + 3)
    ["analyze-year", "prices_2016.csv", *UTC, "--seed", "1099511627779", "--permutations", "100",
     "--out", "year_wide_seed"],
    # a seed of three entropy words (2**64 + 7); 101 draws do not divide among the threads
    ["analyze-year", "prices_2016.csv", *UTC, "--seed", "18446744073709551623",
     "--permutations", "101", "--out", "year_three_word_seed"],
    ["analyze-trend", *TRENDS, *UTC, "--jobs", "1", "--out", "trend_jobs1"],
    ["analyze-trend", *TRENDS, *UTC, "--jobs", "2", "--out", "trend_jobs2"],
    ["analyze-trend", *TRENDS[:3], "malformed.csv", *UTC, "--jobs", "2", "--out", "trend_malformed"],
    ["analyze-trend", *TRENDS[:2], "malformed.csv", *UTC, "--jobs", "1", "--out", "trend_two"],
    ["analyze-trend", *TRENDS[:3], "--zone", "Nowhere/Zone", "--out", "trend_bad_zone"],
    ["ingest-check", "prices_2016.csv", *UTC],
    ["ingest-check", "berlin_2016.csv", "--zone", "Europe/Berlin"],
    # a spreadsheet export: byte-order mark and CRLF line ends
    ["ingest-check", "berlin_crlf_bom_2016.csv", "--zone", "Europe/Berlin"],
    # zone tables: a sparse year (not covered by the table parsing built), and
    # New York and Kiritimati (UTC+14) years stamped in UTC (covered although no
    # stamp is a wall time, and Kiritimati's instants lie a day from their wall dates)
    ["ingest-check", "berlin_sparse_2016.csv", "--zone", "Europe/Berlin", "--gap-limit", "100000"],
    ["ingest-check", "new_york_utc_2016.csv", "--zone", "America/New_York"],
    ["ingest-check", "kiritimati_utc_2016.csv", "--zone", "Pacific/Kiritimati"],
    # long files that only the row parser takes: "Z" stamps, a :30 stamp on line
    # 5000, and a naive Berlin year whose two fall-back rows carry their offsets
    ["ingest-check", "zulu_2016.csv", *UTC],
    ["ingest-check", "half_hour_2016.csv", *UTC],
    ["ingest-check", "berlin_mixed_2016.csv", "--zone", "Europe/Berlin"],
    ["analyze-year", "berlin_mixed_2016.csv", "--zone", "Europe/Berlin", "--permutations", "200",
     "--out", "year_mixed"],
    # finite prices whose squares overflow a float
    ["analyze-year", "overflow_2016.csv", *UTC, "--out", "year_overflow"],
    # the wide parser: blank cells, a padded cell and a blank line
    ["ingest-check", "berlin_wide_2016.csv", *WIDE],
    ["analyze-year", "berlin_wide_2016.csv", *WIDE, "--permutations", "200", "--out", "year_wide"],
    # a UTC year of even hours only: 4,392 one-hour gaps, the last one at the year's end
    ["ingest-check", "alternate_2016.csv", *UTC],
    ["analyze-year", "alternate_2016.csv", *UTC, "--permutations", "100", "--out", "year_alternate"],
    ["report", "trend_jobs1", "--out", "report_out"],
    # in place, on a copy of a run with a failed year
    ["report", "report_in_place"],
    # a second run of fewer years into the first run's --out: report rebuilds
    # the second run, not the first run's year_2013.json left beside it
    ["analyze-trend", *TRENDS, *UTC, "--permutations", "100", "--out", "trend_reused"],
    ["analyze-trend", *TRENDS[1:], *UTC, "--permutations", "100", "--out", "trend_reused"],
    ["report", "trend_reused"],
    ["report", "missing_dir"],
    # trend.json is the run's record: a config the year reports lack is refused,
    # and a value JSON cannot hold fails before any file is written
    ["report", "report_rank_3"],
    ["report", "report_nan_error"],
    # a trend.json nested deeper than the JSON reader recurses is an input error
    ["report", "report_deep_config"],
    # a UTC year written hour-ending: its first T24:00:00 stamp, on line 25, is a
    # row error, alone and as one failed input of a trend
    ["ingest-check", "hour_ending_2015.csv", *UTC],
    ["analyze-trend", *TRENDS[:3], "hour_ending_2015.csv", *UTC, "--out", "trend_hour_ending"],
    # a second 2016 that fails at decompose is a failed year, not a duplicate
    ["analyze-trend", *TRENDS[1:], "overflow_2016.csv", *UTC, "--out", "trend_overflow"],
    # two 2016s that both succeed are duplicates: the run leaves no file in its --out
    ["analyze-trend", *TRENDS[1:], TRENDS[-1], *UTC, "--jobs", "2", "--out", "trend_duplicate"],
    # a directory where the year report goes: the run fails and leaves no file in its --out
    ["analyze-year", "prices_2016.csv", *UTC, "--out", "year_conflict"],
    # an integer past Python's 4,300-digit limit is a read error naming its file
    ["synth", "spec_huge_seed.json", "--out", "prices_huge_seed.csv"],
    ["report", "report_huge_mu"],
]

# run with the commands' interpreter: where spotvol comes from, and the environment,
# with the core (kernel set) numpy's OpenBLAS picked for this CPU when it loaded
ENVIRONMENT = """\
import ctypes, json, pathlib, platform, numpy, spotvol
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
core = None
for lib in sorted(pathlib.Path(numpy.__file__).parent.with_name("numpy.libs").glob("*openblas*")):
    corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
    if corename is not None:
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        core = corename().decode()
print(json.dumps({"spotvol": spotvol.__file__, "python": platform.python_version(),
                  "numpy": numpy.__version__, "blas": f"{blas['name']} {blas['version']}",
                  "blas_core": core}))
"""

# the raw text of an integer json cannot read: 5,000 digits
HUGE_INT = "9" * 5000


def edit_trend_json(run: Path, edit) -> None:
    doc = json.loads((run / "trend.json").read_text(encoding="utf-8"))
    edit(doc)
    (run / "trend.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                                    encoding="utf-8")


def nan_error(run: Path) -> None:
    for name in ("trend.csv", "spectrum.csv"):
        (run / name).unlink()
    edit_trend_json(run, lambda doc: doc["errors"][0].update(error=math.nan))


def deep_config(run: Path) -> None:
    deep = "[" * 100_000 + "]" * 100_000
    (run / "trend.json").write_text(f'{{"config": {deep}, "errors": [], "years": []}}\n',
                                    encoding="utf-8")


def huge_mu(run: Path) -> None:
    path = run / "year_2015.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["residuals"]["mu_hat"] = "<mu_hat>"
    text = json.dumps(doc, indent=2, sort_keys=True).replace('"<mu_hat>"', HUGE_INT)
    path.write_text(text + "\n", encoding="utf-8")


# report directories made just before their command: a copy of a run, then an edit
COPIES = {
    "report_in_place": ("trend_malformed", lambda run: None),
    "report_rank_3": ("trend_jobs1", lambda run: edit_trend_json(
        run, lambda doc: doc["config"].update(rank=3))),
    "report_nan_error": ("trend_malformed", nan_error),
    "report_deep_config": ("trend_jobs1", deep_config),
    "report_huge_mu": ("trend_jobs1", huge_mu),
}


def spec(year: int) -> dict:
    mu, seed = YEARS[year]
    cosine = {"kind": "cosine", "mean": 1.0, "amplitude": 0.15, "period_days": 366}
    weekly = {"kind": "cosine", "mean": 0.0, "amplitude": 6.0, "period_days": 7}
    return {"year": year, "residual_mu": mu, "seed": seed, "profiles": [
        {"hourly": "double_peak", "amplitude": cosine},
        {"hourly": "daily_sine", "amplitude": weekly},
    ]}


def berlin_year_csv(year: int) -> str:
    """Naive Berlin wall-clock stamps for every real hour of the year: the
    spring-forward hour is absent and the fall-back hour appears twice."""
    berlin = ZoneInfo("Europe/Berlin")
    start = datetime(year, 1, 1, tzinfo=berlin).astimezone(timezone.utc)
    end = datetime(year + 1, 1, 1, tzinfo=berlin).astimezone(timezone.utc)
    rows = ["timestamp,price"]
    for i in range(int((end - start) / timedelta(hours=1))):
        wall = (start + timedelta(hours=i)).astimezone(berlin).replace(tzinfo=None)
        rows.append(f"{wall.isoformat()},{20.0 + i % 24}")
    return "\n".join(rows) + "\n"


def berlin_wide_csv(year: int) -> str:
    """Berlin wall-clock days as date,h1..h24 rows of seeded noisy prices.
    The spring-forward cell is blank as the layout requires; so are hours
    5 and 6 of 15 June.  Hour 12 of 1 March is padded with spaces, and a
    blank line follows 1 July."""
    berlin, rng = ZoneInfo("Europe/Berlin"), random.Random(year)
    rows = ["date," + ",".join(f"h{h}" for h in range(1, 25))]
    day = datetime(year, 1, 1)
    while day.year == year:
        cells = []
        for h in range(24):
            wall = day.replace(hour=h)
            real = wall.replace(tzinfo=berlin).astimezone(timezone.utc).astimezone(berlin)
            price = 30.0 + 10.0 * math.sin(math.pi * h / 12) + rng.expovariate(0.2)
            cells.append(f"{price:.2f}" if real.replace(tzinfo=None) == wall else "")
        if (day.month, day.day) == (6, 15):
            cells[5] = cells[6] = ""
        if (day.month, day.day) == (3, 1):
            cells[12] = f"  {cells[12]} "
        rows.append(day.date().isoformat() + "," + ",".join(cells))
        if (day.month, day.day) == (7, 1):
            rows.append("")
        day += timedelta(days=1)
    return "\n".join(rows) + "\n"


def sparse_rows(text: str) -> list[str]:
    """The data rows of a long file that fall on days 5, 15, 25, ... of
    the year: no row in its first four days or its last day."""
    return [row for row in text.splitlines()[1:]
            if datetime.fromisoformat(row[:10]).timetuple().tm_yday % 10 == 5]


def utc_stamped_rows(year: int, zone: str) -> list[str]:
    """Every hour of the zone's wall-clock year, stamped in UTC with "+00:00"."""
    tz = ZoneInfo(zone)
    start = datetime(year, 1, 1, tzinfo=tz).astimezone(timezone.utc)
    end = datetime(year + 1, 1, 1, tzinfo=tz).astimezone(timezone.utc)
    hours = (end - start) // timedelta(hours=1)
    return [f"{(start + timedelta(hours=i)).isoformat()},{30.0 + i % 7}" for i in range(hours)]


def utc_year_rows(year: int) -> list[str]:
    """Naive UTC stamps for every hour of the year, in the canonical shape."""
    start = datetime(year, 1, 1)
    hours = (datetime(year + 1, 1, 1) - start) // timedelta(hours=1)
    return [f"{(start + timedelta(hours=i)).isoformat()},{20.0 + i % 24}" for i in range(hours)]


def hour_ending_rows(year: int) -> list[str]:
    """Naive UTC stamps of the year written hour-ending: hours 01 to 24 of each day."""
    start = datetime(year, 1, 1)
    days = (datetime(year + 1, 1, 1) - start).days
    return [f"{(start + timedelta(days=d)).date()}T{h:02d}:00:00,{20.0 + h}"
            for d in range(days) for h in range(1, 25)]


def write_inputs(work: Path) -> None:
    (work / "year_conflict" / "year_2016.json").mkdir(parents=True)
    for year in YEARS:
        (work / f"spec_{year}.json").write_text(json.dumps(spec(year)), encoding="utf-8")
    (work / "spec_huge_seed.json").write_text(
        json.dumps({**spec(2016), "seed": "<seed>"}).replace('"<seed>"', HUGE_INT),
        encoding="utf-8")
    (work / "malformed.csv").write_text(
        "timestamp,price\n2016-01-01T00:00Z,not_a_number\n", encoding="utf-8"
    )
    (work / "berlin_2016.csv").write_text(berlin_year_csv(2016), encoding="utf-8")
    (work / "berlin_crlf_bom_2016.csv").write_text(
        berlin_year_csv(2016), encoding="utf-8-sig", newline="\r\n"
    )
    (work / "berlin_wide_2016.csv").write_text(berlin_wide_csv(2016), encoding="utf-8")
    mixed = berlin_year_csv(2016)
    for offset in ("+02:00", "+01:00"):
        mixed = mixed.replace("2016-10-30T02:00:00,", f"2016-10-30T02:00:00{offset},", 1)
    (work / "berlin_mixed_2016.csv").write_text(mixed, encoding="utf-8")
    rows = utc_year_rows(2016)
    alternate = rows[::2]  # even hours, before data row 4998 is edited
    zulu = [row.replace(",", "Z,") for row in rows]
    overflow = [row.partition(",")[0] + ",1e308" if i in (99, 100) else row
                for i, row in enumerate(rows)]  # data rows 100 and 101
    rows[4998] = rows[4998].replace(":00:00,", ":30:00,")  # data row 4998 is line 5000
    sparse = sparse_rows(berlin_year_csv(2016))
    new_york = utc_stamped_rows(2016, "America/New_York")
    kiritimati = utc_stamped_rows(2016, "Pacific/Kiritimati")
    for name, body in (("alternate_2016.csv", alternate), ("zulu_2016.csv", zulu),
                       ("overflow_2016.csv", overflow),
                       ("half_hour_2016.csv", rows),
                       ("berlin_sparse_2016.csv", sparse), ("new_york_utc_2016.csv", new_york),
                       ("kiritimati_utc_2016.csv", kiritimati),
                       ("hour_ending_2015.csv", hour_ending_rows(2015))):
        (work / name).write_text("\n".join(["timestamp,price", *body]) + "\n", encoding="utf-8")


def stream(text: str) -> str:
    if len(text) <= STREAM_LIMIT:
        return text
    return "sha256:" + hashlib.sha256(text.encode("utf-8")).hexdigest()


def run(argv: list[str], work: Path, env: dict) -> dict:
    done = subprocess.run(
        [sys.executable, "-m", "spotvol.cli", *argv], cwd=work, env=env,
        capture_output=True, encoding="utf-8",
    )
    return {"argv": argv, "exit": done.returncode,
            "stdout": stream(done.stdout), "stderr": stream(done.stderr)}


def manifest(src: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    environment = json.loads(subprocess.run(
        [sys.executable, "-c", ENVIRONMENT],
        env=env, capture_output=True, encoding="utf-8", check=True,
    ).stdout)
    where = environment.pop("spotvol")
    if not Path(where).resolve().is_relative_to(src):
        raise SystemExit(f"spotvol was imported from {where}, not from {src}")
    with tempfile.TemporaryDirectory(prefix="cli-bytes-") as tmp:
        work = Path(tmp)
        write_inputs(work)
        commands = []
        for argv in COMMANDS:
            if argv[0] == "report" and argv[1] in COPIES:
                source, edit = COPIES[argv[1]]
                shutil.copytree(work / source, work / argv[1])
                edit(work / argv[1])
            commands.append(run(argv, work, env))
        left = [path.relative_to(work).as_posix() for path in sorted(work.rglob(".staging-*"))]
        if left:
            raise SystemExit(f"staging directories left behind: {', '.join(left)}")
        files = {
            path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.rglob("*")) if path.is_file()
        }
    return {"environment": environment, "commands": commands, "files": files}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, type=Path, help="the tree's src directory")
    parser.add_argument("--out", required=True, type=Path, help="manifest JSON to write")
    args = parser.parse_args(argv)
    doc = manifest(args.src.resolve())
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    exits = " ".join(str(c["exit"]) for c in doc["commands"])
    print(f"{len(doc['commands'])} commands (exit codes {exits}), {len(doc['files'])} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
