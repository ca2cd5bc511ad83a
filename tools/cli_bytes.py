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
sha256.  The last bits of a float depend on the BLAS build, so compare
manifests made on one machine only.
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
    # a New York year stamped in UTC (covered although no stamp is a wall time)
    ["ingest-check", "berlin_sparse_2016.csv", "--zone", "Europe/Berlin", "--gap-limit", "100000"],
    ["ingest-check", "new_york_utc_2016.csv", "--zone", "America/New_York"],
    # long files that only the row parser takes: "Z" stamps, and a :30 stamp on line 5000
    ["ingest-check", "zulu_2016.csv", *UTC],
    ["ingest-check", "half_hour_2016.csv", *UTC],
    # the wide parser: blank cells, a padded cell and a blank line
    ["ingest-check", "berlin_wide_2016.csv", *WIDE],
    ["analyze-year", "berlin_wide_2016.csv", *WIDE, "--permutations", "200", "--out", "year_wide"],
    ["report", "trend_jobs1", "--out", "report_out"],
    # in place, on a copy of a run with a failed year (made just before)
    ["report", "report_in_place"],
]


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


def write_inputs(work: Path) -> None:
    for year in YEARS:
        (work / f"spec_{year}.json").write_text(json.dumps(spec(year)), encoding="utf-8")
    (work / "malformed.csv").write_text(
        "timestamp,price\n2016-01-01T00:00Z,not_a_number\n", encoding="utf-8"
    )
    (work / "berlin_2016.csv").write_text(berlin_year_csv(2016), encoding="utf-8")
    (work / "berlin_crlf_bom_2016.csv").write_text(
        berlin_year_csv(2016), encoding="utf-8-sig", newline="\r\n"
    )
    (work / "berlin_wide_2016.csv").write_text(berlin_wide_csv(2016), encoding="utf-8")
    rows = utc_year_rows(2016)
    zulu = [row.replace(",", "Z,") for row in rows]
    rows[4998] = rows[4998].replace(":00:00,", ":30:00,")  # data row 4998 is line 5000
    sparse = sparse_rows(berlin_year_csv(2016))
    new_york = utc_stamped_rows(2016, "America/New_York")
    for name, body in (("zulu_2016.csv", zulu), ("half_hour_2016.csv", rows),
                       ("berlin_sparse_2016.csv", sparse), ("new_york_utc_2016.csv", new_york)):
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
    where = subprocess.run(
        [sys.executable, "-c", "import spotvol; print(spotvol.__file__)"],
        env=env, capture_output=True, encoding="utf-8", check=True,
    ).stdout.strip()
    if not Path(where).resolve().is_relative_to(src):
        raise SystemExit(f"spotvol was imported from {where}, not from {src}")
    with tempfile.TemporaryDirectory(prefix="cli-bytes-") as tmp:
        work = Path(tmp)
        write_inputs(work)
        commands = []
        for argv in COMMANDS:
            if argv == ["report", "report_in_place"]:
                shutil.copytree(work / "trend_malformed", work / "report_in_place")
            commands.append(run(argv, work, env))
        files = {
            path.relative_to(work).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(work.rglob("*")) if path.is_file()
        }
    return {"commands": commands, "files": files}


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
