#!/usr/bin/env python3
"""spotvol benchmark: seeded workloads, checked outputs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Workloads (every input is synthetic, generated from the seed with
spotvol.generate; the program receives only the written files or the
calendarized matrices):

  ingest_long    ingest-check (parse_price_csv + calendarize, CLI defaults
                 but --zone UTC for the UTC files) over six long-format
                 years: three UTC files with offset
                 stamps as ``spotvol synth`` writes them, three Berlin
                 files with naive wall-clock stamps, both DST transitions
                 and planted holes within the gap limit.  Ingest does
                 nearly all the work; lowrank, seasonality and reports
                 none.  ingest-check has no jobs setting, so its batch
                 runs the six checks one after another at either jobs
                 value (threaded ingest runs inside trend_11y).
  year_analysis  analyze_trend, default RunConfig (rank 2, 1000
                 permutations, files written), over six in-memory
                 DayMatrix years, half with flat noise and half with
                 u-shaped seasonal noise.  Ingest is bypassed and the
                 permutation test dominates.
  trend_11y      analyze_trend over eleven wide-format Berlin files
                 (2006-2016: leap years, DST rows, sparse empty cells)
                 with a planted linear trend in the noise scale, then
                 assemble_report over the written year reports.

Each iteration of the measured loop runs the workload's batch at
jobs = nproc, then at jobs = 1 (its per-year calls give the year_s
samples), then assemble_report where the workload has one, then checks
every output.  Iterations repeat until the next one would overrun
--seconds; at least one runs.

End-to-end metrics (--trace 0); the times are wall times scaled to a
reference machine speed by a calibration kernel timed around every call
(see Clock), the raw ones are in the record line:
  setup_s        median wall time of a fresh interpreter running
                 ``import spotvol`` (SETUP_REPEATS processes)
  year_s.p50     median wall time of one year's operation at jobs = 1
  year_s.tail    the sample with exactly TAIL_BEYOND samples above it
                 (percentile and count are in the record line)
  trend_s        median wall time of the batch at jobs = nproc
  trend_s.jobs1  median wall time of the same batch at jobs = 1
  peak_rss_mb    peak resident memory of this process plus that of its
                 largest child

Failures: every operation (a year, a batch, an assembly, and in the
traced run each span-coverage and self-time check) counts once in
``attempted``; one that raises or fails a check counts in ``failed``, so
failed / attempted is the fail ratio.  It is zero on correct code, which
rules it out as a bounded end-to-end metric, so the traced run prints it
as the per-layer ``fail_ratio``.

The traced run (--trace 1) wraps the layer functions from outside (see
tracing.py) and reports per-layer metrics: self times and counts per
analysed year of the jobs = 1 batches, executor figures of the
jobs = nproc batches, import times from ``python -X importtime``, and
trace.overhead_s, the traced minus an untraced jobs = nproc batch run in
the same iterations.  Span times are raw wall times.  The spans are
written to .bench_out/.

The second-to-last stdout line is a JSON record with the environment,
the inputs, every sample, output digests and the check results; the last
line is the result object.  Exit code 0 on a completed run (failed
checks included), 2 when the spotvol sources are missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager, nullcontext
from datetime import datetime, timedelta
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread per Python thread: with jobs = NPROC executor threads the
# process never runs more than NPROC compute threads.  Set before numpy loads.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_REPEATS = 3
# The calibration kernel's time at the reference speed (a quiet 2-core
# x86-64 machine); end-to-end times are reported at that speed.
CAL_REF_S = 0.02
CAL_REPEATS = 3
IMPORTTIME_REPEATS = 3
TAIL_BEYOND = 10
IMPORT_MODULES = [
    "spotvol", "numpy",
    "spotvol.errors", "spotvol.ingest", "spotvol.lowrank", "spotvol.pipeline",
    "spotvol.reports", "spotvol.residual_stats", "spotvol.seasonality",
    "spotvol.synth", "spotvol.trend",
]
MU = 3.0
# Over 240 synthetic years one year's mu_hat / planted - 1 had mean -1.5%
# (rank-2 truncation absorbs a little noise) and sd 1.1%: the band is six sd.
MU_BAND = 0.08
# Eleven years of planted scale 3.0 - 0.08 (year - 2011); over 12 seeds the
# fitted slope had sd 0.003 around the planted one: the band is five sd.
TREND_SLOPE = -0.08
SLOPE_BAND = 0.015
SEASONAL_BETA = 1.0

sv = None  # spotvol, imported by main() once the BLAS environment is pinned
inputs = None
tracing = None


def derive_seed(seed: int, *parts: int) -> int:
    import numpy as np

    return int(np.random.SeedSequence([seed, *parts]).generate_state(1)[0])


@contextmanager
def timing(module, attr: str, samples: list):
    """Append the wall time of every call to module.attr to samples."""
    original = getattr(module, attr)

    def timed(*args, **kwargs):
        t0 = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            samples.append(perf_counter() - t0)

    setattr(module, attr, timed)
    try:
        yield
    finally:
        setattr(module, attr, original)


def dir_digest(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems[: 20 - len(self.problems)])


class Workload:
    """A set of year inputs and the multi-year call that processes them."""

    name = ""
    assembles = False

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.digests: dict[str, str] = {}
        self.years_failed = 0

    def same_as_before(self, key: str, digest: str) -> list[str]:
        first = self.digests.setdefault(key, digest)
        return [] if first == digest else [f"{key} output differs from the first batch"]


class IngestLong(Workload):
    name = "ingest_long"
    years = [2011, 2012, 2013, 2014, 2015, 2016]

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.files = []
        for i, year in enumerate(self.years):
            path = work / f"prices_{year}.csv"
            write = inputs.write_utc_long if i % 2 == 0 else inputs.write_berlin_long
            self.files.append(write(path, year, MU, derive_seed(seed, i)))
        self.inputs = {"years": self.years, "utc_share": 0.5, "berlin_share": 0.5,
                       "planted_holes": sum(f.manifest["gap_hours_filled"] for f in self.files)}

    @staticmethod
    def ingest_check(f):
        try:
            return sv.calendarize(sv.parse_price_csv(f.path, zone=f.zone))
        except sv.SpotvolError as exc:
            return exc

    def warm(self):
        self.ingest_check(self.files[0])

    def batch(self, jobs, year_times):
        # ingest-check takes no jobs setting: at any jobs value the checks
        # run one after another
        out = []
        for f in self.files:
            t0 = perf_counter()
            out.append(self.ingest_check(f))
            year_times.append(perf_counter() - t0)
        return out

    def check(self, jobs, out, tally):
        h = hashlib.sha256()
        for f, m in zip(self.files, out):
            if isinstance(m, Exception):
                tally.op([f"{f.path.name}: {type(m).__name__}: {m}"])
                continue
            tally.op(check_grid(f, m))
            h.update(json.dumps(m.manifest, sort_keys=True).encode())
            h.update(m.values.tobytes() + m.imputed.tobytes())
        tally.op(self.same_as_before("ingest", h.hexdigest()))


def check_grid(f, m) -> list[str]:
    """The calendarized grid against the planted one: observed cells exact at
    the CSV's 6-decimal precision, filled cells to 1e-9, manifest counts equal."""
    name = f.path.name
    problems = []
    if m.values.shape != f.expected.shape:
        return [f"{name}: grid shape {m.values.shape} != {f.expected.shape}"]
    if not (m.imputed == f.imputed).all():
        problems.append(f"{name}: imputed mask differs in {(m.imputed != f.imputed).sum()} cells")
    observed = ~f.imputed
    if not (m.values[observed] == f.expected[observed]).all():
        problems.append(f"{name}: observed cells differ from the planted prices")
    if abs(m.values[f.imputed] - f.expected[f.imputed]).max(initial=0.0) > 1e-9:
        problems.append(f"{name}: filled cells differ from linear interpolation")
    for key, want in f.manifest.items():
        if m.manifest.get(key) != want:
            problems.append(f"{name}: manifest {key} = {m.manifest.get(key)}, planted {want}")
    return problems


class TrendWorkload(Workload):
    """Workloads whose batch is one analyze_trend call over ``items()``
    with ``config(jobs, out_dir)``; subclasses check each year report."""

    def out_dir(self, tag) -> Path:
        out = self.work / f"out_{tag}"
        shutil.rmtree(out, ignore_errors=True)
        return out

    def warm(self):
        sv.analyze_year(self.config(1, self.out_dir("warm")), self.items()[0])

    def batch(self, jobs, year_times):
        config = self.config(jobs, self.out_dir(f"jobs{jobs}"))
        with timing(sv.pipeline, "analyze_year", year_times) if jobs == 1 else nullcontext():
            try:
                return sv.analyze_trend(config, self.items())
            except sv.SpotvolError as exc:
                return exc

    def check_trend(self, combined, out_dir) -> list[str]:
        return []

    def check(self, jobs, out, tally):
        out_dir = self.work / f"out_jobs{jobs}"
        if isinstance(out, Exception):
            tally.op([f"analyze_trend jobs={jobs}: {type(out).__name__}: {out}"])
            return
        self.years_failed += len(out["errors"])
        for err in out["errors"]:
            tally.op([f"{err['input']}: {err['error']}: {err['message']}"])
        for year in out["years"]:
            report = json.loads((out_dir / f"year_{year}.json").read_text(encoding="utf-8"))
            tally.op(self.check_year(year, report))
        tally.op(self.check_trend(out, out_dir) + self.same_as_before("reports", dir_digest(out_dir)))


class YearAnalysis(TrendWorkload):
    name = "year_analysis"
    years = [2011, 2012, 2013, 2014, 2015, 2016]

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.matrices, self.planted = [], {}
        for i, year in enumerate(self.years):
            beta = SEASONAL_BETA if i % 2 else None
            matrix, planted = inputs.day_matrix(year, MU, derive_seed(seed, i), beta)
            self.matrices.append(matrix)
            self.planted[year] = planted
        self.p_values = {}
        self.inputs = {"years": self.years, "null_share": 0.5, "seasonal_share": 0.5,
                       "seasonal_beta": SEASONAL_BETA,
                       "planted_trimmed_mean": {str(y): v for y, v in self.planted.items()}}

    def config(self, jobs, out):
        return sv.RunConfig(jobs=jobs, out_dir=out)

    def items(self):
        return self.matrices

    def check_year(self, year, report):
        mu_hat, planted = report["residuals"]["mu_hat"], self.planted[year]
        self.p_values[str(year)] = report["seasonality"]["p_value"]
        if abs(mu_hat / planted - 1.0) > MU_BAND:
            return [f"{year}: mu_hat {mu_hat:.4f} outside {MU_BAND:.0%} of planted {planted:.4f}"]
        return []


class Trend11y(TrendWorkload):
    name = "trend_11y"
    assembles = True
    years = list(range(2006, 2017))

    def __init__(self, seed, work):
        super().__init__(seed, work)
        self.files = {}
        for i, year in enumerate(self.years):
            path = work / f"prices_{year}.csv"
            mu = MU + TREND_SLOPE * (year - 2011)
            self.files[year] = inputs.write_berlin_wide(path, year, mu, derive_seed(seed, i))
        # the trimmed mean is linear in the noise scale
        self.planted_slope = TREND_SLOPE * inputs.planted_trimmed_mean(1.0, [1.0])
        self.inputs = {"years": self.years, "planted_slope": self.planted_slope,
                       "empty_cells": sum(f.manifest["n_imputed"] for f in self.files.values())}

    def config(self, jobs, out):
        return sv.RunConfig(jobs=jobs, out_dir=out, input_format="wide", zone="Europe/Berlin")

    def items(self):
        return [self.files[y].path for y in self.years]

    def check_year(self, year, report):
        return [f"{year}: manifest {key} = {report['manifest'].get(key)}, planted {want}"
                for key, want in self.files[year].manifest.items()
                if report["manifest"].get(key) != want]

    def check_trend(self, combined, out_dir):
        """Slope within the band; trend.json byte-identical at jobs=1, at
        jobs=nproc and after assemble_report, in every iteration."""
        problems = []
        slope = combined["trend"]["slope"]
        if abs(slope - self.planted_slope) > SLOPE_BAND:
            problems.append(f"slope {slope:.4f} outside {SLOPE_BAND} of planted {self.planted_slope:.4f}")
        digest = hashlib.sha256((out_dir / "trend.json").read_bytes()).hexdigest()
        return problems + self.same_as_before("trend.json", digest)

    def assemble(self):
        config = sv.RunConfig(out_dir=self.out_dir("assembled"))
        try:
            return sv.assemble_report(config, self.work / "out_jobs1")
        except sv.SpotvolError as exc:
            return exc

    def check_assemble(self, out, tally):
        if isinstance(out, Exception):
            tally.op([f"assemble_report: {type(out).__name__}: {out}"])
        else:
            tally.op(self.check_trend(out, self.work / "out_assembled"))


WORKLOADS = {w.name: w for w in (IngestLong, YearAnalysis, Trend11y)}


# --- measurement ------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def setup_times(repeats: int, clock: "Clock") -> tuple[list[float], list[float]]:
    """Scaled and raw wall times of fresh interpreters that only import
    spotvol."""
    scaled, raw = [], []
    for _ in range(repeats):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import spotvol"], env=child_env(), cwd=ROOT,
                       check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        raw.append(perf_counter() - t0)
        scaled.append(raw[-1] * clock.scale())
    return scaled, raw


def import_times(repeats: int) -> dict[str, float]:
    """Median cumulative import time per module from ``python -X importtime``."""
    runs: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spotvol"],
                              env=child_env(), cwd=ROOT, check=True, text=True,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        seen = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[0].startswith("import time:") and parts[1].strip().isdigit():
                seen[parts[2].strip()] = int(parts[1]) / 1e6
        for m in IMPORT_MODULES:
            runs[m].append(seen.get(m, 0.0))
    return {m: statistics.median(v) for m, v in runs.items()}


class Clock:
    """Scales wall times to a reference machine speed.

    Other tenants of a shared machine slow it by up to a half for seconds
    to minutes at a time, which moves the medians of whole runs by more
    than the bounds.  A calibration point is the median of CAL_REPEATS
    runs of a fixed kernel shaped like the program's work (ISO timestamp
    and price parsing, year-long shuffles, float formatting); one is taken
    after every timed call, and the call's wall time is multiplied by
    CAL_REF_S over the mean of the points just before and after it, so a
    slowdown that hits the kernel and the call alike cancels.  The kernel
    runs between calls, so work the program leaves running in the
    background would slow it and hide that cost; raw wall times are kept
    in the record.
    """

    def __init__(self):
        import numpy as np

        start = datetime(2016, 1, 1)
        self._stamps = [(start + timedelta(hours=i)).isoformat() + "+01:00" for i in range(4000)]
        self._prices = [f"{30 + i % 97 * 0.37:.6f}" for i in range(4000)]
        self._hours = np.random.default_rng(0).random(8784)
        self.points = [self._point()]

    def _kernel(self) -> float:
        import numpy as np

        t0 = perf_counter()
        for stamp, price in zip(self._stamps, self._prices):
            datetime.fromisoformat(stamp)
            float(price)
        rng = np.random.default_rng(0)
        for _ in range(40):
            self._hours[rng.permutation(self._hours.size)] @ self._hours
        json.dumps([repr(float(v)) for v in self._hours])
        return perf_counter() - t0

    def _point(self) -> float:
        return statistics.median(self._kernel() for _ in range(CAL_REPEATS))

    def scale(self) -> float:
        """Factor for the call timed since the previous point."""
        self.points.append(self._point())
        return CAL_REF_S / ((self.points[-2] + self.points[-1]) / 2.0)


class Run:
    """Samples of one measured run (scaled, and raw in ``raw``) and the
    root spans of a traced run."""

    def __init__(self):
        self.clock = Clock()
        self.year: list[float] = []
        self.walls: dict[str, list[float]] = {"nproc": [], "jobs1": []}
        self.raw: dict[str, list[float]] = {"year": [], "nproc": [], "jobs1": []}
        self.untraced_nproc: list[float] = []
        self.roots: dict[str, list] = {"nproc": [], "jobs1": [], "assemble": []}
        self.cpu_nproc = 0.0
        self.iterations = 0


def root_span(tracer, key):
    if tracer is None:
        return nullcontext()
    return tracer.span(f"batch:{key}", "bench")


def iteration(w, tally, run, tracer):
    if tracer is not None:
        # untraced reference for the tracing overhead
        t0 = perf_counter()
        out = w.batch(NPROC, [])
        run.untraced_nproc.append((perf_counter() - t0) * run.clock.scale())
        w.check(NPROC, out, tally)
        tracer.install()
    try:
        traced_batches(w, tally, run, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    run.iterations += 1


def traced_batches(w, tally, run, tracer):
    """The batch at jobs = nproc, at jobs = 1, then the assembly; spans
    are recorded when a tracer is installed."""
    for jobs, key in ((NPROC, "nproc"), (1, "jobs1")):
        years: list[float] = []
        cpu0 = time.process_time()
        with root_span(tracer, key) as root:
            t0 = perf_counter()
            out = w.batch(jobs, years)
            wall = perf_counter() - t0
        if jobs == NPROC:
            run.cpu_nproc += time.process_time() - cpu0
        scale = run.clock.scale()
        run.walls[key].append(wall * scale)
        run.raw[key].append(wall)
        if jobs == 1:
            run.year += [y * scale for y in years]
            run.raw["year"] += years
        if root is not None:
            run.roots[key].append(root)
        w.check(jobs, out, tally)
    if w.assembles:
        with root_span(tracer, "assemble") as root:
            out = w.assemble()
        if root is not None:
            run.roots["assemble"].append(root)
        w.check_assemble(out, tally)


def measure(w, seconds, tally, tracer=None) -> Run:
    """Whole iterations until the next one would end after ``seconds``."""
    w.warm()
    run = Run()
    start = perf_counter()
    longest = 0.0
    while True:
        t0 = perf_counter()
        iteration(w, tally, run, tracer)
        now = perf_counter()
        longest = max(longest, now - t0)
        if now + longest > start + seconds:
            return run


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least TAIL_BEYOND samples above it, or the maximum if there are too few."""
    s = sorted(samples)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def end_to_end(run: Run, setup: list[float], setup_raw: list[float], setup_clock: Clock) -> tuple[dict, dict]:
    value, pct, beyond = tail(run.year)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "year_s.p50": (statistics.median(run.year), "s"),
        "year_s.tail": (value, "s"),
        "trend_s": (statistics.median(run.walls["nproc"]), "s"),
        "trend_s.jobs1": (statistics.median(run.walls["jobs1"]), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    detail = {"year_samples": len(run.year), "year_s.tail_percentile": pct,
              "year_s.tail_beyond": beyond, "trend_samples": len(run.walls["nproc"]),
              "samples_s": {"setup_s": setup, "year_s": run.year, "trend_s": run.walls["nproc"],
                            "trend_s.jobs1": run.walls["jobs1"]},
              "raw_wall_s": {"setup_s": setup_raw, "year_s": run.raw["year"],
                             "trend_s": run.raw["nproc"], "trend_s.jobs1": run.raw["jobs1"]},
              "calibration_s": {"setup": setup_clock.points, "measure": run.clock.points}}
    return metrics, detail


def svd_flops(days: int, hours: int = 24) -> int:
    """Golub-Van Loan count for the thin SVD (U, S, V) of an m x n matrix,
    m >= n: 4 m n^2 + 22 n^3."""
    m, n = max(days, hours), min(days, hours)
    return 4 * m * n * n + 22 * n ** 3


def per_layer(w, run: Run, tracer, tally, imports: dict, generate_s: float) -> tuple[dict, dict]:
    """Layer metrics from the spans; checks span coverage and that the
    layer self times of each jobs=1 batch add up to its wall time."""
    kids = tracer.children()
    selfs = tracing.self_times(tracer.spans, kids)
    jobs1 = [sp for root in run.roots["jobs1"] for sp in tracer.subtree(root)]
    n_years = len(w.years) * len(run.roots["jobs1"])

    def total(names, spans=jobs1):
        return sum(selfs[sp.id] for sp in spans if sp.name in names)

    def count(key, spans=jobs1):
        return sum(sp.counts.get(key, 0) for sp in spans)

    def per_call(name, spans):
        calls = [sp for sp in spans if sp.name == name]
        return total({name}, calls) / len(calls) if calls else 0.0

    layers: dict[str, float] = {}
    for sp in jobs1:
        layers[sp.layer] = layers.get(sp.layer, 0.0) + selfs[sp.id] / n_years
    for root in run.roots["jobs1"]:
        summed = sum(selfs[sp.id] for sp in tracer.subtree(root))
        tally.op([] if abs(summed - root.duration) <= 1e-6 * root.duration
                 else [f"layer self times sum to {summed:.6f}s, batch took {root.duration:.6f}s"])
    for key in ("nproc", "jobs1"):
        for root in run.roots[key]:
            tally.op(coverage(w, root, kids))

    trend_calls = [sp for sp in tracer.spans if sp.name == "analyze_trend"]
    nproc_trend = [c for root in run.roots["nproc"] for c in kids.get(root.id, [])
                   if c.name == "analyze_trend"]
    waits, busy, span_wall = [], 0.0, 0.0
    for call in nproc_trend:
        years = [c for c in kids.get(call.id, []) if c.name == "analyze_year"]
        waits += [y.start - call.start for y in years]
        busy += sum(y.duration for y in years)
        span_wall += NPROC * call.duration
    nproc_wall = sum(root.duration for root in run.roots["nproc"])
    parse_s = total({"parse_price_csv"})
    perm_s = total({"permutation_test"})
    assembles = run.roots["assemble"]
    reads = [sp for root in assembles for sp in tracer.subtree(root)]
    writes = {name for _, name, _, _ in tracing.TARGETS if name.startswith("write_")}
    decomposes = [sp for sp in jobs1 if sp.name == "decompose"]
    traced_nproc = statistics.median(run.walls["nproc"])
    traced_jobs1 = statistics.median(run.walls["jobs1"])

    m = {
        "ingest.parse_s": (parse_s / n_years, "s"),
        "ingest.calendarize_s": (total({"calendarize"}) / n_years, "s"),
        "ingest.rows_per_s": (count("rows") / parse_s if parse_s else 0.0, "1/s"),
        "ingest.rows": (count("rows") / n_years, "count"),
        "ingest.cells_imputed": (count("cells_imputed") / n_years, "count"),
        "ingest.dst_filled": (count("dst_filled") / n_years, "count"),
        "ingest.fall_collapsed": (count("fall_collapsed") / n_years, "count"),
        "seasonality.permtest_s": (perm_s / n_years, "s"),
        "seasonality.perm_per_s": (count("permutations") / perm_s if perm_s else 0.0, "1/s"),
        "seasonality.permutations": (count("permutations") / n_years, "count"),
        "lowrank.decompose_s": (total({"decompose"}) / n_years, "s"),
        "lowrank.truncate_s": (total({"truncate"}) / n_years, "s"),
        "lowrank.residual_series_s": (total({"residual_series"}) / n_years, "s"),
        "lowrank.svd_flops": (statistics.mean(svd_flops(sv.days_in_year(y)) for y in w.years)
                              if decomposes else 0, "count"),
        "residual_stats.analyze_s": (total({"analyze_residuals"}) / n_years, "s"),
        "reports.write_s": (total(writes) / n_years, "s"),
        "reports.read_s": (per_call("load_year_report", reads), "s"),
        "reports.files": (count("files") / n_years, "count"),
        "reports.bytes": (count("bytes") / n_years, "count"),
        "trend.fit_s": (per_call("fit_trend", jobs1), "s"),
        "pipeline.year_self_s": (total({"analyze_year"}) / n_years, "s"),
        "pipeline.year_wait_s": (statistics.mean(waits) if waits else 0.0, "s"),
        "pipeline.busy_share": (busy / span_wall if span_wall else 0.0, "ratio"),
        "pipeline.scaling_eff": (traced_jobs1 / (NPROC * traced_nproc) if trend_calls else 0.0, "ratio"),
        "pipeline.cpu_per_wall": (run.cpu_nproc / nproc_wall if trend_calls else 0.0, "ratio"),
        "pipeline.assemble_s": (statistics.mean(r.duration for r in assembles) if assembles else 0.0, "s"),
        "pipeline.years_failed": (w.years_failed, "count"),
        "synth.generate_s": (generate_s, "s"),
        "trace.overhead_s": (traced_nproc - statistics.median(run.untraced_nproc), "s"),
    }
    for module, seconds in imports.items():
        m[f"setup.import_s.{module}"] = (seconds, "s")
    detail = {"layer_self_s_per_year": layers,
              "traced_jobs1_s_per_year": sum(r.duration for r in run.roots["jobs1"]) / n_years,
              "unwrapped": tracer.missing, "spans": len(tracer.spans)}
    return m, detail


def coverage(w, root, kids) -> list[str]:
    """Every year of a traced batch produced exactly one year span, with the
    child spans of each layer the year passes through."""
    if isinstance(w, IngestLong):
        found = [c.year for c in kids.get(root.id, []) if c.name == "calendarize"]
        parsed = [c for c in kids.get(root.id, []) if c.name == "parse_price_csv"]
        if sorted(found) != w.years or len(parsed) != len(w.years):
            return [f"{root.name}: ingest spans for years {sorted(found)}"]
        return []
    calls = [c for c in kids.get(root.id, []) if c.name == "analyze_trend"]
    if len(calls) != 1:
        return [f"{root.name}: {len(calls)} analyze_trend spans"]
    years = [c for c in kids.get(calls[0].id, []) if c.name == "analyze_year"]
    if sorted(y.year for y in years) != w.years:
        return [f"{root.name}: analyze_year spans for years {sorted(y.year for y in years)}"]
    need = {"decompose", "truncate", "residual_series", "analyze_residuals",
            "permutation_test", "write_json"}
    if isinstance(w, Trend11y):
        need |= {"parse_price_csv", "calendarize"}
    problems = []
    for y in years:
        missing = need - {c.name for c in kids.get(y.id, [])}
        if missing:
            problems.append(f"{root.name}: year {y.year} lacks spans {sorted(missing)}")
    return problems


def environment() -> dict:
    import ctypes
    import glob

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = None
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        get = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.restype = ctypes.c_int
            blas_threads = get()
    return {
        "machine": platform.machine(), "processor": platform.processor(),
        "platform": platform.platform(), "nproc": NPROC, "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or blas.get("name"),
        "blas_threads": blas_threads, "thread_env": BLAS_ENV,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    global sv, inputs, tracing
    args = parse_args(argv)
    if not (SRC / "spotvol" / "__init__.py").is_file():
        print(f"error: spotvol sources not found under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    import spotvol

    if Path(spotvol.__file__).resolve().parent != SRC / "spotvol":
        print(f"error: imported spotvol from {spotvol.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import inputs as inputs_module
    import tracing as tracing_module

    sv, inputs, tracing = spotvol, inputs_module, tracing_module

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        tally = Tally()
        generated: list[float] = []
        with timing(sv, "generate", generated):
            w = WORKLOADS[args.workload](args.seed, work)
        generate_s = statistics.mean(generated)
        record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "environment": environment(), "inputs": w.inputs}
        if args.trace:
            imports = import_times(IMPORTTIME_REPEATS)
            tracer = tracing.Tracer()
            run = measure(w, args.seconds, tally, tracer)
            metrics, detail = per_layer(w, run, tracer, tally, imports, generate_s)
            metrics["fail_ratio"] = (tally.failed / tally.attempted, "ratio")
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            spans_path = out / f"spans-{w.name}-seed{args.seed}.jsonl"
            tracer.write(spans_path)
            detail["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            setup_clock = Clock()
            setup, setup_raw = setup_times(SETUP_REPEATS, setup_clock)
            run = measure(w, args.seconds, tally)
            metrics, detail = end_to_end(run, setup, setup_raw, setup_clock)
        if isinstance(w, YearAnalysis):
            detail["p_values"] = w.p_values
        record.update(detail, iterations=run.iterations, digests=w.digests, problems=tally.problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
