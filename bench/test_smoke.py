"""Smoke test of the benchmark itself: every workload at minimal length.

Run from the repository root (about two minutes on two cores):

    python -m pytest bench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ARGS = ["--seed", "0", "--seconds", "1"]

# Corrupts one cell of every calendarized grid before the benchmark sees it.
CORRUPT = f"""
import sys
sys.path[:0] = [{str(ROOT / "src")!r}, {str(HERE)!r}]
import spotvol, spotvol.ingest, spotvol.pipeline
real = spotvol.ingest.calendarize
def corrupt(*args, **kwargs):
    matrix = real(*args, **kwargs)
    matrix.values[5, 40] += 1.0
    return matrix
for module in (spotvol, spotvol.ingest, spotvol.pipeline):
    module.calendarize = corrupt
import run
sys.exit(run.main(sys.argv[1:]))
"""


def result_of(cmd) -> dict:
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    result = result_of([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        *ARGS, "--trace", str(trace)])
    declared = SPEC["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["correct"] and result["failed"] == 0


def test_corrupted_output_raises_fail_ratio():
    result = result_of([sys.executable, "-c", CORRUPT, "--workload", "ingest_long",
                        *ARGS, "--trace", "1"])
    assert result["metrics"]["fail_ratio"]["value"] > 0
    assert result["failed"] > 0 and not result["correct"]
