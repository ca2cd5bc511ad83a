"""The byte guarantee: the CLI harness (tools/cli_bytes.py) run on this tree
gives the committed manifest, file for file and stream for stream."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import spotvol as sv

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "cli_manifest.json"
REGENERATE = "python tools/cli_bytes.py --src src --out tests/golden/cli_manifest.json"


def first_difference(golden: dict, fresh: dict) -> str | None:
    """The first thing two manifests disagree on, the environment before any
    command or file; None when they are equal."""
    envs = golden["environment"], fresh["environment"]
    changed = {key: (envs[0].get(key), envs[1].get(key))
               for key in sorted(envs[0].keys() | envs[1].keys())
               if envs[0].get(key) != envs[1].get(key)}
    if changed:
        return (f"the environment differs (golden, here): {changed}; bytes are only"
                f" comparable in the golden environment, regenerate with: {REGENERATE}")
    commands = golden["commands"], fresh["commands"]
    for old, new in zip(*commands):
        if old != new:
            return f"command {old['argv']} differs: {old} != {new}"
    if len(commands[0]) != len(commands[1]):
        return f"{len(commands[0])} commands in the golden manifest, {len(commands[1])} here"
    files = golden["files"], fresh["files"]
    for path in sorted(files[0].keys() | files[1].keys()):
        if files[0].get(path) != files[1].get(path):
            return f"file {path} differs: {files[0].get(path)} != {files[1].get(path)}"
    return None


def test_cli_outputs_match_the_golden_manifest(tmp_path):
    fresh = tmp_path / "manifest.json"
    src = Path(sv.__file__).resolve().parents[1]
    subprocess.run([sys.executable, str(ROOT / "tools" / "cli_bytes.py"), "--src", str(src),
                    "--out", str(fresh)], check=True, capture_output=True)
    difference = first_difference(json.loads(GOLDEN.read_text(encoding="utf-8")),
                                  json.loads(fresh.read_text(encoding="utf-8")))
    if difference is not None:
        pytest.fail(difference)


def test_first_difference_names_what_differs():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert first_difference(golden, golden) is None
    edited = json.loads(json.dumps(golden))
    edited["environment"]["numpy"] = "0.0"
    assert first_difference(golden, edited).startswith(
        f"the environment differs (golden, here): {{'numpy': ({golden['environment']['numpy']!r},"
        " '0.0')}")
    assert REGENERATE in first_difference(golden, edited)
    edited = json.loads(json.dumps(golden))
    edited["environment"]["blas_core"] = "Haswell"
    assert first_difference(golden, edited).startswith(
        "the environment differs (golden, here):"
        f" {{'blas_core': ({golden['environment']['blas_core']!r}, 'Haswell')}}")
    edited = json.loads(json.dumps(golden))
    edited["commands"][5]["stdout"] += "x"
    assert first_difference(golden, edited).startswith(f"command {golden['commands'][5]['argv']}")
    edited = json.loads(json.dumps(golden))
    path = sorted(edited["files"])[7]
    edited["files"][path] = "0" * 64
    assert first_difference(golden, edited).startswith(f"file {path} differs")
    del edited["commands"][-1]
    assert first_difference(golden, edited).startswith(
        f"{len(golden['commands'])} commands in the golden manifest")
