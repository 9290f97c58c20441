"""Tests of the benchmark itself.  Each runs the benchmark command in a
subprocess, as a user would, from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
#: every workload run.py offers, including any BENCHMARK.json leaves out
WORKLOADS = list(json.loads((HERE / "spec.json").read_text())["workloads"])

_runs: dict[tuple[str, int, int], tuple[dict, list[str]]] = {}


def run(workload: str, seed: int, trace: int):
    """Run the benchmark once (shortest window) and return the parsed
    last line plus every line of standard output."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines


def cached_run(workload: str, seed: int, trace: int):
    key = (workload, seed, trace)
    if key not in _runs:
        _runs[key] = run(workload, seed, trace)
    return _runs[key]


def digest(lines: list[str], key: str = "sim_digest") -> str:
    [line] = [x for x in lines if x.startswith(key + "=")]
    return line.split("=", 1)[1]


def check_result(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(workload):
    result, _ = cached_run(workload, 3, 0)
    check_result(result, BENCHMARK["end_to_end"])
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0, m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload):
    result, lines = cached_run(workload, 3, 1)
    check_result(result, BENCHMARK["per_layer"])
    # the traced run already requires its untraced twin to match;
    # it must also match the separate untraced invocation
    assert digest(lines) == digest(cached_run(workload, 3, 0)[1])


def test_sim_outputs_repeat_for_one_seed():
    workload = "fused-exhaustive"  # the one with several phases
    first, first_lines = cached_run(workload, 3, 0)
    again, again_lines = run(workload, 3, 0)
    for key in ("sim_digest", "sim_digest_all_phases"):
        assert digest(first_lines, key) == digest(again_lines, key)
    for name, m in first["metrics"].items():
        if name.startswith("sim_") or name == "top1_accuracy":
            assert again["metrics"][name] == m, name


def test_fails_without_the_program(tmp_path):
    """Given only BENCHMARK.json and the benchmark's own files, the
    command exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
