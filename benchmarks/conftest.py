"""Shared helpers for the benchmark harness.

Each ``bench_*.py`` file regenerates one table/figure of the paper: it
runs the corresponding experiment (printing the table and writing it to
``benchmarks/results/``) and benchmarks a representative *real* kernel
with pytest-benchmark (wall-clock of our NumPy implementation — the
simulated-time rows come from the experiment output).

Set ``REPRO_BENCH_QUICK=1`` to skip the functional accuracy sweeps
(Tables 2 and 7 accuracy columns), which dominate runtime.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

RESULTS_DIR = Path(__file__).parent / "results"

QUICK = os.environ.get("REPRO_BENCH_QUICK", "0") == "1"


def record_result(result) -> str:
    """Print an ExperimentResult and persist it under results/."""
    text = result.to_text()
    RESULTS_DIR.mkdir(exist_ok=True)
    head = result.name.split(":", 1)[0].strip()
    if head.lower() == "ablation":
        # keep the ablation subject so files don't collide
        head = "ablation " + result.name.split(":", 1)[1].split("(")[0].split(",")[0].strip()
    slug = "".join(c if c.isalnum() or c == " " else "" for c in head.lower())
    slug = "_".join(slug.split())[:60]
    (RESULTS_DIR / f"{slug}.txt").write_text(text + "\n")
    print("\n" + text)
    return text


def attach_summary(benchmark, result) -> None:
    """Expose experiment findings in the pytest-benchmark JSON."""
    for key, value in result.summary.items():
        benchmark.extra_info[str(key)] = (
            float(value) if isinstance(value, (int, float, np.floating)) else str(value)
        )


@pytest.fixture
def bench_sweep(benchmark, tmp_path):
    """Run a ``BENCH_*.json`` experiment in full mode, writing its file to
    the working directory, record its table and summary, and time one
    rerun (``quick=True`` unless other kwargs are given) whose JSON goes
    under ``tmp_path`` so it cannot overwrite the full-mode file."""

    def sweep(module, **rerun_kwargs):
        result = module.run()
        record_result(result)
        attach_summary(benchmark, result)
        benchmark.pedantic(
            module.run,
            kwargs=dict(rerun_kwargs or {"quick": True}, json_path=tmp_path / "rerun.json"),
            rounds=1, iterations=1,
        )
        return result

    return sweep


@pytest.fixture(scope="session")
def sift_descriptors():
    """A realistic (d, 768) SIFT descriptor matrix for kernel benches."""
    rng = np.random.default_rng(0)
    desc = rng.gamma(0.6, 1.0, size=(128, 768)).astype(np.float32)
    desc /= np.linalg.norm(desc, axis=0, keepdims=True)
    desc = np.minimum(desc, 0.2)
    desc /= np.linalg.norm(desc, axis=0, keepdims=True)
    return desc * 512.0
