"""Shared corpus recipes and BENCH-file writer for the experiments.

The seeded experiments draw their references and queries from the same
two recipes, and every ``BENCH_*.json`` is written the same way (sorted
keys, two-space indent, trailing newline), so regenerating a file is a
byte-exact diff.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ...core.config import EngineConfig
from ..tables import ExperimentResult

__all__ = ["make_descriptors", "make_workload", "noisy", "write_bench"]


def make_descriptors(rng: np.random.Generator, count: int = 32, d: int = 128) -> np.ndarray:
    """A ``(d, count)`` SIFT-like descriptor matrix (clipped, norm 512)."""
    desc = rng.gamma(0.6, 1.0, size=(d, count)).astype(np.float32)
    desc /= np.linalg.norm(desc, axis=0, keepdims=True)
    desc = np.minimum(desc, 0.2)
    desc /= np.linalg.norm(desc, axis=0, keepdims=True)
    return (desc * 512.0).astype(np.float32)


def noisy(rng: np.random.Generator, desc: np.ndarray, sigma: float = 8.0) -> np.ndarray:
    """A query capture of ``desc``: Gaussian noise, clipped, renormalised."""
    out = np.maximum(desc + rng.normal(0, sigma, desc.shape).astype(np.float32), 0)
    norms = np.maximum(np.linalg.norm(out, axis=0, keepdims=True), 1e-9)
    return (out / norms * 512.0).astype(np.float32)


def make_workload(
    seed: int, n_refs: int, n_queries: int, config: EngineConfig
) -> tuple[dict[str, np.ndarray], list[np.ndarray]]:
    """``n_refs`` references ``r0..`` and ``n_queries`` noisy captures of
    uniformly drawn references, all from one ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    refs = {f"r{i}": make_descriptors(rng, count=config.n, d=config.d)
            for i in range(n_refs)}
    ref_list = list(refs.values())
    queries = [
        noisy(rng, ref_list[int(rng.integers(0, n_refs))])
        for _ in range(n_queries)
    ]
    return refs, queries


def write_bench(
    json_path: str | Path,
    payload: dict,
    result: ExperimentResult,
    label: str = "full grid",
) -> None:
    """Write ``payload`` to ``json_path`` and note where it went."""
    Path(json_path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    result.notes.append(f"{label} written to {json_path}")
