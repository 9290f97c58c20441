"""Figure 4 — search speed vs. batch size (P100, V100, V100+TC)."""

import numpy as np

from conftest import attach_summary, record_result
from repro.bench.experiments import fig4_batching
from repro.core import knn_algorithm2
from repro.features import rootsift
from repro.gpusim import GPUDevice, TESLA_P100


def test_fig4_series(benchmark):
    result = fig4_batching.run()
    record_result(result)
    attach_summary(benchmark, result)
    benchmark(fig4_batching.run)
    # shape: large speedup from batching, flat past 256, TC on top
    assert 6.0 < result.summary["p100_speedup"] < 10.0
    assert result.summary["tensor_core_gain_at_max_batch"] > 1.15
    p100 = result.column("P100 (img/s)")
    assert p100[-1] / p100[-2] < 1.05


def _batch(batch, m=768, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(batch):
        d = rng.gamma(0.6, 1.0, size=(128, m)).astype(np.float32)
        out.append(rootsift(d) * np.float32(0.25))
    return np.stack(out).astype(np.float16)


def test_algorithm2_kernel_batch16(benchmark):
    """Wall-clock of a real batched Algorithm-2 call (batch 16)."""
    device = GPUDevice(TESLA_P100)
    refs = _batch(16)
    query = refs[:1].copy()  # a group of one query
    benchmark.pedantic(
        knn_algorithm2, args=(device, refs, query),
        kwargs=dict(scale=0.25, precision="fp16"),
        rounds=3, iterations=1,
    )


def test_algorithm2_kernel_batch1(benchmark):
    """Wall-clock of the unbatched Algorithm-2 call, for contrast."""
    device = GPUDevice(TESLA_P100)
    refs = _batch(1)
    query = refs[:1].copy()
    benchmark.pedantic(
        knn_algorithm2, args=(device, refs, query),
        kwargs=dict(scale=0.25, precision="fp16"),
        rounds=5, iterations=1,
    )
