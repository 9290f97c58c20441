"""Serving — dynamic batching sweep, plus the wall-clock cost of one
fused group through the serving event loop."""

import numpy as np

from repro.bench.experiments import serving_bench
from repro.core import EngineConfig, TextureSearchEngine
from repro.serving import (
    BatchPolicy,
    FusedEngineExecutor,
    build_trace,
    burst_arrivals,
    simulate_serving,
)


def test_serving_sweep(bench_sweep):
    result = bench_sweep(serving_bench)
    # the acceptance bar: batching must strictly beat per-query serving
    # once four queries contend for the device
    assert result.summary["fused_speedup_at_conc4"] > 1.0


def test_serving_loop_kernel(benchmark):
    """Wall-clock of the event loop driving fused groups end to end."""
    rng = np.random.default_rng(0)
    cfg = EngineConfig(m=32, n=32, batch_size=4, min_matches=5, scale_factor=0.25)
    engine = TextureSearchEngine(cfg)
    descs = []
    for i in range(8):
        d = rng.random((cfg.d, cfg.n)).astype(np.float32)
        descs.append(d / np.linalg.norm(d, axis=0, keepdims=True) * 512)
        engine.add_reference(f"r{i}", descs[i])
    queries = [
        np.abs(descs[i % 8] + rng.normal(0, 3, descs[0].shape)).astype(np.float32)
        for i in range(16)
    ]
    trace = build_trace(burst_arrivals(4, 4, 1_000.0), queries)
    executor = FusedEngineExecutor(engine)
    policy = BatchPolicy(max_batch=4, max_wait_us=2_000.0)

    report = benchmark(simulate_serving, executor, trace, policy)
    assert report.n_requests == 16
    assert report.mean_group_size == 4.0
