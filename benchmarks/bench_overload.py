"""Overload — goodput plateau under admission control, plus the
wall-clock cost of the protected serving loop at 4x offered load."""

import numpy as np

from repro.bench.experiments import overload_bench
from repro.core import EngineConfig, TextureSearchEngine
from repro.serving import (
    BatchPolicy,
    FusedEngineExecutor,
    build_trace,
    poisson_arrivals,
    simulate_serving,
)


def test_overload_sweep(bench_sweep):
    result = bench_sweep(overload_bench)
    # the acceptance bar: goodput under admission control must plateau
    # (within 10% of its peak) at 4x offered capacity, not collapse
    assert result.summary["goodput_plateaus"] is True
    assert result.summary["goodput_plateau_ratio"] >= 0.9
    # ... while the unprotected baseline's p99 keeps growing
    assert result.summary["unprotected_p99_growth_x"] > 1.5


def test_protected_loop_kernel(benchmark):
    """Wall-clock of the bounded-queue loop shedding at 4x capacity."""
    rng = np.random.default_rng(0)
    cfg = EngineConfig(m=32, n=32, batch_size=4, min_matches=5, scale_factor=0.25)
    engine = TextureSearchEngine(cfg)
    descs = []
    for i in range(8):
        d = rng.random((cfg.d, cfg.n)).astype(np.float32)
        descs.append(d / np.linalg.norm(d, axis=0, keepdims=True) * 512)
        engine.add_reference(f"r{i}", descs[-1])
    executor = FusedEngineExecutor(engine)
    queries = [descs[i % len(descs)] for i in range(64)]
    _, group_us = executor.execute(queries[:8])
    rate = 8 / group_us * 1e6 * 4.0  # 4x calibrated capacity
    arrivals = poisson_arrivals(len(queries), rate, seed=0)
    policy = BatchPolicy(max_batch=8, max_queue_depth=16, shed="reject-new")

    def loop():
        trace = build_trace(arrivals, queries, deadline_us=4.0 * group_us)
        return simulate_serving(executor, trace, policy)

    report = benchmark(loop)
    assert report.n_offered == len(queries)
    assert report.n_rejected > 0  # 4x load must shed something
