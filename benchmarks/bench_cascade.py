"""Cascade prefilter — GEMM-pair reduction at verdict parity, plus
the wall-clock cost of one Hamming prefilter pass over a batch."""

import numpy as np

from repro.bench.experiments import cascade_bench
from repro.bench.experiments.common import make_descriptors, noisy
from repro.core.cascade import CascadeKernel
from repro.core.config import EngineConfig
from repro.core.engine import TextureSearchEngine


def test_cascade_sweep(bench_sweep):
    result = bench_sweep(cascade_bench)
    # the acceptance bar: at default knobs on the largest corpus, the
    # verdicts are bit-equal to algorithm1 while >= 3x fewer descriptor
    # pairs reach the exact GEMM (prune cost charged, not free)
    assert result.summary["meets_reduction_bar"] is True
    point = result.summary["default_knobs_operating_point"]
    assert point["verdict_parity_vs_algorithm1"] is True
    assert point["gemm_pair_reduction_x"] >= cascade_bench.MIN_PAIR_REDUCTION
    assert point["cost_reduction_x"] >= cascade_bench.MIN_PAIR_REDUCTION


def test_prefilter_wallclock(benchmark):
    """Host wall-clock of one coarse-to-fine prune over a full sweep."""
    rng = np.random.default_rng(0)
    config = EngineConfig(
        m=48, n=48, batch_size=4, min_matches=5,
        backend="cascade", precision="fp32",
    )
    engine = TextureSearchEngine(config, kernel=CascadeKernel(config))
    descs = [make_descriptors(rng, count=48) for _ in range(96)]
    for i, desc in enumerate(descs):
        engine.add_reference(f"r{i:04d}", desc)
    engine.flush()
    query = noisy(rng, descs[7])

    result = benchmark(lambda: engine.search(query))
    assert result.best().reference_id == "r0007"
    assert result.cascade_pruned >= 90
