"""Routing — recall vs sweep reduction for two-tier retrieval, plus
the wall-clock cost of one IVF nomination in front of the scatter."""

import numpy as np

from repro.bench.experiments import routing_bench
from repro.bench.experiments.common import make_descriptors, noisy
from repro.routing import RouterPolicy, build_router


def test_routing_sweep(bench_sweep):
    result = bench_sweep(routing_bench)
    # the acceptance bar: >= 5x fewer references swept at >= 0.95
    # recall@1 vs exhaustive on the largest benched corpus ...
    assert result.summary["meets_reduction_bar"] is True
    point = result.summary["best_operating_point"]
    assert point["sweep_reduction_x"] >= routing_bench.MIN_REDUCTION
    assert point["recall_at_1_vs_exhaustive"] >= routing_bench.MIN_RECALL
    # ... and probing every list degenerates to the exhaustive path
    # bit-for-bit (routing never forks the search results)
    assert result.summary["router_off_bit_identical_at_full_probe"] is True


def test_nomination_kernel(benchmark):
    """Wall-clock of one IVF nomination over a 480-image corpus."""
    rng = np.random.default_rng(0)
    router = build_router(RouterPolicy(kind="ivf", n_lists=48, seed=0))
    descs = [make_descriptors(rng, count=32) for _ in range(480)]
    for i, desc in enumerate(descs):
        router.add(f"r{i:04d}", desc, f"node-{i % 6}")
    router.fit()
    query = noisy(rng, descs[7])

    decision = benchmark(lambda: router.nominate(query, nprobe=1))
    assert not decision.exhaustive
    assert "r0007" in decision.candidate_ids
