"""Enrollment — mixed search+enroll serving under epoched indexes,
plus the host-side cost of one online enrollment into a live cluster."""

import numpy as np

from repro.bench.experiments import enrollment_bench
from repro.bench.experiments.common import make_descriptors
from repro.core.config import EngineConfig
from repro.distributed import DistributedSearchSystem
from repro.routing import RouterPolicy


def test_enrollment_sweep(bench_sweep):
    result = bench_sweep(enrollment_bench)
    # the acceptance bar: at equal offered load, mixing enrollments
    # into the trace degrades search p99 by < 20% vs search-only ...
    assert result.summary["meets_bar"] is True
    assert (
        result.summary["worst_p99_degradation"]
        < enrollment_bench.MAX_P99_DEGRADATION
    )
    # ... and every enrollment is read-your-writes visible: the later
    # probe search returns it with corpus_epoch >= the ack's epoch
    assert result.summary["read_your_writes_recall_min"] == 1.0


def test_enrollment_kernel(benchmark):
    """Wall-clock of one online enrollment (KV write + placement +
    engine add + incremental router absorb) into a live 96-ref cluster."""
    config = EngineConfig(m=32, n=32, batch_size=4, min_matches=5, scale_factor=0.25)
    rng = np.random.default_rng(0)
    system = DistributedSearchSystem(
        n_nodes=4, engine_config=config,
        router_policy=RouterPolicy(kind="ivf", n_lists=12, seed=0),
    )
    for i in range(96):
        system.add(f"r{i:04d}", make_descriptors(rng, count=config.n, d=config.d))
    system.build_router()
    desc = make_descriptors(rng, count=config.n, d=config.d)

    counter = iter(range(10**9))

    def _enroll():
        return system.enroll(f"new{next(counter):06d}", desc)

    ack = benchmark(_enroll)
    assert ack.epoch > 0
    assert system.has(ack.ref_id)
