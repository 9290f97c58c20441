"""Elastic — static vs autoscaled fleets on a seeded diurnal trace,
plus the flash-crowd reaction and the mid-stream replica kill."""

from repro.bench.experiments import elastic_bench


def test_elastic_fleets(bench_sweep):
    result = bench_sweep(elastic_bench)
    # the acceptance bar: the autoscaled fleet holds goodput within 5%
    # of the peak-sized static fleet at strictly fewer node-seconds ...
    assert result.summary["elastic_within_5pct_of_peak"] is True
    assert result.summary["elastic_cheaper_than_peak"] is True
    assert result.summary["node_seconds_saved"] > 0
    # ... the flash crowd pages CRITICAL and the page buys a reaction ...
    assert result.summary["flash_critical_fired"] is True
    # ... killing one replica of an R=2 shard never yields a partial ...
    assert result.summary["replica_kill_zero_partials"] is True
    # ... and the whole timeline replays byte-identically
    assert result.summary["deterministic_replay"] is True
