"""Observability — instrumentation overhead on the fused sweep path,
plus the wall-clock cost of the metrics/tracing primitives themselves."""

from repro.bench.experiments import observability
from repro.obs import MetricsRegistry, RequestTracer


def test_observability_overhead(bench_sweep):
    result = bench_sweep(observability, repeats=2)
    # the acceptance bar: full instrumentation must stay under 5%
    # wall-clock overhead on the hot sweep path
    assert result.summary["within_budget"], result.summary


def test_metric_primitives_kernel(benchmark):
    """Raw cost of the instrument sites: one labeled counter inc, one
    histogram observe, one span open/close per iteration."""
    registry = MetricsRegistry()
    tracer = RequestTracer()
    tracer.enable()
    counter = registry.counter("bench_ops_total", "ops", ("kind",))
    child = counter.labels(kind="hit")
    hist = registry.histogram("bench_latency_us", "latency")

    def instrument_once():
        child.inc()
        hist.observe(42.0)
        with tracer.span("bench.op", layer="bench"):
            pass

    benchmark(instrument_once)
    assert counter.labels(kind="hit").value > 0
    assert tracer.spans
