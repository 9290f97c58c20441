"""Dynamic batching serving layer: admission policy, event loop,
determinism, fused-vs-serial throughput, and the REST batch route."""

import json

import numpy as np
import pytest

from tests.conftest import make_descriptors, noisy_copy
from repro.core import EngineConfig, TextureSearchEngine
from repro.errors import ExecutorContractError
from repro.distributed import (
    DistributedSearchSystem,
    FaultInjector,
    Request,
    WebTier,
    build_api,
)
from repro.serving import (
    BatchPolicy,
    ClusterGroupExecutor,
    DynamicBatcher,
    FusedEngineExecutor,
    SerialEngineExecutor,
    ServingRequest,
    WebTierBatchExecutor,
    build_trace,
    burst_arrivals,
    percentile,
    poisson_arrivals,
    simulate_serving,
)

CFG = EngineConfig(m=32, n=32, batch_size=2, min_matches=5, scale_factor=0.25)


def build_engine(n_refs=8, seed=0):
    engine = TextureSearchEngine(CFG)
    descs = [make_descriptors(CFG.n, seed=seed + i) for i in range(n_refs)]
    for i, desc in enumerate(descs):
        engine.add_reference(f"r{i}", desc)
    return engine, descs


def build_cluster(n_nodes=3, n_refs=6, injector=None, **kwargs):
    system = DistributedSearchSystem(n_nodes, CFG, fault_injector=injector, **kwargs)
    descs = [make_descriptors(CFG.n, seed=10 + i) for i in range(n_refs)]
    for i, desc in enumerate(descs):
        system.add(f"r{i}", desc)
    return system, descs


class StubExecutor:
    """Deterministic stand-in: 100us per query in the group, payloads
    echo the query objects."""

    def __init__(self, us_per_query=100.0):
        self.us_per_query = us_per_query
        self.groups = []

    def execute(self, queries):
        self.groups.append(list(queries))
        return list(queries), self.us_per_query * len(queries)


class TestBatchPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError):
            BatchPolicy(max_wait_us=-1.0)

    def test_defaults(self):
        policy = BatchPolicy()
        assert policy.max_batch == 8
        assert policy.max_wait_us == 0.0


class TestDynamicBatcher:
    def test_size_trigger(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=2, max_wait_us=1e9))
        batcher.enqueue(ServingRequest(0, 0.0, "a"))
        assert batcher.trigger(0.0) is None
        batcher.enqueue(ServingRequest(1, 5.0, "b"))
        assert batcher.trigger(5.0) == "size"
        assert [r.query for r in batcher.take()] == ["a", "b"]
        assert len(batcher) == 0

    def test_timeout_trigger(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=100.0))
        batcher.enqueue(ServingRequest(0, 50.0, "a"))
        assert batcher.deadline_us() == 150.0
        assert batcher.trigger(149.0) is None
        assert batcher.trigger(150.0) == "timeout"

    def test_take_caps_at_max_batch(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=3))
        for i in range(5):
            batcher.enqueue(ServingRequest(i, 0.0, i))
        assert [r.request_id for r in batcher.take()] == [0, 1, 2]
        assert len(batcher) == 2

    def test_empty_queue_never_triggers(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=1, max_wait_us=0.0))
        assert batcher.trigger(1e9) is None
        assert batcher.deadline_us() is None

    def test_trigger_exactly_at_deadline(self):
        # the boundary is inclusive: now == oldest arrival + max_wait_us
        # fires, one tick earlier does not
        batcher = DynamicBatcher(BatchPolicy(max_batch=8, max_wait_us=250.0))
        batcher.enqueue(ServingRequest(0, 100.0, "a"))
        deadline = batcher.deadline_us()
        assert deadline == 350.0
        assert batcher.trigger(deadline - 1e-9) is None
        assert batcher.trigger(deadline) == "timeout"

    def test_simultaneous_size_and_timeout_prefers_size(self):
        # queue is full *and* the oldest request's wait has elapsed at
        # the same instant: the size trigger wins the tie
        batcher = DynamicBatcher(BatchPolicy(max_batch=2, max_wait_us=100.0))
        batcher.enqueue(ServingRequest(0, 0.0, "a"))
        batcher.enqueue(ServingRequest(1, 100.0, "b"))
        assert batcher.trigger(100.0) == "size"

    def test_drop_oldest_evicts_the_queue_head(self):
        batcher = DynamicBatcher(BatchPolicy(max_batch=8))
        for i in range(3):
            batcher.enqueue(ServingRequest(i, float(i), i))
        evicted = batcher.drop_oldest()
        assert evicted.request_id == 0
        assert len(batcher) == 2
        assert [r.request_id for r in batcher.take()] == [1, 2]


class TestEventLoop:
    def test_size_bound_groups(self):
        stub = StubExecutor()
        trace = build_trace([0.0, 0.0, 0.0, 0.0], list("abcd"))
        report = simulate_serving(stub, trace, BatchPolicy(max_batch=2, max_wait_us=1e6))
        assert [g.size for g in report.groups] == [2, 2]
        assert all(g.trigger == "size" for g in report.groups)
        # second group waits for the first to release the device
        assert report.groups[1].launched_us == report.groups[0].completed_us

    def test_timeout_bound_group(self):
        stub = StubExecutor()
        trace = build_trace([0.0], ["a"])
        report = simulate_serving(stub, trace, BatchPolicy(max_batch=4, max_wait_us=300.0))
        (group,) = report.groups
        assert group.trigger == "timeout"
        assert group.launched_us == 300.0
        (record,) = report.records
        assert record.queue_wait_us == 300.0
        assert record.execute_us == 100.0
        assert record.latency_us == 400.0

    def test_late_arrivals_join_next_group(self):
        stub = StubExecutor(us_per_query=1_000.0)
        # two arrive immediately; the third arrives while the first
        # group is executing and must ride the next launch.
        trace = build_trace([0.0, 0.0, 500.0], list("abc"))
        report = simulate_serving(stub, trace, BatchPolicy(max_batch=2, max_wait_us=0.0))
        assert [g.request_ids for g in report.groups] == [[0, 1], [2]]
        assert report.groups[1].launched_us == report.groups[0].completed_us

    def test_max_batch_one_is_per_query_serving(self):
        stub = StubExecutor()
        trace = build_trace([0.0, 0.0, 0.0], list("abc"))
        report = simulate_serving(stub, trace, BatchPolicy(max_batch=1, max_wait_us=1e6))
        assert [g.size for g in report.groups] == [1, 1, 1]
        assert report.mean_group_size == 1.0

    def test_wait_zero_launches_immediately(self):
        stub = StubExecutor()
        trace = build_trace([0.0, 5_000.0], ["a", "b"])
        report = simulate_serving(stub, trace, BatchPolicy(max_batch=8, max_wait_us=0.0))
        assert [g.launched_us for g in report.groups] == [0.0, 5_000.0]
        assert all(r.queue_wait_us == 0.0 for r in report.records)

    def test_records_sorted_by_request_id(self):
        stub = StubExecutor()
        trace = build_trace([100.0, 0.0, 50.0], list("abc"))
        report = simulate_serving(stub, trace, BatchPolicy(max_batch=1))
        assert [r.request_id for r in report.records] == [0, 1, 2]

    def test_executor_payload_mismatch_raises(self):
        class Broken:
            def execute(self, queries):
                return [], 1.0

        with pytest.raises(ExecutorContractError, match="payloads"):
            simulate_serving(Broken(), build_trace([0.0], ["a"]), BatchPolicy())

    def test_contract_error_names_executor_and_counts(self):
        class Broken:
            def execute(self, queries):
                return [None] * 3, 1.0

        with pytest.raises(ExecutorContractError) as excinfo:
            simulate_serving(Broken(), build_trace([0.0], ["a"]), BatchPolicy())
        assert excinfo.value.expected == 1
        assert excinfo.value.got == 3
        assert "Broken" in str(excinfo.value)

    def test_empty_trace(self):
        report = simulate_serving(StubExecutor(), [], BatchPolicy())
        assert report.n_requests == 0
        assert report.makespan_us == 0.0
        assert report.latency_percentiles() == {"p50": 0.0, "p95": 0.0, "p99": 0.0}


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 50) == 20.0
        assert percentile(values, 95) == 40.0
        assert percentile([7.0], 99) == 7.0
        with pytest.raises(ValueError):
            percentile(values, 0)

    def test_report_accounting(self):
        stub = StubExecutor()
        trace = build_trace([0.0, 0.0, 0.0, 0.0], list("abcd"))
        report = simulate_serving(stub, trace, BatchPolicy(max_batch=4, max_wait_us=0.0))
        assert report.n_groups == 1
        assert report.fused_occupancy == 1.0
        assert report.trigger_counts == {"size": 1}
        assert report.requests_per_s == pytest.approx(4 / (400.0 / 1e6))
        d = report.to_dict()
        assert d["n_requests"] == 4
        assert set(d["latency_us"]) == {"p50", "p95", "p99", "mean_queue_wait", "mean_execute"}


class TestWorkloads:
    def test_burst_arrivals(self):
        assert burst_arrivals(2, 3, 100.0) == [0.0, 0.0, 0.0, 100.0, 100.0, 100.0]
        with pytest.raises(ValueError):
            burst_arrivals(1, 1, -1.0)

    def test_poisson_seeded(self):
        a = poisson_arrivals(20, 500.0, seed=7)
        b = poisson_arrivals(20, 500.0, seed=7)
        assert a == b
        assert a != poisson_arrivals(20, 500.0, seed=8)
        assert all(x < y for x, y in zip(a, a[1:]))


class TestEngineServing:
    def test_fused_group_shares_elapsed(self):
        engine, descs = build_engine()
        queries = [noisy_copy(descs[i], 8.0, seed=i) for i in range(4)]
        group = engine.search_group(queries)
        assert group.group_size == 4
        assert all(r.elapsed_us == group.elapsed_us for r in group.results)
        assert group.pairs_compared == 4 * group.images_searched

    def test_fused_beats_serial_at_concurrency_4(self):
        """The acceptance bar: batching must strictly raise throughput
        once four queries contend for the device."""
        engine, descs = build_engine()
        queries = [noisy_copy(descs[i % len(descs)], 8.0, seed=i) for i in range(12)]
        trace = build_trace(burst_arrivals(3, 4, 1_000.0), queries)
        serial = simulate_serving(
            SerialEngineExecutor(engine), trace, BatchPolicy(max_batch=1)
        )
        fused = simulate_serving(
            FusedEngineExecutor(engine), trace, BatchPolicy(max_batch=4, max_wait_us=2_000.0)
        )
        assert fused.throughput_images_per_s > serial.throughput_images_per_s
        assert fused.mean_group_size == 4.0

    def test_determinism_same_trace_same_report(self):
        """S4: one arrival trace + seed replays byte-identical groups
        and percentiles."""
        reports = []
        for _ in range(2):
            engine, descs = build_engine()
            queries = [noisy_copy(descs[i % 4], 8.0, seed=i) for i in range(8)]
            trace = build_trace(burst_arrivals(2, 4, 1_500.0), queries)
            reports.append(
                simulate_serving(
                    FusedEngineExecutor(engine),
                    trace,
                    BatchPolicy(max_batch=4, max_wait_us=2_000.0),
                )
            )
        a, b = reports
        assert [g.request_ids for g in a.groups] == [g.request_ids for g in b.groups]
        assert [g.trigger for g in a.groups] == [g.trigger for g in b.groups]
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )


class TestClusterServing:
    def test_cluster_group_executor(self):
        system, descs = build_cluster()
        executor = ClusterGroupExecutor(system)
        payloads, elapsed = executor.execute([noisy_copy(descs[0], 8.0, seed=1)])
        assert len(payloads) == 1
        assert elapsed > 0
        assert payloads[0].best().reference_id == "r0"

    @pytest.mark.chaos
    def test_shard_death_mid_group_flags_every_query(self):
        """S3: a shard dying during a fused group leaves *every* member
        partial, each with its own private unsearched_shards copy."""
        injector = FaultInjector(seed=0)
        system, descs = build_cluster(n_nodes=3, n_refs=6, injector=injector)
        queries = [noisy_copy(descs[i], 8.0, seed=i) for i in range(4)]
        injector.crash_after("gpu-01", 1)  # dies on the group's shard RPC
        group = system.search_group(queries)
        assert group.group_size == 4
        assert group.partial
        assert group.unsearched_shards == ["gpu-01"]
        for result in group.results:
            assert result.partial
            assert result.unsearched_shards == ["gpu-01"]
        # the copies are independent: poisoning one query's metadata
        # must not leak into its group-mates (or the group rollup)
        group.results[0].unsearched_shards.append("poison")
        assert group.results[1].unsearched_shards == ["gpu-01"]
        assert group.unsearched_shards == ["gpu-01"]

    def test_rest_batch_route_happy_path(self):
        system, descs = build_cluster()
        router = build_api(system)
        body = {
            "queries": [
                noisy_copy(descs[0], 8.0, seed=1).tolist(),
                noisy_copy(descs[3], 8.0, seed=2).tolist(),
            ],
            "top": 2,
        }
        response = router.handle(Request("POST", "/search/batch", body))
        assert response.ok
        assert response.body["group_size"] == 2
        assert response.body["elapsed_us"] > 0
        first, second = response.body["queries"]
        assert first["results"][0]["id"] == "r0"
        assert second["results"][0]["id"] == "r3"
        # both queries share the fused group's completion time
        assert first["elapsed_us"] == second["elapsed_us"]

    def test_rest_batch_route_validation(self):
        system, _ = build_cluster(n_nodes=2, n_refs=2)
        router = build_api(system)
        assert router.handle(Request("POST", "/search/batch", {})).status == 400
        assert (
            router.handle(Request("POST", "/search/batch", {"queries": []})).status
            == 400
        )
        query = make_descriptors(CFG.n, seed=0).tolist()
        too_many = {"queries": [query] * 65}
        assert router.handle(Request("POST", "/search/batch", too_many)).status == 400
        bad_top = {"queries": [query], "top": 0}
        assert router.handle(Request("POST", "/search/batch", bad_top)).status == 400
        bad_shape = {"queries": [[[1.0, 2.0]]]}
        assert router.handle(Request("POST", "/search/batch", bad_shape)).status == 400

    def test_webtier_batch_executor_charges_group_time(self):
        system, descs = build_cluster()
        tier = WebTier(system, n_workers=1)
        executor = WebTierBatchExecutor(tier, top=1)
        queries = [noisy_copy(descs[i], 8.0, seed=i) for i in range(3)]
        payloads, elapsed = executor.execute(queries)
        assert len(payloads) == 3
        assert payloads[0]["results"][0]["id"] == "r0"
        # worker clock advanced by handling cost + the group's time
        assert elapsed == tier.worker_clock_us[0]
        assert elapsed > 0


class TestServingExperiment:
    def test_quick_run_writes_json_and_shows_speedup(self, tmp_path):
        from repro.bench.experiments import serving_bench

        json_path = tmp_path / "BENCH_serving.json"
        result = serving_bench.run(quick=True, json_path=json_path)
        assert result.summary["fused_speedup_at_conc4"] > 1.0
        payload = json.loads(json_path.read_text())
        assert payload["experiment"] == "serving"
        tiers = {cell["tier"] for cell in payload["grid"]}
        assert {"engine", "cluster", "webtier"} <= tiers
        for cell in payload["grid"]:
            assert {"p50", "p95", "p99"} <= set(cell["latency_us"])

    def test_registered_in_cli(self):
        from repro.bench.experiments import ALL_EXPERIMENTS

        assert "serving" in ALL_EXPERIMENTS
