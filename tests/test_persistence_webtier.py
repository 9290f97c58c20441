"""Engine state export/import, KV snapshots, node warm-restart, the
web tier, cluster batched search, and verification metrics."""

import numpy as np
import pytest

from repro.core import EngineConfig, TextureSearchEngine
from repro.data import SyntheticFeatureModel
from repro.distributed import (
    DistributedSearchSystem,
    KVStore,
    Request,
    SearchNode,
    WebTier,
)
from repro.errors import SerializationError
from repro.metrics import evaluate_verification, roc_from_scores
from tests.conftest import make_descriptors, noisy_copy

CFG = EngineConfig(m=32, n=32, batch_size=3, min_matches=5, scale_factor=0.25)


class TestEngineExportImport:
    def test_roundtrip_preserves_search_results(self):
        engine = TextureSearchEngine(CFG)
        descs = {i: make_descriptors(32, seed=1100 + i) for i in range(5)}
        for i, d in descs.items():
            engine.add_reference(f"r{i}", d)
        records = engine.export_records()
        assert len(records) == 5

        clone = TextureSearchEngine(CFG)
        assert clone.import_records(records) == 5
        query = noisy_copy(descs[2], 8.0, seed=111)
        original = engine.search(query)
        restored = clone.search(query)
        assert original.best().reference_id == restored.best().reference_id
        assert original.best().good_matches == restored.best().good_matches

    def test_export_skips_tombstones(self):
        engine = TextureSearchEngine(CFG)
        for i in range(4):
            engine.add_reference(f"r{i}", make_descriptors(32, seed=1200 + i))
        engine.remove_reference("r1")
        ids = {r.ref_id for r in engine.export_records()}
        assert ids == {"r0", "r2", "r3"}

    def test_import_rejects_config_mismatch(self):
        engine = TextureSearchEngine(CFG)
        engine.add_reference("r0", make_descriptors(32, seed=1300))
        records = engine.export_records()
        other = TextureSearchEngine(CFG.with_updates(precision="fp32", backend="algorithm2"))
        with pytest.raises(ValueError, match="fp16"):
            other.import_records(records)
        scaled = TextureSearchEngine(CFG.with_updates(scale_factor=0.5))
        with pytest.raises(ValueError, match="scale"):
            scaled.import_records(records)

    def test_add_prepared_validation(self):
        engine = TextureSearchEngine(CFG)
        with pytest.raises(ValueError, match="prepared matrix"):
            engine.add_prepared_reference("x", np.zeros((128, 16), np.float16))
        with pytest.raises(ValueError, match="float16"):
            engine.add_prepared_reference("x", np.zeros((128, 32), np.float32))

    def test_algorithm1_roundtrip(self):
        cfg = CFG.with_updates(backend="algorithm1", precision="fp16", scale_factor=2.0**-7)
        engine = TextureSearchEngine(cfg)
        descs = {i: make_descriptors(32, seed=1400 + i) for i in range(3)}
        for i, d in descs.items():
            engine.add_reference(f"r{i}", d)
        clone = TextureSearchEngine(cfg)
        clone.import_records(engine.export_records())
        query = noisy_copy(descs[1], 8.0, seed=141)
        assert clone.search(query).best().reference_id == "r1"


class TestKvSnapshot:
    def test_dump_restore_roundtrip(self):
        store = KVStore()
        store.set("a", b"alpha")
        store.set("b", b"\x00\xff binary")
        store.hset("h", "f1", b"v1")
        store.hset("h", "f2", b"v2")
        snapshot = store.dump()

        fresh = KVStore()
        loaded = fresh.restore(snapshot)
        assert loaded == 4
        assert fresh.get("a") == b"alpha"
        assert fresh.hgetall("h") == {"f1": b"v1", "f2": b"v2"}

    def test_restore_replaces_contents(self):
        store = KVStore()
        store.set("old", b"x")
        snapshot = store.dump()
        store.set("new", b"y")
        store.restore(snapshot)
        assert store.get("new") is None
        assert store.get("old") == b"x"

    def test_bad_magic(self):
        with pytest.raises(SerializationError, match="magic"):
            KVStore().restore(b"nope")

    def test_truncated(self):
        store = KVStore()
        store.set("key", b"value-value-value")
        snapshot = store.dump()
        with pytest.raises(SerializationError):
            KVStore().restore(snapshot[:-4])


class TestNodeWarmRestart:
    def test_snapshot_restore(self):
        store = KVStore()
        node = SearchNode("n0", CFG)
        descs = {i: make_descriptors(32, seed=1500 + i) for i in range(4)}
        for i, d in descs.items():
            node.add(f"r{i}", d)
        assert node.snapshot_to_store(store) == 4

        replacement = SearchNode("n0", CFG)
        assert replacement.restore_from_store(store) == 4
        query = noisy_copy(descs[3], 8.0, seed=151)
        assert replacement.search(query).best().reference_id == "r3"


class TestClusterSearchMany:
    def test_matches_individual_searches(self):
        system = DistributedSearchSystem(2, CFG)
        descs = {i: make_descriptors(32, seed=1600 + i) for i in range(6)}
        for i, d in descs.items():
            system.add(f"r{i}", d)
        queries = [noisy_copy(descs[1], 8.0, seed=161), noisy_copy(descs[4], 8.0, seed=162)]
        grouped = system.search_group(queries).results
        assert grouped[0].best().reference_id == "r1"
        assert grouped[1].best().reference_id == "r4"
        assert grouped[0].elapsed_us == grouped[1].elapsed_us
        assert system.search_group([]).results == []


class TestWebTier:
    def _tier(self, policy="round-robin", workers=3):
        system = DistributedSearchSystem(2, CFG)
        descs = {i: make_descriptors(32, seed=1700 + i) for i in range(4)}
        tier = WebTier(system, n_workers=workers, policy=policy)
        for i, d in descs.items():
            record = tier.handle(
                Request("POST", "/textures", {"id": f"r{i}", "descriptors": d.tolist()})
            )
            assert record.response.status == 201
        return tier, descs

    def test_round_robin_distribution(self):
        tier, _descs = self._tier()
        assert tier.requests_handled == [2, 1, 1]

    def test_burst_parallelises_across_workers(self):
        tier, descs = self._tier(workers=2)
        tier.reset_clocks()
        query = noisy_copy(descs[0], 8.0, seed=171).tolist()
        requests = [Request("POST", "/search", {"descriptors": query}) for _ in range(4)]
        records = tier.handle_burst(requests)
        assert all(r.response.status == 200 for r in records)
        # two workers, two requests each: makespan ~ half the serial sum
        serial = sum(r.completed_us - r.started_us for r in records)
        assert tier.makespan_us() < serial * 0.75

    def test_least_loaded_policy(self):
        tier, descs = self._tier(policy="least-loaded")
        tier.reset_clocks()
        query = noisy_copy(descs[0], 8.0, seed=172).tolist()
        tier.handle_burst([Request("POST", "/search", {"descriptors": query})] * 6)
        assert max(tier.requests_handled) - min(tier.requests_handled) <= 2

    def test_validation(self):
        system = DistributedSearchSystem(1, CFG)
        with pytest.raises(ValueError):
            WebTier(system, n_workers=0)
        with pytest.raises(ValueError):
            WebTier(system, policy="random")

    def test_stats_schema_and_observability_counters(self):
        """``GET /stats`` carries a schema version plus the cache and
        fault-tolerance counter blocks fed by the metrics registry."""
        from repro.distributed.cluster import STATS_SCHEMA_VERSION

        tier, descs = self._tier(workers=1)
        # enough extra references that each node seals a full cache
        # batch (batch_size=3), so the cache-add counter moves
        for i in range(4, 10):
            record = tier.handle(
                Request("POST", "/textures",
                        {"id": f"r{i}",
                         "descriptors": make_descriptors(32, seed=1700 + i).tolist()})
            )
            assert record.response.status == 201
        query = noisy_copy(descs[0], 8.0, seed=174).tolist()
        assert tier.handle(
            Request("POST", "/search", {"descriptors": query})
        ).response.ok
        stats = tier.handle(Request("GET", "/stats")).response
        assert stats.ok
        body = stats.body
        assert body["schema_version"] == STATS_SCHEMA_VERSION == 8
        assert body["references"] == 10
        cache = body["cache"]
        assert cache["adds_total"] > 0  # sealed batches entered the cache
        assert cache["sweep_hits_total"] + cache["sweep_misses_total"] > 0
        ft = body["fault_tolerance"]
        assert ft["searches_single_total"] == 1
        assert ft["searches_group_total"] == 0
        assert ft["retries_total"] == 0
        assert ft["partial_results_total"] == 0
        assert ft["failovers_total"] == 0
        overload = body["overload"]
        assert overload["shed_reject_new_total"] == 0
        assert overload["deadline_expired_sweeps_total"] == 0
        assert overload["breaker_skipped_total"] == 0
        assert overload["rate_limited_total"] == 0

    def test_latency_is_delta_not_absolute_clock(self):
        """Regression: ``DispatchRecord.latency_us`` must be the
        completion−start delta.  It used to return the absolute
        worker-clock completion, so a request queued behind others
        reported all their time as its own latency."""
        tier, descs = self._tier(workers=1)
        tier.reset_clocks()
        query = noisy_copy(descs[0], 8.0, seed=173).tolist()
        requests = [Request("POST", "/search", {"descriptors": query})] * 2
        first, second = tier.handle_burst(requests)
        assert first.latency_us == pytest.approx(first.completed_us - first.started_us)
        assert second.started_us == first.completed_us  # queued behind first
        # identical work => identical latency, despite the queueing delay
        assert second.latency_us == pytest.approx(first.latency_us)
        assert second.latency_us < second.completed_us


class TestVerificationMetrics:
    def test_roc_and_eer(self):
        genuine = np.array([20, 25, 30, 4, 40])
        impostor = np.array([0, 1, 0, 2, 6])
        report = roc_from_scores(genuine, impostor)
        assert 0.0 <= report.eer <= 0.5
        point = report.operating_point(8)
        assert point.far == pytest.approx(0.0)
        assert point.frr == pytest.approx(0.2)
        assert point.tar == pytest.approx(0.8)

    def test_best_threshold_separates(self):
        report = roc_from_scores(np.array([30, 40, 50]), np.array([0, 1, 2]))
        t = report.best_threshold()
        assert 3 <= t <= 30
        op = report.operating_point(t)
        assert op.far == 0.0 and op.frr == 0.0

    def test_engine_protocol(self):
        engine = TextureSearchEngine(
            EngineConfig(m=256, n=256, batch_size=8, scale_factor=0.25)
        )
        model = SyntheticFeatureModel(seed=4)
        report = evaluate_verification(engine, model, n_bricks=8, impostors_per_brick=1)
        assert len(report.genuine_scores) == 8
        assert len(report.impostor_scores) == 8
        # genuine scores dominate impostors
        assert np.median(report.genuine_scores) > np.median(report.impostor_scores)
        assert report.eer < 0.3

    def test_validation(self):
        with pytest.raises(ValueError):
            roc_from_scores(np.array([]), np.array([1.0]))
