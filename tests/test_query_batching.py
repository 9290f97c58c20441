"""Query batching: the fused multi-query kernel, engine API, trade-off
model.  Per-query fusion invariance lives in ``test_query_groups.py``."""

import numpy as np
import pytest

from repro.core import (
    EngineConfig,
    TextureSearchEngine,
    knn_algorithm2,
    query_batch_tradeoff,
)
from repro.features import rootsift
from repro.gpusim import KernelCalibration, TESLA_P100
from tests.conftest import make_descriptors, noisy_copy

CAL = KernelCalibration.for_device(TESLA_P100)


def rootsift_batch(count, m, seed):
    return np.stack([rootsift(make_descriptors(m, seed=seed + i)) for i in range(count)])


class TestMultiQueryKernel:
    def test_single_fused_gemm(self, p100):
        refs = rootsift_batch(2, 8, seed=10)
        queries = rootsift_batch(4, 8, seed=20)
        knn_algorithm2(p100, refs, queries, precision="fp32")
        gemm = [r for r in p100.profiler.records() if r.name == "GEMM"]
        assert gemm[0].calls == 1

    def test_fp16_path(self, p100):
        scale = 0.25
        refs = (rootsift_batch(2, 8, seed=30) * scale).astype(np.float16)
        queries = (rootsift_batch(3, 8, seed=30) * scale).astype(np.float16)
        result = knn_algorithm2(p100, refs, queries, scale=scale, precision="fp16")
        assert result.n_queries == 3
        assert result.distances.shape == (2, 3, 2, 8)

    def test_validation(self, p100):
        with pytest.raises(ValueError, match="references"):
            knn_algorithm2(p100, np.ones((2, 4), np.float32), np.ones((1, 4, 4), np.float32))
        with pytest.raises(ValueError, match="dimension"):
            knn_algorithm2(p100, np.ones((1, 4, 4), np.float32), np.ones((1, 5, 4), np.float32))


class TestEngineSearchMany:
    def test_results_match_sequential_search(self):
        cfg = EngineConfig(m=48, n=48, batch_size=4, min_matches=5, scale_factor=0.25)
        descs = {i: make_descriptors(48, seed=600 + i) for i in range(8)}
        multi_engine = TextureSearchEngine(cfg)
        seq_engine = TextureSearchEngine(cfg)
        for i, d in descs.items():
            multi_engine.add_reference(f"r{i}", d)
            seq_engine.add_reference(f"r{i}", d)
        queries = [noisy_copy(descs[2], 8.0, seed=61), noisy_copy(descs[5], 8.0, seed=62)]
        grouped = multi_engine.search_group(queries).results
        assert len(grouped) == 2
        assert grouped[0].best().reference_id == "r2"
        assert grouped[1].best().reference_id == "r5"
        for q, grouped_result in zip(queries, grouped):
            solo = seq_engine.search(q)
            assert solo.best().reference_id == grouped_result.best().reference_id
            assert solo.best().good_matches == grouped_result.best().good_matches

    def test_group_latency_shared(self):
        cfg = EngineConfig(m=32, n=32, batch_size=4, scale_factor=0.25)
        engine = TextureSearchEngine(cfg)
        for i in range(4):
            engine.add_reference(f"r{i}", make_descriptors(32, seed=700 + i))
        results = engine.search_group(
            [make_descriptors(32, seed=710 + i) for i in range(3)]
        ).results
        assert len({r.elapsed_us for r in results}) == 1  # one group time

    def test_algorithm1_group_returns_per_query_results(self):
        """A backend without a fused GEMM answers a group query by query."""
        engine = TextureSearchEngine(
            EngineConfig(m=32, n=32, backend="algorithm1", precision="fp32", batch_size=4)
        )
        descs = {i: make_descriptors(32, seed=900 + i) for i in range(6)}
        for i, d in descs.items():
            engine.add_reference(f"r{i}", d)
        queries = [noisy_copy(descs[i], 8.0, seed=910 + i) for i in (4, 0, 2)]
        group = engine.search_group(queries)
        assert group.group_size == 3
        assert [r.best().reference_id for r in group.results] == ["r4", "r0", "r2"]
        assert all(len(r.matches) == 6 for r in group.results)
        assert all(r.elapsed_us == group.elapsed_us for r in group.results)

    def test_empty_input(self):
        engine = TextureSearchEngine(EngineConfig(m=32, n=32, batch_size=4))
        assert engine.search_group([]).results == []

    def test_respects_tombstones(self):
        cfg = EngineConfig(m=32, n=32, batch_size=2, scale_factor=0.25)
        engine = TextureSearchEngine(cfg)
        descs = {i: make_descriptors(32, seed=800 + i) for i in range(4)}
        for i, d in descs.items():
            engine.add_reference(f"r{i}", d)
        engine.remove_reference("r1")
        results = engine.search_group([noisy_copy(descs[1], 8.0, seed=81)]).results
        assert all(m.reference_id != "r1" for m in results[0].matches)


class TestTradeoffModel:
    def test_throughput_rises_latency_rises(self):
        points = query_batch_tradeoff(TESLA_P100, CAL, [1, 4, 16])
        throughputs = [p.throughput_images_per_s for p in points]
        latencies = [p.latency_ms_per_query for p in points]
        assert throughputs == sorted(throughputs)
        assert latencies == sorted(latencies)
        assert throughputs[-1] / throughputs[0] > 1.3  # PCIe amortisation

    def test_gpu_resident_gain_is_smaller(self):
        streamed = query_batch_tradeoff(TESLA_P100, CAL, [1, 16], host_resident=True)
        resident = query_batch_tradeoff(TESLA_P100, CAL, [1, 16], host_resident=False)
        gain_streamed = streamed[1].throughput_images_per_s / streamed[0].throughput_images_per_s
        gain_resident = resident[1].throughput_images_per_s / resident[0].throughput_images_per_s
        assert gain_streamed > gain_resident

    def test_validation(self):
        with pytest.raises(ValueError):
            query_batch_tradeoff(TESLA_P100, CAL, [0])
        with pytest.raises(ValueError):
            query_batch_tradeoff(TESLA_P100, CAL, [1], reference_count=10, ref_batch=100)
