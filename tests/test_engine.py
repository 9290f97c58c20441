"""TextureSearchEngine: enrolment, search, verification, tombstones,
hybrid-cache interaction, and configuration validation."""

import numpy as np
import pytest

from repro.core import EngineConfig, TextureSearchEngine
from repro.errors import HalfPrecisionOverflowError
from repro.gpusim import GPUDevice, TESLA_P100
from tests.conftest import make_descriptors, noisy_copy


def small_config(**kwargs):
    defaults = dict(m=48, n=48, batch_size=4, min_matches=5, scale_factor=0.25)
    defaults.update(kwargs)
    return EngineConfig(**defaults)


@pytest.fixture
def engine():
    return TextureSearchEngine(small_config())


def enrolled(engine, count=10):
    descs = {i: make_descriptors(48, seed=100 + i) for i in range(count)}
    for i, d in descs.items():
        engine.add_reference(f"ref{i}", d)
    engine.flush()
    return descs


class TestConfig:
    def test_defaults_valid(self):
        EngineConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=0),
            dict(precision="int8"),
            dict(precision="fp16", scale_factor=0.0),
            dict(batch_size=0),
            dict(sort_kind="quick"),
            dict(ratio_threshold=1.5),
            dict(min_matches=0),
            dict(streams=0),
            dict(k=1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            EngineConfig(**kwargs)

    def test_feature_matrix_bytes(self):
        cfg = EngineConfig(m=384, precision="fp16", backend="algorithm2")
        assert cfg.feature_matrix_bytes() == 98304
        cfg1 = EngineConfig(m=768, precision="fp32", backend="algorithm1")
        assert cfg1.feature_matrix_bytes() == 768 * 128 * 4 + 768 * 4

    def test_effective_scale(self):
        assert EngineConfig(precision="fp32").effective_scale == 1.0
        assert EngineConfig(precision="fp16", scale_factor=0.25).effective_scale == 0.25

    def test_with_updates(self):
        cfg = EngineConfig().with_updates(m=384)
        assert cfg.m == 384


class TestSearch:
    def test_finds_true_reference(self, engine):
        descs = enrolled(engine)
        query = noisy_copy(descs[3], 8.0, seed=7)
        result = engine.search(query)
        assert result.best().reference_id == "ref3"
        assert result.images_searched == 10

    def test_partial_batch_is_searchable(self, engine):
        descs = enrolled(engine, count=5)  # 4+1: one partial batch
        result = engine.search(noisy_copy(descs[4], 8.0, seed=8))
        assert result.best().reference_id == "ref4"

    def test_elapsed_and_stats(self, engine):
        descs = enrolled(engine)
        result = engine.search(noisy_copy(descs[0], 8.0, seed=9))
        assert result.elapsed_us > 0
        assert engine.stats.searches == 1
        assert engine.stats.images_compared == 10
        assert engine.stats.mean_throughput_images_per_s > 0

    def test_fewer_query_features_padded(self, engine):
        descs = enrolled(engine)
        short = descs[2][:, :20]  # fewer than n=48
        result = engine.search(short)
        assert result.best().reference_id == "ref2"

    def test_wrong_descriptor_dim_rejected(self, engine):
        with pytest.raises(ValueError, match="128"):
            engine.search(np.ones((64, 48), np.float32))
        with pytest.raises(ValueError, match="128"):
            engine.add_reference("x", np.ones((64, 48), np.float32))


class TestAlgorithm1Path:
    def test_fp32_insertion(self):
        engine = TextureSearchEngine(
            small_config(backend="algorithm1", precision="fp32", sort_kind="insertion")
        )
        descs = enrolled(engine, 6)
        result = engine.search(noisy_copy(descs[1], 8.0, seed=10))
        assert result.best().reference_id == "ref1"

    def test_fp16_raw_sift(self):
        engine = TextureSearchEngine(
            small_config(backend="algorithm1", precision="fp16", scale_factor=2.0**-7)
        )
        descs = enrolled(engine, 6)
        result = engine.search(noisy_copy(descs[1], 8.0, seed=11))
        assert result.best().reference_id == "ref1"

    def test_overflow_scale_raises_on_enroll(self):
        engine = TextureSearchEngine(
            small_config(backend="algorithm1", precision="fp16", scale_factor=1.0)
        )
        with pytest.raises(HalfPrecisionOverflowError):
            engine.add_reference("x", make_descriptors(48, seed=0))


class TestVerify:
    def test_genuine_pair(self, engine):
        d = make_descriptors(48, seed=200)
        same, count = engine.verify(d, noisy_copy(d, 8.0, seed=201))
        assert same and count >= 5

    def test_impostor_pair(self, engine):
        a = make_descriptors(48, seed=202)
        b = make_descriptors(48, seed=203)
        same, count = engine.verify(a, noisy_copy(b, 8.0, seed=204))
        assert not same

    def test_verify_algorithm1(self):
        engine = TextureSearchEngine(small_config(backend="algorithm1", precision="fp32"))
        d = make_descriptors(48, seed=205)
        same, _ = engine.verify(d, noisy_copy(d, 8.0, seed=206))
        assert same


class TestTombstones:
    def test_remove(self, engine):
        descs = enrolled(engine)
        assert engine.remove_reference("ref3")
        assert not engine.has_reference("ref3")
        assert engine.n_references == 9
        result = engine.search(noisy_copy(descs[3], 8.0, seed=12))
        assert result.best().reference_id != "ref3"

    def test_remove_unknown(self, engine):
        assert not engine.remove_reference("ghost")

    def test_double_remove(self, engine):
        enrolled(engine)
        assert engine.remove_reference("ref0")
        assert not engine.remove_reference("ref0")

    def test_update_replaces(self, engine):
        descs = enrolled(engine)
        engine.add_reference("ref5", descs[3])  # update ref5 -> ref3's content
        result = engine.search(noisy_copy(descs[3], 8.0, seed=13))
        top_ids = {m.reference_id for m in result.top(2)}
        assert top_ids == {"ref3", "ref5"}
        assert engine.n_references == 10

    def test_remove_pending_slot(self, engine):
        # fewer adds than batch_size: slot still in the builder
        engine.add_reference("a", make_descriptors(48, seed=300))
        engine.add_reference("b", make_descriptors(48, seed=301))
        assert engine.remove_reference("a")
        engine.flush()
        result = engine.search(noisy_copy(make_descriptors(48, seed=300), 8.0, seed=302))
        assert all(m.reference_id != "a" for m in result.matches)


class TestHybridEngine:
    def test_search_spans_gpu_and_host(self):
        device = GPUDevice(TESLA_P100.with_memory(10**6))
        cfg = small_config()
        batch_bytes = cfg.batch_size * cfg.feature_matrix_bytes()
        engine = TextureSearchEngine(
            cfg,
            device=device,
            gpu_cache_bytes=batch_bytes,  # one batch on GPU
            host_cache_bytes=batch_bytes * 10,
        )
        descs = enrolled(engine, 12)  # 3 batches -> 2 demoted to host
        assert engine.cache.host_batches >= 1
        result = engine.search(noisy_copy(descs[0], 8.0, seed=14))
        assert result.best().reference_id == "ref0"
        assert "H2D copy" in engine.device.profiler.as_dict()

    def test_multi_stream_elapsed_uses_overlap_model(self):
        device = GPUDevice(TESLA_P100.with_memory(10**6))
        cfg = small_config(streams=8)
        batch_bytes = cfg.batch_size * cfg.feature_matrix_bytes()
        engine = TextureSearchEngine(
            cfg, device=device,
            gpu_cache_bytes=batch_bytes, host_cache_bytes=batch_bytes * 10,
        )
        descs = enrolled(engine, 12)
        serial_cfg = small_config(streams=1)
        serial = TextureSearchEngine(
            serial_cfg, device=GPUDevice(TESLA_P100.with_memory(10**6)),
            gpu_cache_bytes=batch_bytes, host_cache_bytes=batch_bytes * 10,
        )
        enrolled(serial, 12)
        q = noisy_copy(descs[0], 8.0, seed=15)
        multi_result = engine.search(q)
        serial_result = serial.search(q)
        assert multi_result.best().reference_id == serial_result.best().reference_id
        assert multi_result.elapsed_us < serial_result.elapsed_us

    def test_capacity_metric(self, engine):
        assert engine.capacity_images() == engine.cache.capacity_images(
            engine.config.feature_matrix_bytes()
        )
