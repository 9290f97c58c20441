"""Engine configuration matrix: every (precision, algorithm, sort)
combination must identify the same best match on a clear query."""

import numpy as np
import pytest

from repro.bench.experiments import device_sweep
from repro.core import EngineConfig, TextureSearchEngine
from repro.gpusim import GPUDevice, get_device_spec
from tests.conftest import make_descriptors, noisy_copy

CONFIG_GRID = [
    dict(precision="fp16", backend="algorithm2", sort_kind="scan"),
    dict(precision="fp32", backend="algorithm2", sort_kind="scan"),
    dict(precision="fp16", backend="algorithm1", sort_kind="scan"),
    dict(precision="fp32", backend="algorithm1", sort_kind="scan"),
    dict(precision="fp32", backend="algorithm1", sort_kind="insertion"),
    dict(precision="fp16", backend="algorithm2", sort_kind="scan", normalization="l2"),
]


@pytest.fixture(scope="module")
def descs():
    return {i: make_descriptors(32, seed=4000 + i) for i in range(6)}


@pytest.mark.parametrize("overrides", CONFIG_GRID,
                         ids=lambda o: "-".join(f"{k}={v}" for k, v in o.items()))
def test_every_configuration_identifies(descs, overrides):
    scale = 2.0**-7 if overrides["backend"] == "algorithm1" else 0.25
    config = EngineConfig(m=32, n=32, batch_size=3, min_matches=5,
                          scale_factor=scale, **overrides)
    engine = TextureSearchEngine(config)
    for i, d in descs.items():
        engine.add_reference(f"r{i}", d)
    engine.flush()
    query = noisy_copy(descs[3], 8.0, seed=401)
    result = engine.search(query)
    best = result.best()
    assert best.reference_id == "r3"
    assert best.good_matches >= 5
    # runner-up well separated
    runner_up = result.top(2)[1]
    assert runner_up.good_matches < best.good_matches


@pytest.mark.parametrize("device_name", ["p100", "v100", "a100"])
def test_every_device_runs_the_engine(descs, device_name):
    engine = TextureSearchEngine(
        EngineConfig(m=32, n=32, batch_size=3, min_matches=5, scale_factor=0.25),
        device=GPUDevice(get_device_spec(device_name)),
    )
    for i, d in descs.items():
        engine.add_reference(f"r{i}", d)
    result = engine.search(noisy_copy(descs[1], 8.0, seed=402))
    assert result.best().reference_id == "r1"
    assert result.elapsed_us > 0


class TestDeviceSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return device_sweep.run()

    def test_faster_cards_are_faster(self, result):
        speeds = result.column("GPU-resident (img/s)")
        assert speeds == sorted(speeds)

    def test_hybrid_never_exceeds_either_bound(self, result):
        for row in result.rows:
            assert row[2] <= row[1]  # hybrid <= resident
            assert row[2] <= row[3] * 1.001  # hybrid <= PCIe bound

    def test_a100_has_more_capacity(self, result):
        caps = dict(zip(result.column("device"), result.column("capacity (images)")))
        assert caps["Tesla A100"] > caps["Tesla P100"]
