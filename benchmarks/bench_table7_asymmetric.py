"""Table 7 — asymmetric feature counts: accuracy x speed sweep.

Accuracy runs the real engine over the synthetic-feature dataset at the
paper's exact (m, n) grid (skipped with REPRO_BENCH_QUICK=1); speed
comes from the calibrated chain model.
"""

import numpy as np

from conftest import QUICK, attach_summary, record_result
from repro.bench.experiments import table7_asymmetric
from repro.core import EngineConfig, TextureSearchEngine
from repro.data import build_feature_dataset


def test_table7_rows(benchmark):
    result = table7_asymmetric.run(quick=QUICK)
    record_result(result)
    attach_summary(benchmark, result)
    speeds = {(row[0], row[1]): row[3] for row in result.rows}
    assert speeds[(384, 768)] / speeds[(768, 768)] > 1.25  # paper +34.6%
    assert speeds[(384, 384)] > speeds[(384, 768)]
    if not QUICK:
        acc = {(row[0], row[1]): float(row[2].rstrip("%")) for row in result.rows}
        assert acc[(768, 768)] - acc[(384, 768)] <= 3.0    # paper -0.28%
        assert acc[(384, 384)] < acc[(384, 768)] + 1e-9    # n-cut hurts
        assert acc[(256, 768)] < acc[(384, 768)] + 1e-9    # m=256 knee
    benchmark.pedantic(
        table7_asymmetric.run, kwargs=dict(quick=True),
        rounds=1, iterations=1,
    )


def test_engine_search_kernel_asymmetric(benchmark):
    """Wall-clock of one real engine search: 32 references at the
    production configuration m=384, n=768, FP16 + RootSIFT."""
    dataset = build_feature_dataset(32, m_reference=384, n_query=768, seed=3)
    engine = TextureSearchEngine(
        EngineConfig(m=384, n=768, precision="fp16", scale_factor=0.25, batch_size=32)
    )
    for ref in dataset.references:
        engine.add_reference(str(ref.brick_id), ref.descriptors)
    engine.flush()
    query = dataset.queries[0].descriptors
    result = benchmark.pedantic(engine.search, args=(query,), rounds=3, iterations=1)
    assert result.images_searched == 32
