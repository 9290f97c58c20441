"""Table 2 — FP16 compression error and accuracy vs. scale factor.

The error metric runs the real FP16-accumulated distance pipeline over
same-brick pairs; accuracy runs the full engine over the synthetic
dataset (skipped with REPRO_BENCH_QUICK=1).
"""

from conftest import QUICK, attach_summary, record_result
from repro.bench.experiments import table2_fp16
from repro.fp16 import compression_error
from repro.data import SyntheticFeatureModel


def test_table2_rows(benchmark):
    result = table2_fp16.run(quick=QUICK)
    record_result(result)
    attach_summary(benchmark, result)
    # shape assertions
    errors = dict(zip(result.column("scale factor"), result.column("avg compression error")))
    assert errors["1"] == "overflow"
    assert errors["2^-1"] == "overflow"
    plateau = float(errors["2^-7"].rstrip("%"))
    deep = float(errors["2^-16"].rstrip("%"))
    assert 0 < plateau < 0.5
    assert deep > plateau
    benchmark.pedantic(
        table2_fp16.run,
        kwargs=dict(n_pairs=2, n_bricks=4, quick=True,
                    scales=[2.0**-2, 2.0**-7]),
        rounds=1, iterations=1,
    )


def test_compression_error_kernel(benchmark):
    """Wall-clock of Eq. 2 on one 768 x 768 pair at the paper's scale."""
    model = SyntheticFeatureModel(seed=0)
    ref = model.capture(0, "reference").top(768).descriptors
    qry = model.capture(0, "query").top(768).descriptors
    benchmark.pedantic(compression_error, args=(ref, qry, 2.0**-7), rounds=3, iterations=1)
