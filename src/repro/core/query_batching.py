"""Query batching (the extension Sec. 5.3 discusses but defers).

"Similar to the batch process for reference feature matrix, the query
feature matrix can also be batched for higher performance.  However,
the search latency also increases" — the paper leaves the trade-off to
the DNN-serving literature.  The fused kernel is
:func:`repro.core.algorithm2.knn_algorithm2` itself: it takes a
``(Q, d, n)`` query group, concatenates it column-wise into one
``(d, Q*n)`` matrix, so a single batched GEMM serves every (reference,
query) pair and the top-2 scan sees ``batch * Q * n`` columns.

Throughput rises (more data reuse per cached reference batch, more scan
occupancy); *per-query latency* becomes the whole group's completion
time.  :func:`query_batch_tradeoff` quantifies both from the calibrated
models — the ablation the paper hand-waves.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gpusim.calibration import KernelCalibration
from ..gpusim.device import DeviceSpec
from ..gpusim.kernels import (
    d2h_result_us,
    dtype_bytes,
    elementwise_us,
    gemm_us,
    postprocess_us,
    top2_scan_us,
)
from .algorithm2 import knn_algorithm2
from .topk import functional_topk  # noqa: F401 - perfbench's tracer looks this name up

__all__ = ["QueryBatchPoint", "query_batch_tradeoff"]

#: the fused multi-query kernel is knn_algorithm2; perfbench's tracer looks this name up
knn_algorithm2_multiquery = knn_algorithm2


@dataclass(frozen=True)
class QueryBatchPoint:
    """One point of the throughput/latency trade-off curve."""

    query_batch: int
    throughput_images_per_s: float
    latency_ms_per_query: float


def query_batch_tradeoff(
    spec: DeviceSpec,
    cal: KernelCalibration,
    query_batches: list[int],
    reference_count: int = 100_000,
    ref_batch: int = 256,
    m: int = 384,
    n: int = 768,
    d: int = 128,
    precision: str = "fp16",
    host_resident: bool = True,
) -> list[QueryBatchPoint]:
    """Throughput vs. latency as the query batch grows.

    One query group must scan *all* ``reference_count`` references;
    latency is that full sweep's duration, throughput counts image
    comparisons (pairs) per second.

    With ``host_resident`` references (the hybrid-cache regime where
    query batching actually pays) every sweep streams each reference
    batch over PCIe *once*, so a larger query group amortises the
    transfer across more comparisons — this is the mechanism behind
    Sec. 5.3's "higher performance".
    """
    if reference_count < ref_batch:
        raise ValueError("reference_count must cover at least one batch")
    from ..gpusim.pcie import h2d_time_us

    points = []
    n_ref_batches = reference_count // ref_batch
    transfer = (
        h2d_time_us(spec, ref_batch * m * d * dtype_bytes(precision), pinned=True)
        if host_resident
        else 0.0
    )
    for qb in query_batches:
        if qb < 1:
            raise ValueError("query batch must be >= 1")
        compute = (
            gemm_us(spec, cal, m, qb * n, d, ref_batch, precision)
            + top2_scan_us(spec, cal, m, ref_batch * qb * n, precision)
            + elementwise_us(spec, cal, 2 * ref_batch * qb * n, precision)
            + d2h_result_us(spec, cal, qb * n, ref_batch, 2, precision)
            + postprocess_us(cal, ref_batch * qb, precision, n)
        )
        # Single-stream regime: transfer and compute serialise; the
        # transfer is paid once per reference batch per sweep.
        per_ref_batch = max(transfer, 0.0) + compute
        sweep_us = per_ref_batch * n_ref_batches
        pairs = reference_count * qb
        points.append(
            QueryBatchPoint(
                query_batch=qb,
                throughput_images_per_s=pairs / sweep_us * 1e6,
                latency_ms_per_query=sweep_us / 1e3,
            )
        )
    return points
