"""Algorithm 2: RootSIFT-simplified 2-NN over a *batch* of references.

With unit-norm RootSIFT features, ``rho^2 = 2 - 2 r.q`` — the norm
vectors of Algorithm 1 vanish and the pipeline collapses to four steps::

    1. A = -2 R^T Q            (batched GEMM over the reference batch)
    2. top-2 of each column    (register scan)
    3. sqrt(2 + A) on winners  (merged, in-register)
    4. ship 2 x n x batch results to the host

For FP16 with scale factor ``s``, the stored features are ``s * r`` so
``A = -2 s^2 r.q`` and the constant becomes ``2 s^2``; distances are
divided by ``s`` in step 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..blas.gemm import batched_hgemm
from ..errors import HalfPrecisionOverflowError
from ..gpusim.engine_model import GPUDevice
from ..gpusim.stream import Stream
from .results import KnnResult
from .topk import functional_topk

__all__ = ["BatchKnnResult", "knn_algorithm2"]


@dataclass
class BatchKnnResult:
    """Top-k results for every (reference image, query) pair of one batch.

    ``distances``/``indices`` have shape ``(batch, Q, k, n)``; a single
    query is the ``Q = 1`` case.
    """

    distances: np.ndarray
    indices: np.ndarray

    def __post_init__(self) -> None:
        if self.distances.shape != self.indices.shape:
            raise ValueError("distances/indices shape mismatch")
        if self.distances.ndim != 4:
            raise ValueError(f"expected (batch, Q, k, n), got {self.distances.shape}")

    @property
    def batch(self) -> int:
        return self.distances.shape[0]

    @property
    def n_queries(self) -> int:
        return self.distances.shape[1]

    def image(self, i: int, q: int = 0) -> KnnResult:
        """The (image, query) result, as Algorithm 1 would have produced it."""
        return KnnResult(distances=self.distances[i, q], indices=self.indices[i, q])


def knn_algorithm2(
    device: GPUDevice,
    references: np.ndarray,
    queries: np.ndarray,
    scale: float = 1.0,
    k: int = 2,
    precision: str = "fp16",
    tensor_core: bool = False,
    stream: Optional[Stream] = None,
) -> BatchKnnResult:
    """Batched RootSIFT 2-NN over a batch of references and a group of
    queries.

    Parameters
    ----------
    references:
        ``(batch, d, m)`` stack of reference feature matrices, already
        in engine precision (FP16 values pre-scaled by ``scale``).
    queries:
        ``(Q, d, n)`` stack of query matrices in the same
        precision/scale.  ``Q = 1`` is the paper's Algorithm 2; a larger
        ``Q`` is the Sec. 5.3 query batching: the queries are
        concatenated column-wise so one GEMM and one scan serve every
        (reference, query) pair, with per-pair results identical to
        ``Q`` separate runs.
    """
    references = np.asarray(references)
    queries = np.asarray(queries)
    if references.ndim != 3:
        raise ValueError(f"references must be (batch, d, m), got {references.shape}")
    if queries.ndim != 3:
        raise ValueError(f"queries must be (Q, d, n), got {queries.shape}")
    if queries.shape[1] != references.shape[1]:
        raise ValueError(
            f"dimension mismatch: queries {queries.shape} do not match "
            f"references {references.shape}"
        )
    batch, d, m = references.shape
    n_queries, _, n = queries.shape
    if not (1 <= k <= m):
        raise ValueError(f"k={k} out of range for m={m}")
    width = n_queries * n  # fused query columns
    q_all = np.transpose(queries, (1, 0, 2)).reshape(d, width)

    # Step 1: batched GEMM (one fused call => the Sec. 5 data reuse).
    if precision == "fp16":
        prod, overflow = batched_hgemm(
            device, references, q_all, alpha=1.0, tensor_core=tensor_core, stream=stream
        )
        if overflow:
            raise HalfPrecisionOverflowError(scale, float(np.abs(prod).max()))
        a = -2.0 * prod
        const = 2.0 * scale * scale
    elif precision == "fp32":
        device.gemm(m, width, d, batch=batch, dtype="fp32", stream=stream, step="GEMM")
        a = -2.0 * np.einsum(
            "bkm,kn->bmn",
            references.astype(np.float32),
            q_all.astype(np.float32),
            optimize=True,
        )
        const = 2.0
    else:
        raise ValueError(f"precision must be 'fp16' or 'fp32', got {precision!r}")

    # Step 2: one scan thread per (image, query-feature) column.
    device.top2_scan(m, batch * width, dtype=precision, stream=stream, step="Top-2 sort")
    columns = np.transpose(a, (1, 0, 2)).reshape(m, batch * width)
    top_vals, top_idx = functional_topk(columns, k)

    # Step 3: sqrt(const + A) in-register on the winners only.
    device.elementwise(k * batch * width, dtype=precision, stream=stream, step="sqrt")
    sq = top_vals + np.float32(const)
    np.maximum(sq, 0.0, out=sq)
    dist = np.sqrt(sq, dtype=np.float32)
    if precision == "fp16":
        dist /= np.float32(scale)

    # Step 4: batched result gather.
    device.d2h_result(width, batch=batch, k=k, dtype=precision, stream=stream)
    distances = dist.reshape(k, batch, n_queries, n).transpose(1, 2, 0, 3)
    indices = top_idx.reshape(k, batch, n_queries, n).transpose(1, 2, 0, 3).astype(np.int32)
    return BatchKnnResult(distances=np.ascontiguousarray(distances),
                          indices=np.ascontiguousarray(indices))
