"""Hypothesis properties for the FP16 blas (the multi-query kernel's
fusion invariance lives in ``test_query_groups.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.blas import batched_hgemm, hgemm
from repro.gpusim import GPUDevice, TESLA_P100


class TestHgemmProperties:
    @given(
        m=st.integers(1, 8), n=st.integers(1, 8), k=st.integers(1, 16),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_hgemm_close_to_fp32_for_small_values(self, m, n, k, seed):
        device = GPUDevice(TESLA_P100)
        rng = np.random.default_rng(seed)
        a = rng.random((k, m)).astype(np.float32)
        b = rng.random((k, n)).astype(np.float32)
        out, overflow = hgemm(device, a, b, transpose_a=True)
        assert not overflow
        exact = a.T @ b
        # fp16 inputs: relative error bounded by ~k * 2^-10
        np.testing.assert_allclose(out, exact, rtol=2e-3 * max(k, 4), atol=1e-3)

    @given(batch=st.integers(1, 5), seed=st.integers(0, 50))
    @settings(max_examples=20, deadline=None)
    def test_batched_equals_loop(self, batch, seed):
        device = GPUDevice(TESLA_P100)
        rng = np.random.default_rng(seed)
        refs = rng.random((batch, 8, 6)).astype(np.float32)
        q = rng.random((8, 4)).astype(np.float32)
        fused, _ = batched_hgemm(device, refs, q)
        for i in range(batch):
            single, _ = hgemm(device, refs[i], q, transpose_a=True)
            np.testing.assert_allclose(fused[i], single, atol=1e-4, rtol=1e-3)
