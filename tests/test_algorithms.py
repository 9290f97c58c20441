"""Algorithms 1 and 2: numerical correctness and cross-consistency."""

import numpy as np
import pytest

from repro.core import knn_algorithm1, knn_algorithm2, prepare_query, prepare_reference
from repro.errors import HalfPrecisionOverflowError
from repro.features import rootsift
from repro.fp16 import pairwise_distances
from tests.conftest import make_descriptors, noisy_copy


class TestPrepare:
    def test_reference_norms(self):
        prep = prepare_reference(make_descriptors(8, seed=0), "fp32")
        np.testing.assert_allclose(prep.norms, 512.0**2, rtol=1e-4)

    def test_fp16_requires_safe_scale(self):
        with pytest.raises(HalfPrecisionOverflowError):
            prepare_reference(make_descriptors(4, seed=1), "fp16", scale=1.0)
        prep = prepare_reference(make_descriptors(4, seed=1), "fp16", scale=2.0**-7)
        assert prep.values.dtype == np.float16

    def test_query_charges_device(self, p100):
        prepare_query(p100, make_descriptors(4, seed=2), "fp32")
        assert p100.elapsed_us() > 0

    def test_bad_precision(self):
        with pytest.raises(ValueError):
            prepare_reference(make_descriptors(2), "int8")


class TestAlgorithm1:
    def test_fp32_distances_exact(self, p100):
        ref_d = make_descriptors(32, seed=3)
        qry_d = noisy_copy(ref_d, 20.0, seed=4)
        ref = prepare_reference(ref_d, "fp32")
        qry = prepare_query(p100, qry_d, "fp32")
        knn = knn_algorithm1(p100, ref, qry, k=2)
        exact = pairwise_distances(ref_d, qry_d)
        expected = np.sort(exact, axis=0)[:2]
        np.testing.assert_allclose(knn.distances, expected, rtol=1e-4, atol=1e-2)

    def test_indices_point_to_nearest(self, p100):
        ref_d = make_descriptors(16, seed=5)
        ref = prepare_reference(ref_d, "fp32")
        qry = prepare_query(p100, ref_d, "fp32")  # query itself
        knn = knn_algorithm1(p100, ref, qry, k=2)
        np.testing.assert_array_equal(knn.indices[0], np.arange(16))
        # catastrophic cancellation of the 512^2-magnitude norm terms
        # leaves ~0.1-unit noise on a 512-norm scale — still "zero"
        np.testing.assert_allclose(knn.distances[0], 0.0, atol=0.5)

    def test_fp16_close_to_fp32(self, p100):
        ref_d = make_descriptors(24, seed=6)
        qry_d = noisy_copy(ref_d, 30.0, seed=7)
        scale = 2.0**-7
        ref32 = prepare_reference(ref_d, "fp32")
        qry32 = prepare_query(p100, qry_d, "fp32")
        knn32 = knn_algorithm1(p100, ref32, qry32)
        ref16 = prepare_reference(ref_d, "fp16", scale)
        qry16 = prepare_query(p100, qry_d, "fp16", scale)
        knn16 = knn_algorithm1(p100, ref16, qry16)
        mask = knn32.distances > 1.0
        rel = np.abs(knn32.distances[mask] - knn16.distances[mask]) / knn32.distances[mask]
        assert rel.mean() < 0.01

    def test_insertion_and_scan_agree(self, p100):
        ref_d = make_descriptors(20, seed=8)
        qry_d = noisy_copy(ref_d, 25.0, seed=9)
        ref = prepare_reference(ref_d, "fp32")
        qry = prepare_query(p100, qry_d, "fp32")
        a = knn_algorithm1(p100, ref, qry, sort_kind="scan")
        b = knn_algorithm1(p100, ref, qry, sort_kind="insertion")
        np.testing.assert_allclose(a.distances, b.distances)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_profiler_has_paper_steps(self, p100):
        ref = prepare_reference(make_descriptors(8, seed=10), "fp32")
        qry = prepare_query(p100, make_descriptors(8, seed=11), "fp32")
        knn_algorithm1(p100, ref, qry)
        steps = p100.profiler.as_dict()
        for name in ("GEMM", "add N_R", "Top-2 sort", "add N_Q + sqrt", "D2H copy"):
            assert name in steps, name

    def test_precision_mismatch(self, p100):
        ref = prepare_reference(make_descriptors(4, seed=12), "fp32")
        qry = prepare_query(p100, make_descriptors(4, seed=13), "fp16", 2.0**-7)
        with pytest.raises(ValueError, match="precision"):
            knn_algorithm1(p100, ref, qry)

    def test_scale_mismatch(self, p100):
        ref = prepare_reference(make_descriptors(4, seed=12), "fp16", 2.0**-7)
        qry = prepare_query(p100, make_descriptors(4, seed=13), "fp16", 2.0**-8)
        with pytest.raises(ValueError, match="scale"):
            knn_algorithm1(p100, ref, qry)

    def test_bad_sort_kind(self, p100):
        ref = prepare_reference(make_descriptors(4, seed=14), "fp32")
        qry = prepare_query(p100, make_descriptors(4, seed=15), "fp32")
        with pytest.raises(ValueError, match="sort_kind"):
            knn_algorithm1(p100, ref, qry, sort_kind="bubble")


class TestAlgorithm2:
    def _rootsift_batch(self, n_imgs, m, seed):
        return np.stack(
            [rootsift(make_descriptors(m, seed=seed + i)) for i in range(n_imgs)]
        )

    def test_matches_algorithm1_per_image(self, p100):
        batch = self._rootsift_batch(4, 16, seed=20)
        query = rootsift(noisy_copy(make_descriptors(16, seed=20) , 30.0, seed=99))
        result = knn_algorithm2(p100, batch, query[None], precision="fp32")
        for i in range(4):
            exact = pairwise_distances(batch[i], query)
            expected = np.sort(exact, axis=0)[:2]
            np.testing.assert_allclose(result.image(i).distances, expected, atol=1e-3)

    def test_fp16_scaled_distances(self, p100):
        scale = 0.25
        batch = self._rootsift_batch(3, 12, seed=30) * np.float32(scale)
        query = rootsift(make_descriptors(12, seed=30)) * np.float32(scale)
        result = knn_algorithm2(p100, batch.astype(np.float16), query[None].astype(np.float16),
                                scale=scale, precision="fp16")
        # image 0 contains the query's source features -> near-zero NN
        assert result.image(0).distances[0].max() < 0.1

    def test_unit_norm_identity_distance(self, p100):
        batch = self._rootsift_batch(1, 8, seed=40)
        result = knn_algorithm2(p100, batch, batch[:1], precision="fp32")
        np.testing.assert_allclose(result.image(0).distances[0], 0.0, atol=1e-3)
        np.testing.assert_array_equal(result.image(0).indices[0], np.arange(8))

    def test_shapes(self, p100):
        batch = self._rootsift_batch(5, 10, seed=50)
        query = rootsift(make_descriptors(7, seed=60))
        result = knn_algorithm2(p100, batch, query[None], precision="fp32")
        assert result.distances.shape == (5, 1, 2, 7)
        assert result.batch == 5
        assert result.n_queries == 1

    def test_overflow_raises(self, p100):
        # unscaled 512-norm raw SIFT in the fp16 path must overflow
        batch = np.stack([make_descriptors(8, seed=70)])
        with pytest.raises(HalfPrecisionOverflowError):
            knn_algorithm2(p100, batch.astype(np.float16), make_descriptors(8, seed=70)[None],
                           scale=1.0, precision="fp16")

    def test_validation(self, p100):
        with pytest.raises(ValueError, match="batch, d, m"):
            knn_algorithm2(p100, np.ones((4, 4), np.float32), np.ones((1, 4, 4), np.float32))
        with pytest.raises(ValueError, match="Q, d, n"):
            knn_algorithm2(p100, np.ones((2, 4, 4), np.float32), np.ones((4, 3), np.float32))
        with pytest.raises(ValueError, match="do not match"):
            knn_algorithm2(p100, np.ones((2, 4, 4), np.float32), np.ones((1, 5, 3), np.float32))
        with pytest.raises(ValueError, match="precision"):
            knn_algorithm2(p100, np.ones((2, 4, 4), np.float32), np.ones((1, 4, 3), np.float32),
                           precision="int8")
