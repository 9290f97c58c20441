"""Match-kernel backends: the pluggable k-NN math behind the engine.

:class:`~repro.core.engine.TextureSearchEngine` owns the cache, the
batch builder and the sweep loop; everything algorithm-specific —
reference preparation, query preparation and the per-batch 2-NN match —
lives behind the :class:`MatchKernel` interface.  The paper's two
pipelines are :class:`Algorithm1Kernel` (cuBLAS + cached ``N_R`` norms)
and :class:`Algorithm2Kernel` (RootSIFT, norm-free, batched); the
baselines the paper compares against are adapted to the same interface
in :mod:`repro.baselines.adapters`, so they run through the real
engine, hybrid cache and bench harness.

There is one query shape: a *group* of ``Q`` queries, a single query
being the group of one.  Query preparation returns an explicit
:class:`PreparedQuery` value that the engine threads through the
sweep — kernels hold no per-query mutable state, which is what makes
one engine instance safe to use for interleaved ``search``/``verify``
calls.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from ..features.rootsift import l2_normalize, rootsift
from ..features.selection import pad_or_trim
from ..fp16.convert import FP16_MAX, to_scaled_fp16
from ..gpusim.engine_model import GPUDevice
from .algorithm1 import PreparedFeatures, knn_algorithm1, prepare_query, prepare_reference
from .algorithm2 import knn_algorithm2
from .batching import ReferenceBatch
from .ratio_test import batch_ratio_test_masks  # noqa: F401 - perfbench's tracer looks this name up
from .ratio_test import match_images, match_images_batch
from .results import ImageMatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .config import EngineConfig

__all__ = [
    "Algorithm1Kernel",
    "Algorithm2Kernel",
    "MatchKernel",
    "PreparedQuery",
]


@dataclass
class PreparedQuery:
    """A query group in kernel-ready form, returned by ``prepare_query``.

    ``matrix`` is the ``(Q, d, n)`` engine-precision query tensor.
    ``aux`` is ``None`` or one kernel-specific extra per query
    (Algorithm 1 keeps each query's :class:`PreparedFeatures` with its
    on-device ``N_Q`` vector here; the LSH adapter keeps hash codes).
    """

    matrix: np.ndarray
    aux: list[Any] | None = None

    @property
    def n_queries(self) -> int:
        return self.matrix.shape[0]


def _pruned_match(reference_id: str, n: int, keep_masks: bool) -> ImageMatch:
    """The zero-match entry of a reference a prefilter pruned."""
    return ImageMatch(
        reference_id=reference_id,
        good_matches=0,
        n_query_features=n,
        match_mask=np.zeros(n, dtype=bool) if keep_masks else None,
        matched_reference_indices=np.zeros(0, dtype=np.int32) if keep_masks else None,
    )


class MatchKernel(ABC):
    """One match-kernel backend.

    A kernel is constructed once per engine with that engine's
    :class:`~repro.core.config.EngineConfig` and must be stateless with
    respect to queries: everything a sweep needs is in the
    :class:`PreparedQuery` it returned.  Backends with a fused GEMM
    override :meth:`match_batch`; the rest implement
    :meth:`match_query`, which the default :meth:`match_batch` runs once
    per query of the group.

    Class attributes
    ----------------
    name:
        Registry name (see :mod:`repro.core.registry`).
    needs_norms:
        Whether cached :class:`ReferenceBatch` blocks carry ``N_R``
        squared-norm vectors next to the feature tensors.
    needs_aux:
        Whether cached batches carry a kernel-computed per-image aux
        array (:meth:`reference_aux`) next to the feature tensors —
        the cascade kernel's packed sign-bit codes.  Aux rides inside
        ``ReferenceBatch.nbytes``, so the hybrid cache accounts and
        evicts it with the batch.
    has_prefilter:
        Whether :meth:`prefilter_batch` prunes references ahead of the
        exact match — the engine calls it *before* staging a
        host-resident batch, so a fully-pruned batch never pays its
        H2D transfer.
    """

    name: str = "abstract"
    needs_norms: bool = False
    needs_aux: bool = False
    has_prefilter: bool = False

    def __init__(self, config: "EngineConfig") -> None:
        self.config = config

    # -- configuration -------------------------------------------------
    @classmethod
    def validate_config(cls, config: "EngineConfig") -> None:
        """Raise ``ValueError`` when ``config`` cannot drive this kernel."""

    @classmethod
    def memory_per_image(cls, config: "EngineConfig", m: int | None = None) -> int:
        """Bytes one cached reference image occupies under this kernel."""
        per_elem = 2 if config.precision == "fp16" else 4
        rows = config.m if m is None else int(m)
        nbytes = rows * config.d * per_elem
        if cls.needs_norms:
            nbytes += rows * per_elem  # the cached N_R vector
        return nbytes

    def describe(self) -> str:
        """Short tag for profile-report headers."""
        return self.name

    # -- shared helpers ------------------------------------------------
    def _check_descriptors(self, descriptors: np.ndarray) -> np.ndarray:
        descriptors = np.asarray(descriptors, dtype=np.float32)
        if descriptors.ndim != 2 or descriptors.shape[0] != self.config.d:
            raise ValueError(
                f"descriptors must be ({self.config.d}, count), got {descriptors.shape}"
            )
        return descriptors

    def _to_engine_precision(self, matrix: np.ndarray) -> np.ndarray:
        cfg = self.config
        if cfg.precision == "fp16":
            return to_scaled_fp16(matrix, cfg.scale_factor).values
        return np.asarray(matrix, dtype=np.float32)

    # -- reference side ------------------------------------------------
    @abstractmethod
    def prepare_reference(
        self, descriptors: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Shape/normalise/quantise one ``(d, count)`` reference matrix.

        Returns the stored representation: the ``(d, m)`` matrix in
        engine precision plus the ``N_R`` vector when
        :attr:`needs_norms` (else ``None``).
        """

    def norms_for_stored(self, matrix: np.ndarray) -> np.ndarray | None:
        """Recover the ``N_R`` vector of an already *stored* matrix.

        Used by ``import_records``: serialized records hold only the
        stored-domain matrix, and norm-free kernels return ``None``.
        """
        return None

    def reference_aux(self, matrix: np.ndarray) -> np.ndarray:
        """Per-image aux array for one *stored* ``(d, m)`` matrix.

        Called by the engine when :attr:`needs_aux`, both at enrolment
        and when re-importing serialized records (aux is deterministic
        given the stored matrix, so it is recomputed, never persisted).
        """
        raise ValueError(f"backend {self.name!r} does not cache aux data")

    # -- prefilter -----------------------------------------------------
    def prefilter_batch(
        self,
        device: GPUDevice,
        batch: ReferenceBatch,
        query: PreparedQuery,
    ) -> np.ndarray | None:
        """Survivor mask (``(Q, batch.size)`` bool) ahead of the exact
        match, charging the device for the prune test itself.

        ``None`` means "no pruning decision" (all slots survive).  The
        engine short-circuits batches where no query keeps a slot
        before any H2D staging, and passes the mask to
        :meth:`match_batch` as ``survivors`` so the kernel skips the
        exact GEMM for pruned (query, slot) pairs.  Only called when
        :attr:`has_prefilter`.
        """
        return None

    # -- query side ----------------------------------------------------
    @abstractmethod
    def query_matrix(self, descriptors: np.ndarray) -> np.ndarray:
        """Pure transform of ``(d, count)`` descriptors to the
        ``(d, n)`` engine-precision query matrix (never charged)."""

    def prepare_query(
        self, device: GPUDevice, descriptor_list: list[np.ndarray]
    ) -> PreparedQuery:
        """Prepare a query group, charging the device where the paper
        does (e.g. Algorithm 1's query H2D + ``N_Q``, once per query)."""
        return PreparedQuery(
            matrix=np.stack([self.query_matrix(q) for q in descriptor_list])
        )

    # -- matching ------------------------------------------------------
    def match_batch(
        self,
        device: GPUDevice,
        batch: ReferenceBatch,
        query: PreparedQuery,
        keep_masks: bool = False,
        survivors: np.ndarray | None = None,
    ) -> list[list[ImageMatch]]:
        """Match a query group against one batch: one match list per
        query, each holding one entry per slot in slot order.

        ``survivors`` is the prefilter's ``(Q, batch.size)`` mask.  The
        default answers the queries one by one through
        :meth:`match_query`, so each pays exactly the device charges of
        a group of one.
        """
        return [
            self.match_query(
                device,
                batch,
                query.matrix[q],
                None if query.aux is None else query.aux[q],
                keep_masks,
                None if survivors is None else survivors[q],
            )
            for q in range(query.n_queries)
        ]

    def match_query(
        self,
        device: GPUDevice,
        batch: ReferenceBatch,
        matrix: np.ndarray,
        aux: Any,
        keep_masks: bool,
        survivors: np.ndarray | None,
    ) -> list[ImageMatch]:
        """Match one ``(d, n)`` query of a group (with its ``aux``
        entry) against one batch; ``survivors`` is its prefilter row."""
        raise NotImplementedError(f"backend {self.name!r} implements neither match path")


class Algorithm2Kernel(MatchKernel):
    """The paper's RootSIFT pipeline.

    Unit-normalised features make the norm vectors vanish; references
    batch into fused GEMMs and the whole sweep is four steps per batch
    (:mod:`repro.core.algorithm2`).  The query group fuses into the
    same GEMM (Sec. 5.3 extension).
    """

    name = "algorithm2"
    needs_norms = False

    def describe(self) -> str:
        return f"+ {self.config.normalization}"

    def _unit_normalize(self, descriptors: np.ndarray) -> np.ndarray:
        if not descriptors.size:
            return descriptors
        if self.config.normalization == "rootsift":
            return rootsift(descriptors)
        return l2_normalize(descriptors)

    def prepare_reference(self, descriptors):
        cfg = self.config
        descriptors = self._check_descriptors(descriptors)
        matrix = pad_or_trim(self._unit_normalize(descriptors), cfg.m)
        return self._to_engine_precision(matrix), None

    def query_matrix(self, descriptors):
        cfg = self.config
        descriptors = self._check_descriptors(descriptors)
        matrix = pad_or_trim(self._unit_normalize(descriptors), cfg.n)
        return self._to_engine_precision(matrix)

    def match_batch(self, device, batch, query, keep_masks=False, survivors=None):
        cfg = self.config
        result = knn_algorithm2(
            device,
            batch.tensor,
            query.matrix,
            scale=cfg.effective_scale,
            k=cfg.k,
            precision=cfg.precision,
            tensor_core=cfg.tensor_core,
        )
        device.cpu_postprocess(batch.size * query.n_queries, cfg.precision, cfg.n)
        # one vectorised ratio-test/count pass per query over the batch
        return [
            match_images_batch(
                batch.ids, result.distances[:, q], result.indices[:, q],
                cfg.ratio_threshold, keep_masks,
            )
            for q in range(query.n_queries)
        ]

    #: one fused path serves every group size; perfbench's tracer looks this name up
    match_batch_multi = match_batch


class Algorithm1Kernel(MatchKernel):
    """The paper's cuBLAS pipeline.

    Raw descriptors with cached ``N_R`` squared-norm vectors; matching
    loops per image (and per query) because the paper batches only the
    RootSIFT pipeline.  The sort is the register top-2 scan by default
    (``EngineConfig.sort_kind``).
    """

    name = "algorithm1"
    needs_norms = True

    def describe(self) -> str:
        return "(Alg. 1)"

    def _sort_kind(self) -> str:
        return self.config.sort_kind

    def prepare_reference(self, descriptors):
        cfg = self.config
        descriptors = self._check_descriptors(descriptors)
        matrix = pad_or_trim(descriptors, cfg.m)
        prepared = prepare_reference(matrix, cfg.precision, cfg.effective_scale)
        return prepared.values, prepared.norms

    def norms_for_stored(self, matrix):
        cfg = self.config
        v = matrix.astype(np.float32)
        norms = np.einsum("dc,dc->c", v, v)
        if cfg.precision == "fp16":
            # match prepare_reference's FP16-stored N_R exactly
            norms = np.clip(norms, 0, FP16_MAX).astype(np.float16)
        return norms.astype(np.float32)

    def query_matrix(self, descriptors):
        cfg = self.config
        descriptors = self._check_descriptors(descriptors)
        return self._to_engine_precision(pad_or_trim(descriptors, cfg.n))

    def prepare_query(self, device, descriptor_list):
        cfg = self.config
        features = [
            prepare_query(
                device,
                pad_or_trim(self._check_descriptors(descriptors), cfg.n),
                cfg.precision,
                cfg.effective_scale,
            )
            for descriptors in descriptor_list
        ]
        return PreparedQuery(matrix=np.stack([f.values for f in features]), aux=features)

    def match_query(self, device, batch, matrix, aux, keep_masks, survivors):
        cfg = self.config
        matches = []
        for i in range(batch.size):
            if survivors is not None and not survivors[i]:
                # prefilter-pruned: no GEMM, no scan, no post-processing.
                matches.append(_pruned_match(batch.ids[i], cfg.n, keep_masks))
                continue
            ref = PreparedFeatures(
                values=batch.tensor[i],
                norms=batch.norms[i],
                precision=cfg.precision,
                scale=cfg.effective_scale,
            )
            knn = knn_algorithm1(device, ref, aux, k=cfg.k, sort_kind=self._sort_kind())
            device.cpu_postprocess(1, cfg.precision, cfg.n)
            matches.append(match_images(batch.ids[i], knn, cfg.ratio_threshold, keep_masks))
        return matches
